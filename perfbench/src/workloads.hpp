#pragma once

/// \file workloads.hpp
/// The three workloads. Each run fills a Ledger (every operation
/// attempted and every failure: shed, lost, erroring or failing an
/// output check) and returns its metrics. With `trace` off the metrics
/// are the end-to-end set; with `trace` on, the per-layer set.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct RunResult {
    std::vector<Metric> metrics;
    std::vector<SpanRec> spans;  ///< traced runs only
};

/// serve-wide and serve-faulted: compassd over loopback.
[[nodiscard]] RunResult run_serve(const Options& opt, Ledger& ledger);

/// library-sweep: in-process Compass / CompassFleet calls.
[[nodiscard]] RunResult run_library(const Options& opt, Ledger& ledger);

}  // namespace perfbench
