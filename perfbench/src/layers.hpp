#pragma once

/// \file layers.hpp
/// Per-layer measurement helpers for the traced runs: draining the
/// library's flight-recorder engine spans into the benchmark's span log,
/// same-run reference probes (single measure per engine, the n=1 lane
/// path, a fault-ladder walk, fleet parallel efficiency) and the lane
/// layout arithmetic.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/compass_fleet.hpp"
#include "fault/fault_injector.hpp"
#include "magnetics/earth_field.hpp"

namespace perfbench {

/// The design site every workload measures in: 48 uT at 67 deg dip.
[[nodiscard]] fxg::magnetics::EarthField site_field();

/// The fault the faulted workloads inject: member's x detector stuck low.
[[nodiscard]] fxg::fault::FaultSpec stuck_x_detector();

/// One candidate parent for drained engine spans.
struct ParentWindow {
    std::uint64_t id = 0;
    std::uint64_t group = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

[[nodiscard]] ParentWindow window_of(const SpanRec& span);

/// Moves the flight recorder's new `engine.*` spans (lane, block and
/// scalar stepping) into a SpanLog, each as a child of the window that
/// contains its start. The recorder is a ring, so drain at least once
/// per ~2000 records per worker thread.
class RecorderDrain {
public:
    explicit RecorderDrain(fxg::telemetry::FlightRecorder& recorder);

    /// Returns the engine-stepping time moved [ns].
    double drain(SpanLog& log, const std::vector<ParentWindow>& parents);

private:
    fxg::telemetry::FlightRecorder& recorder_;
    std::uint64_t last_id_ = 0;
};

/// Members divided by SIMD lanes stepped when a fleet of `members`
/// runs through lane groups (CompassFleet::kLaneGroupSize members per
/// group, padded to whole stripes of util::simd::kLanes).
[[nodiscard]] double useful_lane_ratio(int members);

/// Same-run references measured in every traced run.
struct References {
    double block_measure_ms = 0.0;   ///< Compass::measure, Block engine (median)
    double scalar_measure_ms = 0.0;  ///< Compass::measure, Scalar engine (median)
    double n1_ns_per_member_sample = 0.0;  ///< 1-member fleet, engine time
    double ladder_ms = 0.0;  ///< one degradation-ladder walk (DetectorStuckLow)
};

/// Measures the references; spans land in `log` under a "reference"
/// root. `with_ladder` = false skips the ladder walk (the workload
/// already walked real ones).
[[nodiscard]] References measure_references(SpanLog& log, bool with_ladder);

/// serial / (threads * threaded) median sweep time of `fleet`.
[[nodiscard]] double parallel_efficiency(fxg::compass::CompassFleet& fleet,
                                         int threads, int repeats);

/// Each layer's share of the busy time a span set accounts for: the
/// layer's self time over the sum of every span's self time (engine
/// spans on several worker threads each count in full).
void add_self_shares(const std::vector<SpanRec>& spans, std::vector<Metric>& out);

}  // namespace perfbench
