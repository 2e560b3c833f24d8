/// \file bench_diff.cpp
/// Perf-trajectory sentry: compares two BENCH_*.json files (written by
/// telemetry::write_bench_json) and exits nonzero when any shared
/// record regressed beyond a relative tolerance.
///
///   bench_diff <baseline.json> <current.json> [--tolerance=0.5]
///
/// Direction is inferred per record:
///   higher-is-better  names containing per_s / speedup / throughput,
///                     or with unit "1/s" or "x";
///   lower-is-better   names containing latency / seconds / _ms /
///                     overhead, or with unit "s" / "ms" / "s/s" (a
///                     ratio of two timings taken in the same run);
///   informational     everything else — printed, never gated (counts,
///                     raw physics gauges, provenance stamps).
///
/// Records present in only one file are warned about but do not fail
/// the run: the trajectory grows new records with every PR, and a
/// sentry that blocked every addition would just get deleted. The
/// tolerance is deliberately generous by default — CI machines share
/// tenants; the sentry exists to catch the 2x cliff nobody meant to
/// ship, not 5% jitter.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/exporters.hpp"

namespace {

enum class Direction { HigherBetter, LowerBetter, Informational };

bool contains(const std::string& haystack, const char* needle) {
    return haystack.find(needle) != std::string::npos;
}

Direction classify(const fxg::telemetry::BenchRecord& r) {
    if (contains(r.name, "per_s") || contains(r.name, "speedup") ||
        contains(r.name, "throughput") || r.unit == "1/s" || r.unit == "x") {
        return Direction::HigherBetter;
    }
    if (contains(r.name, "latency") || contains(r.name, "seconds") ||
        contains(r.name, "_ms") || contains(r.name, "overhead") ||
        r.unit == "s" || r.unit == "ms" || r.unit == "s/s") {
        return Direction::LowerBetter;
    }
    return Direction::Informational;
}

const char* direction_mark(Direction d) {
    switch (d) {
        case Direction::HigherBetter: return "^";
        case Direction::LowerBetter: return "v";
        case Direction::Informational: return "-";
    }
    return "?";
}

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    double tolerance = 0.5;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
            tolerance = std::strtod(argv[i] + 12, nullptr);
        } else {
            files.emplace_back(argv[i]);
        }
    }
    if (files.size() != 2 || tolerance < 0.0) {
        std::fprintf(stderr,
                     "usage: bench_diff <baseline.json> <current.json> "
                     "[--tolerance=0.5]\n");
        return 2;
    }

    std::vector<fxg::telemetry::BenchRecord> baseline;
    std::vector<fxg::telemetry::BenchRecord> current;
    try {
        baseline = fxg::telemetry::parse_bench_json(read_file(files[0]));
        current = fxg::telemetry::parse_bench_json(read_file(files[1]));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_diff: %s\n", e.what());
        return 2;
    }

    std::unordered_map<std::string, const fxg::telemetry::BenchRecord*> base_by_name;
    for (const auto& r : baseline) base_by_name.emplace(r.name, &r);

    int regressions = 0;
    int compared = 0;
    for (const auto& cur : current) {
        if (!cur.text.empty()) continue;  // provenance stamps (git SHA etc.)
        const auto it = base_by_name.find(cur.name);
        if (it == base_by_name.end()) {
            std::printf("  new      %-56s %.6g %s\n", cur.name.c_str(), cur.value,
                        cur.unit.c_str());
            continue;
        }
        const fxg::telemetry::BenchRecord& base = *it->second;
        base_by_name.erase(it);
        if (!base.text.empty()) continue;

        const Direction dir = classify(cur);
        const double ratio = base.value != 0.0 ? cur.value / base.value
                             : cur.value == 0.0 ? 1.0
                                                : HUGE_VAL;
        bool regressed = false;
        if (dir == Direction::HigherBetter) {
            regressed = cur.value < base.value * (1.0 - tolerance);
        } else if (dir == Direction::LowerBetter) {
            regressed = cur.value > base.value * (1.0 + tolerance);
        }
        ++compared;
        if (regressed) {
            ++regressions;
            std::printf("REGRESSED%s %-56s %.6g -> %.6g %s (%.2fx)\n",
                        direction_mark(dir), cur.name.c_str(), base.value,
                        cur.value, cur.unit.c_str(), ratio);
        } else {
            std::printf("  ok     %s %-56s %.6g -> %.6g %s (%.2fx)\n",
                        direction_mark(dir), cur.name.c_str(), base.value,
                        cur.value, cur.unit.c_str(), ratio);
        }
    }
    for (const auto& [name, rec] : base_by_name) {
        if (!rec->text.empty()) continue;
        std::printf("  gone     %-56s (was %.6g %s)\n", name.c_str(), rec->value,
                    rec->unit.c_str());
    }

    std::printf("\nbench_diff: %d record(s) compared, %d regression(s), "
                "tolerance %.0f%%\n",
                compared, regressions, tolerance * 100.0);
    return regressions > 0 ? 1 : 0;
}
