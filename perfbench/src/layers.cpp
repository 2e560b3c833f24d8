#include "layers.hpp"

#include <algorithm>
#include <map>

#include "core/compass.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "magnetics/units.hpp"
#include "telemetry/exporters.hpp"
#include "util/simd.hpp"

namespace perfbench {

using namespace fxg;

magnetics::EarthField site_field() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

fault::FaultSpec stuck_x_detector() {
    fault::FaultSpec spec;
    spec.fault = fault::FaultClass::DetectorStuckLow;
    spec.channel = analog::Channel::X;
    return spec;
}

ParentWindow window_of(const SpanRec& span) {
    return {span.id, span.group, span.start_ns, span.end_ns};
}

RecorderDrain::RecorderDrain(telemetry::FlightRecorder& recorder)
    : recorder_(recorder) {
    for (const auto& s : telemetry::parse_trace_jsonl(recorder_.trace_jsonl()).spans) {
        last_id_ = std::max<std::uint64_t>(last_id_, s.id);
    }
}

double RecorderDrain::drain(SpanLog& log, const std::vector<ParentWindow>& parents) {
    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder_.trace_jsonl());
    std::uint64_t max_id = last_id_;
    double moved_ns = 0.0;
    for (const telemetry::ParsedSpan& s : trace.spans) {
        if (s.id <= last_id_) continue;
        max_id = std::max<std::uint64_t>(max_id, s.id);
        if (s.name.rfind("engine.", 0) != 0) continue;
        for (const ParentWindow& p : parents) {
            if (s.start_ns >= p.start_ns && s.start_ns <= p.end_ns) {
                log.add(SpanRec{s.name, 0, p.id, p.group, s.start_ns, s.end_ns});
                moved_ns += static_cast<double>(s.end_ns - s.start_ns);
                break;
            }
        }
    }
    last_id_ = max_id;
    return moved_ns;
}

double useful_lane_ratio(int members) {
    constexpr int kGroup = compass::CompassFleet::kLaneGroupSize;
    constexpr int kLanes = util::simd::kLanes;
    long lanes = 0;
    for (int begin = 0; begin < members; begin += kGroup) {
        const int n = std::min(kGroup, members - begin);
        lanes += static_cast<long>((n + kLanes - 1) / kLanes) * kLanes;
    }
    return lanes > 0 ? static_cast<double>(members) / static_cast<double>(lanes) : 0.0;
}

namespace {

double median_ms_of(int repeats, const auto& fn) {
    Samples s;
    for (int i = 0; i < repeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        s.add(ms_between(t0, Clock::now()));
    }
    return s.median();
}

}  // namespace

References measure_references(SpanLog& log, bool with_ladder) {
    References r;
    const magnetics::EarthField field = site_field();
    const std::uint64_t root = log.begin("reference", 0, 0);

    for (const sim::EngineKind engine : {sim::EngineKind::Block, sim::EngineKind::Scalar}) {
        compass::CompassConfig cfg;
        cfg.engine = engine;
        compass::Compass c(cfg);
        c.set_environment(field, 137.0);
        static_cast<void>(c.measure());
        const bool block = engine == sim::EngineKind::Block;
        const double ms = median_ms_of(block ? 15 : 5, [&] {
            const Scoped span(&log, block ? "core.measure_block" : "core.measure_scalar",
                              root, 0);
            static_cast<void>(c.measure());
        });
        (block ? r.block_measure_ms : r.scalar_measure_ms) = ms;
    }

    {
        compass::CompassFleet fleet(1);
        fleet.set_environment(0, field, 137.0);
        static_cast<void>(fleet.measure_all_results(1));
        RecorderDrain drain(fleet.flight_recorder());
        std::vector<ParentWindow> windows;
        constexpr int kCalls = 20;
        for (int i = 0; i < kCalls; ++i) {
            const Scoped span(&log, "core.sweep_n1", root, 0);
            static_cast<void>(fleet.measure_all_results(1));
        }
        for (const SpanRec& s : log.spans()) {
            if (s.name == "core.sweep_n1") windows.push_back(window_of(s));
        }
        const double engine_ns = drain.drain(log, windows);
        r.n1_ns_per_member_sample =
            engine_ns / (kCalls * static_cast<double>(fleet.plan().total_steps()));
    }

    if (with_ladder) {
        compass::Compass c;
        c.set_environment(field, 137.0);
        fault::MeasurementSupervisor sup(c);
        static_cast<void>(sup.measure());  // last-good anchor, as the daemon's warmup
        fault::FaultInjector injector;
        injector.add(stuck_x_detector());
        injector.arm(c);
        r.ladder_ms = median_ms_of(5, [&] {
            const Scoped span(&log, "fault.ladder", root, 0);
            static_cast<void>(sup.measure());
        });
        injector.disarm();
    }

    log.end(root);
    return r;
}

double parallel_efficiency(compass::CompassFleet& fleet, int threads, int repeats) {
    if (threads <= 1) return 1.0;
    Samples serial, threaded;
    for (int i = 0; i < repeats; ++i) {
        Clock::time_point t0 = Clock::now();
        static_cast<void>(fleet.measure_all_results(1));
        serial.add(seconds_between(t0, Clock::now()));
        t0 = Clock::now();
        static_cast<void>(fleet.measure_all_results(threads));
        threaded.add(seconds_between(t0, Clock::now()));
    }
    return serial.median() / (threads * threaded.median());
}

void add_self_shares(const std::vector<SpanRec>& spans, std::vector<Metric>& out) {
    static const std::map<std::string, std::string> kLayerOf = {
        {"service", "service"}, {"core", "core"},         {"engine", "sim"},
        {"fault", "fault"},     {"snapshot", "snapshot"}, {"telemetry", "telemetry"},
    };
    std::map<std::string, double> self_ns = {
        {"service", 0.0}, {"core", 0.0}, {"sim", 0.0},
        {"fault", 0.0},   {"snapshot", 0.0}, {"telemetry", 0.0},
    };
    double busy_ns = 0.0;  // every span's self time: thread-busy time accounted
    for (const auto& [name, t] : name_times(spans)) {
        busy_ns += t.self_ns;
        const auto dot = name.find('.');
        if (dot == std::string::npos) continue;
        const auto it = kLayerOf.find(name.substr(0, dot));
        if (it != kLayerOf.end()) self_ns[it->second] += t.self_ns;
    }
    for (const auto& [layer, ns] : self_ns) {
        out.push_back({layer + ".self_share", busy_ns > 0.0 ? ns / busy_ns : 0.0, "ratio"});
    }
}

}  // namespace perfbench
