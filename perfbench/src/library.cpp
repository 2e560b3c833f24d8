/// \file library.cpp
/// library-sweep: no sockets. A closed loop of rounds, each alternating
/// the library's three measurement paths —
///
///   16 x Compass::measure()                 one compass, default engine
///   16 x CompassFleet::measure_all_results  1-member fleet (one query)
///    1 x CompassFleet::measure_all_results  1024-member fleet, 4 threads
///
/// — followed by 16 in-process scrapes of the wide fleet (its /metrics
/// and /healthz providers). Every member runs under its own seeded compiled
/// magnetics::Scenario (turn + hard/soft iron + temperature ramp) whose
/// true heading is known. Output checks run outside the timed calls:
/// every result is ok and in range, the wide fleet's first sweep is
/// scored against scenario truth (heading_err_max_deg, exact for a
/// seed), and a seeded member subset is re-run through
/// FleetExecution::PerMember and must match the lane results bit for
/// bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <numeric>
#include <random>
#include <set>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "fault/health_monitor.hpp"
#include "layers.hpp"
#include "magnetics/scenario.hpp"
#include "service/protocol.hpp"
#include "snapshot/state.hpp"
#include "telemetry/exporters.hpp"
#include "util/angle.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fxg;

namespace {

constexpr int kWide = 1024;
constexpr int kWideThreads = 4;
constexpr int kPerRound = 16;      ///< single measures and n=1 calls per round
constexpr int kScrapesPerRound = 16;
constexpr int kSubset = 32;        ///< members re-run through PerMember
/// Every n-th wide-fleet member turns (one per lane group); the rest
/// hold still. Turning lanes take the engine's per-tick field path.
constexpr int kDynamicEvery = 16;

using ScenarioPtr = std::shared_ptr<const magnetics::CompiledScenario>;

/// One member's environment, with mild hard and soft iron. A static
/// member holds a heading at a constant temperature; a dynamic member
/// turns continuously through a slow temperature ramp for the whole run
/// (the motion outlasts any run, so the workload stays stationary).
ScenarioPtr draw_scenario(std::mt19937_64& rng, double tick_s, double dt_s, bool dynamic) {
    constexpr double kRunTicks = 1.0e5;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    magnetics::Scenario s;
    s.label = dynamic ? "library-sweep turning member" : "library-sweep member";
    s.field = site_field();
    s.initial_heading_deg = 360.0 * u(rng);
    // Every member carries the same amount of iron, oriented at random:
    // a 0.15 A/m hard-iron offset and a 0.4 % soft-iron anisotropy.
    const double hard_dir = 2.0 * std::numbers::pi * u(rng);
    const double soft_dir = 2.0 * std::numbers::pi * u(rng);
    s.hard_iron(0.15 * std::cos(hard_dir), 0.15 * std::sin(hard_dir));
    s.soft_iron(1.0 + 0.004 * std::cos(2.0 * soft_dir), 0.004 * std::sin(2.0 * soft_dir),
                0.004 * std::sin(2.0 * soft_dir), 1.0 - 0.004 * std::cos(2.0 * soft_dir));
    const double temp0 = 15.0 + 15.0 * u(rng);
    if (dynamic) {
        const double rate = (5.0 + 25.0 * u(rng)) * (u(rng) < 0.5 ? -1.0 : 1.0);
        s.turn(rate, kRunTicks * tick_s);
        s.temperature(0.0, temp0).temperature(kRunTicks * tick_s, temp0 + 20.0);
    } else {
        s.hold(kRunTicks * tick_s);
        s.temperature(0.0, temp0);
    }
    return magnetics::compile_scenario(s, dt_s);
}

struct Fixture {
    std::vector<ScenarioPtr> wide_scenarios;
    ScenarioPtr single_scenario, n1_scenario;
    std::unique_ptr<compass::Compass> single;
    std::unique_ptr<compass::CompassFleet> n1;
    std::unique_ptr<compass::CompassFleet> wide;
    std::vector<compass::FleetResult> first_sweep;  ///< the warmup sweep's results
    std::uint64_t plan_compiles = 0;
};

/// Scenario compile + fleet builds (plan compiles) + one warmup call on
/// each path. Returns the elapsed seconds.
double build_fixture(Fixture& f, std::uint64_t seed) {
    const std::uint64_t compiles0 = compass::compile_plan_count();
    const Clock::time_point t0 = Clock::now();
    f.single = std::make_unique<compass::Compass>();
    const compass::MeasurementPlan& plan = f.single->plan();
    const double tick_s = static_cast<double>(plan.total_steps()) * plan.dt_s;
    std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 5);
    f.wide_scenarios.clear();
    for (int i = 0; i < kWide; ++i) {
        f.wide_scenarios.push_back(
            draw_scenario(rng, tick_s, plan.dt_s, i % kDynamicEvery == 0));
    }
    f.single_scenario = draw_scenario(rng, tick_s, plan.dt_s, false);
    f.n1_scenario = draw_scenario(rng, tick_s, plan.dt_s, false);

    f.single->set_field_source(f.single_scenario);
    f.n1 = std::make_unique<compass::CompassFleet>(1);
    f.n1->at(0).set_field_source(f.n1_scenario);
    f.wide = std::make_unique<compass::CompassFleet>(kWide);
    for (int i = 0; i < kWide; ++i) f.wide->at(i).set_field_source(f.wide_scenarios[static_cast<std::size_t>(i)]);

    static_cast<void>(f.single->measure());
    static_cast<void>(f.n1->measure_all_results(1));
    f.first_sweep = f.wide->measure_all_results(kWideThreads);
    const double setup_s = seconds_between(t0, Clock::now());
    f.plan_compiles = compass::compile_plan_count() - compiles0;
    return setup_s;
}

bool heading_sane(const compass::Measurement& m) {
    return std::isfinite(m.heading_deg) && m.heading_deg >= 0.0 && m.heading_deg < 360.0;
}

/// Scores the warmup sweep against scenario truth and re-runs a seeded
/// member subset through the per-member reference path. Returns the
/// largest heading error [deg].
double verify_first_sweep(const Fixture& f, std::uint64_t seed, Ledger& ledger) {
    const std::uint64_t steps = f.wide->plan().total_steps();
    double max_err = 0.0;
    ledger.attempt(kWide);
    for (int i = 0; i < kWide; ++i) {
        const compass::FleetResult& r = f.first_sweep[static_cast<std::size_t>(i)];
        if (!r.ok || !heading_sane(r.measurement)) {
            ledger.fail("wide fleet member failed its first sweep");
            continue;
        }
        const double truth = f.wide_scenarios[static_cast<std::size_t>(i)]->true_heading_deg(steps / 2);
        max_err = std::max(max_err, util::angular_abs_diff_deg(r.measurement.heading_deg, truth));
    }

    std::vector<int> subset(kWide);
    std::iota(subset.begin(), subset.end(), 0);
    std::mt19937_64 rng(seed ^ 0x5EEDull);
    std::shuffle(subset.begin(), subset.end(), rng);
    subset.resize(kSubset);
    compass::CompassFleet reference(kSubset);
    reference.set_execution(compass::FleetExecution::PerMember);
    for (int j = 0; j < kSubset; ++j) {
        reference.at(j).set_field_source(f.wide_scenarios[static_cast<std::size_t>(subset[static_cast<std::size_t>(j)])]);
    }
    const std::vector<compass::FleetResult> ref = reference.measure_all_results(1);
    ledger.attempt(kSubset);
    for (int j = 0; j < kSubset; ++j) {
        const compass::Measurement& a =
            f.first_sweep[static_cast<std::size_t>(subset[static_cast<std::size_t>(j)])].measurement;
        const compass::Measurement& b = ref[static_cast<std::size_t>(j)].measurement;
        if (!ref[static_cast<std::size_t>(j)].ok || a.count_x != b.count_x ||
            a.count_y != b.count_y || a.heading_deg != b.heading_deg || a.energy_j != b.energy_j) {
            ledger.fail("lane result of member " + std::to_string(subset[static_cast<std::size_t>(j)]) +
                        " differs from the PerMember run");
        }
    }
    return max_err;
}

/// What one loop phase measured.
struct LoopOutcome {
    Samples single_ms, n1_ms, wide_s, scrape_ms;
    Samples call_ms;  ///< every library call
    Samples gap_ms;   ///< benchmark time between consecutive calls
    double wall_s = 0.0;
    std::uint64_t answered = 0;
    std::uint64_t rounds = 0;
    std::uint64_t calls = 0;
    std::uint64_t fleet_calls = 0;
    std::uint64_t codec_queries = 0;
    std::size_t metrics_bytes = 0;
    std::vector<SpanRec> spans;
};

/// Runs rounds for `seconds`. With `log` set, every call gets a span,
/// fleet engine spans are drained from the flight recorders as
/// children, each single / n=1 answer is health-checked and sent
/// through the reply codec.
LoopOutcome run_loop(Fixture& f, double seconds, SpanLog* log, Ledger& ledger) {
    LoopOutcome out;
    std::unique_ptr<RecorderDrain> n1_drain, wide_drain;
    fault::HealthMonitor single_monitor, n1_monitor;
    if (log) {
        n1_drain = std::make_unique<RecorderDrain>(f.n1->flight_recorder());
        wide_drain = std::make_unique<RecorderDrain>(f.wide->flight_recorder());
    }
    Clock::time_point last_end = Clock::now();
    const auto timed = [&](const char* name, std::uint64_t root, std::uint64_t group,
                           Samples& into, double scale, const auto& fn) {
        const Clock::time_point t0 = Clock::now();
        out.gap_ms.add(ms_between(last_end, t0));
        {
            const Scoped span(log, name, root, group);
            fn();
        }
        const Clock::time_point t1 = Clock::now();
        into.add(seconds_between(t0, t1) * scale);
        out.call_ms.add(ms_between(t0, t1));
        ++out.calls;
        last_end = t1;
    };
    const auto answer_codec = [&](const compass::Measurement& m, std::uint64_t root,
                                  std::uint64_t group) {
        if (!log) return;
        service::HeadingReply reply;
        {
            const Scoped span(log, "service.encode_reply", root, group);
            reply.request_id = ++out.codec_queries;
            reply.status = service::ReplyStatus::Ok;
            reply.heading_deg = m.heading_deg;
            reply.count_x = m.count_x;
            reply.count_y = m.count_y;
            const std::vector<std::uint8_t> bytes = service::encode_reply(reply);
            service::FrameReader reader;
            reader.feed(bytes.data(), bytes.size());
            service::Frame frame;
            if (!reader.next(frame) || service::decode_reply(frame).request_id != reply.request_id) {
                ledger.fail("reply codec did not round-trip");
            }
        }
    };

    const Clock::time_point start = Clock::now();
    while (seconds_between(start, Clock::now()) < seconds) {
        const std::uint64_t group = ++out.rounds;
        const std::uint64_t root = log ? log->begin("round", 0, group) : 0;
        for (int i = 0; i < kPerRound; ++i) {
            compass::Measurement m;
            timed("core.measure", root, group, out.single_ms, 1e3, [&] { m = f.single->measure(); });
            ledger.attempt();
            if (!heading_sane(m)) ledger.fail("single measure out of range");
            ++out.answered;
            if (log) {
                const Scoped span(log, "fault.health_check", root, group);
                static_cast<void>(single_monitor.check(*f.single, m));
            }
            answer_codec(m, root, group);
        }
        std::vector<ParentWindow> n1_windows;
        for (int i = 0; i < kPerRound; ++i) {
            std::vector<compass::FleetResult> r;
            timed("core.sweep_n1", root, group, out.n1_ms, 1e3,
                  [&] { r = f.n1->measure_all_results(1); });
            if (log) n1_windows.push_back(window_of(log->spans().back()));
            ++out.fleet_calls;
            ledger.attempt();
            if (!r[0].ok || !heading_sane(r[0].measurement)) ledger.fail("n=1 fleet call failed");
            ++out.answered;
            if (log) {
                const Scoped span(log, "fault.health_check", root, group);
                static_cast<void>(n1_monitor.check(f.n1->at(0), r[0].measurement));
            }
            answer_codec(r[0].measurement, root, group);
        }
        std::vector<compass::FleetResult> wide;
        timed("core.sweep", root, group, out.wide_s, 1.0,
              [&] { wide = f.wide->measure_all_results(kWideThreads); });
        ++out.fleet_calls;
        std::vector<ParentWindow> wide_window;
        if (log) wide_window.push_back(window_of(log->spans().back()));
        ledger.attempt();
        const bool all_ok = std::all_of(wide.begin(), wide.end(), [](const compass::FleetResult& r) {
            return r.ok && heading_sane(r.measurement);
        });
        if (!all_ok) ledger.fail("wide fleet sweep had a failed member");
        out.answered += kWide;
        for (int i = 0; i < kScrapesPerRound; ++i) {
            // One scrape = what a poller of the wide fleet fetches: the
            // /metrics and /healthz bodies, rendered in process.
            ledger.attempt();
            const Clock::time_point t0 = Clock::now();
            std::size_t metrics_bytes = 0, health_bytes = 0;
            {
                const Scoped span(log, "telemetry.metrics_text", root, group);
                metrics_bytes = telemetry::prometheus_text(f.wide->metrics()).size();
            }
            {
                const Scoped span(log, "telemetry.health_text", root, group);
                health_bytes = f.wide->health_text().size();
            }
            out.scrape_ms.add(ms_between(t0, Clock::now()));
            out.metrics_bytes = metrics_bytes;
            if (metrics_bytes == 0 || health_bytes == 0) ledger.fail("empty scrape");
        }
        if (log) {
            log->end(root);
            n1_drain->drain(*log, n1_windows);
            wide_drain->drain(*log, wide_window);
        }
        last_end = Clock::now();
    }
    out.wall_s = seconds_between(start, Clock::now());
    if (log) out.spans = log->spans();
    return out;
}

double engine_ns_under(const std::vector<SpanRec>& spans, const char* parent_name) {
    std::set<std::uint64_t> parents;
    for (const SpanRec& s : spans) {
        if (s.name == parent_name) parents.insert(s.id);
    }
    double ns = 0.0;
    for (const SpanRec& s : spans) {
        if (s.name.rfind("engine.", 0) == 0 && parents.count(s.parent) != 0) {
            ns += static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    return ns;
}

}  // namespace

RunResult run_library(const Options& opt, Ledger& ledger) {
    RunResult result;
    auto fixture = std::make_unique<Fixture>();
    Samples setup;
    const int setups = opt.trace ? 1 : 7;  // setup_s is the median
    for (int i = 0; i < setups; ++i) {
        fixture = std::make_unique<Fixture>();
        setup.add(build_fixture(*fixture, opt.seed));
    }
    Fixture& f = *fixture;
    const double max_err = verify_first_sweep(f, opt.seed, ledger);
    const std::uint64_t steps = f.wide->plan().total_steps();

    if (!opt.trace) {
        LoopOutcome o = run_loop(f, opt.seconds, nullptr, ledger);
        result.metrics = {
            {"query_p50_ms", o.n1_ms.quantile(0.5), "ms"},
            {"query_p99_ms", o.n1_ms.quantile(0.99), "ms"},
            {"goodput_qps", static_cast<double>(o.answered) / o.wall_s, "1/s"},
            {"measure_ms_p50", o.single_ms.quantile(0.5), "ms"},
            {"fleet_measures_per_s", kWide / o.wide_s.quantile(0.5), "1/s"},
            {"heading_err_max_deg", max_err, "deg"},
            {"setup_s", setup.median(), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
        };
        std::printf("library: %llu rounds, %zu single measures, %zu n=1 calls, %zu wide sweeps\n",
                    static_cast<unsigned long long>(o.rounds), o.single_ms.size(),
                    o.n1_ms.size(), o.wide_s.size());
        return result;
    }

    // ---- traced run: untraced half, traced half, references ----------
    LoopOutcome u = run_loop(f, opt.seconds * 0.5, nullptr, ledger);
    SpanLog log(1);
    LoopOutcome t = run_loop(f, opt.seconds * 0.5, &log, ledger);
    SpanLog ref_log(5);
    const References refs = measure_references(ref_log, true);
    const double par_eff = parallel_efficiency(*f.wide, kWideThreads, 3);
    Samples snap_ms;
    std::size_t snap_bytes = 0;
    {
        const Clock::time_point s0 = Clock::now();
        snap_bytes = snapshot::snapshot_fleet(*f.wide).size();
        snap_ms.add(ms_between(s0, Clock::now()));
    }
    const std::size_t trace_bytes = f.wide->flight_recorder().trace_jsonl().size();

    const auto times = name_times(t.spans);
    const auto self_of = [&](const char* name) {
        const auto it = times.find(name);
        return it == times.end() ? 0.0 : it->second.self_ns;
    };
    const double u_p50 = u.n1_ms.quantile(0.5);
    const double members_per_round = kPerRound + kWide;
    const double lanes_per_round =
        kPerRound * (1.0 / useful_lane_ratio(1)) + kWide / useful_lane_ratio(kWide);

    result.metrics = {
        {"service.batch_size_mean", members_per_round / (kPerRound + 1), "queries"},
        {"service.batches_per_s", static_cast<double>(u.fleet_calls) / u.wall_s, "1/s"},
        {"service.server_ms_mean", u.call_ms.mean(), "ms"},
        {"service.io_ms_mean", u.gap_ms.mean(), "ms"},
        {"service.codec_ns_per_query",
         t.codec_queries ? self_of("service.encode_reply") / static_cast<double>(t.codec_queries) : 0.0,
         "ns"},
        {"service.shed", 0.0, "count"},
        {"service.disconnects", 0.0, "count"},
        {"service.protocol_errors", 0.0, "count"},
        {"core.sweep_ms", mean_ms(times, "core.sweep"), "ms"},
        {"core.member_measures_per_query", 1.0, "ratio"},
        {"core.parallel_efficiency", par_eff, "ratio"},
        {"core.plan_compiles", static_cast<double>(f.plan_compiles), "count"},
        {"sim.ns_per_member_sample",
         engine_ns_under(t.spans, "core.sweep") /
             (static_cast<double>(t.rounds) * kWide * static_cast<double>(steps)),
         "ns"},
        {"sim.ns_per_member_sample_n1",
         engine_ns_under(t.spans, "core.sweep_n1") /
             (static_cast<double>(t.rounds) * kPerRound * static_cast<double>(steps)),
         "ns"},
        {"sim.useful_lane_ratio", members_per_round / lanes_per_round, "ratio"},
        {"sim.member_samples",
         static_cast<double>(2 * kPerRound + kWide) * static_cast<double>(steps), "count"},
        {"sim.block_measure_ms", refs.block_measure_ms, "ms"},
        {"sim.scalar_measure_ms", refs.scalar_measure_ms, "ms"},
        {"fault.ladder_walks_per_batch", 0.0, "ratio"},
        {"fault.ladder_ms", refs.ladder_ms, "ms"},
        {"fault.health_check_us", mean_ms(times, "fault.health_check") * 1e3, "us"},
        {"snapshot.fleet_encode_ms", snap_ms.mean(), "ms"},
        {"telemetry.scrape_bytes.metrics", static_cast<double>(u.metrics_bytes), "bytes"},
        {"telemetry.scrape_bytes.trace", static_cast<double>(trace_bytes), "bytes"},
        {"telemetry.scrape_bytes.snapshot", static_cast<double>(snap_bytes), "bytes"},
        {"telemetry.recorder_dropped",
         static_cast<double>(f.wide->flight_recorder().dropped()), "count"},
        {"telemetry.scrapes_skipped", 0.0, "count"},
        {"telemetry.scrape_p50_ms", u.scrape_ms.quantile(0.5), "ms"},
        {"telemetry.scrape_p99_ms", u.scrape_ms.quantile(0.99), "ms"},
        // No sockets here: the in-process scrape stands in for HTTP.
        {"telemetry.http_scrape_p50_ms", u.scrape_ms.quantile(0.5), "ms"},
        {"telemetry.http_scrape_p99_ms", u.scrape_ms.quantile(0.99), "ms"},
        {"telemetry.trace_overhead", u_p50 > 0 ? t.n1_ms.quantile(0.5) / u_p50 : 0.0, "ratio"},
        {"loadgen.lag_p99_ms", u.gap_ms.quantile(0.99), "ms"},
        {"loadgen.sent", static_cast<double>(u.calls), "count"},
    };
    add_self_shares(t.spans, result.metrics);
    result.spans = std::move(t.spans);
    result.spans.insert(result.spans.end(), ref_log.spans().begin(), ref_log.spans().end());
    return result;
}

}  // namespace perfbench
