// Tests for the SoA SIMD lane engine (sim/lane_engine.hpp) and its
// integration seams: PlanExecutor::run_lanes, the CompassFleet Auto
// dispatch, the one-compile-per-fleet contract and per-lane fault
// eviction. The load-bearing property throughout is bit identity with
// the per-member scalar path — doubles compare with ==, counts with !=.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "digital/counter.hpp"
#include "fault/fault_injector.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/scenario.hpp"
#include "magnetics/units.hpp"
#include "sim/engine.hpp"
#include "sim/lane_engine.hpp"
#include "snapshot/state.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/trace.hpp"
#include "util/simd.hpp"

namespace {

using namespace fxg;

magnetics::EarthField site() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

compass::CompassConfig lite_config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 256;
    cfg.periods_per_axis = 2;
    cfg.settle_periods = 1;
    return cfg;
}

void expect_bit_identical(const compass::Measurement& a,
                          const compass::Measurement& b) {
    EXPECT_EQ(a.count_x, b.count_x);
    EXPECT_EQ(a.count_y, b.count_y);
    EXPECT_EQ(a.heading_deg, b.heading_deg);
    EXPECT_EQ(a.heading_float_deg, b.heading_float_deg);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.field_in_range, b.field_in_range);
}

void expect_same_pipeline_state(compass::Compass& a, compass::Compass& b) {
    EXPECT_EQ(a.counter().count(), b.counter().count());
    EXPECT_EQ(a.counter().overflowed(), b.counter().overflowed());
    EXPECT_EQ(a.front_end().samples_stepped(), b.front_end().samples_stepped());
    for (const auto ch : {analog::Channel::X, analog::Channel::Y}) {
        const analog::StreamStats sa = a.front_end().stream_stats(ch);
        const analog::StreamStats sb = b.front_end().stream_stats(ch);
        EXPECT_EQ(sa.samples, sb.samples);
        EXPECT_EQ(sa.valid_samples, sb.valid_samples);
        EXPECT_EQ(sa.high_samples, sb.high_samples);
        EXPECT_EQ(sa.edges, sb.edges);
    }
}

/// Builds `n` members from per-index configs/headings, runs the
/// reference members one by one with the scalar engine and the lane
/// members as one run_lanes batch, and asserts bit identity slot by
/// slot (results and post-run pipeline state). `customize` (optional)
/// is applied identically to both copies of member i after
/// construction — per-member calibration and the like.
void three_way_check(
    const std::vector<compass::CompassConfig>& configs,
    const std::vector<double>& headings,
    const std::function<void(int, compass::Compass&)>& customize = {}) {
    const int n = static_cast<int>(configs.size());
    std::vector<std::unique_ptr<compass::Compass>> ref;
    std::vector<std::unique_ptr<compass::Compass>> lane;
    for (int i = 0; i < n; ++i) {
        compass::CompassConfig scalar_cfg = configs[static_cast<std::size_t>(i)];
        scalar_cfg.engine = sim::EngineKind::Scalar;
        ref.push_back(std::make_unique<compass::Compass>(scalar_cfg));
        lane.push_back(std::make_unique<compass::Compass>(
            configs[static_cast<std::size_t>(i)]));
        ref.back()->set_environment(site(), headings[static_cast<std::size_t>(i)]);
        lane.back()->set_environment(site(), headings[static_cast<std::size_t>(i)]);
        if (customize) {
            customize(i, *ref.back());
            customize(i, *lane.back());
        }
    }
    std::vector<compass::Compass*> lanes;
    for (auto& c : lane) lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> outcomes(static_cast<std::size_t>(n));
    // Two measurements back to back: the second starts from evolved
    // pipeline state, so gather/scatter round-trip errors would surface.
    for (int rep = 0; rep < 2; ++rep) {
        compass::PlanExecutor::run_lanes(lane[0]->plan(), lanes, outcomes);
        for (int i = 0; i < n; ++i) {
            SCOPED_TRACE(testing::Message() << "rep " << rep << " member " << i);
            const compass::Measurement expect =
                ref[static_cast<std::size_t>(i)]->measure();
            ASSERT_FALSE(outcomes[static_cast<std::size_t>(i)].aborted)
                << outcomes[static_cast<std::size_t>(i)].error;
            expect_bit_identical(outcomes[static_cast<std::size_t>(i)].measurement,
                                 expect);
            expect_same_pipeline_state(*lane[static_cast<std::size_t>(i)],
                                       *ref[static_cast<std::size_t>(i)]);
        }
    }
}

TEST(LaneEngine, BackendSanity) {
    EXPECT_GE(sim::LaneEngine::lanes_per_stripe(), 1);
    EXPECT_EQ(sim::LaneEngine::lanes_per_stripe(), util::simd::kLanes);
    EXPECT_STREQ(sim::LaneEngine::backend_name(), util::simd::backend_name());
}

TEST(LaneEngine, Eligibility) {
    compass::Compass clean(lite_config());
    EXPECT_TRUE(sim::LaneEngine::eligible(clean.front_end()));

    compass::CompassConfig noisy_det = lite_config();
    noisy_det.front_end.detector.noise_rms_v = 100e-6;
    compass::Compass nd(noisy_det);
    EXPECT_FALSE(sim::LaneEngine::eligible(nd.front_end()));

    compass::CompassConfig simultaneous = lite_config();
    simultaneous.front_end.mode = analog::FrontEndMode::Simultaneous;
    compass::Compass sim_mode(simultaneous);
    EXPECT_FALSE(sim::LaneEngine::eligible(sim_mode.front_end()));

    // Pickup noise is lane-compatible (per-lane draws from the member's
    // own RNG stream), unlike comparator noise.
    compass::CompassConfig noisy_pickup = lite_config();
    noisy_pickup.front_end.pickup_noise_rms_v = 50e-6;
    compass::Compass np(noisy_pickup);
    EXPECT_TRUE(sim::LaneEngine::eligible(np.front_end()));
}

// One full stripe plus a remainder lane (5 = 4 + 1 on AVX2), with
// per-member differences the kernel must keep per lane: calibration,
// pickup noise, y-axis scale.
TEST(LaneEngine, BatchOfFiveMatchesScalarPerMember) {
    std::vector<compass::CompassConfig> configs;
    std::vector<double> headings;
    for (int i = 0; i < 5; ++i) {
        compass::CompassConfig cfg = lite_config();
        if (i == 2) cfg.front_end.pickup_noise_rms_v = 50e-6;
        if (i == 4) cfg.front_end.sensor_mismatch = 0.01;
        configs.push_back(cfg);
        headings.push_back(i * 67.0 + 3.0);
    }
    three_way_check(configs, headings, [](int i, compass::Compass& c) {
        if (i != 1) return;
        compass::CountCalibration cal;
        cal.offset_x = 37;
        cal.offset_y = -14;
        cal.scale_y = 1.0625;
        c.set_calibration(cal);
    });
}

TEST(LaneEngine, BatchOfNineCoversRemainderStripes) {
    std::vector<compass::CompassConfig> configs;
    std::vector<double> headings;
    for (int i = 0; i < 9; ++i) {
        configs.push_back(lite_config());
        headings.push_back(i * 37.0 + 11.0);
    }
    three_way_check(configs, headings);
}

// Non-tanh magnetisation models take the per-lane virtual-dispatch
// path; mixing them with tanh lanes in one batch forces the generic
// stripe handling.
TEST(LaneEngine, GenericCoreModelsMatchScalar) {
    std::vector<compass::CompassConfig> configs;
    std::vector<double> headings;
    const sensor::CoreKind kinds[5] = {
        sensor::CoreKind::Tanh, sensor::CoreKind::Langevin,
        sensor::CoreKind::JilesAtherton, sensor::CoreKind::Tanh,
        sensor::CoreKind::Langevin};
    for (int i = 0; i < 5; ++i) {
        compass::CompassConfig cfg = lite_config();
        cfg.front_end.core_kind = kinds[i];
        configs.push_back(cfg);
        headings.push_back(i * 53.0 + 7.0);
    }
    three_way_check(configs, headings);
}

// Parametric faults are per-lane constants; a stream fault rides the
// tap-replay seam; a stuck mux changes one lane's active channel. All
// must stay in the SIMD path and match the scalar run bit for bit.
TEST(LaneEngine, FaultedLanesMatchScalar) {
    constexpr int kN = 4;
    std::vector<std::unique_ptr<compass::Compass>> ref;
    std::vector<std::unique_ptr<compass::Compass>> lane;
    std::vector<std::unique_ptr<fault::FaultInjector>> ref_inj;
    std::vector<std::unique_ptr<fault::FaultInjector>> lane_inj;
    const auto fault_for = [](int i) {
        fault::FaultSpec spec;
        switch (i) {
            case 0:
                spec.fault = fault::FaultClass::OscFrequencyDrift;
                spec.magnitude = 1.07;
                break;
            case 1:
                spec.fault = fault::FaultClass::MuxStuck;
                spec.channel = analog::Channel::Y;
                break;
            case 2:
                spec.fault = fault::FaultClass::DetectorStuckHigh;
                spec.channel = analog::Channel::X;
                spec.start_sample = 100;
                spec.duration_samples = 400;
                break;
            default:
                spec.fault = fault::FaultClass::ComparatorOffsetDrift;
                spec.channel = analog::Channel::X;
                spec.magnitude = 5e-3;
                break;
        }
        return spec;
    };
    for (int i = 0; i < kN; ++i) {
        compass::CompassConfig cfg = lite_config();
        cfg.engine = sim::EngineKind::Scalar;
        ref.push_back(std::make_unique<compass::Compass>(cfg));
        lane.push_back(std::make_unique<compass::Compass>(lite_config()));
        ref.back()->set_environment(site(), i * 90.0 + 15.0);
        lane.back()->set_environment(site(), i * 90.0 + 15.0);
        ref_inj.push_back(std::make_unique<fault::FaultInjector>());
        lane_inj.push_back(std::make_unique<fault::FaultInjector>());
        ref_inj.back()->add(fault_for(i));
        lane_inj.back()->add(fault_for(i));
        ref_inj.back()->arm(*ref[static_cast<std::size_t>(i)]);
        lane_inj.back()->arm(*lane[static_cast<std::size_t>(i)]);
    }
    std::vector<compass::Compass*> lanes;
    for (auto& c : lane) lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> outcomes(kN);
    for (int rep = 0; rep < 2; ++rep) {
        compass::PlanExecutor::run_lanes(lane[0]->plan(), lanes, outcomes);
        for (int i = 0; i < kN; ++i) {
            SCOPED_TRACE(testing::Message() << "rep " << rep << " member " << i);
            const compass::Measurement expect =
                ref[static_cast<std::size_t>(i)]->measure();
            ASSERT_FALSE(outcomes[static_cast<std::size_t>(i)].aborted);
            expect_bit_identical(outcomes[static_cast<std::size_t>(i)].measurement,
                                 expect);
            expect_same_pipeline_state(*lane[static_cast<std::size_t>(i)],
                                       *ref[static_cast<std::size_t>(i)]);
        }
    }
}

// A lane whose counter traps falls out of the batch at the count-window
// boundary without perturbing its neighbours: every other lane stays
// bit-identical to the same batch run without the faulty member.
TEST(LaneEngine, TrapEvictsOneLaneWithoutPerturbingNeighbours) {
    constexpr int kN = 5;
    constexpr int kBad = 2;
    const auto build = [&](bool with_trap) {
        std::vector<std::unique_ptr<compass::Compass>> members;
        for (int i = 0; i < kN; ++i) {
            members.push_back(std::make_unique<compass::Compass>(lite_config()));
            members.back()->set_environment(site(), i * 67.0 + 3.0);
            if (with_trap && i == kBad) {
                digital::CounterHardware hw;
                hw.width_bits = 8;  // narrow: intra-period swing wraps it
                hw.trap_on_overflow = true;
                members.back()->counter().set_hardware(hw);
            }
        }
        return members;
    };

    // Scalar reference: the trapped member alone throws.
    {
        auto members = build(true);
        EXPECT_THROW(static_cast<void>(members[kBad]->measure()),
                     std::overflow_error);
    }

    auto healthy = build(false);
    auto faulty = build(true);
    std::vector<compass::Compass*> healthy_lanes, faulty_lanes;
    for (auto& c : healthy) healthy_lanes.push_back(c.get());
    for (auto& c : faulty) faulty_lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> healthy_out(kN), faulty_out(kN);
    compass::PlanExecutor::run_lanes(healthy[0]->plan(), healthy_lanes, healthy_out);
    compass::PlanExecutor::run_lanes(faulty[0]->plan(), faulty_lanes, faulty_out);

    EXPECT_TRUE(faulty_out[kBad].aborted);
    EXPECT_EQ(faulty_out[kBad].error, "UpDownCounter: register overflow");
    ASSERT_TRUE(faulty_out[kBad].error_ptr);
    EXPECT_THROW(std::rethrow_exception(faulty_out[kBad].error_ptr),
                 std::overflow_error);
    EXPECT_TRUE(faulty[kBad]->counter().overflowed());

    for (int i = 0; i < kN; ++i) {
        if (i == kBad) continue;
        SCOPED_TRACE(testing::Message() << "member " << i);
        ASSERT_FALSE(faulty_out[static_cast<std::size_t>(i)].aborted);
        expect_bit_identical(faulty_out[static_cast<std::size_t>(i)].measurement,
                             healthy_out[static_cast<std::size_t>(i)].measurement);
        expect_same_pipeline_state(*faulty[static_cast<std::size_t>(i)],
                                   *healthy[static_cast<std::size_t>(i)]);
    }
}

// An ineligible lane (noisy detector) or a ReExcite plan sends the
// whole batch down the per-member fallback with the same outcomes.
TEST(LaneEngine, IneligibleBatchFallsBackPerMember) {
    compass::CompassConfig noisy = lite_config();
    noisy.front_end.detector.noise_rms_v = 100e-6;
    std::vector<compass::CompassConfig> configs = {lite_config(), noisy,
                                                   lite_config()};
    std::vector<double> headings = {10.0, 130.0, 250.0};
    // three_way_check exercises run_lanes, which must fall back
    // internally (member 1 is ineligible) and still match scalar.
    three_way_check(configs, headings);
}

TEST(LaneEngine, ReExcitePlanOnOneLaneMatchesRun) {
    compass::Compass ref(lite_config());
    compass::Compass lane(lite_config());
    ref.set_environment(site(), 42.0);
    lane.set_environment(site(), 42.0);
    const compass::MeasurementPlan re = compass::with_re_excite(ref.plan());
    const compass::Measurement expect = compass::PlanExecutor(ref).run(re);
    compass::Compass* lanes[1] = {&lane};
    compass::LaneOutcome out[1];
    compass::PlanExecutor::run_lanes(re, lanes, out);
    ASSERT_FALSE(out[0].aborted) << out[0].error;
    expect_bit_identical(out[0].measurement, expect);
}

// Batch telemetry: one "measure" span tree per batch (on lanes[0]'s
// sink), with "engine.lanes" advance spans, plus one MeasurementSample
// per traced lane — and tracing must not perturb the arithmetic.
TEST(LaneEngine, BatchEmitsOneSpanTreeAndPerLaneSamples) {
    constexpr int kN = 3;
    std::vector<std::unique_ptr<compass::Compass>> plain, traced;
    for (int i = 0; i < kN; ++i) {
        plain.push_back(std::make_unique<compass::Compass>(lite_config()));
        traced.push_back(std::make_unique<compass::Compass>(lite_config()));
        plain.back()->set_environment(site(), i * 111.0 + 9.0);
        traced.back()->set_environment(site(), i * 111.0 + 9.0);
    }
    telemetry::TraceSession session;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink sink({&session, &probes});
    for (int i = 0; i < kN; ++i) {
        traced[static_cast<std::size_t>(i)]->set_telemetry(&sink);
        traced[static_cast<std::size_t>(i)]->set_telemetry_member(i);
    }
    std::vector<compass::Compass*> plain_lanes, traced_lanes;
    for (auto& c : plain) plain_lanes.push_back(c.get());
    for (auto& c : traced) traced_lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> plain_out(kN), traced_out(kN);
    compass::PlanExecutor::run_lanes(plain[0]->plan(), plain_lanes, plain_out);
    compass::PlanExecutor::run_lanes(traced[0]->plan(), traced_lanes, traced_out);

    for (int i = 0; i < kN; ++i) {
        SCOPED_TRACE(i);
        expect_bit_identical(traced_out[static_cast<std::size_t>(i)].measurement,
                             plain_out[static_cast<std::size_t>(i)].measurement);
    }
    int roots = 0, engine_spans = 0;
    for (const auto& s : session.spans()) {
        if (std::string(s.name) == "measure") ++roots;
        if (std::string(s.name) == "engine.lanes") ++engine_spans;
    }
    EXPECT_EQ(roots, 1);          // one batch tree, not one per lane
    EXPECT_EQ(engine_spans, 4);   // settle + count, two axes
    // One MeasurementSample per traced lane, delivered to the lane's
    // own sink after the batch completes.
    EXPECT_EQ(registry.counter("fxg_measurements_total").value(),
              static_cast<std::uint64_t>(kN));
}

// ------------------------------------------------------------- fleet

TEST(CompassFleet, AutoMatchesPerMemberBitForBit) {
    constexpr int kFleet = 37;  // 2 full lane groups + remainder of 5
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 9.7 + 1.0);

    compass::CompassFleet lane_fleet(kFleet, lite_config());
    compass::CompassFleet member_fleet(kFleet, lite_config());
    EXPECT_EQ(lane_fleet.execution(), compass::FleetExecution::Auto);
    member_fleet.set_execution(compass::FleetExecution::PerMember);
    lane_fleet.set_environments(site(), headings);
    member_fleet.set_environments(site(), headings);

    const auto a = lane_fleet.measure_all_results(3);
    const auto b = member_fleet.measure_all_results(3);
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < kFleet; ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(a[static_cast<std::size_t>(i)].ok);
        ASSERT_TRUE(b[static_cast<std::size_t>(i)].ok);
        expect_bit_identical(a[static_cast<std::size_t>(i)].measurement,
                             b[static_cast<std::size_t>(i)].measurement);
    }
}

TEST(CompassFleet, CompilesSharedPlanExactlyOnce) {
    const std::uint64_t before = compass::compile_plan_count();
    compass::CompassFleet fleet(100, lite_config());
    EXPECT_EQ(compass::compile_plan_count() - before, 1u);
    EXPECT_EQ(fleet.plan().stages.size(), fleet.at(0).plan().stages.size());
    // Members share the identical compiled object, not copies.
    EXPECT_EQ(&fleet.plan(), &fleet.at(0).plan());
    EXPECT_EQ(&fleet.at(0).plan(), &fleet.at(99).plan());
}

TEST(CompassFleet, TrappedMembersReportDeterministicFirstError) {
    constexpr int kFleet = 20;
    compass::CompassFleet fleet(kFleet, lite_config());
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 18.0 + 4.0);
    fleet.set_environments(site(), headings);
    digital::CounterHardware hw;
    hw.width_bits = 8;
    hw.trap_on_overflow = true;
    fleet.at(7).counter().set_hardware(hw);
    fleet.at(13).counter().set_hardware(hw);

    const auto results = fleet.measure_all_results(2);
    for (int i = 0; i < kFleet; ++i) {
        SCOPED_TRACE(i);
        if (i == 7 || i == 13) {
            EXPECT_FALSE(results[static_cast<std::size_t>(i)].ok);
            EXPECT_EQ(results[static_cast<std::size_t>(i)].error,
                      "UpDownCounter: register overflow");
        } else {
            EXPECT_TRUE(results[static_cast<std::size_t>(i)].ok);
        }
    }
    // measure_all rethrows the lowest failing member's exception, not
    // whichever worker lost the race.
    EXPECT_THROW(static_cast<void>(fleet.measure_all(2)), std::overflow_error);
}

// ------------------------------------------------- fleet member subsets

/// 40 of 64 members, scrambled, so the subset spans three lane groups
/// (16 + 16 + 8) whose members are not contiguous in the fleet.
std::vector<int> scrambled_subset() {
    std::vector<int> ids;
    for (int k = 0; k < 40; ++k) ids.push_back((k * 37 + 11) % 64);
    return ids;
}

std::vector<double> subset_headings(int n) {
    std::vector<double> headings;
    for (int i = 0; i < n; ++i) headings.push_back(i * 5.3 + 2.0);
    return headings;
}

/// The fleet's /healthz counter `key` (e.g. "members_measured").
std::uint64_t health_counter(const compass::CompassFleet& fleet,
                             const std::string& key) {
    const std::string text = fleet.health_text();
    const std::size_t at = text.find("\n" + key + " ");
    if (at == std::string::npos) return ~std::uint64_t{0};
    return std::stoull(text.substr(at + key.size() + 2));
}

TEST(CompassFleet, MemberSubsetMatchesPerMemberBitForBit) {
    constexpr int kFleet = 64;
    const std::vector<int> ids = scrambled_subset();
    ASSERT_GT(static_cast<int>(ids.size()), 2 * compass::CompassFleet::kLaneGroupSize);
    const std::vector<double> headings = subset_headings(kFleet);

    compass::CompassFleet lane_fleet(kFleet, lite_config());
    compass::CompassFleet member_fleet(kFleet, lite_config());
    compass::CompassFleet full_fleet(kFleet, lite_config());
    member_fleet.set_execution(compass::FleetExecution::PerMember);
    for (auto* f : {&lane_fleet, &member_fleet, &full_fleet}) {
        f->set_environments(site(), headings);
    }

    const auto a = lane_fleet.measure_members(ids, 3);
    const auto b = member_fleet.measure_members(ids, 3);
    // Fresh members: a whole-fleet sweep gives each member the same
    // first measurement, so slot k must hold member ids[k]'s result.
    const auto all = full_fleet.measure_all_results(3);
    ASSERT_EQ(a.size(), ids.size());
    ASSERT_EQ(b.size(), ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "slot " << k << " member " << ids[k]);
        ASSERT_TRUE(a[k].ok) << a[k].error;
        ASSERT_TRUE(b[k].ok) << b[k].error;
        expect_bit_identical(a[k].measurement, b[k].measurement);
        expect_bit_identical(a[k].measurement,
                             all[static_cast<std::size_t>(ids[k])].measurement);
        expect_same_pipeline_state(lane_fleet.at(ids[k]), member_fleet.at(ids[k]));
    }
    EXPECT_EQ(health_counter(lane_fleet, "members_measured"), ids.size());
    EXPECT_EQ(health_counter(lane_fleet, "batches_total"), 1u);

    // Short lists spread over the workers in whole SIMD stripes (n = 5
    // leaves a partial stripe) and still match PerMember bit for bit.
    for (const auto& [n, threads] : {std::pair{8, 2}, std::pair{5, 2}}) {
        SCOPED_TRACE(testing::Message() << n << " members on " << threads << " threads");
        ASSERT_LT(compass::CompassFleet::lane_group_size(n, threads), n);
        const std::vector<int> few(ids.begin(), ids.begin() + n);
        compass::CompassFleet spread(kFleet, lite_config());
        compass::CompassFleet reference(kFleet, lite_config());
        reference.set_execution(compass::FleetExecution::PerMember);
        spread.set_environments(site(), headings);
        reference.set_environments(site(), headings);
        const auto x = spread.measure_members(few, threads);
        const auto y = reference.measure_members(few, threads);
        for (std::size_t k = 0; k < few.size(); ++k) {
            SCOPED_TRACE(testing::Message() << "slot " << k << " member " << few[k]);
            ASSERT_TRUE(x[k].ok) << x[k].error;
            ASSERT_TRUE(y[k].ok) << y[k].error;
            expect_bit_identical(x[k].measurement, y[k].measurement);
            expect_same_pipeline_state(spread.at(few[k]), reference.at(few[k]));
        }
    }
}

TEST(CompassFleet, LaneGroupsSpreadShortListsInWholeStripes) {
    using compass::CompassFleet;
    constexpr int kStripe = util::simd::kLanes;
    const auto whole_stripes = [](int members) {
        return (members + kStripe - 1) / kStripe * kStripe;
    };
    EXPECT_EQ(CompassFleet::lane_group_size(8, 2), whole_stripes(4));
    EXPECT_EQ(CompassFleet::lane_group_size(5, 2), whole_stripes(3));
    EXPECT_EQ(CompassFleet::lane_group_size(7, 4), whole_stripes(2));
    // One worker, one member or a long list: one group, or full groups.
    EXPECT_EQ(CompassFleet::lane_group_size(8, 1), whole_stripes(8));
    EXPECT_EQ(CompassFleet::lane_group_size(1, 4), kStripe);
    EXPECT_EQ(CompassFleet::lane_group_size(40, 1), CompassFleet::kLaneGroupSize);
    EXPECT_EQ(CompassFleet::lane_group_size(1024, 4), CompassFleet::kLaneGroupSize);
}

TEST(CompassFleet, MemberSubsetLeavesUnlistedMembersUntouched) {
    constexpr int kFleet = 64;
    const std::vector<int> ids = scrambled_subset();
    compass::CompassFleet fleet(kFleet, lite_config());
    fleet.set_environments(site(), subset_headings(kFleet));
    std::vector<bool> listed(kFleet, false);
    for (const int id : ids) listed[static_cast<std::size_t>(id)] = true;

    std::vector<std::vector<std::uint8_t>> before;
    for (int i = 0; i < kFleet; ++i) before.push_back(snapshot::snapshot_member(fleet, i));
    static_cast<void>(fleet.measure_members(ids, 2));
    for (int i = 0; i < kFleet; ++i) {
        SCOPED_TRACE(i);
        const auto after = snapshot::snapshot_member(fleet, i);
        if (listed[static_cast<std::size_t>(i)]) {
            EXPECT_NE(after, before[static_cast<std::size_t>(i)]);
        } else {
            EXPECT_EQ(after, before[static_cast<std::size_t>(i)]);
        }
    }
}

TEST(CompassFleet, MemberSubsetReportsFleetIndexToFailureHook) {
    constexpr int kFleet = 32;
    constexpr int kBad = 23;
    compass::CompassFleet fleet(kFleet, lite_config());
    fleet.set_environments(site(), subset_headings(kFleet));
    digital::CounterHardware hw;
    hw.width_bits = 8;
    hw.trap_on_overflow = true;
    fleet.at(kBad).counter().set_hardware(hw);

    std::mutex mu;
    std::vector<std::pair<int, std::string>> failures;
    fleet.set_member_failure_hook([&](int index, const std::string& error) {
        const std::lock_guard<std::mutex> lock(mu);
        failures.emplace_back(index, error);
    });

    // The bad member sits at list position 2, inside the first group.
    const std::vector<int> ids = {30, 4, kBad, 17, 0, 9};
    for (const auto execution :
         {compass::FleetExecution::Auto, compass::FleetExecution::PerMember}) {
        failures.clear();
        fleet.set_execution(execution);
        const auto results = fleet.measure_members(ids, 2);
        ASSERT_EQ(results.size(), ids.size());
        for (std::size_t k = 0; k < ids.size(); ++k) {
            SCOPED_TRACE(ids[k]);
            EXPECT_EQ(results[k].ok, ids[k] != kBad);
        }
        EXPECT_EQ(results[2].error, "UpDownCounter: register overflow");
        ASSERT_EQ(failures.size(), 1u);
        EXPECT_EQ(failures[0].first, kBad);
        EXPECT_EQ(failures[0].second, "UpDownCounter: register overflow");
    }
    EXPECT_EQ(health_counter(fleet, "member_errors"), 2u);
}

TEST(CompassFleet, MemberSubsetRejectsBadIdsBeforeMeasuring) {
    constexpr int kFleet = 20;
    compass::CompassFleet fleet(kFleet, lite_config());
    fleet.set_environments(site(), subset_headings(kFleet));
    int hook_calls = 0;
    fleet.set_member_failure_hook([&](int, const std::string&) { ++hook_calls; });

    std::vector<std::vector<std::uint8_t>> before;
    for (int i = 0; i < kFleet; ++i) before.push_back(snapshot::snapshot_member(fleet, i));

    // The offending id comes last: every earlier member would already
    // have been measured if validation ran lazily.
    const std::vector<int> duplicate = {3, 7, 11, 3};
    const std::vector<int> too_big = {1, 2, kFleet};
    const std::vector<int> negative = {5, -1};
    EXPECT_THROW(static_cast<void>(fleet.measure_members(duplicate, 2)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(fleet.measure_members(too_big, 2)),
                 std::out_of_range);
    EXPECT_THROW(static_cast<void>(fleet.measure_members(negative, 2)),
                 std::out_of_range);

    for (int i = 0; i < kFleet; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(snapshot::snapshot_member(fleet, i), before[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(hook_calls, 0);
    EXPECT_EQ(health_counter(fleet, "batches_total"), 0u);
    EXPECT_EQ(health_counter(fleet, "members_measured"), 0u);

    // An empty list is a valid, empty batch.
    EXPECT_TRUE(fleet.measure_members({}, 2).empty());
    EXPECT_EQ(health_counter(fleet, "batches_total"), 1u);
    EXPECT_EQ(health_counter(fleet, "members_measured"), 0u);
}


// ------------------------------------------------- single-member form
//
// A group of exactly one lane runs the time form of the kernel
// (per-sample work vectorised over consecutive samples). It must be
// bit-identical to the scalar reference in every configuration the
// stripe kernel takes.

/// One fleet member measured `reps` times through the lane path (a
/// one-lane group) and through FleetExecution::PerMember on the scalar
/// engine. Compares the outcome, the counter register with its sticky
/// and trap-pending flags, the stream statistics and the member's
/// snapshot bytes. Returns the lane member's last result.
compass::FleetResult time_form_check(
    compass::CompassConfig cfg,
    const std::function<void(compass::Compass&, fault::FaultInjector&)>& setup,
    int reps = 2) {
    cfg.engine = sim::EngineKind::Scalar;
    compass::CompassFleet lane(1, cfg);
    compass::CompassFleet ref(1, cfg);
    ref.set_execution(compass::FleetExecution::PerMember);
    fault::FaultInjector lane_inj;
    fault::FaultInjector ref_inj;
    setup(lane.at(0), lane_inj);
    setup(ref.at(0), ref_inj);
    EXPECT_TRUE(sim::LaneEngine::eligible(lane.at(0).front_end()));
    snapshot::SaveOptions lane_opts;
    snapshot::SaveOptions ref_opts;
    if (lane_inj.armed()) {
        lane_opts.injector = &lane_inj;
        ref_opts.injector = &ref_inj;
    }
    compass::FleetResult last;
    for (int rep = 0; rep < reps; ++rep) {
        SCOPED_TRACE(testing::Message() << "rep " << rep);
        const std::vector<compass::FleetResult> a = lane.measure_all_results(1);
        const std::vector<compass::FleetResult> b = ref.measure_all_results(1);
        last = a[0];
        EXPECT_EQ(a[0].ok, b[0].ok) << a[0].error << " | " << b[0].error;
        EXPECT_EQ(a[0].error, b[0].error);
        if (a[0].ok) expect_bit_identical(a[0].measurement, b[0].measurement);
        expect_same_pipeline_state(lane.at(0), ref.at(0));
        EXPECT_EQ(lane.at(0).counter().trap_pending(),
                  ref.at(0).counter().trap_pending());
        EXPECT_EQ(snapshot::snapshot_member(lane, 0, lane_opts),
                  snapshot::snapshot_member(ref, 0, ref_opts));
    }
    return last;
}

/// Default timing (2048 samples per period): the counter increment
/// dt * f_clk is 0.256, below one tick per sample.
compass::CompassConfig paper_timing_config() {
    compass::CompassConfig cfg;
    cfg.periods_per_axis = 1;
    cfg.settle_periods = 1;
    return cfg;
}

void place(compass::Compass& c, double heading) { c.set_environment(site(), heading); }

TEST(LaneTimeForm, TanhAndHystereticCoresMatchScalar) {
    for (const sensor::CoreKind kind :
         {sensor::CoreKind::Tanh, sensor::CoreKind::JilesAtherton,
          sensor::CoreKind::Langevin}) {
        for (const compass::CompassConfig& base : {paper_timing_config(), lite_config()}) {
            SCOPED_TRACE(testing::Message() << "core " << static_cast<int>(kind)
                                            << " spp " << base.steps_per_period);
            compass::CompassConfig cfg = base;
            cfg.front_end.core_kind = kind;
            time_form_check(cfg, [](compass::Compass& c, fault::FaultInjector&) {
                place(c, 123.0);
            });
        }
    }
}

TEST(LaneTimeForm, PickupNoiseOnAndOffMatchesScalar) {
    for (const double rms : {0.0, 1.0e-3}) {
        SCOPED_TRACE(rms);
        compass::CompassConfig cfg = paper_timing_config();
        cfg.front_end.pickup_noise_rms_v = rms;
        cfg.front_end.noise_seed = 99;
        time_form_check(cfg, [](compass::Compass& c, fault::FaultInjector&) {
            place(c, 301.0);
        });
    }
}

// Constant, turning and temperature-ramp environments (the last on
// temperature-sensitive sensors, with a tanh core and a generic one).
TEST(LaneTimeForm, ScenariosMatchScalar) {
    for (int variant = 0; variant < 4; ++variant) {
        SCOPED_TRACE(variant);
        compass::CompassConfig cfg = paper_timing_config();
        const bool thermal = variant >= 2;
        if (thermal) {
            cfg.front_end.sensor.ms_temp_coeff_per_c = 3.0e-4;
            cfg.front_end.sensor.hk_temp_coeff_per_c = -2.0e-4;
            cfg.front_end.sensor.sens_temp_coeff_per_c = 2.0e-4;
            cfg.front_end.sensor_temp_mismatch_per_c = 6.0e-4;
        }
        if (variant == 3) cfg.front_end.core_kind = sensor::CoreKind::Langevin;
        const compass::MeasurementPlan plan = compass::compile_plan(cfg);
        const double total_s = 2.0 * static_cast<double>(plan.total_steps()) * plan.dt_s;
        magnetics::Scenario scn;
        scn.field = site();
        scn.initial_heading_deg = 40.0;
        if (variant == 0) {
            scn.hold(total_s);
        } else {
            scn.hold(0.2 * total_s).turn(9000.0, 0.6 * total_s).hold(0.2 * total_s);
        }
        if (thermal) scn.temperature(0.0, 10.0).temperature(total_s, 55.0);
        const auto src = magnetics::compile_scenario(scn, plan.dt_s);
        time_form_check(cfg, [&](compass::Compass& c, fault::FaultInjector&) {
            c.set_field_source(src);
        });
    }
}

// A stream fault on either axis arms the member's tap: the time form
// writes the emitted bytes straight into the replay buffer.
TEST(LaneTimeForm, ArmedTapMatchesScalar) {
    for (const analog::Channel ch : {analog::Channel::X, analog::Channel::Y}) {
        for (const fault::FaultClass fc :
             {fault::FaultClass::DetectorStuckHigh, fault::FaultClass::NoiseBurst}) {
            SCOPED_TRACE(testing::Message() << "channel " << static_cast<int>(ch)
                                            << " fault " << fault::to_string(fc));
            time_form_check(paper_timing_config(),
                            [&](compass::Compass& c, fault::FaultInjector& inj) {
                                place(c, 77.0);
                                fault::FaultSpec spec;
                                spec.fault = fc;
                                spec.channel = ch;
                                spec.persistence = fault::Persistence::Transient;
                                spec.start_sample = 3000;
                                spec.duration_samples = 2500;
                                spec.magnitude = 0.2;
                                spec.seed = 5;
                                inj.add(spec);
                                inj.arm(c);
                            });
        }
    }
}

// A narrow register wraps (sticky flag) on the member object over the
// emitted bytes; with the trap enabled both paths abort at the same
// window boundary.
TEST(LaneTimeForm, NarrowCounterWrapsAndTrapsLikeScalar) {
    for (const bool trap : {false, true}) {
        SCOPED_TRACE(trap);
        const compass::FleetResult last = time_form_check(
            paper_timing_config(), [&](compass::Compass& c, fault::FaultInjector&) {
                place(c, 200.0);
                digital::CounterHardware hw;
                hw.width_bits = 8;
                hw.trap_on_overflow = trap;
                c.counter().set_hardware(hw);
            });
        EXPECT_EQ(last.ok, !trap) << last.error;
        if (!trap) {
            EXPECT_NE(last.measurement.count_x, 0);
        }
    }
}

// The detector latches run a whole tile at a time from the comparator
// events; a negative hysteresis lets one sample cross both thresholds
// (the latch toggles), which takes the sample-by-sample path.
TEST(LaneTimeForm, DetectorHysteresisBothSignsMatchesScalar) {
    for (const double hyst : {2.0e-3, 0.0, -2.0e-3}) {
        SCOPED_TRACE(hyst);
        compass::CompassConfig cfg = paper_timing_config();
        cfg.front_end.detector.comparator_hysteresis_v = hyst;
        cfg.front_end.pickup_noise_rms_v = 3.0e-3;
        time_form_check(cfg, [](compass::Compass& c, fault::FaultInjector&) {
            place(c, 333.0);
        });
    }
}

TEST(LaneTimeForm, StuckMuxMatchesScalar) {
    time_form_check(paper_timing_config(),
                    [](compass::Compass& c, fault::FaultInjector& inj) {
                        place(c, 15.0);
                        fault::FaultSpec spec;
                        spec.fault = fault::FaultClass::MuxStuck;
                        spec.channel = analog::Channel::Y;
                        inj.add(spec);
                        inj.arm(c);
                    });
}

// 65 samples per period leaves a partial vector at the end of every
// advance. The default counter clock gives 8.07 ticks per sample there
// (the floor() path); a slow clock gives 0.39 (the compare path).
TEST(LaneTimeForm, OddStepsPerPeriodInBothTickRegimes) {
    for (const double clock_hz : {4194304.0, 200000.0}) {
        SCOPED_TRACE(clock_hz);
        compass::CompassConfig cfg;
        cfg.steps_per_period = 65;
        cfg.periods_per_axis = 3;
        cfg.settle_periods = 1;
        cfg.counter_clock_hz = clock_hz;
        cfg.front_end.pickup_noise_rms_v = 5.0e-4;
        time_form_check(cfg, [](compass::Compass& c, fault::FaultInjector&) {
            place(c, 250.0);
        });
    }
}

// Engine level: one counting advance that wraps a trapping register
// leaves the trap pending (serviced only at the plan's window
// boundary). The one-lane LaneEngine advance and the scalar engine's
// leave identical counter and pipeline state.
TEST(LaneTimeForm, PendingTrapAndRegisterMatchScalarEngine) {
    compass::CompassConfig cfg = paper_timing_config();
    compass::Compass lane(cfg);
    compass::Compass ref(cfg);
    for (compass::Compass* c : {&lane, &ref}) {
        place(*c, 180.0);
        digital::CounterHardware hw;
        hw.width_bits = 6;
        hw.trap_on_overflow = true;
        c->counter().set_hardware(hw);
        c->front_end().enable(true);
        c->counter().enable(true);
        c->front_end().select(analog::Channel::X);
    }
    const compass::MeasurementPlan& plan = lane.plan();
    const int steps = 3 * plan.steps_per_period;
    double lane_energy = 0.0;
    double ref_energy = 0.0;
    sim::LaneEngine engine;
    const sim::LanePort port{&lane.front_end(), &lane.counter(), &lane_energy};
    engine.advance(&port, 1, analog::Channel::X, steps, plan.dt_s);
    sim::ScalarEngine scalar;
    scalar.advance(ref.front_end(), analog::Channel::X, steps, plan.dt_s, &ref.counter(),
                   ref_energy);

    EXPECT_TRUE(ref.counter().trap_pending());
    EXPECT_TRUE(ref.counter().overflowed());
    const digital::UpDownCounter::FullState a = lane.counter().save_full_state();
    const digital::UpDownCounter::FullState b = ref.counter().save_full_state();
    EXPECT_EQ(a.state.tick_accumulator, b.state.tick_accumulator);
    EXPECT_EQ(a.state.count, b.state.count);
    EXPECT_EQ(a.state.active_ticks, b.state.active_ticks);
    EXPECT_EQ(a.overflowed, b.overflowed);
    EXPECT_EQ(a.trap_pending, b.trap_pending);
    EXPECT_EQ(lane_energy, ref_energy);
    EXPECT_EQ(snapshot::snapshot_compass(lane), snapshot::snapshot_compass(ref));
}

// Short advances of a fresh pipeline: the sensor's first sample has no
// derivative, advances shorter than one vector leave only a partial
// one, and the excitation voltage comes from the last one or two
// samples. The one-lane advance leaves the scalar engine's state.
TEST(LaneTimeForm, ShortAdvancesOfAFreshPipelineMatchScalarEngine) {
    for (const int steps : {1, 2, 3, 5, 64}) {
        SCOPED_TRACE(steps);
        compass::CompassConfig cfg = paper_timing_config();
        cfg.front_end.pickup_noise_rms_v = 1.0e-3;
        compass::Compass lane(cfg);
        compass::Compass ref(cfg);
        for (compass::Compass* c : {&lane, &ref}) {
            place(*c, 45.0);
            c->front_end().enable(true);
            c->counter().enable(true);
            c->front_end().select(analog::Channel::Y);
        }
        const double dt = lane.plan().dt_s;
        double lane_energy = 0.0;
        double ref_energy = 0.0;
        sim::LaneEngine engine;
        sim::ScalarEngine scalar;
        for (int rep = 0; rep < 2; ++rep) {
            const sim::LanePort port{&lane.front_end(), &lane.counter(), &lane_energy};
            engine.advance(&port, 1, analog::Channel::Y, steps, dt);
            scalar.advance(ref.front_end(), analog::Channel::Y, steps, dt,
                           &ref.counter(), ref_energy);
            EXPECT_EQ(lane_energy, ref_energy);
            EXPECT_EQ(snapshot::snapshot_compass(lane), snapshot::snapshot_compass(ref));
        }
    }
}

// Per-sample capture buffers exist only for groups that replay a tap or
// clock a delegated hardware counter.
TEST(LaneTimeForm, CaptureBuffersOnlyForTapsAndHardwareCounters) {
    compass::CompassConfig cfg = paper_timing_config();
    compass::Compass plain(cfg);
    compass::Compass tapped(cfg);
    fault::FaultInjector inj;
    fault::FaultSpec spec;
    spec.fault = fault::FaultClass::DetectorStuckLow;
    inj.add(spec);
    inj.arm(tapped);
    for (compass::Compass* c : {&plain, &tapped}) {
        place(*c, 90.0);
        c->front_end().enable(true);
        c->counter().enable(true);
        c->front_end().select(analog::Channel::X);
    }
    const compass::MeasurementPlan& plan = plain.plan();
    double energy = 0.0;
    sim::LaneEngine engine;
    const sim::LanePort bare{&plain.front_end(), &plain.counter(), &energy};
    engine.advance(&bare, 1, analog::Channel::X, plan.steps_per_period, plan.dt_s);
    EXPECT_EQ(engine.capture_capacity(), 0u);
    const sim::LanePort tap{&tapped.front_end(), &tapped.counter(), &energy};
    engine.advance(&tap, 1, analog::Channel::X, plan.steps_per_period, plan.dt_s);
    EXPECT_GT(engine.capture_capacity(), 0u);
}

// Lists of 5 (one stripe pair with pad lanes) and 9 (a stripe pair plus
// a trailing one-lane group) of mixed members match the per-member
// path bit for bit.
TEST(LaneTimeForm, MixedListsOfFiveAndNineMatchPerMember) {
    compass::CompassConfig cfg = paper_timing_config();
    cfg.front_end.pickup_noise_rms_v = 2.0e-4;
    const compass::MeasurementPlan plan = compass::compile_plan(cfg);
    magnetics::Scenario scn;
    scn.field = site();
    scn.initial_heading_deg = 10.0;
    const double total_s = static_cast<double>(plan.total_steps()) * plan.dt_s;
    scn.hold(0.3 * total_s).turn(5000.0, 0.4 * total_s).hold(0.3 * total_s);
    const auto src = magnetics::compile_scenario(scn, plan.dt_s);

    constexpr int kFleet = 9;
    compass::CompassFleet lane(kFleet, cfg);
    compass::CompassFleet ref(kFleet, cfg);
    ref.set_execution(compass::FleetExecution::PerMember);
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    for (compass::CompassFleet* f : {&lane, &ref}) {
        for (int i = 0; i < kFleet; ++i) {
            compass::Compass& c = f->at(i);
            place(c, 17.0 + 39.0 * i);
            if (i == 8 || i == 3) c.set_field_source(src);
            if (i == 4 || i == 8) {
                digital::CounterHardware hw;
                hw.width_bits = 9;
                c.counter().set_hardware(hw);
            }
            if (i == 8 || i == 1) {
                fault::FaultSpec spec;
                spec.fault = fault::FaultClass::DetectorStuckHigh;
                spec.channel = analog::Channel::Y;
                spec.persistence = fault::Persistence::Transient;
                spec.start_sample = 5000;
                spec.duration_samples = 700;
                injectors.push_back(std::make_unique<fault::FaultInjector>());
                injectors.back()->add(spec);
                injectors.back()->arm(c);
            }
        }
    }
    const std::vector<int> five = {8, 0, 3, 6, 1};
    const std::vector<int> nine = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    for (const std::vector<int>* list : {&five, &nine}) {
        SCOPED_TRACE(list->size());
        const auto a = lane.measure_members(*list, 1);
        const auto b = ref.measure_members(*list, 1);
        for (std::size_t k = 0; k < list->size(); ++k) {
            SCOPED_TRACE(testing::Message() << "member " << (*list)[k]);
            ASSERT_TRUE(a[k].ok) << a[k].error;
            ASSERT_TRUE(b[k].ok) << b[k].error;
            expect_bit_identical(a[k].measurement, b[k].measurement);
            expect_same_pipeline_state(lane.at((*list)[k]), ref.at((*list)[k]));
        }
    }
}

// ReExcite runs inside run_lanes: the retry plan and the degraded
// single-axis plan, with a fault armed, match PlanExecutor::run member
// by member for a one-lane batch and a batch of five.
TEST(LaneEngine, ReExcitePlansThroughRunLanesMatchRun) {
    for (const int n : {1, 5}) {
        for (const bool single_axis : {false, true}) {
            SCOPED_TRACE(testing::Message() << "n " << n << " single " << single_axis);
            std::vector<std::unique_ptr<compass::Compass>> ref;
            std::vector<std::unique_ptr<compass::Compass>> lane;
            std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
            for (int i = 0; i < n; ++i) {
                for (auto* side : {&ref, &lane}) {
                    side->push_back(std::make_unique<compass::Compass>(lite_config()));
                    compass::Compass& c = *side->back();
                    place(c, 33.0 + 71.0 * i);
                    fault::FaultSpec spec;
                    spec.fault = i % 2 == 0 ? fault::FaultClass::DetectorStuckLow
                                            : fault::FaultClass::OscFrequencyDrift;
                    spec.channel = analog::Channel::X;
                    spec.magnitude = 1.05;
                    injectors.push_back(std::make_unique<fault::FaultInjector>());
                    injectors.back()->add(spec);
                    injectors.back()->arm(c);
                    // Evolve the pipeline first, so the power cycle has
                    // state to clear.
                    (void)c.measure();
                }
            }
            const compass::MeasurementPlan& base = lane[0]->plan();
            const compass::MeasurementPlan plan =
                single_axis ? compass::with_re_excite(
                                  compass::truncate_to_axis(base, analog::Channel::Y))
                            : compass::with_re_excite(base);
            std::vector<compass::Compass*> lanes;
            for (auto& c : lane) lanes.push_back(c.get());
            std::vector<compass::LaneOutcome> out(static_cast<std::size_t>(n));
            compass::PlanExecutor::run_lanes(plan, lanes, out);
            for (int i = 0; i < n; ++i) {
                SCOPED_TRACE(i);
                const auto k = static_cast<std::size_t>(i);
                const compass::Measurement expect =
                    compass::PlanExecutor(*ref[k]).run(plan);
                ASSERT_FALSE(out[k].aborted) << out[k].error;
                expect_bit_identical(out[k].measurement, expect);
                expect_same_pipeline_state(*lane[k], *ref[k]);
                EXPECT_EQ(snapshot::snapshot_compass(*lane[k]),
                          snapshot::snapshot_compass(*ref[k]));
            }
        }
    }
}

}  // namespace
