// Tests for the behavioural fluxgate sensor: parameter presets, the
// pulse train it produces under triangular excitation, the analytic
// duty-cycle transfer (DESIGN.md section 5) as a property over the
// external field, and the pulse-analysis measurement tools.

#include <gtest/gtest.h>

#include <cmath>

#include "magnetics/units.hpp"
#include "sensor/fluxgate.hpp"
#include "sensor/fluxgate_params.hpp"
#include "sensor/pulse_analysis.hpp"

namespace fxg::sensor {
namespace {

// One excitation period of the sensor; returns (time, pickup voltage).
struct WaveRecord {
    std::vector<double> t;
    std::vector<double> v;
    std::vector<double> v_exc;
};

WaveRecord run_sensor(FluxgateSensor& fg, const ExcitationSpec& exc, int periods,
                      int steps_per_period) {
    WaveRecord rec;
    const double dt = exc.period_s() / steps_per_period;
    double t = 0.0;
    for (int k = 0; k < periods * steps_per_period; ++k) {
        t += dt;
        double phase = t * exc.frequency_hz;
        phase -= std::floor(phase);
        double unit;
        if (phase < 0.25) {
            unit = 4.0 * phase;
        } else if (phase < 0.75) {
            unit = 2.0 - 4.0 * phase;
        } else {
            unit = -4.0 + 4.0 * phase;
        }
        fg.step(exc.amplitude_a * unit, dt);
        rec.t.push_back(t);
        rec.v.push_back(fg.pickup_voltage());
        rec.v_exc.push_back(fg.excitation_voltage());
    }
    return rec;
}

// ------------------------------------------------------------ parameters

TEST(Params, DesignTargetGeometry) {
    const FluxgateParams p = FluxgateParams::design_target();
    // +-6 mA through the excitation winding must reach twice the knee.
    const double h_peak = p.field_per_amp() * 6e-3;
    EXPECT_NEAR(h_peak, 2.0 * p.hk_a_per_m, 1e-9);
    EXPECT_NEAR(p.current_for_field_ratio(2.0), 6e-3, 1e-12);
}

TEST(Params, MeasuredKaw95MatchesPaper) {
    const FluxgateParams p = FluxgateParams::measured_kaw95();
    EXPECT_NEAR(p.hk_a_per_m, magnetics::oersted_to_a_per_m(1.0), 1e-9);
    EXPECT_DOUBLE_EQ(p.r_excitation_ohm, 77.0);
    // The measured core still reaches 2x HK with the 12 mA pp drive
    // thanks to its denser winding.
    EXPECT_NEAR(p.field_per_amp() * 6e-3, 2.0 * p.hk_a_per_m, 1.0);
}

TEST(Params, UnsaturatedInductanceScale) {
    const FluxgateParams p = FluxgateParams::design_target();
    const double l = p.unsaturated_inductance();
    EXPECT_GT(l, 1e-6);
    EXPECT_LT(l, 1e-3);
}

TEST(Excitation, PaperValues) {
    const ExcitationSpec exc;
    EXPECT_DOUBLE_EQ(exc.amplitude_a, 6e-3);      // 12 mA pp
    EXPECT_DOUBLE_EQ(exc.frequency_hz, 8e3);
    EXPECT_DOUBLE_EQ(exc.period_s(), 125e-6);
}

// ------------------------------------------------------------ pulse train

TEST(Fluxgate, ProducesAlternatingPulses) {
    FluxgateSensor fg(FluxgateParams::design_target());
    const WaveRecord rec = run_sensor(fg, ExcitationSpec{}, 4, 2048);
    const auto pulses = find_pulses(rec.t, rec.v, 20e-3);
    // Two pulses per period (one per ramp), alternating polarity.
    ASSERT_GE(pulses.size(), 7u);
    for (std::size_t i = 1; i < pulses.size(); ++i) {
        EXPECT_NE(pulses[i].positive, pulses[i - 1].positive);
    }
}

TEST(Fluxgate, ZeroFieldPulsesAreSymmetric) {
    FluxgateSensor fg(FluxgateParams::design_target());
    const WaveRecord rec = run_sensor(fg, ExcitationSpec{}, 6, 2048);
    const double duty = measure_duty_cycle(rec.t, rec.v, 20e-3);
    EXPECT_NEAR(duty, 0.5, 0.002);
}

TEST(Fluxgate, ExternalFieldShiftsPulses) {
    const ExcitationSpec exc;
    FluxgateSensor a(FluxgateParams::design_target());
    FluxgateSensor b(FluxgateParams::design_target());
    b.set_external_field(20.0);  // A/m, half the knee
    const WaveRecord ra = run_sensor(a, exc, 4, 4096);
    const WaveRecord rb = run_sensor(b, exc, 4, 4096);
    const double shift =
        pulse_shift_seconds(find_pulses(ra.t, ra.v, 20e-3), find_pulses(rb.t, rb.v, 20e-3));
    // Analytic: the desaturation window centre moves by
    // dt = T/4 * Hext/Ha on the rising ramp.
    const double ha = FluxgateParams::design_target().field_per_amp() * exc.amplitude_a;
    const double expect = exc.period_s() / 4.0 * 20.0 / ha;
    EXPECT_NE(shift, 0.0);
    EXPECT_NEAR(std::fabs(shift), expect, expect * 0.25);
}

TEST(Fluxgate, ExcitationVoltageShowsImpedanceCollapse) {
    // In saturation the coil is nearly resistive; crossing the permeable
    // region adds a visible inductive bump (paper Figure 4's "change in
    // impedance of the excitation coil").
    FluxgateSensor fg(FluxgateParams::design_target());
    const ExcitationSpec exc;
    const WaveRecord rec = run_sensor(fg, exc, 2, 4096);
    const double r = fg.params().r_excitation_ohm;
    double max_excess = 0.0;
    std::vector<double> excess(rec.t.size());
    const double dt = exc.period_s() / 4096;
    double t = 0.0;
    for (std::size_t i = 0; i < rec.t.size(); ++i) {
        t = rec.t[i];
        double phase = t * exc.frequency_hz;
        phase -= std::floor(phase);
        double unit;
        if (phase < 0.25) {
            unit = 4.0 * phase;
        } else if (phase < 0.75) {
            unit = 2.0 - 4.0 * phase;
        } else {
            unit = -4.0 + 4.0 * phase;
        }
        const double resistive = r * exc.amplitude_a * unit;
        excess[i] = std::fabs(rec.v_exc[i] - resistive);
        if (i > 4) max_excess = std::max(max_excess, excess[i]);
    }
    (void)dt;
    EXPECT_GT(max_excess, 1e-3);  // inductive bump exists
    // Deep in saturation (current near the peak) the excess is tiny.
    std::size_t peak_idx = 4096 / 4;  // first current peak
    EXPECT_LT(excess[peak_idx], max_excess * 0.2);
}

TEST(Fluxgate, SaturationFlagTracksField) {
    FluxgateSensor fg(FluxgateParams::design_target());
    fg.step(6e-3, 1e-6);  // peak current -> 2x knee
    EXPECT_TRUE(fg.saturated());
    fg.step(0.0, 1e-6);
    EXPECT_FALSE(fg.saturated());
}

TEST(Fluxgate, ResetRestoresInitialState) {
    FluxgateSensor fg(FluxgateParams::design_target());
    fg.set_external_field(10.0);
    run_sensor(fg, ExcitationSpec{}, 1, 512);
    fg.reset();
    EXPECT_DOUBLE_EQ(fg.pickup_voltage(), 0.0);
    EXPECT_DOUBLE_EQ(fg.flux_density(), 0.0);
}

TEST(Fluxgate, CopyIsIndependent) {
    FluxgateSensor a(FluxgateParams::design_target());
    run_sensor(a, ExcitationSpec{}, 1, 512);
    FluxgateSensor b(a);
    b.step(6e-3, 1e-6);
    // a unaffected by stepping b.
    EXPECT_NE(a.core_field(), b.core_field());
}

TEST(Fluxgate, ValidatesStep) {
    FluxgateSensor fg(FluxgateParams::design_target());
    EXPECT_THROW(fg.step(0.0, 0.0), std::invalid_argument);
}

// --------------------------------------------- duty-cycle transfer (law)

class DutyTransfer : public ::testing::TestWithParam<double> {};

TEST_P(DutyTransfer, MatchesAnalyticLaw) {
    const double hext = GetParam();
    const FluxgateParams params = FluxgateParams::design_target();
    const ExcitationSpec exc;
    const double ha = params.field_per_amp() * exc.amplitude_a;
    FluxgateSensor fg(params);
    fg.set_external_field(hext);
    const WaveRecord rec = run_sensor(fg, exc, 8, 4096);
    const double duty = measure_duty_cycle(rec.t, rec.v, 20e-3);
    const double expect = ideal_duty_cycle(ha, params.hk_a_per_m, hext);
    EXPECT_NEAR(duty, expect, 0.004) << "hext = " << hext;
}

// The sweep stays inside the clean pulse-separation range
// |hext| + margin*Hk < Ha (margin ~1.4 for the 20 mV threshold); beyond
// it the rising- and falling-ramp pulses merge near the triangle
// extremes and the simple transfer law no longer applies.
INSTANTIATE_TEST_SUITE_P(FieldSweep, DutyTransfer,
                         ::testing::Values(-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0,
                                           15.0, 20.0));

TEST(DutyCycleLaw, Validates) {
    EXPECT_THROW(ideal_duty_cycle(0.0, 1.0, 0.0), std::invalid_argument);
    // Core must saturate both ways: |hext| + hk < ha.
    EXPECT_THROW(ideal_duty_cycle(80.0, 40.0, 41.0), std::domain_error);
    EXPECT_NO_THROW(ideal_duty_cycle(80.0, 40.0, 39.0));
}

// Jiles-Atherton core: hysteresis keeps the pulse-position response
// sign-correct and monotone with a slope of the right order. (A biased
// excitation traverses asymmetric minor loops, so unlike the
// anhysteretic case the transfer is not exactly the square-loop law —
// the reason the paper works with sensors whose loop is soft.)
TEST(Fluxgate, JilesAthertonCoreStaysMonotone) {
    const FluxgateParams params = FluxgateParams::design_target();
    magnetics::JilesAthertonParams jp;
    jp.ms = params.ms_a_per_m;
    jp.a = params.hk_a_per_m / 3.0;  // knee ~ 3a
    jp.k = 4.0;                      // mild pinning
    jp.c = 0.3;
    const ExcitationSpec exc;
    const double ha = params.field_per_amp() * exc.amplitude_a;
    // The JA core's reversible term leaves a ~30 mV plateau even in
    // saturation, so the comparator threshold must sit above it (a real
    // design would do the same); the first two periods are the initial
    // magnetisation transient and are skipped.
    auto duty_at = [&](double hext) {
        FluxgateSensor fg(params, std::make_unique<magnetics::JilesAthertonCore>(jp));
        fg.set_external_field(hext);
        const WaveRecord rec = run_sensor(fg, exc, 10, 4096);
        auto pulses = find_pulses(rec.t, rec.v, 100e-3);
        std::erase_if(pulses,
                      [&](const Pulse& p) { return p.t_centroid < 2.0 * exc.period_s(); });
        return detector_duty_cycle(pulses);
    };
    const double d0 = duty_at(0.0);
    const double dhalf = duty_at(10.0);
    const double dp = duty_at(20.0);
    const double dm = duty_at(-20.0);
    const double ideal_slope = 20.0 / (2.0 * ha);
    EXPECT_NEAR(d0, 0.5, 0.04);
    // Monotone and sign-correct ...
    EXPECT_GT(dhalf, d0);
    EXPECT_GT(dp, dhalf);
    EXPECT_LT(dm, d0);
    // ... with sensitivity of the right order (minor-loop asymmetry
    // allows up to ~2x the anhysteretic slope).
    EXPECT_GT(dp - d0, 0.8 * ideal_slope);
    EXPECT_LT(dp - d0, 2.0 * ideal_slope);
    EXPECT_GT(d0 - dm, 0.8 * ideal_slope);
    EXPECT_LT(d0 - dm, 2.0 * ideal_slope);
}

// --------------------------------------------------------- pulse analysis

TEST(PulseAnalysis, FindPulsesOnSyntheticWave) {
    std::vector<double> t;
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i) {
        t.push_back(i * 1e-6);
        double val = 0.0;
        if (i >= 100 && i < 120) val = 1.0;   // positive pulse
        if (i >= 600 && i < 640) val = -0.8;  // negative pulse
        v.push_back(val);
    }
    const auto pulses = find_pulses(t, v, 0.5);
    ASSERT_EQ(pulses.size(), 2u);
    EXPECT_TRUE(pulses[0].positive);
    EXPECT_FALSE(pulses[1].positive);
    EXPECT_NEAR(pulses[0].t_centroid, 109.5e-6, 1e-6);
    EXPECT_NEAR(pulses[1].t_end, 640e-6, 1.1e-6);
}

TEST(PulseAnalysis, OpenPulseAtEndIsDropped) {
    std::vector<double> t{0, 1, 2, 3};
    std::vector<double> v{0, 1, 1, 1};  // never returns below threshold
    EXPECT_TRUE(find_pulses(t, v, 0.5).empty());
}

TEST(PulseAnalysis, DetectorDutyFromPulses) {
    // Positive ends at 10, negative at 16, next positive at 30:
    // high 6 of 20 -> duty 0.3.
    std::vector<Pulse> pulses(3);
    pulses[0].positive = true;
    pulses[0].t_end = 10.0;
    pulses[1].positive = false;
    pulses[1].t_end = 16.0;
    pulses[2].positive = true;
    pulses[2].t_end = 30.0;
    EXPECT_NEAR(detector_duty_cycle(pulses), 0.3, 1e-12);
}

TEST(PulseAnalysis, DutyNeedsCompleteCycles) {
    std::vector<Pulse> one(1);
    one[0].positive = true;
    one[0].t_end = 1.0;
    EXPECT_EQ(detector_duty_cycle(one), -1.0);
}

TEST(PulseAnalysis, Validation) {
    EXPECT_THROW(find_pulses({0.0}, {0.0, 1.0}, 0.5), std::invalid_argument);
    EXPECT_THROW(find_pulses({0.0}, {0.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(pulse_shift_seconds({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace fxg::sensor
