#pragma once

/// \file compass.hpp
/// The integrated compass (paper Figure 1): the public API a user of
/// this library interacts with. One Compass object owns the full
/// mixed-signal pipeline —
///
///   earth field -> fluxgate sensors -> triangle excitation + V-I
///   -> pulse-position detector -> 4.194304 MHz up/down counter
///   -> CORDIC arctan (8 cycles) -> display driver / watch
///
/// and measure() runs one complete multiplexed measurement exactly the
/// way the control logic sequences it: enable the analogue section,
/// settle, integrate the x axis over N excitation periods, switch the
/// multiplexer, integrate y, then compute arctan(x/y) digitally.
///
/// Since PR 4 the sequence itself is *data*: the constructor compiles
/// the configuration into a MeasurementPlan (core/plan.hpp) and
/// measure() hands that plan to a PlanExecutor. Schedulers, the fault
/// supervisor and sweep harnesses run rewrites of the same plan through
/// the same executor.

#include <cstdint>
#include <memory>
#include <vector>

#include "analog/front_end.hpp"
#include "core/plan.hpp"
#include "digital/cordic.hpp"
#include "digital/counter.hpp"
#include "digital/display.hpp"
#include "digital/watch.hpp"
#include "magnetics/earth_field.hpp"
#include "sim/engine.hpp"
#include "telemetry/sink.hpp"

namespace fxg::compass {

/// System-level configuration.
struct CompassConfig {
    analog::FrontEndConfig front_end;

    /// Counting clock of the pulse-count part (paper: 4.194304 MHz).
    double counter_clock_hz = 4194304.0;

    /// Excitation periods integrated per axis (resolution vs. speed).
    int periods_per_axis = 8;

    /// Periods discarded after each multiplexer switch (settling).
    int settle_periods = 1;

    /// Analogue simulation step as a fraction of the excitation period.
    int steps_per_period = 2048;

    /// CORDIC geometry (paper: 8 cycles, x128 scaling).
    int cordic_cycles = 8;
    int cordic_frac_bits = 7;

    /// Power-gate the front end between measurements (paper section 4).
    bool power_gating = true;

    /// Effective saturation margin of the soft (tanh) core: the pickup
    /// pulse only falls below the detector threshold once |H| exceeds
    /// roughly margin * Hk, so clean pulse separation needs
    /// |H_ext| + margin * Hk < Ha. 1.5 is conservative for the default
    /// 20 mV threshold.
    double saturation_margin = 1.5;

    /// Simulation engine the measurement loop runs on. Both engines are
    /// bit-identical in results (see src/sim/engine.hpp); Block — this
    /// member through the lane engine's time form, the scalar loop where
    /// the lane engine refuses the config — is the fast default, Scalar
    /// the per-sample reference.
    sim::EngineKind engine = sim::EngineKind::Block;
};

/// Polynomial temperature compensation of the y-axis count gain
/// (core/calibration's fit_temp_compensation produces one). The x/y
/// sensitivity-tempco mismatch makes the count-gain ratio drift with
/// ambient temperature; multiplying the calibrated y scale by
///   gain(T) = c0 + c1 (T - Tref) + c2 (T - Tref)^2 + ...
/// restores the ratio the arctan needs. An empty coefficient list means
/// disabled — the count path is then bit-identical to the
/// pre-temperature calibration. Snapshots carry it with the rest of
/// the count calibration.
struct TempCompensation {
    double t_ref_c = 25.0;
    std::vector<double> coeff;  ///< gain polynomial in (T - Tref); empty = off

    [[nodiscard]] bool enabled() const noexcept { return !coeff.empty(); }

    /// Horner evaluation of the gain polynomial at temp_c.
    [[nodiscard]] double gain_at(double temp_c) const noexcept {
        if (coeff.empty()) return 1.0;
        const double dt = temp_c - t_ref_c;
        double g = coeff.back();
        for (std::size_t i = coeff.size() - 1; i-- > 0;) g = g * dt + coeff[i];
        return g;
    }
};

/// Count-domain calibration applied to the raw counter values:
/// hard-iron offsets plus a soft-iron gain correction that rescales the
/// y axis so the count locus becomes a centred circle before the
/// arctan (see calibration.hpp for the fitting routines), optionally
/// modulated by a temperature-compensation polynomial evaluated at the
/// front end's ambient temperature.
struct CountCalibration {
    std::int64_t offset_x = 0;
    std::int64_t offset_y = 0;
    double scale_y = 1.0;  ///< multiplies (count_y - offset_y)
    TempCompensation temp;  ///< optional temperature gain compensation
};

// struct Measurement lives in core/plan.hpp (included above): the plan
// layer produces it, both per member (PlanExecutor::run) and per lane
// batch (PlanExecutor::run_lanes).

/// The integrated compass.
class Compass {
public:
    explicit Compass(const CompassConfig& config = {});

    /// Shares an already-compiled plan instead of compiling one: `plan`
    /// must be (equivalent to) compile_plan(config). CompassFleet uses
    /// this to compile one plan per distinct configuration and hand the
    /// same immutable stage list to every member.
    Compass(const CompassConfig& config,
            std::shared_ptr<const MeasurementPlan> plan);

    /// Places the compass in an earth field at a physical heading [deg].
    /// Sugar for set_field_source(ConstantFieldSource) — see
    /// set_axis_fields for the naming note.
    void set_environment(const magnetics::EarthField& field, double heading_deg);

    /// Directly sets the two sensor-axis field components [A/m]
    /// (for tests that bypass the EarthField geometry).
    ///
    /// \deprecated Naming predates the time-varying environment layer:
    /// despite the imperative name this no longer pokes scalar fields
    /// into the sensors — it installs a ConstantFieldSource, i.e. it is
    /// sugar for set_field_source(make_constant_field(hx, hy)). Behaviour
    /// is bit-identical to the historic direct path on every engine. New
    /// code that means "constant environment" can keep calling it; code
    /// that wants a time-varying environment should use
    /// set_field_source() with a compiled Scenario.
    void set_axis_fields(double hx_a_per_m, double hy_a_per_m);

    /// Installs a per-tick environment provider — typically a
    /// compile_scenario() result — consumed by whichever engine runs
    /// the measurement (scalar, Block or fleet lanes). The provider is
    /// queried at the front end's monotone sample counter, so scenario
    /// time advances across measurements and survives snapshot/restore
    /// (reinstall the same source on the restored compass; it is
    /// configuration, not serialized state). nullptr detaches.
    void set_field_source(std::shared_ptr<const magnetics::FieldSource> source);
    [[nodiscard]] const magnetics::FieldSource* field_source() const noexcept;

    /// Runs one full measurement through the mixed-signal pipeline and
    /// updates the display: executes the compiled plan() on the
    /// simulation engine via a PlanExecutor.
    Measurement measure();

    /// The control sequence this compass executes, compiled once from
    /// the configuration at construction. Rewrites of it (retry,
    /// single-axis truncation) run through PlanExecutor.
    [[nodiscard]] const MeasurementPlan& plan() const noexcept { return *plan_; }

    /// Applies a hard-iron count calibration to subsequent measurements.
    void set_calibration(const CountCalibration& cal) noexcept { calibration_ = cal; }
    [[nodiscard]] const CountCalibration& calibration() const noexcept {
        return calibration_;
    }

    /// Advances the watch (and the idle power accounting) by real time
    /// without measuring.
    void idle(double seconds);

    /// Re-excitation recovery action (fault supervision): power-cycles
    /// the analogue section and fully resets the counter (including the
    /// sticky overflow flag). Calibration, environment and any armed
    /// fault state are untouched — a power cycle does not repair a
    /// physically broken stage.
    void re_excite();

    /// Attaches a non-owning telemetry sink (nullptr detaches). While a
    /// sink is attached, measure() traces the full pipeline — nested
    /// spans for each channel's excite/settle/count phases, the engine
    /// advances underneath them and the CORDIC — and emits one
    /// MeasurementSample of physics probes (raw counts, duty cycle,
    /// pulse-position shift, CORDIC residual, latency). With no sink
    /// attached every touchpoint is a single pointer test: no locks, no
    /// allocation, no clocks (bench_telemetry_overhead holds this
    /// under 1 % of a measure()).
    void set_telemetry(telemetry::TelemetrySink* sink) noexcept {
        telemetry_ = sink;
        engine_->set_telemetry(sink);
    }
    [[nodiscard]] telemetry::TelemetrySink* telemetry() const noexcept {
        return telemetry_;
    }

    /// Fleet member index reported in telemetry samples (0 standalone;
    /// CompassFleet::set_telemetry assigns member positions).
    void set_telemetry_member(int member) noexcept { telemetry_member_ = member; }
    [[nodiscard]] int telemetry_member() const noexcept { return telemetry_member_; }

    [[nodiscard]] const CompassConfig& config() const noexcept { return config_; }
    [[nodiscard]] analog::FrontEnd& front_end() noexcept { return front_end_; }
    [[nodiscard]] const analog::FrontEnd& front_end() const noexcept {
        return front_end_;
    }
    [[nodiscard]] digital::UpDownCounter& counter() noexcept { return counter_; }
    [[nodiscard]] const digital::UpDownCounter& counter() const noexcept {
        return counter_;
    }
    [[nodiscard]] const digital::CordicUnit& cordic() const noexcept { return cordic_; }
    [[nodiscard]] digital::DisplayDriver& display() noexcept { return display_; }
    [[nodiscard]] digital::Watch& watch() noexcept { return watch_; }
    [[nodiscard]] const sim::SimEngine& engine() const noexcept { return *engine_; }

private:
    /// The executor drives the private pipeline stages on the plan's
    /// behalf — it is the only component with that access.
    friend class PlanExecutor;
    friend class PlanRun;

    CompassConfig config_;
    /// Immutable, shareable across a fleet (one compile per config).
    std::shared_ptr<const MeasurementPlan> plan_;
    analog::FrontEnd front_end_;
    digital::UpDownCounter counter_;
    digital::CordicUnit cordic_;
    digital::DisplayDriver display_;
    digital::Watch watch_;
    CountCalibration calibration_;
    std::unique_ptr<sim::SimEngine> engine_;
    telemetry::TelemetrySink* telemetry_ = nullptr;  ///< non-owning hook
    int telemetry_member_ = 0;
};

}  // namespace fxg::compass
