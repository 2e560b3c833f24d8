#include "verify/shrink.hpp"

#include <cmath>
#include <utility>

#include "util/angle.hpp"

namespace fxg::verify {

namespace {

/// One reduction: mutate the case toward "simpler", return false if it
/// was already there (no-op candidates are never re-tested).
using Reduction = bool (*)(FuzzCase&);

bool zero_noise(FuzzCase& c) {
    if (c.config.front_end.pickup_noise_rms_v == 0.0) return false;
    c.config.front_end.pickup_noise_rms_v = 0.0;
    return true;
}

bool zero_mismatch(FuzzCase& c) {
    if (c.config.front_end.sensor_mismatch == 0.0) return false;
    c.config.front_end.sensor_mismatch = 0.0;
    return true;
}

bool default_oscillator(FuzzCase& c) {
    const compass::CompassConfig defaults;
    if (c.config.front_end.oscillator.amplitude_a ==
        defaults.front_end.oscillator.amplitude_a) {
        return false;
    }
    c.config.front_end.oscillator.amplitude_a =
        defaults.front_end.oscillator.amplitude_a;
    return true;
}

bool no_settle(FuzzCase& c) {
    if (c.config.settle_periods == 0) return false;
    c.config.settle_periods = 0;
    return true;
}

bool one_period(FuzzCase& c) {
    if (c.config.periods_per_axis == 1) return false;
    c.config.periods_per_axis = 1;
    return true;
}

bool min_steps(FuzzCase& c) {
    if (c.config.steps_per_period == 64) return false;
    c.config.steps_per_period = 64;
    return true;
}

bool default_gating(FuzzCase& c) {
    if (c.config.power_gating) return false;
    c.config.power_gating = true;
    return true;
}

bool default_cordic(FuzzCase& c) {
    const compass::CompassConfig defaults;
    if (c.config.cordic_cycles == defaults.cordic_cycles &&
        c.config.cordic_frac_bits == defaults.cordic_frac_bits) {
        return false;
    }
    c.config.cordic_cycles = defaults.cordic_cycles;
    c.config.cordic_frac_bits = defaults.cordic_frac_bits;
    return true;
}

bool block_engine(FuzzCase& c) {
    if (c.config.engine == sim::EngineKind::Block) return false;
    c.config.engine = sim::EngineKind::Block;
    return true;
}

bool widen_register(FuzzCase& c) {
    if (c.oracle == Oracle::CounterWidth) {
        // CounterWidth is *about* the finite register: shrink toward a
        // canonical narrow one instead of removing it.
        if (c.counter_width_bits == 8) return false;
        c.counter_width_bits = 8;
        return true;
    }
    if (c.counter_width_bits == 0 && !c.trap_on_overflow) return false;
    c.counter_width_bits = 0;
    c.trap_on_overflow = false;
    return true;
}

bool no_trap(FuzzCase& c) {
    if (!c.trap_on_overflow) return false;
    c.trap_on_overflow = false;
    return true;
}

bool canonical_field(FuzzCase& c) {
    if (c.field_ut == 48.0 && c.inclination_deg == 0.0) return false;
    c.field_ut = 48.0;
    c.inclination_deg = 0.0;
    return true;
}

bool snap_heading(FuzzCase& c) {
    const double snapped =
        util::wrap_deg_360(90.0 * std::round(c.heading_deg / 90.0));
    if (snapped == c.heading_deg) return false;
    c.heading_deg = snapped;
    return true;
}

bool zero_raw_x(FuzzCase& c) {
    if (c.raw_x == 0) return false;
    c.raw_x = 0;
    return true;
}

bool zero_raw_y(FuzzCase& c) {
    if (c.raw_y == 0) return false;
    c.raw_y = 0;
    return true;
}

bool halve_raw_x(FuzzCase& c) {
    if (c.raw_x == 0) return false;
    c.raw_x /= 2;
    return true;
}

bool halve_raw_y(FuzzCase& c) {
    if (c.raw_y == 0) return false;
    c.raw_y /= 2;
    return true;
}

bool no_calibration(FuzzCase& c) {
    const compass::CountCalibration none;
    if (c.calibration.offset_x == none.offset_x &&
        c.calibration.offset_y == none.offset_y &&
        c.calibration.scale_y == none.scale_y && !c.calibration.temp.enabled()) {
        return false;
    }
    c.calibration = none;
    return true;
}

constexpr Reduction kReductions[] = {
    zero_noise,     zero_mismatch, default_oscillator, no_settle,
    one_period,     min_steps,     default_gating,     default_cordic,
    block_engine,   no_trap,       widen_register,     canonical_field,
    snap_heading,   zero_raw_x,    zero_raw_y,         halve_raw_x,
    halve_raw_y,    no_calibration,
};

}  // namespace

FuzzCase shrink_case(const FuzzCase& failing, const FailPredicate& still_fails,
                     int max_rounds) {
    FuzzCase current = failing;
    auto try_accept = [&](FuzzCase candidate) {
        if (!still_fails(candidate)) return false;
        current = std::move(candidate);
        return true;
    };
    bool changed = true;
    for (int round = 0; changed && round < max_rounds; ++round) {
        changed = false;
        // Faults first: dropping one usually removes the most state.
        // Last-to-first so accepted erasures keep earlier indices valid.
        for (int i = static_cast<int>(current.faults.size()) - 1; i >= 0; --i) {
            FuzzCase candidate = current;
            candidate.faults.erase(candidate.faults.begin() + i);
            changed |= try_accept(std::move(candidate));
        }
        for (const Reduction reduce : kReductions) {
            FuzzCase candidate = current;
            if (!reduce(candidate)) continue;
            changed |= try_accept(std::move(candidate));
        }
    }
    return current;
}

FuzzCase shrink_case(const FuzzCase& failing, int max_rounds) {
    return shrink_case(
        failing,
        [](const FuzzCase& c) {
            try {
                return run_case(c).has_value();
            } catch (...) {
                return true;
            }
        },
        max_rounds);
}

}  // namespace fxg::verify
