#include "sensor/fluxgate.hpp"

#include <cmath>
#include <stdexcept>

#include "magnetics/units.hpp"

namespace fxg::sensor {

FluxgateSensor::FluxgateSensor(FluxgateParams params,
                               std::unique_ptr<magnetics::CoreModel> core)
    : params_(std::move(params)), core_(std::move(core)) {
    if (!core_) {
        core_ = std::make_unique<magnetics::TanhCore>(
            params_.ms_a_per_m, params_.hk_a_per_m, params_.ms_temp_coeff_per_c,
            params_.hk_temp_coeff_per_c, params_.t_ref_c);
    }
    temp_sensitive_ = params_.ms_temp_coeff_per_c != 0.0 ||
                      params_.hk_temp_coeff_per_c != 0.0 ||
                      params_.sens_temp_coeff_per_c != 0.0;
}

FluxgateSensor::FluxgateSensor(const FluxgateSensor& other)
    : params_(other.params_), core_(other.core_->clone()),
      temp_sensitive_(other.temp_sensitive_), fpa_scale_(other.fpa_scale_),
      h_ext_(other.h_ext_),
      h_core_(other.h_core_), b_core_(other.b_core_), v_pickup_(other.v_pickup_),
      v_excitation_(other.v_excitation_),
      lambda_pickup_prev_(other.lambda_pickup_prev_),
      lambda_exc_prev_(other.lambda_exc_prev_), first_step_(other.first_step_) {}

double FluxgateSensor::step(double i_excitation_a, double dt_s) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("FluxgateSensor::step: dt must be > 0");
    h_core_ = effective_field_per_amp() * i_excitation_a + h_ext_;
    const double m = core_->advance(h_core_);
    b_core_ = magnetics::kMu0 * (h_core_ + m);
    const double lambda_pickup = params_.n_pickup * params_.core_area_m2 * b_core_;
    const double lambda_exc = params_.n_excitation * params_.core_area_m2 * b_core_;
    if (first_step_) {
        // No derivative available on the very first sample.
        v_pickup_ = 0.0;
        v_excitation_ = params_.r_excitation_ohm * i_excitation_a;
        first_step_ = false;
    } else {
        // Winding sense chosen as in the paper's Figure 3 (V_ind = dPhi/dt):
        // the positive pickup pulse rides the rising excitation ramp, so
        // the detector duty cycle increases with +H_ext.
        v_pickup_ = (lambda_pickup - lambda_pickup_prev_) / dt_s;
        v_excitation_ = params_.r_excitation_ohm * i_excitation_a +
                        (lambda_exc - lambda_exc_prev_) / dt_s;
    }
    lambda_pickup_prev_ = lambda_pickup;
    lambda_exc_prev_ = lambda_exc;
    return v_pickup_;
}

void FluxgateSensor::step_block_constant(double i_excitation_a, double dt_s, int n) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("FluxgateSensor::step: dt must be > 0");
    if (n <= 0) return;
    // With a constant drive the core field is constant, so after the
    // first step the flux linkages stop changing and every further step
    // returns v_pickup = 0 while leaving the state fixed. Two real steps
    // therefore reproduce the state after any n >= 2 steps exactly
    // (hysteretic cores see dh = 0 on the second step and hold).
    step(i_excitation_a, dt_s);
    if (n > 1) step(i_excitation_a, dt_s);
}

void FluxgateSensor::step_block_env(double i_excitation_a, const double* h_ext,
                                    const double* temp_c, double dt_s, int n) {
    // Deliberately the literal per-sample sequence: with the axial field
    // (and possibly Ms/Hk) changing under it, the flux linkage moves
    // every step, so there is no stationary state to shortcut to.
    for (int k = 0; k < n; ++k) {
        set_external_field(h_ext[k]);
        if (temp_c != nullptr) set_temperature(temp_c[k]);
        step(i_excitation_a, dt_s);
    }
}

bool FluxgateSensor::saturated() const noexcept {
    return std::fabs(h_core_) > core_->knee_field();
}

void FluxgateSensor::reset() {
    core_->reset();
    h_core_ = 0.0;
    b_core_ = 0.0;
    v_pickup_ = 0.0;
    v_excitation_ = 0.0;
    lambda_pickup_prev_ = 0.0;
    lambda_exc_prev_ = 0.0;
    first_step_ = true;
}

double ideal_duty_cycle(double ha, double hk, double hext) {
    if (!(ha > 0.0)) throw std::invalid_argument("ideal_duty_cycle: ha must be > 0");
    if (std::fabs(hext) + hk >= ha) {
        throw std::domain_error(
            "ideal_duty_cycle: |hext| + hk must stay below the excitation "
            "amplitude (core must saturate both ways)");
    }
    return 0.5 + hext / (2.0 * ha);
}

}  // namespace fxg::sensor
