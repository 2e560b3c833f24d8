#include "analog/oscillator.hpp"

#include <cmath>
#include <stdexcept>

namespace fxg::analog {

TriangleOscillator::TriangleOscillator(const TriangleOscillatorConfig& config)
    : config_(config) {
    if (!(config.amplitude_a > 0.0)) {
        throw std::invalid_argument("TriangleOscillator: amplitude must be > 0");
    }
    if (!(config.frequency_hz > 0.0)) {
        throw std::invalid_argument("TriangleOscillator: frequency must be > 0");
    }
    if (config.correction_gain < 0.0 || config.correction_gain > 1.0) {
        throw std::invalid_argument("TriangleOscillator: correction_gain in [0,1]");
    }
}

double TriangleOscillator::unit_triangle(double phase) noexcept {
    // Starts at 0 rising: 0..0.25 -> +1, 0.25..0.75 -> -1, 0.75..1 -> 0.
    if (phase < 0.25) return 4.0 * phase;
    if (phase < 0.75) return 2.0 - 4.0 * phase;
    return -4.0 + 4.0 * phase;
}

double TriangleOscillator::step(double dt_s) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("TriangleOscillator: dt must be > 0");
    time_s_ += dt_s;
    phase_ += dt_s * (config_.frequency_hz * fault_.frequency_scale);
    bool period_wrapped = false;
    if (phase_ >= 1.0) {
        phase_ -= std::floor(phase_);
        period_wrapped = true;
    }
    const double w = unit_triangle(phase_);
    // Cubic bowing keeps the waveform odd-symmetric (no DC contribution)
    // while distorting the ramps — "linearity is not very essential".
    const double shaped = w + config_.curvature * (w * w * w - w);
    double out = config_.amplitude_a * (1.0 + config_.amplitude_error) *
                     fault_.amplitude_scale * shaped +
                 (config_.dc_offset_a + fault_.extra_dc_a) + correction_a_;

    // Offset correction loop: average the delivered current over one
    // period, remove a fraction of it at the period boundary. A stuck
    // loop (injected fault) holds its last correction forever.
    period_integral_ += out * dt_s;
    period_time_ += dt_s;
    if (period_wrapped && config_.offset_correction && !fault_.correction_stuck &&
        period_time_ > 0.0) {
        const double mean = period_integral_ / period_time_;
        correction_a_ -= config_.correction_gain * mean;
        period_integral_ = 0.0;
        period_time_ = 0.0;
    } else if (period_wrapped) {
        period_integral_ = 0.0;
        period_time_ = 0.0;
    }
    output_ = out;
    return out;
}

void TriangleOscillator::reset() {
    time_s_ = 0.0;
    phase_ = 0.0;
    output_ = 0.0;
    correction_a_ = 0.0;
    period_integral_ = 0.0;
    period_time_ = 0.0;
}

}  // namespace fxg::analog
