#include "analog/detector.hpp"

namespace fxg::analog {

namespace {

ComparatorConfig make_comparator(const DetectorConfig& d, std::uint64_t seed_offset) {
    ComparatorConfig c;
    c.threshold_v = d.threshold_v;
    c.offset_v = d.comparator_offset_v;
    c.hysteresis_v = d.comparator_hysteresis_v;
    c.noise_rms_v = d.noise_rms_v;
    c.noise_seed = d.noise_seed + seed_offset;
    return c;
}

}  // namespace

PulsePositionDetector::PulsePositionDetector(const DetectorConfig& config)
    : config_(config), positive_(make_comparator(config, 0)),
      negative_(make_comparator(config, 1)) {}

bool PulsePositionDetector::step(double v_pickup) {
    const bool pos = positive_.step(v_pickup);
    const bool neg = negative_.step(-v_pickup);
    // Falling edge of the positive pulse sets the output ...
    if (prev_pos_ && !pos) out_ = true;
    // ... rising edge (i.e. end) of the negative pulse clears it.
    if (prev_neg_ && !neg) out_ = false;
    prev_pos_ = pos;
    prev_neg_ = neg;
    return out_;
}

void PulsePositionDetector::set_comparator_offset_fault(double extra_offset_v) noexcept {
    positive_.set_offset_fault(extra_offset_v);
    negative_.set_offset_fault(extra_offset_v);
}

void PulsePositionDetector::reset() {
    positive_.reset();
    negative_.reset();
    prev_pos_ = false;
    prev_neg_ = false;
    out_ = false;
}

}  // namespace fxg::analog
