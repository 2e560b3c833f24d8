#include "sim/engine.hpp"

#include <stdexcept>

#include "sim/lane_engine.hpp"

namespace fxg::sim {

namespace {

/// The reference loop: one FrontEnd::step() per sample.
void step_each(analog::FrontEnd& front_end, analog::Channel channel, int steps,
               double dt_s, digital::UpDownCounter* counter, double& energy_j) {
    const auto ch = static_cast<std::size_t>(channel);
    for (int k = 0; k < steps; ++k) {
        const analog::FrontEndSample s = front_end.step(dt_s);
        energy_j += s.power_w * dt_s;
        if (counter != nullptr && s.valid[ch]) counter->step(s.detector[ch], dt_s);
    }
}

/// EngineKind::Block: the member as a one-lane group of the lane
/// engine, i.e. its time form. The lane engine keeps no state between
/// advances, so a fresh one per call holds no scratch past it (a
/// varying scenario's environment streams are the large part).
class LaneTimeEngine final : public SimEngine {
public:
    [[nodiscard]] EngineKind kind() const noexcept override {
        return EngineKind::Block;
    }
    [[nodiscard]] const char* name() const noexcept override { return "block"; }

    void advance(analog::FrontEnd& front_end, analog::Channel channel, int steps,
                 double dt_s, digital::UpDownCounter* counter,
                 double& energy_j) override {
        telemetry::Span span(telemetry_, "engine.block", static_cast<int>(channel));
        span.set_value(steps);
        // The lane kernels take a powered, eligible front end and a
        // positive step; anything else is the reference loop's to run
        // (and, for a bad step, to reject).
        if (!(dt_s > 0.0) || !front_end.enabled() || !LaneEngine::eligible(front_end)) {
            step_each(front_end, channel, steps, dt_s, counter, energy_j);
            return;
        }
        const LanePort port{&front_end, counter, &energy_j};
        LaneEngine().advance(&port, 1, channel, steps, dt_s);
    }
};

}  // namespace

void ScalarEngine::advance(analog::FrontEnd& front_end, analog::Channel channel,
                           int steps, double dt_s, digital::UpDownCounter* counter,
                           double& energy_j) {
    telemetry::Span span(telemetry_, "engine.scalar", static_cast<int>(channel));
    span.set_value(steps);
    step_each(front_end, channel, steps, dt_s, counter, energy_j);
}

const char* to_string(EngineKind kind) noexcept {
    switch (kind) {
        case EngineKind::Scalar: return "scalar";
        case EngineKind::Block: return "block";
    }
    return "?";
}

std::unique_ptr<SimEngine> make_engine(EngineKind kind) {
    switch (kind) {
        case EngineKind::Scalar: return std::make_unique<ScalarEngine>();
        case EngineKind::Block: return std::make_unique<LaneTimeEngine>();
    }
    throw std::invalid_argument("make_engine: unknown EngineKind");
}

}  // namespace fxg::sim
