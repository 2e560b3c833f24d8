#include "analog/mux.hpp"

namespace fxg::analog {

AnalogMux::AnalogMux(double settle_s) : settle_s_(settle_s) {
    if (settle_s < 0.0) throw std::invalid_argument("AnalogMux: settle time < 0");
}

void AnalogMux::select(Channel channel) noexcept {
    if (channel != channel_) {
        channel_ = channel;
        since_switch_s_ = 0.0;
    }
}

bool AnalogMux::step(double dt_s) {
    since_switch_s_ += dt_s;
    return settled();
}

void AnalogMux::reset() noexcept {
    channel_ = Channel::X;
    since_switch_s_ = 0.0;
}

}  // namespace fxg::analog
