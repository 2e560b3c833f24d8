#pragma once

/// \file vi_converter.hpp
/// V-I converter driving the fluxgate excitation coil (paper section
/// 3.1). The sensors' high series resistance forces a balanced
/// differential output; with a 5 V supply "sensors with a resistance as
/// high as 800 ohm can be driven". The resistive character of the sensor
/// is used to linearise the stage, modelled as a residual gain
/// nonlinearity that shrinks with the load resistance.

namespace fxg::analog {

/// Configuration of one excitation driver.
struct ViConverterConfig {
    double supply_v = 5.0;          ///< single supply rail (scalable to 3.5 V)
    double headroom_v = 0.1;        ///< output-stage headroom per side
    double gain_error = 0.0;        ///< fractional static gain error
    double nonlinearity = 0.0;      ///< fractional cubic error at full scale, zero-ohm load
    double full_scale_a = 6.0e-3;   ///< current at which `nonlinearity` is specified
    double linearising_r_ohm = 770.0;  ///< load R at which nonlinearity halves
    bool balanced_differential = true; ///< drive both coil ends anti-phase
};

/// Current driver with compliance clipping and load-dependent
/// linearisation.
class ViConverter {
public:
    explicit ViConverter(const ViConverterConfig& config = {});

    /// Drives `i_command` amps into a load of `r_load_ohm`; returns the
    /// actually delivered current after gain error, residual
    /// nonlinearity and supply-compliance clipping.
    [[nodiscard]] double drive(double i_command_a, double r_load_ohm) const;

    /// Maximum current deliverable into the given load [A].
    [[nodiscard]] double compliance_limit(double r_load_ohm) const;

    /// Largest load resistance that still passes `i_peak` undistorted —
    /// reproduces the paper's 800 ohm claim at 6 mA from 5 V.
    [[nodiscard]] double max_drivable_resistance(double i_peak_a) const;

    [[nodiscard]] const ViConverterConfig& config() const noexcept { return config_; }

private:
    ViConverterConfig config_;
};

}  // namespace fxg::analog
