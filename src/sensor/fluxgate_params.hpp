#pragma once

/// \file fluxgate_params.hpp
/// Physical parameter sets for the micro-machined fluxgate sensing
/// element (paper section 2.1.2: permalloy core sandwiched between two
/// metal layers, excitation coil + pickup coil).
///
/// Two presets reproduce the paper's narrative:
///  * measured_kaw95() — the real fabricated sensor [Kaw95] the authors
///    characterised: it "reached saturation at 15 times the magnitude of
///    the earth's magnetic field (HK = 1 Oe)" and its winding resistance
///    (77 ohm) "proved to be too high for low power applications".
///  * design_target() — the ELDO model with "HK adapted to obtain a
///    saturation level suitable for our application", i.e. the knee
///    sized so the 12 mA pp excitation drives the core to twice the
///    saturation field (the paper's best-sensitivity point).

#include <memory>
#include <string>

#include "magnetics/core_model.hpp"

namespace fxg::sensor {

/// Geometry and material parameters of one fluxgate element.
struct FluxgateParams {
    std::string label;

    // Windings.
    double n_excitation = 40.0;      ///< excitation coil turns
    double n_pickup = 150.0;         ///< pickup coil turns
    double r_excitation_ohm = 77.0;  ///< excitation winding resistance
    double r_pickup_ohm = 120.0;     ///< pickup winding resistance

    // Core (electroplated permalloy film).
    double core_area_m2 = 1.0e-8;    ///< magnetic cross-section
    double core_length_m = 3.0e-3;   ///< magnetic path length
    double ms_a_per_m = 8.0e5;       ///< saturation magnetisation
    double hk_a_per_m = 40.0;        ///< knee (saturation threshold) field

    // Temperature dependence of the core material around t_ref_c:
    //   Ms(T) = Ms (1 + ms_temp_coeff_per_c (T - Tref)), likewise Hk.
    // Defaults are exactly zero — temperature-free, bit-identical to the
    // historic model. Permalloy-like films sit around -1e-4..-1e-3 /degC
    // on Ms; an asymmetry between the x and y sensors (via
    // FrontEndConfig::sensor_mismatch analogues or hand-tuned params) is
    // what turns drift into a heading error the calibration layer's
    // TempCompensation polynomial corrects.
    double ms_temp_coeff_per_c = 0.0;  ///< relative Ms drift [1/degC]
    double hk_temp_coeff_per_c = 0.0;  ///< relative Hk drift [1/degC]
    double t_ref_c = 25.0;             ///< reference temperature [degC]

    // Sensitivity (scale-factor) drift: thermal expansion of the
    // micro-machined coil geometry changes the field produced per
    // ampere, so the excitation amplitude in field units — the
    // denominator of the pulse-position transfer law D = 1/2 + H/(2Ha)
    // — drifts with temperature:
    //   fpa(T) = field_per_amp() (1 + sens_temp_coeff_per_c (T - Tref)).
    // Unlike Ms/Hk drift (which the pulse-position readout largely
    // rejects by construction), a *mismatch* of this coefficient
    // between the x and y sensors bends the heading directly; the
    // calibration layer's TempCompensation polynomial corrects it.
    double sens_temp_coeff_per_c = 0.0;  ///< relative sensitivity drift [1/degC]

    /// Field produced per ampere of excitation current [A/m per A].
    [[nodiscard]] double field_per_amp() const noexcept {
        return n_excitation / core_length_m;
    }

    /// Excitation current needed to reach `ratio` x the knee field [A].
    [[nodiscard]] double current_for_field_ratio(double ratio) const noexcept {
        return ratio * hk_a_per_m / field_per_amp();
    }

    /// Unsaturated small-signal inductance of the excitation coil [H].
    [[nodiscard]] double unsaturated_inductance() const noexcept;

    /// The fabricated sensor of [Kaw95] as measured by the authors.
    static FluxgateParams measured_kaw95();

    /// The adapted design-target model used for the compass system.
    static FluxgateParams design_target();
};

/// Selects which magnetisation model a sensor is built with (the
/// model-sensitivity ablation of experiment ABL4).
enum class CoreKind {
    Tanh,           ///< anhysteretic tanh (the default workhorse)
    Langevin,       ///< anhysteretic Langevin (softer knee)
    JilesAtherton,  ///< full hysteresis
};

/// Builds a core model for the given parameters. Langevin/JA shape
/// parameters are derived so the knee field matches params.hk_a_per_m;
/// every kind drifts Ms and its knee with the Ms/Hk temperature
/// coefficients.
std::unique_ptr<magnetics::CoreModel> make_core(const FluxgateParams& params,
                                                CoreKind kind);

/// The paper's excitation stimulus: triangular current, 12 mA peak to
/// peak (i.e. +-6 mA) at 8 kHz (section 3.1).
struct ExcitationSpec {
    double amplitude_a = 6.0e-3;  ///< peak amplitude (half of peak-to-peak)
    double frequency_hz = 8.0e3;

    [[nodiscard]] double period_s() const noexcept { return 1.0 / frequency_hz; }
};

}  // namespace fxg::sensor
