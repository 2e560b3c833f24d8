#include "sensor/fluxgate_params.hpp"

#include "magnetics/units.hpp"

namespace fxg::sensor {

double FluxgateParams::unsaturated_inductance() const noexcept {
    // L = N^2 mu0 (1 + chi) A / l with chi ~ Ms/Hk >> 1 near H = 0.
    const double chi = ms_a_per_m / hk_a_per_m;
    return n_excitation * n_excitation * magnetics::kMu0 * (1.0 + chi) * core_area_m2 /
           core_length_m;
}

std::unique_ptr<magnetics::CoreModel> make_core(const FluxgateParams& params,
                                                CoreKind kind) {
    switch (kind) {
        case CoreKind::Tanh:
            return std::make_unique<magnetics::TanhCore>(
                params.ms_a_per_m, params.hk_a_per_m, params.ms_temp_coeff_per_c,
                params.hk_temp_coeff_per_c, params.t_ref_c);
        case CoreKind::Langevin:
            // Langevin knee sits near 3a, so a drifts with Hk.
            return std::make_unique<magnetics::LangevinCore>(
                params.ms_a_per_m, params.hk_a_per_m / 3.0, params.ms_temp_coeff_per_c,
                params.hk_temp_coeff_per_c, params.t_ref_c);
        case CoreKind::JilesAtherton: {
            magnetics::JilesAthertonParams jp;
            jp.ms = params.ms_a_per_m;
            jp.a = params.hk_a_per_m / 3.0;
            jp.k = 4.0;  // mild pinning, permalloy-like
            jp.c = 0.3;
            return std::make_unique<magnetics::JilesAthertonCore>(
                jp, params.ms_temp_coeff_per_c, params.hk_temp_coeff_per_c,
                params.t_ref_c);
        }
    }
    return nullptr;
}

FluxgateParams FluxgateParams::measured_kaw95() {
    FluxgateParams p;
    p.label = "measured [Kaw95]";
    // HK = 1 Oe ~ 79.6 A/m: saturation at ~15x the earth-field magnitude
    // the authors assumed; too hard a core for +-6 mA to reach 2x HK
    // through 40 turns / 3 mm, hence 80 excitation turns on the real part.
    p.hk_a_per_m = magnetics::oersted_to_a_per_m(1.0);
    p.n_excitation = 80.0;
    p.r_excitation_ohm = 77.0;
    return p;
}

FluxgateParams FluxgateParams::design_target() {
    FluxgateParams p;
    p.label = "design target (adapted HK)";
    // Knee adapted so +-6 mA through 40 turns / 3 mm (H = 80 A/m peak)
    // is exactly twice the saturation field — the paper's stated
    // best-sensitivity operating point.
    p.hk_a_per_m = 40.0;
    p.n_excitation = 40.0;
    p.r_excitation_ohm = 77.0;
    return p;
}

}  // namespace fxg::sensor
