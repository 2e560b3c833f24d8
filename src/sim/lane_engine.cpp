#include "sim/lane_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "magnetics/core_model.hpp"
#include "magnetics/field_source.hpp"
#include "magnetics/units.hpp"
#include "sensor/fluxgate.hpp"
#include "util/simd.hpp"

namespace fxg::sim {

namespace v = util::simd;

namespace {

constexpr int W = v::kLanes;
/// Widest group advance() forms: two stripes.
constexpr int kMaxGroup = 2 * W;
// det_bits_/valid_bits_ pack one bit per group lane into a byte.
static_assert(kMaxGroup <= 8);
/// Sample-loop tile length: the kernels' per-tile buffers stay in L1.
constexpr int T = 64;

/// Builds a per-lane mask from a 0.0/1.0 array.
inline v::mask mask_from01(const double* b01) {
    return v::cmp_gt(v::load(b01), v::splat(0.5));
}

inline bool bit_of(unsigned bits, int lane) { return ((bits >> lane) & 1u) != 0; }

}  // namespace

/// One group's per-lane constants and evolving state, gathered from the
/// members, advanced in place by a kernel form and scattered back. Pad
/// lanes (l in [n, width)) replicate lane 0's numbers with every
/// member-touching flag off.
struct LaneEngine::Group {
    int n = 0;      ///< member lanes
    int width = 0;  ///< lanes the kernel computes (n plus pad lanes)

    analog::FrontEnd* fe[kMaxGroup];
    digital::UpDownCounter* ctr[kMaxGroup];
    magnetics::CoreModel* core[kMaxGroup];
    analog::NoiseSource* noise_src[kMaxGroup];
    const magnetics::FieldSource* src[kMaxGroup];
    std::uint64_t lidx0[kMaxGroup];
    analog::Channel active_ch[kMaxGroup];
    bool lane_tap[kMaxGroup];
    bool lane_hw[kMaxGroup];
    bool lane_noise[kMaxGroup];
    bool lane_first[kMaxGroup];
    bool lane_soa_count[kMaxGroup];
    bool lane_dyn[kMaxGroup];   ///< field source varies within this advance
    bool lane_tdyn[kMaxGroup];  ///< lane_dyn and the sensors are temp-sensitive

    alignas(32) double freq[kMaxGroup], gain[kMaxGroup], curv[kMaxGroup],
        dc[kMaxGroup], cgain[kMaxGroup], correct01[kMaxGroup];
    alignas(32) double vig[kMaxGroup], fs[kMaxGroup], linfs[kMaxGroup],
        lim[kMaxGroup], neglim[kMaxGroup];
    alignas(32) double fpa[kMaxGroup], hext[kMaxGroup], hk[kMaxGroup],
        ms[kMaxGroup], nap[kMaxGroup], nae[kMaxGroup];
    double r_exc[kMaxGroup];
    alignas(32) double settle[kMaxGroup], off[kMaxGroup], fall[kMaxGroup],
        rise[kMaxGroup];
    alignas(32) double bias[kMaxGroup], supply[kMaxGroup];
    alignas(32) double inc[kMaxGroup], count01[kMaxGroup], first01[kMaxGroup];
    double nalpha[kMaxGroup], ndrive[kMaxGroup], nst[kMaxGroup];

    // Evolving state: the gather's values in, the kernel's final values
    // out.
    alignas(32) double time[kMaxGroup], phase[kMaxGroup], corr[kMaxGroup],
        pint[kMaxGroup], ptime[kMaxGroup];
    alignas(32) double since[kMaxGroup], lp[kMaxGroup], le[kMaxGroup],
        acc[kMaxGroup], e[kMaxGroup];
    alignas(32) double pos01[kMaxGroup], neg01[kMaxGroup], prevpos01[kMaxGroup],
        prevneg01[kMaxGroup], out01[kMaxGroup], statprev01[kMaxGroup],
        hasprev01[kMaxGroup];
    alignas(32) std::int64_t cnt[kMaxGroup], act[kMaxGroup];

    // Kernel outputs only: last-sample values and window statistics.
    alignas(32) double o[kMaxGroup], idrv[kMaxGroup], hfin[kMaxGroup],
        bfin[kMaxGroup], vp[kMaxGroup], leold[kMaxGroup];
    alignas(32) std::int64_t vs[kMaxGroup], hs[kMaxGroup], edges[kMaxGroup];
    unsigned pos_b = 0, neg_b = 0, prevpos_b = 0, prevneg_b = 0, out_b = 0,
             statprev_b = 0, hasprev_b = 0;

    bool generic = false;  ///< some lane has a non-tanh core
    bool noise = false;    ///< some lane draws pickup noise
    bool capture = false;  ///< some lane needs its emitted streams
    bool dyn = false;      ///< some lane's field varies
    bool tdyn = false;     ///< ... with temperature-sensitive sensors
};

bool LaneEngine::eligible(const analog::FrontEnd& front_end) noexcept {
    const analog::FrontEndConfig& c = front_end.config();
    // Simultaneous mode duplicates the whole chain (two oscillators,
    // per-sample interleaved noise draws) — per-member engines handle
    // it. A noisy detector holds two private RNG streams per channel
    // inside the comparators, which the State seam deliberately cannot
    // carry.
    return c.mode == analog::FrontEndMode::Multiplexed &&
           c.detector.noise_rms_v == 0.0;
}

int LaneEngine::lanes_per_stripe() noexcept { return v::kLanes; }

const char* LaneEngine::backend_name() noexcept { return v::backend_name(); }

std::size_t LaneEngine::capture_capacity() const noexcept {
    return det_bits_.capacity() + valid_bits_.capacity() + bytes_.capacity();
}

void LaneEngine::advance(const LanePort* lanes, int n_lanes, analog::Channel channel,
                         int steps, double dt_s) {
    // A zero-step advance performs no member work at all on the scalar
    // path (no samples, no tap call, no index motion) — mirror that.
    if (n_lanes <= 0 || steps <= 0) return;
    for (int base = 0; base < n_lanes;) {
        const int rem = n_lanes - base;
        // Pair stripes whenever more than one stripe of lanes remains:
        // the interleaved kernel overlaps their dependency chains. A
        // trailing partial stripe rides along as pad lanes; a lone
        // member takes the time form instead.
        const int take = rem > W ? std::min(2 * W, rem) : rem;
        Group grp;
        const bool single = take == 1;
        gather(lanes + base, take, single ? 1 : (take > W ? 2 * W : W), channel,
               steps, dt_s, grp);
        if (single) {
            advance_time_form(grp, steps, dt_s);
        } else if (take > W) {
            advance_stripes<2>(grp, steps, dt_s);
        } else {
            advance_stripes<1>(grp, steps, dt_s);
        }
        scatter(lanes + base, grp, channel, steps, dt_s, /*bytes_ready=*/single);
        base += take;
    }
}

void LaneEngine::gather(const LanePort* lanes, int n, int width,
                        analog::Channel channel, int steps, double dt_s,
                        Group& grp) {
    using analog::Channel;
    grp.n = n;
    grp.width = width;

    // ---- Per-lane constants and evolving state ------------------------
    //
    // Every constant below is computed with exactly the expression the
    // corresponding stage's scalar step() evaluates per sample, so the
    // per-lane arithmetic in the kernels is bit-identical to the
    // per-member path.
    // Pad lanes replicate lane 0's values with all member-touching flags
    // off: the vector ops are lane-independent, so pad lanes are inert
    // ballast whose results are never scattered.

    for (int l = 0; l < width; ++l) {
        if (l >= n) {
            grp.fe[l] = nullptr;
            grp.ctr[l] = nullptr;
            grp.core[l] = nullptr;
            grp.noise_src[l] = nullptr;
            grp.src[l] = nullptr;
            grp.lidx0[l] = 0;
            grp.active_ch[l] = grp.active_ch[0];
            grp.lane_tap[l] = grp.lane_hw[l] = grp.lane_noise[l] = false;
            grp.lane_first[l] = grp.lane_soa_count[l] = false;
            grp.lane_dyn[l] = grp.lane_tdyn[l] = false;
            for (double* a : {grp.freq, grp.gain, grp.curv, grp.dc, grp.cgain,
                              grp.correct01, grp.vig, grp.fs, grp.linfs, grp.lim,
                              grp.neglim, grp.fpa, grp.hext, grp.hk, grp.ms, grp.nap,
                              grp.nae, grp.r_exc, grp.settle, grp.off, grp.fall,
                              grp.rise, grp.bias, grp.supply, grp.inc, grp.first01,
                              grp.time, grp.phase, grp.corr, grp.pint, grp.ptime,
                              grp.since, grp.lp, grp.le, grp.acc, grp.e, grp.pos01,
                              grp.neg01, grp.prevpos01, grp.prevneg01, grp.out01,
                              grp.statprev01, grp.hasprev01}) {
                a[l] = a[0];
            }
            grp.count01[l] = 0.0;
            grp.nalpha[l] = grp.ndrive[l] = grp.nst[l] = 0.0;
            grp.cnt[l] = 0;
            grp.act[l] = 0;
            continue;
        }

        analog::FrontEnd& f = *lanes[l].front_end;
        grp.fe[l] = &f;
        grp.ctr[l] = lanes[l].counter;
        const analog::FrontEndConfig& c = f.config();
        const Channel ach = f.selected();
        grp.active_ch[l] = ach;

        // Oscillator (the constants of TriangleOscillator::step).
        const analog::TriangleOscillator& osc = f.oscillator();
        const analog::TriangleOscillatorConfig& oc = osc.config();
        const analog::OscillatorFault& ofault = osc.fault();
        grp.freq[l] = oc.frequency_hz * ofault.frequency_scale;
        grp.gain[l] = oc.amplitude_a * (1.0 + oc.amplitude_error) *
                      ofault.amplitude_scale;
        grp.curv[l] = oc.curvature;
        grp.dc[l] = oc.dc_offset_a + ofault.extra_dc_a;
        grp.correct01[l] =
            (oc.offset_correction && !ofault.correction_stuck) ? 1.0 : 0.0;
        grp.cgain[l] = oc.correction_gain;
        const analog::TriangleOscillator::State os = osc.save_state();
        grp.time[l] = os.time_s;
        grp.phase[l] = os.phase;
        grp.corr[l] = os.correction_a;
        grp.pint[l] = os.period_integral;
        grp.ptime[l] = os.period_time;

        // V-I converter (ViConverter::drive and compliance_limit; the
        // converter is pure configuration, reconstructed here).
        const analog::ViConverterConfig& vc = c.vi;
        const double r_load = c.sensor.r_excitation_ohm;
        const double lin = vc.nonlinearity / (1.0 + r_load / vc.linearising_r_ohm);
        double swing = vc.supply_v - 2.0 * vc.headroom_v;
        if (!vc.balanced_differential) swing *= 0.5;
        const double limit = swing / r_load;
        grp.vig[l] = 1.0 + vc.gain_error;
        grp.fs[l] = vc.full_scale_a;
        grp.linfs[l] = lin * vc.full_scale_a;
        grp.lim[l] = limit;
        grp.neglim[l] = -limit;

        // Time-varying environment: resolve the lane's field source at
        // its entry sample index and apply that tick now, so every
        // field/temperature-derived value gathered below is exactly
        // what the scalar step() would see on the first sample. A
        // constant source reports kForever and takes no further part
        // in the kernel.
        grp.src[l] = f.field_source();
        grp.lidx0[l] = 0;
        grp.lane_dyn[l] = grp.lane_tdyn[l] = false;
        if (grp.src[l] != nullptr) {
            grp.lidx0[l] = f.save_window_state().sample_index;
            magnetics::FieldTick tick;
            const std::uint64_t end = grp.src[l]->constant_until(grp.lidx0[l], &tick);
            f.apply_field_tick(tick);
            grp.lane_dyn[l] =
                end < grp.lidx0[l] + static_cast<std::uint64_t>(steps);
            if (grp.lane_dyn[l]) {
                grp.dyn = true;
                if (f.sensor(ach).temperature_sensitive()) {
                    grp.lane_tdyn[l] = true;
                    grp.tdyn = true;
                }
            }
        }

        // Active sensor (FluxgateSensor::step's products). The stuck
        // mux makes the active channel a per-lane property.
        sensor::FluxgateSensor& sen = f.sensor_mut(ach);
        const sensor::FluxgateParams& sp = sen.params();
        grp.fpa[l] = sen.effective_field_per_amp();
        grp.hext[l] = sen.external_field();
        grp.nap[l] = sp.n_pickup * sp.core_area_m2;
        grp.nae[l] = sp.n_excitation * sp.core_area_m2;
        grp.r_exc[l] = sp.r_excitation_ohm;
        grp.core[l] = &sen.core_mut();
        grp.hk[l] = grp.core[l]->knee_field();
        grp.ms[l] = grp.core[l]->saturation_magnetisation();
        if (dynamic_cast<const magnetics::TanhCore*>(grp.core[l]) == nullptr) {
            grp.generic = true;
        }
        const sensor::FluxgateSensor::State ss = sen.save_state();
        grp.lp[l] = ss.lambda_pickup_prev;
        grp.le[l] = ss.lambda_exc_prev;
        grp.lane_first[l] = ss.first_step;
        grp.first01[l] = ss.first_step ? 1.0 : 0.0;

        // Mux.
        grp.settle[l] = f.mux().settle_time_s();
        grp.since[l] = f.mux().save_state().since_switch_s;

        // Active detector (Comparator::step's offset and thresholds).
        analog::PulsePositionDetector& det = f.detector(ach);
        const analog::DetectorConfig& dcf = det.config();
        const double half_hyst = 0.5 * dcf.comparator_hysteresis_v;
        grp.off[l] = dcf.comparator_offset_v + det.comparator_offset_fault();
        grp.fall[l] = dcf.threshold_v - half_hyst;
        grp.rise[l] = dcf.threshold_v + half_hyst;
        const analog::PulsePositionDetector::State ds = det.save_state();
        grp.pos01[l] = ds.positive ? 1.0 : 0.0;
        grp.neg01[l] = ds.negative ? 1.0 : 0.0;
        grp.prevpos01[l] = ds.prev_pos ? 1.0 : 0.0;
        grp.prevneg01[l] = ds.prev_neg ? 1.0 : 0.0;
        grp.out01[l] = ds.out ? 1.0 : 0.0;

        // Power model (FrontEnd::momentary_power_w; multiplexed =>
        // oscillator_count() == instances == 1).
        grp.bias[l] = c.osc_bias_a * f.oscillator_count() +
                      (c.vi_bias_a + c.det_bias_a) * 1;
        grp.supply[l] = c.supply_v;

        // Band-limited pickup noise (FrontEnd::noise_sample's constants);
        // draws stay on the member's own source so the lane reproduces
        // exactly the RNG stream its scalar run would consume.
        grp.lane_noise[l] = c.pickup_noise_rms_v != 0.0;
        grp.noise_src[l] = &f.pickup_noise();
        if (grp.lane_noise[l]) {
            const double alpha = std::clamp(
                1.0 - std::exp(-2.0 * std::numbers::pi *
                               c.pickup_noise_bandwidth_hz * dt_s),
                1e-9, 1.0);
            grp.nalpha[l] = alpha;
            grp.ndrive[l] = c.pickup_noise_rms_v * std::sqrt((2.0 - alpha) / alpha);
            grp.nst[l] = f.noise_filter_state();
            grp.noise = true;
        } else {
            grp.nalpha[l] = grp.ndrive[l] = grp.nst[l] = 0.0;
        }

        // Stream-window statistics of the active channel.
        const analog::FrontEnd::StreamWindowState ws = f.save_window_state();
        const auto ai = static_cast<std::size_t>(ach);
        grp.statprev01[l] = ws.prev[ai] ? 1.0 : 0.0;
        grp.hasprev01[l] = ws.has_prev[ai] ? 1.0 : 0.0;

        // Counter: ideal counters fold in the kernel; lanes with a tap
        // or an engaged hardware register delegate to the member object
        // over the captured byte streams (wrap/stuck/trap logic and the
        // tap contract both live there).
        digital::UpDownCounter* ctr = grp.ctr[l];
        grp.lane_tap[l] = f.sample_tap() != nullptr;
        grp.lane_hw[l] = ctr != nullptr && ctr->hardware_engaged();
        grp.lane_soa_count[l] = ctr != nullptr && !grp.lane_tap[l] &&
                                !grp.lane_hw[l] && ctr->enabled() && ach == channel;
        grp.count01[l] = grp.lane_soa_count[l] ? 1.0 : 0.0;
        grp.inc[l] = ctr != nullptr ? dt_s * ctr->clock_hz() : 0.0;
        if (grp.lane_soa_count[l]) {
            const digital::UpDownCounter::State cs = ctr->save_state();
            grp.acc[l] = cs.tick_accumulator;
            grp.cnt[l] = cs.count;
            grp.act[l] = static_cast<std::int64_t>(cs.active_ticks);
        } else {
            grp.acc[l] = 0.0;
            grp.cnt[l] = 0;
            grp.act[l] = 0;
        }

        grp.e[l] = *lanes[l].energy_j;

        if (grp.lane_tap[l] || (grp.lane_hw[l] && ach == channel)) grp.capture = true;
    }

    // ---- Time-varying environment streams ------------------------------
    //
    // Only when some lane's field actually changes inside this advance:
    // per-sample interleaved buffers [sample * width + lane] carry the
    // active-axis field (and, for temperature-sensitive sensors, the
    // Ms/Hk/sensitivity values the scalar set_temperature() would
    // install) for Pass B; per-lane contiguous buffers carry the
    // idle-axis field and temperature for the scatter-time
    // step_block_env replay. Each value is computed with exactly the
    // member-path expression (TanhCore::ms_at/hk_at,
    // FluxgateSensor::fpa_scale_at), so the lanes stay bit-identical.
    // With width 1 the interleaved buffers are plain per-sample streams.
    if (!grp.dyn) return;
    const auto ns = static_cast<std::size_t>(steps);
    const auto gw = static_cast<std::size_t>(width);
    // The time form reads whole vectors of samples; one vector of
    // padding past the last sample keeps its final partial load inside
    // the buffer (those lanes are computed and never used).
    const std::size_t pad = width == 1 ? W : 0;
    env_h_.resize(ns * gw + pad);
    idle_h_.resize(ns * gw);
    idle_t_.resize(ns * gw);
    if (grp.tdyn) {
        env_ms_.resize(ns * gw + pad);
        env_hk_.resize(ns * gw + pad);
        env_fpa_.resize(ns * gw + pad);
    }
    // Seed every column with the gather constants (pad lanes
    // replicated lane 0's), then overwrite the varying lanes.
    for (std::size_t k = 0; k < ns; ++k) {
        for (std::size_t l = 0; l < gw; ++l) env_h_[k * gw + l] = grp.hext[l];
        if (grp.tdyn) {
            for (std::size_t l = 0; l < gw; ++l) {
                env_ms_[k * gw + l] = grp.ms[l];
                env_hk_[k * gw + l] = grp.hk[l];
                env_fpa_[k * gw + l] = grp.fpa[l];
            }
        }
    }
    for (int l = 0; l < n; ++l) {
        if (!grp.lane_dyn[l]) continue;
        const auto ul = static_cast<std::size_t>(l);
        const sensor::FluxgateSensor& sen = grp.fe[l]->sensor(grp.active_ch[l]);
        const auto* tc = dynamic_cast<const magnetics::TanhCore*>(grp.core[l]);
        const double fpa0 = sen.params().field_per_amp();
        int k = 0;
        while (k < steps) {
            magnetics::FieldTick tick;
            const std::uint64_t begin = grp.lidx0[l] + static_cast<std::uint64_t>(k);
            const std::uint64_t end = grp.src[l]->constant_until(begin, &tick);
            const std::uint64_t span = end > begin ? end - begin : 1;
            const int run = static_cast<int>(
                std::min(span, static_cast<std::uint64_t>(steps - k)));
            const bool x_active = grp.active_ch[l] == Channel::X;
            const double hact = x_active ? tick.hx_a_per_m : tick.hy_a_per_m;
            const double hidl = x_active ? tick.hy_a_per_m : tick.hx_a_per_m;
            double msv = grp.ms[l];
            double hkv = grp.hk[l];
            double fpav = grp.fpa[l];
            if (grp.lane_tdyn[l]) {
                if (tc != nullptr) {
                    msv = tc->ms_at(tick.temp_c);
                    hkv = tc->hk_at(tick.temp_c);
                }
                fpav = fpa0 * sen.fpa_scale_at(tick.temp_c);
            }
            for (int j = k; j < k + run; ++j) {
                const auto uj = static_cast<std::size_t>(j);
                env_h_[uj * gw + ul] = hact;
                idle_h_[ul * ns + uj] = hidl;
                idle_t_[ul * ns + uj] = tick.temp_c;
                if (grp.tdyn) {
                    env_ms_[uj * gw + ul] = msv;
                    env_hk_[uj * gw + ul] = hkv;
                    env_fpa_[uj * gw + ul] = fpav;
                }
            }
            k += run;
        }
    }
    if (width == 1) {
        // The time form reads every sample directly; no tile flags.
        for (std::size_t k = ns; k < ns + pad; ++k) {
            env_h_[k] = env_h_[ns - 1];
            if (grp.tdyn) {
                env_ms_[k] = env_ms_[ns - 1];
                env_hk_[k] = env_hk_[ns - 1];
                env_fpa_[k] = env_fpa_[ns - 1];
            }
        }
        return;
    }
    // Classify each tile for the stripe kernel: 0 = every varying lane
    // holds the value already loaded in the stripe vectors (skip — the
    // common case between scenario events), 1 = constant inside the
    // tile but changed at its boundary (one reload), 2 = changes inside
    // the tile (per-sample reloads).
    const int ntiles = (steps + T - 1) / T;
    tile_env_.assign(static_cast<std::size_t>(ntiles), 0);
    const auto env_differs = [&](int l, std::size_t i, std::size_t j) {
        const auto ul = static_cast<std::size_t>(l);
        if (env_h_[i * gw + ul] != env_h_[j * gw + ul]) return true;
        if (!grp.tdyn || !grp.lane_tdyn[l]) return false;
        return env_ms_[i * gw + ul] != env_ms_[j * gw + ul] ||
               env_hk_[i * gw + ul] != env_hk_[j * gw + ul] ||
               env_fpa_[i * gw + ul] != env_fpa_[j * gw + ul];
    };
    for (int ti = 0; ti < ntiles; ++ti) {
        const auto a = static_cast<std::size_t>(ti) * T;
        const auto b = std::min(a + T, ns);
        std::uint8_t flag = 0;
        for (int l = 0; l < n && flag < 2; ++l) {
            if (!grp.lane_dyn[l]) continue;
            if (a > 0 && env_differs(l, a, a - 1)) flag = 1;
            for (std::size_t k = a + 1; k < b; ++k) {
                if (env_differs(l, k, a)) {
                    flag = 2;
                    break;
                }
            }
        }
        tile_env_[static_cast<std::size_t>(ti)] = flag;
    }
}

template <int S>
void LaneEngine::advance_stripes(Group& grp, int steps, double dt_s) {
    constexpr int GW = S * W;  // lanes in the group
    const int n = grp.n;
    if (grp.capture) {
        det_bits_.resize(static_cast<std::size_t>(steps));
        valid_bits_.resize(static_cast<std::size_t>(steps));
    }

    // ---- Vector kernel: all lanes, one sample per iteration -----------
    //
    // Every statement runs across the group's S stripes (tiny inner
    // loops the compiler unrolls completely) before the next, so the
    // S per-stripe dependency spines sit interleaved in the
    // instruction stream and execute concurrently.

    const v::dvec dt_v = v::splat(dt_s);
    const v::dvec zero_v = v::splat(0.0);
    const v::dvec one_v = v::splat(1.0);
    const v::dvec two_v = v::splat(2.0);
    const v::dvec four_v = v::splat(4.0);
    const v::dvec neg4_v = v::splat(-4.0);
    const v::dvec quarter_v = v::splat(0.25);
    const v::dvec threeq_v = v::splat(0.75);
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec mu0_v = v::splat(magnetics::kMu0);
    const v::ivec izero_v = v::i_splat(0);

    v::dvec freq_v[S], gain_v[S], curv_v[S], dc_v[S], cgain_v[S];
    v::mask correct_m[S];
    v::dvec vig_v[S], fs_v[S], linfs_v[S], lim_v[S], neglim_v[S];
    v::dvec fpa_v[S], hext_v[S], hk_v[S], ms_v[S], nap_v[S], nae_v[S];
    v::dvec settle_v[S], off_v[S], fall_v[S], rise_v[S];
    v::dvec bias_v[S], supply_v[S], inc_v[S];
    v::mask count_m[S];

    v::dvec time_v[S], phase_v[S], corr_v[S], pint_v[S], ptime_v[S];
    v::dvec since_v[S], lpprev_v[S], leprev_v[S], leold_v[S];
    v::mask first_m[S], pos_m[S], neg_m[S], prevpos_m[S], prevneg_m[S];
    v::mask out_m[S], statprev_m[S], hasprev_m[S];
    v::dvec acc_v[S], e_v[S];
    v::ivec cnt_v[S], act_v[S], vs_v[S], hs_v[S], edges_v[S];
    // Loop-carried last-sample values needed at scatter.
    v::dvec o_v[S], idrv_v[S], h_v[S], b_v[S], vpick_v[S];

    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        const int g = s * W;
        freq_v[s] = v::load(grp.freq + g);
        gain_v[s] = v::load(grp.gain + g);
        curv_v[s] = v::load(grp.curv + g);
        dc_v[s] = v::load(grp.dc + g);
        cgain_v[s] = v::load(grp.cgain + g);
        correct_m[s] = mask_from01(grp.correct01 + g);
        vig_v[s] = v::load(grp.vig + g);
        fs_v[s] = v::load(grp.fs + g);
        linfs_v[s] = v::load(grp.linfs + g);
        lim_v[s] = v::load(grp.lim + g);
        neglim_v[s] = v::load(grp.neglim + g);
        fpa_v[s] = v::load(grp.fpa + g);
        hext_v[s] = v::load(grp.hext + g);
        hk_v[s] = v::load(grp.hk + g);
        ms_v[s] = v::load(grp.ms + g);
        nap_v[s] = v::load(grp.nap + g);
        nae_v[s] = v::load(grp.nae + g);
        settle_v[s] = v::load(grp.settle + g);
        off_v[s] = v::load(grp.off + g);
        fall_v[s] = v::load(grp.fall + g);
        rise_v[s] = v::load(grp.rise + g);
        bias_v[s] = v::load(grp.bias + g);
        supply_v[s] = v::load(grp.supply + g);
        inc_v[s] = v::load(grp.inc + g);
        count_m[s] = mask_from01(grp.count01 + g);

        time_v[s] = v::load(grp.time + g);
        phase_v[s] = v::load(grp.phase + g);
        corr_v[s] = v::load(grp.corr + g);
        pint_v[s] = v::load(grp.pint + g);
        ptime_v[s] = v::load(grp.ptime + g);
        since_v[s] = v::load(grp.since + g);
        lpprev_v[s] = v::load(grp.lp + g);
        leprev_v[s] = v::load(grp.le + g);
        leold_v[s] = leprev_v[s];
        first_m[s] = mask_from01(grp.first01 + g);
        pos_m[s] = mask_from01(grp.pos01 + g);
        neg_m[s] = mask_from01(grp.neg01 + g);
        prevpos_m[s] = mask_from01(grp.prevpos01 + g);
        prevneg_m[s] = mask_from01(grp.prevneg01 + g);
        out_m[s] = mask_from01(grp.out01 + g);
        statprev_m[s] = mask_from01(grp.statprev01 + g);
        hasprev_m[s] = mask_from01(grp.hasprev01 + g);
        acc_v[s] = v::load(grp.acc + g);
        cnt_v[s] = v::i_load(grp.cnt + g);
        act_v[s] = v::i_load(grp.act + g);
        vs_v[s] = izero_v;
        hs_v[s] = izero_v;
        edges_v[s] = izero_v;
        e_v[s] = v::load(grp.e + g);
        o_v[s] = zero_v;
        idrv_v[s] = zero_v;
        h_v[s] = zero_v;
        b_v[s] = zero_v;
        vpick_v[s] = zero_v;
    }

    alignas(32) double h_s[GW], m_s[GW], v_s[GW];

    // The sample loop is tiled and split into three passes. One fused
    // per-sample body carries ~30 live vectors per stripe — far beyond
    // the register file — so the compiler spills and reloads most
    // state on every sample. Each pass below keeps only its own
    // stage's state live (inter-pass values ride in small L1-resident
    // tile buffers), and successive samples within a pass are nearly
    // independent, so the out-of-order core overlaps their long
    // divide/exp chains. The per-lane arithmetic and its ordering are
    // untouched: every lane still executes exactly the scalar
    // sequence, sample by sample.
    v::dvec bidrv[S * T];
    v::dvec bvdet[S * T];
    v::mask bsettle[S * T];

    for (int k0 = 0; k0 < steps; k0 += T) {
        const int tn = std::min(T, steps - k0);

        // Pass A: oscillator, V-I converter, mux settling, supply
        // power/energy.
        for (int t = 0; t < tn; ++t) {
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                // Oscillator (TriangleOscillator::step).
                time_v[s] = v::add(time_v[s], dt_v);
                phase_v[s] = v::add(phase_v[s], v::mul(dt_v, freq_v[s]));
                const v::mask wrapped = v::cmp_ge(phase_v[s], one_v);
                // A wrap happens once per excitation period
                // (1/steps_per_period samples); the wrap bookkeeping —
                // including a vector divide — is skipped entirely on
                // the other samples. The blends are identity when
                // `wrapped` is all-false, so the skip is exact.
                const bool any_wrap = v::movemask(wrapped) != 0;
                if (any_wrap) {
                    phase_v[s] = v::blend(
                        wrapped, v::sub(phase_v[s], v::floor(phase_v[s])),
                        phase_v[s]);
                }
                const v::dvec f4p = v::mul(four_v, phase_v[s]);
                const v::mask seg1 = v::cmp_gt(quarter_v, phase_v[s]);
                const v::mask seg2 = v::cmp_gt(threeq_v, phase_v[s]);
                const v::dvec w = v::blend(
                    seg1, f4p,
                    v::blend(seg2, v::sub(two_v, f4p), v::add(neg4_v, f4p)));
                const v::dvec shaped = v::add(
                    w, v::mul(curv_v[s], v::sub(v::mul(v::mul(w, w), w), w)));
                o_v[s] =
                    v::add(v::add(v::mul(gain_v[s], shaped), dc_v[s]), corr_v[s]);
                pint_v[s] = v::add(pint_v[s], v::mul(o_v[s], dt_v));
                ptime_v[s] = v::add(ptime_v[s], dt_v);
                if (any_wrap) {
                    const v::mask upd = v::m_and(
                        wrapped,
                        v::m_and(correct_m[s], v::cmp_gt(ptime_v[s], zero_v)));
                    corr_v[s] = v::blend(
                        upd,
                        v::sub(corr_v[s],
                               v::mul(cgain_v[s], v::div(pint_v[s], ptime_v[s]))),
                        corr_v[s]);
                    pint_v[s] = v::blend(wrapped, zero_v, pint_v[s]);
                    ptime_v[s] = v::blend(wrapped, zero_v, ptime_v[s]);
                }

                // V-I converter (ViConverter::drive).
                const v::dvec u = v::div(o_v[s], fs_v[s]);
                idrv_v[s] = v::add(v::mul(vig_v[s], o_v[s]),
                                   v::mul(v::mul(v::mul(linfs_v[s], u), u), u));
                idrv_v[s] = v::min(v::max(idrv_v[s], neglim_v[s]), lim_v[s]);

                // Mux settling.
                since_v[s] = v::add(since_v[s], dt_v);

                // Supply power and energy (FrontEnd::momentary_power_w;
                // the energy chain continues each member's running
                // sum).
                const v::dvec drive = v::bit_andnot(sign_v, idrv_v[s]);  // fabs
                const v::dvec p = v::mul(v::add(bias_v[s], drive), supply_v[s]);
                e_v[s] = v::add(e_v[s], v::mul(p, dt_v));

                bidrv[s * T + t] = idrv_v[s];
                bsettle[s * T + t] = v::cmp_ge(since_v[s], settle_v[s]);
            }
        }

        // Pass B: fluxgate sensor chain and pickup noise -> the
        // detector's input voltage.
        //
        // Environment reload for this tile (movemask-of-change style:
        // the flag was precomputed at gather, and 0 — the constant-
        // field case and the span between scenario events — costs one
        // predictable branch).
        std::uint8_t envf = 0;
        if (grp.dyn) {
            envf = tile_env_[static_cast<std::size_t>(k0 / T)];
            if (envf != 0) {
                const std::size_t g0 = static_cast<std::size_t>(k0) * GW;
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    hext_v[s] = v::load(env_h_.data() + g0 + s * W);
                    if (grp.tdyn) {
                        ms_v[s] = v::load(env_ms_.data() + g0 + s * W);
                        hk_v[s] = v::load(env_hk_.data() + g0 + s * W);
                        fpa_v[s] = v::load(env_fpa_.data() + g0 + s * W);
                    }
                }
            }
        }
        for (int t = 0; t < tn; ++t) {
            v::dvec vdet_v[S];

            if (envf == 2) {
                const std::size_t gk = static_cast<std::size_t>(k0 + t) * GW;
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    hext_v[s] = v::load(env_h_.data() + gk + s * W);
                    if (grp.tdyn) {
                        ms_v[s] = v::load(env_ms_.data() + gk + s * W);
                        hk_v[s] = v::load(env_hk_.data() + gk + s * W);
                        fpa_v[s] = v::load(env_fpa_.data() + gk + s * W);
                    }
                }
            }

            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                // Active fluxgate sensor (FluxgateSensor::step).
                h_v[s] = v::add(v::mul(fpa_v[s], bidrv[s * T + t]), hext_v[s]);
            }

            if (!grp.generic) {
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    // TanhCore::advance: ms * tanh(h / hk); vtanh is
                    // lane-independent, so each lane equals the
                    // member's call.
                    const v::dvec m_v =
                        v::mul(ms_v[s], v::vtanh(v::div(h_v[s], hk_v[s])));
                    b_v[s] = v::mul(mu0_v, v::add(h_v[s], m_v));
                }
            } else {
                // A non-tanh (hysteretic/Langevin) core in the group:
                // advance every lane's core through exact virtual
                // dispatch, in sample order per lane. This also keeps
                // each core's internal history current, so no
                // scatter-time resync.
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) v::store(h_s + s * W, h_v[s]);
                for (int l = 0; l < n; ++l) {
                    if (grp.lane_tdyn[l]) {
                        // Scalar order: the sensor applies the tick's
                        // temperature to the core before each advance.
                        grp.core[l]->set_temperature(
                            idle_t_[static_cast<std::size_t>(l) *
                                        static_cast<std::size_t>(steps) +
                                    static_cast<std::size_t>(k0 + t)]);
                    }
                    m_s[l] = grp.core[l]->advance(h_s[l]);
                }
                for (int l = n; l < GW; ++l) m_s[l] = 0.0;
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    b_v[s] = v::mul(mu0_v, v::add(h_v[s], v::load(m_s + s * W)));
                }
            }

            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                const v::dvec lp = v::mul(nap_v[s], b_v[s]);
                const v::dvec le = v::mul(nae_v[s], b_v[s]);
                vpick_v[s] = v::div(v::sub(lp, lpprev_v[s]), dt_v);
                vpick_v[s] = v::blend(first_m[s], zero_v, vpick_v[s]);
                leold_v[s] = leprev_v[s];
                lpprev_v[s] = lp;
                leprev_v[s] = le;
                vdet_v[s] = vpick_v[s];
            }

            // Pickup noise: per-lane scalar draws from each member's
            // own source (FrontEnd::noise_sample arithmetic, same
            // order).
            if (grp.noise) {
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) v::store(v_s + s * W, vdet_v[s]);
                for (int l = 0; l < n; ++l) {
                    if (!grp.lane_noise[l]) continue;
                    grp.nst[l] += grp.nalpha[l] * (grp.noise_src[l]->sample() *
                                                       grp.ndrive[l] -
                                                   grp.nst[l]);
                    v_s[l] += grp.nst[l];
                }
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) vdet_v[s] = v::load(v_s + s * W);
            }

            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) bvdet[s * T + t] = vdet_v[s];

            if (k0 == 0 && t == 0) {
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) first_m[s] = v::m_splat(false);
            }
        }

        // Pass C: detector latches, stream statistics, SoA counters,
        // emitted-stream capture.
        for (int t = 0; t < tn; ++t) {
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                const v::dvec vdet = bvdet[s * T + t];
                const v::mask settled = bsettle[s * T + t];

                // Pulse-position detector: two latching comparators
                // (the negative one fed -v, an exact sign flip) plus
                // set/clear edge logic — clear wins when both fire, as
                // in the scalar step.
                const v::dvec vpos = v::sub(vdet, off_v[s]);
                const v::dvec vneg = v::sub(v::bit_xor(vdet, sign_v), off_v[s]);
                const v::mask fall_p = v::cmp_gt(fall_v[s], vpos);
                const v::mask rise_p = v::cmp_gt(vpos, rise_v[s]);
                pos_m[s] = v::m_or(v::m_andnot(fall_p, pos_m[s]),
                                   v::m_andnot(pos_m[s], rise_p));
                const v::mask fall_n = v::cmp_gt(fall_v[s], vneg);
                const v::mask rise_n = v::cmp_gt(vneg, rise_v[s]);
                neg_m[s] = v::m_or(v::m_andnot(fall_n, neg_m[s]),
                                   v::m_andnot(neg_m[s], rise_n));
                const v::mask set_e = v::m_andnot(pos_m[s], prevpos_m[s]);
                const v::mask clr_e = v::m_andnot(neg_m[s], prevneg_m[s]);
                out_m[s] = v::m_andnot(clr_e, v::m_or(out_m[s], set_e));
                prevpos_m[s] = pos_m[s];
                prevneg_m[s] = neg_m[s];

                // Stream statistics of the active channel (valid
                // samples only).
                vs_v[s] = v::i_add(vs_v[s], v::mask01(settled));
                hs_v[s] =
                    v::i_add(hs_v[s], v::mask01(v::m_and(settled, out_m[s])));
                edges_v[s] = v::i_add(
                    edges_v[s],
                    v::mask01(v::m_and(v::m_and(settled, hasprev_m[s]),
                                       v::m_xor(out_m[s], statprev_m[s]))));
                statprev_m[s] = v::m_or(v::m_and(settled, out_m[s]),
                                        v::m_andnot(settled, statprev_m[s]));
                hasprev_m[s] = v::m_or(hasprev_m[s], settled);

                // Ideal up/down counters in SoA
                // (UpDownCounter::step_block): invalid lanes hold acc
                // in [0, 1), so floor() contributes exactly zero ticks
                // there.
                const v::mask cval = v::m_and(settled, count_m[s]);
                acc_v[s] = v::blend(cval, v::add(acc_v[s], inc_v[s]), acc_v[s]);
                const v::dvec whole = v::floor(acc_v[s]);
                acc_v[s] = v::sub(acc_v[s], whole);
                const v::ivec ticks = v::d2i_exact(whole);
                cnt_v[s] = v::i_add(
                    cnt_v[s],
                    v::i_blend(out_m[s], ticks, v::i_sub(izero_v, ticks)));
                act_v[s] = v::i_add(act_v[s], ticks);
            }

            // Emitted streams for tap replay / delegated counters, one
            // bit per group lane (stripe s in bits [s*W, s*W+W)).
            if (grp.capture) {
                unsigned db = 0;
                unsigned vb = 0;
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    db |= v::movemask(out_m[s]) << (s * W);
                    vb |= v::movemask(bsettle[s * T + t]) << (s * W);
                }
                det_bits_[static_cast<std::size_t>(k0 + t)] =
                    static_cast<std::uint8_t>(db);
                valid_bits_[static_cast<std::size_t>(k0 + t)] =
                    static_cast<std::uint8_t>(vb);
            }
        }
    }

    // Final state back into the group for the scatter.
    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        const int g = s * W;
        v::store(grp.time + g, time_v[s]);
        v::store(grp.phase + g, phase_v[s]);
        v::store(grp.corr + g, corr_v[s]);
        v::store(grp.pint + g, pint_v[s]);
        v::store(grp.ptime + g, ptime_v[s]);
        v::store(grp.since + g, since_v[s]);
        v::store(grp.lp + g, lpprev_v[s]);
        v::store(grp.le + g, leprev_v[s]);
        v::store(grp.o + g, o_v[s]);
        v::store(grp.idrv + g, idrv_v[s]);
        v::store(grp.hfin + g, h_v[s]);
        v::store(grp.bfin + g, b_v[s]);
        v::store(grp.vp + g, vpick_v[s]);
        v::store(grp.leold + g, leold_v[s]);
        v::store(grp.acc + g, acc_v[s]);
        v::i_store(grp.cnt + g, cnt_v[s]);
        v::i_store(grp.act + g, act_v[s]);
        v::i_store(grp.vs + g, vs_v[s]);
        v::i_store(grp.hs + g, hs_v[s]);
        v::i_store(grp.edges + g, edges_v[s]);
        v::store(grp.e + g, e_v[s]);
        grp.pos_b |= v::movemask(pos_m[s]) << g;
        grp.neg_b |= v::movemask(neg_m[s]) << g;
        grp.prevpos_b |= v::movemask(prevpos_m[s]) << g;
        grp.prevneg_b |= v::movemask(prevneg_m[s]) << g;
        grp.out_b |= v::movemask(out_m[s]) << g;
        grp.statprev_b |= v::movemask(statprev_m[s]) << g;
        grp.hasprev_b |= v::movemask(hasprev_m[s]) << g;
    }
}

namespace {

/// The time form's sample-order chains: everything that carries a value
/// from one sample to the next.
struct TimeChains {
    // Oscillator, offset-correction loop, mux settling.
    double time, phase, corr, pint, ptime, since;
    // Energy sum and counter accumulator.
    double e, acc;
    std::int64_t cnt, act;
    // Active-channel window statistics.
    std::int64_t vs, hs, edges;
    // Detector latches and statistics edge tracking.
    bool pos, neg, prevpos, prevneg, out, statprev, hasprev;
};

/// How the time form clocks the ideal counter.
enum class Tick {
    None,     ///< no counter folded here (settling, delegated, disabled)
    Compare,  ///< dt * f_clk < 1: at most one tick per sample
    Floor,    ///< dt * f_clk >= 1: UpDownCounter's floor()
};

/// Per-lane constants the scalar chains read.
struct TimeConsts {
    double dt, freq, gain, curv, dc, cgain, settle;
    double off, fall, rise, inc;
    bool correct;
    Tick tick;
};

/// Sample-order facts of one tile, bit t for sample t.
struct TileBits {
    std::uint64_t settled = 0;  ///< mux settled: the sample is valid
    std::uint64_t ticks = 0;    ///< Tick::Compare: the counter ticked
};

/// Pass A's scalar part over one tile: oscillator
/// (TriangleOscillator::step) with its offset-correction loop, mux
/// settling, and the counter accumulator (UpDownCounter::step_block on
/// each valid sample; the accumulator never reads the detector, so its
/// chain runs here beside the others). The energy sum takes the
/// previous tile's power terms, `n_prev` of them, which keeps sample
/// order. Emits each sample's drive command. Kept out of line so the
/// chains stay in registers.
template <Tick kTick>
[[gnu::noinline]] void oscillator_tile(const TimeConsts& k, TimeChains& c, int tn,
                                       const double* pdt_prev, int n_prev, double* ob,
                                       TileBits& bits, std::int64_t* n_ticks) {
    double time = c.time, phase = c.phase, corr = c.corr;
    double pint = c.pint, ptime = c.ptime, since = c.since;
    double e = c.e, acc = c.acc;
    std::uint64_t settled = 0;
    std::uint64_t ticks = 0;
    // Locals, so the stores to ob cannot force reloads.
    const double dt = k.dt, freq = k.freq, curv = k.curv, gain = k.gain, dc = k.dc;
    const double cgain = k.cgain, settle = k.settle, inc = k.inc;
    const bool correct = k.correct;
    const int n_overlap = std::min(tn, n_prev);
    for (int t = 0; t < tn; ++t) {
        if (t < n_overlap) e += pdt_prev[t];
        time += dt;
        phase += dt * freq;
        const bool wrapped = phase >= 1.0;
        if (wrapped) phase -= std::floor(phase);
        const double f4p = 4.0 * phase;
        const double w = 0.25 > phase   ? f4p
                         : 0.75 > phase ? 2.0 - f4p
                                        : -4.0 + f4p;
        const double shaped = w + curv * (w * w * w - w);
        const double o = gain * shaped + dc + corr;
        pint += o * dt;
        ptime += dt;
        if (wrapped) {
            if (correct && ptime > 0.0) corr -= cgain * (pint / ptime);
            pint = 0.0;
            ptime = 0.0;
        }
        since += dt;
        const bool valid = since >= settle;
        settled |= std::uint64_t{valid} << t;
        if constexpr (kTick == Tick::Compare) {
            // With acc in [0, 1) and inc < 1, floor(acc + inc) is 1
            // exactly when acc + inc >= 1, and subtracting 0.0 leaves
            // acc unchanged: only a tick subtracts.
            if (valid) {
                acc += inc;
                if (acc >= 1.0) {
                    acc -= 1.0;
                    ticks |= std::uint64_t{1} << t;
                }
            }
        } else if constexpr (kTick == Tick::Floor) {
            n_ticks[t] = 0;
            if (valid) {
                acc += inc;
                const double whole = std::floor(acc);
                acc -= whole;
                n_ticks[t] = static_cast<std::int64_t>(whole);
            }
        }
        ob[t] = o;
    }
    for (int t = n_overlap; t < n_prev; ++t) e += pdt_prev[t];
    c.time = time;
    c.phase = phase;
    c.corr = corr;
    c.pint = pint;
    c.ptime = ptime;
    c.since = since;
    c.e = e;
    c.acc = acc;
    bits.settled = settled;
    bits.ticks = ticks;
}

/// Mask of bits [0, n) for n in [0, 64].
inline std::uint64_t low_bits(int n) {
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

inline bool bit64(std::uint64_t m, int t) { return ((m >> t) & 1u) != 0; }

/// A set/reset latch over a tile: bit t is the latch after sample t,
/// for set and reset events that never fall on the same sample and the
/// latch value `before` the tile. The latch holds its latest event's
/// value, so each set (and a set `before`, entering as a carry into bit
/// 0) starts a carry that runs up through the following non-reset
/// samples and stops at the next reset.
inline std::uint64_t latch_run(std::uint64_t set, std::uint64_t reset, bool before) {
    const std::uint64_t keep = ~reset;
    return (((keep + set + std::uint64_t{before}) ^ keep) | set) & keep;
}

/// Pass C over one tile (tn <= 64 samples, bit t of each mask = sample
/// t): detector latches, the signed counter ticks, stream statistics
/// and emitted-stream capture. Every chain keeps sample order; the
/// stripe kernel's per-sample mask algebra becomes bit algebra over the
/// tile.
void detector_tile(const TimeConsts& k, TimeChains& c, int tn, const double* vdetb,
                   const TileBits& bits, const std::int64_t* n_ticks,
                   std::uint8_t* det_out, std::uint8_t* val_out) {
    static_assert(T == 64, "one mask bit per tile sample");
    const int tv = (tn + W - 1) / W * W;
    const std::uint64_t tile = low_bits(tn);

    // Comparator conditions, W samples per vector: the same subtract
    // and compares as the stripe kernel (the negative comparator is fed
    // -v, an exact sign flip).
    const v::dvec off_v = v::splat(k.off);
    const v::dvec fall_v = v::splat(k.fall);
    const v::dvec rise_v = v::splat(k.rise);
    const v::dvec sign_v = v::splat(-0.0);
    std::uint64_t fall_p = 0, rise_p = 0, fall_n = 0, rise_n = 0;
    for (int t = 0; t < tv; t += W) {
        const v::dvec vdet = v::load(vdetb + t);
        const v::dvec vpos = v::sub(vdet, off_v);
        const v::dvec vneg = v::sub(v::bit_xor(vdet, sign_v), off_v);
        fall_p |= std::uint64_t{v::movemask(v::cmp_gt(fall_v, vpos))} << t;
        rise_p |= std::uint64_t{v::movemask(v::cmp_gt(vpos, rise_v))} << t;
        fall_n |= std::uint64_t{v::movemask(v::cmp_gt(fall_v, vneg))} << t;
        rise_n |= std::uint64_t{v::movemask(v::cmp_gt(vneg, rise_v))} << t;
    }

    // Latches (PulsePositionDetector::step: the comparators' latches,
    // then the output latch set by a falling positive latch and cleared,
    // with priority, by a falling negative one). Bit t is the state
    // after sample t.
    bool pos = c.pos, neg = c.neg, prevpos = c.prevpos, prevneg = c.prevneg;
    bool out = c.out;
    std::uint64_t outs = 0;
    fall_p &= tile;
    rise_p &= tile;
    fall_n &= tile;
    rise_n &= tile;
    if (((fall_p & rise_p) | (fall_n & rise_n)) == 0) {
        // With the fall threshold at or below the rise threshold no
        // sample sets and resets a comparator at once, and every latch
        // holds the value of its latest event.
        const std::uint64_t p = latch_run(rise_p, fall_p, pos);
        const std::uint64_t n = latch_run(rise_n, fall_n, neg);
        const std::uint64_t set_e = ((p << 1) | prevpos) & ~p;
        const std::uint64_t clr_e = ((n << 1) | prevneg) & ~n;
        outs = latch_run(set_e & ~clr_e, clr_e, out) & tile;
        pos = prevpos = bit64(p, tn - 1);
        neg = prevneg = bit64(n, tn - 1);
        out = bit64(outs, tn - 1);
    } else {
        // Negative hysteresis: a sample past both thresholds toggles
        // the latch, so step sample by sample.
        for (int t = 0; t < tn; ++t) {
            pos = (pos & !bit64(fall_p, t)) | (!pos & bit64(rise_p, t));
            neg = (neg & !bit64(fall_n, t)) | (!neg & bit64(rise_n, t));
            const bool set_e = prevpos & !pos;
            const bool clr_e = prevneg & !neg;
            out = (!clr_e) & (out | set_e);
            prevpos = pos;
            prevneg = neg;
            outs |= std::uint64_t{out} << t;
        }
    }
    c.pos = pos;
    c.neg = neg;
    c.prevpos = prevpos;
    c.prevneg = prevneg;
    c.out = out;

    // Counter register: the ticks counted up while the output was high,
    // down while it was low.
    if (k.tick == Tick::Compare) {
        const int up = std::popcount(bits.ticks & outs);
        const int all = std::popcount(bits.ticks);
        c.cnt += up - (all - up);
        c.act += all;
    } else if (k.tick == Tick::Floor) {
        for (int t = 0; t < tn; ++t) {
            c.cnt += bit64(outs, t) ? n_ticks[t] : -n_ticks[t];
            c.act += n_ticks[t];
        }
    }

    // Statistics of the valid samples, one run of consecutive valid
    // samples at a time: the first compares against the last valid
    // sample before the run, the rest against their predecessor.
    const std::uint64_t settled = bits.settled;
    c.vs += std::popcount(settled);
    c.hs += std::popcount(settled & outs);
    const std::uint64_t changed = outs ^ (outs << 1);  // bit t: out_t != out_{t-1}
    for (std::uint64_t rest = settled; rest != 0;) {
        const int a = std::countr_zero(rest);
        const int b = a + std::countr_one(rest >> a);
        const std::uint64_t run = low_bits(b) & ~low_bits(a + 1);
        c.edges += (c.hasprev & (bit64(outs, a) != c.statprev)) +
                   std::popcount(changed & run);
        c.statprev = bit64(outs, b - 1);
        c.hasprev = true;
        rest &= ~low_bits(b);
    }

    if (det_out != nullptr) {
        for (int t = 0; t < tn; ++t) {
            det_out[t] = bit64(outs, t);
            val_out[t] = bit64(settled, t);
        }
    }
}

}  // namespace

void LaneEngine::advance_time_form(Group& grp, int steps, double dt_s) {
    // One member, so the vector dimension is time instead of members:
    // the per-sample work that no sample-order chain runs through (V-I
    // divide and clamp, supply power, h/Hk, tanh, the pickup divide)
    // goes kLanes consecutive samples per vector through the same
    // util::simd ops the stripe kernel applies per lane, and every
    // chain that carries a value from one sample to the next
    // (oscillator phase and correction loop, mux settling, energy sum,
    // pickup-noise filter and draws, detector latches, stream
    // statistics, counter) runs scalar in sample order over the tile.
    // Each value is therefore produced by the same IEEE operations, in
    // the same order, as the stripe kernel's lane and the scalar
    // reference.
    TimeConsts k{};
    k.dt = dt_s;
    k.freq = grp.freq[0];
    k.gain = grp.gain[0];
    k.curv = grp.curv[0];
    k.dc = grp.dc[0];
    k.cgain = grp.cgain[0];
    k.settle = grp.settle[0];
    k.off = grp.off[0];
    k.fall = grp.fall[0];
    k.rise = grp.rise[0];
    k.inc = grp.inc[0];
    k.correct = grp.correct01[0] != 0.0;
    // With inc < 1, an accumulator in [0, 1) stays below 2 after the
    // add, and there floor(acc) is exactly (acc >= 1 ? 1 : 0): the same
    // value, and acc - floor(acc) the same subtraction (acc - 0.0 is
    // acc itself, so only a tick needs it). A fast counter clock
    // (inc >= 1) keeps floor().
    k.tick = !grp.lane_soa_count[0] ? Tick::None
             : grp.inc[0] < 1.0 && grp.acc[0] >= 0.0 && grp.acc[0] < 1.0
                 ? Tick::Compare
                 : Tick::Floor;

    TimeChains c{};
    c.time = grp.time[0];
    c.phase = grp.phase[0];
    c.corr = grp.corr[0];
    c.pint = grp.pint[0];
    c.ptime = grp.ptime[0];
    c.since = grp.since[0];
    c.e = grp.e[0];
    c.acc = grp.acc[0];
    c.cnt = grp.cnt[0];
    c.act = grp.act[0];
    c.pos = grp.pos01[0] != 0.0;
    c.neg = grp.neg01[0] != 0.0;
    c.prevpos = grp.prevpos01[0] != 0.0;
    c.prevneg = grp.prevneg01[0] != 0.0;
    c.out = grp.out01[0] != 0.0;
    c.statprev = grp.statprev01[0] != 0.0;
    c.hasprev = grp.hasprev01[0] != 0.0;

    analog::NoiseSource* const noise_src = grp.lane_noise[0] ? grp.noise_src[0] : nullptr;
    const double nalpha = grp.nalpha[0], ndrive = grp.ndrive[0];
    double nst = grp.nst[0];
    magnetics::CoreModel* const core = grp.core[0];
    const bool dyn = grp.lane_dyn[0];
    const bool tdyn = grp.lane_tdyn[0];

    // Emitted streams go straight into the byte layout the scatter
    // replays: the active channel's slot for a tap, the x slot for a
    // delegated hardware counter.
    std::uint8_t* det_out = nullptr;
    std::uint8_t* val_out = nullptr;
    if (grp.capture) {
        const auto us = static_cast<std::size_t>(steps);
        bytes_.resize(us * 4);
        const bool y_slot = grp.lane_tap[0] && grp.active_ch[0] == analog::Channel::Y;
        det_out = bytes_.data() + (y_slot ? us : 0);
        val_out = bytes_.data() + 2 * us + (y_slot ? us : 0);
    }

    const v::dvec dt_v = v::splat(dt_s);
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec mu0_v = v::splat(magnetics::kMu0);
    const v::dvec vig_v = v::splat(grp.vig[0]);
    const v::dvec fs_v = v::splat(grp.fs[0]);
    const v::dvec linfs_v = v::splat(grp.linfs[0]);
    const v::dvec lim_v = v::splat(grp.lim[0]);
    const v::dvec neglim_v = v::splat(grp.neglim[0]);
    const v::dvec bias_v = v::splat(grp.bias[0]);
    const v::dvec supply_v = v::splat(grp.supply[0]);
    const v::dvec nap_v = v::splat(grp.nap[0]);
    const v::dvec fpa_c = v::splat(grp.fpa[0]);
    const v::dvec hext_c = v::splat(grp.hext[0]);
    const v::dvec hk_c = v::splat(grp.hk[0]);
    const v::dvec ms_c = v::splat(grp.ms[0]);

    // Tile buffers, padded by one vector so the last (partial) vector
    // of a short tile reads initialised slots; those lanes are computed
    // and never used. lpb[0] carries the previous sample's pickup flux
    // linkage into the tile, so the pickup divide reads lpb + t
    // unaligned.
    alignas(32) double ob[T + W] = {};
    alignas(32) double ib[T + W] = {};
    alignas(32) double pdtb[T + W] = {};
    alignas(32) double hb[T + W] = {};
    alignas(32) double xb[T + W] = {};
    alignas(32) double qb[T + W] = {};
    alignas(32) double bb[T + W] = {};
    alignas(32) double lpb[T + W + 1] = {};
    alignas(32) double vpb[T + W] = {};
    alignas(32) double vnb[T + W] = {};
    std::int64_t n_ticks[T];
    TileBits bits;
    int n_prev = 0;  // power terms in pdtb still to be summed

    lpb[0] = grp.lp[0];
    double b_last = 0.0;
    double b_pen = 0.0;  // the second-to-last sample's induction

    for (int k0 = 0; k0 < steps; k0 += T) {
        const int tn = std::min(T, steps - k0);
        const int tv = (tn + W - 1) / W * W;  // tn rounded up to whole vectors
        const auto kb = static_cast<std::size_t>(k0);

        // Pass A: the oscillator, settling and counter chains (the
        // energy sum folds in the previous tile's power terms) ...
        switch (k.tick) {
            case Tick::None:
                oscillator_tile<Tick::None>(k, c, tn, pdtb, n_prev, ob, bits, n_ticks);
                break;
            case Tick::Compare:
                oscillator_tile<Tick::Compare>(k, c, tn, pdtb, n_prev, ob, bits,
                                               n_ticks);
                break;
            case Tick::Floor:
                oscillator_tile<Tick::Floor>(k, c, tn, pdtb, n_prev, ob, bits, n_ticks);
                break;
        }
        for (int t = tn; t < tv; ++t) ob[t] = ob[tn - 1];

        // ... then, over time: V-I converter (ViConverter::drive), the
        // supply power term of the energy sum, and the fluxgate sensor
        // chain (FluxgateSensor::step) up to the pickup flux linkage. A
        // varying environment reads its per-sample streams (padded by
        // one vector at gather). The chain is cut into short loops over
        // tile buffers: each loop's iterations are independent, so the
        // out-of-order core overlaps many of them and the divider stays
        // busy; one long loop body would serialise on its own latency.
        for (int t = 0; t < tv; t += W) {
            const v::dvec o = v::load(ob + t);
            const v::dvec u = v::div(o, fs_v);
            v::dvec i =
                v::add(v::mul(vig_v, o), v::mul(v::mul(v::mul(linfs_v, u), u), u));
            i = v::min(v::max(i, neglim_v), lim_v);
            const v::dvec drive = v::bit_andnot(sign_v, i);  // fabs
            const v::dvec p = v::mul(v::add(bias_v, drive), supply_v);
            v::store(pdtb + t, v::mul(p, dt_v));
            v::store(ib + t, i);
            v::dvec fpa = fpa_c;
            v::dvec hext = hext_c;
            if (dyn) {
                hext = v::load(env_h_.data() + kb + t);
                if (tdyn) fpa = v::load(env_fpa_.data() + kb + t);
            }
            v::store(hb + t, v::add(v::mul(fpa, i), hext));
        }
        if (!grp.generic) {
            // TanhCore::advance: ms * tanh(h / hk), tanh in its two
            // halves (util::simd::vtanh_q / vtanh_from_q).
            for (int t = 0; t < tv; t += W) {
                const v::dvec hk = tdyn ? v::load(env_hk_.data() + kb + t) : hk_c;
                const v::dvec x = v::div(v::load(hb + t), hk);
                v::store(xb + t, x);
                v::store(qb + t, v::vtanh_q(x));
            }
            for (int t = 0; t < tv; t += W) {
                const v::dvec ms = tdyn ? v::load(env_ms_.data() + kb + t) : ms_c;
                const v::dvec h = v::load(hb + t);
                const v::dvec th = v::vtanh_from_q(v::load(xb + t), v::load(qb + t));
                const v::dvec b = v::mul(mu0_v, v::add(h, v::mul(ms, th)));
                v::store(bb + t, b);
                v::store(lpb + 1 + t, v::mul(nap_v, b));
            }
        } else {
            // Non-tanh core: exact virtual dispatch, in sample order.
            for (int t = 0; t < tn; ++t) {
                if (tdyn) core->set_temperature(idle_t_[kb + static_cast<std::size_t>(t)]);
                xb[t] = core->advance(hb[t]);
            }
            for (int t = 0; t < tv; t += W) {
                const v::dvec b =
                    v::mul(mu0_v, v::add(v::load(hb + t), v::load(xb + t)));
                v::store(bb + t, b);
                v::store(lpb + 1 + t, v::mul(nap_v, b));
            }
        }
        // The pickup voltage: the previous sample's linkage is the
        // unaligned load one slot back.
        for (int t = 0; t < tv; t += W) {
            v::store(vpb + t,
                     v::div(v::sub(v::load(lpb + 1 + t), v::load(lpb + t)), dt_v));
        }
        if (k0 == 0 && grp.lane_first[0]) vpb[0] = 0.0;  // no derivative yet

        // Pickup noise (FrontEnd::noise_sample arithmetic, same
        // order): the member's own draws, one per sample.
        const double* vdetb = vpb;
        if (noise_src != nullptr) {
            for (int t = 0; t < tn; ++t) {
                nst += nalpha * (noise_src->sample() * ndrive - nst);
                vnb[t] = vpb[t] + nst;
            }
            vdetb = vnb;
        }

        // Pass C: detector, statistics, counter, capture.
        detector_tile(k, c, tn, vdetb, bits, n_ticks,
                      det_out != nullptr ? det_out + k0 : nullptr,
                      val_out != nullptr ? val_out + k0 : nullptr);
        n_prev = tn;

        b_pen = tn >= 2 ? bb[tn - 2] : b_last;
        b_last = bb[tn - 1];
        lpb[0] = lpb[tn];
        if (k0 + T >= steps) {
            grp.o[0] = ob[tn - 1];
            grp.idrv[0] = ib[tn - 1];
            grp.hfin[0] = hb[tn - 1];
            grp.vp[0] = vpb[tn - 1];
        }
    }

    for (int t = 0; t < n_prev; ++t) c.e += pdtb[t];  // the last tile's terms

    grp.time[0] = c.time;
    grp.phase[0] = c.phase;
    grp.corr[0] = c.corr;
    grp.pint[0] = c.pint;
    grp.ptime[0] = c.ptime;
    grp.since[0] = c.since;
    grp.lp[0] = lpb[0];
    // The excitation linkage of the last two samples, with the stripe
    // kernel's multiply (the previous advance's value when only one
    // sample ran).
    grp.leold[0] = steps >= 2 ? grp.nae[0] * b_pen : grp.le[0];
    grp.le[0] = grp.nae[0] * b_last;
    grp.bfin[0] = b_last;
    grp.acc[0] = c.acc;
    grp.cnt[0] = c.cnt;
    grp.act[0] = c.act;
    grp.vs[0] = c.vs;
    grp.hs[0] = c.hs;
    grp.edges[0] = c.edges;
    grp.e[0] = c.e;
    grp.nst[0] = nst;
    grp.pos_b = c.pos;
    grp.neg_b = c.neg;
    grp.prevpos_b = c.prevpos;
    grp.prevneg_b = c.prevneg;
    grp.out_b = c.out;
    grp.statprev_b = c.statprev;
    grp.hasprev_b = c.hasprev;
}

void LaneEngine::scatter(const LanePort* lanes, const Group& grp,
                         analog::Channel channel, int steps, double dt_s,
                         bool bytes_ready) {
    using analog::Channel;
    // Unpacked per-lane byte streams (det x/y, valid x/y), only for
    // groups that replay or delegate them.
    std::uint8_t* dx = nullptr;
    std::uint8_t* dy = nullptr;
    std::uint8_t* vx = nullptr;
    std::uint8_t* vy = nullptr;
    if (grp.capture) {
        bytes_.resize(static_cast<std::size_t>(steps) * 4);
        dx = bytes_.data();
        dy = dx + steps;
        vx = dy + steps;
        vy = vx + steps;
    }

    for (int l = 0; l < grp.n; ++l) {
        analog::FrontEnd& f = *grp.fe[l];
        const Channel ach = grp.active_ch[l];
        const auto ai = static_cast<std::size_t>(ach);
        const auto ii = 1 - ai;

        f.oscillator().load_state({grp.time[l], grp.phase[l], grp.o[l], grp.corr[l],
                                   grp.pint[l], grp.ptime[l]});
        f.mux().load_state({ach, grp.since[l]});

        // Dynamic environment: land on the last sample's tick exactly
        // as the scalar path would have left it (h_ext on both sensors,
        // ambient temperature, and — before the TanhCore re-sync below
        // — the final effective Ms/Hk/sensitivity).
        if (grp.lane_dyn[l]) {
            f.apply_field_tick(grp.src[l]->field_at(
                grp.lidx0[l] + static_cast<std::uint64_t>(steps) - 1));
        }

        // Active sensor. v_excitation is a pure function of the last
        // two flux linkages (or the resistive drop alone right after
        // the very first sample), recomputed with the step() ops.
        double vexc;
        if (grp.lane_first[l] && steps == 1) {
            vexc = grp.r_exc[l] * grp.idrv[l];
        } else {
            vexc = grp.r_exc[l] * grp.idrv[l] + (grp.le[l] - grp.leold[l]) / dt_s;
        }
        sensor::FluxgateSensor& sen = f.sensor_mut(ach);
        sen.load_state({grp.hfin[l], grp.bfin[l], grp.vp[l], vexc, grp.lp[l],
                        grp.le[l], /*first_step=*/false});
        if (!grp.generic) {
            // Re-sync the TanhCore's remembered field; the model is
            // otherwise stateless, so one advance() at the final H
            // reproduces the state after every per-sample call.
            grp.core[l]->advance(grp.hfin[l]);
        }
        sensor::FluxgateSensor& idle_sen =
            f.sensor_mut(ach == Channel::X ? Channel::Y : Channel::X);
        if (grp.lane_dyn[l]) {
            // A varying axial field induces real pickup voltage even at
            // zero drive, so the idle sensor replays the per-sample
            // environment instead of taking the stationary shortcut.
            const auto off = static_cast<std::size_t>(l) *
                             static_cast<std::size_t>(steps);
            idle_sen.step_block_env(
                0.0, idle_h_.data() + off,
                idle_sen.temperature_sensitive() ? idle_t_.data() + off : nullptr,
                dt_s, steps);
        } else {
            idle_sen.step_block_constant(0.0, dt_s, steps);
        }

        f.detector(ach).load_state({bit_of(grp.pos_b, l), bit_of(grp.neg_b, l),
                                    bit_of(grp.prevpos_b, l), bit_of(grp.prevneg_b, l),
                                    bit_of(grp.out_b, l)});

        if (grp.lane_noise[l]) f.set_noise_filter_state(grp.nst[l]);

        digital::UpDownCounter* ctr = grp.ctr[l];
        if (grp.lane_tap[l]) {
            // Replay the emitted streams through the member's tap ->
            // index -> statistics pipeline, then clock the member's
            // counter over the post-tap bytes — the scalar path's
            // order, with one chunk per stage.
            std::uint8_t* d_act = ach == Channel::X ? dx : dy;
            std::uint8_t* v_act = ach == Channel::X ? vx : vy;
            std::uint8_t* d_idl = ach == Channel::X ? dy : dx;
            std::uint8_t* v_idl = ach == Channel::X ? vy : vx;
            std::memset(d_idl, 0, static_cast<std::size_t>(steps));
            std::memset(v_idl, 0, static_cast<std::size_t>(steps));
            if (!bytes_ready) {
                for (int k = 0; k < steps; ++k) {
                    d_act[k] = static_cast<std::uint8_t>((det_bits_[k] >> l) & 1u);
                    v_act[k] = static_cast<std::uint8_t>((valid_bits_[k] >> l) & 1u);
                }
            }
            f.ingest_samples(steps, dx, dy, vx, vy);
            if (ctr != nullptr) {
                const std::uint8_t* dch = channel == Channel::X ? dx : dy;
                const std::uint8_t* vch = channel == Channel::X ? vx : vy;
                ctr->step_block(dch, vch, dt_s, steps);
            }
        } else {
            // Fold this advance's statistics into the member's window.
            analog::FrontEnd::StreamWindowState ws = f.save_window_state();
            ws.stats[ai].samples += static_cast<std::uint64_t>(steps);
            ws.stats[ai].valid_samples += static_cast<std::uint64_t>(grp.vs[l]);
            ws.stats[ai].high_samples += static_cast<std::uint64_t>(grp.hs[l]);
            ws.stats[ai].edges += static_cast<std::uint64_t>(grp.edges[l]);
            ws.stats[ii].samples += static_cast<std::uint64_t>(steps);
            ws.prev[ai] = bit_of(grp.statprev_b, l) ? 1 : 0;
            ws.has_prev[ai] = bit_of(grp.hasprev_b, l);
            ws.sample_index += static_cast<std::uint64_t>(steps);
            f.load_window_state(ws);

            if (grp.lane_hw[l] && ach == channel) {
                // Hardware-register counter: member object applies
                // wrap/stuck/trap per tick over the emitted bytes.
                if (!bytes_ready) {
                    for (int k = 0; k < steps; ++k) {
                        dx[k] = static_cast<std::uint8_t>((det_bits_[k] >> l) & 1u);
                        vx[k] = static_cast<std::uint8_t>((valid_bits_[k] >> l) & 1u);
                    }
                }
                ctr->step_block(dx, vx, dt_s, steps);
            } else if (grp.lane_soa_count[l]) {
                ctr->load_state({grp.acc[l], grp.cnt[l],
                                 static_cast<std::uint64_t>(grp.act[l])});
            }
        }

        *lanes[l].energy_j = grp.e[l];
    }
}

}  // namespace fxg::sim
