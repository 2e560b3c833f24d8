#pragma once

/// \file lane_engine.hpp
/// Structure-of-arrays SIMD lane engine: one compiled plan, N fleet
/// members per instruction.
///
/// The scalar reference advances ONE front end a sample at a time; its
/// inner loop is a chain of dependent scalar operations (oscillator ->
/// V-I -> core tanh -> detector -> counter) that leaves the vector
/// units idle. The lane engine turns the fleet dimension into the
/// vector dimension instead: it gathers the evolving per-sample state
/// of up to util::simd::kLanes independent members into SoA registers
/// (oscillator phase/correction, noise filter, flux linkages,
/// comparator latches, counter accumulator, energy), advances all of
/// them in lockstep with the identical per-sample arithmetic, and
/// scatters the state back through the stages' save/load seams at
/// stage boundaries.
///
/// Contract: bit-identical to advancing every member through
/// FrontEnd::step() / UpDownCounter::step() individually — counter
/// values, noise streams, energy sums, stream statistics and the abort
/// point of an overflow trap (asserted against the scalar reference by
/// tests/lane_engine_test.cpp and the EngineParity fuzz oracle in
/// src/verify/). EngineKind::Block is this engine over one lane.
///
/// Per-member fault isolation is preserved by construction:
///  * Parametric faults (oscillator drift, comparator offset, stuck
///    mux) are per-lane constants — a drifting lane computes with its
///    own constants and perturbs no neighbour.
///  * Stream faults arrive through the member's SampleTap. Lanes with
///    a tap attached stay in the SIMD path for the analogue stages;
///    their emitted detector/valid streams are captured per sample
///    (one movemask each), unpacked per lane and replayed through
///    FrontEnd::ingest_samples(), so the tap sees exactly the chunks,
///    bytes and statistics of the per-member path. Counting for those
///    lanes runs the member's UpDownCounter::step_block over the
///    post-tap bytes.
///  * Members with an engaged counter hardware model (finite width /
///    stuck bit) likewise keep their counter on the member object so
///    wrap, stuck-bit and trap latching stay in one place; the
///    analogue pipeline still runs in SIMD. A lane whose counter traps
///    is evicted by the caller (PlanExecutor::run_lanes) at the count
///    window boundary — the scalar abort point — without perturbing
///    the other lanes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analog/front_end.hpp"
#include "analog/mux.hpp"
#include "digital/counter.hpp"

namespace fxg::sim {

/// One fleet member's slice of a lane batch: the front end to advance,
/// the counter to clock (null during a settle phase, exactly like the
/// null-counter contract of SimEngine::advance) and the member's
/// running energy sum.
struct LanePort {
    analog::FrontEnd* front_end = nullptr;
    digital::UpDownCounter* counter = nullptr;  ///< null => settling (deaf)
    double* energy_j = nullptr;
};

/// SoA batch engine over independent front ends. Owns only scratch
/// buffers; all simulation state lives in the member objects and
/// round-trips per advance() through the stages' State seams.
class LaneEngine {
public:
    LaneEngine() = default;

    /// True when `front_end`'s configuration can run in a SIMD lane:
    /// the paper's multiplexed architecture with a noise-free detector
    /// (comparator noise would need per-comparator RNG streams inside
    /// the vector kernel). Pickup noise, parametric/stream faults, an
    /// engaged counter hardware model and non-tanh cores are all
    /// lane-compatible. Enabled/gating state is a precondition of
    /// advance(), not of eligibility.
    [[nodiscard]] static bool eligible(const analog::FrontEnd& front_end) noexcept;

    /// Lanes advanced per vector instruction (the active simd width).
    [[nodiscard]] static int lanes_per_stripe() noexcept;

    /// Active simd backend ("avx2", "neon", "scalar").
    [[nodiscard]] static const char* backend_name() noexcept;

    /// Advances every lane by `steps` samples of `dt_s`, mirroring
    /// SimEngine::advance per lane: energy accumulates in sample order
    /// onto each lane's energy_j, and every settled sample of
    /// `channel`'s detector output is clocked into the lane's counter
    /// (when non-null). Preconditions: every front end eligible() and
    /// enabled (the plan's PowerUp stage has run). Lanes are
    /// independent; any subset of the same calls on the per-member
    /// path yields bit-identical member state.
    ///
    /// Lanes are taken in groups of up to two stripes. A group of two
    /// or more lanes runs the stripe kernel (one member per vector
    /// lane); a group of exactly one lane — a one-member batch, or the
    /// trailing remainder of a longer list — runs the time form, which
    /// vectorises that member's per-sample work over consecutive
    /// samples instead of padding a stripe. Both forms produce the
    /// same bits.
    void advance(const LanePort* lanes, int n_lanes, analog::Channel channel,
                 int steps, double dt_s);

    /// Bytes reserved for per-sample emitted-stream capture (tap replay
    /// and delegated hardware counters). Stays 0 for an engine whose
    /// groups never needed it.
    [[nodiscard]] std::size_t capture_capacity() const noexcept;

private:
    struct Group;

    /// Reads `n` members' constants and state into `grp`, laid out for
    /// a kernel `width` lanes wide (pad lanes copy lane 0), and fills
    /// the time-varying environment streams when some field varies.
    void gather(const LanePort* lanes, int n, int width, analog::Channel channel,
                int steps, double dt_s, Group& grp);

    /// Stripe kernel: S consecutive stripes (n <= S*kLanes lanes) in
    /// one interleaved loop. Each sample's arithmetic spine (divide ->
    /// exp polynomial -> tanh divide -> pickup divide) is a long serial
    /// dependency chain; running S stripes statement-by-statement
    /// through one body gives the out-of-order core S independent
    /// chains to overlap. Lanes never interact, so the result is
    /// bit-identical to S separate stripe passes.
    template <int S>
    void advance_stripes(Group& grp, int steps, double dt_s);

    /// Time form for a one-lane group: sample-order chains run scalar
    /// per tile, per-sample work runs kLanes consecutive samples per
    /// vector, and emitted streams are written straight into bytes_.
    void advance_time_form(Group& grp, int steps, double dt_s);

    /// Writes the advanced state back through the stages' seams, then
    /// replays taps and clocks delegated counters over the emitted
    /// streams (already unpacked into bytes_ when `bytes_ready`).
    void scatter(const LanePort* lanes, const Group& grp, analog::Channel channel,
                 int steps, double dt_s, bool bytes_ready);

    // Per-group emitted streams of the stripe kernel, one bit per group
    // lane per sample (movemask, stripe s in bits [s*kLanes,
    // (s+1)*kLanes)), consumed by tap replay and delegated counters.
    std::vector<std::uint8_t> det_bits_;
    std::vector<std::uint8_t> valid_bits_;
    // Unpacked per-lane byte streams (det x/y, valid x/y).
    std::vector<std::uint8_t> bytes_;
    // Time-varying environment scratch, filled only when some lane's
    // FieldSource actually varies within the advance (constant sources
    // never touch these): per-sample interleaved active-axis field and
    // temperature-derived core/sensitivity parameters
    // [sample * group_width + lane], per-tile change flags for the
    // stripe kernel (0 = unchanged, 1 = reload at tile start, 2 =
    // per-sample), and per-lane contiguous idle-axis field / ambient
    // temperature streams replayed through FluxgateSensor::step_block_env.
    std::vector<double> env_h_, env_ms_, env_hk_, env_fpa_;
    std::vector<double> idle_h_, idle_t_;
    std::vector<std::uint8_t> tile_env_;
};

}  // namespace fxg::sim
