#pragma once

/// \file supervisor.hpp
/// Supervised measurement path: wraps Compass::measure() in a
/// HealthMonitor and walks a degradation ladder instead of handing a
/// silently wrong heading to the application:
///
///   1. measure, health-check               -> Ok
///   2. re-excite (power cycle) and retry,
///      up to max_retries times             -> RecoveredRetry
///   3. one axis bad, one good: reconstruct
///      the missing axis from the last-good
///      field magnitude                     -> DegradedSingleAxis
///   4. hold the last good heading, flagged
///      stale, up to max_hold_s             -> HoldLastGood
///   5. give up with full diagnostics       -> Failed
///
/// The single-axis estimate uses that heading extraction is insensitive
/// to the field magnitude (paper section 4): the last good measurement
/// pins |H| in count units, so a healthy count on one axis plus the
/// circle radius determines the other axis up to sign, and the sign is
/// taken from heading continuity. Near the ambiguous geometry — both
/// sign candidates about equally far from the last good heading — no
/// estimate is served (the ladder holds the last good heading instead).
///
/// Every rung of the ladder is a *plan rewrite* (core/plan.hpp), not a
/// separate code path: the supervisor compiles the compass's full
/// MeasurementPlan once, a retry executes with_re_excite(plan), and
/// degraded mode executes with_re_excite(truncate_to_axis(plan,
/// healthy_axis)) — a fresh count on the surviving axis — before
/// reconstructing the heading from the remembered circle radius. All
/// attempts run through one PlanExecutor, so traces and physics
/// samples look the same whichever rung served the heading.
///
/// The DegradedSingleAxis rung is sticky. A full walk that ends there
/// settles the ladder on the surviving axis, and later measure() calls
/// run only that axis' degraded plan (one plan per call, no retries, no
/// re_excite events) and reconstruct the heading; the status served
/// stays DegradedSingleAxis, never Ok. After kReprobeEvery settled runs
/// the next call re-walks the whole ladder from rung 0, so a fault that
/// cleared is noticed within kReprobeEvery + 1 calls. A settled run
/// that aborts, cannot reconstruct, or whose health report implicates
/// the surviving axis drops back to the full walk in the same call.
/// HoldLastGood and Failed are never sticky: they have no plan to serve
/// from, and their staleness accounting depends on the walk.

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "core/compass.hpp"
#include "core/plan.hpp"
#include "fault/health_monitor.hpp"

namespace fxg::fault {

/// Ladder rung a supervised measurement ended on.
enum class SupervisedStatus {
    Ok,                 ///< first attempt healthy
    RecoveredRetry,     ///< healthy after re-excitation
    DegradedSingleAxis, ///< heading estimated from one healthy axis
    HoldLastGood,       ///< last good heading held, stale
    Failed,             ///< no usable heading
};

[[nodiscard]] const char* to_string(SupervisedStatus status) noexcept;

struct SupervisorConfig {
    /// Re-excitation retries after an unhealthy first attempt.
    int max_retries = 2;
    /// Longest the supervisor will keep serving a stale heading [s].
    double max_hold_s = 30.0;
    /// Degraded single-axis mode: the missing axis is known only up to
    /// sign, giving two heading candidates. When their distances to the
    /// last good heading differ by no more than this (while the
    /// candidates themselves genuinely differ), the branch choice would
    /// be a coin flip on noise — the supervisor refuses to reconstruct
    /// and holds the last good heading instead. [deg]
    double reconstruct_ambiguity_deg = 10.0;
    HealthMonitorConfig health;
};

/// One supervised measurement.
struct SupervisedMeasurement {
    compass::Measurement measurement;  ///< last attempt's raw measurement
    HealthReport health;               ///< last attempt's health report
    SupervisedStatus status = SupervisedStatus::Failed;
    double heading_deg = 0.0;  ///< the heading to serve (per status)
    /// Plans run for this outcome: full-plan attempts of a walk, or the
    /// one degraded plan of a settled run (plus the walk it fell back
    /// to, if any). A walk's own single-axis rung is not counted.
    int attempts = 0;
    bool stale = false;        ///< heading is not from this measurement
    double staleness_s = 0.0;  ///< simulated time since the last good heading
    std::string diagnostics;   ///< human-readable failure trail
};

/// Drives one Compass through the degradation ladder.
class MeasurementSupervisor {
public:
    /// Non-owning: `compass` must outlive the supervisor.
    explicit MeasurementSupervisor(compass::Compass& compass,
                                   const SupervisorConfig& config = {});

    /// Runs the ladder once and returns the outcome (never throws on
    /// measurement faults — a trapping counter overflow becomes a
    /// MeasurementAborted finding and consumes an attempt).
    SupervisedMeasurement measure();

    /// When a postmortem hook fires.
    struct PostmortemTrigger {
        /// Fire when the ladder ends on this rung or deeper (enum order
        /// is the ladder order).
        SupervisedStatus min_rung = SupervisedStatus::DegradedSingleAxis;
        /// Also fire when any attempt aborted (counter trap, injected
        /// throw), even if a later rung recovered above min_rung.
        bool on_abort = true;
    };

    /// Black-box seam: called from measure(), after the ladder settles,
    /// whenever `trigger` matches the outcome — the hook freezes a
    /// flight recorder and writes a postmortem bundle (see
    /// snapshot/postmortem.hpp). An empty hook disables it.
    void set_postmortem_hook(
        std::function<void(const SupervisedMeasurement&)> hook,
        PostmortemTrigger trigger) {
        postmortem_hook_ = std::move(hook);
        postmortem_trigger_ = trigger;
    }
    void set_postmortem_hook(
        std::function<void(const SupervisedMeasurement&)> hook) {
        set_postmortem_hook(std::move(hook), PostmortemTrigger{});
    }

    /// Last measurement that passed the health check, if any.
    [[nodiscard]] const std::optional<SupervisedMeasurement>& last_good() const noexcept {
        return last_good_;
    }

    /// Forgets the last-good state and heading track.
    void reset();

    [[nodiscard]] HealthMonitor& monitor() noexcept { return monitor_; }
    [[nodiscard]] const SupervisorConfig& config() const noexcept { return config_; }

    /// The compiled plans the ladder executes: attempt 0 runs plan(),
    /// each retry runs retry_plan() (= ReExcite + plan).
    [[nodiscard]] const compass::MeasurementPlan& plan() const noexcept {
        return plan_;
    }
    [[nodiscard]] const compass::MeasurementPlan& retry_plan() const noexcept {
        return retry_plan_;
    }

    /// Accumulated simulated time since the last good heading [s].
    [[nodiscard]] double staleness_s() const noexcept { return staleness_s_; }

    /// Settled runs a settled ladder serves before the next call
    /// re-walks the full ladder from rung 0.
    static constexpr int kReprobeEvery = 64;

    /// The surviving axis while the ladder is settled on
    /// DegradedSingleAxis; nullopt otherwise.
    [[nodiscard]] std::optional<analog::Channel> settled_axis() const noexcept {
        return settled_axis_;
    }
    /// Settled runs served since the last full walk.
    [[nodiscard]] int settled_runs() const noexcept { return settled_runs_; }

    /// Everything the ladder carries between measure() calls (snapshot
    /// seam). Config and the compiled plans are rebuilt from the compass
    /// configuration, not serialized. A member restored mid-ladder —
    /// e.g. holding a stale last-good heading, or settled on one axis —
    /// resumes at the same rung, not from Healthy.
    struct LadderState {
        std::optional<SupervisedMeasurement> last_good;
        double staleness_s = 0.0;
        compass::HeadingFilter::State filter;
        std::optional<analog::Channel> settled_axis;
        int settled_runs = 0;
    };

    [[nodiscard]] LadderState save_ladder_state() const {
        return {last_good_, staleness_s_, monitor_.filter().save_state(),
                settled_axis_, settled_runs_};
    }
    void load_ladder_state(const LadderState& s) {
        last_good_ = s.last_good;
        staleness_s_ = s.staleness_s;
        monitor_.filter().load_state(s.filter);
        settled_axis_ = s.settled_axis;
        settled_runs_ = s.settled_runs;
    }

private:
    /// Reconstructs the heading from a fresh count on the one healthy
    /// axis plus the last-good circle radius; nullopt when no last-good
    /// exists, the count is inconsistent with the remembered radius, or
    /// the two sign candidates are ambiguously plausible.
    [[nodiscard]] std::optional<double> reconstruct_heading(
        analog::Channel healthy, std::int64_t good_count) const;

    /// One run of the degraded plan on a surviving axis, through
    /// PlanExecutor::run_lanes as a batch of one.
    struct SingleAxisRun {
        compass::Measurement measurement;  ///< partial: one axis counted
        HealthReport health;
        bool aborted = false;
        /// Unset when the run aborted, its health report implicates the
        /// surviving axis, or reconstruction refused.
        std::optional<double> heading_deg;
    };
    SingleAxisRun run_single_axis(analog::Channel healthy);

    /// The ladder proper; `any_abort` reports whether any attempt threw.
    SupervisedMeasurement measure_impl(bool& any_abort);

    compass::Compass& compass_;
    SupervisorConfig config_;
    HealthMonitor monitor_;
    compass::MeasurementPlan plan_;        ///< the compass's full plan
    compass::MeasurementPlan retry_plan_;  ///< ReExcite-prefixed rewrite
    /// with_re_excite(truncate_to_axis(plan_, ch)), indexed by the
    /// surviving channel.
    std::array<compass::MeasurementPlan, 2> single_axis_plans_;
    std::optional<SupervisedMeasurement> last_good_;
    double staleness_s_ = 0.0;  ///< accumulated simulated time since last good
    std::optional<analog::Channel> settled_axis_;  ///< sticky rung's axis
    int settled_runs_ = 0;  ///< settled runs since the last full walk
    std::function<void(const SupervisedMeasurement&)> postmortem_hook_;
    PostmortemTrigger postmortem_trigger_;
};

}  // namespace fxg::fault
