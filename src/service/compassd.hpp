#pragma once

/// \file compassd.hpp
/// compassd — the batched heading-query service (ROADMAP item 1,
/// DESIGN.md §16): a long-running daemon that accepts heading queries
/// over a loopback socket (service/protocol.hpp framing), coalesces
/// every query that arrives while a batch is in flight into ONE fleet
/// measurement (dispatched as SoA lane groups over the service's
/// util::TaskPool), and applies admission control under overload
/// instead of letting latency grow without bound.
///
/// Architecture — two long-lived tasks posted on the service's own
/// TaskPool, joined by bounded queues:
///
///   io loop     a handler on a util::net::Reactor (DESIGN.md §16) that
///               decodes request frames and admits queries into the
///               pending queue (bounded by max_pending; overflow answers
///               Shed with Retry-After semantics *immediately* — load
///               shedding is fast). Connections past max_connections get
///               one Shed frame and a close; a client disconnecting
///               mid-anything costs its own connection, nothing else.
///
///   batch loop  sleeps until queries are pending, swaps out the whole
///               queue (the coalescing step: every query that queued up
///               during the previous batch rides the next one), collects
///               the batch's distinct round-robin-assigned members in
///               first-query order, runs one
///               CompassFleet::measure_members over just those — the
///               SoA lane-engine fan-out — and resolves each query from
///               its member's result, then delivers the replies through
///               the reactor. Batch cost grows with the members queried,
///               not with fleet size: a member nobody queried is not
///               measured, so its simulated clock (noise stream,
///               scenario playhead) does not advance.
///
/// Fault integration: each member owns a fault::MeasurementSupervisor.
/// The batch path serves members whose measurement is healthy (ok +
/// HealthMonitor-clean) straight from the lane batch; a member that
/// trips the HealthMonitor is re-measured through its supervisor's
/// degradation ladder, and the ladder's outcome is served *marked* —
/// ReplyStatus::Degraded (single-axis reconstruction) or Stale (held
/// last-good) — rather than erroring. Only an exhausted ladder answers
/// Error. Once a member's ladder has settled on DegradedSingleAxis
/// (supervisor.hpp), the batch loop leaves it out of the sweep and
/// serves it from its supervisor alone: one degraded plan per batch,
/// reply attempts = 1, and a full-ladder re-probe every
/// kReprobeEvery settled runs. /healthz reports
/// `service_settled_members <n>` and, per settled member,
/// `service_settled_member <m> rung=DegradedSingleAxis
/// runs_since_probe=<k>`.
///
/// Telemetry is live while serving: start() can also bind the PR 8
/// introspection endpoint (HTTP /metrics, /trace, /healthz, /snapshot)
/// on a second port, fed from the fleet's always-on black box.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/compass_fleet.hpp"
#include "fault/supervisor.hpp"
#include "service/protocol.hpp"
#include "util/task_pool.hpp"

namespace fxg::util::net {
class Reactor;
}

namespace fxg::service {

struct ServiceConfig {
    /// Fleet members serving queries (round-robin assignment).
    int members = 16;
    /// Per-member pipeline configuration.
    compass::CompassConfig compass;
    /// Query port (0 = kernel-assigned; see CompassService::port()).
    int port = 0;
    /// Also start the HTTP introspection endpoint on this port
    /// (0 = kernel-assigned). Negative = no introspection.
    int introspection_port = -1;
    /// Concurrently open client connections; a connection past the
    /// budget receives one Shed frame and is closed (bounded accept).
    int max_connections = 64;
    /// Queries admitted but not yet answered. Arrivals past the bound
    /// are answered Shed immediately with `retry_after_ms`.
    int max_pending = 256;
    /// Suggested client backoff carried in Shed replies [ms].
    std::uint32_t retry_after_ms = 50;
    /// Worker threads per fleet batch (0 = one per hardware thread).
    int batch_threads = 0;
    /// Run each member once through its supervisor at start(), so the
    /// ladder has a last-good anchor before the first real query (the
    /// single-axis and hold rungs both need one).
    bool warmup = true;
    /// Degradation-ladder tuning (per-member supervisors).
    fault::SupervisorConfig supervisor;
};

/// Serving statistics (all monotone; readable from any thread).
///
/// The three outcome counters (and fxg_service_degraded_total) count
/// one per *member per batch*, not one per reply: every query a member
/// serves in one batch shares that member's outcome, so two pipelined
/// queries to one member in one batch count once.
struct ServiceStats {
    std::uint64_t requests = 0;        ///< queries admitted
    std::uint64_t shed = 0;            ///< queries refused by admission
    std::uint64_t batches = 0;         ///< fleet batches dispatched
    std::uint64_t replies_ok = 0;        ///< member outcomes resolved Ok
    std::uint64_t replies_degraded = 0;  ///< member outcomes Degraded + Stale
    std::uint64_t replies_error = 0;     ///< member outcomes Error
    std::uint64_t protocol_errors = 0;   ///< malformed frames (conn closed)
    std::uint64_t disconnects = 0;       ///< peers gone before their reply
};

class CompassService {
public:
    explicit CompassService(const ServiceConfig& config);

    /// Calls stop().
    ~CompassService();

    CompassService(const CompassService&) = delete;
    CompassService& operator=(const CompassService&) = delete;

    /// Binds the query socket (and the introspection endpoint when
    /// configured), runs the warmup pass, and launches the io + batch
    /// loops. Throws std::runtime_error on socket failure; calling
    /// start() while running throws.
    void start();

    /// Idempotent; blocks until both loops have exited and every client
    /// connection is closed.
    void stop();

    [[nodiscard]] bool running() const;

    /// Bound query port (valid after start()).
    [[nodiscard]] int port() const;

    /// Bound introspection port (0 when not configured).
    [[nodiscard]] int introspection_port() const;

    /// The serving fleet — configure environments/scenarios/faults
    /// through this before start() (members keep stable addresses).
    [[nodiscard]] compass::CompassFleet& fleet() noexcept { return fleet_; }

    /// Per-member degradation ladder (tests arm faults and then inspect
    /// the ladder through this).
    [[nodiscard]] fault::MeasurementSupervisor& supervisor(int member) {
        return *supervisors_.at(static_cast<std::size_t>(member));
    }

    /// The fleet's always-on registry; the service's own instruments
    /// (latency histogram, batch size, counters) live here too, so
    /// /metrics and BENCH_service.json see one coherent surface.
    [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept {
        return fleet_.metrics();
    }

    [[nodiscard]] ServiceStats stats() const;

    [[nodiscard]] const ServiceConfig& config() const noexcept {
        return config_;
    }

private:
    struct PendingQuery;

    void batch_loop();
    /// Resolves one member's batch slot into the reply fields every
    /// query assigned to that member shares this batch. `result` is the
    /// member's sweep result, or nullptr for a settled member that
    /// skipped the sweep.
    [[nodiscard]] HeadingReply resolve_member(
        int member, const compass::FleetResult* result);
    /// Copies member's sticky-rung state into settled_runs_.
    void publish_rung(int member);

    ServiceConfig config_;
    util::TaskPool pool_;  ///< owns the io/batch workers and fleet batches
    compass::CompassFleet fleet_;
    std::vector<std::unique_ptr<fault::MeasurementSupervisor>> supervisors_;
    /// Per member: settled runs since its last full-ladder probe, or -1
    /// when its rung is not settled. Written by the batch loop, read by
    /// /healthz without fleet_mutex_.
    std::vector<std::atomic<int>> settled_runs_;

    /// Serializes member mutation: the batch loop holds this across a
    /// fleet sweep + ladder resolution, and the introspection thread's
    /// /snapshot provider holds it while encoding — a snapshot never
    /// observes a member mid-measurement.
    std::mutex fleet_mutex_;

    // Lifecycle (guarded by mutex_).
    mutable std::mutex mutex_;
    /// Query socket and io loop, set while running; the batch loop hands
    /// replies to it with deliver().
    std::unique_ptr<util::net::Reactor> reactor_;
    std::future<void> batch_exited_;  ///< ready once the batch loop returned
    std::atomic<bool> stopping_{false};

    // Pending-query queue (guarded by queue_mutex_). `inflight_` counts
    // queries swapped out by the batch loop but not yet answered; the
    // admission bound covers queued + inflight.
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::vector<PendingQuery> queue_;
    int inflight_ = 0;
    std::uint64_t next_member_ = 0;  ///< round-robin assignment cursor

    // Statistics.
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> replies_ok_{0};
    std::atomic<std::uint64_t> replies_degraded_{0};
    std::atomic<std::uint64_t> replies_error_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> disconnects_{0};

    // Registry instruments (stable addresses; registered in ctor).
    telemetry::Histogram* latency_hist_ = nullptr;   ///< admission -> reply ready
    telemetry::Histogram* batch_size_hist_ = nullptr;
    telemetry::Counter* requests_counter_ = nullptr;
    telemetry::Counter* shed_counter_ = nullptr;
    telemetry::Counter* degraded_counter_ = nullptr;  ///< per member per batch
};

}  // namespace fxg::service
