#include "service/compassd.hpp"

#include "snapshot/state.hpp"
#include "util/net.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace fxg::service {

namespace {

using Clock = std::chrono::steady_clock;

HeadingReply shed_reply(std::uint64_t request_id, std::uint32_t retry_after_ms,
                        const char* detail) {
    HeadingReply reply;
    reply.request_id = request_id;
    reply.status = ReplyStatus::Shed;
    reply.retry_after_ms = retry_after_ms;
    reply.detail = detail;
    return reply;
}

std::string frame_bytes(const HeadingReply& reply) {
    const std::vector<std::uint8_t> bytes = encode_reply(reply);
    return {bytes.begin(), bytes.end()};
}

}  // namespace

/// One admitted query waiting for (or riding) a batch.
struct CompassService::PendingQuery {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    int member = 0;  ///< round-robin-assigned fleet member
    Clock::time_point admitted{};
};

CompassService::CompassService(const ServiceConfig& config)
    : config_(config),
      fleet_(config.members, config.compass, pool_),
      settled_runs_(static_cast<std::size_t>(config.members)) {
    if (config.members < 1) {
        throw std::invalid_argument("CompassService: members must be >= 1");
    }
    if (config.max_connections < 1 || config.max_pending < 1) {
        throw std::invalid_argument(
            "CompassService: connection/pending bounds must be >= 1");
    }
    supervisors_.reserve(static_cast<std::size_t>(config.members));
    for (int i = 0; i < config.members; ++i) {
        supervisors_.push_back(std::make_unique<fault::MeasurementSupervisor>(
            fleet_.at(i), config.supervisor));
    }
    for (std::atomic<int>& runs : settled_runs_) runs.store(-1, std::memory_order_relaxed);

    telemetry::MetricsRegistry& reg = fleet_.metrics();
    latency_hist_ = &reg.histogram(
        "fxg_service_latency_seconds",
        {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
         2.5e-1, 5e-1, 1.0, 2.5},
        "s");
    batch_size_hist_ = &reg.histogram(
        "fxg_service_batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256}, "");
    requests_counter_ = &reg.counter("fxg_service_requests_total");
    shed_counter_ = &reg.counter("fxg_service_shed_total");
    degraded_counter_ = &reg.counter("fxg_service_degraded_total");

    fleet_.set_health_extra([this] {
        const ServiceStats s = stats();
        std::ostringstream out;
        out << "service_requests " << s.requests << '\n';
        out << "service_shed " << s.shed << '\n';
        out << "service_batches " << s.batches << '\n';
        out << "service_replies_ok " << s.replies_ok << '\n';
        out << "service_replies_degraded " << s.replies_degraded << '\n';
        out << "service_replies_error " << s.replies_error << '\n';
        out << "service_protocol_errors " << s.protocol_errors << '\n';
        out << "service_disconnects " << s.disconnects << '\n';
        // Read from the published copies: the supervisors themselves
        // belong to the batch loop.
        std::ostringstream members;
        int settled = 0;
        for (std::size_t m = 0; m < settled_runs_.size(); ++m) {
            const int runs = settled_runs_[m].load(std::memory_order_relaxed);
            if (runs < 0) continue;
            ++settled;
            members << "service_settled_member " << m << " rung="
                    << fault::to_string(fault::SupervisedStatus::DegradedSingleAxis)
                    << " runs_since_probe=" << runs << '\n';
        }
        out << "service_settled_members " << settled << '\n' << members.str();
        return out.str();
    });
}

CompassService::~CompassService() { stop(); }

void CompassService::start() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (reactor_ != nullptr) {
            throw std::runtime_error("CompassService: already running");
        }
    }

    // Past the connection budget the reactor answers one Shed frame and
    // closes: the refusal is explicit and immediate, not a connection
    // parked in a growing backlog.
    auto reactor = std::make_unique<util::net::Reactor>(
        config_.port, config_.max_connections,
        frame_bytes(shed_reply(0, config_.retry_after_ms, "connection budget exhausted")),
        std::chrono::milliseconds(0));

    // Anchor every ladder before the first query: the single-axis and
    // hold-last-good rungs need a last-good measurement to lean on.
    // Serial on purpose: a member's first measurement sizes its block
    // buffers, and on pool workers those land in per-thread malloc
    // arenas that outlive this service's pool. Seven 256-member services
    // built one after another in one process reached ~23 MiB more peak
    // RSS with a pooled warmup than with this loop.
    if (config_.warmup) {
        for (auto& s : supervisors_) static_cast<void>(s->measure());
    }

    if (config_.introspection_port >= 0) {
        static_cast<void>(fleet_.start_introspection(
            config_.introspection_port, [this] {
                const std::lock_guard<std::mutex> lock(fleet_mutex_);
                return snapshot::snapshot_fleet(fleet_);
            }));
    }

    // The io loop: decode, admit or shed, fail closed on a bad stream.
    const auto count_shed = [this] {
        shed_.fetch_add(1, std::memory_order_relaxed);
        shed_counter_->inc();
    };
    util::net::Reactor::Handlers handlers;
    handlers.on_input = [this, count_shed](util::net::Reactor::Conn& conn) {
        try {
            // Decode every complete frame; a partial one stays in `in`.
            FrameReader reader;
            reader.feed(reinterpret_cast<const std::uint8_t*>(conn.in.data()),
                        conn.in.size());
            Frame frame;
            while (reader.next(frame)) {
                const HeadingRequest req = decode_request(frame);
                bool admitted = false;
                {
                    const std::lock_guard<std::mutex> lock(queue_mutex_);
                    if (static_cast<int>(queue_.size()) + inflight_ <
                        config_.max_pending) {
                        queue_.push_back(PendingQuery{
                            conn.id, req.request_id,
                            static_cast<int>(next_member_++ %
                                             static_cast<std::uint64_t>(
                                                 config_.members)),
                            Clock::now()});
                        admitted = true;
                    }
                }
                if (admitted) {
                    requests_.fetch_add(1, std::memory_order_relaxed);
                    requests_counter_->inc();
                    queue_cv_.notify_one();
                } else {
                    conn.out += frame_bytes(shed_reply(req.request_id, config_.retry_after_ms,
                                                      "pending-query budget exhausted"));
                    count_shed();
                }
            }
            conn.in.erase(0, conn.in.size() - reader.buffered());
        } catch (const ProtocolError& e) {
            // Fail closed: answer with the diagnostic, flush, close. No
            // resynchronisation on a corrupt stream.
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            HeadingReply err;
            err.status = ReplyStatus::Error;
            err.detail = e.what();
            conn.out += frame_bytes(err);
            conn.closing = true;
        }
    };
    handlers.on_refused = count_shed;
    // A reply whose connection has closed is dropped and counted: the
    // peer hung up before its answer.
    handlers.on_lost = [this] { disconnects_.fetch_add(1, std::memory_order_relaxed); };
    reactor->start(pool_, std::move(handlers));
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        reactor_ = std::move(reactor);
        stopping_.store(false, std::memory_order_relaxed);
        batch_exited_ = pool_.post([this] { batch_loop(); });
    }
}

void CompassService::stop() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (reactor_ == nullptr) return;
    }
    {
        // Set under the queue lock: the batch loop tests stopping_ and
        // then sleeps under this lock, so a store between its test and
        // its sleep would lose the wakeup and hang stop().
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        stopping_.store(true, std::memory_order_seq_cst);
    }
    queue_cv_.notify_all();
    batch_exited_.wait();  // the batch loop delivers through the reactor
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        reactor_.reset();  // stops and joins the io loop
    }
    fleet_.stop_introspection();
}

bool CompassService::running() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reactor_ != nullptr;
}

int CompassService::port() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reactor_ != nullptr ? reactor_->port() : 0;
}

int CompassService::introspection_port() const {
    return fleet_.introspection_port();
}

ServiceStats CompassService::stats() const {
    ServiceStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.replies_ok = replies_ok_.load(std::memory_order_relaxed);
    s.replies_degraded = replies_degraded_.load(std::memory_order_relaxed);
    s.replies_error = replies_error_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.disconnects = disconnects_.load(std::memory_order_relaxed);
    return s;
}

void CompassService::publish_rung(int member) {
    const fault::MeasurementSupervisor& sup =
        *supervisors_[static_cast<std::size_t>(member)];
    settled_runs_[static_cast<std::size_t>(member)].store(
        sup.settled_axis() ? sup.settled_runs() : -1, std::memory_order_relaxed);
}

HeadingReply CompassService::resolve_member(int member,
                                            const compass::FleetResult* result) {
    HeadingReply r;
    r.member = static_cast<std::uint32_t>(member);
    fault::MeasurementSupervisor& sup =
        *supervisors_[static_cast<std::size_t>(member)];

    if (result != nullptr && result->ok) {
        const fault::HealthReport health =
            sup.monitor().check(fleet_.at(member), result->measurement);
        if (health.ok) {
            r.status = ReplyStatus::Ok;
            r.attempts = 1;
            r.heading_deg = result->measurement.heading_deg;
            r.count_x = result->measurement.count_x;
            r.count_y = result->measurement.count_y;
            return r;
        }
        r.detail = "batch health: " + health.summary() + "; ";
    } else if (result != nullptr) {
        r.detail = "batch error: " + result->error + "; ";
    }

    // The member tripped the HealthMonitor (or threw) in the batch, or
    // its rung has settled and it skipped the sweep: serve it through
    // its degradation ladder, *marked* instead of erroring — the
    // ROADMAP's graceful-degradation story. A swept member's reply
    // counts the sweep's attempt too.
    try {
        const fault::SupervisedMeasurement sm = sup.measure();
        r.attempts = static_cast<std::uint32_t>(sm.attempts + (result != nullptr ? 1 : 0));
        r.heading_deg = sm.heading_deg;
        r.count_x = sm.measurement.count_x;
        r.count_y = sm.measurement.count_y;
        r.stale = sm.stale;
        r.detail += "ladder: " + std::string(fault::to_string(sm.status));
        switch (sm.status) {
            case fault::SupervisedStatus::Ok:
            case fault::SupervisedStatus::RecoveredRetry:
                r.status = ReplyStatus::Ok;
                break;
            case fault::SupervisedStatus::DegradedSingleAxis:
                r.status = ReplyStatus::Degraded;
                break;
            case fault::SupervisedStatus::HoldLastGood:
                r.status = ReplyStatus::Stale;
                break;
            case fault::SupervisedStatus::Failed:
                r.status = ReplyStatus::Error;
                r.detail += "; " + sm.diagnostics;
                break;
        }
    } catch (const std::exception& e) {
        r.status = ReplyStatus::Error;
        r.detail += std::string("ladder threw: ") + e.what();
    }
    publish_rung(member);
    return r;
}

void CompassService::batch_loop() {
    for (;;) {
        std::vector<PendingQuery> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (stopping_.load(std::memory_order_relaxed)) break;
            batch.swap(queue_);  // the coalescing step
            inflight_ = static_cast<int>(batch.size());
        }
        batches_.fetch_add(1, std::memory_order_relaxed);
        batch_size_hist_->observe(static_cast<double>(batch.size()));

        // One sweep over just the batch's members serves every coalesced
        // query: the lane engine measures them as SoA groups over the
        // pool, and members nobody asked about are not touched. A member
        // whose ladder has settled skips the sweep — its batch
        // measurement would only trip the HealthMonitor again — and is
        // served by its supervisor alone. fleet_mutex_ keeps the
        // /snapshot provider out until the sweep and the ladders finish.
        std::unordered_map<int, HeadingReply> outcome;
        {
            const std::lock_guard<std::mutex> fleet_lock(fleet_mutex_);
            // The batch's distinct members, in first-query order: each
            // is measured once and its outcome shared by every query it
            // serves.
            std::vector<int> swept;
            std::vector<int> settled;
            for (const PendingQuery& q : batch) {
                if (outcome.emplace(q.member, HeadingReply{}).second) {
                    const fault::MeasurementSupervisor& sup =
                        *supervisors_[static_cast<std::size_t>(q.member)];
                    (sup.settled_axis() ? settled : swept).push_back(q.member);
                }
            }
            const std::vector<compass::FleetResult> results =
                fleet_.measure_members(swept, config_.batch_threads);
            for (std::size_t k = 0; k < swept.size() + settled.size(); ++k) {
                const bool was_swept = k < swept.size();
                const int member = was_swept ? swept[k] : settled[k - swept.size()];
                HeadingReply& r = outcome[member];
                r = resolve_member(member, was_swept ? &results[k] : nullptr);
                switch (r.status) {
                    case ReplyStatus::Ok:
                        replies_ok_.fetch_add(1, std::memory_order_relaxed);
                        break;
                    case ReplyStatus::Degraded:
                    case ReplyStatus::Stale:
                        replies_degraded_.fetch_add(1,
                                                    std::memory_order_relaxed);
                        degraded_counter_->inc();
                        break;
                    default:
                        replies_error_.fetch_add(1, std::memory_order_relaxed);
                        break;
                }
            }
        }

        // Stamp per-query identity and hand the replies to the io loop.
        const Clock::time_point done = Clock::now();
        util::net::Reactor::Mail mail;
        mail.reserve(batch.size());
        for (const PendingQuery& q : batch) {
            HeadingReply reply = outcome.at(q.member);
            reply.request_id = q.request_id;
            latency_hist_->observe(
                std::chrono::duration<double>(done - q.admitted).count());
            mail.emplace_back(q.conn_id, frame_bytes(reply));
        }
        reactor_->deliver(std::move(mail));
        {
            const std::lock_guard<std::mutex> lock(queue_mutex_);
            inflight_ = 0;
        }
    }
}

}  // namespace fxg::service
