/// \file serve.cpp
/// serve-wide and serve-faulted: an in-process CompassService driven
/// over loopback by an open-loop generator.
///
/// The generator draws the whole Poisson arrival schedule from the seed
/// up front. One sender thread sends each query at its due instant
/// (round-robin over the persistent connections, never waiting for a
/// reply) and one receiver thread polls every connection and decodes
/// the replies, so a query is timed from when it was due: a stall in
/// the daemon delays every query scheduled behind it, and the
/// generator's own lateness is reported separately (loadgen.lag_p99_ms).
/// A poller thread GETs the introspection endpoint over HTTP on a fixed
/// schedule; a side thread renders the /metrics and /healthz bodies in
/// process, times a single Compass::measure() canary every few ticks
/// and, on serve-faulted, opens one short-lived connection per tick
/// that sends a query and hangs up unanswered. That is four client
/// threads and at most four open connections.
///
/// Output checks run after the load, outside the timed region.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "layers.hpp"
#include "service/client.hpp"
#include "service/compassd.hpp"
#include "service/protocol.hpp"
#include "snapshot/state.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/introspect.hpp"
#include "util/angle.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fxg;

namespace {

struct ServeSpec {
    int members = 0;
    int batch_threads = 0;
    double offered_qps = 0.0;
    int connections = 0;
    bool fault_member0 = false;  ///< DetectorStuckLow on member 0's x detector
    double tick_per_s = 0.0;     ///< tick rate of the HTTP poller and the side thread
    bool chaos = false;          ///< side thread: one hang-up connection per tick
    int snapshot_every = 0;      ///< every n-th HTTP poll GETs /snapshot (0 = never)
    int probe_every = 0;         ///< side thread: a measure() canary every n-th tick
};

/// Complete set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 7;

ServeSpec spec_for(const std::string& workload) {
    if (workload == "serve-wide") {
        // Never /snapshot: encoding 256 members takes ~0.1 s under the
        // fleet lock, which would turn this workload into an
        // observability test.
        return {256, 2, 100.0, 2, false, 70.0, false, 0, 7};
    }
    // One /snapshot a second: each encode holds the fleet lock for ~4 ms,
    // and at 25/s the query tail followed whether the poller happened to
    // be starved of that lock (see README).
    return {8, 2, 1500.0, 2, true, 75.0, true, 75, 7};
}

/// The HTTP poller's path on tick `j`: /metrics and /healthz in turn,
/// with /snapshot on every snapshot_every-th tick.
const char* http_path(const ServeSpec& spec, std::uint64_t j) {
    if (spec.snapshot_every > 0 &&
        j % static_cast<std::uint64_t>(spec.snapshot_every) ==
            static_cast<std::uint64_t>(spec.snapshot_every - 1)) {
        return "/snapshot";
    }
    return j % 2 == 0 ? "/metrics" : "/healthz";
}

/// serve-wide: uniformly random headings. serve-faulted: the eight
/// points of a compass rose (20 deg + k * 45 deg) dealt to the members
/// in a seeded order, so the heading-error metric does not hinge on
/// which seven headings the seed happened to draw.
std::vector<double> member_headings(const ServeSpec& spec, std::mt19937_64& rng) {
    std::vector<double> h(static_cast<std::size_t>(spec.members));
    if (spec.fault_member0) {
        for (int i = 0; i < spec.members; ++i) h[static_cast<std::size_t>(i)] = 20.0 + 45.0 * i;
        std::shuffle(h.begin(), h.end(), rng);
    } else {
        std::uniform_real_distribution<double> u(0.0, 360.0);
        for (double& x : h) x = u(rng);
    }
    return h;
}

bool good_status(service::ReplyStatus s) {
    return s == service::ReplyStatus::Ok || s == service::ReplyStatus::Degraded ||
           s == service::ReplyStatus::Stale;
}

/// A running daemon with its fleet placed and (optionally) faulted.
struct Fixture {
    std::unique_ptr<service::CompassService> service;
    std::unique_ptr<fault::FaultInjector> injector;
    std::vector<double> truth;  ///< per-member true heading [deg]
    std::uint64_t plan_compiles = 0;

    Fixture() = default;
    Fixture(const Fixture&) = delete;
    Fixture& operator=(const Fixture&) = delete;
    ~Fixture() {
        if (service) service->stop();
        if (injector) injector->disarm();
    }
};

/// Fleet build + plan compile + warmup pass + service start, up to the
/// first answered query. Returns the elapsed seconds.
double build_fixture(Fixture& f, const ServeSpec& spec,
                     const std::vector<double>& headings, Ledger& ledger) {
    const std::uint64_t compiles0 = compass::compile_plan_count();
    const Clock::time_point t0 = Clock::now();
    service::ServiceConfig cfg;
    cfg.members = spec.members;
    cfg.batch_threads = spec.batch_threads;
    cfg.introspection_port = 0;
    cfg.max_pending = 1024;
    f.service = std::make_unique<service::CompassService>(cfg);
    const magnetics::EarthField field = site_field();
    for (int i = 0; i < spec.members; ++i) {
        f.service->fleet().set_environment(i, field, headings[static_cast<std::size_t>(i)]);
    }
    f.truth = headings;
    f.service->start();  // includes the warmup pass (last-good anchors)
    if (spec.fault_member0) {
        // Armed after warmup, as in bench_service: every query member 0
        // serves from here on walks its degradation ladder.
        f.injector = std::make_unique<fault::FaultInjector>();
        f.injector->add(stuck_x_detector());
        f.injector->arm(f.service->fleet().at(0));
    }
    service::HeadingReply first;
    ledger.attempt();
    try {
        service::QueryClient client(f.service->port());
        first = client.query(1ull << 61);
    } catch (const std::exception& e) {
        ledger.fail(std::string("setup query: ") + e.what());
    }
    const double setup_s = seconds_between(t0, Clock::now());
    if (!good_status(first.status)) ledger.fail("setup query not answered");
    f.plan_compiles = compass::compile_plan_count() - compiles0;
    return setup_s;
}

/// Daemon-side counters at one instant.
struct ServerSnap {
    service::ServiceStats stats;
    std::uint64_t members_measured = 0;
    double latency_sum_s = 0.0;
    std::uint64_t latency_count = 0;
};

ServerSnap server_snap(service::CompassService& svc) {
    ServerSnap s;
    s.stats = svc.stats();
    std::istringstream health(svc.fleet().health_text());
    for (std::string line; std::getline(health, line);) {
        if (line.rfind("members_measured ", 0) == 0) {
            s.members_measured = std::stoull(line.substr(17));
        }
    }
    for (const auto& e : svc.metrics().entries()) {
        if (e.name == "fxg_service_latency_seconds" && e.histogram != nullptr) {
            s.latency_sum_s = e.histogram->sum();
            s.latency_count = e.histogram->count();
        }
    }
    return s;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            return false;
        }
    }
    return true;
}

/// What one load phase measured.
struct LoadOutcome {
    Samples query_ms;  ///< due instant -> reply decoded (window only)
    Samples lag_ms;    ///< due instant -> sent (window only)
    Samples scrape_ms;  ///< in-process /metrics + /healthz render
    Samples http_ms;    ///< HTTP GET round trips of the poller
    Samples probe_ms;
    double window_s = 0.0;
    std::uint64_t good_in_window = 0;
    double max_ok_err_deg = 0.0;
    std::uint64_t sent = 0;
    ServerSnap s0, s1;
    std::uint64_t scrapes_in_window = 0;
    std::uint64_t http_in_window = 0;
    std::uint64_t scrapes_skipped = 0;  ///< poll ticks missed behind a slow scrape
    std::map<std::string, std::size_t> scrape_bytes;
    std::vector<SpanRec> spans;
};

/// Runs one open-loop phase of `warmup_s + window_s` against the
/// fixture; only operations due inside the window are timed.
LoadOutcome drive(Fixture& f, const ServeSpec& spec, std::uint64_t seed,
                  double warmup_s, double window_s, bool traced, Ledger& ledger) {
    LoadOutcome out;
    out.window_s = window_s;
    const double horizon = warmup_s + window_s;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);

    std::vector<double> due;  // seconds after t0
    {
        std::exponential_distribution<double> gap(spec.offered_qps);
        for (double t = gap(rng); t < horizon; t += gap(rng)) due.push_back(t);
    }
    const std::size_t n = due.size();
    std::uniform_real_distribution<double> phase01(0.0, 1.0);
    const double poll_phase = phase01(rng) / spec.tick_per_s;
    const double side_phase = phase01(rng) / spec.tick_per_s;
    compass::Compass probe;
    const double probe_truth = phase01(rng) * 360.0;
    probe.set_environment(site_field(), probe_truth);
    static_cast<void>(probe.measure());

    const int port = f.service->port();
    const int iport = f.service->introspection_port();
    std::vector<std::unique_ptr<service::QueryClient>> conns;
    for (int c = 0; c < spec.connections; ++c) {
        conns.push_back(std::make_unique<service::QueryClient>(port));
    }

    std::vector<double> lag_s(n, 0.0);
    std::vector<char> send_ok(n, 0);
    std::vector<char> answered(n, 0);
    std::vector<Clock::time_point> recv_at(n);
    std::vector<service::HeadingReply> replies(n);
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> sender_done{false};
    SpanLog send_log(1), recv_log(2);

    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto at = [&](double s) {
        return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };
    const Clock::time_point window_begin = at(warmup_s);
    const Clock::time_point window_end = at(horizon);
    const auto in_window = [&](Clock::time_point t) {
        return t >= window_begin && t < window_end;
    };

    std::thread sender([&] {
        for (std::size_t k = 0; k < n; ++k) {
            const Clock::time_point d = at(due[k]);
            std::this_thread::sleep_until(d);
            const Clock::time_point t = Clock::now();
            lag_s[k] = seconds_between(d, t);
            std::vector<std::uint8_t> bytes;
            {
                const Scoped span(traced ? &send_log : nullptr, "client.encode_request", 0, k + 1);
                bytes = service::encode_request(service::HeadingRequest{k + 1, 0});
            }
            bool ok;
            {
                const Scoped span(traced ? &send_log : nullptr, "client.send", 0, k + 1);
                ok = send_all(conns[k % conns.size()]->fd(), bytes);
            }
            send_ok[k] = ok ? 1 : 0;
            sent.store(k + 1, std::memory_order_release);
        }
        sender_done.store(true, std::memory_order_release);
    });

    std::thread receiver([&] {
        std::vector<pollfd> pfds;
        for (const auto& c : conns) pfds.push_back(pollfd{c->fd(), POLLIN, 0});
        std::vector<service::FrameReader> readers(conns.size());
        std::uint64_t got = 0;
        const Clock::time_point deadline = window_end + std::chrono::seconds(10);
        std::vector<std::uint8_t> buf(1 << 16);
        for (;;) {
            if (sender_done.load(std::memory_order_acquire) &&
                got >= sent.load(std::memory_order_acquire)) {
                break;
            }
            if (Clock::now() > deadline) break;
            const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 20);
            if (rc <= 0) continue;
            for (std::size_t c = 0; c < pfds.size(); ++c) {
                if (pfds[c].fd < 0 || (pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                    continue;
                }
                const ssize_t r = ::recv(pfds[c].fd, buf.data(), buf.size(), 0);
                if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
                if (r <= 0) {
                    ledger.fail("query connection lost");
                    pfds[c].fd = -1;
                    continue;
                }
                readers[c].feed(buf.data(), static_cast<std::size_t>(r));
                try {
                    service::Frame frame;
                    while (readers[c].next(frame)) {
                        const Clock::time_point t = Clock::now();
                        service::HeadingReply reply;
                        {
                            const Scoped span(traced ? &recv_log : nullptr,
                                              "client.decode_reply", 0, 0);
                            reply = service::decode_reply(frame);
                        }
                        const std::uint64_t id = reply.request_id;
                        if (id < 1 || id > n || answered[id - 1]) {
                            ledger.fail("reply with unexpected request_id " + std::to_string(id));
                            continue;
                        }
                        if (traced) recv_log.spans().back().group = id;
                        answered[id - 1] = 1;
                        recv_at[id - 1] = t;
                        replies[id - 1] = std::move(reply);
                        ++got;
                    }
                } catch (const service::ProtocolError& e) {
                    ledger.fail(std::string("client protocol error: ") + e.what());
                    pfds[c].fd = -1;
                }
            }
        }
    });

    const double period = 1.0 / spec.tick_per_s;
    std::thread poller([&] {
        // HTTP introspection at a fixed rate: ticks that pass while a GET
        // is still in flight are skipped (and counted), never fired late
        // in a burst.
        for (std::uint64_t j = 0;; ++j) {
            const Clock::time_point d = at(poll_phase + period * static_cast<double>(j));
            if (d >= window_end) break;
            if (Clock::now() > d + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(period))) {
                ++out.scrapes_skipped;
                continue;
            }
            std::this_thread::sleep_until(d);
            const std::string path = http_path(spec, j);
            ledger.attempt();
            try {
                const Clock::time_point h0 = Clock::now();
                const std::string resp = telemetry::IntrospectionServer::http_get(iport, path);
                const Clock::time_point h1 = Clock::now();
                const std::string body = telemetry::IntrospectionServer::body_of(resp);
                if (resp.rfind("HTTP/1.0 200", 0) != 0 || body.empty()) {
                    ledger.fail("scrape " + path + " failed");
                } else {
                    out.scrape_bytes[path] = body.size();
                    if (in_window(d)) {
                        out.http_ms.add(ms_between(h0, h1));
                        ++out.http_in_window;
                    }
                }
            } catch (const std::exception& e) {
                ledger.fail("scrape " + path + ": " + e.what());
            }
        }
    });

    std::thread side([&] {
        // Never blocks on the fleet lock, so a stalled /snapshot GET
        // cannot starve the canary or the in-process render.
        for (std::uint64_t j = 0;; ++j) {
            const Clock::time_point d = at(side_phase + period * static_cast<double>(j));
            if (d >= window_end) break;
            std::this_thread::sleep_until(d);
            if (spec.chaos) {
                ledger.attempt();
                try {
                    service::QueryClient victim(port);
                    victim.send((1ull << 62) + j);
                    victim.close();  // hang up without reading the reply
                } catch (const std::exception& e) {
                    ledger.fail(std::string("chaos connection: ") + e.what());
                }
            }
            // The bodies /metrics and /healthz serve, rendered in process.
            ledger.attempt();
            const Clock::time_point r0 = Clock::now();
            const std::size_t metrics_bytes =
                telemetry::prometheus_text(f.service->metrics()).size();
            const std::size_t health_bytes = f.service->fleet().health_text().size();
            const Clock::time_point r1 = Clock::now();
            if (metrics_bytes == 0 || health_bytes == 0) ledger.fail("empty scrape");
            if (in_window(d)) {
                out.scrape_ms.add(ms_between(r0, r1));
                ++out.scrapes_in_window;
            }
            if (j % static_cast<std::uint64_t>(spec.probe_every) == 0) {
                ledger.attempt();
                const Clock::time_point p0 = Clock::now();
                const compass::Measurement m = probe.measure();
                const Clock::time_point p1 = Clock::now();
                if (in_window(p0)) out.probe_ms.add(ms_between(p0, p1));
                if (util::angular_abs_diff_deg(m.heading_deg, probe_truth) > 1.0) {
                    ledger.fail("canary measure off by more than 1 deg");
                }
            }
        }
    });

    std::this_thread::sleep_until(window_begin);
    out.s0 = server_snap(*f.service);
    std::this_thread::sleep_until(window_end);
    out.s1 = server_snap(*f.service);

    sender.join();
    receiver.join();
    poller.join();
    side.join();

    // ---- output checks (outside the timed region) --------------------
    out.sent = n;
    ledger.attempt(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (!send_ok[k]) {
            ledger.fail("send failed");
            continue;
        }
        if (!answered[k]) {
            ledger.fail("query " + std::to_string(k + 1) + " never answered");
            continue;
        }
        const service::HeadingReply& r = replies[k];
        if (r.member >= static_cast<std::uint32_t>(spec.members)) {
            ledger.fail("reply names member " + std::to_string(r.member));
            continue;
        }
        if (!good_status(r.status)) {
            ledger.fail(std::string("reply status ") + service::to_string(r.status));
            continue;
        }
        if (r.status == service::ReplyStatus::Ok) {
            if (spec.fault_member0 && r.member == 0) {
                ledger.fail("faulted member 0 answered Ok");
                continue;
            }
            const double err =
                util::angular_abs_diff_deg(r.heading_deg, f.truth[r.member]);
            out.max_ok_err_deg = std::max(out.max_ok_err_deg, err);
            if (err > 1.0) {
                ledger.fail("Ok heading off by " + std::to_string(err) + " deg");
                continue;
            }
        }
        const Clock::time_point d = at(due[k]);
        if (in_window(d)) {
            out.query_ms.add(ms_between(d, recv_at[k]));
            out.lag_ms.add(lag_s[k] * 1e3);
            ++out.good_in_window;
        }
    }
    if (out.s1.stats.protocol_errors != 0) {
        ledger.fail("daemon counted " + std::to_string(out.s1.stats.protocol_errors) +
                    " protocol errors");
    }

    if (traced) {
        // One root span per query, due -> reply, parenting the client's
        // codec and send spans (they share the query's request id).
        SpanLog roots(3);
        std::vector<std::uint64_t> root_of(n + 1, 0);
        for (std::size_t k = 0; k < n; ++k) {
            if (!answered[k]) continue;
            SpanRec r{"query", 0, 0, k + 1, to_ns(at(due[k])), to_ns(recv_at[k])};
            r.id = (std::uint64_t{3} << 40) + k + 1;
            root_of[k + 1] = r.id;
            roots.add(std::move(r));
        }
        for (SpanLog* log : {&send_log, &recv_log}) {
            for (SpanRec& s : log->spans()) {
                if (s.group <= n) s.parent = root_of[s.group];
                out.spans.push_back(s);
            }
        }
        for (const SpanRec& s : roots.spans()) out.spans.push_back(s);
    }
    return out;
}

/// The daemon's batch path replayed in process on a mirror fleet, with
/// a span around each public call it makes: request decode, the fleet
/// sweep (engine spans drained from the flight recorder as children),
/// per-member health check, ladder walk on tripped members, reply
/// encode and the client's decode, plus the scrapes' providers.
struct Replay {
    std::uint64_t batches = 0;
    std::uint64_t queries = 0;
    std::uint64_t ladder_walks = 0;
    std::uint64_t sweeps = 0;
    double parallel_efficiency = 0.0;
    double snapshot_ms = 0.0;  ///< mean snapshot_fleet time per encode
    std::size_t snapshot_bytes = 0;
    std::vector<SpanRec> spans;
};

Replay replay_batches(const ServeSpec& spec, const std::vector<double>& headings,
                      double batch_size_mean, double renders_per_batch, double gets_per_batch,
                      double budget_s, Ledger& ledger) {
    Replay out;
    compass::CompassFleet fleet(spec.members);
    const magnetics::EarthField field = site_field();
    for (int i = 0; i < spec.members; ++i) {
        fleet.set_environment(i, field, headings[static_cast<std::size_t>(i)]);
    }
    std::vector<std::unique_ptr<fault::MeasurementSupervisor>> sups;
    for (int i = 0; i < spec.members; ++i) {
        sups.push_back(std::make_unique<fault::MeasurementSupervisor>(fleet.at(i)));
        static_cast<void>(sups.back()->measure());
    }
    fault::FaultInjector injector;
    if (spec.fault_member0) {
        injector.add(stuck_x_detector());
        injector.arm(fleet.at(0));
    }
    static_cast<void>(fleet.measure_all_results(spec.batch_threads));
    RecorderDrain drain(fleet.flight_recorder());

    SpanLog log(4);
    const double m = std::max(1.0, batch_size_mean);
    std::uint64_t member_cursor = 0, render_cursor = 0, get_cursor = 0, next_id = 1;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t b = 0; seconds_between(start, Clock::now()) < budget_s; ++b) {
        const auto size = static_cast<std::size_t>(std::max(
            1.0, std::floor(static_cast<double>(b + 1) * m) - std::floor(static_cast<double>(b) * m)));
        std::vector<std::uint8_t> wire;
        for (std::size_t q = 0; q < size; ++q) {
            const auto bytes = service::encode_request({next_id + q, 0});
            wire.insert(wire.end(), bytes.begin(), bytes.end());
        }
        const std::uint64_t root = log.begin("batch", 0, b + 1);
        std::vector<std::uint64_t> ids;
        {
            const Scoped span(&log, "service.decode_request", root, b + 1);
            service::FrameReader reader;
            reader.feed(wire.data(), wire.size());
            service::Frame frame;
            while (reader.next(frame)) ids.push_back(service::decode_request(frame).request_id);
        }
        next_id += size;
        std::vector<ParentWindow> windows;
        std::vector<compass::FleetResult> results;
        {
            const Scoped span(&log, "core.sweep", root, b + 1);
            results = fleet.measure_all_results(spec.batch_threads);
        }
        windows.push_back(window_of(log.spans().back()));
        ++out.sweeps;

        std::map<int, service::HeadingReply> outcome;
        std::vector<int> member_of;
        for (std::size_t q = 0; q < ids.size(); ++q) {
            const int member = static_cast<int>(member_cursor++ % static_cast<std::uint64_t>(spec.members));
            member_of.push_back(member);
            if (outcome.count(member) != 0) continue;
            service::HeadingReply r;
            r.member = static_cast<std::uint32_t>(member);
            const compass::FleetResult& res = results[static_cast<std::size_t>(member)];
            bool healthy = false;
            if (res.ok) {
                const Scoped span(&log, "fault.health_check", root, b + 1);
                healthy = sups[static_cast<std::size_t>(member)]->monitor()
                              .check(fleet.at(member), res.measurement).ok;
            }
            if (healthy) {
                r.status = service::ReplyStatus::Ok;
                r.heading_deg = res.measurement.heading_deg;
            } else {
                fault::SupervisedMeasurement sm;
                {
                    const Scoped span(&log, "fault.ladder", root, b + 1);
                    sm = sups[static_cast<std::size_t>(member)]->measure();
                }
                windows.push_back(window_of(log.spans().back()));
                ++out.ladder_walks;
                r.heading_deg = sm.heading_deg;
                r.status = sm.status == fault::SupervisedStatus::DegradedSingleAxis
                               ? service::ReplyStatus::Degraded
                           : sm.status == fault::SupervisedStatus::HoldLastGood
                               ? service::ReplyStatus::Stale
                           : sm.status == fault::SupervisedStatus::Failed
                               ? service::ReplyStatus::Error
                               : service::ReplyStatus::Ok;
            }
            outcome[member] = r;
        }
        std::vector<std::uint8_t> reply_wire;
        {
            const Scoped span(&log, "service.encode_reply", root, b + 1);
            for (std::size_t q = 0; q < ids.size(); ++q) {
                service::HeadingReply r = outcome[member_of[q]];
                r.request_id = ids[q];
                const auto bytes = service::encode_reply(r);
                reply_wire.insert(reply_wire.end(), bytes.begin(), bytes.end());
            }
        }
        {
            const Scoped span(&log, "service.decode_reply", root, b + 1);
            service::FrameReader reader;
            reader.feed(reply_wire.data(), reply_wire.size());
            service::Frame frame;
            std::size_t q = 0;
            while (reader.next(frame)) {
                const service::HeadingReply r = service::decode_reply(frame);
                ledger.attempt();
                if (q >= ids.size() || r.request_id != ids[q]) {
                    ledger.fail("replay: reply does not echo its request_id");
                } else if (!good_status(r.status)) {
                    ledger.fail("replay: member not answered");
                } else if (r.status == service::ReplyStatus::Ok &&
                           ((spec.fault_member0 && r.member == 0) ||
                            util::angular_abs_diff_deg(r.heading_deg, headings[r.member]) > 1.0)) {
                    ledger.fail("replay: Ok heading fails its check");
                }
                ++q;
            }
        }
        const auto render = [&](const std::string& path) {
            if (path == "/metrics") {
                const Scoped span(&log, "telemetry.metrics_text", root, b + 1);
                static_cast<void>(telemetry::prometheus_text(fleet.metrics()));
            } else if (path == "/healthz") {
                const Scoped span(&log, "telemetry.health_text", root, b + 1);
                static_cast<void>(fleet.health_text());
            } else {
                const Scoped span(&log, "snapshot.fleet_encode", root, b + 1);
                out.snapshot_bytes = snapshot::snapshot_fleet(fleet).size();
            }
        };
        const auto due = [&](double per_batch) {
            return static_cast<std::uint64_t>(std::floor(static_cast<double>(b + 1) * per_batch));
        };
        for (; render_cursor < due(renders_per_batch); ++render_cursor) {
            render("/metrics");
            render("/healthz");
        }
        for (; get_cursor < due(gets_per_batch); ++get_cursor) render(http_path(spec, get_cursor));
        log.end(root);
        out.queries += ids.size();
        ++out.batches;
        drain.drain(log, windows);
    }
    out.spans = log.spans();
    out.snapshot_ms = mean_ms(name_times(out.spans), "snapshot.fleet_encode");
    if (out.snapshot_ms == 0.0) {
        // This workload never scrapes /snapshot: time two reference
        // encodes of the same fleet instead.
        Samples ms;
        for (int i = 0; i < 2; ++i) {
            const Clock::time_point s0 = Clock::now();
            out.snapshot_bytes = snapshot::snapshot_fleet(fleet).size();
            ms.add(ms_between(s0, Clock::now()));
        }
        out.snapshot_ms = ms.mean();
    }
    out.parallel_efficiency = parallel_efficiency(fleet, spec.batch_threads, 3);
    if (spec.fault_member0) injector.disarm();
    return out;
}

}  // namespace

RunResult run_serve(const Options& opt, Ledger& ledger) {
    const ServeSpec spec = spec_for(opt.workload);
    std::mt19937_64 rng(opt.seed);
    const std::vector<double> headings = member_headings(spec, rng);
    RunResult result;

    auto fixture = std::make_unique<Fixture>();
    if (!opt.trace) {
        // setup_s: median of several complete set-ups; the last one serves.
        Samples setup;
        for (int i = 0; i < kSetups; ++i) {
            fixture = std::make_unique<Fixture>();
            setup.add(build_fixture(*fixture, spec, headings, ledger));
        }
        LoadOutcome o = drive(*fixture, spec, opt.seed, 1.0, opt.seconds, false, ledger);
        const auto resolved = [](const ServerSnap& s) {
            return s.stats.replies_ok + s.stats.replies_degraded + s.stats.replies_error;
        };
        result.metrics = {
            {"query_p50_ms", o.query_ms.quantile(0.5), "ms"},
            {"query_p99_ms", o.query_ms.quantile(0.99), "ms"},
            {"goodput_qps", static_cast<double>(o.good_in_window) / o.window_s, "1/s"},
            {"measure_ms_p50", o.probe_ms.quantile(0.5), "ms"},
            {"fleet_measures_per_s",
             static_cast<double>(resolved(o.s1) - resolved(o.s0)) / o.window_s, "1/s"},
            {"heading_err_max_deg", o.max_ok_err_deg, "deg"},
            {"setup_s", setup.median(), "s"},
        };
        std::printf("serve: %zu queries timed, %zu scrapes, %zu canary measures\n",
                    o.query_ms.size(), o.scrape_ms.size(), o.probe_ms.size());
        fixture.reset();
        result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
        return result;
    }

    // ---- traced run: untraced phase, client-traced phase, replay -----
    build_fixture(*fixture, spec, headings, ledger);
    const std::uint64_t plan_compiles = fixture->plan_compiles;
    LoadOutcome u = drive(*fixture, spec, opt.seed, 1.0, opt.seconds * 0.5, false, ledger);
    LoadOutcome t = drive(*fixture, spec, opt.seed + 1, 0.5, opt.seconds * 0.25, true, ledger);
    std::size_t trace_bytes = 0;
    try {
        trace_bytes = telemetry::IntrospectionServer::body_of(
                          telemetry::IntrospectionServer::http_get(
                              fixture->service->introspection_port(), "/trace"))
                          .size();
    } catch (const std::exception& e) {
        ledger.fail(std::string("/trace scrape: ") + e.what());
    }
    const service::ServiceStats final_stats = fixture->service->stats();
    const double recorder_dropped =
        static_cast<double>(fixture->service->fleet().flight_recorder().dropped());
    fixture.reset();

    const double d_batches = static_cast<double>(u.s1.stats.batches - u.s0.stats.batches);
    const double d_requests = static_cast<double>(u.s1.stats.requests - u.s0.stats.requests);
    const double batch_size_mean = d_batches > 0 ? d_requests / d_batches : 1.0;
    const auto per_batch = [&](std::uint64_t n) {
        return d_batches > 0 ? static_cast<double>(n) / d_batches : 0.0;
    };
    Replay replay = replay_batches(spec, headings, batch_size_mean,
                                   per_batch(u.scrapes_in_window), per_batch(u.http_in_window),
                                   opt.seconds * 0.25, ledger);
    SpanLog ref_log(5);
    const References refs = measure_references(ref_log, replay.ladder_walks == 0);

    const auto times = name_times(replay.spans);
    std::set<std::uint64_t> sweep_ids;
    for (const SpanRec& s : replay.spans) {
        if (s.name == "core.sweep") sweep_ids.insert(s.id);
    }
    double sweep_engine_ns = 0.0;
    for (const SpanRec& s : replay.spans) {
        if (s.name.rfind("engine.", 0) == 0 && sweep_ids.count(s.parent) != 0) {
            sweep_engine_ns += static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    const std::uint64_t steps = compass::compile_plan(compass::CompassConfig{}).total_steps();
    double codec_ns = 0.0;
    for (const char* name : {"service.decode_request", "service.encode_reply", "service.decode_reply"}) {
        const auto it = times.find(name);
        if (it != times.end()) codec_ns += it->second.self_ns;
    }
    const double server_ms =
        u.s1.latency_count > u.s0.latency_count
            ? (u.s1.latency_sum_s - u.s0.latency_sum_s) /
                  static_cast<double>(u.s1.latency_count - u.s0.latency_count) * 1e3
            : 0.0;
    const auto scrape_bytes = [&](const std::string& path, double fallback) {
        const auto it = u.scrape_bytes.find(path);
        return it != u.scrape_bytes.end() ? static_cast<double>(it->second) : fallback;
    };
    const double u_p50 = u.query_ms.quantile(0.5);

    result.metrics = {
        {"service.batch_size_mean", batch_size_mean, "queries"},
        {"service.batches_per_s", d_batches / u.window_s, "1/s"},
        {"service.server_ms_mean", server_ms, "ms"},
        {"service.io_ms_mean", u.query_ms.mean() - server_ms, "ms"},
        {"service.codec_ns_per_query",
         replay.queries ? codec_ns / static_cast<double>(replay.queries) : 0.0, "ns"},
        {"service.shed", static_cast<double>(final_stats.shed), "count"},
        {"service.disconnects", static_cast<double>(final_stats.disconnects), "count"},
        {"service.protocol_errors", static_cast<double>(final_stats.protocol_errors), "count"},
        {"core.sweep_ms", mean_ms(times, "core.sweep"), "ms"},
        {"core.member_measures_per_query",
         d_requests > 0 ? static_cast<double>(u.s1.members_measured - u.s0.members_measured) /
                              d_requests
                        : 0.0,
         "ratio"},
        {"core.parallel_efficiency", replay.parallel_efficiency, "ratio"},
        {"core.plan_compiles", static_cast<double>(plan_compiles), "count"},
        {"sim.ns_per_member_sample",
         replay.sweeps ? sweep_engine_ns / (static_cast<double>(replay.sweeps) * spec.members *
                                            static_cast<double>(steps))
                       : 0.0,
         "ns"},
        {"sim.ns_per_member_sample_n1", refs.n1_ns_per_member_sample, "ns"},
        {"sim.useful_lane_ratio", useful_lane_ratio(spec.members), "ratio"},
        {"sim.member_samples", static_cast<double>(spec.members) * static_cast<double>(steps), "count"},
        {"sim.block_measure_ms", refs.block_measure_ms, "ms"},
        {"sim.scalar_measure_ms", refs.scalar_measure_ms, "ms"},
        {"fault.ladder_walks_per_batch",
         replay.batches ? static_cast<double>(replay.ladder_walks) / static_cast<double>(replay.batches)
                        : 0.0,
         "ratio"},
        {"fault.ladder_ms",
         replay.ladder_walks ? mean_ms(times, "fault.ladder") : refs.ladder_ms, "ms"},
        {"fault.health_check_us", mean_ms(times, "fault.health_check") * 1e3, "us"},
        {"snapshot.fleet_encode_ms", replay.snapshot_ms, "ms"},
        {"telemetry.scrape_bytes.metrics", scrape_bytes("/metrics", 0.0), "bytes"},
        {"telemetry.scrape_bytes.trace", static_cast<double>(trace_bytes), "bytes"},
        {"telemetry.scrape_bytes.snapshot",
         scrape_bytes("/snapshot", static_cast<double>(replay.snapshot_bytes)), "bytes"},
        {"telemetry.recorder_dropped", recorder_dropped, "count"},
        {"telemetry.scrapes_skipped", static_cast<double>(u.scrapes_skipped), "count"},
        {"telemetry.scrape_p50_ms", u.scrape_ms.quantile(0.5), "ms"},
        {"telemetry.scrape_p99_ms", u.scrape_ms.quantile(0.99), "ms"},
        {"telemetry.http_scrape_p50_ms", u.http_ms.quantile(0.5), "ms"},
        {"telemetry.http_scrape_p99_ms", u.http_ms.quantile(0.99), "ms"},
        {"telemetry.trace_overhead", u_p50 > 0 ? t.query_ms.quantile(0.5) / u_p50 : 0.0, "ratio"},
        {"loadgen.lag_p99_ms", u.lag_ms.quantile(0.99), "ms"},
        {"loadgen.sent", static_cast<double>(u.sent), "count"},
    };
    add_self_shares(replay.spans, result.metrics);

    result.spans = std::move(t.spans);
    result.spans.insert(result.spans.end(), replay.spans.begin(), replay.spans.end());
    result.spans.insert(result.spans.end(), ref_log.spans().begin(), ref_log.spans().end());
    return result;
}

}  // namespace perfbench
