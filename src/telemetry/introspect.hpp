#pragma once

/// \file introspect.hpp
/// Live introspection endpoint: a deliberately minimal HTTP/1.0
/// listener bound to 127.0.0.1, serving the observability surfaces the
/// telemetry layer already renders:
///
///   GET /metrics   Prometheus exposition text (prometheus_text);
///   GET /trace     flight-recorder JSONL (parse_trace_jsonl grammar);
///   GET /healthz   plain-text liveness + supervisor/health state;
///   GET /snapshot  a .fxgsnap state snapshot (binary download).
///
/// The server owns no domain knowledge: each route is a std::function
/// provider the owner (CompassFleet, an example, a test) fills in, so
/// the telemetry library stays below core/fault/snapshot in the
/// dependency order. It is a handler on a util::net::Reactor (DESIGN.md
/// §16) run as one task on a util::TaskPool, apart from compassd's loop
/// so that a slow provider (/snapshot waits for the fleet) stalls no
/// query. stop() joins that task; it MUST return before the pool dies.
///
/// Each connection sends one request line and gets one response. At
/// most kMaxConnections are open (more wait in the kernel backlog) and
/// each is closed kRequestDeadline after its accept, so a stalled client
/// (a slow loris) costs one slot, never the loop.
///
/// One request per connection, no keep-alive, no TLS, loopback only:
/// this is a debugging porthole, not a web server.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fxg::util {
class TaskPool;
namespace net {
class Reactor;
}
}

namespace fxg::telemetry {

/// Route providers. Any that is empty answers 404. Providers are
/// called from the server thread and must be thread-safe against the
/// system they observe; a provider that throws answers 500 with the
/// exception text.
struct IntrospectionHandlers {
    std::function<std::string()> metrics;
    std::function<std::string()> trace;
    std::function<std::string()> healthz;
    std::function<std::vector<std::uint8_t>()> snapshot;
};

class IntrospectionServer {
public:
    /// Concurrently open client connections.
    static constexpr int kMaxConnections = 32;
    /// Wall-clock budget per connection, accept to last byte written.
    static constexpr std::chrono::milliseconds kRequestDeadline{2000};

    explicit IntrospectionServer(IntrospectionHandlers handlers);

    /// Calls stop().
    ~IntrospectionServer();

    IntrospectionServer(const IntrospectionServer&) = delete;
    IntrospectionServer& operator=(const IntrospectionServer&) = delete;

    /// Binds 127.0.0.1:`port` (0 = kernel-assigned, see port()) and
    /// starts the serve loop on `pool`. Throws std::runtime_error on
    /// socket failure; calling start() while running throws.
    void start(util::TaskPool& pool, int port = 0);

    /// Idempotent; wakes the serve loop and blocks until it has exited.
    void stop();

    [[nodiscard]] bool running() const;

    /// The bound port while started; 0 otherwise.
    [[nodiscard]] int port() const;

    /// Blocking loopback GET, for tests and examples: connects to
    /// 127.0.0.1:`port`, sends `GET <path> HTTP/1.0` and returns the
    /// raw response (headers + body). Throws std::runtime_error on
    /// connection failure.
    [[nodiscard]] static std::string http_get(int port, const std::string& path);

    /// The body part of a raw http_get() response (after the first
    /// blank line; the whole input if none).
    [[nodiscard]] static std::string body_of(const std::string& response);

private:
    /// Renders the response for one request line (route dispatch; a
    /// throwing handler becomes a 500).
    [[nodiscard]] std::string build_response(const std::string& line) const;

    IntrospectionHandlers handlers_;

    mutable std::mutex mutex_;
    std::unique_ptr<util::net::Reactor> reactor_;  ///< set while running
};

}  // namespace fxg::telemetry
