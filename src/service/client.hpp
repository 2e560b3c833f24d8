#pragma once

/// \file client.hpp
/// Blocking loopback client for the compassd protocol, used by tests,
/// the load-generator bench and examples. One QueryClient owns one
/// persistent connection; queries may be pipelined (send() repeatedly,
/// then recv() each reply) or issued synchronously with query().
///
/// Socket I/O goes through the util::net blocking helpers, which retry
/// EINTR and never raise SIGPIPE — a daemon shutting down underneath the
/// client produces ProtocolError / std::runtime_error.

#include <cstdint>

#include "service/protocol.hpp"
#include "util/net.hpp"

namespace fxg::service {

class QueryClient {
public:
    /// Connects to 127.0.0.1:`port`; throws std::runtime_error on
    /// failure. The destructor closes the connection.
    explicit QueryClient(int port);

    QueryClient(const QueryClient&) = delete;
    QueryClient& operator=(const QueryClient&) = delete;

    /// Sends one HeadingRequest (does not wait for the reply).
    void send(std::uint64_t request_id);

    /// Reads one reply frame (blocking). Throws ProtocolError on a
    /// malformed frame, std::runtime_error when the server hung up.
    [[nodiscard]] HeadingReply recv();

    /// send() + recv(): one synchronous round trip. The reply's
    /// request_id is verified against `request_id`.
    [[nodiscard]] HeadingReply query(std::uint64_t request_id);

    /// The raw connected socket (tests use it to simulate abrupt
    /// disconnects and half-written frames).
    [[nodiscard]] int fd() const noexcept { return fd_.get(); }

    /// Closes the connection (idempotent; the destructor also closes).
    void close() noexcept;

private:
    util::net::Fd fd_;
    FrameReader reader_;
};

}  // namespace fxg::service
