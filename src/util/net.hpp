#pragma once

/// \file net.hpp
/// The library's one loopback (127.0.0.1) socket layer, DESIGN.md §16:
/// blocking helpers for clients and tests, and the Reactor that both
/// servers (compassd, introspection) run as handlers. Every socket
/// system call lives in net.cpp. EINTR is always a retry, never EOF;
/// no write raises SIGPIPE, so a vanished peer is an error return.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fxg::util {
class TaskPool;
}

namespace fxg::util::net {

/// An owned file descriptor: closed by the destructor, move-only.
class Fd {
public:
    Fd() = default;
    explicit Fd(int fd) noexcept : fd_(fd) {}
    ~Fd() { reset(); }
    Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
    /// Swaps, so `other` closes the descriptor this one held.
    Fd& operator=(Fd&& other) noexcept {
        std::swap(fd_, other.fd_);
        return *this;
    }

    [[nodiscard]] int get() const noexcept { return fd_; }
    /// Closes the descriptor (idempotent).
    void reset() noexcept;

private:
    int fd_ = -1;
};

/// A non-blocking listener on 127.0.0.1:`port` (0 = kernel-assigned).
/// Throws std::runtime_error on failure.
[[nodiscard]] Fd listen_loopback(int port, int backlog);

/// A blocking connection to 127.0.0.1:`port`. Throws
/// std::runtime_error on failure.
[[nodiscard]] Fd connect_loopback(int port);

/// Writes the whole buffer. Returns false (errno set) when the peer is
/// gone or a non-blocking socket is full.
bool send_all(int fd, const void* data, std::size_t size) noexcept;

/// One recv(): >0 bytes read, 0 at EOF, -1 on error (errno set).
[[nodiscard]] long recv_some(int fd, void* buf, std::size_t size) noexcept;

/// Reads to EOF and returns what arrived; an error (or an SO_RCVTIMEO
/// timeout) ends the read like EOF.
[[nodiscard]] std::string recv_all(int fd);

/// A single-threaded poll loop over a listener, a self-pipe doorbell
/// and a table of connections with input and output buffers. Handlers
/// supply the protocol; the reactor applies the policy:
///
///   budget     at most `max_connections` open. Past it, a non-empty
///              `refusal` is sent (best effort) to each new connection
///              before it is closed; with no refusal the listener is not
///              watched, so new clients wait in the backlog.
///   deadline   a connection is closed `deadline` after its accept
///              (zero = never).
///   doorbell   a self-pipe that wakes the loop for deliver() and stop().
///   back-off   after accept fails for want of descriptors or memory
///              (EMFILE, ENFILE, ENOBUFS, ENOMEM) the listener is not
///              watched until a connection closes or a poll timeout
///              passes, so a ready listener cannot spin the loop.
///
/// Each pass walks only the connections in the poll set it just polled
/// (ones accepted in the pass wait for the next) and closes connections
/// only after the walk, so the table and the poll set never disagree.
class Reactor {
public:
    using Clock = std::chrono::steady_clock;

    /// Poll timeout: the granularity of deadlines and of the back-off.
    static constexpr int kPollTimeoutMs = 100;

    struct Conn {
        std::uint64_t id = 0;  ///< unique for the reactor's lifetime
        std::string in;        ///< received bytes not yet consumed
        std::string out;       ///< bytes not yet sent
        bool closing = false;  ///< read no more; close once `out` is sent
    };

    /// Called on the loop thread; any may be empty.
    struct Handlers {
        /// Bytes arrived in `conn.in`, or EOF set `closing`.
        std::function<void(Conn&)> on_input;
        /// A connection past the budget was refused.
        std::function<void()> on_refused;
        /// Output was lost: its connection died (error, deadline) before
        /// the output was sent, or closed before deliver()ed bytes came.
        std::function<void()> on_lost;
    };

    /// Reply bytes for one connection, by Conn::id.
    using Mail = std::vector<std::pair<std::uint64_t, std::string>>;

    /// Binds the listener and the doorbell; throws std::runtime_error.
    Reactor(int port, int max_connections, std::string refusal,
            std::chrono::milliseconds deadline);
    /// Calls stop().
    ~Reactor();

    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    [[nodiscard]] int port() const noexcept { return port_; }

    /// Runs the loop as one task on `pool` until stop(). Call once.
    void start(TaskPool& pool, Handlers handlers);

    /// Idempotent: rings the doorbell and blocks until the loop has
    /// exited and closed every connection. Owner thread only.
    void stop();

    /// Thread-safe: queues bytes for connections and rings the doorbell;
    /// the loop appends them to each connection's output.
    void deliver(Mail mail);

private:
    struct Slot;

    void run(const Handlers& handlers);
    void ring() noexcept;

    const std::size_t max_connections_;
    const std::string refusal_;
    const std::chrono::milliseconds deadline_;
    Fd listener_;
    Fd bell_read_, bell_write_;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    std::vector<Slot> slots_;  ///< loop thread only
    std::uint64_t next_id_ = 1;
    Clock::time_point accept_resume_{};  ///< listener ignored until then

    std::future<void> exited_;  ///< ready once the loop task is done
    std::mutex mutex_;
    Mail mail_;  ///< delivered, not yet routed (guarded by mutex_)
};

}  // namespace fxg::util::net
