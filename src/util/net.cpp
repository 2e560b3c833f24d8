#include "util/net.hpp"

#include "util/task_pool.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <stdexcept>

namespace fxg::util::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw std::runtime_error(std::string("net: ") + what + ": " +
                             std::strerror(errno));
}

sockaddr_in loopback(int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    return addr;
}

bool would_block() noexcept { return errno == EAGAIN || errno == EWOULDBLOCK; }

/// accept() failures that a ready listener keeps reporting until a
/// descriptor or some memory is freed.
bool out_of_resources() noexcept {
    return errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
           errno == ENOMEM;
}

/// Sends until done or the socket would block, retrying EINTR. Returns
/// the bytes written, or -1 (errno set) on a hard error.
long send_some(int fd, const char* data, std::size_t size) noexcept {
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && would_block()) {
            break;
        } else {
            return -1;
        }
    }
    return static_cast<long>(off);
}

}  // namespace

void Fd::reset() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
}

Fd listen_loopback(int port, int backlog) {
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
    if (fd.get() < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in addr = loopback(port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
        throw_errno("bind");
    }
    if (::listen(fd.get(), backlog) < 0) throw_errno("listen");
    return fd;
}

Fd connect_loopback(int port) {
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (fd.get() < 0) throw_errno("socket");
    const sockaddr_in addr = loopback(port);
    int rc;
    do {
        rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) throw_errno("connect");
    return fd;
}

bool send_all(int fd, const void* data, std::size_t size) noexcept {
    return send_some(fd, static_cast<const char*>(data), size) ==
           static_cast<long>(size);
}

long recv_some(int fd, void* buf, std::size_t size) noexcept {
    ssize_t n;
    do {
        n = ::recv(fd, buf, size, 0);
    } while (n < 0 && errno == EINTR);
    return static_cast<long>(n);
}

std::string recv_all(int fd) {
    std::string out;
    char buf[4096];
    long n;
    while ((n = recv_some(fd, buf, sizeof buf)) > 0) {
        out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
}

// ------------------------------------------------------------------ Reactor

struct Reactor::Slot {
    Fd fd;
    Conn conn;
    Clock::time_point deadline{};
    bool dead = false;  ///< close at the end of this pass

    /// Non-blocking drain of the socket into conn.in, bounded per pass
    /// so one fast sender cannot monopolise the loop or the memory.
    /// Returns true when bytes arrived or the peer half-closed.
    bool drain_input() {
        constexpr std::size_t kReadBudget = 64 * 1024;
        char buf[4096];
        const std::size_t before = conn.in.size();
        while (conn.in.size() - before < kReadBudget) {
            const long n = recv_some(fd.get(), buf, sizeof buf);
            if (n > 0) {
                conn.in.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                conn.closing = true;  // EOF: answer what arrived, then close
            } else if (!would_block()) {
                dead = true;  // reset or hard error
            }
            break;
        }
        return conn.in.size() != before || conn.closing;
    }

    /// Non-blocking flush of conn.out; what does not fit waits for
    /// POLLOUT.
    void flush() {
        const long n = send_some(fd.get(), conn.out.data(), conn.out.size());
        if (n < 0) {
            dead = true;  // peer gone (EPIPE, no signal)
        } else {
            conn.out.erase(0, static_cast<std::size_t>(n));
        }
    }
};

Reactor::Reactor(int port, int max_connections, std::string refusal,
                 std::chrono::milliseconds deadline)
    : max_connections_(static_cast<std::size_t>(max_connections)),
      refusal_(std::move(refusal)),
      deadline_(deadline),
      listener_(listen_loopback(port, /*backlog=*/64)) {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(listener_.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        throw_errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);
    int bell[2];
    if (::pipe2(bell, O_NONBLOCK | O_CLOEXEC) < 0) throw_errno("pipe");
    bell_read_ = Fd(bell[0]);
    bell_write_ = Fd(bell[1]);
}

Reactor::~Reactor() { stop(); }

void Reactor::start(TaskPool& pool, Handlers handlers) {
    exited_ = pool.post([this, handlers = std::move(handlers)] { run(handlers); });
}

void Reactor::stop() {
    stop_.store(true, std::memory_order_release);
    ring();
    if (exited_.valid()) exited_.wait();
}

void Reactor::deliver(Mail mail) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        mail_.insert(mail_.end(), std::make_move_iterator(mail.begin()),
                     std::make_move_iterator(mail.end()));
    }
    ring();
}

void Reactor::ring() noexcept {
    // A full pipe already guarantees a pending wakeup; losing this byte
    // is then harmless.
    const char byte = 1;
    ssize_t n;
    do {
        n = ::write(bell_write_.get(), &byte, 1);
    } while (n < 0 && errno == EINTR);
}

void Reactor::run(const Handlers& handlers) {
    std::vector<pollfd> pfds;
    while (!stop_.load(std::memory_order_acquire)) {
        // Slot 0 = listener, slot 1 = doorbell, then one per connection.
        const bool watch_listener =
            Clock::now() >= accept_resume_ &&
            (slots_.size() < max_connections_ || !refusal_.empty());
        pfds.clear();
        pfds.push_back(pollfd{listener_.get(),
                              static_cast<short>(watch_listener ? POLLIN : 0), 0});
        pfds.push_back(pollfd{bell_read_.get(), POLLIN, 0});
        for (const Slot& s : slots_) {
            short events = s.conn.closing ? 0 : POLLIN;
            if (!s.conn.out.empty()) events |= POLLOUT;
            pfds.push_back(pollfd{s.fd.get(), events, 0});
        }
        const std::size_t polled = slots_.size();

        if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                   kPollTimeoutMs) < 0) {
            if (errno == EINTR) continue;
            break;  // poll itself failed; bail out rather than spin
        }
        const Clock::time_point now = Clock::now();

        if ((pfds[1].revents & POLLIN) != 0) {
            char sink[64];
            while (::read(bell_read_.get(), sink, sizeof sink) > 0) {}
            Mail mail;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                mail.swap(mail_);
            }
            for (const auto& [id, bytes] : mail) {
                const auto it = std::find_if(slots_.begin(), slots_.end(),
                                             [&](const Slot& s) { return s.conn.id == id; });
                if (it != slots_.end()) {
                    it->conn.out += bytes;
                } else if (handlers.on_lost) {
                    handlers.on_lost();
                }
            }
        }
        // Accept what the budget allows; refuse the rest when a refusal
        // is configured.
        while ((pfds[0].revents & POLLIN) != 0 &&
               (slots_.size() < max_connections_ || !refusal_.empty())) {
            Fd client(::accept4(listener_.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC));
            if (client.get() < 0) {
                if (errno == EINTR) continue;
                if (out_of_resources()) {
                    accept_resume_ = now + std::chrono::milliseconds(kPollTimeoutMs);
                }
                break;  // EAGAIN: backlog drained
            }
            if (slots_.size() >= max_connections_) {
                static_cast<void>(send_all(client.get(), refusal_.data(), refusal_.size()));
                if (handlers.on_refused) handlers.on_refused();
                continue;  // `client` closes here
            }
            Slot slot;
            slot.fd = std::move(client);
            slot.conn.id = next_id_++;
            slot.deadline = now + deadline_;
            slots_.push_back(std::move(slot));
        }

        for (std::size_t i = 0; i < polled; ++i) {
            Slot& s = slots_[i];
            if (!s.conn.closing &&
                (pfds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
                s.drain_input() && !s.dead && handlers.on_input) {
                handlers.on_input(s.conn);
            }
        }

        // Flush whatever was queued (delivered mail may have gone to
        // any connection), then close the finished ones.
        const std::size_t open = slots_.size();
        for (Slot& s : slots_) {
            if (!s.dead && !s.conn.out.empty()) s.flush();
            if (deadline_.count() > 0 && now >= s.deadline) s.dead = true;
            if (s.dead && !s.conn.out.empty() && handlers.on_lost) handlers.on_lost();
        }
        std::erase_if(slots_, [](const Slot& s) {
            return s.dead || (s.conn.closing && s.conn.out.empty());
        });
        if (slots_.size() < open) accept_resume_ = {};  // a descriptor freed
    }
    slots_.clear();
}

}  // namespace fxg::util::net
