/// \file net_test.cpp
/// The loopback socket layer (util/net): the blocking helpers survive
/// EINTR and vanished peers; the Reactor keeps its connection table and
/// poll set in step when accepts and drops land in one pass, parks
/// clients past its budget in the backlog, and routes delivered mail to
/// its connection or reports it lost. Budget refusal, deadlines and
/// prompt stop are exercised through the two servers in service_test.cpp
/// and introspect_test.cpp.

#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <chrono>
#include <csignal>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "util/net.hpp"
#include "util/task_pool.hpp"

using namespace fxg;
using util::net::Reactor;

namespace {

/// SIGUSR1 handler installed WITHOUT SA_RESTART, so a blocking recv/
/// send on the signalled thread returns EINTR instead of restarting —
/// the exact condition the helpers must survive.
void install_noop_sigusr1() {
    struct sigaction sa{};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);
}

/// Replies with the first line it receives, then closes.
void echo_line(Reactor::Conn& conn) {
    const auto eol = conn.in.find('\n');
    if (eol == std::string::npos) return;
    conn.out = conn.in.substr(0, eol + 1);
    conn.closing = true;
}

void send_text(int fd, const std::string& text) {
    ASSERT_TRUE(util::net::send_all(fd, text.data(), text.size()));
}

/// True when `fd` becomes readable within `ms`.
bool readable_within(int fd, int ms) {
    pollfd pfd{fd, POLLIN, 0};
    return ::poll(&pfd, 1, ms) == 1;
}

}  // namespace

// ------------------------------------------------------- blocking helpers

TEST(NetTest, RecvAllRetriesEintrInsteadOfTruncating) {
    install_noop_sigusr1();
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    std::string received;
    std::thread reader([&] { received = util::net::recv_all(sv[0]); });
    const pthread_t reader_handle = reader.native_handle();

    // First half, then a burst of signals at the (likely blocked)
    // reader, then the second half. The old `EINTR == EOF` bug returns
    // early with only the first half; the fix retries and reads on.
    const std::string first(4096, 'a'), second(4096, 'b');
    ASSERT_TRUE(util::net::send_all(sv[1], first.data(), first.size()));
    for (int i = 0; i < 20; ++i) {
        pthread_kill(reader_handle, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(util::net::send_all(sv[1], second.data(), second.size()));
    ::shutdown(sv[1], SHUT_WR);
    reader.join();

    EXPECT_EQ(received.size(), first.size() + second.size());
    EXPECT_EQ(received, first + second);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(NetTest, SendAllSurvivesPeerGoneWithoutSigpipe) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ::close(sv[0]);  // peer vanishes before we write

    // A plain write here raises SIGPIPE and kills the test process
    // outright; the helper reports failure and lives.
    const std::string body(64 * 1024, 'x');
    EXPECT_FALSE(util::net::send_all(sv[1], body.data(), body.size()));
    ::close(sv[1]);
}

TEST(NetTest, SendAllRetriesEintrAcrossAFullSocketBuffer) {
    install_noop_sigusr1();
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    // A payload much larger than the socket buffer forces send() to
    // block partway; signals during the stall force EINTR returns.
    const std::string payload(1 << 20, 'z');
    std::atomic<bool> write_ok{false};
    std::thread writer([&] {
        write_ok = util::net::send_all(sv[1], payload.data(), payload.size());
        ::shutdown(sv[1], SHUT_WR);
    });
    const pthread_t writer_handle = writer.native_handle();
    for (int i = 0; i < 20; ++i) {
        pthread_kill(writer_handle, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string received = util::net::recv_all(sv[0]);
    writer.join();

    EXPECT_TRUE(write_ok.load());
    EXPECT_EQ(received.size(), payload.size());
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---------------------------------------------------------------- reactor

TEST(ReactorTest, AcceptsInTheSamePassAsDropsKeepConnectionsApart) {
    // Regression for the accept-vs-poll-set desync: a pass that drops
    // finished connections while it accepts new ones must still pair
    // every connection with its own readiness and its own bytes.
    constexpr int kOld = 4, kNew = 4;
    util::TaskPool pool;
    Reactor reactor(0, 64, std::string(), std::chrono::milliseconds(0));

    std::atomic<int> lines{0};
    std::atomic<bool> stalled{false};
    std::promise<void> release;
    const std::shared_future<void> gate = release.get_future().share();
    Reactor::Handlers handlers;
    handlers.on_input = [&](Reactor::Conn& conn) {
        if (conn.in == "stall") {
            stalled.store(true);
            gate.wait();
            return;
        }
        lines.fetch_add(1);
        echo_line(conn);
    };
    reactor.start(pool, handlers);

    // The old connections are accepted and have been polled once.
    std::vector<util::net::Fd> old_clients;
    for (int i = 0; i < kOld; ++i) {
        old_clients.push_back(util::net::connect_loopback(reactor.port()));
        send_text(old_clients.back().get(), "x");
    }
    while (lines.load() < kOld) std::this_thread::yield();

    // Hold the loop inside a handler while every old connection finishes
    // its line and new clients queue up, so the next pass sees both.
    const util::net::Fd staller = util::net::connect_loopback(reactor.port());
    send_text(staller.get(), "stall");
    while (!stalled.load()) std::this_thread::yield();
    for (int i = 0; i < kOld; ++i) {
        send_text(old_clients[static_cast<std::size_t>(i)].get(),
                  "old-" + std::to_string(i) + "\n");
    }
    std::vector<util::net::Fd> new_clients;
    for (int i = 0; i < kNew; ++i) {
        new_clients.push_back(util::net::connect_loopback(reactor.port()));
        send_text(new_clients.back().get(), "new-" + std::to_string(i) + "\n");
    }
    release.set_value();

    for (int i = 0; i < kOld; ++i) {
        EXPECT_EQ(util::net::recv_all(old_clients[static_cast<std::size_t>(i)].get()),
                  "xold-" + std::to_string(i) + "\n");
    }
    for (int i = 0; i < kNew; ++i) {
        EXPECT_EQ(util::net::recv_all(new_clients[static_cast<std::size_t>(i)].get()),
                  "new-" + std::to_string(i) + "\n");
    }
    reactor.stop();
}

TEST(ReactorTest, FullTableParksNewClientsInTheBacklog) {
    // With no refusal frame, a client past the budget is neither refused
    // nor closed: it waits in the backlog until a slot frees.
    util::TaskPool pool;
    Reactor reactor(0, 1, std::string(), std::chrono::milliseconds(0));
    Reactor::Handlers handlers;
    handlers.on_input = echo_line;
    reactor.start(pool, handlers);

    const util::net::Fd holder = util::net::connect_loopback(reactor.port());
    send_text(holder.get(), "a");  // holds the only slot
    const util::net::Fd parked = util::net::connect_loopback(reactor.port());
    send_text(parked.get(), "b\n");
    EXPECT_FALSE(readable_within(parked.get(), 3 * Reactor::kPollTimeoutMs));

    send_text(holder.get(), "\n");
    EXPECT_EQ(util::net::recv_all(holder.get()), "a\n");
    EXPECT_EQ(util::net::recv_all(parked.get()), "b\n");
    reactor.stop();
}

TEST(ReactorTest, DeliveredMailForAClosedConnectionIsReportedLost) {
    // Replies handed over from another thread reach their connection;
    // a reply whose connection has already closed is reported, not sent
    // elsewhere.
    util::TaskPool pool;
    Reactor reactor(0, 4, std::string(), std::chrono::milliseconds(0));
    std::atomic<int> lost{0};
    std::atomic<std::uint64_t> last_id{0};
    Reactor::Handlers handlers;
    handlers.on_input = [&](Reactor::Conn& conn) { last_id.store(conn.id); };
    handlers.on_lost = [&] { lost.fetch_add(1); };
    reactor.start(pool, handlers);

    const util::net::Fd client = util::net::connect_loopback(reactor.port());
    send_text(client.get(), "?");
    while (last_id.load() == 0) std::this_thread::yield();
    reactor.deliver({{last_id.load(), "reply"}, {last_id.load() + 100, "stray"}});

    char buf[5];
    ASSERT_TRUE(readable_within(client.get(), 5000));
    EXPECT_EQ(util::net::recv_some(client.get(), buf, sizeof buf), 5);
    EXPECT_EQ(std::string(buf, sizeof buf), "reply");
    EXPECT_EQ(lost.load(), 1);
    reactor.stop();
}
