#include "service/client.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace fxg::service {

QueryClient::QueryClient(int port) : fd_(util::net::connect_loopback(port)) {}

void QueryClient::close() noexcept { fd_.reset(); }

void QueryClient::send(std::uint64_t request_id) {
    const std::vector<std::uint8_t> bytes =
        encode_request(HeadingRequest{request_id, 0});
    if (!util::net::send_all(fd_.get(), bytes.data(), bytes.size())) {
        throw std::runtime_error(std::string("QueryClient: send: ") +
                                 std::strerror(errno));
    }
}

HeadingReply QueryClient::recv() {
    Frame frame;
    while (!reader_.next(frame)) {
        std::uint8_t buf[4096];
        const long n = util::net::recv_some(fd_.get(), buf, sizeof buf);
        if (n <= 0) {
            throw std::runtime_error(
                n == 0 ? "QueryClient: server closed the connection"
                       : std::string("QueryClient: recv: ") + std::strerror(errno));
        }
        reader_.feed(buf, static_cast<std::size_t>(n));
    }
    return decode_reply(frame);
}

HeadingReply QueryClient::query(std::uint64_t request_id) {
    send(request_id);
    const HeadingReply reply = recv();
    if (reply.request_id != request_id) {
        throw ProtocolError("QueryClient: reply for request " +
                            std::to_string(reply.request_id) + ", expected " +
                            std::to_string(request_id));
    }
    return reply;
}

}  // namespace fxg::service
