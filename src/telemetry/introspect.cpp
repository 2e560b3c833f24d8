#include "telemetry/introspect.hpp"

#include <stdexcept>

#include "util/net.hpp"

namespace fxg::telemetry {

namespace {

std::string make_response(const char* status, const char* content_type,
                          const std::string& body) {
    std::string out = "HTTP/1.0 ";
    out += status;
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: " + std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

}  // namespace

IntrospectionServer::IntrospectionServer(IntrospectionHandlers handlers)
    : handlers_(std::move(handlers)) {}

IntrospectionServer::~IntrospectionServer() { stop(); }

void IntrospectionServer::start(util::TaskPool& pool, int port) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (reactor_ != nullptr) {
        throw std::runtime_error("IntrospectionServer: already running");
    }
    // Past the budget, clients wait in the backlog (no refusal frame).
    reactor_ = std::make_unique<util::net::Reactor>(port, kMaxConnections,
                                                    std::string(), kRequestDeadline);
    util::net::Reactor::Handlers handlers;
    handlers.on_input = [this](util::net::Reactor::Conn& conn) {
        constexpr std::size_t kMaxRequestBytes = 16 * 1024;
        const auto line_end = conn.in.find('\n');
        if (line_end != std::string::npos) {
            conn.out = build_response(conn.in.substr(0, line_end));
            conn.closing = true;
        } else if (conn.in.size() > kMaxRequestBytes) {
            conn.closing = true;  // oversized garbage: close, no response
        }
    };
    reactor_->start(pool, std::move(handlers));
}

void IntrospectionServer::stop() {
    const std::lock_guard<std::mutex> lock(mutex_);
    reactor_.reset();  // the reactor's destructor stops and joins the loop
}

bool IntrospectionServer::running() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reactor_ != nullptr;
}

int IntrospectionServer::port() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reactor_ != nullptr ? reactor_->port() : 0;
}

std::string IntrospectionServer::build_response(const std::string& line) const {
    if (line.rfind("GET ", 0) != 0) {
        return make_response("405 Method Not Allowed", "text/plain",
                             "GET only\n");
    }
    const auto path_end = line.find(' ', 4);
    const std::string path = line.substr(
        4, path_end == std::string::npos ? std::string::npos : path_end - 4);

    try {
        if (path == "/metrics" && handlers_.metrics) {
            return make_response("200 OK", "text/plain; version=0.0.4",
                                 handlers_.metrics());
        }
        if (path == "/trace" && handlers_.trace) {
            return make_response("200 OK", "application/jsonl",
                                 handlers_.trace());
        }
        if (path == "/healthz" && handlers_.healthz) {
            return make_response("200 OK", "text/plain", handlers_.healthz());
        }
        if (path == "/snapshot" && handlers_.snapshot) {
            const std::vector<std::uint8_t> bytes = handlers_.snapshot();
            // bytes.data() may be null when empty — never hand that to
            // the std::string(ptr, len) constructor.
            std::string body;
            if (!bytes.empty()) {
                body.assign(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size());
            }
            return make_response("200 OK", "application/octet-stream", body);
        }
        return make_response("404 Not Found", "text/plain",
                             "unknown path " + path + "\n");
    } catch (const std::exception& e) {
        return make_response("500 Internal Server Error", "text/plain",
                             std::string(e.what()) + "\n");
    }
}

std::string IntrospectionServer::http_get(int port, const std::string& path) {
    const util::net::Fd fd = util::net::connect_loopback(port);
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    static_cast<void>(util::net::send_all(fd.get(), request.data(), request.size()));
    return util::net::recv_all(fd.get());
}

std::string IntrospectionServer::body_of(const std::string& response) {
    const auto pos = response.find("\r\n\r\n");
    if (pos == std::string::npos) return response;
    return response.substr(pos + 4);
}

}  // namespace fxg::telemetry
