#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "serve/engine.hpp"

namespace tinysdr::serve {

namespace {

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(Engine& engine, ServerConfig config)
    : engine_(&engine), config_(std::move(config)) {}

Server::~Server() {
  stop();
  if (runner_.joinable()) runner_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!config_.unix_socket.empty()) ::unlink(config_.unix_socket.c_str());
}

bool Server::start(std::string& error) {
  const bool want_unix = !config_.unix_socket.empty();
  const bool want_tcp = config_.tcp_port >= 0;
  if (want_unix == want_tcp) {
    error = "choose exactly one of --socket and --tcp";
    return false;
  }

  if (want_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_socket.size() >= sizeof(addr.sun_path)) {
      error = "socket path too long: " + config_.unix_socket;
      return false;
    }
    std::strncpy(addr.sun_path, config_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = "socket(): " + std::string(std::strerror(errno));
      return false;
    }
    ::unlink(config_.unix_socket.c_str());  // replace a stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error = "bind(" + config_.unix_socket +
              "): " + std::string(std::strerror(errno));
      return false;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = "socket(): " + std::string(std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error = "bind(127.0.0.1:" + std::to_string(config_.tcp_port) +
              "): " + std::string(std::strerror(errno));
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0)
      resolved_port_ = ntohs(bound.sin_port);
  }

  if (::listen(listen_fd_, 16) != 0) {
    error = "listen(): " + std::string(std::strerror(errno));
    return false;
  }
  runner_ = std::thread([this] { runner_loop(); });
  return true;
}

void Server::runner_loop() {
  while (!stop_.load()) {
    if (engine_->wait_for_job(std::chrono::milliseconds(100)))
      engine_->run_next();
  }
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (!stop_.load()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client hung up
    buffer.append(chunk, static_cast<std::size_t>(n));

    for (;;) {
      const std::size_t newline = buffer.find('\n');
      const std::size_t line_bytes =
          newline == std::string::npos ? buffer.size() : newline;
      if (line_bytes > kMaxRequestLine) {
        (void)send_all(fd, "{\"ok\":false,\"error\":\"request line exceeds " +
                               std::to_string(kMaxRequestLine) +
                               " bytes\"}\n");
        return;
      }
      if (newline == std::string::npos) break;
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      Response response = handle_line(*engine_, line);
      std::string out;
      for (const std::string& l : response.lines) {
        out += l;
        out += "\n";
      }
      if (!send_all(fd, out)) return;
      if (response.shutdown) {
        stop();
        return;
      }
    }
  }
}

void Server::serve_forever() {
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void Server::stop() {
  if (stop_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

}  // namespace tinysdr::serve
