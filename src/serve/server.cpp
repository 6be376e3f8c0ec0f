#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "serve/engine.hpp"

namespace tinysdr::serve {

namespace {

// Open client connections served at once; more wait to be accepted.
constexpr std::size_t kMaxConnections = 64;

/// Send what the socket takes now of `out` without blocking and drop it
/// from the front. False when the connection failed.
bool flush(int fd, std::string& out) {
  while (!out.empty()) {
    const ssize_t n =
        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    out.erase(0, static_cast<std::size_t>(n));
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

bool Server::read_requests(int fd, Connection& conn) {
  char chunk[4096];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  if (n < 0) return errno == EINTR;
  if (n == 0) return false;  // client hung up
  conn.in.append(chunk, static_cast<std::size_t>(n));

  for (;;) {
    const std::size_t newline = conn.in.find('\n');
    const std::size_t line_bytes =
        newline == std::string::npos ? conn.in.size() : newline;
    if (line_bytes > kMaxRequestLine) {
      conn.out += "{\"ok\":false,\"error\":\"request line exceeds " +
                  std::to_string(kMaxRequestLine) + " bytes\"}\n";
      return false;
    }
    if (newline == std::string::npos) return true;
    const std::string line = conn.in.substr(0, newline);
    conn.in.erase(0, newline + 1);
    if (line.empty()) continue;
    Response response = handle_line(*engine_, line);
    for (const std::string& l : response.lines) {
      conn.out += l;
      conn.out += "\n";
    }
    if (response.shutdown) {
      stop();
      return false;
    }
  }
}

void Server::serve_forever() {
  // polls[0] is the listener; polls[i] and conns[i] are connection i's.
  std::vector<pollfd> polls{{listen_fd_, POLLIN, 0}};
  std::vector<Connection> conns(1);
  while (!stop_.load()) {
    // At the cap, new clients wait in the listen backlog. A connection
    // with more than a request line's worth of unsent replies is not read
    // until its client takes some. The timeout lets the loop see stop().
    polls[0].events = polls.size() > kMaxConnections ? 0 : POLLIN;
    for (std::size_t i = 1; i < polls.size(); ++i) {
      const std::string& out = conns[i].out;
      polls[i].events = static_cast<short>(
          (conns[i].closing || out.size() > kMaxRequestLine ? 0 : POLLIN) |
          (out.empty() ? 0 : POLLOUT));
    }
    if (::poll(polls.data(), polls.size(), 100) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t i = polls.size() - 1; i > 0; --i) {
      if (polls[i].revents == 0) continue;
      Connection& conn = conns[i];
      const int fd = polls[i].fd;
      const bool readable = (polls[i].events & POLLIN) != 0 &&
                            (polls[i].revents & (POLLIN | POLLHUP)) != 0;
      if (readable && !stop_.load() && !read_requests(fd, conn))
        conn.closing = true;
      // A closing connection stays until its replies are sent.
      if (flush(fd, conn.out) && !(conn.closing && conn.out.empty()) &&
          (polls[i].revents & (POLLERR | POLLNVAL)) == 0)
        continue;
      ::close(fd);
      polls.erase(polls.begin() + static_cast<std::ptrdiff_t>(i));
      conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
    }
    const int fd = polls[0].revents & POLLIN
                       ? ::accept(listen_fd_, nullptr, nullptr)
                       : -1;
    if (fd >= 0) {
      polls.push_back({fd, POLLIN, 0});
      conns.emplace_back();
    }
  }
  for (std::size_t i = 1; i < polls.size(); ++i) {
    (void)flush(polls[i].fd, conns[i].out);  // e.g. the shutdown reply
    ::close(polls[i].fd);
  }
}

void Server::stop() {
  if (stop_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

}  // namespace tinysdr::serve
