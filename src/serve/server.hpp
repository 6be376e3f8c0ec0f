// The tinysdr_serve daemon's transport: a single-listener NDJSON server
// over a Unix-domain socket or local (127.0.0.1) TCP, plus the runner
// thread that drains the engine's job queue.
//
// One thread polls the listener and every open connection (up to a fixed
// cap), each with its own request buffer and reply buffer, so a client
// that is idle, polls, or does not read its replies never holds up
// another; jobs run on the runner thread. Replies are sent as the socket
// takes them, and a connection whose unsent replies pass kMaxRequestLine
// is not read until its client catches up, so its memory stays bounded.
// Tests run serve_forever() on a std::thread, speak the protocol over a
// socketpair-style client, then stop() — no separate process needed.
#pragma once

#include <atomic>
#include <string>
#include <thread>

#include "serve/protocol.hpp"

namespace tinysdr::serve {

class Engine;

struct ServerConfig {
  /// Unix-domain socket path; a stale file at the path is replaced.
  std::string unix_socket;
  /// Loopback TCP port; 0 picks an ephemeral port (read it back with
  /// tcp_port()), -1 disables TCP. Exactly one transport must be chosen.
  int tcp_port = -1;
};

class Server {
 public:
  Server(Engine& engine, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the job-runner thread. False (with a reason)
  /// on any socket failure; the server is then inert.
  [[nodiscard]] bool start(std::string& error);

  /// Accept/serve until a shutdown request arrives or stop() is called.
  void serve_forever();

  /// Thread-safe: unblocks serve_forever() and stops the runner.
  void stop();

  /// Resolved TCP port (after start() with tcp_port == 0).
  [[nodiscard]] int tcp_port() const { return resolved_port_; }

 private:
  /// One client's unparsed request bytes and unsent reply bytes.
  struct Connection {
    std::string in;
    std::string out;
    bool closing = false;  ///< closes once `out` is sent
  };

  void runner_loop();
  /// One recv into the connection's request buffer, then an answer to each
  /// complete line appended to its reply buffer. False when the connection
  /// is to close once its replies are sent.
  bool read_requests(int fd, Connection& conn);

  Engine* engine_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int resolved_port_ = -1;
  std::atomic<bool> stop_{false};
  std::thread runner_;
};

}  // namespace tinysdr::serve
