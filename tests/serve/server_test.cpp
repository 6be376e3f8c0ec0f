// The NDJSON protocol (handle_line, no sockets) and the full daemon
// transport (Unix socket server on a thread, raw POSIX client) — including
// the tentpole contract: bytes fetched through the daemon are identical to
// the in-process engine's result document.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "phy/registry.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace tinysdr::serve {
namespace {

constexpr std::string_view kSmallJob =
    R"({"schema":"tinysdr-job-v1","name":"wire",
        "sweeps":[{"phy":"ble","rssi":[-95,-92],"trials":4,
                   "payload_bytes":8,"base_seed":3}]})";

std::string submit_line(std::string_view job) {
  std::string line{R"({"type":"submit","job":)"};
  for (char c : job) line += (c == '\n' ? ' ' : c);
  line += "}";
  return line;
}

TEST(Protocol, RejectsJunkWithoutCrashing) {
  Engine engine{phy::Registry::builtin(), {}};
  for (const char* junk :
       {"", "not json", "[1,2,3]", "{\"type\":\"explode\"}",
        R"({"type":"submit"})", R"({"type":"submit","job":{}})",
        R"({"type":"status"})", R"({"type":"status","id":999})",
        R"({"type":"result","id":42})"}) {
    Response r = handle_line(engine, junk);
    ASSERT_EQ(r.lines.size(), 1u) << junk;
    EXPECT_NE(r.lines[0].find("\"ok\":false"), std::string::npos) << junk;
    EXPECT_FALSE(r.shutdown);
  }
}

TEST(Protocol, RejectsDeeplyNestedRequestWithoutCrashing) {
  // One line of '[' would overflow an unbounded recursive parser's stack
  // and take the daemon down with it.
  Engine engine{phy::Registry::builtin(), {}};
  for (const std::string& line :
       {std::string(100000, '['),
        R"({"type":"status","id":)" + std::string(100000, '[')}) {
    Response r = handle_line(engine, line);
    ASSERT_EQ(r.lines.size(), 1u);
    EXPECT_NE(r.lines[0].find("\"ok\":false"), std::string::npos);
  }
}

TEST(Protocol, RefusesIdsThatAreNotExactJobIds) {
  Engine engine{phy::Registry::builtin(), {}};
  ASSERT_TRUE(handle_line(engine, submit_line(kSmallJob)).submitted);
  // 1e300 does not fit a uint64 and 1.5/2.5 are not integers: none may be
  // cast into a job id (job 1 exists, so truncating 1.5 would find it).
  for (const char* type : {"status", "result"}) {
    for (const char* id : {"1e300", "2.5", "1.5", "0", "-1", "\"1\"",
                           "9007199254740994"}) {
      const std::string line = std::string(R"({"type":")") + type +
                               R"(","id":)" + id + "}";
      Response r = handle_line(engine, line);
      ASSERT_EQ(r.lines.size(), 1u) << line;
      EXPECT_NE(r.lines[0].find("missing or bad 'id'"), std::string::npos)
          << line << " -> " << r.lines[0];
    }
  }
  Response ok = handle_line(engine, R"({"type":"status","id":1})");
  ASSERT_EQ(ok.lines.size(), 1u);
  EXPECT_NE(ok.lines[0].find("\"ok\":true"), std::string::npos);
}

TEST(Protocol, SubmitStatusResultLifecycle) {
  Engine engine{phy::Registry::builtin(), {}};
  Response submitted = handle_line(engine, submit_line(kSmallJob));
  ASSERT_EQ(submitted.lines.size(), 1u);
  EXPECT_TRUE(submitted.submitted);
  EXPECT_NE(submitted.lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(submitted.lines[0].find("\"id\":1"), std::string::npos);

  // Result before execution: a polite not-ready error carrying the state.
  Response early = handle_line(engine, R"({"type":"result","id":1})");
  ASSERT_EQ(early.lines.size(), 1u);
  EXPECT_NE(early.lines[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(early.lines[0].find("queued"), std::string::npos);

  engine.run_all();

  Response status = handle_line(engine, R"({"type":"status","id":1})");
  ASSERT_EQ(status.lines.size(), 1u);
  EXPECT_NE(status.lines[0].find("\"state\":\"done\""), std::string::npos);

  // The result response is a header line plus the raw document line —
  // verbatim engine bytes, so daemon clients inherit byte-identity.
  Response result = handle_line(engine, R"({"type":"result","id":1})");
  ASSERT_EQ(result.lines.size(), 2u);
  EXPECT_NE(result.lines[0].find("\"lines\":1"), std::string::npos);
  EXPECT_EQ(result.lines[1], engine.result_json(1).value_or(""));

  Response stats = handle_line(engine, R"({"type":"stats"})");
  ASSERT_EQ(stats.lines.size(), 1u);
  EXPECT_NE(stats.lines[0].find("serve.cache.misses"), std::string::npos);

  Response bye = handle_line(engine, R"({"type":"shutdown"})");
  EXPECT_TRUE(bye.shutdown);
}

/// Minimal blocking NDJSON client for the socket test.
class TestClient {
 public:
  explicit TestClient(const std::string& path, timeval timeout = {30, 0}) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    // A daemon that never answers or reads fails the test instead of
    // hanging it.
    if (fd_ >= 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  bool send_raw(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  bool read_line(std::string& line) {
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

TEST(Server, DaemonResultBytesMatchInProcessEngine) {
  // Reference: the same job through a plain in-process engine.
  Engine reference{phy::Registry::builtin(), {}};
  std::string error;
  auto ref_id = reference.submit_json(kSmallJob, error);
  ASSERT_TRUE(ref_id.has_value()) << error;
  reference.run_all();
  const std::string reference_bytes =
      reference.result_json(*ref_id).value_or("");
  ASSERT_FALSE(reference_bytes.empty());

  const std::string socket_path = testing::TempDir() + "serve_test.sock";
  Engine engine{phy::Registry::builtin(), {}};
  ServerConfig config;
  config.unix_socket = socket_path;
  Server server{engine, config};
  ASSERT_TRUE(server.start(error)) << error;
  std::thread accept_thread{[&server] { server.serve_forever(); }};

  {
    TestClient client{socket_path};
    ASSERT_TRUE(client.connected());
    std::string reply;

    ASSERT_TRUE(client.send_line(R"({"type":"ping"})"));
    ASSERT_TRUE(client.read_line(reply));
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos);

    ASSERT_TRUE(client.send_line(submit_line(kSmallJob)));
    ASSERT_TRUE(client.read_line(reply));
    ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;

    // Poll until the runner thread finishes the job.
    for (;;) {
      ASSERT_TRUE(client.send_line(R"({"type":"status","id":1})"));
      ASSERT_TRUE(client.read_line(reply));
      if (reply.find("\"state\":\"done\"") != std::string::npos) break;
      ASSERT_EQ(reply.find("\"state\":\"failed\""), std::string::npos)
          << reply;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    std::string header;
    std::string body;
    ASSERT_TRUE(client.send_line(R"({"type":"result","id":1})"));
    ASSERT_TRUE(client.read_line(header));
    ASSERT_TRUE(client.read_line(body));
    EXPECT_NE(header.find("\"ok\":true"), std::string::npos);
    // The tentpole contract, over the wire.
    EXPECT_EQ(body, reference_bytes);

    ASSERT_TRUE(client.send_line(R"({"type":"shutdown"})"));
    ASSERT_TRUE(client.read_line(reply));
    EXPECT_NE(reply.find("\"stopping\":true"), std::string::npos);
  }

  accept_thread.join();
  ::unlink(socket_path.c_str());
}

TEST(Server, OverlongRequestLineIsRefusedAndTheConnectionClosed) {
  const std::string socket_path = testing::TempDir() + "serve_long.sock";
  Engine engine{phy::Registry::builtin(), {}};
  ServerConfig config;
  config.unix_socket = socket_path;
  Server server{engine, config};
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  std::thread accept_thread{[&server] { server.serve_forever(); }};

  {
    // One byte over the cap and still no newline: the daemon answers
    // once and hangs up instead of buffering the rest.
    TestClient client{socket_path};
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_raw(std::string(kMaxRequestLine + 1, ' ')));
    std::string reply;
    ASSERT_TRUE(client.read_line(reply));
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("request line exceeds"), std::string::npos);
    EXPECT_FALSE(client.read_line(reply));  // connection closed
  }
  {
    // The daemon itself is unharmed and serves the next client.
    TestClient client{socket_path};
    ASSERT_TRUE(client.connected());
    std::string reply;
    ASSERT_TRUE(client.send_line(R"({"type":"ping"})"));
    ASSERT_TRUE(client.read_line(reply));
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos);
    ASSERT_TRUE(client.send_line(R"({"type":"shutdown"})"));
    ASSERT_TRUE(client.read_line(reply));
  }

  accept_thread.join();
  ::unlink(socket_path.c_str());
}

/// Asks for a ping on `client` and reports whether the pong came back.
bool pinged(TestClient& client) {
  std::string reply;
  return client.send_line(R"({"type":"ping"})") && client.read_line(reply) &&
         reply.find("\"pong\":true") != std::string::npos;
}

TEST(Server, IdleClientDoesNotHoldUpAnother) {
  const std::string socket_path = testing::TempDir() + "serve_idle.sock";
  Engine engine{phy::Registry::builtin(), {}};
  ServerConfig config;
  config.unix_socket = socket_path;
  Server server{engine, config};
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  std::thread accept_thread{[&server] { server.serve_forever(); }};

  {
    // The first client is served once, then goes quiet halfway through a
    // request line, as a client polling over a held connection does
    // between polls.
    TestClient idle{socket_path};
    ASSERT_TRUE(idle.connected());
    EXPECT_TRUE(pinged(idle));
    ASSERT_TRUE(idle.send_raw(R"({"type":)"));

    TestClient other{socket_path};
    ASSERT_TRUE(other.connected());
    EXPECT_TRUE(pinged(other));

    // The half line stayed in the idle client's own buffer.
    ASSERT_TRUE(idle.send_raw("\"ping\"}\n"));
    std::string reply;
    ASSERT_TRUE(idle.read_line(reply));
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos) << reply;
  }

  server.stop();
  accept_thread.join();
  ::unlink(socket_path.c_str());
}

TEST(Server, UnreadRepliesDoNotStallAnotherClient) {
  const std::string socket_path = testing::TempDir() + "serve_unread.sock";
  Engine engine{phy::Registry::builtin(), {}};
  ServerConfig config;
  config.unix_socket = socket_path;
  Server server{engine, config};
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  std::thread accept_thread{[&server] { server.serve_forever(); }};

  {
    // More replies than a socket buffer holds, none of them read yet.
    constexpr std::size_t kRequests = 5000;
    TestClient flooder{socket_path};
    ASSERT_TRUE(flooder.connected());
    std::string requests;
    for (std::size_t i = 0; i < kRequests; ++i)
      requests += "{\"type\":\"stats\"}\n";
    EXPECT_TRUE(flooder.send_raw(requests));

    TestClient other{socket_path, timeval{1, 0}};
    ASSERT_TRUE(other.connected());
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(pinged(other));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));

    // Every reply is still delivered once the client reads.
    std::size_t replies = 0;
    std::string reply;
    while (replies < kRequests && flooder.read_line(reply) &&
           reply.find("\"stats\"") != std::string::npos)
      ++replies;
    EXPECT_EQ(replies, kRequests);
  }

  server.stop();
  accept_thread.join();
  ::unlink(socket_path.c_str());
}

TEST(Server, StopReturnsWhileAClientIsIdle) {
  const std::string socket_path = testing::TempDir() + "serve_stop.sock";
  Engine engine{phy::Registry::builtin(), {}};
  ServerConfig config;
  config.unix_socket = socket_path;
  Server server{engine, config};
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  std::promise<void> returned;
  std::future<void> serve_done = returned.get_future();
  std::thread accept_thread{[&server, &returned] {
    server.serve_forever();
    returned.set_value();
  }};

  auto idle = std::make_unique<TestClient>(socket_path);
  ASSERT_TRUE(idle->connected());
  EXPECT_TRUE(pinged(*idle));  // the server holds the connection now
  server.stop();
  const bool stopped = serve_done.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  idle.reset();  // lets a server stuck on the client return, so join ends
  accept_thread.join();
  EXPECT_TRUE(stopped) << "serve_forever() kept waiting on the idle client";
  ::unlink(socket_path.c_str());
}

TEST(Server, StartFailsCleanlyWithoutTransport) {
  Engine engine{phy::Registry::builtin(), {}};
  Server server{engine, {}};  // neither socket nor TCP chosen
  std::string error;
  EXPECT_FALSE(server.start(error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tinysdr::serve
