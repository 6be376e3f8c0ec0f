// tinysdr_submit — CLI client for the tinysdr_serve campaign daemon.
//
// Speaks the one-line-JSON protocol over a Unix socket or loopback TCP:
//
//   tinysdr_submit --socket /tmp/tinysdr.sock --job campaign.json
//       --wait --out result.json --summary summary.json
//   tinysdr_submit --tcp 43117 --stats
//   tinysdr_submit --socket /tmp/tinysdr.sock --shutdown
//
// --out writes the server's result document verbatim (byte-identical to
// what the engine produced — no client-side re-encoding). --summary
// writes a small tinysdr-bench-v1 document with the job's cache-hit
// scalars so scripts/check_bench_json.py can gate on hit rate.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"

namespace {

using tinysdr::obs::JsonValue;
using tinysdr::obs::json_number;
using tinysdr::obs::json_quote;

void usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " (--socket <path> | --tcp <port>) <action> [options]\n"
         "actions:\n"
         "  --job <file>      submit a tinysdr-job-v1 document\n"
         "  --stats           print server counters as JSON\n"
         "  --ping            liveness check\n"
         "  --shutdown        ask the daemon to exit\n"
         "options for --job:\n"
         "  --wait            poll until the job finishes, then fetch it\n"
         "  --out <file>      write the result document (verbatim bytes)\n"
         "  --summary <file>  write tinysdr-bench-v1 cache-hit summary\n"
         "  --timeout <sec>   give up waiting after this long (default 300)\n"
         "  --poll-ms <ms>    status poll interval (default 50)\n";
}

/// Minimal blocking line-oriented client over one connected socket.
class Client {
 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect_unix(const std::string& path, std::string& error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      error = "socket path too long: " + path;
      return false;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      error = "socket(): " + std::string(std::strerror(errno));
      return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      error = "connect(" + path + "): " + std::string(std::strerror(errno));
      return false;
    }
    return true;
  }

  bool connect_tcp(int port, std::string& error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      error = "socket(): " + std::string(std::strerror(errno));
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      error = "connect(127.0.0.1:" + std::to_string(port) +
              "): " + std::string(std::strerror(errno));
      return false;
    }
    return true;
  }

  bool send_line(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // server hung up mid-line
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

int fail(const std::string& message) {
  std::cerr << "tinysdr_submit: " << message << "\n";
  return 1;
}

/// One round trip; exits the process on transport failure or server error.
JsonValue request(Client& client, const std::string& line) {
  std::string reply;
  if (!client.send_line(line) || !client.read_line(reply)) {
    std::exit(fail("lost connection to server"));
  }
  auto doc = JsonValue::parse(reply);
  if (!doc || !doc->is_object())
    std::exit(fail("unparseable server reply: " + reply));
  if (!doc->bool_or("ok", false) &&
      std::string_view{doc->string_or("error", "")} != "result not available")
    std::exit(fail("server error: " +
                   std::string(doc->string_or("error", "unknown"))));
  return std::move(*doc);
}

bool write_file(const std::string& path, const std::string& content,
                std::string& error) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << content;
  out.close();
  if (!out) {
    error = "failed to write " + path;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  std::string job_file;
  std::string out_file;
  std::string summary_file;
  bool wait = false;
  bool stats = false;
  bool ping = false;
  bool shutdown = false;
  double timeout_s = 300.0;
  int poll_ms = 50;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "tinysdr_submit: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout, argv[0]);
      return 0;
    } else if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--tcp") {
      tcp_port = std::atoi(value());
    } else if (arg == "--job") {
      job_file = value();
    } else if (arg == "--out") {
      out_file = value();
    } else if (arg == "--summary") {
      summary_file = value();
    } else if (arg == "--wait") {
      wait = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--ping") {
      ping = true;
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (arg == "--timeout") {
      timeout_s = std::atof(value());
    } else if (arg == "--poll-ms") {
      poll_ms = std::atoi(value());
    } else {
      std::cerr << "tinysdr_submit: unknown argument '" << arg << "'\n";
      usage(std::cerr, argv[0]);
      return 2;
    }
  }

  const int actions = int(!job_file.empty()) + int(stats) + int(ping) +
                      int(shutdown);
  if (actions != 1) {
    usage(std::cerr, argv[0]);
    return fail("choose exactly one of --job/--stats/--ping/--shutdown");
  }
  if ((socket_path.empty()) == (tcp_port < 0)) {
    usage(std::cerr, argv[0]);
    return fail("choose exactly one of --socket and --tcp");
  }

  Client client;
  std::string error;
  const bool connected = socket_path.empty()
                             ? client.connect_tcp(tcp_port, error)
                             : client.connect_unix(socket_path, error);
  if (!connected) return fail(error);

  if (ping) {
    request(client, R"({"type":"ping"})");
    std::cout << "pong\n";
    return 0;
  }
  if (shutdown) {
    request(client, R"({"type":"shutdown"})");
    std::cout << "server stopping\n";
    return 0;
  }
  if (stats) {
    std::string reply;
    if (!client.send_line(R"({"type":"stats"})") ||
        !client.read_line(reply))
      return fail("lost connection to server");
    std::cout << reply << "\n";
    return 0;
  }

  // --job: read the job document; the wire is one-request-per-line, so
  // fold the (typically pretty-printed) file onto one line. Newlines are
  // insignificant JSON whitespace — raw newlines can't occur inside a
  // valid JSON string — so this never changes the document's meaning.
  std::ifstream in{job_file, std::ios::binary};
  if (!in) return fail("cannot read job file " + job_file);
  std::ostringstream raw;
  raw << in.rdbuf();
  std::string job_text = raw.str();
  for (char& c : job_text)
    if (c == '\n' || c == '\r') c = ' ';

  const JsonValue submitted =
      request(client, R"({"type":"submit","job":)" + job_text + "}");
  // The server's own rule for job ids (serve::job_id): an exact integer
  // in [1, 2^53], so the cast below neither truncates nor overflows.
  const std::optional<double> id_number =
      submitted.integer_in("id", 1, JsonValue::kMaxExactInteger);
  if (!id_number)
    return fail("server reply carries no valid job id (an integer in "
                "[1, 2^53])");
  const auto id = static_cast<std::uint64_t>(*id_number);
  std::cout << "submitted job " << id << "\n";

  if (!wait) return 0;

  const std::string status_request =
      R"({"type":"status","id":)" + std::to_string(id) + "}";
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  JsonValue status;
  for (;;) {
    status = request(client, status_request);
    const std::string_view state = status.string_or("state", "");
    if (state == "done") break;
    if (state == "failed")
      return fail("job " + std::to_string(id) + " failed: " +
                  std::string(status.string_or("error", "unknown")));
    if (std::chrono::steady_clock::now() >= deadline)
      return fail("timed out waiting for job " + std::to_string(id));
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }

  const std::string result_request =
      R"({"type":"result","id":)" + std::to_string(id) + "}";
  std::string header;
  std::string result;
  if (!client.send_line(result_request) || !client.read_line(header) ||
      !client.read_line(result))
    return fail("lost connection fetching result");
  auto header_doc = JsonValue::parse(header);
  if (!header_doc || !header_doc->bool_or("ok", false))
    return fail("result fetch failed: " + header);

  if (!out_file.empty()) {
    if (!write_file(out_file, result + "\n", error)) return fail(error);
    std::cout << "result -> " << out_file << "\n";
  } else {
    std::cout << result << "\n";
  }

  if (!summary_file.empty()) {
    const double hits = status.number_or("cache_hits", 0.0);
    const double misses = status.number_or("cache_misses", 0.0);
    const double points = hits + misses;
    std::ostringstream summary;
    summary << "{\"schema\":\"tinysdr-bench-v1\","
            << "\"experiment\":\"serve_submit\",\"scalars\":{"
            << "\"attempts\":" << json_number(status.number_or("attempts", 0))
            << ",\"cache_hit_rate\":"
            << json_number(points > 0 ? hits / points : 0.0)
            << ",\"cache_hits\":" << json_number(hits)
            << ",\"cache_misses\":" << json_number(misses)
            << ",\"job_id\":" << json_number(static_cast<double>(id))
            << ",\"points\":" << json_number(points) << "},\"series\":{}}\n";
    if (!write_file(summary_file, summary.str(), error)) return fail(error);
    std::cout << "summary -> " << summary_file << "\n";
  }
  return 0;
}
