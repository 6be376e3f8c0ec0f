// tinysdr_serve — the testbed-as-a-service daemon.
//
// Owns one serve::Engine (job queue + sweep-point cache + journals) and
// serves the NDJSON protocol on a Unix socket or loopback TCP port until
// a {"type":"shutdown"} request or SIGINT/SIGTERM.
//
//   tinysdr_serve --socket /tmp/tinysdr.sock
//       --cache-journal cache.ndjson --job-journal jobs.ndjson
//   tinysdr_serve --tcp 0            # ephemeral port, printed on stdout
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "phy/registry.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"

namespace {

tinysdr::serve::Server* g_server = nullptr;

void handle_signal(int /*sig*/) {
  if (g_server != nullptr) g_server->stop();
}

void usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " (--socket <path> | --tcp <port>) [--cache-journal <file>]\n"
         "       [--job-journal <file>] [--cache-bytes <n>] [--threads <n>]\n"
         "       [--max-attempts <n>]\n"
         "Campaign server: accepts tinysdr-job-v1 jobs over newline-"
         "delimited JSON,\nshards them across the worker pool, memoizes "
         "sweep points, journals for\nrestart-resume. --tcp 0 picks an "
         "ephemeral port (printed on stdout).\n";
}

}  // namespace

int main(int argc, char** argv) {
  tinysdr::serve::ServerConfig server_config;
  tinysdr::serve::EngineConfig engine_config;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "tinysdr_serve: missing value for " << arg << "\n";
        usage(std::cerr, argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout, argv[0]);
      return 0;
    } else if (arg == "--socket") {
      server_config.unix_socket = value();
    } else if (arg == "--tcp") {
      server_config.tcp_port = std::atoi(value());
    } else if (arg == "--cache-journal") {
      engine_config.cache_journal = value();
    } else if (arg == "--job-journal") {
      engine_config.job_journal = value();
    } else if (arg == "--cache-bytes") {
      engine_config.cache_bytes =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--threads") {
      engine_config.policy.threads =
          static_cast<std::size_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--max-attempts") {
      engine_config.max_attempts =
          static_cast<std::size_t>(std::strtoul(value(), nullptr, 10));
    } else {
      std::cerr << "tinysdr_serve: unknown argument '" << arg << "'\n";
      usage(std::cerr, argv[0]);
      return 2;
    }
  }

  tinysdr::serve::Engine engine{tinysdr::phy::Registry::builtin(),
                                engine_config};
  tinysdr::serve::Server server{engine, server_config};
  std::string error;
  if (!server.start(error)) {
    std::cerr << "tinysdr_serve: " << error << "\n";
    return 1;
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!server_config.unix_socket.empty())
    std::cout << "tinysdr_serve: listening on " << server_config.unix_socket
              << std::endl;
  else
    std::cout << "tinysdr_serve: listening on 127.0.0.1:" << server.tcp_port()
              << std::endl;

  server.serve_forever();
  std::cout << "tinysdr_serve: shutting down" << std::endl;
  return 0;
}
