// Newline-delimited JSON wire protocol between tinysdr_submit (or any
// client) and the campaign server. One request per line, one-or-more
// response lines per request; the transport (Unix socket, local TCP, a
// test's string) is someone else's problem — handle_line() is pure over
// an Engine, so the whole protocol is testable with no sockets.
//
// Requests (`type` selects):
//   {"type":"submit","job":{...tinysdr-job-v1...}}
//       -> {"ok":true,"id":1,"state":"queued"}
//   {"type":"status","id":1}
//       -> {"ok":true,"id":1,"state":"done","attempts":1,
//           "cache_hits":12,"cache_misses":3,"result_retained":true}
//   {"type":"result","id":1}
//       -> header {"ok":true,"id":1,"state":"done","lines":1} followed by
//          one line holding the raw tinysdr-result-v1 document — verbatim
//          server bytes, so clients can persist it without re-encoding
//          (re-serialising through a parser would reorder members and
//          break the byte-identity contract).
//   {"type":"stats"}    -> {"ok":true,"stats":{"serve.cache.hits":...,...}}
//   {"type":"ping"}     -> {"ok":true,"pong":true}
//   {"type":"shutdown"} -> {"ok":true,"stopping":true} and the daemon exits
//
// Errors: {"ok":false,"error":"..."} (plus "state" when a result is just
// not ready yet). Unknown types and malformed JSON are errors, never
// crashes — this is the daemon's ingest path, so it must shrug off junk.
// A request line longer than kMaxRequestLine bytes gets one error line
// and the connection is closed, so a client cannot grow the daemon's
// memory without bound.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tinysdr::serve {

class Engine;

struct Response {
  std::vector<std::string> lines;
  bool submitted = false;  ///< a job was enqueued (daemon wakes its runner)
  bool shutdown = false;   ///< client asked the daemon to exit
};

inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

[[nodiscard]] Response handle_line(Engine& engine, std::string_view line);

}  // namespace tinysdr::serve
