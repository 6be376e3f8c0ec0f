#include "serve/protocol.hpp"

#include <sstream>

#include "obs/json.hpp"
#include "serve/engine.hpp"

namespace tinysdr::serve {

namespace {

using obs::JsonValue;
using obs::json_number;
using obs::json_quote;

Response error_response(const std::string& message) {
  Response r;
  r.lines.push_back("{\"ok\":false,\"error\":" + json_quote(message) + "}");
  return r;
}

std::string status_line(const JobStatus& s) {
  std::ostringstream out;
  out << "{\"ok\":true,\"id\":" << s.id
      << ",\"state\":" << json_quote(to_string(s.state))
      << ",\"attempts\":" << s.attempts
      << ",\"cache_hits\":" << s.cache_hits
      << ",\"cache_misses\":" << s.cache_misses << ",\"result_retained\":"
      << (s.result_retained ? "true" : "false");
  if (!s.error.empty()) out << ",\"error\":" << json_quote(s.error);
  out << "}";
  return out.str();
}

}  // namespace

Response handle_line(Engine& engine, std::string_view line) {
  auto doc = JsonValue::parse(line);
  if (!doc || !doc->is_object())
    return error_response("request is not a JSON object");
  const std::string_view type = doc->string_or("type", "");

  if (type == "submit") {
    const JsonValue* job = doc->find("job");
    if (job == nullptr) return error_response("submit has no 'job' member");
    std::string error;
    auto spec = parse_job(*job, error);
    if (!spec) return error_response(error);
    const std::uint64_t id = engine.submit(std::move(*spec));
    Response r;
    r.lines.push_back("{\"ok\":true,\"id\":" + std::to_string(id) +
                      ",\"state\":\"queued\"}");
    r.submitted = true;
    return r;
  }

  if (type == "status" || type == "result") {
    const std::optional<std::uint64_t> parsed_id = job_id(*doc);
    if (!parsed_id) return error_response("missing or bad 'id'");
    const std::uint64_t id = *parsed_id;
    auto status = engine.status(id);
    if (!status)
      return error_response("no job with id " + std::to_string(id));
    if (type == "status") {
      Response r;
      r.lines.push_back(status_line(*status));
      return r;
    }
    auto result = engine.result_json(id);
    if (!result) {
      Response r;
      r.lines.push_back(
          "{\"ok\":false,\"id\":" + std::to_string(id) + ",\"state\":" +
          json_quote(to_string(status->state)) +
          ",\"error\":\"result not available\"}");
      return r;
    }
    Response r;
    r.lines.push_back("{\"ok\":true,\"id\":" + std::to_string(id) +
                      ",\"state\":\"done\",\"lines\":1}");
    r.lines.push_back(std::move(*result));
    return r;
  }

  if (type == "stats") {
    std::ostringstream out;
    out << "{\"ok\":true,\"stats\":{";
    bool first = true;
    for (const auto& [name, value] : engine.stats()) {
      if (!first) out << ",";
      first = false;
      out << json_quote(name) << ":" << json_number(value);
    }
    out << "}}";
    Response r;
    r.lines.push_back(out.str());
    return r;
  }

  if (type == "ping") {
    Response r;
    r.lines.push_back("{\"ok\":true,\"pong\":true}");
    return r;
  }

  if (type == "shutdown") {
    Response r;
    r.lines.push_back("{\"ok\":true,\"stopping\":true}");
    r.shutdown = true;
    return r;
  }

  return error_response("unknown request type '" + std::string(type) + "'");
}

}  // namespace tinysdr::serve
