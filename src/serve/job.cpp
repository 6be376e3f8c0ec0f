#include "serve/job.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"
#include "phy/registry.hpp"

namespace tinysdr::serve {

namespace {

using obs::JsonValue;
using obs::json_number;
using obs::json_quote;

constexpr double kMaxExactInteger = JsonValue::kMaxExactInteger;

/// Fetch an optional integral member into `out`; `error` names the field
/// on violation. Returns false only on a malformed present member.
bool opt_integral(const JsonValue& obj, const std::string& key, double lo,
                  double hi, std::optional<double>* out, std::string& error) {
  if (obj.find(key) == nullptr) return true;
  const std::optional<double> value = obj.integer_in(key, lo, hi);
  if (!value) {
    error = "'" + key + "' must be an integer in [" + json_number(lo) + ", " +
            json_number(hi) + "]";
    return false;
  }
  *out = value;
  return true;
}

bool parse_sweep(const JsonValue& v, const phy::Registry& registry,
                 std::size_t index, SweepSpec* out, std::string& error) {
  const std::string ctx = "sweeps[" + std::to_string(index) + "]: ";
  if (!v.is_object()) {
    error = ctx + "not an object";
    return false;
  }
  const JsonValue* phy_name = v.find("phy");
  if (phy_name == nullptr || !phy_name->is_string()) {
    error = ctx + "missing 'phy' name";
    return false;
  }
  const phy::RegisteredPhy* entry = registry.find_by_name(phy_name->text);
  if (entry == nullptr) {
    error = ctx + "unknown phy '" + phy_name->text + "'";
    return false;
  }
  out->phy = entry->id;

  const JsonValue* rssi = v.find("rssi");
  if (rssi == nullptr || !rssi->is_array() || rssi->items.empty()) {
    error = ctx + "'rssi' must be a non-empty array of numbers";
    return false;
  }
  out->rssi_dbm.clear();
  for (const JsonValue& x : rssi->items) {
    if (!x.is_number()) {
      error = ctx + "'rssi' must be a non-empty array of numbers";
      return false;
    }
    out->rssi_dbm.push_back(x.number);
  }

  std::optional<double> field;
  if (!opt_integral(v, "trials", 1, 1e6, &field, error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->trials = static_cast<std::size_t>(*field);

  field.reset();
  if (!opt_integral(v, "payload_bytes", 1,
                    static_cast<double>(entry->max_payload), &field, error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->payload_bytes = static_cast<std::size_t>(*field);

  field.reset();
  if (!opt_integral(v, "base_seed", 0, kMaxExactInteger, &field, error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->base_seed = static_cast<std::uint64_t>(*field);

  // Unset pad/noise-figure canonicalise to the registry's calibrated
  // defaults here, so equivalent submissions share cache keys.
  field.reset();
  if (!opt_integral(v, "pad_samples", 0, 1e6, &field, error)) {
    error = ctx + error;
    return false;
  }
  out->pad_samples = field ? static_cast<std::size_t>(*field)
                           : entry->pad_samples;

  const JsonValue* nf = v.find("noise_figure_db");
  if (nf != nullptr && !nf->is_number()) {
    error = ctx + "'noise_figure_db' must be a number";
    return false;
  }
  out->noise_figure_db =
      nf != nullptr ? nf->number : entry->system_noise_figure_db;
  return true;
}

bool parse_fleet(const JsonValue& v, const phy::Registry& registry,
                 std::size_t index, FleetSpec* out, std::string& error) {
  const std::string ctx = "fleets[" + std::to_string(index) + "]: ";
  if (!v.is_object()) {
    error = ctx + "not an object";
    return false;
  }
  std::optional<double> field;
  if (!opt_integral(v, "nodes", 1, 1e5, &field, error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->nodes = static_cast<std::size_t>(*field);

  field.reset();
  if (!opt_integral(v, "trials_per_node", 1, 1e6, &field, error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->trials_per_node = static_cast<std::size_t>(*field);

  field.reset();
  if (!opt_integral(v, "payload_bytes", 1, 255, &field, error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->payload_bytes = static_cast<std::size_t>(*field);

  field.reset();
  if (!opt_integral(v, "base_seed", 0, kMaxExactInteger, &field, error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->base_seed = static_cast<std::uint64_t>(*field);

  field.reset();
  if (!opt_integral(v, "deployment_seed", 0, kMaxExactInteger, &field,
                    error)) {
    error = ctx + error;
    return false;
  }
  if (field) out->deployment_seed = static_cast<std::uint64_t>(*field);

  const JsonValue* phy_name = v.find("phy");
  if (phy_name != nullptr) {
    if (!phy_name->is_string() ||
        registry.find_by_name(phy_name->text) == nullptr) {
      error = ctx + "unknown phy";
      return false;
    }
    out->phy = registry.find_by_name(phy_name->text)->id;
  }
  return true;
}

void write_sweep(std::ostream& out, const SweepSpec& s) {
  out << "{\"phy\":" << json_quote(phy::protocol_name(s.phy)) << ",\"rssi\":[";
  for (std::size_t i = 0; i < s.rssi_dbm.size(); ++i) {
    if (i > 0) out << ",";
    out << json_number(s.rssi_dbm[i]);
  }
  out << "],\"trials\":" << s.trials
      << ",\"payload_bytes\":" << s.payload_bytes
      << ",\"base_seed\":" << s.base_seed;
  if (s.pad_samples) out << ",\"pad_samples\":" << *s.pad_samples;
  if (s.noise_figure_db)
    out << ",\"noise_figure_db\":" << json_number(*s.noise_figure_db);
  out << "}";
}

void write_fleet(std::ostream& out, const FleetSpec& f) {
  out << "{\"nodes\":" << f.nodes
      << ",\"trials_per_node\":" << f.trials_per_node
      << ",\"payload_bytes\":" << f.payload_bytes
      << ",\"base_seed\":" << f.base_seed
      << ",\"deployment_seed\":" << f.deployment_seed;
  if (f.phy) out << ",\"phy\":" << json_quote(phy::protocol_name(*f.phy));
  out << "}";
}

}  // namespace

void JobSpec::write_json(std::ostream& out) const {
  out << "{\"schema\":" << json_quote(kJobSchema)
      << ",\"name\":" << json_quote(name) << ",\"priority\":" << priority;
  if (deadline_s) out << ",\"deadline_s\":" << json_number(*deadline_s);
  out << ",\"sweeps\":[";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    if (i > 0) out << ",";
    write_sweep(out, sweeps[i]);
  }
  out << "],\"fleets\":[";
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    if (i > 0) out << ",";
    write_fleet(out, fleets[i]);
  }
  out << "]}";
}

std::string JobSpec::canonical_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

std::optional<JobSpec> parse_job(std::string_view json, std::string& error) {
  auto doc = JsonValue::parse(json);
  if (!doc) {
    error = "job is not valid JSON";
    return std::nullopt;
  }
  return parse_job(*doc, error);
}

std::optional<JobSpec> parse_job(const JsonValue& doc, std::string& error) {
  const phy::Registry& registry = phy::Registry::builtin();
  if (!doc.is_object()) {
    error = "job is not a JSON object";
    return std::nullopt;
  }
  if (doc.string_or("schema", "") != kJobSchema) {
    error = "job schema must be '" + std::string(kJobSchema) + "'";
    return std::nullopt;
  }

  JobSpec job;
  const JsonValue* name = doc.find("name");
  if (name != nullptr) {
    if (!name->is_string() || name->text.empty()) {
      error = "'name' must be a non-empty string";
      return std::nullopt;
    }
    job.name = name->text;
  }

  std::optional<double> field;
  if (!opt_integral(doc, "priority", -1e6, 1e6, &field, error))
    return std::nullopt;
  if (field) job.priority = static_cast<int>(*field);

  const JsonValue* deadline = doc.find("deadline_s");
  if (deadline != nullptr) {
    if (!deadline->is_number() || !(deadline->number > 0.0)) {
      error = "'deadline_s' must be a positive number";
      return std::nullopt;
    }
    job.deadline_s = deadline->number;
  }

  const JsonValue* sweeps = doc.find("sweeps");
  if (sweeps != nullptr) {
    if (!sweeps->is_array()) {
      error = "'sweeps' must be an array";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < sweeps->items.size(); ++i) {
      SweepSpec s;
      if (!parse_sweep(sweeps->items[i], registry, i, &s, error))
        return std::nullopt;
      job.sweeps.push_back(std::move(s));
    }
  }

  const JsonValue* fleets = doc.find("fleets");
  if (fleets != nullptr) {
    if (!fleets->is_array()) {
      error = "'fleets' must be an array";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < fleets->items.size(); ++i) {
      FleetSpec f;
      if (!parse_fleet(fleets->items[i], registry, i, &f, error))
        return std::nullopt;
      job.fleets.push_back(f);
    }
  }

  if (job.sweeps.empty() && job.fleets.empty()) {
    error = "job has no sweeps and no fleets";
    return std::nullopt;
  }
  return job;
}

void JobResult::write_json(std::ostream& out) const {
  out << "{\"schema\":" << json_quote(kResultSchema) << ",\"job\":";
  job.write_json(out);
  out << ",\"sweeps\":[";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"points\":[";
    for (std::size_t k = 0; k < sweeps[i].points.size(); ++k) {
      const phy::PointResult& p = sweeps[i].points[k];
      if (k > 0) out << ",";
      out << "[" << json_number(p.rssi_dbm) << "," << p.frames << ","
          << p.frame_errors << "," << p.bits << "," << p.bit_errors << ","
          << p.symbols << "," << p.symbol_errors << "]";
    }
    out << "]}";
  }
  out << "],\"fleets\":[";
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"per_node\":[";
    for (std::size_t k = 0; k < fleets[i].per_node.size(); ++k) {
      const testbed::PhyNodeResult& n = fleets[i].per_node[k];
      if (k > 0) out << ",";
      out << "[" << n.node_id << ","
          << json_quote(phy::protocol_name(n.protocol)) << ","
          << json_number(n.rssi_dbm) << "," << n.link.frames << ","
          << n.link.frame_errors << "," << n.link.bits << ","
          << n.link.bit_errors << "," << n.link.symbols << ","
          << n.link.symbol_errors << "]";
    }
    out << "]}";
  }
  out << "]}";
}

std::string JobResult::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

std::optional<std::uint64_t> job_id(const JsonValue& doc) {
  const std::optional<double> id = doc.integer_in("id", 1, kMaxExactInteger);
  if (!id) return std::nullopt;
  return static_cast<std::uint64_t>(*id);
}

}  // namespace tinysdr::serve
