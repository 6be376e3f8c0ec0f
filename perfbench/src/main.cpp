// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--out <dir>]
//
// Workloads: lora_sweep, stream_concurrent, serve_mix, ota_fleet. Each
// generates its inputs from --seed, sets up several times (setup_s is the
// median CPU time), then runs closed-loop batches for --seconds of wall
// time and checks every output. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones (tracing off), timed
// in process CPU time. With --trace 1 untraced and traced batches
// alternate, and the metrics are the per-layer ones plus the untraced
// batches' wall time; the layer table and a Perfetto trace of the
// benchmark's own spans are written under --out.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "exec/pool_trace.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// A run completes at least this many batches whatever --seconds says.
constexpr std::size_t kMinBatches = 3;
/// A traced run alternates at least this many untraced/traced pairs.
constexpr std::size_t kMinTracedPairs = 4;
/// peak_rss_mb is the peak over set-up and this many batches: a fixed
/// amount of work, so a faster program that fits more batches into the
/// run (and serve::Engine keeps every finished job) does not read higher.
constexpr std::size_t kRssBatches = 32;

double elapsed_s(std::int64_t since_ns) {
  return static_cast<double>(now_ns() - since_ns) * 1e-9;
}

/// CPU time of every thread of this process so far, in seconds.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One informational line: `# <what> min/p10/p50/p90/max` of a sample, in ms.
void print_quantiles(const char* what, const std::vector<double>& values_s) {
  std::cout << "# " << what << " min/p10/p50/p90/max";
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0})
    std::cout << " " << quantile(values_s, q) * 1e3;
  std::cout << "\n";
}

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload "
               "<lora_sweep|stream_concurrent|serve_mix|ota_fleet> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <n>] [--out <dir>]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  std::uint64_t v = 0;
  const char* end = s + std::strlen(s);
  auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end) usage(what);
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(val, "bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(opt.seconds > 0.0))
        usage("bad --seconds");
    } else if (arg == "--trace") {
      const std::string t = val;
      if (t != "0" && t != "1") usage("bad --trace");
      opt.trace = t == "1";
    } else if (arg == "--threads") {
      opt.threads = parse_u64(val, "bad --threads");
      if (opt.threads == 0) usage("bad --threads");
    } else if (arg == "--out") {
      opt.out_dir = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("missing --workload");
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = std::min(opt.threads, hw);
  return opt;
}

std::unique_ptr<Workload> make(const Options& opt) {
  if (opt.workload == "lora_sweep") return make_lora_sweep(opt, opt.trace);
  if (opt.workload == "stream_concurrent")
    return make_stream_concurrent(opt, opt.trace);
  if (opt.workload == "serve_mix") return make_serve_mix(opt, opt.trace);
  if (opt.workload == "ota_fleet") return make_ota_fleet(opt, opt.trace);
  usage(("unknown workload " + opt.workload).c_str());
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  using tinysdr::obs::json_number;
  using tinysdr::obs::json_quote;
  std::ostringstream out;
  out << "{\"correct\":" << (tally.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ",";
    out << json_quote(metrics[i].name) << ":{\"value\":"
        << json_number(metrics[i].value)
        << ",\"unit\":" << json_quote(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Options& opt) {
  auto workload = make(opt);
  Tally tally;

  // Set-up and batches are timed in process CPU time (all threads; a VM's
  // steal time is not counted): on a shared 4-vCPU host, wall time swings
  // with other processes' load (4x on stream_concurrent beside four busy
  // loops) while CPU time does not count waiting for a CPU. It still
  // follows the host's speed, which other tenants move by up to ~25%.
  std::vector<double> setups, setups_wall;
  for (int i = 0; i < kSetups; ++i) {
    const double c0 = cpu_now_s();
    const std::int64_t t0 = now_ns();
    workload->setup(tally);
    setups_wall.push_back(elapsed_s(t0));
    setups.push_back(cpu_now_s() - c0);
  }
  const double setup_s = quantile(setups, 0.5);

  std::vector<Metric> metrics;
  std::size_t batches = 0;
  if (!opt.trace) {
    std::vector<double> cpu_s, latency_s;
    std::size_t items = 0;
    double peak_mb = 0.0;
    const std::int64_t start = now_ns();
    while (cpu_s.size() < kMinBatches || elapsed_s(start) < opt.seconds) {
      const double c0 = cpu_now_s();
      const std::int64_t t0 = now_ns();
      items += workload->run_batch(tally);
      latency_s.push_back(elapsed_s(t0));
      cpu_s.push_back(cpu_now_s() - c0);
      if (cpu_s.size() == kRssBatches) peak_mb = peak_rss_mb();
    }
    if (peak_mb == 0.0) peak_mb = peak_rss_mb();
    batches = cpu_s.size();
    workload->check(tally);
    double cpu_total = 0.0;
    for (double c : cpu_s) cpu_total += c;
    metrics = {
        {"setup_s", setup_s, "s"},
        {"items_per_cpu_s", static_cast<double>(items) / cpu_total, "1/s"},
        {"batch_cpu_p50_ms", quantile(cpu_s, 0.5) * 1e3, "ms"},
        {"batch_cpu_p90_ms", quantile(cpu_s, 0.9) * 1e3, "ms"},
        {"peak_rss_mb", peak_mb, "MB"},
        {"success_ratio", 1.0 - tally.error_ratio(), "ratio"},
    };
    std::cout << "# " << opt.workload << ": " << batches << " batches, "
              << items << " " << workload->item_name() << " in " << cpu_total
              << " CPU s\n";
    print_quantiles("batch_cpu_ms", cpu_s);
    print_quantiles("batch_wall_ms", latency_s);
  } else {
    tinysdr::obs::Registry registry;
    LayerAccumulator layers(opt.threads);
    LayerValues values;
    const std::uint32_t batch_span = SpanLog::intern("batch");
    std::vector<double> untraced_s, traced_s;
    std::size_t untraced_items = 0;
    const std::int64_t start = now_ns();
    while (traced_s.size() < kMinTracedPairs ||
           elapsed_s(start) < opt.seconds) {
      std::int64_t t0 = now_ns();
      untraced_items += workload->run_batch(tally);
      untraced_s.push_back(elapsed_s(t0));

      tinysdr::obs::MetricsSession metrics_session{registry};
      tinysdr::obs::Tracer pool_sink = tinysdr::obs::Tracer::unbounded();
      tinysdr::exec::PoolTraceSession pool_session{pool_sink};
      const std::int64_t pool_t0 = now_ns();
      SpanLog::set_enabled(true);
      t0 = now_ns();
      {
        ScopedSpan span{batch_span};
        workload->run_batch(tally);
      }
      traced_s.push_back(elapsed_s(t0));
      SpanLog::set_enabled(false);
      workload->traced_batch_values(values);
      layers.add_batch(SpanLog::drain(), pool_sink.events(), pool_t0);
    }
    batches = untraced_s.size() + traced_s.size();

    SpanLog::set_enabled(true);
    workload->traced_extras(values);
    SpanLog::set_enabled(false);
    layers.add_extras(SpanLog::drain());

    workload->check(tally);
    // Wall time of the untraced batches: what a user waits for, reported
    // here ungated because other tenants' load moves it.
    double untraced_total = 0.0;
    for (double t : untraced_s) untraced_total += t;
    values["wall.items_per_s"] =
        static_cast<double>(untraced_items) / untraced_total;
    values["wall.latency_p50_ms"] = quantile(untraced_s, 0.5) * 1e3;
    values["wall.latency_p90_ms"] = quantile(untraced_s, 0.9) * 1e3;
    const double overhead =
        quantile(traced_s, 0.5) / quantile(untraced_s, 0.5);
    metrics = layers.metrics(registry, values, overhead, tally.error_ratio());

    std::ostringstream table;
    layers.write_table(table);
    std::cout << table.str();
    const std::string base = opt.out_dir + "/" + opt.workload;
    std::ofstream(base + ".layers.txt") << table.str();
    std::ofstream trace_file(base + ".trace.json");
    layers.write_chrome_json(trace_file);
    std::cout << "# wrote " << base << ".layers.txt and " << base
              << ".trace.json\n";
  }

  print_quantiles("setup_cpu_ms", setups);
  print_quantiles("setup_wall_ms", setups_wall);
  std::cout << "# threads " << opt.threads << ", batches " << batches
            << "\ndigest " << opt.workload << " seed " << opt.seed << " "
            << workload->digest() << "\n";
  print_result(tally, metrics);
  return 0;
}

}  // namespace

double Tally::error_ratio() const {
  return static_cast<double>(failed) /
         static_cast<double>(std::max<std::uint64_t>(1, attempted));
}

void Tally::check(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Digest::bytes(std::string_view data) {
  for (unsigned char c : data) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
}

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof buf);
  out.append(buf, sizeof buf);
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

}  // namespace

void Digest::point(const tinysdr::phy::PointResult& p) {
  std::string b;
  put_f64(b, p.rssi_dbm);
  for (std::uint64_t v : {p.frames, p.frame_errors, p.bits, p.bit_errors,
                          p.symbols, p.symbol_errors})
    put_u64(b, v);
  bytes(b);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string encode_report(const tinysdr::ota::UpdateReport& r) {
  std::string out;
  auto u = [&](std::uint64_t v) { put_u64(out, v); };
  auto f = [&](double v) { put_f64(out, v); };
  const auto& t = r.transfer;
  u(r.success);
  u(static_cast<std::uint64_t>(r.failure));
  u(static_cast<std::uint64_t>(r.target));
  u(r.original_bytes);
  u(r.compressed_bytes);
  u(t.success);
  u(static_cast<std::uint64_t>(t.failure));
  u(t.link_seed);
  f(t.total_time.value());
  f(t.airtime.value());
  for (std::size_t n :
       {t.data_packets, t.retransmissions, t.ack_packets, t.duplicates_dropped,
        t.corrupted_dropped, t.backoff_events, t.node_reboots,
        t.session_resumes, t.reassociations, t.repair_rounds,
        t.flash_write_errors, t.jammed_packets, t.forged_acks_discarded,
        t.truncated_dropped, t.replays_dropped})
    u(n);
  f(t.node_energy.value());
  u(t.sends_per_chunk.size());
  for (std::uint16_t s : t.sends_per_chunk) u(s);
  f(r.decompress_time.value());
  f(r.flash_time.value());
  f(r.reprogram_time.value());
  f(r.total_energy.value());
  f(r.total_time.value());
  u(r.rolled_back);
  u(r.slot ? 1 + static_cast<std::uint64_t>(*r.slot) : 0);
  return out;
}

namespace {

double status_mb(const char* key) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0)
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_mb("VmRSS:"); }
double peak_rss_mb() { return status_mb("VmHWM:"); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
