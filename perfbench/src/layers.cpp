#include "layers.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <type_traits>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Traced batches whose spans go into the Perfetto file.
constexpr std::size_t kTraceBatches = 2;

/// Length of the union of `iv` clipped to [a, b], in seconds.
double covered_s(std::vector<Interval> iv, std::int64_t a, std::int64_t b) {
  for (auto& [s, e] : iv) {
    s = std::max(s, a);
    e = std::min(e, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return static_cast<double>(total) * 1e-9;
}

bool is_call(const std::string& name) { return name.rfind("phy.", 0) == 0; }

/// The PHY call spans (on any thread) as intervals.
std::vector<Interval> call_intervals(const std::vector<Span>& spans) {
  std::vector<Interval> calls;
  for (const Span& s : spans)
    if (is_call(SpanLog::name(s.name)))
      calls.emplace_back(s.start_ns, s.end_ns);
  return calls;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

const tinysdr::obs::TraceArg* find_arg(const tinysdr::obs::TraceEvent& e,
                                       std::string_view key) {
  for (const auto& a : e.args)
    if (a.key == key) return &a;
  return nullptr;
}

/// Every per-layer metric, in report order, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_metric_list() {
  static const auto list = [] {
    std::vector<std::pair<std::string, std::string>> l;
    for (const std::string& p : phy_keys()) {
      const std::string m = "phy." + p + ".modulate.";
      const std::string d = "phy." + p + ".demod.";
      l.emplace_back(m + "busy_s", "s");
      l.emplace_back(m + "calls", "count");
      l.emplace_back(m + "ns_per_sample", "ns");
      l.emplace_back(d + "busy_s", "s");
      l.emplace_back(d + "calls", "count");
      l.emplace_back(d + "p50_us", "us");
      l.emplace_back(d + "p99_us", "us");
    }
    l.emplace_back("phy.interferer.busy_s", "s");
    l.emplace_back("link.self_s", "s");
    l.emplace_back("link.self_share", "ratio");
    for (const char* k : {"fft", "fir", "lora_dechirp", "gfsk_demod"}) {
      const std::string p = std::string("prof.") + k + ".";
      l.emplace_back(p + "count", "count");
      l.emplace_back(p + "p50_us", "us");
      l.emplace_back(p + "p99_us", "us");
    }
    l.emplace_back("exec.busy_ratio", "ratio");
    l.emplace_back("exec.tail_idle_s", "s");
    l.emplace_back("flow.self_s", "s");
    l.emplace_back("flow.backpressure_stalls", "count");
    l.emplace_back("flow.credits_waited", "count");
    l.emplace_back("flow.ring.occupancy_p50", "ratio");
    l.emplace_back("flow.rss_mb_per_1k_frames", "MB");
    l.emplace_back("serve.cache.hit_ratio", "ratio");
    l.emplace_back("serve.cache.hits", "count");
    l.emplace_back("serve.cache.misses", "count");
    l.emplace_back("serve.points.computed", "count");
    l.emplace_back("serve.cache.evictions", "count");
    l.emplace_back("serve.submit_us", "us");
    l.emplace_back("serve.result_json_us", "us");
    l.emplace_back("serve.engine_self_ms", "ms");
    l.emplace_back("ota.compress.busy_s", "s");
    l.emplace_back("ota.decompress.busy_s", "s");
    l.emplace_back("ota.transfer.busy_s", "s");
    l.emplace_back("ota.planner.p50_ms", "ms");
    l.emplace_back("ota.retransmissions", "count");
    l.emplace_back("testbed.campaign.self_s", "s");
    l.emplace_back("wall.items_per_s", "1/s");
    l.emplace_back("wall.latency_p50_ms", "ms");
    l.emplace_back("wall.latency_p90_ms", "ms");
    l.emplace_back("obs.trace_overhead", "ratio");
    l.emplace_back("error_ratio", "ratio");
    return l;
  }();
  return list;
}

}  // namespace

void LayerAccumulator::fold_spans(const std::vector<Span>& spans,
                                  NameMap& names, DurationMap& durations_us) {
  for (const Span& s : spans) {
    const std::string& name = SpanLog::name(s.name);
    NameStats& st = names[name];
    st.calls += 1;
    st.busy_s += seconds(s.dur_ns());
    st.samples += s.samples;
    st.region = !is_call(name);
    durations_us[name].push_back(static_cast<double>(s.dur_ns()) * 1e-3);
  }

  // Self time of each region: its wall minus the part PHY calls (on any
  // thread) cover.
  const std::vector<Interval> calls = call_intervals(spans);
  for (const Span& s : spans) {
    const std::string& name = SpanLog::name(s.name);
    if (is_call(name)) continue;
    names[name].self_s +=
        seconds(s.dur_ns()) - covered_s(calls, s.start_ns, s.end_ns);
  }
}

void LayerAccumulator::add_batch(
    const std::vector<Span>& spans,
    const std::vector<tinysdr::obs::TraceEvent>& pool,
    std::int64_t pool_t0_ns) {
  ++batches_;
  fold_spans(spans, names_, durations_us_);
  if (batches_ <= kTraceBatches)
    kept_.insert(kept_.end(), spans.begin(), spans.end());

  const std::vector<Interval> calls = call_intervals(spans);

  // Pool chunks as absolute intervals, plus the regions they ran in.
  struct PoolRegion {
    std::int64_t start, end;
    std::size_t participants;
  };
  std::vector<PoolRegion> regions;
  std::vector<std::pair<std::uint32_t, Interval>> chunks;  // (track, span)
  std::vector<Interval> chunk_spans;
  for (const auto& e : pool) {
    if (e.phase != 'X') continue;
    const auto start = pool_t0_ns + static_cast<std::int64_t>(e.ts_us * 1e3);
    const auto end = start + static_cast<std::int64_t>(e.dur_us * 1e3);
    if (e.name == "region") {
      const auto* p = find_arg(e, "participants");
      regions.push_back(
          {start, end, p != nullptr ? static_cast<std::size_t>(p->number) : 1});
    } else if (e.name == "chunk") {
      chunks.push_back({e.track, {start, end}});
      chunk_spans.emplace_back(start, end);
    }
  }

  double serve_wall = 0.0;
  double serve_phy = 0.0;
  bool serve_batch = false;
  for (const Span& s : spans) {
    const std::string& name = SpanLog::name(s.name);
    if (name == "batch") batch_wall_s_ += seconds(s.dur_ns());
    if (name == "link.sweep" || name == "serve.run_next") {
      // Per worker thread: its active window inside the region (first to
      // last PHY call) minus its PHY calls. The rest is the trial loop's
      // own work: payload, padding, superpose, AWGN, impairments.
      std::map<std::uint32_t, std::pair<Interval, std::int64_t>> per_thread;
      for (const Span& c : spans) {
        if (!is_call(SpanLog::name(c.name))) continue;
        if (c.start_ns < s.start_ns || c.end_ns > s.end_ns) continue;
        auto [it, fresh] = per_thread.try_emplace(
            c.thread, Interval{c.start_ns, c.end_ns}, 0);
        auto& [window, busy] = it->second;
        if (!fresh) {
          window.first = std::min(window.first, c.start_ns);
          window.second = std::max(window.second, c.end_ns);
        }
        busy += c.dur_ns();
      }
      for (const auto& [thread, wb] : per_thread) {
        const std::int64_t window = wb.first.second - wb.first.first;
        link_window_s_ += seconds(window);
        link_self_s_ += seconds(window - wb.second);
      }
    }
    if (name == "flow.run")
      flow_self_s_ +=
          seconds(s.dur_ns()) - covered_s(calls, s.start_ns, s.end_ns);
    if (name == "testbed.run_campaign")
      campaign_self_s_ +=
          seconds(s.dur_ns()) - covered_s(chunk_spans, s.start_ns, s.end_ns);
    if (name.rfind("serve.", 0) == 0) {
      serve_batch = true;
      serve_wall += seconds(s.dur_ns());
      if (name == "serve.run_next")
        serve_phy += covered_s(calls, s.start_ns, s.end_ns);
    }
  }
  if (serve_batch) serve_self_ms_.push_back((serve_wall - serve_phy) * 1e3);

  // exec: each region's participants are busy while they run chunks; the
  // tail is the time each participant sits idle after its last chunk.
  for (const PoolRegion& r : regions) {
    const double wall = seconds(r.end - r.start);
    pool_capacity_s_ += wall * static_cast<double>(r.participants);
    std::vector<std::int64_t> last_end(r.participants, r.start);
    for (const auto& [track, iv] : chunks) {
      if (iv.first < r.start || iv.second > r.end + 1000) continue;
      if (track == 0 || track > r.participants) continue;
      pool_busy_s_ += seconds(iv.second - iv.first);
      last_end[track - 1] = std::max(last_end[track - 1], iv.second);
    }
    for (std::int64_t e : last_end)
      pool_tail_idle_s_ += seconds(std::max<std::int64_t>(0, r.end - e));
  }
}

void LayerAccumulator::add_extras(const std::vector<Span>& spans) {
  fold_spans(spans, extras_, extra_durations_us_);
  kept_.insert(kept_.end(), spans.begin(), spans.end());
}

std::vector<Metric> LayerAccumulator::metrics(
    const tinysdr::obs::Registry& registry, const LayerValues& values,
    double trace_overhead, double error_ratio) const {
  const double b = batches_ == 0 ? 1.0 : static_cast<double>(batches_);
  std::map<std::string, double> v(values.begin(), values.end());

  auto find = [](const auto& map, const std::string& name) {
    auto it = map.find(name);
    return it == map.end() ? typename std::decay_t<decltype(map)>::mapped_type{}
                           : it->second;
  };
  auto stats = [&](const std::string& name) { return find(names_, name); };
  auto q_us = [&](const std::string& name, double q) {
    return quantile(find(durations_us_, name), q);
  };

  for (const std::string& p : phy_keys()) {
    const NameStats mod = stats("phy." + p + ".modulate");
    const NameStats dem = stats("phy." + p + ".demod");
    const std::string m = "phy." + p + ".modulate.";
    const std::string d = "phy." + p + ".demod.";
    v[m + "busy_s"] = mod.busy_s / b;
    v[m + "calls"] = static_cast<double>(mod.calls) / b;
    v[m + "ns_per_sample"] =
        mod.samples == 0 ? 0.0
                         : mod.busy_s * 1e9 / static_cast<double>(mod.samples);
    v[d + "busy_s"] = dem.busy_s / b;
    v[d + "calls"] = static_cast<double>(dem.calls) / b;
    v[d + "p50_us"] = q_us("phy." + p + ".demod", 0.5);
    v[d + "p99_us"] = q_us("phy." + p + ".demod", 0.99);
  }
  v["phy.interferer.busy_s"] = stats("phy.interferer.emit").busy_s / b;
  v["link.self_s"] = link_self_s_ / b;
  v["link.self_share"] =
      link_window_s_ > 0.0 ? link_self_s_ / link_window_s_ : 0.0;

  const auto& hists = registry.histograms();
  auto hist_q = [&](const std::string& name, double q) {
    auto it = hists.find(name);
    return it == hists.end() || it->second.count() == 0
               ? 0.0
               : it->second.quantile(q);
  };
  for (const char* k : {"fft", "fir", "lora_dechirp", "gfsk_demod"}) {
    const std::string h = std::string("prof.") + k + ".us";
    const std::string p = std::string("prof.") + k + ".";
    auto it = hists.find(h);
    v[p + "count"] =
        it == hists.end() ? 0.0 : static_cast<double>(it->second.count()) / b;
    v[p + "p50_us"] = hist_q(h, 0.5);
    v[p + "p99_us"] = hist_q(h, 0.99);
  }

  v["exec.busy_ratio"] =
      pool_capacity_s_ > 0.0 ? pool_busy_s_ / pool_capacity_s_ : 0.0;
  v["exec.tail_idle_s"] = pool_tail_idle_s_ / b;

  const auto& counters = registry.counters();
  auto counter = [&](const std::string& name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second.value();
  };
  v["flow.self_s"] = flow_self_s_ / b;
  v["flow.backpressure_stalls"] = counter("flow.backpressure_stalls") / b;
  v["flow.credits_waited"] = counter("flow.credits_waited") / b;
  v["flow.ring.occupancy_p50"] = hist_q("flow.ring.occupancy", 0.5);

  v["serve.submit_us"] = q_us("serve.submit_json", 0.5);
  v["serve.result_json_us"] = q_us("serve.result_json", 0.5);
  v["serve.engine_self_ms"] =
      serve_self_ms_.empty() ? 0.0 : quantile(serve_self_ms_, 0.5);

  v["ota.compress.busy_s"] = find(extras_, "ota.compress_blocks").busy_s;
  v["ota.decompress.busy_s"] = find(extras_, "ota.decompress_blocks").busy_s;
  v["ota.transfer.busy_s"] = find(extras_, "ota.transfer").busy_s;
  v["ota.planner.p50_ms"] =
      quantile(find(extra_durations_us_, "ota.planner_run"), 0.5) * 1e-3;
  v["testbed.campaign.self_s"] = campaign_self_s_ / b;

  v["obs.trace_overhead"] = trace_overhead;
  v["error_ratio"] = error_ratio;

  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_list()) {
    auto it = v.find(name);
    out.push_back({name, it == v.end() ? 0.0 : it->second, unit});
  }
  return out;
}

void LayerAccumulator::write_table(std::ostream& out) const {
  const double b = batches_ == 0 ? 1.0 : static_cast<double>(batches_);
  // Thread-time of the traced batches: wall x threads the workload uses.
  const double capacity = batch_wall_s_ / b * static_cast<double>(threads_);
  out << "layer table: per traced batch (" << batches_
      << " batches, mean batch wall " << std::fixed << std::setprecision(6)
      << batch_wall_s_ / b << " s, " << threads_
      << " threads); share = busy / (batch wall x threads); rows marked "
         "'extra' are direct calls outside the batches, totals over the "
         "sample\n";
  out << std::left << std::setw(28) << "layer" << std::right << std::setw(12)
      << "calls" << std::setw(14) << "busy_s" << std::setw(14) << "self_s"
      << std::setw(10) << "share" << "\n";
  auto row = [&](const std::string& name, const NameStats& st, bool extra) {
    const double div = extra ? 1.0 : b;
    const double self = st.region ? st.self_s : st.busy_s;
    out << std::left << std::setw(28) << name << std::right << std::setw(12)
        << std::setprecision(1) << static_cast<double>(st.calls) / div
        << std::setw(14) << std::setprecision(6) << st.busy_s / div
        << std::setw(14) << self / div << std::setw(10)
        << std::setprecision(4)
        << (extra || capacity <= 0.0 ? 0.0 : st.busy_s / div / capacity)
        << (extra ? "  extra" : "") << "\n";
  };
  for (const auto& [name, st] : names_) row(name, st, false);
  for (const auto& [name, st] : extras_) row(name, st, true);
  out << std::defaultfloat;
}

void LayerAccumulator::write_chrome_json(std::ostream& out) const {
  using tinysdr::obs::json_number;
  using tinysdr::obs::json_quote;
  std::int64_t t0 = 0;
  std::map<std::uint32_t, bool> threads;
  for (const Span& s : kept_) {
    if (threads.empty() || s.start_ns < t0) t0 = s.start_ns;
    threads[s.thread] = true;
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  const std::uint32_t main_thread = SpanLog::thread_index();
  for (const auto& [tid, unused] : threads) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":"
        << json_quote(tid == main_thread ? "main"
                                         : "thread-" + std::to_string(tid))
        << "}}";
  }
  for (const Span& s : kept_) {
    const std::string& name = SpanLog::name(s.name);
    sep();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"cat\":" << json_quote(is_call(name) ? "call" : "region")
        << ",\"name\":" << json_quote(name)
        << ",\"ts\":"
        << json_number(static_cast<double>(s.start_ns - t0) * 1e-3)
        << ",\"dur\":" << json_number(static_cast<double>(s.dur_ns()) * 1e-3);
    if (s.samples > 0)
      out << ",\"args\":{\"samples\":" << s.samples << "}";
    out << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
