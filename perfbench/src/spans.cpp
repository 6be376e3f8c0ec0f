#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>

namespace perfbench {

namespace tp = tinysdr::phy;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct ThreadBuf {
  std::uint32_t index = 0;
  std::mutex mu;
  std::vector<Span> spans;
};

struct LogState {
  std::atomic<bool> enabled{false};
  std::mutex mu;  // guards bufs, names, ids
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::deque<std::string> names;  // deque: references stay valid
  std::map<std::string, std::uint32_t, std::less<>> ids;
};

LogState& state() {
  static LogState s;
  return s;
}

// The registry keeps every buffer alive, so spans of short-lived threads
// (the flow scheduler's fallback threads) survive until the next drain.
thread_local std::shared_ptr<ThreadBuf> t_buf;

ThreadBuf& local_buf() {
  if (!t_buf) {
    LogState& s = state();
    auto buf = std::make_shared<ThreadBuf>();
    std::scoped_lock lock{s.mu};
    buf->index = static_cast<std::uint32_t>(s.bufs.size());
    s.bufs.push_back(buf);
    t_buf = std::move(buf);
  }
  return *t_buf;
}

}  // namespace

void SpanLog::set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

bool SpanLog::enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

std::uint32_t SpanLog::intern(std::string_view name) {
  LogState& s = state();
  std::scoped_lock lock{s.mu};
  auto it = s.ids.find(name);
  if (it != s.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(s.names.size());
  s.names.emplace_back(name);
  s.ids.emplace(std::string(name), id);
  return id;
}

const std::string& SpanLog::name(std::uint32_t id) {
  LogState& s = state();
  std::scoped_lock lock{s.mu};
  return s.names.at(id);
}

void SpanLog::record(std::uint32_t name, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t samples) {
  ThreadBuf& buf = local_buf();
  std::scoped_lock lock{buf.mu};
  buf.spans.push_back({name, buf.index, start_ns, end_ns, samples});
}

std::vector<Span> SpanLog::drain() {
  LogState& s = state();
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::scoped_lock lock{s.mu};
    bufs = s.bufs;
  }
  std::vector<Span> out;
  for (const auto& buf : bufs) {
    std::scoped_lock lock{buf->mu};
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.thread < b.thread;
  });
  return out;
}

std::uint32_t SpanLog::thread_index() { return local_buf().index; }

std::string phy_key(tp::Protocol protocol, int lora_sf) {
  if (protocol == tp::Protocol::kLora)
    return "lora_sf" + std::to_string(lora_sf);
  return std::string(tp::protocol_name(protocol));
}

const std::vector<std::string>& phy_keys() {
  static const std::vector<std::string> keys{
      "lora_sf8", "lora_sf12", "ble", "zigbee", "sigfox", "nbiot"};
  return keys;
}

TimedTx::TimedTx(std::unique_ptr<tp::PhyTx> inner, const std::string& key)
    : inner_(std::move(inner)),
      span_(SpanLog::intern("phy." + key + ".modulate")) {}

void TimedTx::modulate(std::span<const std::uint8_t> payload,
                       tinysdr::dsp::Samples& out) const {
  if (!SpanLog::enabled()) {
    inner_->modulate(payload, out);
    return;
  }
  const std::size_t before = out.size();
  const std::int64_t t0 = now_ns();
  inner_->modulate(payload, out);
  SpanLog::record(span_, t0, now_ns(), out.size() - before);
}

TimedRx::TimedRx(std::unique_ptr<tp::PhyRx> inner, const std::string& key)
    : inner_(std::move(inner)),
      span_(SpanLog::intern("phy." + key + ".demod")) {}

tp::FrameResult TimedRx::demodulate(
    std::span<const tinysdr::dsp::Complex> iq,
    std::span<const std::uint8_t> reference) const {
  if (!SpanLog::enabled()) return inner_->demodulate(iq, reference);
  const std::int64_t t0 = now_ns();
  tp::FrameResult r = inner_->demodulate(iq, reference);
  SpanLog::record(span_, t0, now_ns(), iq.size());
  return r;
}

TimedInterferer::TimedInterferer(std::unique_ptr<tp::Interferer> inner)
    : inner_(std::move(inner)),
      span_(SpanLog::intern("phy.interferer.emit")) {}

void TimedInterferer::emit(std::span<const tinysdr::dsp::Complex> signal,
                           tinysdr::dsp::Samples& out,
                           tinysdr::Rng& rng) const {
  if (!SpanLog::enabled()) {
    inner_->emit(signal, out, rng);
    return;
  }
  const std::size_t before = out.size();
  const std::int64_t t0 = now_ns();
  inner_->emit(signal, out, rng);
  SpanLog::record(span_, t0, now_ns(), out.size() - before);
}

tp::Registry timed_registry() {
  tp::Registry timed;
  for (const tp::RegisteredPhy& entry : tp::Registry::builtin().entries()) {
    tp::RegisteredPhy copy = entry;
    const std::string key = phy_key(entry.id);
    copy.make_tx = [make = entry.make_tx, key] {
      return std::make_unique<TimedTx>(make(), key);
    };
    copy.make_rx = [make = entry.make_rx, key] {
      return std::make_unique<TimedRx>(make(), key);
    };
    timed.add(std::move(copy));
  }
  return timed;
}

}  // namespace perfbench
