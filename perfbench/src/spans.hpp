// Benchmark-side instrumentation: every timing here is taken from outside
// the simulator, by wrapping calls into its public API.
//
//   - SpanLog: per-thread, mutex-guarded span buffers. Recording is off
//     unless a traced batch is running, so untraced batches pay one relaxed
//     atomic load per wrapped call.
//   - TimedTx / TimedRx / TimedInterferer: decorators around phy::PhyTx,
//     phy::PhyRx and phy::Interferer that forward every call unchanged and
//     record a span around it.
//   - timed_registry(): phy::Registry::builtin() with factories that return
//     decorated adapters, so serve::Engine is timed through its public
//     constructor.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "phy/link_sim.hpp"
#include "phy/phy.hpp"
#include "phy/registry.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

struct Span {
  std::uint32_t name = 0;    ///< SpanLog::intern id
  std::uint32_t thread = 0;  ///< dense per-process thread index
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t samples = 0;  ///< I/Q samples produced or consumed

  [[nodiscard]] std::int64_t dur_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();

  /// Stable id for a span name; call outside hot paths.
  [[nodiscard]] static std::uint32_t intern(std::string_view name);
  [[nodiscard]] static const std::string& name(std::uint32_t id);

  static void record(std::uint32_t name, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t samples = 0);

  /// Every thread's spans since the last drain, start-ordered.
  [[nodiscard]] static std::vector<Span> drain();
  /// The calling thread's dense index (assigned on first use).
  [[nodiscard]] static std::uint32_t thread_index();
};

/// RAII span on the calling thread; records only while SpanLog is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint32_t name)
      : name_(name), start_(SpanLog::enabled() ? now_ns() : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (start_ >= 0) SpanLog::record(name_, start_, now_ns());
  }

 private:
  std::uint32_t name_;
  std::int64_t start_;
};

/// Layer key for a PHY: "lora_sf8", "lora_sf12", "ble", "zigbee", ...
[[nodiscard]] std::string phy_key(tinysdr::phy::Protocol protocol,
                                  int lora_sf = 8);

/// The PHY keys every traced run reports, in report order.
[[nodiscard]] const std::vector<std::string>& phy_keys();

class TimedTx final : public tinysdr::phy::PhyTx {
 public:
  TimedTx(std::unique_ptr<tinysdr::phy::PhyTx> inner, const std::string& key);

  [[nodiscard]] tinysdr::phy::Protocol protocol() const override {
    return inner_->protocol();
  }
  [[nodiscard]] tinysdr::Hertz sample_rate() const override {
    return inner_->sample_rate();
  }
  [[nodiscard]] std::size_t max_payload() const override {
    return inner_->max_payload();
  }
  void modulate(std::span<const std::uint8_t> payload,
                tinysdr::dsp::Samples& out) const override;

 private:
  std::unique_ptr<tinysdr::phy::PhyTx> inner_;
  std::uint32_t span_;
};

class TimedRx final : public tinysdr::phy::PhyRx {
 public:
  TimedRx(std::unique_ptr<tinysdr::phy::PhyRx> inner, const std::string& key);

  [[nodiscard]] tinysdr::phy::Protocol protocol() const override {
    return inner_->protocol();
  }
  [[nodiscard]] tinysdr::Hertz sample_rate() const override {
    return inner_->sample_rate();
  }
  [[nodiscard]] tinysdr::phy::FrameResult demodulate(
      std::span<const tinysdr::dsp::Complex> iq,
      std::span<const std::uint8_t> reference) const override;

 private:
  std::unique_ptr<tinysdr::phy::PhyRx> inner_;
  std::uint32_t span_;
};

class TimedInterferer final : public tinysdr::phy::Interferer {
 public:
  explicit TimedInterferer(std::unique_ptr<tinysdr::phy::Interferer> inner);

  void emit(std::span<const tinysdr::dsp::Complex> signal,
            tinysdr::dsp::Samples& out, tinysdr::Rng& rng) const override;

 private:
  std::unique_ptr<tinysdr::phy::Interferer> inner_;
  std::uint32_t span_;
};

/// Registry::builtin() whose make_tx/make_rx return TimedTx/TimedRx around
/// the built-in adapters (LoRa is the SF8 packet PHY, key "lora_sf8").
[[nodiscard]] tinysdr::phy::Registry timed_registry();

}  // namespace perfbench
