// Deterministic random number generation for reproducible simulation.
//
// All stochastic parts of the simulator (AWGN, packet loss, payload
// generation) draw from an explicitly seeded PCG32 generator so that tests
// and benchmark tables reproduce bit-for-bit across runs and platforms.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>

namespace tinysdr {

/// PCG32 (O'Neill) — small, fast, statistically solid, and fully portable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL)
      : state_(0), inc_((stream << 1u) | 1u) {
    next_u32();
    state_ += seed;
    next_u32();
  }

  /// Uniform 32-bit value.
  std::uint32_t next_u32() {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform in [0, bound).
  std::uint32_t next_below(std::uint32_t bound) {
    // Debiased modulo (Lemire-style rejection).
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      std::uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u32()) * (1.0 / 4294967296.0);
  }

  /// Standard normal via Box-Muller (cached second value).
  double next_gaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    do {
      u1 = next_double();
    } while (u1 <= 1e-12);
    double u2 = next_double();
    double mag = std::sqrt(-2.0 * std::log(u1));
    double angle = 2.0 * std::numbers::pi * u2;
    cached_ = mag * std::sin(angle);
    has_cached_ = true;
    return mag * std::cos(angle);
  }

  /// Exactly `for (auto& v : out) v = static_cast<float>(next_gaussian());`
  /// -- the same values, cache and generator state afterwards -- but on
  /// AVX2+FMA CPUs it evaluates Box–Muller four pairs at a time.
  void fill_gaussian(std::span<float> out);

  bool next_bool(double p_true) { return next_double() < p_true; }

  std::uint8_t next_byte() {
    return static_cast<std::uint8_t>(next_u32() & 0xFFu);
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace tinysdr
