// The one place that decides whether this process runs the AVX2 kernels
// (Rng::fill_gaussian, FftPlan::forward, the block FIR and
// IqQuantizer::roundtrip_in_place). TINYSDR_AVX2 is defined where they
// compile at all: GCC on x86-64. Each has a scalar loop that defines its
// bytes and an AVX2 path that gives the same ones, so the answer changes
// only the speed. scripts/check_cx_range.sh keeps this the only file that
// asks the CPU for its features.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define TINYSDR_AVX2 1
#endif

namespace tinysdr::simd {

/// True when the AVX2 kernels were compiled in and this CPU has AVX2 and
/// FMA (checked once). Only the Gaussian kernel uses FMA.
inline bool avx2() {
#if defined(TINYSDR_AVX2)
  static const bool kSupported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return kSupported;
#else
  return false;
#endif
}

}  // namespace tinysdr::simd
