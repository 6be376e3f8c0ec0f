#!/usr/bin/env bash
# Checks the rules that keep the DSP kernels' bytes the same on every host.
#  - One dispatch site: no file in src/ other than common/simd.hpp asks
#    the CPU for its features (__builtin_cpu_supports).
#  - In a GCC build, the objects built by tinysdr_exact_float (the FFT,
#    FIR, quantizer and LoRa demodulator) were compiled with its flags:
#    none calls __mulsc3 (-fcx-limited-range; without it GCC in ISO mode
#    wraps each std::complex multiply in a NaN check with that libcall
#    behind it), and none holds an FMA instruction (-ffp-contract=off and
#    AVX2 targets without "fma": their scalar and AVX2 paths must round
#    every product before its sum). Other compilers skip this part.
# rng.cpp is not on the list and may hold FMA: its Box–Muller kernel is
# not exact by itself, and its tie guard recomputes with libm every result
# whose float rounding the kernel's error could change.
# Usage: scripts/check_cx_range.sh [build-dir]   (default: build)
set -euo pipefail
build_dir="${1:-build}"
src_dir="$(dirname "$0")/../src"

status=0
dispatch="$(grep -rln '__builtin_cpu_supports' "$src_dir" |
  grep -v '/common/simd\.hpp$' || true)"
if [[ -n "$dispatch" ]]; then
  echo "cx-range check: __builtin_cpu_supports outside common/simd.hpp:" \
    $dispatch >&2
  status=1
fi

compiler_id="$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' \
  "$build_dir"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)"
if [[ "$compiler_id" != "GNU" ]]; then
  echo "cx-range check: compiler is '${compiler_id:-unknown}'," \
    "skipping the object checks"
  exit "$status"
fi

for object in fft.cpp.o fir.cpp.o quantizer.cpp.o demodulator.cpp.o; do
  path="$(find "$build_dir" -path '*/src/*' -name "$object" -print -quit)"
  if [[ -z "$path" ]]; then
    echo "cx-range check: $object not found under $build_dir" >&2
    status=1
    continue
  fi
  if nm -u "$path" | grep -q '__mulsc3'; then
    echo "cx-range check: $path calls __mulsc3;" \
      "-fcx-limited-range was dropped" >&2
    status=1
  fi
  # vfmadd*, vfmsub*, vfnmadd*, vfnmsub*, vfmaddsub*, vfmsubadd*. grep -c
  # reads the whole listing (grep -q would stop early and fail the
  # pipeline with objdump's SIGPIPE).
  fma="$(objdump -d "$path" | grep -Ec '[[:space:]]vfn?m(add|sub)' || true)"
  if [[ "$fma" != 0 ]]; then
    echo "cx-range check: $path contains $fma FMA instructions;" \
      "a product is no longer rounded before its sum" >&2
    status=1
  fi
done
[[ "$status" == 0 ]] && echo "cx-range check: OK"
exit "$status"
