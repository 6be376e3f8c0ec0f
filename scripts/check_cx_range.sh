#!/usr/bin/env bash
# Checks the floating-point code generation of the bit-exact DSP kernels in
# a GCC build:
#  - the FFT and LoRa demodulator objects were compiled with
#    -fcx-limited-range: without it, GCC in ISO mode wraps each
#    std::complex multiply in a NaN check with a __mulsc3 libcall, which is
#    what the flag (scoped in src/dsp and src/lora CMakeLists) removes;
#  - the FFT and quantizer objects hold no FMA instruction: their scalar
#    and AVX2 paths must round every product before its sum
#    (-ffp-contract=off, scoped in src/dsp and src/radio CMakeLists, and
#    target("avx2") without "fma").
# Other compilers are skipped.
# Usage: scripts/check_cx_range.sh [build-dir]   (default: build)
set -euo pipefail
build_dir="${1:-build}"

compiler_id="$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' \
  "$build_dir"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)"
if [[ "$compiler_id" != "GNU" ]]; then
  echo "cx-range check: compiler is '${compiler_id:-unknown}', skipping"
  exit 0
fi

status=0
for object in fft.cpp.o demodulator.cpp.o quantizer.cpp.o; do
  path="$(find "$build_dir" -path '*/src/*' -name "$object" -print -quit)"
  if [[ -z "$path" ]]; then
    echo "cx-range check: $object not found under $build_dir" >&2
    status=1
    continue
  fi
  if [[ "$object" != quantizer.cpp.o ]] &&
    nm -u "$path" | grep -q '__mulsc3'; then
    echo "cx-range check: $path calls __mulsc3;" \
      "-fcx-limited-range was dropped" >&2
    status=1
  fi
  # vfmadd*, vfmsub*, vfnmadd*, vfnmsub*, vfmaddsub*, vfmsubadd*. grep -c
  # reads the whole listing (grep -q would stop early and fail the
  # pipeline with objdump's SIGPIPE).
  if [[ "$object" != demodulator.cpp.o ]]; then
    fma="$(objdump -d "$path" | grep -Ec '[[:space:]]vfn?m(add|sub)' || true)"
    if [[ "$fma" != 0 ]]; then
      echo "cx-range check: $path contains $fma FMA instructions;" \
        "a product is no longer rounded before its sum" >&2
      status=1
    fi
  fi
done
[[ "$status" == 0 ]] && echo "cx-range check: OK"
exit "$status"
