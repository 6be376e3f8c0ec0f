#!/usr/bin/env bash
# Tier-1 verification: build + full test suite in the default configuration,
# telemetry/phy/adversary/serve/perf smokes over the bench binaries, then a
# second pass under AddressSanitizer + UndefinedBehaviorSanitizer and a
# ThreadSanitizer pass over the exec engine / parallel campaign suites.
# Usage: scripts/verify.sh [--fast]   (--fast skips the sanitizer passes)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: default build =="
cmake --preset default
cmake --build --preset default -j"$(nproc)"
ctest --preset default -j"$(nproc)"

echo "== build check: one SIMD dispatch site, exact-float objects =="
scripts/check_cx_range.sh build

have_python=1
command -v python3 > /dev/null || have_python=0
check_json() {
  if [[ "$have_python" == 1 ]]; then
    python3 scripts/check_bench_json.py "$@"
  else
    echo "smoke: python3 not found, skipping JSON validation"
  fi
}

echo "== telemetry smoke: instrumented fault campaign =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./build/bench/bench_trace_campaign \
  --trace "$smoke_dir/trace.json" \
  --metrics "$smoke_dir/metrics.json" \
  --flight "$smoke_dir/flight.json" \
  --json "$smoke_dir/bench.json"
# Chrome trace / metrics / flight exports are their own schemas; the bench
# summary is a full tinysdr-bench-v1 document with flight counts.
check_json --parse-only "$smoke_dir/trace.json" "$smoke_dir/metrics.json" \
  "$smoke_dir/flight.json"
check_json "$smoke_dir/bench.json" --gt "flight.records=0"

echo "== phy smoke: LinkSimulator-backed figure bench =="
./build/bench/bench_fig11_lora_demod_ser --threads 2 \
  --json "$smoke_dir/phy_bench.json" > /dev/null
check_json "$smoke_dir/phy_bench.json" --series ser_vs_rssi

echo "== adversary smoke: jammers + coexistence + OTA attack campaign =="
./build/bench/bench_adversary_campaign --threads 2 \
  --json "$smoke_dir/adversary_bench.json" > /dev/null
# Survival contract: every attack regime succeeds fleet-wide while being
# detected, and the rollback push is refused by every node.
check_json "$smoke_dir/adversary_bench.json" \
  --series jammer_ser_vs_rssi --series coexistence_per \
  --eq "jam-10%.success_rate=1.0" \
  --eq "forge-ack-5%.success_rate=1.0" \
  --eq "truncate-5%.success_rate=1.0" \
  --eq "replay-10%.success_rate=1.0" \
  --eq "combined.success_rate=1.0" \
  --gt "jam-10%.jammed_packets=0" \
  --gt "forge-ack-5%.forged_acks_discarded=0" \
  --gt "truncate-5%.truncated_dropped=0" \
  --gt "replay-10%.replays_dropped=0" \
  --eq "rollback-push.success_rate=0.0" \
  --gt "rollback-push.rollback_rejections=0"

echo "== OTA smoke: Fig. 14 campaigns at 1 and 4 threads =="
# Each campaign compresses its image once and shares it across the worker
# threads; the Fig. 14 scalars must not depend on that or on the thread
# count.
fig14_eq=(
  --eq "fpga_lora.successes=20" --eq "fpga_lora.compressed_kb=108.5966796875"
  --eq "fpga_lora.mean_time_s=139.30689671378025"
  --eq "fpga_ble.successes=20" --eq "fpga_ble.compressed_kb=48.0859375"
  --eq "fpga_ble.mean_time_s=61.83488891378272"
  --eq "mcu.successes=20" --eq "mcu.compressed_kb=22.5830078125"
  --eq "mcu.mean_time_s=31.04011089090933"
)
for threads in 1 4; do
  ./build/bench/bench_fig14_ota_cdf --threads "$threads" \
    --json "$smoke_dir/fig14_t$threads.json" > /dev/null
  check_json "$smoke_dir/fig14_t$threads.json" --series time_cdf \
    "${fig14_eq[@]}"
done

echo "== LoRa RX smoke: Fig. 15a concurrent pair at 1 and 4 threads =="
# The oversampled pair runs the decimating FIR on every trial; the SER
# curve must not depend on the thread count.
for threads in 1 4; do
  ./build/bench/bench_fig15a_concurrent --threads "$threads" \
    --json "$smoke_dir/fig15a_t$threads.json" > /dev/null
done
check_json "$smoke_dir/fig15a_t1.json" "$smoke_dir/fig15a_t4.json" \
  --series ser_vs_rssi --same-series ser_vs_rssi

echo "== AWGN smoke: Fig. 10 LoRa PER at 1 and 4 threads =="
# Every trial draws its AWGN through the block Gaussian fill; the PER
# curve must not depend on the thread count.
for threads in 1 4; do
  ./build/bench/bench_fig10_lora_mod_per --threads "$threads" \
    --json "$smoke_dir/fig10_t$threads.json" > /dev/null
done
check_json "$smoke_dir/fig10_t1.json" "$smoke_dir/fig10_t4.json" \
  --series per_vs_rssi --same-series per_vs_rssi

echo "== serve smoke: campaign daemon + memoization cache contract =="
scripts/serve_smoke.sh "$smoke_dir/serve"

echo "== flow smoke: zero-copy streaming runtime =="
# The bench doubles as the streaming smoke: it fails (non-zero exit) if
# the threaded sink diverges from the single-thread schedule or the
# graph output drifts from the copy-engine reference.
./build/bench/bench_flow_streaming \
  --json "$smoke_dir/flow_streaming.json" > /dev/null
check_json "$smoke_dir/flow_streaming.json" \
  --eq "deterministic_match=1.0" --eq "copy_match_ok=1.0" \
  --gt "speedup_spsc_vs_copy=1.0"

echo "== impairment smoke: ablation + batch/stream chain identity =="
# The bench exits non-zero if the zero-magnitude chain perturbs the trial
# engine or the streaming chain diverges from the batch one.
./build/bench/bench_impairments \
  --json "$smoke_dir/impairments.json" > /dev/null
check_json "$smoke_dir/impairments.json" \
  --series ablation_per \
  --eq "batch_stream_identical=1.0" --eq "zero_chain_identical=1.0"

echo "== perf gate: bench runs vs checked-in baselines =="
if [[ "$have_python" == 1 ]]; then
  # Local machines differ from the baseline machine, so wall-clock and
  # rate metrics get a loose tolerance here; deterministic simulation
  # outputs must still reproduce within the default 10%.
  # Default google-benchmark min_time: the baselines were recorded at
  # default settings, and short runs inflate per-iter costs (setup and
  # cache warm-up stop amortizing), tripping false regressions.
  ./build/bench/bench_micro_dsp --json "$smoke_dir/micro_dsp.json" > /dev/null
  ./build/bench/bench_parallel_scaling \
    --json "$smoke_dir/parallel_scaling.json" > /dev/null
  python3 scripts/perf_gate.py \
    --baseline bench/baselines/BENCH_micro_dsp.json \
    --current "$smoke_dir/micro_dsp.json" \
    --timing-tolerance 3.0 \
    --report "$smoke_dir/perf_gate_micro_dsp.json"
  python3 scripts/perf_gate.py \
    --baseline bench/baselines/BENCH_parallel_scaling.json \
    --current "$smoke_dir/parallel_scaling.json" \
    --timing-tolerance 3.0 --ignore ".seconds" --ignore ".speedup" \
    --ignore "best_speedup" \
    --report "$smoke_dir/perf_gate_parallel_scaling.json"
  # warm_throughput is pure cache-lookup time — too noisy to gate; the
  # deterministic contract scalars (byte_identical, hit rate, points)
  # still gate tightly.
  ./build/bench/bench_serve_throughput --threads 2 \
    --json "$smoke_dir/serve_throughput.json" > /dev/null
  python3 scripts/perf_gate.py \
    --baseline bench/baselines/BENCH_serve_throughput.json \
    --current "$smoke_dir/serve_throughput.json" \
    --timing-tolerance 3.0 --ignore warm_throughput \
    --report "$smoke_dir/perf_gate_serve_throughput.json"
  # flow_streaming.json was produced by the flow smoke above; the
  # deterministic contract scalars gate tightly, rates loosely.
  python3 scripts/perf_gate.py \
    --baseline bench/baselines/BENCH_flow_streaming.json \
    --current "$smoke_dir/flow_streaming.json" \
    --timing-tolerance 3.0 --ignore ".seconds" \
    --report "$smoke_dir/perf_gate_flow_streaming.json"
  # impairments.json was produced by the impairment smoke above; every
  # number in it is deterministic, so it gates at the default tolerance.
  python3 scripts/perf_gate.py \
    --baseline bench/baselines/BENCH_impairments.json \
    --current "$smoke_dir/impairments.json" \
    --report "$smoke_dir/perf_gate_impairments.json"
else
  echo "smoke: python3 not found, skipping perf gate"
fi

echo "== fuzz smoke: every harness over its seed corpus =="
./build/tests/tinysdr_fuzz --iterations 500 --artifacts "$smoke_dir/fuzz-artifacts"

if [[ "${1:-}" != "--fast" ]]; then
  echo "== tier-1: ASan+UBSan build =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j"$(nproc)"
  ctest --preset asan-ubsan -j"$(nproc)"

  echo "== tier-1: TSan build (exec + campaign + flow + serve suites) =="
  cmake --preset tsan
  cmake --build --preset tsan -j"$(nproc)"
  ctest --preset tsan -j"$(nproc)" \
    -R "SeedStreams|ParallelFor|WorkerPool|RunPinned|CancelSweep|ParallelCampaign|Campaign|FaultCampaign|SpscRing|FlowThreaded|Server\."
fi

echo "verify: OK"
