#!/bin/bash
# Regenerates every table/figure in order of importance.
#
# Tables go to bench_output.txt; per-sweep host timings are appended to
# bench_timings.jsonl as one JSON object per line. DWS_JOBS controls the
# sweep worker pool (DWS_JOBS=1 reproduces the historical serial harness).
cd /root/repo
: > bench_output.txt
: > bench_timings.jsonl
# fig13_meld is the advisory melded-cycle-delta row: static melding vs DWS
# vs both on the meldable kernel variants, normalized to Conv.
for fig in table1_characterization fig13_schemes fig13_meld fig07_branch_dws fig11_branchlimited \
           fig19_energy fig16_l2lat fig17_dsize fig15_assoc fig20_sched_slots \
           fig21_wst_size fig14_heatmap fig01_motivation fig18_width_depth ablation extension_throttle; do
  echo "=== bench: $fig ===" | tee -a bench_output.txt
  t0=$(date +%s.%N)
  cargo bench -p dws-bench --bench "$fig" 2>>bench_progress.log | tee -a bench_output.txt
  status=${PIPESTATUS[0]}
  t1=$(date +%s.%N)
  dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')
  printf '{"sweep": "%s", "host_seconds": %s, "workers": "%s", "scale": "%s", "status": %d}\n' \
    "$fig" "$dt" "${DWS_JOBS:-auto}" "${DWS_SCALE:-bench}" "$status" \
    >> bench_timings.jsonl
done
echo "=== bench: scaling_wpus ===" | tee -a bench_output.txt
# The scaling study runs 32/64/128-WPU machines, each under Conv and DWS —
# restrict the benchmark set to keep its wall clock in line with the
# single-figure sweeps.
t0=$(date +%s.%N)
DWS_BENCHMARKS="${DWS_SCALING_BENCHMARKS:-Merge,FFT}" \
  cargo bench -p dws-bench --bench scaling_wpus 2>>bench_progress.log | tee -a bench_output.txt
status=${PIPESTATUS[0]}
t1=$(date +%s.%N)
dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')
printf '{"sweep": "scaling_wpus", "host_seconds": %s, "scale": "%s", "status": %d}\n' \
  "$dt" "${DWS_SCALE:-bench}" "$status" >> bench_timings.jsonl
echo "=== bench: micro (criterion) ===" | tee -a bench_output.txt
cargo bench -p dws-bench --bench micro 2>>bench_progress.log | tee -a bench_output.txt
echo "=== fuzz throughput (advisory) ===" | tee -a bench_output.txt
# Correctness fuzzing lives in ci.sh (25-seed smoke, determinism-checked);
# here we only time a wider campaign so kernel-generation + differential-
# battery throughput is recorded (simulator throughput itself is
# `bash benchmark/run.sh`). A non-zero
# status (7 = real oracle divergence) is recorded, not fatal.
t0=$(date +%s.%N)
cargo run -q --release --bin dws-cli -- fuzz --seeds 100 \
  2>>bench_progress.log | tee -a bench_output.txt
status=${PIPESTATUS[0]}
t1=$(date +%s.%N)
dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')
printf '{"sweep": "fuzz_100", "host_seconds": %s, "status": %d}\n' \
  "$dt" "$status" >> bench_timings.jsonl
echo ALL_BENCHES_DONE | tee -a bench_output.txt
