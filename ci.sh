#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, and the tier-1 test suite.
# Everything runs with --offline (the repo has no registry dependencies),
# so it works in air-gapped containers.
set -euo pipefail
cd "$(dirname "$0")"

# named_tests [--exact] <cargo test args...> -- <test names...>
# A guard that names its tests. `cargo test -- <names>` exits 0 with
# "running 0 tests" when a name matches nothing — which is all a renamed or
# moved test looks like — so this fails unless at least as many tests
# passed as names were given.
named_tests() {
  local exact=() cargo_args=() out passed
  if [[ $1 == --exact ]]; then
    exact=(--exact)
    shift
  fi
  while [[ $1 != -- ]]; do
    cargo_args+=("$1")
    shift
  done
  shift
  if ! out=$(cargo test -q --release --offline "${cargo_args[@]}" -- "${exact[@]}" "$@" 2>&1); then
    echo "$out"
    return 1
  fi
  passed=$(grep -Eo '[0-9]+ passed' <<<"$out" | awk '{ n += $1 } END { print n + 0 }')
  if ((passed < $#)); then
    echo "$out"
    echo "named guard: $# tests named, only $passed passed: $*" >&2
    return 1
  fi
  echo "$passed passed of $# named (${cargo_args[*]})"
}

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings + pedantic subset, all targets) =="
# Beyond the default lints, an allow-listed clippy::pedantic subset the
# codebase is verified clean under (kept explicit so new pedantic lints
# don't break CI when the toolchain updates).
cargo clippy --workspace --release --benches --examples --tests --offline -- -D warnings \
  -D clippy::uninlined_format_args \
  -D clippy::semicolon_if_nothing_returned \
  -D clippy::redundant_closure_for_method_calls \
  -D clippy::unnested_or_patterns \
  -D clippy::manual_let_else \
  -D clippy::ignored_unit_patterns \
  -D clippy::needless_continue \
  -D clippy::explicit_iter_loop \
  -D clippy::inefficient_to_string

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== kernel lint gate (static verifier, deny warnings) =="
# Every shipped kernel at every input scale must pass the six-pass static
# verifier (CFG shape, re-convergence, def-use, memory bounds, divergence,
# melding advisory) plus the buffer-layout cross-check with zero errors and
# zero warnings (DWS06xx meld advisories are notes and never gate).
cargo run -q --release --offline --bin dws-cli -- lint --all --deny-warnings

echo "== meld transform gate (opt --meld output must stay lint-clean) =="
# The control-flow melding pass must fire on the checked-in fuzz
# reproducer and its predicated straight-line output must re-verify with
# zero errors and zero warnings.
cargo run -q --release --offline --bin dws-cli -- \
  opt crates/sim/tests/corpus/seed-00000-meldable-poly.asm \
  --meld --deny-warnings --quiet > /dev/null

echo "== cargo test (tier-1) =="
cargo test -q --release --workspace --offline

echo "== cargo test (debug profile: dws-mem, dws-core, dws-isa) =="
# Everything else here runs --release, where integer-overflow checks are
# off — which is how the directory's `1 << l1` on a u32 sharer mask
# survived to 64-WPU machines. One debug pass over the crates that do the
# bit arithmetic (masks, sharer sets, rings; the verifier's `i128`
# intervals and register/block bitsets) keeps those checks in CI.
cargo test -q --offline -p dws-mem -p dws-core -p dws-isa

echo "== tier-1 equivalence guards (named, release) =="
# The event-driven run loop must stay bit-identical to stepping, and the
# sanitized random_policies battery checks every ready-ring pick and every
# µop against its in-situ oracle; run these by name so a test-filter
# mistake can never silently drop them from the gate.
cargo test -q --release --offline -p dws-sim --test zero_alloc_steady_state
cargo test -q --release --offline -p dws-sim --test sweep_determinism
cargo test -q --release --offline -p dws-sim --test event_equivalence
cargo test -q --release --offline -p dws-core --test random_policies
# Sleeping through MSHR back-pressure: run = step = phased ticks where
# refusals outnumber instructions, certificate oracle forced on.
named_tests --exact -p dws-sim --test event_equivalence -- \
  backpressure_sleep_matches_step backpressure_sleep_matches_phased_ticks
# The indexes on a memory instruction's path against the scans and
# multi-pass code they replaced (kept as test-only references): the Link
# epoch ring vs the sorted vector, the group-major coalescer vs the
# multi-pass one.
named_tests -p dws-mem --lib -- \
  ring_matches_sorted_vector ring_reproduces_the_prune_rule \
  group_major_coalescer_matches_the_multi_pass_reference \
  line_back_invalidated_between_passes_matches_the_reference \
  sharers_past_32_l1s_do_not_alias
# The SIMD-group table on its own: random verb sequences, every counter,
# ring, heap minimum and slot set re-derived from a slab scan each step.
named_tests -p dws-core --lib -- \
  random_verb_sequences_keep_every_index_equal_to_a_slab_scan
# Recorded goldens: cycles and every counter of 8 kernels x 3 policies x
# {4, 32} WPUs must match the checked-in table bit for bit.
cargo test -q --release --offline -p dws-sim --test golden_fingerprints
# The benchmark's frozen traced driver must still replay the core bit for
# bit (8 kernels x 3 policies at 4 and 32 WPUs), so a core change it cannot
# reproduce fails here, before a benchmark run does.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "== tier-1 robustness guards (named, release) =="
# Chaos battery (fault plans x policies, sanitizer forced on) and sweep
# panic isolation — the machine must fail loudly and precisely, never
# hang or take sibling jobs down with it.
cargo test -q --release --offline -p dws-sim --test chaos_invariants
cargo test -q --release --offline -p dws-sim --test sweep_panic_isolation
cargo test -q --release --offline -p dws-sim --test fuzz_harness
cargo test -q --release --offline -p dws-sim --test corpus_replay

echo "== tier-1 transform-equivalence guards (named, release) =="
# Static control-flow melding must be semantics-preserving on the timed
# machine (bit-identity across all policies + chaos plans), profitable
# under the conventional baseline, and lint-clean; the reusable dataflow
# framework must agree with the test-scope reference def-use fixpoint
# everywhere; and the verifier's divergence counters must be the ones the
# WPU scheduler runs on (the control-dependence goldens fail under a
# data-only taint). Named, so a file move cannot silently drop them.
cargo test -q --release --offline -p dws-sim --test meld_differential
named_tests --exact -p dws-isa --test dataflow_differential -- \
  framework_defuse_matches_reference_on_all_benchmarks \
  framework_defuse_matches_reference_on_generated_kernels
named_tests --exact -p dws-isa --test verify_kernels -- \
  linter_and_machine_agree_on_branch_uniformity \
  golden_barrier_under_control_tainted_branch \
  golden_control_tainted_branch_counts_toward_nesting \
  golden_irreducible_nesting

echo "== fuzz smoke (differential oracle battery, fixed seeds) =="
# A short verifier-guided fuzz campaign across every oracle axis (all
# policies vs the reference interpreter, stepped vs event-driven, chaos
# vs zero-fault, melded vs unmelded). Must be clean
# (exit 0; 7 = real divergence found) AND byte-identical across two runs —
# the report embeds no wall-clock, so any diff is lost determinism. The
# second run goes through the DWS_WATCHDOG_* env overrides to keep that
# configuration path exercised.
cargo run -q --release --offline --bin dws-cli -- \
  fuzz --seeds 25 --json > fuzz_smoke_a.json
DWS_WATCHDOG_LIVELOCK=200000 DWS_WATCHDOG_HOST_MS=60000 \
  cargo run -q --release --offline --bin dws-cli -- \
  fuzz --seeds 25 --json > fuzz_smoke_b.json
cmp fuzz_smoke_a.json fuzz_smoke_b.json
rm -f fuzz_smoke_a.json fuzz_smoke_b.json

echo "== DWS_SANITIZE=1 release smoke run =="
# One paper-scale simulation with the debug-only scheduler-sync and
# µop-oracle checks promoted into the release binary.
DWS_SANITIZE=1 cargo run -q --release --offline --bin dws-cli -- \
  run --bench Merge --scale test --policy revive > /dev/null

echo "CI OK"
