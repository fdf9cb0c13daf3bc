#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. See README.md; `run.sh` alone runs every workload and prints every
# metric, `run.sh compare A.json B.json` is the regression gate, and
# `run.sh --workload W --seed N --seconds S --trace 0|1` is the single run
# /BENCHMARK.json's command makes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Honour a target directory the caller chose; otherwise stay out of the
# workspace's own target/ subtrees.
target="${CARGO_TARGET_DIR:-target/benchmark}"
# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/dws-benchmark" "$@"
