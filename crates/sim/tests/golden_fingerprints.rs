//! Recorded goldens: the timing model's output on every kernel, pinned to
//! a checked-in table, so "simulated results bit-identical" is a tier-1
//! test and not only a benchmark-side `compare`.
//!
//! Each row is one run at `Scale::Test`: its cycle count and a hash of the
//! `Debug` rendering of every per-WPU and memory-system counter (the same
//! rendering the benchmark's `sim_fingerprint` hashes, so a counter added
//! to either struct is covered without an edit here). A change that is
//! meant to alter timing regenerates the table and says so:
//!
//! ```text
//! cargo test --release -p dws-sim --test golden_fingerprints -- \
//!     --ignored --nocapture print_golden_table \
//!     | grep '^golden ' > crates/sim/tests/golden_fingerprints.txt
//! ```

use dws_core::Policy;
use dws_engine::hash::FastHasher;
use dws_kernels::{Benchmark, Scale};
use dws_sim::{presets, Machine};
use std::hash::Hasher;

const SEED: u64 = 42;
const GOLDEN: &str = include_str!("golden_fingerprints.txt");

/// One row per kernel x policy x machine size, in a fixed order.
fn table() -> Vec<String> {
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let spec = bench.build(Scale::Test, SEED);
        for policy in [
            Policy::conventional(),
            Policy::dws_revive(),
            Policy::slip_branch_bypass(),
        ] {
            for n_wpus in [4, 32] {
                let what = format!("{} {} {n_wpus}", bench.name(), policy.paper_name());
                let r = Machine::run(&presets::scaled(policy, n_wpus), &spec)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                spec.verify(&r.memory)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let mut h = FastHasher::default();
                h.write(format!("{:?} {:?}", r.per_wpu, r.mem).as_bytes());
                rows.push(format!(
                    "golden {what} cycles={} stats={:016x}",
                    r.cycles,
                    h.finish()
                ));
            }
        }
    }
    rows
}

#[test]
fn simulated_results_match_the_recorded_goldens() {
    let recorded: Vec<&str> = GOLDEN.lines().collect();
    let actual = table();
    assert_eq!(recorded.len(), 8 * 3 * 2, "golden table is incomplete");
    let drift: Vec<String> = actual
        .iter()
        .zip(&recorded)
        .filter(|(a, r)| a != r)
        .map(|(a, r)| format!("  recorded: {r}\n  actual:   {a}"))
        .collect();
    assert!(
        drift.is_empty() && actual.len() == recorded.len(),
        "{} of {} rows differ from crates/sim/tests/golden_fingerprints.txt:\n{}",
        drift.len(),
        recorded.len(),
        drift.join("\n")
    );
}

#[test]
#[ignore = "regenerates the golden table; see the module docs"]
fn print_golden_table() {
    for row in table() {
        println!("{row}");
    }
}
