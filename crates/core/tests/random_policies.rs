//! Randomized differential test: for *randomly generated* structured
//! kernels, every scheduling policy — conventional, the full DWS matrix,
//! adaptive slip — must produce memory contents identical to the
//! timing-free reference runner. This is the strongest correctness property
//! of the simulator: subdivision, re-convergence, slip and barrier logic
//! may change timing, never results. Kernels are generated from the
//! vendored deterministic PRNG, so any failing seed reproduces exactly.
//!
//! Every WPU here is built with the sanitizer forced on, so in release as
//! in debug each scheduler pick is checked against the slab scan and each
//! µop against the per-lane interpreter, in situ: a fast-path bug fails at
//! the offending pick / pc / lane instead of as a shifted fingerprint.
//! `Wpu::tick` is `tick_compute` then, when that suspends, `tick_commit`;
//! alternate seeds issue those two calls from out here instead, the way
//! the benchmark's traced driver does, which pins that an external
//! two-call driver is indistinguishable from `tick`.

mod common;

use common::{all_policies, compile, gen_block, MEM_WORDS};
use dws_core::{Policy, TickClass, Wpu, WpuConfig};
use dws_engine::rng::Rng64;
use dws_engine::{Cycle, Phase};
use dws_isa::{Program, ReferenceRunner, VecMemory};
use dws_mem::{MemConfig, MemorySystem};
use std::sync::Arc;

/// Observable fingerprint of one WPU-level run: final memory, end cycle,
/// and the stall/issue/split accounting the figures are built from.
type RunFingerprint = (VecMemory, u64, [u64; 7]);

/// Runs the program on a sanitized 2-warp, 8-wide WPU under `policy`,
/// ticking through [`Wpu::tick`] or — with `split` — by calling
/// [`Wpu::tick_compute`] and, when it suspends, [`Wpu::tick_commit`]
/// itself. Also returns the uniform-branch fast-path count.
fn run_policy(
    program: &Arc<Program>,
    policy: Policy,
    mem0: &VecMemory,
    split: bool,
) -> (RunFingerprint, u64) {
    let mut cfg = WpuConfig::paper(0, policy);
    cfg.n_warps = 2;
    cfg.width = 8;
    cfg.sched_slots = 4;
    dws_engine::sanitize::force(true);
    let mut wpu = Wpu::new(cfg, Arc::clone(program), 0, 16);
    let mut mem = MemorySystem::new(MemConfig::paper(1, 8));
    let mut data = mem0.clone();
    let mut now = Cycle(0);
    loop {
        for c in mem.drain_completions(now) {
            wpu.on_completion(c.request, c.at);
        }
        let class = if split {
            match wpu.tick_compute(now) {
                Phase::Complete(class) => class,
                Phase::NeedsCommit => wpu.tick_commit(now, &mut mem, &mut data),
            }
        } else {
            wpu.tick(now, &mut mem, &mut data)
        };
        if class == TickClass::Done {
            break;
        }
        let live = wpu.live_threads();
        if live > 0 && wpu.barrier_waiting() == live {
            wpu.release_barrier(now);
        }
        now += 1;
        assert!(now.raw() < 20_000_000, "policy {policy:?} did not finish");
    }
    let s = &wpu.stats;
    let fp = [
        s.busy_cycles.get(),
        s.mem_stall_cycles.get(),
        s.idle_cycles.get(),
        s.warp_insts.get(),
        s.branch_splits.get(),
        s.mem_splits.get(),
        s.revive_splits.get(),
    ];
    ((data, now.raw(), fp), s.uniform_fast_branches.get())
}

fn output_region(mem: &VecMemory) -> &[u64] {
    &mem.words()[(MEM_WORDS / 2) as usize..]
}

#[test]
fn random_kernels_agree_across_policies() {
    let mut total_fast = 0u64;
    for seed in 0..24u64 {
        let mut rng = Rng64::new(0xD1575EED ^ seed);
        let mut budget = 24usize;
        let top_len = 1 + rng.range_usize(7);
        let stmts = gen_block(&mut rng, 3, top_len, &mut budget);
        let program = Arc::new(compile(&stmts));
        let mem0 = VecMemory::new(MEM_WORDS as u64 * 8);
        // Reference: lockstep-free execution.
        let mut reference = mem0.clone();
        ReferenceRunner::new(&program, 16)
            .with_step_budget(10_000_000)
            .run(&mut reference)
            .expect("reference terminates");
        for policy in all_policies() {
            let ctx = format!("seed {seed} policy {}", policy.paper_name());
            let (ticked, fast) = run_policy(&program, policy, &mem0, false);
            total_fast += fast;
            assert_eq!(
                output_region(&ticked.0),
                output_region(&reference),
                "{ctx}: diverged from reference ({stmts:?})"
            );
            if seed % 2 == 1 {
                let (split, _) = run_policy(&program, policy, &mem0, true);
                assert_eq!(split.1, ticked.1, "{ctx}: compute/commit cycles");
                assert_eq!(split.2, ticked.2, "{ctx}: compute/commit accounting");
                assert_eq!(
                    split.0.words(),
                    ticked.0.words(),
                    "{ctx}: compute/commit memory ({stmts:?})"
                );
            }
        }
    }
    // The generator emits uniform loop bounds and uniform conditions often
    // enough that a dead fast path would be a wiring bug, not bad luck.
    assert!(
        total_fast > 1000,
        "only {total_fast} uniform fast-path branches across the battery — hints look dead"
    );
}
