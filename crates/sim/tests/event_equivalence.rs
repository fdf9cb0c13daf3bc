//! The event-driven run loop must be invisible: [`Machine::run`] skips
//! cycles on a per-WPU basis (each WPU sleeps until its own next wake or
//! fill completion) and charges the skipped stretch lazily, so its results
//! must be bit-identical to stepping [`Machine::step`] one cycle at a time.
//! These tests drive multi-WPU machines so some WPUs sleep while others
//! issue — the path the in-crate single-WPU test cannot reach.

use dws_core::Policy;
use dws_kernels::{Benchmark, Scale};
use dws_sim::{Machine, RunResult, SimConfig};

fn by_step(cfg: &SimConfig, spec: &dws_kernels::KernelSpec) -> RunResult {
    let mut m = Machine::new(cfg, spec);
    while !m.done() {
        m.step();
        assert!(m.now().raw() < 200_000_000, "step loop runaway");
    }
    m.into_result()
}

fn assert_equivalent(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.memory.words(), b.memory.words(), "{what}: memory");
    assert_eq!(a.wst_peaks, b.wst_peaks, "{what}: wst peaks");
    assert_eq!(
        a.per_thread_misses, b.per_thread_misses,
        "{what}: per-thread misses"
    );
    assert_eq!(a.mem, b.mem, "{what}: memory-system stats");
    assert_eq!(a.per_wpu, b.per_wpu, "{what}: per-WPU stats");
}

/// Non-adaptive policies on two-WPU machines: WPUs stall at different
/// times, so the run loop's per-WPU skipping (one WPU asleep while its
/// neighbour issues) must still reproduce the stepped machine exactly.
#[test]
fn run_matches_step_on_multi_wpu_machines() {
    for policy in [
        Policy::conventional(),
        Policy::dws_aggress(),
        Policy::dws_lazy(),
        Policy::dws_revive(),
    ] {
        for bench in [Benchmark::Merge, Benchmark::Fft] {
            let spec = bench.build(Scale::Test, 11);
            let cfg = SimConfig::paper(policy).with_wpus(2);
            let run = Machine::run(&cfg, &spec).unwrap();
            spec.verify(&run.memory).unwrap();
            let step = by_step(&cfg, &spec);
            assert_equivalent(
                &run,
                &step,
                &format!("{} under {}", bench.name(), policy.paper_name()),
            );
        }
    }
}

/// Adaptive policies (slip's inactivity sampling, the adaptive throttle)
/// publish their next decision boundary as a wake event
/// ([`dws_core::Wpu::next_adapt_boundary`]), so the run loop no longer
/// holds them in per-cycle lockstep — it sleeps through event gaps like it
/// does for every other policy, waking for adapt boundaries as it does for
/// memory completions. The event-driven run must still be bit-identical to
/// stepping every cycle.
#[test]
fn adaptive_policies_run_matches_step() {
    for policy in [Policy::slip(), Policy::dws_revive_throttled()] {
        let spec = Benchmark::Merge.build(Scale::Test, 11);
        let cfg = SimConfig::paper(policy).with_wpus(2);
        let run = Machine::run(&cfg, &spec).unwrap();
        spec.verify(&run.memory).unwrap();
        let step = by_step(&cfg, &spec);
        assert_equivalent(&run, &step, policy.paper_name());
    }
}

/// The paper machine (4 WPUs, 4 L1s) exercises per-L1 completion wakeups:
/// each WPU's sleep horizon is the min of its own group wake and the next
/// fill bound for its L1, not a machine-global event time.
#[test]
fn run_matches_step_on_paper_machine() {
    let spec = Benchmark::Filter.build(Scale::Test, 11);
    let cfg = SimConfig::paper(Policy::dws_revive());
    let run = Machine::run(&cfg, &spec).unwrap();
    spec.verify(&run.memory).unwrap();
    let step = by_step(&cfg, &spec);
    assert_equivalent(&run, &step, "filter on the 4-WPU paper machine");
}

/// `Machine::run`'s loop restated outside the crate over the public API,
/// issuing each tick as the two calls `Wpu::tick` is made of —
/// `tick_compute`, then (when it suspends) `tick_commit`. The core runs
/// the same code either way; what this pins is the external driver (wake
/// times, skipped-stall accounting, completion routing), which is what
/// the benchmark's traced driver is, so a core change that driver cannot
/// reproduce fails here before it fails in `benchmark/`.
fn assert_phased_run_matches(cfg: &SimConfig, spec: &dws_kernels::KernelSpec, r: &RunResult) {
    use dws_core::{TickClass, Wpu, WpuConfig};
    use dws_engine::{Cycle, Phase};
    let n = cfg.n_wpus;
    let threads_per_wpu = (cfg.width * cfg.n_warps) as u64;
    let mut wpus: Vec<Wpu> = (0..n)
        .map(|id| {
            let wcfg = WpuConfig {
                id,
                width: cfg.width,
                n_warps: cfg.n_warps,
                policy: cfg.policy,
                sched_slots: cfg.sched_slots,
                wst_entries: cfg.wst_entries,
                l1i: cfg.mem.l1i,
            };
            let base = id as u64 * threads_per_wpu;
            Wpu::new(wcfg, spec.program.clone(), base, cfg.total_threads())
        })
        .collect();
    let mut mem = dws_mem::MemorySystem::new(cfg.mem);
    let mut data = spec.memory.clone();
    let mut now = Cycle::ZERO;
    let mut completions = Vec::new();
    let mut last_class = vec![TickClass::Idle; n];
    let mut wake = vec![Some(Cycle::ZERO); n];
    let mut adapt_at: Vec<_> = wpus.iter().map(Wpu::next_adapt_boundary).collect();
    let mut charged = vec![Cycle::ZERO; n];
    loop {
        mem.drain_completions_into(now, &mut completions);
        for c in &completions {
            wpus[c.l1].on_completion(c.request, c.at);
            wake[c.l1] = Some(wake[c.l1].map_or(now, |w| w.min(now)));
        }
        let mut any_busy = false;
        for i in 0..n {
            if !(wake[i].is_some_and(|w| w <= now) || adapt_at[i].is_some_and(|a| a <= now)) {
                continue;
            }
            if now > charged[i] {
                wpus[i].account_skipped_stall(now - charged[i], last_class[i]);
            }
            let t = match wpus[i].tick_compute(now) {
                Phase::Complete(t) => t,
                Phase::NeedsCommit => wpus[i].tick_commit(now, &mut mem, &mut data),
            };
            last_class[i] = t;
            charged[i] = now + 1;
            wake[i] = match t {
                TickClass::Busy => Some(now + 1),
                TickClass::Done => None,
                TickClass::StallMem | TickClass::Idle => wpus[i].cached_next_wake(),
            };
            any_busy |= t == TickClass::Busy;
            adapt_at[i] = wpus[i].next_adapt_boundary();
        }
        let live: u64 = wpus.iter().map(Wpu::live_threads).sum();
        if live > 0 && wpus.iter().map(Wpu::barrier_waiting).sum::<u64>() == live {
            for (i, w) in wpus.iter_mut().enumerate() {
                w.release_barrier(now);
                if !w.done() {
                    wake[i] = Some(now + 1);
                }
            }
        }
        now += 1;
        if wpus.iter().all(Wpu::done) {
            break;
        }
        assert!(now.raw() < 200_000_000, "phased loop runaway");
        if any_busy {
            continue;
        }
        let fills = (0..n).filter_map(|i| mem.next_completion_at_l1(i));
        let next = wake.iter().flatten().copied().chain(fills).min();
        let next = next.expect("phased loop deadlocked");
        now = adapt_at
            .iter()
            .flatten()
            .fold(next, |n, &a| n.min(a))
            .max(now);
    }
    assert_eq!(now.raw(), r.cycles, "phased: cycles");
    assert_eq!(data.words(), r.memory.words(), "phased: memory");
    let mut mem_stats = mem.stats();
    for (w, stats) in wpus.iter().zip(&r.per_wpu) {
        assert_eq!(&w.stats, stats, "phased: per-WPU stats");
        let (fetches, misses) = w.icache_counters();
        mem_stats.l1i_fetches.add(fetches);
        mem_stats.l1i_misses.add(misses);
    }
    assert_eq!(mem_stats, r.mem, "phased: memory-system stats");
}

/// MSHR back-pressure is slept through, not re-ticked: a stalled tick that
/// was nothing but MSHR refusals leaves the spinning groups out of the
/// wake time it publishes, and `account_skipped_stall` replays them. With
/// the MSHR file halved to the SIMD width — 16 entries, so one gather can
/// exhaust it (the capacity refusal), of 16 targets each, so a second
/// warp cannot merge into a fully coalesced line (the full-target-list
/// refusal; neither can go lower without starving a 16-lane access for
/// good) — both refusals fire thousands of times per run, and Short
/// spends most of its cycles on them. Calls `check` on every run of
/// Short, FFT, SVM x four policy families x {1, 2, 4} WPUs.
fn for_each_backpressured_run(check: impl Fn(&SimConfig, &dws_kernels::KernelSpec, &RunResult)) {
    // Keep the in-situ oracles on in release too: every certificate replay
    // re-asks the memory system whether it would still refuse.
    dws_engine::sanitize::force(true);
    for bench in [Benchmark::Short, Benchmark::Fft, Benchmark::Svm] {
        let spec = bench.build(Scale::Test, 11);
        for policy in [
            Policy::conventional(),
            Policy::dws_aggress(),
            Policy::dws_revive(),
            Policy::slip(),
        ] {
            for n_wpus in [1, 2, 4] {
                let mut cfg = SimConfig::paper(policy).with_wpus(n_wpus);
                cfg.mem.l1d.mshrs = 16;
                cfg.mem.l1d.mshr_targets = 16;
                let run = Machine::run(&cfg, &spec).unwrap();
                spec.verify(&run.memory).unwrap();
                let (refused, issued) = (run.mem.rejections.get(), run.wpu.warp_insts.get());
                let floor = if bench == Benchmark::Short {
                    issued
                } else {
                    1_000
                };
                assert!(
                    refused > floor,
                    "{}: {refused} refusals against {issued} instructions do not exercise the path",
                    bench.name()
                );
                check(&cfg, &spec, &run);
            }
        }
    }
}

#[test]
fn backpressure_sleep_matches_step() {
    for_each_backpressured_run(|cfg, spec, run| {
        let what = format!(
            "{} under {} on {}",
            spec.name,
            cfg.policy.paper_name(),
            cfg.n_wpus
        );
        assert_equivalent(run, &by_step(cfg, spec), &what);
    });
}

#[test]
fn backpressure_sleep_matches_phased_ticks() {
    for_each_backpressured_run(assert_phased_run_matches);
}
