//! Behavioral tests of the WPU: every scheduling policy must compute the
//! same results as the timing-free reference runner, and the divergence
//! machinery must create/merge splits as the paper describes.

use dws_core::{GroupStatus, Mask, Policy, TickClass, Wpu, WpuConfig};
use dws_engine::Cycle;
use dws_isa::{CondOp, KernelBuilder, Operand, Program, ReferenceRunner, VecMemory};
use dws_mem::{MemConfig, MemorySystem};
use std::sync::Arc;

/// A single-machine driver: N WPUs over one memory system and one
/// functional store.
struct Mini {
    wpus: Vec<Wpu>,
    mem: MemorySystem,
    data: VecMemory,
    cycles: u64,
}

fn run_machine(
    program: &Program,
    policy: Policy,
    n_wpus: usize,
    width: usize,
    n_warps: usize,
    data: VecMemory,
    max_cycles: u64,
) -> Mini {
    let program = Arc::new(program.clone());
    let nthreads = (n_wpus * width * n_warps) as u64;
    let mem = MemorySystem::new(MemConfig::paper(n_wpus, width));
    let wpus: Vec<Wpu> = (0..n_wpus)
        .map(|i| {
            let mut cfg = WpuConfig::paper(i, policy);
            cfg.width = width;
            cfg.n_warps = n_warps;
            cfg.sched_slots = 2 * n_warps;
            Wpu::new(
                cfg,
                Arc::clone(&program),
                (i * width * n_warps) as u64,
                nthreads,
            )
        })
        .collect();
    let mut m = Mini {
        wpus,
        mem,
        data,
        cycles: 0,
    };
    let mut now = Cycle(0);
    loop {
        for c in m.mem.drain_completions(now) {
            m.wpus[c.l1].on_completion(c.request, c.at);
        }
        let mut all_done = true;
        for w in &mut m.wpus {
            let t = w.tick(now, &mut m.mem, &mut m.data);
            if t != TickClass::Done {
                all_done = false;
            }
        }
        // Global barrier release.
        let live: u64 = m.wpus.iter().map(Wpu::live_threads).sum();
        let waiting: u64 = m.wpus.iter().map(Wpu::barrier_waiting).sum();
        if live > 0 && waiting == live {
            for w in &mut m.wpus {
                w.release_barrier(now);
            }
        }
        if all_done {
            break;
        }
        now += 1;
        m.cycles = now.raw();
        assert!(
            now.raw() < max_cycles,
            "machine did not finish within {max_cycles} cycles under {:?} \
             (live={live}, waiting={waiting})",
            policy.paper_name()
        );
    }
    m
}

fn all_policies() -> Vec<Policy> {
    vec![
        Policy::conventional(),
        Policy::dws_branch_stack(),
        Policy::dws_branch_only(),
        Policy::dws_mem_only(),
        Policy::dws_aggress(),
        Policy::dws_lazy(),
        Policy::dws_revive(),
        Policy::dws_revive_throttled(),
        Policy::dws_branch_limited(dws_core::MemSplit::Aggressive),
        Policy::dws_branch_limited(dws_core::MemSplit::Lazy),
        Policy::dws_branch_limited(dws_core::MemSplit::Revive),
        Policy::slip(),
        Policy::slip_branch_bypass(),
    ]
}

/// out[tid] = tid * 3 + 1 — no divergence at all.
fn straight_line_kernel() -> Program {
    let mut b = KernelBuilder::new();
    let tid = b.tid();
    let v = b.reg();
    let a = b.reg();
    b.mul(v, tid, Operand::Imm(3));
    b.add(v, Operand::Reg(v), Operand::Imm(1));
    b.addr(a, Operand::Imm(0), Operand::Reg(tid), 8);
    b.store(Operand::Reg(v), a, 0);
    b.halt();
    b.build().unwrap()
}

/// Bounded Collatz per thread: data-dependent loop + branch divergence.
/// in: a[0..n] at byte 0; out: steps[0..n] at byte n*8.
fn collatz_kernel(n: i64, max_steps: i64) -> Program {
    let mut b = KernelBuilder::new();
    let (tid, ntid) = (b.tid(), b.ntid());
    let i = b.reg();
    let a = b.reg();
    let v = b.reg();
    let steps = b.reg();
    let parity = b.reg();
    let done = b.reg();
    let t = b.reg();
    b.for_range(i, tid, Operand::Imm(n), ntid, |b| {
        b.addr(a, Operand::Imm(0), Operand::Reg(i), 8);
        b.load(v, a, 0);
        b.li(steps, 0);
        let head = b.label();
        let exit = b.label();
        b.bind(head);
        b.set(CondOp::Eq, done, Operand::Reg(v), Operand::Imm(1));
        b.set(CondOp::Ge, t, Operand::Reg(steps), Operand::Imm(max_steps));
        b.or(done, Operand::Reg(done), Operand::Reg(t));
        b.br(CondOp::Ne, Operand::Reg(done), Operand::Imm(0), exit);
        b.rem(parity, Operand::Reg(v), Operand::Imm(2));
        b.if_then_else(
            CondOp::Eq,
            Operand::Reg(parity),
            Operand::Imm(0),
            |b| b.div(v, Operand::Reg(v), Operand::Imm(2)),
            |b| {
                b.mul(v, Operand::Reg(v), Operand::Imm(3));
                b.add(v, Operand::Reg(v), Operand::Imm(1));
            },
        );
        b.add(steps, Operand::Reg(steps), Operand::Imm(1));
        b.jmp(head);
        b.bind(exit);
        b.addr(a, Operand::Imm(n * 8), Operand::Reg(i), 8);
        b.store(Operand::Reg(steps), a, 0);
    });
    b.halt();
    b.build().unwrap()
}

/// Pointer chasing: heavy memory-latency divergence, no data-dependent
/// branches. in: ring table at byte 0 (n entries); out at n*8.
fn chase_kernel(n: i64, hops: i64) -> Program {
    let mut b = KernelBuilder::new();
    let (tid, ntid) = (b.tid(), b.ntid());
    let i = b.reg();
    let v = b.reg();
    let a = b.reg();
    let k = b.reg();
    b.for_range(i, tid, Operand::Imm(n), ntid, |b| {
        b.mov(v, Operand::Reg(i));
        b.for_range(
            k,
            Operand::Imm(0),
            Operand::Imm(hops),
            Operand::Imm(1),
            |b| {
                b.rem(a, Operand::Reg(v), Operand::Imm(n));
                b.addr(a, Operand::Imm(0), Operand::Reg(a), 8);
                b.load(v, a, 0);
            },
        );
        b.addr(a, Operand::Imm(n * 8), Operand::Reg(i), 8);
        b.store(Operand::Reg(v), a, 0);
    });
    b.halt();
    b.build().unwrap()
}

/// Two barrier-separated phases with cross-thread communication.
fn barrier_kernel(n: i64) -> Program {
    let mut b = KernelBuilder::new();
    let (tid, ntid) = (b.tid(), b.ntid());
    let i = b.reg();
    let a = b.reg();
    let v = b.reg();
    let j = b.reg();
    b.for_range(i, tid, Operand::Imm(n), ntid, |b| {
        b.addr(a, Operand::Imm(0), Operand::Reg(i), 8);
        b.add(v, Operand::Reg(i), Operand::Imm(100));
        b.store(Operand::Reg(v), a, 0);
    });
    b.barrier();
    b.for_range(i, tid, Operand::Imm(n), ntid, |b| {
        b.add(j, Operand::Reg(i), Operand::Imm(1));
        b.rem(j, Operand::Reg(j), Operand::Imm(n));
        b.addr(a, Operand::Imm(0), Operand::Reg(j), 8);
        b.load(v, a, 0);
        b.mul(v, Operand::Reg(v), Operand::Imm(2));
        b.addr(a, Operand::Imm(n * 8), Operand::Reg(i), 8);
        b.store(Operand::Reg(v), a, 0);
    });
    b.halt();
    b.build().unwrap()
}

fn collatz_data(n: i64) -> VecMemory {
    let mut m = VecMemory::new(2 * n as u64 * 8);
    for i in 0..n {
        // A spread of values with very different trajectory lengths.
        m.write_i64(i as u64 * 8, (i * 7 + 3) % 97 + 1);
    }
    m
}

fn chase_data(n: i64) -> VecMemory {
    let mut m = VecMemory::new(2 * n as u64 * 8);
    for i in 0..n {
        // Deterministic scramble with large strides (cache-hostile).
        m.write_i64(i as u64 * 8, (i * striding(n) + 13) % n);
    }
    m
}

fn striding(n: i64) -> i64 {
    // A multiplier coprime with n to make the ring a single cycle-ish mess.
    let mut s = 337;
    while gcd(s, n) != 1 {
        s += 2;
    }
    s
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn reference_words(program: &Program, nthreads: u64, mut data: VecMemory) -> Vec<u64> {
    ReferenceRunner::new(program, nthreads)
        .run(&mut data)
        .expect("reference run");
    data.words().to_vec()
}

#[test]
fn straight_line_all_policies_match_reference() {
    let p = straight_line_kernel();
    let nthreads = 2 * 8 * 2; // 2 WPUs x 8 wide x 2 warps
    let data = VecMemory::new(nthreads * 8);
    let expect = reference_words(&p, nthreads, data.clone());
    for policy in all_policies() {
        let m = run_machine(&p, policy, 2, 8, 2, data.clone(), 1_000_000);
        assert_eq!(
            m.data.words(),
            &expect[..],
            "policy {} diverged from reference",
            policy.paper_name()
        );
    }
}

#[test]
fn collatz_all_policies_match_reference() {
    let n = 96;
    let p = collatz_kernel(n, 200);
    let nthreads = 32; // 1 WPU x 16 x 2
    let data = collatz_data(n);
    let expect = reference_words(&p, nthreads, data.clone());
    for policy in all_policies() {
        let m = run_machine(&p, policy, 1, 16, 2, data.clone(), 10_000_000);
        assert_eq!(
            m.data.words(),
            &expect[..],
            "policy {} diverged from reference",
            policy.paper_name()
        );
    }
}

#[test]
fn chase_all_policies_match_reference() {
    let n = 512;
    let p = chase_kernel(n, 24);
    let nthreads = 64; // 1 WPU x 16 x 4
    let data = chase_data(n);
    let expect = reference_words(&p, nthreads, data.clone());
    for policy in all_policies() {
        let m = run_machine(&p, policy, 1, 16, 4, data.clone(), 50_000_000);
        assert_eq!(
            m.data.words(),
            &expect[..],
            "policy {} diverged from reference",
            policy.paper_name()
        );
    }
}

#[test]
fn barrier_all_policies_match_reference() {
    let n = 64;
    let p = barrier_kernel(n);
    let nthreads = 2 * 8 * 2;
    let data = VecMemory::new(2 * n as u64 * 8);
    let expect = reference_words(&p, nthreads, data.clone());
    for policy in all_policies() {
        let m = run_machine(&p, policy, 2, 8, 2, data.clone(), 10_000_000);
        assert_eq!(
            m.data.words(),
            &expect[..],
            "policy {} diverged from reference",
            policy.paper_name()
        );
    }
}

#[test]
fn divergent_branches_are_counted() {
    let n = 96;
    let p = collatz_kernel(n, 200);
    let m = run_machine(
        &p,
        Policy::conventional(),
        1,
        16,
        2,
        collatz_data(n),
        10_000_000,
    );
    let s = &m.wpus[0].stats;
    assert!(s.branches.get() > 0);
    assert!(
        s.divergent_branches.get() > 0,
        "collatz must produce divergent branches"
    );
    assert!(s.simd_width.ratio().unwrap() < 16.0);
}

#[test]
fn dws_revive_creates_and_merges_splits() {
    let n = 512;
    let p = chase_kernel(n, 24);
    let m = run_machine(
        &p,
        Policy::dws_revive(),
        1,
        16,
        4,
        chase_data(n),
        50_000_000,
    );
    let s = &m.wpus[0].stats;
    assert!(
        s.mem_splits.get() + s.revive_splits.get() > 0,
        "pointer chasing must trigger memory-divergence subdivision"
    );
    assert!(
        s.pc_merges.get() + s.stack_merges.get() > 0,
        "splits must re-converge"
    );
    assert!(m.wpus[0].wst_peak() > 0);
}

#[test]
fn dws_aggressive_splits_on_divergence() {
    let n = 512;
    let p = chase_kernel(n, 24);
    let m = run_machine(
        &p,
        Policy::dws_aggress(),
        1,
        16,
        4,
        chase_data(n),
        50_000_000,
    );
    assert!(m.wpus[0].stats.mem_splits.get() > 0);
}

/// The paper's Figures 8/9 scenario: lanes alternate between a cached hot
/// region and an L1-hostile cold region each iteration, with a divergent
/// branch selecting the region and compute in between. Hit lanes running
/// ahead issue the next iteration's misses early — exactly what DWS
/// exploits.
fn alternating_kernel(iters: i64, compute: usize) -> Program {
    const HOT_WORDS: i64 = 1024; // 8 KB
    const COLD_WORDS: i64 = 64 * 1024; // 512 KB
    let hot_base = 0i64;
    let cold_base = HOT_WORDS * 8;
    let out_base = cold_base + COLD_WORDS * 8;
    let mut b = KernelBuilder::new();
    let tid = b.tid();
    let k = b.reg();
    let ph = b.reg();
    let a = b.reg();
    let v = b.reg();
    let acc = b.reg();
    let t = b.reg();
    b.li(acc, 0);
    b.for_range(
        k,
        Operand::Imm(0),
        Operand::Imm(iters),
        Operand::Imm(1),
        |b| {
            b.add(ph, Operand::Reg(k), Operand::Reg(tid));
            b.and(ph, Operand::Reg(ph), Operand::Imm(1));
            b.if_then_else(
                CondOp::Eq,
                Operand::Reg(ph),
                Operand::Imm(0),
                |b| {
                    b.mul(t, Operand::Reg(tid), Operand::Imm(37));
                    b.add(t, Operand::Reg(t), Operand::Reg(k));
                    b.rem(t, Operand::Reg(t), Operand::Imm(HOT_WORDS));
                    b.addr(a, Operand::Imm(hot_base), Operand::Reg(t), 8);
                },
                |b| {
                    b.mul(t, Operand::Reg(tid), Operand::Imm(8191));
                    b.add(t, Operand::Reg(t), Operand::Reg(k));
                    b.mul(t, Operand::Reg(t), Operand::Imm(257));
                    b.rem(t, Operand::Reg(t), Operand::Imm(COLD_WORDS));
                    b.addr(a, Operand::Imm(cold_base), Operand::Reg(t), 8);
                },
            );
            b.load(v, a, 0);
            b.add(acc, Operand::Reg(acc), Operand::Reg(v));
            for _ in 0..compute {
                b.mul(acc, Operand::Reg(acc), Operand::Imm(3));
                b.add(acc, Operand::Reg(acc), Operand::Imm(1));
            }
        },
    );
    b.addr(a, Operand::Imm(out_base), Operand::Reg(tid), 8);
    b.store(Operand::Reg(acc), a, 0);
    b.halt();
    b.build().unwrap()
}

fn alternating_data() -> VecMemory {
    let words = 1024 + 64 * 1024;
    let mut m = VecMemory::new((words + 64) as u64 * 8 + 4096);
    for i in 0..words {
        m.write_i64(i as u64 * 8, i % 1000);
    }
    m
}

#[test]
fn dws_helps_memory_divergent_workload() {
    let p = alternating_kernel(200, 6);
    let conv = run_machine(
        &p,
        Policy::conventional(),
        1,
        16,
        4,
        alternating_data(),
        100_000_000,
    );
    let dws = run_machine(
        &p,
        Policy::dws_revive(),
        1,
        16,
        4,
        alternating_data(),
        100_000_000,
    );
    assert!(
        (dws.cycles as f64) < 0.9 * conv.cycles as f64,
        "DWS.ReviveSplit ({} cycles) should beat Conv ({} cycles) by >1.1X \
         on the alternating hot/cold workload",
        dws.cycles,
        conv.cycles
    );
    // Equivalence on this workload too.
    let expect = reference_words(&p, 64, alternating_data());
    assert_eq!(dws.data.words(), &expect[..]);
    assert_eq!(conv.data.words(), &expect[..]);
}

#[test]
fn alternating_all_policies_match_reference() {
    let p = alternating_kernel(40, 4);
    let expect = reference_words(&p, 64, alternating_data());
    for policy in all_policies() {
        let m = run_machine(&p, policy, 1, 16, 4, alternating_data(), 100_000_000);
        assert_eq!(
            m.data.words(),
            &expect[..],
            "policy {} diverged from reference",
            policy.paper_name()
        );
    }
}

/// A warp access is divergent when its misses span more than one L1-D
/// line, so the classifier must follow the configured line size: lanes
/// missing at `a` and `a + 64` share a 128 B line but not a 64 B one.
#[test]
fn divergent_access_follows_l1d_line_size() {
    let mut b = KernelBuilder::new();
    let tid = b.tid();
    let a = b.reg();
    b.mul(a, tid, Operand::Imm(64));
    b.load(a, a, 0);
    b.halt();
    let program = Arc::new(b.build().unwrap());
    let divergent_accesses = |line_bytes: u64| {
        let mut cfg = WpuConfig::paper(0, Policy::conventional());
        cfg.width = 2;
        cfg.n_warps = 1;
        cfg.sched_slots = 2;
        let mut wpu = Wpu::new(cfg, Arc::clone(&program), 0, 2);
        let mut mem_cfg = MemConfig::paper(1, 2);
        mem_cfg.l1d.line_bytes = line_bytes;
        let mut mem = MemorySystem::new(mem_cfg);
        let mut data = VecMemory::new(1024);
        let mut now = Cycle(0);
        while !wpu.done() {
            for c in mem.drain_completions(now) {
                wpu.on_completion(c.request, c.at);
            }
            wpu.tick(now, &mut mem, &mut data);
            now += 1;
            assert!(now.raw() < 100_000);
        }
        assert_eq!(wpu.stats.mem_accesses_with_miss.get(), 1);
        wpu.stats.divergent_mem_accesses.get()
    };
    assert_eq!(divergent_accesses(128), 0, "both lanes miss one 128 B line");
    assert_eq!(divergent_accesses(64), 1, "the lanes miss two 64 B lines");
}

#[test]
fn wst_of_zero_disables_subdivision() {
    let n = 256;
    let p = chase_kernel(n, 8);
    let program = Arc::new(p.clone());
    let mut cfg = WpuConfig::paper(0, Policy::dws_revive());
    cfg.wst_entries = 0;
    let mut wpu = Wpu::new(cfg, Arc::clone(&program), 0, 64);
    let mut mem = MemorySystem::new(MemConfig::paper(1, 16));
    let mut data = chase_data(n);
    let mut now = Cycle(0);
    while !wpu.done() {
        for c in mem.drain_completions(now) {
            wpu.on_completion(c.request, c.at);
        }
        wpu.tick(now, &mut mem, &mut data);
        let live = wpu.live_threads();
        if live > 0 && wpu.barrier_waiting() == live {
            wpu.release_barrier(now);
        }
        now += 1;
        assert!(now.raw() < 50_000_000);
    }
    assert_eq!(wpu.stats.mem_splits.get(), 0);
    assert_eq!(wpu.stats.revive_splits.get(), 0);
    assert_eq!(wpu.wst_peak(), 0);
    assert!(
        wpu.stats.wst_full_events.get() > 0,
        "splits were suppressed"
    );
}

#[test]
fn slip_policy_slips_and_merges() {
    let n = 512;
    let p = chase_kernel(n, 24);
    let m = run_machine(&p, Policy::slip(), 1, 16, 4, chase_data(n), 100_000_000);
    let s = &m.wpus[0].stats;
    assert!(s.slip_events.get() > 0, "slip must leave threads behind");
}

#[test]
fn per_thread_miss_map_has_shape_and_content() {
    let n = 512;
    let p = chase_kernel(n, 16);
    let m = run_machine(
        &p,
        Policy::conventional(),
        1,
        16,
        4,
        chase_data(n),
        100_000_000,
    );
    let map = m.wpus[0].per_thread_misses();
    assert_eq!(map.len(), 4);
    assert!(map.iter().all(|w| w.len() == 16));
    let total: u64 = map.iter().flatten().sum();
    assert!(total > 0, "pointer chase must miss");
}

#[test]
fn groups_return_to_one_per_warp_at_end() {
    let n = 96;
    let p = collatz_kernel(n, 200);
    let m = run_machine(
        &p,
        Policy::dws_revive(),
        1,
        16,
        2,
        collatz_data(n),
        10_000_000,
    );
    assert_eq!(m.wpus[0].groups_alive(), 0, "all groups retired");
    assert!(m.wpus[0].done());
}

#[test]
fn mask_status_invariants_sampled() {
    // Drive a machine for a while and check in-flight invariants.
    let n = 512;
    let p = chase_kernel(n, 16);
    let program = Arc::new(p);
    let mut cfg = WpuConfig::paper(0, Policy::dws_revive());
    cfg.n_warps = 4;
    let mut wpu = Wpu::new(cfg, Arc::clone(&program), 0, 64);
    let mut mem = MemorySystem::new(MemConfig::paper(1, 16));
    let mut data = chase_data(n);
    let mut now = Cycle(0);
    while now.0 < 200_000 {
        if wpu.done() {
            break;
        }
        for c in mem.drain_completions(now) {
            wpu.on_completion(c.request, c.at);
        }
        wpu.tick(now, &mut mem, &mut data);
        let live = wpu.live_threads();
        if live > 0 && wpu.barrier_waiting() == live {
            wpu.release_barrier(now);
        }
        now += 1;
    }
    // The WPU exposes only aggregate views; the key invariant visible here
    // is conservation of threads between groups and halts.
    let _ = GroupStatus::Ready;
    let _ = Mask::EMPTY;
}

/// An `if` with an empty taken path (the min-update pattern): under
/// PC-based branch DWS the split must re-merge almost immediately, so the
/// split and merge counts match and the SIMD width stays high.
#[test]
fn empty_path_branch_split_remerges_immediately() {
    // for k in 0..64 { if (tid+k) % 2 == 0 { acc += 1 } ; acc += k }
    let mut b = KernelBuilder::new();
    let tid = b.tid();
    let k = b.reg();
    let acc = b.reg();
    let t = b.reg();
    let a = b.reg();
    b.li(acc, 0);
    b.for_range(k, Operand::Imm(0), Operand::Imm(64), Operand::Imm(1), |b| {
        b.add(t, Operand::Reg(k), Operand::Reg(tid));
        b.and(t, Operand::Reg(t), Operand::Imm(1));
        b.if_then(CondOp::Eq, Operand::Reg(t), Operand::Imm(0), |b| {
            b.add(acc, Operand::Reg(acc), Operand::Imm(1));
        });
        b.add(acc, Operand::Reg(acc), Operand::Reg(k));
    });
    b.addr(a, Operand::Imm(0), Operand::Reg(tid), 8);
    b.store(Operand::Reg(acc), a, 0);
    b.halt();
    let p = b.build().unwrap();

    let expect = reference_words(&p, 32, VecMemory::new(64 * 8));
    let m = run_machine(
        &p,
        Policy::dws_branch_only(),
        1,
        16,
        2,
        VecMemory::new(64 * 8),
        10_000_000,
    );
    assert_eq!(m.data.words(), &expect[..]);
    let s = &m.wpus[0].stats;
    assert!(s.branch_splits.get() > 50, "every iteration diverges");
    assert_eq!(
        s.branch_splits.get(),
        s.pc_merges.get() + s.stack_merges.get(),
        "every split re-merges"
    );
    assert!(
        s.simd_width.ratio().unwrap() > 12.0,
        "width stays high: {}",
        s.simd_width.ratio().unwrap()
    );
}

/// Under stack-based re-convergence (no PC matching), splits only re-unite
/// at stack post-dominators or barriers: pc merges must be zero.
#[test]
fn stack_based_mode_never_pc_merges() {
    let n = 96;
    let p = collatz_kernel(n, 200);
    let m = run_machine(
        &p,
        Policy::dws_branch_stack(),
        1,
        16,
        2,
        collatz_data(n),
        50_000_000,
    );
    let s = &m.wpus[0].stats;
    assert_eq!(s.pc_merges.get(), 0, "stack mode must not PC-merge");
    assert!(s.branch_splits.get() > 0);
}

/// BranchLimited re-convergence: memory splits must re-unite before any
/// conditional branch, so every split is matched by a stack merge and no
/// split survives past a branch.
#[test]
fn branch_limited_reconverges_at_branches() {
    let n = 512;
    let p = chase_kernel(n, 24);
    let m = run_machine(
        &p,
        Policy::dws_branch_limited(dws_core::MemSplit::Aggressive),
        1,
        16,
        4,
        chase_data(n),
        100_000_000,
    );
    let s = &m.wpus[0].stats;
    assert!(s.mem_splits.get() > 0, "divergent chase must split");
    assert!(
        s.stack_merges.get() + s.pc_merges.get() >= s.mem_splits.get(),
        "BL: every split re-unites at a branch ({} splits, {} merges)",
        s.mem_splits.get(),
        s.stack_merges.get() + s.pc_merges.get()
    );
}

/// The scheduler completes with the minimum viable slot count.
#[test]
fn minimum_scheduler_slots_still_complete() {
    let n = 96;
    let p = collatz_kernel(n, 200);
    let program = Arc::new(p.clone());
    let mut cfg = WpuConfig::paper(0, Policy::dws_revive());
    cfg.n_warps = 4;
    cfg.sched_slots = 4; // == warps: no headroom for splits
    let mut wpu = Wpu::new(cfg, program, 0, 64);
    let mut mem = dws_mem::MemorySystem::new(dws_mem::MemConfig::paper(1, 16));
    let mut data = collatz_data(n);
    let mut now = Cycle(0);
    while !wpu.done() {
        for c in mem.drain_completions(now) {
            wpu.on_completion(c.request, c.at);
        }
        wpu.tick(now, &mut mem, &mut data);
        let live = wpu.live_threads();
        if live > 0 && wpu.barrier_waiting() == live {
            wpu.release_barrier(now);
        }
        now += 1;
        assert!(now.raw() < 50_000_000, "tight slots must not deadlock");
    }
    let expect = reference_words(&p, 64, collatz_data(n));
    assert_eq!(data.words(), &expect[..]);
}

/// Turning off both PC-merge refinements must still be correct (the
/// ablation configuration), just slower on branchy code.
#[test]
fn ablation_flags_preserve_correctness() {
    let n = 96;
    let p = collatz_kernel(n, 200);
    let expect = reference_words(&p, 32, collatz_data(n));
    let policy = match Policy::dws_revive() {
        Policy::Dws(mut c) => {
            c.issue_pc_cam = false;
            c.park_short_path = false;
            Policy::Dws(c)
        }
        _ => unreachable!(),
    };
    let m = run_machine(&p, policy, 1, 16, 2, collatz_data(n), 50_000_000);
    assert_eq!(m.data.words(), &expect[..]);
}

/// The divergence tracer records splits and merges in causal order.
#[test]
fn tracer_records_divergence_story() {
    use dws_core::TraceEvent;
    let n = 512;
    let p = chase_kernel(n, 16);
    let program = Arc::new(p);
    let mut cfg = WpuConfig::paper(0, Policy::dws_revive());
    cfg.n_warps = 4;
    let mut wpu = Wpu::new(cfg, program, 0, 64);
    wpu.enable_trace(4096);
    let mut mem = MemorySystem::new(MemConfig::paper(1, 16));
    let mut data = chase_data(n);
    let mut now = Cycle(0);
    while !wpu.done() {
        for c in mem.drain_completions(now) {
            wpu.on_completion(c.request, c.at);
        }
        wpu.tick(now, &mut mem, &mut data);
        now += 1;
        assert!(now.raw() < 100_000_000);
    }
    let tracer = wpu.tracer().expect("tracing enabled");
    assert!(!tracer.is_empty(), "divergent run must produce events");
    let splits = tracer
        .events()
        .filter(|e| matches!(e, TraceEvent::MemSplit { .. } | TraceEvent::Revive { .. }))
        .count();
    let merges = tracer
        .events()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::PcMerge { .. } | TraceEvent::StackMerge { .. }
            )
        })
        .count();
    assert!(splits > 0, "chase must split");
    assert!(merges > 0, "splits must merge");
    // Events are recorded in non-decreasing cycle order.
    let cycles: Vec<u64> = tracer.events().map(|e| e.cycle().raw()).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
    // Display renders every event.
    for e in tracer.events().take(5) {
        assert!(!e.to_string().is_empty());
    }
}
