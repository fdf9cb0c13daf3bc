//! Isolated probes: seeded synthetic streams driven into one layer's public
//! functions, with no other layer in the loop.
//!
//! Each probe reports the median ns/op of [`BATCHES`] batches and a
//! *witness*: a count, taken from the layer's own statistics, showing that
//! the stream took the path the probe is named after (`reject_ns` saw a
//! rejection per op, `store_share_ns` saw invalidations, ...). The tests
//! assert every witness.

use dws_core::{Policy, Wpu, WpuConfig};
use dws_engine::rng::Rng64;
use dws_engine::{Cycle, EventQueue, ReadyRing, WakeHeap};
use dws_isa::{AluOp, KernelBuilder, Operand, VecMemory};
use dws_mem::link::Link;
use dws_mem::{
    AccessKind, CacheArray, CacheConfig, Completion, LaneAccess, LaneOutcome, MemConfig,
    MemorySystem, MesiState, MshrFile, RequestId,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Batches per probe; the reported time is their median.
pub const BATCHES: usize = 30;
const LANES: usize = 16;
const LINE: u64 = 128;
const POOL: usize = 256;

/// One probe's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub name: &'static str,
    pub ns_per_op: f64,
    /// How many times the named path was observed, over all batches.
    pub witness: u64,
    /// Operations issued, over all batches.
    pub ops: u64,
}

/// Runs `batch` [`BATCHES`] times; it returns (ops issued, witness delta).
fn probe(name: &'static str, mut batch: impl FnMut() -> (u64, u64)) -> Probe {
    let mut per_op = Vec::with_capacity(BATCHES);
    let (mut ops, mut witness) = (0, 0);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let (n, w) = batch();
        per_op.push(t0.elapsed().as_nanos() as f64 / n as f64);
        ops += n;
        witness += w;
    }
    Probe {
        name,
        ns_per_op: crate::stats::median(&mut per_op),
        witness,
        ops,
    }
}

/// A warp access: lane `i` touches `addr(i)`.
fn warp(kind: AccessKind, addr: impl Fn(usize) -> u64) -> Vec<LaneAccess> {
    (0..LANES)
        .map(|lane| LaneAccess {
            lane,
            addr: addr(lane),
            kind,
        })
        .collect()
}

/// `POOL` warp accesses generated ahead of the timed loop (which cycles
/// through them), so the stream's construction is not measured.
fn pool(mut next: impl FnMut() -> Vec<LaneAccess>) -> Vec<Vec<LaneAccess>> {
    (0..POOL).map(|_| next()).collect()
}

/// Advances to each pending fill and drains it, until none is in flight.
fn drain_all(mem: &mut MemorySystem, now: &mut Cycle, done: &mut Vec<Completion>) {
    while let Some(at) = mem.next_completion_at() {
        *now = at.max(*now);
        mem.drain_completions_into(*now, done);
    }
}

/// All probes, in `BENCHMARK.json` order.
pub fn run_all(seed: u64) -> Vec<Probe> {
    vec![
        coalesced_hit(seed),
        gather_miss(seed),
        reject(seed),
        cache_lookup(seed),
        mshr_cycle(seed),
        link_transfer(seed),
        store_share(seed),
        ready_ring(seed),
        wake_heap(seed),
        event_queue(seed),
        alu_tick(),
    ]
}

/// 16 lanes in one resident line: the coalescer folds them into one L1
/// hit. Witness: L1D line hits.
pub fn coalesced_hit(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let mut mem = MemorySystem::new(MemConfig::paper(4, LANES));
    let mut out: Vec<LaneOutcome> = Vec::new();
    let mut done = Vec::new();
    let mut now = Cycle::ZERO;
    // Half the L1's lines, so every one stays resident.
    let lines = CacheConfig::paper_l1d(LANES).size_bytes / LINE / 2;
    for l in 0..lines {
        mem.warp_access_into(
            now,
            0,
            &warp(AccessKind::Load, |i| l * LINE + 8 * i as u64),
            &mut out,
        );
        drain_all(&mut mem, &mut now, &mut done);
    }
    let stream = pool(|| {
        let base = rng.range_usize(lines as usize) as u64 * LINE;
        warp(AccessKind::Load, |i| base + 8 * i as u64)
    });
    probe("mem.probe.coalesced_hit_ns", || {
        let before = mem.stats().l1d_hits.get();
        for op in 0..2000 {
            now += 4;
            black_box(mem.warp_access_into(now, 0, &stream[op % POOL], &mut out));
        }
        (2000, mem.stats().l1d_hits.get() - before)
    })
}

/// 16 distinct lines per warp drawn from a working set 4x the L1, then the
/// fills drained: miss allocation, crossbar, L2, DRAM, fill and eviction.
/// Witness: L1D primary misses.
pub fn gather_miss(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let mut mem = MemorySystem::new(MemConfig::paper(4, LANES));
    let mut out: Vec<LaneOutcome> = Vec::new();
    let mut done = Vec::new();
    let mut now = Cycle::ZERO;
    let lines = 4 * CacheConfig::paper_l1d(LANES).size_bytes / LINE;
    // A random window of 16 consecutive lines: distinct by construction,
    // one per lane.
    let stream = pool(|| {
        let first = rng.range_usize(lines as usize - LANES) as u64;
        warp(AccessKind::Load, |i| (first + i as u64) * LINE)
    });
    probe("mem.probe.gather_miss_ns", || {
        let before = mem.stats().l1d_misses.get();
        for op in 0..200 {
            black_box(mem.warp_access_into(now, 0, &stream[op % POOL], &mut out));
            drain_all(&mut mem, &mut now, &mut done);
            now += 1;
        }
        (200, mem.stats().l1d_misses.get() - before)
    })
}

/// A 16-line gather presented while all 32 MSHRs are busy: the structural
/// reject a stalled group retries every cycle. Witness: rejections.
pub fn reject(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let mut mem = MemorySystem::new(MemConfig::paper(4, LANES));
    let mut out: Vec<LaneOutcome> = Vec::new();
    let now = Cycle::ZERO;
    let mshrs = CacheConfig::paper_l1d(LANES).mshrs as u64;
    for first in (0..mshrs).step_by(LANES) {
        let acc = warp(AccessKind::Load, |i| (first + i as u64) * LINE);
        assert!(mem.warp_access_into(now, 0, &acc, &mut out));
    }
    assert_eq!(mem.mshr_in_use(0) as u64, mshrs, "every MSHR holds a fill");
    let stream = pool(|| {
        let first = mshrs + rng.range_usize(4096) as u64;
        warp(AccessKind::Load, |i| (first + i as u64) * LINE)
    });
    probe("mem.probe.reject_ns", || {
        let before = mem.stats().rejections.get();
        for op in 0..2000 {
            black_box(mem.warp_access_into(now, 0, &stream[op % POOL], &mut out));
        }
        (2000, mem.stats().rejections.get() - before)
    })
}

/// `CacheArray::lookup` on the paper's L1D geometry, half the stream
/// resident. Witness: lookups that found a valid line.
pub fn cache_lookup(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let cfg = CacheConfig::paper_l1d(LANES);
    let mut array = CacheArray::new(&cfg);
    let resident = cfg.size_bytes / LINE;
    for line in 0..resident {
        array.fill(line, MesiState::Shared);
    }
    probe("mem.probe.cache_lookup_ns", || {
        let mut found = 0;
        for _ in 0..20_000 {
            let line = rng.range_usize(2 * resident as usize) as u64;
            found += u64::from(black_box(array.lookup(line)).0.valid());
        }
        (20_000, found)
    })
}

/// One MSHR life cycle: allocate, attach a target, release, recycle.
/// Witness: entries released with their target attached.
pub fn mshr_cycle(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let cfg = CacheConfig::paper_l1d(LANES);
    let mut file = MshrFile::new(cfg.mshrs, cfg.mshr_targets);
    probe("mem.probe.mshr_cycle_ns", || {
        let mut released = 0;
        for op in 0..10_000u64 {
            let line = rng.next_u64() >> 8;
            let id = file.allocate(line, false, Cycle(op));
            file.add_target(id, RequestId(op));
            let entry = file.release(id);
            released += entry.targets.len() as u64;
            file.recycle_targets(entry.targets);
        }
        (10_000, released)
    })
}

/// A line-sized transfer over the paper's crossbar link, submitted every
/// 3.5 cycles on average (about two thirds of its bandwidth), so epochs
/// fill and spill without the backlog growing. Witness: transfers the link
/// counted.
pub fn link_transfer(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let cfg = MemConfig::paper(4, LANES);
    let mut link = Link::new(cfg.crossbar_latency, cfg.crossbar_bytes_per_cycle);
    let mut now = Cycle::ZERO;
    probe("mem.probe.link_transfer_ns", || {
        let before = link.transfers.get();
        for _ in 0..10_000 {
            now += rng.range_usize(8) as u64;
            black_box(link.transfer(now, LINE));
        }
        (10_000, link.transfers.get() - before)
    })
}

/// Two L1s alternately storing the same line set: every store finds the
/// line owned by the other L1 and goes through upgrade / invalidate /
/// owner-flush. Witness: invalidations plus owner flushes.
pub fn store_share(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let mut mem = MemorySystem::new(MemConfig::paper(2, LANES));
    let mut out: Vec<LaneOutcome> = Vec::new();
    let mut done = Vec::new();
    let mut now = Cycle::ZERO;
    let mut turn = 0;
    let stream = pool(|| {
        let base = rng.range_usize(64) as u64 * LINE;
        warp(AccessKind::Store, |i| base + 8 * i as u64)
    });
    probe("mem.probe.store_share_ns", || {
        let before = mem.stats();
        for op in 0..200 {
            for _ in 0..2 {
                black_box(mem.warp_access_into(now, turn, &stream[op % POOL], &mut out));
                drain_all(&mut mem, &mut now, &mut done);
                now += 1;
                turn ^= 1;
            }
        }
        let after = mem.stats();
        let coherence = (after.invalidations.get() - before.invalidations.get())
            + (after.owner_flushes.get() - before.owner_flushes.get());
        (400, coherence)
    })
}

/// The scheduler's ready set on the 64-slot ring a WPU uses, held at eight
/// members: circular pick, remove, insert another. Witness: picks that
/// returned a member.
pub fn ready_ring(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let mut ring = ReadyRing::new();
    ring.grow_to(64);
    (0..8).for_each(|i| ring.insert(i * 8));
    probe("engine.probe.ready_ring_ns", || {
        let mut picked = 0;
        for _ in 0..20_000 {
            if let Some(i) = black_box(ring.next_from(rng.range_usize(64))) {
                ring.remove(i);
                picked += 1;
            }
            let mut j = rng.range_usize(64);
            while ring.contains(j) {
                j = (j + 1) % 64;
            }
            ring.insert(j);
        }
        (20_000, picked)
    })
}

/// The pending-wake heap at a WPU-like depth of 16: push a future wake,
/// pop the earliest. Witness: entries popped.
pub fn wake_heap(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let mut heap: WakeHeap<u32> = WakeHeap::new();
    let mut now = 0u64;
    for i in 0..16 {
        heap.push(Cycle(rng.range_usize(400) as u64), i);
    }
    probe("engine.probe.wake_heap_ns", || {
        let mut popped = 0;
        for i in 0..20_000 {
            heap.push(Cycle(now + 1 + rng.range_usize(400) as u64), i);
            if let Some((at, _)) = black_box(heap.pop()) {
                now = at.raw().max(now);
                popped += 1;
            }
        }
        (20_000, popped)
    })
}

/// The memory system's fill queue at a depth of 128 (4 L1s x 32 MSHRs):
/// schedule a fill, drain what is ready. Witness: events drained.
pub fn event_queue(seed: u64) -> Probe {
    let mut rng = Rng64::new(seed);
    let mut queue: EventQueue<(usize, usize)> = EventQueue::new();
    let mut now = 0u64;
    for i in 0..128 {
        queue.push(Cycle(rng.range_usize(400) as u64), (i % 4, i / 4));
    }
    probe("engine.probe.event_queue_ns", || {
        let mut drained = 0;
        for i in 0..20_000 {
            queue.push(
                Cycle(now + 30 + rng.range_usize(400) as u64),
                (i % 4, i % 32),
            );
            now = queue.next_ready_at().map_or(now, |at| at.raw().max(now));
            while black_box(queue.pop_ready(Cycle(now))).is_some() {
                drained += 1;
            }
        }
        (20_000, drained)
    })
}

/// `Wpu::tick` on a loop of ALU instructions only: after the first I-fetch
/// the memory system is never touched, so a tick is scheduler pick + one
/// warp-wide µop. Witness: warp instructions issued (one per busy tick).
pub fn alu_tick() -> Probe {
    let mut b = KernelBuilder::new();
    let (i, x) = (b.reg(), b.reg());
    let tid = b.tid();
    b.mov(x, tid);
    b.for_range(
        i,
        Operand::Imm(0),
        Operand::Imm(400),
        Operand::Imm(1),
        |k| {
            for op in [
                AluOp::Add,
                AluOp::Xor,
                AluOp::Mul,
                AluOp::Sub,
                AluOp::Or,
                AluOp::Shl,
            ] {
                k.alu(op, x, x, Operand::Imm(3));
            }
        },
    );
    b.halt();
    let program = Arc::new(b.build().expect("the ALU loop passes the verifier"));
    let mut mem = MemorySystem::new(MemConfig::paper(1, LANES));
    let mut data = VecMemory::new(64);
    let mut now = Cycle::ZERO;
    probe("core.probe.alu_tick_ns", || {
        let cfg = WpuConfig::paper(0, Policy::conventional());
        let threads = (cfg.width * cfg.n_warps) as u64;
        let mut wpu = Wpu::new(cfg, Arc::clone(&program), 0, threads);
        let start = now;
        while !wpu.done() {
            black_box(wpu.tick(now, &mut mem, &mut data));
            now += 1;
        }
        (now - start, wpu.stats.warp_insts.get())
    })
}
