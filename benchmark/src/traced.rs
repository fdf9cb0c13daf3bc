//! The traced driver: `Machine::run_serial`'s event-driven loop restated
//! over the crates' public API, with an `Instant` span around each call
//! into `dws-core` and `dws-mem`.
//!
//! The simulator itself is not instrumented; the spans sit at the crate
//! seams, so a layer's time is what the loop observes from outside. A tick
//! is issued as `tick_compute` followed — when it suspends at a
//! shared-memory interaction — by `tick_commit` on the same WPU, which is
//! by construction what the serial `Wpu::tick` does. The replay must
//! reproduce `Machine::run`'s cycles and every `WpuStats`/`MemStats`
//! counter bit for bit ([`TracedRun::matches`]); a job whose replay differs
//! counts as failed.

use dws_core::{TickClass, Wpu, WpuConfig, WpuStats};
use dws_engine::{Cycle, Phase};
use dws_kernels::KernelSpec;
use dws_mem::{Completion, MemStats, MemorySystem};
use dws_sim::{RunResult, SimConfig};
use std::sync::Arc;
use std::time::Instant;

/// The instrumented calls. The parent of every loop span is the run-loop
/// iteration; `MachineNew` and `Verify` sit beside the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    MachineNew,
    Drain,
    OnCompletion,
    TickCompute,
    TickCommit,
    Verify,
}

const N_SPANS: usize = 6;

/// Per-span call count and total time, plus the loop totals the self-time
/// arithmetic needs. Kept in memory and folded per job; nothing is written
/// while a run is in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spans {
    calls: [u64; N_SPANS],
    ns: [u64; N_SPANS],
    /// Wall time of the whole run loop, spans included.
    pub loop_ns: u64,
    /// Processed run-loop iterations.
    pub iters: u64,
}

impl Spans {
    #[inline]
    fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns[span as usize] += t0.elapsed().as_nanos() as u64;
        self.calls[span as usize] += 1;
        out
    }

    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    pub fn merge(&mut self, other: &Spans) {
        for i in 0..N_SPANS {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.loop_ns += other.loop_ns;
        self.iters += other.iters;
    }

    /// Seconds inside `span`, less the clock reads a span wraps around its
    /// body (`cost.inside_ns` per call).
    pub fn self_s(&self, span: Span, cost: SpanCost) -> f64 {
        let raw = self.ns[span as usize] as f64;
        (raw - self.calls(span) as f64 * cost.inside_ns).max(0.0) / 1e9
    }

    /// The run loop's own seconds: its wall time minus every span inside
    /// it, minus the part of each span's clock reads that falls outside
    /// the span.
    pub fn loop_self_s(&self, cost: SpanCost) -> f64 {
        let inner = [
            Span::Drain,
            Span::OnCompletion,
            Span::TickCompute,
            Span::TickCommit,
        ];
        let spans_ns: u64 = inner.iter().map(|&s| self.ns[s as usize]).sum();
        let calls: u64 = inner.iter().map(|&s| self.calls(s)).sum();
        let raw = self.loop_ns.saturating_sub(spans_ns) as f64;
        (raw - calls as f64 * cost.outside_ns).max(0.0) / 1e9
    }
}

/// What one empty span costs on this host, measured by [`SpanCost::measure`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    /// Nanoseconds an empty span records (charged to the span itself).
    pub inside_ns: f64,
    /// Remaining nanoseconds of the two clock reads (charged to the parent).
    pub outside_ns: f64,
}

impl SpanCost {
    /// Times a million empty spans.
    pub fn measure() -> SpanCost {
        const N: u64 = 1_000_000;
        let mut spans = Spans::default();
        let t0 = Instant::now();
        for i in 0..N {
            spans.time(Span::Drain, || std::hint::black_box(i));
        }
        let total = t0.elapsed().as_nanos() as f64 / N as f64;
        let inside = spans.ns[Span::Drain as usize] as f64 / N as f64;
        SpanCost {
            inside_ns: inside,
            outside_ns: (total - inside).max(0.0),
        }
    }
}

/// Everything a traced replay of one job produced.
pub struct TracedRun {
    pub cycles: u64,
    pub per_wpu: Vec<WpuStats>,
    /// Memory-system counters with the WPU-local L1-I counters folded in,
    /// as `RunResult::mem` reports them.
    pub mem: MemStats,
    pub crossbar_queue_cycles: u64,
    pub dram_queue_cycles: u64,
    /// Fill completions delivered to WPUs.
    pub completions: u64,
    pub spans: Spans,
}

impl TracedRun {
    /// Whether the replay reproduced an untraced run bit for bit.
    pub fn matches(&self, r: &RunResult) -> bool {
        self.cycles == r.cycles && self.per_wpu == r.per_wpu && self.mem == r.mem
    }
}

/// Runs `spec` on `config`'s machine through the traced loop and verifies
/// the final memory image.
///
/// # Errors
///
/// A description of the deadlock, livelock, cycle-budget overrun or
/// verifier mismatch that stopped the job.
pub fn run_traced(config: &SimConfig, spec: &KernelSpec) -> Result<TracedRun, String> {
    let mut spans = Spans::default();
    let n = config.n_wpus;
    let (mut wpus, mut mem, mut data) = spans.time(Span::MachineNew, || {
        let threads_per_wpu = (config.width * config.n_warps) as u64;
        let wpus: Vec<Wpu> = (0..n)
            .map(|id| {
                Wpu::new(
                    WpuConfig {
                        id,
                        width: config.width,
                        n_warps: config.n_warps,
                        policy: config.policy,
                        sched_slots: config.sched_slots,
                        wst_entries: config.wst_entries,
                        l1i: config.mem.l1i,
                    },
                    Arc::clone(&spec.program),
                    id as u64 * threads_per_wpu,
                    config.total_threads(),
                )
            })
            .collect();
        (wpus, MemorySystem::new(config.mem), spec.memory.clone())
    });

    let mut now = Cycle::ZERO;
    let mut last_class = vec![TickClass::Idle; n];
    let mut completions: Vec<Completion> = Vec::new();
    let mut delivered = 0u64;
    let mut wake: Vec<Option<Cycle>> = vec![Some(Cycle::ZERO); n];
    let mut adapt_at: Vec<Option<Cycle>> = wpus.iter().map(Wpu::next_adapt_boundary).collect();
    let mut charged = vec![Cycle::ZERO; n];
    let mut last_insts = 0u64;
    let mut quiet_iters = 0u64;

    let loop_start = Instant::now();
    loop {
        spans.iters += 1;
        spans.time(Span::Drain, || {
            mem.drain_completions_into(now, &mut completions);
        });
        delivered += completions.len() as u64;
        for c in &completions {
            spans.time(Span::OnCompletion, || {
                wpus[c.l1].on_completion(c.request, c.at);
            });
            wake[c.l1] = Some(wake[c.l1].map_or(now, |w| w.min(now)));
        }
        let mut any_busy = false;
        for i in 0..n {
            let due = wake[i].is_some_and(|w| w <= now) || adapt_at[i].is_some_and(|a| a <= now);
            if !due {
                continue;
            }
            let lag = now - charged[i];
            if lag > 0 {
                wpus[i].account_skipped_stall(lag, last_class[i]);
            }
            let t = match spans.time(Span::TickCompute, || wpus[i].tick_compute(now)) {
                Phase::Complete(t) => t,
                Phase::NeedsCommit => spans.time(Span::TickCommit, || {
                    wpus[i].tick_commit(now, &mut mem, &mut data)
                }),
            };
            last_class[i] = t;
            charged[i] = now + 1;
            wake[i] = match t {
                TickClass::Busy => {
                    any_busy = true;
                    Some(now + 1)
                }
                TickClass::Done => None,
                TickClass::StallMem | TickClass::Idle => wpus[i].cached_next_wake(),
            };
            adapt_at[i] = wpus[i].next_adapt_boundary();
        }
        let live: u64 = wpus.iter().map(Wpu::live_threads).sum();
        let waiting: u64 = wpus.iter().map(Wpu::barrier_waiting).sum();
        if live > 0 && waiting == live {
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
        let insts: u64 = wpus.iter().map(|w| w.stats.warp_insts.get()).sum();
        if insts != last_insts {
            last_insts = insts;
            quiet_iters = 0;
        } else {
            quiet_iters += 1;
            if quiet_iters >= config.livelock_window {
                return Err(format!("traced replay livelocked at cycle {}", now.raw()));
            }
        }
        if now.raw() >= config.max_cycles {
            return Err(format!(
                "traced replay hit the cycle budget at {}",
                now.raw()
            ));
        }
        if any_busy {
            continue;
        }
        let mut next: Option<Cycle> = None;
        for (i, &w) in wake.iter().enumerate() {
            for c in [w, mem.next_completion_at_l1(i)].into_iter().flatten() {
                next = Some(next.map_or(c, |x: Cycle| x.min(c)));
            }
        }
        let Some(next) = next else {
            return Err(format!("traced replay deadlocked at cycle {}", now.raw()));
        };
        let next = adapt_at.iter().flatten().fold(next, |n, &a| n.min(a));
        now = next.max(now);
    }
    spans.loop_ns = loop_start.elapsed().as_nanos() as u64;

    let per_wpu: Vec<WpuStats> = wpus.iter().map(|w| w.stats.clone()).collect();
    let mut mem_stats = mem.stats();
    for w in &wpus {
        let (fetches, misses) = w.icache_counters();
        mem_stats.l1i_fetches.add(fetches);
        mem_stats.l1i_misses.add(misses);
    }
    spans.time(Span::Verify, || spec.verify(&data))?;
    Ok(TracedRun {
        cycles: now.raw(),
        per_wpu,
        mem: mem_stats,
        crossbar_queue_cycles: mem.crossbar_queue_cycles(),
        dram_queue_cycles: mem.dram_queue_cycles(),
        completions: delivered,
        spans,
    })
}
