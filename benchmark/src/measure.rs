//! One workload, one process: the untraced run that produces the
//! end-to-end metrics and the traced run that produces the per-layer ones.

use crate::json::Json;
use crate::probes;
use crate::stats::{median, quartiles};
use crate::traced::{run_traced, Span, SpanCost, Spans};
use crate::workloads::Workload;
use dws_core::WpuStats;
use dws_engine::hash::FastHasher;
use dws_engine::stats::harmonic_mean;
use dws_kernels::{Benchmark, KernelSpec, Scale};
use dws_mem::MemStats;
use dws_sim::{presets, Machine, SweepOutcome};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// `setup_s` is the median over builds of the workload's spec set repeated
/// for this long and at least this often: one build is 0.5-10 ms, too short
/// for a handful of samples to give a steady median.
const SETUP_SECONDS: f64 = 0.5;
const SETUP_MIN_REPS: usize = 21;

/// The paper's Figure 13 harmonic-mean speedup of DWS.ReviveSplit over
/// Conv — the one number the model is compared to the paper through.
pub const PAPER_FIG13_HMEAN: f64 = 1.71;

/// End-to-end metric names and units, as `/BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("dws_speedup_hmean", "x"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run hands to `main`: the contract's result line plus the detail
/// the harness prints and stores.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Job executions attempted (jobs per pass x passes).
    pub attempted: u64,
    /// Executions that returned `SimError`, panicked, failed
    /// `KernelSpec::verify`, or whose traced replay differed.
    pub failed: u64,
    /// Pass count, quartiles, fingerprint, failures: everything that is
    /// not a metric but that two runs are compared on.
    pub detail: Json,
}

impl Report {
    /// The contract's last stdout line.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let body = [("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                    (m.name.clone(), Json::obj(body))
                })),
            ),
        ])
        .render()
    }
}

/// One full pass of the job list, untraced.
struct Pass {
    host_s: f64,
    outcomes: Vec<SweepOutcome>,
}

fn run_pass(w: &Workload, specs: &[Arc<KernelSpec>]) -> Pass {
    let t0 = Instant::now();
    let outcomes = w.sweep(specs).run_streaming();
    Pass {
        host_s: t0.elapsed().as_secs_f64(),
        outcomes,
    }
}

/// Simulated totals of one pass. Deterministic for a given seed: two
/// commits that should model the same machine compare exactly on these.
#[derive(Debug, Clone, PartialEq)]
struct SimSummary {
    cycles: u64,
    warp_insts: u64,
    failures: Vec<String>,
    /// H-mean over kernels of Conv cycles / DWS.ReviveSplit cycles; `None`
    /// when a job of a pair failed.
    dws_speedup_hmean: Option<f64>,
    /// Hash over every job's cycles and every `WpuStats`/`MemStats` field.
    fingerprint: u64,
}

fn summarize(w: &Workload, outcomes: &[SweepOutcome]) -> SimSummary {
    let mut h = FastHasher::default();
    let (mut cycles, mut warp_insts) = (0, 0);
    let mut failures = Vec::new();
    for o in outcomes {
        h.write(o.label.as_bytes());
        match &o.result {
            Ok(r) => {
                cycles += r.cycles;
                warp_insts += r.wpu.warp_insts.get();
                // Debug output names every field, so a counter added to
                // either struct later is fingerprinted without an edit here.
                h.write(format!("{} {:?} {:?}", r.cycles, r.per_wpu, r.mem).as_bytes());
            }
            Err(e) => {
                h.write(b"failed");
                failures.push(format!("{}: {e}", o.label));
            }
        }
    }
    let ratios: Option<Vec<f64>> = w
        .speedup_pairs()
        .into_iter()
        .map(|(conv, dws)| {
            let conv = outcomes[conv].result.as_ref().ok()?;
            let dws = outcomes[dws].result.as_ref().ok()?;
            Some(dws.speedup_over(conv))
        })
        .collect();
    SimSummary {
        cycles,
        warp_insts,
        failures,
        dws_speedup_hmean: ratios.and_then(|r| harmonic_mean(&r)),
        fingerprint: h.finish(),
    }
}

/// Times repeated builds of the workload's inputs; returns the samples and
/// the last set built.
fn time_setup(w: &Workload, scale: Scale, seed: u64) -> (Vec<f64>, Vec<Arc<KernelSpec>>) {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let specs = w.build(scale, seed);
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (samples, specs);
        }
    }
}

/// Host warm-up: one untimed FFT/Conv run, so page faults, allocator
/// growth and instruction-cache fill are not charged to the first pass.
/// The *modelled* caches of every timed run still start empty.
fn warm_up(scale: Scale, seed: u64) {
    let spec = Benchmark::Fft.build(scale, seed);
    let _ = std::hint::black_box(Machine::run(&presets::conv().with_threads(1), &spec));
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// not available.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn quartiles_json(samples: &mut [f64]) -> Json {
    Json::Arr(quartiles(samples).into_iter().map(Json::Num).collect())
}

fn sim_detail(
    w: &Workload,
    seed: u64,
    jobs: usize,
    sim: &SimSummary,
    failures: &[String],
) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(seed as f64)),
        ("jobs", Json::Num(jobs as f64)),
        (
            "sim_fingerprint",
            Json::str(format!("{:016x}", sim.fingerprint)),
        ),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
    ]
}

/// The untraced run: set-up timings, warm-up, then full passes of the job
/// list for `seconds` seconds (always at least one; a pass is never cut
/// short, and none is started that would not fit the remaining time).
pub fn run_end_to_end(w: &Workload, scale: Scale, seed: u64, seconds: f64) -> Report {
    let (mut setup, specs) = time_setup(w, scale, seed);
    warm_up(scale, seed);

    // Only the first pass's outcomes are kept: later passes are summarized
    // and dropped, so peak RSS does not grow with the pass count.
    let start = Instant::now();
    let first = run_pass(w, &specs);
    let jobs = first.outcomes.len();
    let sim = summarize(w, &first.outcomes);
    let mut failures = sim.failures.clone();
    let mut host = vec![first.host_s];
    drop(first);
    while start.elapsed().as_secs_f64() + host.iter().copied().fold(0.0, f64::max) <= seconds {
        let pass = run_pass(w, &specs);
        host.push(pass.host_s);
        // Every pass simulates the same inputs, so every pass must agree.
        let again = summarize(w, &pass.outcomes);
        if again != sim {
            failures.extend(again.failures);
            failures.push(format!(
                "pass {} is not a repeat of the first (nondeterminism)",
                host.len()
            ));
        }
    }
    let mut minst: Vec<f64> = host
        .iter()
        .map(|s| sim.warp_insts as f64 / s / 1e6)
        .collect();
    let values = [
        median(&mut setup),
        median(&mut host),
        median(&mut minst),
        peak_rss_mb(),
        sim.cycles as f64,
        sim.dws_speedup_hmean.unwrap_or(0.0),
    ];
    let mut detail = sim_detail(w, seed, jobs, &sim, &failures);
    detail.extend([
        ("passes", Json::Num(host.len() as f64)),
        (
            "quartiles",
            Json::obj([
                ("setup_s", quartiles_json(&mut setup)),
                ("host_s", quartiles_json(&mut host)),
                ("minst_per_s", quartiles_json(&mut minst)),
            ]),
        ),
    ]);
    Report {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect(),
        attempted: (jobs * host.len()) as u64,
        failed: failures.len() as u64,
        detail: Json::obj(detail),
    }
}

/// Simulated counters of a traced pass, summed over its jobs.
#[derive(Default)]
struct Counts {
    wpu: WpuStats,
    mem: MemStats,
    crossbar_queue_cycles: u64,
    dram_queue_cycles: u64,
    completions: u64,
    cycles: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: one untraced pass, one pass through the traced driver
/// (checked job by job against the untraced one), the probes, and the
/// per-layer metrics derived from them.
pub fn run_per_layer(w: &Workload, scale: Scale, seed: u64) -> Report {
    let (mut setup, specs) = time_setup(w, scale, seed);
    warm_up(scale, seed);
    let untraced = run_pass(w, &specs);
    let sim = summarize(w, &untraced.outcomes);
    let mut failures = sim.failures.clone();

    let cost = SpanCost::measure();
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let mut traced_s = 0.0;
    for (job, reference) in w.jobs().iter().zip(&untraced.outcomes) {
        let t0 = Instant::now();
        let replay = run_traced(&job.config, &specs[job.kernel]);
        traced_s += t0.elapsed().as_secs_f64();
        let replay = match replay {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{} (traced): {e}", reference.label));
                continue;
            }
        };
        if let Ok(r) = &reference.result {
            if !replay.matches(r) {
                failures.push(format!(
                    "{}: traced replay differs from Machine::run ({} vs {} cycles)",
                    reference.label, replay.cycles, r.cycles
                ));
            }
        }
        spans.merge(&replay.spans);
        for s in &replay.per_wpu {
            counts.wpu.merge(s);
        }
        add_mem(&mut counts.mem, &replay.mem);
        counts.crossbar_queue_cycles += replay.crossbar_queue_cycles;
        counts.dram_queue_cycles += replay.dram_queue_cycles;
        counts.completions += replay.completions;
        counts.cycles += replay.cycles;
    }

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    let (wpu, mem) = (&counts.wpu, &counts.mem);
    let ticks = spans.calls(Span::TickCompute);

    put("sim.run_loop.self_s", spans.loop_self_s(cost), "s");
    put("sim.run_loop.iters", spans.iters as f64, "count");
    put(
        "sim.run_loop.skip_ratio",
        ratio(counts.cycles, spans.iters),
        "cycles/iter",
    );
    put(
        "sim.machine_new.self_s",
        spans.self_s(Span::MachineNew, cost),
        "s",
    );
    put(
        "sim.mcycles_per_s",
        sim.cycles as f64 / untraced.host_s / 1e6,
        "Mcycles/s",
    );
    put("sim.trace_overhead", traced_s / untraced.host_s, "x");
    put("kernels.build.self_s", median(&mut setup), "s");
    put(
        "kernels.verify.self_s",
        spans.self_s(Span::Verify, cost),
        "s",
    );

    put(
        "core.tick_compute.self_s",
        spans.self_s(Span::TickCompute, cost),
        "s",
    );
    put("core.tick_compute.calls", ticks as f64, "count");
    put(
        "core.tick_commit.self_s",
        spans.self_s(Span::TickCommit, cost),
        "s",
    );
    put(
        "core.tick_commit.calls",
        spans.calls(Span::TickCommit) as f64,
        "count",
    );
    put(
        "core.on_completion.self_s",
        spans.self_s(Span::OnCompletion, cost),
        "s",
    );
    put(
        "core.on_completion.calls",
        spans.calls(Span::OnCompletion) as f64,
        "count",
    );
    put(
        "core.issue_per_tick",
        ratio(wpu.warp_insts.get(), ticks),
        "inst/tick",
    );
    put("core.warp_insts", wpu.warp_insts.get() as f64, "count");
    put(
        "core.simd_width_avg",
        wpu.simd_width.ratio().unwrap_or(0.0),
        "lanes",
    );
    put(
        "core.busy_frac",
        ratio(wpu.busy_cycles.get(), wpu.total_cycles()),
        "ratio",
    );
    put(
        "core.mem_stall_frac",
        ratio(wpu.mem_stall_cycles.get(), wpu.total_cycles()),
        "ratio",
    );
    put(
        "core.idle_frac",
        ratio(wpu.idle_cycles.get(), wpu.total_cycles()),
        "ratio",
    );
    put(
        "core.divergent_branch_frac",
        wpu.divergent_branch_fraction().unwrap_or(0.0),
        "ratio",
    );
    put(
        "core.divergent_access_frac",
        wpu.divergent_access_fraction().unwrap_or(0.0),
        "ratio",
    );
    put(
        "core.branch_splits",
        wpu.branch_splits.get() as f64,
        "count",
    );
    put("core.mem_splits", wpu.mem_splits.get() as f64, "count");
    put(
        "core.revive_splits",
        wpu.revive_splits.get() as f64,
        "count",
    );
    put("core.pc_merges", wpu.pc_merges.get() as f64, "count");
    put("core.stack_merges", wpu.stack_merges.get() as f64, "count");
    put(
        "core.wst_full_events",
        wpu.wst_full_events.get() as f64,
        "count",
    );

    let line_accesses = mem.l1d_line_accesses.get();
    put("mem.drain.self_s", spans.self_s(Span::Drain, cost), "s");
    put("mem.drain.calls", spans.calls(Span::Drain) as f64, "count");
    put("mem.completions", counts.completions as f64, "count");
    put("mem.l1d.line_accesses", line_accesses as f64, "count");
    put(
        "mem.l1d.miss_rate",
        ratio(mem.l1d_misses.get(), line_accesses),
        "ratio",
    );
    put(
        "mem.l1d.mshr_merges",
        mem.l1d_mshr_merges.get() as f64,
        "count",
    );
    put("mem.rejections", mem.rejections.get() as f64, "count");
    put(
        "mem.rejections_per_line_access",
        ratio(mem.rejections.get(), line_accesses),
        "ratio",
    );
    put(
        "mem.bank_conflict_cycles",
        mem.bank_conflict_cycles.get() as f64,
        "cycles",
    );
    put("mem.l2.accesses", mem.l2_accesses.get() as f64, "count");
    put(
        "mem.l2.miss_rate",
        ratio(mem.l2_misses.get(), mem.l2_accesses.get()),
        "ratio",
    );
    put("mem.upgrades", mem.upgrades.get() as f64, "count");
    put("mem.invalidations", mem.invalidations.get() as f64, "count");
    put("mem.owner_flushes", mem.owner_flushes.get() as f64, "count");
    put("mem.l1_writebacks", mem.l1_writebacks.get() as f64, "count");
    put("mem.dram.accesses", mem.dram_accesses.get() as f64, "count");
    put(
        "mem.dram.queue_cycles",
        counts.dram_queue_cycles as f64,
        "cycles",
    );
    put(
        "mem.crossbar.bytes",
        mem.crossbar_bytes.get() as f64,
        "bytes",
    );
    put(
        "mem.crossbar.queue_cycles",
        counts.crossbar_queue_cycles as f64,
        "cycles",
    );
    put("mem.mlp_avg", mem.mlp.mean().unwrap_or(0.0), "fills");
    put("mem.l1i.fetches", mem.l1i_fetches.get() as f64, "count");
    put(
        "mem.l1i.miss_rate",
        ratio(mem.l1i_misses.get(), mem.l1i_fetches.get()),
        "ratio",
    );

    for p in probes::run_all(seed) {
        if p.witness == 0 {
            failures.push(format!("{} never took the path it names", p.name));
        }
        put(p.name, p.ns_per_op, "ns/op");
    }

    let jobs = untraced.outcomes.len();
    let mut detail = sim_detail(w, seed, jobs, &sim, &failures);
    detail.push(("span_cost_ns", Json::Num(cost.inside_ns + cost.outside_ns)));
    Report {
        metrics,
        attempted: 2 * jobs as u64,
        failed: failures.len() as u64,
        detail: Json::obj(detail),
    }
}

/// `MemStats` has no `merge`; these are the counters the metrics read.
fn add_mem(into: &mut MemStats, m: &MemStats) {
    into.l1d_line_accesses.add(m.l1d_line_accesses.get());
    into.l1d_misses.add(m.l1d_misses.get());
    into.l1d_mshr_merges.add(m.l1d_mshr_merges.get());
    into.rejections.add(m.rejections.get());
    into.bank_conflict_cycles.add(m.bank_conflict_cycles.get());
    into.l2_accesses.add(m.l2_accesses.get());
    into.l2_misses.add(m.l2_misses.get());
    into.upgrades.add(m.upgrades.get());
    into.invalidations.add(m.invalidations.get());
    into.owner_flushes.add(m.owner_flushes.get());
    into.l1_writebacks.add(m.l1_writebacks.get());
    into.dram_accesses.add(m.dram_accesses.get());
    into.crossbar_bytes.add(m.crossbar_bytes.get());
    into.l1i_fetches.add(m.l1i_fetches.get());
    into.l1i_misses.add(m.l1i_misses.get());
    into.mlp.merge(&m.mlp);
}
