//! Command-line driver for the DWS simulator.
//!
//! ```text
//! dws-cli list
//! dws-cli run     --bench Merge --policy revive [options]
//! dws-cli compare --bench Merge [options]
//! dws-cli lint    [--kernel <name> | --all] [--deny-warnings] [--json]
//! dws-cli asm     <kernel.asm> [--threads N] [--mem-kb K] [--policy P] [options]
//! dws-cli opt     <kernel.asm> --meld [--out FILE] [--deny-warnings] [--quiet]
//! dws-cli fuzz    [--seeds N] [--seed-start N] [--policy P] [--budget-ms MS]
//!                 [--max-cycles N] [--minimize] [--json] [--verbose]
//!
//! options:
//!   --scale test|bench|paper   input size            (default bench)
//!   --wpus N                   WPU count              (default 4)
//!   --width N                  SIMD width             (default 16)
//!   --warps N                  warps per WPU          (default 4)
//!   --slots N                  scheduler slots        (default 2*warps)
//!   --wst N                    warp-split table size  (default 16)
//!   --l2-lat CYCLES            L2 lookup latency      (default 30)
//!   --l1d-kb KB                L1 D-cache capacity    (default 32)
//!   --assoc N|full             L1 D-cache ways        (default 8)
//!   --seed N                   workload seed          (default 42)
//!   --csv                      machine-readable one-line-per-run output
//! ```

//! Exit codes: 0 success, 1 generic failure (usage, I/O, wrong result),
//! 3 timeout, 4 deadlock, 5 livelock, 6 host-budget, 7 fuzz-failures-found
//! — so harnesses can triage a failed run without parsing stderr.
//! Structured aborts also print their machine-state snapshot
//! ([`dws::sim::DiagnosticReport`]).

use dws::core::Policy;
use dws::kernels::{Benchmark, Scale};
use dws::sim::{Machine, SimConfig, SimError};
use std::process::ExitCode;

/// A CLI failure: a structured simulation abort (distinct exit code, with
/// the machine-state snapshot printed) or a plain usage/build error.
enum CliError {
    Sim(SimError),
    Other(String),
}

/// Reports `e` on stderr and maps it to the documented exit code.
fn fail(e: &CliError) -> ExitCode {
    let code = match e {
        CliError::Sim(s) => {
            eprintln!("error: {s}");
            if let SimError::Timeout { diagnostics, .. }
            | SimError::Deadlock { diagnostics, .. }
            | SimError::Livelock { diagnostics, .. } = s
            {
                eprint!("{diagnostics}");
            }
            match s {
                SimError::Timeout { .. } => 3,
                SimError::Deadlock { .. } => 4,
                SimError::Livelock { .. } => 5,
                SimError::HostBudget { .. } => 6,
                _ => 1,
            }
        }
        CliError::Other(msg) => {
            eprintln!("error: {msg}");
            1
        }
    };
    ExitCode::from(code)
}

fn policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("conv", Policy::conventional()),
        ("branch-stack", Policy::dws_branch_stack()),
        ("branch-only", Policy::dws_branch_only()),
        ("mem-only", Policy::dws_mem_only()),
        ("aggress", Policy::dws_aggress()),
        ("lazy", Policy::dws_lazy()),
        ("revive", Policy::dws_revive()),
        ("throttled", Policy::dws_revive_throttled()),
        (
            "branch-limited",
            Policy::dws_branch_limited(dws::core::MemSplit::Revive),
        ),
        ("slip", Policy::slip()),
        ("slip-bypass", Policy::slip_branch_bypass()),
    ]
}

#[derive(Debug)]
struct Options {
    bench: Benchmark,
    policy: Option<Policy>,
    scale: Scale,
    wpus: usize,
    width: usize,
    warps: usize,
    slots: Option<usize>,
    wst: usize,
    l2_lat: u64,
    l1d_kb: u64,
    assoc: Option<usize>, // None = full
    assoc_given: bool,
    seed: u64,
    csv: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            bench: Benchmark::Merge,
            policy: None,
            scale: Scale::Bench,
            wpus: 4,
            width: 16,
            warps: 4,
            slots: None,
            wst: 16,
            l2_lat: 30,
            l1d_kb: 32,
            assoc: Some(8),
            assoc_given: false,
            seed: 42,
            csv: false,
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bench" => {
                let v = val()?;
                o.bench = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name().eq_ignore_ascii_case(v))
                    .ok_or_else(|| format!("unknown benchmark '{v}'"))?;
            }
            "--policy" => {
                let v = val()?;
                o.policy = Some(
                    policies()
                        .into_iter()
                        .find(|(n, _)| n.eq_ignore_ascii_case(v))
                        .ok_or_else(|| format!("unknown policy '{v}'"))?
                        .1,
                );
            }
            "--scale" => {
                o.scale = match val()?.as_str() {
                    "test" => Scale::Test,
                    "bench" => Scale::Bench,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--wpus" => {
                o.wpus = val()?.parse().map_err(|e| format!("--wpus: {e}"))?;
                if !(1..=dws::mem::MAX_L1S).contains(&o.wpus) {
                    let max = dws::mem::MAX_L1S;
                    return Err(format!(
                        "--wpus: 1 to {max} (one L1 each, {max} sharers a line)"
                    ));
                }
            }
            "--width" => {
                o.width = val()?.parse().map_err(|e| format!("--width: {e}"))?;
                let targets = SimConfig::paper(Policy::conventional())
                    .mem
                    .l1d
                    .mshr_targets;
                if !(1..=targets).contains(&o.width) {
                    return Err(format!(
                        "--width: 1 to {targets} (an L1-D MSHR lists {targets} targets, a lane each)"
                    ));
                }
            }
            "--warps" => o.warps = val()?.parse().map_err(|e| format!("--warps: {e}"))?,
            "--slots" => o.slots = Some(val()?.parse().map_err(|e| format!("--slots: {e}"))?),
            "--wst" => o.wst = val()?.parse().map_err(|e| format!("--wst: {e}"))?,
            "--l2-lat" => o.l2_lat = val()?.parse().map_err(|e| format!("--l2-lat: {e}"))?,
            "--l1d-kb" => o.l1d_kb = val()?.parse().map_err(|e| format!("--l1d-kb: {e}"))?,
            "--assoc" => {
                let v = val()?;
                o.assoc_given = true;
                o.assoc = if v == "full" {
                    None
                } else {
                    Some(v.parse().map_err(|e| format!("--assoc: {e}"))?)
                };
            }
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--csv" => o.csv = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(o)
}

fn config(o: &Options, policy: Policy) -> SimConfig {
    let mut cfg = SimConfig::paper(policy)
        .with_wpus(o.wpus)
        .with_width(o.width)
        .with_warps(o.warps);
    if let Some(s) = o.slots {
        cfg.sched_slots = s;
    }
    cfg.wst_entries = o.wst;
    cfg.mem.l2.hit_latency = o.l2_lat;
    cfg.mem.l1d = cfg.mem.l1d.with_size(o.l1d_kb * 1024);
    if o.assoc_given {
        cfg.mem.l1d = match o.assoc {
            Some(a) => cfg.mem.l1d.with_assoc(a),
            None => cfg.mem.l1d.fully_associative(),
        };
    }
    cfg
}

fn run_one(o: &Options, policy: Policy, baseline: Option<u64>) -> Result<u64, CliError> {
    let spec = o.bench.build(o.scale, o.seed);
    let cfg = config(o, policy);
    let r = Machine::run(&cfg, &spec).map_err(CliError::Sim)?;
    spec.verify(&r.memory).map_err(|message| {
        CliError::Sim(SimError::VerifyFailed {
            label: format!("{}/{}", o.bench.name(), policy.paper_name()),
            message,
        })
    })?;
    if o.csv {
        println!(
            "{},{},{},{},{},{},{:.4},{:.4},{:.2},{},{},{:.4e}",
            o.bench.name(),
            policy.paper_name(),
            r.cycles,
            r.wpu.warp_insts.get(),
            r.mem.l1d_misses.get(),
            r.mem.dram_accesses.get(),
            r.busy_fraction(),
            r.mem_stall_fraction(),
            r.avg_simd_width(),
            r.wpu.branch_splits.get() + r.wpu.mem_splits.get() + r.wpu.revive_splits.get(),
            r.wpu.pc_merges.get() + r.wpu.stack_merges.get(),
            r.energy.total(),
        );
    } else {
        println!("\n{} / {}", o.bench.name(), policy.paper_name());
        println!("  cycles            {:>14}", r.cycles);
        if let Some(b) = baseline {
            println!("  speedup vs Conv   {:>14.3}", b as f64 / r.cycles as f64);
        }
        println!("  warp instructions {:>14}", r.wpu.warp_insts.get());
        println!("  avg SIMD width    {:>14.2}", r.avg_simd_width());
        println!(
            "  busy / mem-stall  {:>6.1}% / {:.1}%",
            100.0 * r.busy_fraction(),
            100.0 * r.mem_stall_fraction()
        );
        println!(
            "  L1D misses        {:>14}  (DRAM {})",
            r.mem.l1d_misses.get(),
            r.mem.dram_accesses.get()
        );
        println!(
            "  splits / merges   {:>7} / {}",
            r.wpu.branch_splits.get() + r.wpu.mem_splits.get() + r.wpu.revive_splits.get(),
            r.wpu.pc_merges.get() + r.wpu.stack_merges.get()
        );
        println!("  energy            {:>14.3} mJ", r.energy.total() * 1e3);
    }
    Ok(r.cycles)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: dws-cli <list|run|compare> [options]; see --help in source");
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "list" => {
            println!("benchmarks:");
            for b in Benchmark::ALL {
                println!("  {}", b.name());
            }
            println!("policies:");
            for (n, p) in policies() {
                println!("  {:14} ({})", n, p.paper_name());
            }
            ExitCode::SUCCESS
        }
        "run" => match parse(&args[1..]) {
            Ok(o) => {
                let policy = o.policy.unwrap_or_else(Policy::dws_revive);
                match run_one(&o, policy, None) {
                    Ok(_) => ExitCode::SUCCESS,
                    Err(e) => fail(&e),
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "compare" => match parse(&args[1..]) {
            Ok(o) => {
                if o.csv {
                    println!(
                        "benchmark,policy,cycles,warp_insts,l1d_misses,dram,busy,mem_stall,\
                         width,splits,merges,energy_j"
                    );
                }
                let mut baseline = None;
                for (_, policy) in policies() {
                    match run_one(&o, policy, baseline) {
                        Ok(cycles) => {
                            baseline.get_or_insert(cycles);
                        }
                        Err(e) => return fail(&e),
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "lint" => match run_lint(&args[1..]) {
            Ok(clean) => {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "fuzz" => match run_fuzz(&args[1..]) {
            Ok(clean) => {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    // Distinct from generic failure: the harness ran fine
                    // and found real oracle divergences.
                    ExitCode::from(7)
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "asm" => {
            // dws-cli asm <file> [--threads N] [--mem-kb K] [--policy P] ...
            let Some(path) = args.get(1) else {
                eprintln!("usage: dws-cli asm <kernel.asm> [options]");
                return ExitCode::FAILURE;
            };
            let mut threads = 64u64;
            let mut mem_kb = 256u64;
            let mut rest = Vec::new();
            let mut it = args[2..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--threads" => {
                        threads = it.next().and_then(|v| v.parse().ok()).unwrap_or(threads);
                    }
                    "--mem-kb" => {
                        mem_kb = it.next().and_then(|v| v.parse().ok()).unwrap_or(mem_kb);
                    }
                    other => rest.push(other.to_string()),
                }
            }
            match run_asm(path, threads, mem_kb, &rest) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "opt" => match run_opt(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        other => {
            eprintln!("unknown command '{other}' (try list, run, compare, lint, asm, opt, fuzz)");
            ExitCode::FAILURE
        }
    }
}

/// Minimal JSON string escaping for the `--json` outputs.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `dws-cli lint [--kernel <name> | --all] [--deny-warnings] [--verbose]
/// [--json]`
///
/// Statically verifies the selected kernels under the paper's machine
/// configuration at every input scale: the six IR passes (CFG shape,
/// re-convergence, def-use, memory bounds, divergence, melding advisory)
/// plus the declared buffer layout against the actual allocation. Returns
/// whether the run was clean: errors always fail; warnings fail under
/// `--deny-warnings`. `--json` renders the full structured report instead
/// of the table — fixed field order, no wall-clock fields, and a config
/// fingerprint, so identical lint runs are byte-identical (like the fuzz
/// reports).
fn run_lint(args: &[String]) -> Result<bool, String> {
    use dws::engine::hash::FastHasher;
    use dws::kernels::Scale;
    use dws::sim::lint_spec;
    use std::fmt::Write as _;
    use std::hash::Hasher as _;

    let mut benches: Vec<Benchmark> = Vec::new();
    let mut deny_warnings = false;
    let mut verbose = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--all" => benches = Benchmark::ALL.to_vec(),
            "--verbose" => verbose = true,
            "--json" => json = true,
            "--kernel" => {
                let v = it.next().ok_or("--kernel needs a value")?;
                benches.push(
                    Benchmark::ALL
                        .into_iter()
                        .find(|b| b.name().eq_ignore_ascii_case(v))
                        .ok_or_else(|| format!("unknown benchmark '{v}'"))?,
                );
            }
            "--deny-warnings" => deny_warnings = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if benches.is_empty() {
        return Err("select kernels with --kernel <name> or --all".into());
    }

    // Self-describing fingerprint, mirroring FuzzConfig::config_hash: two
    // reports with equal hashes linted the same kernels the same way.
    let mut h = FastHasher::default();
    for b in &benches {
        h.write(b.name().as_bytes());
    }
    h.write_u64(u64::from(deny_warnings));
    let config_hash = h.finish();

    let cfg = SimConfig::paper(dws::core::Policy::dws_revive());
    let mut clean = true;
    let mut out = String::new();
    if json {
        let _ = write!(
            out,
            "{{\"config_hash\":\"{config_hash:#018x}\",\"deny_warnings\":{deny_warnings},\"kernels\":["
        );
    }
    let mut first = true;
    for bench in benches {
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            let spec = bench.build(scale, 42);
            let report = lint_spec(&cfg, &spec);
            let failed = report.has_errors()
                || (deny_warnings && report.count(dws::isa::Severity::Warning) > 0);
            clean &= !failed;
            if json {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"kernel\":\"{}\",\"scale\":\"{:?}\",\"insts\":{},\"branches\":{},\
                     \"errors\":{},\"warnings\":{},\"notes\":{},\"clean\":{},\"diagnostics\":[",
                    bench.name(),
                    scale,
                    spec.program.len(),
                    report.stats.branches,
                    report.count(dws::isa::Severity::Error),
                    report.count(dws::isa::Severity::Warning),
                    report.count(dws::isa::Severity::Note),
                    !failed,
                );
                for (i, d) in report.diagnostics.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"code\":\"{}\",\"severity\":\"{}\",\"pc\":{},\"block\":{},\"message\":\"{}\"}}",
                        d.code,
                        d.severity,
                        d.pc.map_or("null".to_string(), |p| p.to_string()),
                        d.block.map_or("null".to_string(), |b| b.to_string()),
                        json_escape(&d.message),
                    );
                }
                out.push_str("]}");
                continue;
            }
            let stats = &report.stats;
            println!(
                "{:8} {:6?} {:4} insts  {:3} branches ({} divergent, {} subdividable)  \
                 stack<=>{}  {}",
                bench.name(),
                scale,
                spec.program.len(),
                stats.branches,
                stats.divergent_branches,
                stats.subdividable_branches,
                stats.reconv_stack_bound(),
                report.summary(),
            );
            // Notes (e.g. unproven bounds, meldable regions) are
            // informational; keep the gate output to actionable findings
            // unless asked.
            let actionable = report
                .diagnostics
                .iter()
                .any(|d| d.severity >= dws::isa::Severity::Warning);
            if verbose || actionable {
                print!("{report}");
            }
        }
    }
    if json {
        out.push_str("]}");
        println!("{out}");
    }
    Ok(clean)
}

/// `dws-cli opt <kernel.asm> --meld [--out FILE] [--deny-warnings]
/// [--quiet]`
///
/// Runs the control-flow melding transform ([`dws::isa::meld`]) on an
/// assembly kernel: every profitable divergent diamond is rewritten into
/// predicated straight-line (select/masked-access) code, the six-pass
/// verifier re-checks the output, and the result is printed as assembly
/// (or written to `--out`). The summary lists each rewrite and the
/// advisory diagnostics for diamonds that did *not* meld. Fails under
/// `--deny-warnings` if the transformed kernel carries any warning.
fn run_opt(args: &[String]) -> Result<(), CliError> {
    use dws::isa::{parse_asm, render_asm, Severity};

    let mut path: Option<&String> = None;
    let mut do_meld = false;
    let mut out_file: Option<&String> = None;
    let mut deny_warnings = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--meld" => do_meld = true,
            "--deny-warnings" => deny_warnings = true,
            "--quiet" => quiet = true,
            "--out" => {
                out_file = Some(
                    it.next()
                        .ok_or_else(|| CliError::Other("--out needs a value".into()))?,
                );
            }
            other if !other.starts_with("--") && path.is_none() => path = Some(arg),
            other => return Err(CliError::Other(format!("unknown option '{other}'"))),
        }
    }
    let path = path.ok_or_else(|| {
        CliError::Other("usage: dws-cli opt <kernel.asm> --meld [--out FILE]".into())
    })?;
    if !do_meld {
        return Err(CliError::Other(
            "opt requires a transform flag (currently: --meld)".into(),
        ));
    }

    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
    let program = parse_asm(&text).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
    let before = program.len();
    let outcome = dws::isa::meld(program.insts())
        .map_err(|report| CliError::Other(format!("{path}: kernel rejected:\n{report}")))?;

    if !quiet {
        eprintln!(
            "{path}: {} -> {} instructions, {} diamond(s) melded",
            before,
            outcome.insts.len(),
            outcome.applied.len(),
        );
        for a in &outcome.applied {
            eprintln!(
                "  melded diamond at pc {} (join {}): {} issue slot(s) saved",
                a.branch_pc, a.join_pc, a.saved
            );
        }
        // Surface the advisory pass on the *output*: any DWS0602 left is a
        // diamond that stayed divergent, with the reason why.
        for d in &outcome.report.diagnostics {
            if matches!(
                d.code,
                dws::isa::DwsLintCode::MeldableRegion | dws::isa::DwsLintCode::MeldRejected
            ) {
                eprintln!("  {d}");
            }
        }
    }
    if deny_warnings && outcome.report.count(Severity::Warning) > 0 {
        return Err(CliError::Other(format!(
            "{path}: melded output carries warnings under --deny-warnings:\n{}",
            outcome.report
        )));
    }

    let melded = dws::isa::Program::from_insts(outcome.insts)
        .map_err(|e| CliError::Other(format!("{path}: melded output rejected: {e}")))?;
    let asm = render_asm(&melded);
    match out_file {
        Some(f) => std::fs::write(f, &asm).map_err(|e| CliError::Other(format!("{f}: {e}")))?,
        None => print!("{asm}"),
    }
    Ok(())
}

/// `dws-cli fuzz [--seeds N] [--seed-start N] [--policy P] [--budget-ms MS]
/// [--max-cycles N] [--minimize] [--json] [--verbose]`
///
/// Runs the verifier-guided differential fuzzing campaign: each seed grows
/// a random verifier-accepted kernel and checks it across the oracle axes
/// (all scheduling policies vs the reference interpreter, stepped vs
/// event-driven, chaos vs zero-fault, melded vs unmelded). `--policy`
/// narrows the policy axis to one named policy; `--minimize` delta-debugs
/// each failure down to a minimal reproducer.
/// Returns whether the campaign was clean; failures exit with code 7.
fn run_fuzz(args: &[String]) -> Result<bool, String> {
    use dws::sim::{run_campaign, FuzzConfig};

    let mut cfg = FuzzConfig::default();
    let mut json = false;
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => cfg.seeds = val()?.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--seed-start" => {
                cfg.seed_start = val()?.parse().map_err(|e| format!("--seed-start: {e}"))?;
            }
            "--policy" => {
                let v = val()?;
                cfg.policy = Some(
                    policies()
                        .into_iter()
                        .find(|(n, _)| n.eq_ignore_ascii_case(v))
                        .ok_or_else(|| format!("unknown policy '{v}'"))?
                        .1,
                );
            }
            "--budget-ms" => {
                let ms: u64 = val()?.parse().map_err(|e| format!("--budget-ms: {e}"))?;
                cfg.job_budget = Some(std::time::Duration::from_millis(ms.max(1)));
            }
            "--max-cycles" => {
                cfg.max_cycles = val()?.parse().map_err(|e| format!("--max-cycles: {e}"))?;
            }
            "--max-stmts" => {
                cfg.gen.max_stmts = val()?.parse().map_err(|e| format!("--max-stmts: {e}"))?;
            }
            "--minimize" => cfg.minimize = true,
            "--json" => json = true,
            "--verbose" => verbose = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if cfg.seeds == 0 {
        return Err("--seeds must be >= 1".into());
    }

    let report = run_campaign(&cfg);
    if json {
        println!("{}", report.to_json());
        return Ok(report.clean());
    }

    println!(
        "fuzz: {} seed(s) from {} on the {} policy axis (config 0x{:016x}): {}",
        report.seeds,
        report.seed_start,
        report.policy.unwrap_or("full"),
        report.config_hash,
        if report.clean() {
            "clean".to_string()
        } else {
            format!("{} failure(s)", report.failures.len())
        },
    );
    for f in &report.failures {
        println!(
            "  seed {:<6} {:28} {:>4} insts  {}",
            f.seed,
            f.class.label(),
            f.insts,
            f.message
        );
        if let Some(m) = &f.minimized {
            println!(
                "    minimized reproducer: {} insts, {} statement(s)",
                m.insts,
                m.ast.stmt_count()
            );
            if verbose {
                for line in m.asm.lines() {
                    println!("      {line}");
                }
                // The minimized kernel still passes verification (the
                // minimizer re-verifies every step); show its remaining
                // structured findings (warnings/notes) for triage.
                if let Ok(program) = m.ast.compile() {
                    let lint = program.lint(&dws::isa::VerifyOptions::default());
                    for line in lint.rendered().lines() {
                        println!("      {line}");
                    }
                }
            }
        }
        println!("    replay: {}", f.replay);
    }
    Ok(report.clean())
}

/// Assembles and simulates a textual kernel on a machine sized for it.
fn run_asm(path: &str, threads: u64, mem_kb: u64, opts: &[String]) -> Result<(), CliError> {
    use dws::isa::{parse_asm, VecMemory};
    use dws::kernels::KernelSpec;

    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
    let program = parse_asm(&text).map_err(|e| {
        if e.diagnostics.is_empty() {
            // Pure syntax error: the one-liner carries everything.
            CliError::Other(format!("{path}: {e}"))
        } else {
            // Verifier rejection: the message is the full rustc-style
            // rendering; print it whole, then summarize on one line.
            eprintln!("{}", e.message);
            CliError::Other(format!(
                "{path}: kernel rejected by the verifier ({} finding(s))",
                e.diagnostics.len()
            ))
        }
    })?;
    println!(
        "{path}: {} instructions, {} conditional branches ({} subdividable)",
        program.len(),
        program.branches().count(),
        program.branches().filter(|(_, i)| i.subdividable).count()
    );
    let o = parse(opts).map_err(CliError::Other)?;
    let memory = VecMemory::new(mem_kb * 1024);
    let spec = KernelSpec::new("asm-kernel", program, memory, |_| Ok(()));
    // Size the machine so it has exactly `threads` hardware threads.
    let mut cfg = config(&o, o.policy.unwrap_or_else(dws::core::Policy::dws_revive));
    let per_wpu = (o.width * o.warps) as u64;
    cfg.n_wpus = (threads.div_ceil(per_wpu)).max(1) as usize;
    if cfg.n_wpus > dws::mem::MAX_L1S {
        return Err(CliError::Other(format!(
            "{threads} threads need {} WPUs; the machine has at most {}",
            cfg.n_wpus,
            dws::mem::MAX_L1S
        )));
    }
    cfg.mem.n_l1s = cfg.n_wpus;
    let r = dws::sim::Machine::run(&cfg, &spec).map_err(CliError::Sim)?;
    println!(
        "cycles {}  warp-insts {}  width {:.2}  busy {:.1}%  mem-stall {:.1}%  misses {}",
        r.cycles,
        r.wpu.warp_insts.get(),
        r.avg_simd_width(),
        100.0 * r.busy_fraction(),
        100.0 * r.mem_stall_fraction(),
        r.mem.l1d_misses.get()
    );
    // Dump the first words of memory so simple kernels can show results.
    let words: Vec<i64> = (0..8).map(|i| r.memory.read_i64(i * 8)).collect();
    println!("mem[0..8] = {words:?}");
    Ok(())
}
