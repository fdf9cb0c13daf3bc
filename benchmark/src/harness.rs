//! The full invocation (`benchmark/run.sh`): every workload in its own
//! process, untraced then traced, all metrics printed by name with unit,
//! direction and bound, and the result JSON written; and `compare`, the
//! regression gate over two result files.

use crate::json::Json;
use crate::measure::PAPER_FIG13_HMEAN;
use crate::stats::spread;
use crate::workloads::{Workload, WORKLOADS};
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Prefix of the worker's stdout line that carries [`Report::detail`]
/// (the last line is the contract's result object).
///
/// [`Report::detail`]: crate::measure::Report
pub const DETAIL_PREFIX: &str = "detail: ";

/// Environment variables that change what the simulator does or how many
/// threads it uses. Cleared before anything is measured, so the
/// `DWS_SANITIZE` oracle cross-checks or a stray override cannot change
/// what is timed.
const ENV_EXACT: [&str; 5] = [
    "DWS_THREADS",
    "DWS_JOBS",
    "DWS_SCALE",
    "DWS_SEED",
    "DWS_SANITIZE",
];
const ENV_PREFIX: &str = "DWS_WATCHDOG_";

/// Removes every variable named above from this process (and so from the
/// workers it spawns). Call first thing in `main`, before any thread exists.
pub fn scrub_env() {
    let doomed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| ENV_EXACT.contains(&k.as_str()) || k.starts_with(ENV_PREFIX))
        .collect();
    for k in doomed {
        std::env::remove_var(k);
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One worker run: its two parsed stdout lines and its wall time.
struct WorkerRun {
    result: Json,
    detail: Json,
    wall_s: f64,
}

/// Spawns this executable on one workload and waits, killing it — and
/// failing loudly — if it runs past `limit`.
fn run_worker(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    limit: Duration,
) -> Result<WorkerRun, String> {
    let what = format!("{} --trace {}", w.name, u8::from(trace));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{what}: spawn: {e}"))?;
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait().map_err(|e| format!("{what}: wait: {e}"))? {
            Some(status) => break status,
            None if t0.elapsed() > limit => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{what}: still running after {:.0} s, twice its expected time — killed \
                     (livelock or retry storm?)",
                    limit.as_secs_f64()
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let text = reader
        .join()
        .map_err(|_| format!("{what}: stdout reader panicked"))?
        .map_err(|e| format!("{what}: reading stdout: {e}"))?;
    if !status.success() {
        return Err(format!("{what}: worker exited with {status}"));
    }
    let mut lines = text.lines().rev();
    let result =
        Json::parse(lines.next().unwrap_or_default()).map_err(|e| format!("{what}: {e}"))?;
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{what}: no detail line"))
        .and_then(Json::parse)?;
    Ok(WorkerRun {
        result,
        detail,
        wall_s,
    })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.path(&["metrics", name, "value"])?.as_f64()
}

/// `[q1, median, q3]` of `metric` in a worker's detail, if it has them.
fn quartiles_of(detail: &Json, metric: &str) -> Option<[f64; 3]> {
    let q: Vec<f64> = detail
        .path(&["quartiles", metric])?
        .as_arr()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    q.try_into().ok()
}

fn print_metric(def: &Json, value: Option<f64>, quartiles: Option<[f64; 3]>) {
    let (name, unit, better) = (def.text("name"), def.text("unit"), def.text("better"));
    let bound = def
        .num("bound")
        .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
    let q = quartiles.map_or(String::new(), |q| {
        format!("  quartiles [{:.6}, {:.6}, {:.6}]", q[0], q[1], q[2])
    });
    match value {
        Some(v) => println!("  {name:34} {v:>16.6} {unit:12} {better:6} is better{bound}{q}"),
        None => println!("  {name:34} {:>16} {unit:12} MISSING", "-"),
    }
}

/// Runs `only` (every workload when `None`), prints every metric and writes
/// the result JSON to `out`. Returns whether every job of every run passed.
///
/// # Errors
///
/// A worker that could not be run, overran twice its expected time, or
/// printed something unparsable.
pub fn run_all(
    only: Option<&Workload>,
    seed: u64,
    seconds: Option<f64>,
    out: &str,
) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let defs = Json::parse(&text)?;
    let seconds = seconds
        .or_else(|| defs.num("run_seconds"))
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let meta = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    println!("dws-benchmark {}", meta.render());
    println!(
        "closed loop, one client, one thread; modelled caches start empty, statistics from cycle 0; \
         the model is unvalidated except through the Figure 13 h-mean"
    );

    let mut all_ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        // Expected: set-up and warm-up, the measuring window, and the one
        // pass that may start just inside it. The traced run makes one
        // untraced and one traced pass (under 2x) plus about a second of probes.
        let untraced_s = 3.0 + seconds.max(w.expected_pass_s) + w.expected_pass_s;
        let traced_s = 5.0 + 3.0 * w.expected_pass_s;
        let limit = |expected_s: f64| Duration::from_secs_f64(2.0 * expected_s);
        let e2e = run_worker(w, seed, seconds, false, limit(untraced_s))?;
        let layers = run_worker(w, seed, seconds, true, limit(traced_s))?;

        println!(
            "\n== {} ==  jobs {}  passes {}  sim_fingerprint {}  wall {:.1} s + {:.1} s traced",
            w.name,
            e2e.detail.num("jobs").unwrap_or(0.0),
            e2e.detail.num("passes").unwrap_or(0.0),
            e2e.detail.text("sim_fingerprint"),
            e2e.wall_s,
            layers.wall_s,
        );
        for def in defs.list("end_to_end") {
            let name = def.text("name");
            let q = quartiles_of(&e2e.detail, name);
            print_metric(def, metric_value(&e2e.result, name), q);
        }
        for (run, passes) in [
            (&e2e, "untraced"),
            (&layers, "one untraced + one traced pass"),
        ] {
            let failed = run.result.num("failed").unwrap_or(f64::NAN);
            let attempted = run.result.num("attempted").unwrap_or(f64::NAN);
            println!("  failed_jobs {failed} of {attempted} attempted ({passes})");
            for f in run.detail.list("failures") {
                println!("    FAILED {}", f.as_str().unwrap_or("?"));
            }
            all_ok &= failed == 0.0;
        }
        if w.name == "fig13_sweep" {
            if let Some(h) = metric_value(&e2e.result, "dws_speedup_hmean") {
                println!(
                    "  dws_speedup_hmean {h:.3}x beside the paper's Figure 13 {PAPER_FIG13_HMEAN}x: {:+.0}%",
                    (h / PAPER_FIG13_HMEAN - 1.0) * 100.0
                );
            }
        }
        println!("  -- per layer (one traced pass) --");
        for def in defs.list("per_layer") {
            print_metric(def, metric_value(&layers.result, def.text("name")), None);
        }
        if e2e.detail.get("sim_fingerprint") != layers.detail.get("sim_fingerprint") {
            println!("  FAILED the two runs simulated different things (fingerprints differ)");
            all_ok = false;
        }
        rows.push(Json::obj([
            ("name", Json::str(w.name)),
            ("end_to_end", e2e.result),
            ("end_to_end_detail", e2e.detail),
            ("per_layer", layers.result),
            ("per_layer_detail", layers.detail),
            (
                "wall_s",
                Json::Arr(vec![Json::Num(e2e.wall_s), Json::Num(layers.wall_s)]),
            ),
        ]));
    }

    let doc = Json::obj([
        ("meta", meta),
        (
            "end_to_end",
            defs.get("end_to_end").cloned().unwrap_or(Json::Null),
        ),
        ("workloads", Json::Arr(rows)),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{out}: {e}"))?;
    }
    std::fs::write(out, doc.render() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("\nresult written to {out}");
    Ok(all_ok)
}

/// One metric of one workload, judged between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Unchanged,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound, and the bound resolves at this spread.
    Worse,
    /// Worse by more than the bound, but pass-to-pass spread is wider than
    /// the bound, so the difference may be noise.
    Unresolved,
    /// A simulated quantity that must repeat exactly did not.
    Mismatch,
}

/// Judges a timing: `a` and `b` are the medians, `spread_*` each side's
/// interquartile range as a share of its median.
pub fn judge(
    a: f64,
    b: f64,
    higher_is_better: bool,
    bound: f64,
    spread_a: f64,
    spread_b: f64,
) -> Verdict {
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if worse_by > bound {
        if spread_a.max(spread_b) > bound {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Metrics that are simulated, not timed: for one seed they must be
/// identical between two commits that model the same machine.
const EXACT: [&str; 2] = ["sim_cycles", "dws_speedup_hmean"];

/// Compares result file `b` (the change) against `a` (the parent), one row
/// per workload and metric. Returns whether `b` is free of regressions.
///
/// # Errors
///
/// Unreadable or unparsable files, or files from different seeds (their
/// inputs differ, so nothing simulated is comparable).
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |d: &Json| d.path(&["meta", "seed"]).and_then(Json::as_f64);
    if seed(&a) != seed(&b) {
        return Err(format!(
            "seeds differ ({:?} vs {:?}): the inputs are not the same, rerun with one --seed",
            seed(&a),
            seed(&b)
        ));
    }
    let mut ok = true;
    for row_a in a.list("workloads") {
        let name = row_a.text("name");
        let Some(row_b) = b.list("workloads").iter().find(|r| r.text("name") == name) else {
            println!("{name}: missing from {path_b}");
            ok = false;
            continue;
        };
        println!("{name}");
        for def in a.list("end_to_end") {
            let metric = def.text("name");
            let value = |row: &Json| metric_value(row.get("end_to_end")?, metric);
            let (Some(va), Some(vb)) = (value(row_a), value(row_b)) else {
                println!("  {metric:20} missing");
                ok = false;
                continue;
            };
            let verdict = if EXACT.contains(&metric) {
                if va == vb {
                    Verdict::Unchanged
                } else {
                    Verdict::Mismatch
                }
            } else {
                // Metrics measured once per run (peak RSS) have no spread.
                let spread_of = |row: &Json| {
                    row.get("end_to_end_detail")
                        .and_then(|d| quartiles_of(d, metric))
                        .map_or(0.0, spread)
                };
                judge(
                    va,
                    vb,
                    def.text("better") == "higher",
                    def.num("bound").unwrap_or(0.0),
                    spread_of(row_a),
                    spread_of(row_b),
                )
            };
            println!(
                "  {metric:20} {va:>16.6} -> {vb:>16.6}  {:+7.2}%  {verdict:?}",
                (vb / va - 1.0) * 100.0
            );
            ok &= !matches!(verdict, Verdict::Worse | Verdict::Mismatch);
        }
        for key in ["sim_fingerprint", "jobs"] {
            let of = |row: &Json| row.path(&["end_to_end_detail", key]).cloned();
            if of(row_a) != of(row_b) {
                println!("  {key:20} {:?} -> {:?}  Mismatch", of(row_a), of(row_b));
                ok = false;
            }
        }
        for (key, label) in [
            ("end_to_end", "failed_jobs"),
            ("per_layer", "failed_jobs (traced)"),
        ] {
            let failed = row_b.path(&[key, "failed"]).and_then(Json::as_f64);
            if failed != Some(0.0) {
                println!("  {label:20} {failed:?} in {path_b}");
                ok = false;
            }
        }
    }
    println!("{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        use Verdict::*;
        // Lower is better, 5% bound, tight spread.
        assert_eq!(judge(1.00, 1.04, false, 0.05, 0.01, 0.01), Unchanged);
        assert_eq!(judge(1.00, 1.08, false, 0.05, 0.01, 0.01), Worse);
        assert_eq!(judge(1.00, 0.90, false, 0.05, 0.01, 0.01), Better);
        // Higher is better: a drop is worse.
        assert_eq!(judge(4.0, 3.6, true, 0.05, 0.0, 0.0), Worse);
        assert_eq!(judge(4.0, 4.4, true, 0.05, 0.0, 0.0), Better);
        // Either side's spread wider than the bound: cannot tell.
        assert_eq!(judge(1.00, 1.08, false, 0.05, 0.01, 0.07), Unresolved);
    }

    #[test]
    fn compare_refuses_different_seeds_and_flags_exact_mismatches() {
        let dir =
            std::env::temp_dir().join(format!("dws-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, seed: u32, cycles: u32, host: f64| {
            let doc = format!(
                r#"{{"meta": {{"seed": {seed}}},
                "end_to_end": [{{"name": "host_s", "unit": "s", "better": "lower", "bound": 0.05}},
                               {{"name": "sim_cycles", "unit": "cycles", "better": "lower", "bound": 0.03}}],
                "workloads": [{{"name": "w",
                  "end_to_end": {{"failed": 0, "metrics": {{"host_s": {{"value": {host}}}, "sim_cycles": {{"value": {cycles}}}}}}},
                  "end_to_end_detail": {{"sim_fingerprint": "f{cycles}", "jobs": 4, "quartiles": {{"host_s": [0.99, 1.0, 1.01]}}}},
                  "per_layer": {{"failed": 0}}}}]}}"#
            );
            let path = dir.join(name);
            std::fs::write(&path, doc).unwrap();
            path.to_str().unwrap().to_string()
        };
        let base = file("a.json", 42, 1000, 1.0);
        assert_eq!(compare(&base, &file("same.json", 42, 1000, 1.03)), Ok(true));
        assert_eq!(
            compare(&base, &file("slow.json", 42, 1000, 1.10)),
            Ok(false)
        );
        // One cycle off is under the 3% bound but simulated: must be exact.
        assert_eq!(
            compare(&base, &file("drift.json", 42, 1001, 1.0)),
            Ok(false)
        );
        assert!(compare(&base, &file("seed.json", 43, 1000, 1.0)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
