//! Command line of the benchmark. Three forms:
//!
//! ```text
//! dws-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one process
//! dws-benchmark [--workload W] [--seed N] [--seconds S] [--out FILE]   every run, every metric
//! dws-benchmark compare A.json B.json                           regression gate
//! ```
//!
//! The first form is what `/BENCHMARK.json`'s `command` reaches through
//! `run.sh`; its last stdout line is the result object.

use dws_benchmark::harness::{self, DETAIL_PREFIX};
use dws_benchmark::measure::{run_end_to_end, run_per_layer};
use dws_benchmark::workloads;
use dws_kernels::Scale;
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--out FILE] [--trace 0|1]\n       run.sh compare A.json B.json";
const DEFAULT_SEED: u64 = 42;
const DEFAULT_OUT: &str = "target/benchmark/result.json";

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("dws-benchmark: refusing to measure a debug build; use benchmark/run.sh (cargo build --release)");
        return ExitCode::from(2);
    }
    harness::scrub_env();
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("dws-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)`: the full invocation saw a failed job, or `compare` found a
/// regression.
fn run(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.to_string());
        };
        return harness::compare(a, b);
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, DEFAULT_SEED, None, None, DEFAULT_OUT.to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag} {value}: not valid\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if s.is_nan() || s <= 0.0 {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => out.clone_from(value),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let Some(trace) = trace else {
        return harness::run_all(workload, seed, seconds, &out);
    };
    let w = workload.ok_or("--trace needs --workload")?;
    let report = if trace {
        run_per_layer(w, Scale::Bench, seed)
    } else {
        run_end_to_end(
            w,
            Scale::Bench,
            seed,
            seconds.ok_or("--trace 0 needs --seconds")?,
        )
    };
    for m in &report.metrics {
        println!("{:34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{DETAIL_PREFIX}{}", report.detail.render());
    // Failed jobs are reported on the result line (`correct`, `failed`);
    // the exit code only says whether there is a result line to read.
    println!("{}", report.result_line());
    Ok(true)
}
