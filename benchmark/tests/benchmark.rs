//! The benchmark's own checks: the traced driver is the machine's run
//! loop, every workload runs clean, the emitted names are the declared
//! names, and every probe takes the path it is named after.

use dws_benchmark::json::Json;
use dws_benchmark::measure::{run_end_to_end, run_per_layer, Report};
use dws_benchmark::probes;
use dws_benchmark::traced::run_traced;
use dws_benchmark::workloads::WORKLOADS;
use dws_core::Policy;
use dws_kernels::{Benchmark, Scale};
use dws_sim::{presets, Machine};

#[test]
fn traced_driver_reproduces_machine_run_bit_for_bit() {
    for bench in Benchmark::ALL {
        let spec = bench.build(Scale::Test, 42);
        for policy in [Policy::conventional(), Policy::dws_revive(), Policy::slip()] {
            for n_wpus in [4, 32] {
                let cfg = presets::scaled(policy, n_wpus).with_threads(1);
                let what = format!("{bench} / {} / {n_wpus} WPUs", policy.paper_name());
                let reference = Machine::run(&cfg, &spec).unwrap_or_else(|e| panic!("{what}: {e}"));
                let replay = run_traced(&cfg, &spec).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(replay.cycles, reference.cycles, "{what}: cycles");
                assert_eq!(replay.per_wpu, reference.per_wpu, "{what}: WpuStats");
                assert_eq!(replay.mem, reference.mem, "{what}: MemStats");
                assert!(replay.matches(&reference), "{what}");
                assert!(
                    replay.spans.iters > 0 && replay.spans.loop_ns > 0,
                    "{what}: spans"
                );
            }
        }
    }
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared_metrics(doc: &Json, list: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
    doc.get(list)
        .unwrap()
        .as_arr()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// `(name, unit)` of every metric on a worker's result line, re-parsed
/// from the text the driver would read.
fn emitted_metrics(report: &Report) -> Vec<(String, String)> {
    let line = Json::parse(&report.result_line()).unwrap();
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    line.get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_runs_clean_and_emits_exactly_the_declared_names() {
    let doc = declared();
    let names: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));

    let end_to_end = declared_metrics(&doc, "end_to_end");
    let per_layer = declared_metrics(&doc, "per_layer");
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            !name.is_empty() && name.len() <= 64 && name.chars().all(ok),
            "{name}"
        );
    }
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    for w in &WORKLOADS {
        let jobs = (w.kernels.len() * w.policies.len()) as u64;
        // Zero seconds: exactly one pass.
        let untraced = run_end_to_end(w, Scale::Test, 42, 0.0);
        assert_eq!(
            untraced.failed,
            0,
            "{}: {}",
            w.name,
            untraced.detail.render()
        );
        assert_eq!(untraced.attempted, jobs, "{}", w.name);
        assert_eq!(emitted_metrics(&untraced), end_to_end, "{}", w.name);
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{}: {} must never be 0", w.name, m.name);
        }

        let traced = run_per_layer(w, Scale::Test, 42);
        assert_eq!(traced.failed, 0, "{}: {}", w.name, traced.detail.render());
        assert_eq!(traced.attempted, 2 * jobs, "{}", w.name);
        assert_eq!(emitted_metrics(&traced), per_layer, "{}", w.name);
        assert_eq!(
            untraced.detail.get("sim_fingerprint"),
            traced.detail.get("sim_fingerprint"),
            "{}: both runs simulate the same inputs",
            w.name
        );
    }
}

#[test]
fn fingerprint_follows_the_seed() {
    let w = &WORKLOADS[3];
    let fp = |seed| {
        let r = run_end_to_end(w, Scale::Test, seed, 0.0);
        r.detail
            .get("sim_fingerprint")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(fp(7), fp(7), "same seed, same inputs, same simulation");
    assert_ne!(fp(7), fp(8), "Merge's inputs are drawn from the seed");
}

#[test]
fn every_probe_takes_the_path_it_names() {
    let all = probes::run_all(42);
    let by_name = |name: &str| *all.iter().find(|p| p.name.ends_with(name)).unwrap();
    for p in &all {
        assert!(p.ns_per_op > 0.0 && p.ops > 0, "{p:?}");
        assert!(p.witness > 0, "{} never observed its path", p.name);
    }
    // One witness per operation where the path is taken by every op.
    for name in [
        "coalesced_hit_ns",
        "reject_ns",
        "mshr_cycle_ns",
        "link_transfer_ns",
    ] {
        let p = by_name(name);
        assert_eq!(p.witness, p.ops, "{name}: {p:?}");
    }
    // Every store but the very first finds the line owned by the other L1.
    let share = by_name("store_share_ns");
    assert!(share.witness >= share.ops - 64, "{share:?}");
    // A working set 4x the L1 misses on most of its 16 lines per op.
    let gather = by_name("gather_miss_ns");
    assert!(gather.witness >= 8 * gather.ops, "{gather:?}");
    // An ALU-only loop issues on (nearly) every tick.
    let alu = by_name("alu_tick_ns");
    assert!(alu.witness as f64 >= 0.9 * alu.ops as f64, "{alu:?}");
}
