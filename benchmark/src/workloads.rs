//! The five workloads: which kernels under which policies on which
//! machine. Why each was chosen is recorded in `/BENCHMARK.json` and
//! `README.md`; this table is the executable half of that record.

use dws_core::Policy;
use dws_kernels::{Benchmark, KernelSpec, Scale};
use dws_sim::{presets, SimConfig, SweepRunner};
use std::sync::Arc;

const CONV: &str = "Conv";
const DWS: &str = "DWS.ReviveSplit";

/// One named job list.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kernels: &'static [Benchmark],
    /// Policies by paper name; every list holds `Conv` and
    /// `DWS.ReviveSplit`, the pair `dws_speedup_hmean` is computed from.
    pub policies: &'static [&'static str],
    /// 4 is the paper's Table-3 machine; 32 is `presets::scaled`.
    pub n_wpus: usize,
    /// Seconds one pass took on the builder's 2-core host. The harness
    /// kills a run that exceeds twice its expected time (`--seconds` plus
    /// one pass and set-up), so a livelock or retry storm fails loudly.
    pub expected_pass_s: f64,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fig13_sweep",
        kernels: &Benchmark::ALL,
        policies: &[
            CONV,
            "DWS.BranchOnly",
            "DWS.ReviveSplit.MemOnly",
            "DWS.AggressSplit",
            "DWS.LazySplit",
            DWS,
            "Slip",
            "Slip.BranchBypass",
        ],
        n_wpus: 4,
        expected_pass_s: 23.0,
    },
    Workload {
        name: "mem_bound",
        kernels: &[Benchmark::Short, Benchmark::Fft, Benchmark::Svm],
        policies: &[CONV, DWS],
        n_wpus: 4,
        expected_pass_s: 3.6,
    },
    Workload {
        name: "compute_bound",
        kernels: &[Benchmark::KMeans, Benchmark::Filter],
        policies: &[CONV, DWS],
        n_wpus: 4,
        expected_pass_s: 0.62,
    },
    Workload {
        name: "divergent",
        kernels: &[Benchmark::Merge],
        policies: &[CONV, "DWS.BranchOnly", DWS, "Slip.BranchBypass"],
        n_wpus: 4,
        expected_pass_s: 1.4,
    },
    // `Short` is deliberately absent: on the 32-WPU preset it spends 7.7 s
    // and 77 M MSHR rejections per run (a known pathology for a later perf
    // issue) and would drown the coherence traffic this workload isolates.
    Workload {
        name: "coherence_32wpu",
        kernels: &[Benchmark::Lu, Benchmark::Fft, Benchmark::Merge],
        policies: &[CONV, DWS],
        n_wpus: 32,
        expected_pass_s: 2.5,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `Conv` plus the Figure 13 policy set, by paper name.
fn policy(name: &str) -> Policy {
    if name == CONV {
        return Policy::conventional();
    }
    presets::figure13_policies()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| p)
        .unwrap_or_else(|| panic!("{name} is not a Figure 13 policy"))
}

/// One simulation of a pass.
pub struct Job {
    /// Index into the spec set [`Workload::build`] returned.
    pub kernel: usize,
    pub policy: &'static str,
    pub config: SimConfig,
}

impl Workload {
    /// Generates the workload's inputs: one `KernelSpec` per kernel
    /// (assemble + verify + predecode + inputs + host reference). This is
    /// the set-up the `setup_s` metric times; the simulator only ever sees
    /// the specs.
    pub fn build(&self, scale: Scale, seed: u64) -> Vec<Arc<KernelSpec>> {
        self.kernels
            .iter()
            .map(|b| Arc::new(b.build(scale, seed)))
            .collect()
    }

    /// The pass's job list, kernel-major. One client, one thread: intra-run
    /// sharding is pinned off so `DWS_THREADS` cannot change what is timed.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for kernel in 0..self.kernels.len() {
            for &name in self.policies {
                jobs.push(Job {
                    kernel,
                    policy: name,
                    config: presets::scaled(policy(name), self.n_wpus).with_threads(1),
                });
            }
        }
        jobs
    }

    /// The job list as a single-worker streaming sweep: `Machine::new` +
    /// run + `KernelSpec::verify` per job, in order, panics isolated,
    /// memory images dropped as they are verified.
    pub fn sweep(&self, specs: &[Arc<KernelSpec>]) -> SweepRunner {
        let mut sweep = SweepRunner::new().with_workers(1);
        for job in self.jobs() {
            sweep.add(
                format!("{}/{}", self.kernels[job.kernel].name(), job.policy),
                job.config,
                &specs[job.kernel],
            );
        }
        sweep
    }

    /// Positions of the (`Conv`, `DWS.ReviveSplit`) jobs of each kernel in
    /// the job list.
    pub fn speedup_pairs(&self) -> Vec<(usize, usize)> {
        let at = |name: &str| {
            self.policies
                .iter()
                .position(|p| *p == name)
                .unwrap_or_else(|| panic!("workload {} lacks policy {name}", self.name))
        };
        let (conv, dws, stride) = (at(CONV), at(DWS), self.policies.len());
        (0..self.kernels.len())
            .map(|k| (k * stride + conv, k * stride + dws))
            .collect()
    }
}
