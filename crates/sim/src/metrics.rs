//! Per-run metrics: the numbers every figure and table consumes.

use dws_core::{Wpu, WpuStats};
use dws_energy::{EnergyBreakdown, EnergyModel};
use dws_isa::VecMemory;
use dws_mem::{MemStats, MemorySystem};

/// Everything measured in one simulation run.
#[derive(Debug)]
pub struct RunResult {
    /// End-to-end execution time in cycles.
    pub cycles: u64,
    /// Per-WPU statistics.
    pub per_wpu: Vec<WpuStats>,
    /// Machine-wide aggregate of the per-WPU statistics.
    pub wpu: WpuStats,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Energy breakdown under the default 65 nm model.
    pub energy: EnergyBreakdown,
    /// Per-thread miss counts, `[wpu][warp][lane]` (Figure 14).
    pub per_thread_misses: Vec<Vec<Vec<u64>>>,
    /// Peak warp-split-table occupancy per WPU.
    pub wst_peaks: Vec<usize>,
    /// Final functional memory (pass to `KernelSpec::verify`).
    pub memory: VecMemory,
}

impl RunResult {
    /// Gathers metrics from a finished machine.
    pub(crate) fn collect(
        wpus: &[Wpu],
        mem: &MemorySystem,
        cycles: u64,
        memory: VecMemory,
    ) -> RunResult {
        let per_wpu: Vec<WpuStats> = wpus.iter().map(|w| w.stats.clone()).collect();
        let mut agg = WpuStats::default();
        for s in &per_wpu {
            agg.merge(s);
        }
        let mut mem_stats = mem.stats();
        // The L1-I arrays live inside the WPUs (so the compute phase can
        // probe them locally); fold their counters back into the
        // memory-system view the energy model and reports consume.
        for w in wpus {
            let (fetches, misses) = w.icache_counters();
            mem_stats.l1i_fetches.add(fetches);
            mem_stats.l1i_misses.add(misses);
        }
        let energy = dws_energy::compute(
            &EnergyModel::paper_65nm(),
            &agg,
            &mem_stats,
            cycles,
            wpus.len(),
        );
        RunResult {
            cycles,
            wpu: agg,
            mem: mem_stats,
            energy,
            per_thread_misses: wpus.iter().map(Wpu::per_thread_misses).collect(),
            wst_peaks: wpus.iter().map(Wpu::wst_peak).collect(),
            memory,
            per_wpu,
        }
    }

    /// Fraction of WPU time stalled waiting for memory (the paper's
    /// "time spent waiting for memory").
    pub fn mem_stall_fraction(&self) -> f64 {
        self.wpu.mem_stall_fraction().unwrap_or(0.0)
    }

    /// Fraction of WPU time spent issuing ("SIMD computation").
    pub fn busy_fraction(&self) -> f64 {
        let t = self.wpu.total_cycles();
        if t == 0 {
            0.0
        } else {
            self.wpu.busy_cycles.get() as f64 / t as f64
        }
    }

    /// Average SIMD width of issued instructions.
    pub fn avg_simd_width(&self) -> f64 {
        self.wpu.simd_width.ratio().unwrap_or(0.0)
    }

    /// Average memory-level parallelism: in-flight line fills sampled at
    /// each new miss (the paper's MLP argument for DWS).
    pub fn avg_mlp(&self) -> f64 {
        self.mem.mlp.mean().unwrap_or(0.0)
    }

    /// Speedup of this run relative to a baseline run of the same work.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Energy relative to a baseline run (Figure 19's normalization).
    pub fn energy_ratio_over(&self, baseline: &RunResult) -> f64 {
        self.energy.total() / baseline.energy.total()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Machine, SimConfig};
    use dws_core::Policy;
    use dws_kernels::{Benchmark, Scale};

    #[test]
    fn fractions_are_sane() {
        let spec = Benchmark::Short.build(Scale::Test, 2);
        let cfg = SimConfig::paper(Policy::conventional()).with_wpus(1);
        let r = Machine::run(&cfg, &spec).unwrap();
        let busy = r.busy_fraction();
        let stall = r.mem_stall_fraction();
        assert!(busy > 0.0 && busy <= 1.0);
        assert!((0.0..=1.0).contains(&stall));
        assert!(busy + stall <= 1.0 + 1e-9);
        assert!(r.avg_simd_width() > 0.0 && r.avg_simd_width() <= 16.0);
        assert!((r.speedup_over(&r) - 1.0).abs() < 1e-12);
        assert!((r.energy_ratio_over(&r) - 1.0).abs() < 1e-12);
        assert!(r.avg_mlp() >= 1.0, "misses imply at least one in flight");
    }
}
