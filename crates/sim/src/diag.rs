//! Structured diagnostics for failed runs.
//!
//! When [`Machine::run`](crate::Machine::run) aborts — timeout, deadlock,
//! or livelock — the error carries a [`DiagnosticReport`]: a machine-state
//! snapshot (per-WPU group states, WST and MSHR occupancy, next-wake
//! bounds) that tooling can inspect field by field and the CLI can render
//! human-readably, instead of the ad-hoc strings it replaced.

use dws_core::TickClass;

/// Snapshot of one WPU at abort time.
#[derive(Debug, Clone)]
pub struct WpuDiag {
    /// WPU index (== its L1 index).
    pub id: usize,
    /// What the WPU did on its most recent processed cycle.
    pub last_class: TickClass,
    /// Threads that have not yet halted.
    pub live_threads: u64,
    /// Lanes parked at the global barrier.
    pub barrier_waiting: u64,
    /// Live SIMD groups (full warps and splits).
    pub groups_alive: usize,
    /// Current warp-split table occupancy.
    pub wst_used: usize,
    /// Peak warp-split table occupancy so far.
    pub wst_peak: usize,
    /// Warp-split table capacity.
    pub wst_capacity: usize,
    /// Outstanding MSHR entries at this WPU's L1.
    pub mshr_in_use: usize,
    /// MSHR entry capacity at this WPU's L1.
    pub mshr_capacity: usize,
    /// Groups spinning on MSHR back-pressure. While a request is
    /// outstanding they sleep until a fill: `Ready`, due, and left out of
    /// `next_wake` — not a deadlock.
    pub mshr_spinners: usize,
    /// The L1 MSHR-release count the earliest spinner's retry certificate
    /// waits for.
    pub retry_at_release: Option<u64>,
    /// MSHR entries this WPU's L1 has released so far.
    pub mshr_releases: u64,
    /// The WPU's cached next group wake time, if any (spinners excluded).
    pub next_wake: Option<u64>,
    /// The earliest pending fill bound for this WPU's L1, if any.
    pub next_fill: Option<u64>,
    /// Per-group state dump (warp, pc, mask, status, stack depths).
    pub groups: String,
}

/// A structured machine-state snapshot attached to
/// [`SimError`](crate::SimError) aborts.
#[derive(Debug, Clone)]
pub struct DiagnosticReport {
    /// Simulation time at abort.
    pub cycles: u64,
    /// One snapshot per WPU.
    pub wpus: Vec<WpuDiag>,
    /// In-flight fills across the whole memory system.
    pub pending_fills: usize,
}

impl std::fmt::Display for DiagnosticReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "machine state at cycle {} ({} fills in flight):",
            self.cycles, self.pending_fills
        )?;
        for w in &self.wpus {
            writeln!(
                f,
                "WPU {}: last={:?} live={} barrier_waiting={} groups={} \
                 wst={}/{} (peak {}) mshr={}/{} spin={} need={} next_wake={} next_fill={}",
                w.id,
                w.last_class,
                w.live_threads,
                w.barrier_waiting,
                w.groups_alive,
                w.wst_used,
                w.wst_capacity,
                w.wst_peak,
                w.mshr_in_use,
                w.mshr_capacity,
                w.mshr_spinners,
                OrNone(
                    w.retry_at_release
                        .map(|at| at.saturating_sub(w.mshr_releases)),
                ),
                OrNone(w.next_wake),
                OrNone(w.next_fill),
            )?;
            for line in w.groups.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

/// Renders `Some(v)` as `v` and `None` as `-`.
struct OrNone(Option<u64>);

impl std::fmt::Display for OrNone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => write!(f, "-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_every_wpu() {
        let report = DiagnosticReport {
            cycles: 123,
            pending_fills: 2,
            wpus: vec![WpuDiag {
                id: 0,
                last_class: TickClass::StallMem,
                live_threads: 16,
                barrier_waiting: 0,
                groups_alive: 3,
                wst_used: 2,
                wst_peak: 4,
                wst_capacity: 16,
                mshr_in_use: 1,
                mshr_capacity: 32,
                mshr_spinners: 2,
                retry_at_release: Some(10),
                mshr_releases: 7,
                next_wake: Some(130),
                next_fill: None,
                groups: "warp=0 pc=5 status=WaitMem".into(),
            }],
        };
        let s = report.to_string();
        assert!(s.contains("cycle 123"));
        assert!(s.contains("WPU 0"));
        assert!(s.contains("wst=2/16 (peak 4)"));
        assert!(s.contains("mshr=1/32 spin=2 need=3"));
        assert!(s.contains("next_wake=130"));
        assert!(s.contains("next_fill=-"));
        assert!(s.contains("warp=0 pc=5"));
    }
}
