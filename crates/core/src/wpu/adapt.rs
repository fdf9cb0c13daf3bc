//! The interval controllers: adaptive slip's allowed divergence (paper
//! §5.7) and the adaptive subdivision throttle (a future-work extension).
//! Both sample the WPU's counters at interval boundaries, which the run
//! loop learns from [`Wpu::next_adapt_boundary`].

use super::Wpu;
use crate::policy::{Policy, SlipConfig};
use crate::stats::WpuStats;
use dws_engine::Cycle;

/// Adaptive-slip controller state.
#[derive(Debug, Clone, Copy)]
pub(super) struct SlipCtl {
    /// Most threads of a warp that may be left behind at once.
    pub(super) max_div: u32,
    last_adapt: Cycle,
    busy_snapshot: u64,
    stall_snapshot: u64,
}

impl SlipCtl {
    pub(super) fn new(width: usize) -> Self {
        SlipCtl {
            max_div: width as u32,
            last_adapt: Cycle::ZERO,
            busy_snapshot: 0,
            stall_snapshot: 0,
        }
    }

    fn adapt(&mut self, now: Cycle, sc: &SlipConfig, stats: &WpuStats, width: usize) {
        if now - self.last_adapt < sc.interval {
            return;
        }
        let busy = stats.busy_cycles.get() - self.busy_snapshot;
        let stall = stats.mem_stall_cycles.get() - self.stall_snapshot;
        let interval = (now - self.last_adapt) as f64;
        let stall_frac = stall as f64 / interval;
        let busy_frac = busy as f64 / interval;
        if stall_frac > sc.raise_threshold {
            self.max_div = (self.max_div + 1).min(width as u32);
        } else if busy_frac > sc.lower_threshold {
            self.max_div = self.max_div.saturating_sub(1);
        }
        self.last_adapt = now;
        self.busy_snapshot = stats.busy_cycles.get();
        self.stall_snapshot = stats.mem_stall_cycles.get();
    }
}

/// Adaptive subdivision throttle (the future-work extension): duty-cycle
/// dueling. The controller alternates short probe intervals with
/// subdivision enabled and disabled, measures actual progress (thread
/// instructions retired per cycle) in each, then commits to the winner
/// for several intervals before re-probing — the set-dueling idea applied
/// to the subdivision decision the paper says needs "foreknowledge or
/// speculation" (Section 5.2).
#[derive(Debug, Clone, Copy)]
pub(super) struct ThrottleCtl {
    split_enabled: bool,
    phase: ThrottlePhase,
    last_adapt: Cycle,
    insts_snapshot: u64,
    probe_on_ipc: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThrottlePhase {
    /// Measuring progress with subdivision enabled.
    ProbeOn,
    /// Splits disabled, existing fragments re-merging; not measured.
    DrainOff,
    /// Measuring progress with subdivision disabled.
    ProbeOff,
    /// Committed to the winning setting for N more intervals.
    Committed(u8),
}

/// Length of one probe/commit interval, in cycles.
const THROTTLE_INTERVAL: u64 = 20_000;
/// Number of intervals to stay committed before re-probing.
const THROTTLE_COMMIT: u8 = 6;
/// Hysteresis: the probe winner must beat the loser by this factor.
const THROTTLE_MARGIN: f64 = 1.02;

impl ThrottleCtl {
    pub(super) fn new() -> Self {
        ThrottleCtl {
            split_enabled: true,
            phase: ThrottlePhase::ProbeOn,
            last_adapt: Cycle::ZERO,
            insts_snapshot: 0,
            probe_on_ipc: 0.0,
        }
    }

    /// `insts`: thread instructions retired so far.
    fn adapt(&mut self, now: Cycle, insts: u64) {
        if now - self.last_adapt < THROTTLE_INTERVAL {
            return;
        }
        let interval = (now - self.last_adapt) as f64;
        let ipc = (insts - self.insts_snapshot) as f64 / interval;
        match self.phase {
            ThrottlePhase::ProbeOn => {
                self.probe_on_ipc = ipc;
                self.split_enabled = false;
                self.phase = ThrottlePhase::DrainOff;
            }
            ThrottlePhase::DrainOff => {
                // Fragments created before the switch have had an interval
                // to re-merge; the next interval is a clean measurement.
                self.phase = ThrottlePhase::ProbeOff;
            }
            ThrottlePhase::ProbeOff => {
                // Commit to the winner; ties (within the margin) keep
                // subdivision on, the paper's default behavior.
                self.split_enabled = self.probe_on_ipc * THROTTLE_MARGIN >= ipc;
                self.phase = ThrottlePhase::Committed(THROTTLE_COMMIT);
            }
            ThrottlePhase::Committed(n) => {
                if n > 1 {
                    self.phase = ThrottlePhase::Committed(n - 1);
                } else {
                    self.split_enabled = true;
                    self.phase = ThrottlePhase::ProbeOn;
                }
            }
        }
        self.last_adapt = now;
        self.insts_snapshot = insts;
    }
}

impl Wpu {
    /// The next cycle at which an adaptive controller (the slip interval,
    /// the subdivision throttle) must observe this WPU, if any. The run
    /// loops guarantee a tick at or before this cycle, so event-driven
    /// sleeping never skips an adaptation boundary — which is what lets
    /// adaptive policies run without per-cycle lockstep. Non-adaptive
    /// policies (and finished WPUs) impose no cadence.
    pub fn next_adapt_boundary(&self) -> Option<Cycle> {
        if self.done() {
            return None;
        }
        match self.cfg.policy {
            Policy::Slip(sc) => Some(self.slip.last_adapt + sc.interval),
            Policy::Dws(c) if c.adaptive_throttle => {
                Some(self.throttle.last_adapt + THROTTLE_INTERVAL)
            }
            _ => None,
        }
    }

    /// Whether subdivision is currently permitted (always true unless the
    /// adaptive-throttle extension is enabled and has tripped).
    #[inline]
    pub(super) fn splits_allowed(&self) -> bool {
        match self.cfg.policy {
            Policy::Dws(c) if c.adaptive_throttle => self.throttle.split_enabled,
            _ => true,
        }
    }

    /// Runs whichever controller the policy has, if its interval elapsed.
    #[inline]
    pub(super) fn adapt(&mut self, now: Cycle) {
        match self.cfg.policy {
            Policy::Slip(sc) => self.slip.adapt(now, &sc, &self.stats, self.cfg.width),
            Policy::Dws(c) if c.adaptive_throttle => {
                self.throttle.adapt(now, self.stats.thread_insts.get());
            }
            _ => {}
        }
    }
}
