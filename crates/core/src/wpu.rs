//! The warp processing unit: cycle-level execution of kernel IR over the
//! cache hierarchy under a configurable divergence policy.
//!
//! One [`Wpu::tick`] models one WPU clock: at most one warp instruction
//! issues across the active lanes of the selected SIMD group. The scheduler
//! switches groups on every D-cache access with zero switch cost (the
//! paper's Section 3.3), groups stall on misses, and the configured
//! [`Policy`] decides when warps subdivide and when splits re-converge.
//!
//! This file holds the WPU's state, its construction and read-outs, and the
//! cycle itself (compute phase, commit phase, issue loop, stall postlude).
//! The groups and every scheduling index over them belong to the
//! [`GroupTable`]; what a cycle does with the picked group is split by
//! concern over the child modules: `execute` (fetch, µop dispatch, branch
//! and memory divergence), `reconv` (pre-issue bookkeeping, merges, slip),
//! `mshr` (outstanding misses, completions, MSHR back-pressure) and `adapt`
//! (the interval controllers).

mod adapt;
mod execute;
mod mshr;
mod reconv;

use crate::group::{GroupId, GroupTable};
use crate::mask::Mask;
use crate::policy::{MemSplit, Policy};
use crate::stats::WpuStats;
use crate::trace::{TraceEvent, Tracer};
use crate::warp::Warp;
use adapt::{SlipCtl, ThrottleCtl};
use dws_engine::fault::{FaultInjector, FaultPlan};
use dws_engine::{Cycle, Phase};
use dws_isa::{MemoryAccess, Program};
use dws_mem::{CacheArray, CacheConfig, LaneAccess, MemorySystem};
use mshr::{InflightRing, Spin};
use std::sync::Arc;

/// Static configuration of one WPU.
#[derive(Debug, Clone, Copy)]
pub struct WpuConfig {
    /// WPU index (also its L1 index in the memory system).
    pub id: usize,
    /// SIMD width (lanes per warp).
    pub width: usize,
    /// Warps per WPU (multi-threading depth).
    pub n_warps: usize,
    /// Scheduling policy.
    pub policy: Policy,
    /// Scheduler slots; groups beyond this sit idle until a slot frees
    /// (paper Section 6.6). The paper doubles the conventional count.
    pub sched_slots: usize,
    /// Warp-split table entries (paper Section 6.7; 16 by default).
    pub wst_entries: usize,
    /// Geometry of the WPU-local L1 instruction cache. The array lives in
    /// the WPU (not the shared memory system) so the compute phase
    /// ([`Wpu::tick_compute`]) can probe it as WPU-local state; only miss
    /// fill latency goes through the shared crossbar/L2 model, at commit
    /// time.
    pub l1i: CacheConfig,
}

impl WpuConfig {
    /// The paper's Table 3 WPU: 16-wide, 4 warps, 8 scheduler slots,
    /// 16 WST entries, 16 KB L1-I.
    pub fn paper(id: usize, policy: Policy) -> Self {
        WpuConfig {
            id,
            width: 16,
            n_warps: 4,
            policy,
            sched_slots: 8,
            wst_entries: 16,
            l1i: CacheConfig::paper_l1i(),
        }
    }
}

/// What a WPU did in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickClass {
    /// Issued (or structurally retried) an instruction.
    Busy,
    /// Stalled with at least one group waiting on memory.
    StallMem,
    /// Stalled for another reason (barrier, re-convergence, drained).
    Idle,
    /// All threads have terminated.
    Done,
}

/// Effect of pre-issue bookkeeping on a candidate group.
enum PreIssue {
    /// Group may execute the instruction at its PC.
    Execute,
    /// A zero-cost state transition happened (stack pop / merge / wait);
    /// pick another group this same cycle.
    Redirect,
}

/// Result of one execute attempt inside the issue loop.
enum ExecResult {
    /// An instruction issued; the cycle is busy.
    Issued,
    /// Structural retry (refused MSHRs, I-fetch miss): the group was
    /// pushed back; try another group this same cycle.
    Retry,
    /// The issue reached a shared-memory-system interaction; the tick is
    /// parked in [`Wpu::pending_issue`] until [`Wpu::tick_commit`] resumes
    /// it.
    Suspend,
}

/// The memory interaction a suspended issue loop parked, resumed by
/// [`Wpu::tick_commit`]. Only the group identity is recorded: the group's
/// own state (PC, mask) is untouched between suspension and resume, so
/// the commit re-derives everything else.
#[derive(Debug, Clone, Copy)]
enum PendingIssue {
    /// An I-cache miss: the line is already installed locally; the fill
    /// latency still needs the shared crossbar/L2 model.
    IcacheFill { gid: GroupId },
    /// A load/store about to probe the shared L1/MSHR state.
    MemAccess { gid: GroupId },
}

/// Reusable buffers for the memory issue, so steady-state execution
/// performs no per-cycle heap allocation. Capacity is bounded by the SIMD
/// width (one entry per lane).
#[derive(Default)]
struct IssueScratch {
    /// The lane accesses of the issuing memory instruction, decoded
    /// straight from the register row and handed to the memory system.
    accesses: Vec<LaneAccess>,
    /// Outcomes written back by `MemorySystem::warp_access_into`.
    outcomes: Vec<dws_mem::LaneOutcome>,
}

/// A warp processing unit.
pub struct Wpu {
    cfg: WpuConfig,
    program: Arc<Program>,
    warps: Vec<Warp>,
    /// The SIMD groups (full warps and warp-splits) and the scheduler's
    /// indexes over them.
    table: GroupTable,
    /// The group the issue loop keeps issuing from until it switches away
    /// (on a cache access, a stall, or its death).
    current: Option<GroupId>,
    /// Which `(warp, lane)` waits on which outstanding miss.
    inflight: InflightRing,
    live_threads: u64,
    slip: SlipCtl,
    throttle: ThrottleCtl,
    tracer: Option<Tracer>,
    scratch: IssueScratch,
    /// Cross-check fast paths against their oracles (scheduler-index sync,
    /// µop-vs-interpreter agreement) — always on in debug builds, and on
    /// in release under `DWS_SANITIZE=1`; latched at construction.
    check_oracle: bool,
    /// Deterministic timing-fault injection; `None` outside chaos runs.
    fault: Option<FaultInjector>,
    /// The WPU-local L1 instruction cache (paper Table 3). Lives here —
    /// not in the shared [`MemorySystem`] — so the compute phase can probe
    /// and fill it without touching shared state.
    icache: CacheArray,
    /// `log2(l1i.line_bytes)` when that is a power of two, so the
    /// PC-to-line conversion is a shift instead of a 64-bit divide.
    l1i_shift: Option<u32>,
    /// I-fetch / I-miss counts, merged into the machine-wide memory stats
    /// by result collection (see [`Self::icache_counters`]).
    l1i_fetches: u64,
    l1i_misses: u64,
    /// The memory interaction a suspended [`tick_compute`]
    /// (Self::tick_compute) parked for [`tick_commit`](Self::tick_commit).
    pending_issue: Option<PendingIssue>,
    /// Groups refused MSHRs so far this tick; `None` once the tick did
    /// anything else with a group (continued the current one, redirected
    /// it, missed the L1-I). A stalled tick ending `Some(k > 0)` is a pure
    /// spin (`sleep_through_backpressure`), which sets `spin`: how many
    /// groups spin and the cycle they next retry at.
    refused: Option<usize>,
    spin: Spin,
    /// Rejections [`account_skipped_stall`](Self::account_skipped_stall)
    /// replayed without a memory system at hand; the next `exec_memory`
    /// folds them into its statistics.
    unreported_rejections: u64,
    /// Per-warp sticky poison: set when a merge united groups with unequal
    /// [`Group::spine_trips`](crate::Group::spine_trips) (lanes with
    /// different spine histories now share a register file view, so
    /// "uniform" registers may differ per lane). Disables the
    /// uniform-branch fast path for that warp.
    uniform_poisoned: Vec<bool>,
    /// Statistics for this WPU.
    pub stats: WpuStats,
}

impl std::fmt::Debug for Wpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wpu")
            .field("id", &self.cfg.id)
            .field("live_threads", &self.live_threads)
            .field("groups", &self.table.live())
            .finish()
    }
}

impl Wpu {
    /// Creates a WPU whose warp `w`, lane `l` runs global thread
    /// `base_tid + w * width + l`, out of `nthreads` total.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width/zero-warp configuration.
    pub fn new(cfg: WpuConfig, program: Arc<Program>, base_tid: u64, nthreads: u64) -> Self {
        assert!(cfg.width >= 1 && cfg.n_warps >= 1);
        assert!(
            cfg.n_warps <= 256,
            "more than 256 warps per WPU unsupported"
        );
        let mut table = GroupTable::new(cfg.n_warps, cfg.sched_slots, cfg.wst_entries);
        let mut warps = Vec::with_capacity(cfg.n_warps);
        for w in 0..cfg.n_warps {
            let first_tid = base_tid + (w * cfg.width) as u64;
            warps.push(Warp::new(w, cfg.width, first_tid, nthreads, &program));
            let gid = table.spawn(w, 0, Mask::full(cfg.width));
            table.wake(gid, Cycle::ZERO);
        }
        Wpu {
            warps,
            table,
            current: None,
            inflight: InflightRing::default(),
            live_threads: (cfg.width * cfg.n_warps) as u64,
            slip: SlipCtl::new(cfg.width),
            throttle: ThrottleCtl::new(),
            tracer: None,
            scratch: IssueScratch::default(),
            check_oracle: cfg!(debug_assertions) || dws_engine::sanitize::enabled(),
            fault: None,
            icache: CacheArray::new(&cfg.l1i),
            l1i_shift: cfg
                .l1i
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.l1i.line_bytes.trailing_zeros()),
            l1i_fetches: 0,
            l1i_misses: 0,
            pending_issue: None,
            refused: None,
            spin: Spin::default(),
            unreported_rejections: 0,
            uniform_poisoned: vec![false; cfg.n_warps],
            stats: WpuStats::default(),
            program,
            cfg,
        }
    }

    /// The WPU's configuration.
    pub fn config(&self) -> &WpuConfig {
        &self.cfg
    }

    /// Enables divergence-event tracing, retaining the most recent
    /// `capacity` events (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    #[inline]
    fn trace(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.record(event);
        }
    }

    /// Whether every thread has terminated.
    pub fn done(&self) -> bool {
        self.live_threads == 0
    }

    /// Threads that have not yet halted.
    pub fn live_threads(&self) -> u64 {
        self.live_threads
    }

    /// Threads currently stalled at a global barrier.
    pub fn barrier_waiting(&self) -> u64 {
        self.table.barrier_lanes()
    }

    /// Arms deterministic fault injection (wake jitter, scheduler-heap
    /// churn). Each WPU draws from its own stream, salted by its id; a
    /// zero-fault plan installs nothing and leaves timing untouched.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan.injector(0x5750_5500 + self.cfg.id as u64);
    }

    /// Live SIMD groups (full warps and splits).
    pub fn groups_alive(&self) -> usize {
        self.table.live()
    }

    /// Peak warp-split table occupancy observed.
    pub fn wst_peak(&self) -> usize {
        self.table.wst().peak()
    }

    /// Current warp-split table occupancy (diagnostics).
    pub fn wst_used(&self) -> usize {
        self.table.wst().used()
    }

    /// Warp-split table capacity (diagnostics).
    pub fn wst_capacity(&self) -> usize {
        self.table.wst().capacity()
    }

    /// The wake time computed by the most recent stalled
    /// [`tick`](Self::tick), without rescanning the group list. Groups
    /// asleep on MSHR back-pressure are left out: a completion wakes them,
    /// [`account_skipped_stall`](Self::account_skipped_stall) replays
    /// their retries. Only meaningful directly after a tick that returned
    /// [`TickClass::StallMem`], [`TickClass::Idle`] or [`TickClass::Done`]:
    /// a `Busy` tick leaves the cache stale (the run loop never consults it
    /// then), and any event delivered after the tick (a completion, a
    /// barrier release) invalidates it until the next tick.
    pub fn cached_next_wake(&self) -> Option<Cycle> {
        self.table.next_wake()
    }

    /// I-fetch counters `(fetches, misses)` of the WPU-local L1-I, merged
    /// into the machine-wide memory statistics by result collection.
    pub fn icache_counters(&self) -> (u64, u64) {
        (self.l1i_fetches, self.l1i_misses)
    }

    /// Per-thread D-cache miss counts, indexed `[warp][lane]` (Figure 14).
    pub fn per_thread_misses(&self) -> Vec<Vec<u64>> {
        self.warps
            .iter()
            .map(|w| w.threads.iter().map(|t| t.miss_count).collect())
            .collect()
    }

    // ---- the cycle ----------------------------------------------------------

    /// Advances the WPU by one cycle: [`tick_compute`](Self::tick_compute),
    /// then — when that suspends at a shared-memory interaction —
    /// [`tick_commit`](Self::tick_commit). `data` is the functional backing
    /// store shared by all WPUs.
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        data: &mut dyn MemoryAccess,
    ) -> TickClass {
        match self.tick_compute(now) {
            Phase::Complete(class) => class,
            Phase::NeedsCommit => self.tick_commit(now, mem, data),
        }
    }

    /// The compute phase: advances the WPU by one cycle touching only
    /// WPU-local state (including its private L1-I). Returns
    /// [`Phase::NeedsCommit`] when the tick reaches a shared-memory-system
    /// interaction; the caller must then invoke
    /// [`tick_commit`](Self::tick_commit) — across WPUs, in WPU-index
    /// order — to finish the cycle. Compute phases of different WPUs share
    /// no mutable state.
    pub fn tick_compute(&mut self, now: Cycle) -> Phase<TickClass> {
        debug_assert!(self.pending_issue.is_none(), "compute with parked issue");
        self.spin = Spin::default();
        self.refused = Some(0);
        if self.done() {
            debug_assert_eq!(self.table.live(), 0, "groups outlive their threads");
            self.table.refresh_next_wake();
            return Phase::Complete(TickClass::Done);
        }
        self.adapt(now);
        self.issue_loop(now)
    }

    /// Finishes a suspended [`tick_compute`](Self::tick_compute): resumes
    /// the parked memory interaction against the shared system, and — when
    /// that does not issue (refused MSHRs, a long I-fill) — carries on with
    /// the issue loop, resuming whatever it suspends at next, until the
    /// cycle issues an instruction or stalls.
    pub fn tick_commit(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        data: &mut dyn MemoryAccess,
    ) -> TickClass {
        loop {
            let pending = self
                .pending_issue
                .take()
                .expect("tick_commit without a suspended compute phase");
            let resumed = match pending {
                PendingIssue::IcacheFill { gid } => self.resume_icache_fill(gid, now, mem),
                PendingIssue::MemAccess { gid } => self.exec_memory(gid, now, mem, data),
            };
            let phase = match resumed {
                ExecResult::Issued => return TickClass::Busy,
                ExecResult::Suspend => Phase::NeedsCommit,
                ExecResult::Retry => self.issue_loop(now),
            };
            if let Phase::Complete(class) = phase {
                return class;
            }
        }
    }

    /// The issue half of a tick. Pre-issue transitions are zero-cost PC
    /// redirects; loop until an instruction issues, the issue suspends at
    /// a shared-memory interaction ([`Phase::NeedsCommit`]), or no
    /// candidate remains and the cycle is a stall.
    fn issue_loop(&mut self, now: Cycle) -> Phase<TickClass> {
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(
                guard < 10_000,
                "pre-issue livelock at cycle {now}; groups:\n{}",
                self.dump_groups()
            );
            let gid = match self.current {
                Some(gid) if self.issuable(gid, now) => {
                    // Not a scheduler pick: the cursor did not move.
                    self.refused = None;
                    gid
                }
                _ => {
                    self.current = None;
                    match self.pick_group(now) {
                        Some(g) => g,
                        None => return Phase::Complete(self.stall_postlude(now)),
                    }
                }
            };
            self.current = Some(gid);
            match self.pre_issue(gid, now) {
                PreIssue::Redirect => {
                    self.refused = None;
                    if self.current == Some(gid) && !self.issuable(gid, now) {
                        self.current = None;
                    }
                }
                PreIssue::Execute => match self.execute(gid, now) {
                    ExecResult::Issued => return Phase::Complete(TickClass::Busy),
                    ExecResult::Suspend => return Phase::NeedsCommit,
                    // Structural stall (a slow I-fetch): the group was
                    // pushed back; try another this cycle.
                    ExecResult::Retry => {}
                },
            }
        }
    }

    /// Whether `gid` is (still) a live group that can issue at `now`.
    fn issuable(&self, gid: GroupId, now: Cycle) -> bool {
        self.table.get(gid).is_some_and(|g| g.issuable(now))
    }

    /// The scheduler's pick; with the oracle on, checked against the
    /// reference slab scan.
    fn pick_group(&mut self, now: Cycle) -> Option<GroupId> {
        let by_scan = self
            .check_oracle
            .then(|| self.table.scan_next_issuable(now));
        let picked = self.table.pick(now);
        if let Some(by_scan) = by_scan {
            assert_eq!(
                picked, by_scan,
                "ready ring diverged from slab scan at {now}"
            );
        }
        picked
    }

    /// The stalled-cycle tail of a tick: revive splits, fault churn, stall
    /// classification, and the cached-wake refresh.
    fn stall_postlude(&mut self, now: Cycle) -> TickClass {
        // Threads only halt by issuing, and this tick issued nothing.
        debug_assert!(!self.done(), "stalled tick of a finished WPU");
        // Nothing issuable: ReviveSplit may create a run-ahead split.
        if let Policy::Dws(c) = self.cfg.policy {
            if c.mem_split == Some(MemSplit::Revive) && self.table.slotted_ready() == 0 {
                self.try_revive(now);
            }
        }
        // Fault injection: churn the pending heap while it is quiescent,
        // leaving stale entries behind for the stamp-based invalidation
        // paths to drop. Wake times are unchanged, so this perturbs only
        // the index structures the nominal run never stresses this way.
        if self.fault.as_mut().is_some_and(FaultInjector::sched_churn) {
            self.table.churn_pending_heap();
        }
        // The table's counters classify the stall, and its pending heap
        // yields the earliest wake time — no slab rescan. At this point the
        // ready ring is empty (the pick returned `None`), so every slotted
        // ready group sits in the heap at a strictly future cycle.
        self.table.refresh_next_wake();
        self.sleep_through_backpressure(now);
        if self.check_oracle {
            self.assert_sync(now);
        }
        if self.table.waiting_on_memory() > 0 {
            self.stats.mem_stall_cycles.incr();
            TickClass::StallMem
        } else {
            self.stats.idle_cycles.incr();
            TickClass::Idle
        }
    }

    // ---- diagnostics --------------------------------------------------------

    /// Invariant check (debug builds and `DWS_SANITIZE=1`): the table's
    /// indexes against its slab, the cached wake time and the spinner
    /// tally against fresh scans, each warp's pending mask against its
    /// thread slots, and the in-flight ring against both.
    fn assert_sync(&self, now: Cycle) {
        self.table.assert_sync(now);
        // Groups asleep on MSHR back-pressure are left out of the wake time:
        // a completion wakes those.
        let (asleep, spin) = (!self.inflight.is_empty(), self.spin);
        let by_scan = self
            .table
            .next_wake_by_scan(now, |g| asleep && spin.covers(g));
        assert_eq!(self.table.next_wake(), by_scan, "next_wake drift at {now}");
        // The scan knows spinners by their retry certificate, not by the
        // issue loop's tally that published them.
        let spinning = self.table.iter().filter(|(_, g)| self.spin.covers(g));
        assert_eq!(
            self.spin.count,
            spinning.count(),
            "spinner count drift at {now}"
        );
        let mut outstanding = 0;
        for (w, warp) in self.warps.iter().enumerate() {
            assert_eq!(
                warp.pending_mask,
                warp.pending_lanes_by_scan(),
                "warp {w} pending mask drift at {now}"
            );
            for lane in warp.pending_mask.iter() {
                let req = warp.threads[lane].pending.expect("pending lane");
                assert_eq!(
                    self.inflight.waiter(req),
                    Some((w as u8, lane as u8)),
                    "in-flight ring lost {req:?} (warp {w} lane {lane}) at {now}"
                );
                outstanding += 1;
            }
        }
        assert_eq!(
            self.inflight.slots.iter().flatten().count(),
            outstanding,
            "in-flight ring holds requests no lane waits on at {now}"
        );
        assert!(
            !matches!(self.inflight.slots.front(), Some(None)),
            "in-flight ring not trimmed at {now}"
        );
    }

    /// Debug helper: one line per live group, then one per warp (used by
    /// diagnostics, deadlock reports and the pre-issue livelock panic).
    pub fn dump_groups(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (_, g) in self.table.iter() {
            let _ = writeln!(
                s,
                "warp={} pc={} mask={} status={:?} ready_at={} lrpc={:?} ldepth={} slot={} catchup={} slip_pc={:?}",
                g.warp, g.pc, g.mask, g.status(), g.ready_at(), g.local_rpc,
                g.local_stack.len(), g.slotted(), g.slip_catchup, g.slip_pc
            );
        }
        for w in &self.warps {
            let _ = writeln!(s, "warp {} stack={:?} halted={}", w.id, w.stack, w.halted);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{Group, GroupStatus};
    use dws_isa::{CondOp, KernelBuilder, Operand, VecMemory};
    use dws_mem::{AccessKind, Completion, MemConfig, RequestId};

    /// One WPU of 4 warps x 4 lanes over its own memory system, ticked by
    /// hand.
    struct Rig {
        wpu: Wpu,
        mem: MemorySystem,
        data: VecMemory,
        now: Cycle,
        done: Vec<Completion>,
    }

    impl Rig {
        fn new(program: Program, mshrs: usize, fault: FaultPlan) -> Rig {
            let mut cfg = WpuConfig::paper(0, Policy::conventional());
            cfg.width = 4;
            let mut mcfg = MemConfig::paper(1, 4);
            mcfg.l1d.mshrs = mshrs;
            let mut rig = Rig {
                wpu: Wpu::new(cfg, Arc::new(program), 0, 16),
                mem: MemorySystem::new(mcfg),
                data: VecMemory::new(64 * 1024),
                now: Cycle::ZERO,
                done: Vec::new(),
            };
            rig.wpu.set_fault_plan(fault);
            rig.mem.set_fault_plan(fault);
            rig
        }

        /// One machine cycle: deliver fills, tick, advance.
        fn step(&mut self) -> TickClass {
            self.mem.drain_completions_into(self.now, &mut self.done);
            for c in &self.done {
                self.wpu.on_completion(c.request, c.at);
            }
            let t = self.wpu.tick(self.now, &mut self.mem, &mut self.data);
            self.now += 1;
            t
        }

        /// Steps until the tick that leaves `k` groups spinning asleep.
        fn step_until_spinning(&mut self, k: usize) {
            while self.wpu.spin.count != k {
                self.step();
                assert!(self.now.raw() < 1_000, "never saw {k} spinners");
            }
        }

        /// Slab index of warp `w`'s (only) group.
        fn group_of(&self, w: usize) -> &Group {
            let mut of_warp = self.wpu.table.warp_groups(w);
            let (_, g) = of_warp.next().expect("warp has a group");
            assert!(of_warp.next().is_none(), "warp {w} split");
            g
        }
    }

    /// Warps below `coalesced_from` gather (every lane its own line, so
    /// one warp access wants 4 MSHRs); the rest load one shared line.
    fn load_kernel(coalesced_from: i64) -> Program {
        let mut b = KernelBuilder::new();
        let tid = b.tid();
        let a = b.reg();
        b.mul(a, tid, Operand::Imm(1024));
        b.if_then(CondOp::Ge, tid, Operand::Imm(4 * coalesced_from), |b| {
            b.li(a, 32 * 1024);
        });
        b.load(a, a, 0);
        b.halt();
        b.build().unwrap()
    }

    /// The branch classification is the program's, stored by its build-time
    /// verification however many WPUs run it: two WPUs on one program read
    /// the same slices, and those equal a fresh run of the verifier's
    /// analysis.
    #[test]
    fn wpus_on_one_program_share_its_branch_uniformity() {
        let program = Arc::new(load_kernel(2));
        let cfg = WpuConfig::paper(0, Policy::conventional());
        let a = Wpu::new(cfg, Arc::clone(&program), 0, 128);
        let b = Wpu::new(WpuConfig { id: 1, ..cfg }, Arc::clone(&program), 64, 128);
        let (ua, ub) = (a.program.branch_uniformity(), b.program.branch_uniformity());
        assert!(std::ptr::eq(ua, ub), "classified once per program");
        assert_eq!(*ua, dws_isa::branch_uniformity(program.insts()));
        assert_eq!(ua.uniform.len(), program.len());
    }

    /// The in-flight ring maps a request id back to its waiter whatever
    /// order one access's ids are tracked and completed in, and is empty
    /// exactly when nothing is outstanding.
    #[test]
    fn inflight_ring_tracks_requests_in_any_order() {
        let mut r = Rig::new(load_kernel(4), 4, FaultPlan::NONE);
        let w = &mut r.wpu.inflight;
        // Group-major ids seen in lane order: 12, then 10 and 11 below it.
        w.track(RequestId(12), 1, 0);
        w.track(RequestId(10), 1, 1);
        w.track(RequestId(11), 1, 2);
        w.track(RequestId(15), 3, 3);
        assert_eq!((w.base, w.slots.len()), (10, 6));
        assert_eq!(w.untrack(RequestId(11)), (1, 2));
        assert_eq!(w.untrack(RequestId(10)), (1, 1));
        assert_eq!(w.base, 12, "completed front entries are trimmed");
        assert_eq!(w.untrack(RequestId(15)), (3, 3));
        assert_eq!(w.untrack(RequestId(12)), (1, 0));
        assert!(w.is_empty());
        // An emptied ring re-anchors at whatever comes next.
        w.track(RequestId(3), 0, 0);
        assert_eq!(w.untrack(RequestId(3)), (0, 0));
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn completion_for_an_untracked_request_panics() {
        let mut r = Rig::new(load_kernel(4), 4, FaultPlan::NONE);
        r.wpu.inflight.track(RequestId(5), 0, 0);
        r.wpu.inflight.track(RequestId(7), 0, 1);
        r.wpu.on_completion(RequestId(6), Cycle(9));
    }

    /// The replay law: sleeping through `n` pure-spin cycles and ticking
    /// through them leave the WPU and the memory statistics identical —
    /// `k * n` rejections and I-fetches, spinners due the cycle after, and
    /// the round-robin cursor where another round would leave it.
    #[test]
    fn sleeping_through_spins_equals_ticking_through_them() {
        const N: u64 = 20;
        let rigs = [(); 2].map(|()| {
            let mut r = Rig::new(load_kernel(4), 4, FaultPlan::NONE);
            // Warp 0 waits out the cold I-fetch, warp 1 wins the 4 MSHRs,
            // and warps 2, 3 — then 0 as well — spin on the refusal.
            r.step_until_spinning(3);
            r
        });
        let [mut ticked, mut slept] = rigs;
        assert_eq!(ticked.now, slept.now);
        let first_fill = ticked.mem.next_completion_at().expect("warp 1 misses");
        assert!(first_fill > ticked.now + N, "spin window ends at a fill");
        // The tick before was no pure spin (warp 0 continued from its `mul`
        // into the refusal without a scheduler pick), so it stayed awake.
        assert_eq!(
            slept.wpu.cached_next_wake(),
            None,
            "only spinners are Ready"
        );

        let (fetches, rejections) = (slept.wpu.l1i_fetches, slept.mem.stats().rejections.get());
        for _ in 0..N {
            assert_eq!(ticked.step(), TickClass::StallMem);
        }
        slept.wpu.account_skipped_stall(N, TickClass::StallMem);
        slept.now += N;
        assert_eq!(slept.wpu.l1i_fetches, fetches + 3 * N);
        assert_eq!(slept.wpu.unreported_rejections, 3 * N);
        assert_eq!(slept.wpu.table.rr_cursor(), ticked.wpu.table.rr_cursor());
        assert_eq!(slept.wpu.dump_groups(), ticked.wpu.dump_groups());

        // The next real tick folds the replayed rejections in.
        assert_eq!(ticked.step(), slept.step());
        assert_eq!(slept.wpu.unreported_rejections, 0);
        assert_eq!(slept.mem.stats(), ticked.mem.stats());
        assert_eq!(slept.mem.stats().rejections.get(), rejections + 3 * (N + 1));
        assert_eq!(slept.wpu.stats, ticked.wpu.stats);
        assert_eq!(slept.wpu.icache_counters(), ticked.wpu.icache_counters());
        assert_eq!(slept.wpu.table.rr_cursor(), ticked.wpu.table.rr_cursor());
        assert_eq!(slept.wpu.dump_groups(), ticked.wpu.dump_groups());
        assert_eq!(slept.wpu.cached_next_wake(), ticked.wpu.cached_next_wake());
    }

    /// A stalled tick that did anything besides being refused MSHRs is not
    /// replayable and must publish the ordinary next-cycle wake; so must
    /// one with no request outstanding, since no release can ever come.
    #[test]
    fn only_pure_spins_with_a_request_in_flight_sleep() {
        let mut r = Rig::new(load_kernel(4), 4, FaultPlan::NONE);
        let mut kept_awake = 0;
        loop {
            let t = r.step();
            if r.wpu.spin.count > 0 {
                break;
            }
            if t == TickClass::StallMem && r.mem.stats().rejections.get() > 0 {
                assert_eq!(r.wpu.refused, None, "impure tick at {}", r.now);
                assert_eq!(r.wpu.cached_next_wake(), Some(r.now));
                kept_awake += 1;
            }
        }
        assert!(
            kept_awake > 0,
            "the first refusals follow a continued `mul`"
        );

        // One MSHR, nothing in flight: every warp wants 4, forever.
        let mut r = Rig::new(load_kernel(4), 1, FaultPlan::NONE);
        for _ in 0..200 {
            r.step();
        }
        assert_eq!(r.wpu.spin.count, 4, "a pure spin all the same");
        assert_eq!(r.wpu.cached_next_wake(), Some(r.now));
        assert_eq!(r.group_of(0).reject_memo.map(|m| m.2), Some(0));
    }

    /// The certificate is a lower bound in releases: it is honoured without
    /// a fresh probe until its count is reached, then re-derived.
    #[test]
    fn deficit_certificate_waits_out_its_releases() {
        // Warps 0-2 gather, warp 3 wants a single line.
        let mut r = Rig::new(load_kernel(3), 4, FaultPlan::NONE);
        r.step_until_spinning(3);
        // A gather holds all four MSHRs: the others lack 4, warp 3 lacks 1.
        let gather = (0..3)
            .find(|&w| r.group_of(w).status() == GroupStatus::Ready)
            .expect("a refused gather");
        assert_eq!(r.group_of(gather).reject_memo.map(|m| m.2), Some(4));
        assert_eq!(r.group_of(3).reject_memo.map(|m| m.2), Some(1));
        let retry_at = |r: &Rig| r.group_of(gather).reject_memo.map(|m| m.2);
        let step_to_release = |r: &mut Rig, n: u64| {
            while r.mem.l1_releases(0) < n {
                r.step();
            }
        };

        // Release 1 admits warp 3, which takes the freed MSHR straight
        // back. After release 3 the gather lacks 2 more, so a fresh probe
        // would certify release 5; the certificate still says 4.
        step_to_release(&mut r, 1);
        assert_eq!(r.group_of(3).status(), GroupStatus::WaitMem);
        step_to_release(&mut r, 3);
        let lanes: Vec<_> = (0..4)
            .map(|lane| LaneAccess {
                lane,
                addr: (4 * gather + lane) as u64 * 1024,
                kind: AccessKind::Load,
            })
            .collect();
        assert_eq!(r.mem.would_reject(0, &lanes), Some(2));
        assert_eq!(retry_at(&r), Some(4), "no fresh probe before release 4");
        assert_eq!(r.group_of(gather).status(), GroupStatus::Ready);
        // Release 4 expires it; the re-probe is refused and re-certified.
        step_to_release(&mut r, 4);
        assert_eq!(retry_at(&r), Some(5));
        // Release 5 empties the file and a refused gather fills it again.
        step_to_release(&mut r, 5);
        assert_eq!(r.mem.mshr_in_use(0), 4);
    }

    /// A refusal only fault injection's withheld MSHRs explain is certified
    /// for one release: the next fill forces a fresh draw.
    #[test]
    fn withheld_refusal_is_certified_for_one_release() {
        let squeeze = FaultPlan {
            mshr_withhold: 31,
            mshr_withhold_prob: 1.0,
            ..FaultPlan::NONE
        };
        let mut r = Rig::new(load_kernel(4), 8, squeeze);
        r.step_until_spinning(3);
        for w in 0..4 {
            let g = r.group_of(w);
            if g.status() == GroupStatus::Ready {
                // 4 of 8 MSHRs are free: only the withholding refuses.
                assert_eq!(g.reject_memo.map(|m| m.2), Some(1), "warp {w}");
            }
        }
        assert_eq!(r.mem.mshr_in_use(0), 4);
    }
}
