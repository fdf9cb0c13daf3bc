//! The WPU's side of its L1's MSHRs: which lane waits on which outstanding
//! miss, waking groups as fills complete, and MSHR back-pressure as an event
//! wait (DESIGN §9) — refused groups spin on a retry certificate, and a tick
//! that did nothing but spin lets the run loop sleep through its repeats.

use super::{ExecResult, TickClass, Wpu};
use crate::group::{Group, GroupId, GroupStatus};
use dws_engine::fault::FaultInjector;
use dws_engine::Cycle;
use dws_mem::RequestId;
use std::collections::VecDeque;

/// Outstanding misses by request id: `slots[id - base]` is the
/// `(warp, lane)` blocked on request `id`, `None` once it completed. The L1
/// numbers its requests densely, so the window from the oldest outstanding
/// request to the newest is a ring; completed entries are popped off the
/// front, so the ring is empty exactly when nothing is outstanding.
#[derive(Debug, Default)]
pub(super) struct InflightRing {
    pub(super) slots: VecDeque<Option<(u8, u8)>>,
    pub(super) base: u64,
}

impl InflightRing {
    pub(super) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Who waits on `req`, if it is outstanding.
    pub(super) fn waiter(&self, req: RequestId) -> Option<(u8, u8)> {
        let i = req.0.checked_sub(self.base)?;
        *self.slots.get(i as usize)?
    }

    /// Records that `(warp, lane)` waits on `req`, growing the ring to
    /// cover its id.
    pub(super) fn track(&mut self, req: RequestId, warp: usize, lane: usize) {
        if self.slots.is_empty() {
            self.base = req.0;
        }
        // One access's ids come back in lane order, not id order: the
        // first of them seen is not necessarily the lowest.
        while req.0 < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = (req.0 - self.base) as usize;
        while self.slots.len() <= i {
            self.slots.push_back(None);
        }
        debug_assert!(self.slots[i].is_none(), "request {req:?} issued twice");
        self.slots[i] = Some((warp as u8, lane as u8));
    }

    /// Retires `req`, returning the `(warp, lane)` that waited on it.
    pub(super) fn untrack(&mut self, req: RequestId) -> (usize, usize) {
        let Some((warp, lane)) = self.waiter(req) else {
            panic!("completion for unknown request {req:?}");
        };
        self.slots[(req.0 - self.base) as usize] = None;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        (usize::from(warp), usize::from(lane))
    }
}

/// The groups the last tick left spinning on MSHR back-pressure: `count` of
/// them, each due exactly at `from` on a retry certificate for its current
/// instruction.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Spin {
    pub(super) count: usize,
    pub(super) from: Cycle,
}

impl Spin {
    /// Whether `g` is one of the groups counted.
    pub(super) fn covers(self, g: &Group) -> bool {
        self.count > 0
            && g.slotted()
            && g.status() == GroupStatus::Ready
            && g.ready_at() == self.from
            && g.reject_memo
                .is_some_and(|(pc, mask, _)| (pc, mask) == (g.pc, g.mask))
    }
}

impl Wpu {
    /// Delivers a memory-request completion (routed by the simulator).
    pub fn on_completion(&mut self, req: RequestId, at: Cycle) {
        let (warp, lane) = self.inflight.untrack(req);
        self.warps[warp].clear_pending(lane);
        // Find the group owning this lane and re-evaluate its wait.
        let owns = |(_, g): &(GroupId, &Group)| g.mask.contains(lane);
        let gid = self.table.warp_groups(warp).find(owns).map(|(id, _)| id);
        if self.check_oracle {
            let by_scan = self.table.iter().find(|o| o.1.warp == warp && owns(o));
            assert_eq!(
                gid,
                by_scan.map(|(id, _)| id),
                "warp slot index diverged from slab scan (completion {req:?})"
            );
            assert_eq!(
                self.warps[warp].pending_mask,
                self.warps[warp].pending_lanes_by_scan(),
                "pending mask diverged from thread slots (completion {req:?})"
            );
        }
        let Some(gid) = gid else {
            // The thread's group vanished (e.g. it halted) — nothing to wake.
            return;
        };
        let g = &self.table[gid];
        if !g.mask.is_disjoint(self.warps[warp].pending_mask) {
            return;
        }
        let slip_catchup = g.status() == GroupStatus::SlipSuspended && g.slip_catchup;
        if g.status() != GroupStatus::WaitMem && !slip_catchup {
            return;
        }
        // Fault injection: jitter the wakeup. Timing-only — the group still
        // flows through the table's re-indexing and the pending heap.
        let jitter = self.fault.as_mut().map_or(0, FaultInjector::wake_jitter);
        self.table.wake(gid, at + jitter);
        if slip_catchup {
            self.table[gid].slip_pc = None;
        } else if self.dws_pc_based() {
            self.try_pc_merge_at(gid, at);
        }
    }

    /// Accounts `n` additional stall cycles of the same class as the last
    /// tick (used when the run loop skips ahead over a stalled stretch).
    /// If that tick left groups spinning on MSHR back-pressure, each cycle
    /// would have repeated it: a rejection and an L1-I fetch per spinner,
    /// leaving them due the cycle after.
    pub fn account_skipped_stall(&mut self, n: u64, class: TickClass) {
        match class {
            TickClass::StallMem => self.stats.mem_stall_cycles.add(n),
            TickClass::Idle => self.stats.idle_cycles.add(n),
            TickClass::Busy | TickClass::Done => {}
        }
        let k = self.spin.count as u64;
        if k == 0 {
            return;
        }
        self.l1i_fetches += k * n;
        self.unreported_rejections += k * n;
        // A completion delivered since the tick may already have merged a
        // spinner away (moving its `ready_at`); the rest are untouched.
        for gid in (0..self.table.slots()).map(GroupId) {
            if self.table.get(gid).is_some_and(|g| self.spin.covers(g)) {
                self.table.set_ready_at(gid, self.spin.from + n);
            }
        }
        self.spin = Spin::default();
    }

    /// Groups the last tick left spinning on MSHR back-pressure (asleep, if
    /// a request is outstanding), and the earliest L1 release count one of
    /// their retry certificates waits for (diagnostics).
    pub fn mshr_spin(&self) -> (usize, Option<u64>) {
        let spinning = self.table.iter().filter(|(_, g)| self.spin.covers(g));
        let retry_at = spinning.filter_map(|(_, g)| g.reject_memo.map(|(_, _, at)| at));
        (self.spin.count, retry_at.min())
    }

    /// Structural retry: `gid` may not issue again before `ready_at`.
    /// `refused`: for lack of MSHRs (pure-spin tally), not an I-fetch miss.
    #[inline]
    pub(super) fn push_back(&mut self, gid: GroupId, ready_at: Cycle, refused: bool) -> ExecResult {
        self.table.set_ready_at(gid, ready_at);
        self.current = None;
        self.refused = if refused {
            self.refused.map(|k| k + 1)
        } else {
            None
        };
        ExecResult::Retry
    }

    /// MSHR back-pressure is an event wait (DESIGN §9). If every group
    /// this stalled tick picked was refused MSHRs, the next tick would
    /// repeat it exactly — frozen registers, the same certificates, the
    /// cursor already just past the last spinner in ring order — until
    /// something else wakes the WPU. So publish the wake time of the
    /// *other* groups only; `account_skipped_stall` replays the spins, and
    /// the release that can admit a spinner completes one of this WPU's
    /// requests, which wakes it. With nothing outstanding no release can
    /// come: the WPU keeps spinning, for the livelock watchdog to see.
    pub(super) fn sleep_through_backpressure(&mut self, now: Cycle) {
        let Some(k) = self.refused.filter(|&k| k > 0) else {
            return;
        };
        // A group due next cycle for another reason keeps the WPU awake.
        let due_next =
            |g: &Group| g.slotted() && g.status() == GroupStatus::Ready && g.ready_at() == now + 1;
        if self.table.iter().filter(|(_, g)| due_next(g)).count() == k {
            let spin = Spin {
                count: k,
                from: now + 1,
            };
            self.spin = spin;
            if !self.inflight.is_empty() {
                self.table
                    .refresh_next_wake_without(now, |g| spin.covers(g));
            }
        }
    }
}
