//! Re-convergence: the zero-cost bookkeeping before an issue (stack pops,
//! re-convergence waits), the stack-based, PC-based and barrier merges that
//! re-unite splits, and the adaptive-slip baseline's suspend / catch-up
//! protocol.

use super::{PreIssue, Wpu};
use crate::group::{GroupId, GroupStatus};
use crate::mask::Mask;
use crate::policy::{BranchHandling, Policy, ReconvMode};
use crate::trace::TraceEvent;
use dws_engine::Cycle;

impl Wpu {
    #[inline]
    pub(super) fn dws_pc_based(&self) -> bool {
        matches!(
            self.cfg.policy,
            Policy::Dws(c) if c.reconv == ReconvMode::PcBased
        )
    }

    /// Zero-cost bookkeeping before issuing at the group's PC: local-stack
    /// pops, stack re-convergence, BranchLimited waits, slip interactions.
    pub(super) fn pre_issue(&mut self, gid: GroupId, now: Cycle) -> PreIssue {
        let warp = self.table[gid].warp;

        // Innermost first: pop local serialization frames. If the local
        // context drained, the group continues at the join point (the PC
        // that matched the old local rpc) at the outer level.
        if self.table[gid].local_rpc == Some(self.table[gid].pc) {
            self.table[gid].adopt_local_frame(self.warps[warp].halted);
            return PreIssue::Redirect;
        }

        // PC-based re-convergence: the running split re-unites with any
        // ready sibling whose PC (and serialization context) matches —
        // the WST's PC fields act as a small CAM. Checking at issue, not
        // only after memory instructions, is what lets an empty-path
        // branch split re-merge right after the short path finishes
        // (Figure 6's "re-united naturally without stalling").
        if self.dws_pc_based()
            && matches!(self.cfg.policy, Policy::Dws(c) if c.issue_pc_cam)
            && self.table.wst().groups_of(warp) > 1
        {
            let before = self.table.wst().groups_of(warp);
            self.try_pc_merge_at(gid, now);
            if self.table.wst().groups_of(warp) != before {
                return PreIssue::Redirect;
            }
        }

        // Slip catch-up: a group reaching the PC where its run-ahead
        // stalled merges into it (checked before stack handling so the
        // re-union happens even when that PC is a re-convergence point).
        if matches!(self.cfg.policy, Policy::Slip(_)) && self.table[gid].slip_catchup {
            let g = &self.table[gid];
            let primary = self.table.warp_groups(warp).find(|&(s, sg)| {
                s != gid
                    && sg.status() == GroupStatus::SlipStalledAtBranch
                    && sg.pc == g.pc
                    && sg.local_ctx_compatible(g)
            });
            if let Some((primary, _)) = primary {
                // kill_group (via merge_into) wakes the primary once it is
                // the last group of the warp.
                self.merge_into(primary, gid, now);
                return PreIssue::Redirect;
            }
        }

        // Warp-stack re-convergence point.
        let g = &self.table[gid];
        if g.local_rpc.is_none() && self.warps[warp].tos().rpc == Some(g.pc) {
            if self.table.wst().groups_of(warp) == 1 {
                self.pop_warp_frame(gid);
            } else if matches!(self.cfg.policy, Policy::Slip(_)) {
                // Fall-behind threads can never arrive at the
                // post-dominator on their own; park the run-ahead
                // and let them catch up independently.
                self.table.park(gid, GroupStatus::SlipStalledAtBranch);
                self.release_slip_catchups(warp, now);
            } else {
                self.table.park(gid, GroupStatus::WaitReconv);
                self.try_stack_merge(warp, now);
            }
            return PreIssue::Redirect;
        }

        let op = *self.program.exec_op(g.pc);

        // BranchLimited: splits must re-unite before any conditional branch.
        if let Policy::Dws(c) = self.cfg.policy {
            if c.branch_handling == BranchHandling::BranchLimited
                && op.is_branch()
                && self.table.wst().groups_of(warp) > 1
                && g.local_rpc.is_none()
            {
                self.table.park(gid, GroupStatus::WaitReconv);
                self.try_stack_merge(warp, now);
                return PreIssue::Redirect;
            }
        }

        if let Policy::Slip(sc) = self.cfg.policy {
            // Fall-behind re-union: before the run-ahead executes a memory
            // instruction, completed fall-behind threads suspended at this
            // PC re-join it.
            if op.is_memory() && self.table[gid].slip_pc.is_none() {
                self.slip_merge_at(gid);
            }
            // Plain slip: the run-ahead may not cross a conditional branch
            // while threads are left behind.
            if !sc.branch_bypass
                && op.is_branch()
                && self.table[gid].slip_pc.is_none()
                && !self.table[gid].slip_catchup
                && self.has_slip_suspended(warp)
            {
                self.table.park(gid, GroupStatus::SlipStalledAtBranch);
                self.release_slip_catchups(warp, now);
                return PreIssue::Redirect;
            }
        }

        PreIssue::Execute
    }

    /// Conventional stack pop at the TOS re-convergence point (sole group).
    fn pop_warp_frame(&mut self, gid: GroupId) {
        let w = &mut self.warps[self.table[gid].warp];
        assert!(w.stack.len() > 1, "pop of root frame");
        match w.pop_to_live_frame() {
            Some(frame) => (self.table[gid].pc, self.table[gid].mask) = frame,
            // Root drained: every thread halted under this frame.
            None => self.kill_group(gid),
        }
    }

    /// Removes `gid` from the table, and keeps the issue loop and slip's
    /// run-ahead consistent with its absence.
    pub(super) fn kill_group(&mut self, gid: GroupId) {
        let warp = self.table.kill(gid);
        if self.current == Some(gid) {
            self.current = None;
        }
        // A slip run-ahead stalled at a branch resumes once it is the last
        // group standing (every fall-behind merged or terminated).
        if self.table.wst().groups_of(warp) == 1 {
            let (last, g) = self.table.warp_groups(warp).next().expect("one group");
            if g.status() == GroupStatus::SlipStalledAtBranch {
                let at = g.ready_at();
                self.table[last].slip_catchup = false;
                self.table.wake(last, at);
            }
        }
    }

    /// The spine position of `survivor` after a merge with a group that
    /// retired `trips` spine branches: if they differ, the halves sit at
    /// different uniform-spine positions (a run-ahead lapped a uniform loop
    /// before a PC merge; structured stack re-unions normally agree, spine
    /// branches never sitting inside a divergent region). "Uniform"
    /// registers may now differ per lane, so the warp loses its fast-path
    /// eligibility for good.
    fn merge_spine_trips(&mut self, survivor: GroupId, trips: u64) {
        let s = &mut self.table[survivor];
        if s.spine_trips != trips {
            s.spine_trips = s.spine_trips.max(trips);
            self.uniform_poisoned[s.warp] = true;
        }
    }

    /// Re-unites WaitReconv splits once they cover the TOS live mask.
    pub(super) fn try_stack_merge(&mut self, warp: usize, now: Cycle) {
        // One scan gathers everything the decision needs (no candidate
        // list): the waiters' common PC, their mask union, and the oldest
        // waiter as survivor.
        let mut pc = None;
        let mut union = Mask::EMPTY;
        let mut survivor: Option<GroupId> = None;
        for (i, g) in self.table.warp_groups(warp) {
            if g.status() != GroupStatus::WaitReconv {
                continue;
            }
            // All waiters must be at the same PC.
            match pc {
                None => pc = Some(g.pc),
                Some(p) if p != g.pc => return,
                Some(_) => {}
            }
            union = union | g.mask;
            survivor = match survivor {
                Some(s) if self.table[s].seq <= g.seq => Some(s),
                _ => Some(i),
            };
        }
        let Some(survivor) = survivor else { return };
        if union != self.warps[warp].tos_live_mask() {
            return;
        }
        // Merge into the oldest. Killing a waiter only clears its own slot,
        // so the walk carries on from the next one.
        let mut from = 0;
        while let Some(i) = self.table.next_group_of(warp, from) {
            from = i.0 + 1;
            if i != survivor && self.table[i].status() == GroupStatus::WaitReconv {
                let (mask, trips) = (self.table[i].mask, self.table[i].spine_trips);
                self.merge_spine_trips(survivor, trips);
                let s = &mut self.table[survivor];
                s.mask = s.mask | mask;
                self.kill_group(i);
                self.stats.stack_merges.incr();
            }
        }
        self.table.wake(survivor, now);
        let (pc, mask) = (self.table[survivor].pc, self.table[survivor].mask);
        self.trace(TraceEvent::StackMerge {
            cycle: now,
            warp,
            pc,
            mask,
        });
        // If the union sits at the TOS rpc, the conventional pop happens on
        // its next pre-issue; at a BranchLimited branch it just executes.
    }

    /// Attempts PC-based re-convergence of `gid` with ready siblings,
    /// stamping trace events with `now`.
    pub(super) fn try_pc_merge_at(&mut self, gid: GroupId, now: Cycle) {
        if self.table[gid].status() != GroupStatus::Ready {
            return;
        }
        let warp = self.table[gid].warp;
        loop {
            let g = &self.table[gid];
            let mergeable = |&(s, sg): &(GroupId, _)| s != gid && g.can_merge_with(sg);
            let partner = self.table.warp_groups(warp).find(mergeable);
            if self.check_oracle {
                assert_eq!(
                    partner.map(|(s, _)| s),
                    self.table.iter().find(mergeable).map(|(s, _)| s),
                    "warp slot index diverged from slab scan (PC merge at {now})"
                );
            }
            let Some((p, pg)) = partner else { return };
            // Keep the older as survivor for deterministic naming.
            let (survivor, victim) = if pg.seq < g.seq { (p, gid) } else { (gid, p) };
            self.merge_into(survivor, victim, self.table[survivor].ready_at());
            self.stats.pc_merges.incr();
            let (pc, mask) = (self.table[survivor].pc, self.table[survivor].mask);
            self.trace(TraceEvent::PcMerge {
                cycle: now,
                warp,
                pc,
                mask,
            });
            if survivor != gid {
                return; // gid died
            }
        }
    }

    /// Merges `victim` into `survivor` (same warp, same PC, structurally
    /// compatible local context). Frame masks union element-wise so each
    /// group's parked-thread shares recombine.
    fn merge_into(&mut self, survivor: GroupId, victim: GroupId, now: Cycle) {
        debug_assert!(
            self.table[survivor].local_ctx_compatible(&self.table[victim]),
            "merge of incompatible serialization contexts"
        );
        let v = &self.table[victim];
        let (vmask, vready, vtrips) = (v.mask, v.ready_at(), v.spine_trips);
        self.merge_spine_trips(survivor, vtrips);
        for i in 0..self.table[victim].local_stack.len() {
            let share = self.table[victim].local_stack[i].mask;
            let sf = &mut self.table[survivor].local_stack[i];
            sf.mask = sf.mask | share;
        }
        self.kill_group(victim);
        let s = &mut self.table[survivor];
        s.mask = s.mask | vmask;
        let at = s.ready_at().max(vready).max(now);
        self.table.set_ready_at(survivor, at);
        self.table.try_slot(survivor);
    }

    // ---- slip helpers -------------------------------------------------------

    fn has_slip_suspended(&self, warp: usize) -> bool {
        let mut groups = self.table.warp_groups(warp);
        groups.any(|(_, g)| g.status() == GroupStatus::SlipSuspended)
    }

    /// Threads of `warp` currently left behind.
    pub(super) fn slip_suspended_count(&self, warp: usize) -> u32 {
        let groups = self.table.warp_groups(warp);
        let suspended = groups.filter(|(_, g)| g.status() == GroupStatus::SlipSuspended);
        suspended.map(|(_, g)| g.mask.count()).sum()
    }

    /// Re-joins completed fall-behind threads suspended at `gid`'s PC.
    /// Merges one match at a time, in index order (the order the old
    /// collect-then-merge version used), so no candidate list is allocated.
    fn slip_merge_at(&mut self, gid: GroupId) {
        let warp = self.table[gid].warp;
        let pc = self.table[gid].pc;
        let arrived_at_pc = |this: &Self| {
            let found = this.table.warp_groups(warp).find(|&(s, sg)| {
                s != gid
                    && sg.status() == GroupStatus::SlipSuspended
                    && sg.slip_pc == Some(pc)
                    && sg.mask.is_disjoint(this.warps[warp].pending_mask)
                    && this.table[gid].local_ctx_compatible(sg)
            });
            found.map(|(s, _)| s)
        };
        while let Some(s) = arrived_at_pc(self) {
            self.merge_into(gid, s, Cycle::ZERO);
            self.stats.slip_merges.incr();
            self.refused = None;
        }
    }

    /// Lets suspended fall-behind threads run independently (used when the
    /// run-ahead can no longer revisit them: stalled at a branch, at a
    /// barrier, or terminated).
    pub(super) fn release_slip_catchups(&mut self, warp: usize, now: Cycle) {
        // Walks the warp's slots (no candidate list): releasing a group flips
        // it out of SlipSuspended, so later slots still see the original set.
        let mut from = 0;
        while let Some(gid) = self.table.next_group_of(warp, from) {
            from = gid.0 + 1;
            let g = &mut self.table[gid];
            if g.status() != GroupStatus::SlipSuspended {
                continue;
            }
            g.slip_catchup = true;
            if g.mask.is_disjoint(self.warps[warp].pending_mask) {
                g.slip_pc = None;
                self.table.wake(gid, now);
            }
        }
    }

    // ---- barrier ------------------------------------------------------------

    /// Releases every group waiting at the global barrier (called by the
    /// simulator once all live threads of the machine have arrived). Splits
    /// of the same warp re-converge here, per Section 5.4.
    pub fn release_barrier(&mut self, now: Cycle) {
        self.trace(TraceEvent::BarrierRelease { cycle: now });
        for warp in 0..self.cfg.n_warps {
            // Oldest waiter survives; found by scan, no candidate list.
            let groups = self.table.warp_groups(warp);
            let waiters = groups.filter(|(_, g)| g.status() == GroupStatus::WaitBarrier);
            let Some((survivor, _)) = waiters.min_by_key(|(_, g)| g.seq) else {
                continue;
            };
            let mut from = 0;
            while let Some(i) = self.table.next_group_of(warp, from) {
                from = i.0 + 1;
                if i != survivor && self.table[i].status() == GroupStatus::WaitBarrier {
                    self.table.add_lanes(survivor, self.table[i].mask);
                    self.kill_group(i);
                    self.stats.stack_merges.incr();
                }
            }
            let g = &mut self.table[survivor];
            g.pc += 1;
            g.slip_catchup = false;
            self.table.wake(survivor, now);
        }
    }
}
