//! Execution of one warp instruction for the picked group: instruction
//! fetch, µop dispatch, branch divergence (subdivide or serialize), the
//! memory access with its divergence handling, and thread termination.
//!
//! Everything up to a shared-memory-system interaction is WPU-local; at an
//! L1-I fill or a D-cache access the issue suspends (see
//! [`Wpu::tick_compute`]) and `exec_memory` / the fill latency run in the
//! commit phase.

use super::{ExecResult, PendingIssue, Wpu};
use crate::exec;
use crate::group::{GroupId, GroupStatus};
use crate::mask::Mask;
use crate::policy::{MemSplit, Policy};
use crate::trace::TraceEvent;
use crate::warp::Frame;
use dws_engine::Cycle;
use dws_isa::cfg::RECONV_NONE;
use dws_isa::{execute_lane, CondOp, ExecOp, MemoryAccess, Reg, Src, StepOutcome};
use dws_mem::{AccessKind, AccessOutcome, LaneAccess, MemorySystem, MesiState};

impl Wpu {
    /// Executes the instruction at `gid`'s PC. The cycle is consumed
    /// whatever the result.
    pub(super) fn execute(&mut self, gid: GroupId, now: Cycle) -> ExecResult {
        let pc = self.table[gid].pc;
        debug_assert!(
            !self.table[gid].mask.is_empty(),
            "issue with empty mask at pc {pc}"
        );

        // Instruction fetch through the WPU-local L1-I (cold misses stall
        // the group). A hit is fully local; a miss needs the shared
        // crossbar/L2 model for its fill latency, so the tick suspends.
        let Some(fetch_ready) = self.icache_probe(now, pc) else {
            self.pending_issue = Some(PendingIssue::IcacheFill { gid });
            return ExecResult::Suspend;
        };
        if fetch_ready > now + 1 {
            // Anything beyond a 1-cycle hit: retry when the line arrives.
            return self.push_back(gid, fetch_ready, false);
        }
        self.execute_post_fetch(gid, pc, now)
    }

    /// Probes the WPU-local L1-I for `pc`'s line. Returns the fetch-ready
    /// cycle on a hit; on a miss, counts it and installs the line
    /// (instructions always hit the L2 side in these tiny kernels),
    /// leaving the fill latency to the shared model. Instruction storage
    /// is laid out at 4 bytes per instruction in its own address space.
    fn icache_probe(&mut self, now: Cycle, pc: usize) -> Option<Cycle> {
        self.l1i_fetches += 1;
        let line = match self.l1i_shift {
            Some(s) => (pc as u64 * 4) >> s,
            None => (pc as u64 * 4) / self.cfg.l1i.line_bytes,
        };
        if self.icache.probe(line).valid() {
            return Some(now + self.cfg.l1i.hit_latency);
        }
        self.l1i_misses += 1;
        self.icache.fill(line, MesiState::Shared);
        None
    }

    /// Resumes an I-cache miss parked by the compute phase: models the
    /// fill latency against the shared crossbar/L2 and either stalls the
    /// group until the line arrives or — for fills landing within the
    /// issue window — executes the fetched instruction directly.
    pub(super) fn resume_icache_fill(
        &mut self,
        gid: GroupId,
        now: Cycle,
        mem: &mut MemorySystem,
    ) -> ExecResult {
        let fetch_ready = mem.icache_fill_latency(now);
        if fetch_ready > now + 1 {
            return self.push_back(gid, fetch_ready, false);
        }
        self.execute_post_fetch(gid, self.table[gid].pc, now)
    }

    /// Dispatches the fetched instruction. Separate from
    /// [`execute`](Self::execute) so a commit-phase I-cache fill landing
    /// within the issue window can resume here.
    fn execute_post_fetch(&mut self, gid: GroupId, pc: usize, now: Cycle) -> ExecResult {
        let op = *self.program.exec_op(pc);
        let mask = self.table[gid].mask;
        let warp = self.table[gid].warp;

        match op {
            ExecOp::Alu { .. } | ExecOp::Un { .. } | ExecOp::Set { .. } => {
                self.stats.on_issue(mask.count());
                self.exec_compute(warp, pc, mask, op);
                if op.is_fp() {
                    self.stats.fp_ops.add(mask.count() as u64);
                } else {
                    self.stats.int_ops.add(mask.count() as u64);
                }
                self.table[gid].pc = pc + 1;
                ExecResult::Issued
            }
            ExecOp::Jump { target } => {
                self.stats.on_issue(mask.count());
                self.stats.int_ops.add(mask.count() as u64);
                self.table[gid].pc = target as usize;
                ExecResult::Issued
            }
            ExecOp::Branch { cond, a, b, target } => {
                self.stats.on_issue(mask.count());
                self.stats.int_ops.add(mask.count() as u64);
                self.exec_branch(gid, pc, cond, a, b, target as usize, now);
                ExecResult::Issued
            }
            ExecOp::Load { .. } | ExecOp::Store { .. } => {
                // The certificate check, decode, and L1 probe all start at
                // shared state (the L1's release count); park the whole
                // access for the commit phase.
                self.pending_issue = Some(PendingIssue::MemAccess { gid });
                ExecResult::Suspend
            }
            ExecOp::Barrier => {
                self.stats.on_issue(mask.count());
                self.table.park(gid, GroupStatus::WaitBarrier);
                // Fall-behind slip threads must be able to reach the
                // barrier on their own.
                if matches!(self.cfg.policy, Policy::Slip(_)) {
                    self.release_slip_catchups(warp, now);
                }
                self.current = None;
                ExecResult::Issued
            }
            ExecOp::Halt => {
                self.stats.on_issue(mask.count());
                self.exec_halt(gid, now);
                self.current = None;
                ExecResult::Issued
            }
        }
    }

    /// Executes an ALU/Un/Set instruction across the active lanes through
    /// the warp-wide kernels (one opcode dispatch for the whole warp).
    /// With the oracle on (debug builds, `DWS_SANITIZE=1`), every lane's
    /// per-lane-interpreter result is precomputed *before* the kernel runs
    /// (the destination may alias a source) and the two must agree.
    fn exec_compute(&mut self, warp: usize, pc: usize, mask: Mask, op: ExecOp) {
        // Fixed-size capture (a mask holds at most 64 lanes), so the
        // oracle does not allocate — the zero-alloc steady-state guard also
        // runs in debug builds. `None` when the oracle is off, so the
        // release fast path never initializes the array.
        let expected: Option<[Option<(u16, u64)>; 64]> = if self.check_oracle {
            let mut expected = [None; 64];
            let inst = self.program.inst(pc);
            let rf = &self.warps[warp].regs;
            for lane in mask.iter() {
                let mut sh = rf.shadow(lane);
                let out = execute_lane(&mut sh, inst);
                debug_assert_eq!(out, StepOutcome::Next);
                expected[lane] = sh.written();
            }
            Some(expected)
        } else {
            None
        };
        let rf = &mut self.warps[warp].regs;
        match op {
            ExecOp::Alu { op, dst, a, b, .. } => exec::exec_alu(rf, mask, op, dst, a, b),
            ExecOp::Un { op, dst, a, .. } => exec::exec_un(rf, mask, op, dst, a),
            ExecOp::Set { cond, dst, a, b } => exec::exec_set(rf, mask, cond, dst, a, b),
            _ => unreachable!("exec_compute on non-compute µop"),
        }
        if let Some(expected) = &expected {
            let rf = &self.warps[warp].regs;
            for lane in mask.iter() {
                if let Some((r, v)) = expected[lane] {
                    assert_eq!(
                        rf.get(r, lane),
                        v,
                        "µop engine diverged from per-lane oracle at pc {pc} lane {lane} reg r{r}"
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_branch(
        &mut self,
        gid: GroupId,
        pc: usize,
        cond: CondOp,
        a: Src,
        b: Src,
        target: usize,
        now: Cycle,
    ) {
        let warp = self.table[gid].warp;
        let mask = self.table[gid].mask;
        // The verifier's per-PC classification: `uniform` where the
        // condition provably does not depend on the thread id (so lanes at
        // the same spine position agree), `spine` where such a branch also
        // sits on the uniform spine.
        let uniformity = self.program.branch_uniformity();
        let (uniform, spine) = (uniformity.uniform[pc], uniformity.spine[pc]);
        // Spine-position bookkeeping (see [`Group::spine_trips`]): every
        // retired spine branch advances the group's counter, fast path or
        // not, so merge-time mismatch detection stays exact.
        if spine {
            self.table[gid].spine_trips += 1;
        }
        let taken = if uniform && !self.uniform_poisoned[warp] {
            // Verifier-proven uniform branch: the condition reads no
            // thread-varying register, so one representative lane decides
            // for the whole mask. Cycle-identical by construction — the
            // full-warp evaluation would produce either `mask` or the
            // empty mask — and the per-lane oracle below still checks
            // every lane.
            self.stats.uniform_fast_branches.incr();
            let probe = Mask::lane(mask.first().expect("nonempty issue mask"));
            if exec::branch_taken(&self.warps[warp].regs, probe, cond, a, b).is_empty() {
                Mask::EMPTY
            } else {
                mask
            }
        } else {
            exec::branch_taken(&self.warps[warp].regs, mask, cond, a, b)
        };
        if self.check_oracle {
            let inst = self.program.inst(pc);
            let rf = &self.warps[warp].regs;
            let mut expect = Mask::EMPTY;
            for lane in mask.iter() {
                let mut sh = rf.shadow(lane);
                match execute_lane(&mut sh, inst) {
                    StepOutcome::Jump(_) => expect.set(lane),
                    StepOutcome::Next => {}
                    other => unreachable!("branch produced {other:?}"),
                }
            }
            assert_eq!(
                taken, expect,
                "µop taken mask diverged from per-lane oracle at pc {pc}"
            );
        }
        let fallthrough = mask - taken;
        let divergent = !taken.is_empty() && !fallthrough.is_empty();
        self.stats.on_branch(divergent);

        if !divergent {
            self.table[gid].pc = if fallthrough.is_empty() {
                target
            } else {
                pc + 1
            };
            return;
        }

        let info = *self
            .program
            .branch_info(pc)
            .expect("divergent conditional branch has metadata");

        // DWS branch subdivision.
        if let Policy::Dws(c) = self.cfg.policy {
            if c.branch_split && info.subdividable && self.splits_allowed() {
                if self.table.wst().can_split(warp) {
                    // Keep executing the path that still has work before the
                    // post-dominator; park the other as the sibling split.
                    // When the taken edge jumps straight to the
                    // post-dominator (`if` with no else), this lets the body
                    // side catch up one instruction later and re-unite via
                    // the PC match at essentially conventional cost.
                    let (run_mask, run_pc, park_mask, park_pc) =
                        if c.park_short_path && target == info.ipdom {
                            (fallthrough, pc + 1, taken, target)
                        } else {
                            (taken, target, fallthrough, pc + 1)
                        };
                    let sibling = self.table.fork(gid, park_pc, park_mask);
                    self.table.wake(sibling, now);
                    self.table[gid].pc = run_pc;
                    self.stats.branch_splits.incr();
                    self.trace(TraceEvent::BranchSplit {
                        cycle: now,
                        warp,
                        pc,
                        run_mask,
                        park_mask,
                    });
                    return;
                }
                self.stats.wst_full_events.incr();
            }
        }

        // Conventional serialization: on the warp stack when this group is
        // the entire current region, privately otherwise.
        let sole_region = self.table.wst().groups_of(warp) == 1
            && self.table[gid].local_rpc.is_none()
            && mask == self.warps[warp].tos_live_mask();
        let g = &mut self.table[gid];
        if sole_region && info.ipdom != RECONV_NONE {
            let w = &mut self.warps[warp];
            let tos = w.stack.last_mut().expect("root frame");
            tos.pc = info.ipdom;
            w.stack.push(Frame {
                pc: pc + 1,
                rpc: Some(info.ipdom),
                mask: fallthrough,
            });
            w.stack.push(Frame {
                pc: target,
                rpc: Some(info.ipdom),
                mask: taken,
            });
        } else {
            // Private serialization within the split.
            let r = info.ipdom; // may be RECONV_NONE: frames then pop at Halt
            g.local_stack.push(Frame {
                pc: r,
                rpc: g.local_rpc,
                mask,
            });
            g.local_stack.push(Frame {
                pc: pc + 1,
                rpc: Some(r),
                mask: fallthrough,
            });
            g.local_rpc = Some(r);
        }
        g.mask = taken;
        g.pc = target;
    }

    /// The commit-phase half of a load or store: the MSHR retry
    /// certificate, address decode, the L1 access, and what the group does
    /// about its misses.
    #[allow(clippy::too_many_lines)]
    pub(super) fn exec_memory(
        &mut self,
        gid: GroupId,
        now: Cycle,
        mem: &mut MemorySystem,
        data: &mut dyn MemoryAccess,
    ) -> ExecResult {
        let warp = self.table[gid].warp;
        let mask = self.table[gid].mask;
        let pc = self.table[gid].pc;
        let op = *self.program.exec_op(pc);

        mem.count_replayed_rejections(std::mem::take(&mut self.unreported_rejections));
        // Retry certificate: while the group spins on MSHR back-pressure its
        // registers are frozen, so the same `(pc, mask)` decodes to the
        // same addresses, and until the L1 has released enough MSHRs they
        // must be refused again — skip the per-lane decode and cache probe.
        let certified = matches!(
            self.table[gid].reject_memo,
            Some((p, m, retry_at)) if (p, m) == (pc, mask) && mem.l1_releases(self.cfg.id) < retry_at
        );
        if certified {
            mem.count_replayed_rejections(1);
            if !self.check_oracle {
                return self.push_back(gid, now + 1, true);
            }
        }

        // Borrow the per-tick scratch buffers out of `self` for the
        // duration of the access (restored at the end).
        let mut accesses = std::mem::take(&mut self.scratch.accesses);
        let mut outcomes = std::mem::take(&mut self.scratch.outcomes);
        accesses.clear();

        // Decode per-lane addresses (no functional effect yet): one µop
        // dispatch for the whole warp, with the base-register row streamed
        // out of the SoA file straight into the lane accesses.
        let rf = &self.warps[warp].regs;
        let (kind, base, offset) = match op {
            ExecOp::Load { base, offset, .. } => (AccessKind::Load, base, offset),
            ExecOp::Store { base, offset, .. } => (AccessKind::Store, base, offset),
            _ => unreachable!("exec_memory on non-memory µop"),
        };
        accesses.extend(mask.iter().map(|lane| LaneAccess {
            lane,
            addr: rf.get(base, lane).wrapping_add(offset),
            kind,
        }));
        if self.check_oracle {
            let inst = self.program.inst(pc);
            for a in &accesses {
                let uop = match op {
                    ExecOp::Load { dst, .. } => StepOutcome::Load {
                        addr: a.addr,
                        dst: Reg(dst),
                    },
                    ExecOp::Store { src, .. } => StepOutcome::Store {
                        addr: a.addr,
                        value: exec::src(rf, a.lane, src),
                    },
                    _ => unreachable!(),
                };
                let mut sh = rf.shadow(a.lane);
                assert_eq!(
                    uop,
                    execute_lane(&mut sh, inst),
                    "µop address generation diverged from per-lane oracle at pc {pc} lane {}",
                    a.lane
                );
            }
        }

        let issued = 'body: {
            if certified {
                // In-situ oracle: the real check must still refuse (unless
                // a fault plan's withheld MSHRs certified the refusal).
                assert!(
                    mem.would_reject(self.cfg.id, &accesses).is_some() || self.fault.is_some(),
                    "retry certificate outlived the rejection at pc {pc} cycle {now}"
                );
                break 'body false;
            }
            if !mem.warp_access_into(now, self.cfg.id, &accesses, &mut outcomes) {
                // MSHRs exhausted: other groups issue while this one waits
                // out its deficit in releases (1 when only fault injection's
                // withholding explains the refusal).
                let deficit = mem.refusal_deficit(self.cfg.id);
                if self.check_oracle {
                    let probed = mem.would_reject(self.cfg.id, &accesses);
                    assert_eq!(
                        deficit,
                        probed.unwrap_or(1),
                        "refusal deficit diverged from a fresh probe at pc {pc} cycle {now}"
                    );
                }
                let retry_at = mem.l1_releases(self.cfg.id) + deficit as u64;
                self.table[gid].reject_memo = Some((pc, mask, retry_at));
                break 'body false;
            }

            self.stats.on_issue(mask.count());

            // Functional effects (data-race-free kernels make ordering benign).
            match op {
                ExecOp::Load { dst, .. } => {
                    self.stats.loads.add(mask.count() as u64);
                    let rf = &mut self.warps[warp].regs;
                    for a in &accesses {
                        rf.set(dst, a.lane, data.load_word(a.addr));
                    }
                }
                ExecOp::Store { src, .. } => {
                    self.stats.stores.add(mask.count() as u64);
                    let rf = &self.warps[warp].regs;
                    for a in &accesses {
                        data.store_word(a.addr, exec::src(rf, a.lane, src));
                    }
                }
                _ => unreachable!(),
            }

            // Classify outcomes. A warp access is divergent when it mixes
            // hits and misses or its misses span more than one line.
            let mut hit_mask = Mask::EMPTY;
            let mut miss_mask = Mask::EMPTY;
            let mut hit_ready = now;
            let mut miss_line = None;
            let mut miss_lines_differ = false;
            for (o, a) in outcomes.iter().zip(&accesses) {
                match o.outcome {
                    AccessOutcome::Hit { ready_at } => {
                        hit_mask.set(o.lane);
                        hit_ready = hit_ready.max(ready_at);
                    }
                    AccessOutcome::Miss { request } => {
                        miss_mask.set(o.lane);
                        let w = &mut self.warps[warp];
                        w.set_pending(o.lane, request);
                        w.threads[o.lane].miss_count += 1;
                        self.inflight.track(request, warp, o.lane);
                        let line = mem.line_of(a.addr);
                        miss_lines_differ |= *miss_line.get_or_insert(line) != line;
                    }
                }
            }
            let any_miss = !miss_mask.is_empty();
            let divergent = (any_miss && !hit_mask.is_empty()) || miss_lines_differ;
            self.stats.on_mem_access(any_miss, divergent);

            self.table[gid].pc = pc + 1;
            self.current = None; // switch on every cache access

            if !any_miss {
                self.table.set_ready_at(gid, hit_ready);
                if self.dws_pc_based() {
                    self.try_pc_merge_at(gid, now);
                }
                break 'body true;
            }

            let mem_divergent = !hit_mask.is_empty();
            match self.cfg.policy {
                Policy::Dws(c) if c.mem_split.is_some() && mem_divergent => {
                    let scheme = c.mem_split.expect("checked");
                    // `gid` itself is slotted and Ready here (it just
                    // issued), so "any other slotted ready group" is a
                    // counter comparison.
                    let g = &self.table[gid];
                    debug_assert!(g.slotted() && g.status() == GroupStatus::Ready);
                    let others_ready = self.table.slotted_ready() >= 2;
                    let split_now = match scheme {
                        MemSplit::Aggressive => true,
                        MemSplit::Lazy | MemSplit::Revive => !others_ready,
                    } && self.splits_allowed();
                    if !self.splits_allowed() {
                        self.stats.throttle_suppressed.incr();
                    }
                    if split_now && self.table.wst().can_split(warp) {
                        // The hit lanes run ahead; the rest wait.
                        let run_ahead = self.table.fork(gid, pc + 1, hit_mask);
                        self.table.wake(run_ahead, hit_ready);
                        self.table.park(gid, GroupStatus::WaitMem);
                        self.stats.mem_splits.incr();
                        self.trace(TraceEvent::MemSplit {
                            cycle: now,
                            warp,
                            pc: pc + 1,
                            hit_mask,
                            miss_mask,
                        });
                    } else {
                        if split_now {
                            self.stats.wst_full_events.incr();
                        } else {
                            self.stats.lazy_suppressed.incr();
                        }
                        self.table.park(gid, GroupStatus::WaitMem);
                    }
                }
                Policy::Slip(_)
                    if mem_divergent
                        && !self.table[gid].slip_catchup
                        && self.slip_suspended_count(warp) + miss_mask.count()
                            <= self.slip.max_div =>
                {
                    // Fall-behind threads suspend *at* the memory PC; they
                    // re-execute it (as hits) when re-united.
                    let behind = self.table.fork(gid, pc, miss_mask);
                    self.table[behind].slip_pc = Some(pc);
                    self.table.park(behind, GroupStatus::SlipSuspended);
                    self.table.set_ready_at(gid, hit_ready);
                    self.stats.slip_events.incr();
                }
                // Conventional: the whole group waits for the slowest lane.
                _ => self.table.park(gid, GroupStatus::WaitMem),
            }
            true
        };

        self.scratch.accesses = accesses;
        self.scratch.outcomes = outcomes;
        if issued {
            ExecResult::Issued
        } else {
            self.push_back(gid, now + 1, true)
        }
    }

    /// ReviveSplit: when the pipeline stalls, let arrived threads of one
    /// suspended group run ahead (paper Section 5.2).
    pub(super) fn try_revive(&mut self, now: Cycle) {
        if !self.splits_allowed() || !self.table.slot_free() || self.table.waiting_on_memory() == 0
        {
            return;
        }
        let oldest_revivable = self
            .table
            .iter()
            .filter(|(_, g)| g.status() == GroupStatus::WaitMem)
            .filter(|(_, g)| {
                let arrived = self.warps[g.warp].arrived_lanes(g.mask);
                !arrived.is_empty() && arrived != g.mask
            })
            .filter(|(_, g)| self.table.wst().can_split(g.warp))
            .min_by_key(|(_, g)| g.seq);
        let Some((gid, g)) = oldest_revivable else {
            return;
        };
        let (warp, pc) = (g.warp, g.pc);
        let arrived = self.warps[warp].arrived_lanes(g.mask);
        let run_ahead = self.table.fork(gid, pc, arrived);
        self.table.wake(run_ahead, now + 1);
        self.stats.revive_splits.incr();
        self.trace(TraceEvent::Revive {
            cycle: now,
            warp,
            pc,
            mask: arrived,
        });
    }

    fn exec_halt(&mut self, gid: GroupId, now: Cycle) {
        let warp = self.table[gid].warp;
        let mask = self.table[gid].mask;
        for lane in mask.iter() {
            if !self.warps[warp].threads[lane].halted {
                self.warps[warp].threads[lane].halted = true;
                self.live_threads -= 1;
            }
        }
        self.warps[warp].halted = self.warps[warp].halted | mask;

        // Resume any serialized local paths first.
        if self.table[gid].adopt_local_frame(self.warps[warp].halted) {
            self.table.set_ready_at(gid, now);
            return;
        }

        // Sole group: unwind the warp stack for any live parked paths.
        if self.table.wst().groups_of(warp) == 1 {
            if let Some(frame) = self.warps[warp].pop_to_live_frame() {
                (self.table[gid].pc, self.table[gid].mask) = frame;
                self.table.set_ready_at(gid, now);
                return;
            }
        }

        // Nothing live to resume in this group.
        if matches!(self.cfg.policy, Policy::Slip(_)) {
            self.release_slip_catchups(warp, now);
        }
        self.kill_group(gid);
        // If siblings also ended (e.g. all waiting at a reconvergence that
        // can now complete), the stack-merge path handles them on their own
        // pre-issue; but their target mask shrank, so re-check now.
        if self.table.wst().groups_of(warp) > 1 {
            self.try_stack_merge(warp, now);
        }
    }
}
