//! The SIMD-group table: the slab of a WPU's live [`Group`]s — the paper's
//! warp-split table plus the unsplit warps the baseline scheduler tracks
//! (§4.4) — and every index over it.
//!
//! The table is the only writer of a group's `status`, `ready_at` and
//! `slotted`, and each verb that writes one re-indexes before it returns
//! (`resched` is private), so the counters, the ready ring and the pending
//! heap cannot fall out of step with the slab. Everything else about a
//! group (`pc`, `mask`, the local stack, the slip fields, the retry
//! certificate) is plain `&mut` state reached through `table[gid]`: no
//! index depends on it. The one exception is the mask of a group parked at
//! the barrier, which `barrier_lanes` counts: grow it with
//! [`GroupTable::add_lanes`].

use super::{Group, GroupId, GroupStatus};
use crate::mask::Mask;
use crate::warp::Frame;
use crate::wst::WstAccounting;
use dws_engine::{Cycle, ReadyRing, WakeHeap};

/// Scheduler-index bookkeeping for one slab slot.
#[derive(Debug, Clone, Copy, Default)]
struct SchedSlot {
    /// The contribution this slot currently makes to the scheduler indexes
    /// and counters (`None` while the slot is empty).
    /// [`GroupTable::resched`] diffs the group's live state against this
    /// to update incrementally.
    key: Option<SchedKey>,
    /// Bumped whenever the slot's heap membership changes; pending-heap
    /// entries carrying an older stamp are stale. Never reset, so slab
    /// index reuse cannot resurrect them.
    stamp: u64,
}

/// The slice of group state the scheduler indexes depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedKey {
    slotted: bool,
    status: GroupStatus,
    lanes: u32,
    ready_at: Cycle,
}

impl SchedKey {
    /// The part that decides ring/heap membership; `lanes` only feeds the
    /// barrier counter, so mask-only changes skip the index churn.
    fn membership(self) -> (bool, GroupStatus, Cycle) {
        (self.slotted, self.status, self.ready_at)
    }
}

/// The groups of one WPU and the scheduler's view of them.
#[derive(Debug)]
pub struct GroupTable {
    groups: Vec<Option<Group>>,
    /// Per-slab-slot scheduler bookkeeping, parallel to `groups`.
    sched: Vec<SchedSlot>,
    /// Issuable groups (slotted, `Ready`, `ready_at` reached), indexed by
    /// slab position so [`ReadyRing::next_from`] reproduces the round-robin
    /// order of the slab scan it replaced.
    ready: ReadyRing,
    /// Slotted ready groups whose `ready_at` is still in the future. Each
    /// entry carries `(slab index, stamp)`; entries whose stamp no longer
    /// matches [`SchedSlot::stamp`] are stale and dropped when popped.
    pending: WakeHeap<(usize, u64)>,
    /// Min ready time over slotted ready groups, as of the last
    /// [`refresh_next_wake`](Self::refresh_next_wake).
    next_wake: Option<Cycle>,
    rr_cursor: usize,
    /// Per-warp index of the slab: the slots holding that warp's live
    /// groups, walked in ascending slot order, so a search over one warp's
    /// groups finds the same group a slab scan filtered by warp would.
    warp_slots: Vec<ReadyRing>,
    /// Empty slab slots; a spawn takes the lowest.
    free_slots: ReadyRing,
    /// Live groups.
    n_groups: usize,
    /// Live slotted groups.
    n_slotted: usize,
    /// Live slotted groups with status `Ready`.
    n_slotted_ready: usize,
    /// Live groups waiting on memory (`WaitMem` or `SlipSuspended`).
    n_wait_mem: usize,
    /// Lanes parked at the global barrier.
    barrier_lanes: u64,
    /// Scheduler slots; groups beyond this sit idle until a slot frees
    /// (paper Section 6.6).
    sched_slots: usize,
    wst: WstAccounting,
    next_seq: u64,
    /// Recycled local-stack storage: a spawn pops a spare `Vec<Frame>` here
    /// instead of allocating, and dead groups return theirs, so group
    /// churn is heap-quiet once the pool has warmed up.
    frame_pool: Vec<Vec<Frame>>,
}

impl std::ops::Index<GroupId> for GroupTable {
    type Output = Group;

    #[inline]
    fn index(&self, gid: GroupId) -> &Group {
        self.groups[gid.0].as_ref().expect("live group")
    }
}

impl std::ops::IndexMut<GroupId> for GroupTable {
    #[inline]
    fn index_mut(&mut self, gid: GroupId) -> &mut Group {
        self.groups[gid.0].as_mut().expect("live group")
    }
}

impl GroupTable {
    /// An empty table for `n_warps` warps, `sched_slots` scheduler slots
    /// and a `wst_entries`-entry warp-split table.
    pub fn new(n_warps: usize, sched_slots: usize, wst_entries: usize) -> Self {
        GroupTable {
            groups: Vec::new(),
            sched: Vec::new(),
            ready: ReadyRing::new(),
            pending: WakeHeap::new(),
            next_wake: None,
            rr_cursor: 0,
            warp_slots: vec![ReadyRing::new(); n_warps],
            free_slots: ReadyRing::new(),
            n_groups: 0,
            n_slotted: 0,
            n_slotted_ready: 0,
            n_wait_mem: 0,
            barrier_lanes: 0,
            sched_slots,
            wst: WstAccounting::new(n_warps, wst_entries),
            next_seq: 0,
            frame_pool: Vec::new(),
        }
    }

    // ---- reads --------------------------------------------------------------

    /// Slab slots, live or empty: every [`GroupId`] is below this.
    #[inline]
    pub fn slots(&self) -> usize {
        self.groups.len()
    }

    /// The group in slot `gid`, if that slot is live.
    #[inline]
    pub fn get(&self, gid: GroupId) -> Option<&Group> {
        self.groups[gid.0].as_ref()
    }

    /// The live groups in ascending slab order.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &Group)> + '_ {
        let live = self.groups.iter().enumerate();
        live.filter_map(|(i, g)| g.as_ref().map(|g| (GroupId(i), g)))
    }

    /// The live groups of `warp` in ascending slab order, through the
    /// per-warp slot index: what a slab scan filtered by `g.warp == warp`
    /// yields, without visiting the other warps' slots.
    pub fn warp_groups(&self, warp: usize) -> impl Iterator<Item = (GroupId, &Group)> + '_ {
        self.warp_slots[warp]
            .iter()
            .map(move |i| (GroupId(i), &self[GroupId(i)]))
    }

    /// The first live group of `warp` at slab index `from` or later. For
    /// loops that mutate groups as they walk a warp: step `from` past each
    /// result. (They may kill the group they are visiting, which clears
    /// only its own slot; none spawns a group or kills another.)
    pub fn next_group_of(&self, warp: usize, from: usize) -> Option<GroupId> {
        self.warp_slots[warp].next_at_or_after(from).map(GroupId)
    }

    /// Warp-split table occupancy and per-warp group counts.
    #[inline]
    pub fn wst(&self) -> &WstAccounting {
        &self.wst
    }

    /// Live groups.
    #[inline]
    pub fn live(&self) -> usize {
        self.n_groups
    }

    /// Whether a scheduler slot is free.
    #[inline]
    pub fn slot_free(&self) -> bool {
        self.n_slotted < self.sched_slots
    }

    /// Live slotted groups with status `Ready` (due or not).
    #[inline]
    pub fn slotted_ready(&self) -> usize {
        self.n_slotted_ready
    }

    /// Live groups waiting on memory (`WaitMem` or `SlipSuspended`).
    #[inline]
    pub fn waiting_on_memory(&self) -> usize {
        self.n_wait_mem
    }

    /// Lanes parked at the global barrier.
    #[inline]
    pub fn barrier_lanes(&self) -> u64 {
        self.barrier_lanes
    }

    // ---- verbs: the only writers of status / ready_at / slotted -------------

    /// Adds a group for `mask` of `warp` at `pc`: `Ready`, due at once, but
    /// without a scheduler slot ([`wake`](Self::wake) takes one).
    pub fn spawn(&mut self, warp: usize, pc: usize, mask: Mask) -> GroupId {
        let mut g = Group::new(warp, pc, mask, self.next_seq);
        self.next_seq += 1;
        if let Some(stack) = self.frame_pool.pop() {
            g.local_stack = stack;
        }
        self.wst.on_group_created(warp);
        let i = match self.free_slots.next_at_or_after(0) {
            Some(i) => {
                self.free_slots.remove(i);
                self.groups[i] = Some(g);
                i
            }
            None => {
                self.groups.push(Some(g));
                let n = self.groups.len();
                self.sched.resize(n, SchedSlot::default());
                self.ready.grow_to(n);
                self.free_slots.grow_to(n);
                n - 1
            }
        };
        self.warp_slots[warp].grow_to(i + 1);
        self.warp_slots[warp].insert(i);
        self.n_groups += 1;
        self.resched(GroupId(i));
        GroupId(i)
    }

    /// Subdivides `parent`: `lanes` leave it for a new group at `pc`, which
    /// takes those threads' share of the parent's local serialization
    /// frames (so the halves cannot both resurrect the same parked threads
    /// when they pop their join frames; the parent keeps the rest,
    /// including any parked else-path threads) and inherits its local
    /// re-convergence point and uniform-spine position. The child is as
    /// [`spawn`](Self::spawn) leaves it; follow with [`wake`](Self::wake)
    /// or [`park`](Self::park).
    pub fn fork(&mut self, parent: GroupId, pc: usize, lanes: Mask) -> GroupId {
        let child = self.spawn(self[parent].warp, pc, lanes);
        let mut frames = std::mem::take(&mut self[child].local_stack);
        let p = &mut self[parent];
        frames.clear();
        frames.extend(p.local_stack.iter().map(|f| Frame {
            mask: f.mask & lanes,
            ..*f
        }));
        for f in &mut p.local_stack {
            f.mask = f.mask - lanes;
        }
        p.mask = p.mask - lanes;
        let (local_rpc, spine_trips) = (p.local_rpc, p.spine_trips);
        let c = &mut self[child];
        c.local_stack = frames;
        c.local_rpc = local_rpc;
        c.spine_trips = spine_trips;
        self.resched(parent);
        child
    }

    /// Removes `gid`, returning its warp. Its local-stack storage goes back
    /// to the pool, and the scheduler slot it held, if any, to the oldest
    /// group that can use one.
    pub fn kill(&mut self, gid: GroupId) -> usize {
        let mut g = self.groups[gid.0].take().expect("kill of dead group");
        self.warp_slots[g.warp].remove(gid.0);
        self.free_slots.insert(gid.0);
        self.n_groups -= 1;
        self.resched(gid);
        let mut stack = std::mem::take(&mut g.local_stack);
        if stack.capacity() > 0 {
            stack.clear();
            self.frame_pool.push(stack);
        }
        self.wst.on_group_removed(g.warp);
        if g.slotted {
            self.promote_slot();
        }
        g.warp
    }

    /// Makes `gid` `Ready`, due at `at`, and gives it a scheduler slot if
    /// it lacks one and one is free.
    #[inline]
    pub fn wake(&mut self, gid: GroupId, at: Cycle) {
        let slot_free = self.slot_free();
        let g = &mut self[gid];
        g.status = GroupStatus::Ready;
        g.ready_at = at;
        g.slotted |= slot_free;
        self.resched(gid);
    }

    /// Takes `gid` out of scheduling with a waiting `status`. A group
    /// waiting on memory keeps its scheduler slot; one parked at a
    /// synchronization point (barrier, re-convergence, slip) gives it up
    /// and re-acquires one when it [wakes](Self::wake).
    #[inline]
    pub fn park(&mut self, gid: GroupId, status: GroupStatus) {
        debug_assert_ne!(status, GroupStatus::Ready, "park as Ready");
        let g = &mut self[gid];
        debug_assert!(
            g.slotted || status != GroupStatus::WaitMem,
            "only a group that issued waits on memory"
        );
        g.status = status;
        let released = g.slotted && status != GroupStatus::WaitMem;
        g.slotted &= !released;
        self.resched(gid);
        if released {
            self.promote_slot();
        }
    }

    /// Moves the cycle `gid` may next issue at, leaving its status alone.
    #[inline]
    pub fn set_ready_at(&mut self, gid: GroupId, at: Cycle) {
        self[gid].ready_at = at;
        self.resched(gid);
    }

    /// Gives `gid` a scheduler slot if it lacks one and one is free;
    /// whether it holds one now.
    pub fn try_slot(&mut self, gid: GroupId) -> bool {
        if !self[gid].slotted && self.slot_free() {
            self[gid].slotted = true;
            self.resched(gid);
        }
        self[gid].slotted
    }

    /// Adds `lanes` (the threads of a group merging into it) to `gid`'s
    /// mask. Needed only while `gid` is parked at the barrier, where its
    /// lane count is indexed; elsewhere `table[gid].mask` is a plain write.
    pub fn add_lanes(&mut self, gid: GroupId, lanes: Mask) {
        let g = &mut self[gid];
        g.mask = g.mask | lanes;
        self.resched(gid);
    }

    /// Re-indexes group `gid` after a mutation of its scheduling state
    /// (`slotted`, `status`, `ready_at`, or — for groups parked at a
    /// barrier — `mask`). Diffs the live state against the cached
    /// [`SchedKey`] and incrementally updates the counters, the ready
    /// ring, and the pending heap; superseded heap entries are invalidated
    /// by stamp. Mask-only changes in other states are picked up lazily:
    /// the cached contribution is what gets retracted, so the counters
    /// stay consistent either way.
    fn resched(&mut self, gid: GroupId) {
        let i = gid.0;
        let new = self.groups[i].as_ref().map(|g| SchedKey {
            slotted: g.slotted,
            status: g.status,
            lanes: g.mask.count(),
            ready_at: g.ready_at,
        });
        let old = self.sched[i].key;
        if new == old {
            return;
        }
        if let Some(k) = old {
            if k.slotted {
                self.n_slotted -= 1;
                if k.status == GroupStatus::Ready {
                    self.n_slotted_ready -= 1;
                }
            }
            match k.status {
                GroupStatus::WaitMem | GroupStatus::SlipSuspended => self.n_wait_mem -= 1,
                GroupStatus::WaitBarrier => self.barrier_lanes -= u64::from(k.lanes),
                _ => {}
            }
        }
        if let Some(k) = new {
            if k.slotted {
                self.n_slotted += 1;
                if k.status == GroupStatus::Ready {
                    self.n_slotted_ready += 1;
                }
            }
            match k.status {
                GroupStatus::WaitMem | GroupStatus::SlipSuspended => self.n_wait_mem += 1,
                GroupStatus::WaitBarrier => self.barrier_lanes += u64::from(k.lanes),
                _ => {}
            }
        }
        if new.map(SchedKey::membership) != old.map(SchedKey::membership) {
            self.ready.remove(i);
            self.sched[i].stamp += 1;
            if let Some(k) = new {
                if k.slotted && k.status == GroupStatus::Ready {
                    self.pending.push(k.ready_at, (i, self.sched[i].stamp));
                }
            }
        }
        self.sched[i].key = new;
    }

    /// Grants the freed slot to the oldest unslotted group that can use it.
    /// Groups parked at synchronization points gave their slot up on
    /// purpose; promoting them would starve runnable groups.
    fn promote_slot(&mut self) {
        // Every live group slotted: nobody to promote (the common case —
        // unsplit warps never outnumber the slots).
        if !self.slot_free() || self.n_groups == self.n_slotted {
            return;
        }
        let runnable =
            |g: &Group| !g.slotted && matches!(g.status, GroupStatus::Ready | GroupStatus::WaitMem);
        let candidate = self.iter().filter(|(_, g)| runnable(g));
        if let Some((gid, _)) = candidate.min_by_key(|(_, g)| g.seq) {
            self[gid].slotted = true;
            self.resched(gid);
        }
    }

    // ---- scheduling ---------------------------------------------------------

    /// Round-robin over slotted ready groups, via the ready ring. Pending
    /// groups whose wake time has come surface into the ring first. The
    /// pick stays issuable until a verb changes it.
    #[inline]
    pub fn pick(&mut self, now: Cycle) -> Option<GroupId> {
        // Surface what has come due, dropping entries a later `resched`
        // invalidated.
        while let Some((at, &(i, stamp))) = self.pending.peek() {
            if at > now {
                break;
            }
            self.pending.pop();
            if self.sched[i].stamp == stamp {
                self.ready.insert(i);
            }
        }
        let i = self.ready.next_from(self.rr_cursor)?;
        self.rr_cursor = (i + 1) % self.groups.len();
        Some(GroupId(i))
    }

    /// The reference for [`pick`](Self::pick): the first issuable group at
    /// or after the round-robin cursor, by modular slab scan; does not
    /// advance the cursor.
    pub fn scan_next_issuable(&self, now: Cycle) -> Option<GroupId> {
        let n = self.groups.len();
        (0..n)
            .map(|off| (self.rr_cursor + off) % n)
            .find(|&i| self.groups[i].as_ref().is_some_and(|g| g.issuable(now)))
            .map(GroupId)
    }

    /// Where the next [`pick`](Self::pick) starts its round-robin scan.
    pub fn rr_cursor(&self) -> usize {
        self.rr_cursor
    }

    /// The wake time as of the last refresh.
    #[inline]
    pub fn next_wake(&self) -> Option<Cycle> {
        self.next_wake
    }

    /// Recomputes the cached wake time from the pending heap, popping stale
    /// entries off the top. For the end of a stalled tick, when the ready
    /// ring is empty: every slotted ready group then has a live pending
    /// entry at a strictly future cycle, so the heap minimum is exactly
    /// what [`next_wake_by_scan`](Self::next_wake_by_scan) finds.
    #[inline]
    pub fn refresh_next_wake(&mut self) {
        while let Some((_, &(i, stamp))) = self.pending.peek() {
            if self.sched[i].stamp == stamp {
                break;
            }
            self.pending.pop();
        }
        self.next_wake = self.pending.next_at();
    }

    /// Replaces the cached wake time with
    /// [`next_wake_by_scan`](Self::next_wake_by_scan) over the groups
    /// `asleep` does not select.
    pub fn refresh_next_wake_without(&mut self, now: Cycle, asleep: impl Fn(&Group) -> bool) {
        self.next_wake = self.next_wake_by_scan(now, asleep);
    }

    /// The earliest cycle from `now` on at which a slotted ready group that
    /// `asleep` does not select is due, by slab scan.
    pub fn next_wake_by_scan(&self, now: Cycle, asleep: impl Fn(&Group) -> bool) -> Option<Cycle> {
        let ready = self.groups.iter().flatten();
        let ready = ready.filter(|g| g.slotted && g.status == GroupStatus::Ready && !asleep(g));
        ready.map(|g| g.ready_at.max(now)).min()
    }

    /// Re-enqueues every slotted ready group waiting in the pending heap
    /// under a fresh stamp, orphaning the old entries as stale (fault
    /// injection). Only called when the ready ring is empty, so each such
    /// group has exactly one live entry; its wake time is preserved, making
    /// the churn timing-invisible.
    pub fn churn_pending_heap(&mut self) {
        for i in 0..self.groups.len() {
            let Some(k) = self.sched[i].key else { continue };
            if k.slotted && k.status == GroupStatus::Ready && !self.ready.contains(i) {
                self.sched[i].stamp += 1;
                self.pending.push(k.ready_at, (i, self.sched[i].stamp));
            }
        }
    }

    // ---- diagnostics --------------------------------------------------------

    /// Invariant check (debug builds, `DWS_SANITIZE=1`, the property test):
    /// the incremental counters, the ready ring, the per-warp slot index
    /// and the free-slot set must agree with a fresh slab scan.
    ///
    /// # Panics
    ///
    /// Panics, naming the index and cycle `now`, on any drift.
    pub fn assert_sync(&self, now: Cycle) {
        let mut n_slotted = 0;
        let mut n_slotted_ready = 0;
        let mut n_wait_mem = 0;
        let mut barrier_lanes = 0u64;
        for g in self.groups.iter().flatten() {
            if g.slotted {
                n_slotted += 1;
                if g.status == GroupStatus::Ready {
                    n_slotted_ready += 1;
                }
            }
            match g.status {
                GroupStatus::WaitMem | GroupStatus::SlipSuspended => n_wait_mem += 1,
                GroupStatus::WaitBarrier => barrier_lanes += u64::from(g.mask.count()),
                _ => {}
            }
        }
        assert_eq!(self.n_slotted, n_slotted, "n_slotted drift at {now}");
        assert_eq!(
            self.n_slotted_ready, n_slotted_ready,
            "n_slotted_ready drift at {now}"
        );
        assert_eq!(self.n_wait_mem, n_wait_mem, "n_wait_mem drift at {now}");
        assert_eq!(
            self.barrier_lanes, barrier_lanes,
            "barrier_lanes drift at {now}"
        );
        for (i, g) in self.groups.iter().enumerate() {
            if self.ready.contains(i) {
                assert!(
                    g.as_ref().is_some_and(|g| g.issuable(now)),
                    "ready ring holds non-issuable group {i} at {now}"
                );
            }
            assert_eq!(
                self.free_slots.contains(i),
                g.is_none(),
                "free-slot drift at slot {i}, cycle {now}"
            );
            for (w, slots) in self.warp_slots.iter().enumerate() {
                assert_eq!(
                    slots.contains(i),
                    g.as_ref().is_some_and(|g| g.warp == w),
                    "warp {w} slot index drift at slot {i}, cycle {now}"
                );
            }
        }
        assert_eq!(
            self.n_groups,
            self.groups.iter().flatten().count(),
            "live group count drift at {now}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_engine::rng::Rng64;

    const WIDTH: usize = 8;
    const PARKED: [GroupStatus; 5] = [
        GroupStatus::WaitMem,
        GroupStatus::WaitReconv,
        GroupStatus::WaitBarrier,
        GroupStatus::SlipSuspended,
        GroupStatus::SlipStalledAtBranch,
    ];

    /// A random non-empty subset of `of`, strict when `of` has two lanes
    /// or more.
    fn some_lanes(rng: &mut Rng64, of: Mask) -> Mask {
        let lanes: Vec<usize> = of.iter().collect();
        let keep = 1 + rng.range_usize(lanes.len().max(2) - 1);
        let first = rng.range_usize(lanes.len());
        (0..keep)
            .map(|i| lanes[(first + i) % lanes.len()])
            .collect()
    }

    /// Every index and counter the table keeps, re-derived from a slab
    /// scan: `assert_sync` (counters, ready ring, slot and free sets), the
    /// per-warp walks, the WST counts, the slot budget and what slot
    /// promotion guarantees.
    fn check(t: &GroupTable, n_warps: usize, now: Cycle) {
        t.assert_sync(now);
        let slab: Vec<(GroupId, &Group)> = t.iter().collect();
        assert_eq!(t.live(), slab.len());
        let slotted = slab.iter().filter(|(_, g)| g.slotted()).count();
        assert!(slotted <= t.sched_slots, "{slotted} groups slotted");
        assert_eq!(t.slot_free(), slotted < t.sched_slots);
        let starved = |g: &Group| {
            !g.slotted() && matches!(g.status(), GroupStatus::Ready | GroupStatus::WaitMem)
        };
        assert!(
            !t.slot_free() || !slab.iter().any(|(_, g)| starved(g)),
            "a slot is free while a runnable group lacks one"
        );
        for w in 0..n_warps {
            let by_scan: Vec<GroupId> =
                slab.iter().filter(|o| o.1.warp == w).map(|o| o.0).collect();
            let by_index: Vec<GroupId> = t.warp_groups(w).map(|o| o.0).collect();
            assert_eq!(by_index, by_scan, "warp {w}'s groups");
            assert_eq!(t.wst().groups_of(w), by_scan.len());
            let mut from = 0;
            for &gid in &by_scan {
                assert_eq!(t.next_group_of(w, from), Some(gid));
                from = gid.0 + 1;
            }
            assert_eq!(t.next_group_of(w, from), None);
        }
        let mut seqs: Vec<u64> = slab.iter().map(|(_, g)| g.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), slab.len(), "creation sequence reused");
    }

    /// Random spawn / fork / kill / wake / park / slot / `set_ready_at` /
    /// `add_lanes` / pick sequences over 1-8 warps: after every step the
    /// indexes equal a slab scan, every pick is the reference scan's, and
    /// a drained scheduler's cached wake time is the scan's minimum.
    #[test]
    fn random_verb_sequences_keep_every_index_equal_to_a_slab_scan() {
        for seed in 0..48 {
            let mut rng = Rng64::new(0x7ab1e + seed);
            let n_warps = 1 + rng.range_usize(8);
            let sched_slots = 1 + rng.range_usize(2 * n_warps);
            let mut t = GroupTable::new(n_warps, sched_slots, rng.range_usize(17));
            let mut now = Cycle::ZERO;
            // Lanes of each warp no live group holds (their group died).
            let mut free = vec![Mask::EMPTY; n_warps];
            for w in 0..n_warps {
                let gid = t.spawn(w, 0, Mask::full(WIDTH));
                t.wake(gid, now);
                check(&t, n_warps, now);
            }
            for _ in 0..600 {
                let live: Vec<GroupId> = t.iter().map(|(gid, _)| gid).collect();
                let any = |rng: &mut Rng64| live[rng.range_usize(live.len())];
                let soon = |rng: &mut Rng64| now + rng.range_usize(5) as u64;
                match rng.range_usize(10) {
                    0 => now += 1 + rng.range_usize(3) as u64,
                    // A warp's orphaned lanes come back as a new group.
                    1 => {
                        let w = rng.range_usize(n_warps);
                        if !free[w].is_empty() {
                            let gid = t.spawn(w, rng.range_usize(64), free[w]);
                            assert!(t[gid].local_stack.is_empty(), "pooled stack not cleared");
                            free[w] = Mask::EMPTY;
                            t.wake(gid, soon(&mut rng));
                        }
                    }
                    2 if !live.is_empty() => {
                        let parent = any(&mut rng);
                        let before = t[parent].clone();
                        if before.mask.count() < 2 {
                            continue;
                        }
                        // Give the parent serialization frames to share out.
                        for pc in 0..rng.range_usize(3) {
                            let frame = Frame {
                                pc,
                                rpc: Some(pc + 9),
                                mask: some_lanes(&mut rng, Mask::full(WIDTH)),
                            };
                            t[parent].local_stack.push(frame);
                            t[parent].local_rpc = Some(pc + 9);
                        }
                        t[parent].spine_trips = rng.range_usize(4) as u64;
                        let frames = t[parent].local_stack.clone();
                        let lanes = some_lanes(&mut rng, before.mask);
                        let child = t.fork(parent, 7, lanes);
                        let (p, c) = (&t[parent], &t[child]);
                        assert_eq!((c.warp, c.pc, c.mask), (p.warp, 7, lanes));
                        assert_eq!(p.mask, before.mask - lanes);
                        assert_eq!((c.local_rpc, c.spine_trips), (p.local_rpc, p.spine_trips));
                        assert!(c.local_ctx_compatible(p));
                        for (i, f) in frames.iter().enumerate() {
                            assert_eq!(c.local_stack[i].mask, f.mask & lanes);
                            assert_eq!(p.local_stack[i].mask, f.mask - lanes);
                        }
                        if rng.chance(0.3) {
                            t.park(child, GroupStatus::SlipSuspended);
                        } else {
                            t.wake(child, soon(&mut rng));
                        }
                    }
                    3 if !live.is_empty() => {
                        let gid = any(&mut rng);
                        let (warp, mask) = (t[gid].warp, t[gid].mask);
                        assert_eq!(t.kill(gid), warp);
                        assert!(t.get(gid).is_none());
                        free[warp] = free[warp] | mask;
                    }
                    4 if !live.is_empty() => {
                        let (gid, at) = (any(&mut rng), soon(&mut rng));
                        let could_slot = t[gid].slotted() || t.slot_free();
                        t.wake(gid, at);
                        let g = &t[gid];
                        assert_eq!((g.status(), g.ready_at()), (GroupStatus::Ready, at));
                        assert_eq!(g.slotted(), could_slot);
                    }
                    5 if !live.is_empty() => {
                        let gid = any(&mut rng);
                        let status = PARKED[rng.range_usize(PARKED.len())];
                        let keeps_slot = status == GroupStatus::WaitMem;
                        if keeps_slot && !t[gid].slotted() {
                            continue;
                        }
                        t.park(gid, status);
                        assert_eq!((t[gid].status(), t[gid].slotted()), (status, keeps_slot));
                    }
                    6 if !live.is_empty() => {
                        let (gid, at) = (any(&mut rng), soon(&mut rng));
                        let status = t[gid].status();
                        t.set_ready_at(gid, at);
                        assert_eq!((t[gid].status(), t[gid].ready_at()), (status, at));
                    }
                    7 if !live.is_empty() => {
                        let gid = any(&mut rng);
                        let could_slot = t[gid].slotted() || t.slot_free();
                        assert_eq!(t.try_slot(gid), could_slot);
                        assert_eq!(t[gid].slotted(), could_slot);
                    }
                    8 if !live.is_empty() => {
                        let gid = any(&mut rng);
                        let warp = t[gid].warp;
                        if !free[warp].is_empty() {
                            let lanes = some_lanes(&mut rng, free[warp]);
                            t.add_lanes(gid, lanes);
                            free[warp] = free[warp] - lanes;
                        }
                    }
                    // An issue loop: every pick is the reference scan's,
                    // and is pushed back or parked, until none is left.
                    _ => loop {
                        let by_scan = t.scan_next_issuable(now);
                        let picked = t.pick(now);
                        assert_eq!(picked, by_scan, "pick at {now}");
                        let Some(gid) = picked else {
                            if rng.chance(0.2) {
                                t.churn_pending_heap();
                            }
                            t.refresh_next_wake();
                            let by_scan = t.next_wake_by_scan(now, |_| false);
                            assert_eq!(t.next_wake(), by_scan, "wake time at {now}");
                            assert!(by_scan.is_none_or(|at| at > now));
                            break;
                        };
                        assert_eq!(t.rr_cursor(), (gid.0 + 1) % t.slots());
                        assert!(t[gid].issuable(now));
                        if rng.chance(0.7) {
                            t.set_ready_at(gid, now + 1 + rng.range_usize(4) as u64);
                        } else {
                            t.park(gid, PARKED[rng.range_usize(PARKED.len())]);
                        }
                        check(&t, n_warps, now);
                    },
                }
                check(&t, n_warps, now);
            }
        }
    }
}
