//! SIMD groups: full warps and warp-splits, treated uniformly by the
//! scheduler (paper Section 4.2: "Warp-splits are independent scheduling
//! entities and are treated equally as warps").
//!
//! The groups of a WPU live in a [`GroupTable`] ([`table`]), which also owns
//! every scheduling index over them. A group's `status`, `ready_at` and
//! `slotted` are what those indexes are keyed on, so they are private to
//! this module: readable anywhere through the accessors, writable only by
//! the table's verbs, which re-index as they write.

pub mod table;

pub use table::GroupTable;

use crate::mask::Mask;
use crate::warp::Frame;
use dws_engine::Cycle;

/// Identifier of a live group within a WPU (slab index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub usize);

/// Scheduling state of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupStatus {
    /// Eligible to issue once `ready_at` passes.
    Ready,
    /// Blocked on outstanding memory requests (lanes with `pending` set).
    WaitMem,
    /// Stalled at a re-convergence point (TOS post-dominator, or any branch
    /// under `BranchLimited`), waiting for sibling splits.
    WaitReconv,
    /// Stalled at a global barrier.
    WaitBarrier,
    /// Slip only: suspended fall-behind threads, re-united when the
    /// run-ahead revisits `slip_pc` (not resumed by request completion).
    SlipSuspended,
    /// Slip only: the run-ahead stalled at a conditional branch waiting for
    /// fall-behind threads to catch up.
    SlipStalledAtBranch,
}

/// A schedulable SIMD group: a full warp or a warp-split.
///
/// This is the software embodiment of one warp-split-table entry: warp id,
/// PC, active mask, status (the paper budgets 84 bits per entry). The
/// `local_stack` extends the paper's design: when a split encounters a
/// divergent branch it cannot subdivide on (WST full, or subdivision
/// disabled), the paths serialize within the split using conventional
/// re-convergence frames private to it.
#[derive(Debug, Clone)]
pub struct Group {
    /// Owning warp index within the WPU.
    pub warp: usize,
    /// Current PC.
    pub pc: usize,
    /// Active threads.
    pub mask: Mask,
    /// Scheduling status (indexed: written through [`GroupTable`] only).
    status: GroupStatus,
    /// Earliest cycle the group may issue again (indexed).
    ready_at: Cycle,
    /// Private serialization frames for in-split branch divergence.
    pub local_stack: Vec<Frame>,
    /// Re-convergence PC of the group's innermost *local* region, if it is
    /// serializing a branch privately ([`Group::local_stack`]).
    pub local_rpc: Option<usize>,
    /// Slip: the memory-instruction PC this fall-behind group suspended at.
    pub slip_pc: Option<usize>,
    /// Slip: whether completed fall-behind threads may run independently to
    /// catch up (set when the run-ahead stalls at a branch/barrier/halt).
    pub slip_catchup: bool,
    /// Whether the group occupies a scheduler slot (indexed).
    slotted: bool,
    /// Creation sequence, for deterministic slot promotion and merging.
    pub seq: u64,
    /// Retired uniform-*spine* branches (see
    /// `dws_isa::verify::BranchUniformity::spine`). Together with the PC
    /// this identifies the group's position on the uniform spine: splits
    /// inherit it, and a merge of groups with unequal counts means lanes
    /// with different spine histories (e.g. different trip counts of a
    /// uniform loop) now share a group — the warp's uniform-branch fast
    /// path is then disabled.
    pub spine_trips: u64,
    /// Retry certificate `(pc, mask, retry_at_release_count)` of the last
    /// memory access the L1 refused for lack of MSHRs. While the group
    /// spins its registers cannot change, so an identical attempt is
    /// refused again — without re-probing the cache — until the L1's MSHR
    /// release count reaches `retry_at_release_count`
    /// (`dws_mem::MemorySystem::would_reject`).
    pub reject_memo: Option<(usize, Mask, u64)>,
}

impl Group {
    /// Creates a ready group.
    pub fn new(warp: usize, pc: usize, mask: Mask, seq: u64) -> Self {
        Group {
            warp,
            pc,
            mask,
            status: GroupStatus::Ready,
            ready_at: Cycle::ZERO,
            local_stack: Vec::new(),
            local_rpc: None,
            slip_pc: None,
            slip_catchup: false,
            slotted: false,
            seq,
            spine_trips: 0,
            reject_memo: None,
        }
    }

    /// Scheduling status.
    #[inline]
    pub fn status(&self) -> GroupStatus {
        self.status
    }

    /// Earliest cycle the group may issue again.
    #[inline]
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// Whether the group occupies a scheduler slot.
    #[inline]
    pub fn slotted(&self) -> bool {
        self.slotted
    }

    /// Whether the group can issue at `now`.
    #[inline]
    pub fn issuable(&self, now: Cycle) -> bool {
        self.slotted && self.status == GroupStatus::Ready && self.ready_at <= now
    }

    /// Pops local serialization frames (conventional semantics) until one
    /// with live threads is adopted as the group's PC, mask and local
    /// re-convergence point. Frames whose threads all halted — or were
    /// carved away by a memory-divergence split — are skipped. Returns
    /// `false` when the local context drained instead: the group continues
    /// where it is, at the outer level, with its current mask.
    pub fn adopt_local_frame(&mut self, halted: Mask) -> bool {
        while let Some(f) = self.local_stack.pop() {
            let live = f.mask - halted;
            if !live.is_empty() {
                self.pc = f.pc;
                self.local_rpc = f.rpc;
                self.mask = live;
                return true;
            }
        }
        self.local_rpc = None;
        false
    }

    /// Whether two groups' private serialization contexts line up
    /// structurally (same frame PCs and re-convergence PCs; the masks are
    /// per-group thread shares and are unioned on merge).
    pub fn local_ctx_compatible(&self, other: &Group) -> bool {
        self.local_rpc == other.local_rpc
            && self.local_stack.len() == other.local_stack.len()
            && self
                .local_stack
                .iter()
                .zip(&other.local_stack)
                .all(|(a, b)| a.pc == b.pc && a.rpc == b.rpc)
    }

    /// Whether two groups may merge: same warp, same PC, compatible
    /// serialization context, both runnable.
    pub fn can_merge_with(&self, other: &Group) -> bool {
        self.warp == other.warp
            && self.pc == other.pc
            && self.status == GroupStatus::Ready
            && other.status == GroupStatus::Ready
            && self.local_ctx_compatible(other)
            && self.slip_pc.is_none()
            && other.slip_pc.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issuable_requires_slot_ready_and_time() {
        let mut g = Group::new(0, 0, Mask::full(4), 0);
        assert!(!g.issuable(Cycle(0)), "unslotted");
        g.slotted = true;
        assert!(g.issuable(Cycle(0)));
        g.ready_at = Cycle(5);
        assert!(!g.issuable(Cycle(4)));
        assert!(g.issuable(Cycle(5)));
        g.status = GroupStatus::WaitMem;
        assert!(!g.issuable(Cycle(9)));
    }

    #[test]
    fn merge_compatibility() {
        let a = Group::new(0, 7, Mask(0b0011), 0);
        let b = Group::new(0, 7, Mask(0b1100), 1);
        assert!(a.can_merge_with(&b));
        let mut c = b.clone();
        c.pc = 8;
        assert!(!a.can_merge_with(&c));
        let mut d = b.clone();
        d.warp = 1;
        assert!(!a.can_merge_with(&d));
        let mut e = b.clone();
        e.local_stack.push(Frame {
            pc: 0,
            rpc: Some(1),
            mask: Mask(0b1100),
        });
        assert!(!a.can_merge_with(&e));
        let mut f = b.clone();
        f.status = GroupStatus::WaitMem;
        assert!(!a.can_merge_with(&f));
        let mut g = b.clone();
        g.slip_pc = Some(3);
        assert!(!a.can_merge_with(&g));
    }
}
