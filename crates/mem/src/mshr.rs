//! Miss-status holding registers with intra-warp request coalescing.
//!
//! The paper (Section 3.3): "Memory coalescing is performed at the L1. All
//! requests from a warp to the same cache line are coalesced in the MSHR.
//! ... Each MSHR hosts a cache line and can track as many requests to that
//! line as the SIMD width requires."

use crate::hierarchy::RequestId;
use dws_engine::{Cycle, FastHashMap};

/// Index of an MSHR entry within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrId(pub usize);

/// One in-flight miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Line address being fetched.
    pub line_addr: u64,
    /// Whether the line must arrive in an exclusive (writable) state.
    pub exclusive: bool,
    /// Whether this is an ownership upgrade of an already-present Shared
    /// line (no data fetch; the fill is a state change).
    pub upgrade: bool,
    /// Requests to complete when the fill arrives.
    pub targets: Vec<RequestId>,
    /// Scheduled fill time.
    pub fill_at: Cycle,
}

/// A file of MSHR entries for one cache.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Option<MshrEntry>>,
    /// Line address -> occupied slot, so [`MshrFile::find`] (which runs on
    /// every L1 access group, including inside the allocation assert) does
    /// not scan the file.
    line_map: FastHashMap<u64, usize>,
    /// Retired target vectors, recycled into new entries so the steady
    /// state allocates no per-miss buffers.
    spare_targets: Vec<Vec<RequestId>>,
    /// Occupancy bitmask per 64 slots: a free slot is found by bit scan
    /// instead of walking the entry array.
    occupied: Vec<u64>,
    max_targets: usize,
    in_use: usize,
}

impl MshrFile {
    /// Creates a file of `entries` MSHRs, each holding up to `max_targets`
    /// coalesced requests.
    pub fn new(entries: usize, max_targets: usize) -> Self {
        assert!(entries > 0 && max_targets > 0);
        MshrFile {
            entries: vec![None; entries],
            line_map: FastHashMap::default(),
            spare_targets: Vec::new(),
            occupied: vec![0; entries.div_ceil(64)],
            max_targets,
            in_use: 0,
        }
    }

    /// Finds the entry tracking `line_addr`, if any.
    pub fn find(&self, line_addr: u64) -> Option<MshrId> {
        self.line_map.get(&line_addr).map(|&slot| MshrId(slot))
    }

    /// Whether a new entry can be allocated.
    pub fn has_free(&self) -> bool {
        self.in_use < self.entries.len()
    }

    /// Whether `count` more targets can merge into entry `id`.
    pub fn can_merge(&self, id: MshrId, count: usize) -> bool {
        self.get(id).targets.len() + count <= self.max_targets
    }

    /// Allocates an entry for `line_addr`.
    ///
    /// # Panics
    ///
    /// Panics if the file is full (callers must check [`MshrFile::has_free`])
    /// or if the line already has an entry.
    pub fn allocate(&mut self, line_addr: u64, exclusive: bool, fill_at: Cycle) -> MshrId {
        // Lowest free index, matching MshrId assignment from the original
        // full scan of the entry array.
        let slot = self
            .occupied
            .iter()
            .enumerate()
            .find_map(|(w, &bits)| {
                let free = !bits & Self::word_mask(self.entries.len(), w);
                (free != 0).then(|| w * 64 + free.trailing_zeros() as usize)
            })
            .expect("MSHR file full; check has_free() first");
        self.occupied[slot / 64] |= 1 << (slot % 64);
        assert!(
            self.line_map.insert(line_addr, slot).is_none(),
            "line {line_addr:#x} already has an MSHR"
        );
        self.entries[slot] = Some(MshrEntry {
            line_addr,
            exclusive,
            upgrade: false,
            targets: self.spare_targets.pop().unwrap_or_default(),
            fill_at,
        });
        self.in_use += 1;
        MshrId(slot)
    }

    /// Adds a request to an entry's target list.
    ///
    /// # Panics
    ///
    /// Panics if the target list is full (check [`MshrFile::can_merge`]).
    pub fn add_target(&mut self, id: MshrId, req: RequestId) {
        let max = self.max_targets;
        let e = self.get_mut(id);
        assert!(e.targets.len() < max, "MSHR target list overflow");
        e.targets.push(req);
    }

    /// Adds a run of requests to an entry's target list, in order.
    ///
    /// # Panics
    ///
    /// Panics if the target list overflows (check [`MshrFile::can_merge`]).
    pub fn add_targets(&mut self, id: MshrId, reqs: impl IntoIterator<Item = RequestId>) {
        let max = self.max_targets;
        let e = self.get_mut(id);
        e.targets.extend(reqs);
        assert!(e.targets.len() <= max, "MSHR target list overflow");
    }

    /// Marks an entry as needing exclusive ownership (a store merged in).
    pub fn set_exclusive(&mut self, id: MshrId) {
        self.get_mut(id).exclusive = true;
    }

    /// Marks an entry as an in-place ownership upgrade.
    pub fn set_upgrade(&mut self, id: MshrId) {
        self.get_mut(id).upgrade = true;
    }

    /// Releases an entry, returning its coalesced targets.
    pub fn release(&mut self, id: MshrId) -> MshrEntry {
        let e = self.entries[id.0].take().expect("release of free MSHR");
        self.occupied[id.0 / 64] &= !(1 << (id.0 % 64));
        self.line_map.remove(&e.line_addr);
        self.in_use -= 1;
        e
    }

    /// Valid-slot bits of occupancy word `w` for a file of `len` entries.
    #[inline]
    fn word_mask(len: usize, w: usize) -> u64 {
        let remaining = len - (w * 64).min(len);
        if remaining >= 64 {
            !0
        } else {
            (1u64 << remaining) - 1
        }
    }

    /// Returns a released entry's (drained) target buffer to the recycle
    /// pool, so the next [`allocate`](Self::allocate) reuses its capacity.
    pub fn recycle_targets(&mut self, mut targets: Vec<RequestId>) {
        targets.clear();
        self.spare_targets.push(targets);
    }

    /// Borrows an entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is free.
    pub fn get(&self, id: MshrId) -> &MshrEntry {
        self.entries[id.0].as_ref().expect("access to free MSHR")
    }

    fn get_mut(&mut self, id: MshrId) -> &mut MshrEntry {
        self.entries[id.0].as_mut().expect("access to free MSHR")
    }

    /// Number of entries currently in flight.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_find_release() {
        let mut f = MshrFile::new(2, 4);
        assert!(f.has_free());
        let a = f.allocate(10, false, Cycle(50));
        assert_eq!(f.find(10), Some(a));
        assert_eq!(f.find(11), None);
        f.add_target(a, RequestId(1));
        f.add_target(a, RequestId(2));
        let e = f.release(a);
        assert_eq!(e.targets, vec![RequestId(1), RequestId(2)]);
        assert_eq!(e.fill_at, Cycle(50));
        assert_eq!(f.in_use(), 0);
        assert_eq!(f.find(10), None);
    }

    #[test]
    fn capacity_limits() {
        let mut f = MshrFile::new(2, 2);
        let a = f.allocate(1, false, Cycle(1));
        let _b = f.allocate(2, false, Cycle(1));
        assert!(!f.has_free());
        f.add_target(a, RequestId(1));
        assert!(f.can_merge(a, 1));
        f.add_target(a, RequestId(2));
        assert!(!f.can_merge(a, 1));
        assert_eq!(f.capacity(), 2);
    }

    #[test]
    fn exclusive_upgrade() {
        let mut f = MshrFile::new(1, 4);
        let a = f.allocate(5, false, Cycle(9));
        assert!(!f.get(a).exclusive);
        f.set_exclusive(a);
        assert!(f.get(a).exclusive);
    }

    #[test]
    #[should_panic(expected = "already has an MSHR")]
    fn duplicate_line_panics() {
        let mut f = MshrFile::new(2, 2);
        f.allocate(1, false, Cycle(1));
        f.allocate(1, false, Cycle(1));
    }

    #[test]
    #[should_panic(expected = "MSHR file full")]
    fn over_allocate_panics() {
        let mut f = MshrFile::new(1, 2);
        f.allocate(1, false, Cycle(1));
        f.allocate(2, false, Cycle(1));
    }
}
