//! Reusable event-driven scheduling primitives.
//!
//! Two small structures carry the simulator's "index what's ready, sleep
//! until the next event" architecture:
//!
//! - [`WakeHeap`]: a time-ordered min-heap, FIFO within a cycle. The WPU
//!   keeps its not-yet-ready groups here; each L1 mirrors its outstanding
//!   fill times here; [`EventQueue`](crate::EventQueue) is a thin wrapper
//!   over it.
//! - [`ReadyRing`]: a fixed-capacity bitset with a circular
//!   next-from-cursor scan, giving round-robin selection over the set of
//!   currently-issuable groups in O(words) instead of O(groups) with a
//!   per-element predicate. The WPU also uses it as a plain slab-slot set
//!   (each warp's live groups, the free slots), walked in ascending order
//!   with [`ReadyRing::iter`] or, while mutating, by stepping
//!   [`ReadyRing::next_at_or_after`].
//!
//! Both are allocation-quiet in steady state: `WakeHeap` reuses its
//! `BinaryHeap` capacity and `ReadyRing` only grows when the backing slab
//! does.

use crate::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending wakeup: ready time, insertion sequence number, payload.
struct WakeEntry<T> {
    at: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for WakeEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for WakeEntry<T> {}

impl<T> PartialOrd for WakeEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for WakeEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // cycle, the first-inserted) entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of `(wake cycle, payload)` pairs, FIFO within a cycle.
///
/// # Example
///
/// ```
/// use dws_engine::{Cycle, WakeHeap};
///
/// let mut h = WakeHeap::new();
/// h.push(Cycle(9), 'b');
/// h.push(Cycle(3), 'a');
/// assert_eq!(h.next_at(), Some(Cycle(3)));
/// assert_eq!(h.pop(), Some((Cycle(3), 'a')));
/// assert_eq!(h.pop(), Some((Cycle(9), 'b')));
/// assert_eq!(h.pop(), None);
/// ```
pub struct WakeHeap<T> {
    heap: BinaryHeap<WakeEntry<T>>,
    next_seq: u64,
}

impl<T> Default for WakeHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WakeHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        WakeHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to wake at cycle `at`.
    pub fn push(&mut self, at: Cycle, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(WakeEntry { at, seq, payload });
    }

    /// The earliest entry without removing it.
    pub fn peek(&self) -> Option<(Cycle, &T)> {
        self.heap.peek().map(|e| (e.at, &e.payload))
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Removes and returns the earliest entry if it is due at or before
    /// `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.heap.peek().map(|e| e.at <= now).unwrap_or(false) {
            self.pop()
        } else {
            None
        }
    }

    /// The wake time of the earliest entry, if any.
    pub fn next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> std::fmt::Debug for WakeHeap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeHeap")
            .field("pending", &self.heap.len())
            .field("next_at", &self.next_at())
            .finish()
    }
}

/// A bitset over slab indices with a circular next-from-cursor scan.
///
/// The WPU keeps the set of currently-issuable groups here; round-robin
/// selection is [`next_from`](Self::next_from), which visits indices
/// `cursor, cursor+1, ..., len-1, 0, ..., cursor-1` and returns the first
/// member — exactly the order of a modular slab scan, without touching the
/// groups themselves.
///
/// # Example
///
/// ```
/// use dws_engine::ReadyRing;
///
/// let mut r = ReadyRing::new();
/// r.grow_to(8);
/// r.insert(1);
/// r.insert(6);
/// assert_eq!(r.next_from(2), Some(6)); // wraps past 7 back to 1 if needed
/// assert_eq!(r.next_from(7), Some(1));
/// r.remove(6);
/// assert_eq!(r.next_from(2), Some(1));
/// ```
#[derive(Default, Clone)]
pub struct ReadyRing {
    words: Vec<u64>,
    /// Capacity in bits (the backing slab's length).
    len: usize,
}

impl ReadyRing {
    /// Creates an empty ring of capacity 0 (grow with
    /// [`grow_to`](Self::grow_to)).
    pub fn new() -> Self {
        ReadyRing::default()
    }

    /// Ensures the ring covers indices `0..n`. Never shrinks.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.len {
            self.len = n;
            let words = n.div_ceil(64);
            if words > self.words.len() {
                self.words.resize(words, 0);
            }
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Adds index `i` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the grown capacity.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "ReadyRing index {i} >= capacity {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes index `i` from the set (no-op when absent or out of range).
    pub fn remove(&mut self, i: usize) {
        if i < self.len {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Whether index `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every member, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// The first member at or after `cursor`, wrapping around — the member
    /// a circular scan starting at `cursor % capacity` would find first.
    pub fn next_from(&self, cursor: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let cursor = cursor % self.len;
        self.scan(cursor, self.len).or_else(|| self.scan(0, cursor))
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i
                })
            })
        })
    }

    /// The first member at or after `from`, without wrapping: stepping
    /// `from` past each result visits the members in ascending order.
    pub fn next_at_or_after(&self, from: usize) -> Option<usize> {
        self.scan(from, self.len)
    }

    /// First member in `[from, to)`, by word-level scan.
    fn scan(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let first_word = from / 64;
        let last_word = (to - 1) / 64;
        for wi in first_word..=last_word {
            let mut w = self.words[wi];
            if wi == first_word {
                w &= !0u64 << (from % 64);
            }
            if wi == last_word && !to.is_multiple_of(64) {
                w &= (1u64 << (to % 64)) - 1;
            }
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

impl std::fmt::Debug for ReadyRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyRing")
            .field("capacity", &self.len)
            .field("count", &self.count())
            .finish()
    }
}

/// Result of a component's compute phase: the part of a tick that touches
/// only the component's own state.
///
/// `Complete` carries the tick's summary; `NeedsCommit` means the
/// component reached its first shared-system interaction and parked the
/// rest of the tick until its commit phase runs with exclusive access to
/// the shared system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase<T> {
    /// The tick finished entirely inside component-local state.
    Complete(T),
    /// The tick is suspended at a buffered shared-system intent; the
    /// caller must invoke `commit` with exclusive access to the system.
    NeedsCommit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_heap_orders_by_time_then_fifo() {
        let mut h = WakeHeap::new();
        h.push(Cycle(5), "late");
        h.push(Cycle(2), "first");
        h.push(Cycle(2), "second");
        h.push(Cycle(9), "latest");
        assert_eq!(h.len(), 4);
        assert_eq!(h.peek(), Some((Cycle(2), &"first")));
        assert_eq!(h.pop(), Some((Cycle(2), "first")));
        assert_eq!(h.pop(), Some((Cycle(2), "second")));
        assert_eq!(h.pop(), Some((Cycle(5), "late")));
        assert_eq!(h.pop(), Some((Cycle(9), "latest")));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn wake_heap_pop_ready_respects_now() {
        let mut h = WakeHeap::new();
        h.push(Cycle(10), 'a');
        h.push(Cycle(20), 'b');
        assert_eq!(h.pop_ready(Cycle(9)), None);
        assert_eq!(h.pop_ready(Cycle(10)), Some((Cycle(10), 'a')));
        assert_eq!(h.pop_ready(Cycle(15)), None);
        assert_eq!(h.next_at(), Some(Cycle(20)));
        assert_eq!(h.pop_ready(Cycle(100)), Some((Cycle(20), 'b')));
    }

    #[test]
    fn wake_heap_fifo_survives_interleaved_push_pop() {
        let mut h = WakeHeap::new();
        h.push(Cycle(1), 0);
        assert_eq!(h.pop(), Some((Cycle(1), 0)));
        h.push(Cycle(3), 1);
        h.push(Cycle(3), 2);
        h.push(Cycle(2), 3);
        let order: Vec<i32> = std::iter::from_fn(|| h.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn wake_heap_clear_keeps_working() {
        let mut h = WakeHeap::new();
        for i in 0..100 {
            h.push(Cycle(i), i);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.next_at(), None);
        h.push(Cycle(7), 42);
        assert_eq!(h.pop(), Some((Cycle(7), 42)));
    }

    #[test]
    fn ready_ring_empty_and_zero_capacity() {
        let r = ReadyRing::new();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.next_from(0), None);
        assert_eq!(r.next_from(5), None);
        assert!(!r.contains(0));
    }

    #[test]
    fn ready_ring_insert_remove_contains() {
        let mut r = ReadyRing::new();
        r.grow_to(130);
        for i in [0, 63, 64, 65, 127, 128, 129] {
            r.insert(i);
            assert!(r.contains(i));
        }
        assert_eq!(r.count(), 7);
        r.remove(64);
        assert!(!r.contains(64));
        assert_eq!(r.count(), 6);
        r.remove(500); // out of range: no-op
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 130, "clear keeps capacity");
    }

    #[test]
    fn ready_ring_next_from_matches_modular_scan() {
        // Differential check against the reference modular scan the WPU
        // scheduler used before the ring existed.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 7, 63, 64, 65, 130] {
            let mut r = ReadyRing::new();
            r.grow_to(n);
            let mut set = vec![false; n];
            for _ in 0..200 {
                let i = rng() as usize % n;
                if rng() % 2 == 0 {
                    r.insert(i);
                    set[i] = true;
                } else {
                    r.remove(i);
                    set[i] = false;
                }
                let cursor = rng() as usize % (n + 1);
                let reference = (0..n).map(|off| (cursor + off) % n).find(|&i| set[i % n]);
                assert_eq!(r.next_from(cursor), reference, "n={n} cursor={cursor}");
            }
        }
    }

    #[test]
    fn ready_ring_ascending_walk_visits_every_member_once() {
        let mut r = ReadyRing::new();
        r.grow_to(200);
        let members = [0, 5, 63, 64, 127, 128, 199];
        members.iter().for_each(|&i| r.insert(i));
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = r.next_at_or_after(from) {
            seen.push(i);
            from = i + 1;
        }
        assert_eq!(seen, members);
        assert_eq!(r.iter().collect::<Vec<_>>(), members);
        assert_eq!(r.next_at_or_after(200), None);
        assert_eq!(r.next_at_or_after(1_000), None);
    }

    #[test]
    fn ready_ring_grow_preserves_members() {
        let mut r = ReadyRing::new();
        r.grow_to(4);
        r.insert(3);
        r.grow_to(100);
        assert!(r.contains(3));
        r.insert(99);
        assert_eq!(r.next_from(4), Some(99));
        assert_eq!(r.next_from(0), Some(3));
    }
}
