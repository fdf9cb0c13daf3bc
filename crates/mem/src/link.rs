//! Occupancy-based models of the L1<->L2 crossbar and the DRAM channel.
//!
//! Both are modeled as a bandwidth-limited pipe with a fixed wire latency.
//! Bandwidth is accounted with *epoch buckets*: time is divided into short
//! epochs, each with `epoch_cycles x bytes_per_cycle` bytes of capacity; a
//! transfer consumes capacity starting at its submission epoch, spilling
//! into later epochs when the pipe is saturated. Unlike a single
//! `busy_until` pointer, this is insensitive to the order in which
//! transfers are *scheduled* (the analytic hierarchy schedules a response
//! far in the future before it schedules the next request "now"), while
//! still enforcing the paper's 57 GB/s crossbar and 16 GB/s memory-bus
//! limits under load.
//!
//! # The epoch ring
//!
//! The buckets live in a dense ring: `ring[i]` is the bytes consumed in
//! epoch `base + i`, so finding a transfer's bucket is a subtraction and a
//! spill walks adjacent words. Invariants:
//!
//! - every epoch in `base..base + ring.len()` has a slot; an epoch outside
//!   that range has consumed nothing (the ring grows at either end on
//!   demand, zero-filled, and `base` is re-anchored whenever it is empty);
//! - `present` is the number of non-zero slots — the epochs a sparse map
//!   would hold an entry for;
//! - a slot never exceeds the epoch capacity.
//!
//! Old epochs are forgotten by one rule, which callers' timing depends on
//! and which any replacement must reproduce exactly: after a transfer
//! submitted at `now`, *if more than 4096 epochs (`PRUNE_ABOVE`) are present*,
//! every epoch before `now / 32 - 64` is dropped. A transfer submitted
//! into a dropped epoch afterwards sees it empty. Pruning eagerly (on every
//! transfer) is not equivalent: a response scheduled thousands of cycles
//! ahead under DRAM queueing would drop epochs that requests submitted
//! "now" still have to queue in (it changes cycles on 32-WPU machines).
//! Under steady traffic the ring therefore holds between ~64 and
//! ~4096 words plus the look-ahead of the furthest response;
//! sparse traffic leaves zero words between its epochs, and the ring
//! spans them (3.5 k to 13 k words, 28 to 104 KB, across the eight
//! kernels at bench scale; the sorted vector held up to 64 KB).

use dws_engine::stats::Counter;
use dws_engine::Cycle;
use std::collections::VecDeque;

/// Cycles per bandwidth-accounting epoch.
const EPOCH_CYCLES: u64 = 32;

/// Epochs with traffic a link remembers before it prunes.
const PRUNE_ABOVE: usize = 4096;

/// Epochs behind the submitting transfer a prune keeps.
const PRUNE_KEEP: u64 = 64;

/// A bandwidth-limited, fixed-latency link.
#[derive(Debug, Clone)]
pub struct Link {
    latency: u64,
    bytes_per_cycle: u64,
    /// Bytes consumed per epoch, from epoch `base` (see the module docs).
    ring: VecDeque<u64>,
    base: u64,
    /// Non-zero slots of `ring`.
    present: usize,
    /// Transfers performed.
    pub transfers: Counter,
    /// Bytes moved.
    pub bytes_moved: Counter,
    /// Total cycles transfers were delayed beyond their uncontended time.
    pub queue_cycles: Counter,
}

impl Link {
    /// Creates a link with `latency` cycles of wire delay and
    /// `bytes_per_cycle` of bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(latency: u64, bytes_per_cycle: u64) -> Self {
        assert!(bytes_per_cycle > 0, "bandwidth must be positive");
        Link {
            latency,
            bytes_per_cycle,
            ring: VecDeque::new(),
            base: 0,
            present: 0,
            transfers: Counter::new(),
            bytes_moved: Counter::new(),
            queue_cycles: Counter::new(),
        }
    }

    /// Ring index of `epoch`, growing the ring (zero-filled) to cover it.
    fn slot(&mut self, epoch: u64) -> usize {
        if self.ring.is_empty() {
            self.base = epoch;
        }
        while epoch < self.base {
            self.ring.push_front(0);
            self.base -= 1;
        }
        let i = (epoch - self.base) as usize;
        while self.ring.len() <= i {
            self.ring.push_back(0);
        }
        i
    }

    /// Schedules a transfer of `bytes` submitted at `now`; returns the cycle
    /// at which the payload arrives at the far side.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.transfers.incr();
        self.bytes_moved.add(bytes);
        let cap = EPOCH_CYCLES * self.bytes_per_cycle;
        let first = now.raw() / EPOCH_CYCLES;
        // The last epoch the transfer drew from, and its fill level after.
        let (mut last_epoch, mut last_used) = (first, 0);
        if bytes > 0 {
            let mut remaining = bytes;
            let mut i = self.slot(first);
            loop {
                let used = &mut self.ring[i];
                let take = cap.saturating_sub(*used).min(remaining);
                self.present += usize::from(*used == 0 && take > 0);
                *used += take;
                remaining -= take;
                if remaining == 0 {
                    (last_epoch, last_used) = (self.base + i as u64, *used);
                    break;
                }
                i += 1;
                if i == self.ring.len() {
                    self.ring.push_back(0);
                }
            }
        }
        // Uncontended completion plus any contention spill.
        let ideal_done = now + bytes.div_ceil(self.bytes_per_cycle);
        let bucket_done = Cycle(
            last_epoch * EPOCH_CYCLES + last_used.div_ceil(self.bytes_per_cycle).min(EPOCH_CYCLES),
        );
        let done = ideal_done.max(bucket_done);
        self.queue_cycles.add(done - ideal_done);
        if self.present > PRUNE_ABOVE {
            let cutoff = first.saturating_sub(PRUNE_KEEP);
            while self.base < cutoff {
                let Some(used) = self.ring.pop_front() else {
                    break;
                };
                self.present -= usize::from(used != 0);
                self.base += 1;
            }
        }
        done + self.latency
    }
}

/// The L1<->L2 crossbar (Table 3: 300 MHz, 57 GB/s; expressed here in WPU
/// cycles and bytes/cycle).
pub type Crossbar = Link;

/// The DRAM channel: a [`Link`] for the 16 GB/s memory bus plus the fixed
/// 100-cycle array access latency, with requests pipelined (the paper:
/// "the memory controller is able to pipeline the requests").
#[derive(Debug, Clone)]
pub struct Dram {
    bus: Link,
    access_latency: u64,
    /// Number of DRAM accesses (each costs 220 nJ in the energy model).
    pub accesses: Counter,
}

impl Dram {
    /// Creates a DRAM channel.
    pub fn new(access_latency: u64, bus_bytes_per_cycle: u64) -> Self {
        Dram {
            bus: Link::new(0, bus_bytes_per_cycle),
            access_latency,
            accesses: Counter::new(),
        }
    }

    /// Schedules a line transfer of `bytes` starting at `now`; returns the
    /// completion cycle.
    pub fn access(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.accesses.incr();
        let bus_done = self.bus.transfer(now, bytes);
        bus_done + self.access_latency
    }

    /// Cycles spent queued on the memory bus so far.
    pub fn queue_cycles(&self) -> u64 {
        self.bus.queue_cycles.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_engine::rng::Rng64;

    /// The sorted-vector link the ring replaced, kept as the differential
    /// reference: epoch -> bytes consumed, binary-searched, pruned by the
    /// rule the module docs state.
    struct SortedVecLink {
        latency: u64,
        bytes_per_cycle: u64,
        buckets: Vec<(u64, u64)>,
        queue_cycles: u64,
    }

    impl SortedVecLink {
        fn new(latency: u64, bytes_per_cycle: u64) -> Self {
            SortedVecLink {
                latency,
                bytes_per_cycle,
                buckets: Vec::new(),
                queue_cycles: 0,
            }
        }

        fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
            let cap = EPOCH_CYCLES * self.bytes_per_cycle;
            let mut epoch = now.raw() / EPOCH_CYCLES;
            let mut remaining = bytes;
            let mut last_epoch = epoch;
            let mut last_used = 0u64;
            let mut pos = self.buckets.partition_point(|&(e, _)| e < epoch);
            while remaining > 0 {
                if self.buckets.get(pos).map(|&(e, _)| e) != Some(epoch) {
                    self.buckets.insert(pos, (epoch, 0));
                }
                let used = &mut self.buckets[pos].1;
                let avail = cap.saturating_sub(*used);
                if avail > 0 {
                    let take = avail.min(remaining);
                    *used += take;
                    remaining -= take;
                    last_epoch = epoch;
                    last_used = *used;
                }
                if remaining > 0 {
                    epoch += 1;
                    pos += 1;
                }
            }
            let ideal_done = now + bytes.div_ceil(self.bytes_per_cycle);
            let bucket_done = Cycle(
                last_epoch * EPOCH_CYCLES
                    + last_used.div_ceil(self.bytes_per_cycle).min(EPOCH_CYCLES),
            );
            let done = ideal_done.max(bucket_done);
            self.queue_cycles += done - ideal_done;
            if self.buckets.len() > 4096 {
                let cutoff = (now.raw() / EPOCH_CYCLES).saturating_sub(64);
                let keep_from = self.buckets.partition_point(|&(e, _)| e < cutoff);
                self.buckets.drain(..keep_from);
            }
            done + self.latency
        }
    }

    /// Drives the same submission stream into the ring and the reference;
    /// every arrival time and the queueing total must agree. Returns the
    /// number of prunes the stream caused.
    fn assert_ring_matches_reference(
        latency: u64,
        bytes_per_cycle: u64,
        stream: impl IntoIterator<Item = (u64, u64)>,
    ) -> usize {
        let mut ring = Link::new(latency, bytes_per_cycle);
        let mut reference = SortedVecLink::new(latency, bytes_per_cycle);
        let mut prunes = 0;
        for (n, (now, bytes)) in stream.into_iter().enumerate() {
            let before = reference.buckets.len();
            let expect = reference.transfer(Cycle(now), bytes);
            prunes += usize::from(reference.buckets.len() + 64 < before);
            let got = ring.transfer(Cycle(now), bytes);
            assert_eq!(got, expect, "transfer {n}: {bytes} B at {now}");
            assert_eq!(ring.queue_cycles.get(), reference.queue_cycles);
            assert_eq!(ring.present, reference.buckets.len(), "transfer {n}");
            assert_eq!(ring.transfers.get(), n as u64 + 1);
        }
        prunes
    }

    #[test]
    fn ring_matches_sorted_vector_on_jittered_streams() {
        // Requests "now", responses up to a few thousand cycles ahead,
        // occasional stragglers behind: the hierarchy's submission pattern.
        for seed in 0..8 {
            let mut rng = Rng64::new(seed);
            // Offered load stays under the bandwidth (about 16 B/cycle), so
            // the backlog — and the walk over it — stays short; saturation
            // has its own test below.
            let bpc = [20, 57, 64][seed as usize % 3];
            let mut clock = 5_000u64;
            let stream: Vec<(u64, u64)> = (0..20_000)
                .map(|_| {
                    clock += rng.range_usize(12) as u64;
                    let now = match rng.range_usize(10) {
                        0 => clock - rng.range_usize(3_000) as u64,
                        1..=3 => clock + rng.range_usize(4_000) as u64,
                        _ => clock,
                    };
                    (now, [8, 128, 128, 0, 200][rng.range_usize(5)])
                })
                .collect();
            assert_ring_matches_reference(seed, bpc, stream);
        }
    }

    #[test]
    fn ring_matches_sorted_vector_under_saturation_spill() {
        // 4 B/cycle against bursts of lines: transfers spill tens of epochs
        // ahead of their submission and later ones walk the full stretch.
        let mut rng = Rng64::new(99);
        let mut clock = 0u64;
        let stream: Vec<(u64, u64)> = (0..5_000)
            .map(|_| {
                if rng.chance(0.02) {
                    clock += rng.range_usize(20_000) as u64;
                }
                (clock + rng.range_usize(64) as u64, 128)
            })
            .collect();
        assert_ring_matches_reference(0, 4, stream);
    }

    #[test]
    fn ring_reproduces_the_prune_rule() {
        // One transfer per epoch until more than 4096 are present, some
        // submitted far ahead (so a prune's cutoff passes epochs that later,
        // earlier-stamped transfers come back to) and some behind the
        // cutoff (which must find their epoch forgotten).
        let mut rng = Rng64::new(7);
        let stream: Vec<(u64, u64)> = (0..30_000u64)
            .map(|n| {
                let clock = n * EPOCH_CYCLES;
                let now = match rng.range_usize(8) {
                    0 => clock + rng.range_usize(200) as u64 * EPOCH_CYCLES,
                    1 => clock.saturating_sub(rng.range_usize(300) as u64 * EPOCH_CYCLES),
                    _ => clock,
                };
                (now, 1_500)
            })
            .collect();
        let prunes = assert_ring_matches_reference(4, 57, stream);
        assert!(prunes >= 5, "only {prunes} prunes exercised");
    }

    #[test]
    fn uncontended_transfer_is_latency_plus_occupancy() {
        let mut l = Link::new(4, 57);
        // 128 bytes at 57 B/cyc -> 3 cycles occupancy + 4 latency.
        assert_eq!(l.transfer(Cycle(100), 128), Cycle(107));
        assert_eq!(l.transfers.get(), 1);
        assert_eq!(l.bytes_moved.get(), 128);
        assert_eq!(l.queue_cycles.get(), 0);
    }

    #[test]
    fn saturation_spills_to_later_epochs() {
        let mut l = Link::new(0, 4); // 4 B/cyc -> 128 B per 32-cycle epoch
                                     // Fill the first epoch completely.
        assert_eq!(l.transfer(Cycle(0), 128), Cycle(32));
        // The next transfer must spill into the second epoch.
        let done = l.transfer(Cycle(0), 128);
        assert!(done > Cycle(32), "second transfer spills: {done:?}");
        assert!(l.queue_cycles.get() > 0);
    }

    #[test]
    fn out_of_order_submission_does_not_block_earlier_traffic() {
        let mut l = Link::new(0, 57);
        // A transfer scheduled far in the future...
        let far = l.transfer(Cycle(10_000), 128);
        assert!(far >= Cycle(10_000));
        // ...must not delay one submitted now.
        let near = l.transfer(Cycle(0), 128);
        assert_eq!(near, Cycle(3), "near transfer is uncontended");
    }

    #[test]
    fn bandwidth_is_conserved_under_bursts() {
        let mut l = Link::new(0, 16);
        // 100 lines of 128 B at 16 B/cyc = 800 cycles of occupancy minimum.
        let mut last = Cycle(0);
        for _ in 0..100 {
            last = last.max(l.transfer(Cycle(0), 128));
        }
        assert!(
            last >= Cycle(800),
            "burst must take at least 800 cycles, got {last:?}"
        );
    }

    #[test]
    fn dram_adds_access_latency() {
        let mut d = Dram::new(100, 16);
        // 128 bytes at 16 B/cyc = 8 cycles bus + 100 access.
        assert_eq!(d.access(Cycle(0), 128), Cycle(108));
        assert_eq!(d.accesses.get(), 1);
        // Pipelined: the second access queues only on the bus.
        let second = d.access(Cycle(0), 128);
        assert!(second > Cycle(108));
        assert!(d.queue_cycles() > 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        Link::new(1, 0);
    }
}
