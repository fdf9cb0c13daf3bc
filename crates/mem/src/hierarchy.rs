//! The assembled memory system: private banked L1s, crossbar, shared
//! inclusive L2 with a MESI directory, and DRAM.
//!
//! See the crate-level documentation for the modeling approach. The
//! interface a WPU uses:
//!
//! 1. [`MemorySystem::warp_access`] — present one warp memory instruction's
//!    lane accesses; receive per-lane [`AccessOutcome`]s. Mixed hit/miss
//!    outcomes are exactly the *memory divergence* events that trigger
//!    dynamic warp subdivision.
//! 2. [`MemorySystem::drain_completions`] — each cycle, collect requests
//!    whose data arrived, and wake the threads waiting on them.

use crate::cache::{CacheArray, MesiState};
use crate::config::{CacheConfig, MemConfig};
use crate::link::{Crossbar, Dram};
use crate::mshr::{MshrFile, MshrId};
use dws_engine::fault::{FaultInjector, FaultPlan};
use dws_engine::stats::{Counter, Distribution};
use dws_engine::{Cycle, EventQueue, FastHashMap, WakeHeap};

/// Size of a coherence/request control message on the crossbar, in bytes.
const CTRL_MSG_BYTES: u64 = 8;

/// Salt separating the memory system's fault-draw stream from the WPUs'.
const MEM_FAULT_SALT: u64 = 0x4d45_4d31;

/// Globally unique identifier of one lane's outstanding memory request:
/// the issuing L1's index in the top 16 bits, that L1's issue sequence
/// number below. One L1's ids are therefore dense — the missing lanes of a
/// warp access take one contiguous range, the next access continues from
/// it — so a requester can index its outstanding requests by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read one word.
    Load,
    /// Write one word (write-back, write-allocate).
    Store,
}

/// One lane's access within a warp memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    /// Lane index within the warp (0-based).
    pub lane: usize,
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

/// Outcome of one lane's access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access hit; the value is available at `ready_at`.
    Hit {
        /// Cycle at which the data is available (includes bank queueing).
        ready_at: Cycle,
    },
    /// The access missed; completion arrives later tagged with `request`.
    Miss {
        /// Token delivered by [`MemorySystem::drain_completions`].
        request: RequestId,
    },
}

/// Per-lane outcome, aligned with the input access order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOutcome {
    /// Lane index (copied from the request).
    pub lane: usize,
    /// Hit or miss.
    pub outcome: AccessOutcome,
}

/// A completed miss, delivered when its fill arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Which L1 (== WPU) the request belonged to.
    pub l1: usize,
    /// The request token returned by [`MemorySystem::warp_access`].
    pub request: RequestId,
    /// The cycle the fill completed.
    pub at: Cycle,
}

/// The most L1s a machine can have: the width of a directory sharer set.
pub const MAX_L1S: usize = 128;

/// The set of L1s holding a line, one bit per L1. Two words rather than a
/// `u128` so a directory entry stays 8-byte aligned and its map slot 32
/// bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sharers([u64; MAX_L1S / 64]);

impl Sharers {
    fn only(l1: usize) -> Self {
        let mut s = Sharers::default();
        s.insert(l1);
        s
    }

    fn insert(&mut self, l1: usize) {
        self.0[l1 / 64] |= 1 << (l1 % 64);
    }

    fn remove(&mut self, l1: usize) {
        self.0[l1 / 64] &= !(1 << (l1 % 64));
    }

    fn without(mut self, l1: usize) -> Self {
        self.remove(l1);
        self
    }

    fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Members in ascending order.
    fn iter(self) -> impl Iterator<Item = usize> {
        self.0.into_iter().enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// Directory entry for an L2-resident line.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// L1s holding the line.
    sharers: Sharers,
    /// L1 holding the line in M/E, if any.
    owner: Option<u8>,
}

impl DirEntry {
    fn owner(&self) -> Option<usize> {
        self.owner.map(usize::from)
    }

    fn set_owner(&mut self, l1: usize) {
        self.owner = Some(l1 as u8);
    }
}

struct L1 {
    array: CacheArray,
    mshrs: MshrFile,
    /// Mirror of this L1's outstanding fill times (a per-L1 view of the
    /// global event list), so the run loop can wake one WPU at a time.
    fills: WakeHeap<()>,
    /// MSHR entries released so far. Releases are the only events that can
    /// turn a refused warp access into an accepted one
    /// ([`MemorySystem::would_reject`]), so refused groups key their retry
    /// on this count ([`MemorySystem::l1_releases`]).
    releases: u64,
    /// The MSHR deficit of the last warp access this L1 refused
    /// ([`MemorySystem::refusal_deficit`]).
    refused_deficit: usize,
    /// The next request id this L1 hands out.
    next_req: u64,
}

struct L2 {
    array: CacheArray,
    dir: FastHashMap<u64, DirEntry>,
    /// Analytic MSHR occupancy: when each entry frees.
    mshr_free_at: Vec<Cycle>,
    /// Lines currently being fetched from DRAM -> fill time, so concurrent
    /// requesters observe the in-flight fill instead of a fresh DRAM trip.
    inflight: FastHashMap<u64, Cycle>,
    cfg: CacheConfig,
}

/// Aggregate counters for the whole memory system (consumed by the energy
/// model and the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// L1 D-cache lane accesses (after intra-line coalescing: unique lines).
    pub l1d_line_accesses: Counter,
    /// L1 D-cache lane-level accesses before coalescing.
    pub l1d_lane_accesses: Counter,
    /// L1 D-cache line-level hits.
    pub l1d_hits: Counter,
    /// L1 D-cache line-level misses (primary; secondary merges excluded).
    pub l1d_misses: Counter,
    /// Misses merged into an existing MSHR.
    pub l1d_mshr_merges: Counter,
    /// Store upgrades of Shared lines.
    pub upgrades: Counter,
    /// Warp accesses rejected for lack of MSHR resources.
    pub rejections: Counter,
    /// Cycles lost to L1 bank conflicts (summed over lanes).
    pub bank_conflict_cycles: Counter,
    /// Requests processed by the L2.
    pub l2_accesses: Counter,
    /// L2 hits.
    pub l2_hits: Counter,
    /// L2 misses (DRAM fetches, including those that piggyback in-flight).
    pub l2_misses: Counter,
    /// Dirty L1 lines written back to L2.
    pub l1_writebacks: Counter,
    /// Dirty L2 lines written back to DRAM.
    pub l2_writebacks: Counter,
    /// Invalidations sent to L1s by the directory.
    pub invalidations: Counter,
    /// Owner flushes (dirty data forwarded through the L2).
    pub owner_flushes: Counter,
    /// L1 instruction-cache fetches.
    pub l1i_fetches: Counter,
    /// L1 instruction-cache misses.
    pub l1i_misses: Counter,
    /// DRAM line accesses.
    pub dram_accesses: Counter,
    /// Bytes moved over the crossbar.
    pub crossbar_bytes: Counter,
    /// Memory-level parallelism: the number of in-flight line fills,
    /// sampled whenever a new L1 miss is issued (the paper's MLP argument:
    /// DWS raises this by letting run-ahead splits issue misses early).
    pub mlp: Distribution,
}

/// One L1-D line touched by a warp access (grouping pass).
#[derive(Debug, Clone, Copy)]
struct LineGroup {
    line: u64,
    any_store: bool,
    /// Lanes of the access that fall in this line.
    lanes: u32,
}

/// What the feasibility pass found for a line group, replayed by the apply
/// pass without re-scanning the set or re-hashing the line.
#[derive(Debug, Clone, Copy)]
struct GroupLookup {
    state: MesiState,
    way: Option<usize>,
    /// The line's outstanding MSHR (not looked up when the line hits).
    /// Still exact when the group is applied — entries are only released
    /// by a drain, and the groups applied before it allocate for other
    /// lines.
    mshr: Option<MshrId>,
}

/// Whether an access to a line in `state` (a store, if `any_store`) hits.
fn line_hits(state: MesiState, any_store: bool) -> bool {
    state.valid() && (!any_store || state.writable())
}

/// What the apply pass resolved a line group to, consumed lane by lane.
#[derive(Debug, Clone, Copy)]
struct GroupOutcome {
    /// The request id the group's next missing lane takes; `None` when the
    /// line hit.
    next_req: Option<u64>,
    /// Words of the line some earlier lane touched. A word can only repeat
    /// inside its own line, so this answers "seen before?" for the
    /// bank-conflict model.
    seen_words: u64,
}

/// Reusable per-call buffers for [`MemorySystem::warp_access_into`]. These
/// keep the per-instruction hot path free of heap allocation: the struct is
/// `take`n at entry and put back at exit, so capacity persists across
/// calls. One vector per pass, parallel by group, so a refused access only
/// writes what the passes it reached produce.
#[derive(Default)]
struct WarpScratch {
    /// Distinct lines touched this access, in first-appearance order.
    groups: Vec<LineGroup>,
    /// For each access index, the index of its line group.
    lane_group: Vec<u32>,
    lookups: Vec<GroupLookup>,
    outcomes: Vec<GroupOutcome>,
    /// Bank delay of each word seen so far, at `group * words_per_line +
    /// word_in_line`; valid where the group's `seen_words` bit is set.
    word_delay: Vec<u64>,
    /// Distinct words seen so far per bank.
    bank_count: Vec<u64>,
}

/// The full memory system shared by all WPUs.
pub struct MemorySystem {
    cfg: MemConfig,
    l1s: Vec<L1>,
    l2: L2,
    xbar: Crossbar,
    dram: Dram,
    events: EventQueue<(usize, MshrId)>,
    stats: MemStats,
    scratch: WarpScratch,
    /// `log2(l1d.line_bytes)` when that is a power of two, so the per-lane
    /// address-to-line conversion is a shift instead of a 64-bit divide.
    l1d_shift: Option<u32>,
    /// `l1d.banks - 1` when that is a power of two, so the per-lane
    /// word-to-bank conversion is a mask.
    l1d_bank_mask: Option<u64>,
    /// Deterministic timing-fault injection; `None` outside chaos runs.
    fault: Option<FaultInjector>,
    /// Run the fill-mirror invariant check even in release builds
    /// (`DWS_SANITIZE=1`); latched at construction.
    strict_checks: bool,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("n_l1s", &self.l1s.len())
            .field("pending_fills", &self.events.len())
            .finish()
    }
}

impl MemorySystem {
    /// Builds the hierarchy for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on more than 128 L1s (the directory's sharer sets are that
    /// wide), or on an L1-D line that is not 1 to 64 whole words.
    pub fn new(cfg: MemConfig) -> Self {
        assert!(
            cfg.n_l1s <= MAX_L1S,
            "{} L1s exceed the directory's {MAX_L1S}-wide sharer sets",
            cfg.n_l1s
        );
        assert!(
            cfg.l1d.line_bytes.is_multiple_of(8) && (8..=512).contains(&cfg.l1d.line_bytes),
            "an L1-D line must hold 1 to 64 whole words, not {} bytes",
            cfg.l1d.line_bytes
        );
        let l1s = (0..cfg.n_l1s as u64)
            .map(|i| L1 {
                array: CacheArray::new(&cfg.l1d),
                mshrs: MshrFile::new(cfg.l1d.mshrs, cfg.l1d.mshr_targets),
                fills: WakeHeap::new(),
                releases: 0,
                refused_deficit: 0,
                next_req: i << 48,
            })
            .collect();
        let l2 = L2 {
            array: CacheArray::new(&cfg.l2),
            dir: FastHashMap::default(),
            mshr_free_at: vec![Cycle::ZERO; cfg.l2.mshrs],
            inflight: FastHashMap::default(),
            cfg: cfg.l2,
        };
        MemorySystem {
            l1s,
            l2,
            xbar: Crossbar::new(cfg.crossbar_latency, cfg.crossbar_bytes_per_cycle),
            dram: Dram::new(cfg.dram_latency, cfg.dram_bytes_per_cycle),
            events: EventQueue::new(),
            stats: MemStats::default(),
            scratch: WarpScratch::default(),
            l1d_shift: cfg
                .l1d
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.l1d.line_bytes.trailing_zeros()),
            l1d_bank_mask: cfg
                .l1d
                .banks
                .is_power_of_two()
                .then(|| cfg.l1d.banks as u64 - 1),
            fault: None,
            strict_checks: cfg!(debug_assertions) || dws_engine::sanitize::enabled(),
            cfg,
        }
    }

    /// Arms deterministic fault injection. Call before any traffic flows;
    /// a zero-fault plan installs nothing and leaves timing untouched.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan.injector(MEM_FAULT_SALT);
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// The L1-D line number `addr` falls in.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        match self.l1d_shift {
            Some(s) => addr >> s,
            None => addr / self.cfg.l1d.line_bytes,
        }
    }

    /// Presents one warp memory instruction (the active lanes' addresses)
    /// to L1 `l1`. Returns per-lane outcomes in input order, or `None` if
    /// MSHR resources are exhausted (no state is modified in that case) —
    /// the WPU re-presents the instruction once enough MSHRs have been
    /// released ([`would_reject`](Self::would_reject)).
    ///
    /// # Panics
    ///
    /// Panics if `l1` is out of range or `accesses` is empty.
    pub fn warp_access(
        &mut self,
        now: Cycle,
        l1: usize,
        accesses: &[LaneAccess],
    ) -> Option<Vec<LaneOutcome>> {
        let mut out = Vec::new();
        self.warp_access_into(now, l1, accesses, &mut out)
            .then_some(out)
    }

    /// Groups `accesses` by L1-D line into `s`, preserving first-appearance
    /// order. Neighbouring lanes usually share a line, so the previous
    /// lane's group is tried first; warp width is small (<= 64), so the
    /// fallback linear scan beats hashing.
    fn group_by_line(&self, accesses: &[LaneAccess], s: &mut WarpScratch) {
        s.groups.clear();
        s.lane_group.clear();
        let mut g = 0;
        for a in accesses {
            let line = self.line_of(a.addr);
            if s.groups.get(g).is_none_or(|grp| grp.line != line) {
                g = match s.groups.iter().position(|grp| grp.line == line) {
                    Some(g) => g,
                    None => {
                        s.groups.push(LineGroup {
                            line,
                            any_store: false,
                            lanes: 0,
                        });
                        s.groups.len() - 1
                    }
                };
            }
            let grp = &mut s.groups[g];
            grp.any_store |= a.kind == AccessKind::Store;
            grp.lanes += 1;
            s.lane_group.push(g as u32);
        }
    }

    /// Feasibility check (no mutation of the model) over the line groups in
    /// `s`, with `withheld` MSHRs hidden by fault injection: `None` when
    /// the access fits, else its MSHR deficit as [`would_reject`]
    /// (Self::would_reject) defines it. Records each group's tag lookup and
    /// outstanding MSHR in `s.lookups`, for the apply pass to replay.
    fn mshr_deficit(&self, l1: usize, s: &mut WarpScratch, withheld: usize) -> Option<usize> {
        let l1c = &self.l1s[l1];
        s.lookups.clear();
        let mut fresh_needed = 0usize;
        for grp in &s.groups {
            let (state, way) = l1c.array.lookup(grp.line);
            let mut found = GroupLookup {
                state,
                way,
                mshr: None,
            };
            if !line_hits(state, grp.any_store) {
                found.mshr = l1c.mshrs.find(grp.line);
                match found.mshr {
                    // The entry's target list only grows until it is released.
                    Some(id) if !l1c.mshrs.can_merge(id, grp.lanes as usize) => return Some(1),
                    Some(_) => {}
                    None => fresh_needed += 1,
                }
            }
            s.lookups.push(found);
        }
        let in_use = l1c.mshrs.in_use();
        let free = l1c.mshrs.capacity() - in_use;
        (fresh_needed > free.saturating_sub(withheld))
            .then(|| fresh_needed.saturating_sub(free).max(1).min(in_use))
    }

    /// Whether L1 `l1` would refuse `accesses` for lack of MSHR resources
    /// right now (fault-injected withholding aside), without touching the
    /// model: `Some(deficit)` if so, where `deficit` entries of this L1 must
    /// be released before the same access can be accepted. Sound because
    /// nothing else helps (DESIGN §9): accepted accesses take entries, and
    /// evictions, invalidations and downgrades only turn hits into misses.
    /// A capacity refusal lacks `fresh lines needed - free entries`; a full
    /// target list clears when its own entry is released, so it reports 1.
    /// Capped at the entries in use: once they drain nothing can change.
    pub fn would_reject(&mut self, l1: usize, accesses: &[LaneAccess]) -> Option<usize> {
        let mut s = std::mem::take(&mut self.scratch);
        self.group_by_line(accesses, &mut s);
        let deficit = self.mshr_deficit(l1, &mut s, 0);
        self.scratch = s;
        deficit
    }

    /// Allocation-free form of [`warp_access`](Self::warp_access): outcomes
    /// are written into the caller-owned `out` (cleared first, then one
    /// entry per access in input order). Returns `false` — with `out` left
    /// empty and no state modified — when MSHR resources are exhausted.
    ///
    /// Group-major: one pass groups the lanes by line, one checks that
    /// every line group fits, one applies each group (tag touch, then a hit
    /// or an MSHR allocation/merge that takes the group's request ids as
    /// one contiguous range), and one walks the lanes in input order for
    /// the bank-conflict model and writes `out`.
    ///
    /// # Panics
    ///
    /// Panics if `l1` is out of range or `accesses` is empty.
    pub fn warp_access_into(
        &mut self,
        now: Cycle,
        l1: usize,
        accesses: &[LaneAccess],
        out: &mut Vec<LaneOutcome>,
    ) -> bool {
        assert!(!accesses.is_empty(), "warp access with no lanes");
        assert!(l1 < self.l1s.len(), "L1 index out of range");
        out.clear();

        // Borrow the scratch buffers out of `self` so the passes below can
        // still use `self` freely; put back (with capacity intact) at exit.
        let mut s = std::mem::take(&mut self.scratch);
        self.group_by_line(accesses, &mut s);

        // Fault injection: transiently withhold MSHR entries, forcing
        // spurious back-pressure rejections. Only while fills are already
        // outstanding (`in_use > 0`): an outstanding fill guarantees a
        // release, which the caller's retry certificate waits for at most
        // `in_use` of before a fresh draw, so forward progress is preserved.
        let withheld = match &mut self.fault {
            Some(f) if self.l1s[l1].mshrs.in_use() > 0 => f.mshr_withhold(),
            _ => 0,
        };

        let deficit = self.mshr_deficit(l1, &mut s, withheld);
        match deficit {
            None => self.apply_accepted(now, l1, accesses, &mut s, out),
            Some(deficit) => {
                self.stats.rejections.incr();
                self.l1s[l1].refused_deficit = deficit;
            }
        }
        self.scratch = s;
        deficit.is_none()
    }

    /// How many MSHR releases at L1 `l1` the warp access it last refused
    /// has to wait for: what [`would_reject`](Self::would_reject) says of
    /// that access at that moment, or 1 when only fault injection's
    /// withheld entries explain the refusal (the access would fit; the next
    /// release forces a fresh draw). Spares the refused caller a second
    /// grouping and feasibility pass.
    pub fn refusal_deficit(&self, l1: usize) -> usize {
        self.l1s[l1].refused_deficit
    }

    /// The apply and lane passes of an accepted access. Out of line, so
    /// the refusal path of `warp_access_into` — what a group spinning on
    /// back-pressure re-runs — stays as small as `would_reject`.
    #[inline(never)]
    fn apply_accepted(
        &mut self,
        now: Cycle,
        l1: usize,
        accesses: &[LaneAccess],
        s: &mut WarpScratch,
        out: &mut Vec<LaneOutcome>,
    ) {
        s.outcomes.clear();
        for (&grp, &found) in s.groups.iter().zip(&s.lookups) {
            s.outcomes.push(GroupOutcome {
                next_req: self.apply_line_group(now, l1, grp, found),
                seen_words: 0,
            });
        }
        self.finish_lanes(now, accesses, s, out);
    }

    /// Applies one accepted line group to L1 `l1`: the LRU/statistics side
    /// of its tag probe, then either a hit (`None`) or a miss whose lanes
    /// take the returned request id and its `grp.lanes - 1` successors.
    fn apply_line_group(
        &mut self,
        now: Cycle,
        l1: usize,
        grp: LineGroup,
        found: GroupLookup,
    ) -> Option<u64> {
        let LineGroup {
            line, any_store, ..
        } = grp;
        self.stats.l1d_line_accesses.incr();
        let state = self.l1s[l1].array.touch(line, found.way);
        if line_hits(state, any_store) {
            self.stats.l1d_hits.incr();
            // Store to E silently upgrades to M.
            if any_store && state == MesiState::Exclusive {
                self.l1s[l1].array.set_state(line, MesiState::Modified);
            }
            return None;
        }

        // A line that hit in the feasibility pass can still miss here: an
        // earlier group's L2 eviction back-invalidated it. Its MSHR was
        // never looked up.
        let outstanding = if line_hits(found.state, any_store) {
            self.l1s[l1].mshrs.find(line)
        } else {
            found.mshr
        };
        let mshr_id = match outstanding {
            Some(id) => {
                self.stats.l1d_mshr_merges.incr();
                if any_store && !self.l1s[l1].mshrs.get(id).exclusive {
                    // Late upgrade: claim exclusivity now; invalidate
                    // other sharers through the directory (no extra
                    // latency charged — the window is a few cycles).
                    self.l1s[l1].mshrs.set_exclusive(id);
                    self.invalidate_other_sharers(line, l1);
                }
                id
            }
            None => {
                self.stats.l1d_misses.incr();
                let upgrade = state == MesiState::Shared && any_store;
                if upgrade {
                    self.stats.upgrades.incr();
                }
                let mut fill_at = self.process_l2_request(now, l1, line, any_store, upgrade);
                if let Some(f) = &mut self.fault {
                    fill_at += f.fill_jitter();
                }
                let id = self.l1s[l1].mshrs.allocate(line, any_store, fill_at);
                if upgrade {
                    self.l1s[l1].mshrs.set_upgrade(id);
                }
                self.events.push(fill_at, (l1, id));
                self.l1s[l1].fills.push(fill_at, ());
                self.stats.mlp.record(self.events.len() as f64);
                id
            }
        };
        let l1c = &mut self.l1s[l1];
        let first = l1c.next_req;
        l1c.next_req += u64::from(grp.lanes);
        l1c.mshrs
            .add_targets(mshr_id, (first..l1c.next_req).map(RequestId));
        Some(first)
    }

    /// The lane pass of an accepted access: bank queueing in input order,
    /// then each lane's outcome from what its line group resolved to.
    ///
    /// Unique words per bank serialize: the delay of a word is its rank
    /// among the distinct same-bank words before it, and a repeated word
    /// reuses the delay of its first appearance.
    fn finish_lanes(
        &mut self,
        now: Cycle,
        accesses: &[LaneAccess],
        s: &mut WarpScratch,
        out: &mut Vec<LaneOutcome>,
    ) {
        let banks = self.cfg.l1d.banks as u64;
        let penalty = self.cfg.bank_conflict_penalty;
        let words_per_line = (self.cfg.l1d.line_bytes / 8) as usize;
        let hit_at = now + self.cfg.l1d.hit_latency;
        s.bank_count.clear();
        s.bank_count.resize(self.cfg.l1d.banks, 0);
        if s.word_delay.len() < s.groups.len() * words_per_line {
            s.word_delay.resize(s.groups.len() * words_per_line, 0);
        }
        let mut conflict_cycles = 0;
        out.reserve(accesses.len());
        for (a, &g) in accesses.iter().zip(&s.lane_group) {
            let resolved = &mut s.outcomes[g as usize];
            let word = a.addr / 8;
            let in_line = (word - s.groups[g as usize].line * words_per_line as u64) as usize;
            let memo = &mut s.word_delay[g as usize * words_per_line + in_line];
            if resolved.seen_words & (1 << in_line) == 0 {
                resolved.seen_words |= 1 << in_line;
                let bank = match self.l1d_bank_mask {
                    Some(m) => word & m,
                    None => word % banks,
                } as usize;
                *memo = s.bank_count[bank] * penalty;
                s.bank_count[bank] += 1;
            }
            let delay = *memo;
            conflict_cycles += delay;
            let outcome = match &mut resolved.next_req {
                None => AccessOutcome::Hit {
                    ready_at: hit_at + delay,
                },
                Some(next) => {
                    *next += 1;
                    AccessOutcome::Miss {
                        request: RequestId(*next - 1),
                    }
                }
            };
            out.push(LaneOutcome {
                lane: a.lane,
                outcome,
            });
        }
        self.stats.bank_conflict_cycles.add(conflict_cycles);
        self.stats.l1d_lane_accesses.add(accesses.len() as u64);
    }

    /// Handles an L1 miss at the L2/directory, returning the cycle at which
    /// the fill arrives back at the L1.
    fn process_l2_request(
        &mut self,
        now: Cycle,
        l1: usize,
        line: u64,
        exclusive: bool,
        upgrade: bool,
    ) -> Cycle {
        let line_bytes = self.cfg.l1d.line_bytes;
        // Request departs after the L1 tag lookup discovered the miss.
        let mut depart = now + self.cfg.l1d.hit_latency;
        // Fault injection: hold the request off the crossbar, shifting the
        // epoch bucket that carries it relative to nominal traffic order.
        if let Some(f) = &mut self.fault {
            depart += f.link_delay();
        }
        let arrive = self.xbar.transfer(depart, CTRL_MSG_BYTES);
        self.stats.crossbar_bytes.add(CTRL_MSG_BYTES);
        self.stats.l2_accesses.incr();

        let tag_done = arrive + self.l2.cfg.hit_latency;
        let l2_state = self.l2.array.probe(line);
        let mut data_ready = tag_done;

        if l2_state.valid() {
            self.stats.l2_hits.incr();
            // Respect an in-flight DRAM fill for this line.
            if let Some(&fill) = self.l2.inflight.get(&line) {
                if fill > data_ready {
                    data_ready = fill;
                }
            }
            // Directory actions (one lookup: the entry borrows only the
            // directory, so the L1 and L2 arrays stay reachable beside it).
            let entry = self.l2.dir.entry(line).or_default();
            if let Some(o) = entry.owner().filter(|&o| o != l1) {
                // Dirty/exclusive data may live at the owner: flush it
                // through the L2 (probe + line transfer).
                self.stats.owner_flushes.incr();
                let flushed = self.xbar.transfer(data_ready, line_bytes);
                self.stats.crossbar_bytes.add(line_bytes);
                data_ready = flushed;
                let prev = self.l1s[o].array.peek(line);
                if prev == MesiState::Modified {
                    self.l2.array.set_state(line, MesiState::Modified);
                    self.stats.l1_writebacks.incr();
                }
                if exclusive {
                    self.l1s[o].array.invalidate(line);
                    self.stats.invalidations.incr();
                    entry.sharers.remove(o);
                } else if prev.valid() {
                    self.l1s[o].array.set_state(line, MesiState::Shared);
                }
                entry.owner = None;
            }
            if exclusive {
                let sharers = entry.sharers.without(l1);
                entry.sharers = Sharers::only(l1);
                entry.set_owner(l1);
                if !sharers.is_empty() {
                    // Invalidate remaining sharers (control messages).
                    for o in sharers.iter() {
                        self.l1s[o].array.invalidate(line);
                        self.stats.invalidations.incr();
                    }
                    let inv_done = self.xbar.transfer(tag_done, CTRL_MSG_BYTES);
                    self.stats.crossbar_bytes.add(CTRL_MSG_BYTES);
                    data_ready = data_ready.max(inv_done);
                }
            } else {
                entry.sharers.insert(l1);
                if entry.owner() == Some(l1) {
                    entry.owner = None;
                }
            }
        } else {
            // L2 miss: fetch from DRAM through an analytic L2 MSHR.
            self.stats.l2_misses.incr();
            let slot = self
                .l2
                .mshr_free_at
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .expect("L2 has MSHRs");
            let start = tag_done.max(self.l2.mshr_free_at[slot]);
            let fill = self.dram.access(start, line_bytes);
            self.stats.dram_accesses.incr();
            self.l2.mshr_free_at[slot] = fill;
            // Install in the L2 immediately (timing carried by `inflight`).
            if let Some(victim) = self.l2.array.fill(line, MesiState::Shared) {
                self.evict_l2_line(start, victim.line_addr, victim.state);
            }
            self.l2.inflight.insert(line, fill);
            let e = self.l2.dir.entry(line).or_default();
            e.sharers = Sharers::only(l1);
            e.set_owner(l1); // sole copy: E (or M on a store)
            data_ready = fill;
        }
        // Prune stale in-flight records.
        if self.l2.inflight.len() > 4096 {
            self.l2.inflight.retain(|_, &mut c| c > now);
        }

        // Fault injection: the response leg draws its own link delay.
        if let Some(f) = &mut self.fault {
            data_ready += f.link_delay();
        }
        // For upgrades only an acknowledgement returns; otherwise the line.
        let payload = if upgrade { CTRL_MSG_BYTES } else { line_bytes };
        self.stats.crossbar_bytes.add(payload);
        self.xbar.transfer(data_ready, payload)
    }

    /// Invalidates every L1 copy of `line` other than `keeper` and claims
    /// exclusive ownership for it (used when a store merges into an
    /// already-outstanding shared request).
    fn invalidate_other_sharers(&mut self, line: u64, keeper: usize) {
        if let Some(e) = self.l2.dir.get_mut(&line) {
            let others = e.sharers.without(keeper);
            e.sharers = Sharers::only(keeper);
            e.set_owner(keeper);
            for o in others.iter() {
                let prev = self.l1s[o].array.invalidate(line);
                self.stats.invalidations.incr();
                if prev == MesiState::Modified {
                    self.stats.l1_writebacks.incr();
                    if self.l2.array.peek(line).valid() {
                        self.l2.array.set_state(line, MesiState::Modified);
                    }
                }
            }
        }
    }

    /// Inclusive-L2 eviction: back-invalidate every L1 copy; write dirty
    /// data to DRAM.
    fn evict_l2_line(&mut self, now: Cycle, line: u64, l2_state: MesiState) {
        let entry = self.l2.dir.remove(&line).unwrap_or_default();
        let mut dirty = l2_state == MesiState::Modified;
        for o in entry.sharers.iter() {
            let prev = self.l1s[o].array.invalidate(line);
            self.stats.invalidations.incr();
            if prev == MesiState::Modified {
                dirty = true;
                self.stats.l1_writebacks.incr();
            }
        }
        self.l2.inflight.remove(&line);
        if dirty {
            self.stats.l2_writebacks.incr();
            // Occupy the DRAM bus; nobody waits on the writeback itself.
            let _ = self.dram.access(now, self.cfg.l2.line_bytes);
        }
    }

    /// Drains all fills that completed at or before `now`, applying them to
    /// the L1 arrays and returning the coalesced request completions.
    pub fn drain_completions(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(now, &mut out);
        out
    }

    /// Allocation-free form of [`drain_completions`](Self::drain_completions):
    /// completions are appended to the caller-owned `out` (cleared first), so
    /// the run loop can reuse one buffer across cycles.
    pub fn drain_completions_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        out.clear();
        while let Some((at, (l1, mshr_id))) = self.events.pop_ready(now) {
            // Keep the per-L1 mirror in lockstep with the global list. The
            // global (time, insertion) pop order restricted to one L1 is
            // that L1's own (time, insertion) order, so the mirror's
            // minimum is always the entry being drained.
            let mirrored = self.l1s[l1].fills.pop();
            if self.strict_checks {
                assert_eq!(mirrored.map(|(t, ())| t), Some(at), "fill mirror drift");
            }
            let mut entry = self.l1s[l1].mshrs.release(mshr_id);
            self.l1s[l1].releases += 1;
            let line = entry.line_addr;
            // Decide the install state from the directory at fill time.
            let state = if entry.exclusive {
                MesiState::Modified
            } else {
                let sharers = self.l2.dir.get(&line).map(|e| e.sharers);
                if sharers.unwrap_or_default().without(l1).is_empty() {
                    MesiState::Exclusive
                } else {
                    MesiState::Shared
                }
            };
            if entry.exclusive {
                if let Some(e) = self.l2.dir.get_mut(&line) {
                    e.set_owner(l1);
                    e.sharers.insert(l1);
                }
            }
            let present = self.l1s[l1].array.peek(line).valid();
            if present {
                // Upgrade (or a racing refill): state change in place.
                self.l1s[l1].array.set_state(line, state);
            } else if let Some(victim) = self.l1s[l1].array.fill(line, state) {
                self.handle_l1_eviction(at, l1, victim.line_addr, victim.state);
            }
            out.extend(
                entry
                    .targets
                    .drain(..)
                    .map(|request| Completion { l1, request, at }),
            );
            self.l1s[l1].mshrs.recycle_targets(entry.targets);
        }
    }

    fn handle_l1_eviction(&mut self, now: Cycle, l1: usize, line: u64, state: MesiState) {
        if state == MesiState::Modified {
            self.stats.l1_writebacks.incr();
            self.stats.crossbar_bytes.add(self.cfg.l1d.line_bytes);
            let _ = self.xbar.transfer(now, self.cfg.l1d.line_bytes);
            if self.l2.array.peek(line).valid() {
                self.l2.array.set_state(line, MesiState::Modified);
            }
        }
        if let Some(e) = self.l2.dir.get_mut(&line) {
            e.sharers.remove(l1);
            if e.owner() == Some(l1) {
                e.owner = None;
            }
        }
    }

    /// Earliest pending fill, if any (lets the run loop skip idle cycles).
    pub fn next_completion_at(&self) -> Option<Cycle> {
        self.events.next_ready_at()
    }

    /// Earliest pending fill destined for L1 `l1`, if any — the per-WPU
    /// wakeup signal for the event-driven run loop.
    pub fn next_completion_at_l1(&self, l1: usize) -> Option<Cycle> {
        self.l1s[l1].fills.next_at()
    }

    /// MSHR entries L1 `l1` has released so far — the clock a refused
    /// access's retry is keyed on ([`would_reject`](Self::would_reject)).
    pub fn l1_releases(&self, l1: usize) -> u64 {
        self.l1s[l1].releases
    }

    /// Records `n` rejections a caller replayed from its retry certificate
    /// without re-running [`warp_access_into`](Self::warp_access_into),
    /// keeping the rejection counter identical to per-cycle re-probing.
    pub fn count_replayed_rejections(&mut self, n: u64) {
        self.stats.rejections.add(n);
    }

    /// Number of in-flight fills.
    pub fn pending_fills(&self) -> usize {
        self.events.len()
    }

    /// Outstanding MSHR entries at L1 `l1` (diagnostics).
    pub fn mshr_in_use(&self, l1: usize) -> usize {
        self.l1s[l1].mshrs.in_use()
    }

    /// MSHR entry capacity of L1 `l1` (diagnostics).
    pub fn mshr_capacity(&self, l1: usize) -> usize {
        self.l1s[l1].mshrs.capacity()
    }

    /// Latency model for an L1-I cold-miss fill. The I-cache arrays
    /// themselves live inside the WPUs (so the WPU's compute phase can
    /// probe them without touching shared state); only this shared-timing
    /// part — the request crossing the crossbar, the L2 lookup
    /// (instructions always hit there in these tiny kernels), and the line
    /// crossing back — runs against the memory system, at commit time.
    /// Returns the cycle the instruction is available.
    pub fn icache_fill_latency(&mut self, now: Cycle) -> Cycle {
        let arrive = self
            .xbar
            .transfer(now + self.cfg.l1i.hit_latency, CTRL_MSG_BYTES);
        let back = self
            .xbar
            .transfer(arrive + self.l2.cfg.hit_latency, self.cfg.l1i.line_bytes);
        self.stats
            .crossbar_bytes
            .add(CTRL_MSG_BYTES + self.cfg.l1i.line_bytes);
        back
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Cycles transfers spent queued on the crossbar (contention measure).
    pub fn crossbar_queue_cycles(&self) -> u64 {
        self.xbar.queue_cycles.get()
    }

    /// Cycles requests spent queued on the DRAM bus.
    pub fn dram_queue_cycles(&self) -> u64 {
        self.dram.queue_cycles()
    }

    /// Hit/miss statistics of one L1 D-cache array.
    pub fn l1_array_stats(&self, l1: usize) -> crate::cache::CacheStats {
        self.l1s[l1].array.stats
    }

    /// Peek an L1 line state (test helper).
    pub fn l1_line_state(&self, l1: usize, addr: u64) -> MesiState {
        let line = self.line_of(addr);
        self.l1s[l1].array.peek(line)
    }

    /// Peek the L2 state for a byte address (test helper).
    pub fn l2_line_state(&self, addr: u64) -> MesiState {
        self.l2.array.peek(self.line_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::paper(4, 16))
    }

    fn load(lane: usize, addr: u64) -> LaneAccess {
        LaneAccess {
            lane,
            addr,
            kind: AccessKind::Load,
        }
    }

    fn store(lane: usize, addr: u64) -> LaneAccess {
        LaneAccess {
            lane,
            addr,
            kind: AccessKind::Store,
        }
    }

    fn complete_all(m: &mut MemorySystem) -> Vec<Completion> {
        let at = m.next_completion_at().expect("pending fill");
        m.drain_completions(at)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = sys();
        let out = m.warp_access(Cycle(0), 0, &[load(0, 0x100)]).unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Miss { .. }));
        let done = complete_all(&mut m);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].l1, 0);
        // Cold L2 miss: crossbar + L2 + DRAM round trip, well over 100 cyc.
        assert!(done[0].at.raw() > 100, "fill at {:?}", done[0].at);

        let out = m.warp_access(done[0].at, 0, &[load(0, 0x100)]).unwrap();
        match out[0].outcome {
            AccessOutcome::Hit { ready_at } => {
                assert_eq!(ready_at, done[0].at + 3, "3-cycle L1 hit");
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn same_line_lanes_coalesce() {
        let mut m = sys();
        // Four lanes touch the same 128B line: one L1 miss, one DRAM access.
        let accesses: Vec<_> = (0..4).map(|l| load(l, 0x200 + 8 * l as u64)).collect();
        let out = m.warp_access(Cycle(0), 0, &accesses).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out
            .iter()
            .all(|o| matches!(o.outcome, AccessOutcome::Miss { .. })));
        assert_eq!(m.stats().l1d_misses.get(), 1);
        assert_eq!(m.stats().dram_accesses.get(), 1);
        let done = complete_all(&mut m);
        assert_eq!(done.len(), 4, "all lanes complete with the fill");
        // All complete at the same cycle.
        assert!(done.windows(2).all(|w| w[0].at == w[1].at));
    }

    #[test]
    fn divergent_lines_make_multiple_misses() {
        let mut m = sys();
        // Two lanes touch different lines: two MSHRs, two DRAM accesses.
        let out = m
            .warp_access(Cycle(0), 0, &[load(0, 0x0), load(1, 0x1000)])
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(m.stats().l1d_misses.get(), 2);
        assert_eq!(m.stats().dram_accesses.get(), 2);
    }

    #[test]
    fn mixed_hit_miss_is_memory_divergence() {
        let mut m = sys();
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        // Lane 0 hits the cached line; lane 1 misses a new line.
        let out = m
            .warp_access(t, 0, &[load(0, 0x8), load(1, 0x2000)])
            .unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Hit { .. }));
        assert!(matches!(out[1].outcome, AccessOutcome::Miss { .. }));
    }

    #[test]
    fn secondary_miss_merges_into_mshr() {
        let mut m = sys();
        let a = m.warp_access(Cycle(0), 0, &[load(0, 0x300)]).unwrap();
        let b = m.warp_access(Cycle(1), 0, &[load(1, 0x308)]).unwrap();
        assert!(matches!(a[0].outcome, AccessOutcome::Miss { .. }));
        assert!(matches!(b[0].outcome, AccessOutcome::Miss { .. }));
        assert_eq!(m.stats().l1d_misses.get(), 1, "one primary miss");
        assert_eq!(m.stats().l1d_mshr_merges.get(), 1);
        assert_eq!(m.stats().dram_accesses.get(), 1);
        let done = complete_all(&mut m);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn store_needs_ownership() {
        let mut m = sys();
        // L1#0 loads a line (becomes Exclusive — sole copy).
        m.warp_access(Cycle(0), 0, &[load(0, 0x400)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(0, 0x400), MesiState::Exclusive);
        // Store hits and silently upgrades E -> M.
        let out = m.warp_access(t, 0, &[store(0, 0x400)]).unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Hit { .. }));
        assert_eq!(m.l1_line_state(0, 0x400), MesiState::Modified);
    }

    #[test]
    fn read_sharing_then_upgrade_invalidates() {
        let mut m = sys();
        // Both L1s read the same line.
        m.warp_access(Cycle(0), 0, &[load(0, 0x500)]).unwrap();
        let t0 = complete_all(&mut m)[0].at;
        m.warp_access(t0, 1, &[load(0, 0x500)]).unwrap();
        let t1 = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(1, 0x500), MesiState::Shared);
        // L1#0 may be E or S depending on the second read's downgrade.
        // Now L1#0 stores: its Shared copy upgrades; L1#1 invalidated.
        let out = m.warp_access(t1, 0, &[store(0, 0x500)]).unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Miss { .. }));
        assert_eq!(m.stats().upgrades.get(), 1);
        let t2 = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(0, 0x500), MesiState::Modified);
        assert_eq!(m.l1_line_state(1, 0x500), MesiState::Invalid);
        assert!(m.stats().invalidations.get() >= 1);
        let _ = t2;
    }

    #[test]
    fn dirty_remote_copy_is_flushed_on_read() {
        let mut m = sys();
        // L1#0 writes a line (M).
        m.warp_access(Cycle(0), 0, &[store(0, 0x600)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(0, 0x600), MesiState::Modified);
        // L1#1 reads: owner flush, both end Shared.
        m.warp_access(t, 1, &[load(0, 0x600)]).unwrap();
        let _ = complete_all(&mut m);
        assert_eq!(m.l1_line_state(0, 0x600), MesiState::Shared);
        assert_eq!(m.l1_line_state(1, 0x600), MesiState::Shared);
        assert_eq!(m.stats().owner_flushes.get(), 1);
        assert_eq!(m.stats().l1_writebacks.get(), 1);
        assert_eq!(m.l2_line_state(0x600), MesiState::Modified);
    }

    #[test]
    fn l2_hit_is_faster_than_dram() {
        let mut m = sys();
        // Warm the L2 via L1#0, then evict nothing and read from L1#1.
        m.warp_access(Cycle(0), 0, &[load(0, 0x700)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        let before = m.stats().dram_accesses.get();
        m.warp_access(t, 1, &[load(0, 0x700)]).unwrap();
        let done = complete_all(&mut m)[0].at;
        assert_eq!(m.stats().dram_accesses.get(), before, "served by L2");
        // The flush path makes this slower than a pure L2 hit would be, but
        // far faster than a DRAM trip.
        assert!(done - t < 100, "L2 hit took {} cycles", done - t);
    }

    #[test]
    fn bank_conflicts_add_queue_delay() {
        let mut m = sys();
        // Warm a line.
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        // 16 banks, word-interleaved: words 0 and 16 share bank 0.
        let out = m
            .warp_access(t, 0, &[load(0, 0x0), load(1, 16 * 8)])
            .unwrap();
        // Second access queues behind the first in bank 0 (if both hit).
        let AccessOutcome::Hit { ready_at: r0 } = out[0].outcome else {
            panic!("lane 0 should hit")
        };
        match out[1].outcome {
            AccessOutcome::Hit { ready_at } => {
                assert_eq!(ready_at, r0 + 1, "one cycle of bank queueing");
            }
            // Word 16*8 = 0x80 is a different line; it may miss. Ensure the
            // conflict stat still advanced.
            AccessOutcome::Miss { .. } => {}
        }
        assert!(m.stats().bank_conflict_cycles.get() >= 1);
    }

    #[test]
    fn mshr_exhaustion_rejects_without_side_effects() {
        let mut cfg = MemConfig::paper(1, 16);
        cfg.l1d.mshrs = 2;
        let mut m = MemorySystem::new(cfg);
        // Two outstanding misses fill the MSHRs.
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        m.warp_access(Cycle(0), 0, &[load(0, 0x1000)]).unwrap();
        let misses_before = m.stats().l1d_misses.get();
        // A third distinct line cannot get an MSHR.
        let out = m.warp_access(Cycle(1), 0, &[load(0, 0x2000)]);
        assert!(out.is_none());
        assert_eq!(m.stats().rejections.get(), 1);
        assert_eq!(m.stats().l1d_misses.get(), misses_before, "no side effects");
        // After fills drain, the access succeeds.
        let t = {
            let mut last = Cycle(0);
            while m.pending_fills() > 0 {
                let at = m.next_completion_at().unwrap();
                m.drain_completions(at);
                last = at;
            }
            last
        };
        assert!(m.warp_access(t, 0, &[load(0, 0x2000)]).is_some());
    }

    #[test]
    fn would_reject_reports_the_release_deficit() {
        let mut cfg = MemConfig::paper(1, 16);
        cfg.l1d.mshrs = 4;
        cfg.l1d.mshr_targets = 2;
        let mut m = MemorySystem::new(cfg);
        let lines = |n: u64, base: u64| -> Vec<_> {
            (0..n)
                .map(|i| load(i as usize, base + i * 0x1000))
                .collect()
        };
        // More fresh lines than the file holds, nothing in flight: no
        // release can help, so there is none to wait for.
        assert_eq!(m.would_reject(0, &lines(5, 0x10_0000)), Some(0));
        // Four misses in flight fill the file (the DRAM bus staggers them).
        for a in lines(4, 0) {
            m.warp_access(Cycle(0), 0, &[a]).unwrap();
        }
        assert_eq!(m.would_reject(0, &lines(1, 0x10_0000)), Some(1));
        assert_eq!(m.would_reject(0, &lines(3, 0x10_0000)), Some(3));
        assert_eq!(m.would_reject(0, &lines(5, 0x10_0000)), Some(4), "capped");
        assert_eq!(m.stats().rejections.get(), 0, "asking is not trying");
        // Each release pays off one entry of the deficit.
        for left in [Some(2), Some(1), None] {
            let before = m.l1_releases(0);
            complete_all(&mut m);
            assert_eq!(m.l1_releases(0), before + 1);
            assert_eq!(m.would_reject(0, &lines(3, 0x10_0000)), left);
        }
        // A full target list waits for its own entry, however many are free.
        let t = m.next_completion_at().unwrap();
        m.warp_access(t, 0, &[load(0, 0x20_0000), load(1, 0x20_0008)])
            .unwrap();
        assert_eq!(m.would_reject(0, &[load(2, 0x20_0010)]), Some(1));
        assert!(m.warp_access(t, 0, &[load(2, 0x20_0010)]).is_none());
        assert_eq!(m.refusal_deficit(0), 1, "the refusal carries its deficit");
        assert_eq!(m.stats().rejections.get(), 1);
    }

    #[test]
    fn icache_fill_crosses_to_l2_and_back() {
        let mut m = sys();
        let r0 = m.icache_fill_latency(Cycle(0));
        assert!(r0.raw() > 1, "cold miss goes to L2");
        // Crossbar + L2 lookup + crossbar, from the I-hit issue point.
        let cfg = *m.config();
        assert!(r0.raw() >= cfg.l1i.hit_latency + 2 * cfg.crossbar_latency + cfg.l2.hit_latency);
        assert_eq!(
            m.stats().crossbar_bytes.get(),
            CTRL_MSG_BYTES + cfg.l1i.line_bytes,
            "request and line each cross once"
        );
        // Replays are deterministic and never earlier than the request.
        let r1 = m.icache_fill_latency(r0);
        assert!(r1 > r0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = sys();
            let mut trace = Vec::new();
            for i in 0..50u64 {
                let addr = (i * 1040) % 65536;
                if let Some(out) = m.warp_access(Cycle(i * 7), (i % 4) as usize, &[load(0, addr)]) {
                    for o in out {
                        trace.push(format!("{o:?}"));
                    }
                }
                for c in m.drain_completions(Cycle(i * 7)) {
                    trace.push(format!("{c:?}"));
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    /// Regression: the directory's sharer set used to be a `u32` indexed by
    /// `1 << l1`, so on a 64-WPU machine L1 40 aliased L1 8 (release) or
    /// panicked (debug).
    #[test]
    fn sharers_past_32_l1s_do_not_alias() {
        let mut m = MemorySystem::new(MemConfig::paper(64, 16));
        let addr = 0x4200;
        // L1 8 and L1 40 (8 + 32) both read the line.
        m.warp_access(Cycle(0), 8, &[load(0, addr)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        m.warp_access(t, 40, &[load(0, addr)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(8, addr), MesiState::Shared);
        assert_eq!(
            m.l1_line_state(40, addr),
            MesiState::Shared,
            "a fill beside a live copy must not be granted Exclusive"
        );
        // L1 40 stores: the upgrade must invalidate L1 8's copy — and find
        // L1 40's own bit, not mistake it for L1 8's.
        let before = m.stats();
        m.warp_access(t, 40, &[store(0, addr)]).unwrap();
        complete_all(&mut m);
        assert_eq!(m.stats().upgrades.get(), 1);
        assert_eq!(
            m.stats().invalidations.get(),
            before.invalidations.get() + 1
        );
        assert_eq!(m.l1_line_state(8, addr), MesiState::Invalid);
        assert_eq!(m.l1_line_state(40, addr), MesiState::Modified);
        // And L1 8 reading it back finds the owner at 40, not at itself.
        let t = m.next_completion_at().unwrap_or(t + 1_000);
        m.warp_access(t, 8, &[load(0, addr)]).unwrap();
        complete_all(&mut m);
        assert_eq!(
            m.stats().owner_flushes.get(),
            before.owner_flushes.get() + 1
        );
        assert_eq!(m.l1_line_state(40, addr), MesiState::Shared);
        assert_eq!(m.l1_line_state(8, addr), MesiState::Shared);
    }

    #[test]
    #[should_panic(expected = "sharer sets")]
    fn more_l1s_than_sharer_bits_rejected() {
        MemorySystem::new(MemConfig::paper(129, 16));
    }

    /// The multi-pass coalescer the group-major one replaced, kept as the
    /// differential reference: counting sort of lanes by line group, a
    /// placeholder-filled `out`, and a linear search over the distinct words
    /// for the bank model.
    fn warp_access_reference(
        m: &mut MemorySystem,
        now: Cycle,
        l1: usize,
        accesses: &[LaneAccess],
        out: &mut Vec<LaneOutcome>,
    ) -> bool {
        out.clear();
        let mut groups: Vec<(u64, bool)> = Vec::new();
        let mut lane_group = Vec::new();
        let mut group_count: Vec<usize> = Vec::new();
        for a in accesses {
            let line = m.line_of(a.addr);
            let is_store = a.kind == AccessKind::Store;
            let g = match groups.iter().position(|&(l, _)| l == line) {
                Some(g) => g,
                None => {
                    groups.push((line, false));
                    group_count.push(0);
                    groups.len() - 1
                }
            };
            groups[g].1 |= is_store;
            group_count[g] += 1;
            lane_group.push(g);
        }
        let withheld = match &mut m.fault {
            Some(f) if m.l1s[l1].mshrs.in_use() > 0 => f.mshr_withhold(),
            _ => 0,
        };
        // Feasibility.
        let mut group_way = Vec::new();
        let mut fresh_needed = 0usize;
        let mut refused = false;
        for (g, &(line, any_store)) in groups.iter().enumerate() {
            let (state, way) = m.l1s[l1].array.lookup(line);
            group_way.push(way);
            if state.valid() && (!any_store || state.writable()) {
                continue;
            }
            match m.l1s[l1].mshrs.find(line) {
                Some(id) if !m.l1s[l1].mshrs.can_merge(id, group_count[g]) => {
                    refused = true;
                    break;
                }
                Some(_) => {}
                None => fresh_needed += 1,
            }
        }
        let free = m.l1s[l1].mshrs.capacity() - m.l1s[l1].mshrs.in_use();
        if refused || fresh_needed > free.saturating_sub(withheld) {
            m.stats.rejections.incr();
            return false;
        }
        // Bank queueing, in input order.
        let banks = m.cfg.l1d.banks as u64;
        let mut word_delay: Vec<(u64, u64)> = Vec::new();
        let mut bank_count = vec![0u64; m.cfg.l1d.banks];
        let mut lane_delay = Vec::new();
        for a in accesses {
            let word = a.addr / 8;
            let delay = match word_delay.iter().find(|&&(w, _)| w == word) {
                Some(&(_, d)) => d,
                None => {
                    let bank = (word % banks) as usize;
                    let d = bank_count[bank] * m.cfg.bank_conflict_penalty;
                    bank_count[bank] += 1;
                    word_delay.push((word, d));
                    d
                }
            };
            lane_delay.push(delay);
            m.stats.bank_conflict_cycles.add(delay);
        }
        m.stats.l1d_lane_accesses.add(accesses.len() as u64);
        out.extend(accesses.iter().map(|a| LaneOutcome {
            lane: a.lane,
            outcome: AccessOutcome::Hit {
                ready_at: Cycle::ZERO,
            },
        }));
        for (g, &(line, any_store)) in groups.iter().enumerate() {
            let lanes = (0..accesses.len()).filter(|&i| lane_group[i] == g);
            m.stats.l1d_line_accesses.incr();
            let state = m.l1s[l1].array.touch(line, group_way[g]);
            if state.valid() && (!any_store || state.writable()) {
                m.stats.l1d_hits.incr();
                if any_store && state == MesiState::Exclusive {
                    m.l1s[l1].array.set_state(line, MesiState::Modified);
                }
                for i in lanes {
                    out[i].outcome = AccessOutcome::Hit {
                        ready_at: now + m.cfg.l1d.hit_latency + lane_delay[i],
                    };
                }
                continue;
            }
            let mshr_id = match m.l1s[l1].mshrs.find(line) {
                Some(id) => {
                    m.stats.l1d_mshr_merges.incr();
                    if any_store && !m.l1s[l1].mshrs.get(id).exclusive {
                        m.l1s[l1].mshrs.set_exclusive(id);
                        m.invalidate_other_sharers(line, l1);
                    }
                    id
                }
                None => {
                    m.stats.l1d_misses.incr();
                    let upgrade = state == MesiState::Shared && any_store;
                    if upgrade {
                        m.stats.upgrades.incr();
                    }
                    let mut fill_at = m.process_l2_request(now, l1, line, any_store, upgrade);
                    if let Some(f) = &mut m.fault {
                        fill_at += f.fill_jitter();
                    }
                    let id = m.l1s[l1].mshrs.allocate(line, any_store, fill_at);
                    if upgrade {
                        m.l1s[l1].mshrs.set_upgrade(id);
                    }
                    m.events.push(fill_at, (l1, id));
                    m.l1s[l1].fills.push(fill_at, ());
                    m.stats.mlp.record(m.events.len() as f64);
                    id
                }
            };
            for i in lanes {
                let req = RequestId(m.l1s[l1].next_req);
                m.l1s[l1].next_req += 1;
                m.l1s[l1].mshrs.add_target(mshr_id, req);
                out[i].outcome = AccessOutcome::Miss { request: req };
            }
        }
        true
    }

    /// Random warp accesses into two identical machines, one through the
    /// group-major coalescer and one through the reference: every outcome,
    /// request id, completion and counter must agree.
    #[test]
    fn group_major_coalescer_matches_the_multi_pass_reference() {
        use dws_engine::rng::Rng64;
        let squeeze = FaultPlan::mshr_squeeze(5);
        let plans = [FaultPlan::NONE, squeeze, FaultPlan::full_chaos(9)];
        let mut rejections = 0;
        let mut merges = 0;
        for seed in 0..24u64 {
            let mut rng = Rng64::new(seed);
            let mut cfg = MemConfig::paper(3, 16);
            // A nearly full MSHR file, short target lists, odd bank counts,
            // and (some seeds) an L2 so small that its evictions
            // back-invalidate lines between the coalescer's passes.
            cfg.l1d.mshrs = [3, 6, 32][seed as usize % 3];
            // (A target list must hold one access's lanes: 16 at least.)
            cfg.l1d.mshr_targets = [16, 20, 32][(seed as usize / 3) % 3];
            cfg.l1d.banks = [16, 12, 1][(seed as usize / 2) % 3];
            cfg.l1d.line_bytes = [128, 64][seed as usize % 2];
            if seed % 4 == 3 {
                cfg.l2 = cfg.l2.with_size(16 * 128).with_assoc(2);
                // Such a line turns from hit to miss after the feasibility
                // pass counted the MSHRs; leave room for it.
                cfg.l1d.mshrs = 32;
            }
            let mut new = MemorySystem::new(cfg);
            let mut old = MemorySystem::new(cfg);
            let plan = plans[seed as usize % 3];
            new.set_fault_plan(plan);
            old.set_fault_plan(plan);
            let (mut out_new, mut out_old) = (Vec::new(), Vec::new());
            let mut now = Cycle(0);
            for step in 0..600 {
                now += rng.range_usize(40) as u64;
                let l1 = rng.range_usize(3);
                // 1 to 16 lines out of a small shared pool (so the three
                // L1s hold them S/E/M between them), words repeating.
                let n_lines = 1 + rng.range_usize(16);
                let base = rng.range_usize(48) as u64;
                let store_frac = [0.0, 0.3, 1.0][rng.range_usize(3)];
                let accesses: Vec<LaneAccess> = (0..1 + rng.range_usize(16))
                    .map(|lane| LaneAccess {
                        lane,
                        addr: (base + rng.range_usize(n_lines) as u64) * 128
                            + 8 * rng.range_usize(4) as u64
                            + rng.range_usize(8) as u64,
                        kind: if rng.chance(store_frac) {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        },
                    })
                    .collect();
                let what = format!("seed {seed} step {step}");
                assert_eq!(
                    new.would_reject(l1, &accesses),
                    old.would_reject(l1, &accesses),
                    "{what}"
                );
                let ok = new.warp_access_into(now, l1, &accesses, &mut out_new);
                let expect = warp_access_reference(&mut old, now, l1, &accesses, &mut out_old);
                assert_eq!(ok, expect, "{what}: accepted");
                if !ok {
                    // What a fresh probe says, or 1 for a refusal only the
                    // fault plan's withheld MSHRs explain.
                    let probed = old.would_reject(l1, &accesses).unwrap_or(1);
                    assert_eq!(new.refusal_deficit(l1), probed, "{what}: deficit");
                }
                assert_eq!(out_new, out_old, "{what}: outcomes");
                assert_eq!(new.stats(), old.stats(), "{what}: stats");
                assert_eq!(
                    new.drain_completions(now),
                    old.drain_completions(now),
                    "{what}: completions"
                );
                for i in 0..3 {
                    assert_eq!(new.mshr_in_use(i), old.mshr_in_use(i), "{what}");
                    let (a, b) = (new.l1_array_stats(i), old.l1_array_stats(i));
                    assert_eq!(
                        (a.hits.get(), a.misses.get(), a.evictions.get()),
                        (b.hits.get(), b.misses.get(), b.evictions.get()),
                        "{what}: L1 {i} array"
                    );
                }
            }
            assert_eq!(new.crossbar_queue_cycles(), old.crossbar_queue_cycles());
            assert_eq!(new.dram_queue_cycles(), old.dram_queue_cycles());
            rejections += new.stats().rejections.get();
            merges += new.stats().l1d_mshr_merges.get();
        }
        assert!(rejections > 100, "only {rejections} rejections exercised");
        assert!(merges > 100, "only {merges} MSHR merges exercised");
    }

    /// A line that hits in the feasibility pass can miss in the apply pass:
    /// an earlier group's L2 fill evicts it from the inclusive L2, which
    /// back-invalidates the L1 copy. Both coalescers must then find (or
    /// find absent) the line's MSHR at that point, not before.
    #[test]
    fn line_back_invalidated_between_passes_matches_the_reference() {
        // 8 L2 sets x 2 ways: lines 8, 16 and 24 share set 0.
        let mut cfg = MemConfig::paper(2, 16);
        cfg.l2 = cfg.l2.with_size(16 * 128).with_assoc(2);
        let line = |n: u64| n * 128;
        for upgrade_in_flight in [false, true] {
            let run = |reference: bool| {
                let mut m = MemorySystem::new(cfg);
                let mut out = Vec::new();
                let mut access = |m: &mut MemorySystem, now, l1, acc: &[LaneAccess]| {
                    let ok = if reference {
                        warp_access_reference(m, now, l1, acc, &mut out)
                    } else {
                        m.warp_access_into(now, l1, acc, &mut out)
                    };
                    assert!(ok);
                    out.clone()
                };
                access(&mut m, Cycle(0), 0, &[load(0, line(8))]);
                let mut t = complete_all(&mut m)[0].at;
                if upgrade_in_flight {
                    // Both L1s share line 8; L1 0's store leaves an upgrade
                    // MSHR outstanding on its still-valid Shared copy.
                    access(&mut m, t, 1, &[load(0, line(8))]);
                    t = complete_all(&mut m)[0].at;
                    access(&mut m, t, 0, &[store(0, line(8))]);
                }
                // Line 16 becomes the set's most recent, line 8 its victim.
                access(&mut m, t, 1, &[load(0, line(16))]);
                let probe = [load(0, line(24)), load(1, line(8))];
                assert_eq!(m.would_reject(0, &probe), None);
                assert!(m.l1_line_state(0, line(8)).valid(), "a hit going in");
                let outcomes = access(&mut m, t + 1, 0, &probe);
                assert!(
                    matches!(outcomes[1].outcome, AccessOutcome::Miss { .. }),
                    "line 24's fill evicted line 8 under the access"
                );
                let mut done = Vec::new();
                while m.pending_fills() > 0 {
                    done.extend(complete_all(&mut m));
                }
                (outcomes, done, m.stats())
            };
            let (new, old) = (run(false), run(true));
            assert_eq!(new, old, "upgrade in flight: {upgrade_in_flight}");
            let merges = new.2.l1d_mshr_merges.get();
            assert_eq!(
                merges,
                u64::from(upgrade_in_flight),
                "merged iff an MSHR was out"
            );
        }
    }
}
