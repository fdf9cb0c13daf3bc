//! The two-level coherent cache hierarchy from the paper's Table 3.
//!
//! Each WPU owns a private, banked L1 D-cache (and an L1 I-cache); all L1s
//! share an inclusive on-chip L2 through a crossbar; only the L2 talks to
//! DRAM. Coherence is directory-based MESI kept at the L2.
//!
//! The central type is [`MemorySystem`]: WPUs present a warp's worth of
//! lane accesses with [`MemorySystem::warp_access`], get back per-lane
//! hit/miss outcomes (this is where *memory divergence* is detected), and
//! later receive completions from [`MemorySystem::drain_completions`].
//!
//! Timing is resolved analytically at request-processing time: queueing at
//! cache banks, MSHR occupancy, crossbar occupancy + latency, L2 lookup,
//! and DRAM occupancy + latency are all accumulated into a deterministic
//! completion cycle, which is then delivered through an event queue. This
//! reproduces MV5's event-driven memory behavior without simulating
//! individual coherence messages; functional values live in a separate
//! word-granular store owned by the simulator, so timing approximations can
//! never corrupt results.

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod link;
pub mod mshr;

pub use cache::{CacheArray, CacheStats, Evicted, MesiState};
pub use config::{CacheConfig, MemConfig};
pub use hierarchy::{
    AccessKind, AccessOutcome, Completion, LaneAccess, LaneOutcome, MemStats, MemorySystem,
    RequestId, MAX_L1S,
};
pub use link::{Crossbar, Dram};
pub use mshr::{MshrFile, MshrId};
