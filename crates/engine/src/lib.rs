//! Cycle-level simulation engine primitives shared by the DWS simulator.
//!
//! The paper evaluates dynamic warp subdivision on MV5, a cycle-accurate,
//! event-driven simulator derived from M5. This crate provides the equivalent
//! foundation for the Rust reproduction:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp,
//! * [`EventQueue`] — a deterministic future-event list used to schedule
//!   memory-request completions and other timed callbacks,
//! * [`sched`] — the event-driven scheduling primitives ([`WakeHeap`],
//!   [`ReadyRing`]) shared by the WPU scheduler and the memory system,
//! * [`stats`] — counter/histogram infrastructure used by every component,
//! * [`rng`] — a vendored deterministic PRNG for benchmark input generation,
//! * [`fault`] — seeded timing-fault injection for chaos runs,
//! * [`sanitize`] — the `DWS_SANITIZE` opt-in release-mode oracle checks.
//!
//! # Example
//!
//! ```
//! use dws_engine::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "late");
//! q.push(Cycle(5), "early");
//! assert_eq!(q.pop_ready(Cycle(5)), Some((Cycle(5), "early")));
//! assert_eq!(q.pop_ready(Cycle(5)), None);
//! assert_eq!(q.pop_ready(Cycle(10)), Some((Cycle(10), "late")));
//! ```

pub mod event;
pub mod fault;
pub mod hash;
pub mod rng;
pub mod sanitize;
pub mod sched;
pub mod stats;

pub use event::EventQueue;
pub use fault::{FaultInjector, FaultPlan};
pub use hash::{FastHashMap, FastHashSet};
pub use sched::{Phase, ReadyRing, WakeHeap};

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A simulation timestamp measured in WPU clock cycles.
///
/// All components in the reproduction run off a single 1 GHz clock domain,
/// matching the paper's Table 3 (crossbar and memory-bus latencies are
/// expressed in WPU cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero timestamp, i.e. the start of simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; useful for latency math near time zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two timestamps.
    #[inline]
    pub fn max(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.max(rhs.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle(10);
        assert_eq!(c + 5, Cycle(15));
        assert_eq!(Cycle(20) - Cycle(5), 15);
        assert_eq!(Cycle(3).saturating_sub(Cycle(7)), Cycle::ZERO);
        assert_eq!(Cycle(3).max(Cycle(7)), Cycle(7));
        let mut c = Cycle(1);
        c += 2;
        assert_eq!(c, Cycle(3));
    }

    #[test]
    fn cycle_display_and_from() {
        assert_eq!(Cycle::from(42).to_string(), "42");
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }

    #[test]
    fn cycle_ordering() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle(9).raw(), 9);
    }
}
