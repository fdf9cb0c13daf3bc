//! The warp register file in structure-of-arrays layout.
//!
//! The seed simulator kept one heap-allocated `ThreadState` per thread
//! (array-of-structures): every warp-wide operation walked `width` separate
//! `Vec`s and re-matched the instruction per lane. [`RegFile`] stores one
//! contiguous block per warp, indexed `[reg * lanes + lane]`, so a warp-wide
//! kernel touching one register row streams over adjacent words — and the
//! per-lane oracle gets a read-only lane view (`ShadowLane`) implementing
//! [`LaneRegs`], sharing the interpreter in `dws-isa` instead of
//! duplicating it.

use dws_isa::{LaneRegs, Reg};

/// All architectural registers of one warp, SoA: register `r` of lane `l`
/// lives at `r * lanes + l`, so a register row is contiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    lanes: usize,
    regs: Vec<u64>,
}

impl RegFile {
    /// Creates the register file for a warp whose lane `l` runs global
    /// thread `base_tid + l`, preloading `r0 = tid` and `r1 = nthreads`
    /// (mirroring `ThreadState::new`).
    pub fn new(num_regs: u16, lanes: usize, base_tid: u64, nthreads: u64) -> Self {
        let mut regs = vec![0u64; num_regs as usize * lanes];
        for (l, r) in regs[..lanes].iter_mut().enumerate() {
            *r = base_tid + l as u64;
        }
        if num_regs > 1 {
            regs[lanes..2 * lanes].fill(nthreads);
        }
        RegFile { lanes, regs }
    }

    /// Number of lanes (the SIMD width).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reads register `reg` of `lane`.
    #[inline(always)]
    pub fn get(&self, reg: u16, lane: usize) -> u64 {
        self.regs[reg as usize * self.lanes + lane]
    }

    /// Writes register `reg` of `lane`.
    #[inline(always)]
    pub fn set(&mut self, reg: u16, lane: usize, v: u64) {
        self.regs[reg as usize * self.lanes + lane] = v;
    }

    /// A read-only single-lane view that records the register write instead
    /// of applying it (differential oracle: debug builds and `DWS_SANITIZE`
    /// release runs).
    #[inline]
    pub(crate) fn shadow(&self, lane: usize) -> ShadowLane<'_> {
        ShadowLane {
            rf: self,
            lane,
            written: None,
        }
    }
}

/// A read-only lane view that captures the (single) register write of one
/// instruction instead of performing it. Used by the differential oracle to
/// precompute the per-lane interpreter's effect *before* the warp-wide kernel
/// mutates the file, then assert the kernel produced the same value.
pub(crate) struct ShadowLane<'a> {
    rf: &'a RegFile,
    lane: usize,
    written: Option<(u16, u64)>,
}

impl ShadowLane<'_> {
    /// The `(reg, value)` the instruction would have written, if any.
    pub(crate) fn written(&self) -> Option<(u16, u64)> {
        self.written
    }
}

impl LaneRegs for ShadowLane<'_> {
    #[inline]
    fn reg(&self, r: Reg) -> u64 {
        // A single instruction performs all reads before its one write, so
        // reading through to the backing file is exact.
        self.rf.get(r.0, self.lane)
    }
    #[inline]
    fn set_reg(&mut self, r: Reg, v: u64) {
        debug_assert!(self.written.is_none(), "one write per instruction");
        self.written = Some((r.0, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloads_tid_and_nthreads() {
        let rf = RegFile::new(4, 8, 16, 64);
        for l in 0..8 {
            assert_eq!(rf.get(0, l), 16 + l as u64);
            assert_eq!(rf.get(1, l), 64);
            assert_eq!(rf.get(2, l), 0);
            assert_eq!(rf.get(3, l), 0);
        }
    }

    #[test]
    fn single_reg_file_skips_nthreads_row() {
        let rf = RegFile::new(1, 4, 0, 4);
        assert_eq!(rf.get(0, 3), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn shadow_lane_captures_without_mutating() {
        use dws_isa::{execute_lane, Inst, Operand, Reg, UnOp};
        let rf = RegFile::new(3, 2, 5, 2);
        let inst = Inst::Un {
            op: UnOp::Mov,
            dst: Reg(2),
            a: Operand::Reg(Reg(0)),
        };
        let mut sh = rf.shadow(1);
        execute_lane(&mut sh, &inst);
        assert_eq!(sh.written(), Some((2, 6)));
        assert_eq!(rf.get(2, 1), 0, "backing file untouched");
    }
}
