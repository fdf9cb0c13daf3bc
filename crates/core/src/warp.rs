//! Warps: thread contexts, the re-convergence stack, and halt tracking.

use crate::mask::Mask;
use crate::regfile::RegFile;
use dws_isa::Program;
use dws_mem::RequestId;

/// One frame of a re-convergence stack (Fung-style).
///
/// The executing entity corresponds to the top frame. On a divergent branch
/// the top frame's `pc` is redirected to the re-convergence point, and one
/// frame per path is pushed; when execution reaches the top frame's `rpc`
/// the frame pops and the next path (or the re-converged continuation)
/// resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Where this frame resumes execution.
    pub pc: usize,
    /// The re-convergence PC at which this frame pops, or `None` for the
    /// root frame (threads run to termination).
    pub rpc: Option<usize>,
    /// Threads belonging to this frame.
    pub mask: Mask,
}

/// Per-thread bookkeeping within a warp (registers live in the warp's SoA
/// [`RegFile`]).
#[derive(Debug)]
pub struct ThreadSlot {
    /// Set once the thread executes `Halt`.
    pub halted: bool,
    /// The outstanding miss this thread is blocked on, if any.
    pub pending: Option<RequestId>,
    /// D-cache misses attributed to this thread (Figure 14's heat map).
    pub miss_count: u64,
}

/// A warp: `width` threads, a re-convergence stack, and halt state.
#[derive(Debug)]
pub struct Warp {
    /// Warp index within its WPU.
    pub id: usize,
    /// Architectural registers of all lanes, SoA.
    pub regs: RegFile,
    /// Per-thread bookkeeping, one slot per lane.
    pub threads: Vec<ThreadSlot>,
    /// The architectural re-convergence stack.
    pub stack: Vec<Frame>,
    /// Lanes whose threads have terminated.
    pub halted: Mask,
    /// Lanes with an outstanding miss: bit `l` is set exactly while
    /// `threads[l].pending` is `Some`, so "which lanes arrived?" is one
    /// mask operation instead of a walk over the thread slots.
    pub pending_mask: Mask,
}

impl Warp {
    /// Creates a warp whose lane `l` runs global thread `base_tid + l`.
    pub fn new(id: usize, width: usize, base_tid: u64, nthreads: u64, program: &Program) -> Self {
        let threads = (0..width)
            .map(|_| ThreadSlot {
                halted: false,
                pending: None,
                miss_count: 0,
            })
            .collect();
        Warp {
            id,
            regs: RegFile::new(program.num_regs(), width, base_tid, nthreads),
            threads,
            stack: vec![Frame {
                pc: 0,
                rpc: None,
                mask: Mask::full(width),
            }],
            halted: Mask::EMPTY,
            pending_mask: Mask::EMPTY,
        }
    }

    /// The top re-convergence frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty (only possible after the warp retired).
    pub fn tos(&self) -> &Frame {
        self.stack.last().expect("live warp has a root frame")
    }

    /// The top frame's mask minus halted threads — the set every split of
    /// the current region must account for when re-converging.
    pub fn tos_live_mask(&self) -> Mask {
        self.tos().mask - self.halted
    }

    /// Pops re-convergence frames (conventional semantics) until the new
    /// top has live threads, returning its PC and those threads; `None`
    /// once only the root is left and every thread under it has halted.
    pub fn pop_to_live_frame(&mut self) -> Option<(usize, Mask)> {
        while self.stack.len() > 1 {
            self.stack.pop();
            let live = self.tos_live_mask();
            if !live.is_empty() {
                return Some((self.tos().pc, live));
            }
        }
        None
    }

    /// Whether all threads have terminated.
    pub fn all_halted(&self, width: usize) -> bool {
        self.halted == Mask::full(width)
    }

    /// Lanes in `mask` that have no outstanding miss.
    pub fn arrived_lanes(&self, mask: Mask) -> Mask {
        mask - self.pending_mask
    }

    /// Blocks `lane` on the miss `request`.
    pub fn set_pending(&mut self, lane: usize, request: RequestId) {
        self.threads[lane].pending = Some(request);
        self.pending_mask.set(lane);
    }

    /// Unblocks `lane`: its miss completed.
    pub fn clear_pending(&mut self, lane: usize) {
        self.threads[lane].pending = None;
        self.pending_mask.clear(lane);
    }

    /// Oracle for `pending_mask`: the same set, from the thread slots.
    pub fn pending_lanes_by_scan(&self) -> Mask {
        (0..self.threads.len())
            .filter(|&l| self.threads[l].pending.is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_isa::KernelBuilder;

    fn prog() -> Program {
        let mut b = KernelBuilder::new();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn new_warp_has_root_frame() {
        let p = prog();
        let w = Warp::new(1, 8, 16, 64, &p);
        assert_eq!(w.stack.len(), 1);
        assert_eq!(w.tos().mask, Mask::full(8));
        assert_eq!(w.tos().rpc, None);
        assert_eq!(w.tos().pc, 0);
        assert!(!w.all_halted(8));
        // Lane 3 runs global thread 19.
        assert_eq!(w.regs.get(0, 3), 19);
        assert_eq!(w.regs.get(1, 3), 64);
    }

    #[test]
    fn live_mask_excludes_halted() {
        let p = prog();
        let mut w = Warp::new(0, 4, 0, 4, &p);
        w.halted.set(1);
        assert_eq!(w.tos_live_mask(), Mask(0b1101));
        w.halted = Mask::full(4);
        assert!(w.all_halted(4));
    }

    #[test]
    fn arrived_lanes_follow_pending() {
        let p = prog();
        let mut w = Warp::new(0, 4, 0, 4, &p);
        w.set_pending(2, RequestId(9));
        assert_eq!(w.arrived_lanes(Mask::full(4)), Mask(0b1011));
        assert_eq!(w.arrived_lanes(Mask::lane(2)), Mask::EMPTY);
        assert_eq!(w.pending_lanes_by_scan(), w.pending_mask);
        w.clear_pending(2);
        assert_eq!(w.arrived_lanes(Mask::full(4)), Mask::full(4));
        assert_eq!(w.pending_lanes_by_scan(), Mask::EMPTY);
    }
}
