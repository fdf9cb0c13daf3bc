//! The fact base: everything the verifier's passes, the melding analysis
//! and the WPU scheduler need to know about a program, derived once.
//!
//! [`Facts::compute`] runs each analysis exactly once over one [`Cfg`]:
//! block reachability, the register count, the [`Uniformity`]
//! classification, and the must/may reaching-definitions and liveness
//! fixpoints. Passes take `&Facts`; none of them re-derives what is here.

use crate::analysis::{
    inst_def, inst_uses, max_reg, solve, BlockFacts, Liveness, ReachingDefs, RegSet,
};
use crate::cfg::Cfg;
use crate::inst::{Inst, Reg};

/// Per-PC branch uniformity classification consumed by the WPU scheduler
/// (see [`branch_uniformity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchUniformity {
    /// `uniform[pc]` — `insts[pc]` is a conditional branch whose condition
    /// is provably warp-uniform: lanes that share the same *uniform-spine
    /// position* always agree on its outcome, so one representative lane
    /// may decide for a whole group (subject to the scheduler's dynamic
    /// spine-sync tracking; see `spine`).
    pub uniform: Vec<bool>,
    /// `spine[pc]` — the branch is uniform *and* sits outside every
    /// divergent branch's open re-convergence region, i.e. on the
    /// uniform spine all lanes execute in lockstep order. The count of
    /// retired spine branches, together with the PC, identifies a lane's
    /// spine position: two group fragments that merge with equal counts
    /// provably agree on every non-varying register (all such registers
    /// are defined on the spine), while a mismatch (e.g. a memory-split
    /// run-ahead lapping a uniform loop before a PC merge) means uniform
    /// registers may differ per lane and the fast path must be disabled.
    pub spine: Vec<bool>,
}

/// A potentially-divergent branch and the blocks executable while its
/// re-convergence frame is open: reachable from either successor without
/// crossing the branch block's immediate post-dominator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergentRegion {
    /// PC of the divergent branch.
    pub branch_pc: usize,
    /// `blocks[b]` — block `b` is inside the open region.
    pub blocks: Vec<bool>,
}

/// Which registers vary across the lanes of a warp, and what follows for
/// every conditional branch.
///
/// This must be sound against execution — the scheduler lets one lane
/// decide a uniform branch for its whole group — so it combines two rules
/// to a joint fixpoint:
///
/// * **data dependence** — `r0` (the thread id) varies per lane, loads are
///   conservatively lane-varying, and varying-ness propagates through
///   every computation that consumes a varying register; immediates and
///   `r1` (the thread count) are warp-uniform;
/// * **control dependence** — a register defined anywhere inside the open
///   region of a divergent branch is lane-varying even when its operands
///   are uniform (lanes that took different paths — or different trip
///   counts — through that region hold different values at the merge
///   point).
///
/// The rules feed each other: newly-varying registers can make more
/// branches divergent, whose regions taint more definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uniformity {
    /// `varying[r]` — register `r` may differ between the lanes of a warp.
    pub varying: Vec<bool>,
    /// The per-PC `uniform`/`spine` marks the scheduler reads.
    pub branches: BranchUniformity,
    /// Every branch on a varying operand, with its open region, in pc
    /// order.
    pub regions: Vec<DivergentRegion>,
}

/// One sweep of both rules over the program, tainting into `varying` and
/// flooding the region of each branch that newly tests divergent; returns
/// whether any register was newly tainted.
fn taint_sweep(
    insts: &[Inst],
    cfg: &Cfg,
    varying: &mut [bool],
    region: &mut [Option<Vec<bool>>],
) -> bool {
    let mut changed = false;
    let mut taint = |varying: &mut [bool], r: Reg| {
        changed |= !std::mem::replace(&mut varying[r.0 as usize], true);
    };
    let mut uses = Vec::new();
    for (pc, inst) in insts.iter().enumerate() {
        inst_uses(inst, &mut uses);
        if !matches!(inst, Inst::Load { .. }) && !uses.iter().any(|r| varying[r.0 as usize]) {
            continue;
        }
        if let Some(dst) = inst_def(inst) {
            taint(varying, dst);
        } else if matches!(inst, Inst::Branch { .. }) && region[pc].is_none() {
            // A region depends on the CFG alone and tainting it is
            // idempotent, so each is flooded once: when its branch first
            // tests divergent.
            let b = cfg.block_of(pc);
            let open = cfg.flood(cfg.blocks()[b].succs.iter().copied(), cfg.ipdom_of_block(b));
            for (blk, _) in cfg.blocks().iter().zip(&open).filter(|(_, &o)| o) {
                for dst in insts[blk.start..blk.end].iter().filter_map(inst_def) {
                    taint(varying, dst);
                }
            }
            region[pc] = Some(open);
        }
    }
    changed
}

impl Uniformity {
    /// Classifies `insts` over their CFG.
    pub fn compute(insts: &[Inst], cfg: &Cfg) -> Uniformity {
        let mut varying = vec![false; max_reg(insts) as usize];
        varying[0] = true; // r0 = tid
        let mut region: Vec<Option<Vec<bool>>> = vec![None; insts.len()];
        while taint_sweep(insts, cfg, &mut varying, &mut region) {}
        let uniform: Vec<bool> = insts
            .iter()
            .zip(&region)
            .map(|(inst, r)| matches!(inst, Inst::Branch { .. }) && r.is_none())
            .collect();
        let regions: Vec<DivergentRegion> = region
            .into_iter()
            .enumerate()
            .filter_map(|(branch_pc, r)| r.map(|blocks| DivergentRegion { branch_pc, blocks }))
            .collect();
        // A uniform branch inside any divergent region executes under a
        // divergent mask and must not advance the spine counter (only one
        // path's lanes would count it).
        let spine: Vec<bool> = uniform
            .iter()
            .enumerate()
            .map(|(pc, &u)| u && !regions.iter().any(|r| r.blocks[cfg.block_of(pc)]))
            .collect();
        Uniformity {
            varying,
            branches: BranchUniformity { uniform, spine },
            regions,
        }
    }
}

/// Classifies every conditional branch of a raw instruction stream as
/// provably-uniform (and spine-resident) or potentially divergent: the
/// [`Uniformity`] of `insts` as the scheduler sees it. A built
/// [`Program`](crate::Program) already carries this
/// ([`Program::branch_uniformity`](crate::Program::branch_uniformity)).
pub fn branch_uniformity(insts: &[Inst]) -> BranchUniformity {
    Uniformity::compute(insts, &Cfg::build(insts)).branches
}

/// One program's shared analysis results. Borrowed by every verifier pass
/// and by [`crate::meld::find_candidates`].
#[derive(Debug)]
pub struct Facts<'a> {
    /// The instruction stream the facts describe.
    pub insts: &'a [Inst],
    /// Its control-flow graph.
    pub cfg: &'a Cfg,
    /// `reach[b]` — block `b` is reachable from the entry.
    pub reach: Vec<bool>,
    /// One past the highest register index referenced (min 2).
    pub num_regs: u16,
    /// Lane-varying registers, branch classification, divergent regions.
    pub uniformity: Uniformity,
    /// Definite assignment: registers defined on *every* path to a point.
    pub must: BlockFacts<RegSet>,
    /// Possible assignment: registers defined on *some* path to a point.
    pub may: BlockFacts<RegSet>,
    /// Backward liveness; `on_entry[b]` is block `b`'s live-out set and
    /// `on_exit[b]` its live-in set.
    pub live: BlockFacts<RegSet>,
}

impl<'a> Facts<'a> {
    /// Runs every shared analysis once. `insts` must be structurally valid
    /// (non-empty, targets in range) and `cfg` built from it.
    pub fn compute(insts: &'a [Inst], cfg: &'a Cfg) -> Facts<'a> {
        let num_regs = max_reg(insts);
        Facts {
            insts,
            cfg,
            reach: cfg.flood([0], None),
            num_regs,
            uniformity: Uniformity::compute(insts, cfg),
            must: solve(cfg, &ReachingDefs::must(insts, cfg, num_regs)),
            may: solve(cfg, &ReachingDefs::may(insts, cfg, num_regs)),
            live: solve(cfg, &Liveness::new(insts, cfg, num_regs)),
        }
    }
}
