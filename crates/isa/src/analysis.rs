//! Reusable dataflow framework for the kernel IR.
//!
//! Each analysis states only its *domain* (the fact lattice) and
//! *transfer* (how a block changes facts); the iteration lives here, is
//! tested once, and is the only block-level fixpoint machinery in the
//! crate. [`crate::verify::Facts`] runs the register-level instances once
//! per program and every consumer — the verifier's def-use pass, the
//! melding analysis in [`crate::meld`] — reads the results.
//!
//! Two solvers cover the shapes that actually occur:
//!
//! * [`solve`] — classic round-robin iteration of a [`BlockProblem`]
//!   (forward or backward) to its maximal fixpoint. Reaching-definitions
//!   and liveness are instances ([`ReachingDefs`], [`Liveness`]); the
//!   verifier's set-based post-dominator recomputation is a third.
//! * [`solve_flow`] — a LIFO-worklist solver for forward analyses that
//!   need *per-edge* transfer (branch-condition narrowing) and custom join
//!   logic (widening): the interval bounds pass is the instance.
//!
//! The iteration disciplines are part of the contract — `solve` visits
//! blocks in index order (reverse for backward problems), `solve_flow`
//! pushes edges in the order the problem emits them — because widening
//! decisions, and therefore diagnostics, depend on them. The def-use
//! instances are pinned against a hand-written pre-framework fixpoint kept
//! as a test-scope oracle (`tests/dataflow_differential.rs`).

use crate::cfg::Cfg;
use crate::inst::{Inst, Operand, Reg};

// ---------------------------------------------------------------------------
// Use/def utilities shared by every register-level analysis.
// ---------------------------------------------------------------------------

/// Collects the registers `inst` reads into `out` (cleared first).
pub fn inst_uses(inst: &Inst, out: &mut Vec<Reg>) {
    out.clear();
    let mut op = |o: &Operand| {
        if let Operand::Reg(r) = o {
            out.push(*r);
        }
    };
    match inst {
        Inst::Alu { a, b, .. } | Inst::Set { a, b, .. } | Inst::Branch { a, b, .. } => {
            op(a);
            op(b);
        }
        Inst::Un { a, .. } => op(a),
        Inst::Load { base, .. } => out.push(*base),
        Inst::Store { src, base, .. } => {
            op(src);
            out.push(*base);
        }
        Inst::Jump { .. } | Inst::Barrier | Inst::Halt => {}
    }
}

/// The register `inst` writes, if any.
pub fn inst_def(inst: &Inst) -> Option<Reg> {
    match inst {
        Inst::Alu { dst, .. }
        | Inst::Un { dst, .. }
        | Inst::Set { dst, .. }
        | Inst::Load { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// One past the highest register index referenced anywhere (min 2: the
/// preloaded `r0`/`r1`).
pub fn max_reg(insts: &[Inst]) -> u16 {
    let mut hi = 1u16;
    let mut uses = Vec::new();
    for inst in insts {
        inst_uses(inst, &mut uses);
        for r in uses.iter().copied().chain(inst_def(inst)) {
            hi = hi.max(r.0);
        }
    }
    hi + 1
}

// ---------------------------------------------------------------------------
// Dense register bitsets: the fact domain of the def-use analyses.
// ---------------------------------------------------------------------------

/// Small dense register bitset used as the fact type of the register-level
/// dataflow problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet(Vec<u64>);

impl RegSet {
    /// The empty set over a universe of `nregs` registers.
    pub fn empty(nregs: usize) -> RegSet {
        RegSet(vec![0u64; nregs.div_ceil(64).max(1)])
    }

    /// The full set (⊤ of intersection-meet problems).
    pub fn full(nregs: usize) -> RegSet {
        RegSet(vec![!0u64; nregs.div_ceil(64).max(1)])
    }

    /// Inserts register `r`.
    pub fn set(&mut self, r: u16) {
        self.0[r as usize / 64] |= 1 << (r as usize % 64);
    }

    /// Removes register `r`.
    pub fn clear(&mut self, r: u16) {
        self.0[r as usize / 64] &= !(1 << (r as usize % 64));
    }

    /// Whether register `r` is in the set.
    pub fn has(&self, r: u16) -> bool {
        self.0[r as usize / 64] >> (r as usize % 64) & 1 == 1
    }

    /// `self ∪= o`; reports whether `self` changed.
    pub fn union_with(&mut self, o: &RegSet) -> bool {
        let mut changed = false;
        for (w, x) in self.0.iter_mut().zip(&o.0) {
            let n = *w | x;
            changed |= n != *w;
            *w = n;
        }
        changed
    }

    /// `self ∩= o`.
    pub fn intersect_with(&mut self, o: &RegSet) {
        for (w, x) in self.0.iter_mut().zip(&o.0) {
            *w &= x;
        }
    }
}

// ---------------------------------------------------------------------------
// Round-robin block dataflow.
// ---------------------------------------------------------------------------

/// Which way facts propagate through the CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry block toward the exits.
    Forward,
    /// Facts flow from the exits toward the entry.
    Backward,
}

/// A monotone block-level dataflow problem on a finite lattice.
///
/// Conventions (matching the legacy verifier fixpoints exactly):
///
/// * `Forward` — the entry block's input is [`BlockProblem::boundary`]
///   unconditionally; its predecessors (back edges into block 0) are *not*
///   met in. Every other block's input is the meet over its predecessors'
///   outputs, starting from [`BlockProblem::top`].
/// * `Backward` — an exit block's input (its out-fact) is
///   [`BlockProblem::boundary`]; every other block's is the meet over its
///   successors' results, starting from `top`.
pub trait BlockProblem {
    /// The fact lattice element attached to each block.
    type Fact: Clone + PartialEq;

    /// Which way this problem propagates.
    fn direction(&self) -> Direction;

    /// The fact at the CFG boundary: the entry block's input (forward) or
    /// every exit block's (backward).
    fn boundary(&self) -> Self::Fact;

    /// The most optimistic fact: the identity of [`BlockProblem::meet`].
    fn top(&self) -> Self::Fact;

    /// Combines a neighbor's fact into the accumulating input.
    fn meet(&self, acc: &mut Self::Fact, other: &Self::Fact);

    /// Pushes an input fact through block `b`, producing its output.
    fn transfer(&self, b: usize, fact: &mut Self::Fact);
}

/// Fixpoint facts per block, both before and after the block's transfer.
///
/// For forward problems `on_entry` is the fact at the block's first
/// instruction and `on_exit` after its last; for backward problems
/// `on_entry` is the fact *after* the block (its live-out–style input) and
/// `on_exit` the fact before it.
#[derive(Debug, Clone)]
pub struct BlockFacts<F> {
    /// Fact on the input side of each block's transfer.
    pub on_entry: Vec<F>,
    /// Fact on the output side of each block's transfer.
    pub on_exit: Vec<F>,
}

/// Round-robin iteration of `p` over `cfg` to its maximal fixpoint.
pub fn solve<P: BlockProblem>(cfg: &Cfg, p: &P) -> BlockFacts<P::Fact> {
    let nb = cfg.blocks().len();
    let mut on_entry: Vec<P::Fact> = vec![p.top(); nb];
    let mut on_exit: Vec<P::Fact> = vec![p.top(); nb];
    let forward = p.direction() == Direction::Forward;
    let mut changed = true;
    while changed {
        changed = false;
        let order: Box<dyn Iterator<Item = usize>> = if forward {
            Box::new(0..nb)
        } else {
            Box::new((0..nb).rev())
        };
        for bi in order {
            let neighbors: &[usize] = if forward {
                cfg.preds(bi)
            } else {
                &cfg.blocks()[bi].succs
            };
            let at_boundary = if forward {
                bi == 0
            } else {
                neighbors.is_empty()
            };
            let mut acc = if at_boundary {
                p.boundary()
            } else {
                let mut acc = p.top();
                for &nb in neighbors {
                    p.meet(&mut acc, &on_exit[nb]);
                }
                acc
            };
            if acc != on_entry[bi] {
                on_entry[bi] = acc.clone();
            }
            p.transfer(bi, &mut acc);
            if acc != on_exit[bi] {
                on_exit[bi] = acc;
                changed = true;
            }
        }
    }
    BlockFacts { on_entry, on_exit }
}

// ---------------------------------------------------------------------------
// Instances: reaching definitions and liveness.
// ---------------------------------------------------------------------------

/// Reaching-definitions over register bitsets: which registers have a
/// definition reaching a point. `must` variant intersects over paths
/// (definite assignment), `may` variant unions (possible assignment).
pub struct ReachingDefs {
    defs: Vec<RegSet>,
    entry: RegSet,
    nregs: usize,
    must: bool,
}

impl ReachingDefs {
    fn new(insts: &[Inst], cfg: &Cfg, num_regs: u16, must: bool) -> Self {
        let nr = num_regs as usize;
        let mut entry = RegSet::empty(nr);
        entry.set(0);
        if num_regs > 1 {
            entry.set(1);
        }
        let mut defs: Vec<RegSet> = vec![RegSet::empty(nr); cfg.blocks().len()];
        for (bi, b) in cfg.blocks().iter().enumerate() {
            for inst in &insts[b.start..b.end] {
                if let Some(r) = inst_def(inst) {
                    defs[bi].set(r.0);
                }
            }
        }
        ReachingDefs {
            defs,
            entry,
            nregs: nr,
            must,
        }
    }

    /// Definite assignment: a register reaches only if *every* path
    /// defines it. Entry state is `{r0, r1}` (the preloaded thread id and
    /// thread count).
    pub fn must(insts: &[Inst], cfg: &Cfg, num_regs: u16) -> Self {
        ReachingDefs::new(insts, cfg, num_regs, true)
    }

    /// Possible assignment: a register reaches if *some* path defines it.
    pub fn may(insts: &[Inst], cfg: &Cfg, num_regs: u16) -> Self {
        ReachingDefs::new(insts, cfg, num_regs, false)
    }
}

impl BlockProblem for ReachingDefs {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> RegSet {
        self.entry.clone()
    }

    fn top(&self) -> RegSet {
        if self.must {
            RegSet::full(self.nregs)
        } else {
            RegSet::empty(self.nregs)
        }
    }

    fn meet(&self, acc: &mut RegSet, other: &RegSet) {
        if self.must {
            acc.intersect_with(other);
        } else {
            acc.union_with(other);
        }
    }

    fn transfer(&self, b: usize, fact: &mut RegSet) {
        fact.union_with(&self.defs[b]);
    }
}

/// Classic backward liveness over register bitsets:
/// `live_in = gen ∪ (live_out ∖ kill)` with `gen` the upward-exposed uses
/// and `kill` the registers defined without a prior use.
pub struct Liveness {
    gen_set: Vec<RegSet>,
    kill: Vec<RegSet>,
    nregs: usize,
}

impl Liveness {
    /// Builds the per-block gen/kill summaries.
    pub fn new(insts: &[Inst], cfg: &Cfg, num_regs: u16) -> Self {
        let nr = num_regs as usize;
        let nb = cfg.blocks().len();
        let mut gen_set: Vec<RegSet> = vec![RegSet::empty(nr); nb];
        let mut kill: Vec<RegSet> = vec![RegSet::empty(nr); nb];
        let mut uses = Vec::new();
        for (bi, b) in cfg.blocks().iter().enumerate() {
            let mut defined = RegSet::empty(nr);
            for inst in &insts[b.start..b.end] {
                inst_uses(inst, &mut uses);
                for &r in &uses {
                    if !defined.has(r.0) {
                        gen_set[bi].set(r.0);
                    }
                }
                if let Some(r) = inst_def(inst) {
                    defined.set(r.0);
                    if !gen_set[bi].has(r.0) {
                        kill[bi].set(r.0);
                    }
                }
            }
        }
        Liveness {
            gen_set,
            kill,
            nregs: nr,
        }
    }
}

impl BlockProblem for Liveness {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> RegSet {
        RegSet::empty(self.nregs)
    }

    fn top(&self) -> RegSet {
        RegSet::empty(self.nregs)
    }

    fn meet(&self, acc: &mut RegSet, other: &RegSet) {
        acc.union_with(other);
    }

    fn transfer(&self, b: usize, fact: &mut RegSet) {
        for r in 0..self.nregs as u16 {
            if self.kill[b].has(r) {
                fact.clear(r);
            }
        }
        fact.union_with(&self.gen_set[b]);
    }
}

// ---------------------------------------------------------------------------
// Worklist edge-flow solver (the interval pass's skeleton).
// ---------------------------------------------------------------------------

/// A forward analysis whose transfer acts *per edge* — the out-state of a
/// block can differ per successor (branch-condition narrowing can even
/// prove an edge infeasible) — and whose join may widen.
///
/// The solver owns only the worklist discipline: a LIFO stack seeded with
/// the entry block, re-queuing a successor whenever its joined input
/// changes. Edge emission order is the problem's, preserved exactly, so an
/// instance restructured out of a hand-written loop (the verifier's bounds
/// pass) keeps its iteration order — and therefore its widening decisions —
/// bit-for-bit.
pub trait FlowProblem {
    /// The abstract state attached to block inputs.
    type State: Clone;

    /// State on entry to block 0.
    fn entry(&self) -> Self::State;

    /// Transfers `st` through block `block` and emits one narrowed state
    /// per feasible out-edge via `emit(successor, state)`.
    fn flow(&mut self, block: usize, st: Self::State, emit: &mut dyn FnMut(usize, Self::State));

    /// Joins `new` into the successor's pending input; returns whether the
    /// input changed (the successor is then re-queued). Widening lives
    /// here.
    fn join(&mut self, succ: usize, cur: &mut Self::State, new: Self::State) -> bool;
}

/// Runs `p` to fixpoint over a CFG of `nb` blocks; returns each block's
/// final input state (`None` for blocks no feasible path reaches).
pub fn solve_flow<P: FlowProblem>(nb: usize, p: &mut P) -> Vec<Option<P::State>> {
    let mut in_state: Vec<Option<P::State>> = vec![None; nb];
    if nb == 0 {
        return in_state;
    }
    in_state[0] = Some(p.entry());
    let mut work = vec![0usize];
    let mut outs: Vec<(usize, P::State)> = Vec::new();
    while let Some(bi) = work.pop() {
        let Some(st0) = in_state[bi].clone() else {
            continue;
        };
        outs.clear();
        p.flow(bi, st0, &mut |succ, st| outs.push((succ, st)));
        for (succ, st) in outs.drain(..) {
            match &mut in_state[succ] {
                None => {
                    in_state[succ] = Some(st);
                    work.push(succ);
                }
                Some(cur) => {
                    if p.join(succ, cur, st) {
                        work.push(succ);
                    }
                }
            }
        }
    }
    in_state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, CondOp};

    fn add(dst: u16, a: Operand, b: Operand) -> Inst {
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            a,
            b,
        }
    }

    /// A diamond: block 0 branches, arms define r2 (both) and r3 (one),
    /// join reads both.
    fn diamond() -> Vec<Inst> {
        vec![
            Inst::Branch {
                cond: CondOp::Eq,
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(0),
                target: 4,
            },
            add(2, Operand::Reg(Reg(0)), Operand::Imm(1)),
            add(3, Operand::Reg(Reg(0)), Operand::Imm(2)),
            Inst::Jump { target: 5 },
            add(2, Operand::Reg(Reg(0)), Operand::Imm(3)),
            Inst::Store {
                src: Operand::Reg(Reg(2)),
                base: Reg(0),
                offset: 0,
            },
            Inst::Store {
                src: Operand::Reg(Reg(3)),
                base: Reg(0),
                offset: 8,
            },
            Inst::Halt,
        ]
    }

    #[test]
    fn regset_ops() {
        let mut s = RegSet::empty(70);
        s.set(0);
        s.set(69);
        assert!(s.has(0) && s.has(69) && !s.has(3));
        let mut t = RegSet::full(70);
        t.intersect_with(&s);
        assert!(t.has(69) && !t.has(5));
        s.clear(69);
        assert!(!s.has(69));
        assert!(t.union_with(&RegSet::full(70)));
    }

    #[test]
    fn must_and_may_reaching_disagree_on_one_armed_defs() {
        let insts = diamond();
        let cfg = Cfg::build(&insts);
        let nr = max_reg(&insts);
        let must = solve(&cfg, &ReachingDefs::must(&insts, &cfg, nr));
        let may = solve(&cfg, &ReachingDefs::may(&insts, &cfg, nr));
        let join = cfg.block_of(5);
        // r2 is defined on both arms: definitely assigned at the join.
        assert!(must.on_entry[join].has(2));
        // r3 only on one arm: possibly but not definitely assigned.
        assert!(!must.on_entry[join].has(3));
        assert!(may.on_entry[join].has(3));
        // The preloaded registers reach everywhere.
        assert!(must.on_entry[join].has(0) && must.on_entry[join].has(1));
    }

    #[test]
    fn liveness_sees_join_reads_from_arms() {
        let insts = diamond();
        let cfg = Cfg::build(&insts);
        let nr = max_reg(&insts);
        let live = solve(&cfg, &Liveness::new(&insts, &cfg, nr));
        // At the end of each arm, r2 and r3 are live (the join stores them).
        let arm = cfg.block_of(1);
        assert!(live.on_entry[arm].has(2), "live-out of the fall arm");
        assert!(live.on_entry[arm].has(3));
        // The join block ends in Halt: its live-out (backward boundary) is
        // empty, even though r2/r3 are live on entry for the stores.
        let join = cfg.block_of(5);
        assert!(!live.on_entry[join].has(2) && !live.on_entry[join].has(3));
        assert!(live.on_exit[join].has(2) && live.on_exit[join].has(3));
    }

    #[test]
    fn solve_flow_reaches_fixpoint_on_a_loop() {
        // Count reachable visits: state = (), join never changes, so the
        // solver terminates even with a back edge.
        let insts = vec![
            add(2, Operand::Reg(Reg(0)), Operand::Imm(1)),
            Inst::Branch {
                cond: CondOp::Lt,
                a: Operand::Reg(Reg(2)),
                b: Operand::Imm(10),
                target: 0,
            },
            Inst::Halt,
        ];
        let cfg = Cfg::build(&insts);
        struct Count {
            cfg: Cfg,
            flows: usize,
        }
        impl FlowProblem for Count {
            type State = u32;
            fn entry(&self) -> u32 {
                0
            }
            fn flow(&mut self, block: usize, st: u32, emit: &mut dyn FnMut(usize, u32)) {
                self.flows += 1;
                for &s in &self.cfg.blocks()[block].succs {
                    emit(s, st.saturating_add(1));
                }
            }
            fn join(&mut self, _succ: usize, cur: &mut u32, new: u32) -> bool {
                // Join = max with saturation at 3 (a tiny widening).
                let j = (*cur).max(new).min(3);
                let changed = j != *cur;
                *cur = j;
                changed
            }
        }
        let nb = cfg.blocks().len();
        let mut p = Count { cfg, flows: 0 };
        let states = solve_flow(nb, &mut p);
        assert!(states.iter().all(Option::is_some));
        assert!(p.flows >= nb, "every block flowed at least once");
    }
}
