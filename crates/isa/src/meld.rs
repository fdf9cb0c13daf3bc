//! DARM-style control-flow melding: static branch-divergence elimination.
//!
//! The paper tolerates branch divergence *dynamically* — warp subdivision
//! lets diverged slices slip past each other. Melding is the complementary
//! *static* attack (Saumya et al.'s DARM): when a divergent branch guards a
//! single-entry/single-exit diamond whose arms are instruction-similar,
//! rewrite the diamond into predicated straight-line code so the divergence
//! never reaches the hardware. This module has two halves:
//!
//! * **Analysis** ([`find_candidates`]) — reads the verifier's fact base
//!   ([`Facts`]: CFG, divergent branches, liveness, definite assignment)
//!   for proper divergent diamonds, scores arm similarity by
//!   sequence alignment over opcode classes (the same op/class granularity
//!   the predecoder distinguishes), and renders a verdict per diamond:
//!   meldable with an estimated divergent-issue saving, or rejected with a
//!   reason. The verifier surfaces these as `DWS06xx` advisory notes.
//! * **Transform** ([`meld`]) — rewrites every profitable diamond into
//!   select/masked form and re-runs the full verifier on the output. The
//!   rewrite is *per-lane semantics preserving*: each thread executes the
//!   same memory operations with the same addresses, values, and relative
//!   order as before, so the final memory image is bit-identical under
//!   every scheduling policy (pinned by the `meld_differential` oracle in
//!   `dws-sim`).
//!
//! # The select idiom
//!
//! The IR has no predicated instructions, so the transform materializes the
//! branch condition as a full-width mask and blends with bitwise ops:
//!
//! ```text
//! p  = Set(cond, a, b)        ; 1 when the branch would be taken
//! m  = 0 - p                  ; all-ones taken mask
//! nm = ~m                     ; all-ones fall-through mask
//! ...                         ; both arms, renamed into fresh temps
//! r  = (vT & m) | (vF & nm)   ; per join-live register
//! ```
//!
//! Blending is bit-exact for every 64-bit value, integer or float.
//!
//! # Legality
//!
//! A diamond melds only when all of the following hold (each failure is a
//! distinct rejection reason in the `DWS0602` note):
//!
//! * both arms are single blocks whose only predecessor is the branch and
//!   only successor is the join (`ipdom` of the branch block), physically
//!   tiling the range between branch and join;
//! * arm bodies contain only ALU/unary/set/load/store instructions — no
//!   barriers (a melded barrier would change arrival semantics) and no
//!   nested control flow (meld innermost-first; [`meld`] iterates);
//! * memory operations pair positionally across the arms with matching
//!   kind and offset, so every lane performs exactly its own arm's
//!   accesses through a blended base register — no access is added or
//!   dropped, which is what makes the rewrite image-preserving even for
//!   gather/scatter patterns;
//! * every register live at the join and defined by only one arm has a
//!   definition reaching the branch on all paths (otherwise the blend
//!   would read an undefined register on the untaken side).
//!
//! Non-memory instructions the alignment cannot pair are executed by both
//! sides unconditionally into dead-on-the-other-side temporaries; the IR's
//! ALU is total (division by zero yields 0), so this is always safe.

use crate::analysis::{inst_def, inst_uses, max_reg, RegSet};
use crate::cfg::Cfg;
use crate::inst::{AluOp, CondOp, Inst, Operand, Reg, UnOp};
use crate::verify::{verify, Diagnostic, DwsLintCode, Facts, VerifyOptions, VerifyReport};

/// Upper bound on melding rounds: each round rewrites one diamond and
/// re-analyzes, so nested diamonds meld inside-out. Programs are small;
/// this is a runaway guard, not a tuning knob.
const MAX_ROUNDS: usize = 64;

/// Analysis verdict for one divergent diamond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeldVerdict {
    /// The diamond melds profitably.
    Meldable {
        /// Instruction pairs the sequence alignment merged (memory pairs
        /// included).
        aligned: usize,
        /// Original instruction count of the region `[branch, join)` — what
        /// a fully diverged warp issues today.
        region_len: usize,
        /// Instruction count of the melded replacement.
        melded_len: usize,
        /// `region_len - melded_len`: divergent issue slots saved per
        /// diverged warp execution.
        est_saved: usize,
    },
    /// A proper divergent diamond that must not (or should not) be melded.
    Rejected {
        /// Human-readable reason, surfaced in the `DWS0602` note.
        reason: String,
    },
}

/// One divergent diamond the analysis inspected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeldCandidate {
    /// PC of the guarding conditional branch.
    pub branch_pc: usize,
    /// Basic block of the branch.
    pub block: usize,
    /// PC where the arms re-converge (start of the join block).
    pub join_pc: usize,
    /// What the analysis concluded.
    pub verdict: MeldVerdict,
}

/// One diamond the transform actually rewrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeldApplied {
    /// Branch PC *at the time of the rewrite* (earlier rounds may have
    /// shifted it relative to the input program).
    pub branch_pc: usize,
    /// Join PC at the time of the rewrite.
    pub join_pc: usize,
    /// Divergent issue slots saved.
    pub saved: usize,
}

/// Result of [`meld`]: the rewritten program plus provenance.
#[derive(Debug, Clone)]
pub struct MeldOutcome {
    /// The melded instruction stream (identical to the input when nothing
    /// qualified).
    pub insts: Vec<Inst>,
    /// Every rewrite performed, in application order.
    pub applied: Vec<MeldApplied>,
    /// Verifier report for the *output* program (never contains errors —
    /// the transform fails instead).
    pub report: VerifyReport,
}

impl MeldOutcome {
    /// Whether any diamond was rewritten.
    pub fn changed(&self) -> bool {
        !self.applied.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Diamond shape recognition.
// ---------------------------------------------------------------------------

/// A proper two-armed diamond: branch block `B`, arm blocks whose only
/// predecessor is `B` and only successor is the join, tiling
/// `[branch_pc + 1, join_pc)` contiguously.
struct Shape {
    block: usize,
    branch_pc: usize,
    join_pc: usize,
    /// Taken-arm body `[lo, hi)` with any trailing `Jump join` stripped.
    taken: (usize, usize),
    /// Fall-through-arm body, likewise stripped.
    fall: (usize, usize),
}

fn diamond_shape(insts: &[Inst], cfg: &Cfg, pc: usize) -> Option<Shape> {
    let block = cfg.block_of(pc);
    let blocks = cfg.blocks();
    let succs = &blocks[block].succs;
    if succs.len() != 2 || succs[0] == succs[1] {
        return None;
    }
    let (t_blk, f_blk) = (succs[0], succs[1]); // taken target first (Cfg::build)
    let jb = cfg.ipdom_of_block(block)?;
    if t_blk == jb || f_blk == jb {
        return None; // one-armed if: nothing to merge against
    }
    for &arm in &[t_blk, f_blk] {
        if cfg.preds(arm).len() != 1 || blocks[arm].succs != [jb] {
            return None;
        }
    }
    let join_pc = blocks[jb].start;
    // The two arms must tile [pc+1, join_pc) in program order.
    let (first, second) = if blocks[t_blk].start < blocks[f_blk].start {
        (t_blk, f_blk)
    } else {
        (f_blk, t_blk)
    };
    if blocks[first].start != pc + 1
        || blocks[first].end != blocks[second].start
        || blocks[second].end != join_pc
    {
        return None;
    }
    // Strip the trailing `Jump join` each arm may end with (the physically
    // first arm always has one; the second usually falls through).
    let body = |b: usize| {
        let (lo, mut hi) = (blocks[b].start, blocks[b].end);
        if hi > lo && matches!(insts[hi - 1], Inst::Jump { target } if target == join_pc) {
            hi -= 1;
        }
        (lo, hi)
    };
    Some(Shape {
        block,
        branch_pc: pc,
        join_pc,
        taken: body(t_blk),
        fall: body(f_blk),
    })
}

// ---------------------------------------------------------------------------
// Arm similarity: sequence alignment over opcode classes.
// ---------------------------------------------------------------------------

/// Opcode class used as the alignment alphabet: two instructions merge only
/// when they perform the identical operation (operands may differ — those
/// are blended).
#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKey {
    Alu(AluOp),
    Un(UnOp),
    Set(CondOp),
}

fn op_key(inst: &Inst) -> Option<OpKey> {
    match *inst {
        Inst::Alu { op, .. } => Some(OpKey::Alu(op)),
        Inst::Un { op, .. } => Some(OpKey::Un(op)),
        Inst::Set { cond, .. } => Some(OpKey::Set(cond)),
        _ => None,
    }
}

/// One step of the merged emission order.
enum Pair {
    /// Arm instructions `(taken_idx, fall_idx)` merge into one.
    Both(usize, usize),
    /// Taken-arm instruction executed standalone (into a temp).
    T(usize),
    /// Fall-arm instruction executed standalone.
    F(usize),
}

/// Longest-common-subsequence alignment of two non-memory segments; matched
/// pairs are emitted as [`Pair::Both`], the rest interleaved gap-first from
/// the taken arm. Order within each arm is preserved.
fn lcs_align(
    t: &[Inst],
    f: &[Inst],
    tr: std::ops::Range<usize>,
    fr: std::ops::Range<usize>,
    out: &mut Vec<Pair>,
) {
    let (tn, fn_) = (tr.len(), fr.len());
    // dp[i][j] = LCS length of t[tr.start+i..] vs f[fr.start+j..].
    let mut dp = vec![0u32; (tn + 1) * (fn_ + 1)];
    let idx = |i: usize, j: usize| i * (fn_ + 1) + j;
    for i in (0..tn).rev() {
        for j in (0..fn_).rev() {
            let m = if op_key(&t[tr.start + i]) == op_key(&f[fr.start + j]) {
                dp[idx(i + 1, j + 1)] + 1
            } else {
                0
            };
            dp[idx(i, j)] = m.max(dp[idx(i + 1, j)]).max(dp[idx(i, j + 1)]);
        }
    }
    let (mut i, mut j) = (0, 0);
    while i < tn && j < fn_ {
        if op_key(&t[tr.start + i]) == op_key(&f[fr.start + j])
            && dp[idx(i, j)] == dp[idx(i + 1, j + 1)] + 1
        {
            out.push(Pair::Both(tr.start + i, fr.start + j));
            i += 1;
            j += 1;
        } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
            out.push(Pair::T(tr.start + i));
            i += 1;
        } else {
            out.push(Pair::F(fr.start + j));
            j += 1;
        }
    }
    for k in i..tn {
        out.push(Pair::T(tr.start + k));
    }
    for k in j..fn_ {
        out.push(Pair::F(fr.start + k));
    }
}

// ---------------------------------------------------------------------------
// Melded-body construction.
// ---------------------------------------------------------------------------

struct Melded {
    /// Replacement for `[branch_pc, join_pc)`.
    body: Vec<Inst>,
    region_len: usize,
    aligned: usize,
    /// `region_len as i64 - body.len() as i64`.
    saved: i64,
}

/// Incremental emission state: fresh-temp allocator, per-arm rename maps
/// (original register -> temp, built in emission order so reads before an
/// arm's definition still see the pre-branch value), and the lazily
/// materialized mask preamble.
struct Emitter {
    body: Vec<Inst>,
    pre: Vec<Inst>,
    next: u16,
    map_t: Vec<Option<Reg>>,
    map_f: Vec<Option<Reg>>,
    /// `(taken_mask, fall_mask)` once any blend needed them.
    masks: Option<(Reg, Reg)>,
    cond: (CondOp, Operand, Operand),
}

impl Emitter {
    fn fresh(&mut self) -> Reg {
        let r = Reg(self.next);
        self.next += 1;
        r
    }

    /// The all-ones taken/fall masks, materializing the preamble
    /// (`Set`/`Sub`/`Not` on the branch condition) on first use. The
    /// preamble is *prepended* to the final body, so it always reads the
    /// pre-branch register values regardless of when the first blend
    /// happens.
    fn masks(&mut self) -> (Reg, Reg) {
        if let Some(m) = self.masks {
            return m;
        }
        let p = self.fresh();
        let m = self.fresh();
        let nm = self.fresh();
        let (cond, a, b) = self.cond;
        self.pre.push(Inst::Set { cond, dst: p, a, b });
        self.pre.push(Inst::Alu {
            op: AluOp::Sub,
            dst: m,
            a: Operand::Imm(0),
            b: Operand::Reg(p),
        });
        self.pre.push(Inst::Un {
            op: UnOp::Not,
            dst: nm,
            a: Operand::Reg(m),
        });
        self.masks = Some((m, nm));
        (m, nm)
    }

    fn map_op(map: &[Option<Reg>], o: Operand) -> Operand {
        match o {
            Operand::Reg(r) => match map.get(r.0 as usize).copied().flatten() {
                Some(t) => Operand::Reg(t),
                None => o,
            },
            _ => o,
        }
    }

    /// `(x & m) | (y & nm)` into a fresh temp, or `x` directly when the
    /// operands are identical.
    fn blend(&mut self, x: Operand, y: Operand) -> Operand {
        if x == y {
            return x;
        }
        let (m, nm) = self.masks();
        let tx = self.fresh();
        self.body.push(Inst::Alu {
            op: AluOp::And,
            dst: tx,
            a: x,
            b: Operand::Reg(m),
        });
        let ty = self.fresh();
        self.body.push(Inst::Alu {
            op: AluOp::And,
            dst: ty,
            a: y,
            b: Operand::Reg(nm),
        });
        let t = self.fresh();
        self.body.push(Inst::Alu {
            op: AluOp::Or,
            dst: t,
            a: Operand::Reg(tx),
            b: Operand::Reg(ty),
        });
        Operand::Reg(t)
    }

    /// Like [`Emitter::blend`] but writing an existing register (the join
    /// selects).
    fn blend_into(&mut self, dst: Reg, x: Operand, y: Operand) {
        if x == y {
            self.body.push(Inst::Un {
                op: UnOp::Mov,
                dst,
                a: x,
            });
            return;
        }
        let (m, nm) = self.masks();
        let tx = self.fresh();
        self.body.push(Inst::Alu {
            op: AluOp::And,
            dst: tx,
            a: x,
            b: Operand::Reg(m),
        });
        let ty = self.fresh();
        self.body.push(Inst::Alu {
            op: AluOp::And,
            dst: ty,
            a: y,
            b: Operand::Reg(nm),
        });
        self.body.push(Inst::Alu {
            op: AluOp::Or,
            dst,
            a: Operand::Reg(tx),
            b: Operand::Reg(ty),
        });
    }

    /// A blended operand as a base register (blend always yields a register
    /// when both inputs are registers).
    fn blend_base(&mut self, x: Reg, y: Reg) -> Reg {
        match self.blend(Operand::Reg(x), Operand::Reg(y)) {
            Operand::Reg(r) => r,
            _ => unreachable!("blend of two registers is a register"),
        }
    }

    /// Emits one arm instruction standalone: operands renamed through that
    /// arm's map, destination redirected to a fresh temp.
    fn emit_gap(&mut self, inst: &Inst, taken_arm: bool) {
        let map = if taken_arm { &self.map_t } else { &self.map_f };
        let rewritten = match *inst {
            Inst::Alu { op, dst, a, b } => {
                let (a, b) = (Self::map_op(map, a), Self::map_op(map, b));
                let t = self.fresh();
                self.record(dst, t, taken_arm);
                Inst::Alu { op, dst: t, a, b }
            }
            Inst::Un { op, dst, a } => {
                let a = Self::map_op(map, a);
                let t = self.fresh();
                self.record(dst, t, taken_arm);
                Inst::Un { op, dst: t, a }
            }
            Inst::Set { cond, dst, a, b } => {
                let (a, b) = (Self::map_op(map, a), Self::map_op(map, b));
                let t = self.fresh();
                self.record(dst, t, taken_arm);
                Inst::Set { cond, dst: t, a, b }
            }
            // Memory ops always pair (legality), branches/jumps/barriers
            // were rejected before emission.
            _ => unreachable!("gap instructions are ALU-class only"),
        };
        self.body.push(rewritten);
    }

    fn record(&mut self, orig: Reg, temp: Reg, taken_arm: bool) {
        let map = if taken_arm {
            &mut self.map_t
        } else {
            &mut self.map_f
        };
        if let Some(slot) = map.get_mut(orig.0 as usize) {
            *slot = Some(temp);
        }
    }

    fn record_both(&mut self, orig_t: Reg, orig_f: Reg, temp: Reg) {
        self.record(orig_t, temp, true);
        self.record(orig_f, temp, false);
    }
}

/// Builds the melded replacement for a recognized diamond, or explains why
/// it cannot (the `DWS0602` reason).
fn try_meld(
    insts: &[Inst],
    live_in_join: &RegSet,
    must_at_branch: &RegSet,
    nregs: u16,
    shape: &Shape,
) -> Result<Melded, String> {
    let t_body = &insts[shape.taken.0..shape.taken.1];
    let f_body = &insts[shape.fall.0..shape.fall.1];
    // Content: straight-line ALU/memory only.
    for (arm, body) in [("taken", t_body), ("fall-through", f_body)] {
        for inst in body {
            match inst {
                Inst::Alu { .. }
                | Inst::Un { .. }
                | Inst::Set { .. }
                | Inst::Load { .. }
                | Inst::Store { .. } => {}
                Inst::Barrier => {
                    return Err(format!("{arm} arm contains a barrier"));
                }
                other => {
                    return Err(format!(
                        "{arm} arm contains non-meldable instruction {other}"
                    ));
                }
            }
        }
    }
    // Memory pairing: k-th memory op of each arm must agree on kind and
    // offset so each lane keeps exactly its own access stream.
    let mem_positions = |body: &[Inst]| -> Vec<usize> {
        body.iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Inst::Load { .. } | Inst::Store { .. }))
            .map(|(k, _)| k)
            .collect()
    };
    let (mems_t, mems_f) = (mem_positions(t_body), mem_positions(f_body));
    if mems_t.len() != mems_f.len() {
        return Err(format!(
            "memory operations do not pair: {} on the taken arm vs {} on the fall-through arm",
            mems_t.len(),
            mems_f.len()
        ));
    }
    for (k, (&ti, &fi)) in mems_t.iter().zip(&mems_f).enumerate() {
        let ok = match (&t_body[ti], &f_body[fi]) {
            (Inst::Load { offset: a, .. }, Inst::Load { offset: b, .. }) => a == b,
            (Inst::Store { offset: a, .. }, Inst::Store { offset: b, .. }) => a == b,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "memory pair {k} mismatches in kind or offset ({} vs {})",
                t_body[ti], f_body[fi]
            ));
        }
    }
    // One-armed definitions of join-live registers need a dominating def:
    // the blend's untaken side reads the pre-branch value.
    let arm_defs = |body: &[Inst]| {
        let mut s = RegSet::empty(nregs as usize);
        for inst in body {
            if let Some(r) = inst_def(inst) {
                s.set(r.0);
            }
        }
        s
    };
    let (defs_t, defs_f) = (arm_defs(t_body), arm_defs(f_body));
    for r in 0..nregs {
        if live_in_join.has(r) && defs_t.has(r) != defs_f.has(r) && !must_at_branch.has(r) {
            return Err(format!(
                "r{r} is live at the join but defined on only one arm with no dominating definition"
            ));
        }
    }
    // Alignment: memory pairs are anchors; LCS aligns the segments between.
    let mut pairs = Vec::new();
    let (mut ti, mut fi) = (0usize, 0usize);
    for k in 0..=mems_t.len() {
        let (te, fe) = if k < mems_t.len() {
            (mems_t[k], mems_f[k])
        } else {
            (t_body.len(), f_body.len())
        };
        lcs_align(t_body, f_body, ti..te, fi..fe, &mut pairs);
        if k < mems_t.len() {
            pairs.push(Pair::Both(te, fe));
        }
        ti = te + 1;
        fi = fe + 1;
    }
    let aligned = pairs.iter().filter(|p| matches!(p, Pair::Both(..))).count();
    // Emission.
    let Inst::Branch { cond, a, b, .. } = insts[shape.branch_pc] else {
        unreachable!("shape anchors a conditional branch");
    };
    let mut e = Emitter {
        body: Vec::new(),
        pre: Vec::new(),
        next: nregs,
        map_t: vec![None; nregs as usize],
        map_f: vec![None; nregs as usize],
        masks: None,
        cond: (cond, a, b),
    };
    for pair in &pairs {
        match *pair {
            Pair::T(i) => e.emit_gap(&t_body[i], true),
            Pair::F(i) => e.emit_gap(&f_body[i], false),
            Pair::Both(i, j) => {
                let (t, f) = (&t_body[i], &f_body[j]);
                match (*t, *f) {
                    (
                        Inst::Alu {
                            op,
                            dst: dt,
                            a: ta,
                            b: tb,
                        },
                        Inst::Alu {
                            dst: df,
                            a: fa,
                            b: fb,
                            ..
                        },
                    ) => {
                        let a =
                            e.blend(Emitter::map_op(&e.map_t, ta), Emitter::map_op(&e.map_f, fa));
                        let b =
                            e.blend(Emitter::map_op(&e.map_t, tb), Emitter::map_op(&e.map_f, fb));
                        let dst = e.fresh();
                        e.body.push(Inst::Alu { op, dst, a, b });
                        e.record_both(dt, df, dst);
                    }
                    (
                        Inst::Set {
                            cond,
                            dst: dt,
                            a: ta,
                            b: tb,
                        },
                        Inst::Set {
                            dst: df,
                            a: fa,
                            b: fb,
                            ..
                        },
                    ) => {
                        let a =
                            e.blend(Emitter::map_op(&e.map_t, ta), Emitter::map_op(&e.map_f, fa));
                        let b =
                            e.blend(Emitter::map_op(&e.map_t, tb), Emitter::map_op(&e.map_f, fb));
                        let dst = e.fresh();
                        e.body.push(Inst::Set { cond, dst, a, b });
                        e.record_both(dt, df, dst);
                    }
                    (Inst::Un { op, dst: dt, a: ta }, Inst::Un { dst: df, a: fa, .. }) => {
                        let a =
                            e.blend(Emitter::map_op(&e.map_t, ta), Emitter::map_op(&e.map_f, fa));
                        let dst = e.fresh();
                        e.body.push(Inst::Un { op, dst, a });
                        e.record_both(dt, df, dst);
                    }
                    (
                        Inst::Load {
                            dst: dt,
                            base: bt,
                            offset,
                        },
                        Inst::Load {
                            dst: df, base: bf, ..
                        },
                    ) => {
                        let Operand::Reg(bt) = Emitter::map_op(&e.map_t, Operand::Reg(bt)) else {
                            unreachable!()
                        };
                        let Operand::Reg(bf) = Emitter::map_op(&e.map_f, Operand::Reg(bf)) else {
                            unreachable!()
                        };
                        let base = e.blend_base(bt, bf);
                        let dst = e.fresh();
                        e.body.push(Inst::Load { dst, base, offset });
                        e.record_both(dt, df, dst);
                    }
                    (
                        Inst::Store {
                            src: st,
                            base: bt,
                            offset,
                        },
                        Inst::Store {
                            src: sf, base: bf, ..
                        },
                    ) => {
                        let src =
                            e.blend(Emitter::map_op(&e.map_t, st), Emitter::map_op(&e.map_f, sf));
                        let Operand::Reg(bt) = Emitter::map_op(&e.map_t, Operand::Reg(bt)) else {
                            unreachable!()
                        };
                        let Operand::Reg(bf) = Emitter::map_op(&e.map_f, Operand::Reg(bf)) else {
                            unreachable!()
                        };
                        let base = e.blend_base(bt, bf);
                        e.body.push(Inst::Store { src, base, offset });
                    }
                    _ => unreachable!("aligned pairs share an opcode class"),
                }
            }
        }
    }
    // Join selects, ascending register order: only registers the join
    // actually reads, so no dead writes are introduced.
    for r in 0..nregs {
        let (mt, mf) = (e.map_t[r as usize], e.map_f[r as usize]);
        if !live_in_join.has(r) || (mt.is_none() && mf.is_none()) {
            continue;
        }
        let x = Operand::Reg(mt.unwrap_or(Reg(r)));
        let y = Operand::Reg(mf.unwrap_or(Reg(r)));
        e.blend_into(Reg(r), x, y);
    }
    let Emitter { mut pre, body, .. } = e;
    pre.extend(body);
    let region_len = shape.join_pc - shape.branch_pc;
    let saved = region_len as i64 - pre.len() as i64;
    Ok(Melded {
        body: pre,
        region_len,
        aligned,
        saved,
    })
}

// ---------------------------------------------------------------------------
// Public analysis entry.
// ---------------------------------------------------------------------------

fn candidates_impl(facts: &Facts) -> Vec<(MeldCandidate, Option<Melded>)> {
    let (insts, cfg, nregs) = (facts.insts, facts.cfg, facts.num_regs);
    let (live, must) = (&facts.live, &facts.must);
    let mut out = Vec::new();
    // Only divergent branches: a uniform one never diverges a warp, so
    // melding it has nothing to save.
    for region in &facts.uniformity.regions {
        let pc = region.branch_pc;
        let Some(shape) = diamond_shape(insts, cfg, pc) else {
            continue;
        };
        let jb = cfg.block_of(shape.join_pc);
        let (verdict, melded) = match try_meld(
            insts,
            &live.on_exit[jb],
            &must.on_exit[shape.block],
            nregs,
            &shape,
        ) {
            Ok(m) if m.saved > 0 => (
                MeldVerdict::Meldable {
                    aligned: m.aligned,
                    region_len: m.region_len,
                    melded_len: m.body.len(),
                    est_saved: m.saved as usize,
                },
                Some(m),
            ),
            Ok(m) => (
                MeldVerdict::Rejected {
                    reason: format!(
                        "unprofitable: melded form is {} insts vs {} divergent (arms too dissimilar)",
                        m.body.len(),
                        m.region_len
                    ),
                },
                None,
            ),
            Err(reason) => (MeldVerdict::Rejected { reason }, None),
        };
        out.push((
            MeldCandidate {
                branch_pc: pc,
                block: shape.block,
                join_pc: shape.join_pc,
                verdict,
            },
            melded,
        ));
    }
    out
}

/// Finds every proper *divergent* diamond (per `facts`' uniformity
/// classification) and renders a meld verdict for it.
pub fn find_candidates(facts: &Facts) -> Vec<MeldCandidate> {
    candidates_impl(facts).into_iter().map(|(c, _)| c).collect()
}

/// The verifier's advisory pass 6 (`DWS06xx`): runs [`find_candidates`] over
/// every proper divergent diamond and reports each verdict as a note —
/// `DWS0601` for regions `dws-cli opt --meld` would rewrite, `DWS0602` for
/// diamonds it inspected and declined (with the reason).
pub(crate) fn pass_meld(facts: &Facts, report: &mut VerifyReport) {
    for cand in find_candidates(facts) {
        let diag = match &cand.verdict {
            MeldVerdict::Meldable {
                aligned,
                region_len,
                melded_len,
                est_saved,
            } => Diagnostic::new(
                DwsLintCode::MeldableRegion,
                Some(cand.branch_pc),
                Some(cand.block),
                format!(
                    "meldable region at pc {}: {aligned} aligned ops, melding replaces \
                     {region_len} divergent insts with {melded_len} (est. {est_saved} saved; \
                     join at pc {})",
                    cand.branch_pc, cand.join_pc
                ),
            ),
            MeldVerdict::Rejected { reason } => Diagnostic::new(
                DwsLintCode::MeldRejected,
                Some(cand.branch_pc),
                Some(cand.block),
                format!(
                    "divergent diamond at pc {} (join at pc {}) not melded: {reason}",
                    cand.branch_pc, cand.join_pc
                ),
            ),
        };
        report.record(facts.insts, diag);
    }
}

// ---------------------------------------------------------------------------
// The transform.
// ---------------------------------------------------------------------------

/// Splices `body` over `[lo, hi)`, retargeting every branch/jump outside
/// the region. No target may point *into* the region interior: the arms'
/// only predecessor is the branch being removed (diamond legality).
fn splice(insts: &[Inst], lo: usize, hi: usize, body: Vec<Inst>) -> Vec<Inst> {
    let delta = body.len() as i64 - (hi - lo) as i64;
    let retarget = |t: usize| -> usize {
        if t <= lo {
            t
        } else {
            assert!(t >= hi, "no external control transfer into a meld region");
            (t as i64 + delta) as usize
        }
    };
    let fix = |inst: &Inst| -> Inst {
        match *inst {
            Inst::Branch { cond, a, b, target } => Inst::Branch {
                cond,
                a,
                b,
                target: retarget(target),
            },
            Inst::Jump { target } => Inst::Jump {
                target: retarget(target),
            },
            other => other,
        }
    };
    let mut out = Vec::with_capacity((insts.len() as i64 + delta) as usize);
    out.extend(insts[..lo].iter().map(&fix));
    out.extend(body);
    out.extend(insts[hi..].iter().map(&fix));
    out
}

/// Renumbers registers densely after melding: arm definitions whose every
/// occurrence was renamed into temporaries leave their original index
/// unreferenced, which the verifier would flag as `DWS0304` (register file
/// looser than the kernel needs). `r0`/`r1` stay pinned (preloaded).
fn compact_regs(insts: &mut [Inst]) {
    let top = max_reg(insts) as usize;
    let mut used = vec![false; top];
    used[0] = true;
    if top > 1 {
        used[1] = true;
    }
    let mut uses = Vec::new();
    for inst in insts.iter() {
        inst_uses(inst, &mut uses);
        for r in uses.iter().copied().chain(inst_def(inst)) {
            used[r.0 as usize] = true;
        }
    }
    if used.iter().all(|&u| u) {
        return;
    }
    let mut remap = vec![Reg(0); top];
    let mut next = 0u16;
    for (r, &u) in used.iter().enumerate() {
        if u {
            remap[r] = Reg(next);
            next += 1;
        }
    }
    let map_o = |o: &mut Operand| {
        if let Operand::Reg(r) = o {
            *r = remap[r.0 as usize];
        }
    };
    for inst in insts.iter_mut() {
        match inst {
            Inst::Alu { dst, a, b, .. } | Inst::Set { dst, a, b, .. } => {
                *dst = remap[dst.0 as usize];
                map_o(a);
                map_o(b);
            }
            Inst::Un { dst, a, .. } => {
                *dst = remap[dst.0 as usize];
                map_o(a);
            }
            Inst::Load { dst, base, .. } => {
                *dst = remap[dst.0 as usize];
                *base = remap[base.0 as usize];
            }
            Inst::Store { src, base, .. } => {
                map_o(src);
                *base = remap[base.0 as usize];
            }
            Inst::Branch { a, b, .. } => {
                map_o(a);
                map_o(b);
            }
            Inst::Jump { .. } | Inst::Barrier | Inst::Halt => {}
        }
    }
}

/// Rewrites every profitable meldable diamond into predicated straight-line
/// code, innermost-first, and verifies the result.
///
/// # Errors
///
/// Returns the verifier report when the *input* fails verification (the
/// transform only operates on well-formed programs), or — which would be a
/// transform bug, and is what the fuzzer's meld axis hunts — when the
/// *output* does.
pub fn meld(insts: &[Inst]) -> Result<MeldOutcome, Box<VerifyReport>> {
    let opts = VerifyOptions::default();
    let (report, built) = verify(insts, &opts);
    if report.has_errors() || built.is_none() {
        return Err(Box::new(report));
    }
    let mut cur = insts.to_vec();
    let mut applied = Vec::new();
    for _ in 0..MAX_ROUNDS {
        let cfg = Cfg::build(&cur);
        let next = candidates_impl(&Facts::compute(&cur, &cfg))
            .into_iter()
            .find_map(|(c, m)| m.map(|m| (c, m)));
        let Some((cand, melded)) = next else { break };
        applied.push(MeldApplied {
            branch_pc: cand.branch_pc,
            join_pc: cand.join_pc,
            saved: melded.saved as usize,
        });
        cur = splice(&cur, cand.branch_pc, cand.join_pc, melded.body);
    }
    if !applied.is_empty() {
        compact_regs(&mut cur);
    }
    let (out_report, _) = verify(&cur, &opts);
    if out_report.has_errors() {
        return Err(Box::new(out_report));
    }
    Ok(MeldOutcome {
        insts: cur,
        applied,
        report: out_report,
    })
}

#[cfg(test)]
mod tests;
