//! Pass 4 (`DWS04xx`): static memory bounds — interval analysis over the
//! address arithmetic, with symbolic facts for relational narrowing.
//!
//! Items the unit tests probe directly are `pub(super)`: the tests live in
//! `verify::tests`, where their recorded ids pin them.

use super::{Diagnostic, DwsLintCode, Facts, VerifyOptions, VerifyReport};
use crate::analysis::{inst_def, solve_flow, FlowProblem};
use crate::cfg::Cfg;
use crate::inst::{AluOp, CondOp, Inst, Operand, Reg, UnOp};

/// Interval lower/upper sentinels. They sit far outside the `i64` range the
/// machine can actually compute, so a bound at (or beyond) a sentinel means
/// "unbounded" while ordinary interval arithmetic on them stays sound.
const INF_NEG: i128 = i128::MIN / 4;
/// See [`INF_NEG`].
const INF_POS: i128 = i128::MAX / 4;

/// Bounds past this magnitude are treated as "unbounded" when classifying
/// accesses: genuine `i64` arithmetic stays below it, widened values don't.
const BOUNDED_LIMIT: i128 = 1 << 70;

/// A signed interval `[lo, hi]`; empty when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Itv {
    pub(super) lo: i128,
    pub(super) hi: i128,
}

impl Itv {
    pub(super) const TOP: Itv = Itv {
        lo: INF_NEG,
        hi: INF_POS,
    };
    pub(super) fn exact(v: i128) -> Itv {
        Itv { lo: v, hi: v }
    }
    pub(super) fn new(lo: i128, hi: i128) -> Itv {
        Itv {
            lo: lo.clamp(INF_NEG, INF_POS),
            hi: hi.clamp(INF_NEG, INF_POS),
        }
    }
    pub(super) fn is_empty(self) -> bool {
        self.lo > self.hi
    }
    pub(super) fn join(self, o: Itv) -> Itv {
        Itv {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
    pub(super) fn meet(self, o: Itv) -> Itv {
        Itv {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
        }
    }
    pub(super) fn add(self, o: Itv) -> Itv {
        Itv::new(self.lo + o.lo, self.hi + o.hi)
    }
    pub(super) fn sub(self, o: Itv) -> Itv {
        Itv::new(self.lo - o.hi, self.hi - o.lo)
    }
    pub(super) fn neg(self) -> Itv {
        Itv::new(-self.hi, -self.lo)
    }
    pub(super) fn mul(self, o: Itv) -> Itv {
        let c = |x: i128, y: i128| {
            x.checked_mul(y)
                .map_or(if (x < 0) != (y < 0) { INF_NEG } else { INF_POS }, |v| {
                    v.clamp(INF_NEG, INF_POS)
                })
        };
        let corners = [
            c(self.lo, o.lo),
            c(self.lo, o.hi),
            c(self.hi, o.lo),
            c(self.hi, o.hi),
        ];
        Itv {
            lo: corners.iter().copied().min().unwrap(),
            hi: corners.iter().copied().max().unwrap(),
        }
    }
    /// Whether both bounds are small enough to be trusted as real limits.
    pub(super) fn is_bounded(self) -> bool {
        self.lo > -BOUNDED_LIMIT && self.hi < BOUNDED_LIMIT
    }
    fn render(self) -> String {
        let b = |v: i128, inf: &str| {
            if (-BOUNDED_LIMIT..BOUNDED_LIMIT).contains(&v) {
                v.to_string()
            } else {
                inf.into()
            }
        };
        format!("[{}, {}]", b(self.lo, "-inf"), b(self.hi, "+inf"))
    }
}

/// A symbolic fact about a register's *current* value in terms of another
/// register's current value: `dst = scale*src + offset`, `dst = src / d`,
/// or `dst = src % d` (both with a positive constant `d`).
///
/// Facts are flow-sensitive and killed the moment either side is
/// redefined, so holding one at a program point is a genuine equality
/// there. They are what lets branch narrowing act *relationally*: a guard
/// on `r = i / n` narrows `i` too, and a guard on `i` re-narrows values
/// derived from it (`a = i*8 + base`) that were computed before the
/// branch. Constant operands are resolved through write-once immediate
/// registers ([`write_once_imm_consts`]), so `li rk, 8; mul a, i, rk`
/// carries the same fact as `mul a, i, 8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SymExpr {
    /// `dst = scale*src + offset` with `scale != 0`.
    Affine { src: Reg, scale: i128, offset: i128 },
    /// `dst = src / d` (truncating), `d > 0`.
    DivBy { src: Reg, d: i128 },
    /// `dst = src % d` (sign follows `src`), `d > 0`.
    RemBy { src: Reg, d: i128 },
}

impl SymExpr {
    fn src(self) -> Reg {
        match self {
            SymExpr::Affine { src, .. }
            | SymExpr::DivBy { src, .. }
            | SymExpr::RemBy { src, .. } => src,
        }
    }
}

/// The bounds pass's per-point abstract state: an interval per register
/// plus at most one symbolic fact per register.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BState {
    itv: Vec<Itv>,
    sym: Vec<Option<SymExpr>>,
}

/// Constant propagation through write-once immediate registers: a register
/// (other than the preloaded `r0`/`r1`) whose *only* static definition in
/// the whole program is `mov rK, imm` can be treated as that constant
/// wherever it is read after the definition. This is what lets kernels
/// hold scales, masks, and divisors in registers without the bounds pass
/// losing the exactness it needs for [`SymExpr`] extraction.
pub(super) fn write_once_imm_consts(insts: &[Inst], num_regs: u16) -> Vec<Option<i128>> {
    let nr = num_regs as usize;
    let mut defs = vec![0u32; nr];
    let mut value: Vec<Option<i128>> = vec![None; nr];
    for inst in insts {
        if let Some(r) = inst_def(inst) {
            let r = r.0 as usize;
            defs[r] += 1;
            value[r] = match inst {
                Inst::Un {
                    op: UnOp::Mov,
                    a: Operand::Imm(v),
                    ..
                } => Some(*v as i128),
                _ => None,
            };
        }
    }
    for r in 0..nr {
        if r < 2 || defs[r] != 1 {
            value[r] = None;
        }
    }
    value
}

/// Symbolic-fact transfer for one instruction: establishes, composes, or
/// kills [`SymExpr`] facts. Must be applied in instruction order alongside
/// [`itv_transfer`].
fn sym_transfer(sym: &mut [Option<SymExpr>], inst: &Inst, consts: &[Option<i128>]) {
    let cval = |o: &Operand| -> Option<i128> {
        match o {
            Operand::Imm(v) => Some(*v as i128),
            Operand::Reg(r) => consts.get(r.0 as usize).copied().flatten(),
            Operand::ImmF(_) => None,
        }
    };
    let Some(dst) = inst_def(inst) else { return };
    let d = dst.0 as usize;
    // The affine fact for `s op k` (register `s`, constant `k`), composed
    // with the existing fact of `s` when `s` is the destination itself
    // (e.g. `add a, a, 4` extends `a = 8*i` to `a = 8*i + 4`).
    let compose = |sym: &[Option<SymExpr>], s: Reg, scale: i128, offset: i128| {
        if s == dst {
            match sym[d] {
                Some(SymExpr::Affine {
                    src,
                    scale: s0,
                    offset: o0,
                }) => {
                    let sc = s0.checked_mul(scale)?;
                    let of = o0.checked_mul(scale)?.checked_add(offset)?;
                    (sc != 0).then_some(SymExpr::Affine {
                        src,
                        scale: sc,
                        offset: of,
                    })
                }
                _ => None,
            }
        } else {
            (scale != 0).then_some(SymExpr::Affine {
                src: s,
                scale,
                offset,
            })
        }
    };
    let new: Option<SymExpr> = match inst {
        Inst::Un {
            op: UnOp::Mov,
            a: Operand::Reg(s),
            ..
        } => {
            if *s == dst {
                sym[d] // `mov r, r` is the identity
            } else {
                compose(sym, *s, 1, 0)
            }
        }
        Inst::Un {
            op: UnOp::Neg,
            a: Operand::Reg(s),
            ..
        } => compose(sym, *s, -1, 0),
        Inst::Alu { op, a, b, .. } => {
            let (ca, cb) = (cval(a), cval(b));
            match (op, a, b) {
                (AluOp::Add, Operand::Reg(s), _) if cb.is_some() => {
                    compose(sym, *s, 1, cb.unwrap())
                }
                (AluOp::Add, _, Operand::Reg(s)) if ca.is_some() => {
                    compose(sym, *s, 1, ca.unwrap())
                }
                (AluOp::Sub, Operand::Reg(s), _) if cb.is_some() => {
                    compose(sym, *s, 1, -cb.unwrap())
                }
                (AluOp::Sub, _, Operand::Reg(s)) if ca.is_some() => {
                    compose(sym, *s, -1, ca.unwrap())
                }
                (AluOp::Mul, Operand::Reg(s), _) if cb.is_some() => {
                    compose(sym, *s, cb.unwrap(), 0)
                }
                (AluOp::Mul, _, Operand::Reg(s)) if ca.is_some() => {
                    compose(sym, *s, ca.unwrap(), 0)
                }
                (AluOp::Shl, Operand::Reg(s), _) if matches!(cb, Some(k) if (0..64).contains(&k)) => {
                    compose(sym, *s, 1i128 << cb.unwrap(), 0)
                }
                (AluOp::Div, Operand::Reg(s), _) if *s != dst && matches!(cb, Some(k) if k > 0) => {
                    Some(SymExpr::DivBy {
                        src: *s,
                        d: cb.unwrap(),
                    })
                }
                (AluOp::Rem, Operand::Reg(s), _) if *s != dst && matches!(cb, Some(k) if k > 0) => {
                    Some(SymExpr::RemBy {
                        src: *s,
                        d: cb.unwrap(),
                    })
                }
                _ => None,
            }
        }
        _ => None,
    };
    sym[d] = new;
    // Every other fact that read the destination referred to its *old*
    // value; those equalities no longer hold.
    for (q, f) in sym.iter_mut().enumerate() {
        if q != d && f.is_some_and(|f| f.src() == dst) {
            *f = None;
        }
    }
}

/// `floor(a / b)` for any nonzero `b`.
pub(super) fn dfloor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// `ceil(a / b)` for any nonzero `b`.
pub(super) fn dceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Interval of `f(src)` given an interval for `src` (forward evaluation of
/// a symbolic fact).
fn fact_forward(f: SymExpr, src: Itv) -> Itv {
    match f {
        SymExpr::Affine { scale, offset, .. } => src.mul(Itv::exact(scale)).add(Itv::exact(offset)),
        // Truncating division by a positive constant is monotone.
        SymExpr::DivBy { d, .. } => Itv::new(src.lo / d, src.hi / d),
        SymExpr::RemBy { d, .. } => {
            if src.lo >= 0 {
                Itv::new(0, src.hi.min(d - 1))
            } else {
                Itv::new(1 - d, d - 1)
            }
        }
    }
}

/// The constraint a fact's *source* must satisfy for `f(src)` to land in
/// `dst` — the backward direction of [`fact_forward`]. `src_cur` is the
/// source's current interval (the `Rem` rule is only sound for
/// known-non-negative sources). Returns `Itv::TOP` when nothing can be
/// inferred.
pub(super) fn fact_backward(f: SymExpr, dst: Itv, src_cur: Itv) -> Itv {
    match f {
        SymExpr::Affine {
            scale: s,
            offset: o,
            ..
        } => {
            // s*src + o in [lo, hi]  =>  src in the integer solutions.
            let (lo, hi) = (dst.lo.saturating_sub(o), dst.hi.saturating_sub(o));
            if s > 0 {
                Itv::new(dceil(lo, s), dfloor(hi, s))
            } else {
                Itv::new(dceil(hi, s), dfloor(lo, s))
            }
        }
        SymExpr::DivBy { d, .. } => {
            // Truncating `src / d` in [lo, hi] with d > 0.
            let (lo, hi) = (dst.lo, dst.hi);
            let slo = if lo > 0 {
                lo.saturating_mul(d)
            } else {
                lo.saturating_mul(d).saturating_sub(d - 1)
            };
            let shi = if hi >= 0 {
                hi.saturating_mul(d).saturating_add(d - 1)
            } else {
                hi.saturating_mul(d)
            };
            Itv::new(slo, shi)
        }
        SymExpr::RemBy { .. } => {
            // For src >= 0: src % d >= L >= 1 implies src >= L (a smaller
            // non-negative src has src % d = src < L).
            if dst.lo >= 1 && src_cur.lo >= 0 {
                Itv::new(dst.lo, INF_POS)
            } else {
                Itv::TOP
            }
        }
    }
}

/// Relational propagation after register `r`'s interval was narrowed:
/// tightens the fact source `r` was computed from (backward) and
/// re-derives every register whose fact reads `r` (forward), recursing a
/// few levels so chains like `guard on i/n` → `i` → `a = 8*i` resolve.
/// Returns `false` when a propagated interval became empty (the edge is
/// infeasible).
fn relate(st: &mut BState, r: usize, depth: u8) -> bool {
    if depth == 0 {
        return true;
    }
    if let Some(f) = st.sym[r] {
        let s = f.src().0 as usize;
        let met = st.itv[s].meet(fact_backward(f, st.itv[r], st.itv[s]));
        if met != st.itv[s] {
            st.itv[s] = met;
            if met.is_empty() {
                return false;
            }
            if !relate(st, s, depth - 1) {
                return false;
            }
        }
    }
    for q in 0..st.sym.len() {
        if q == r {
            continue;
        }
        let Some(f) = st.sym[q] else { continue };
        if f.src().0 as usize != r {
            continue;
        }
        let met = st.itv[q].meet(fact_forward(f, st.itv[r]));
        if met != st.itv[q] {
            st.itv[q] = met;
            if met.is_empty() {
                return false;
            }
            if !relate(st, q, depth - 1) {
                return false;
            }
        }
    }
    true
}

/// Abstract transfer for one instruction over a register state.
fn itv_transfer(st: &mut [Itv], inst: &Inst) {
    let op_itv = |st: &[Itv], o: &Operand| match o {
        Operand::Reg(r) => st[r.0 as usize],
        Operand::Imm(v) => Itv::exact(*v as i128),
        Operand::ImmF(_) => Itv::TOP,
    };
    let Some(dst) = inst_def(inst) else { return };
    let out = match inst {
        Inst::Alu { op, a, b, .. } => {
            let (a, b) = (op_itv(st, a), op_itv(st, b));
            match op {
                AluOp::Add => a.add(b),
                AluOp::Sub => a.sub(b),
                AluOp::Mul => a.mul(b),
                AluOp::Min => Itv {
                    lo: a.lo.min(b.lo),
                    hi: a.hi.min(b.hi),
                },
                AluOp::Max => Itv {
                    lo: a.lo.max(b.lo),
                    hi: a.hi.max(b.hi),
                },
                // Truncating division by a positive constant is monotone.
                AluOp::Div if b.lo == b.hi && b.lo > 0 => Itv::new(a.lo / b.lo, a.hi / b.lo),
                AluOp::Rem if b.lo == b.hi && b.lo > 0 => {
                    if a.lo >= 0 {
                        Itv::new(0, a.hi.min(b.lo - 1))
                    } else {
                        Itv::new(1 - b.lo, b.lo - 1)
                    }
                }
                AluOp::Shl if b.lo == b.hi && (0..64).contains(&b.lo) => {
                    a.mul(Itv::exact(1i128 << b.lo))
                }
                AluOp::Shr if b.lo == b.hi && (0..64).contains(&b.lo) => {
                    Itv::new(a.lo >> b.lo, a.hi >> b.lo)
                }
                // x & m with a non-negative mask lands in [0, m].
                AluOp::And if b.lo == b.hi && b.lo >= 0 => Itv::new(0, b.lo),
                AluOp::And if a.lo == a.hi && a.lo >= 0 => Itv::new(0, a.lo),
                _ => Itv::TOP,
            }
        }
        Inst::Un { op, a, .. } => {
            let a = op_itv(st, a);
            match op {
                UnOp::Mov => a,
                UnOp::Neg => a.neg(),
                _ => Itv::TOP,
            }
        }
        Inst::Set { .. } => Itv::new(0, 1),
        Inst::Load { .. } => Itv::TOP,
        _ => return,
    };
    st[dst.0 as usize] = out;
}

/// Narrows `st` under the assumption "`a cond b` holds", for integer
/// conditions where one side is a register. After a register tightens, the
/// constraint is propagated relationally through any live [`SymExpr`]
/// facts (see [`relate`]). Returns `false` when the narrowed state is
/// infeasible (the edge is dead).
fn itv_narrow(st: &mut BState, cond: CondOp, a: &Operand, b: &Operand) -> bool {
    use CondOp::*;
    if matches!(cond, FEq | FNe | FLt | FLe | FGt | FGe) {
        return true;
    }
    let val = |st: &BState, o: &Operand| match o {
        Operand::Reg(r) => st.itv[r.0 as usize],
        Operand::Imm(v) => Itv::exact(*v as i128),
        Operand::ImmF(_) => Itv::TOP,
    };
    // Narrow a register `r` under "r cond rhs".
    let narrow_one = |st: &mut BState, r: Reg, cond: CondOp, rhs: Itv| {
        let cur = st.itv[r.0 as usize];
        let new = match cond {
            Eq => cur.meet(rhs),
            Ne if rhs.lo == rhs.hi && cur.lo == cur.hi && cur.lo == rhs.lo => {
                Itv { lo: 1, hi: 0 } // definitely equal: contradiction
            }
            Ne if rhs.lo == rhs.hi && cur.lo == rhs.lo => Itv {
                lo: cur.lo + 1,
                hi: cur.hi,
            },
            Ne if rhs.lo == rhs.hi && cur.hi == rhs.lo => Itv {
                lo: cur.lo,
                hi: cur.hi - 1,
            },
            Lt => cur.meet(Itv::new(INF_NEG, rhs.hi - 1)),
            Le => cur.meet(Itv::new(INF_NEG, rhs.hi)),
            Gt => cur.meet(Itv::new(rhs.lo + 1, INF_POS)),
            Ge => cur.meet(Itv::new(rhs.lo, INF_POS)),
            _ => cur,
        };
        st.itv[r.0 as usize] = new;
        if new.is_empty() {
            return false;
        }
        new == cur || relate(st, r.0 as usize, 4)
    };
    // "a cond b" seen from b's side: swap the comparison.
    let swapped = match cond {
        Lt => Gt,
        Le => Ge,
        Gt => Lt,
        Ge => Le,
        c => c,
    };
    let mut feasible = true;
    if let Operand::Reg(r) = a {
        feasible &= narrow_one(st, *r, cond, val(st, b));
    }
    if let Operand::Reg(r) = b {
        feasible &= narrow_one(st, *r, swapped, val(st, a));
    }
    feasible
}

/// After a register's bounds have changed this many times at a loop head,
/// further changes are widened straight to the sentinels so loop-carried
/// arithmetic terminates quickly.
const WIDEN_AFTER: u32 = 3;

/// The bounds pass as a [`FlowProblem`] instance: per-edge transfer is
/// branch-condition narrowing (infeasible edges are simply not emitted),
/// and the join widens loop-head registers once their own bounds have
/// churned [`WIDEN_AFTER`] times. The solver's LIFO discipline matches the
/// hand-written worklist this replaced, so widening decisions — and
/// therefore diagnostics — are unchanged.
struct BoundsFlow<'a> {
    insts: &'a [Inst],
    cfg: &'a Cfg,
    consts: &'a [Option<i128>],
    entry: BState,
    /// Back-edge targets: the only blocks where widening applies.
    loop_head: Vec<bool>,
    /// Per-block, per-register join-change counters: a register is widened
    /// (at a loop head) only once ITS OWN bounds have changed WIDEN_AFTER
    /// times there. A per-block counter would let one churning induction
    /// variable trigger widening of an unrelated register that changed
    /// once (e.g. ping-pong buffer bases swapped by an outer loop).
    chg: Vec<Vec<u32>>,
}

impl FlowProblem for BoundsFlow<'_> {
    type State = BState;

    fn entry(&self) -> BState {
        self.entry.clone()
    }

    fn flow(&mut self, block: usize, mut st: BState, emit: &mut dyn FnMut(usize, BState)) {
        let b = &self.cfg.blocks()[block];
        for inst in &self.insts[b.start..b.end] {
            itv_transfer(&mut st.itv, inst);
            sym_transfer(&mut st.sym, inst, self.consts);
        }
        // Propagate along each out-edge, narrowing on branch conditions.
        let last = b.end - 1;
        if let Inst::Branch {
            cond,
            a,
            b: rhs,
            target,
        } = &self.insts[last]
        {
            let taken_blk = self.cfg.block_of(*target);
            let mut taken = st.clone();
            if itv_narrow(&mut taken, *cond, a, rhs) {
                emit(taken_blk, taken);
            }
            if last + 1 < self.insts.len() {
                let fall_blk = self.cfg.block_of(last + 1);
                let mut fall = st;
                if itv_narrow(&mut fall, cond.negate(), a, rhs) {
                    emit(fall_blk, fall);
                }
            }
        } else {
            for &s in &b.succs {
                emit(s, st.clone());
            }
        }
    }

    fn join(&mut self, succ: usize, cur: &mut BState, new: BState) -> bool {
        let mut itv_changed = false;
        for (ri, (c, n)) in cur.itv.iter_mut().zip(&new.itv).enumerate() {
            let mut j = c.join(*n);
            if j != *c && self.loop_head[succ] && self.chg[succ][ri] >= WIDEN_AFTER {
                if j.lo < c.lo {
                    j.lo = INF_NEG;
                }
                if j.hi > c.hi {
                    j.hi = INF_POS;
                }
            }
            if j != *c {
                *c = j;
                self.chg[succ][ri] += 1;
                itv_changed = true;
            }
        }
        // A fact survives a join only if both paths agree on it. Dropped
        // facts re-queue the block but do not feed the widening counters
        // (facts only ever disappear, so this terminates on its own).
        let mut sym_changed = false;
        for (c, n) in cur.sym.iter_mut().zip(&new.sym) {
            if c.is_some() && *c != *n {
                *c = None;
                sym_changed = true;
            }
        }
        itv_changed || sym_changed
    }
}

/// Interval analysis over the address arithmetic, with per-edge
/// branch-condition narrowing. Proves accesses inside `[0, mem_bytes)`
/// where it can; a proven violation is an error, a bounded straddle is a
/// warning, an unbounded address is a note. With no `mem_bytes` in the
/// options (the build-time path, where the functional memory is not yet
/// attached) only provably-negative addresses are reported.
///
/// The interval domain is augmented with per-register [`SymExpr`] facts
/// (with constant operands resolved through write-once immediate
/// registers), so a guard on a derived value — `i % n != 0`, `i / n > 0` —
/// narrows the value it was derived from and everything recomputed from
/// it. This is what lets kernels index `buf[i - n]` under an `i / n > 0`
/// guard without a runtime clamp purely for the prover's benefit.
pub(super) fn pass_bounds(facts: &Facts, opts: &VerifyOptions, report: &mut VerifyReport) {
    let (insts, cfg, num_regs) = (facts.insts, facts.cfg, facts.num_regs);
    let nr = num_regs as usize;
    let nb = cfg.blocks().len();
    let consts = write_once_imm_consts(insts, num_regs);
    let mut entry = vec![Itv::TOP; nr];
    entry[0] = match opts.nthreads {
        Some(n) => Itv::new(0, n as i128 - 1),
        None => Itv::new(0, INF_POS),
    };
    if nr > 1 {
        entry[1] = match opts.nthreads {
            Some(n) => Itv::exact(n as i128),
            None => Itv::new(1, INF_POS),
        };
    }
    let entry = BState {
        itv: entry,
        sym: vec![None; nr],
    };
    // Widening is only ever needed where a cycle can feed a value back
    // into itself — the targets of back edges. Widening anywhere else
    // (straight-line blocks, diamond reconvergence joins) would throw
    // away edge-narrowed bounds (the loop guard's `i < n`, a relational
    // narrow from a divergent arm) for no termination benefit: with loop
    // heads capped, every other block's inputs eventually stabilize.
    let loop_head = cfg.back_edge_targets();
    let mut flow = BoundsFlow {
        insts,
        cfg,
        consts: &consts,
        entry,
        loop_head,
        chg: vec![vec![0; nr]; nb],
    };
    let in_state = solve_flow(nb, &mut flow);
    // Classify every memory access against the buffer space.
    for (bi, b) in cfg.blocks().iter().enumerate() {
        let Some(st0) = &in_state[bi] else { continue };
        let mut st = st0.itv.clone();
        for pc in b.start..b.end {
            let inst = &insts[pc];
            if let Inst::Load { base, offset, .. } | Inst::Store { base, offset, .. } = inst {
                let addr = st[base.0 as usize].add(Itv::exact(*offset as i128));
                classify_access(insts, pc, bi, addr, opts.mem_bytes, report);
            }
            itv_transfer(&mut st, inst);
        }
    }
}

/// Emits the bounds diagnostic (if any) for one access with address
/// interval `addr` against a buffer of `mem_bytes` bytes.
fn classify_access(
    insts: &[Inst],
    pc: usize,
    block: usize,
    addr: Itv,
    mem_bytes: Option<u64>,
    report: &mut VerifyReport,
) {
    if addr.hi < 0 {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::OobAccess,
                Some(pc),
                Some(block),
                format!("address {} is provably negative", addr.render()),
            ),
        );
        return;
    }
    let Some(m) = mem_bytes else { return };
    let m = m as i128;
    if addr.lo >= m {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::OobAccess,
                Some(pc),
                Some(block),
                format!(
                    "address {} is provably past the {m}-byte buffer space",
                    addr.render()
                ),
            ),
        );
    } else if addr.lo >= 0 && addr.hi < m {
        // Provably in bounds.
    } else if addr.is_bounded() {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::OobAccessPossible,
                Some(pc),
                Some(block),
                format!(
                    "address {} straddles the {m}-byte buffer space",
                    addr.render()
                ),
            ),
        );
    } else {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::UnprovenBounds,
                Some(pc),
                Some(block),
                format!(
                    "address {} is unbounded; in-bounds could not be proven against \
                     the {m}-byte buffer space",
                    addr.render()
                ),
            ),
        );
    }
}
