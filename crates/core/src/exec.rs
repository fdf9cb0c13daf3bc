//! Warp-wide µop execution kernels.
//!
//! The per-lane interpreter matches the instruction once for *every* active
//! lane. These kernels invert that: one opcode dispatch per instruction,
//! then a tight loop over the active lanes of the SoA [`RegFile`]. Each
//! match arm monomorphizes a lane loop around `eval_alu`/`eval_un`/
//! `CondOp::eval` with the opcode as a compile-time constant — the inner
//! opcode match const-folds away, so the semantics stay written exactly
//! once (in `dws-isa`) while the hot loop contains only the selected
//! operation.

use crate::mask::Mask;
use crate::regfile::RegFile;
use dws_isa::{eval_alu, eval_un, AluOp, CondOp, Src, UnOp};

/// Resolves a predecoded source operand for one lane.
#[inline(always)]
pub(crate) fn src(rf: &RegFile, lane: usize, s: Src) -> u64 {
    match s {
        Src::Reg(r) => rf.get(r, lane),
        Src::Imm(v) => v,
    }
}

/// Lane loop for a binary operation with a monomorphized body.
#[inline(always)]
fn bin(rf: &mut RegFile, mask: Mask, dst: u16, a: Src, b: Src, f: impl Fn(u64, u64) -> u64) {
    for lane in mask.iter() {
        let v = f(src(rf, lane, a), src(rf, lane, b));
        rf.set(dst, lane, v);
    }
}

/// Lane loop for a unary operation with a monomorphized body.
#[inline(always)]
fn un(rf: &mut RegFile, mask: Mask, dst: u16, a: Src, f: impl Fn(u64) -> u64) {
    for lane in mask.iter() {
        let v = f(src(rf, lane, a));
        rf.set(dst, lane, v);
    }
}

/// `dst = a <op> b` across the active lanes: one dispatch, `lanes` bodies.
pub(crate) fn exec_alu(rf: &mut RegFile, mask: Mask, op: AluOp, dst: u16, a: Src, b: Src) {
    macro_rules! arms {
        ($($v:ident),+) => {
            match op {
                $(AluOp::$v => bin(rf, mask, dst, a, b, |x, y| eval_alu(AluOp::$v, x, y)),)+
            }
        };
    }
    arms!(
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max, FAdd, FSub, FMul, FDiv, FMin,
        FMax
    );
}

/// `dst = <op> a` across the active lanes.
pub(crate) fn exec_un(rf: &mut RegFile, mask: Mask, op: UnOp, dst: u16, a: Src) {
    macro_rules! arms {
        ($($v:ident),+) => {
            match op {
                $(UnOp::$v => un(rf, mask, dst, a, |x| eval_un(UnOp::$v, x)),)+
            }
        };
    }
    arms!(Mov, Not, Neg, FNeg, FAbs, FSqrt, I2F, F2I);
}

/// `dst = (a <cond> b) ? 1 : 0` across the active lanes.
pub(crate) fn exec_set(rf: &mut RegFile, mask: Mask, cond: CondOp, dst: u16, a: Src, b: Src) {
    macro_rules! arms {
        ($($v:ident),+) => {
            match cond {
                $(CondOp::$v => bin(rf, mask, dst, a, b, |x, y| CondOp::$v.eval(x, y) as u64),)+
            }
        };
    }
    arms!(Eq, Ne, Lt, Le, Gt, Ge, FEq, FNe, FLt, FLe, FGt, FGe);
}

/// The set of active lanes whose `a <cond> b` holds — the branch-taken mask.
pub(crate) fn branch_taken(rf: &RegFile, mask: Mask, cond: CondOp, a: Src, b: Src) -> Mask {
    macro_rules! arms {
        ($($v:ident),+) => {
            match cond {
                $(CondOp::$v => {
                    let mut taken = Mask::EMPTY;
                    for lane in mask.iter() {
                        if CondOp::$v.eval(src(rf, lane, a), src(rf, lane, b)) {
                            taken.set(lane);
                        }
                    }
                    taken
                })+
            }
        };
    }
    arms!(Eq, Ne, Lt, Le, Gt, Ge, FEq, FNe, FLt, FLe, FGt, FGe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_kernel_matches_per_lane_eval() {
        let mut rf = RegFile::new(4, 8, 0, 8);
        // r2 = tid * 3 on lanes {0, 2, 5}.
        let mask = Mask(0b100101);
        exec_alu(&mut rf, mask, AluOp::Mul, 2, Src::Reg(0), Src::Imm(3));
        for lane in 0..8 {
            let expect = if mask.contains(lane) {
                lane as u64 * 3
            } else {
                0
            };
            assert_eq!(rf.get(2, lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn un_kernel_and_aliasing_dst() {
        let mut rf = RegFile::new(3, 4, 0, 4);
        exec_alu(
            &mut rf,
            Mask::full(4),
            AluOp::Add,
            2,
            Src::Reg(0),
            Src::Imm(1),
        );
        // dst aliases src: r2 = -r2.
        exec_un(&mut rf, Mask::full(4), UnOp::Neg, 2, Src::Reg(2));
        for lane in 0..4 {
            assert_eq!(rf.get(2, lane) as i64, -(lane as i64 + 1));
        }
    }

    #[test]
    fn set_and_branch_taken_agree() {
        let mut rf = RegFile::new(3, 8, 0, 8);
        exec_set(
            &mut rf,
            Mask::full(8),
            CondOp::Lt,
            2,
            Src::Reg(0),
            Src::Imm(5),
        );
        let taken = branch_taken(&rf, Mask::full(8), CondOp::Lt, Src::Reg(0), Src::Imm(5));
        for lane in 0..8 {
            assert_eq!(rf.get(2, lane) == 1, taken.contains(lane), "lane {lane}");
        }
        assert_eq!(taken, Mask(0b11111));
    }

    #[test]
    fn float_ops_go_through_bit_patterns() {
        let mut rf = RegFile::new(4, 2, 0, 2);
        rf.set(2, 0, 2.0f64.to_bits());
        rf.set(2, 1, 9.0f64.to_bits());
        exec_un(&mut rf, Mask::full(2), UnOp::FSqrt, 3, Src::Reg(2));
        assert_eq!(f64::from_bits(rf.get(3, 0)), 2.0f64.sqrt());
        assert_eq!(f64::from_bits(rf.get(3, 1)), 3.0);
        exec_alu(
            &mut rf,
            Mask::full(2),
            AluOp::FMul,
            3,
            Src::Reg(3),
            Src::Imm(0.5f64.to_bits()),
        );
        assert_eq!(f64::from_bits(rf.get(3, 1)), 1.5);
    }
}
