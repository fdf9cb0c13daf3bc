//! Unit tests of the verifier's passes. They sit together in
//! `verify::tests` (not beside each pass) because the suite's recorded test
//! ids are `verify::tests::*`; the golden-diagnostics corpus lives in
//! `tests/verify_kernels.rs`.

use super::bounds::{dceil, dfloor, fact_backward, write_once_imm_consts, Itv, SymExpr};
use super::reconv::recompute_ipdom_blocks;
use super::*;
use crate::inst::{AluOp, CondOp, Operand, Reg, UnOp};

fn add(dst: u16, a: Operand, b: Operand) -> Inst {
    Inst::Alu {
        op: AluOp::Add,
        dst: Reg(dst),
        a,
        b,
    }
}

#[test]
fn codes_round_trip_severities() {
    use DwsLintCode::*;
    for (code, sev) in [
        (EmptyProgram, Severity::Error),
        (UnreachableCode, Severity::Warning),
        (UnprovenBounds, Severity::Note),
        (SubdivMarkMismatch, Severity::Error),
    ] {
        assert_eq!(code.severity(), sev);
        assert!(code.as_str().starts_with("DWS0"));
    }
}

#[test]
fn interval_arithmetic() {
    let a = Itv::new(2, 5);
    let b = Itv::new(-1, 3);
    assert_eq!(a.add(b), Itv::new(1, 8));
    assert_eq!(a.sub(b), Itv::new(-1, 6));
    assert_eq!(a.mul(b), Itv::new(-5, 15));
    assert_eq!(a.neg(), Itv::new(-5, -2));
    assert!(Itv::new(3, 2).is_empty());
    assert!(a.is_bounded());
    assert!(!Itv::TOP.is_bounded());
    assert_eq!(a.meet(b), Itv::new(2, 3));
    assert_eq!(a.join(b), Itv::new(-1, 5));
    // Overflowing products saturate instead of wrapping.
    let big = Itv::exact(i64::MAX as i128);
    assert!(!big.mul(big).is_bounded());
}

#[test]
fn recomputed_ipdoms_match_chk_on_nested_diamond() {
    // Same shape as the cfg.rs nested_diamond test.
    let tid = Operand::Reg(Reg(0));
    let br = |t: usize| Inst::Branch {
        cond: CondOp::Eq,
        a: tid,
        b: Operand::Imm(0),
        target: t,
    };
    let insts = vec![
        br(6),
        br(4),
        add(2, tid, Operand::Imm(1)),
        Inst::Jump { target: 5 },
        add(2, tid, Operand::Imm(2)),
        Inst::Jump { target: 7 },
        add(2, tid, Operand::Imm(3)),
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(0),
            offset: 0,
        },
        Inst::Halt,
    ];
    let cfg = Cfg::build(&insts);
    let recomputed = recompute_ipdom_blocks(&cfg);
    for (b, &r) in recomputed.iter().enumerate() {
        assert_eq!(r, cfg.ipdom_of_block(b), "block {b}");
    }
    let (report, built) = verify(&insts, &VerifyOptions::default());
    assert!(!report.has_errors(), "{report}");
    assert!(built.is_some());
    assert_eq!(report.stats.branches, 2);
    assert_eq!(report.stats.divergent_branches, 2);
    assert_eq!(report.stats.max_divergent_nesting, 2);
    assert_eq!(report.stats.reconv_stack_bound(), 3);
}

#[test]
fn uniform_branch_does_not_count_toward_nesting() {
    let ntid = Operand::Reg(Reg(1));
    let insts = vec![
        Inst::Branch {
            cond: CondOp::Gt,
            a: ntid,
            b: Operand::Imm(4),
            target: 2,
        },
        add(2, ntid, Operand::Imm(1)),
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    assert_eq!(report.stats.uniform_branches, 1);
    assert_eq!(report.stats.divergent_branches, 0);
    assert_eq!(report.stats.max_divergent_nesting, 0);
}

#[test]
fn narrowing_kills_dead_edges_and_proves_bounds() {
    // if tid < 4 { store [tid*8] } ; buffer is 32 bytes, so the access
    // is provably in bounds only thanks to the branch narrowing.
    let tid = Operand::Reg(Reg(0));
    let insts = vec![
        Inst::Branch {
            cond: CondOp::Ge,
            a: tid,
            b: Operand::Imm(4),
            target: 4,
        },
        add(2, tid, Operand::Imm(0)), // r2 = tid
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(2),
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(8),
        },
        Inst::Store {
            src: tid,
            base: Reg(2),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default()
        .with_mem_bytes(32)
        .with_nthreads(256);
    let (report, _) = verify(&insts, &opts);
    assert!(
        report.find(DwsLintCode::OobAccess).is_none()
            && report.find(DwsLintCode::OobAccessPossible).is_none()
            && report.find(DwsLintCode::UnprovenBounds).is_none(),
        "{report}"
    );
}

#[test]
fn directed_rounding_division() {
    assert_eq!(dfloor(7, 2), 3);
    assert_eq!(dfloor(-7, 2), -4);
    assert_eq!(dfloor(7, -2), -4);
    assert_eq!(dceil(7, 2), 4);
    assert_eq!(dceil(-7, 2), -3);
    assert_eq!(dceil(-7, -2), 4);
}

#[test]
fn fact_backward_inverts_transfers() {
    let r = Reg(0);
    // -src in [2, 5]  =>  src in [-5, -2]
    let f = SymExpr::Affine {
        src: r,
        scale: -1,
        offset: 0,
    };
    assert_eq!(fact_backward(f, Itv::new(2, 5), Itv::TOP), Itv::new(-5, -2));
    // trunc(src/4) in [1, 3]  =>  src in [4, 15]
    let f = SymExpr::DivBy { src: r, d: 4 };
    assert_eq!(fact_backward(f, Itv::new(1, 3), Itv::TOP), Itv::new(4, 15));
    // trunc(src/4) in [-2, -1]  =>  src in [-11, -4]
    assert_eq!(
        fact_backward(f, Itv::new(-2, -1), Itv::TOP),
        Itv::new(-11, -4)
    );
    // src % 8 >= 2 with src >= 0  =>  src >= 2
    let f = SymExpr::RemBy { src: r, d: 8 };
    assert_eq!(fact_backward(f, Itv::new(2, 7), Itv::new(0, 100)).lo, 2);
    // ... but nothing without the sign premise.
    assert_eq!(fact_backward(f, Itv::new(2, 7), Itv::TOP), Itv::TOP);
}

#[test]
fn write_once_const_table() {
    let insts = vec![
        Inst::Un {
            op: UnOp::Mov,
            dst: Reg(2),
            a: Operand::Imm(8),
        },
        Inst::Un {
            op: UnOp::Mov,
            dst: Reg(3),
            a: Operand::Imm(1),
        },
        Inst::Un {
            op: UnOp::Mov,
            dst: Reg(3),
            a: Operand::Imm(2),
        },
        Inst::Halt,
    ];
    let consts = write_once_imm_consts(&insts, 4);
    assert_eq!(consts[0], None, "tid is preloaded, never a constant");
    assert_eq!(consts[2], Some(8));
    assert_eq!(consts[3], None, "multiply-defined");
}

/// A guard on `tid / 4` must narrow `tid` itself, so an address
/// recomputed from `tid` inside the branch proves in-bounds with no
/// runtime clamp (the HotSpot "up neighbor" shape).
#[test]
fn div_guard_narrows_source_relationally() {
    let tid = Operand::Reg(Reg(0));
    let insts = vec![
        Inst::Alu {
            op: AluOp::Div,
            dst: Reg(2),
            a: tid,
            b: Operand::Imm(4),
        },
        Inst::Branch {
            cond: CondOp::Le,
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(0),
            target: 5,
        },
        // r2 = tid/4 >= 1 here, so tid >= 4 and (tid-4)*8 in [0, 88].
        Inst::Alu {
            op: AluOp::Sub,
            dst: Reg(3),
            a: tid,
            b: Operand::Imm(4),
        },
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(3),
            a: Operand::Reg(Reg(3)),
            b: Operand::Imm(8),
        },
        Inst::Store {
            src: tid,
            base: Reg(3),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default()
        .with_mem_bytes(128)
        .with_nthreads(16);
    let (report, _) = verify(&insts, &opts);
    assert!(
        report.find(DwsLintCode::OobAccess).is_none()
            && report.find(DwsLintCode::OobAccessPossible).is_none()
            && report.find(DwsLintCode::UnprovenBounds).is_none(),
        "{report}"
    );
}

/// A guard on `tid % 4` proves `tid >= 1` (the HotSpot "left
/// neighbor" shape).
#[test]
fn rem_guard_narrows_source_relationally() {
    let tid = Operand::Reg(Reg(0));
    let insts = vec![
        Inst::Alu {
            op: AluOp::Rem,
            dst: Reg(2),
            a: tid,
            b: Operand::Imm(4),
        },
        Inst::Branch {
            cond: CondOp::Le,
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(0),
            target: 5,
        },
        // tid % 4 >= 1 and tid >= 0, so tid >= 1 and (tid-1)*8 >= 0.
        Inst::Alu {
            op: AluOp::Sub,
            dst: Reg(3),
            a: tid,
            b: Operand::Imm(1),
        },
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(3),
            a: Operand::Reg(Reg(3)),
            b: Operand::Imm(8),
        },
        Inst::Store {
            src: tid,
            base: Reg(3),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default()
        .with_mem_bytes(128)
        .with_nthreads(16);
    let (report, _) = verify(&insts, &opts);
    assert!(
        report.find(DwsLintCode::OobAccess).is_none()
            && report.find(DwsLintCode::OobAccessPossible).is_none()
            && report.find(DwsLintCode::UnprovenBounds).is_none(),
        "{report}"
    );
}

/// A scale held in a write-once immediate register carries the same
/// affine fact as a literal, and a later guard on the *source*
/// re-narrows the already-computed derived value (forward direction).
#[test]
fn write_once_scale_renarrowed_forward() {
    let tid = Operand::Reg(Reg(0));
    let insts = vec![
        Inst::Un {
            op: UnOp::Mov,
            dst: Reg(2),
            a: Operand::Imm(8),
        },
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(3),
            a: tid,
            b: Operand::Reg(Reg(2)),
        },
        Inst::Branch {
            cond: CondOp::Ge,
            a: tid,
            b: Operand::Imm(4),
            target: 4,
        },
        // tid < 4 here, so r3 = 8*tid re-narrows to [0, 24].
        Inst::Store {
            src: tid,
            base: Reg(3),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default()
        .with_mem_bytes(32)
        .with_nthreads(16);
    let (report, _) = verify(&insts, &opts);
    assert!(
        report.find(DwsLintCode::OobAccess).is_none()
            && report.find(DwsLintCode::OobAccessPossible).is_none()
            && report.find(DwsLintCode::UnprovenBounds).is_none(),
        "{report}"
    );
}

/// Redefining a fact's source kills the fact: the guard must NOT
/// narrow the stale source, so the straddling access stays reported.
#[test]
fn fact_killed_on_source_redefinition() {
    let tid = Operand::Reg(Reg(0));
    let insts = vec![
        // r4 = tid; r3 = r4/4; r4 = 99 (kills the DivBy fact).
        Inst::Un {
            op: UnOp::Mov,
            dst: Reg(4),
            a: tid,
        },
        Inst::Alu {
            op: AluOp::Div,
            dst: Reg(3),
            a: Operand::Reg(Reg(4)),
            b: Operand::Imm(4),
        },
        Inst::Un {
            op: UnOp::Mov,
            dst: Reg(4),
            a: Operand::Imm(99),
        },
        Inst::Branch {
            cond: CondOp::Le,
            a: Operand::Reg(Reg(3)),
            b: Operand::Imm(0),
            target: 7,
        },
        Inst::Alu {
            op: AluOp::Sub,
            dst: Reg(5),
            a: tid,
            b: Operand::Imm(4),
        },
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(5),
            a: Operand::Reg(Reg(5)),
            b: Operand::Imm(8),
        },
        Inst::Store {
            src: tid,
            base: Reg(5),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default()
        .with_mem_bytes(128)
        .with_nthreads(16);
    let (report, _) = verify(&insts, &opts);
    assert!(
        report.find(DwsLintCode::OobAccessPossible).is_some(),
        "the stale fact must not prove this access: {report}"
    );
}

/// A fact only survives a CFG join when both incoming paths agree on
/// it; mismatched facts must not narrow after the join.
#[test]
fn join_drops_mismatched_facts() {
    let tid = Operand::Reg(Reg(0));
    let insts = vec![
        Inst::Branch {
            cond: CondOp::Ge,
            a: tid,
            b: Operand::Imm(8),
            target: 3,
        },
        Inst::Alu {
            op: AluOp::Div,
            dst: Reg(2),
            a: tid,
            b: Operand::Imm(8),
        },
        Inst::Jump { target: 4 },
        Inst::Alu {
            op: AluOp::Div,
            dst: Reg(2),
            a: tid,
            b: Operand::Imm(2),
        },
        Inst::Branch {
            cond: CondOp::Le,
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(0),
            target: 8,
        },
        Inst::Alu {
            op: AluOp::Sub,
            dst: Reg(3),
            a: tid,
            b: Operand::Imm(2),
        },
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(3),
            a: Operand::Reg(Reg(3)),
            b: Operand::Imm(8),
        },
        Inst::Store {
            src: tid,
            base: Reg(3),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default()
        .with_mem_bytes(128)
        .with_nthreads(16);
    let (report, _) = verify(&insts, &opts);
    assert!(
        report.find(DwsLintCode::OobAccessPossible).is_some(),
        "divergent facts must die at the join: {report}"
    );
}

#[test]
fn rendered_report_quotes_instruction() {
    let insts = vec![add(2, Operand::Reg(Reg(5)), Operand::Imm(1)), Inst::Halt];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report.find(DwsLintCode::UseBeforeDef).expect("finding");
    assert_eq!(d.pc, Some(0));
    assert!(report.rendered().contains("error[DWS0301]"));
    assert!(report.rendered().contains("r2 = Add(r5, 1)"));
    assert!(report.has_errors());
    assert_eq!(report.count(Severity::Error), 1);
    assert!(report.summary().starts_with("1 errors"));
}
