//! Unit tests of the melding analysis and transform (`meld::tests`).

use super::*;
use crate::interp::{MemoryAccess, ReferenceRunner, VecMemory};
use crate::program::Program;

fn rr(r: u16) -> Operand {
    Operand::Reg(Reg(r))
}

fn im(v: i64) -> Operand {
    Operand::Imm(v)
}

fn alu(op: AluOp, dst: u16, a: Operand, b: Operand) -> Inst {
    Inst::Alu {
        op,
        dst: Reg(dst),
        a,
        b,
    }
}

fn load(dst: u16, base: u16, offset: i64) -> Inst {
    Inst::Load {
        dst: Reg(dst),
        base: Reg(base),
        offset,
    }
}

fn store(src: Operand, base: u16, offset: i64) -> Inst {
    Inst::Store {
        src,
        base: Reg(base),
        offset,
    }
}

fn br(cond: CondOp, a: Operand, b: Operand, target: usize) -> Inst {
    Inst::Branch { cond, a, b, target }
}

fn jmp(target: usize) -> Inst {
    Inst::Jump { target }
}

fn candidates(insts: &[Inst]) -> Vec<MeldCandidate> {
    let cfg = Cfg::build(insts);
    find_candidates(&Facts::compute(insts, &cfg))
}

/// A 6-instruction polynomial arm on `r3` into `r4`, differing between
/// the arms only in the first multiplier — the minimal profitable
/// shape (one blended operand costs 3 mask ops).
fn poly_arm(k: i64) -> Vec<Inst> {
    vec![
        alu(AluOp::Mul, 4, rr(3), im(k)),
        alu(AluOp::Add, 4, rr(4), im(1)),
        alu(AluOp::Xor, 4, rr(4), rr(3)),
        alu(AluOp::Shr, 4, rr(4), im(1)),
        alu(AluOp::Add, 4, rr(4), rr(3)),
        alu(AluOp::Mul, 4, rr(4), rr(4)),
    ]
}

/// `out[tid] = data[tid] < 0 ? poly3(data[tid]) : poly5(data[tid])` —
/// a divergent diamond whose 6-instruction arms differ in one
/// immediate.
fn blend_kernel() -> Vec<Inst> {
    let mut insts = vec![
        alu(AluOp::Mul, 2, rr(0), im(8)),
        load(3, 2, 0),
        br(CondOp::Lt, rr(3), im(0), 10),
    ];
    insts.extend(poly_arm(5)); // pc 3..9, fall-through arm
    insts.push(jmp(16)); // pc 9
    insts.extend(poly_arm(3)); // pc 10..16, taken arm
    insts.extend([
        alu(AluOp::Add, 5, rr(2), im(256)), // pc 16, join
        store(rr(4), 5, 0),
        Inst::Halt,
    ]);
    insts
}

fn run_image(insts: &[Inst], nthreads: u64, seed_mem: &[(u64, u64)]) -> Vec<u64> {
    let program = Program::from_insts(insts.to_vec()).expect("verifies");
    let mut mem = VecMemory::new(1024);
    for &(addr, val) in seed_mem {
        mem.store_word(addr, val);
    }
    ReferenceRunner::new(&program, nthreads)
        .run(&mut mem)
        .expect("terminates");
    mem.words().to_vec()
}

/// Sign-mixed data so some lanes take each arm.
fn signed_seed(n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|t| (t * 8, (t as i64 * 7 - 37) as u64))
        .collect()
}

#[test]
fn blend_diamond_melds_and_preserves_semantics() {
    let insts = blend_kernel();
    let out = meld(&insts).expect("transform succeeds");
    assert_eq!(out.applied.len(), 1, "one diamond rewritten");
    assert!(out.applied[0].saved > 0);
    // Straight-line: no control flow left.
    assert!(!out
        .insts
        .iter()
        .any(|i| matches!(i, Inst::Branch { .. } | Inst::Jump { .. })));
    assert!(out.insts.len() < insts.len());
    let seed = signed_seed(16);
    assert_eq!(
        run_image(&insts, 16, &seed),
        run_image(&out.insts, 16, &seed),
        "melded memory image must be bit-identical"
    );
}

#[test]
fn analysis_reports_the_blend_diamond_meldable() {
    let insts = blend_kernel();
    let cands = candidates(&insts);
    assert_eq!(cands.len(), 1);
    assert_eq!(cands[0].branch_pc, 2);
    assert_eq!(cands[0].join_pc, 16);
    match &cands[0].verdict {
        MeldVerdict::Meldable {
            aligned,
            region_len,
            melded_len,
            est_saved,
        } => {
            assert_eq!(*aligned, 6, "all six arm instructions align");
            assert_eq!(*region_len, 14);
            assert_eq!(*melded_len, 13, "3 masks + 3 blend + 6 ops + 1 select");
            assert_eq!(*est_saved, 1);
        }
        v => panic!("expected meldable, got {v:?}"),
    }
}

#[test]
fn barrier_in_arm_is_rejected() {
    let mut insts = blend_kernel();
    insts.insert(4, Inst::Barrier); // into the fall-through arm
    for inst in &mut insts {
        match inst {
            Inst::Branch { target, .. } | Inst::Jump { target } if *target >= 4 => {
                *target += 1;
            }
            _ => {}
        }
    }
    let cands = candidates(&insts);
    assert_eq!(cands.len(), 1);
    match &cands[0].verdict {
        MeldVerdict::Rejected { reason } => assert!(reason.contains("barrier"), "{reason}"),
        v => panic!("expected rejection, got {v:?}"),
    }
    let out = meld(&insts).expect("input verifies");
    assert!(!out.changed(), "rejected diamond must not be rewritten");
}

#[test]
fn uniform_branch_is_not_a_candidate() {
    // Same diamond shape, but branching on ntid (warp-uniform): it can
    // never diverge, so melding has nothing to save.
    let mut insts = blend_kernel();
    insts[2] = br(CondOp::Lt, rr(1), im(0), 10);
    assert!(candidates(&insts).is_empty());
}

#[test]
fn mismatched_memory_ops_are_rejected() {
    // Taken arm stores, fall-through arm does not: lanes would gain or
    // lose an access if merged.
    let insts = vec![
        alu(AluOp::Mul, 2, rr(0), im(8)),
        load(3, 2, 0),
        br(CondOp::Lt, rr(3), im(0), 5),
        alu(AluOp::Add, 4, rr(3), im(1)), // fall arm
        jmp(7),
        store(im(0), 2, 256), // taken arm
        alu(AluOp::Add, 4, rr(3), im(2)),
        store(rr(4), 2, 512), // join
        Inst::Halt,
    ];
    let cands = candidates(&insts);
    assert_eq!(cands.len(), 1);
    match &cands[0].verdict {
        MeldVerdict::Rejected { reason } => {
            assert!(reason.contains("memory operations do not pair"), "{reason}");
        }
        v => panic!("expected rejection, got {v:?}"),
    }
}

#[test]
fn nested_diamond_melds_inside_out() {
    // Outer diamond whose fall-through arm is itself a meldable
    // diamond. Round 1 melds the inner; the outer arm then becomes a
    // single straight-line block — a proper diamond, but far too
    // dissimilar from the 1-instruction taken arm to be profitable, so
    // exactly one rewrite happens and the outer branch survives.
    let mut insts = vec![
        alu(AluOp::Mul, 2, rr(0), im(8)),
        load(3, 2, 0),
        br(CondOp::Lt, rr(3), im(-5), 19), // outer
        br(CondOp::Lt, rr(3), im(4), 11),  // inner
    ];
    insts.extend(poly_arm(5)); // pc 4..10
    insts.push(jmp(17)); // pc 10
    insts.extend(poly_arm(3)); // pc 11..17
    insts.extend([
        alu(AluOp::Add, 4, rr(4), im(9)), // pc 17, inner join / outer fall tail
        jmp(20),
        alu(AluOp::Add, 4, rr(3), im(2)),   // pc 19, outer taken arm
        alu(AluOp::Add, 5, rr(2), im(256)), // pc 20, outer join
        store(rr(4), 5, 0),
        Inst::Halt,
    ]);
    let out = meld(&insts).expect("verifies");
    assert_eq!(out.applied.len(), 1, "only the inner diamond is profitable");
    assert_eq!(
        out.insts
            .iter()
            .filter(|i| matches!(i, Inst::Branch { .. }))
            .count(),
        1,
        "outer branch survives"
    );
    let seed = signed_seed(16);
    assert_eq!(
        run_image(&insts, 16, &seed),
        run_image(&out.insts, 16, &seed)
    );
    // Pre-meld, the outer diamond is not even a candidate (its arm
    // contains control flow); post-inner-meld it gets an explicit
    // unprofitability rejection.
    let cands = candidates(&out.insts);
    assert_eq!(cands.len(), 1);
    assert!(matches!(cands[0].verdict, MeldVerdict::Rejected { .. }));
}

#[test]
fn sequential_diamonds_both_meld() {
    let mut insts = vec![
        alu(AluOp::Mul, 2, rr(0), im(8)),
        load(3, 2, 0),
        br(CondOp::Lt, rr(3), im(0), 10),
    ];
    insts.extend(poly_arm(5)); // pc 3..9
    insts.push(jmp(16));
    insts.extend(poly_arm(3)); // pc 10..16
    insts.push(alu(AluOp::And, 4, rr(4), im(1023))); // pc 16, first join
    insts.push(br(CondOp::Lt, rr(4), im(8), 25)); // pc 17, second diamond
    let poly2 = |k: i64| {
        vec![
            alu(AluOp::Mul, 6, rr(4), im(k)),
            alu(AluOp::Add, 6, rr(6), im(2)),
            alu(AluOp::Xor, 6, rr(6), rr(4)),
            alu(AluOp::Shr, 6, rr(6), im(1)),
            alu(AluOp::Add, 6, rr(6), rr(4)),
            alu(AluOp::Mul, 6, rr(6), rr(6)),
        ]
    };
    insts.extend(poly2(7)); // pc 18..24
    insts.push(jmp(31));
    insts.extend(poly2(11)); // pc 25..31
    insts.extend([
        alu(AluOp::Add, 5, rr(2), im(256)), // pc 31, second join
        store(rr(6), 5, 0),
        Inst::Halt,
    ]);
    let out = meld(&insts).expect("verifies");
    assert_eq!(out.applied.len(), 2, "both diamonds rewritten");
    assert!(!out
        .insts
        .iter()
        .any(|i| matches!(i, Inst::Branch { .. } | Inst::Jump { .. })));
    let seed = signed_seed(16);
    assert_eq!(
        run_image(&insts, 16, &seed),
        run_image(&out.insts, 16, &seed)
    );
}

#[test]
fn meld_is_idempotent() {
    let insts = blend_kernel();
    let once = meld(&insts).expect("melds");
    let twice = meld(&once.insts).expect("still verifies");
    assert!(!twice.changed());
    assert_eq!(once.insts, twice.insts);
}

#[test]
fn melded_output_is_lint_clean() {
    let insts = blend_kernel();
    let out = meld(&insts).expect("melds");
    assert!(out.changed());
    assert_eq!(
        out.report.count(crate::verify::Severity::Error)
            + out.report.count(crate::verify::Severity::Warning),
        0,
        "melded output must carry no errors or warnings:\n{}",
        out.report
    );
}
