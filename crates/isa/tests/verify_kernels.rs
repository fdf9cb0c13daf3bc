//! Golden-diagnostics corpus for the static verifier, plus the
//! all-shipped-kernels-lint-clean gate.
//!
//! Each deliberately-malformed IR snippet asserts the *exact*
//! [`DwsLintCode`] and pc the verifier must report, so diagnostic codes and
//! anchoring are part of the public contract. The kernel sweep then checks
//! that every shipped benchmark, at every input scale, lints clean (no
//! errors, no warnings) and that the independently recomputed immediate
//! post-dominators agree with the `analyze_branches` annotations.

use dws_isa::cfg::{BranchInfo, Cfg, RECONV_NONE};
use dws_isa::gen::{generate, GenConfig};
use dws_isa::verify::{verify, verify_annotated};
use dws_isa::{AluOp, CondOp, DwsLintCode, Inst, Operand, Reg, Severity, VerifyOptions};
use dws_kernels::{Benchmark, MeldKernel, Scale};

fn add(dst: u16, a: Operand, b: Operand) -> Inst {
    Inst::Alu {
        op: AluOp::Add,
        dst: Reg(dst),
        a,
        b,
    }
}

/// `dst = v`, from immediates only.
fn li(dst: u16, v: i64) -> Inst {
    add(dst, Operand::Imm(v), Operand::Imm(0))
}

fn br(target: usize) -> Inst {
    Inst::Branch {
        cond: CondOp::Eq,
        a: Operand::Reg(Reg(0)),
        b: Operand::Imm(0),
        target,
    }
}

fn expect(insts: Vec<Inst>, code: DwsLintCode, pc: Option<usize>) {
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report
        .find(code)
        .unwrap_or_else(|| panic!("expected {code:?}, got:\n{report}"));
    assert_eq!(d.pc, pc, "pc anchor for {code:?}:\n{report}");
    assert_eq!(d.severity, code.severity());
}

// ---- pass 1: CFG well-formedness ------------------------------------------

#[test]
fn golden_empty_program() {
    expect(vec![], DwsLintCode::EmptyProgram, None);
}

#[test]
fn golden_target_out_of_range() {
    expect(
        vec![Inst::Jump { target: 9 }, Inst::Halt],
        DwsLintCode::TargetOutOfRange,
        Some(0),
    );
}

#[test]
fn golden_fallthrough_off_end() {
    expect(
        vec![add(2, Operand::Imm(1), Operand::Imm(2))],
        DwsLintCode::FallthroughOffEnd,
        Some(0),
    );
}

#[test]
fn golden_unreachable_code() {
    // 0: jmp 2 ; 1: add (orphan) ; 2: halt
    let insts = vec![
        Inst::Jump { target: 2 },
        add(2, Operand::Imm(1), Operand::Imm(2)),
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report.find(DwsLintCode::UnreachableCode).expect("finding");
    assert_eq!(d.pc, Some(1));
    assert_eq!(d.severity, Severity::Warning);
}

// ---- pass 2: re-convergence -----------------------------------------------

/// Forged annotations: the ipdom points at the wrong pc. Only the
/// `verify_annotated` path (the linter) can see this, since `verify`
/// recomputes annotations itself.
#[test]
fn golden_bad_ipdom() {
    // diamond joining at 4
    let insts = vec![
        br(3),
        add(2, Operand::Imm(1), Operand::Imm(2)),
        Inst::Jump { target: 4 },
        add(2, Operand::Imm(3), Operand::Imm(4)),
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(0),
            offset: 0,
        },
        Inst::Halt,
    ];
    let cfg = Cfg::build(&insts);
    let mut annotations = cfg.analyze_branches(&insts);
    let forged = annotations[0].as_mut().expect("branch at pc 0");
    assert_eq!(forged.ipdom, 4, "sanity: true join is pc 4");
    forged.ipdom = 1; // forge
    let report = verify_annotated(&insts, &cfg, &annotations, &VerifyOptions::default());
    let d = report.find(DwsLintCode::IpdomMismatch).expect("finding");
    assert_eq!(d.pc, Some(0));
    assert!(report.has_errors());
}

#[test]
fn golden_missing_annotation() {
    let insts = vec![br(2), add(2, Operand::Imm(1), Operand::Imm(2)), Inst::Halt];
    let cfg = Cfg::build(&insts);
    let annotations = vec![None, None, None]; // branch at 0 unannotated
    let report = verify_annotated(&insts, &cfg, &annotations, &VerifyOptions::default());
    let d = report
        .find(DwsLintCode::BadBranchAnnotation)
        .expect("finding");
    assert_eq!(d.pc, Some(0));
}

#[test]
fn golden_forged_subdiv_mark() {
    let insts = vec![br(2), add(2, Operand::Imm(1), Operand::Imm(2)), Inst::Halt];
    let cfg = Cfg::build(&insts);
    let mut annotations = cfg.analyze_branches(&insts);
    let forged = annotations[0].as_mut().expect("branch at pc 0");
    assert!(forged.subdividable, "sanity: 1-inst join block subdivides");
    forged.subdividable = false; // forge
    let report = verify_annotated(&insts, &cfg, &annotations, &VerifyOptions::default());
    let d = report
        .find(DwsLintCode::SubdivMarkMismatch)
        .expect("finding");
    assert_eq!(d.pc, Some(0));
    assert!(report.has_errors());
}

/// Over-deep nesting: more simultaneously-open divergent re-convergence
/// points than the warp-split table can hold.
#[test]
fn golden_over_deep_nesting() {
    // Three nested diamonds on tid, WST capacity 3 (< bound 4).
    let insts = vec![
        br(10), // outer
        br(7),  // middle
        br(4),  // inner
        add(2, Operand::Imm(0), Operand::Imm(0)),
        add(2, Operand::Imm(0), Operand::Imm(0)), // inner join (pc 4)
        add(2, Operand::Imm(0), Operand::Imm(0)),
        Inst::Jump { target: 8 },
        add(2, Operand::Imm(0), Operand::Imm(0)), // middle taken
        add(2, Operand::Imm(0), Operand::Imm(0)), // middle join (pc 8)
        Inst::Jump { target: 11 },
        add(2, Operand::Imm(0), Operand::Imm(0)), // outer taken
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(0),
            offset: 0,
        }, // outer join (pc 11)
        Inst::Halt,
    ];
    let opts = VerifyOptions::default().with_wst_capacity(3);
    let (report, _) = verify(&insts, &opts);
    assert_eq!(report.stats.max_divergent_nesting, 3, "{report}");
    assert_eq!(report.stats.reconv_stack_bound(), 4);
    let d = report
        .find(DwsLintCode::ReconvDepthExceedsWst)
        .expect("finding");
    assert_eq!(d.severity, Severity::Warning);
    // The paper's 16-entry WST accommodates the same kernel fine.
    let (report, _) = verify(&insts, &VerifyOptions::default().with_wst_capacity(16));
    assert!(report.find(DwsLintCode::ReconvDepthExceedsWst).is_none());
}

/// The one way to raise `DWS0204`: two divergent branches inside each
/// other's open region (both exits of one loop) always share a
/// post-dominator, so a `Cfg`-derived table puts them in one re-convergence
/// group; a foreign table that re-converges them at *different* pcs makes
/// the groups nest cyclically.
#[test]
fn golden_irreducible_nesting() {
    // 0: A: if tid == 0 goto 3 ; 1: B: if tid == 1 goto 3 ; 2: jmp 0 ; 3: halt
    let insts = vec![
        br(3),
        Inst::Branch {
            cond: CondOp::Eq,
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(1),
            target: 3,
        },
        Inst::Jump { target: 0 },
        Inst::Halt,
    ];
    let cfg = Cfg::build(&insts);
    let mut annotations = cfg.analyze_branches(&insts);
    let report = verify_annotated(&insts, &cfg, &annotations, &VerifyOptions::default());
    assert!(report.find(DwsLintCode::IrreducibleNesting).is_none());
    assert_eq!(report.stats.divergent_branches, 2);
    assert_eq!(
        report.stats.max_divergent_nesting, 1,
        "one shared reconv pc"
    );
    annotations[1].as_mut().expect("branch at pc 1").ipdom = 2; // forge
    let report = verify_annotated(&insts, &cfg, &annotations, &VerifyOptions::default());
    let d = report
        .find(DwsLintCode::IrreducibleNesting)
        .unwrap_or_else(|| panic!("expected DWS0204, got:\n{report}"));
    assert_eq!(d.pc, None);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("2 distinct"), "{}", d.message);
    assert_eq!(
        report.stats.max_divergent_nesting, 2,
        "capped at the groups"
    );
}

/// Control dependence counts: an inner branch on a register the outer
/// (divergent) arm defined from immediates is itself divergent, and its
/// re-convergence point nests inside the outer one.
#[test]
fn golden_control_tainted_branch_counts_toward_nesting() {
    let insts = vec![
        li(2, 0),
        Inst::Branch {
            cond: CondOp::Lt,
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(5),
            target: 6,
        }, // outer, on tid; joins at 6
        li(2, 1), // defined under divergence
        Inst::Branch {
            cond: CondOp::Eq,
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(1),
            target: 5,
        }, // inner, on r2; joins at 5
        li(2, 2),
        add(2, Operand::Reg(Reg(2)), Operand::Imm(1)), // inner join (pc 5)
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(3),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(8),
        }, // outer join (pc 6)
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(3),
            offset: 0,
        },
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    assert!(!report.has_errors(), "{report}");
    assert_eq!(report.stats.divergent_branches, 2, "{report}");
    assert_eq!(report.stats.uniform_branches, 0);
    assert_eq!(report.stats.max_divergent_nesting, 2);
    assert_eq!(report.stats.reconv_stack_bound(), 3);
}

// ---- pass 3: def-use ------------------------------------------------------

#[test]
fn golden_use_before_def() {
    expect(
        vec![
            add(3, Operand::Reg(Reg(2)), Operand::Imm(1)),
            Inst::Store {
                src: Operand::Reg(Reg(3)),
                base: Reg(0),
                offset: 0,
            },
            Inst::Halt,
        ],
        DwsLintCode::UseBeforeDef,
        Some(0),
    );
}

#[test]
fn golden_maybe_use_before_def() {
    // r2 defined only on the taken path, then read at the join.
    let insts = vec![
        br(2),                                    // 0: if tid == 0
        add(2, Operand::Imm(7), Operand::Imm(0)), // 1: r2 = 7 (one path only)
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(0),
            offset: 0,
        }, // 2: read r2 at the join
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report
        .find(DwsLintCode::MaybeUseBeforeDef)
        .expect("finding");
    assert_eq!(d.pc, Some(2));
    assert_eq!(d.severity, Severity::Warning);
    assert!(report.find(DwsLintCode::UseBeforeDef).is_none());
}

#[test]
fn golden_dead_write() {
    let insts = vec![
        add(2, Operand::Imm(1), Operand::Imm(2)), // r2 never read
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report.find(DwsLintCode::DeadWrite).expect("finding");
    assert_eq!(d.pc, Some(0));
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn golden_unused_reg() {
    // r2 skipped: only r3 referenced, so the 4-register file is loose.
    let insts = vec![
        add(3, Operand::Imm(1), Operand::Imm(2)),
        Inst::Store {
            src: Operand::Reg(Reg(3)),
            base: Reg(0),
            offset: 0,
        },
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report.find(DwsLintCode::UnusedReg).expect("finding");
    assert!(d.message.contains("r2"), "{report}");
}

// ---- pass 4: memory bounds ------------------------------------------------

#[test]
fn golden_oob_store() {
    // store at byte 4096 of a 64-byte buffer: provably out of bounds.
    let insts = vec![
        add(2, Operand::Imm(4096), Operand::Imm(0)),
        Inst::Store {
            src: Operand::Imm(1),
            base: Reg(2),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default().with_mem_bytes(64);
    let (report, _) = verify(&insts, &opts);
    let d = report.find(DwsLintCode::OobAccess).expect("finding");
    assert_eq!(d.pc, Some(1));
    assert!(report.has_errors());
}

#[test]
fn golden_negative_address_rejected_even_without_memory_context() {
    let insts = vec![
        add(2, Operand::Imm(-8), Operand::Imm(0)),
        Inst::Load {
            dst: Reg(3),
            base: Reg(2),
            offset: 0,
        },
        Inst::Store {
            src: Operand::Reg(Reg(3)),
            base: Reg(0),
            offset: 0,
        },
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report.find(DwsLintCode::OobAccess).expect("finding");
    assert_eq!(d.pc, Some(1));
}

#[test]
fn golden_possible_oob_and_unproven_bounds() {
    // tid*8 against a 64-byte buffer with 256 threads: bounded straddle.
    let insts = vec![
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(2),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(8),
        },
        Inst::Store {
            src: Operand::Imm(1),
            base: Reg(2),
            offset: 0,
        },
        Inst::Halt,
    ];
    let opts = VerifyOptions::default()
        .with_mem_bytes(64)
        .with_nthreads(256);
    let (report, _) = verify(&insts, &opts);
    let d = report
        .find(DwsLintCode::OobAccessPossible)
        .expect("finding");
    assert_eq!(d.pc, Some(1));
    assert_eq!(d.severity, Severity::Warning);
    // Without a thread count the address is unbounded: note, not warning.
    let opts = VerifyOptions::default().with_mem_bytes(64);
    let (report, _) = verify(&insts, &opts);
    let d = report.find(DwsLintCode::UnprovenBounds).expect("finding");
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(report.count(Severity::Warning), 0);
}

// ---- pass 5: divergence ---------------------------------------------------

#[test]
fn golden_barrier_under_divergence() {
    // if tid == 0 { barrier } — the divergent-barrier deadlock shape.
    let insts = vec![br(3), Inst::Barrier, Inst::Jump { target: 3 }, Inst::Halt];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report
        .find(DwsLintCode::BarrierUnderDivergence)
        .expect("finding");
    assert_eq!(d.pc, Some(1));
    assert_eq!(d.severity, Severity::Warning);
}

/// A barrier under a branch on a *control-tainted* register: `r2` is built
/// from immediates only, but one of its definitions sits inside the open
/// region of a `tid` branch, so lanes disagree on it — and on whether they
/// reach the barrier.
#[test]
fn golden_barrier_under_control_tainted_branch() {
    let insts = vec![
        li(2, 0),
        Inst::Branch {
            cond: CondOp::Lt,
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(5),
            target: 3,
        },
        li(2, 1), // only lanes with tid >= 5
        Inst::Branch {
            cond: CondOp::Eq,
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(1),
            target: 5,
        },
        Inst::Barrier,
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(3),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(8),
        },
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(3),
            offset: 0,
        },
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report
        .find(DwsLintCode::BarrierUnderDivergence)
        .unwrap_or_else(|| panic!("expected DWS0502, got:\n{report}"));
    assert_eq!(d.pc, Some(4));
    assert!(d.message.contains("pc 3"), "{}", d.message);
}

#[test]
fn uniform_barrier_is_clean() {
    // barrier on the main path, under a warp-uniform loop: fine.
    let insts = vec![
        add(2, Operand::Reg(Reg(1)), Operand::Imm(0)), // r2 = ntid (uniform)
        Inst::Barrier,
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(0),
            offset: 0,
        },
        Inst::Halt,
    ];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    assert!(report.find(DwsLintCode::BarrierUnderDivergence).is_none());
}

// ---- pass 6: melding advisory ---------------------------------------------

/// A 6-instruction polynomial arm on tid into r2 — long enough that
/// blending its one differing immediate is profitable (see `dws_isa::meld`).
fn meld_arm(k: i64) -> Vec<Inst> {
    vec![
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(2),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(k),
        },
        add(2, Operand::Reg(Reg(2)), Operand::Imm(1)),
        Inst::Alu {
            op: AluOp::Xor,
            dst: Reg(2),
            a: Operand::Reg(Reg(2)),
            b: Operand::Reg(Reg(0)),
        },
        Inst::Alu {
            op: AluOp::Shr,
            dst: Reg(2),
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(1),
        },
        add(2, Operand::Reg(Reg(2)), Operand::Reg(Reg(0))),
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(2),
            a: Operand::Reg(Reg(2)),
            b: Operand::Reg(Reg(2)),
        },
    ]
}

/// `if (tid < 4) r2 = polyA(tid) else r2 = polyB(tid); out[tid] = r2` —
/// a divergent diamond the meld pass must flag as profitably meldable.
fn meldable_diamond() -> Vec<Inst> {
    let mut insts = vec![Inst::Branch {
        cond: CondOp::Lt,
        a: Operand::Reg(Reg(0)),
        b: Operand::Imm(4),
        target: 8,
    }];
    insts.extend(meld_arm(5)); // pc 1..7, fall-through arm
    insts.push(Inst::Jump { target: 14 }); // pc 7
    insts.extend(meld_arm(3)); // pc 8..14, taken arm
    insts.extend([
        Inst::Alu {
            op: AluOp::Mul,
            dst: Reg(3),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(8),
        }, // pc 14, join
        Inst::Store {
            src: Operand::Reg(Reg(2)),
            base: Reg(3),
            offset: 0,
        },
        Inst::Halt,
    ]);
    insts
}

#[test]
fn golden_meldable_region() {
    let insts = meldable_diamond();
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report.find(DwsLintCode::MeldableRegion).expect("finding");
    assert_eq!(d.pc, Some(0), "{report}");
    assert_eq!(d.severity, Severity::Note);
    assert!(d.message.contains("meldable region"), "{}", d.message);
    assert!(report.find(DwsLintCode::MeldRejected).is_none(), "{report}");
}

#[test]
fn golden_meld_rejected() {
    // A barrier in one arm makes the diamond un-meldable: the advisory must
    // downgrade to an explicit rejection, never to a meldable claim.
    let mut insts = meldable_diamond();
    insts.insert(2, Inst::Barrier); // into the fall-through arm
    for inst in &mut insts {
        match inst {
            Inst::Branch { target, .. } | Inst::Jump { target } if *target >= 2 => {
                *target += 1;
            }
            _ => {}
        }
    }
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let d = report.find(DwsLintCode::MeldRejected).expect("finding");
    assert_eq!(d.pc, Some(0), "{report}");
    assert_eq!(d.severity, Severity::Note);
    assert!(d.message.contains("barrier"), "{}", d.message);
    // Negative: the barrier diamond must NOT be reported meldable.
    assert!(
        report.find(DwsLintCode::MeldableRegion).is_none(),
        "{report}"
    );
}

#[test]
fn uniform_diamond_gets_no_meld_advisory() {
    // Same shape, but branching on ntid: the branch can never diverge, so
    // the meld pass stays silent — no DWS0601, no DWS0602.
    let mut insts = meldable_diamond();
    insts[0] = Inst::Branch {
        cond: CondOp::Lt,
        a: Operand::Reg(Reg(1)),
        b: Operand::Imm(4),
        target: 8,
    };
    let (report, _) = verify(&insts, &VerifyOptions::default());
    assert!(
        report.find(DwsLintCode::MeldableRegion).is_none(),
        "{report}"
    );
    assert!(report.find(DwsLintCode::MeldRejected).is_none(), "{report}");
}

// ---- rendering ------------------------------------------------------------

#[test]
fn rendered_diagnostics_are_rustc_style() {
    let insts = vec![add(3, Operand::Reg(Reg(2)), Operand::Imm(1))];
    let (report, _) = verify(&insts, &VerifyOptions::default());
    let text = report.rendered();
    assert!(text.contains("error[DWS0103]"), "{text}");
    assert!(text.contains("--> pc 0"), "{text}");
    assert!(text.contains("r3 = Add(r2, 1)"), "{text}");
}

// ---- shipped kernels ------------------------------------------------------

/// Every shipped kernel × scale builds, lints clean under `--deny-warnings`
/// semantics (no errors, no warnings; notes allowed), and its stored
/// annotations agree with the independently recomputed post-dominators.
#[test]
fn all_shipped_kernels_lint_clean() {
    for bench in Benchmark::ALL {
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            let spec = bench.build(scale, 42);
            let opts = VerifyOptions::default()
                .with_mem_bytes(spec.memory.size_bytes())
                .with_wst_capacity(16);
            let report = spec.program.lint(&opts);
            assert_eq!(
                report.count(Severity::Error),
                0,
                "{bench} @ {scale:?}:\n{report}"
            );
            assert_eq!(
                report.count(Severity::Warning),
                0,
                "{bench} @ {scale:?}:\n{report}"
            );
            assert!(
                report.stats.branches > 0,
                "{bench} @ {scale:?}: no branches analyzed?"
            );
            assert!(
                !spec.layout.buffers.is_empty(),
                "{bench} declares no memory map"
            );
            let problems = spec.layout.check(spec.memory.size_bytes());
            assert!(problems.is_empty(), "{bench} @ {scale:?}: {problems:?}");
        }
    }
}

/// The acceptance criterion in words: the set-based recomputation and the
/// Cooper–Harvey–Kennedy annotations agree on every kernel × scale. A
/// stronger per-branch variant of the lint above: forge nothing, diff all.
#[test]
fn recomputed_ipdoms_match_annotations_on_all_kernels() {
    for bench in Benchmark::ALL {
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            let spec = bench.build(scale, 7);
            let insts = spec.program.insts();
            let cfg = Cfg::build(insts);
            let annotations: &[Option<BranchInfo>] = spec.program.branch_annotations();
            for (pc, info) in spec.program.branches() {
                let b = cfg.block_of(pc);
                // The lint pass re-derives this; assert the raw data too.
                assert_eq!(annotations[pc].as_ref(), Some(info));
                let _ = (b, RECONV_NONE);
            }
            let report = spec.program.lint(&VerifyOptions::default());
            assert!(
                report.find(DwsLintCode::IpdomMismatch).is_none(),
                "{bench} @ {scale:?}:\n{report}"
            );
            assert!(
                report.find(DwsLintCode::BadBranchAnnotation).is_none(),
                "{bench} @ {scale:?}:\n{report}"
            );
        }
    }
}

/// The linter and the machine read one classification: the verifier's
/// divergent/uniform counters are exactly what the WPU scheduler's
/// per-branch `uniform` marks add up to, on every shipped kernel and
/// scale, both meldable variants, and 200 generated kernels.
#[test]
fn linter_and_machine_agree_on_branch_uniformity() {
    let agree = |what: &str, program: &dws_isa::Program| {
        let stats = program.verify_stats();
        let uniform = program.branch_uniformity().uniform.iter();
        assert_eq!(
            stats.uniform_branches,
            uniform.filter(|u| **u).count(),
            "{what}"
        );
        assert_eq!(
            stats.divergent_branches,
            stats.branches - stats.uniform_branches,
            "{what}"
        );
    };
    for bench in Benchmark::ALL {
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            agree(
                &format!("{bench} @ {scale:?}"),
                &bench.build(scale, 42).program,
            );
        }
    }
    for kernel in MeldKernel::ALL {
        agree(kernel.name(), &kernel.build(Scale::Test, 42).program);
    }
    let cfg = GenConfig::default();
    for seed in 0..200u64 {
        let program = generate(seed, &cfg)
            .compile()
            .expect("generated kernels verify");
        agree(&format!("seed {seed}"), &program);
    }
}
