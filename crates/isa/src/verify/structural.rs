//! Pass 1 (`DWS01xx`): CFG well-formedness — the structural prerequisites
//! for building a CFG at all, then the block partition's consistency and
//! reachability.

use super::{Diagnostic, DwsLintCode, Facts, VerifyReport};
use crate::inst::Inst;

/// Structural checks that must hold before a CFG can even be built: a
/// non-empty program, every branch/jump target inside it, and a terminator
/// at the end (otherwise execution falls off the instruction stream).
pub(super) fn pass_structural(insts: &[Inst], report: &mut VerifyReport) {
    let n = insts.len();
    if n == 0 {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::EmptyProgram,
                None,
                None,
                "program has no instructions".into(),
            ),
        );
        return;
    }
    for (pc, inst) in insts.iter().enumerate() {
        if let Inst::Branch { target, .. } | Inst::Jump { target } = *inst {
            if target >= n {
                report.record(
                    insts,
                    Diagnostic::new(
                        DwsLintCode::TargetOutOfRange,
                        Some(pc),
                        None,
                        format!("target @{target} is outside the {n}-instruction program"),
                    ),
                );
            }
        }
    }
    let last = n - 1;
    if !insts[last].is_terminator() {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::FallthroughOffEnd,
                Some(last),
                None,
                "control can fall through past the last instruction (it is not \
                 `jmp`/`halt`)"
                    .into(),
            ),
        );
    }
}

/// Pass 1b: recomputes the basic-block leaders independently of
/// [`Cfg::build`](crate::Cfg::build) and diffs the partition; then reports
/// the unreachable blocks.
pub(super) fn pass_partition(facts: &Facts, report: &mut VerifyReport) {
    let (insts, cfg) = (facts.insts, facts.cfg);
    let n = insts.len();
    let mut leader = vec![false; n];
    leader[0] = true;
    for (pc, inst) in insts.iter().enumerate() {
        match *inst {
            Inst::Branch { target, .. } | Inst::Jump { target } => {
                leader[target] = true;
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
            }
            Inst::Halt if pc + 1 < n => leader[pc + 1] = true,
            _ => {}
        }
    }
    let expected: Vec<usize> = (0..n).filter(|&pc| leader[pc]).collect();
    let actual: Vec<usize> = cfg.blocks().iter().map(|b| b.start).collect();
    if expected != actual {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::BlockPartitionMismatch,
                None,
                None,
                format!(
                    "recomputed block leaders {expected:?} disagree with the CFG \
                     partition {actual:?}"
                ),
            ),
        );
    } else {
        'scan: for (bi, b) in cfg.blocks().iter().enumerate() {
            for pc in b.start..b.end {
                if cfg.block_of(pc) != bi {
                    report.record(
                        insts,
                        Diagnostic::new(
                            DwsLintCode::BlockPartitionMismatch,
                            Some(pc),
                            Some(bi),
                            format!(
                                "instruction maps to block {} but lies in block {bi}'s \
                                 range",
                                cfg.block_of(pc)
                            ),
                        ),
                    );
                    break 'scan;
                }
            }
        }
    }
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !facts.reach[bi] {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::UnreachableCode,
                    Some(b.start),
                    Some(bi),
                    format!("block {bi} (pc {}..{}) can never execute", b.start, b.end),
                ),
            );
        }
    }
}
