//! Pass 3 (`DWS03xx`): def-use dataflow — the diagnostic walks over the
//! reaching-definitions and liveness fixpoints in [`Facts`].

use super::{Diagnostic, DwsLintCode, Facts, VerifyReport};
use crate::analysis::{inst_def, inst_uses, RegSet};

/// Definite-assignment ("must" reach), maybe-assignment ("may" reach),
/// liveness for dead writes, and register-file tightness.
///
/// A read of a register with no reaching definition on *any* path is a
/// hard error (the lanes would consume whatever the register file was
/// reset to); a read where only *some* paths define is a warning. Entry
/// state is `{r0, r1}`, the preloaded thread id and thread count.
///
/// The hand-written fixpoint this pass replaced lives on as the oracle of
/// `tests/dataflow_differential.rs`: both must emit identical diagnostics
/// on every benchmark kernel and 200 generated seeds.
pub(super) fn pass_defuse(facts: &Facts, report: &mut VerifyReport) {
    let (insts, cfg, reach, num_regs) = (facts.insts, facts.cfg, &facts.reach, facts.num_regs);
    let (must, may, live) = (&facts.must, &facts.may, &facts.live);
    // Walk each reachable block flagging reads of unassigned registers.
    let mut uses = Vec::new();
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        let mut must_here = must.on_entry[bi].clone();
        let mut may_here = may.on_entry[bi].clone();
        for pc in b.start..b.end {
            inst_uses(&insts[pc], &mut uses);
            for &r in &uses {
                if must_here.has(r.0) {
                    continue;
                }
                if may_here.has(r.0) {
                    report.record(
                        insts,
                        Diagnostic::new(
                            DwsLintCode::MaybeUseBeforeDef,
                            Some(pc),
                            Some(bi),
                            format!("{r} is read but only some paths define it first"),
                        ),
                    );
                } else {
                    report.record(
                        insts,
                        Diagnostic::new(
                            DwsLintCode::UseBeforeDef,
                            Some(pc),
                            Some(bi),
                            format!("{r} is read but no definition reaches this point"),
                        ),
                    );
                }
            }
            if let Some(r) = inst_def(&insts[pc]) {
                must_here.set(r.0);
                may_here.set(r.0);
            }
        }
    }
    // Dead writes: `on_entry` of a backward problem is the block's live-out
    // set.
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        let mut live_here = live.on_entry[bi].clone();
        for pc in (b.start..b.end).rev() {
            if let Some(r) = inst_def(&insts[pc]) {
                if !live_here.has(r.0) {
                    report.record(
                        insts,
                        Diagnostic::new(
                            DwsLintCode::DeadWrite,
                            Some(pc),
                            Some(bi),
                            format!("{r} is written here but never read afterwards"),
                        ),
                    );
                }
                live_here.clear(r.0);
            }
            inst_uses(&insts[pc], &mut uses);
            for &r in &uses {
                live_here.set(r.0);
            }
        }
    }
    // Register-file tightness: allocated indices that are never referenced.
    let mut referenced = RegSet::empty(num_regs as usize);
    referenced.set(0);
    if num_regs > 1 {
        referenced.set(1);
    }
    for inst in insts {
        inst_uses(inst, &mut uses);
        for &r in &uses {
            referenced.set(r.0);
        }
        if let Some(r) = inst_def(inst) {
            referenced.set(r.0);
        }
    }
    for r in 2..num_regs {
        if !referenced.has(r) {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::UnusedReg,
                    None,
                    None,
                    format!(
                        "r{r} is never referenced but the register file is sized for \
                         {num_regs} registers"
                    ),
                ),
            );
        }
    }
}
