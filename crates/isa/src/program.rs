//! The compiled kernel program: instructions plus static branch metadata.

use crate::analysis::max_reg;
use crate::cfg::{BranchInfo, Cfg};
use crate::inst::Inst;
use crate::predecode::{predecode, ExecOp};
use crate::verify::{self, BranchUniformity, Verified, VerifyOptions, VerifyReport, VerifyStats};
use std::fmt;

/// A validated, analyzed kernel program.
///
/// Created by [`crate::KernelBuilder::build`]. Beyond the instruction list,
/// it carries per-branch static metadata: the immediate post-dominator PC
/// (the hardware re-convergence point) and whether the paper's heuristic
/// allows dynamic warp subdivision at that branch (Section 4.3: the basic
/// block at the post-dominator must be at most 50 instructions long).
#[derive(Debug, Clone)]
pub struct Program {
    insts: Vec<Inst>,
    /// Predecoded µop per pc (see [`crate::predecode`]) — the timing
    /// simulator's hot path dispatches on this instead of `insts`.
    decoded: Vec<ExecOp>,
    /// Indexed by pc; `None` for non-branch instructions.
    branch_info: Vec<Option<BranchInfo>>,
    num_regs: u16,
    /// Aggregate facts from the build-time verification run.
    stats: VerifyStats,
    /// The verification run's branch classification
    /// ([`Program::branch_uniformity`]).
    uniformity: BranchUniformity,
}

impl Program {
    /// Assembles a program from raw instructions, running the full
    /// [`crate::verify`] pipeline. Error-severity findings reject the
    /// program; the rendered diagnostic report becomes the error string.
    ///
    /// # Errors
    ///
    /// Returns the rendered [`VerifyReport`] if any pass found an
    /// error-severity defect (empty program, target out of range,
    /// fall-through off the end, use-before-def, provably out-of-bounds
    /// access, inconsistent annotations, ...).
    pub fn from_insts(insts: Vec<Inst>) -> Result<Program, String> {
        Self::from_insts_verified(insts, &VerifyOptions::default())
            .map_err(|report| report.rendered().trim_end().to_string())
    }

    /// Like [`Program::from_insts`] but with explicit verification context
    /// and the structured [`VerifyReport`] on rejection.
    ///
    /// # Errors
    ///
    /// Returns the full report when it contains error-severity diagnostics.
    pub fn from_insts_verified(
        insts: Vec<Inst>,
        opts: &VerifyOptions,
    ) -> Result<Program, VerifyReport> {
        let (report, built) = verify::verify(&insts, opts);
        if report.has_errors() {
            return Err(report);
        }
        let Verified {
            annotations,
            uniformity,
        } = built.expect("error-free verification builds a CFG");
        Ok(Program {
            decoded: predecode(&insts),
            num_regs: max_reg(&insts),
            insts,
            branch_info: annotations,
            stats: report.stats,
            uniformity,
        })
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn inst(&self, pc: usize) -> &Inst {
        &self.insts[pc]
    }

    /// The predecoded µop at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn exec_op(&self, pc: usize) -> &ExecOp {
        &self.decoded[pc]
    }

    /// All predecoded µops in order (one per instruction).
    pub fn decoded(&self) -> &[ExecOp] {
        &self.decoded
    }

    /// All instructions in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty (never true for a built program).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Static metadata for the conditional branch at `pc`, if any.
    #[inline]
    pub fn branch_info(&self, pc: usize) -> Option<&BranchInfo> {
        self.branch_info.get(pc).and_then(|b| b.as_ref())
    }

    /// Which conditional branches are provably warp-uniform, and which of
    /// those sit on the uniform spine — the build-time verifier's
    /// classification ([`verify::Uniformity`]), which is also what the
    /// WPU's uniform-branch fast path reads.
    #[inline]
    pub fn branch_uniformity(&self) -> &BranchUniformity {
        &self.uniformity
    }

    /// Number of architectural registers each thread context needs.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Returns a copy whose branches are re-classified with a different
    /// Section 4.3 subdivision threshold (`usize::MAX` allows every branch,
    /// `0` none). Used by the subdivision-threshold ablation bench.
    pub fn with_subdiv_threshold(&self, max_block: usize) -> Program {
        let opts = VerifyOptions {
            subdiv_threshold: max_block,
            ..VerifyOptions::default()
        };
        let (report, built) = verify::verify(&self.insts, &opts);
        let built = built.expect("an already-built program stays structurally valid");
        Program {
            insts: self.insts.clone(),
            decoded: self.decoded.clone(),
            branch_info: built.annotations,
            num_regs: self.num_regs,
            stats: report.stats,
            uniformity: built.uniformity,
        }
    }

    /// The per-pc [`BranchInfo`] annotation table (`None` for non-branches).
    pub fn branch_annotations(&self) -> &[Option<BranchInfo>] {
        &self.branch_info
    }

    /// Aggregate facts derived by the build-time verification run.
    pub fn verify_stats(&self) -> &VerifyStats {
        &self.stats
    }

    /// Re-runs the full verification pipeline against this program's own
    /// annotations under explicit context (thread count, memory size,
    /// warp-split-table capacity) — the `dws-cli lint` path. Unlike
    /// [`Program::from_insts_verified`] the annotations on trial are the
    /// stored ones, so a forged or stale table is caught too.
    pub fn lint(&self, opts: &VerifyOptions) -> VerifyReport {
        let cfg = Cfg::build(&self.insts);
        verify::verify_annotated(&self.insts, &cfg, &self.branch_info, opts)
    }

    /// Iterator over `(pc, info)` for every conditional branch.
    pub fn branches(&self) -> impl Iterator<Item = (usize, &BranchInfo)> + '_ {
        self.branch_info
            .iter()
            .enumerate()
            .filter_map(|(pc, b)| b.as_ref().map(|info| (pc, info)))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, inst) in self.insts.iter().enumerate() {
            write!(f, "{pc:4}: {inst}")?;
            if let Some(info) = self.branch_info(pc) {
                write!(
                    f,
                    "   ; ipdom=@{} {}",
                    info.ipdom,
                    if info.subdividable {
                        "subdiv"
                    } else {
                        "no-subdiv"
                    }
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, CondOp, Operand, Reg};

    #[test]
    fn rejects_empty() {
        assert!(Program::from_insts(vec![]).is_err());
    }

    #[test]
    fn rejects_fallthrough_end() {
        let insts = vec![Inst::Alu {
            op: AluOp::Add,
            dst: Reg(2),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        }];
        assert!(Program::from_insts(insts).is_err());
    }

    #[test]
    fn rejects_out_of_range_target() {
        let insts = vec![Inst::Jump { target: 5 }, Inst::Halt];
        assert!(Program::from_insts(insts).is_err());
    }

    #[test]
    fn computes_reg_count() {
        let insts = vec![
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg(7),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(1),
            },
            Inst::Halt,
        ];
        let p = Program::from_insts(insts).unwrap();
        assert_eq!(p.num_regs(), 8);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn branch_metadata_exposed() {
        // 0: br -> 2 ; 1: add ; 2: halt — diamond degenerate
        let insts = vec![
            Inst::Branch {
                cond: CondOp::Eq,
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(0),
                target: 2,
            },
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg(2),
                a: Operand::Imm(1),
                b: Operand::Imm(2),
            },
            Inst::Halt,
        ];
        let p = Program::from_insts(insts).unwrap();
        let info = p.branch_info(0).expect("branch info");
        assert_eq!(info.ipdom, 2);
        assert_eq!(p.branches().count(), 1);
        assert!(p.branch_info(1).is_none());
        let text = p.to_string();
        assert!(text.contains("ipdom=@2"));
    }
}
