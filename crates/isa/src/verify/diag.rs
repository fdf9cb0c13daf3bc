//! What a verification run says: lint codes and severities, the
//! structured [`Diagnostic`], the options a caller supplies, and the
//! [`VerifyReport`] every pass appends to.

use crate::cfg::SUBDIV_MAX_BLOCK;
use crate::inst::Inst;
use std::fmt;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: the analysis could not prove a property (it may still
    /// hold at runtime). Never gates anything.
    Note,
    /// Suspicious but not definitely wrong; gates only under
    /// `--deny-warnings`.
    Warning,
    /// The program is definitely malformed; rejected at build time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Every lint the verifier can raise, one code per defect kind.
///
/// The numeric space mirrors the pass pipeline: `DWS01xx` CFG
/// well-formedness, `DWS02xx` re-convergence, `DWS03xx` def-use dataflow,
/// `DWS04xx` memory bounds, `DWS05xx` divergence/uniformity, `DWS06xx`
/// melding advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DwsLintCode {
    /// The program has no instructions.
    EmptyProgram,
    /// A branch or jump target is outside the program.
    TargetOutOfRange,
    /// Control can fall off the end (last instruction is no terminator).
    FallthroughOffEnd,
    /// The independently recomputed basic-block partition disagrees with
    /// [`Cfg::build`](crate::Cfg::build). A self-check of the CFG builder:
    /// no instruction stream can raise it, only a forged `Cfg` value (which
    /// the public API cannot construct), so no test reaches it.
    BlockPartitionMismatch,
    /// A basic block can never execute.
    UnreachableCode,
    /// A branch annotation's immediate post-dominator disagrees with the
    /// independently recomputed one.
    IpdomMismatch,
    /// A conditional branch lacks its [`BranchInfo`](crate::BranchInfo) annotation, a
    /// non-branch carries one, or the taken/fall-through fields are wrong.
    BadBranchAnnotation,
    /// The static re-convergence-stack bound exceeds the warp-split-table
    /// capacity: a fully nested warp cannot express all its splits and
    /// subdivision will throttle.
    ReconvDepthExceedsWst,
    /// Divergent-branch regions nest cyclically; the static stack bound is
    /// a conservative cap. Annotations from
    /// [`Cfg::analyze_branches`](crate::Cfg::analyze_branches) cannot raise
    /// it (two branches inside each other's open region post-dominate
    /// alike, so they share one re-convergence point); a foreign annotation
    /// table that re-converges them at different pcs can.
    IrreducibleNesting,
    /// A register is read but no definition reaches the read on any path.
    UseBeforeDef,
    /// A register is read but only some paths to the read define it.
    MaybeUseBeforeDef,
    /// A register write is never read afterwards.
    DeadWrite,
    /// A register index below `num_regs` is never referenced: the register
    /// file is allocated looser than the kernel needs.
    UnusedReg,
    /// A memory access is provably outside the kernel's buffer space.
    OobAccess,
    /// A memory access has a *bounded* address interval that straddles the
    /// end (or start) of the buffer space.
    OobAccessPossible,
    /// The address interval is unbounded; in-bounds could not be proven.
    UnprovenBounds,
    /// The declared buffer layout is inconsistent with the functional
    /// memory (overlapping regions or extent beyond the allocation).
    LayoutMismatch,
    /// A branch's subdividable marking disagrees with the recomputed
    /// Section 4.3 heuristic (post-dominator block length vs threshold).
    SubdivMarkMismatch,
    /// A barrier is reachable while a potentially-divergent branch has not
    /// re-converged: only a subset of live threads may arrive (deadlock
    /// risk, see the divergent-barrier golden test in `dws-sim`).
    BarrierUnderDivergence,
    /// A divergent diamond whose arms are similar enough that melding them
    /// into predicated straight-line code (`dws-cli opt --meld`) would
    /// save divergent issue slots. Advisory.
    MeldableRegion,
    /// A proper divergent diamond the melding analysis inspected and
    /// declined (illegal content, unpairable memory ops, or unprofitable
    /// arms). Advisory; the reason is in the message.
    MeldRejected,
}

impl DwsLintCode {
    /// The stable `DWSnnnn` code string used in rendered diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            DwsLintCode::EmptyProgram => "DWS0101",
            DwsLintCode::TargetOutOfRange => "DWS0102",
            DwsLintCode::FallthroughOffEnd => "DWS0103",
            DwsLintCode::BlockPartitionMismatch => "DWS0104",
            DwsLintCode::UnreachableCode => "DWS0105",
            DwsLintCode::IpdomMismatch => "DWS0201",
            DwsLintCode::BadBranchAnnotation => "DWS0202",
            DwsLintCode::ReconvDepthExceedsWst => "DWS0203",
            DwsLintCode::IrreducibleNesting => "DWS0204",
            DwsLintCode::UseBeforeDef => "DWS0301",
            DwsLintCode::MaybeUseBeforeDef => "DWS0302",
            DwsLintCode::DeadWrite => "DWS0303",
            DwsLintCode::UnusedReg => "DWS0304",
            DwsLintCode::OobAccess => "DWS0401",
            DwsLintCode::OobAccessPossible => "DWS0402",
            DwsLintCode::UnprovenBounds => "DWS0403",
            DwsLintCode::LayoutMismatch => "DWS0404",
            DwsLintCode::SubdivMarkMismatch => "DWS0501",
            DwsLintCode::BarrierUnderDivergence => "DWS0502",
            DwsLintCode::MeldableRegion => "DWS0601",
            DwsLintCode::MeldRejected => "DWS0602",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        use DwsLintCode::*;
        match self {
            EmptyProgram
            | TargetOutOfRange
            | FallthroughOffEnd
            | BlockPartitionMismatch
            | IpdomMismatch
            | BadBranchAnnotation
            | UseBeforeDef
            | OobAccess
            | LayoutMismatch
            | SubdivMarkMismatch => Severity::Error,
            UnreachableCode
            | ReconvDepthExceedsWst
            | IrreducibleNesting
            | MaybeUseBeforeDef
            | DeadWrite
            | UnusedReg
            | OobAccessPossible
            | BarrierUnderDivergence => Severity::Warning,
            UnprovenBounds | MeldableRegion | MeldRejected => Severity::Note,
        }
    }
}

impl fmt::Display for DwsLintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured finding, anchored to a PC and basic block where the
/// defect has a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: DwsLintCode,
    /// Reported severity (always `code.severity()` for verifier-raised
    /// diagnostics; kept explicit so external producers can downgrade).
    pub severity: Severity,
    /// Offending instruction, when the defect has one.
    pub pc: Option<usize>,
    /// Basic block containing `pc`, when known.
    pub block: Option<usize>,
    /// One-line description of the defect.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at `code`'s default severity.
    pub fn new(
        code: DwsLintCode,
        pc: Option<usize>,
        block: Option<usize>,
        message: String,
    ) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            pc,
            block,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(pc) = self.pc {
            write!(f, " (pc {pc}")?;
            if let Some(b) = self.block {
                write!(f, ", block {b}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Aggregate facts the verifier derives; kept on the built
/// [`Program`](crate::Program) for downstream cross-checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Basic blocks in the CFG.
    pub blocks: usize,
    /// Conditional branches.
    pub branches: usize,
    /// Branches whose operands are lane-varying (may diverge a warp).
    pub divergent_branches: usize,
    /// Branches provably warp-uniform (never diverge; a scheduler fast path
    /// could skip the re-convergence machinery for these).
    pub uniform_branches: usize,
    /// Branches marked subdividable under the Section 4.3 heuristic.
    pub subdividable_branches: usize,
    /// Longest chain of simultaneously-open *distinct* re-convergence
    /// points reachable by nested divergent branches (0 when no branch can
    /// diverge). Same-PC re-convergence frames merge in hardware (the
    /// core's `pc_merges`/`stack_merges`), so distinct PCs are what bound
    /// the stack.
    pub max_divergent_nesting: usize,
}

impl VerifyStats {
    /// Static bound on the per-warp re-convergence stack depth: the root
    /// frame plus one frame per simultaneously-open re-convergence point.
    pub fn reconv_stack_bound(&self) -> usize {
        self.max_divergent_nesting + 1
    }
}

/// Context the verifier cannot derive from the instruction stream alone.
///
/// [`Program::from_insts`](crate::Program::from_insts) verifies with the
/// defaults (no machine or workload context); the linter supplies the full
/// picture via [`crate::Program::lint`].
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Section 4.3 subdivision threshold the annotations were computed
    /// with (default [`SUBDIV_MAX_BLOCK`]).
    pub subdiv_threshold: usize,
    /// Warp-split-table capacity to check the static re-convergence-stack
    /// bound against, when known.
    pub wst_capacity: Option<usize>,
    /// Thread count of the launch, when known: pins `r0 = tid` to
    /// `[0, n-1]` and `r1 = ntid` to `[n, n]` for the bounds pass.
    pub nthreads: Option<u64>,
    /// Functional-memory size in bytes, when known: enables the
    /// out-of-bounds checks of the interval pass.
    pub mem_bytes: Option<u64>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            subdiv_threshold: SUBDIV_MAX_BLOCK,
            wst_capacity: None,
            nthreads: None,
            mem_bytes: None,
        }
    }
}

impl VerifyOptions {
    /// Sets the warp-split-table capacity.
    pub fn with_wst_capacity(mut self, cap: usize) -> Self {
        self.wst_capacity = Some(cap);
        self
    }

    /// Sets the launch thread count.
    pub fn with_nthreads(mut self, n: u64) -> Self {
        self.nthreads = Some(n);
        self
    }

    /// Sets the functional-memory size in bytes.
    pub fn with_mem_bytes(mut self, bytes: u64) -> Self {
        self.mem_bytes = Some(bytes);
        self
    }
}

/// Everything one verification run produced: the structured diagnostics,
/// derived statistics, and a rustc-style rendering (with the offending
/// instructions quoted) built while the instruction stream was in scope.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All findings, in pass order (deterministic).
    pub diagnostics: Vec<Diagnostic>,
    /// Derived aggregate facts (meaningful when no structural error).
    pub stats: VerifyStats,
    rendered: String,
}

impl VerifyReport {
    /// Whether any diagnostic is an error (the program must be rejected).
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The first diagnostic with the given code, if any (test helper and
    /// triage convenience).
    pub fn find(&self, code: DwsLintCode) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.code == code)
    }

    /// One-line `"E errors, W warnings, N notes"` summary.
    pub fn summary(&self) -> String {
        format!(
            "{} errors, {} warnings, {} notes",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        )
    }

    /// Appends an externally produced diagnostic (e.g. the simulator's
    /// configuration cross-checks), keeping the rendering in sync.
    pub fn push(&mut self, diag: Diagnostic) {
        self.rendered.push_str(&format!("{diag}\n"));
        self.diagnostics.push(diag);
    }

    /// The full rustc-style rendering.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }

    /// Appends a pass's finding, quoting the offending instruction in the
    /// rendering.
    pub(crate) fn record(&mut self, insts: &[Inst], diag: Diagnostic) {
        self.rendered.push_str(&format!(
            "{}[{}]: {}\n",
            diag.severity, diag.code, diag.message
        ));
        if let Some(pc) = diag.pc {
            if let Some(inst) = insts.get(pc) {
                match diag.block {
                    Some(b) => self
                        .rendered
                        .push_str(&format!("  --> pc {pc} (block {b}): {inst}\n")),
                    None => self.rendered.push_str(&format!("  --> pc {pc}: {inst}\n")),
                }
            }
        }
        self.diagnostics.push(diag);
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}
