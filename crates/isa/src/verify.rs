//! Multi-pass static verification and lint framework for the kernel IR.
//!
//! DWS correctness hinges on static properties of the program: every
//! potentially-divergent branch must carry a valid immediate post-dominator
//! (the hardware re-convergence point), the re-convergence stack must be
//! statically bounded, and the paper's Section 4.3 subdivision-eligibility
//! marking must be consistent with the CFG. The paper instrumented these
//! properties by hand; this module *checks* them mechanically, so a
//! malformed kernel is rejected at [`Program`](crate::Program) build time
//! instead of surfacing as a runtime panic, a ShadowLane oracle mismatch,
//! or a watchdog abort deep inside a sweep.
//!
//! Five analysis passes run over the instruction stream:
//!
//! 1. **CFG well-formedness** (`DWS01xx`) — branch/jump targets in range, no
//!    fall-through off the end, block partition consistent with
//!    [`Cfg::build`], unreachable code.
//! 2. **Re-convergence verification** (`DWS02xx`) — immediate post-dominators
//!    are recomputed *independently* (set-based dataflow on the reverse CFG,
//!    a different algorithm from the Cooper–Harvey–Kennedy walk in
//!    [`crate::cfg`]) and diffed against the [`BranchInfo`] annotations; the
//!    static nesting depth of divergent branches bounds the re-convergence
//!    stack, checked against the warp-split-table capacity when known.
//! 3. **Def-use dataflow** (`DWS03xx`) — definite-assignment and
//!    reaching-definition analysis flags use-before-def (error when no
//!    definition reaches on *any* path, warning when only *some* paths
//!    define), dead register writes, and register-file tightness.
//! 4. **Static memory bounds** (`DWS04xx`) — interval analysis over the
//!    address arithmetic (with branch-condition narrowing and widening on
//!    loops) proves accesses inside the kernel's buffer layout where it can,
//!    reports proven violations as errors and unprovable accesses as notes.
//! 5. **Divergence / uniformity** (`DWS05xx`) — registers are classified as
//!    warp-uniform or lane-varying by operand provenance (thread-id–derived
//!    values and loads vary; immediates and the thread count are uniform);
//!    branches on varying operands are the potentially-divergent ones. The
//!    pass re-derives the Section 4.3 subdividable marking and flags
//!    barriers reachable under divergence (a deadlock risk: only a subset
//!    of live threads may arrive).
//! 6. **Melding advisory** (`DWS06xx`) — the [`crate::meld`] analysis
//!    inspects every proper divergent diamond and notes whether rewriting
//!    it into predicated straight-line code (`dws-cli opt --meld`) would
//!    save divergent issue slots, or why not.
//!
//! Diagnostics are structured ([`Diagnostic`]), collected rather than
//! fail-fast, and severity-gated: errors reject the program, warnings and
//! notes are reported by the linter (`dws-cli lint`). Rendering follows the
//! rustc style, quoting the offending instruction:
//!
//! ```text
//! error[DWS0301]: r5 is read at pc 2 but no definition reaches it
//!   --> pc 2 (block 0): r6 = Add(r5, 1)
//! ```

use crate::analysis::{
    fixpoint, inst_def, inst_uses, max_reg, solve, solve_flow, BlockFacts, FlowProblem, Liveness,
    ReachingDefs, RegSet,
};
use crate::cfg::{BranchInfo, Cfg, RECONV_NONE, SUBDIV_MAX_BLOCK};
use crate::inst::{AluOp, CondOp, Inst, Operand, Reg, UnOp};
use std::fmt;

/// Per-pc branch annotations as produced by [`Cfg::analyze_branches`]:
/// `None` for non-branch instructions.
pub type Annotations = Vec<Option<BranchInfo>>;

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
/// `DWS04xx` memory bounds, `DWS05xx` divergence/uniformity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DwsLintCode {
    /// The program has no instructions.
    EmptyProgram,
    /// A branch or jump target is outside the program.
    TargetOutOfRange,
    /// Control can fall off the end (last instruction is no terminator).
    FallthroughOffEnd,
    /// The independently recomputed basic-block partition disagrees with
    /// [`Cfg::build`] (an internal consistency failure).
    BlockPartitionMismatch,
    /// A basic block can never execute.
    UnreachableCode,
    /// A branch annotation's immediate post-dominator disagrees with the
    /// independently recomputed one.
    IpdomMismatch,
    /// A conditional branch lacks its [`BranchInfo`] annotation, a
    /// non-branch carries one, or the taken/fall-through fields are wrong.
    BadBranchAnnotation,
    /// The static re-convergence-stack bound exceeds the warp-split-table
    /// capacity: a fully nested warp cannot express all its splits and
    /// subdivision will throttle.
    ReconvDepthExceedsWst,
    /// Divergent-branch regions nest cyclically (irreducible control flow);
    /// the static stack bound is a conservative cap.
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

    fn record(&mut self, insts: &[Inst], diag: Diagnostic) {
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

// ---------------------------------------------------------------------------
// Pass 1: CFG well-formedness (structural prerequisites).
// ---------------------------------------------------------------------------

/// Structural checks that must hold before a CFG can even be built: a
/// non-empty program, every branch/jump target inside it, and a terminator
/// at the end (otherwise execution falls off the instruction stream).
fn pass_structural(insts: &[Inst], report: &mut VerifyReport) {
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

// ---------------------------------------------------------------------------
// Pass 1b: block partition consistency and reachability.
// ---------------------------------------------------------------------------

/// Recomputes the basic-block leaders independently of [`Cfg::build`] and
/// diffs the partition; then marks unreachable blocks. Returns the
/// per-block reachability map for the later passes.
fn pass_partition(insts: &[Inst], cfg: &Cfg, report: &mut VerifyReport) -> Vec<bool> {
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
    let reach = reachable_blocks(cfg);
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !reach[bi] {
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
    reach
}

// ---------------------------------------------------------------------------
// Pass 5 support: uniformity (which registers vary across the lanes of a
// warp). Needed before the re-convergence pass so the nesting bound only
// counts branches that can actually diverge.
// ---------------------------------------------------------------------------

/// Flow-insensitive provenance analysis: `r0` (the thread id) varies per
/// lane, loads are conservatively lane-varying (data-dependent), and
/// varying-ness propagates through every computation that consumes a
/// varying register. Everything else — immediates and `r1` (the thread
/// count) — is warp-uniform.
pub(crate) fn compute_varying(insts: &[Inst], num_regs: u16) -> Vec<bool> {
    let mut varying = vec![false; num_regs as usize];
    if !varying.is_empty() {
        varying[0] = true; // r0 = tid
    }
    let mut uses = Vec::new();
    fixpoint(|| {
        let mut changed = false;
        for inst in insts {
            let Some(dst) = inst_def(inst) else { continue };
            let v = if matches!(inst, Inst::Load { .. }) {
                true
            } else {
                inst_uses(inst, &mut uses);
                uses.iter().any(|r| varying[r.0 as usize])
            };
            if v && !varying[dst.0 as usize] {
                varying[dst.0 as usize] = true;
                changed = true;
            }
        }
        changed
    });
    varying
}

/// Per-PC branch uniformity classification consumed by the WPU scheduler
/// (see [`branch_uniformity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchUniformity {
    /// `uniform[pc]` — `insts[pc]` is a conditional branch whose condition
    /// is provably warp-uniform: lanes that share the same *uniform-spine
    /// position* always agree on its outcome, so one representative lane
    /// may decide for a whole group (subject to the scheduler's dynamic
    /// spine-sync tracking; see `spine`).
    pub uniform: Vec<bool>,
    /// `spine[pc]` — the branch is uniform *and* sits outside every
    /// divergent branch's open re-convergence region, i.e. on the
    /// uniform spine all lanes execute in lockstep order. The count of
    /// retired spine branches, together with the PC, identifies a lane's
    /// spine position: two group fragments that merge with equal counts
    /// provably agree on every non-varying register (all such registers
    /// are defined on the spine), while a mismatch (e.g. a memory-split
    /// run-ahead lapping a uniform loop before a PC merge) means uniform
    /// registers may differ per lane and the fast path must be disabled.
    pub spine: Vec<bool>,
}

/// Classifies every conditional branch as provably-uniform (and
/// spine-resident) or potentially divergent.
///
/// This must be sound against execution, so it strengthens
/// [`compute_varying`]'s operand-provenance rule with *control
/// dependence*: a register defined anywhere inside the open
/// re-convergence region of a divergent branch is lane-varying even when
/// its operands are uniform (lanes that took different paths — or
/// different trip counts — through that region hold different values at
/// the merge point). The two rules feed each other, so they iterate to a
/// joint fixpoint: newly-varying registers can make more branches
/// divergent, whose regions taint more definitions.
pub fn branch_uniformity(insts: &[Inst]) -> BranchUniformity {
    let num_regs = max_reg(insts);
    let mut varying = vec![false; num_regs as usize];
    if !varying.is_empty() {
        varying[0] = true; // r0 = tid
    }
    let cfg = Cfg::build(insts);
    let nb = cfg.blocks().len();
    // Blocks executable while `pc`'s re-convergence frame is open: flood
    // from both successors without crossing the immediate post-dominator
    // (same region the re-convergence pass uses for its stack bound).
    let region_of = |pc: usize| -> Vec<bool> {
        let cut = cfg.ipdom_of_block(cfg.block_of(pc)).unwrap_or(usize::MAX);
        let mut in_region = vec![false; nb];
        let mut stack = Vec::new();
        for &s in &cfg.blocks()[cfg.block_of(pc)].succs {
            if s != cut && !in_region[s] {
                in_region[s] = true;
                stack.push(s);
            }
        }
        while let Some(u) = stack.pop() {
            for &v in &cfg.blocks()[u].succs {
                if v != cut && !in_region[v] {
                    in_region[v] = true;
                    stack.push(v);
                }
            }
        }
        in_region
    };
    let mut uses = Vec::new();
    fixpoint(|| {
        let mut changed = false;
        // Data dependence: loads and varying operands taint definitions.
        for inst in insts {
            let Some(dst) = inst_def(inst) else { continue };
            let v = if matches!(inst, Inst::Load { .. }) {
                true
            } else {
                inst_uses(inst, &mut uses);
                uses.iter().any(|r| varying[r.0 as usize])
            };
            if v && !varying[dst.0 as usize] {
                varying[dst.0 as usize] = true;
                changed = true;
            }
        }
        // Control dependence: definitions inside a divergent branch's
        // open region taint their destination.
        for (pc, inst) in insts.iter().enumerate() {
            if !matches!(inst, Inst::Branch { .. }) {
                continue;
            }
            inst_uses(inst, &mut uses);
            if !uses.iter().any(|r| varying[r.0 as usize]) {
                continue;
            }
            let region = region_of(pc);
            for (b, blk) in cfg.blocks().iter().enumerate() {
                if !region[b] {
                    continue;
                }
                for binst in &insts[blk.start..blk.start + blk.len()] {
                    if let Some(dst) = inst_def(binst) {
                        if !varying[dst.0 as usize] {
                            varying[dst.0 as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        changed
    });
    let uniform: Vec<bool> = insts
        .iter()
        .map(|inst| {
            if !matches!(inst, Inst::Branch { .. }) {
                return false;
            }
            inst_uses(inst, &mut uses);
            !uses
                .iter()
                .any(|r| varying.get(r.0 as usize).copied().unwrap_or(true))
        })
        .collect();
    // Union of every divergent branch's region: a uniform branch inside
    // one executes under a divergent mask and must not advance the spine
    // counter (only one path's lanes would count it).
    let mut divergent_region = vec![false; nb];
    for (pc, &u) in uniform.iter().enumerate() {
        if !matches!(insts[pc], Inst::Branch { .. }) || u {
            continue;
        }
        for (d, r) in divergent_region.iter_mut().zip(region_of(pc)) {
            *d |= r;
        }
    }
    let spine: Vec<bool> = uniform
        .iter()
        .enumerate()
        .map(|(pc, &u)| u && !divergent_region[cfg.block_of(pc)])
        .collect();
    BranchUniformity { uniform, spine }
}

// ---------------------------------------------------------------------------
// Pass 2: re-convergence verification.
// ---------------------------------------------------------------------------

/// Recomputes each block's immediate post-dominator with a set-based
/// greatest-fixpoint dataflow — deliberately a *different* algorithm from
/// the Cooper–Harvey–Kennedy walk in [`crate::cfg`], so the two implementations
/// cross-check each other.
///
/// `pdom(b) = {b} ∪ ⋂_{s ∈ succs(b)} pdom(s)` over the CFG extended with a
/// virtual exit that every `Halt` block feeds. Strict post-dominators of a
/// block are totally ordered by set inclusion, so the immediate one is the
/// strict post-dominator with the *largest* set. Blocks that cannot reach
/// the exit (infinite loops) have no post-dominator (`None`), matching the
/// CHK convention of only walking nodes that reach the exit.
fn recompute_ipdom_blocks(cfg: &Cfg) -> Vec<Option<usize>> {
    let blocks = cfg.blocks();
    let n = blocks.len();
    let exit = n;
    let words = (n + 1).div_ceil(64);
    let set = |bits: &mut [u64], i: usize| bits[i / 64] |= 1 << (i % 64);
    let has = |bits: &[u64], i: usize| bits[i / 64] >> (i % 64) & 1 == 1;
    let succs: Vec<Vec<usize>> = blocks
        .iter()
        .map(|b| {
            if b.succs.is_empty() {
                vec![exit]
            } else {
                b.succs.clone()
            }
        })
        .collect();
    let mut pdom: Vec<Vec<u64>> = vec![vec![!0u64; words]; n + 1];
    pdom[exit] = vec![0u64; words];
    set(&mut pdom[exit], exit);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut new = vec![!0u64; words];
            for &s in &succs[b] {
                for (w, x) in new.iter_mut().zip(&pdom[s]) {
                    *w &= x;
                }
            }
            set(&mut new, b);
            if new != pdom[b] {
                pdom[b] = new;
                changed = true;
            }
        }
    }
    // Blocks that cannot reach the exit keep their (meaningless) full sets;
    // find them by reverse reachability from the exit.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (u, ss) in succs.iter().enumerate() {
        for &v in ss {
            preds[v].push(u);
        }
    }
    let mut reaches_exit = vec![false; n + 1];
    reaches_exit[exit] = true;
    let mut stack = vec![exit];
    while let Some(v) = stack.pop() {
        for &p in &preds[v] {
            if !reaches_exit[p] {
                reaches_exit[p] = true;
                stack.push(p);
            }
        }
    }
    let size = |c: usize| -> usize { pdom[c].iter().map(|w| w.count_ones() as usize).sum() };
    (0..n)
        .map(|b| {
            if !reaches_exit[b] {
                return None;
            }
            let mut best: Option<(usize, usize)> = None; // (set size, node)
            for c in (0..=n).filter(|&c| c != b && has(&pdom[b], c)) {
                let sz = size(c);
                if best.is_none_or(|(bs, _)| sz > bs) {
                    best = Some((sz, c));
                }
            }
            match best {
                Some((_, c)) if c != exit => Some(c),
                _ => None,
            }
        })
        .collect()
}

/// Renders a re-convergence pc, mapping [`RECONV_NONE`] to prose.
fn fmt_reconv(pc: usize) -> String {
    if pc == RECONV_NONE {
        "none (paths meet only at halt)".into()
    } else {
        format!("@{pc}")
    }
}

/// Diffs the [`BranchInfo`] annotations against the independently
/// recomputed post-dominators, re-derives the Section 4.3 subdividable
/// marking, bounds the re-convergence stack by the nesting of divergent
/// branches, and flags barriers inside divergent regions.
fn pass_reconv(
    insts: &[Inst],
    cfg: &Cfg,
    annotations: &[Option<BranchInfo>],
    varying: &[bool],
    opts: &VerifyOptions,
    report: &mut VerifyReport,
    stats: &mut VerifyStats,
) {
    let recomputed = recompute_ipdom_blocks(cfg);
    let mut uses = Vec::new();
    let mut divergent: Vec<(usize, usize)> = Vec::new(); // (branch pc, reconv pc)
    for (pc, inst) in insts.iter().enumerate() {
        let ann = annotations.get(pc).copied().flatten();
        let Inst::Branch { target, .. } = *inst else {
            if ann.is_some() {
                report.record(
                    insts,
                    Diagnostic::new(
                        DwsLintCode::BadBranchAnnotation,
                        Some(pc),
                        Some(cfg.block_of(pc)),
                        "non-branch instruction carries a BranchInfo annotation".into(),
                    ),
                );
            }
            continue;
        };
        stats.branches += 1;
        let b = cfg.block_of(pc);
        let Some(ann) = ann else {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::BadBranchAnnotation,
                    Some(pc),
                    Some(b),
                    "conditional branch has no BranchInfo annotation".into(),
                ),
            );
            continue;
        };
        if ann.taken != target || ann.fallthrough != pc + 1 {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::BadBranchAnnotation,
                    Some(pc),
                    Some(b),
                    format!(
                        "annotation records taken @{} / fall-through @{} but the \
                         instruction implies @{target} / @{}",
                        ann.taken,
                        ann.fallthrough,
                        pc + 1
                    ),
                ),
            );
        }
        let expected = match recomputed[b] {
            Some(pb) => cfg.blocks()[pb].start,
            None => RECONV_NONE,
        };
        if ann.ipdom != expected {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::IpdomMismatch,
                    Some(pc),
                    Some(b),
                    format!(
                        "annotated re-convergence {} but the recomputed immediate \
                         post-dominator is {}",
                        fmt_reconv(ann.ipdom),
                        fmt_reconv(expected)
                    ),
                ),
            );
        }
        let expect_subdiv = match recomputed[b] {
            Some(pb) => cfg.blocks()[pb].len() <= opts.subdiv_threshold,
            None => false,
        };
        if ann.subdividable != expect_subdiv {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::SubdivMarkMismatch,
                    Some(pc),
                    Some(b),
                    format!(
                        "branch is marked {} but the Section 4.3 heuristic \
                         (post-dominator block length vs threshold {}) says {}",
                        if ann.subdividable {
                            "subdividable"
                        } else {
                            "non-subdividable"
                        },
                        opts.subdiv_threshold,
                        if expect_subdiv {
                            "subdividable"
                        } else {
                            "non-subdividable"
                        }
                    ),
                ),
            );
        }
        if ann.subdividable {
            stats.subdividable_branches += 1;
        }
        inst_uses(inst, &mut uses);
        if uses
            .iter()
            .any(|r| varying.get(r.0 as usize).copied().unwrap_or(true))
        {
            stats.divergent_branches += 1;
            divergent.push((pc, ann.ipdom));
        } else {
            stats.uniform_branches += 1;
        }
    }

    // Region of a divergent branch: blocks executable while its
    // re-convergence frame is open (reachable from either successor without
    // crossing the re-convergence block).
    let nb = cfg.blocks().len();
    let region_of = |pc: usize, reconv: usize| -> Vec<bool> {
        let cut = if reconv == RECONV_NONE {
            usize::MAX
        } else {
            cfg.block_of(reconv)
        };
        let mut in_region = vec![false; nb];
        let mut stack = Vec::new();
        for &s in &cfg.blocks()[cfg.block_of(pc)].succs {
            if s != cut && !in_region[s] {
                in_region[s] = true;
                stack.push(s);
            }
        }
        while let Some(u) = stack.pop() {
            for &v in &cfg.blocks()[u].succs {
                if v != cut && !in_region[v] {
                    in_region[v] = true;
                    stack.push(v);
                }
            }
        }
        in_region
    };

    // Same-pc re-convergence frames merge in hardware (the core's pc_merges
    // path), so the stack bound is over *distinct* re-convergence pcs:
    // group divergent branches by reconv pc, union their regions, and take
    // the longest containment chain.
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for &(pc, reconv) in &divergent {
        groups.entry(reconv).or_default().push(pc);
    }
    let group_pcs: Vec<&Vec<usize>> = groups.values().collect();
    let k = groups.len();
    let mut gregion: Vec<Vec<bool>> = Vec::with_capacity(k);
    for (&reconv, pcs) in &groups {
        let mut r = vec![false; nb];
        for &pc in pcs {
            for (ri, v) in r.iter_mut().zip(region_of(pc, reconv)) {
                *ri |= v;
            }
        }
        gregion.push(r);
    }
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); k];
    for gi in 0..k {
        for (hi, pcs) in group_pcs.iter().enumerate() {
            if hi != gi && pcs.iter().any(|&pc| gregion[gi][cfg.block_of(pc)]) {
                edges[gi].push(hi);
            }
        }
    }
    // Longest chain of nested re-convergence points (node count); a cycle
    // means irreducible nesting and we cap at the group count.
    let mut depth = vec![0usize; k];
    let mut state = vec![0u8; k]; // 0 unvisited, 1 on stack, 2 done
    let mut cyclic = false;
    for start in 0..k {
        if state[start] != 0 {
            continue;
        }
        state[start] = 1;
        let mut stack = vec![(start, 0usize)];
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i < edges[u].len() {
                let v = edges[u][*i];
                *i += 1;
                match state[v] {
                    0 => {
                        state[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => cyclic = true,
                    _ => {}
                }
            } else {
                depth[u] = 1 + edges[u].iter().map(|&v| depth[v]).max().unwrap_or(0);
                state[u] = 2;
                stack.pop();
            }
        }
    }
    stats.max_divergent_nesting = if cyclic {
        k
    } else {
        depth.iter().copied().max().unwrap_or(0)
    };
    if cyclic {
        report.record(
            insts,
            Diagnostic::new(
                DwsLintCode::IrreducibleNesting,
                None,
                None,
                format!(
                    "divergent-branch regions nest cyclically; static stack bound \
                     capped at {k} distinct re-convergence points"
                ),
            ),
        );
    }
    if let Some(cap) = opts.wst_capacity {
        let bound = stats.reconv_stack_bound();
        if bound > cap {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::ReconvDepthExceedsWst,
                    None,
                    None,
                    format!(
                        "static re-convergence stack bound {bound} (nesting {} + root) \
                         exceeds the warp-split table capacity {cap}",
                        stats.max_divergent_nesting
                    ),
                ),
            );
        }
    }
    for (pc, inst) in insts.iter().enumerate() {
        if !matches!(inst, Inst::Barrier) {
            continue;
        }
        let bb = cfg.block_of(pc);
        if let Some(gi) = (0..k).find(|&gi| gregion[gi][bb]) {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::BarrierUnderDivergence,
                    Some(pc),
                    Some(bb),
                    format!(
                        "barrier is reachable while the divergent branch at pc {} has \
                         not re-converged; only a subset of live threads may arrive",
                        group_pcs[gi][0]
                    ),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 3: def-use dataflow.
// ---------------------------------------------------------------------------

/// Definite-assignment ("must" reach), maybe-assignment ("may" reach),
/// liveness for dead writes, and register-file tightness — expressed as
/// instances of the [`crate::analysis`] framework ([`ReachingDefs`],
/// [`Liveness`]) with the diagnostic walks on top.
///
/// A read of a register with no reaching definition on *any* path is a
/// hard error (the lanes would consume whatever the register file was
/// reset to); a read where only *some* paths define is a warning. Entry
/// state is `{r0, r1}`, the preloaded thread id and thread count.
///
/// The retained legacy fixpoint ([`defuse_diagnostics_reference`]) is the
/// differential oracle: both implementations must emit identical
/// diagnostics (pinned on every benchmark kernel and 200 generated seeds
/// by `tests/dataflow_differential.rs`).
fn pass_defuse(
    insts: &[Inst],
    cfg: &Cfg,
    reach: &[bool],
    num_regs: u16,
    report: &mut VerifyReport,
) {
    let nr = num_regs as usize;
    let must: BlockFacts<RegSet> = solve(cfg, &ReachingDefs::must(insts, cfg, num_regs));
    let may: BlockFacts<RegSet> = solve(cfg, &ReachingDefs::may(insts, cfg, num_regs));
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
    // Backward liveness for dead writes: `on_entry` of a backward problem
    // is the block's live-out set.
    let live: BlockFacts<RegSet> = solve(cfg, &Liveness::new(insts, cfg, num_regs));
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
    let mut referenced = RegSet::empty(nr);
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

/// The pre-framework hand-written fixpoint implementation of pass 3, kept
/// verbatim as the differential oracle for [`pass_defuse`].
fn defuse_reference(
    insts: &[Inst],
    cfg: &Cfg,
    reach: &[bool],
    num_regs: u16,
    report: &mut VerifyReport,
) {
    let nr = num_regs as usize;
    let nb = cfg.blocks().len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (bi, b) in cfg.blocks().iter().enumerate() {
        for &s in &b.succs {
            preds[s].push(bi);
        }
    }
    let mut entry = RegSet::empty(nr);
    entry.set(0);
    if num_regs > 1 {
        entry.set(1);
    }
    let mut defs: Vec<RegSet> = vec![RegSet::empty(nr); nb];
    for (bi, b) in cfg.blocks().iter().enumerate() {
        for inst in &insts[b.start..b.end] {
            if let Some(r) = inst_def(inst) {
                defs[bi].set(r.0);
            }
        }
    }
    // Forward fixpoints. `must` starts ⊤ so unreachable/unvisited preds are
    // neutral under intersection; `may` starts ∅.
    let mut must_out: Vec<RegSet> = vec![RegSet::full(nr); nb];
    let mut may_out: Vec<RegSet> = vec![RegSet::empty(nr); nb];
    let mut must_in: Vec<RegSet> = vec![RegSet::full(nr); nb];
    let mut may_in: Vec<RegSet> = vec![RegSet::empty(nr); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nb {
            let mut m_in = if bi == 0 {
                entry.clone()
            } else {
                let mut s = RegSet::full(nr);
                for &p in &preds[bi] {
                    s.intersect_with(&must_out[p]);
                }
                s
            };
            let mut y_in = if bi == 0 {
                entry.clone()
            } else {
                let mut s = RegSet::empty(nr);
                for &p in &preds[bi] {
                    s.union_with(&may_out[p]);
                }
                s
            };
            must_in[bi] = m_in.clone();
            may_in[bi] = y_in.clone();
            m_in.union_with(&defs[bi]);
            y_in.union_with(&defs[bi]);
            if m_in != must_out[bi] {
                must_out[bi] = m_in;
                changed = true;
            }
            if y_in != may_out[bi] {
                may_out[bi] = y_in;
                changed = true;
            }
        }
    }
    // Walk each reachable block flagging reads of unassigned registers.
    let mut uses = Vec::new();
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        let mut must = must_in[bi].clone();
        let mut may = may_in[bi].clone();
        for pc in b.start..b.end {
            inst_uses(&insts[pc], &mut uses);
            for &r in &uses {
                if must.has(r.0) {
                    continue;
                }
                if may.has(r.0) {
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
                must.set(r.0);
                may.set(r.0);
            }
        }
    }
    // Backward liveness for dead writes.
    let mut gen_set: Vec<RegSet> = vec![RegSet::empty(nr); nb];
    for (bi, b) in cfg.blocks().iter().enumerate() {
        let mut defined = RegSet::empty(nr);
        for inst in &insts[b.start..b.end] {
            inst_uses(inst, &mut uses);
            for &r in &uses {
                if !defined.has(r.0) {
                    gen_set[bi].set(r.0);
                }
            }
            if let Some(r) = inst_def(inst) {
                defined.set(r.0);
            }
        }
    }
    let mut live_in: Vec<RegSet> = vec![RegSet::empty(nr); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for (bi, b) in cfg.blocks().iter().enumerate().rev() {
            let mut out = RegSet::empty(nr);
            for &s in &b.succs {
                out.union_with(&live_in[s]);
            }
            // live_in = gen_set ∪ (out ∖ defs)
            let mut inn = out;
            for r in 0..num_regs {
                if defs[bi].has(r) && !gen_set[bi].has(r) {
                    inn.clear(r);
                }
            }
            inn.union_with(&gen_set[bi]);
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
        }
    }
    for (bi, b) in cfg.blocks().iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        let mut live = RegSet::empty(nr);
        for &s in &b.succs {
            live.union_with(&live_in[s]);
        }
        for pc in (b.start..b.end).rev() {
            if let Some(r) = inst_def(&insts[pc]) {
                if !live.has(r.0) {
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
                live.clear(r.0);
            }
            inst_uses(&insts[pc], &mut uses);
            for &r in &uses {
                live.set(r.0);
            }
        }
    }
    // Register-file tightness: allocated indices that are never referenced.
    let mut referenced = RegSet::empty(nr);
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

/// Block reachability from the entry (shared by the partition pass and the
/// differential wrappers).
fn reachable_blocks(cfg: &Cfg) -> Vec<bool> {
    let nb = cfg.blocks().len();
    let mut reach = vec![false; nb];
    if nb == 0 {
        return reach;
    }
    reach[0] = true;
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        for &s in &cfg.blocks()[b].succs {
            if !reach[s] {
                reach[s] = true;
                stack.push(s);
            }
        }
    }
    reach
}

/// Pass-3 diagnostics of the framework-based implementation, for a raw
/// (structurally valid) instruction stream. Differential-test entry point.
#[doc(hidden)]
pub fn defuse_diagnostics(insts: &[Inst]) -> Vec<Diagnostic> {
    let cfg = Cfg::build(insts);
    let reach = reachable_blocks(&cfg);
    let mut report = VerifyReport::default();
    pass_defuse(insts, &cfg, &reach, max_reg(insts), &mut report);
    report.diagnostics
}

/// Pass-3 diagnostics of the retained legacy fixpoint implementation.
/// Differential-test entry point.
#[doc(hidden)]
pub fn defuse_diagnostics_reference(insts: &[Inst]) -> Vec<Diagnostic> {
    let cfg = Cfg::build(insts);
    let reach = reachable_blocks(&cfg);
    let mut report = VerifyReport::default();
    defuse_reference(insts, &cfg, &reach, max_reg(insts), &mut report);
    report.diagnostics
}

// ---------------------------------------------------------------------------
// Pass 4: static memory bounds (interval analysis).
// ---------------------------------------------------------------------------

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
struct Itv {
    lo: i128,
    hi: i128,
}

impl Itv {
    const TOP: Itv = Itv {
        lo: INF_NEG,
        hi: INF_POS,
    };
    fn exact(v: i128) -> Itv {
        Itv { lo: v, hi: v }
    }
    fn new(lo: i128, hi: i128) -> Itv {
        Itv {
            lo: lo.clamp(INF_NEG, INF_POS),
            hi: hi.clamp(INF_NEG, INF_POS),
        }
    }
    fn is_empty(self) -> bool {
        self.lo > self.hi
    }
    fn join(self, o: Itv) -> Itv {
        Itv {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
    fn meet(self, o: Itv) -> Itv {
        Itv {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
        }
    }
    fn add(self, o: Itv) -> Itv {
        Itv::new(self.lo + o.lo, self.hi + o.hi)
    }
    fn sub(self, o: Itv) -> Itv {
        Itv::new(self.lo - o.hi, self.hi - o.lo)
    }
    fn neg(self) -> Itv {
        Itv::new(-self.hi, -self.lo)
    }
    fn mul(self, o: Itv) -> Itv {
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
    fn is_bounded(self) -> bool {
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
enum SymExpr {
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
fn write_once_imm_consts(insts: &[Inst], num_regs: u16) -> Vec<Option<i128>> {
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
fn dfloor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// `ceil(a / b)` for any nonzero `b`.
fn dceil(a: i128, b: i128) -> i128 {
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
fn fact_backward(f: SymExpr, dst: Itv, src_cur: Itv) -> Itv {
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
fn pass_bounds(
    insts: &[Inst],
    cfg: &Cfg,
    num_regs: u16,
    opts: &VerifyOptions,
    report: &mut VerifyReport,
) {
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
    let mut loop_head = vec![false; nb];
    {
        let (white, grey, black) = (0u8, 1u8, 2u8);
        let mut color = vec![white; nb];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = grey;
        while let Some(top) = stack.last_mut() {
            let (u, ei) = *top;
            if ei < cfg.blocks()[u].succs.len() {
                top.1 += 1;
                let v = cfg.blocks()[u].succs[ei];
                if color[v] == white {
                    color[v] = grey;
                    stack.push((v, 0));
                } else if color[v] == grey {
                    loop_head[v] = true;
                }
            } else {
                color[u] = black;
                stack.pop();
            }
        }
    }
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

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Runs the annotated passes (everything after the structural gate) into
/// `report`.
fn run_annotated(
    insts: &[Inst],
    cfg: &Cfg,
    annotations: &[Option<BranchInfo>],
    opts: &VerifyOptions,
    report: &mut VerifyReport,
) {
    let num_regs = max_reg(insts);
    report.stats.blocks = cfg.blocks().len();
    let reach = pass_partition(insts, cfg, report);
    let varying = compute_varying(insts, num_regs);
    let mut stats = report.stats;
    pass_reconv(insts, cfg, annotations, &varying, opts, report, &mut stats);
    report.stats = stats;
    pass_defuse(insts, cfg, &reach, num_regs, report);
    pass_bounds(insts, cfg, num_regs, opts, report);
    pass_meld(insts, cfg, &varying, report);
}

// ---------------------------------------------------------------------------
// Pass 6: control-flow melding advisory (DWS06xx).
// ---------------------------------------------------------------------------

/// Advisory pass: runs the meldable-region analysis ([`crate::meld`]) over
/// every proper divergent diamond and reports each verdict as a note —
/// `DWS0601` for regions `dws-cli opt --meld` would rewrite, `DWS0602` for
/// diamonds it inspected and declined (with the reason).
fn pass_meld(insts: &[Inst], cfg: &Cfg, varying: &[bool], report: &mut VerifyReport) {
    for cand in crate::meld::find_candidates(insts, cfg, varying) {
        let diag = match &cand.verdict {
            crate::meld::MeldVerdict::Meldable {
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
            crate::meld::MeldVerdict::Rejected { reason } => Diagnostic::new(
                DwsLintCode::MeldRejected,
                Some(cand.branch_pc),
                Some(cand.block),
                format!(
                    "divergent diamond at pc {} (join at pc {}) not melded: {reason}",
                    cand.branch_pc, cand.join_pc
                ),
            ),
        };
        report.record(insts, diag);
    }
}

/// Verifies a raw instruction stream: the structural pass first, then — if
/// the structure permits building a CFG at all — the full pipeline against
/// freshly computed annotations. Returns the report together with the CFG
/// and [`BranchInfo`] annotations (so [`Program::from_insts`]
/// (crate::Program::from_insts) does not analyze twice), or `None` for them
/// when the structure was too broken to build a CFG.
pub fn verify(insts: &[Inst], opts: &VerifyOptions) -> (VerifyReport, Option<(Cfg, Annotations)>) {
    let mut report = VerifyReport::default();
    pass_structural(insts, &mut report);
    if report.has_errors() {
        return (report, None);
    }
    let cfg = Cfg::build(insts);
    let annotations = cfg.analyze_branches_with(insts, opts.subdiv_threshold);
    run_annotated(insts, &cfg, &annotations, opts, &mut report);
    (report, Some((cfg, annotations)))
}

/// Verifies an already-annotated program: the linter path, where a
/// [`Program`](crate::Program) exists and its `BranchInfo` annotations are
/// themselves on trial.
pub fn verify_annotated(
    insts: &[Inst],
    cfg: &Cfg,
    annotations: &[Option<BranchInfo>],
    opts: &VerifyOptions,
) -> VerifyReport {
    let mut report = VerifyReport::default();
    pass_structural(insts, &mut report);
    if !report.has_errors() {
        run_annotated(insts, cfg, annotations, opts, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
