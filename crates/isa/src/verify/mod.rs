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
//! Six analysis passes run over the instruction stream, all reading one
//! shared fact base ([`Facts`]: the CFG, block reachability, the
//! [`Uniformity`] classification, reaching definitions and liveness —
//! each derived once per run):
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
//!    values and loads vary; immediates and the thread count are uniform)
//!    *and* by control dependence (anything defined while a divergent
//!    branch is open varies); branches on varying operands are the
//!    potentially-divergent ones — the same classification the WPU
//!    scheduler runs on. The pass re-derives the Section 4.3 subdividable
//!    marking and flags barriers reachable under divergence (a deadlock
//!    risk: only a subset of live threads may arrive).
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

mod bounds;
mod defuse;
mod diag;
mod facts;
mod reconv;
mod structural;

pub use diag::{Diagnostic, DwsLintCode, Severity, VerifyOptions, VerifyReport, VerifyStats};
pub use facts::{branch_uniformity, BranchUniformity, DivergentRegion, Facts, Uniformity};

use crate::cfg::{BranchInfo, Cfg};
use crate::inst::Inst;

/// Per-pc branch annotations as produced by [`Cfg::analyze_branches`]:
/// `None` for non-branch instructions.
pub type Annotations = Vec<Option<BranchInfo>>;

/// What an error-free [`verify`] run derived besides its report, so
/// [`Program::from_insts`](crate::Program::from_insts) analyzes nothing
/// twice.
#[derive(Debug, Clone)]
pub struct Verified {
    /// Freshly computed [`BranchInfo`] annotations.
    pub annotations: Annotations,
    /// The scheduler's branch classification.
    pub uniformity: BranchUniformity,
}

/// Runs the annotated passes (everything after the structural gate) into
/// `report`.
fn run_annotated(
    facts: &Facts,
    annotations: &[Option<BranchInfo>],
    opts: &VerifyOptions,
    report: &mut VerifyReport,
) {
    report.stats.blocks = facts.cfg.blocks().len();
    structural::pass_partition(facts, report);
    reconv::pass_reconv(facts, annotations, opts, report);
    defuse::pass_defuse(facts, report);
    bounds::pass_bounds(facts, opts, report);
    crate::meld::pass_meld(facts, report);
}

/// Verifies a raw instruction stream: the structural pass first, then — if
/// the structure permits building a CFG at all — the full pipeline against
/// freshly computed annotations. Returns the report together with what the
/// run derived ([`Verified`]), or `None` for it when the structure was too
/// broken to build a CFG.
pub fn verify(insts: &[Inst], opts: &VerifyOptions) -> (VerifyReport, Option<Verified>) {
    let mut report = VerifyReport::default();
    structural::pass_structural(insts, &mut report);
    if report.has_errors() {
        return (report, None);
    }
    let cfg = Cfg::build(insts);
    let annotations = cfg.analyze_branches_with(insts, opts.subdiv_threshold);
    let facts = Facts::compute(insts, &cfg);
    run_annotated(&facts, &annotations, opts, &mut report);
    let uniformity = facts.uniformity.branches;
    let verified = Verified {
        annotations,
        uniformity,
    };
    (report, Some(verified))
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
    structural::pass_structural(insts, &mut report);
    if !report.has_errors() {
        run_annotated(&Facts::compute(insts, cfg), annotations, opts, &mut report);
    }
    report
}

#[cfg(test)]
mod tests;
