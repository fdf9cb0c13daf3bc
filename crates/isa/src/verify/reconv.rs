//! Pass 2 (`DWS02xx`) and the divergence checks of pass 5 (`DWS05xx`):
//! the [`BranchInfo`] annotations against an independent post-dominator
//! recomputation, the Section 4.3 subdividable marking, the static
//! re-convergence-stack bound, and barriers under divergence.

use super::{Diagnostic, DwsLintCode, Facts, VerifyOptions, VerifyReport};
use crate::analysis::{solve, BlockProblem, Direction};
use crate::cfg::{BranchInfo, Cfg, RECONV_NONE};
use crate::inst::Inst;
use std::collections::BTreeMap;

/// Post-dominator *sets* as a backward [`BlockProblem`] over block
/// bitsets: `pdom(b) = {b} ∪ ⋂_{s ∈ succs(b)} pdom(s)`, with `pdom = {b}`
/// at the exit blocks. One bit past the last block is a "never reaches an
/// exit" mark: it is in the optimistic start value and in no exit block's
/// set, so the intersection drops it exactly along the paths that
/// terminate, and a block inside an infinite loop keeps it.
struct PostDomSets {
    /// Block count; bit `nb` is the no-exit mark.
    nb: usize,
}

impl BlockProblem for PostDomSets {
    type Fact = Vec<u64>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> Vec<u64> {
        vec![0; (self.nb + 1).div_ceil(64)]
    }

    fn top(&self) -> Vec<u64> {
        vec![!0; (self.nb + 1).div_ceil(64)]
    }

    fn meet(&self, acc: &mut Vec<u64>, other: &Vec<u64>) {
        for (w, x) in acc.iter_mut().zip(other) {
            *w &= x;
        }
    }

    fn transfer(&self, b: usize, fact: &mut Vec<u64>) {
        fact[b / 64] |= 1 << (b % 64);
    }
}

/// Recomputes each block's immediate post-dominator from post-dominator
/// sets — deliberately a *different* algorithm from the
/// Cooper–Harvey–Kennedy walk in [`crate::cfg`], so the two
/// implementations cross-check each other.
///
/// Strict post-dominators of a block are totally ordered by set inclusion,
/// so the immediate one is the strict post-dominator with the *largest*
/// set. A block with none re-converges only at the virtual exit, and a
/// block that cannot reach an exit (infinite loop) has no post-dominator
/// at all; both are `None`, matching the CHK convention of only walking
/// nodes that reach the exit.
pub(super) fn recompute_ipdom_blocks(cfg: &Cfg) -> Vec<Option<usize>> {
    let nb = cfg.blocks().len();
    let pdom = solve(cfg, &PostDomSets { nb }).on_exit;
    let has = |bits: &[u64], i: usize| bits[i / 64] >> (i % 64) & 1 == 1;
    let size = |c: usize| -> u32 { pdom[c].iter().map(|w| w.count_ones()).sum() };
    (0..nb)
        .map(|b| {
            if has(&pdom[b], nb) {
                return None;
            }
            (0..nb)
                .filter(|&c| c != b && has(&pdom[b], c))
                .max_by_key(|&c| size(c))
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
/// marking, bounds the re-convergence stack by the nesting of the divergent
/// regions in `facts`, and flags barriers inside them.
pub(super) fn pass_reconv(
    facts: &Facts,
    annotations: &[Option<BranchInfo>],
    opts: &VerifyOptions,
    report: &mut VerifyReport,
) {
    let (insts, cfg) = (facts.insts, facts.cfg);
    let uniformity = &facts.uniformity;
    let recomputed = recompute_ipdom_blocks(cfg);
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
        report.stats.branches += 1;
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
            report.stats.subdividable_branches += 1;
        }
    }
    report.stats.divergent_branches = uniformity.regions.len();
    report.stats.uniform_branches = uniformity.branches.uniform.iter().filter(|u| **u).count();

    // Same-pc re-convergence frames merge in hardware (the core's pc_merges
    // path), so the stack bound is over *distinct* re-convergence pcs:
    // group divergent branches by reconv pc, union their regions, and take
    // the longest containment chain. The reconv pc is the annotation's —
    // what the hardware will push; the regions are the CFG's own.
    let mut groups: BTreeMap<usize, (Vec<usize>, Vec<bool>)> = BTreeMap::new();
    for region in &uniformity.regions {
        let Some(ann) = annotations.get(region.branch_pc).copied().flatten() else {
            continue; // reported above: no reconv pc to group under
        };
        let (pcs, union) = groups
            .entry(ann.ipdom)
            .or_insert_with(|| (Vec::new(), vec![false; cfg.blocks().len()]));
        pcs.push(region.branch_pc);
        for (u, &r) in union.iter_mut().zip(&region.blocks) {
            *u |= r;
        }
    }
    let (group_pcs, gregion): (Vec<Vec<usize>>, Vec<Vec<bool>>) = groups.into_values().unzip();
    let k = group_pcs.len();
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
    let nesting = if cyclic {
        k
    } else {
        depth.iter().copied().max().unwrap_or(0)
    };
    report.stats.max_divergent_nesting = nesting;
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
        let bound = report.stats.reconv_stack_bound();
        if bound > cap {
            report.record(
                insts,
                Diagnostic::new(
                    DwsLintCode::ReconvDepthExceedsWst,
                    None,
                    None,
                    format!(
                        "static re-convergence stack bound {bound} (nesting {nesting} + root) \
                         exceeds the warp-split table capacity {cap}"
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
