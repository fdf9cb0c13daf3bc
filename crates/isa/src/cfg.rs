//! Control-flow analysis: basic blocks, post-dominators, and the paper's
//! static subdivision heuristic.
//!
//! The paper relies on every conditional branch being annotated with its
//! *immediate post-dominator* — the PC where diverged paths re-converge —
//! and on a static marking of which branches are allowed to subdivide a warp
//! (Section 4.3: only branches whose post-dominator is followed by a basic
//! block of no more than [`SUBDIV_MAX_BLOCK`] instructions). The authors
//! instrumented their benchmarks by hand; here both properties are computed
//! automatically from the IR.

use crate::inst::Inst;

/// Sentinel post-dominator meaning "paths only meet at thread termination".
pub const RECONV_NONE: usize = usize::MAX;

/// The paper's subdivision heuristic threshold (Section 4.3): a branch may
/// subdivide a warp only if the basic block at its post-dominator is at most
/// this many instructions long (roughly the work of one L1 miss).
pub const SUBDIV_MAX_BLOCK: usize = 50;

/// Static metadata attached to every conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// PC of the immediate post-dominator (re-convergence point), or
    /// [`RECONV_NONE`] when the paths only meet at `Halt`.
    pub ipdom: usize,
    /// Whether dynamic warp subdivision is permitted at this branch.
    pub subdividable: bool,
    /// PC of the taken path.
    pub taken: usize,
    /// PC of the fall-through path.
    pub fallthrough: usize,
}

/// A basic block: instruction range `[start, end)` plus successor blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block is empty (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A control-flow graph over the instruction list.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<Block>,
    /// Block index of each instruction.
    block_of: Vec<usize>,
    /// Immediate post-dominator of each block (block index), or `None` for
    /// the virtual exit.
    ipdom_block: Vec<Option<usize>>,
    /// Predecessor blocks of each block, one entry per incoming edge.
    preds: Vec<Vec<usize>>,
}

impl Cfg {
    /// Builds the CFG and post-dominator tree for an instruction list.
    pub fn build(insts: &[Inst]) -> Cfg {
        let n = insts.len();
        // Leaders: entry, every branch/jump target, every fall-through point
        // after a branch/jump/halt.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, inst) in insts.iter().enumerate() {
            match *inst {
                Inst::Branch { target, .. } => {
                    leader[target] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Inst::Jump { target } => {
                    leader[target] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Inst::Halt if pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (pc, &is_leader) in leader.iter().enumerate() {
            if pc > start && is_leader {
                blocks.push(Block {
                    start,
                    end: pc,
                    succs: Vec::new(),
                });
                start = pc;
            }
        }
        blocks.push(Block {
            start,
            end: n,
            succs: Vec::new(),
        });
        for (bi, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(bi);
        }
        // Successors.
        let first_block_at = |pc: usize| block_of[pc];
        for b in &mut blocks {
            let last = b.end - 1;
            let succs: Vec<usize> = match insts[last] {
                Inst::Branch { target, .. } => {
                    let mut s = vec![first_block_at(target)];
                    if last + 1 < n {
                        s.push(first_block_at(last + 1));
                    }
                    s
                }
                Inst::Jump { target } => vec![first_block_at(target)],
                Inst::Halt => vec![],
                _ => {
                    if last + 1 < n {
                        vec![first_block_at(last + 1)]
                    } else {
                        vec![]
                    }
                }
            };
            b.succs = succs;
        }
        let ipdom_block = post_dominators(&blocks);
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); blocks.len()];
        for (bi, b) in blocks.iter().enumerate() {
            for &s in &b.succs {
                preds[s].push(bi);
            }
        }
        Cfg {
            blocks,
            block_of,
            ipdom_block,
            preds,
        }
    }

    /// The basic blocks in program order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Block index containing instruction `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// Immediate post-dominator block of block `b`, or `None` if control
    /// from `b` only reaches the virtual exit.
    pub fn ipdom_of_block(&self, b: usize) -> Option<usize> {
        self.ipdom_block[b]
    }

    /// Predecessor blocks of block `b`, one entry per incoming edge (a
    /// branch whose target is its own fall-through contributes two).
    pub fn preds(&self, b: usize) -> &[usize] {
        &self.preds[b]
    }

    /// Floods along successor edges: marks every block reachable from a
    /// block in `from` (those included) without entering `cut`.
    /// `flood([0], None)` is reachability from the entry;
    /// `flood(succs of a branch block, its post-dominator)` is the
    /// branch's *open region* — the blocks executable while its
    /// re-convergence frame is on the stack.
    pub fn flood(&self, from: impl IntoIterator<Item = usize>, cut: Option<usize>) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack: Vec<usize> = from.into_iter().collect();
        while let Some(b) = stack.pop() {
            if Some(b) != cut && !seen[b] {
                seen[b] = true;
                stack.extend(&self.blocks[b].succs);
            }
        }
        seen
    }

    /// Marks the targets of back edges (an edge into a block still on the
    /// depth-first stack of a walk from the entry): the blocks where a
    /// cycle can feed a value back into itself.
    pub fn back_edge_targets(&self) -> Vec<bool> {
        let nb = self.blocks.len();
        let mut target = vec![false; nb];
        let (white, grey, black) = (0u8, 1u8, 2u8);
        let mut color = vec![white; nb];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = grey;
        while let Some(top) = stack.last_mut() {
            let (u, ei) = *top;
            if ei < self.blocks[u].succs.len() {
                top.1 += 1;
                let v = self.blocks[u].succs[ei];
                if color[v] == white {
                    color[v] = grey;
                    stack.push((v, 0));
                } else if color[v] == grey {
                    target[v] = true;
                }
            } else {
                color[u] = black;
                stack.pop();
            }
        }
        target
    }

    /// Computes [`BranchInfo`] for every conditional branch in `insts`,
    /// with the paper's default subdivision threshold.
    pub fn analyze_branches(&self, insts: &[Inst]) -> Vec<Option<BranchInfo>> {
        self.analyze_branches_with(insts, SUBDIV_MAX_BLOCK)
    }

    /// Like [`Cfg::analyze_branches`], with an explicit threshold for the
    /// Section 4.3 heuristic (used by the subdivision-threshold ablation).
    pub fn analyze_branches_with(
        &self,
        insts: &[Inst],
        max_block: usize,
    ) -> Vec<Option<BranchInfo>> {
        let mut out = vec![None; insts.len()];
        for (pc, inst) in insts.iter().enumerate() {
            if let Inst::Branch { target, .. } = *inst {
                let b = self.block_of(pc);
                let (ipdom, subdividable) = match self.ipdom_of_block(b) {
                    Some(pb) => {
                        let blk = &self.blocks[pb];
                        (blk.start, blk.len() <= max_block)
                    }
                    None => (RECONV_NONE, false),
                };
                out[pc] = Some(BranchInfo {
                    ipdom,
                    subdividable,
                    taken: target,
                    fallthrough: pc + 1,
                });
            }
        }
        out
    }
}

/// Iterative immediate post-dominator computation (Cooper–Harvey–Kennedy on
/// the reverse CFG, with a virtual exit that every `Halt` block reaches).
///
/// Returns, per block, the immediate post-dominator block index, or `None`
/// when it is the virtual exit.
fn post_dominators(blocks: &[Block]) -> Vec<Option<usize>> {
    let n = blocks.len();
    let exit = n; // virtual exit node index
                  // Reverse-graph successors = CFG predecessors; we need, for each node,
                  // its successors in the *reverse* direction of the dataflow, i.e. the
                  // CFG successors (post-dominance runs backwards). Build CFG succ lists
                  // including the virtual exit.
    let mut succs: Vec<Vec<usize>> = blocks
        .iter()
        .map(|b| {
            if b.succs.is_empty() {
                vec![exit]
            } else {
                b.succs.clone()
            }
        })
        .collect();
    succs.push(vec![]); // exit has no successors

    // Postorder of the *reverse* CFG starting from exit == reverse DFS over
    // predecessor edges. Build predecessor lists of the extended graph.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (u, ss) in succs.iter().enumerate() {
        for &v in ss {
            preds[v].push(u);
        }
    }
    // DFS from exit following preds to get a postorder of nodes that reach
    // exit (all terminating programs do).
    let mut order = Vec::with_capacity(n + 1);
    let mut visited = vec![false; n + 1];
    // Iterative DFS.
    let mut stack: Vec<(usize, usize)> = vec![(exit, 0)];
    visited[exit] = true;
    while let Some(&mut (u, ref mut i)) = stack.last_mut() {
        if *i < preds[u].len() {
            let v = preds[u][*i];
            *i += 1;
            if !visited[v] {
                visited[v] = true;
                stack.push((v, 0));
            }
        } else {
            order.push(u);
            stack.pop();
        }
    }
    // order is postorder (exit last). Map node -> postorder index.
    let mut po_idx = vec![usize::MAX; n + 1];
    for (i, &u) in order.iter().enumerate() {
        po_idx[u] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n + 1];
    idom[exit] = Some(exit);
    let mut changed = true;
    while changed {
        changed = false;
        // Process in reverse postorder (exit first).
        for &u in order.iter().rev() {
            if u == exit {
                continue;
            }
            // New idom = intersection over processed CFG successors.
            let mut new_idom: Option<usize> = None;
            for &s in &succs[u] {
                if idom[s].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => s,
                    Some(cur) => intersect(cur, s, &idom, &po_idx),
                });
            }
            if let Some(ni) = new_idom {
                if idom[u] != Some(ni) {
                    idom[u] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    (0..n)
        .map(|b| match idom[b] {
            Some(d) if d != exit => Some(d),
            _ => None,
        })
        .collect()
}

fn intersect(mut a: usize, mut b: usize, idom: &[Option<usize>], po_idx: &[usize]) -> usize {
    while a != b {
        while po_idx[a] < po_idx[b] {
            a = idom[a].expect("intersect walks processed nodes");
        }
        while po_idx[b] < po_idx[a] {
            b = idom[b].expect("intersect walks processed nodes");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, CondOp, Operand, Reg};

    fn add(dst: u16) -> Inst {
        Inst::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        }
    }

    fn br(target: usize) -> Inst {
        Inst::Branch {
            cond: CondOp::Eq,
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(0),
            target,
        }
    }

    #[test]
    fn diamond_reconverges_at_join() {
        // 0: br -> 3
        // 1: add          (fallthrough path)
        // 2: jmp 4
        // 3: add          (taken path)
        // 4: halt         (join)
        let insts = vec![br(3), add(2), Inst::Jump { target: 4 }, add(3), Inst::Halt];
        let cfg = Cfg::build(&insts);
        let info = cfg.analyze_branches(&insts);
        let bi = info[0].unwrap();
        assert_eq!(bi.ipdom, 4);
        assert!(bi.subdividable);
        assert_eq!(bi.taken, 3);
        assert_eq!(bi.fallthrough, 1);
    }

    #[test]
    fn nested_diamond() {
        // outer: 0 br->6 ; inner on fallthrough path: 1 br->4 ; 2 add; 3 jmp 5;
        // 4 add; 5 jmp 7; 6 add; 7 halt
        let insts = vec![
            br(6),
            br(4),
            add(2),
            Inst::Jump { target: 5 },
            add(3),
            Inst::Jump { target: 7 },
            add(4),
            Inst::Halt,
        ];
        let cfg = Cfg::build(&insts);
        let info = cfg.analyze_branches(&insts);
        assert_eq!(info[0].unwrap().ipdom, 7, "outer joins at halt block");
        assert_eq!(info[1].unwrap().ipdom, 5, "inner joins at jmp 7");
    }

    #[test]
    fn while_loop_reconverges_at_exit() {
        // 0: br Ge -> 3 (exit)
        // 1: add        (body)
        // 2: jmp 0
        // 3: halt
        let insts = vec![
            Inst::Branch {
                cond: CondOp::Ge,
                a: Operand::Reg(Reg(2)),
                b: Operand::Imm(10),
                target: 3,
            },
            add(2),
            Inst::Jump { target: 0 },
            Inst::Halt,
        ];
        let cfg = Cfg::build(&insts);
        let info = cfg.analyze_branches(&insts);
        assert_eq!(info[0].unwrap().ipdom, 3);
    }

    #[test]
    fn subdividable_respects_block_length() {
        // Branch joining into a long (>50 inst) block must not subdivide.
        let mut insts = vec![br(3), add(2), Inst::Jump { target: 3 }];
        for _ in 0..60 {
            insts.push(add(3));
        }
        insts.push(Inst::Halt);
        let cfg = Cfg::build(&insts);
        let info = cfg.analyze_branches(&insts);
        let bi = info[0].unwrap();
        assert_eq!(bi.ipdom, 3);
        assert!(!bi.subdividable, "61-instruction join block exceeds 50");
    }

    #[test]
    fn branch_to_distinct_halts_has_no_reconvergence() {
        // 0: br -> 2 ; 1: halt ; 2: halt
        let insts = vec![br(2), Inst::Halt, Inst::Halt];
        let cfg = Cfg::build(&insts);
        let info = cfg.analyze_branches(&insts);
        let bi = info[0].unwrap();
        assert_eq!(bi.ipdom, RECONV_NONE);
        assert!(!bi.subdividable);
    }

    #[test]
    fn block_partitioning() {
        let insts = vec![add(2), add(3), br(0), Inst::Halt];
        let cfg = Cfg::build(&insts);
        assert_eq!(cfg.blocks().len(), 2);
        assert_eq!(cfg.block_of(0), 0);
        assert_eq!(cfg.block_of(2), 0);
        assert_eq!(cfg.block_of(3), 1);
        assert_eq!(cfg.blocks()[0].len(), 3);
        assert!(!cfg.blocks()[0].is_empty());
    }

    #[test]
    fn flood_and_back_edges_on_a_loop_in_a_diamond() {
        // 0: br -> 4   (diamond head)
        // 1: add       (loop head, fall-through arm)
        // 2: br -> 1   (loop back edge)
        // 3: jmp 5
        // 4: add       (taken arm)
        // 5: halt      (join)
        let insts = vec![
            br(4),
            add(2),
            br(1),
            Inst::Jump { target: 5 },
            add(3),
            Inst::Halt,
        ];
        let cfg = Cfg::build(&insts);
        let (head, lp, tail, taken, join) = (0, 1, 2, 3, 4);
        assert_eq!(cfg.blocks().len(), 5);
        assert_eq!(cfg.preds(lp), [head, lp]);
        assert_eq!(cfg.preds(join), [tail, taken]);
        assert_eq!(cfg.flood([head], None), [true; 5], "all reachable");
        // The diamond's open region: both arms, the loop included, but
        // neither the head nor the join it is cut at.
        let region = cfg.flood(
            cfg.blocks()[head].succs.iter().copied(),
            cfg.ipdom_of_block(head),
        );
        assert_eq!(cfg.ipdom_of_block(head), Some(join));
        assert_eq!(region, [false, true, true, true, false]);
        assert_eq!(cfg.flood([join], Some(join)), [false; 5], "cut seeds too");
        assert_eq!(
            cfg.back_edge_targets(),
            [false, true, false, false, false],
            "only the loop head; the join's two forward in-edges are not back edges"
        );
    }
}
