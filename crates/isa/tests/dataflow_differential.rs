//! Differential oracle for the verifier's def-use pass.
//!
//! The verifier's pass 3 runs on the `dws_isa::analysis` dataflow framework
//! ([`ReachingDefs`], [`Liveness`] solved once into `verify::Facts`). The
//! hand-written fixpoint it replaced is kept here, in test scope, as a
//! reference implementation over the crate's public API, and must agree
//! with the `DWS03xx` slice of a plain `verify()` report — same codes, pcs,
//! severities, and messages, in the same order — across every shipped
//! benchmark kernel and a sweep of generator-produced programs.
//!
//! [`ReachingDefs`]: dws_isa::ReachingDefs
//! [`Liveness`]: dws_isa::Liveness

use dws_isa::analysis::{inst_def, inst_uses, max_reg};
use dws_isa::gen::{generate, GenConfig};
use dws_isa::verify::verify;
use dws_isa::{Cfg, Diagnostic, DwsLintCode, Inst, RegSet, VerifyOptions};
use dws_kernels::{Benchmark, Scale};

/// The pre-framework hand-written fixpoint implementation of the
/// verifier's pass 3: its own predecessor lists, reachability walk and
/// three `while changed` loops, sharing nothing with `dws_isa::analysis`
/// but the bitset type and the per-instruction use/def helpers.
#[allow(clippy::needless_range_loop)] // loops kept as the original wrote them
fn defuse_reference(insts: &[Inst]) -> Vec<Diagnostic> {
    let cfg = Cfg::build(insts);
    let num_regs = max_reg(insts);
    let mut report: Vec<Diagnostic> = Vec::new();
    let nr = num_regs as usize;
    let nb = cfg.blocks().len();
    let mut reach = vec![false; nb];
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
                    report.push(Diagnostic::new(
                        DwsLintCode::MaybeUseBeforeDef,
                        Some(pc),
                        Some(bi),
                        format!("{r} is read but only some paths define it first"),
                    ));
                } else {
                    report.push(Diagnostic::new(
                        DwsLintCode::UseBeforeDef,
                        Some(pc),
                        Some(bi),
                        format!("{r} is read but no definition reaches this point"),
                    ));
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
                    report.push(Diagnostic::new(
                        DwsLintCode::DeadWrite,
                        Some(pc),
                        Some(bi),
                        format!("{r} is written here but never read afterwards"),
                    ));
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
            report.push(Diagnostic::new(
                DwsLintCode::UnusedReg,
                None,
                None,
                format!(
                    "r{r} is never referenced but the register file is sized for \
                         {num_regs} registers"
                ),
            ));
        }
    }
    report
}

/// The def-use diagnostics of the production verifier.
fn defuse_diagnostics(insts: &[Inst]) -> Vec<Diagnostic> {
    let (report, _) = verify(insts, &VerifyOptions::default());
    report
        .diagnostics
        .into_iter()
        .filter(|d| d.code.as_str().starts_with("DWS03"))
        .collect()
}

#[test]
fn framework_defuse_matches_reference_on_all_benchmarks() {
    for bench in Benchmark::ALL {
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            let spec = bench.build(scale, 42);
            let insts = spec.program.insts();
            assert_eq!(
                defuse_diagnostics(insts),
                defuse_reference(insts),
                "pass-3 divergence between framework and reference on {bench} @ {scale:?}"
            );
        }
    }
}

#[test]
fn framework_defuse_matches_reference_on_generated_kernels() {
    let cfg = GenConfig::default();
    for seed in 0..200u64 {
        let ast = generate(seed, &cfg);
        let program = ast.compile().expect("generated kernels verify");
        let insts = program.insts();
        assert_eq!(
            defuse_diagnostics(insts),
            defuse_reference(insts),
            "pass-3 divergence between framework and reference on seed {seed}"
        );
    }
}
