//! Randomized-kernel machinery for the `random_policies` differential
//! suite: a tiny structured-program AST, a deterministic generator over
//! it, and a compiler into kernel IR.

use dws_core::{MemSplit, Policy};
use dws_engine::rng::Rng64;
use dws_isa::{CondOp, KernelBuilder, Operand, Program, Reg};

/// Words of scratch memory each generated kernel may touch.
pub const MEM_WORDS: i64 = 512;

/// A tiny structured-program AST we can generate and compile.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// dst_reg, src selector, immediate
    Arith(u8, u8, i64),
    /// value reg, address-selector immediate word index
    Store(u8, i64),
    /// dst reg, address word index offset by a register
    Load(u8, u8),
    /// condition on (reg cmp imm): then-branch, else-branch
    If(u8, i64, Vec<Stmt>, Vec<Stmt>),
    /// bounded loop: iterations 1..=3, body
    Loop(u8, Vec<Stmt>),
}

/// Generates one random statement; `depth` bounds nesting and `budget`
/// bounds total statement count (mirroring proptest's recursive strategy).
pub fn gen_stmt(rng: &mut Rng64, depth: u32, budget: &mut usize) -> Stmt {
    *budget = budget.saturating_sub(1);
    let composite = depth > 0 && *budget > 0 && rng.chance(0.35);
    if composite {
        if rng.chance(0.5) {
            let r = rng.range_i64(0, 4) as u8;
            let imm = rng.range_i64(-3, 3);
            let then_len = 1 + rng.range_usize(3);
            let then_branch = gen_block(rng, depth - 1, then_len, budget);
            let else_len = rng.range_usize(3);
            let else_branch = gen_block(rng, depth - 1, else_len, budget);
            Stmt::If(r, imm, then_branch, else_branch)
        } else {
            let n = rng.range_i64(1, 4) as u8;
            let body_len = 1 + rng.range_usize(3);
            let body = gen_block(rng, depth - 1, body_len, budget);
            Stmt::Loop(n, body)
        }
    } else {
        match rng.range_usize(3) {
            0 => Stmt::Arith(
                rng.range_i64(0, 4) as u8,
                rng.range_i64(0, 4) as u8,
                rng.range_i64(-7, 7),
            ),
            1 => Stmt::Store(rng.range_i64(0, 4) as u8, rng.range_i64(0, MEM_WORDS / 2)),
            _ => Stmt::Load(rng.range_i64(0, 4) as u8, rng.range_i64(0, 4) as u8),
        }
    }
}

pub fn gen_block(rng: &mut Rng64, depth: u32, len: usize, budget: &mut usize) -> Vec<Stmt> {
    (0..len)
        .map_while(|_| {
            if *budget == 0 {
                None
            } else {
                Some(gen_stmt(rng, depth, budget))
            }
        })
        .collect()
}

/// Compiles the AST into a kernel. Every thread runs the same statements on
/// thread-dependent data, then stores its registers to a thread-private
/// output slice.
pub fn compile(stmts: &[Stmt]) -> Program {
    let mut b = KernelBuilder::new();
    let tid = b.tid();
    let regs: Vec<Reg> = (0..4).map(|_| b.reg()).collect();
    let addr = b.reg();
    let tmp = b.reg();
    // Seed registers from tid so threads diverge.
    for (i, &r) in regs.iter().enumerate() {
        b.mul(tmp, tid, Operand::Imm(i as i64 * 3 + 1));
        b.add(regs[i], Operand::Reg(tmp), Operand::Imm(i as i64));
        let _ = r;
    }
    emit(&mut b, stmts, &regs, addr, tmp, tid);
    // Write out all registers to out[tid*4 + i].
    for (i, &r) in regs.iter().enumerate() {
        b.mul(addr, tid, Operand::Imm(4));
        b.add(addr, Operand::Reg(addr), Operand::Imm(i as i64));
        b.rem(addr, Operand::Reg(addr), Operand::Imm(MEM_WORDS / 2));
        b.add(addr, Operand::Reg(addr), Operand::Imm(MEM_WORDS / 2));
        b.mul(addr, Operand::Reg(addr), Operand::Imm(8));
        b.store(Operand::Reg(r), addr, 0);
    }
    b.halt();
    b.build().expect("generated kernel is well-formed")
}

fn emit(b: &mut KernelBuilder, stmts: &[Stmt], regs: &[Reg], addr: Reg, tmp: Reg, tid: Reg) {
    for s in stmts {
        match s {
            Stmt::Arith(d, src, imm) => {
                let d = regs[*d as usize % regs.len()];
                let src = regs[*src as usize % regs.len()];
                b.mul(tmp, Operand::Reg(src), Operand::Imm(3));
                b.add(d, Operand::Reg(tmp), Operand::Imm(*imm));
                b.rem(d, Operand::Reg(d), Operand::Imm(1009));
            }
            Stmt::Store(r, w) => {
                // Strictly thread-private slot (16 words per thread):
                // slot = tid*16 + (w mod 16). Cross-thread races would make
                // results interleaving-dependent and the property unsound.
                let r = regs[*r as usize % regs.len()];
                b.mul(addr, tid, Operand::Imm(16));
                b.add(addr, Operand::Reg(addr), Operand::Imm(*w % 16));
                b.mul(addr, Operand::Reg(addr), Operand::Imm(8));
                b.store(Operand::Reg(r), addr, 0);
            }
            Stmt::Load(d, a) => {
                // Load from the thread's own 16-word window, index chosen
                // by a register value (data-dependent, but race-free).
                let d = regs[*d as usize % regs.len()];
                let a = regs[*a as usize % regs.len()];
                b.rem(addr, Operand::Reg(a), Operand::Imm(16));
                b.if_then(CondOp::Lt, Operand::Reg(addr), Operand::Imm(0), |b| {
                    b.add(addr, Operand::Reg(addr), Operand::Imm(16));
                });
                b.mul(tmp, tid, Operand::Imm(16));
                b.add(addr, Operand::Reg(addr), Operand::Reg(tmp));
                b.mul(addr, Operand::Reg(addr), Operand::Imm(8));
                b.load(d, addr, 0);
            }
            Stmt::If(r, imm, t, e) => {
                let r = regs[*r as usize % regs.len()];
                let (t, e) = (t.clone(), e.clone());
                let regs2 = regs.to_vec();
                b.if_then_else(
                    CondOp::Gt,
                    Operand::Reg(r),
                    Operand::Imm(*imm),
                    |b| emit(b, &t, &regs2, addr, tmp, tid),
                    |b| emit(b, &e, &regs2, addr, tmp, tid),
                );
            }
            Stmt::Loop(n, body) => {
                let i = b.reg();
                let body = body.clone();
                let regs2 = regs.to_vec();
                b.for_range(
                    i,
                    Operand::Imm(0),
                    Operand::Imm(*n as i64),
                    Operand::Imm(1),
                    |b| emit(b, &body, &regs2, addr, tmp, tid),
                );
            }
        }
    }
}

/// Every scheduling policy the differential suites sweep: conventional,
/// the full DWS matrix, and the adaptive-slip baselines.
pub fn all_policies() -> [Policy; 11] {
    [
        Policy::conventional(),
        Policy::dws_branch_stack(),
        Policy::dws_branch_only(),
        Policy::dws_mem_only(),
        Policy::dws_aggress(),
        Policy::dws_lazy(),
        Policy::dws_revive(),
        Policy::dws_revive_throttled(),
        Policy::dws_branch_limited(MemSplit::Revive),
        Policy::slip(),
        Policy::slip_branch_bypass(),
    ]
}
