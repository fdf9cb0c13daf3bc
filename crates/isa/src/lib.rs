//! Kernel IR for the dynamic-warp-subdivision reproduction.
//!
//! The paper compiles C benchmarks to the Alpha ISA with manually-inserted
//! post-dominator annotations. This crate plays the role of that toolchain:
//!
//! * [`inst`] — a compact scalar RISC instruction set (`Inst`). All
//!   non-memory instructions execute in one cycle on a WPU lane, exactly as
//!   the paper models.
//! * [`builder`] — [`KernelBuilder`], a structured assembler DSL used by
//!   `dws-kernels` to express the eight data-parallel benchmarks.
//! * [`mod@cfg`] — control-flow analysis. Immediate post-dominators are computed
//!   automatically (the paper instruments them by hand) and each conditional
//!   branch is statically classified as *subdividable* using the paper's
//!   50-instruction heuristic (Section 4.3).
//! * [`interp`] — per-thread functional semantics, shared by the timing
//!   model and by a lockstep-free reference runner used to validate that
//!   every scheduling policy computes identical results.
//! * [`verify`] — a multi-pass static verifier and linter (CFG
//!   well-formedness, independent re-convergence re-computation, def-use
//!   dataflow, interval memory bounds, divergence/uniformity, melding
//!   advisory) over one shared fact base ([`verify::Facts`]), producing
//!   structured [`Diagnostic`]s; error findings reject the program at
//!   [`Program::from_insts`] time.
//!
//! # Example
//!
//! ```
//! use dws_isa::{KernelBuilder, Operand, CondOp};
//!
//! // sum = 0; for (i = tid; i < 8; i += ntid) sum += i; out[tid] = sum;
//! let mut b = KernelBuilder::new();
//! let (tid, ntid) = (b.tid(), b.ntid());
//! let i = b.reg();
//! let sum = b.reg();
//! b.li(sum, 0);
//! b.mov(i, Operand::Reg(tid));
//! b.while_loop(CondOp::Lt, Operand::Reg(i), Operand::Imm(8), |b| {
//!     b.add(sum, Operand::Reg(sum), Operand::Reg(i));
//!     b.add(i, Operand::Reg(i), Operand::Reg(ntid));
//! });
//! let addr = b.reg();
//! b.mul(addr, Operand::Reg(tid), Operand::Imm(8));
//! b.store(Operand::Reg(sum), addr, 0);
//! b.halt();
//! let program = b.build().expect("valid program");
//! assert!(program.len() > 0);
//! ```

pub mod analysis;
pub mod asm;
pub mod builder;
pub mod cfg;
pub mod gen;
pub mod inst;
pub mod interp;
pub mod meld;
pub mod predecode;
pub mod program;
pub mod verify;

pub use analysis::{
    solve, solve_flow, BlockFacts, BlockProblem, Direction, FlowProblem, Liveness, ReachingDefs,
    RegSet,
};
pub use asm::{parse_asm, render_asm, AsmError};
pub use builder::{BuildError, KernelBuilder, Label};
pub use cfg::{BranchInfo, Cfg};
pub use gen::{generate, GenConfig, GenOp, GenStmt, GenVal, KernelAst};
pub use inst::{AluOp, CondOp, Inst, Operand, Reg, UnOp};
pub use interp::{
    eval_alu, eval_un, execute_lane, LaneRegs, MemoryAccess, ReferenceRunner, StepOutcome,
    ThreadState, VecMemory,
};
pub use meld::{find_candidates, meld, MeldApplied, MeldCandidate, MeldOutcome, MeldVerdict};
pub use predecode::{ExecOp, Src};
pub use program::Program;
pub use verify::{
    branch_uniformity, BranchUniformity, Diagnostic, DwsLintCode, Severity, VerifyOptions,
    VerifyReport, VerifyStats,
};
