//! # detlock-ir
//!
//! An executable mini compiler IR standing in for the slice of LLVM IR the
//! DetLock instrumentation pass operates on (Mushtaq, Al-Ars, Bertels,
//! *DetLock*, SC 2012).
//!
//! Programs are modules of functions; functions are CFGs of named basic
//! blocks over a flat register machine with 64-bit integer values, a flat
//! word-addressed memory, direct and builtin calls, and synchronization
//! intrinsics (`lock`, `unlock`, `barrier`). The `tick` pseudo-instruction —
//! inserted by `detlock-passes`, executed by `detlock-vm` — advances the
//! executing thread's logical clock.
//!
//! The crate also provides the CFG analyses the paper's optimizations rely
//! on: predecessor/successor maps and reverse post-order ([`analysis::cfg`]),
//! dominators ([`analysis::dom`]), natural loops ([`analysis::loops`]),
//! acyclic path summaries and enumeration ([`analysis::paths`]) and the module call graph
//! ([`analysis::callgraph`]), plus text/Graphviz dumps ([`dot`]) used to
//! reproduce the paper's running-example figures. [`analysis::manager`]
//! lazily computes and caches the per-function CFG, dominator and loop
//! analyses.
//!
//! ## Example
//!
//! ```
//! use detlock_ir::builder::FunctionBuilder;
//! use detlock_ir::inst::CmpOp;
//! use detlock_ir::analysis::cfg::Cfg;
//!
//! let mut fb = FunctionBuilder::new("abs_diff", 2);
//! fb.block("entry");
//! let bigger = fb.create_block("bigger");
//! let smaller = fb.create_block("smaller");
//! let (a, b) = (fb.param(0), fb.param(1));
//! let c = fb.cmp(CmpOp::Gt, a, b);
//! fb.cond_br(c, bigger, smaller);
//! fb.switch_to(bigger);
//! let d1 = fb.sub(a, b);
//! fb.ret(d1);
//! fb.switch_to(smaller);
//! let d2 = fb.sub(b, a);
//! fb.ret(d2);
//!
//! let func = fb.finish().unwrap();
//! let cfg = Cfg::compute(&func);
//! assert_eq!(cfg.succs(func.entry()).len(), 2);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod dot;
pub mod inst;
pub mod module;
pub mod parse;
pub mod types;
pub mod verify;

/// CFG and call-graph analyses.
pub mod analysis {
    pub mod callgraph;
    pub mod cfg;
    pub mod dom;
    pub mod loops;
    pub mod manager;
    pub mod paths;
}

pub use builder::FunctionBuilder;
pub use inst::{BinOp, Builtin, CmpOp, Inst, Operand, Terminator};
pub use module::{Block, Function, Module};
pub use types::{BarrierId, BlockId, FuncId, Reg};
