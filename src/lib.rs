//! # DetLock — portable deterministic execution for shared-memory programs
//!
//! A from-scratch Rust reproduction of *DetLock: Portable and Efficient
//! Deterministic Execution for Shared Memory Multicore Systems* (Mushtaq,
//! Al-Ars, Bertels — SC 2012).
//!
//! DetLock makes race-free multithreaded programs **weakly deterministic**:
//! the order in which threads win synchronization operations is a function
//! of the program and its input alone, not of thread timing — so the same
//! input produces the same lock interleaving on every run, which is what
//! testing, debugging, and replica-based fault tolerance need. Unlike
//! Kendo, it needs no deterministic hardware performance counters and no
//! kernel changes: per-thread logical clocks are advanced by *clock update
//! code inserted by the compiler* at basic-block granularity, and a set of
//! compiler optimizations both shrinks that code and hoists it *ahead of
//! execution* so lock waiters are released sooner.
//!
//! ## Crates
//!
//! | Crate | Role |
//! |---|---|
//! | [`detlock_core`] | The runtime: [`detlock_core::DetRuntime`], [`detlock_core::DetMutex`], [`detlock_core::DetBarrier`], [`detlock_core::DetPool`], [`detlock_core::tick`] |
//! | [`detlock_ir`] | Executable mini compiler IR + CFG analyses |
//! | [`detlock_passes`] | The instrumentation pass: clock insertion + optimizations O1–O4 |
//! | [`detlock_vm`] | Deterministic cycle-level multicore simulator (the measurement substrate) |
//! | [`detlock_workloads`] | SPLASH-2-shaped workload generators for the paper's evaluation |
//!
//! ## Quick start (runtime)
//!
//! ```
//! use detlock::{DetRuntime, DetMutex, tick};
//! use std::sync::Arc;
//!
//! let rt = DetRuntime::with_defaults();
//! let total = Arc::new(DetMutex::new(&rt, 0u64));
//! let mut handles = Vec::new();
//! for t in 0..4u64 {
//!     let total = Arc::clone(&total);
//!     handles.push(rt.spawn(move || {
//!         for i in 0..100 {
//!             tick(7 + (t + i) % 3); // instrumented builds insert these
//!             *total.lock() += 1;
//!         }
//!     }));
//! }
//! for h in handles { h.join(); }
//! assert_eq!(*total.lock(), 400);
//! ```
//!
//! ## Quick start (compiler + simulator)
//!
//! ```
//! use detlock_ir::{FunctionBuilder, Module};
//! use detlock_passes::{instrument, CostModel, OptConfig, Placement};
//! use detlock_vm::{run, ExecMode, MachineConfig, ThreadSpec};
//!
//! let mut m = Module::new();
//! let mut fb = FunctionBuilder::new("kernel", 0);
//! fb.block("entry");
//! fb.compute(64);
//! fb.lock(0i64);
//! fb.compute(4);
//! fb.unlock(0i64);
//! fb.ret_void();
//! let f = fb.finish_into(&mut m);
//!
//! let cost = CostModel::default();
//! let out = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[f]);
//! let threads: Vec<ThreadSpec> = (0..2)
//!     .map(|_| ThreadSpec { func: f, args: vec![] })
//!     .collect();
//! let (metrics, hit_limit) = run(
//!     &out.module,
//!     &cost,
//!     &threads,
//!     MachineConfig { mode: ExecMode::Det, ..MachineConfig::default() },
//! );
//! assert!(!hit_limit);
//! assert_eq!(metrics.lock_acquires(), 2);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![warn(missing_docs)]

pub use detlock_core;
pub use detlock_ir;
pub use detlock_passes;
pub use detlock_vm;
pub use detlock_workloads;

pub use detlock_core::{
    panic_message, tick, try_tick, DetBarrier, DetConfig, DetError, DetJoinHandle, DetMutex,
    DetPool, DetRuntime, FaultPlan, InjectedPanic, StallAction,
};
