//! # detlock-vm
//!
//! A deterministic cycle-level multicore simulator that executes
//! `detlock-ir` modules — the measurement substrate standing in for the
//! paper's 2.66 GHz quad-core testbed. One core per thread, one
//! instruction in flight per core, costs from `detlock-passes`'s
//! [`CostModel`](detlock_passes::cost::CostModel), seeded OS-noise jitter,
//! and four execution modes covering every configuration the paper
//! measures:
//!
//! | Mode | Ticks | Locks | Paper artifact |
//! |---|---|---|---|
//! | `Baseline` | skipped | FCFS (nondeterministic) | "Original Exec Time" |
//! | `ClocksOnly` | executed | FCFS | Table I upper half |
//! | `Det` | executed | deterministic scheduler on tick-driven clocks | Table I lower half |
//! | `Kendo` | skipped | deterministic scheduler, no tick clocks | Table II (with `Sched::Chunk`) |
//!
//! Deterministic modes arbitrate through the [`Sched`] policy enum —
//! [`Sched::Kendo`] (min-clock reference), [`Sched::Chunk`] (chunked
//! store-counter clocks), or [`Sched::DcBatch`] (deterministic-consistency
//! batch commits) — selected per [`MachineConfig`] (`--scheduler` on the
//! CLI tools). The workspace's determinism matrix (`tests/matrix.rs`)
//! judges that every deterministic mode orders locks the same under every
//! jitter seed, and that the two FCFS modes do not.
//!
//! [`sanitizer`] is `detsan`: a FastTrack-style happens-before sanitizer
//! the machine drives on every memory and synchronization operation when
//! [`MachineConfig::sanitize`] is set, reporting precise races and
//! deadlock-prone lock-order cycles.

#![warn(missing_docs)]

pub mod backend;
pub mod builtins;
pub mod checkpoint;
mod core;
mod interp;
pub mod lower;
pub mod machine;
pub mod metrics;
pub mod sanitizer;
pub mod sched;

pub use backend::Backend;
pub use lower::ThreadedProgram;
pub use machine::{
    run, Checkpoint, CkptControl, ExecMode, Jitter, Machine, MachineConfig, ResumeError,
    RunOutcome, ThreadSpec,
};
pub use metrics::{RunMetrics, ThreadMetrics};
pub use sanitizer::{
    DynAccess, DynRace, LockCycle, LockEdge, Sanitizer, SanitizerReport, SiteStat,
};
pub use sched::{ChunkParams, Sched};
