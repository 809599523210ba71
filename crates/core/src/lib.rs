//! # detlock-core
//!
//! The DetLock deterministic-execution runtime (Mushtaq, Al-Ars, Bertels,
//! *DetLock: Portable and Efficient Deterministic Execution for Shared
//! Memory Multicore Systems*, SC 2012): *weak determinism* — for race-free
//! programs, the order in which threads win synchronization operations is a
//! deterministic function of the program and its input, independent of
//! thread timing. Pure user-space: no kernel modification, no hardware
//! performance counters; logical clocks are advanced by [`tick`] calls that
//! the DetLock compiler pass (`detlock-passes`) inserts — or that
//! applications place by hand at coarse progress points.
//!
//! ## Protocol (Kendo's algorithm, as adopted by DetLock)
//!
//! Every deterministic thread owns a logical clock. A *deterministic event*
//! (lock acquisition, barrier arrival, spawn, join, exit) executes only
//! at the thread's **turn**: when its `(clock, tid)` is minimal over all
//! active threads. Lock acquisition at the turn additionally requires the
//! lock to be *logically* free — its last release clock must precede the
//! acquirer's clock — otherwise the acquirer bumps its clock by one and
//! retries; because bumps happen only while holding the turn, the whole
//! clock trajectory (and hence the acquisition order) is
//! timing-independent.
//!
//! Why the physical state a turn-holder observes is deterministic: clocks
//! are monotone in program order, so when every other active thread's clock
//! is ≥ the turn-holder's clock `c`, every event that logically precedes
//! `c` has physically completed (its thread's clock has moved past it), and
//! events logically after `c` cannot yet have happened (their threads would
//! have needed the turn). Releases are not turn-gated, but their release
//! clocks make "physically free yet logically still held" detectable — the
//! acquirer treats it exactly like "held", which is also what a rerun with
//! different timing observes.
//!
//! Threads that block (barrier, join) deactivate *at their turn*
//! and are reactivated inside another thread's deterministic event, so the
//! active set itself changes deterministically.
//!
//! The protocol is written once, in the private `event` module:
//! `event::det_event` is the turn rule (and the single fault-injection
//! point, and the wrong-runtime check) around each primitive's at-turn
//! transition; `Turn::acquired` inside it is the one place a lock
//! acquisition is recorded — *before* the clock tick that hands the turn
//! on, so the trace's append order is the logical order; `Turn::park` is
//! the one blocked wait. The primitive modules hold only what is specific
//! to them: an admission test, a wait list, a clock reconciliation.
//!
//! ## Example
//!
//! ```
//! use detlock_core::{DetRuntime, DetMutex, tick};
//! use std::sync::Arc;
//!
//! let rt = DetRuntime::with_defaults();
//! let counter = Arc::new(DetMutex::new(&rt, 0));
//! let mut handles = Vec::new();
//! for _ in 0..4 {
//!     let counter = Arc::clone(&counter);
//!     handles.push(rt.spawn(move || {
//!         for _ in 0..1000 {
//!             tick(10); // compiler-inserted in instrumented builds
//!             *counter.lock() += 1;
//!         }
//!     }));
//! }
//! for h in handles { h.join(); }
//! assert_eq!(*counter.lock(), 4000);
//! // With tracing enabled, the acquisition order hash is identical on
//! // every run — see DetRuntime::trace_hash().
//! ```

#![warn(missing_docs)]

pub mod barrier;
pub mod error;
mod event;
pub mod fault;
pub mod mutex;
pub mod pool;
pub mod registry;
pub mod runtime;
pub mod trace;

pub use barrier::DetBarrier;
pub use detlock_shim::acq::{first_divergence, Acquisition};
pub use error::{panic_message, DetError, StallAction, StallReport, ThreadSnapshot};
pub use fault::{FaultPlan, InjectedPanic};
pub use mutex::{DetMutex, DetMutexGuard};
pub use pool::{DetPool, DetPoolBox};
pub use registry::{DetTid, ThreadState};
pub use runtime::{tick, try_tick, DetConfig, DetJoinHandle, DetRuntime};
