//! # detlock-serve
//!
//! A multi-tenant deterministic-execution service built on the DetLock
//! runtime and VM: clients submit jobs ("run workload W with config C,
//! seed S") over a newline-delimited JSON TCP protocol; the server routes
//! them through a bounded admission queue to a fixed set of **shards**,
//! each owning a private deterministic engine (no shared lock-id space
//! across tenants); every response carries a **determinism receipt** —
//! the episode's incremental acquisition-order hash plus final logical
//! clocks, O(1) in episode length.
//!
//! Determinism is what makes the service model work:
//!
//! * **receipts replace logs** — two runs agree iff two hashes agree,
//!   so cross-shard and cross-sweep verification is a string compare;
//! * **duplicates are free** — a receipt is a function of the job, so a
//!   request for a job that is running rides along with it and one for a
//!   job that has finished is answered from the record, which re-executes
//!   on a fixed schedule to keep checking itself;
//! * **failover is free** — a shard evicted mid-job is requeued on a
//!   sibling, and the client can't tell, because the sibling's receipt
//!   is byte-identical;
//! * **timeouts are facts** — the per-job cycle budget exhausts
//!   deterministically, so "too slow" is a property of the job, not of
//!   the day it ran.
//!
//! Modules: [`protocol`] (wire format + client), [`conn`] (the framed
//! nonblocking connection every endpoint drives), [`queue`] (admission +
//! backpressure), [`shard`] (the per-shard engine), [`receipt`]
//! (determinism evidence), [`stats`] (counters + latency histograms),
//! [`server`] (the daemon core used by `detserved`).

#![warn(missing_docs)]

pub mod conn;
pub mod group;
pub mod netfault;
pub mod protocol;
pub mod queue;
pub mod receipt;
pub mod server;
pub mod shard;
pub mod stats;

pub use netfault::{CrashPlan, InjectedCrash, NetFaultPlan, WireFault};
pub use protocol::{Client, JobSpec};
pub use receipt::Receipt;
pub use server::{DetServed, ServeConfig};
