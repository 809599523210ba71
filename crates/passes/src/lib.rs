//! # detlock-passes
//!
//! The DetLock compiler instrumentation (Mushtaq, Al-Ars, Bertels, SC 2012):
//! inserts logical-clock updates (`tick`) into `detlock-ir` modules at basic
//! block granularity, then applies the paper's four overhead-reduction
//! optimizations, all of which also try to advance the clock *as early as
//! possible* so that threads waiting on deterministic locks are released
//! sooner:
//!
//! * [`opt1`] — Function Clocking: tight functions lose all clock code; the
//!   mean path clock is charged at call sites.
//! * [`opt2a`] — precise conditional-block motion (min-hoisting at branch
//!   nodes, push-up at merge nodes).
//! * [`opt2b`] — approximate motion across short-circuit conditionals,
//!   bounded by a 1/10 divergence rule.
//! * [`opt3`] — averaging of clocks over dominated regions.
//! * [`opt4`] — merging small loop-latch clocks into headers.
//!
//! [`pipeline::instrument`] is the entry point. It lowers an
//! [`pipeline::OptConfig`] into a [`pass::PassPipeline`]: the module-wide
//! O1 fixpoint, splitting and base planning, then the enabled plan passes
//! function by function, with per-function cached analyses, then
//! materialization into the split module in place, with per-pass telemetry
//! and per-pass delta certificates;
//! [`cost`] holds the cycle model and the *instructions estimate file*
//! parser.
//!
//! ```
//! use detlock_ir::{FunctionBuilder, Module};
//! use detlock_passes::cost::CostModel;
//! use detlock_passes::pipeline::{instrument, OptConfig};
//! use detlock_passes::plan::Placement;
//!
//! let mut m = Module::new();
//! let mut fb = FunctionBuilder::new("kernel", 0);
//! fb.block("entry");
//! fb.compute(16);
//! fb.ret_void();
//! fb.finish_into(&mut m);
//!
//! let cost = CostModel::default();
//! let out = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[]);
//! assert_eq!(out.stats.functions, 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod cert;
pub mod cost;
pub mod materialize;
pub mod opt1;
pub mod opt2a;
pub mod opt2b;
pub mod opt3;
pub mod opt4;
pub mod parallel;
pub mod pass;
pub mod pipeline;
pub mod plan;
pub mod stats;

pub use cache::{plan_key, PlanCache};
pub use cert::{PassCert, PlanCert};
pub use cost::CostModel;
pub use pass::PassPipeline;
pub use pipeline::{instrument, instrument_with, CompileOpts, Instrumented, OptConfig, OptLevel};
pub use plan::{ModulePlan, Placement};
pub use stats::{render_pass_table, PassStats, Stats};
