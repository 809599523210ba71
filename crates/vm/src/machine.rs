//! The cycle-level multicore simulator.
//!
//! Each thread is pinned to its own core and issues one instruction at a
//! time; an instruction occupies the core for its cost-model cycle count
//! (plus seeded OS-noise jitter). Synchronization intrinsics route through a
//! lock table and barrier table whose arbitration depends on the execution
//! mode:
//!
//! * [`ExecMode::Baseline`] — tick instructions are skipped at zero cost
//!   (the uninstrumented binary); locks are granted first-come-first-served,
//!   so the acquisition order varies with the jitter seed. This run defines
//!   "Original Exec Time" in Table I.
//! * [`ExecMode::ClocksOnly`] — ticks execute (and cost cycles) but locks
//!   stay FCFS: measures pure instrumentation overhead (Table I, "After
//!   Inserting Clocks").
//! * [`ExecMode::Det`] — ticks execute and every synchronization operation
//!   is a *deterministic event* performed only when the thread's logical
//!   clock is the global minimum (ties by thread id), following Kendo's
//!   algorithm as adopted by DetLock: a blocked acquirer deterministically
//!   bumps its clock and retries; a releaser stamps the lock with its
//!   release clock; an acquire succeeds only when the lock is free *and*
//!   logically released in the acquirer's past (Table I, "After Inserting
//!   Clocks and Performing Deterministic Execution").
//! * [`ExecMode::Kendo`] — deterministic arbitration over an
//!   *uninstrumented* binary: ticks are skipped, so the logical clocks are
//!   whatever the scheduler supplies. Paired with [`Sched::Chunk`]
//!   (simulated retired-store hardware counters that only update every
//!   `chunk_size` stores, costing `interrupt_cost` cycles per overflow
//!   interrupt) this is the paper's Table II comparison baseline.
//!
//! Deterministic modes delegate *who may synchronize this round* to the
//! [`Sched`] policy in [`MachineConfig::scheduler`] — see [`crate::sched`]
//! for the three policies and the observation contract.
//!
//! # Architecture: determinism core vs execution backend
//!
//! The machine is split in two. The determinism core (`DetCore`, in
//! `core.rs`) owns everything that makes a run deterministic and measurable
//! — thread states, logical clocks, the min-`(clock, tid)` arbiter,
//! lock/barrier tables, the acquisition log and the sanitizer hooks. How the
//! *next instruction of a ready thread* is fetched, applied, and charged is
//! delegated to an execution backend: either the tree-walking interpreter
//! in `interp.rs` (the oracle) or the threaded-code engine in
//! [`crate::lower`] that runs a flat pre-decoded program. Both backends
//! drive the identical core, charge the identical costs in the identical
//! order (so the jitter RNG draws agree), and report the identical
//! `(func, block, ip)` sites to the sanitizer — which is what makes
//! cross-backend trace hashes, receipts, metrics, sanitizer reports, and
//! even checkpoints byte-compatible.
//!
//! Everything the core mutates is one struct and a [`Checkpoint`] is a
//! clone of it ([`crate::checkpoint`]). This module holds what a caller
//! configures and calls: the config types, [`Machine`], the run entry points.

use crate::backend::Backend;
use crate::checkpoint::{config_fingerprint, RunState};
use crate::core::{DetCore, ExecImpl};
use crate::interp::InterpBackend;
use crate::lower::{lower, ThreadedBackend};
use crate::metrics::RunMetrics;
use crate::sanitizer::SanitizerReport;
use crate::sched::Sched;
use detlock_ir::module::Module;
use detlock_ir::types::FuncId;
use detlock_passes::cost::CostModel;
use std::cell::OnceCell;

pub use crate::checkpoint::{Checkpoint, ResumeError};
pub use crate::core::RoundProfile;

/// Execution mode (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Uninstrumented, nondeterministic locks.
    Baseline,
    /// Instrumented, nondeterministic locks.
    ClocksOnly,
    /// Instrumented, deterministic (DetLock).
    Det,
    /// Uninstrumented, deterministic: ticks are skipped, so logical
    /// clocks advance only through the scheduler (pair with
    /// [`Sched::Chunk`] for the paper's Table II simulated-Kendo
    /// baseline).
    Kendo,
}

impl ExecMode {
    pub(crate) fn executes_ticks(self) -> bool {
        matches!(self, ExecMode::ClocksOnly | ExecMode::Det)
    }

    pub(crate) fn deterministic(self) -> bool {
        matches!(self, ExecMode::Det | ExecMode::Kendo)
    }
}

/// Seeded OS-noise model: with probability `prob_num/prob_den` an
/// instruction takes `1..=max_extra` extra cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jitter {
    /// RNG seed (also perturbs baseline lock-grant rotation).
    pub seed: u64,
    /// Jitter probability numerator.
    pub prob_num: u32,
    /// Jitter probability denominator (0 disables jitter).
    pub prob_den: u32,
    /// Maximum extra cycles per jittered instruction.
    pub max_extra: u64,
}

impl Default for Jitter {
    fn default() -> Self {
        Jitter {
            seed: 1,
            prob_num: 1,
            prob_den: 64,
            max_extra: 3,
        }
    }
}

impl Jitter {
    /// A jitter config with a different seed (for determinism tests).
    pub fn with_seed(self, seed: u64) -> Jitter {
        Jitter { seed, ..self }
    }
}

/// One thread to run: an entry function and its arguments.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Entry function.
    pub func: FuncId,
    /// Arguments placed in the entry function's parameter registers.
    pub args: Vec<i64>,
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Execution mode.
    pub mode: ExecMode,
    /// Words of shared memory.
    pub mem_words: usize,
    /// OS-noise model.
    pub jitter: Jitter,
    /// Safety stop: the run fails (`hit_cycle_limit`) past this many cycles.
    pub max_cycles: u64,
    /// How many acquisition events to keep verbatim (hash covers all).
    pub lock_order_limit: usize,
    /// Protocol cost charged per deterministic lock acquisition in `Det` /
    /// `Kendo` modes: the arbitration rounds themselves are not free on
    /// real hardware (each turn check reads every other thread's clock
    /// cache line; the acquire publishes with fences — Kendo reports
    /// hundreds of cycles per deterministic lock operation). Baseline
    /// modes charge only the raw `sync` cost.
    pub det_event_cost: u64,
    /// Run the `detsan` happens-before sanitizer (see [`crate::sanitizer`])
    /// alongside execution. Off by default: the only cost of the disabled
    /// path is one pointer-null check per memory/sync operation; what the
    /// enabled path costs is the benchmark's `vm.sanitize.slowdown`.
    pub sanitize: bool,
    /// Which execution engine runs instructions (see [`crate::backend`]).
    /// Defaults to [`Backend::Interp`]. Not part of a [`Checkpoint`]'s
    /// fingerprint.
    pub backend: Backend,
    /// Which deterministic arbitration policy runs in `Det` / `Kendo`
    /// modes (see [`crate::sched`]). Defaults to [`Sched::Kendo`]. Unlike
    /// the backend, part of a [`Checkpoint`]'s fingerprint
    /// ([`ResumeError::SchedulerMismatch`]).
    pub scheduler: Sched,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mode: ExecMode::Baseline,
            mem_words: 1 << 16,
            jitter: Jitter::default(),
            max_cycles: 20_000_000_000,
            lock_order_limit: 100_000,
            det_event_cost: 120,
            sanitize: false,
            backend: Backend::Interp,
            scheduler: Sched::Kendo,
        }
    }
}

/// Per-checkpoint control returned by the sink passed to
/// [`Machine::run_with_checkpoints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptControl {
    /// Keep running.
    Continue,
    /// Stop now; the run returns [`RunOutcome::Aborted`]. The sink has
    /// already received the checkpoint at the abort point, so the caller
    /// can resume later from exactly here.
    Abort,
}

/// Result of a checkpointed run.
#[derive(Debug, PartialEq)]
pub enum RunOutcome {
    /// The program ran to completion (or hit the cycle limit).
    Finished {
        /// Whole-run metrics (identical to an uncheckpointed run).
        metrics: RunMetrics,
        /// Final shared memory image.
        memory: Vec<i64>,
        /// True when the cycle limit stopped the run.
        hit_limit: bool,
        /// Finalized sanitizer report, present iff
        /// [`MachineConfig::sanitize`] was set.
        sanitizer: Option<SanitizerReport>,
    },
    /// The sink aborted the run at a checkpoint boundary.
    Aborted {
        /// The cycle at which the run stopped (equal to the cycle of the
        /// last checkpoint handed to the sink).
        at_cycle: u64,
    },
}

/// The simulator. Build with [`Machine::new`], run with [`Machine::run`].
pub struct Machine<'m> {
    core: DetCore<'m>,
    exec: ExecImpl,
    /// [`config_fingerprint`] of the config, the cost model, the module and
    /// the thread count: stamped on every checkpoint the machine emits.
    /// Hashing the module's code costs about 40 ns an instruction, so a
    /// fresh machine pays it at its first snapshot, never if it takes none.
    fingerprint: OnceCell<u64>,
}

fn make_exec(module: &Module, cost: &CostModel, backend: Backend) -> ExecImpl {
    match backend {
        Backend::Interp => ExecImpl::Interp(InterpBackend),
        Backend::Threaded => ExecImpl::Threaded(ThreadedBackend {
            prog: lower(module, cost),
        }),
    }
}

impl<'m> Machine<'m> {
    /// Create a machine over `module` with one core per thread spec.
    pub fn new(
        module: &'m Module,
        cost: &'m CostModel,
        threads: &[ThreadSpec],
        cfg: MachineConfig,
    ) -> Machine<'m> {
        // A fresh machine is a machine resumed from its cycle-0 state.
        let state = RunState::new(module, threads, &cfg);
        Machine::from_state(module, cost, cfg, OnceCell::new(), state)
    }

    fn from_state(
        module: &'m Module,
        cost: &'m CostModel,
        cfg: MachineConfig,
        fingerprint: OnceCell<u64>,
        state: RunState,
    ) -> Machine<'m> {
        Machine {
            exec: make_exec(module, cost, cfg.backend),
            core: DetCore::new(module, cost, cfg, state),
            fingerprint,
        }
    }

    /// Run to completion (or the cycle limit). Returns metrics plus whether
    /// the limit was hit.
    pub fn run(self) -> (RunMetrics, bool) {
        let (metrics, _mem, hit) = self.run_with_memory();
        (metrics, hit)
    }

    /// Like [`Machine::run`], additionally returning the final shared
    /// memory — lets tests assert that deterministic runs converge to
    /// identical program *state*, not just identical lock orders.
    pub fn run_with_memory(self) -> (RunMetrics, Vec<i64>, bool) {
        let (metrics, mem, hit, _) = self.run_sanitized();
        (metrics, mem, hit)
    }

    /// Like [`Machine::run_with_memory`], additionally returning the
    /// finalized [`SanitizerReport`] when [`MachineConfig::sanitize`] was
    /// set (`None` otherwise).
    pub fn run_sanitized(mut self) -> (RunMetrics, Vec<i64>, bool, Option<SanitizerReport>) {
        self.drive(0, &mut |_| CkptControl::Continue);
        self.core.into_results()
    }

    /// Like [`Machine::run`], additionally returning what the round loop
    /// did to get there.
    pub fn run_profiled(mut self) -> (RunMetrics, bool, RoundProfile) {
        self.drive(0, &mut |_| CkptControl::Continue);
        let profile = std::mem::take(&mut self.core.profile);
        let (metrics, _, hit, _) = self.core.into_results();
        (metrics, hit, profile)
    }

    /// The one run loop: rounds until every thread is done or the cycle
    /// limit is reached, with a snapshot handed to `sink` at every multiple
    /// of `every` cycles after the one the run starts at (`every = 0`:
    /// never). Returns the cycle at which the sink aborted the run, if it
    /// did.
    fn drive(
        &mut self,
        every: u64,
        sink: &mut dyn FnMut(&Checkpoint) -> CkptControl,
    ) -> Option<u64> {
        let n = self.core.state.threads.len();
        let max = self.core.cfg.max_cycles;
        let mut boundary = match every {
            0 => u64::MAX,
            e => (self.core.state.cycle / e + 1).saturating_mul(e),
        };
        self.core.next_stop = boundary.min(max);
        while self.core.state.done_count < n && self.core.state.cycle < max {
            let cycle = self.core.state.cycle;
            if cycle == boundary {
                if sink(&self.snapshot()) == CkptControl::Abort {
                    return Some(cycle);
                }
                boundary = boundary.saturating_add(every);
                self.core.next_stop = boundary.min(max);
            }
            self.core.round(&self.exec);
        }
        None
    }

    /// Run with a checkpoint sink: every `every` cycles (a round boundary
    /// of the arbiter loop — the snapshot is a pure read between rounds, so
    /// placement cannot perturb the schedule) the sink receives a
    /// [`Checkpoint`] and decides whether to continue or abort. `every = 0`
    /// disables checkpointing entirely. On a machine built by
    /// [`Machine::resume`], the first sink call happens one full interval
    /// *after* the resume point, not at it.
    pub fn run_with_checkpoints(
        mut self,
        every: u64,
        sink: &mut dyn FnMut(&Checkpoint) -> CkptControl,
    ) -> RunOutcome {
        if let Some(at_cycle) = self.drive(every, sink) {
            return RunOutcome::Aborted { at_cycle };
        }
        let (metrics, memory, hit_limit, sanitizer) = self.core.into_results();
        RunOutcome::Finished {
            metrics,
            memory,
            hit_limit,
            sanitizer,
        }
    }

    /// Take a [`Checkpoint`] of the current state (a pure read).
    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: *self.fingerprint.get_or_init(|| {
                let core = &self.core;
                config_fingerprint(&core.cfg, core.cost, core.module, core.state.threads.len())
            }),
            sched: self.core.cfg.scheduler,
            state: self.core.run_state(),
        }
    }

    /// Rebuild a machine from a checkpoint, continuing exactly where the
    /// snapshot was taken. `module`, `cost`, and `cfg` must match what the
    /// checkpoint was taken under — the scheduling policy and the
    /// structural fingerprint are checked and a mismatch is refused with a
    /// typed [`ResumeError`] rather than allowed to silently diverge (the
    /// [`Backend`] is the one config knob allowed to differ).
    pub fn resume(
        module: &'m Module,
        cost: &'m CostModel,
        cfg: MachineConfig,
        ckpt: &Checkpoint,
    ) -> Result<Machine<'m>, ResumeError> {
        if cfg.scheduler != ckpt.sched {
            return Err(ResumeError::SchedulerMismatch {
                checkpoint: ckpt.sched,
                requested: cfg.scheduler,
            });
        }
        let fp = config_fingerprint(&cfg, cost, module, ckpt.state.threads.len());
        if fp != ckpt.fingerprint {
            return Err(ResumeError::ConfigMismatch {
                checkpoint: ckpt.fingerprint,
                machine: fp,
            });
        }
        let state = ckpt.state.clone();
        Ok(Machine::from_state(module, cost, cfg, fp.into(), state))
    }
}

/// Run a module on the simulator — the main entry point.
pub fn run(
    module: &Module,
    cost: &CostModel,
    threads: &[ThreadSpec],
    cfg: MachineConfig,
) -> (RunMetrics, bool) {
    Machine::new(module, cost, threads, cfg).run()
}
