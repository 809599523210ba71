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
//! The machine is split in two. [`DetCore`] owns everything that makes a
//! run deterministic and measurable — thread states, logical clocks, the
//! min-`(clock, tid)` arbiter, lock/barrier tables, the trace hasher,
//! checkpoints, and the sanitizer hooks. How the *next instruction of a
//! ready thread* is fetched, applied, and charged is delegated to an
//! [`ExecBackend`]: either the tree-walking interpreter in this module (the
//! oracle) or the threaded-code engine in [`crate::lower`] that runs a flat
//! pre-decoded program. Both backends drive the identical core, charge the
//! identical costs in the identical order (so the jitter RNG draws agree),
//! and report the identical `(func, block, ip)` sites to the sanitizer —
//! which is what makes cross-backend trace hashes, receipts, metrics,
//! sanitizer reports, and even checkpoints byte-compatible.

use crate::backend::Backend;
use crate::builtins;
use crate::metrics::{OrderHasher, RunMetrics, ThreadMetrics};
use crate::sanitizer::{Sanitizer, SanitizerReport};
use crate::sched::{ChunkParams, Decision, Lease, Phase, Sched, ThreadView};
use detlock_ir::inst::{Inst, Operand, Terminator};
use detlock_ir::module::Module;
use detlock_ir::types::{BlockId, FuncId, Reg};
use detlock_passes::cost::CostModel;
use detlock_shim::rng::SmallRng;
use std::collections::HashMap;

/// CoreDet-style bulk-synchronous parameters (paper §II): execution
/// proceeds in fixed quanta; threads that exhaust their quantum or reach a
/// synchronization operation wait for the round barrier; a commit phase
/// (publishing the round's store buffers) stalls everyone, then pending
/// synchronization operations run serially in thread-id order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BulkSyncParams {
    /// Cycles each thread may execute per round.
    pub quantum: u64,
    /// Fixed commit-phase cost per round.
    pub commit_base: u64,
    /// Additional commit cost per store executed in the round.
    pub commit_per_store: u64,
}

impl Default for BulkSyncParams {
    fn default() -> Self {
        BulkSyncParams {
            quantum: 2000,
            commit_base: 300,
            commit_per_store: 2,
        }
    }
}

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
    /// Uninstrumented; lock grants forced to follow a recorded log
    /// (see [`crate::replay`]). Ticks are skipped and no clock arbitration
    /// runs — determinism comes entirely from the log.
    Replay,
    /// Uninstrumented; CoreDet-style deterministic rounds (see
    /// [`BulkSyncParams`]). No logical clocks: determinism comes from the
    /// quantum barrier and the serial sync phase.
    BulkSync(BulkSyncParams),
}

impl ExecMode {
    pub(crate) fn executes_ticks(self) -> bool {
        matches!(self, ExecMode::ClocksOnly | ExecMode::Det)
    }

    fn deterministic(self) -> bool {
        matches!(self, ExecMode::Det | ExecMode::Kendo)
    }

    fn replayed(self) -> bool {
        matches!(self, ExecMode::Replay)
    }

    pub(crate) fn bulk_sync(self) -> Option<BulkSyncParams> {
        match self {
            ExecMode::BulkSync(p) => Some(p),
            _ => None,
        }
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
    /// Simulated core frequency (paper testbed: 2.66 GHz).
    pub ghz: f64,
    /// How many acquisition events to keep verbatim (hash covers all).
    pub lock_order_limit: usize,
    /// Protocol cost charged per deterministic lock acquisition in `Det` /
    /// `Kendo` modes: the arbitration rounds themselves are not free on
    /// real hardware (each turn check reads every other thread's clock
    /// cache line; the acquire publishes with fences — Kendo reports
    /// hundreds of cycles per deterministic lock operation). Baseline
    /// modes charge only the raw `sync` cost.
    pub det_event_cost: u64,
    /// The grant log consulted in [`ExecMode::Replay`] (set by
    /// [`crate::replay::replay`]).
    pub replay_log: std::sync::Arc<Vec<(i64, u32)>>,
    /// Run the `detsan` happens-before sanitizer (see [`crate::sanitizer`])
    /// alongside execution. Off by default: the only cost of the disabled
    /// path is one pointer-null check per memory/sync operation, which the
    /// perf gate holds to zero measurable overhead.
    pub sanitize: bool,
    /// Which execution engine runs instructions (see [`crate::backend`]).
    /// Defaults to [`Backend::resolve`] — a `--backend` flag or the
    /// `DETLOCK_BACKEND` env var reroutes every default-constructed config
    /// in the process. Deliberately *excluded* from the checkpoint
    /// fingerprint: both backends execute bit-identically, so a checkpoint
    /// taken under one may be resumed under the other.
    pub backend: Backend,
    /// Which deterministic arbitration policy runs in `Det` / `Kendo`
    /// modes (see [`crate::sched`]). Defaults to [`Sched::resolve`] — a
    /// `--scheduler` flag or the `DETLOCK_SCHEDULER` env var reroutes
    /// every default-constructed config. Unlike the backend, the
    /// scheduler *is* folded into the checkpoint fingerprint: policies
    /// produce genuinely different schedules, so resuming under a
    /// different one is refused (see [`ResumeError::SchedulerMismatch`]).
    pub scheduler: Sched,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mode: ExecMode::Baseline,
            mem_words: 1 << 16,
            jitter: Jitter::default(),
            max_cycles: 20_000_000_000,
            ghz: 2.66,
            lock_order_limit: 100_000,
            det_event_cost: 120,
            replay_log: std::sync::Arc::new(Vec::new()),
            sanitize: false,
            backend: Backend::resolve(),
            scheduler: Sched::resolve(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Status {
    Ready,
    AcquiringLock(i64),
    AcquiringBarrier(u32),
    InBarrier(u32),
    /// Bulk-sync mode: quantum exhausted; waiting for the round barrier.
    QuantumDone,
    ExitWait,
    Done,
}

impl Status {
    /// `(tag, payload)`: the status as two words, for checkpoint digests;
    /// the tag also indexes [`RoundProfile::steps`].
    fn code(self) -> (u64, u64) {
        match self {
            Status::Ready => (0, 0),
            Status::AcquiringLock(id) => (1, id as u64),
            Status::AcquiringBarrier(id) => (2, id as u64),
            Status::InBarrier(id) => (3, id as u64),
            Status::QuantumDone => (4, 0),
            Status::ExitWait => (5, 0),
            Status::Done => (6, 0),
        }
    }
}

/// A call-stack frame. `Copy` so the hot loop reads it off the stack
/// without cloning a heap structure per step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) block: BlockId,
    pub(crate) ip: usize,
    pub(crate) reg_base: usize,
    pub(crate) ret_dst: Option<Reg>,
}

#[derive(Clone)]
pub(crate) struct Thread {
    pub(crate) status: Status,
    pub(crate) frames: Vec<Frame>,
    pub(crate) regs: Vec<i64>,
    pub(crate) clock: u64,
    pub(crate) pending: u64,
    /// Bulk-sync: cycles left in the current quantum.
    pub(crate) quantum_left: u64,
    /// Bulk-sync: stores executed this round (drives the commit cost).
    pub(crate) round_stores: u64,
    pub(crate) rng: SmallRng,
    pub(crate) m: ThreadMetrics,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct LockState {
    pub(crate) held_by: Option<u32>,
    pub(crate) release_clock: Option<u64>,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct BarrierState {
    pub(crate) arrivals: Vec<u32>,
}

/// A deterministic snapshot of a running [`Machine`].
///
/// Captures *all* mutable machine state — per-thread frames, registers,
/// logical clocks, pending acquisitions, jitter-RNG positions, the shared
/// memory image, lock/barrier tables, and the trace-hash prefix — so that
/// [`Machine::resume`] continues the run exactly where the snapshot was
/// taken. Because snapshots are pure reads placed at round boundaries of
/// the min-clock arbiter (see [`Machine::run_with_checkpoints`]),
/// checkpoint placement cannot perturb the schedule: a resumed run
/// produces byte-identical final metrics (and hence receipts) to the
/// uninterrupted run.
///
/// A checkpoint is tied to the (module, config, thread-count) it was taken
/// under via a [`fingerprint`](Checkpoint::fingerprint); `resume` refuses a
/// mismatched fingerprint rather than silently diverging. It is plain data
/// (`Clone + Send`), so a serving layer can hand it to another worker —
/// cross-shard migration is sound exactly when both shards compiled the
/// byte-identical module, which the fingerprint asserts structurally.
/// The execution [`Backend`] is *not* part of the fingerprint: both
/// backends are bit-identical executors of the same module, so a shard may
/// resume an interpreter checkpoint on the threaded engine (and vice
/// versa) — the checkpoint/restore tests pin this down. The scheduling
/// policy is the inverse case: a checkpoint records its [`Sched`] and
/// [`Machine::resume`] refuses a different one with a typed
/// [`ResumeError::SchedulerMismatch`], because two policies continue the
/// run with genuinely different schedules.
#[derive(Clone)]
pub struct Checkpoint {
    fingerprint: u64,
    sched: Sched,
    cycle: u64,
    threads: Vec<Thread>,
    mem: Vec<i64>,
    locks: HashMap<i64, LockState>,
    barriers: HashMap<u32, BarrierState>,
    hasher: OrderHasher,
    lock_order: Vec<(i64, u32)>,
    done_count: usize,
    replay_pos: usize,
    commit_stall: u64,
    /// Sanitizer state at the snapshot (present iff the run sanitizes), so
    /// resume-from-checkpoint reports the same races as run-from-zero.
    san: Option<Box<Sanitizer>>,
}

fn fnv_fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

impl Checkpoint {
    /// The cycle at which this snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Threads that had already finished when the snapshot was taken.
    pub fn done_count(&self) -> usize {
        self.done_count
    }

    /// The trace-hash prefix: the FNV-1a fold over every `(lock, tid)`
    /// acquisition event that happened before the snapshot.
    pub fn trace_hash_prefix(&self) -> u64 {
        self.hasher.value()
    }

    /// The (module, config, thread-count) fingerprint this checkpoint is
    /// valid against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The scheduling policy the snapshot was taken under — the only
    /// policy it may resume on.
    pub fn scheduler(&self) -> Sched {
        self.sched
    }

    /// Approximate heap footprint in bytes (memory image + registers),
    /// for capacity accounting in serving layers.
    pub fn approx_bytes(&self) -> usize {
        let regs: usize = self.threads.iter().map(|t| t.regs.len()).sum();
        (self.mem.len() + regs) * std::mem::size_of::<i64>()
    }

    /// A deep digest of the snapshot: two runs of the same program that
    /// agree on this value at a given cycle are in *identical* machine
    /// states (same frames, registers, clocks, memory, lock tables, RNG
    /// positions) and will therefore evolve identically. Used by tests to
    /// assert state convergence, not just trace-hash convergence.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        fnv_fold(&mut h, self.fingerprint);
        for w in self.sched.fingerprint_words() {
            fnv_fold(&mut h, w);
        }
        fnv_fold(&mut h, self.cycle);
        fnv_fold(&mut h, self.done_count as u64);
        fnv_fold(&mut h, self.replay_pos as u64);
        fnv_fold(&mut h, self.commit_stall);
        fnv_fold(&mut h, self.hasher.value());
        for &w in &self.mem {
            fnv_fold(&mut h, w as u64);
        }
        for th in &self.threads {
            let (tag, payload) = th.status.code();
            fnv_fold(&mut h, tag);
            fnv_fold(&mut h, payload);
            fnv_fold(&mut h, th.clock);
            fnv_fold(&mut h, th.pending);
            fnv_fold(&mut h, th.quantum_left);
            fnv_fold(&mut h, th.round_stores);
            for s in th.rng.state() {
                fnv_fold(&mut h, s);
            }
            for &r in &th.regs {
                fnv_fold(&mut h, r as u64);
            }
            for f in &th.frames {
                fnv_fold(&mut h, f.func.index() as u64);
                fnv_fold(&mut h, f.block.index() as u64);
                fnv_fold(&mut h, f.ip as u64);
                fnv_fold(&mut h, f.reg_base as u64);
                fnv_fold(&mut h, f.ret_dst.map(|r| r.index() as u64 + 1).unwrap_or(0));
            }
        }
        let mut lock_ids: Vec<i64> = self.locks.keys().copied().collect();
        lock_ids.sort_unstable();
        for id in lock_ids {
            let st = &self.locks[&id];
            fnv_fold(&mut h, id as u64);
            fnv_fold(&mut h, st.held_by.map(|t| t as u64 + 1).unwrap_or(0));
            fnv_fold(&mut h, st.release_clock.map(|c| c + 1).unwrap_or(0));
        }
        let mut bar_ids: Vec<u32> = self.barriers.keys().copied().collect();
        bar_ids.sort_unstable();
        for id in bar_ids {
            fnv_fold(&mut h, id as u64);
            for &a in &self.barriers[&id].arrivals {
                fnv_fold(&mut h, a as u64);
            }
        }
        match &self.san {
            Some(s) => {
                fnv_fold(&mut h, 1);
                fnv_fold(&mut h, s.digest());
            }
            None => fnv_fold(&mut h, 0),
        }
        h
    }
}

/// Structural fingerprint binding a checkpoint to what it may resume on:
/// the execution mode (with parameters), scheduling policy (with
/// parameters), jitter model, memory geometry, cost-relevant config,
/// thread count, and the module shape. Two shards that compiled the same
/// plan-cache entry agree on all of these. The execution [`Backend`] is
/// deliberately not folded in — backends are bit-identical, so resuming a
/// checkpoint on the other engine is sound (and exercised by the
/// cross-backend checkpoint tests). The scheduler *is* folded in: see
/// [`ResumeError::SchedulerMismatch`].
fn config_fingerprint(cfg: &MachineConfig, module: &Module, n_threads: usize) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let (mode_tag, a, b, c) = match cfg.mode {
        ExecMode::Baseline => (0u64, 0u64, 0u64, 0u64),
        ExecMode::ClocksOnly => (1, 0, 0, 0),
        ExecMode::Det => (2, 0, 0, 0),
        ExecMode::Kendo => (3, 0, 0, 0),
        ExecMode::Replay => (4, 0, 0, 0),
        ExecMode::BulkSync(bp) => (5, bp.quantum, bp.commit_base, bp.commit_per_store),
    };
    for v in [mode_tag, a, b, c] {
        fnv_fold(&mut h, v);
    }
    for v in cfg.scheduler.fingerprint_words() {
        fnv_fold(&mut h, v);
    }
    fnv_fold(&mut h, cfg.jitter.seed);
    fnv_fold(&mut h, cfg.jitter.prob_num as u64);
    fnv_fold(&mut h, cfg.jitter.prob_den as u64);
    fnv_fold(&mut h, cfg.jitter.max_extra);
    fnv_fold(&mut h, cfg.mem_words as u64);
    fnv_fold(&mut h, cfg.det_event_cost);
    fnv_fold(&mut h, cfg.lock_order_limit as u64);
    fnv_fold(&mut h, n_threads as u64);
    fnv_fold(&mut h, cfg.sanitize as u64);
    fnv_fold(&mut h, cfg.replay_log.len() as u64);
    fnv_fold(&mut h, module.functions.len() as u64);
    for f in &module.functions {
        fnv_fold(&mut h, f.blocks.len() as u64);
        fnv_fold(&mut h, f.num_regs as u64);
        let insts: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        fnv_fold(&mut h, insts as u64);
    }
    h
}

/// Why [`Machine::resume`] refused a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was taken under a different scheduling policy (or
    /// the same policy with different parameters). Unlike the execution
    /// backend — which is excluded from the fingerprint because both
    /// engines execute the one schedule bit-identically — the scheduler
    /// *defines* the schedule: resuming under another policy would
    /// continue the run with a different lock order than it started with,
    /// silently breaking receipt and trace-hash stability.
    SchedulerMismatch {
        /// The policy the checkpoint was taken under.
        checkpoint: Sched,
        /// The policy the resuming config requested.
        requested: Sched,
    },
    /// The structural fingerprints disagree: different module, config, or
    /// thread count.
    ConfigMismatch {
        /// The checkpoint's fingerprint.
        checkpoint: u64,
        /// The fingerprint of the config/module offered for resume.
        machine: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::SchedulerMismatch {
                checkpoint,
                requested,
            } => write!(
                f,
                "checkpoint was taken under scheduler '{checkpoint}' but resume requested \
                 '{requested}' (schedulers define the schedule and are not interchangeable)"
            ),
            ResumeError::ConfigMismatch {
                checkpoint,
                machine,
            } => write!(
                f,
                "checkpoint fingerprint mismatch: checkpoint 0x{checkpoint:016x} vs machine \
                 0x{machine:016x} (different module, config, or thread count)"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

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

pub(crate) enum Action {
    None,
    /// A tick skipped in a mode that does not execute ticks: the
    /// uninstrumented binary never contained it, so it must not consume a
    /// cycle either — the stepper immediately retries the next instruction.
    Free,
    Lock(i64),
    Unlock(i64),
    Barrier(u32),
    Exited,
}

/// One instruction executor. The contract is strict: an implementation
/// must fetch/apply/charge exactly as the interpreter does — same metric
/// increments, same [`DetCore::charge`] calls in the same order (the
/// jitter RNG is positional), same sanitizer sites, same frame coordinate
/// updates — so that every observable artifact (trace hash, receipt,
/// metrics, sanitizer report, checkpoint digest) is backend-invariant.
pub(crate) trait ExecBackend {
    /// Fetch, apply, and charge the next instruction (or terminator) of
    /// thread `t`. Returns the synchronization action, if any.
    fn exec_next(&self, core: &mut DetCore<'_>, t: usize) -> Action;
}

/// The tree-walking interpreter: decodes IR on every step. The oracle.
pub(crate) struct InterpBackend;

impl ExecBackend for InterpBackend {
    #[inline]
    fn exec_next(&self, core: &mut DetCore<'_>, t: usize) -> Action {
        core.interp_exec_next(t)
    }
}

/// Static enum dispatch over the two backends (no vtable in the hot loop).
pub(crate) enum ExecImpl {
    Interp(InterpBackend),
    Threaded(crate::lower::ThreadedBackend),
}

/// The backend-agnostic determinism and scheduling core: arbitration,
/// clocks, lock/barrier tables, metrics, checkpoints, sanitizer. Shared
/// verbatim by both execution backends; the only thing a backend supplies
/// is [`ExecBackend::exec_next`].
pub(crate) struct DetCore<'m> {
    pub(crate) module: &'m Module,
    pub(crate) cost: &'m CostModel,
    pub(crate) cfg: MachineConfig,
    /// [`config_fingerprint`] of (`cfg`, `module`, thread count): fixed for
    /// the machine's life and stamped on every [`Checkpoint`] it emits.
    fingerprint: u64,
    pub(crate) threads: Vec<Thread>,
    pub(crate) mem: Vec<i64>,
    pub(crate) locks: HashMap<i64, LockState>,
    pub(crate) barriers: HashMap<u32, BarrierState>,
    pub(crate) hasher: OrderHasher,
    pub(crate) lock_order: Vec<(i64, u32)>,
    pub(crate) cycle: u64,
    pub(crate) done_count: usize,
    pub(crate) replay_pos: usize,
    /// Bulk-sync: remaining commit-phase stall cycles.
    pub(crate) commit_stall: u64,
    /// Happens-before sanitizer (`None` unless `cfg.sanitize`): the
    /// disabled path costs exactly one null check per hook site.
    pub(crate) san: Option<Box<Sanitizer>>,
    /// Chunked store-counter parameters, hoisted out of `cfg.scheduler`:
    /// `Some` iff the mode is deterministic and the policy drives clocks
    /// from retired stores. Consulted on every store retirement and by
    /// the threaded backend's fusion gate. Derived, never checkpointed.
    pub(crate) chunk: Option<ChunkParams>,
    /// `cfg.mode` is [`ExecMode::BulkSync`], hoisted: consulted by every
    /// round and step.
    bulk: bool,
    /// Scratch view buffer handed to the scheduler each round — rebuilt
    /// per round, so not part of a [`Checkpoint`].
    views: Vec<ThreadView>,
    /// What the round loop has done so far. Like `views`, about the
    /// simulator rather than the simulated run: not part of a
    /// [`Checkpoint`], of [`RunMetrics`] or of anything compared for
    /// identity.
    profile: RoundProfile,
    /// Scratch buffer for builtin-call argument evaluation — transient
    /// within one `exec_next`, so it is *not* part of a [`Checkpoint`].
    pub(crate) scratch_args: Vec<i64>,
    /// Checkpoint interval of the driving loop (0 = none). Derived from the
    /// caller each run — not machine state, so not part of a [`Checkpoint`]
    /// — and consulted only to stop the time advance in [`DetCore::round`]
    /// (and a fused run in the threaded backend) at a snapshot boundary.
    pub(crate) ckpt_every: u64,
    /// `mem.len() - 1` when the memory size is a power of two: address
    /// wrapping then becomes a mask instead of a 64-bit `rem_euclid`
    /// division per load/store. Derived from `mem`, never checkpointed.
    pub(crate) mem_mask: Option<u64>,
}

/// The rotation multiplier (64-bit golden ratio; Weyl sequence over tids).
const ROT_MUL: u64 = 0x9e3779b97f4a7c15;

/// Work counters of the round loop, for `dlc --profile`: how much of a run
/// was executed round by round and how much was advanced in closed form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// Rounds executed in full: a scheduler decision (deterministic modes)
    /// and one step per thread.
    pub event_rounds: u64,
    /// Cycles advanced without a round, as counter arithmetic.
    pub skipped_cycles: u64,
    /// Of those, cycles in which a blocked turn holder's bump-and-retry
    /// was folded into one addition.
    pub collapsed_bumps: u64,
    /// Calls of [`Sched::decide`].
    pub decide_calls: u64,
    /// `step` calls by the status they found the thread in, in the order
    /// of [`RoundProfile::STATUS`].
    pub steps: [u64; 7],
}

impl RoundProfile {
    /// Labels for [`RoundProfile::steps`].
    pub const STATUS: [&'static str; 7] = [
        "ready",
        "acquiring-lock",
        "acquiring-barrier",
        "in-barrier",
        "quantum-done",
        "exit-wait",
        "done",
    ];
}

/// The simulator. Build with [`Machine::new`], run with [`Machine::run`].
pub struct Machine<'m> {
    core: DetCore<'m>,
    exec: ExecImpl,
}

/// Chunked store-counter parameters in effect for a config: the policy's
/// chunk knobs, active only in deterministic modes (nondeterministic
/// modes never consult the scheduler, so their clocks must not move).
fn chunk_of(cfg: &MachineConfig) -> Option<ChunkParams> {
    if cfg.mode.deterministic() {
        cfg.scheduler.chunk_params()
    } else {
        None
    }
}

fn make_exec(module: &Module, cost: &CostModel, backend: Backend) -> ExecImpl {
    match backend {
        Backend::Interp => ExecImpl::Interp(InterpBackend),
        Backend::Threaded => ExecImpl::Threaded(crate::lower::ThreadedBackend::new(
            crate::lower::lowered(module, cost),
        )),
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
        assert!(!threads.is_empty(), "need at least one thread");
        let threads: Vec<Thread> = threads
            .iter()
            .enumerate()
            .map(|(tid, spec)| {
                let func = &module.functions[spec.func.index()];
                assert!(
                    spec.args.len() == func.params as usize,
                    "thread {tid}: entry {} expects {} args, got {}",
                    func.name,
                    func.params,
                    spec.args.len()
                );
                let mut regs = vec![0i64; func.num_regs as usize];
                regs[..spec.args.len()].copy_from_slice(&spec.args);
                Thread {
                    status: Status::Ready,
                    frames: vec![Frame {
                        func: spec.func,
                        block: BlockId(0),
                        ip: 0,
                        reg_base: 0,
                        ret_dst: None,
                    }],
                    regs,
                    clock: 0,
                    pending: 0,
                    quantum_left: match cfg.mode {
                        ExecMode::BulkSync(p) => p.quantum,
                        _ => u64::MAX,
                    },
                    round_stores: 0,
                    rng: SmallRng::seed_from_u64(
                        cfg.jitter.seed ^ (tid as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    ),
                    m: ThreadMetrics::default(),
                }
            })
            .collect();
        // A fresh machine is a machine resumed from its cycle-0 state.
        let initial = Checkpoint {
            fingerprint: config_fingerprint(&cfg, module, threads.len()),
            sched: cfg.scheduler,
            cycle: 0,
            mem: vec![0i64; cfg.mem_words.max(1)],
            locks: HashMap::new(),
            barriers: HashMap::new(),
            hasher: OrderHasher::new(),
            lock_order: Vec::new(),
            done_count: 0,
            replay_pos: 0,
            commit_stall: 0,
            san: cfg
                .sanitize
                .then(|| Box::new(Sanitizer::new(threads.len()))),
            threads,
        };
        Machine::from_state(module, cost, cfg, initial)
    }

    /// The one place a core is assembled: the checkpointed state moves in
    /// and everything derived (chunk knobs, memory mask, scratch buffers,
    /// the backend) is rebuilt from `cfg` and that state.
    fn from_state(
        module: &'m Module,
        cost: &'m CostModel,
        cfg: MachineConfig,
        state: Checkpoint,
    ) -> Machine<'m> {
        let exec = make_exec(module, cost, cfg.backend);
        let chunk = chunk_of(&cfg);
        let mem_mask = state
            .mem
            .len()
            .is_power_of_two()
            .then(|| state.mem.len() as u64 - 1);
        Machine {
            core: DetCore {
                module,
                cost,
                bulk: cfg.mode.bulk_sync().is_some(),
                cfg,
                fingerprint: state.fingerprint,
                threads: state.threads,
                mem: state.mem,
                locks: state.locks,
                barriers: state.barriers,
                hasher: state.hasher,
                lock_order: state.lock_order,
                cycle: state.cycle,
                done_count: state.done_count,
                replay_pos: state.replay_pos,
                commit_stall: state.commit_stall,
                san: state.san,
                chunk,
                views: Vec::new(),
                profile: RoundProfile::default(),
                scratch_args: Vec::new(),
                ckpt_every: 0,
                mem_mask,
            },
            exec,
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
        self.drive();
        self.core.into_results()
    }

    /// Like [`Machine::run`], additionally returning what the round loop
    /// did to get there.
    pub fn run_profiled(mut self) -> (RunMetrics, bool, RoundProfile) {
        self.drive();
        let profile = std::mem::take(&mut self.core.profile);
        let (metrics, _, hit, _) = self.core.into_results();
        (metrics, hit, profile)
    }

    fn drive(&mut self) {
        let n = self.core.threads.len();
        while self.core.done_count < n && self.core.cycle < self.core.cfg.max_cycles {
            self.core.round(&self.exec);
        }
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
        let n = self.core.threads.len();
        let resumed_at = self.core.cycle;
        self.core.ckpt_every = every;
        while self.core.done_count < n && self.core.cycle < self.core.cfg.max_cycles {
            if every > 0 && self.core.cycle.is_multiple_of(every) && self.core.cycle != resumed_at {
                let ckpt = self.snapshot();
                if sink(&ckpt) == CkptControl::Abort {
                    return RunOutcome::Aborted {
                        at_cycle: self.core.cycle,
                    };
                }
            }
            self.core.round(&self.exec);
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
        let core = &self.core;
        Checkpoint {
            fingerprint: core.fingerprint,
            sched: core.cfg.scheduler,
            cycle: core.cycle,
            threads: core.threads.clone(),
            mem: core.mem.clone(),
            locks: core.locks.clone(),
            barriers: core.barriers.clone(),
            hasher: core.hasher.clone(),
            lock_order: core.lock_order.clone(),
            done_count: core.done_count,
            replay_pos: core.replay_pos,
            commit_stall: core.commit_stall,
            san: core.san.clone(),
        }
    }

    /// Rebuild a machine from a checkpoint, continuing exactly where the
    /// snapshot was taken. `module`, `cost`, and `cfg` must match what the
    /// checkpoint was taken under — the scheduling policy and the
    /// structural fingerprint are checked and a mismatch is refused with a
    /// typed [`ResumeError`] rather than allowed to silently diverge (the
    /// [`Backend`] is the one config knob allowed to differ). The caller
    /// is responsible for passing the *same* compiled module
    /// (byte-identical compiles, e.g. from a shared plan cache, qualify).
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
        let fp = config_fingerprint(&cfg, module, ckpt.threads.len());
        if fp != ckpt.fingerprint {
            return Err(ResumeError::ConfigMismatch {
                checkpoint: ckpt.fingerprint,
                machine: fp,
            });
        }
        Ok(Machine::from_state(module, cost, cfg, ckpt.clone()))
    }
}

impl<'m> DetCore<'m> {
    /// One iteration of the main loop: advance simulated time to the next
    /// event in closed form, then execute that event's round — one arbiter
    /// decision and one step per thread. Returns early, without the round,
    /// when the advance reaches `max_cycles` or a checkpoint boundary.
    fn round(&mut self, exec: &ExecImpl) {
        // One enum match per *round*, not per step: `round_inner` is
        // monomorphized per backend, so every `exec_next` call below is a
        // direct (inlinable) call instead of a dispatch in the hot loop.
        match exec {
            ExecImpl::Interp(b) => self.round_inner(b),
            ExecImpl::Threaded(b) => self.round_inner(b),
        }
    }

    fn round_inner<B: ExecBackend>(&mut self, exec: &B) {
        let n = self.threads.len();
        if self.bulk {
            if self.commit_stall > 0 {
                // Commit phase: every thread stalls.
                self.commit_stall -= 1;
                for th in self.threads.iter_mut() {
                    if th.status != Status::Done {
                        th.m.wait_cycles += 1;
                    }
                }
                self.cycle += 1;
                return;
            }
            if self.bulk_round_complete() {
                self.bulk_serial_phase();
                self.cycle += 1;
                return;
            }
        }
        // One pass over the threads fills the scheduler's view and finds
        // the earliest instruction issue: the smallest countdown of a
        // Ready thread.
        let mut issue = u64::MAX;
        self.views.clear();
        for th in &self.threads {
            let phase = match th.status {
                Status::Done => Phase::Done,
                Status::Ready => {
                    issue = issue.min(th.pending);
                    Phase::Runnable
                }
                Status::AcquiringLock(_) | Status::AcquiringBarrier(_) | Status::ExitWait => {
                    Phase::Arbitrating
                }
                // Parked: no turn participation.
                Status::InBarrier(_) | Status::QuantumDone => Phase::Parked,
            };
            self.views.push(ThreadView {
                phase,
                clock: th.clock,
            });
        }
        // Next-event time advance. Until a thread issues an instruction or
        // a synchronization event fires, a round only moves counters: a
        // Ready thread counts down, a waiting one accrues a wait cycle and
        // a blocked turn holder bumps its clock. No RNG is drawn and the
        // lock and barrier tables stand still, so those `k` rounds are
        // applied as arithmetic — repeatedly while only the turn moves on,
        // which changes who bumps. Stopping at `max_cycles` and at every
        // checkpoint boundary keeps the advance invisible to snapshots,
        // crash plans and all metrics.
        while issue > 0 {
            let (quiet, bumper) = self.quiet_rounds();
            if quiet == 0 {
                break;
            }
            let mut stop = self.cfg.max_cycles - self.cycle;
            if self.ckpt_every > 0 {
                stop = stop.min(self.ckpt_every - self.cycle % self.ckpt_every);
            }
            let k = issue.min(quiet).min(stop);
            for th in self.threads.iter_mut() {
                match th.status {
                    Status::Done => {}
                    Status::Ready => {
                        th.pending -= k;
                        th.m.busy_cycles += k;
                    }
                    _ => th.m.wait_cycles += k,
                }
            }
            if let Some(t) = bumper {
                self.threads[t].clock += k;
                self.threads[t].m.lock_clock_bumps += k;
                self.views[t].clock += k;
                self.profile.collapsed_bumps += k;
            }
            self.cycle += k;
            self.profile.skipped_cycles += k;
            if k == stop {
                return;
            }
            // `u64::MAX` stands for "no Ready thread" and stays.
            if issue != u64::MAX {
                issue -= k;
            }
        }
        self.profile.event_rounds += 1;
        // Deterministic modes delegate the round's synchronization
        // decision to the policy; nondeterministic modes never consult it
        // (their grants are FCFS / replayed / bulk-serial).
        let turn = if self.cfg.mode.deterministic() {
            self.profile.decide_calls += 1;
            match self.cfg.scheduler.decide(&self.views) {
                Decision::Turn(t) => t,
                Decision::Batch(order) => {
                    self.commit_batch(&order);
                    self.cycle += 1;
                    return;
                }
            }
        } else {
            None
        };
        // Rotate the service order so baseline FCFS has no fixed
        // lowest-tid bias; in deterministic modes only the turn holder
        // acts on sync events, so there the rotation only orders same-cycle
        // memory accesses.
        let rot = self
            .cycle
            .wrapping_mul(ROT_MUL)
            .wrapping_add(self.cfg.jitter.seed);
        let start = (rot % n as u64) as usize;
        // Every thread is stepped; `step` moves those it does not find
        // `Ready` to their own slot. Counting the common case here, once
        // per round, keeps the counter out of the per-step path.
        self.profile.steps[0] += n as u64;
        for i in 0..n {
            // `start + i < 2n`: a conditional subtraction, not a modulo.
            let mut t = start + i;
            if t >= n {
                t -= n;
            }
            self.step(t, turn, exec);
        }
        self.cycle += 1;
    }

    /// The synchronization half of the time advance: for how many rounds
    /// from now no synchronization event can fire (the caller bounds this
    /// by the earliest instruction issue, which is also the earliest a
    /// lock can be released), and which thread, if any, spends those
    /// rounds bumping its clock.
    fn quiet_rounds(&self) -> (u64, Option<usize>) {
        if self.bulk {
            // Quantum bookkeeping runs per cycle.
            return (0, None);
        }
        if !self.cfg.mode.deterministic() {
            // No turns: an exit, a barrier arrival or an acquire of a
            // grantable lock happens in the round it is stepped.
            let fires = self
                .threads
                .iter()
                .enumerate()
                .any(|(t, th)| match th.status {
                    Status::AcquiringBarrier(_) | Status::ExitWait => true,
                    Status::AcquiringLock(id) => self.grantable(t, id),
                    _ => false,
                });
            return (if fires { 0 } else { u64::MAX }, None);
        }
        match self.cfg.scheduler.lease(&self.views) {
            Lease::Batch => (0, None),
            Lease::Idle => (u64::MAX, None),
            Lease::Turn { holder, rounds } => {
                let t = holder as usize;
                match self.threads[t].status {
                    // Mid-instruction: its own countdown is the bound.
                    Status::Ready => (u64::MAX, None),
                    // Blocked, so it bumps once per round: until the lock
                    // is logically free or the turn passes on.
                    Status::AcquiringLock(id) => match self.bumps_until_free(t, id) {
                        0 => (0, None),
                        bumps => (bumps.min(rounds), Some(t)),
                    },
                    // An exit or a barrier arrival, performed now.
                    _ => (0, None),
                }
            }
        }
    }

    /// How often turn holder `t` must bump its clock before lock `id` is
    /// logically free for it: 0 grants now; `u64::MAX` means physically
    /// held, which no bump cures. Free but released at a clock `rc` not yet
    /// in the acquirer's past (the policy's logical-release rule) takes
    /// `rc − clock + 1` bumps.
    fn bumps_until_free(&self, t: usize, id: i64) -> u64 {
        let Some(st) = self.locks.get(&id) else {
            return 0;
        };
        let clock = self.threads[t].clock;
        match (st.held_by, st.release_clock) {
            (Some(_), _) => u64::MAX,
            (None, Some(rc)) if self.cfg.scheduler.uses_release_clocks() && rc >= clock => {
                rc - clock + 1
            }
            _ => 0,
        }
    }

    /// Nondeterministic modes: may thread `t` take lock `id` now? First
    /// come, first served on the physical hold state; a replayed run
    /// additionally admits only the thread its log names next.
    fn grantable(&self, t: usize, id: i64) -> bool {
        let free = self.locks.get(&id).is_none_or(|st| st.held_by.is_none());
        let next = self.cfg.replay_log.get(self.replay_pos);
        free && (!self.cfg.mode.replayed() || next == Some(&(id, t as u32)))
    }

    fn into_results(self) -> (RunMetrics, Vec<i64>, bool, Option<SanitizerReport>) {
        let hit_limit = self.done_count < self.threads.len();
        let sanitizer = self.san.map(|s| s.finalize(self.module));
        let metrics = RunMetrics {
            cycles: self.cycle,
            per_thread: self.threads.into_iter().map(|t| t.m).collect(),
            lock_order_hash: self.hasher.value(),
            lock_order: self.lock_order,
            ghz: self.cfg.ghz,
        };
        (metrics, self.mem, hit_limit, sanitizer)
    }

    /// Reclassify one step from `ready`, where [`DetCore::round`] counted
    /// it, to the status `step` found the thread in.
    #[inline]
    fn count_step(&mut self, status: Status) {
        self.profile.steps[0] -= 1;
        self.profile.steps[status.code().0 as usize] += 1;
    }

    fn step<B: ExecBackend>(&mut self, t: usize, turn: Option<u32>, exec: &B) {
        let det = self.cfg.mode.deterministic();
        let tid = t as u32;
        let status = self.threads[t].status;
        match status {
            Status::Done => self.count_step(status),
            Status::InBarrier(_) => {
                self.count_step(status);
                self.threads[t].m.wait_cycles += 1;
            }
            Status::QuantumDone => {
                self.count_step(status);
                self.threads[t].m.wait_cycles += 1;
            }
            Status::ExitWait => {
                self.count_step(status);
                if self.bulk {
                    // Exits resolve in the serial phase.
                    self.threads[t].m.wait_cycles += 1;
                } else if !det || turn == Some(tid) {
                    self.finish(t);
                } else {
                    self.threads[t].m.wait_cycles += 1;
                }
            }
            Status::AcquiringBarrier(id) => {
                self.count_step(status);
                if self.bulk {
                    self.threads[t].m.wait_cycles += 1;
                } else if !det || turn == Some(tid) {
                    self.arrive_barrier(t, id);
                } else {
                    self.threads[t].m.wait_cycles += 1;
                }
            }
            Status::AcquiringLock(id) => {
                self.count_step(status);
                if self.bulk {
                    // Grants happen only in the serial phase.
                    self.threads[t].m.wait_cycles += 1;
                } else if det {
                    if turn != Some(tid) {
                        self.threads[t].m.wait_cycles += 1;
                    } else if self.bumps_until_free(t, id) == 0 {
                        self.grant_lock(t, id);
                    } else {
                        if self.cfg.scheduler.bumps_on_contention() {
                            // Deterministic clock bump and retry (Kendo).
                            self.threads[t].clock += 1;
                            self.threads[t].m.lock_clock_bumps += 1;
                        }
                        self.threads[t].m.wait_cycles += 1;
                    }
                } else if self.grantable(t, id) {
                    if self.cfg.mode.replayed() {
                        self.replay_pos += 1;
                    }
                    self.grant_lock(t, id);
                } else {
                    self.threads[t].m.wait_cycles += 1;
                }
            }
            Status::Ready => {
                // Bulk-sync quanta are counted in *instructions* (as in
                // CoreDet), not cycles: jitter must not change which
                // instructions land in a round, or determinism is lost.
                if self.bulk && self.threads[t].quantum_left == 0 {
                    self.threads[t].status = Status::QuantumDone;
                    self.threads[t].m.wait_cycles += 1;
                    return;
                }
                if self.threads[t].pending > 0 {
                    self.threads[t].pending -= 1;
                    self.threads[t].m.busy_cycles += 1;
                    return;
                }
                if self.bulk {
                    self.threads[t].quantum_left -= 1;
                }
                let mut action = exec.exec_next(self, t);
                // Skipped ticks are free: retry until a real instruction
                // issues this cycle.
                while matches!(action, Action::Free) {
                    action = exec.exec_next(self, t);
                }
                match action {
                    Action::None | Action::Free => {}
                    Action::Lock(id) => {
                        self.threads[t].status = Status::AcquiringLock(id);
                    }
                    Action::Unlock(id) => {
                        let clock = self.threads[t].clock;
                        let st = self.locks.entry(id).or_default();
                        st.held_by = None;
                        st.release_clock = Some(clock);
                        if det {
                            self.threads[t].clock += 1;
                        }
                        if let Some(san) = self.san.as_deref_mut() {
                            san.release(tid, id);
                        }
                        self.charge(t, self.cost.sync);
                    }
                    Action::Barrier(id) => {
                        self.threads[t].status = Status::AcquiringBarrier(id);
                    }
                    Action::Exited => {
                        self.threads[t].status = Status::ExitWait;
                        // Baseline exits resolve immediately next step; in
                        // deterministic modes the exit is a det event.
                    }
                }
            }
        }
    }

    /// Commit one [`Decision::Batch`]: the listed threads perform their
    /// pending synchronization events in batch order, against the lock
    /// table as it evolves within the batch — the deterministic-
    /// consistency commit round. A member whose lock is physically held
    /// when its slot comes stays blocked (no clock bump: the batch
    /// policy's contention rule) and joins a later batch; because batches
    /// only form at quiescence, any such holder is itself in this batch
    /// or parked, so nested acquisitions drain batch-by-batch. Grants go
    /// through [`DetCore::grant_lock`], so protocol costs, trace-hash
    /// records, and sanitizer hooks are identical to turn-based grants.
    fn commit_batch(&mut self, order: &[u32]) {
        for &tid in order {
            let t = tid as usize;
            match self.threads[t].status {
                Status::AcquiringLock(id) => {
                    // Physical hold state alone gates the grant
                    // (`uses_release_clocks` is false for batch policies):
                    // the batch order *is* the logical order.
                    let held = self.locks.entry(id).or_default().held_by;
                    if held.is_none() {
                        self.grant_lock(t, id);
                    } else {
                        self.threads[t].m.wait_cycles += 1;
                    }
                }
                Status::AcquiringBarrier(id) => self.arrive_barrier(t, id),
                Status::ExitWait => self.finish(t),
                // A barrier arrival earlier in the batch released this
                // member back to Ready; it resumes next round.
                _ => {}
            }
        }
        for th in self.threads.iter_mut() {
            if matches!(th.status, Status::InBarrier(_)) {
                th.m.wait_cycles += 1;
            }
        }
    }

    /// Bulk-sync: is every live thread parked at the round barrier (quantum
    /// exhausted, pending sync op, exiting) or inside an application
    /// barrier?
    fn bulk_round_complete(&self) -> bool {
        let mut any_parked = false;
        for th in &self.threads {
            match th.status {
                Status::Done | Status::InBarrier(_) => {}
                Status::QuantumDone
                | Status::AcquiringLock(_)
                | Status::AcquiringBarrier(_)
                | Status::ExitWait => any_parked = true,
                Status::Ready => return false,
            }
        }
        any_parked
    }

    /// Bulk-sync serial phase: commit the round's store buffers (a stall
    /// charged to everyone) and run pending synchronization operations in
    /// thread-id order — CoreDet's deterministic serial mode.
    fn bulk_serial_phase(&mut self) {
        let bp = self.cfg.mode.bulk_sync().expect("bulk-sync mode");
        let total_stores: u64 = self.threads.iter().map(|t| t.round_stores).sum();
        self.commit_stall = bp.commit_base + bp.commit_per_store * total_stores;
        for t in 0..self.threads.len() {
            match self.threads[t].status {
                Status::AcquiringLock(id) => {
                    let held = self.locks.entry(id).or_default().held_by;
                    if held.is_none() {
                        self.grant_lock(t, id);
                    }
                }
                Status::AcquiringBarrier(id) => {
                    self.arrive_barrier(t, id);
                }
                Status::ExitWait => {
                    self.finish(t);
                }
                _ => {}
            }
        }
        for th in self.threads.iter_mut() {
            th.round_stores = 0;
            th.quantum_left = bp.quantum;
            if th.status == Status::QuantumDone {
                th.status = Status::Ready;
            }
        }
    }

    fn grant_lock(&mut self, t: usize, id: i64) {
        let tid = t as u32;
        {
            let st = self.locks.entry(id).or_default();
            st.held_by = Some(tid);
        }
        if self.san.is_some() {
            // The frame's ip already points past the Lock instruction the
            // thread blocked on.
            let site = {
                let fr = self.threads[t].frames.last().unwrap();
                (
                    fr.func.index() as u32,
                    fr.block.index() as u32,
                    fr.ip.saturating_sub(1) as u32,
                )
            };
            if let Some(san) = self.san.as_deref_mut() {
                san.acquire(tid, id, site);
            }
        }
        if self.cfg.mode.deterministic() {
            self.threads[t].clock += 1;
        }
        self.threads[t].m.lock_acquires += 1;
        self.threads[t].status = Status::Ready;
        let protocol = if self.cfg.mode.deterministic() {
            self.cfg.det_event_cost
        } else {
            0
        };
        self.charge(t, self.cost.sync + protocol);
        self.hasher.record(id, tid);
        if self.lock_order.len() < self.cfg.lock_order_limit {
            self.lock_order.push((id, tid));
        }
    }

    fn arrive_barrier(&mut self, t: usize, id: u32) {
        let tid = t as u32;
        self.threads[t].m.barrier_waits += 1;
        self.threads[t].status = Status::InBarrier(id);
        let bar = self.barriers.entry(id).or_default();
        bar.arrivals.push(tid);
        let everyone = self.threads.len() - self.done_count;
        if bar.arrivals.len() >= everyone {
            // Release: reconcile clocks to max+1 in deterministic modes.
            let arrivals = std::mem::take(&mut self.barriers.get_mut(&id).unwrap().arrivals);
            if let Some(san) = self.san.as_deref_mut() {
                san.barrier(&arrivals);
            }
            let new_clock = arrivals
                .iter()
                .map(|&a| self.threads[a as usize].clock)
                .max()
                .unwrap_or(0)
                + 1;
            let det = self.cfg.mode.deterministic();
            for a in arrivals {
                let th = &mut self.threads[a as usize];
                th.status = Status::Ready;
                if det {
                    th.clock = new_clock;
                }
                th.pending = self.cost.sync;
            }
        }
    }

    fn finish(&mut self, t: usize) {
        self.threads[t].status = Status::Done;
        self.threads[t].m.finish_cycle = self.cycle;
        self.threads[t].m.final_clock = self.threads[t].clock;
        self.done_count += 1;
    }

    /// Charge `cost` cycles for the instruction just applied (1 cycle is
    /// consumed now; the remainder plus jitter occupies subsequent cycles).
    pub(crate) fn charge(&mut self, t: usize, cost: u64) {
        charge_thread(&mut self.threads[t], &self.cfg.jitter, cost);
    }

    #[inline]
    fn set_reg(&mut self, t: usize, r: Reg, v: i64) {
        let th = &mut self.threads[t];
        let base = th.frames.last().unwrap().reg_base;
        th.regs[base + r.index()] = v;
    }

    /// Register read against a hoisted frame base — the hot-loop variant
    /// that skips the per-access `frames.last()` lookup.
    #[inline]
    pub(crate) fn reg_at(&self, t: usize, base: usize, r: Reg) -> i64 {
        self.threads[t].regs[base + r.index()]
    }

    /// Register write against a hoisted frame base.
    #[inline]
    pub(crate) fn set_reg_at(&mut self, t: usize, base: usize, r: Reg, v: i64) {
        self.threads[t].regs[base + r.index()] = v;
    }

    #[inline]
    pub(crate) fn operand_at(&self, t: usize, base: usize, o: Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.reg_at(t, base, r),
            Operand::Imm(v) => v,
        }
    }

    #[inline]
    pub(crate) fn mem_index(&self, addr: i64) -> usize {
        mem_index_of(self.mem_mask, self.mem.len(), addr)
    }

    /// Sanitizer memory hook: record the access at the instruction site
    /// `frame` points at. A no-op (one null check) when sanitizing is off.
    #[inline]
    pub(crate) fn san_access(&mut self, t: usize, word: usize, write: bool, frame: Frame) {
        if let Some(san) = self.san.as_deref_mut() {
            san.access(
                t as u32,
                word,
                write,
                (
                    frame.func.index() as u32,
                    frame.block.index() as u32,
                    frame.ip as u32,
                ),
            );
        }
    }

    pub(crate) fn retired_store(&mut self, t: usize, count: u64) {
        retire_stores(&mut self.threads[t], self.chunk, count);
    }

    /// Shared builtin semantics: apply `builtin` to the already-evaluated
    /// arguments, including the memset/memcpy memory side effects and
    /// sanitizer hooks. Both backends call this, so the store-retirement
    /// accounting and san-site order agree by construction.
    #[inline]
    pub(crate) fn apply_builtin(
        &mut self,
        t: usize,
        builtin: detlock_ir::Builtin,
        argv: &[i64],
        size: i64,
        frame: Frame,
    ) -> i64 {
        use detlock_ir::Builtin as B;
        match builtin {
            B::Memset => {
                let (base, val, len) = (
                    argv.first().copied().unwrap_or(0),
                    argv.get(1).copied().unwrap_or(0),
                    size.max(0),
                );
                for k in 0..len.min(self.mem.len() as i64) {
                    let idx = self.mem_index(base.wrapping_add(k));
                    self.mem[idx] = val;
                    self.san_access(t, idx, true, frame);
                }
                self.retired_store(t, len.max(0) as u64);
                0
            }
            B::Memcpy => {
                let (d, s, len) = (
                    argv.first().copied().unwrap_or(0),
                    argv.get(1).copied().unwrap_or(0),
                    size.max(0),
                );
                for k in 0..len.min(self.mem.len() as i64) {
                    let si = self.mem_index(s.wrapping_add(k));
                    let di = self.mem_index(d.wrapping_add(k));
                    self.mem[di] = self.mem[si];
                    self.san_access(t, si, false, frame);
                    self.san_access(t, di, true, frame);
                }
                self.retired_store(t, len.max(0) as u64);
                0
            }
            B::Sqrt => builtins::isqrt(argv.first().copied().unwrap_or(0)),
            B::Sin => builtins::fixed_sin(argv.first().copied().unwrap_or(0)),
            B::Cos => builtins::fixed_cos(argv.first().copied().unwrap_or(0)),
            B::Exp => builtins::fixed_exp(argv.first().copied().unwrap_or(0)),
            B::Log => builtins::ilog2(argv.first().copied().unwrap_or(0)),
            B::Rand => builtins::xorshift64(argv.first().copied().unwrap_or(0)),
        }
    }

    /// The interpreter's fetch/apply/charge (see [`InterpBackend`]). The
    /// function/block/frame state is re-derived from the IR each step; the
    /// frame is `Copy` and the register base is hoisted once, so the loop
    /// carries no per-step allocation or repeated `frames.last()` walks.
    fn interp_exec_next(&mut self, t: usize) -> Action {
        let frame = *self.threads[t].frames.last().unwrap();
        let base = frame.reg_base;
        // `module` is a `&'m` field, so these borrows are independent of
        // `self` and stay live across the mutations below.
        let func = &self.module.functions[frame.func.index()];
        let block = &func.blocks[frame.block.index()];

        if frame.ip >= block.insts.len() {
            // Terminator.
            self.threads[t].m.instructions += 1;
            let term = &block.term;
            self.charge(t, self.cost.alu);
            match term {
                Terminator::Br { target } => {
                    let f = self.threads[t].frames.last_mut().unwrap();
                    f.block = *target;
                    f.ip = 0;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.reg_at(t, base, *cond);
                    let f = self.threads[t].frames.last_mut().unwrap();
                    f.block = if c != 0 { *then_bb } else { *else_bb };
                    f.ip = 0;
                }
                Terminator::Switch {
                    disc,
                    cases,
                    default,
                } => {
                    let d = self.reg_at(t, base, *disc);
                    let target = cases
                        .iter()
                        .find(|(v, _)| *v == d)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                    let f = self.threads[t].frames.last_mut().unwrap();
                    f.block = target;
                    f.ip = 0;
                }
                Terminator::Ret { value } => {
                    let v = value.map(|o| self.operand_at(t, base, o));
                    let th = &mut self.threads[t];
                    let popped = th.frames.pop().unwrap();
                    th.regs.truncate(popped.reg_base);
                    if th.frames.is_empty() {
                        return Action::Exited;
                    }
                    if let (Some(dst), Some(v)) = (popped.ret_dst, v) {
                        self.set_reg(t, dst, v);
                    }
                }
            }
            return Action::None;
        }

        let inst = &block.insts[frame.ip];
        // Advance ip first; sync instructions have already "issued".
        self.threads[t].frames.last_mut().unwrap().ip += 1;

        match inst {
            Inst::Const { dst, value } => {
                let (dst, value) = (*dst, *value);
                self.threads[t].m.instructions += 1;
                self.set_reg_at(t, base, dst, value);
                self.charge(t, self.cost.alu);
            }
            Inst::Mov { dst, src } => {
                let (dst, src) = (*dst, *src);
                self.threads[t].m.instructions += 1;
                let v = self.operand_at(t, base, src);
                self.set_reg_at(t, base, dst, v);
                self.charge(t, self.cost.alu);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let (op, dst, lhs, rhs) = (*op, *dst, *lhs, *rhs);
                self.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, lhs);
                let b = self.operand_at(t, base, rhs);
                self.set_reg_at(t, base, dst, op.apply(a, b));
                let c = match op {
                    detlock_ir::BinOp::Mul => self.cost.mul,
                    detlock_ir::BinOp::Div | detlock_ir::BinOp::Rem => self.cost.div,
                    _ => self.cost.alu,
                };
                self.charge(t, c);
            }
            Inst::Cmp { op, dst, lhs, rhs } => {
                let (op, dst, lhs, rhs) = (*op, *dst, *lhs, *rhs);
                self.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, lhs);
                let b = self.operand_at(t, base, rhs);
                self.set_reg_at(t, base, dst, op.apply(a, b));
                self.charge(t, self.cost.alu);
            }
            Inst::Load { dst, addr, offset } => {
                let (dst, addr, offset) = (*dst, *addr, *offset);
                self.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, addr).wrapping_add(offset);
                let idx = self.mem_index(a);
                let v = self.mem[idx];
                self.san_access(t, idx, false, frame);
                self.set_reg_at(t, base, dst, v);
                self.charge(t, self.cost.load);
            }
            Inst::Store { src, addr, offset } => {
                let (src, addr, offset) = (*src, *addr, *offset);
                self.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, addr).wrapping_add(offset);
                let v = self.operand_at(t, base, src);
                let idx = self.mem_index(a);
                self.mem[idx] = v;
                self.san_access(t, idx, true, frame);
                self.charge(t, self.cost.store);
                self.retired_store(t, 1);
            }
            Inst::Call { func, args, dst } => {
                let callee_id = *func;
                let dst = *dst;
                self.threads[t].m.instructions += 1;
                let callee = &self.module.functions[callee_id.index()];
                // Grow the register file first, then evaluate arguments
                // straight into the callee's slots: the caller's registers
                // live below `reg_base`, so the resize cannot disturb them
                // and no temporary argument vector is needed.
                let reg_base = self.threads[t].regs.len();
                self.threads[t]
                    .regs
                    .resize(reg_base + callee.num_regs as usize, 0);
                for (i, &a) in args.iter().enumerate() {
                    let v = self.operand_at(t, base, a);
                    self.threads[t].regs[reg_base + i] = v;
                }
                self.threads[t].frames.push(Frame {
                    func: callee_id,
                    block: BlockId(0),
                    ip: 0,
                    reg_base,
                    ret_dst: dst,
                });
                self.charge(t, self.cost.call);
            }
            Inst::CallBuiltin {
                builtin,
                args,
                dst,
                size_arg,
            } => {
                let builtin = *builtin;
                let dst = *dst;
                let size_arg = *size_arg;
                self.threads[t].m.instructions += 1;
                let mut argv = std::mem::take(&mut self.scratch_args);
                argv.clear();
                argv.extend(args.iter().map(|&a| self.operand_at(t, base, a)));
                let est = self.cost.builtin(builtin);
                let size = size_arg.and_then(|i| argv.get(i).copied()).unwrap_or(0);
                let cycles = est.eval(size);
                let result = self.apply_builtin(t, builtin, &argv, size, frame);
                self.scratch_args = argv;
                if let Some(d) = dst {
                    self.set_reg_at(t, base, d, result);
                }
                self.charge(t, cycles.max(1));
            }
            Inst::Tick { amount } => {
                let amount = *amount;
                if self.cfg.mode.executes_ticks() {
                    self.threads[t].m.instructions += 1;
                    self.threads[t].m.ticks_executed += 1;
                    self.threads[t].clock += amount;
                    self.charge(t, self.cost.tick);
                } else {
                    // Baseline / Kendo: the binary was never instrumented —
                    // skip at zero cost and zero cycles.
                    return Action::Free;
                }
            }
            Inst::TickDyn {
                base: tick_base,
                per_unit,
                size,
            } => {
                let (tick_base, per_unit, size) = (*tick_base, *per_unit, *size);
                if self.cfg.mode.executes_ticks() {
                    self.threads[t].m.instructions += 1;
                    self.threads[t].m.ticks_executed += 1;
                    let s = self.operand_at(t, base, size).max(0) as u64;
                    self.threads[t].clock += tick_base + per_unit * s;
                    self.charge(t, self.cost.tick + self.cost.tick_dyn_extra);
                } else {
                    return Action::Free;
                }
            }
            Inst::Lock { id } => {
                let id = *id;
                self.threads[t].m.instructions += 1;
                let v = self.operand_at(t, base, id);
                return Action::Lock(v);
            }
            Inst::Unlock { id } => {
                let id = *id;
                self.threads[t].m.instructions += 1;
                let v = self.operand_at(t, base, id);
                return Action::Unlock(v);
            }
            Inst::Barrier { id } => {
                let id = *id;
                self.threads[t].m.instructions += 1;
                return Action::Barrier(id.0);
            }
        }
        Action::None
    }
}

/// Wrap `addr` into the memory of size `len` (`mask = len - 1` when `len`
/// is a power of two). The mask path equals `rem_euclid` exactly: in
/// two's complement, `addr as u64` is `addr + 2^64` for negative `addr`,
/// and `len` divides `2^64`, so masking yields the Euclidean residue
/// without the 64-bit division `rem_euclid` costs per load/store.
#[inline]
pub(crate) fn mem_index_of(mask: Option<u64>, len: usize, addr: i64) -> usize {
    match mask {
        Some(m) => (addr as u64 & m) as usize,
        None => addr.rem_euclid(len as i64) as usize,
    }
}

/// [`DetCore::charge`] over one thread's state: a free function so a
/// backend holding disjoint field borrows on the core can charge without
/// re-borrowing `&mut DetCore`. The jitter draw sequence on `th.rng` is
/// positional — every backend must call this exactly where the
/// interpreter would, or trace hashes diverge.
#[inline]
pub(crate) fn charge_thread(th: &mut Thread, jitter: &Jitter, cost: u64) {
    th.pending = charge_amount(th, jitter, cost);
    th.m.busy_cycles += 1;
}

/// The countdown a charge of `cost` earns: draws the jitter RNG exactly
/// like [`charge_thread`] but leaves `pending` and `busy_cycles` for the
/// caller — the fused-run path in the threaded backend accumulates several
/// charges (in program order, preserving the positional draw sequence)
/// into one combined countdown.
#[inline]
pub(crate) fn charge_amount(th: &mut Thread, jitter: &Jitter, cost: u64) -> u64 {
    let extra = if jitter.prob_den > 0
        && th.rng.gen_range(0..jitter.prob_den as u64) < jitter.prob_num as u64
    {
        1 + th.rng.gen_range(0..jitter.max_extra.max(1))
    } else {
        0
    };
    cost.saturating_sub(1) + extra
}

/// [`DetCore::retired_store`] over one thread's state (a free function for
/// the same reason as [`charge_thread`]). `chunk` is the core's hoisted
/// [`DetCore::chunk`]: `Some` iff a chunk-clock scheduler is active.
#[inline]
pub(crate) fn retire_stores(th: &mut Thread, chunk: Option<ChunkParams>, count: u64) {
    let before = th.m.retired_stores;
    th.m.retired_stores += count;
    th.round_stores += count;
    if let Some(cp) = chunk {
        // The virtualized performance counter only surfaces at overflow
        // interrupts: the clock advances in chunk_size units, and each
        // interrupt costs cycles.
        let chunks = th.m.retired_stores / cp.chunk_size - before / cp.chunk_size;
        if chunks > 0 {
            th.clock += chunks * cp.chunk_size;
            th.pending += chunks * cp.interrupt_cost;
        }
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
