//! The multi-tenant deterministic-execution server (`detserved`'s core).
//!
//! Architecture:
//!
//! ```text
//!  clients ──TCP──▶ poll(2) event loop (one thread, nonblocking sockets,
//!                   per-connection state machines, pipelined v1/v2 frames)
//!                         │ try_push (backpressure)      ▲ completions
//!                         ▼                              │ (channel + waker)
//!                          AdmissionQueue<Job> ──────────┘
//!                                   │ pop
//!        ┌──────────────┬───────────┴──┬──────────────┐
//!        ▼              ▼              ▼              ▼
//!    shard 0        shard 1        shard 2        shard N-1      supervisor
//!   ShardEngine    ShardEngine    ShardEngine    ShardEngine     (watchdog)
//! ```
//!
//! The network edge is a single readiness-driven event loop
//! ([`detlock_shim::evloop`]): every connection is a nonblocking
//! [`crate::conn::FramedConn`] (frames reassembled incrementally) with a
//! [`crate::conn::SlotTable`], so responses flush strictly in
//! per-connection request order and clients may **pipeline** arbitrarily
//! many v1 `run` or v2 `batch` frames.
//! Shard workers stay plain threads (execution is CPU-bound); they hand
//! results back over an mpsc channel and poke the loop's waker. Injected
//! wire faults become gated output chunks (a `Delay` is a chunk whose
//! `not_before` hasn't passed) instead of thread sleeps, so one faulted
//! connection can no longer stall its neighbors.
//!
//! Admission consults the receipt ledger before the queue
//! ([`crate::receipt::ReceiptLedger::admit`]): a receipt is a function of
//! the job's identity, so a request for an identity that is queued or
//! running parks on it and is answered when that execution ends (through
//! requeue, eviction and recovery alike — waiters hang on the identity,
//! not on the `Job`), and one for an identity that has finished is
//! answered from the record on the event-loop thread, touching neither
//! queue nor shard. The ledger re-executes on its own fixed schedule
//! ([`crate::receipt::audit_scheduled`]: one request in six) and
//! compares, so the memo keeps auditing itself; `sanitize`
//! jobs, anything admitted while a [`CrashPlan`] is armed, and admissions
//! during drain go straight to the queue.
//!
//! Failure model, in one paragraph: a job is admitted once (backpressure
//! at the door, as a **typed shed** the client can reason about), then
//! owned by exactly one shard at a time. While a shard runs a job it
//! snapshots a [`Checkpoint`] every `checkpoint_interval` cycles — an
//! interval measured in turns of the min-clock arbiter, so checkpoint
//! placement cannot perturb the schedule. A shard that panics mid-job
//! stays up and reports `Panicked` — the job is requeued with that shard
//! in its **exclusion set** (unless the panic was an injected
//! [`CrashPlan`] crash, in which case the shard is healthy), a
//! deterministic backoff (measured in queue pop-sequence numbers, not
//! wall time), and **the latest checkpoint**, so the next shard resumes
//! from it instead of rerunning from cycle 0 (a *recovery*; a requeue
//! without a checkpoint is a *cold requeue* — `/stats` reports both). A
//! shard evicted mid-job — by the supervisor's stall watchdog or an
//! explicit `kill` — aborts at the next checkpoint boundary, requeues the
//! job from that checkpoint excluding itself, and exits; the job
//! completes on a sibling shard with a byte-identical receipt, because
//! receipts are a function of the job, not the shard, and
//! resume-from-checkpoint provably reproduces run-from-zero. Retries are
//! bounded; a job whose exclusion set covers every live shard fails
//! instead of livelocking. Total cycle-budget exhaustion is deterministic
//! and therefore never retried. Graceful drain refuses new admissions
//! with a typed `draining` shed and lets in-flight jobs finish;
//! `drain_flushed` counts the ones that had taken a checkpoint before they
//! finished.

use crate::conn::{accept_backlog, raw_fd, FramedConn, SlotKind, SlotTable};
use crate::netfault::{CrashPlan, NetFaultPlan, WireFault};
use crate::protocol::{error_json, parse_request, JobSpec, WireRequest};
use crate::queue::{backoff_deadline, AdmissionQueue, SubmitError};
use crate::receipt::{Admission, Receipt, ReceiptLedger, Sighting};
use crate::shard::{ExecOpts, ExecOutcome, ShardEngine};
use crate::stats::{Counters, LatencyHistogram};
use detlock_passes::pipeline::CompileOpts;
use detlock_passes::stats::{fold_pass_stats, PassStats};
use detlock_shim::evloop::{self, Interest, Poller};
use detlock_shim::json::{Json, ToJson};
use detlock_shim::sync::Mutex;
use detlock_vm::machine::Checkpoint;
use detlock_vm::sanitizer::SanitizerReport;
use detlock_vm::{Backend, Sched};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Number of shards (each owns a private engine + worker thread).
    pub shards: usize,
    /// Admission queue bound (backpressure threshold).
    pub queue_capacity: usize,
    /// Maximum requeues per job before it fails.
    pub max_retries: u32,
    /// Per-job simulated-cycle budget (the deterministic watchdog).
    pub job_cycle_budget: u64,
    /// Wall-clock stall watchdog: a shard busy on one job longer than
    /// this is evicted and the job requeued. `None` disables eviction.
    pub watchdog: Option<Duration>,
    /// Compile-pool workers each shard engine uses for instrumentation
    /// (1 = serial, the default; no flag sets it). Output is byte-identical
    /// at any setting.
    pub compile_threads: usize,
    /// Execution backend every shard engine runs jobs on. Receipts are
    /// byte-identical across backends; `threaded` just retires jobs
    /// faster. Defaults to the interpreter.
    pub backend: Backend,
    /// Default deterministic scheduler for jobs whose request omits
    /// `scheduler`. Unlike `backend` this is part of job identity:
    /// requests naming a policy explicitly override it per job. Defaults
    /// to Kendo.
    pub scheduler: Sched,
    /// Snapshot a [`Checkpoint`] every this many arbiter cycles while a
    /// job runs (0 disables checkpointing — crashes then requeue cold).
    pub checkpoint_interval: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            queue_capacity: 64,
            max_retries: 3,
            job_cycle_budget: 60_000_000_000,
            watchdog: Some(Duration::from_secs(30)),
            compile_threads: 1,
            backend: Backend::Interp,
            scheduler: Sched::Kendo,
            checkpoint_interval: 200_000,
        }
    }
}

/// How a successful response came by its receipt (`source` on the wire).
#[derive(Clone, Copy)]
enum Source {
    /// This request's own execution.
    Exec,
    /// An execution of the same identity that was in flight when this
    /// request arrived.
    Attached,
    /// The receipt ledger; nothing ran.
    Memo,
}

impl Source {
    fn name(self) -> &'static str {
        match self {
            Source::Exec => "exec",
            Source::Attached => "attached",
            Source::Memo => "memo",
        }
    }
}

enum JobResult {
    Done {
        receipt: Receipt,
        source: Source,
        shard: usize,
        attempts: u32,
        queue_us: u64,
        exec_us: u64,
        /// Happens-before sanitizer report for `sanitize: true` jobs
        /// (boxed: it dwarfs the other fields).
        sanitizer: Option<Box<SanitizerReport>>,
    },
    Failed {
        error: String,
        attempts: u32,
    },
}

impl JobResult {
    /// What a request parked on this execution is told: the same receipt
    /// or error, its own wait, no execution of its own and no report.
    fn attached(&self, queue_us: u64) -> JobResult {
        match self {
            JobResult::Done {
                receipt,
                shard,
                attempts,
                ..
            } => JobResult::Done {
                receipt: receipt.clone(),
                source: Source::Attached,
                shard: *shard,
                attempts: *attempts,
                queue_us,
                exec_us: 0,
                sanitizer: None,
            },
            JobResult::Failed { error, attempts } => JobResult::Failed {
                error: error.clone(),
                attempts: *attempts,
            },
        }
    }
}

/// Where a finished job's result goes: back to the event loop, addressed
/// by (connection token, response slot, index within the slot — batch
/// frames hold many jobs in one slot). The waker interrupts the loop's
/// `poll` so delivery latency is bounded by the channel, not the tick.
struct Responder {
    tx: mpsc::Sender<Completion>,
    waker: evloop::Waker,
    token: u64,
    slot: u64,
    idx: usize,
}

impl Responder {
    fn send(&self, result: JobResult) {
        let _ = self.tx.send(Completion {
            token: self.token,
            slot: self.slot,
            idx: self.idx,
            result,
        });
        self.waker.wake();
    }
}

struct Completion {
    token: u64,
    slot: u64,
    idx: usize,
    result: JobResult,
}

/// A request parked in the ledger on an in-flight execution of its
/// identity.
struct Waiter {
    respond: Responder,
    enqueued: Instant,
}

struct Job {
    spec: JobSpec,
    respond: Responder,
    enqueued: Instant,
    /// The ledger marked this job's identity in flight at admission, so
    /// duplicate requests may be parked on it.
    owner: bool,
    attempts: u32,
    excluded: Vec<usize>,
    /// Deterministic backoff: not runnable until the queue's pop sequence
    /// passes this value.
    not_before: u64,
    /// Migration state: the latest checkpoint from a previous attempt.
    /// `Some` makes the next attempt a resume (a recovery) instead of a
    /// rerun from cycle 0.
    checkpoint: Option<Checkpoint>,
}

struct ShardSlot {
    evicted: AtomicBool,
    busy_since: Mutex<Option<Instant>>,
    /// Identity key of the job currently running here (diagnostics: the
    /// supervisor's stall report names it).
    current_job: Mutex<Option<String>>,
    completed: AtomicU64,
    /// Jobs this shard resumed from a migrated checkpoint.
    recoveries: AtomicU64,
    /// Jobs this shard had to requeue (crash or eviction).
    requeues: AtomicU64,
    /// Checkpoints snapshotted by this shard's engine (mirrored).
    checkpoints: AtomicU64,
    /// Analysis-cache hits/misses across every compilation on this shard
    /// (mirrored out of the worker-owned engine after each job).
    analysis_hits: AtomicU64,
    analysis_misses: AtomicU64,
    /// Cumulative per-pass pipeline telemetry for this shard.
    pass_totals: Mutex<Vec<PassStats>>,
    /// Jobs this shard ran with the happens-before sanitizer on.
    sanitized: AtomicU64,
    /// Dynamic races those sanitized jobs reported (expected 0 on the
    /// serving workloads — any nonzero here is an incident).
    san_races: AtomicU64,
    /// Deadlock-prone lock-order cycles those sanitized jobs reported.
    san_cycles: AtomicU64,
}

struct Shared {
    config: ServeConfig,
    queue: AdmissionQueue<Job>,
    counters: Counters,
    queue_latency: LatencyHistogram,
    exec_latency: LatencyHistogram,
    shards: Vec<ShardSlot>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    /// Identity → receipt: the memo admission consults, the waiters parked
    /// on in-flight identities, and cross-tenant/cross-shard mismatch
    /// detection, in one table.
    ledger: Mutex<ReceiptLedger<Waiter>>,
    /// Active wire-fault plan (set/cleared by the `chaos` op).
    net_faults: Mutex<Option<NetFaultPlan>>,
    /// Active shard-crash plan (set/cleared by the `chaos` op).
    crash_faults: Mutex<Option<CrashPlan>>,
    /// Data-plane connection ids, the stable coordinate wire faults key on.
    conn_counter: AtomicU64,
    /// Connections currently held by the event loop / the most held at
    /// once (the "sustains N keep-alive connections" evidence).
    open_conns: AtomicU64,
    peak_conns: AtomicU64,
    /// Wakes the event loop (result delivery, shutdown).
    loop_waker: evloop::Waker,
    started: Instant,
}

impl Shared {
    fn alive_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| !self.shards[i].evicted.load(Ordering::Relaxed))
            .collect()
    }

    fn evict(&self, shard: usize) -> bool {
        if shard >= self.shards.len() {
            return false;
        }
        // Never evict the last live shard: a serverful of dead shards
        // can't drain, and an empty service helps no one.
        if self.alive_shards() == [shard] {
            return false;
        }
        let was_alive = !self.shards[shard].evicted.swap(true, Ordering::Relaxed);
        if was_alive {
            Counters::bump(&self.counters.evictions);
        }
        was_alive
    }

    fn stats_json(&self) -> Json {
        let shard_rows: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", i.to_json()),
                    ("alive", (!s.evicted.load(Ordering::Relaxed)).to_json()),
                    ("busy", s.busy_since.lock().is_some().to_json()),
                    ("completed", Counters::get(&s.completed).to_json()),
                    ("recoveries", Counters::get(&s.recoveries).to_json()),
                    ("requeues", Counters::get(&s.requeues).to_json()),
                    ("checkpoints", Counters::get(&s.checkpoints).to_json()),
                    (
                        "analysis_hits",
                        s.analysis_hits.load(Ordering::Relaxed).to_json(),
                    ),
                    (
                        "analysis_misses",
                        s.analysis_misses.load(Ordering::Relaxed).to_json(),
                    ),
                    ("sanitized", Counters::get(&s.sanitized).to_json()),
                ])
            })
            .collect();
        // Module-level pipeline telemetry: analysis-cache totals plus the
        // per-pass rows summed across shards (by pass name).
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut passes: Vec<PassStats> = Vec::new();
        for s in &self.shards {
            hits += s.analysis_hits.load(Ordering::Relaxed);
            misses += s.analysis_misses.load(Ordering::Relaxed);
            fold_pass_stats(&mut passes, &s.pass_totals.lock());
        }
        let pass_rows: Vec<Json> = passes
            .iter()
            .map(|p| {
                Json::obj([
                    ("pass", p.name.to_json()),
                    ("wall_ns", p.wall_ns.to_json()),
                    ("ticks_added", (p.ticks_added as u64).to_json()),
                    ("ticks_removed", (p.ticks_removed as u64).to_json()),
                    ("mass_moved", p.mass_moved.to_json()),
                ])
            })
            .collect();
        let instrumentation = Json::obj([
            ("analysis_cache_hits", hits.to_json()),
            ("analysis_cache_misses", misses.to_json()),
            ("passes", Json::Arr(pass_rows)),
        ]);
        let checkpoints_total: u64 = self
            .shards
            .iter()
            .map(|s| s.checkpoints.load(Ordering::Relaxed))
            .sum();
        let recovery = Json::obj([
            (
                "checkpoint_interval",
                self.config.checkpoint_interval.to_json(),
            ),
            ("checkpoints_taken", checkpoints_total.to_json()),
            (
                "recoveries",
                Counters::get(&self.counters.recoveries).to_json(),
            ),
            (
                "cold_requeues",
                Counters::get(&self.counters.cold_requeues).to_json(),
            ),
            (
                "drain_flushed",
                Counters::get(&self.counters.drain_flushed).to_json(),
            ),
            (
                "net_faults_active",
                self.net_faults.lock().is_some().to_json(),
            ),
            (
                "crash_faults_active",
                self.crash_faults.lock().is_some().to_json(),
            ),
        ]);
        // Sanitizer totals: how many jobs opted into the happens-before
        // check and what it found. Races/cycles are expected to stay 0 on
        // the serving workloads; the fields exist so a nonzero is visible.
        let sanitizer = Json::obj([
            (
                "jobs",
                self.shards
                    .iter()
                    .map(|s| s.sanitized.load(Ordering::Relaxed))
                    .sum::<u64>()
                    .to_json(),
            ),
            (
                "races",
                self.shards
                    .iter()
                    .map(|s| s.san_races.load(Ordering::Relaxed))
                    .sum::<u64>()
                    .to_json(),
            ),
            (
                "lock_cycles",
                self.shards
                    .iter()
                    .map(|s| s.san_cycles.load(Ordering::Relaxed))
                    .sum::<u64>()
                    .to_json(),
            ),
        ]);
        Json::obj([
            ("ok", true.to_json()),
            (
                "uptime_ms",
                (self.started.elapsed().as_millis() as u64).to_json(),
            ),
            ("queue_depth", self.queue.len().to_json()),
            (
                "in_flight",
                self.in_flight.load(Ordering::Relaxed).to_json(),
            ),
            (
                "open_conns",
                self.open_conns.load(Ordering::Relaxed).to_json(),
            ),
            (
                "peak_conns",
                self.peak_conns.load(Ordering::Relaxed).to_json(),
            ),
            ("draining", self.draining.load(Ordering::Relaxed).to_json()),
            ("counters", self.counters.to_json()),
            ("recovery", recovery),
            ("queue_latency", self.queue_latency.to_json()),
            ("exec_latency", self.exec_latency.to_json()),
            ("instrumentation", instrumentation),
            ("sanitizer", sanitizer),
            ("shards", Json::Arr(shard_rows)),
        ])
    }
}

/// A running server. Dropping the handle does **not** stop it; send a
/// `shutdown` request (or call [`DetServed::shutdown_and_join`]).
pub struct DetServed {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl DetServed {
    /// Bind, spawn shard workers + supervisor + event loop, and return.
    pub fn start(config: ServeConfig) -> std::io::Result<DetServed> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (loop_waker, wake_rx) = evloop::wake_pair()?;
        let shards = (0..config.shards)
            .map(|_| ShardSlot {
                evicted: AtomicBool::new(false),
                busy_since: Mutex::new(None),
                current_job: Mutex::new(None),
                completed: AtomicU64::new(0),
                recoveries: AtomicU64::new(0),
                requeues: AtomicU64::new(0),
                checkpoints: AtomicU64::new(0),
                analysis_hits: AtomicU64::new(0),
                analysis_misses: AtomicU64::new(0),
                pass_totals: Mutex::new(Vec::new()),
                sanitized: AtomicU64::new(0),
                san_races: AtomicU64::new(0),
                san_cycles: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity),
            counters: Counters::default(),
            queue_latency: LatencyHistogram::default(),
            exec_latency: LatencyHistogram::default(),
            shards,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            ledger: Mutex::new(ReceiptLedger::default()),
            net_faults: Mutex::new(None),
            crash_faults: Mutex::new(None),
            conn_counter: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            peak_conns: AtomicU64::new(0),
            loop_waker,
            started: Instant::now(),
            config,
        });

        let mut threads = Vec::new();
        for shard_id in 0..shared.config.shards {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("shard-{shard_id}"))
                    .spawn(move || shard_worker(shard_id, &sh))?,
            );
        }
        if shared.config.watchdog.is_some() {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("supervisor".to_string())
                    .spawn(move || supervisor(&sh))?,
            );
        }
        {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("evloop".to_string())
                    .spawn(move || event_loop(listener, wake_rx, &sh))?,
            );
        }
        Ok(DetServed {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until every server thread has exited (i.e. after a client
    /// sent `shutdown` and the drain completed).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Convenience for tests and `detserved`'s signal path: drain and stop
    /// from the server side, then join.
    pub fn shutdown_and_join(self) {
        let shared = Arc::clone(&self.shared);
        begin_drain(&shared);
        wait_drained(&shared);
        finish_shutdown(&shared);
        self.join();
    }
}

fn begin_drain(shared: &Shared) {
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue.close();
}

fn wait_drained(shared: &Shared) {
    while !shared.queue.is_empty() || shared.in_flight.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn finish_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Interrupt the event loop's poll so it notices the flag now.
    shared.loop_waker.wake();
}

/// Per-connection state: the shared framed connection and slot table,
/// plus the coordinates injected wire faults key on.
struct Conn {
    io: FramedConn,
    slots: SlotTable,
    /// Wire-fault coordinate (stable accept order).
    conn_id: u64,
    /// Index of this connection's data-plane responses (control-plane
    /// traffic doesn't advance it, so a stats poll can't shift which run
    /// responses get mangled).
    resp_idx: u64,
}

impl Conn {
    /// Nothing is owed: no unanswered frame, no unflushed byte.
    fn idle(&self) -> bool {
        self.slots.is_empty() && !self.io.has_output()
    }

    /// Move complete front slots to the out-queue, turning any injected
    /// fault on a data-plane frame into gated or closing chunks (a
    /// `Delay` is a timer on the chunk, never a thread sleep).
    fn queue_responses(&mut self, shared: &Shared) {
        while let Some((kind, mut bytes)) = self.slots.pop_ready() {
            let mut fault = None;
            if kind != SlotKind::Control {
                let plan = *shared.net_faults.lock();
                fault = plan.and_then(|p| p.fault_for(self.conn_id, self.resp_idx, bytes.len()));
                self.resp_idx += 1;
            }
            let Some(fault) = fault else {
                self.io.queue(bytes);
                continue;
            };
            Counters::bump(&shared.counters.net_faults_injected);
            let after = |ms| Some(Instant::now() + Duration::from_millis(ms));
            match fault {
                WireFault::Drop => self.io.queue_gated(Vec::new(), None, true),
                WireFault::Truncate { keep } => {
                    bytes.truncate(keep);
                    self.io.queue_gated(bytes, None, true);
                }
                WireFault::PartialWrite { first, stall_ms } => {
                    let rest = bytes.split_off(first.min(bytes.len()));
                    self.io.queue(bytes);
                    self.io.queue_gated(rest, after(stall_ms), false);
                }
                WireFault::Delay { ms } => self.io.queue_gated(bytes, after(ms), false),
            }
        }
    }
}

/// Fill a response slot, if its connection is still there. A completion
/// for a connection that died in the meantime is simply discarded — the
/// job itself already finished and was counted.
fn fill_slot(conns: &mut HashMap<u64, Conn>, token: u64, slot: u64, idx: usize, result: Json) {
    if let Some(conn) = conns.get_mut(&token) {
        conn.slots.fill(slot, idx, result);
    }
}

/// The server's single network thread: accepts, reads, frames,
/// dispatches, and flushes every connection via `poll(2)` readiness.
fn event_loop(listener: TcpListener, wake_rx: evloop::WakeRx, shared: &Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let (tx, completions) = mpsc::channel::<Completion>();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = 0u64;
    let mut poller = Poller::new();
    let mut scratch = vec![0u8; 64 * 1024];
    // Connections whose `shutdown` op awaits drain completion.
    let mut shutdown_waiters: Vec<(u64, u64)> = Vec::new();
    let mut exit_deadline: Option<Instant> = None;

    loop {
        // Deliver results from shard workers into their slots.
        while let Ok(c) = completions.try_recv() {
            fill_slot(&mut conns, c.token, c.slot, c.idx, render_result(c.result));
        }

        // A pending `shutdown` op resolves once the drain completes.
        if !shutdown_waiters.is_empty()
            && shared.queue.is_empty()
            && shared.in_flight.load(Ordering::SeqCst) == 0
        {
            let resp = Json::obj([
                ("ok", true.to_json()),
                ("drained", true.to_json()),
                (
                    "drain_flushed",
                    Counters::get(&shared.counters.drain_flushed).to_json(),
                ),
            ]);
            for (token, slot) in shutdown_waiters.drain(..) {
                fill_slot(&mut conns, token, slot, 0, resp.clone());
            }
            shared.shutdown.store(true, Ordering::SeqCst);
        }

        let exiting = shared.shutdown.load(Ordering::SeqCst);
        if exiting && exit_deadline.is_none() {
            exit_deadline = Some(Instant::now() + Duration::from_secs(5));
        }

        // Render completed slots to bytes, flush, and reap dead peers.
        let now = Instant::now();
        conns.retain(|_, conn| {
            conn.queue_responses(shared);
            conn.io.flush(now);
            !(conn.io.is_dead() || conn.io.peer_closed() && conn.idle())
        });
        shared
            .open_conns
            .store(conns.len() as u64, Ordering::Relaxed);

        // Exit once everything owed has flushed (or the grace deadline
        // passes — a stuck peer must not wedge shutdown forever).
        if exiting {
            let overdue = exit_deadline.map(|d| now >= d).unwrap_or(false);
            if overdue || conns.values().all(Conn::idle) {
                break;
            }
        }

        // Build the interest set. Entry order fixes the index mapping.
        poller.clear();
        poller.push(wake_rx.fd(), Interest::READABLE);
        let accept_idx = (!exiting).then(|| poller.push(raw_fd(&listener), Interest::READABLE));
        let mut order: Vec<(usize, u64)> = Vec::with_capacity(conns.len());
        let mut timeout = if exiting {
            Duration::from_millis(10)
        } else if !shutdown_waiters.is_empty() {
            Duration::from_millis(2)
        } else {
            Duration::from_millis(250)
        };
        for (&token, conn) in conns.iter() {
            let (interest, timer) = conn.io.interest(now);
            timeout = timer.map_or(timeout, |t| timeout.min(t));
            if let Some(interest) = interest {
                order.push((poller.push(conn.io.fd(), interest), token));
            }
        }

        if poller.wait(Some(timeout)).is_err() {
            std::thread::sleep(Duration::from_millis(5));
        }
        wake_rx.drain();

        if accept_idx.is_some_and(|i| poller.ready(i).readable) {
            accept_backlog(&listener, |io| {
                let conn_id = shared.conn_counter.fetch_add(1, Ordering::Relaxed);
                conns.insert(
                    next_token,
                    Conn {
                        io,
                        slots: SlotTable::default(),
                        conn_id,
                        resp_idx: 0,
                    },
                );
                next_token += 1;
            });
            let open = conns.len() as u64;
            shared.open_conns.store(open, Ordering::Relaxed);
            shared.peak_conns.fetch_max(open, Ordering::Relaxed);
        }

        // Read + process frames on readable connections.
        if !exiting {
            for &(idx, token) in &order {
                let ready = poller.ready(idx);
                if !ready.any() {
                    continue;
                }
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                conn.io.read_ready(ready, &mut scratch);
                while let Some(line) = conn.io.next_frame() {
                    process_frame(conn, token, &line, shared, &tx, &mut shutdown_waiters);
                }
            }
        }
    }
}

/// Parse and dispatch one request frame on a connection.
fn process_frame(
    conn: &mut Conn,
    token: u64,
    line: &str,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<Completion>,
    shutdown_waiters: &mut Vec<(u64, u64)>,
) {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(reply) => return conn.slots.push_ready(SlotKind::Control, reply),
    };
    let (kind, bodies) = match WireRequest::classify(&req) {
        WireRequest::Run(body) => (SlotKind::Run, std::slice::from_ref(body)),
        WireRequest::Batch(bodies) => (SlotKind::Batch, bodies),
        WireRequest::BadBatch(why) => {
            return conn.slots.push_ready(SlotKind::Batch, error_json(why))
        }
        WireRequest::Hello { max_version } => {
            return conn
                .slots
                .push_ready(SlotKind::Control, WireRequest::hello_reply(max_version))
        }
        WireRequest::Other(Some("shutdown")) => {
            begin_drain(shared);
            let slot = conn.slots.alloc(SlotKind::Control, 1);
            return shutdown_waiters.push((token, slot));
        }
        WireRequest::Other(op) => {
            return conn
                .slots
                .push_ready(SlotKind::Control, dispatch(op, &req, shared))
        }
    };
    let slot = conn.slots.alloc(kind, bodies.len());
    for (idx, body) in bodies.iter().enumerate() {
        let respond = Responder {
            tx: tx.clone(),
            waker: shared.loop_waker.clone(),
            token,
            slot,
            idx,
        };
        if let Some(immediate) = admit(shared, body, respond) {
            conn.slots.fill(slot, idx, immediate);
        }
    }
}

/// Control-plane ops that answer synchronously (`run`/`batch`/`hello`/
/// `shutdown` are handled by the event loop itself).
fn dispatch(op: Option<&str>, req: &Json, shared: &Arc<Shared>) -> Json {
    match op {
        Some("ping") => Json::obj([("ok", true.to_json())]),
        Some("stats") => shared.stats_json(),
        Some("kill") => {
            let Some(shard) = req.get("shard").and_then(Json::as_u64) else {
                return error_json("kill requires `shard`");
            };
            let evicted = shared.evict(shard as usize);
            Json::obj([("ok", true.to_json()), ("evicted", evicted.to_json())])
        }
        Some("chaos") => {
            // Absent field = clear that plan; the op is control-plane, so
            // chaos can always be disarmed even while wire faults rage.
            let net = match req.get("net") {
                None => None,
                Some(v) => match NetFaultPlan::from_json(v) {
                    Ok(p) => Some(p),
                    Err(e) => return error_json(&format!("bad net plan: {e}")),
                },
            };
            let crash = match req.get("crash") {
                None => None,
                Some(v) => match CrashPlan::from_json(v) {
                    Ok(p) => Some(p),
                    Err(e) => return error_json(&format!("bad crash plan: {e}")),
                },
            };
            *shared.net_faults.lock() = net;
            *shared.crash_faults.lock() = crash;
            Json::obj([
                ("ok", true.to_json()),
                ("net", net.map(|p| p.to_json()).unwrap_or(Json::Null)),
                ("crash", crash.map(|p| p.to_json()).unwrap_or(Json::Null)),
            ])
        }
        op => WireRequest::unknown_op_reply(op),
    }
}

/// Admit one job body (a v1 `run` frame or one element of a v2 `batch`).
/// Returns `Some(response)` when the request resolves immediately (bad
/// spec, typed shed, a receipt from the memo); `None` once the job is
/// queued or parked on a running duplicate — a shard worker's completion
/// will fill the slot via the `Responder`.
fn admit(shared: &Arc<Shared>, body: &Json, respond: Responder) -> Option<Json> {
    let mut spec = match JobSpec::from_json(body) {
        Ok(spec) => spec,
        Err(e) => return Some(error_json(&format!("bad job spec: {e}"))),
    };
    // Requests that omit `scheduler` inherit the server's configured
    // default (explicit requests already carry their own policy).
    if body.get("scheduler").is_none() {
        spec.scheduler = shared.config.scheduler;
    }
    let enqueued = Instant::now();
    // Three kinds of request always execute: one that wants a sanitizer
    // report, one admitted while crashes are being injected on purpose,
    // and one that must be shed because the server is draining.
    let bypass = spec.sanitize
        || shared.draining.load(Ordering::SeqCst)
        || shared.crash_faults.lock().is_some();
    let mut is_audit = false;
    if !bypass {
        let key = spec.identity_key();
        match shared.ledger.lock().admit(key) {
            Admission::Execute { audit } => is_audit = audit,
            Admission::Attach(parked) => {
                parked.push(Waiter { respond, enqueued });
                Counters::bump(&shared.counters.accepted);
                Counters::bump(&shared.counters.collapsed);
                return None;
            }
            Admission::Answer(canonical) => {
                let receipt = Json::parse(canonical)
                    .expect("the ledger holds canonical receipts this server rendered");
                Counters::bump(&shared.counters.accepted);
                Counters::bump(&shared.counters.memo_hits);
                Counters::bump(&shared.counters.completed);
                return Some(done_json(Source::Memo, None, 0, 0, 0, receipt, None));
            }
        }
    }
    let job = Job {
        spec,
        respond,
        enqueued,
        owner: !bypass,
        attempts: 0,
        excluded: Vec::new(),
        not_before: 0,
        checkpoint: None,
    };
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    if let Err((job, err)) = shared.queue.try_push(job) {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        if job.owner {
            // Admission runs on one thread, so nothing parked meanwhile.
            shared.ledger.lock().abandon(&job.spec.identity_key());
        }
        Counters::bump(&shared.counters.rejected);
        return Some(match err {
            SubmitError::Full { depth } => {
                Counters::bump(&shared.counters.shed_full);
                // Backpressure hint scaled to the backlog we just refused.
                let retry_after_ms = (25 * depth as u64).clamp(50, 2000);
                Json::obj([
                    ("ok", false.to_json()),
                    ("error", "queue_full".to_json()),
                    ("error_kind", "shed".to_json()),
                    ("reason", "queue_full".to_json()),
                    ("retry_after_ms", retry_after_ms.to_json()),
                ])
            }
            SubmitError::Closed => {
                Counters::bump(&shared.counters.shed_draining);
                Json::obj([
                    ("ok", false.to_json()),
                    ("error", "draining".to_json()),
                    ("error_kind", "shed".to_json()),
                    ("reason", "draining".to_json()),
                ])
            }
        });
    }
    Counters::bump(&shared.counters.accepted);
    if is_audit {
        Counters::bump(&shared.counters.audits);
    }
    None
}

/// The wire response of a request answered with a receipt. `shard` and
/// `attempts` describe the execution the receipt came from (`null` and 0
/// when the memo answered); `queue_us` and `exec_us` are what this
/// request itself spent waiting and executing.
fn done_json(
    source: Source,
    shard: Option<usize>,
    attempts: u32,
    queue_us: u64,
    exec_us: u64,
    receipt: Json,
    sanitizer: Option<Box<SanitizerReport>>,
) -> Json {
    let mut fields = vec![
        ("ok", true.to_json()),
        ("source", source.name().to_json()),
        ("shard", shard.to_json()),
        ("attempts", (attempts as u64).to_json()),
        ("queue_us", queue_us.to_json()),
        ("exec_us", exec_us.to_json()),
        ("receipt", receipt),
    ];
    if let Some(report) = sanitizer {
        fields.push(("sanitize", report.to_json()));
    }
    Json::obj(fields)
}

/// Render a finished job's result as its wire response object.
fn render_result(result: JobResult) -> Json {
    match result {
        JobResult::Done {
            receipt,
            source,
            shard,
            attempts,
            queue_us,
            exec_us,
            sanitizer,
        } => done_json(
            source,
            Some(shard),
            attempts,
            queue_us,
            exec_us,
            receipt.to_json(),
            sanitizer,
        ),
        JobResult::Failed { error, attempts } => Json::obj([
            ("ok", false.to_json()),
            ("error", error.to_json()),
            ("attempts", (attempts as u64).to_json()),
        ]),
    }
}

/// Finish a job (success or permanent failure): record its receipt,
/// reply to it and to every request the ledger parked on its identity,
/// update counters, release the in-flight slot.
fn finish_job(shared: &Shared, job: Job, result: JobResult) {
    let key = job.spec.identity_key();
    let (waiters, answered) = match &result {
        JobResult::Done { receipt, .. } => {
            let canonical = receipt.canonical();
            let (sighting, waiters) = shared.ledger.lock().finish(&key, &canonical);
            if sighting == Sighting::Mismatch {
                Counters::bump(&shared.counters.receipt_mismatches);
            }
            (waiters, &shared.counters.completed)
        }
        // Only the job the ledger parked requests on may fail them.
        JobResult::Failed { .. } if job.owner => {
            (shared.ledger.lock().abandon(&key), &shared.counters.failed)
        }
        JobResult::Failed { .. } => (Vec::new(), &shared.counters.failed),
    };
    Counters::add(answered, 1 + waiters.len() as u64);
    for w in waiters {
        let waited_us = w.enqueued.elapsed().as_micros() as u64;
        w.respond.send(result.attached(waited_us));
    }
    job.respond.send(result);
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// Requeue with deterministic backoff: runnable only after `2^attempts`
/// further queue pops. `exclude` is `None` for injected crashes (the
/// shard is healthy, retrying in place is fine). A job carrying a
/// checkpoint is a **recovery** (the retry resumes mid-run); one without
/// is a **cold requeue** (rerun from zero) — counted separately so
/// `/stats` shows what checkpointing actually bought.
fn requeue_with_backoff(
    shared: &Shared,
    mut job: Job,
    failed_shard: usize,
    exclude: bool,
    seq: u64,
) {
    if exclude && !job.excluded.contains(&failed_shard) {
        job.excluded.push(failed_shard);
    }
    job.attempts += 1;
    // Saturating: a pathological attempt counter must cap the backoff,
    // not wrap the shift and exile the job to a bogus far-future seq.
    job.not_before = backoff_deadline(seq, job.attempts);
    Counters::bump(&shared.counters.requeues);
    Counters::bump(&shared.shards[failed_shard].requeues);
    if job.checkpoint.is_some() {
        Counters::bump(&shared.counters.recoveries);
    } else {
        Counters::bump(&shared.counters.cold_requeues);
    }
    eprintln!(
        "[detserved] shard {} requeued job {} (attempt {}, {}, excluded={:?})",
        failed_shard,
        job.spec.identity_key(),
        job.attempts,
        if job.checkpoint.is_some() {
            format!(
                "warm from cycle {}",
                job.checkpoint.as_ref().map(|c| c.cycle()).unwrap_or(0)
            )
        } else {
            "cold from zero".to_string()
        },
        job.excluded,
    );
    shared.queue.requeue(job);
}

fn shard_worker(id: usize, shared: &Arc<Shared>) {
    let mut engine = ShardEngine::new(id)
        .with_compile_opts(CompileOpts::threads(shared.config.compile_threads))
        .with_backend(shared.config.backend);
    let slot = &shared.shards[id];
    while let Some((mut job, seq)) = shared.queue.pop() {
        if slot.evicted.load(Ordering::Relaxed) {
            // Evicted while idle: hand the job straight back and exit.
            shared.queue.requeue(job);
            break;
        }
        // A job whose exclusion set covers every live shard can never
        // complete — fail it rather than rotate forever.
        let alive = shared.alive_shards();
        if alive.iter().all(|s| job.excluded.contains(s)) {
            let attempts = job.attempts;
            finish_job(
                shared,
                job,
                JobResult::Failed {
                    error: "no eligible shard (retries exhausted or all excluded)".to_string(),
                    attempts,
                },
            );
            continue;
        }
        if job.excluded.contains(&id) || job.not_before > seq {
            // Not ours / not yet runnable: rotate. Every rotation advances
            // the pop sequence, so backoff always expires.
            shared.queue.requeue(job);
            continue;
        }

        *slot.busy_since.lock() = Some(Instant::now());
        *slot.current_job.lock() = Some(job.spec.identity_key());
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        let resume_from = job.checkpoint.take();
        if resume_from.is_some() {
            Counters::bump(&slot.recoveries);
        }
        let crash = shared.crash_faults.lock().map(|plan| (plan, job.attempts));
        let opts = ExecOpts {
            checkpoint_every: shared.config.checkpoint_interval,
            resume_from,
            crash,
            evicted: Some(&slot.evicted),
        };
        let exec_start = Instant::now();
        let outcome = engine.execute_resumable(&job.spec, shared.config.job_cycle_budget, opts);
        let exec_us = exec_start.elapsed().as_micros() as u64;
        *slot.busy_since.lock() = None;
        *slot.current_job.lock() = None;

        // Mirror the engine's compilation + checkpoint telemetry into the
        // slot so `/stats` (served off other threads) can read it.
        slot.analysis_hits
            .store(engine.analysis_cache_hits(), Ordering::Relaxed);
        slot.analysis_misses
            .store(engine.analysis_cache_misses(), Ordering::Relaxed);
        slot.checkpoints
            .store(engine.checkpoints_taken(), Ordering::Relaxed);
        *slot.pass_totals.lock() = engine.pass_totals().to_vec();

        if slot.evicted.load(Ordering::Relaxed) {
            // Killed mid-run (watchdog or `kill`): the result — even a
            // successful one — is discarded, and the job reruns elsewhere.
            // Determinism makes that safe: the sibling's receipt is
            // byte-identical to the one we just threw away. The sibling
            // starts from our latest checkpoint when we managed to take
            // one, so the eviction costs at most one interval of work.
            job.checkpoint = match outcome {
                ExecOutcome::Preempted { checkpoint } => Some(checkpoint),
                ExecOutcome::Done {
                    last_checkpoint, ..
                } => last_checkpoint,
                ExecOutcome::Crashed { checkpoint, .. } => checkpoint,
                ExecOutcome::Failed(_) => None,
            };
            requeue_with_backoff(shared, job, id, true, seq);
            break;
        }

        match outcome {
            ExecOutcome::Done {
                receipt,
                last_checkpoint,
                sanitizer,
            } => {
                if let Some(report) = &sanitizer {
                    Counters::bump(&slot.sanitized);
                    slot.san_races
                        .fetch_add(report.races.len() as u64, Ordering::Relaxed);
                    slot.san_cycles
                        .fetch_add(report.lock_cycles.len() as u64, Ordering::Relaxed);
                }
                // Graceful drain: count the jobs that had checkpointed on
                // their way to finishing. A finished job has nothing to
                // resume, so the checkpoint itself is dropped.
                if shared.draining.load(Ordering::SeqCst) && last_checkpoint.is_some() {
                    Counters::bump(&shared.counters.drain_flushed);
                }
                shared.queue_latency.record_us(queue_us);
                shared.exec_latency.record_us(exec_us);
                Counters::bump(&slot.completed);
                let attempts = job.attempts;
                finish_job(
                    shared,
                    job,
                    JobResult::Done {
                        receipt,
                        source: Source::Exec,
                        shard: id,
                        attempts,
                        queue_us,
                        exec_us,
                        sanitizer: sanitizer.map(Box::new),
                    },
                );
            }
            ExecOutcome::Preempted { checkpoint } => {
                // An eviction that raced clear of the check above (it was
                // observed inside the run); same path as evicted-after-run.
                job.checkpoint = Some(checkpoint);
                requeue_with_backoff(shared, job, id, true, seq);
                break;
            }
            ExecOutcome::Crashed {
                error,
                checkpoint,
                injected,
            } if job.attempts < shared.config.max_retries => {
                if injected {
                    Counters::bump(&shared.counters.crashes_injected);
                }
                eprintln!(
                    "[detserved] shard {} crashed on job {}: {error}",
                    id,
                    job.spec.identity_key(),
                );
                job.checkpoint = checkpoint;
                // An injected crash says nothing about the shard's health,
                // so it stays eligible — organic panics exclude it.
                requeue_with_backoff(shared, job, id, !injected, seq);
            }
            ExecOutcome::Crashed { error, .. } => {
                let attempts = job.attempts;
                finish_job(
                    shared,
                    job,
                    JobResult::Failed {
                        error: error.to_string(),
                        attempts,
                    },
                );
            }
            ExecOutcome::Failed(err) => {
                let attempts = job.attempts;
                finish_job(
                    shared,
                    job,
                    JobResult::Failed {
                        error: err.to_string(),
                        attempts,
                    },
                );
            }
        }
    }
}

fn supervisor(shared: &Arc<Shared>) {
    let Some(limit) = shared.config.watchdog else {
        return;
    };
    let tick = limit.min(Duration::from_millis(50));
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        for (i, slot) in shared.shards.iter().enumerate() {
            let stalled = slot
                .busy_since
                .lock()
                .map(|since| since.elapsed() > limit)
                .unwrap_or(false);
            if stalled && !slot.evicted.load(Ordering::Relaxed) && shared.evict(i) {
                eprintln!(
                    "[detserved] stall report: shard {} exceeded the {:?} watchdog on job {} — evicted",
                    i,
                    limit,
                    slot.current_job
                        .lock()
                        .clone()
                        .unwrap_or_else(|| "<none>".to_string()),
                );
            }
        }
    }
}
