//! A shard: one isolated deterministic engine.
//!
//! Each shard owns a private VM instance and instrumentation cache —
//! tenants never share a lock-id space, an instrumented module, or a
//! clock vector with another shard's jobs. A job is executed start to
//! finish on one shard under a **cycle budget**: the deterministic
//! analogue of a wall-clock watchdog. Exceeding the budget is a
//! deterministic fact about the job (the same job exceeds it on every
//! shard, every time), so budget exhaustion fails the job instead of
//! retrying it.

use crate::netfault::{CrashPlan, InjectedCrash};
use crate::protocol::JobSpec;
use crate::receipt::Receipt;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument_with, CompileOpts, Instrumented, OptConfig};
use detlock_passes::plan::Placement;
use detlock_passes::stats::{fold_pass_stats, PassStats};
use detlock_vm::machine::{
    Checkpoint, CkptControl, ExecMode, Jitter, Machine, MachineConfig, RunOutcome, ThreadSpec,
};
use detlock_vm::sanitizer::SanitizerReport;
use detlock_vm::Backend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Why a shard could not produce a receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The workload name is not in the registry.
    UnknownWorkload(String),
    /// The run exceeded the per-job cycle budget (deterministic: no retry).
    CycleBudgetExhausted(u64),
    /// The engine panicked mid-run (simulated fault or bug): retryable on
    /// another shard.
    Panicked(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnknownWorkload(name) => write!(f, "unknown workload `{name}`"),
            ShardError::CycleBudgetExhausted(budget) => {
                write!(f, "cycle budget exhausted ({budget} cycles)")
            }
            ShardError::Panicked(msg) => write!(f, "shard engine panicked: {msg}"),
        }
    }
}

impl ShardError {
    /// Whether requeueing on a different shard can help.
    pub fn retryable(&self) -> bool {
        matches!(self, ShardError::Panicked(_))
    }
}

/// Result of [`ShardEngine::execute_resumable`].
// Checkpoint-carrying variants dominate the size, but one outcome exists
// per execution attempt and is consumed immediately — boxing would trade
// a transient stack copy for an allocation on the hot serving path.
#[allow(clippy::large_enum_variant)]
pub enum ExecOutcome {
    /// The run finished with a receipt. `last_checkpoint` is the most
    /// recent snapshot taken on the way (None when checkpointing was off
    /// or the run finished inside the first interval) — the server hands it
    /// on when an eviction raced the finish, and counts it during a
    /// graceful drain.
    Done {
        /// The determinism receipt.
        receipt: Receipt,
        /// Latest snapshot taken before completion.
        last_checkpoint: Option<Checkpoint>,
        /// Happens-before sanitizer report, when the job opted in with
        /// `sanitize: true` (None otherwise — the hooks cost nothing when
        /// off).
        sanitizer: Option<SanitizerReport>,
    },
    /// The shard was evicted mid-run (watchdog or `kill`): the run
    /// stopped at the next checkpoint boundary instead of wasting a full
    /// rerun. Resume from `checkpoint`.
    Preempted {
        /// The state to resume from.
        checkpoint: Checkpoint,
    },
    /// The engine panicked mid-run. `checkpoint` is the most recent
    /// snapshot (the resume point if none was taken this attempt) —
    /// recovery resumes from it instead of rerunning from zero.
    Crashed {
        /// The panic, as a [`ShardError::Panicked`].
        error: ShardError,
        /// Latest snapshot to recover from (`None`: recover from zero).
        checkpoint: Option<Checkpoint>,
        /// True when the panic was a [`CrashPlan`] injection: the shard
        /// itself is healthy and need not be excluded from the retry.
        injected: bool,
    },
    /// A deterministic, non-retryable failure (unknown workload, total
    /// cycle budget exhausted).
    Failed(ShardError),
}

/// Knobs for one resumable execution attempt.
#[derive(Default)]
pub struct ExecOpts<'a> {
    /// Snapshot every this many cycles (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Resume from this snapshot instead of starting at cycle 0.
    pub resume_from: Option<Checkpoint>,
    /// Seeded crash injection for this attempt (plan, attempt number).
    pub crash: Option<(CrashPlan, u32)>,
    /// Checked at every checkpoint: when set, stop with
    /// [`ExecOutcome::Preempted`] so an evicted shard stops burning cycles
    /// on a result that will be discarded. Set before the attempt, it
    /// stops the run at its first boundary.
    pub evicted: Option<&'a AtomicBool>,
}

/// Instrumentation cache key: everything the instrumented module depends
/// on (seed excluded — it only perturbs the run, not the compilation).
fn cache_key(spec: &JobSpec) -> String {
    format!(
        "{}/t{}/s{}/{}",
        spec.workload,
        spec.threads,
        spec.scale.to_bits(),
        spec.opt.name()
    )
}

struct CachedJob {
    inst: Instrumented,
    specs: Vec<ThreadSpec>,
    mem_words: usize,
}

/// One shard's private deterministic engine.
pub struct ShardEngine {
    /// Shard index (stable for the server's lifetime).
    pub id: usize,
    cost: CostModel,
    cache: HashMap<String, CachedJob>,
    compile: CompileOpts,
    /// What every job's config starts from (`Det` mode, this shard's
    /// backend).
    template: MachineConfig,
    analysis_hits: u64,
    analysis_misses: u64,
    pass_totals: Vec<PassStats>,
    checkpoints_taken: u64,
}

impl ShardEngine {
    /// Create an engine for shard `id`. It compiles serially and uncached;
    /// each configuration compiles once per shard and stays in the shard's
    /// own table.
    pub fn new(id: usize) -> ShardEngine {
        ShardEngine {
            id,
            cost: CostModel::default(),
            cache: HashMap::new(),
            compile: CompileOpts::serial(),
            template: MachineConfig {
                mode: ExecMode::Det,
                ..MachineConfig::default()
            },
            analysis_hits: 0,
            analysis_misses: 0,
            pass_totals: Vec::new(),
            checkpoints_taken: 0,
        }
    }

    /// Override the compile options (worker count / cache participation);
    /// the repo benchmark's cold-compile probe sets them explicitly.
    pub fn with_compile_opts(mut self, opts: CompileOpts) -> ShardEngine {
        self.compile = opts;
        self
    }

    /// Override the execution backend. Receipts are byte-identical across
    /// backends (the differential-oracle guarantee), so this only changes
    /// how fast the shard retires jobs.
    pub fn with_backend(mut self, backend: Backend) -> ShardEngine {
        self.template.backend = backend;
        self
    }

    /// Fold one compilation's pipeline telemetry into this shard's running
    /// totals (kept per pass name, across every config ever compiled here).
    fn absorb_stats(&mut self, inst: &Instrumented) {
        self.analysis_hits += inst.stats.analysis_cache_hits;
        self.analysis_misses += inst.stats.analysis_cache_misses;
        fold_pass_stats(&mut self.pass_totals, &inst.stats.per_pass);
    }

    /// Run one job to completion under `cycle_budget` simulated cycles
    /// (compatibility wrapper: no checkpointing, no eviction).
    pub fn execute(&mut self, spec: &JobSpec, cycle_budget: u64) -> Result<Receipt, ShardError> {
        match self.execute_resumable(spec, cycle_budget, ExecOpts::default()) {
            ExecOutcome::Done { receipt, .. } => Ok(receipt),
            ExecOutcome::Crashed { error, .. } | ExecOutcome::Failed(error) => Err(error),
            ExecOutcome::Preempted { .. } => {
                unreachable!("no eviction flag configured")
            }
        }
    }

    /// Compile (or fetch) the job's instrumented module, caching it.
    fn ensure_compiled(&mut self, spec: &JobSpec, key: &str) -> Result<(), ShardError> {
        if self.cache.contains_key(key) {
            return Ok(());
        }
        let w = detlock_workloads::by_name(&spec.workload, spec.threads, spec.scale)
            .ok_or_else(|| ShardError::UnknownWorkload(spec.workload.clone()))?;
        let inst = instrument_with(
            &w.module,
            &self.cost,
            &OptConfig::only(spec.opt),
            Placement::Start,
            &w.entries,
            self.compile,
        );
        self.absorb_stats(&inst);
        let specs = w
            .threads
            .iter()
            .map(|t| ThreadSpec {
                func: t.func,
                args: t.args.clone(),
            })
            .collect();
        self.cache.insert(
            key.to_string(),
            CachedJob {
                inst,
                specs,
                mem_words: w.mem_words,
            },
        );
        Ok(())
    }

    /// Run one attempt of a job: optionally resuming from a checkpoint,
    /// snapshotting every `opts.checkpoint_every` cycles, aborting early
    /// on eviction, and injecting seeded crashes. The engine survives a panicking run
    /// (the shard reports it and stays up), and the latest checkpoint
    /// survives the panic too — that is the whole recovery story: a crash
    /// loses at most one checkpoint interval of work.
    pub fn execute_resumable(
        &mut self,
        spec: &JobSpec,
        cycle_budget: u64,
        opts: ExecOpts<'_>,
    ) -> ExecOutcome {
        let key = cache_key(spec);
        if let Err(e) = self.ensure_compiled(spec, &key) {
            return ExecOutcome::Failed(e);
        }
        let cached = &self.cache[&key];
        let cfg = MachineConfig {
            mem_words: cached.mem_words,
            jitter: Jitter::default().with_seed(spec.seed),
            max_cycles: cycle_budget,
            sanitize: spec.sanitize,
            scheduler: spec.scheduler,
            ..self.template.clone()
        };
        let key_hash = CrashPlan::key_hash(&spec.identity_key());
        // `latest` lives outside the catch_unwind boundary so a panicking
        // run still leaves its last checkpoint retrievable.
        let mut latest: Option<Checkpoint> = opts.resume_from.clone();
        let mut taken: u64 = 0;
        let result = {
            let latest = &mut latest;
            let taken = &mut taken;
            let cost = &self.cost;
            let opts = &opts;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                move || -> Result<RunOutcome, String> {
                    let machine = match &opts.resume_from {
                        Some(ck) => Machine::resume(&cached.inst.module, cost, cfg.clone(), ck)
                            .map_err(|e| e.to_string())?,
                        None => Machine::new(&cached.inst.module, cost, &cached.specs, cfg),
                    };
                    Ok(
                        machine.run_with_checkpoints(opts.checkpoint_every, &mut |ck| {
                            *taken += 1;
                            *latest = Some(ck.clone());
                            if opts.evicted.is_some_and(|ev| ev.load(Ordering::Relaxed)) {
                                return CkptControl::Abort;
                            }
                            if let Some((plan, attempt)) = opts.crash {
                                if plan.should_crash(key_hash, attempt, *taken) {
                                    std::panic::panic_any(InjectedCrash {
                                        attempt,
                                        at_checkpoint: *taken,
                                    });
                                }
                            }
                            CkptControl::Continue
                        }),
                    )
                },
            ))
        };
        self.checkpoints_taken += taken;
        match result {
            Ok(Ok(RunOutcome::Finished {
                metrics,
                hit_limit,
                sanitizer,
                ..
            })) => {
                if hit_limit {
                    ExecOutcome::Failed(ShardError::CycleBudgetExhausted(cycle_budget))
                } else {
                    ExecOutcome::Done {
                        receipt: Receipt::from_metrics(spec, &metrics),
                        last_checkpoint: latest,
                        sanitizer,
                    }
                }
            }
            Ok(Ok(RunOutcome::Aborted { .. })) => ExecOutcome::Preempted {
                checkpoint: latest.expect("an aborted run sank a checkpoint"),
            },
            // A refused resume (fingerprint mismatch) should be impossible
            // when the server passes matching configs; recover from zero
            // on another shard rather than wedging the job.
            Ok(Err(resume_err)) => ExecOutcome::Crashed {
                error: ShardError::Panicked(format!("resume refused: {resume_err}")),
                checkpoint: None,
                injected: false,
            },
            Err(payload) => {
                let injected = payload.downcast_ref::<InjectedCrash>().is_some();
                let msg = payload
                    .downcast_ref::<InjectedCrash>()
                    .map(|c| c.to_string())
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                ExecOutcome::Crashed {
                    error: ShardError::Panicked(msg),
                    checkpoint: latest,
                    injected,
                }
            }
        }
    }

    /// Number of distinct (workload, threads, scale, opt) configurations
    /// this shard has compiled.
    pub fn cached_configs(&self) -> usize {
        self.cache.len()
    }

    /// Total analysis-cache hits across every compilation on this shard.
    pub fn analysis_cache_hits(&self) -> u64 {
        self.analysis_hits
    }

    /// Total analysis-cache misses across every compilation on this shard.
    pub fn analysis_cache_misses(&self) -> u64 {
        self.analysis_misses
    }

    /// Cumulative per-pass telemetry (summed by pass name) across every
    /// compilation on this shard.
    pub fn pass_totals(&self) -> &[PassStats] {
        &self.pass_totals
    }

    /// Total checkpoints taken across every execution on this shard.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_passes::pipeline::OptLevel;

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            workload: "ocean".into(),
            threads: 2,
            scale: 0.02,
            seed,
            opt: OptLevel::All,
            sanitize: false,
            scheduler: detlock_vm::Sched::Kendo,
        }
    }

    #[test]
    fn sanitized_job_reports_and_matches_the_plain_receipt() {
        let mut engine = ShardEngine::new(0);
        let reference = engine.execute(&spec(3), u64::MAX).unwrap();
        let mut s = spec(3);
        s.sanitize = true;
        match engine.execute_resumable(&s, u64::MAX, ExecOpts::default()) {
            ExecOutcome::Done {
                receipt, sanitizer, ..
            } => {
                // The sanitizer must not perturb the schedule…
                assert_eq!(receipt.canonical(), reference.canonical());
                // …and the serving workloads are race- and cycle-free.
                let report = sanitizer.expect("sanitize: true must yield a report");
                assert!(report.races.is_empty());
                assert!(report.lock_cycles.is_empty());
                assert!(report.acquires > 0);
            }
            _ => panic!("sanitized run must finish"),
        }
    }

    #[test]
    fn execute_produces_stable_receipts() {
        let mut engine = ShardEngine::new(0);
        let r1 = engine.execute(&spec(7), u64::MAX).unwrap();
        let r2 = engine.execute(&spec(7), u64::MAX).unwrap();
        assert_eq!(r1.canonical(), r2.canonical());
        assert_eq!(engine.cached_configs(), 1);
    }

    #[test]
    fn different_seeds_share_the_compiled_module() {
        let mut engine = ShardEngine::new(0);
        let r1 = engine.execute(&spec(1), u64::MAX).unwrap();
        let r2 = engine.execute(&spec(2), u64::MAX).unwrap();
        // Weak determinism: the lock order (and so the receipt) is a
        // function of the program, not the noise seed.
        assert_eq!(r1.trace_hash, r2.trace_hash);
        assert_eq!(r1.final_clocks, r2.final_clocks);
        assert_eq!(engine.cached_configs(), 1);
    }

    #[test]
    fn two_engines_agree() {
        let mut a = ShardEngine::new(0);
        let mut b = ShardEngine::new(1);
        let ra = a.execute(&spec(5), u64::MAX).unwrap();
        let rb = b.execute(&spec(5), u64::MAX).unwrap();
        assert_eq!(ra.canonical(), rb.canonical());
    }

    #[test]
    fn compilation_telemetry_accumulates() {
        let mut engine = ShardEngine::new(0);
        engine.execute(&spec(1), u64::MAX).unwrap();
        // The serving config (OptLevel::All) runs the full pipeline, so the
        // shared analysis cache must have been consulted more than once per
        // function.
        assert!(engine.analysis_cache_hits() > 0);
        assert!(engine.analysis_cache_misses() > 0);
        assert!(!engine.pass_totals().is_empty());
        let before = engine.analysis_cache_hits();
        // A cache hit on the compiled module adds no new telemetry…
        engine.execute(&spec(2), u64::MAX).unwrap();
        assert_eq!(engine.analysis_cache_hits(), before);
        // …a new config compiles again and accumulates.
        let mut s = spec(3);
        s.opt = OptLevel::None;
        engine.execute(&s, u64::MAX).unwrap();
        assert!(engine.analysis_cache_misses() > 0);
        assert_eq!(engine.cached_configs(), 2);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let mut engine = ShardEngine::new(0);
        let mut s = spec(1);
        s.workload = "nope".into();
        assert_eq!(
            engine.execute(&s, u64::MAX),
            Err(ShardError::UnknownWorkload("nope".into()))
        );
    }

    #[test]
    fn injected_crashes_recover_from_checkpoints_to_the_same_receipt() {
        let mut engine = ShardEngine::new(0);
        let reference = engine.execute(&spec(4), u64::MAX).unwrap();
        let plan = CrashPlan {
            seed: 1234,
            per_1024: 1024, // always crash at the first boundary of attempt 0
        };
        let mut resume = None;
        let mut attempt = 0u32;
        let mut crashes = 0;
        let receipt = loop {
            let opts = ExecOpts {
                checkpoint_every: 1500,
                resume_from: resume.take(),
                crash: Some((plan, attempt)),
                ..ExecOpts::default()
            };
            match engine.execute_resumable(&spec(4), u64::MAX, opts) {
                ExecOutcome::Done { receipt, .. } => break receipt,
                ExecOutcome::Crashed {
                    checkpoint,
                    injected,
                    ..
                } => {
                    assert!(injected, "only injected crashes expected");
                    crashes += 1;
                    attempt += 1;
                    resume = checkpoint;
                }
                _ => panic!("unexpected outcome"),
            }
            assert!(attempt < 32, "crash plan failed to decay");
        };
        assert!(crashes > 0, "crash plan never fired");
        assert_eq!(
            receipt.canonical(),
            reference.canonical(),
            "crash/resume chain diverged from the uninterrupted run"
        );
    }

    /// An eviction stops a run at its next checkpoint boundary with state
    /// another engine resumes. Evicted before every attempt, a job moves on
    /// one interval per attempt, alternating between two engines, and the
    /// chain ends in the uninterrupted run's receipt.
    #[test]
    fn eviction_flag_aborts_at_a_checkpoint_with_resumable_state() {
        let mut engines = [ShardEngine::new(0), ShardEngine::new(1)];
        let reference = engines[0].execute(&spec(6), u64::MAX).unwrap();
        let evicted = AtomicBool::new(true);
        let mut resume = None;
        let mut preemptions = 0u64;
        let receipt = loop {
            let opts = ExecOpts {
                checkpoint_every: 1000,
                resume_from: resume.take(),
                evicted: Some(&evicted),
                ..ExecOpts::default()
            };
            let engine = &mut engines[preemptions as usize % 2];
            match engine.execute_resumable(&spec(6), u64::MAX, opts) {
                ExecOutcome::Done { receipt, .. } => break receipt,
                ExecOutcome::Preempted { checkpoint } => {
                    preemptions += 1;
                    assert_eq!(checkpoint.cycle(), 1000 * preemptions);
                    resume = Some(checkpoint);
                }
                _ => panic!("expected an eviction preempt or the receipt"),
            }
            assert!(preemptions < 10_000, "job never finished");
        };
        assert!(preemptions > 1, "job too short to migrate twice");
        assert_eq!(receipt.canonical(), reference.canonical());
        assert!(engines.iter().all(|e| e.checkpoints_taken() > 0));
    }

    #[test]
    fn tiny_cycle_budget_exhausts_deterministically() {
        let mut engine = ShardEngine::new(0);
        let e1 = engine.execute(&spec(1), 10);
        let e2 = engine.execute(&spec(1), 10);
        assert_eq!(e1, Err(ShardError::CycleBudgetExhausted(10)));
        assert_eq!(e1, e2);
        assert!(!ShardError::CycleBudgetExhausted(10).retryable());
    }
}
