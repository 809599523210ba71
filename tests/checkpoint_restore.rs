//! Property sweep: resume-from-checkpoint must be indistinguishable from
//! run-from-zero.
//!
//! For every serving workload × two jitter seeds × every arbitration
//! policy, the job is re-executed
//! as a maximal-interruption chain — preempted at *every* checkpoint
//! boundary and resumed from the snapshot — at randomized (seeded)
//! checkpoint intervals. The final receipt must be byte-identical to the
//! uninterrupted run's. This is the property the serving layer's crash
//! recovery stands on: if it holds at every boundary, it holds at
//! whichever boundary a real crash lands on.

use detlock_passes::pipeline::OptLevel;
use detlock_serve::protocol::JobSpec;
use detlock_serve::shard::{ExecOpts, ExecOutcome, PreemptReason, ShardEngine};
use detlock_vm::{ChunkParams, Sched};

/// splitmix64, the repo-wide idiom for seeded-but-stateless draws.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(b.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(0x94d049bb133111eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn spec(workload: &str, seed: u64) -> JobSpec {
    JobSpec {
        tenant: "ckpt-sweep".to_string(),
        workload: workload.to_string(),
        threads: 2,
        scale: 0.02,
        seed,
        opt: OptLevel::All,
        sanitize: false,
        scheduler: Sched::Kendo,
    }
}

fn policies() -> [Sched; 3] {
    [
        Sched::Kendo,
        Sched::Chunk(ChunkParams::default()),
        Sched::DcBatch,
    ]
}

/// Run `spec` as a preempt-at-every-checkpoint resume chain and return
/// the final canonical receipt plus the number of resumes it took.
fn run_interrupted(engine: &mut ShardEngine, spec: &JobSpec, interval: u64) -> (String, u64) {
    let mut resume = None;
    let mut rounds = 0u64;
    loop {
        let opts = ExecOpts {
            checkpoint_every: interval,
            // A slice of one interval preempts at the first boundary each
            // attempt: the run is interrupted at every checkpoint.
            cycle_slice: interval,
            resume_from: resume.take(),
            ..ExecOpts::default()
        };
        match engine.execute_resumable(spec, u64::MAX, opts) {
            ExecOutcome::Done { receipt, .. } => return (receipt.canonical(), rounds),
            ExecOutcome::Preempted {
                checkpoint,
                reason: PreemptReason::SliceExhausted,
            } => {
                rounds += 1;
                resume = Some(checkpoint);
            }
            _ => panic!("unexpected outcome in resume chain"),
        }
        assert!(rounds < 100_000, "resume chain never converged");
    }
}

#[test]
fn resume_from_checkpoint_matches_run_from_zero_across_the_workload_grid() {
    let mut engine = ShardEngine::new(0);
    let workloads: Vec<String> = detlock_workloads::all_benchmarks(2, 0.02)
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    assert!(workloads.len() >= 5, "workload registry shrank");
    let mut chains = 0u64;
    // The property holds per policy: each chain is compared against its
    // own policy's run from zero.
    for sched in policies() {
        for (wi, name) in workloads.iter().enumerate() {
            for jitter_seed in [1u64, 7] {
                let job = JobSpec {
                    scheduler: sched,
                    ..spec(name, jitter_seed)
                };
                let reference = match engine.execute_resumable(&job, u64::MAX, ExecOpts::default())
                {
                    ExecOutcome::Done { receipt, .. } => receipt.canonical(),
                    _ => panic!("uninterrupted {sched} run failed for {name}"),
                };
                // Two randomized (seeded, reproducible) checkpoint intervals
                // per cell, drawn from [500, 8000).
                for k in 0..2u64 {
                    let interval = 500 + mix(0xC4EC, wi as u64, jitter_seed * 2 + k) % 7500;
                    let (canonical, rounds) = run_interrupted(&mut engine, &job, interval);
                    assert_eq!(
                        canonical, reference,
                        "{name}/{sched} seed {jitter_seed} interval {interval}: \
                         resumed receipt diverged from run-from-zero"
                    );
                    chains += rounds;
                }
            }
        }
    }
    assert!(
        chains > 0,
        "no chain was ever interrupted — intervals too coarse to test anything"
    );
}

/// Sanitizer state is part of the checkpoint: a racy program interrupted
/// at *every* checkpoint boundary and resumed must report exactly the
/// races (and the minimal log) the uninterrupted run reports. Races that
/// straddle a snapshot are the interesting case — the shadow memory and
/// vector clocks crossing the boundary are what make them detectable.
#[test]
fn sanitizer_state_survives_checkpoint_restore() {
    use detlock_bench::{machine_config, thread_specs};
    use detlock_passes::cost::CostModel;
    use detlock_vm::machine::{CkptControl, ExecMode, Machine, RunOutcome};
    use detlock_workloads::racy;

    let w = racy::build(4, &racy::RacyParams { iters: 40 });
    let cost = CostModel::default();
    let mut cfg = machine_config(&w, ExecMode::Det, 5);
    cfg.sanitize = true;
    let specs = thread_specs(&w);

    let (_, _, hit, report) = Machine::new(&w.module, &cost, &specs, cfg.clone()).run_sanitized();
    assert!(!hit);
    let reference = report.expect("sanitize was on");
    assert!(!reference.races.is_empty(), "racy counter must race");

    let mut resume = None;
    let mut rounds = 0u64;
    let resumed = loop {
        let machine = match &resume {
            Some(ck) => Machine::resume(&w.module, &cost, cfg.clone(), ck).unwrap(),
            None => Machine::new(&w.module, &cost, &specs, cfg.clone()),
        };
        let mut taken = None;
        match machine.run_with_checkpoints(64, &mut |ck| {
            taken = Some(ck.clone());
            CkptControl::Abort
        }) {
            RunOutcome::Finished {
                sanitizer,
                hit_limit,
                ..
            } => {
                assert!(!hit_limit);
                break sanitizer.expect("sanitize was on");
            }
            RunOutcome::Aborted { .. } => {
                rounds += 1;
                resume = taken;
            }
        }
        assert!(rounds < 100_000, "resume chain never converged");
    };
    assert!(rounds > 0, "interval too coarse to interrupt anything");
    assert_eq!(resumed.canonical(), reference.canonical());
    assert_eq!(resumed.minimal_log(), reference.minimal_log());
}

/// The serving layer's version of the same property: a `sanitize: true`
/// job preempted at every checkpoint yields the same receipt *and* the
/// same sanitizer report as the direct run.
#[test]
fn serve_resume_chain_preserves_the_sanitizer_report() {
    let mut engine = ShardEngine::new(0);
    let mut job = spec("ocean", 9);
    job.sanitize = true;
    let reference = match engine.execute_resumable(&job, u64::MAX, ExecOpts::default()) {
        ExecOutcome::Done {
            receipt, sanitizer, ..
        } => (
            receipt.canonical(),
            sanitizer.expect("sanitize on").canonical(),
        ),
        _ => panic!("direct run failed"),
    };
    let mut resume = None;
    let mut rounds = 0u64;
    let chained = loop {
        let opts = ExecOpts {
            checkpoint_every: 900,
            cycle_slice: 900,
            resume_from: resume.take(),
            ..ExecOpts::default()
        };
        match engine.execute_resumable(&job, u64::MAX, opts) {
            ExecOutcome::Done {
                receipt, sanitizer, ..
            } => {
                break (
                    receipt.canonical(),
                    sanitizer.expect("sanitize on").canonical(),
                )
            }
            ExecOutcome::Preempted {
                checkpoint,
                reason: PreemptReason::SliceExhausted,
            } => {
                rounds += 1;
                resume = Some(checkpoint);
            }
            _ => panic!("unexpected outcome in sanitize resume chain"),
        }
        assert!(rounds < 100_000, "resume chain never converged");
    };
    assert!(rounds > 0, "job too short to exercise preemption");
    assert_eq!(chained, reference);
}

#[test]
fn checkpoint_interval_does_not_leak_into_the_receipt() {
    // Same job, three very different intervals (including "never"): the
    // snapshot cadence must be invisible in the result.
    let mut engine = ShardEngine::new(0);
    let job = spec("ocean", 3);
    let reference = match engine.execute_resumable(&job, u64::MAX, ExecOpts::default()) {
        ExecOutcome::Done { receipt, .. } => receipt.canonical(),
        _ => panic!("reference run failed"),
    };
    for interval in [701u64, 4096] {
        let opts = ExecOpts {
            checkpoint_every: interval,
            ..ExecOpts::default()
        };
        match engine.execute_resumable(&job, u64::MAX, opts) {
            ExecOutcome::Done { receipt, .. } => {
                assert_eq!(receipt.canonical(), reference, "interval {interval}")
            }
            _ => panic!("checkpointed run failed"),
        }
    }
}

/// The scheduler grid version of the resume property: under *each*
/// arbitration policy, a maximal-interruption resume chain must reproduce
/// the uninterrupted run's receipt byte-for-byte. The policies produce
/// different receipts from each other on contended workloads — each chain
/// is compared against its own policy's reference.
#[test]
fn resume_chains_match_run_from_zero_under_every_scheduler() {
    let mut engine = ShardEngine::new(0);
    for name in ["ocean", "radiosity"] {
        for sched in policies() {
            let mut job = spec(name, 5);
            job.scheduler = sched;
            let reference = match engine.execute_resumable(&job, u64::MAX, ExecOpts::default()) {
                ExecOutcome::Done { receipt, .. } => receipt.canonical(),
                _ => panic!("uninterrupted {sched} run failed for {name}"),
            };
            let (canonical, rounds) = run_interrupted(&mut engine, &job, 1500);
            assert!(rounds > 0, "{name}/{sched}: interval too coarse");
            assert_eq!(
                canonical, reference,
                "{name}/{sched}: resumed receipt diverged from run-from-zero"
            );
        }
    }
}

/// Scheduler identity rides the checkpoint, and restoring under a
/// *different* scheduler is refused with the typed error — the inverse of
/// the backend exclusion above: backends are proven bit-identical, so
/// snapshots are portable across them; schedulers legitimately produce
/// different executions, so a snapshot must replay under the policy that
/// produced it.
#[test]
fn restore_under_a_different_scheduler_is_a_typed_error() {
    use detlock_bench::{machine_config, thread_specs};
    use detlock_passes::cost::CostModel;
    use detlock_vm::machine::{CkptControl, ExecMode, Machine, ResumeError, RunOutcome};

    let w = detlock_workloads::by_name("ocean", 2, 0.02).unwrap();
    let cost = CostModel::default();
    let mut cfg = machine_config(&w, ExecMode::Det, 3);
    cfg.scheduler = Sched::Kendo;
    let specs = thread_specs(&w);

    let mut taken = None;
    let outcome =
        Machine::new(&w.module, &cost, &specs, cfg.clone()).run_with_checkpoints(256, &mut |ck| {
            taken = Some(ck.clone());
            CkptControl::Abort
        });
    assert!(matches!(outcome, RunOutcome::Aborted { .. }));
    let ckpt = taken.expect("a checkpoint was taken");
    assert_eq!(ckpt.scheduler(), Sched::Kendo);

    // Same config, different scheduler: refused with the typed mismatch,
    // not the generic fingerprint error.
    let mut other = cfg.clone();
    other.scheduler = Sched::DcBatch;
    match Machine::resume(&w.module, &cost, other, &ckpt) {
        Err(ResumeError::SchedulerMismatch {
            checkpoint,
            requested,
        }) => {
            assert_eq!(checkpoint, Sched::Kendo);
            assert_eq!(requested, Sched::DcBatch);
        }
        Err(e) => panic!("expected SchedulerMismatch, got {e:?}"),
        Ok(_) => panic!("scheduler mismatch must refuse to resume"),
    }

    // The matching scheduler still resumes fine.
    assert!(Machine::resume(&w.module, &cost, cfg, &ckpt).is_ok());
}

/// The threaded-code backend runs under the same checkpoint machinery:
/// a maximal-interruption resume chain (preempted at every boundary) must
/// reproduce the uninterrupted run bit-for-bit — metrics, memory, and the
/// sanitizer report. Because the checkpoint fingerprint deliberately
/// excludes the backend (both engines are differentially bit-identical),
/// the chain also alternates backends across resumes: a snapshot taken
/// under the interpreter resumes under the threaded engine and vice versa,
/// and the result must still match. Every resume is also a round trip of
/// the state type: the resumed machine, snapshotted before it runs a
/// cycle, gives back the digest and the size of the checkpoint it came
/// from — interp→threaded and threaded→interp, sanitizer on and off.
#[test]
fn threaded_and_cross_backend_resume_match_run_from_zero() {
    use detlock_bench::{instrumented, machine_config, thread_specs};
    use detlock_passes::cost::CostModel;
    use detlock_passes::plan::Placement;
    use detlock_vm::machine::{CkptControl, ExecMode, Machine, RunOutcome};
    use detlock_vm::Backend;

    let cost = CostModel::default();
    let grid = [true, false].into_iter().flat_map(|sanitize| {
        let workloads = detlock_workloads::all_benchmarks(2, 0.02);
        workloads.into_iter().map(move |w| (w, sanitize))
    });
    for (w, sanitize) in grid {
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        let specs = thread_specs(&w);
        let mut cfg = machine_config(&w, ExecMode::Det, 11);
        cfg.sanitize = sanitize;

        // Reference: uninterrupted, interpreter (the oracle).
        cfg.backend = Backend::Interp;
        let (m_ref, mem_ref, hit, san_ref) =
            Machine::new(&inst.module, &cost, &specs, cfg.clone()).run_sanitized();
        assert!(!hit, "{}: reference hit the cycle limit", w.name);

        // One chain per resume policy: always-threaded, and alternating
        // backends across the chain (cross-backend restore).
        for policy in ["threaded", "alternate"] {
            let mut resume = None;
            let mut rounds = 0u64;
            let (m, mem, san) = loop {
                let mut cfg = cfg.clone();
                cfg.backend = match (policy, rounds % 2) {
                    ("threaded", _) | ("alternate", 1) => Backend::Threaded,
                    _ => Backend::Interp,
                };
                let machine = match &resume {
                    Some(ck) => {
                        let resumed = Machine::resume(&inst.module, &cost, cfg, ck)
                            .expect("cross-backend resume must pass the fingerprint check");
                        // A deep digest hashes all of memory: sampling two
                        // rounds in sixteen, an odd and an even one, still
                        // takes both directions all along the run.
                        if rounds % 16 < 2 {
                            let back = resumed.snapshot();
                            assert_eq!(
                                (back.cycle(), back.digest(), back.approx_bytes()),
                                (ck.cycle(), ck.digest(), ck.approx_bytes()),
                                "{} / {policy} / sanitize {sanitize}: round {rounds} resumed \
                                 into a different state",
                                w.name
                            );
                        }
                        resumed
                    }
                    None => Machine::new(&inst.module, &cost, &specs, cfg),
                };
                let mut taken = None;
                match machine.run_with_checkpoints(512, &mut |ck| {
                    taken = Some(ck.clone());
                    CkptControl::Abort
                }) {
                    RunOutcome::Finished {
                        metrics,
                        memory,
                        hit_limit,
                        sanitizer,
                    } => {
                        assert!(!hit_limit);
                        break (metrics, memory, sanitizer);
                    }
                    RunOutcome::Aborted { .. } => {
                        rounds += 1;
                        resume = taken;
                    }
                }
                assert!(rounds < 100_000, "resume chain never converged");
            };
            assert!(rounds > 0, "{}: interval too coarse to interrupt", w.name);
            let ctx = format!("{} / {policy} / sanitize {sanitize}", w.name);
            assert_eq!(m, m_ref, "metrics diverged: {ctx}");
            assert_eq!(mem, mem_ref, "memory diverged: {ctx}");
            assert_eq!(san, san_ref, "sanitizer report diverged: {ctx}");
        }
    }
}
