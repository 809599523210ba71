//! Chaos tests of the fault-tolerance layer: deterministically injected
//! delays must not perturb the synchronization order (they only move
//! physical time, which weak determinism is immune to), and injected
//! panics must surface as typed join errors instead of wedging the
//! runtime.

use detlock::{
    tick, DetBarrier, DetConfig, DetError, DetMutex, DetRuntime, FaultPlan, InjectedPanic,
    StallAction,
};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{assert_same_clocks, run_clocks, RunClocks};

const CHAOS_THREADS: u64 = 8;

/// Mixed counter/table/barrier workload over 8 threads with seeded fault
/// delays; returns the acquisition-trace fingerprint and the run's clocks.
fn chaos_run(plan: FaultPlan) -> (u64, RunClocks) {
    let rt = DetRuntime::new(DetConfig {
        record_trace: true,
        fault_plan: Some(plan),
        // Generous watchdog: the injected delays slow physical progress,
        // and a false Abort would kill the whole test process.
        watchdog_timeout: Some(Duration::from_secs(60)),
        on_stall: StallAction::Abort,
        ..DetConfig::default()
    });
    let counters: Arc<Vec<DetMutex<u64>>> =
        Arc::new((0..3).map(|_| DetMutex::new(&rt, 0u64)).collect());
    let table: Arc<[DetMutex<u64>; 4]> = Arc::new(std::array::from_fn(|_| DetMutex::new(&rt, 0)));
    let bar = Arc::new(DetBarrier::new(&rt, CHAOS_THREADS as usize));

    let mut handles = Vec::new();
    for t in 0..CHAOS_THREADS {
        let counters = Arc::clone(&counters);
        let table = Arc::clone(&table);
        let bar = Arc::clone(&bar);
        handles.push(rt.spawn(move || {
            for phase in 0..2u64 {
                for i in 0..12u64 {
                    tick(2 + (t * 5 + i) % 7);
                    match (i + t + phase) % 4 {
                        0 => *counters[(t % 3) as usize].lock() += 1,
                        1 => *counters[(i % 3) as usize].lock() += t,
                        2 => {
                            let sum: u64 = table.iter().map(|c| *c.lock()).sum();
                            std::hint::black_box(sum);
                        }
                        _ => *table[(t % 4) as usize].lock() += i,
                    }
                }
                tick(1);
                bar.wait();
            }
        }));
    }
    for h in handles {
        h.join();
    }
    assert!(rt.trace_len() > 0, "the chaos run recorded no acquisition");
    (rt.trace_hash(), run_clocks(&rt))
}

/// Acceptance bar: ≥8 threads with seeded fault-injection delays produce
/// the identical trace fingerprint across ≥5 runs — including runs whose
/// *delay seeds differ*, since delays shift timing only.
#[test]
fn chaos_delays_do_not_change_the_trace() {
    let (reference, clocks) = chaos_run(FaultPlan::new(1).with_delays(1, 4, 300));
    for seed in [2u64, 3, 99, 4242] {
        let (h, c) = chaos_run(FaultPlan::new(seed).with_delays(1, 3, 500));
        assert_same_clocks(&c, &clocks, &format!("fault seed {seed}"));
        assert_eq!(h, reference, "fault seed {seed} changed the lock order");
    }
    // And the undelayed run agrees too.
    let (h0, c0) = chaos_run(FaultPlan::new(0));
    assert_same_clocks(&c0, &clocks, "undelayed run");
    assert_eq!(h0, reference);
}

/// An injected child panic surfaces as `DetError::ChildPanicked` carrying
/// the `InjectedPanic` payload; every sibling still completes — no
/// deadlock, no poisoned runtime.
#[test]
fn injected_panic_fails_join_cleanly_without_deadlock() {
    let rt = DetRuntime::new(DetConfig {
        record_trace: true,
        // Spawned threads get tids 1..=4 in spawn order; each performs 10
        // lock events (fault-point events 0..=9), so event 4 is mid-run.
        fault_plan: Some(FaultPlan::new(17).with_panic_at(2, 4)),
        watchdog_timeout: Some(Duration::from_secs(60)),
        on_stall: StallAction::Abort,
        ..DetConfig::default()
    });
    let m = Arc::new(DetMutex::new(&rt, 0u64));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let m = Arc::clone(&m);
            rt.spawn(move || {
                for i in 0..10u64 {
                    tick(3 + (t + i) % 4);
                    *m.lock() += 1;
                }
                t
            })
        })
        .collect();

    let mut failed = Vec::new();
    for (idx, h) in handles.into_iter().enumerate() {
        let tid = h.det_tid();
        match h.try_join() {
            Ok(v) => assert_eq!(v, idx as u64),
            Err(DetError::ChildPanicked { tid: ptid, payload }) => {
                assert_eq!(ptid, tid);
                let inj = payload
                    .downcast::<InjectedPanic>()
                    .expect("payload is the InjectedPanic marker");
                assert_eq!(inj.tid, 2);
                assert_eq!(inj.event, 4);
                failed.push(ptid);
            }
            Err(other) => panic!("unexpected join error: {other}"),
        }
    }
    assert_eq!(failed, vec![2], "exactly the targeted thread fails");

    // The runtime is still usable for deterministic work afterwards.
    let m2 = Arc::clone(&m);
    let h = rt.spawn(move || *m2.lock());
    assert_eq!(h.join(), *m.lock());
}

/// Panics and delays combined: the run completes (the watchdog never has
/// to fire) and the surviving threads' trace is reproducible.
#[test]
fn combined_panic_and_delay_chaos_is_reproducible() {
    let run = |delay_seed: u64| {
        let rt = DetRuntime::new(DetConfig {
            record_trace: true,
            fault_plan: Some(
                FaultPlan::new(delay_seed)
                    .with_delays(1, 5, 200)
                    .with_panic_at(1, 6)
                    .with_panic_at(3, 2),
            ),
            watchdog_timeout: Some(Duration::from_secs(60)),
            on_stall: StallAction::Abort,
            ..DetConfig::default()
        });
        let m = Arc::new(DetMutex::new(&rt, 0u64));
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let m = Arc::clone(&m);
                rt.spawn(move || {
                    for i in 0..8u64 {
                        tick(2 + (t * 3 + i) % 5);
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        let outcomes: Vec<bool> = handles.into_iter().map(|h| h.try_join().is_ok()).collect();
        let total = *m.lock();
        (outcomes, rt.trace_hash(), total)
    };

    let (outcomes, hash, total) = run(11);
    assert_eq!(
        outcomes,
        vec![false, true, false, true, true, true],
        "tids 1 and 3 are the injected casualties"
    );
    for seed in [12u64, 77] {
        let (o2, h2, t2) = run(seed);
        assert_eq!(o2, outcomes);
        assert_eq!(h2, hash, "delay seed {seed} changed the surviving order");
        assert_eq!(t2, total);
    }
}

/// Reader/writer chaos over a table of four `DetMutex` cells with seeded
/// fault delays around acquire/release: grant order must be a pure function
/// of logical clocks, so the trace and the final state agree across delay
/// seeds. One lock per cell keeps several locks free at every turn, so a
/// thread whose acquisition record lands after its clock tick can be
/// overtaken by the next turn's grant (the record-before-tick rule).
fn table_chaos_run(plan: FaultPlan) -> (u64, [u64; 4], u64, RunClocks) {
    const THREADS: u64 = 8;

    let rt = DetRuntime::new(DetConfig {
        record_trace: true,
        fault_plan: Some(plan),
        watchdog_timeout: Some(Duration::from_secs(60)),
        on_stall: StallAction::Abort,
        ..DetConfig::default()
    });
    let table: Arc<[DetMutex<u64>; 4]> = Arc::new(std::array::from_fn(|_| DetMutex::new(&rt, 0)));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let table = Arc::clone(&table);
        handles.push(rt.spawn(move || {
            let mut observed = 0u64;
            for i in 0..16u64 {
                tick(1 + (t * 7 + i) % 6);
                if (t + i) % 3 == 0 {
                    *table[((t + i) % 4) as usize].lock() += t + 1;
                } else {
                    // Fold what this reader saw into a value that depends
                    // on the interleaving: any reordering of writes
                    // relative to this read changes the sum it observes.
                    observed = observed
                        .wrapping_mul(31)
                        .wrapping_add(table.iter().map(|c| *c.lock()).sum::<u64>());
                }
            }
            observed
        }));
    }
    let observed: u64 = handles
        .into_iter()
        .fold(0u64, |acc, h| acc.wrapping_mul(17).wrapping_add(h.join()));
    let final_state = std::array::from_fn(|k| *table[k].lock());
    (rt.trace_hash(), final_state, observed, run_clocks(&rt))
}

/// Table grants under fault-injection delays: trace hash, final table
/// state, and even the values each reader observed mid-flight are all
/// seed-invariant.
#[test]
fn table_chaos_under_fault_delays_is_seed_invariant() {
    let (reference_hash, reference_state, reference_obs, clocks) =
        table_chaos_run(FaultPlan::new(9).with_delays(1, 4, 350));
    for seed in [10u64, 31, 555] {
        let (h, s, o, c) = table_chaos_run(FaultPlan::new(seed).with_delays(1, 3, 600));
        assert_same_clocks(&c, &clocks, &format!("fault seed {seed}"));
        assert_eq!(
            h, reference_hash,
            "fault seed {seed} changed the grant order"
        );
        assert_eq!(s, reference_state);
        assert_eq!(
            o, reference_obs,
            "fault seed {seed} changed what readers saw"
        );
    }
    let (h0, s0, o0, c0) = table_chaos_run(FaultPlan::new(0));
    assert_same_clocks(&c0, &clocks, "undelayed run");
    assert_eq!(h0, reference_hash);
    assert_eq!(s0, reference_state);
    assert_eq!(o0, reference_obs);
}

/// Set only on the child process of `default_stall_action_aborts`.
const ABORT_CHILD: &str = "DETLOCK_STALL_ABORT_CHILD";

/// The default stall action, run for real: a copy of this test binary
/// filtered to this test stalls a spawned thread's lock behind a main
/// thread blocked outside the runtime, and must die of `SIGABRT` after
/// printing the stall report. Without the marker the test only drives the
/// child.
#[test]
fn default_stall_action_aborts() {
    if std::env::var_os(ABORT_CHILD).is_some() {
        let config = DetConfig {
            watchdog_timeout: Some(Duration::from_millis(40)),
            ..DetConfig::default()
        };
        assert_eq!(config.on_stall, StallAction::Abort);
        let rt = DetRuntime::new(config);
        let m = Arc::new(DetMutex::new(&rt, 0));
        let (m2, (tx, rx)) = (Arc::clone(&m), std::sync::mpsc::channel::<()>());
        let _child = rt.spawn(move || {
            drop(m2.lock());
            tx.send(()).ok();
        });
        // Main holds the minimum clock and blocks outside the runtime, so
        // the child's turn wait stalls; returning here means it did not
        // abort.
        let _ = rx.recv();
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["default_stall_action_aborts", "--exact", "--nocapture"])
        .env(ABORT_CHILD, "1")
        .output()
        .expect("re-run the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the stalled child must not succeed");
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        const SIGABRT: i32 = 6;
        assert_eq!(out.status.signal(), Some(SIGABRT), "stderr: {stderr}");
    }
    assert!(
        stderr.contains("deterministic runtime stalled: tid 1 "),
        "no stall report on stderr: {stderr}"
    );
}
