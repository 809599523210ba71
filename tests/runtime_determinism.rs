//! Real-thread integration tests of the deterministic runtime: mixed
//! primitives under injected timing noise must reproduce the same
//! synchronization order, run after run — plus the same property for the
//! VM-integrated happens-before sanitizer: its race report and minimal
//! schedule log are a function of the program, not the jitter seed.

use detlock::{tick, DetBarrier, DetConfig, DetMutex, DetPool, DetRuntime};
use std::sync::Arc;

mod common;
use common::{assert_same_clocks, run_clocks, RunClocks};

fn traced() -> DetRuntime {
    DetRuntime::new(DetConfig {
        record_trace: true,
        ..DetConfig::default()
    })
}

/// Mixed-primitive stress: three mutexes (one over a table) + a barrier
/// phase, with per-run timing perturbations. The full acquisition trace must match —
/// logical clocks included.
fn mixed_run(noise_profile: u64) -> RunClocks {
    let rt = traced();
    let m1 = Arc::new(DetMutex::new(&rt, 0i64));
    let m2 = Arc::new(DetMutex::new(&rt, Vec::<i64>::new()));
    let table = Arc::new(DetMutex::new(&rt, [0i64; 8]));
    let bar = Arc::new(DetBarrier::new(&rt, 3));

    let mut handles = Vec::new();
    for t in 0..3u64 {
        let m1 = Arc::clone(&m1);
        let m2 = Arc::clone(&m2);
        let table = Arc::clone(&table);
        let bar = Arc::clone(&bar);
        handles.push(rt.spawn(move || {
            for phase in 0..3u64 {
                for i in 0..25u64 {
                    tick(3 + (t * 7 + i) % 5);
                    if (i * 31 + t) % 16 == noise_profile % 16 {
                        std::thread::sleep(std::time::Duration::from_micros(
                            30 + noise_profile % 200,
                        ));
                    }
                    match (i + t) % 3 {
                        0 => {
                            *m1.lock() += 1;
                        }
                        1 => {
                            m2.lock().push((t * 100 + i) as i64);
                        }
                        _ => {
                            let mut g = table.lock();
                            g[(i % 8) as usize] += t as i64;
                        }
                    }
                }
                tick(2 + phase);
                bar.wait();
            }
        }));
    }
    for h in handles {
        h.join();
    }
    assert!(rt.trace_len() > 0);
    run_clocks(&rt)
}

#[test]
fn mixed_primitives_reproduce_across_noise_profiles() {
    let a = mixed_run(0);
    assert_same_clocks(&mixed_run(5), &a, "noise profile 5");
    assert_same_clocks(&mixed_run(11), &a, "noise profile 11");
}

#[test]
fn pool_allocation_addresses_reproduce() {
    fn run(noise: bool) -> Vec<Vec<u32>> {
        let rt = DetRuntime::with_defaults();
        let pool: Arc<DetPool<u64>> = Arc::new(DetPool::new(&rt, 24));
        let log: Arc<detlock_shim::sync::Mutex<Vec<(u32, u32)>>> =
            Arc::new(detlock_shim::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..3u32 {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            handles.push(rt.spawn(move || {
                let mut held = Vec::new();
                for i in 0..30u64 {
                    tick(3 + (i + t as u64) % 4);
                    if noise && i % 9 == t as u64 {
                        std::thread::sleep(std::time::Duration::from_micros(60));
                    }
                    if let Some(b) = pool.alloc(i) {
                        log.lock().push((t, b.slot()));
                        held.push(b);
                    }
                    if held.len() > 3 {
                        tick(1);
                        held.remove(0);
                    }
                }
            }));
        }
        for h in handles {
            h.join();
        }
        let v = log.lock().clone();
        (0..3)
            .map(|t| {
                v.iter()
                    .filter(|(tt, _)| *tt == t)
                    .map(|(_, s)| *s)
                    .collect()
            })
            .collect()
    }
    assert_eq!(run(false), run(true));
}

#[test]
fn nested_spawn_trees_reproduce() {
    fn run(noise: bool) -> Vec<detlock::detlock_core::Acquisition> {
        let rt = traced();
        let m = Arc::new(DetMutex::new(&rt, 0i64));
        let rt2 = rt.clone();
        let m2 = Arc::clone(&m);
        let parent = rt.spawn(move || {
            let mut kids = Vec::new();
            for t in 0..2u64 {
                let m = Arc::clone(&m2);
                kids.push(rt2.spawn(move || {
                    for i in 0..20 {
                        tick(3 + t + (i % 3));
                        if noise && i % 7 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(40));
                        }
                        *m.lock() += 1;
                    }
                }));
            }
            for k in kids {
                k.join();
            }
        });
        // Main also competes for the lock while the tree runs.
        for i in 0..20 {
            tick(5 + (i % 2));
            *m.lock() += 1;
        }
        parent.join();
        rt.trace_events()
    }
    let a = run(false);
    let b = run(true);
    assert_eq!(a.len(), 60);
    assert_eq!(a, b);
}

/// Sanitizer determinism: in deterministic mode the happens-before
/// relation depends only on the synchronization order, which DetLock pins
/// regardless of timing noise — so any two jitter seeds must yield
/// byte-identical canonical race reports *and* byte-identical minimal
/// schedule logs, for racy and clean programs alike.
#[test]
fn sanitizer_reports_are_seed_invariant() {
    use detlock_bench::sanitize_workload;
    use detlock_passes::cost::CostModel;
    use detlock_workloads::racy;

    let cost = CostModel::default();
    let seeds = [1u64, 7, 99];

    // Racy control: races must be found, identically, under every seed.
    let w = racy::build(4, &racy::RacyParams { iters: 60 });
    let reports: Vec<_> = seeds
        .iter()
        .map(|&s| sanitize_workload(&w, &cost, s))
        .collect();
    assert!(!reports[0].races.is_empty(), "racy counter must race");
    for r in &reports[1..] {
        assert_eq!(r.canonical(), reports[0].canonical());
        assert_eq!(r.minimal_log(), reports[0].minimal_log());
    }
    // The minimal log carries one ordering constraint per racy pair and
    // nothing else — that is what makes it minimal.
    assert_eq!(
        reports[0].minimal_log().matches("constraint ").count(),
        reports[0].races.len()
    );

    // Deadlock control: the lock-order cycle is seed-invariant too.
    let w = racy::build_deadlock(4);
    let reports: Vec<_> = seeds
        .iter()
        .map(|&s| sanitize_workload(&w, &cost, s))
        .collect();
    assert!(reports[0].races.is_empty(), "deadlock control is race-free");
    assert!(!reports[0].lock_cycles.is_empty(), "cycle must be seen");
    for r in &reports[1..] {
        assert_eq!(r.canonical(), reports[0].canonical());
    }

    // Clean workload: silent under every seed, with an empty minimal log.
    let w = detlock_workloads::by_name("ocean", 2, 0.02).unwrap();
    let reports: Vec<_> = seeds
        .iter()
        .map(|&s| sanitize_workload(&w, &cost, s))
        .collect();
    for r in &reports {
        assert!(r.races.is_empty(), "ocean must be race-free");
        assert!(r.lock_cycles.is_empty());
        assert_eq!(r.canonical(), reports[0].canonical());
        assert!(!r.minimal_log().contains("constraint "));
    }
}

#[test]
fn runtime_handles_many_threads() {
    let rt = DetRuntime::with_defaults();
    let m = Arc::new(DetMutex::new(&rt, 0u64));
    let mut handles = Vec::new();
    for t in 0..12u64 {
        let m = Arc::clone(&m);
        handles.push(rt.spawn(move || {
            for i in 0..50 {
                tick(2 + (t + i) % 6);
                *m.lock() += 1;
            }
        }));
    }
    for h in handles {
        h.join();
    }
    assert_eq!(*m.lock(), 600);
}
