//! Real-thread integration tests of the deterministic runtime that no
//! other suite holds: a spawn tree (threads spawning threads) reproduces
//! its acquisition order under timing noise, and a dozen threads contend
//! one lock to completion.

use detlock::{tick, DetConfig, DetMutex, DetRuntime};
use std::sync::Arc;

fn traced() -> DetRuntime {
    DetRuntime::new(DetConfig {
        record_trace: true,
        ..DetConfig::default()
    })
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
