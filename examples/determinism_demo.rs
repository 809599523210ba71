//! Side-by-side nondeterminism demo: the same work queue, pre-filled with
//! one batch of items per round and drained by competing consumers in
//! barrier-separated rounds, run (a) with `std::sync::Mutex` +
//! `std::sync::Barrier` and (b) with DetLock's `DetMutex` + `DetBarrier`,
//! under injected timing noise.
//!
//! The std version's item → consumer assignment varies between runs; the
//! DetLock version's does not — the property replica-based fault tolerance
//! needs. Exits 1 if the two DetLock runs differ.
//!
//! ```text
//! cargo run --example determinism_demo
//! ```

use detlock::{tick, DetBarrier, DetConfig, DetMutex, DetRuntime};
use std::collections::VecDeque;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const ITEMS: usize = 120;
const ROUNDS: usize = 4;
const CONSUMERS: usize = 3;

/// `(item, consumer)` assignment log, sorted by item.
type Assignment = Vec<(usize, usize)>;

/// One queue per round, holding that round's share of the items.
fn rounds() -> Vec<VecDeque<usize>> {
    let per = ITEMS / ROUNDS;
    (0..ROUNDS)
        .map(|r| (r * per..(r + 1) * per).collect())
        .collect()
}

/// What a consumer does with an item: log it, and sometimes stall.
fn consume(log: &Mutex<Assignment>, item: usize, c: usize, noise_us: u64) {
    log.lock().unwrap().push((item, c));
    if item % 9 == c {
        std::thread::sleep(Duration::from_micros(noise_us));
    }
}

fn sorted(log: Arc<Mutex<Assignment>>) -> Assignment {
    let mut v = log.lock().unwrap().clone();
    v.sort();
    v
}

fn std_run(noise_us: u64) -> Assignment {
    let queue = Arc::new(Mutex::new(rounds()));
    let bar = Arc::new(Barrier::new(CONSUMERS));
    let log = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..CONSUMERS)
        .map(|c| {
            let (queue, bar, log) = (Arc::clone(&queue), Arc::clone(&bar), Arc::clone(&log));
            std::thread::spawn(move || {
                for r in 0..ROUNDS {
                    loop {
                        let Some(item) = queue.lock().unwrap()[r].pop_front() else {
                            break;
                        };
                        consume(&log, item, c, noise_us);
                    }
                    bar.wait();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    sorted(log)
}

fn det_run(noise_us: u64) -> Assignment {
    let rt = DetRuntime::new(DetConfig::default());
    let queue = Arc::new(DetMutex::new(&rt, rounds()));
    let bar = Arc::new(DetBarrier::new(&rt, CONSUMERS));
    let log = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..CONSUMERS)
        .map(|c| {
            let (queue, bar, log) = (Arc::clone(&queue), Arc::clone(&bar), Arc::clone(&log));
            rt.spawn(move || {
                for r in 0..ROUNDS {
                    loop {
                        tick(3 + c as u64);
                        let Some(item) = queue.lock()[r].pop_front() else {
                            break;
                        };
                        consume(&log, item, c, noise_us);
                    }
                    bar.wait();
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    sorted(log)
}

fn main() {
    println!(
        "work queue: {ITEMS} items in {ROUNDS} barrier-separated rounds, \
         {CONSUMERS} consumers, timing noise\n"
    );

    let s1 = std_run(40);
    let s2 = std_run(160);
    println!(
        "std::sync::Mutex : item->consumer assignment identical across runs? {}",
        s1 == s2
    );

    let d1 = det_run(40);
    let d2 = det_run(160);
    println!(
        "DetLock          : item->consumer assignment identical across runs? {}",
        d1 == d2
    );

    if d1 != d2 {
        eprintln!("ERROR: DetLock run diverged!");
        std::process::exit(1);
    }
    if s1 == s2 {
        println!(
            "\n(note: the std runs happened to agree this time — nondeterminism \
             is probabilistic; the DetLock guarantee is not)"
        );
    }
}
