//! Deterministic barrier.
//!
//! Arrival is a deterministic event: the arriving thread waits for its turn
//! and then deterministically deactivates into the barrier (so its frozen
//! clock cannot stall other threads' events — the classic Kendo barrier
//! deadlock). The last arriver reconciles every participant's clock to
//! `max + 1` and reactivates them, all inside its own deterministic event,
//! so the post-barrier clock state is timing-independent.

use crate::event::det_event;
use crate::registry::ThreadState;
use crate::runtime::{raise, DetRuntime};
use detlock_shim::sync::{Condvar, Mutex};

/// A reusable deterministic barrier for `n` participating threads.
pub struct DetBarrier {
    rt: DetRuntime,
    n: usize,
    id: u64,
    /// Tids parked in the current generation, in arrival order.
    arrived: Mutex<Vec<u32>>,
    cv: Condvar,
}

impl DetBarrier {
    /// Create a barrier for `n` threads.
    pub fn new(rt: &DetRuntime, n: usize) -> DetBarrier {
        assert!(n >= 1);
        DetBarrier {
            rt: rt.clone(),
            n,
            id: rt.alloc_lock_id(),
            arrived: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        }
    }

    /// Deterministically wait for all `n` threads.
    ///
    /// Raises a [`crate::DetError`] panic (a stall report) if the watchdog
    /// declares the wait dead.
    pub fn wait(&self) {
        det_event(&self.rt, Some(self.id), |turn| {
            let (reg, me) = (turn.reg(), turn.me);
            let mut arrived = self.arrived.lock();
            reg.transition(|_| reg.set_state(me, ThreadState::Blocked));
            arrived.push(me);
            if arrived.len() == self.n {
                // Reconcile every participant's clock and release them all.
                let all = std::mem::take(&mut *arrived);
                let clock = all.iter().map(|&t| reg.clock(t)).max().unwrap() + 1;
                turn.reactivate(&all, clock);
                self.cv.notify_all();
            } else {
                turn.park(&self.cv, &mut arrived, |a| a.retain(|&t| t != me))?;
            }
            Ok(Some(()))
        })
        .unwrap_or_else(|e| raise(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{tick, DetRuntime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_synchronizes_phases() {
        let rt = DetRuntime::with_defaults();
        let bar = Arc::new(DetBarrier::new(&rt, 4));
        let phase1 = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let bar = Arc::clone(&bar);
            let phase1 = Arc::clone(&phase1);
            handles.push(rt.spawn(move || {
                tick(10 * (t + 1)); // unequal pre-barrier work
                phase1.fetch_add(1, Ordering::SeqCst);
                bar.wait();
                // Everyone must see all phase-1 work complete.
                assert_eq!(phase1.load(Ordering::SeqCst), 4);
            }));
        }
        for h in handles {
            h.join();
        }
    }

    #[test]
    fn clocks_reconciled_after_barrier() {
        let rt = DetRuntime::with_defaults();
        let bar = Arc::new(DetBarrier::new(&rt, 2));
        let rt1 = rt.clone();
        let rt2 = rt.clone();
        let bar2 = Arc::clone(&bar);
        let a = rt.spawn(move || {
            tick(1000);
            bar2.wait();
            rt1.clock()
        });
        let bar3 = Arc::clone(&bar);
        let b = rt.spawn(move || {
            tick(7);
            bar3.wait();
            rt2.clock()
        });
        let ca = a.join();
        let cb = b.join();
        assert_eq!(ca, cb, "clocks must be equal right after the barrier");
        assert!(ca > 1000);
    }

    #[test]
    fn stalled_wait_withdraws_the_arriver() {
        use crate::event::tests::{raised, stall_rt};
        let rt = stall_rt(crate::StallAction::Error);
        let bar = DetBarrier::new(&rt, 2);
        // The second arriver never comes: the wait raises a stall report...
        let e = raised(|| {
            bar.wait();
        });
        assert!(matches!(e, Some(crate::DetError::Stalled(_))));
        // ...and leaves no ghost behind: not in the barrier, back in
        // arbitration, nothing shown as waited on.
        assert!(bar.arrived.lock().is_empty());
        let main = &rt.thread_snapshots()[0];
        assert_eq!((main.state, main.waiting_on), (ThreadState::Active, None));
    }
}
