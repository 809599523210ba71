//! Deterministic condition variable.
//!
//! The paper lists condition variables as unimplemented ("we have not yet
//! implemented other synchronization operations, such as condition
//! variables", §V); this is the natural extension within the same
//! framework:
//!
//! * `wait` is a deterministic event: at its turn the waiter deactivates,
//!   enqueues itself (the queue order is therefore timing-independent), and
//!   releases the mutex;
//! * `signal` is a deterministic event: at its turn the signaler dequeues
//!   the *front* waiter, reactivates it with clock `signaler + 1`, and the
//!   woken thread re-acquires the mutex through the normal deterministic
//!   lock protocol;
//! * `broadcast` reactivates every queued waiter (clock ties are broken by
//!   tid as usual).

use crate::mutex::{DetMutex, DetMutexGuard};
use crate::registry::ThreadState;
use crate::runtime::{current, fault_point, raise, wait_turn, DetRuntime};
use detlock_shim::sync::{Condvar, Mutex};
use std::collections::VecDeque;

struct CvState {
    queue: VecDeque<u32>,
}

/// A deterministic condition variable (use with [`DetMutex`]).
pub struct DetCondvar {
    rt: DetRuntime,
    id: u64,
    state: Mutex<CvState>,
    cv: Condvar,
}

impl DetCondvar {
    /// Create a condition variable owned by `rt`.
    pub fn new(rt: &DetRuntime) -> DetCondvar {
        DetCondvar {
            rt: rt.clone(),
            id: rt.alloc_lock_id(),
            state: Mutex::new(CvState {
                queue: VecDeque::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Deterministically wait: atomically (in the deterministic order)
    /// release the guard and block; on wake-up, re-acquire the mutex.
    ///
    /// As with POSIX condvars, spurious wake-ups are absorbed internally;
    /// callers should still loop on their predicate because another thread
    /// may win the mutex between the signal and the re-acquisition.
    pub fn wait<'a, T>(&self, guard: DetMutexGuard<'a, T>) -> DetMutexGuard<'a, T> {
        let (inner, me) = current();
        debug_assert!(std::sync::Arc::ptr_eq(&inner, &self.rt.inner));
        let reg = &inner.registry;
        // The wait is a det event at our turn.
        fault_point(&inner, me);
        reg.set_waiting(me, Some(self.id));
        wait_turn(&inner, me);
        let mutex: &'a DetMutex<T> = DetMutexGuard::mutex(&guard);
        {
            let mut st = self.state.lock();
            st.queue.push_back(me);
            // Release the mutex while we still count in arbitration: going
            // `Blocked` first would hand the turn to a thread that may find
            // the mutex not yet physically unlocked and bump its clock a
            // timing-dependent number of times. A signaler cannot look at
            // the queue until `wait_for` below drops `st`, so it still sees
            // us enqueued *and* blocked.
            drop(guard);
            reg.transition(|_| reg.set_state(me, ThreadState::Blocked));
            // Block until a signaler reactivates us.
            let mut timer = reg.stall_timer();
            while reg.state(me) != ThreadState::Active {
                let timed_out = self.cv.wait_for(&mut st, timer.poll_interval());
                if timed_out && reg.state(me) != ThreadState::Active && timer.expired(reg) {
                    match reg.on_blocked_stall(me) {
                        Ok(()) => {} // culprit evicted; a signaler may now run
                        Err(e) => {
                            // Withdraw from the queue and reactivate before
                            // erroring, so a late signal can't wake a ghost.
                            st.queue.retain(|&t| t != me);
                            drop(st);
                            reg.transition(|_| {
                                if reg.state(me) == ThreadState::Blocked {
                                    reg.set_state(me, ThreadState::Active);
                                }
                            });
                            reg.set_waiting(me, None);
                            raise(e);
                        }
                    }
                }
            }
        }
        reg.set_waiting(me, None);
        mutex.lock()
    }

    /// Deterministically wake the front waiter (no-op when none).
    pub fn signal(&self) {
        self.wake(1);
    }

    /// Deterministically wake every queued waiter.
    pub fn broadcast(&self) {
        self.wake(usize::MAX);
    }

    fn wake(&self, max: usize) {
        let (inner, me) = current();
        debug_assert!(std::sync::Arc::ptr_eq(&inner, &self.rt.inner));
        let reg = &inner.registry;
        fault_point(&inner, me);
        wait_turn(&inner, me);
        let my_clock = reg.clock(me);
        let mut st = self.state.lock();
        let count = st.queue.len().min(max);
        if count > 0 {
            let woken: Vec<u32> = st.queue.drain(..count).collect();
            reg.transition(|_| {
                for &t in &woken {
                    // Only reactivate waiters still Blocked: a queued tid
                    // that was evicted (or already gave up on a stall) must
                    // not be resurrected into arbitration.
                    if reg.state(t) == ThreadState::Blocked {
                        reg.set_clock(t, my_clock + 1);
                        reg.set_state(t, ThreadState::Active);
                    }
                }
            });
            self.cv.notify_all();
        }
        drop(st);
        reg.tick(me, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{tick, DetRuntime};
    use std::sync::Arc;

    #[test]
    fn signal_wakes_one_waiter() {
        let rt = DetRuntime::with_defaults();
        let m = Arc::new(DetMutex::new(&rt, false));
        let cv = Arc::new(DetCondvar::new(&rt));
        let m2 = Arc::clone(&m);
        let cv2 = Arc::clone(&cv);
        let waiter = rt.spawn(move || {
            tick(1);
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(g);
            }
            42
        });
        // Give the waiter time to enqueue, then set + signal.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tick(100);
        {
            let mut g = m.lock();
            *g = true;
        }
        cv.signal();
        assert_eq!(waiter.join(), 42);
    }

    #[test]
    fn broadcast_wakes_all() {
        let rt = DetRuntime::with_defaults();
        let m = Arc::new(DetMutex::new(&rt, 0usize));
        let cv = Arc::new(DetCondvar::new(&rt));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let m = Arc::clone(&m);
            let cv = Arc::clone(&cv);
            handles.push(rt.spawn(move || {
                tick(2);
                let mut g = m.lock();
                while *g == 0 {
                    g = cv.wait(g);
                }
                *g += 1;
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        tick(50);
        {
            let mut g = m.lock();
            *g = 1;
        }
        cv.broadcast();
        for h in handles {
            h.join();
        }
        assert_eq!(*m.lock(), 4);
    }

    #[test]
    fn producer_consumer_queue_is_deterministic() {
        fn run(noise: bool) -> Vec<(u64, u32)> {
            let rt = DetRuntime::new(crate::runtime::DetConfig {
                record_trace: true,
                ..Default::default()
            });
            let q = Arc::new(DetMutex::new(&rt, VecDeque::<i64>::new()));
            let cv = Arc::new(DetCondvar::new(&rt));
            let mut handles = Vec::new();
            // Two consumers.
            for t in 0..2u64 {
                let q = Arc::clone(&q);
                let cv = Arc::clone(&cv);
                handles.push(rt.spawn(move || {
                    let mut got = 0;
                    while got < 20 {
                        tick(3 + t);
                        let mut g = q.lock();
                        while g.is_empty() {
                            g = cv.wait(g);
                        }
                        g.pop_front();
                        got += 1;
                    }
                }));
            }
            // One producer.
            let q2 = Arc::clone(&q);
            let cv2 = Arc::clone(&cv);
            handles.push(rt.spawn(move || {
                for i in 0..40 {
                    tick(5);
                    if noise && i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(150));
                    }
                    {
                        let mut g = q2.lock();
                        g.push_back(i);
                    }
                    cv2.signal();
                }
            }));
            for h in handles {
                h.join();
            }
            rt.trace_events().iter().map(|e| (e.lock, e.tid)).collect()
        }
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b, "condvar wake/acquire order must be reproducible");
    }
}
