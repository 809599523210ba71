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

use crate::event::det_event;
use crate::mutex::{DetMutex, DetMutexGuard};
use crate::registry::ThreadState;
use crate::runtime::{raise, DetRuntime};
use detlock_shim::sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// A deterministic condition variable (use with [`DetMutex`]).
pub struct DetCondvar {
    rt: DetRuntime,
    id: u64,
    /// Waiting tids in (deterministic) arrival order.
    queue: Mutex<VecDeque<u32>>,
    cv: Condvar,
}

impl DetCondvar {
    /// Create a condition variable owned by `rt`.
    pub fn new(rt: &DetRuntime) -> DetCondvar {
        DetCondvar {
            rt: rt.clone(),
            id: rt.alloc_lock_id(),
            queue: Mutex::new(VecDeque::new()),
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
        let mutex: &'a DetMutex<T> = DetMutexGuard::mutex(&guard);
        let mut guard = Some(guard);
        det_event(&self.rt, Some(self.id), |turn| {
            let (reg, me) = (turn.reg(), turn.me);
            let mut queue = self.queue.lock();
            queue.push_back(me);
            // Release the mutex while we still count in arbitration: going
            // `Blocked` first would hand the turn to a thread that may find
            // the mutex not yet physically unlocked and bump its clock a
            // timing-dependent number of times. A signaler cannot look at
            // the queue until `park` drops the queue lock, so it still sees
            // us enqueued *and* blocked.
            drop(guard.take());
            reg.transition(|_| reg.set_state(me, ThreadState::Blocked));
            turn.park(&self.cv, &mut queue, |q| q.retain(|&t| t != me))?;
            Ok(Some(()))
        })
        .unwrap_or_else(|e| raise(e));
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
        det_event(&self.rt, Some(self.id), |turn| {
            let mut queue = self.queue.lock();
            let count = queue.len().min(max);
            if count > 0 {
                let woken: Vec<u32> = queue.drain(..count).collect();
                turn.reactivate(&woken, turn.clock() + 1);
                self.cv.notify_all();
            }
            drop(queue);
            turn.reg().tick(turn.me, 1);
            Ok(Some(()))
        })
        .unwrap_or_else(|e| raise(e))
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
        fn run(noise: bool) -> Vec<crate::Acquisition> {
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
            rt.trace_events()
        }
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b, "condvar wake/acquire order must be reproducible");
    }

    #[test]
    fn stalled_wait_withdraws_the_waiter() {
        use crate::event::tests::{raised, stall_rt};
        let rt = stall_rt(crate::StallAction::Error);
        let m = DetMutex::new(&rt, 0);
        let cv = DetCondvar::new(&rt);
        // Nobody will ever signal: the wait raises a stall report...
        let e = raised(|| drop(cv.wait(m.lock())));
        assert!(matches!(e, Some(crate::DetError::Stalled(_))));
        // ...with the waiter out of the queue and back in arbitration, and
        // the mutex released by the wait still free.
        assert!(cv.queue.lock().is_empty());
        let main = &rt.thread_snapshots()[0];
        assert_eq!((main.state, main.waiting_on), (ThreadState::Active, None));
        assert_eq!(*m.lock(), 0);
    }
}
