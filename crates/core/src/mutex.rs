//! The deterministic mutex — Kendo's `det_mutex_lock` as used by DetLock.
//!
//! Acquisition is a deterministic event (`event::det_event`) whose admission
//! test is: physically free, *and* logically free — the last release clock
//! precedes the acquirer's clock. A release in the acquirer's logical
//! future is treated exactly like "still held", which is what a rerun with
//! different timing would observe.
//!
//! Release does **not** wait for the turn: it stamps the lock with the
//! releaser's clock (making the admission test deterministic) and bumps
//! the clock. See the crate docs for the determinism argument.

use crate::event::det_event;
use crate::runtime::{raise, DetRuntime};
use detlock_shim::sync::RawMutex;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Release stamp of a mutex that has never been released.
const NEVER_RELEASED: u64 = u64::MAX;

/// The logical half of the admission test: does a release stamped
/// `release` lie in the logical past of an acquirer at `clock`? A mutex
/// that is physically free but released in the acquirer's future is —
/// deterministically — indistinguishable from one still held.
fn past(release: u64, clock: u64) -> bool {
    release == NEVER_RELEASED || release < clock
}

/// A mutex whose acquisition order is a deterministic function of the
/// program (given race-free use of the data it protects).
pub struct DetMutex<T: ?Sized> {
    rt: DetRuntime,
    raw: RawMutex,
    release_clock: AtomicU64,
    id: u64,
    data: UnsafeCell<T>,
}

// Safety: the raw mutex serializes access to `data` exactly like a normal
// mutex; the deterministic protocol only constrains *when* acquisition
// succeeds.
unsafe impl<T: ?Sized + Send> Send for DetMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for DetMutex<T> {}

impl<T> DetMutex<T> {
    /// Create a deterministic mutex owned by `rt`.
    pub fn new(rt: &DetRuntime, value: T) -> DetMutex<T> {
        DetMutex {
            rt: rt.clone(),
            raw: RawMutex::INIT,
            release_clock: AtomicU64::new(NEVER_RELEASED),
            id: rt.alloc_lock_id(),
            data: UnsafeCell::new(value),
        }
    }

    /// The runtime-assigned lock id (used in traces).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The admission test, run at the caller's turn: take the raw lock iff
    /// the mutex is physically *and* logically free at `clock`.
    fn admit(&self, clock: u64) -> bool {
        if !self.raw.try_lock() {
            return false;
        }
        let free = past(self.release_clock.load(Ordering::Acquire), clock);
        if !free {
            self.raw.unlock();
        }
        free
    }

    /// Deterministically acquire the mutex: the admission test runs at each
    /// of the caller's turns, and every refusal costs one clock bump.
    pub fn lock(&self) -> DetMutexGuard<'_, T> {
        let tid = det_event(&self.rt, Some(self.id), |turn| {
            Ok(self.admit(turn.clock()).then(|| turn.acquired(self.id)))
        })
        .unwrap_or_else(|e| raise(e));
        DetMutexGuard::new(self, tid)
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Mutable access without locking (requires `&mut self`, so no other
    /// thread can hold the lock).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// RAII guard; releasing is not turn-gated. Like `std::sync::MutexGuard`
/// it is not `Send` (its `Drop` ticks the acquirer's clock), and it is
/// `Sync` only when `T` is (sharing `&guard` hands out `&T`):
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<detlock_core::DetMutexGuard<'static, u64>>();
/// ```
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<detlock_core::DetMutexGuard<'static, std::cell::Cell<u8>>>();
/// ```
pub struct DetMutexGuard<'a, T: ?Sized> {
    mutex: &'a DetMutex<T>,
    tid: u32,
    _not_send: PhantomData<*const ()>,
}

// SAFETY: through `&DetMutexGuard` another thread reaches only `&T`
// (`Deref`, which needs `T: Sync`) and the read-only `tid`.
unsafe impl<T: ?Sized + Send + Sync> Sync for DetMutexGuard<'_, T> {}

impl<'a, T: ?Sized> DetMutexGuard<'a, T> {
    fn new(mutex: &'a DetMutex<T>, tid: u32) -> Self {
        DetMutexGuard {
            mutex,
            tid,
            _not_send: PhantomData,
        }
    }
}

impl<T: ?Sized> Deref for DetMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for DetMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for DetMutexGuard<'_, T> {
    fn drop(&mut self) {
        let reg = &self.mutex.rt.inner.registry;
        let clock = reg.clock(self.tid);
        self.mutex.release_clock.store(clock, Ordering::Release);
        self.mutex.raw.unlock();
        reg.tick(self.tid, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{tick, DetConfig};
    use std::sync::Arc;

    fn rt_traced() -> DetRuntime {
        DetRuntime::new(DetConfig {
            record_trace: true,
            ..DetConfig::default()
        })
    }

    #[test]
    fn single_thread_lock_unlock() {
        let rt = rt_traced();
        let m = DetMutex::new(&rt, 5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        assert_eq!(rt.trace_len(), 2);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let rt = DetRuntime::with_defaults();
        let m = Arc::new(DetMutex::new(&rt, 0i64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(rt.spawn(move || {
                for _ in 0..200 {
                    tick(3);
                    let mut g = m.lock();
                    *g += 1;
                }
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(*m.lock(), 800);
    }

    #[test]
    fn acquisition_order_is_reproducible() {
        // Run the same contended workload twice (fresh runtimes) with
        // injected timing noise; the traces must match event for event.
        fn run(noise: bool) -> Vec<crate::Acquisition> {
            let rt = rt_traced();
            let m = Arc::new(DetMutex::new(&rt, 0i64));
            let mut handles = Vec::new();
            for t in 0..3u32 {
                let m = Arc::clone(&m);
                handles.push(rt.spawn(move || {
                    for i in 0..60 {
                        tick(5 + t as u64); // deterministic, thread-varying
                        if noise && i % 17 == t as i32 % 17 {
                            std::thread::sleep(std::time::Duration::from_micros(
                                50 * (t as u64 + 1),
                            ));
                        }
                        let mut g = m.lock();
                        *g += 1;
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            rt.trace_events()
        }
        let a = run(false);
        let b = run(true);
        let c = run(true);
        assert_eq!(a.len(), 180);
        assert_eq!(a, b, "timing noise changed the acquisition order");
        assert_eq!(b, c);
    }

    #[test]
    fn two_locks_reproducible() {
        fn run(extra_sleep_tid: u32) -> Vec<crate::Acquisition> {
            let rt = rt_traced();
            let m1 = Arc::new(DetMutex::new(&rt, 0i64));
            let m2 = Arc::new(DetMutex::new(&rt, 0i64));
            let mut handles = Vec::new();
            for t in 0..3u32 {
                let m1 = Arc::clone(&m1);
                let m2 = Arc::clone(&m2);
                handles.push(rt.spawn(move || {
                    for i in 0..40 {
                        tick(4);
                        if t == extra_sleep_tid && i % 10 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        if (i + t as i32) % 2 == 0 {
                            let mut g = m1.lock();
                            *g += 1;
                        } else {
                            let mut g = m2.lock();
                            *g += 1;
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            rt.trace_events()
        }
        let a = run(0);
        let b = run(1);
        let c = run(2);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let rt = DetRuntime::with_defaults();
        let mut m = DetMutex::new(&rt, vec![1, 2]);
        m.get_mut().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn guard_is_sync_when_the_data_is() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<DetMutexGuard<'static, u64>>();
    }

    #[test]
    fn guard_releases_on_drop_for_other_threads() {
        let rt = DetRuntime::with_defaults();
        let m = Arc::new(DetMutex::new(&rt, 0));
        let g = m.lock();
        drop(g);
        let m2 = Arc::clone(&m);
        let h = rt.spawn(move || {
            tick(1);
            *m2.lock() + 1
        });
        assert_eq!(h.join(), 1);
    }
}
