//! Deterministic reader-writer lock (extension beyond the paper's lock +
//! barrier set, built from the same deterministic-event primitives).
//!
//! Both read and write acquisitions are deterministic events
//! (`event::det_event`); releases are not. Determinism of the two admission
//! tests follows the mutex argument:
//!
//! * a read release with clock `r <` the writer's event clock `c` has
//!   physically completed by the time the writer holds the turn (clock
//!   monotonicity), so the reader count the writer observes is exactly the
//!   set of logically-active readers;
//! * reads that would logically follow the writer cannot have started,
//!   because their acquire events are turn-gated behind the writer's clock;
//! * the stamped `max_read_release` / `write_release` clocks make
//!   "physically free but logically still held" visible, as in the mutex.

use crate::event::{acquire, past, NEVER_RELEASED};
use crate::runtime::DetRuntime;
use detlock_shim::sync::Mutex;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

#[derive(Debug)]
struct RwState {
    readers: usize,
    writer: bool,
    /// Clock of the latest read release (`NEVER_RELEASED` = none yet).
    max_read_release: u64,
    /// Clock of the latest write release (`NEVER_RELEASED` = none yet).
    write_release: u64,
}

/// A deterministic reader-writer lock.
pub struct DetRwLock<T: ?Sized> {
    rt: DetRuntime,
    id: u64,
    state: Mutex<RwState>,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for DetRwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for DetRwLock<T> {}

impl<T> DetRwLock<T> {
    /// Create a deterministic rwlock owned by `rt`.
    pub fn new(rt: &DetRuntime, value: T) -> DetRwLock<T> {
        DetRwLock {
            rt: rt.clone(),
            id: rt.alloc_lock_id(),
            state: Mutex::new(RwState {
                readers: 0,
                writer: false,
                max_read_release: NEVER_RELEASED,
                write_release: NEVER_RELEASED,
            }),
            data: UnsafeCell::new(value),
        }
    }

    /// Deterministically acquire a shared (read) lock.
    pub fn read(&self) -> DetRwLockReadGuard<'_, T> {
        let tid = acquire(&self.rt, self.id, |clock| {
            let mut st = self.state.lock();
            let admit = !st.writer && past(st.write_release, clock);
            if admit {
                st.readers += 1;
            }
            admit
        });
        DetRwLockReadGuard { lock: self, tid }
    }

    /// Deterministically acquire an exclusive (write) lock.
    pub fn write(&self) -> DetRwLockWriteGuard<'_, T> {
        let tid = acquire(&self.rt, self.id, |clock| {
            let mut st = self.state.lock();
            let admit = !st.writer
                && st.readers == 0
                && past(st.write_release, clock)
                && past(st.max_read_release, clock);
            if admit {
                st.writer = true;
            }
            admit
        });
        DetRwLockWriteGuard { lock: self, tid }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// Shared guard.
pub struct DetRwLockReadGuard<'a, T: ?Sized> {
    lock: &'a DetRwLock<T>,
    tid: u32,
}

impl<T: ?Sized> Deref for DetRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for DetRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let reg = &self.lock.rt.inner.registry;
        let clock = reg.clock(self.tid);
        let mut st = self.lock.state.lock();
        st.readers -= 1;
        st.max_read_release = if st.max_read_release == NEVER_RELEASED {
            clock
        } else {
            st.max_read_release.max(clock)
        };
        drop(st);
        reg.tick(self.tid, 1);
    }
}

/// Exclusive guard.
pub struct DetRwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a DetRwLock<T>,
    tid: u32,
}

impl<T: ?Sized> Deref for DetRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for DetRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for DetRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        let reg = &self.lock.rt.inner.registry;
        let clock = reg.clock(self.tid);
        let mut st = self.lock.state.lock();
        st.writer = false;
        st.write_release = clock;
        drop(st);
        reg.tick(self.tid, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{tick, DetRuntime};
    use std::sync::Arc;

    #[test]
    fn single_thread_read_write() {
        let rt = DetRuntime::with_defaults();
        let l = DetRwLock::new(&rt, 7);
        {
            let g = l.read();
            assert_eq!(*g, 7);
        }
        {
            let mut g = l.write();
            *g = 8;
        }
        assert_eq!(*l.read(), 8);
        assert_eq!(l.into_inner(), 8);
    }

    #[test]
    fn multiple_concurrent_readers() {
        let rt = DetRuntime::with_defaults();
        let l = Arc::new(DetRwLock::new(&rt, 5i64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            handles.push(rt.spawn(move || {
                tick(1);
                let g = l.read();
                // Hold the read lock briefly; all four must overlap without
                // deadlock.
                std::thread::sleep(std::time::Duration::from_millis(5));
                *g
            }));
        }
        for h in handles {
            assert_eq!(h.join(), 5);
        }
    }

    #[test]
    fn writers_exclude_readers_and_writers() {
        let rt = DetRuntime::with_defaults();
        let l = Arc::new(DetRwLock::new(&rt, 0i64));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let l = Arc::clone(&l);
            handles.push(rt.spawn(move || {
                for _ in 0..100 {
                    tick(2);
                    let mut g = l.write();
                    let v = *g;
                    *g = v + 1;
                }
            }));
        }
        for t in 0..2 {
            let l = Arc::clone(&l);
            handles.push(rt.spawn(move || {
                for _ in 0..50 {
                    tick(3 + t);
                    let g = l.read();
                    let v = *g;
                    assert!(v >= 0);
                }
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(*l.read(), 200);
    }

    #[test]
    fn grant_order_is_reproducible() {
        fn run(noise: bool) -> Vec<i64> {
            let rt = DetRuntime::with_defaults();
            let l = Arc::new(DetRwLock::new(&rt, Vec::<i64>::new()));
            let mut handles = Vec::new();
            for t in 0..3i64 {
                let l = Arc::clone(&l);
                handles.push(rt.spawn(move || {
                    for i in 0..30 {
                        tick(4 + t as u64);
                        if noise && i % 9 == t {
                            std::thread::sleep(std::time::Duration::from_micros(120));
                        }
                        let mut g = l.write();
                        g.push(t);
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            let v = l.read().clone();
            v
        }
        let a = run(false);
        let b = run(true);
        assert_eq!(a.len(), 90);
        assert_eq!(a, b, "write grant order must be timing-independent");
    }
}
