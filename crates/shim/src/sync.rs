//! Non-poisoning synchronization primitives over `std::sync`.
//!
//! The deterministic runtime's failure model requires that a panicking
//! deterministic thread can still run its exit protocol; `std::sync`
//! poisoning would turn every later internal lock acquisition into a second
//! panic. These wrappers recover the guard from a `PoisonError` instead —
//! the runtime's own invariants are maintained by its deterministic
//! protocol, not by poisoning.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A non-poisoning mutex (API subset of `parking_lot::Mutex`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; the inner `Option` lets [`Condvar::wait`] move the
/// std guard out and back without consuming the wrapper.
pub struct MutexGuard<'a, T: ?Sized> {
    // Invariant: `Some` except transiently inside `Condvar::wait*`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard taken during condvar wait")
    }
}

/// A condition variable usable with [`Mutex`] (API subset of
/// `parking_lot::Condvar`: waits take `&mut MutexGuard`).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Block until notified, releasing the guard while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken during condvar wait");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    /// Block until notified or `timeout` elapses; returns `true` when the
    /// wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        let g = guard.inner.take().expect("guard taken during condvar wait");
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, res)) => (g, res),
            Err(e) => {
                let (g, res) = e.into_inner();
                (g, res)
            }
        };
        guard.inner = Some(g);
        res.timed_out()
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A word-sized try-lock mutex (stand-in for `parking_lot::RawMutex` as the
/// deterministic mutex's physical lock).
///
/// The deterministic protocol only ever calls `try_lock` while holding the
/// arbitration turn and retries through its own clock machinery, so the raw
/// lock needs no waiter queue or blocking path.
#[derive(Debug, Default)]
pub struct RawMutex {
    locked: AtomicBool,
}

impl RawMutex {
    /// An unlocked raw mutex (`parking_lot`-style INIT constant).
    #[allow(clippy::declare_interior_mutable_const)] // mirrors lock_api's INIT pattern
    pub const INIT: RawMutex = RawMutex {
        locked: AtomicBool::new(false),
    };

    /// Attempt to acquire; never blocks.
    pub fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Release. Caller must hold the lock.
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1; // must not panic
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
            42
        });
        std::thread::sleep(Duration::from_millis(10));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
    }

    #[test]
    fn raw_mutex_try_lock_unlock() {
        let r = RawMutex::INIT;
        assert!(r.try_lock());
        assert!(!r.try_lock());
        r.unlock();
        assert!(r.try_lock());
        r.unlock();
    }
}
