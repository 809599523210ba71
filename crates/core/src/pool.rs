//! Deterministic memory pool — the paper's deterministic `malloc`.
//!
//! §III-B: "functions which internally use locks, such as `malloc` ... we
//! provide our own implementation which replaces the locks with our own
//! deterministic locks." [`DetPool`] is a fixed-capacity slab whose
//! free-list is guarded by a [`DetMutex`], so the *sequence of slot indices
//! handed out* — the addresses a deterministic malloc returns — is itself a
//! deterministic function of the program.

use crate::mutex::DetMutex;
use crate::runtime::DetRuntime;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// A fixed-capacity deterministic object pool.
pub struct DetPool<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    free: DetMutex<Vec<u32>>,
}

unsafe impl<T: Send> Send for DetPool<T> {}
unsafe impl<T: Send> Sync for DetPool<T> {}

impl<T> DetPool<T> {
    /// Create a pool with `capacity` slots.
    pub fn new(rt: &DetRuntime, capacity: usize) -> DetPool<T> {
        assert!(capacity > 0 && capacity <= u32::MAX as usize);
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        // LIFO free list: slot 0 on top, matching a bump-then-recycle
        // allocator's locality.
        let free: Vec<u32> = (0..capacity as u32).rev().collect();
        DetPool {
            slots,
            free: DetMutex::new(rt, free),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently free slots (deterministic event: takes the det
    /// lock).
    pub fn free_count(&self) -> usize {
        self.free.lock().len()
    }

    /// Deterministically allocate a slot holding `value`; `None` when the
    /// pool is exhausted (exhaustion is deterministic too).
    pub fn alloc(&self, value: T) -> Option<DetPoolBox<'_, T>> {
        let idx = {
            let mut free = self.free.lock();
            free.pop()
        }?;
        unsafe {
            (*self.slots[idx as usize].get()).write(value);
        }
        Some(DetPoolBox {
            pool: self,
            idx,
            _owns: PhantomData,
        })
    }
}

/// Owning handle to a pool slot; returns the slot on drop (a deterministic
/// event).
///
/// Sharing `&box` hands out `&T`, so it is `Sync` only when `T` is:
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<detlock_core::DetPoolBox<'static, std::cell::Cell<u8>>>();
/// ```
pub struct DetPoolBox<'p, T> {
    pool: &'p DetPool<T>,
    idx: u32,
    _owns: PhantomData<T>,
}

impl<T> DetPoolBox<'_, T> {
    /// The slot index — the "address" a deterministic malloc returns; equal
    /// across runs for the same program.
    pub fn slot(&self) -> u32 {
        self.idx
    }
}

impl<T> Deref for DetPoolBox<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { (*self.pool.slots[self.idx as usize].get()).assume_init_ref() }
    }
}

impl<T> DerefMut for DetPoolBox<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { (*self.pool.slots[self.idx as usize].get()).assume_init_mut() }
    }
}

impl<T> Drop for DetPoolBox<'_, T> {
    fn drop(&mut self) {
        unsafe {
            (*self.pool.slots[self.idx as usize].get()).assume_init_drop();
        }
        let mut free = self.pool.free.lock();
        free.push(self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{tick, DetRuntime};
    use std::sync::Arc;

    #[test]
    fn alloc_free_round_trip() {
        let rt = DetRuntime::with_defaults();
        let pool: DetPool<String> = DetPool::new(&rt, 4);
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.free_count(), 4);
        {
            let mut b = pool.alloc("hello".to_string()).unwrap();
            b.push_str(" world");
            assert_eq!(&*b, "hello world");
            assert_eq!(pool.free_count(), 3);
        }
        assert_eq!(pool.free_count(), 4);
    }

    #[test]
    fn exhaustion_returns_none() {
        let rt = DetRuntime::with_defaults();
        let pool: DetPool<u8> = DetPool::new(&rt, 2);
        let a = pool.alloc(1).unwrap();
        let b = pool.alloc(2).unwrap();
        assert!(pool.alloc(3).is_none());
        drop(a);
        assert!(pool.alloc(4).is_some());
        drop(b);
    }

    #[test]
    fn slot_reuse_is_lifo() {
        let rt = DetRuntime::with_defaults();
        let pool: DetPool<u8> = DetPool::new(&rt, 3);
        let a = pool.alloc(1).unwrap();
        let s0 = a.slot();
        drop(a);
        let b = pool.alloc(2).unwrap();
        assert_eq!(b.slot(), s0);
    }

    #[test]
    fn allocation_sequence_deterministic_under_contention() {
        fn run(noise: bool) -> Vec<(u32, u32)> {
            let rt = DetRuntime::with_defaults();
            let pool: Arc<DetPool<u64>> = Arc::new(DetPool::new(&rt, 16));
            let log: Arc<detlock_shim::sync::Mutex<Vec<(u32, u32)>>> =
                Arc::new(detlock_shim::sync::Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for t in 0..3u32 {
                let pool = Arc::clone(&pool);
                let log = Arc::clone(&log);
                handles.push(rt.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..40u64 {
                        tick(3 + t as u64);
                        if noise && i % 11 == t as u64 {
                            std::thread::sleep(std::time::Duration::from_micros(80));
                        }
                        if let Some(b) = pool.alloc(i) {
                            log.lock().push((t, b.slot()));
                            held.push(b);
                        }
                        if held.len() > 2 {
                            tick(1);
                            held.remove(0); // free the oldest (det event)
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            let v = log.lock().clone();
            v
        }
        // Note: the *per-thread* subsequences of (tid, slot) are
        // deterministic because slot handout order is deterministic; the
        // interleaving of log appends is not (the log mutex is ordinary).
        // Compare per-thread projections.
        let project = |v: Vec<(u32, u32)>| -> Vec<Vec<u32>> {
            (0..3)
                .map(|t| {
                    v.iter()
                        .filter(|(tt, _)| *tt == t)
                        .map(|(_, s)| *s)
                        .collect()
                })
                .collect()
        };
        let a = project(run(false));
        let b = project(run(true));
        assert_eq!(a, b, "per-thread slot sequences must be reproducible");
    }

    #[test]
    fn drops_inner_values() {
        let rt = DetRuntime::with_defaults();
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        struct D(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let pool: DetPool<D> = DetPool::new(&rt, 2);
        let a = pool.alloc(D(Arc::clone(&counter))).unwrap();
        let b = pool.alloc(D(Arc::clone(&counter))).unwrap();
        drop(a);
        drop(b);
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 2);
    }
}
