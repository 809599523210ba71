//! # detlock-shim
//!
//! Zero-dependency stand-ins for the external crates the workspace used to
//! depend on (`parking_lot`, `crossbeam::utils::CachePadded`, `rand`,
//! `serde_json`). The build must succeed from a bare toolchain with no
//! registry access, so every primitive the runtime and harnesses need is
//! implemented here on top of `std` alone.
//!
//! The APIs deliberately mirror the subset of the originals the workspace
//! uses, so the call sites read the same:
//!
//! * [`sync::Mutex`] / [`sync::Condvar`] — non-poisoning wrappers over
//!   `std::sync` (a panicking deterministic thread must not poison runtime
//!   internals; see the failure model in DESIGN.md);
//! * [`sync::RawMutex`] — a word-sized try-lock/unlock mutex for the
//!   deterministic mutex's physical lock (only ever attempted, never
//!   waited on, at the holder's turn, so it needs no queueing);
//! * [`CachePadded`] — cache-line-aligned wrapper for per-thread clock slots;
//! * [`hash::Fnv64`] — the one FNV-1a every trace hash, receipt, cache key
//!   and digest in the workspace folds with;
//! * [`acq::AcquisitionLog`] — the lock-acquisition record, its hash and
//!   [`acq::first_divergence`], shared by the runtime and the simulator;
//! * [`rng::SmallRng`] — a seeded splitmix64/xoshiro-style generator for
//!   simulator jitter and test-case generation, and [`rng::mix`], the
//!   stateless seeded draw every fault plan keys its schedule on;
//! * [`json::Json`] — a minimal JSON tree with pretty printing for the
//!   bench binaries' `--json` output;
//! * [`evloop::Poller`] / [`evloop::wake_pair`] — `poll(2)`-based socket
//!   readiness and a cross-thread waker, so the serving edge can drive
//!   thousands of nonblocking connections from one thread without `mio`.

#![warn(missing_docs)]

pub mod acq;
pub mod evloop;
pub mod hash;
pub mod json;
pub mod rng;
pub mod sync;

/// Cache-line-aligned wrapper (stand-in for `crossbeam_utils::CachePadded`).
///
/// 128-byte alignment covers the common 64-byte line plus adjacent-line
/// prefetchers on x86 and the 128-byte lines on some arm64 parts.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Unwrap, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let c = CachePadded::new(7u64);
        assert_eq!(*c, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(c.into_inner(), 7);
    }
}
