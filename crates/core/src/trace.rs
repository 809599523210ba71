//! Lock-acquisition trace recorder.
//!
//! Weak determinism is observable: the sequence of `(lock, thread, clock)`
//! acquisitions must be identical across runs. The recorder appends events
//! from inside the acquisition critical path — acquisitions are totally
//! ordered by the deterministic protocol and a thread's next clock advance
//! happens only after its record lands, so the append order *is* the
//! logical order.
//!
//! # Memory model
//!
//! The recorder maintains an **incremental FNV-1a hash** over the
//! `(lock, tid)` sequence, folded in at [`TraceRecorder::record`] time, so
//! [`TraceRecorder::hash`] is O(1) regardless of episode length — this is
//! what lets a long-running service hand out *determinism receipts* without
//! ever buffering the episode. Event retention is configurable:
//!
//! * **unbounded** ([`TraceRecorder::new`]) — every event kept; the mode
//!   `detcheck` and the divergence-pinpointing tooling need;
//! * **bounded ring** ([`TraceRecorder::with_capacity`]) — only the most
//!   recent `capacity` events are retained (a divergence-diagnosis window);
//!   the hash still covers the complete history.

use detlock_shim::hash::Fnv64;
use detlock_shim::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// One recorded acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Runtime-assigned lock id.
    pub lock: u64,
    /// Acquiring thread.
    pub tid: u32,
    /// The thread's logical clock just after acquisition.
    pub clock: u64,
}

struct TraceState {
    /// Retained events (the full history, or the ring-buffer tail).
    events: VecDeque<TraceEvent>,
    /// Total events ever recorded (≥ `events.len()` in bounded mode).
    total: u64,
    /// Incremental order hash over the complete history.
    hash: Fnv64,
}

/// Append-only event recorder; disabled recorders cost one atomic load per
/// acquisition.
pub struct TraceRecorder {
    enabled: AtomicBool,
    /// `None` = retain everything; `Some(n)` = ring buffer of the last `n`.
    capacity: Option<usize>,
    state: Mutex<TraceState>,
}

impl TraceRecorder {
    /// Create a recorder that retains the full event history.
    pub fn new(enabled: bool) -> TraceRecorder {
        TraceRecorder::with_capacity(enabled, None)
    }

    /// Create a recorder with bounded retention: only the most recent
    /// `capacity` events are kept (`None` = unbounded). The incremental
    /// hash and the event count always cover the complete history, so
    /// receipts stay O(1)-exact however long the episode runs.
    pub fn with_capacity(enabled: bool, capacity: Option<usize>) -> TraceRecorder {
        TraceRecorder {
            enabled: AtomicBool::new(enabled),
            capacity,
            state: Mutex::new(TraceState {
                events: VecDeque::new(),
                total: 0,
                hash: Fnv64::new(),
            }),
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable/disable recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record one acquisition (no-op when disabled).
    pub fn record(&self, lock: u64, tid: u32, clock: u64) {
        if self.is_enabled() {
            let mut st = self.state.lock();
            st.hash.write_u64(lock);
            st.hash.write(&tid.to_le_bytes());
            st.total += 1;
            if let Some(cap) = self.capacity {
                if cap == 0 {
                    return;
                }
                if st.events.len() == cap {
                    st.events.pop_front();
                }
            }
            st.events.push_back(TraceEvent { lock, tid, clock });
        }
    }

    /// Number of events recorded over the recorder's lifetime (in bounded
    /// mode this can exceed [`TraceRecorder::retained`]).
    pub fn len(&self) -> usize {
        self.state.lock().total as usize
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events currently held in the buffer.
    pub fn retained(&self) -> usize {
        self.state.lock().events.len()
    }

    /// Events evicted from a bounded ring (0 in unbounded mode).
    pub fn dropped(&self) -> usize {
        let st = self.state.lock();
        st.total as usize - st.events.len()
    }

    /// Copy of the retained event window (the full log in unbounded mode).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.state.lock().events.iter().copied().collect()
    }

    /// Order-sensitive FNV-1a hash of the complete `(lock, tid)` history.
    /// O(1): maintained incrementally at record time.
    pub fn hash(&self) -> u64 {
        self.state.lock().hash.finish()
    }

    /// Drop all recorded events and reset the hash to the empty-trace
    /// value.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.events.clear();
        st.total = 0;
        st.hash = Fnv64::new();
    }
}

/// Index of the first position where two traces disagree on `(lock, tid)`
/// (clock differences are tolerated, matching [`TraceRecorder::hash`]), or
/// `None` when one trace is a prefix-equal match of the other's length.
/// Chaos tests and `detcheck` use this to *show* a divergence, not just
/// detect one.
pub fn first_divergence(a: &[TraceEvent], b: &[TraceEvent]) -> Option<usize> {
    if a.len() != b.len() {
        let common = a.len().min(b.len());
        for i in 0..common {
            if (a[i].lock, a[i].tid) != (b[i].lock, b[i].tid) {
                return Some(i);
            }
        }
        return Some(common);
    }
    (0..a.len()).find(|&i| (a[i].lock, a[i].tid) != (b[i].lock, b[i].tid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = TraceRecorder::new(false);
        t.record(1, 0, 5);
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(1, 0, 5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hash_depends_on_order_not_clock() {
        let a = TraceRecorder::new(true);
        a.record(1, 0, 5);
        a.record(2, 1, 9);
        let b = TraceRecorder::new(true);
        b.record(1, 0, 500); // clock differs: same order hash
        b.record(2, 1, 900);
        assert_eq!(a.hash(), b.hash());
        let c = TraceRecorder::new(true);
        c.record(2, 1, 9);
        c.record(1, 0, 5);
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn bounded_ring_keeps_tail_but_hashes_everything() {
        let full = TraceRecorder::new(true);
        let ring = TraceRecorder::with_capacity(true, Some(3));
        for i in 0..10u64 {
            full.record(i, (i % 4) as u32, i);
            ring.record(i, (i % 4) as u32, i);
        }
        // Hash covers the complete history in both modes.
        assert_eq!(ring.hash(), full.hash());
        // Counts cover the history; retention is bounded.
        assert_eq!(ring.len(), 10);
        assert_eq!(ring.retained(), 3);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(full.retained(), 10);
        assert_eq!(full.dropped(), 0);
        // The window is the most recent events, in order.
        let tail: Vec<u64> = ring.snapshot().iter().map(|e| e.lock).collect();
        assert_eq!(tail, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_still_counts_and_hashes() {
        let t = TraceRecorder::with_capacity(true, Some(0));
        t.record(1, 0, 1);
        t.record(2, 1, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.retained(), 0);
        let reference = TraceRecorder::new(true);
        reference.record(1, 0, 1);
        reference.record(2, 1, 2);
        assert_eq!(t.hash(), reference.hash());
    }

    #[test]
    fn clear_resets_hash_to_empty() {
        let t = TraceRecorder::new(true);
        let empty_hash = t.hash();
        t.record(3, 2, 7);
        assert_ne!(t.hash(), empty_hash);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.hash(), empty_hash);
    }

    #[test]
    fn first_divergence_pinpoints_the_event() {
        let ev = |lock, tid| TraceEvent {
            lock,
            tid,
            clock: 0,
        };
        let a = vec![ev(1, 0), ev(2, 1), ev(3, 0)];
        let same = vec![ev(1, 0), ev(2, 1), ev(3, 0)];
        let differs = vec![ev(1, 0), ev(2, 2), ev(3, 0)];
        let shorter = vec![ev(1, 0), ev(2, 1)];
        assert_eq!(first_divergence(&a, &same), None);
        assert_eq!(first_divergence(&a, &differs), Some(1));
        assert_eq!(first_divergence(&a, &shorter), Some(2));
    }

    #[test]
    fn snapshot_and_clear() {
        let t = TraceRecorder::new(true);
        t.record(3, 2, 7);
        let s = t.snapshot();
        assert_eq!(
            s,
            vec![TraceEvent {
                lock: 3,
                tid: 2,
                clock: 7
            }]
        );
        t.clear();
        assert!(t.is_empty());
    }
}
