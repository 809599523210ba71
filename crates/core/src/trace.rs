//! Lock-acquisition trace recorder.
//!
//! Weak determinism is observable: the sequence of `(lock, thread, clock)`
//! acquisitions must be identical across runs. The recorder appends events
//! from inside the acquisition critical path — acquisitions are totally
//! ordered by the deterministic protocol and a thread's next clock advance
//! happens only after its record lands, so the append order *is* the
//! logical order.
//!
//! The events go into one [`AcquisitionLog`], the record the simulator
//! keeps too. Its FNV-1a hash covers every `(lock, tid, clock)` ever
//! recorded and is O(1) to read, so a long-running service hands out
//! *determinism receipts* without buffering the episode. Retention is the
//! first `capacity` events ([`TraceRecorder::with_capacity`]); `None`
//! keeps them all, the mode the real-thread determinism suites need to
//! name the first diverging acquisition.

use detlock_shim::acq::{Acquisition, AcquisitionLog};
use detlock_shim::sync::Mutex;

/// Append-only event recorder; a disabled one costs one branch per
/// acquisition.
pub struct TraceRecorder {
    enabled: bool,
    log: Mutex<AcquisitionLog>,
}

impl TraceRecorder {
    /// Create a recorder that retains the full event history.
    pub fn new(enabled: bool) -> TraceRecorder {
        TraceRecorder::with_capacity(enabled, None)
    }

    /// Create a recorder that retains the first `capacity` events (`None`
    /// = all of them). The hash and the event count always cover the
    /// complete history.
    pub fn with_capacity(enabled: bool, capacity: Option<usize>) -> TraceRecorder {
        TraceRecorder {
            enabled,
            log: Mutex::new(AcquisitionLog::new(capacity.unwrap_or(usize::MAX))),
        }
    }

    /// Record one acquisition (no-op when disabled).
    pub fn record(&self, lock: u64, tid: u32, clock: u64) {
        if self.enabled {
            self.log.lock().push(Acquisition { lock, tid, clock });
        }
    }

    /// Number of events recorded, retained or not.
    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the retained events (the full log when unbounded).
    pub fn snapshot(&self) -> Vec<Acquisition> {
        self.log.lock().kept().to_vec()
    }

    /// Order-sensitive FNV-1a hash of the complete `(lock, tid, clock)`
    /// history. O(1): maintained incrementally at record time.
    pub fn hash(&self) -> u64 {
        self.log.lock().hash()
    }

    /// Drop all recorded events and reset the hash to the empty-trace
    /// value.
    pub fn clear(&self) {
        self.log.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = TraceRecorder::new(false);
        t.record(1, 0, 5);
        assert!(t.is_empty());
        assert_eq!(t.hash(), TraceRecorder::new(true).hash());
    }

    #[test]
    fn hash_covers_the_clock() {
        let a = TraceRecorder::new(true);
        a.record(1, 0, 5);
        a.record(2, 1, 9);
        let b = TraceRecorder::new(true);
        b.record(1, 0, 5);
        b.record(2, 1, 10); // one extra clock bump: a different trace
        assert_ne!(a.hash(), b.hash());
        let c = TraceRecorder::new(true);
        c.record(2, 1, 9);
        c.record(1, 0, 5);
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn bounded_recorder_keeps_the_prefix_but_hashes_everything() {
        let full = TraceRecorder::new(true);
        let bounded = TraceRecorder::with_capacity(true, Some(3));
        for i in 0..10u64 {
            full.record(i, (i % 4) as u32, i);
            bounded.record(i, (i % 4) as u32, i);
        }
        // Hash and count cover the complete history in both modes.
        assert_eq!(bounded.hash(), full.hash());
        assert_eq!(bounded.len(), 10);
        assert_eq!(full.snapshot().len(), 10);
        // The retained events are the first ones, in order, so an index
        // into them is an index into the whole trace.
        let head: Vec<u64> = bounded.snapshot().iter().map(|e| e.lock).collect();
        assert_eq!(head, vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_recorder_still_counts_and_hashes() {
        let t = TraceRecorder::with_capacity(true, Some(0));
        t.record(1, 0, 1);
        t.record(2, 1, 2);
        assert_eq!(t.len(), 2);
        assert!(t.snapshot().is_empty());
        let reference = TraceRecorder::new(true);
        reference.record(1, 0, 1);
        reference.record(2, 1, 2);
        assert_eq!(t.hash(), reference.hash());
    }

    #[test]
    fn clear_resets_hash_to_empty() {
        let t = TraceRecorder::with_capacity(true, Some(1));
        let empty_hash = t.hash();
        t.record(3, 2, 7);
        assert_ne!(t.hash(), empty_hash);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.hash(), empty_hash);
        // The retention bound survives the reset.
        t.record(3, 2, 7);
        t.record(4, 2, 8);
        assert_eq!(t.snapshot().len(), 1);
    }

    #[test]
    fn snapshot_and_clear() {
        let t = TraceRecorder::new(true);
        t.record(3, 2, 7);
        let s = t.snapshot();
        assert_eq!(
            s,
            vec![Acquisition {
                lock: 3,
                tid: 2,
                clock: 7
            }]
        );
        t.clear();
        assert!(t.is_empty());
    }
}
