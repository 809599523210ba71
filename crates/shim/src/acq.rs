//! The lock-acquisition record both halves of the workspace keep.
//!
//! Weak determinism says one thing: the same input gives the same sequence
//! of acquisitions. The native runtime and the simulator both write that
//! sequence down as [`Acquisition`]s in an [`AcquisitionLog`], and both
//! compare two sequences with [`first_divergence`]. The clock is part of
//! the record and of its hash: it is a function of the input alone, so a
//! timing-dependent clock bump is a divergence like any other.

use crate::hash::Fnv64;
use std::fmt;

/// One lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquisition {
    /// The lock's id.
    pub lock: u64,
    /// The acquiring thread.
    pub tid: u32,
    /// The acquirer's logical clock just after the grant.
    pub clock: u64,
}

impl fmt::Display for Acquisition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Acquisition { lock, tid, clock } = self;
        write!(f, "lock {lock} acquired by tid {tid} at clock {clock}")
    }
}

/// An acquisition sequence: an FNV-1a hash and a count over every record
/// pushed, and the first `limit` records verbatim. The hash folds each
/// record as lock, tid, clock, little-endian (8 + 4 + 8 bytes), so it is
/// O(1) to read however long the sequence grows.
#[derive(Debug, Clone)]
pub struct AcquisitionLog {
    hash: Fnv64,
    len: usize,
    limit: usize,
    kept: Vec<Acquisition>,
}

impl AcquisitionLog {
    /// An empty log that keeps the first `limit` records.
    pub fn new(limit: usize) -> AcquisitionLog {
        AcquisitionLog {
            hash: Fnv64::new(),
            len: 0,
            limit,
            kept: Vec::new(),
        }
    }

    /// Append one record.
    #[inline]
    pub fn push(&mut self, a: Acquisition) {
        self.hash.write_u64(a.lock);
        self.hash.write(&a.tid.to_le_bytes());
        self.hash.write_u64(a.clock);
        self.len += 1;
        if self.kept.len() < self.limit {
            self.kept.push(a);
        }
    }

    /// The hash of every record pushed, in order.
    pub fn hash(&self) -> u64 {
        self.hash.finish()
    }

    /// Records pushed, kept or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first `limit` records.
    pub fn kept(&self) -> &[Acquisition] {
        &self.kept
    }

    /// The first `limit` records, by value.
    pub fn into_kept(self) -> Vec<Acquisition> {
        self.kept
    }
}

/// The index of the first record where `a` and `b` differ, clock included;
/// when one is a proper prefix of the other, the shorter one's length.
/// `None` when they are equal.
pub fn first_divergence(a: &[Acquisition], b: &[Acquisition]) -> Option<usize> {
    let common = a.len().min(b.len());
    (0..common)
        .find(|&i| a[i] != b[i])
        .or((a.len() != b.len()).then_some(common))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acq(lock: u64, tid: u32, clock: u64) -> Acquisition {
        Acquisition { lock, tid, clock }
    }

    #[test]
    fn push_folds_lock_tid_clock_and_keeps_the_prefix() {
        let mut log = AcquisitionLog::new(2);
        for i in 0..5u64 {
            log.push(acq(i, i as u32, 10 * i));
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.kept(), &[acq(0, 0, 0), acq(1, 1, 10)]);
        let mut bytes = Vec::new();
        for i in 0..5u64 {
            bytes.extend(i.to_le_bytes());
            bytes.extend((i as u32).to_le_bytes());
            bytes.extend((10 * i).to_le_bytes());
        }
        assert_eq!(log.hash(), Fnv64::of(&bytes));
        assert_eq!(AcquisitionLog::new(0).hash(), Fnv64::new().finish());
    }

    #[test]
    fn a_clock_only_difference_is_a_divergence() {
        let a = [acq(1, 0, 1), acq(2, 1, 1), acq(1, 0, 3), acq(2, 1, 4)];
        let mut b = a;
        b[2].clock += 1;
        assert_eq!(first_divergence(&a, &a), None);
        assert_eq!(first_divergence(&a, &b), Some(2));
        assert_eq!(first_divergence(&b, &a), Some(2));
    }

    #[test]
    fn a_proper_prefix_diverges_past_its_end() {
        let a = [acq(1, 0, 1), acq(2, 1, 1), acq(3, 0, 2)];
        assert_eq!(first_divergence(&a[..2], &a), Some(2));
        assert_eq!(first_divergence(&a, &a[..2]), Some(2));
        assert_eq!(first_divergence(&[], &a), Some(0));
        assert_eq!(first_divergence(&[], &[]), None);
    }

    #[test]
    fn display_names_lock_tid_and_clock() {
        assert_eq!(
            acq(7, 2, 41).to_string(),
            "lock 7 acquired by tid 2 at clock 41"
        );
    }
}
