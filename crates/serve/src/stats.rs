//! Service counters and latency tracking for the `/stats` snapshot.
//!
//! Everything here is lock-free (plain atomics) so the hot path never
//! queues behind observability. Latencies go into a log-linear
//! microsecond histogram: every power of two is cut into 32 equal
//! buckets, so a percentile is within 1.6 % of the value at its rank
//! anywhere from one microsecond to centuries, recording is one shift
//! and one `fetch_add`, and memory is constant — the same O(1)-evidence
//! discipline the receipts follow.

use detlock_shim::json::{Json, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone service counters.
#[derive(Default)]
pub struct Counters {
    /// Requests admitted, however they were then answered: queued for
    /// execution, parked on a running duplicate, or from the receipt memo.
    /// At quiescence `accepted == completed + failed`.
    pub accepted: AtomicU64,
    /// Jobs rejected by admission backpressure.
    pub rejected: AtomicU64,
    /// Requests answered with a receipt (executed, attached or memoised).
    pub completed: AtomicU64,
    /// Requests that failed permanently (bad spec, retries exhausted),
    /// counting everyone parked on the execution that failed.
    pub failed: AtomicU64,
    /// Requests answered from the receipt memo without executing.
    pub memo_hits: AtomicU64,
    /// Requests parked on an in-flight execution of their identity.
    pub collapsed: AtomicU64,
    /// Executions the memo's audit schedule forced for an identity whose
    /// receipt was already on record.
    pub audits: AtomicU64,
    /// Times a job was put back on the queue (eviction or retry).
    pub requeues: AtomicU64,
    /// Shards evicted (by the supervisor or a `kill` request).
    pub evictions: AtomicU64,
    /// Completed jobs whose receipt differed from an earlier receipt for
    /// the same identity key. Should stay zero forever.
    pub receipt_mismatches: AtomicU64,
    /// Admissions refused because the queue was full (typed shed,
    /// retryable with `retry_after_ms`).
    pub shed_full: AtomicU64,
    /// Admissions refused because the server was draining (typed shed,
    /// not retryable).
    pub shed_draining: AtomicU64,
    /// Warm requeues: a migrated job carried a checkpoint, so the next
    /// shard resumed instead of rerunning from cycle 0.
    pub recoveries: AtomicU64,
    /// Cold requeues: the job had no checkpoint and reran from zero.
    pub cold_requeues: AtomicU64,
    /// Wire faults injected into data-plane responses by the active
    /// `NetFaultPlan`.
    pub net_faults_injected: AtomicU64,
    /// Shard crashes injected by the active `CrashPlan`.
    pub crashes_injected: AtomicU64,
    /// Jobs that finished during graceful drain after taking at least one
    /// checkpoint.
    pub drain_flushed: AtomicU64,
}

impl Counters {
    /// Increment a counter.
    pub fn bump(counter: &AtomicU64) {
        Counters::add(counter, 1);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("accepted", Counters::get(&self.accepted).to_json()),
            ("rejected", Counters::get(&self.rejected).to_json()),
            ("completed", Counters::get(&self.completed).to_json()),
            ("failed", Counters::get(&self.failed).to_json()),
            ("memo_hits", Counters::get(&self.memo_hits).to_json()),
            ("collapsed", Counters::get(&self.collapsed).to_json()),
            ("audits", Counters::get(&self.audits).to_json()),
            ("requeues", Counters::get(&self.requeues).to_json()),
            ("evictions", Counters::get(&self.evictions).to_json()),
            (
                "receipt_mismatches",
                Counters::get(&self.receipt_mismatches).to_json(),
            ),
            ("shed_full", Counters::get(&self.shed_full).to_json()),
            (
                "shed_draining",
                Counters::get(&self.shed_draining).to_json(),
            ),
            ("recoveries", Counters::get(&self.recoveries).to_json()),
            (
                "cold_requeues",
                Counters::get(&self.cold_requeues).to_json(),
            ),
            (
                "net_faults_injected",
                Counters::get(&self.net_faults_injected).to_json(),
            ),
            (
                "crashes_injected",
                Counters::get(&self.crashes_injected).to_json(),
            ),
            (
                "drain_flushed",
                Counters::get(&self.drain_flushed).to_json(),
            ),
        ])
    }
}

/// Sub-buckets per power of two, as a shift.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` get a bucket each; every power of two above
/// that, up to 2^63, is cut into `SUB` buckets.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// The bucket holding `us`.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    // The top SUB_BITS + 1 bits of `us`: the leading one names the power
    // of two, the rest the sub-bucket within it.
    let shift = 63 - us.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB + ((us >> shift) as usize & (SUB - 1))
}

/// The smallest and largest value bucket `b` holds.
fn bucket_bounds(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, b as u64);
    }
    let shift = (b / SUB - 1) as u32;
    let lo = ((SUB + b % SUB) as u64) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

/// Fixed-size log-linear histogram of microsecond latencies.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency observation.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// The `p`-th percentile (0.0..=1.0) in microseconds, as the midpoint
    /// of the bucket holding that rank: within 1/64 of the recorded value
    /// (exact below 64 µs).
    pub fn percentile_us(&self, p: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&p), "a fraction, not a percentage");
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, hi) = bucket_bounds(b);
                return lo + (hi - lo) / 2;
            }
        }
        // A reader racing a writer can see `count` ahead of the bucket.
        bucket_bounds(BUCKETS - 1).1
    }
}

impl ToJson for LatencyHistogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count().to_json()),
            ("mean_us", self.mean_us().to_json()),
            ("p50_us", self.percentile_us(0.50).to_json()),
            ("p90_us", self.percentile_us(0.90).to_json()),
            ("p99_us", self.percentile_us(0.99).to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_bump_and_snapshot() {
        let c = Counters::default();
        Counters::bump(&c.accepted);
        Counters::bump(&c.accepted);
        Counters::bump(&c.rejected);
        assert_eq!(Counters::get(&c.accepted), 2);
        let snap = c.to_json().to_string_compact();
        assert!(snap.contains("\"accepted\":2"));
        assert!(snap.contains("\"receipt_mismatches\":0"));
        assert!(snap.contains("\"memo_hits\":0"));
    }

    #[test]
    fn buckets_tile_the_whole_range_in_order() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
        for b in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(lo, bucket_bounds(b - 1).1 + 1, "gap below bucket {b}");
            assert_eq!((bucket_of(lo), bucket_of(hi)), (b, b));
            assert!((hi - lo) as f64 <= lo as f64 / SUB as f64, "bucket {b}");
        }
    }

    /// The error bound, on distributions whose percentiles are known
    /// exactly: the log2 histogram this replaced answered the top edge of
    /// a power-of-two bucket and was up to 2× off on every one of these.
    #[test]
    fn percentiles_are_within_three_percent_of_the_data() {
        let uniform: Vec<u64> = (1..=100_000).collect();
        // Two plateaus two orders of magnitude apart, like a job mix.
        let bimodal: Vec<u64> = (0..10_000)
            .map(|i| {
                if i % 5 == 4 {
                    13_000 + i
                } else {
                    2_700 + i / 10
                }
            })
            .collect();
        // Seconds: where "p50 = p99 = 1 048 575 us" used to come from.
        let slow: Vec<u64> = (0..5_000).map(|i| 600_000 + 97 * i).collect();
        for (name, mut data) in [("uniform", uniform), ("bimodal", bimodal), ("slow", slow)] {
            let h = LatencyHistogram::default();
            for &us in &data {
                h.record_us(us);
            }
            data.sort_unstable();
            for p in [0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
                let rank = ((p * data.len() as f64).ceil() as usize).clamp(1, data.len());
                let truth = data[rank - 1] as f64;
                let got = h.percentile_us(p) as f64;
                assert!(
                    (got - truth).abs() <= 0.03 * truth,
                    "{name} p{p}: histogram says {got}, the data says {truth}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 3, 40, 40, 40, 40, 40, 63, 5000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.percentile_us(0.10), 1);
        assert_eq!(h.percentile_us(0.50), 40);
        assert_eq!(h.percentile_us(0.90), 63);
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = LatencyHistogram::default();
        h.record_us(0);
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile_us(0.5), 0);
        assert!(h.percentile_us(1.0) >= u64::MAX - (u64::MAX >> 6));
    }
}
