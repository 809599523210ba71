//! Order statistics used by every workload: percentiles over op latencies,
//! median-of-blocks throughput, and the quartile spread `--selfcheck` and
//! the README quote.

/// Percentile `p` in `[0, 100]` by the nearest-rank method: the smallest
/// sample with at least `p` percent of the samples at or below it. Exact
/// sample values only (no interpolation), so a percentile that sits on a
/// latency plateau reads the plateau, not a blend of two plateaus.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual midpoint rule for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Throughput of a phase of equal-work blocks: `ops_per_block` over the
/// median block wall time. One slow block (a neighbour's burst on the
/// 2-core container) moves the mean but not this.
pub fn ops_per_s(ops_per_block: usize, block_wall_s: &[f64]) -> f64 {
    ops_per_block as f64 / median(block_wall_s)
}

/// How many samples lie strictly beyond percentile `p` — the guide's rule
/// is that a reported percentile needs at least ten.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count - ((p / 100.0 * count as f64).ceil() as usize).clamp(1, count)
}

/// `|a - b| / min(|a|, |b|)`: the relative gap `--selfcheck` holds against
/// a metric's bound, symmetric in the two passes.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter, and ties are plain values.
        assert_eq!(percentile(&[3.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn percentile_reads_the_plateau_not_a_blend() {
        // 80 small ops at 4 ms, 20 medium at 19 ms: p50 is small, p90 medium.
        let mut v = vec![4.0; 80];
        v.extend(vec![19.0; 20]);
        assert_eq!(percentile(&v, 50.0), 4.0);
        assert_eq!(percentile(&v, 80.0), 4.0);
        assert_eq!(percentile(&v, 90.0), 19.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0]), 2.0);
    }

    #[test]
    fn median_of_blocks_ignores_one_slow_block() {
        let quiet = ops_per_s(100, &[2.0, 2.0, 2.0, 2.0, 2.0]);
        let one_burst = ops_per_s(100, &[2.0, 2.0, 9.0, 2.0, 2.0]);
        assert_eq!(quiet, 50.0);
        assert_eq!(one_burst, 50.0);
        // Two of five still leave the median on a quiet block.
        assert_eq!(ops_per_s(100, &[2.0, 8.0, 9.0, 2.0, 2.0]), 50.0);
        // The middle of an even count is the midpoint.
        assert_eq!(ops_per_s(90, &[1.0, 2.0]), 60.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(15, 50.0), 7);
    }

    #[test]
    fn relative_gap_is_symmetric() {
        assert!((relative_gap(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((relative_gap(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(0.0, 1.0), f64::INFINITY);
    }
}
