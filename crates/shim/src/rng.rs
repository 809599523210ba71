//! A small seeded PRNG (stand-in for `rand::rngs::SmallRng`).
//!
//! xoshiro256** seeded through splitmix64, the same construction `rand`'s
//! `SmallRng` used on 64-bit targets. Statistical quality is irrelevant
//! here — the simulator needs *reproducible* jitter streams and the tests
//! need cheap case generation — but keeping the familiar construction keeps
//! the jitter behaviour close to what the seed-tuned experiment constants
//! were calibrated against.

/// Seeded pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

/// splitmix64's output function.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    finalize(*state)
}

/// A seeded but stateless draw: splitmix64 over the coordinates `(a, b)`.
/// The same `(seed, a, b)` always maps to the same value, so a fault
/// schedule keyed on e.g. `(tid, event)` or `(conn, response)` needs no
/// generator state. Committed schedules pin its values.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    finalize(
        seed.wrapping_add(a.wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_add(b.wrapping_mul(0xbf58476d1ce4e5b9))
            .wrapping_add(0x94d049bb133111eb),
    )
}

impl SmallRng {
    /// Create from a 64-bit seed (API-compatible with
    /// `SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The raw generator state, for fingerprinting snapshots of the
    /// stream position (checkpoint digests). Two `SmallRng`s with equal
    /// state produce identical future streams.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `range` (half-open). Panics on an empty range.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.end > range.start, "gen_range on empty range");
        let span = range.end - range.start;
        // Multiply-shift rejection-free mapping: negligible bias for the
        // small spans used here (jitter windows, test-case shapes).
        range.start + (((self.next_u64() as u128) * (span as u128)) >> 64) as u64
    }

    /// Uniform `usize` in `range` (half-open).
    #[inline]
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_known_answers() {
        assert_eq!(mix(0, 0, 0), 0x2848d6a4a7b28bc1);
        assert_eq!(mix(0xC4EC, 3, 5), 0x2e57a42fa7ae88d4);
        assert_eq!(mix(7, 1, 2), 0x03eb69234afc2d54);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(3..17);
            assert!((3..17).contains(&v));
        }
        // All values of a small span are reachable.
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.gen_range(0..5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SmallRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
