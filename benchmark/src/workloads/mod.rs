//! The four workloads. Each stresses one part of the stack and bypasses the
//! rest; the README's table says which layer number should move which
//! end-to-end number on which of them.

pub mod compile;
pub mod serve;
pub mod vm;

use crate::harness::Phase;
use detlock_shim::rng::SmallRng;

/// Seed of block `block` of `phase`: every block of a run gets its own
/// order, all derived from the one `--seed`.
pub fn block_seed(seed: u64, phase: Phase, block: usize) -> u64 {
    let phase = match phase {
        Phase::Primary => 1u64,
        Phase::Alt => 2,
    };
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (phase << 32) ^ block as u64
}

/// Fisher–Yates with the workspace's seeded PRNG: the one place a seed turns
/// a fixed multiset of work into an order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_usize(0..i + 1));
    }
}

/// `0..n` reduced modulo `kinds` (so every kind appears equally often when
/// `kinds` divides `n`), in the order `seed` picks: fixed work, seeded order.
pub fn shuffled_kinds(n: usize, kinds: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).map(|i| i % kinds).collect();
    shuffle(&mut order, seed);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_kinds_keeps_the_multiset_and_follows_the_seed() {
        let a = shuffled_kinds(24, 12, 5);
        assert_eq!(a, shuffled_kinds(24, 12, 5));
        assert_ne!(a, shuffled_kinds(24, 12, 6));
        for k in 0..12 {
            assert_eq!(a.iter().filter(|&&x| x == k).count(), 2);
        }
    }

    #[test]
    fn block_seeds_differ_by_phase_and_block() {
        let s = block_seed(1, Phase::Primary, 1);
        assert_ne!(s, block_seed(1, Phase::Alt, 1));
        assert_ne!(s, block_seed(1, Phase::Primary, 2));
        assert_ne!(s, block_seed(2, Phase::Primary, 1));
    }
}
