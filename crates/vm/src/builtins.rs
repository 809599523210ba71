//! Executable semantics for builtin functions.
//!
//! The values only need to be pure and deterministic — workloads use them
//! for data-dependent control flow and to model the instruction mix of the
//! SPLASH-2 kernels, not for numerical accuracy.

use detlock_ir::Builtin;

/// The value of a builtin that only computes, from its first argument `x`;
/// `None` for `memset` and `memcpy`, which write memory. Both engines
/// evaluate pure builtins through this one function.
#[inline]
pub fn pure(builtin: Builtin, x: i64) -> Option<i64> {
    Some(match builtin {
        Builtin::Sqrt => isqrt(x),
        Builtin::Sin => fixed_sin(x),
        Builtin::Cos => fixed_cos(x),
        Builtin::Exp => fixed_exp(x),
        Builtin::Log => ilog2(x),
        Builtin::Rand => xorshift64(x),
        Builtin::Memset | Builtin::Memcpy => return None,
    })
}

/// Integer square root (floor).
pub fn isqrt(x: i64) -> i64 {
    if x <= 0 {
        return 0;
    }
    let mut r = (x as f64).sqrt() as i64;
    // Correct the float estimate.
    while r > 0 && r * r > x {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    r
}

/// Fixed-point sine-like function: odd, bounded, period 1024.
pub fn fixed_sin(x: i64) -> i64 {
    let t = x.rem_euclid(1024);
    // Triangle wave in [-256, 256].
    if t < 256 {
        t
    } else if t < 768 {
        512 - t
    } else {
        t - 1024
    }
}

/// Fixed-point cosine-like function (phase-shifted sine).
pub fn fixed_cos(x: i64) -> i64 {
    fixed_sin(x.wrapping_add(256))
}

/// Bounded exponential-like growth: `min(2^(x/8), 2^32)` scaled.
pub fn fixed_exp(x: i64) -> i64 {
    let e = (x.clamp(0, 256) / 8) as u32;
    1i64 << e.min(32)
}

/// Integer log2 (floor); zero and negatives map to 0.
pub fn ilog2(x: i64) -> i64 {
    if x <= 0 {
        0
    } else {
        63 - x.leading_zeros() as i64
    }
}

/// One xorshift64 step — the `rand()` builtin. Maps 0 to a fixed nonzero
/// seed so chains never get stuck.
pub fn xorshift64(x: i64) -> i64 {
    let mut v = x as u64;
    if v == 0 {
        v = 0x9e3779b97f4a7c15;
    }
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    v as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_exact() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(17), 4);
        assert_eq!(isqrt(-5), 0);
        assert_eq!(isqrt(1 << 40), 1 << 20);
    }

    #[test]
    fn sin_cos_bounded_and_periodic() {
        for x in -3000..3000 {
            let s = fixed_sin(x);
            assert!((-256..=256).contains(&s), "sin({x}) = {s}");
            assert_eq!(fixed_sin(x), fixed_sin(x + 1024));
        }
        assert_eq!(fixed_cos(0), fixed_sin(256));
    }

    #[test]
    fn exp_monotone_bounded() {
        assert_eq!(fixed_exp(0), 1);
        assert!(fixed_exp(64) > fixed_exp(8));
        assert_eq!(fixed_exp(10_000), fixed_exp(256));
        assert_eq!(fixed_exp(-5), 1);
    }

    #[test]
    fn ilog2_values() {
        assert_eq!(ilog2(1), 0);
        assert_eq!(ilog2(2), 1);
        assert_eq!(ilog2(1023), 9);
        assert_eq!(ilog2(1024), 10);
        assert_eq!(ilog2(0), 0);
        assert_eq!(ilog2(-8), 0);
    }

    #[test]
    fn xorshift_deterministic_nonzero() {
        let a = xorshift64(12345);
        assert_eq!(a, xorshift64(12345));
        assert_ne!(a, 12345);
        assert_ne!(xorshift64(0), 0);
        // A short chain should not cycle immediately.
        let mut v = 1;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            v = xorshift64(v);
            assert!(seen.insert(v), "cycle too short");
        }
    }
}
