//! The workspace's one FNV-1a: trace hashes, receipts, plan-cache keys,
//! checkpoint digests and ring placement all fold bytes with it. Committed
//! goldens pin its values, so it must never change: 64-bit, byte-wise,
//! offset basis `cbf29ce484222325`, prime `100000001b3`. Streaming — the
//! same bytes in any grouping give the same digest.

/// A running 64-bit FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh digest at the FNV offset basis.
    #[inline]
    pub const fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// The digest of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        let of = Fnv64::of;
        assert_eq!(of(b""), 0xcbf29ce484222325);
        assert_eq!(of(b"a"), 0xaf63dc4c8601ec8c);
        // Streaming: the grouping of the bytes does not matter.
        let mut split = Fnv64::new();
        split.write(b"foo");
        split.write(b"bar");
        assert_eq!(split.finish(), of(b"foobar"));
        let mut word = Fnv64::new();
        word.write_u64(0x0807060504030201);
        assert_eq!(word.finish(), of(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
