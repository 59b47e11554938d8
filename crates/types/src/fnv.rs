//! FNV-1a 64-bit hashing, the workspace's one digest primitive.
//!
//! Every deterministic-equality check in the repo — `RunStats::digest`, the
//! tiered-cache decision digest, the replicated meta-index digest — folds
//! counters through FNV-1a: tiny, dependency-free, order-sensitive, and
//! plenty for an equality pin (it is *not* a collision-resistant hash).
//! Until PR 9 each site carried its own copy, and two of them had drifted
//! onto a typo'd prime (`0x1000_0000_01b3` instead of the canonical
//! `0x0000_0100_0000_01b3`); digests are only ever compared to other
//! digests produced by the same code, so the drift was invisible — exactly
//! the kind of silent fork this module exists to prevent. All sites now
//! share these constants, pinned against published FNV test vectors below.
//!
//! ```
//! use bat_types::fnv::Fnv64;
//!
//! let mut a = Fnv64::new();
//! a.write(b"hello");
//! a.write_u64(42);
//! let mut b = Fnv64::new();
//! b.write(b"hello");
//! b.write_u64(43);
//! assert_ne!(a.finish(), b.finish());
//! ```

/// The FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// The state is the running hash itself, so a digest can be stored inline
/// (the tiered cache keeps one per instance and folds every decision into
/// it as it happens) or built in one pass and `finish`ed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis (the hash of the empty input).
    #[inline]
    pub const fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Folds one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
    }

    /// Folds a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64` (so 32- and 64-bit hosts agree).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` as the little-endian bytes of its exact bit pattern
    /// (bitwise equality, not approximate: `-0.0` and `0.0` differ).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    /// Published FNV-1a 64-bit test vectors (Noll's reference list). A
    /// wrong prime or a missed xor/multiply swap (FNV-1 vs FNV-1a) fails
    /// these immediately — this is the pin that keeps every digest in the
    /// workspace on the one true function.
    #[test]
    fn matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"b"), 0xaf63_df4c_8601_f1a5);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b"chongo was here!\n"), 0x4681_0940_eff5_f915);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn typed_writers_match_manual_byte_folds() {
        let mut typed = Fnv64::new();
        typed.write_u64(0x0102_0304_0506_0708);
        typed.write_usize(9);
        typed.write_f64(1.5);
        let mut manual = Fnv64::new();
        manual.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        manual.write(&9u64.to_le_bytes());
        manual.write(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(typed.finish(), manual.finish());
    }
}
