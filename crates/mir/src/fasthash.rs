//! Deterministic, non-cryptographic hashing for the dataplane hash maps.
//!
//! `std::collections::HashMap`'s default SipHash costs more per probe than
//! the rest of a warm table lookup combined — defensible for maps keyed by
//! untrusted input, wasted on a simulator hashing a handful of match-key
//! words per packet. [`FxHasher64`] is the word-at-a-time multiply-xor
//! scheme popularized by rustc: one rotate, one xor, one multiply per
//! 64-bit word. It is also *seedless*, so bucket order (and therefore any
//! iteration-order-dependent observable) is identical across runs —
//! determinism the differential harnesses rely on.
//!
//! **No finaliser — mind the low bits.** `finish` returns the running
//! state as is, so for a one-word key the hash is `key × SEED`, and the
//! low `b` bits of that product depend only on the low `b` bits of the
//! key. `std`'s hash map picks a bucket from exactly those low bits. Keys
//! that share their low bits therefore share a bucket: masked IPv4
//! prefixes (8–24 trailing zero bits) pile into a handful of buckets and
//! every probe walks a long chain. Key such maps by a value whose low bits
//! vary — [`crate::lpm::LpmIndex`] stores each prefix shifted right by
//! the bits it leaves unmatched, not masked in place.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for the dataplane maps (the switch simulator's match
/// tables and route table, the per-length maps of
/// [`crate::lpm::LpmIndex`]).
pub type FastBuildHasher = BuildHasherDefault<FxHasher64>;

/// Multiplier from the golden-ratio family; odd, high bit entropy.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-xor hasher (see module docs). Not DoS-hardened
/// — only for maps whose keys the simulator itself constructs.
#[derive(Debug, Clone, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    // `#[inline]` keeps this hot path (slice keys hash through it)
    // inlinable into the switch simulator's tables across the crate
    // boundary.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_builders() {
        let b = FastBuildHasher::default();
        let h1 = b.hash_one([1u64, 2, 3].as_slice());
        let h2 = FastBuildHasher::default().hash_one([1u64, 2, 3].as_slice());
        assert_eq!(h1, h2);
        assert_ne!(h1, b.hash_one([1u64, 2, 4].as_slice()));
    }

    #[test]
    fn byte_stream_matches_word_stream_for_aligned_input() {
        // `write` folds little-endian 8-byte chunks exactly like
        // `write_u64`, so hashing equal content through either entry point
        // agrees.
        let mut a = FxHasher64::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher64::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distributes_small_keys() {
        // Sanity: sequential small keys should not collide.
        let b = FastBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            seen.insert(b.hash_one([i].as_slice()));
        }
        assert_eq!(seen.len(), 1000);
    }
}
