//! The longest-prefix-match index shared by the server's [`StateStore`]
//! and the switch simulator's LPM match tables.
//!
//! An LPM table is served as one exact-match map per prefix length — the
//! way an RMT pipeline lays `lpm` out as per-length exact stages — plus a
//! bitmask of the lengths that hold entries. A lookup probes the present
//! lengths longest first and stops at the first hit, so it costs at most
//! one hash probe per distinct length, independent of the number of routes.
//! Installs and removals are single map operations.
//!
//! Each map is keyed by the prefix **shifted right** by the bits it leaves
//! unmatched (`key_width - len`), not by the prefix masked in place.
//! [`FxHasher64`](crate::fasthash::FxHasher64) has no finaliser and the map
//! picks buckets from the low hash bits, so masked prefixes — whose low
//! 8–24 bits are all zero for IPv4 routes — would crowd into a few buckets.
//!
//! Prefixes are canonicalised on the way in: bits outside the key width and
//! bits below the prefix length never take part in a match, so they are
//! dropped, and two spellings of one effective prefix name one entry.
//!
//! [`StateStore`]: crate::StateStore

use crate::fasthash::FastBuildHasher;
use std::collections::HashMap;

/// Widest key an index serves: keys are one 64-bit word. Wider declared
/// widths are served as this width.
const MAX_KEY_WIDTH: u8 = 64;

/// An install named a prefix longer than the table's key width; such a
/// prefix could never match consistently, so it is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixTooLong {
    /// Requested prefix length in bits.
    pub len: u8,
    /// The table's key width in bits.
    pub key_width: u8,
}

/// Longest-prefix-match index from `key_width`-bit keys to values (see the
/// module docs for the layout).
///
/// Matching semantics: the longest installed prefix whose `len` leading
/// bits equal the key's wins; `/0` matches every key; a full-width prefix is
/// an exact match; a key with bits set above `key_width` matches no prefix
/// but `/0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LpmIndex<V> {
    key_width: u8,
    /// Bit `l` is set iff `by_len[l]` holds at least one entry.
    present: u128,
    /// One map per prefix length `0..=key_width`, keyed by the prefix
    /// shifted right by `key_width - len`.
    by_len: Vec<HashMap<u64, V, FastBuildHasher>>,
    /// Total entries across all lengths.
    len: usize,
}

impl<V> LpmIndex<V> {
    /// Empty index over `key_width`-bit keys (at most 64).
    pub fn new(key_width: u8) -> Self {
        let key_width = key_width.min(MAX_KEY_WIDTH);
        LpmIndex {
            key_width,
            present: 0,
            by_len: (0..=key_width).map(|_| HashMap::default()).collect(),
            len: 0,
        }
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefix is installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mask of the bits inside the key width.
    #[inline]
    fn width_mask(&self) -> u64 {
        u64::MAX
            .checked_shr(u32::from(MAX_KEY_WIDTH - self.key_width))
            .unwrap_or(0)
    }

    /// The map key of `bits` under prefix length `len <= key_width`: its
    /// `len` leading bits within the key width, shifted down to the bottom.
    #[inline]
    fn shifted(&self, bits: u64, len: u8) -> u64 {
        if len == 0 {
            0
        } else {
            (bits & self.width_mask()) >> (self.key_width - len)
        }
    }

    /// Inverse of [`Self::shifted`]: the canonical prefix of a map key.
    #[inline]
    fn unshifted(&self, shifted: u64, len: u8) -> u64 {
        if len == 0 {
            0
        } else {
            shifted << (self.key_width - len)
        }
    }

    fn check(&self, len: u8) -> Result<(), PrefixTooLong> {
        if len > self.key_width {
            return Err(PrefixTooLong {
                len,
                key_width: self.key_width,
            });
        }
        Ok(())
    }

    /// The canonical spelling of `prefix/len`: its `len` leading bits
    /// within the key width, every other bit zero.
    pub fn canonical(&self, prefix: u64, len: u8) -> Result<u64, PrefixTooLong> {
        self.check(len)?;
        Ok(self.unshifted(self.shifted(prefix, len), len))
    }

    /// Install `prefix/len → value`, replacing (and returning) the value of
    /// the same canonical prefix. Refuses `len > key_width` without
    /// touching the index.
    pub fn insert(&mut self, prefix: u64, len: u8, value: V) -> Result<Option<V>, PrefixTooLong> {
        self.check(len)?;
        let key = self.shifted(prefix, len);
        let old = self.by_len[usize::from(len)].insert(key, value);
        if old.is_none() {
            self.len += 1;
            self.present |= 1 << len;
        }
        Ok(old)
    }

    /// Remove `prefix/len` (any spelling), returning its value.
    pub fn remove(&mut self, prefix: u64, len: u8) -> Option<V> {
        self.check(len).ok()?;
        let key = self.shifted(prefix, len);
        let map = &mut self.by_len[usize::from(len)];
        let old = map.remove(&key)?;
        self.len -= 1;
        if map.is_empty() {
            self.present &= !(1 << len);
        }
        Some(old)
    }

    /// The value installed for exactly `prefix/len` (any spelling).
    pub fn get_exact(&self, prefix: u64, len: u8) -> Option<&V> {
        self.check(len).ok()?;
        self.by_len[usize::from(len)].get(&self.shifted(prefix, len))
    }

    /// Longest-prefix match for `key`: one hash probe per present length,
    /// longest first. Allocation-free.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let mut lens = if key & !self.width_mask() == 0 {
            self.present
        } else {
            // Bits above the width: only `/0` can match.
            self.present & 1
        };
        while lens != 0 {
            let len = (127 - lens.leading_zeros()) as u8;
            lens &= !(1 << len);
            // A probe past `/0` only runs for keys within the width, so
            // shifting needs no mask.
            let shifted = if len == 0 {
                0
            } else {
                key >> (self.key_width - len)
            };
            if let Some(v) = self.by_len[usize::from(len)].get(&shifted) {
                return Some(v);
            }
        }
        None
    }

    /// Every entry as `(canonical prefix, len, value)`, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8, &V)> + '_ {
        self.by_len.iter().enumerate().flat_map(move |(len, map)| {
            let len = len as u8;
            map.iter()
                .map(move |(&shifted, v)| (self.unshifted(shifted, len), len, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins_and_full_width_is_exact() {
        let mut t = LpmIndex::new(32);
        t.insert(0x0a00_0000, 8, 8).unwrap();
        t.insert(0x0a0b_0000, 16, 16).unwrap();
        t.insert(0x0a0b_0c0d, 32, 32).unwrap();
        assert_eq!(t.get(0x0a0b_0c0d), Some(&32));
        assert_eq!(t.get(0x0a0b_ffff), Some(&16));
        assert_eq!(t.get(0x0aff_ffff), Some(&8));
        assert_eq!(t.get(0x0bff_ffff), None);
        t.insert(0, 0, 0).unwrap();
        assert_eq!(t.get(0x0bff_ffff), Some(&0));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn spellings_canonicalise_to_one_entry() {
        let mut t = LpmIndex::new(8);
        assert_eq!(t.insert(0xFF, 4, 1), Ok(None));
        // 0xF0/4, and 0x1F3/4 with a bit above the width, are the same
        // prefix: they replace rather than coexist.
        assert_eq!(t.insert(0xF0, 4, 2), Ok(Some(1)));
        assert_eq!(t.insert(0x1F3, 4, 3), Ok(Some(2)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.canonical(0x1F3, 4), Ok(0xF0));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0xF0, 4, &3)]);
        assert_eq!(t.get_exact(0xF7, 4), Some(&3));
        assert_eq!(t.remove(0xFA, 4), Some(3));
        assert!(t.is_empty());
        assert_eq!(t.get(0xF3), None);
    }

    #[test]
    fn key_bits_above_the_width_match_only_the_default_route() {
        let mut t = LpmIndex::new(8);
        t.insert(0x80, 1, 1).unwrap();
        t.insert(0xFF, 8, 8).unwrap();
        assert_eq!(t.get(0x1FF), None);
        t.insert(0, 0, 0).unwrap();
        assert_eq!(t.get(0x1FF), Some(&0));
        assert_eq!(t.get(0xFF), Some(&8));
    }

    #[test]
    fn over_long_prefix_refused_without_mutation() {
        let mut t = LpmIndex::new(24);
        assert_eq!(
            t.insert(0, 25, ()),
            Err(PrefixTooLong {
                len: 25,
                key_width: 24
            })
        );
        assert!(t.is_empty());
        assert_eq!(t.get_exact(0, 25), None);
        assert_eq!(t.remove(0, 25), None);
    }

    #[test]
    fn full_64_bit_width() {
        let mut t = LpmIndex::new(64);
        t.insert(u64::MAX, 64, 64).unwrap();
        t.insert(1 << 63, 1, 1).unwrap();
        t.insert(0, 0, 0).unwrap();
        assert_eq!(t.get(u64::MAX), Some(&64));
        assert_eq!(t.get(u64::MAX - 1), Some(&1));
        assert_eq!(t.get(1), Some(&0));
        // Widths past one word are served as 64 bits.
        assert_eq!(
            LpmIndex::new(128).insert(0, 65, ()),
            Err(PrefixTooLong {
                len: 65,
                key_width: 64
            })
        );
    }

    #[test]
    fn removing_the_last_entry_of_a_length_clears_its_bit() {
        let mut t = LpmIndex::new(32);
        t.insert(0x0a00_0000, 8, 'a').unwrap();
        t.insert(0x0a0b_0000, 16, 'b').unwrap();
        assert_eq!(t.remove(0x0a0b_0000, 16), Some('b'));
        assert_eq!(t.present, 1 << 8);
        assert_eq!(t.get(0x0a0b_0000), Some(&'a'));
    }
}
