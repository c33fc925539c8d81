//! Hash tables keyed by simulator ids.
//!
//! Node ids and the overlay's 128-bit identifiers are made by
//! the program itself — a dense counter, or a seeded random word over a
//! counter and a namespace byte — so a table keyed by one needs no
//! protection against keys crafted to collide, and SipHash's ~20 ns per
//! probe is the whole cost of a lookup. [`IdMap`] is the standard table
//! over [`IdHasher`], one multiply and a rotate per key word.
//!
//! **The rule:** a map whose key is a simulator id (or a tag the program
//! numbers itself) is an `IdMap`; a map keyed by text that comes from
//! outside the program — content names, metric names — keeps the default
//! hasher. The hash has no per-process seed, so a table's iteration order
//! is a function of its insertion history; as with the default hasher,
//! nothing may let that order reach an output without sorting first.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with no short bit pattern (the one `rustc-hash` 2 uses).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`Hasher::finish`] rotates the state: the standard table takes
/// its bucket from the low bits of a hash and its 7-bit tag from the top,
/// and a product's best-mixed bits are its high ones. Rotating by 26 hands
/// the table product bits 38.. as the bucket and 31..=37 as the tag.
const FINISH_ROTATE: u32 = 26;

/// A multiply-rotate hasher for integer-shaped keys.
///
/// Each 64-bit word of the key is folded in as `state = (state.rotl(5) ^
/// word) * K`; narrower integers widen to one word, a `u128` is two. Byte
/// slices take the same path eight bytes at a time, so the derived `Hash`
/// of any type works, just not faster than it has to.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(FINISH_ROTATE)
    }

    /// Little-endian words of eight bytes, then the remainder — if any —
    /// zero-padded into one more word whose top byte is its length, so a
    /// trailing zero byte is not the same key as its absence. Writing a
    /// slice in pieces that end on word boundaries equals writing it whole.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// Builds [`IdHasher`]s; every table starts from the same state.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by a simulator id. Construct with `IdMap::default()`.
#[allow(
    clippy::disallowed_types,
    reason = "the sanctioned id-keyed table: the standard map over IdHasher"
)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(feed: impl FnOnce(&mut IdHasher)) -> u64 {
        let mut hasher = IdHasher::default();
        feed(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn byte_slices_agree_with_themselves_across_word_boundaries() {
        let bytes: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=bytes.len() {
            let whole = hash_of(|h| h.write(&bytes[..len]));
            // Split after any whole number of words: same key, same hash.
            for cut in (0..=len).step_by(8) {
                let pieces = hash_of(|h| {
                    h.write(&bytes[..cut]);
                    h.write(&bytes[cut..len]);
                });
                assert_eq!(pieces, whole, "len {len} cut {cut}");
            }
            // Every byte counts, the last of an odd-length tail included.
            for at in 0..len {
                let mut other = bytes[..len].to_vec();
                other[at] ^= 1;
                assert_ne!(hash_of(|h| h.write(&other)), whole, "len {len} byte {at}");
            }
            // So does the length: a trailing zero is not nothing.
            let mut longer = bytes[..len].to_vec();
            longer.push(0);
            assert_ne!(hash_of(|h| h.write(&longer)), whole, "len {len} + 0");
        }
    }

    #[test]
    fn integer_writes_are_the_word_path() {
        let x = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(
            hash_of(|h| h.write_u64(x)),
            hash_of(|h| h.write(&x.to_le_bytes()))
        );
        let wide = (u128::from(x) << 64) | 0x42;
        assert_eq!(
            hash_of(|h| h.write_u128(wide)),
            hash_of(|h| h.write(&wide.to_le_bytes()))
        );
        assert_eq!(hash_of(|h| h.write_u32(7)), hash_of(|h| h.write_u64(7)));
        assert_eq!(hash_of(|h| h.write_usize(7)), hash_of(|h| h.write_u64(7)));
        // A derived `Hash` over mixed fields reaches every one of them.
        #[derive(Hash)]
        struct Key(u8, u32, String);
        let a = hash_of(|h| Key(1, 2, "ab".into()).hash(h));
        assert_ne!(a, hash_of(|h| Key(2, 2, "ab".into()).hash(h)));
        assert_ne!(a, hash_of(|h| Key(1, 3, "ab".into()).hash(h)));
        assert_ne!(a, hash_of(|h| Key(1, 2, "ac".into()).hash(h)));
    }
}
