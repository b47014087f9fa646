//! A fast, non-cryptographic hasher for integer-keyed maps.
//!
//! The default `std` hasher (SipHash 1-3) is DoS-resistant but slow for the
//! 4-byte keys that dominate this workspace (interned items, tuple ids).
//! This is the well-known `FxHasher` multiply-rotate scheme used by rustc,
//! reimplemented here (~40 lines) to keep the dependency set to the approved
//! offline list. Inputs are never attacker-controlled: they are internal
//! dense ids.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher; specialised for small integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add_to_hash(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if !bytes.is_empty() {
            let mut buf = [0u8; 8];
            buf[..bytes.len()].copy_from_slice(bytes);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips_values() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn hasher_is_deterministic() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_stream_and_tail_handling() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());

        let mut c = FxHasher::default();
        c.write(&[9, 8, 7]);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn distinct_small_keys_spread() {
        // Sanity: no catastrophic collisions on a dense range.
        let mut seen = FxHashSet::default();
        for n in 0u32..10_000 {
            let mut h = FxHasher::default();
            h.write_u32(n);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }
}
