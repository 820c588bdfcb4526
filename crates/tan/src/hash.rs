//! Fast non-cryptographic hashing of transaction ids and other integers.
//!
//! SipHash-1-3, the default `HashMap` hasher, is keyed and DoS-resistant
//! but costs ~1–2 ns per lookup even for a single `u64` — pure overhead
//! on the placement hot path, where every inserted transaction performs
//! one insert plus one lookup per input. Transaction ids in this
//! reproduction are dense sequence numbers controlled by the ledger, not
//! attacker-chosen strings, so a statistically strong integer mixer is
//! the right trade-off.
//!
//! [`splitmix64`] (public-domain finalizer from Vigna's SplitMix64) is
//! the one mixer: the graph's [`TxIndex`](crate::TxIndex) takes an id's
//! tag and home slot from it, and `optchain-core`'s hash placer and
//! deterministic seed derivation use it too. [`TxIdBuildHasher`] plugs
//! it into the std maps keyed by integers, such as the graph's hub
//! chunk directory.

use std::hash::{BuildHasher, Hasher};

/// SplitMix64 — a tiny, high-quality integer mixer (public domain).
///
/// Every output bit depends on every input bit; the mapping is a
/// bijection on `u64`.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `BuildHasher` producing [`FxTxHasher`]s; plug into
/// `HashMap::with_hasher` for integer-keyed maps on hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxIdBuildHasher;

impl BuildHasher for TxIdBuildHasher {
    type Hasher = FxTxHasher;

    #[inline]
    fn build_hasher(&self) -> FxTxHasher {
        FxTxHasher(0)
    }
}

/// One-shot integer hasher: a single [`splitmix64`] round per written
/// word. Byte-slice writes fold bytes into the state first (only hit for
/// non-integer keys, which the TaN index never uses).
#[derive(Debug, Clone, Default)]
pub struct FxTxHasher(u64);

impl Hasher for FxTxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = splitmix64(self.0 ^ v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = splitmix64(self.0 ^ v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn splitmix_is_bijective_on_samples() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn hashmap_roundtrip_with_fx_hasher() {
        let mut map: HashMap<u64, u64, TxIdBuildHasher> = HashMap::with_hasher(TxIdBuildHasher);
        for i in 0..1_000u64 {
            map.insert(i, i * 2);
        }
        for i in 0..1_000u64 {
            assert_eq!(map.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn low_bit_avalanche() {
        // Consecutive inputs must not produce clustered low bits (the
        // HashMap masks the hash to index buckets).
        let mut buckets = [0u32; 64];
        for i in 0..6_400u64 {
            buckets[(splitmix64(i) & 63) as usize] += 1;
        }
        for (i, b) in buckets.iter().enumerate() {
            assert!((50..=150).contains(b), "bucket {i} has {b}");
        }
    }
}
