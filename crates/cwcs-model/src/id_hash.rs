//! A hash map for the integer ids ([`VmId`](crate::VmId),
//! [`NodeId`](crate::NodeId), [`VjobId`](crate::VjobId)) that key the
//! simulator's and the dependency graph's per-event tables.
//!
//! The standard library's SipHash resists collision attacks on untrusted
//! keys; ids are neither untrusted nor long, and a SipHash round costs more
//! than the probe it serves.  [`IdHasher`] multiplies the id by a 64-bit odd
//! constant and folds the high half onto the low one, so dense ids spread
//! over the bits a table indexes with and strided ids still differ there.
//! Iteration order is arbitrary: callers that need an order sort.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative hasher for integer ids (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let mixed = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = mixed ^ (mixed >> 32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmId;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn dense_and_strided_ids_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for stride in [1u32, 2, 64, 4096] {
            let buckets: std::collections::BTreeSet<u64> = (0..256u32)
                .map(|i| build.hash_one(VmId(i * stride)) & 255)
                .collect();
            assert!(buckets.len() > 128, "stride {stride}: {}", buckets.len());
        }
        let mut map: IdHashMap<VmId, u32> = IdHashMap::default();
        map.insert(VmId(7), 1);
        assert_eq!(map.get(&VmId(7)), Some(&1));
    }
}
