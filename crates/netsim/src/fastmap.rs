//! A minimal open-addressing hash map for `u64` keys on the simulator
//! hot path.
//!
//! `std::collections::HashMap` pays SipHash plus a DoS-resistant random
//! state on every probe; the simulator's keyed lookup (the delivery
//! ledger's outstanding-copies count per packet) uses small integer keys
//! on trusted data, so a Fibonacci-multiplicative hash with linear
//! probing and backward-shift deletion is both faster and — unlike
//! `HashMap` — fully deterministic in memory layout. The map is
//! keyed-access only (no iteration), which is exactly the access pattern
//! the hot path needs: deterministic simulation must never depend on
//! hash iteration order.

/// An open-addressing `u64 -> V` map with linear probing.
#[derive(Debug, Clone)]
pub struct FastMap<V> {
    /// Power-of-two slot array; `None` is an empty slot (no tombstones —
    /// removal backward-shifts the probe chain).
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

/// Fibonacci hashing multiplier (2^64 / phi), spreads sequential keys.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl<V> Default for FastMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FastMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        FastMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // slots.len() is a power of two; multiply-shift keeps the high
        // bits, which is where the Fibonacci multiplier mixes entropy.
        let shift = 64 - self.slots.len().trailing_zeros();
        (key.wrapping_mul(FIB) >> shift) as usize
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(k, v);
        }
    }

    /// Inserts `key -> value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        // Grow at 50% load so probe chains stay short.
        if self.slots.is_empty() || (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & mask,
                empty @ None => {
                    *empty = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, v)) if *k == key => return Some(v),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// Looks up a key for mutation.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => break,
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => break,
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
        let (_, value) = self.slots[i].take().expect("found above");
        self.len -= 1;
        // Backward-shift deletion: close the probe chain so later lookups
        // never cross a hole they should not.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            let home = self.home(*k);
            // Move the entry into the hole iff the hole lies between its
            // home slot and its current slot (cyclically).
            if ((j.wrapping_sub(home)) & mask) >= ((j.wrapping_sub(hole)) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "a"), None);
        assert_eq!(m.insert(7, "b"), Some("a"));
        assert_eq!(m.get(7), Some(&"b"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(7), Some("b"));
        assert_eq!(m.remove(7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m = FastMap::new();
        m.insert(3, 10u64);
        *m.get_mut(3).unwrap() += 5;
        assert_eq!(m.get(3), Some(&15));
        assert_eq!(m.get_mut(99), None);
    }

    #[test]
    fn sequential_keys_survive_growth() {
        // Sequential packet ids are the dominant workload.
        let mut m = FastMap::new();
        for k in 0..10_000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some(&(k * 3)));
        }
        for k in (0..10_000u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k * 3));
        }
        for k in 0..10_000u64 {
            let expect = (k % 2 == 1).then_some(k * 3);
            assert_eq!(m.get(k).copied(), expect);
        }
    }

    #[test]
    fn randomized_against_std_hashmap() {
        // Drive both maps with the same operation stream and require
        // identical observable behavior, including backward-shift
        // deletion correctness under heavy churn.
        let mut rng = SimRng::seed_from_u64(0xFA57_AAAA);
        let mut fast: FastMap<u64> = FastMap::new();
        let mut refr: HashMap<u64, u64> = HashMap::new();
        for step in 0..50_000u64 {
            // Small key space forces collisions and probe chains.
            let key = rng.next_u64() % 512;
            match rng.next_u64() % 3 {
                0 => assert_eq!(fast.insert(key, step), refr.insert(key, step)),
                1 => assert_eq!(fast.remove(key), refr.remove(&key)),
                _ => assert_eq!(fast.get(key), refr.get(&key)),
            }
            assert_eq!(fast.len(), refr.len());
        }
        for key in 0..512u64 {
            assert_eq!(fast.get(key), refr.get(&key));
        }
    }
}
