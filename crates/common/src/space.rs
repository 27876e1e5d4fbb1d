//! Space accounting.
//!
//! Every data structure in this workspace implements [`SpaceUsage`] so that
//! the experiment harness can *measure* the space the paper's theorems bound.
//! The convention is to report the number of heap + inline bytes reachable
//! from the value, i.e. `size_of::<Self>()` plus owned heap allocations.
//! Capacity (not just length) is charged for growable containers, because an
//! algorithm that over-allocates genuinely uses that memory.

use std::collections::{BTreeMap, HashMap, HashSet};

/// Types that can report how many bytes of memory they occupy.
pub trait SpaceUsage {
    /// Total bytes occupied: the inline size of `self` plus all owned heap
    /// allocations (charged at capacity, not length).
    fn space_bytes(&self) -> usize;

    /// Space in 64-bit words, rounded up. The paper counts words of
    /// `O(log n)` bits; on our 64-bit substrate a word is 8 bytes.
    fn space_words(&self) -> usize {
        self.space_bytes().div_ceil(8)
    }
}

macro_rules! impl_space_primitive {
    ($($t:ty),* $(,)?) => {
        $(impl SpaceUsage for $t {
            fn space_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

impl_space_primitive!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char
);

impl<T: SpaceUsage> SpaceUsage for Option<T> {
    fn space_bytes(&self) -> usize {
        match self {
            // Charge the niche-optimised inline size either way, plus the
            // payload's heap if present.
            Some(v) => std::mem::size_of::<Self>() - std::mem::size_of::<T>() + v.space_bytes(),
            None => std::mem::size_of::<Self>(),
        }
    }
}

impl<T: SpaceUsage> SpaceUsage for Vec<T> {
    fn space_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Self>();
        let slots = self.capacity() * std::mem::size_of::<T>();
        let heap_of_elems: usize = self
            .iter()
            .map(|e| e.space_bytes() - std::mem::size_of::<T>())
            .sum();
        inline + slots + heap_of_elems
    }
}

impl<T: SpaceUsage> SpaceUsage for Box<[T]> {
    fn space_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Self>();
        let slots = self.len() * std::mem::size_of::<T>();
        let heap_of_elems: usize = self
            .iter()
            .map(|e| e.space_bytes() - std::mem::size_of::<T>())
            .sum();
        inline + slots + heap_of_elems
    }
}

impl<T: SpaceUsage, const N: usize> SpaceUsage for [T; N] {
    fn space_bytes(&self) -> usize {
        self.iter().map(SpaceUsage::space_bytes).sum()
    }
}

impl<A: SpaceUsage, B: SpaceUsage> SpaceUsage for (A, B) {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes() + self.1.space_bytes()
    }
}

impl<A: SpaceUsage, B: SpaceUsage, C: SpaceUsage> SpaceUsage for (A, B, C) {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes() + self.1.space_bytes() + self.2.space_bytes()
    }
}

/// Approximate per-entry overhead of `std::collections::HashMap`
/// (SwissTable control byte + load-factor slack, amortised).
pub const HASH_ENTRY_OVERHEAD: usize = 2;

impl<K: SpaceUsage, V: SpaceUsage, S> SpaceUsage for HashMap<K, V, S> {
    fn space_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Self>();
        let per_slot = std::mem::size_of::<(K, V)>() + HASH_ENTRY_OVERHEAD;
        let table = self.capacity() * per_slot;
        let heap: usize = self
            .iter()
            .map(|(k, v)| {
                (k.space_bytes() - std::mem::size_of::<K>())
                    + (v.space_bytes() - std::mem::size_of::<V>())
            })
            .sum();
        inline + table + heap
    }
}

impl<K: SpaceUsage, S> SpaceUsage for HashSet<K, S> {
    fn space_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Self>();
        let per_slot = std::mem::size_of::<K>() + HASH_ENTRY_OVERHEAD;
        let table = self.capacity() * per_slot;
        let heap: usize = self
            .iter()
            .map(|k| k.space_bytes() - std::mem::size_of::<K>())
            .sum();
        inline + table + heap
    }
}

impl<K: SpaceUsage, V: SpaceUsage> SpaceUsage for BTreeMap<K, V> {
    fn space_bytes(&self) -> usize {
        // B-tree nodes hold up to 11 entries; charge ~1.5x the entry payload
        // for node slack plus child pointers.
        let inline = std::mem::size_of::<Self>();
        let per_entry = (std::mem::size_of::<(K, V)>() * 3) / 2 + 8;
        let heap: usize = self
            .iter()
            .map(|(k, v)| {
                (k.space_bytes() - std::mem::size_of::<K>())
                    + (v.space_bytes() - std::mem::size_of::<V>())
            })
            .sum();
        inline + self.len() * per_entry + heap
    }
}

impl SpaceUsage for String {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_report_inline_size() {
        assert_eq!(0u64.space_bytes(), 8);
        assert_eq!(0u32.space_bytes(), 4);
        assert_eq!(true.space_bytes(), 1);
    }

    #[test]
    fn vec_charges_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(100);
        v.push(1);
        assert_eq!(v.space_bytes(), std::mem::size_of::<Vec<u64>>() + 100 * 8);
    }

    #[test]
    fn nested_vec_charges_inner_heap() {
        let v: Vec<Vec<u8>> = vec![Vec::with_capacity(16), Vec::with_capacity(32)];
        let inline = std::mem::size_of::<Vec<Vec<u8>>>();
        let slots = v.capacity() * std::mem::size_of::<Vec<u8>>();
        assert_eq!(v.space_bytes(), inline + slots + 16 + 32);
    }

    #[test]
    fn words_round_up() {
        assert_eq!(1u8.space_words(), 1);
        assert_eq!(0u64.space_words(), 1);
        let v: Vec<u8> = Vec::new();
        assert_eq!(v.space_words(), 3); // 24 bytes of Vec header
    }

    #[test]
    fn hashmap_scales_with_capacity() {
        let mut m: HashMap<u64, u64> = HashMap::new();
        for i in 0..1000 {
            m.insert(i, i);
        }
        let b = m.space_bytes();
        assert!(b >= 1000 * 16, "must charge at least the payload: {b}");
    }

    #[test]
    fn option_some_none_same_inline() {
        let some: Option<u64> = Some(3);
        let none: Option<u64> = None;
        assert_eq!(some.space_bytes(), none.space_bytes());
    }
}
