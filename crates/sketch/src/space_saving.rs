//! The SpaceSaving summary of Metwally, Agrawal, and El Abbadi [35, 36].
//!
//! `k` counters; an untracked arrival evicts the current minimum counter and
//! inherits its count (recorded as the new item's overestimation error).
//! Estimates *overcount* by at most `m / k`. Complements Misra–Gries in the
//! witness-free baseline suite.

use fews_common::space::HASH_ENTRY_OVERHEAD;
use fews_common::SpaceUsage;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Slot {
    item: u64,
    count: u64,
    err: u64,
}

/// A SpaceSaving summary with `k` counters.
///
/// Implementation: a flat slot array plus an item → slot index; the minimum
/// is found by linear scan over the slot array, which is simple, cache
/// friendly, and fast for the k values the baseline experiments use. (The
/// original "stream summary" bucket list trades constants for an O(1) min.)
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    slots: Vec<Slot>,
    index: HashMap<u64, usize>,
    processed: u64,
}

impl SpaceSaving {
    /// Summary with `k ≥ 1` counters; overestimate error ≤ m/k.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        SpaceSaving {
            slots: Vec::with_capacity(k),
            index: HashMap::with_capacity(k),
            processed: 0,
        }
    }

    /// Process one stream item.
    pub fn update(&mut self, item: u64) {
        self.processed += 1;
        if let Some(&i) = self.index.get(&item) {
            self.slots[i].count += 1;
            return;
        }
        if self.slots.len() < self.slots.capacity() {
            self.index.insert(item, self.slots.len());
            self.slots.push(Slot {
                item,
                count: 1,
                err: 0,
            });
            return;
        }
        // Evict the minimum-count slot.
        let (mi, _) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.count)
            .expect("k >= 1");
        let old = self.slots[mi];
        self.index.remove(&old.item);
        self.index.insert(item, mi);
        self.slots[mi] = Slot {
            item,
            count: old.count + 1,
            err: old.count,
        };
    }

    /// Upper-bound estimate of `item`'s frequency (0 if untracked).
    pub fn estimate(&self, item: u64) -> u64 {
        self.index
            .get(&item)
            .map(|&i| self.slots[i].count)
            .unwrap_or(0)
    }

    /// Guaranteed lower bound on `item`'s frequency (count − error).
    pub fn guaranteed(&self, item: u64) -> u64 {
        self.index
            .get(&item)
            .map(|&i| self.slots[i].count - self.slots[i].err)
            .unwrap_or(0)
    }

    /// Tracked items with estimate ≥ threshold, sorted by estimate desc.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|s| s.count >= threshold)
            .map(|s| (s.item, s.count))
            .collect();
        v.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        v
    }

    /// Number of items processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl SpaceUsage for SpaceSaving {
    /// 24 + 18 bytes a slot (slot + index entry): not the index's seed-driven capacity.
    fn space_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(u64, usize)>() + HASH_ENTRY_OVERHEAD;
        std::mem::size_of::<Self>() + self.slots.capacity() * (std::mem::size_of::<Slot>() + entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Instances fed the same churning stream charge equal bytes, the
    /// documented function of `k` — whatever their maps' hashers did.
    #[test]
    fn space_is_a_function_of_k_alone() {
        for k in [1usize, 64, 78, 256] {
            let want = std::mem::size_of::<SpaceSaving>() + (24 + 18) * k;
            for _ in 0..4 {
                let mut ss = SpaceSaving::new(k);
                for i in 0..20_000u64 {
                    ss.update(i.wrapping_mul(2_654_435_761) % 4096);
                }
                assert_eq!(ss.space_bytes(), want, "k = {k}");
            }
        }
    }

    #[test]
    fn exact_when_few_distinct() {
        let mut ss = SpaceSaving::new(8);
        for _ in 0..7 {
            for item in 0..4u64 {
                ss.update(item);
            }
        }
        for item in 0..4u64 {
            assert_eq!(ss.estimate(item), 7);
            assert_eq!(ss.guaranteed(item), 7);
        }
    }

    #[test]
    fn overcount_bounded_by_m_over_k() {
        let k = 10;
        let mut ss = SpaceSaving::new(k);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // Skewed synthetic stream.
        for i in 0..5000u64 {
            let item = if i % 3 == 0 { i % 7 } else { 1000 + (i % 200) };
            *truth.entry(item).or_insert(0) += 1;
            ss.update(item);
        }
        let m = ss.processed();
        for (&item, &t) in &truth {
            let est = ss.estimate(item);
            if est > 0 {
                assert!(est >= t.min(est)); // estimate never undercounts tracked items
                assert!(est <= t + m / k as u64, "item {item}: {est} > {t} + m/k");
            }
        }
    }

    #[test]
    fn sum_of_counts_equals_stream_length() {
        // SpaceSaving invariant: Σ counts = m exactly.
        let mut ss = SpaceSaving::new(5);
        for i in 0..997u64 {
            ss.update(i % 37);
        }
        let total: u64 = ss.slots.iter().map(|s| s.count).sum();
        assert_eq!(total, 997);
    }

    #[test]
    fn guaranteed_is_true_lower_bound() {
        let mut ss = SpaceSaving::new(3);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..2000u64 {
            let item = i % 11;
            *truth.entry(item).or_insert(0) += 1;
            ss.update(item);
        }
        for (&item, &t) in &truth {
            assert!(ss.guaranteed(item) <= t, "item {item}");
        }
    }

    #[test]
    fn top_item_always_tracked() {
        // The majority item can never be evicted below its true share.
        let mut ss = SpaceSaving::new(4);
        for i in 0..3000u64 {
            if i % 2 == 0 {
                ss.update(42);
            } else {
                ss.update(i);
            }
        }
        assert!(ss.estimate(42) >= 1500);
    }
}
