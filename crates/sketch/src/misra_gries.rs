//! The Misra–Gries frequent-elements summary [37].
//!
//! The original 1982 deterministic algorithm the paper's problem descends
//! from: with `k` counters over a stream of length `m`, every item's count
//! estimate undershoots its true frequency by at most `m / (k+1)`. It is the
//! canonical *witness-free* baseline — it can name a frequent element but can
//! never report satellite data (experiment `base` demonstrates exactly this
//! asymmetry).

use fews_common::space::HASH_ENTRY_OVERHEAD;
use fews_common::SpaceUsage;
use std::collections::HashMap;

/// A Misra–Gries summary with `k` counters.
///
/// ```
/// use fews_sketch::misra_gries::MisraGries;
///
/// let mut mg = MisraGries::new(4);
/// for _ in 0..10 { mg.update(7); }
/// for i in 0..20 { mg.update(100 + i); }
/// // Estimates undercount by at most m/(k+1) = 30/5 = 6.
/// assert!(mg.estimate(7) >= 10 - mg.max_error());
/// ```
#[derive(Debug, Clone)]
pub struct MisraGries {
    k: usize,
    counters: HashMap<u64, u64>,
    processed: u64,
}

impl MisraGries {
    /// Summary with `k ≥ 1` counters; guarantees error ≤ m/(k+1).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        MisraGries {
            k,
            counters: HashMap::with_capacity(k + 1),
            processed: 0,
        }
    }

    /// Process one stream item.
    pub fn update(&mut self, item: u64) {
        self.processed += 1;
        if let Some(c) = self.counters.get_mut(&item) {
            *c += 1;
            return;
        }
        if self.counters.len() < self.k {
            self.counters.insert(item, 1);
            return;
        }
        // Decrement-all step; drop zeroed counters.
        self.counters.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
    }

    /// Lower-bound estimate of `item`'s frequency (`0` if untracked).
    pub fn estimate(&self, item: u64) -> u64 {
        self.counters.get(&item).copied().unwrap_or(0)
    }

    /// Items whose estimated frequency is at least `threshold`.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .counters
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(&i, &c)| (i, c))
            .collect();
        v.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        v
    }

    /// Number of items processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The guaranteed maximum undercount `m / (k+1)` at the current length.
    pub fn max_error(&self) -> u64 {
        self.processed / (self.k as u64 + 1)
    }

    /// Merge another summary (mergeability of MG summaries: sum counters,
    /// then subtract the (k+1)-th largest value from all and drop ≤ 0).
    /// The receiver's counter budget must be at least the donor's, so the
    /// merged summary keeps the *stronger* error bound `m/(min k + 1)`.
    pub fn merge(&mut self, other: &MisraGries) {
        assert!(
            self.k >= other.k,
            "cannot merge a larger summary (k={}) into a smaller one (k={})",
            other.k,
            self.k
        );
        for (&i, &c) in &other.counters {
            *self.counters.entry(i).or_insert(0) += c;
        }
        self.processed += other.processed;
        if self.counters.len() > self.k {
            let mut counts: Vec<u64> = self.counters.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let cut = counts[self.k]; // (k+1)-th largest
            self.counters.retain(|_, c| {
                if *c > cut {
                    *c -= cut;
                    true
                } else {
                    false
                }
            });
        }
    }
}

impl SpaceUsage for MisraGries {
    /// 18 bytes a counter (pair + map overhead): not the map's seed-driven capacity.
    fn space_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(u64, u64)>() + HASH_ENTRY_OVERHEAD;
        std::mem::size_of::<Self>() + self.k * entry
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
            let want = std::mem::size_of::<MisraGries>() + 18 * k;
            for _ in 0..4 {
                let mut mg = MisraGries::new(k);
                for i in 0..20_000u64 {
                    mg.update(i.wrapping_mul(2_654_435_761) % 4096);
                }
                assert_eq!(mg.space_bytes(), want, "k = {k}");
            }
        }
    }

    #[test]
    fn exact_when_few_distinct() {
        let mut mg = MisraGries::new(10);
        for _ in 0..5 {
            for item in 0..3u64 {
                mg.update(item);
            }
        }
        for item in 0..3u64 {
            assert_eq!(mg.estimate(item), 5);
        }
    }

    #[test]
    fn undercount_bounded() {
        // Adversarial: 1 heavy item among k distractor floods.
        let mut mg = MisraGries::new(9);
        let mut true_count = 0u64;
        for round in 0..100u64 {
            mg.update(999);
            true_count += 1;
            for j in 0..20u64 {
                mg.update(round * 100 + j);
            }
        }
        let est = mg.estimate(999);
        let m = mg.processed();
        assert!(est <= true_count);
        assert!(
            true_count - est <= m / 10,
            "undercount {} > m/(k+1) = {}",
            true_count - est,
            m / 10
        );
    }

    #[test]
    fn counter_budget_respected() {
        let mut mg = MisraGries::new(5);
        for i in 0..10_000u64 {
            mg.update(i % 100);
        }
        assert!(mg.counters.len() <= 5);
    }

    #[test]
    fn heavy_hitters_sorted_desc() {
        let mut mg = MisraGries::new(10);
        for _ in 0..30 {
            mg.update(1);
        }
        for _ in 0..20 {
            mg.update(2);
        }
        for _ in 0..10 {
            mg.update(3);
        }
        let hh = mg.heavy_hitters(15);
        assert_eq!(hh, vec![(1, 30), (2, 20)]);
    }

    #[test]
    fn merge_preserves_error_guarantee() {
        let mut a = MisraGries::new(9);
        let mut b = MisraGries::new(9);
        let mut truth = HashMap::new();
        for i in 0..2000u64 {
            let item = i % 50;
            *truth.entry(item).or_insert(0u64) += 1;
            if i % 2 == 0 {
                a.update(item);
            } else {
                b.update(item);
            }
        }
        a.merge(&b);
        assert_eq!(a.processed(), 2000);
        let bound = a.max_error();
        for (&item, &t) in &truth {
            let est = a.estimate(item);
            assert!(est <= t, "overcount for {item}");
            assert!(t - est <= bound, "item {item}: {t} − {est} > {bound}");
        }
        assert!(a.counters.len() <= 9);
    }
}
