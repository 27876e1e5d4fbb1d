//! The merged, engine-wide query view.

use fews_core::neighbourhood::Neighbourhood;
use fews_core::wire::{PackedRun, PackedState};
use fews_core::witness_list::WitnessList;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A point-in-time global view of the engine, assembled from every
/// partition's contribution in ascending partition order.
///
/// The view is a *value* — queries on it are pure, deterministic, and
/// independent of the shard count that produced it. For the insertion-only
/// model it holds the partitions' [`PackedState`]s *segmented* (shared
/// `Arc`s, in partition order) and answers queries by scanning the
/// segments exactly as [`MemoryState::merge`]-then-query would — the
/// merged run `r` is the partition-order concatenation of the per-partition
/// runs `r`, so iterating `(run, partition, slot)` visits the same entries
/// in the same order without ever materializing the merge. That keeps the
/// engine's incremental view cheap: an unchanged partition's `Arc` is
/// reused as-is, and a changed partition costs a copy of its growing
/// lists' packed bytes — its full lists are shared with the partition.
/// Queries rank lists by their stored length and decode only the lists
/// they answer with. For insertion-deletion it holds the union of the
/// partitions' recovered-witness pools.
///
/// [`MemoryState::merge`]: fews_core::wire::MemoryState::merge
///
/// [`crate::Engine::view`] hands the view out as an `Arc<GlobalView>`: the
/// engine memoizes per-partition contributions by update epoch and rebuilds
/// only what changed, and a serving layer can publish the `Arc` so query
/// connections read it without synchronizing with ingest at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalView {
    /// Segmented insertion-only state plus the witness target `d₂`.
    InsertOnly {
        /// Every partition's state, ascending partition order. All share
        /// one run geometry (same run count and `(d₁, d₂, s)` per run).
        parts: Vec<Arc<PackedState>>,
        /// The certification threshold `⌊d/α⌋`.
        d2: u32,
    },
    /// Pooled insertion-deletion witnesses plus the witness target `d₂`.
    InsertDelete {
        /// Per-vertex recovered witnesses, sorted by vertex (vertices are
        /// partition-disjoint, so concatenation is a disjoint union).
        pooled: Vec<(u32, Vec<u64>)>,
        /// The certification threshold `⌊d/α⌋`.
        d2: u32,
    },
}

/// The partitions a query reads: the whole view, or the subset one
/// designated reader answers for when a router pushes a query down to it.
/// Partitions are vertex-disjoint, so answers over disjoint scopes that
/// together cover the view merge exactly into the whole view's answer.
#[derive(Debug, Clone, Copy)]
pub enum Scope<'a> {
    /// Every partition.
    All,
    /// The named partitions of a `partitions`-way view.
    Parts {
        /// Partition ids, ascending and unique.
        named: &'a [u32],
        /// The view's partition count `P`: vertex `a` lives in partition
        /// [`crate::partition_of`]`(a, P)`.
        partitions: usize,
    },
}

impl Scope<'_> {
    fn holds(&self, p: usize) -> bool {
        match self {
            Scope::All => true,
            Scope::Parts { named, .. } => named.binary_search(&(p as u32)).is_ok(),
        }
    }

    fn holds_vertex(&self, a: u32) -> bool {
        match self {
            Scope::All => true,
            Scope::Parts { partitions, .. } => self.holds(crate::partition_of(a, *partitions)),
        }
    }
}

impl GlobalView {
    /// The witness target `d₂` a neighbourhood must reach to be certified.
    pub fn witness_target(&self) -> u32 {
        match self {
            GlobalView::InsertOnly { d2, .. } | GlobalView::InsertDelete { d2, .. } => *d2,
        }
    }

    /// The insertion-only partition states `scope` reads, ascending.
    fn io_scope<'a>(parts: &'a [Arc<PackedState>], scope: Scope) -> Vec<&'a PackedState> {
        (0..parts.len())
            .filter(|&p| scope.holds(p))
            .map(|p| &*parts[p])
            .collect()
    }

    /// Visit every insertion-only reservoir entry (with its enclosing run
    /// and that run's index, for the run-level witness target) in the
    /// canonical merged scan order — run index major, then partition, then
    /// slot — exactly the entry order of the materialized
    /// [`MemoryState::merge`] of `parts`. Stops early when `visit` returns
    /// `Some`. Every segmented query goes through this one scan, so the
    /// order invariant lives in one place.
    ///
    /// [`MemoryState::merge`]: fews_core::wire::MemoryState::merge
    fn scan_io_entries<'a, T>(
        parts: &[&'a PackedState],
        mut visit: impl FnMut(usize, &'a PackedRun, &'a (u32, WitnessList)) -> Option<T>,
    ) -> Option<T> {
        let runs = parts.first().map_or(0, |p| p.runs.len());
        for r in 0..runs {
            for part in parts {
                let run = &part.runs[r];
                for entry in &run.entries {
                    if let Some(out) = visit(r, run, entry) {
                        return Some(out);
                    }
                }
            }
        }
        None
    }

    /// The engine's certified output, exactly the single-threaded reference
    /// semantics:
    ///
    /// * insertion-only — first reservoir entry reaching `d₂` in (run,
    ///   partition, slot) scan order (`MemoryState::certified`);
    /// * insertion-deletion — the pooled vertex with the most recovered
    ///   witnesses among those reaching `d₂` (ties to the smaller vertex).
    pub fn certified(&self) -> Option<Neighbourhood> {
        self.certified_in(Scope::All).map(|(_, nb)| nb)
    }

    /// [`GlobalView::certified`] over the partitions `scope` reads, with the
    /// index of the run whose entry it is (always 0 for insertion-deletion).
    /// Answers over disjoint scopes merge into the whole view's: the
    /// insertion-only winner is the least (run, partition), the
    /// insertion-deletion one the most witnesses, ties to the smaller
    /// vertex.
    pub fn certified_in(&self, scope: Scope) -> Option<(u32, Neighbourhood)> {
        match self {
            GlobalView::InsertOnly { parts, .. } => {
                Self::scan_io_entries(&Self::io_scope(parts, scope), |r, run, (a, ws)| {
                    (ws.len() >= run.d2 as usize)
                        .then(|| (r as u32, Neighbourhood::new(*a, ws.to_vec())))
                })
            }
            GlobalView::InsertDelete { pooled, d2 } => pooled
                .iter()
                .filter(|(a, ws)| ws.len() >= *d2 as usize && scope.holds_vertex(*a))
                .max_by_key(|(a, ws)| (ws.len(), Reverse(*a)))
                .map(|(a, ws)| (0, Neighbourhood::new(*a, ws.clone()))),
        }
    }

    /// Everything the engine can prove about vertex `v`: the witnesses
    /// collected for it, or `None` when no partition holds any.
    pub fn certify(&self, v: u32) -> Option<Neighbourhood> {
        self.certify_in(v, Scope::All)
    }

    /// [`GlobalView::certify`] over the partitions `scope` reads.
    pub fn certify_in(&self, v: u32, scope: Scope) -> Option<Neighbourhood> {
        match self {
            GlobalView::InsertOnly { parts, .. } => {
                // First-longest in merged (run, partition, slot) order —
                // `MemoryState::certify` on the materialized merge.
                let mut best: Option<&WitnessList> = None;
                Self::scan_io_entries::<()>(&Self::io_scope(parts, scope), |_, _, (a, ws)| {
                    if *a == v {
                        keep_first_longest(&mut best, ws);
                    }
                    None
                });
                best.map(|ws| Neighbourhood::new(v, ws.to_vec()))
            }
            GlobalView::InsertDelete { pooled, .. } if scope.holds_vertex(v) => pooled
                .binary_search_by_key(&v, |&(a, _)| a)
                .ok()
                .map(|i| Neighbourhood::new(v, pooled[i].1.clone())),
            GlobalView::InsertDelete { .. } => None,
        }
    }

    /// The `k` vertices with the most collected witnesses, best first (ties
    /// to the smaller vertex).
    pub fn top(&self, k: usize) -> Vec<Neighbourhood> {
        self.top_in(k, Scope::All)
            .into_iter()
            .map(|(_, nb)| nb)
            .collect()
    }

    /// [`GlobalView::top`] over the partitions `scope` reads, each vertex
    /// with the stored witness count it ranks by. A stored list may repeat
    /// a witness (a repeated edge in the stream), so the count can exceed
    /// the answer's distinct witnesses; answers over disjoint scopes merge
    /// into the whole view's by this count descending, then vertex
    /// ascending.
    pub fn top_in(&self, k: usize, scope: Scope) -> Vec<(u64, Neighbourhood)> {
        match self {
            GlobalView::InsertOnly { parts, .. } => {
                // Longest list per vertex, first-longest kept on ties, in
                // merged scan order — `MemoryState::top` on the
                // materialized merge. Slots are dense over the degree
                // table; a vertex past it (no valid state holds one) is
                // kept aside so the answer still equals the reference.
                let table = parts.first().map_or(0, |p| p.degrees.len());
                let mut longest: Vec<Option<&WitnessList>> = vec![None; table];
                let mut seen: Vec<u32> = Vec::new();
                let mut outside: BTreeMap<u32, Option<&WitnessList>> = BTreeMap::new();
                Self::scan_io_entries::<()>(&Self::io_scope(parts, scope), |_, _, (a, ws)| {
                    let slot = match longest.get_mut(*a as usize) {
                        Some(slot) => {
                            if slot.is_none() {
                                seen.push(*a);
                            }
                            slot
                        }
                        None => outside.entry(*a).or_default(),
                    };
                    keep_first_longest(slot, ws);
                    None
                });
                let ranked = seen
                    .into_iter()
                    .map(|a| (a, longest[a as usize]))
                    .chain(outside)
                    .filter_map(|(a, ws)| Some((a, ws?)))
                    .collect();
                best_k(ranked, k)
            }
            GlobalView::InsertDelete { pooled, .. } => best_k(
                pooled
                    .iter()
                    .filter(|(a, _)| scope.holds_vertex(*a))
                    .map(|(a, ws)| (*a, ws))
                    .collect(),
                k,
            ),
        }
    }

    /// Exact degree of `v` (insertion-only tracks all degrees; the
    /// insertion-deletion model has no exact degree table — `None`).
    pub fn degree(&self, v: u32) -> Option<u32> {
        match self {
            // Partition sub-streams are vertex-disjoint, so the merged
            // degree table is the elementwise sum of the partitions'.
            GlobalView::InsertOnly { parts, .. } => parts
                .iter()
                .map(|p| p.degrees.get(v as usize).copied())
                .sum::<Option<u32>>(),
            GlobalView::InsertDelete { .. } => None,
        }
    }
}

/// A stored witness list as the queries see it: ranked by its length,
/// decoded only when it is part of the answer.
trait Listed {
    fn count(&self) -> usize;
    fn decoded(&self) -> Vec<u64>;
}

impl Listed for Vec<u64> {
    fn count(&self) -> usize {
        self.len()
    }

    fn decoded(&self) -> Vec<u64> {
        self.clone()
    }
}

impl Listed for WitnessList {
    fn count(&self) -> usize {
        self.len()
    }

    fn decoded(&self) -> Vec<u64> {
        self.to_vec()
    }
}

/// Keep `ws` in `slot` if it is the first list seen or strictly longer than
/// the one kept: the first-longest rule every per-vertex query shares.
fn keep_first_longest<'a, L: Listed>(slot: &mut Option<&'a L>, ws: &'a L) {
    if slot.is_none_or(|kept| ws.count() > kept.count()) {
        *slot = Some(ws);
    }
}

/// The `k` best of `ranked` (one entry per vertex) by stored witness count
/// descending, then vertex ascending, with the count each ranked by: a
/// partial select of the `k` best, then a sort of only those, the only
/// lists decoded.
fn best_k<L: Listed>(mut ranked: Vec<(u32, &L)>, k: usize) -> Vec<(u64, Neighbourhood)> {
    let order =
        |(a1, w1): &(u32, &L), (a2, w2): &(u32, &L)| w2.count().cmp(&w1.count()).then(a1.cmp(a2));
    if k == 0 {
        return Vec::new();
    }
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k - 1, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
    ranked
        .into_iter()
        .map(|(a, ws)| (ws.count() as u64, Neighbourhood::new(a, ws.decoded())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_common::rng::splitmix64;
    use fews_core::wire::{MemoryState, RunState};

    /// Hand-built partition states with duplicate vertices across runs,
    /// ties, and empty runs — the cases where the segmented scan could
    /// diverge from the materialized merge.
    fn io_parts() -> Vec<Arc<MemoryState>> {
        let run = |d2: u32, entries: Vec<(u32, Vec<u64>)>| RunState {
            d1: 4,
            d2,
            s: 4,
            crossings: 1,
            entries,
        };
        let p0 = MemoryState {
            degrees: vec![3, 0, 5, 0],
            runs: vec![
                run(2, vec![(0, vec![9]), (2, vec![1, 2])]),
                run(3, vec![(2, vec![1, 2, 3]), (0, vec![7, 8, 9])]),
            ],
        };
        let p1 = MemoryState {
            degrees: vec![0, 4, 0, 2],
            runs: vec![
                run(2, vec![(1, vec![5, 6]), (3, vec![4])]),
                run(3, Vec::new()),
            ],
        };
        vec![Arc::new(p0), Arc::new(p1)]
    }

    fn merged(parts: &[Arc<MemoryState>]) -> MemoryState {
        let mut m = (*parts[0]).clone();
        for p in &parts[1..] {
            m.merge(p);
        }
        m
    }

    /// Seeded random partition states sharing one run geometry: vertices
    /// repeat within and across runs and partitions, witness counts tie,
    /// witnesses repeat within a list, runs come out empty, and some
    /// vertices lie past the degree table.
    fn random_io_parts(seed: u64) -> Vec<Arc<MemoryState>> {
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        let table = 1 + draw(10);
        let d2s: Vec<u32> = (0..1 + draw(3)).map(|_| 1 + draw(4) as u32).collect();
        let partitions = 1 + draw(4);
        (0..partitions)
            .map(|_| {
                let runs = d2s
                    .iter()
                    .map(|&d2| RunState {
                        d1: 4,
                        d2,
                        s: 8,
                        crossings: 0,
                        entries: (0..draw(7))
                            .map(|_| {
                                let a = draw(table + 3) as u32;
                                let base = draw(1 << 20);
                                // Witnesses may repeat, as repeated edges
                                // leave them in a reservoir.
                                (a, (0..draw(5)).map(|_| base + draw(3)).collect())
                            })
                            .collect(),
                    })
                    .collect();
                Arc::new(MemoryState {
                    degrees: vec![0; table as usize],
                    runs,
                })
            })
            .collect()
    }

    #[test]
    fn segmented_io_queries_equal_materialized_merge() {
        let cases = std::iter::once(io_parts()).chain((0..300).map(random_io_parts));
        for (case, parts) in cases.enumerate() {
            let reference = merged(&parts);
            let view = GlobalView::InsertOnly {
                parts: parts
                    .iter()
                    .map(|p| Arc::new(PackedState::from(&**p)))
                    .collect(),
                d2: 2,
            };
            let vertices = parts[0].degrees.len() as u32 + 3;
            assert_eq!(view.certified(), reference.certified(), "case {case}");
            for v in 0..=vertices {
                assert_eq!(
                    view.certify(v),
                    reference.certify(v),
                    "case {case}: certify({v})"
                );
                assert_eq!(
                    view.degree(v),
                    reference.degree(v),
                    "case {case}: degree({v})"
                );
            }
            // k = 0 through past the vertex count.
            for k in 0..=vertices as usize + 2 {
                assert_eq!(view.top(k), reference.top(k), "case {case}: top({k})");
            }
        }
    }

    fn id_view() -> GlobalView {
        GlobalView::InsertDelete {
            pooled: vec![(1, vec![10, 11]), (4, vec![20]), (9, vec![30, 31])],
            d2: 2,
        }
    }

    #[test]
    fn id_certified_prefers_count_then_smaller_vertex() {
        let nb = id_view().certified().expect("two vertices reach d2 = 2");
        assert_eq!(nb.vertex, 1); // ties broken toward the smaller vertex
        assert_eq!(nb.witnesses, vec![10, 11]);
    }

    #[test]
    fn id_certify_and_top() {
        let v = id_view();
        assert_eq!(v.certify(4).unwrap().witnesses, vec![20]);
        assert!(v.certify(2).is_none());
        let top = v.top(2);
        assert_eq!(top[0].vertex, 1);
        assert_eq!(top[1].vertex, 9);
        assert_eq!(v.witness_target(), 2);
        assert_eq!(v.degree(1), None);
    }
}
