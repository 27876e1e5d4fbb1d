//! Degree-based reservoir sampling — **Algorithm 1** of the paper.
//!
//! `Deg-Res-Sampling(d₁, d₂, s)` maintains a uniform sample of size `s` of
//! the A-vertices whose degree has reached `d₁`, and for each sampled vertex
//! collects incident edges (starting with the edge whose arrival lifted the
//! vertex to degree `d₁`) until `d₂` of them are stored. The run *succeeds*
//! if some sampled vertex accumulates `d₂` edges.
//!
//! **Lemma 3.1.** If at most `n₁` vertices have degree ≥ d₁ and at least
//! `n₂` have degree ≥ d₁ + d₂ − 1, the run succeeds with probability at
//! least `1 − e^{−s·n₂/n₁}` (experiment `l31` reproduces this curve).
//!
//! The structure does **not** own the global degree counts — Algorithm 2
//! runs α instances over one shared degree table, which is exactly how the
//! paper accounts the `O(n log n)` term once. Callers pass the up-to-date
//! degree of the edge's endpoint to [`DegResSampling::process`].

use crate::neighbourhood::Neighbourhood;
use crate::wire::PackedRun;
use crate::witness_list::{pow2_capacity, WitnessList};
use fews_common::SpaceUsage;
use fews_stream::Edge;
use rand::{Rng, RngExt};

/// One run of Deg-Res-Sampling.
///
/// ```
/// use fews_core::deg_res::DegResSampling;
/// use fews_stream::Edge;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // Sample vertices reaching degree 2; collect 3 witnesses each.
/// let mut run = DegResSampling::new(2, 3, 8);
/// let mut deg = vec![0u32; 4];
/// for b in 0..5u64 {
///     let e = Edge::new(0, b);
///     deg[0] += 1;
///     run.process(e, deg[0], &mut rng);
/// }
/// let out = run.result().expect("degree 5 ≥ d₁ + d₂ − 1 = 4");
/// assert_eq!(out.vertex, 0);
/// assert_eq!(out.witnesses, vec![1, 2, 3]); // from the crossing edge on
/// ```
#[derive(Debug, Clone)]
pub struct DegResSampling {
    /// `d₁`, `d₂`, `s`, the crossing counter `x` of Algorithm 1, and the
    /// reservoir: members in insertion slots (uniform victim = uniform
    /// index), each with its packed witness list, frozen once it holds
    /// `d₂`. The slot vector's capacity is [`slot_capacity`] of its length.
    run: PackedRun,
    /// Which slot holds each member.
    index: SlotIndex,
}

impl DegResSampling {
    /// New run with degree bounds `d₁ ≥ 1`, `d₂ ≥ 1` and reservoir size
    /// `s ≥ 1`.
    pub fn new(d1: u32, d2: u32, s: usize) -> Self {
        assert!(d1 >= 1 && d2 >= 1 && s >= 1);
        DegResSampling {
            run: PackedRun {
                d1,
                d2,
                s: s as u64,
                crossings: 0,
                entries: Vec::new(),
            },
            index: SlotIndex::default(),
        }
    }

    /// The lower degree bound d₁.
    pub fn d1(&self) -> u32 {
        self.run.d1
    }

    /// The witness target d₂.
    pub fn d2(&self) -> u32 {
        self.run.d2
    }

    /// Reservoir size s.
    pub fn s(&self) -> usize {
        self.run.s as usize
    }

    /// Process the next edge. `deg_a` must be the degree of `edge.a` *after*
    /// counting this edge (the caller maintains the shared degree table).
    pub fn process(&mut self, edge: Edge, deg_a: u32, rng: &mut impl Rng) {
        let run = &mut self.run;
        if deg_a == run.d1 {
            // Candidate to be inserted into the reservoir.
            run.crossings += 1;
            let occupied = run.entries.len();
            if (occupied as u64) < run.s {
                self.index.insert(edge.a, occupied);
                if occupied == run.entries.capacity() {
                    let want = slot_capacity(occupied + 1, run.s);
                    run.entries.reserve_exact(want - occupied);
                }
                run.entries.push((edge.a, WitnessList::new()));
            } else if rng.random_range(0..run.crossings) < run.s {
                // Coin(s/x): replace a uniform victim, dropping its list.
                let victim_idx = rng.random_range(0..occupied);
                self.index.replace(run.entries[victim_idx].0, edge.a);
                run.entries[victim_idx] = (edge.a, WitnessList::new());
            }
        }
        // Collect the edge if its endpoint is sampled and still short of d₂;
        // the edge that fills the list freezes it.
        if let Some(slot) = self.index.get(edge.a) {
            let list = &mut run.entries[slot].1;
            if list.len() < run.d2 as usize {
                list.push(edge.b);
                if list.len() == run.d2 as usize {
                    list.freeze();
                }
            }
        }
    }

    /// Whether some sampled vertex has `d₂` collected edges.
    pub fn succeeded(&self) -> bool {
        self.full_entries().next().is_some()
    }

    /// The first stored neighbourhood of size `d₂` in reservoir slot order
    /// (line 15 of Algorithm 1 allows any of them), or `None` — the run
    /// reports *fail*.
    pub fn result(&self) -> Option<Neighbourhood> {
        self.full_entries()
            .next()
            .map(|(a, ws)| Neighbourhood::new(*a, ws.to_vec()))
    }

    fn full_entries(&self) -> impl Iterator<Item = &(u32, WitnessList)> {
        let d2 = self.run.d2 as usize;
        self.run
            .entries
            .iter()
            .filter(move |(_, ws)| ws.len() >= d2)
    }

    /// How many vertices crossed the `d₁` threshold (the `x` counter).
    pub fn crossings(&self) -> u64 {
        self.run.crossings
    }

    /// Current reservoir occupancy.
    pub fn occupancy(&self) -> usize {
        self.run.entries.len()
    }

    /// The run's state: geometry, crossing counter and reservoir entries in
    /// slot order, lists packed (for serialization by [`crate::wire`]).
    pub fn reservoir(&self) -> &PackedRun {
        &self.run
    }

    /// A run resuming `run` (slot order preserved so future evictions
    /// behave identically). Lists move in as they are; a list is frozen
    /// exactly when it holds `d₂` or more.
    pub fn from_packed(mut run: PackedRun) -> Self {
        assert!(run.d1 >= 1 && run.d2 >= 1 && run.s >= 1);
        assert!(
            run.entries.len() as u64 <= run.s,
            "more entries than reservoir slots"
        );
        let want = slot_capacity(run.entries.len(), run.s);
        if run.entries.capacity() != want {
            let mut entries = Vec::with_capacity(want);
            entries.append(&mut run.entries);
            run.entries = entries;
        }
        let mut index = SlotIndex::default();
        for (slot, (a, ws)) in run.entries.iter_mut().enumerate() {
            index.insert(*a, slot);
            if ws.len() >= run.d2 as usize {
                ws.freeze();
            } else {
                ws.thaw();
            }
        }
        DegResSampling { run, index }
    }
}

/// The capacity of a reservoir's slot vector holding `len` of `s` slots:
/// the next power of two, capped at `s`.
pub(crate) fn slot_capacity(len: usize, s: u64) -> usize {
    pow2_capacity(len).min(usize::try_from(s).unwrap_or(usize::MAX))
}

impl SpaceUsage for DegResSampling {
    /// Charged at capacity, and a pure function of the state: the slot
    /// vector at [`slot_capacity`], growing lists at the next power of two
    /// of their bytes, frozen lists exact, the index at `2^k ≥ 2·occupancy`
    /// cells.
    fn space_bytes(&self) -> usize {
        let entries = &self.run.entries;
        std::mem::size_of::<Self>()
            + entries.capacity() * std::mem::size_of::<(u32, WitnessList)>()
            + entries.iter().map(|(_, ws)| ws.heap_bytes()).sum::<usize>()
            + self.index.cells.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// An index cell's slot marking it empty.
const FREE: u32 = u32::MAX;

/// Vertex → reservoir slot: open addressing with linear probing and
/// backward-shift deletion (no tombstones), so its table of `2^k ≥ 2·len`
/// cells is a pure function of how many vertices it holds.
#[derive(Debug, Clone, Default)]
struct SlotIndex {
    /// `(vertex, slot)`; a slot of [`FREE`] marks an empty cell.
    cells: Vec<(u32, u32)>,
    len: usize,
}

impl SlotIndex {
    fn cells_for(len: usize) -> usize {
        pow2_capacity(2 * len)
    }

    /// Where `a`'s probe starts: Fibonacci hashing, the top bits of
    /// `a · ⌊2⁶⁴/φ⌋`. Only called with at least two cells.
    fn home(&self, a: u32) -> usize {
        let bits = self.cells.len().trailing_zeros();
        ((a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The cell holding `a`, or the free cell ending its probe.
    fn probe(&self, a: u32) -> usize {
        let mask = self.cells.len() - 1;
        let mut i = self.home(a);
        while self.cells[i].1 != FREE && self.cells[i].0 != a {
            i = (i + 1) & mask;
        }
        i
    }

    fn get(&self, a: u32) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let (_, slot) = self.cells[self.probe(a)];
        (slot != FREE).then_some(slot as usize)
    }

    /// Map `a` to `slot`, growing the table when `len` outgrows it.
    fn insert(&mut self, a: u32, slot: usize) {
        let slot = u32::try_from(slot)
            .ok()
            .filter(|&s| s != FREE)
            .expect("reservoir slot fits the index");
        let want = Self::cells_for(self.len + 1);
        if want > self.cells.len() {
            let old = std::mem::replace(&mut self.cells, vec![(0, FREE); want]);
            self.len = 0;
            for (v, s) in old.into_iter().filter(|&(_, s)| s != FREE) {
                self.place(v, s);
            }
        }
        self.place(a, slot);
    }

    fn place(&mut self, a: u32, slot: u32) {
        let i = self.probe(a);
        if self.cells[i].1 == FREE {
            self.len += 1;
        }
        self.cells[i] = (a, slot);
    }

    /// Hand `old`'s slot to `new`: an eviction. The table keeps its size.
    fn replace(&mut self, old: u32, new: u32) {
        let mask = self.cells.len() - 1;
        let mut hole = self.probe(old);
        let (_, slot) = self.cells[hole];
        assert_ne!(slot, FREE, "evicted vertex {old} is not indexed");
        // Backward shift: pull each later cell of the run into the hole
        // unless its probe starts after the hole.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (v, s) = self.cells[j];
            if s == FREE {
                break;
            }
            if (j.wrapping_sub(self.home(v)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.cells[hole] = self.cells[j];
                hole = j;
            }
        }
        self.cells[hole] = (0, FREE);
        self.len -= 1;
        self.place(new, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Drive a run over an explicit edge list, maintaining degrees.
    fn drive(run: &mut DegResSampling, edges: &[Edge], n: u32, rng: &mut impl Rng) {
        let mut deg = vec![0u32; n as usize];
        for &e in edges {
            deg[e.a as usize] += 1;
            run.process(e, deg[e.a as usize], rng);
        }
    }

    #[test]
    fn collects_from_crossing_edge_onwards() {
        // Vertex 0 gets edges b = 0..10; with d1 = 3 it enters at the edge
        // that lifts it to degree 3 (b = 2) and collects d2 = 4 edges:
        // b ∈ {2, 3, 4, 5}.
        let mut run = DegResSampling::new(3, 4, 8);
        let edges: Vec<Edge> = (0..10u64).map(|b| Edge::new(0, b)).collect();
        drive(&mut run, &edges, 1, &mut rng(1));
        let out = run.result().expect("deterministic success: s > n₁");
        assert_eq!(out.vertex, 0);
        assert_eq!(out.witnesses, vec![2, 3, 4, 5]);
    }

    #[test]
    fn all_nodes_kept_when_reservoir_large() {
        // s ≥ number of crossing nodes ⇒ nothing is ever evicted and any
        // vertex of degree ≥ d1 + d2 − 1 yields a success (Lemma 3.1's
        // deterministic case).
        let mut run = DegResSampling::new(2, 3, 100);
        let mut edges = Vec::new();
        for a in 0..20u32 {
            for b in 0..4u64 {
                edges.push(Edge::new(a, b + 100 * a as u64));
            }
        }
        drive(&mut run, &edges, 20, &mut rng(2));
        assert_eq!(run.occupancy(), 20);
        assert_eq!(run.crossings(), 20);
        assert!(run.succeeded());
    }

    #[test]
    fn fails_when_no_vertex_deep_enough() {
        // Every vertex has degree d1 + d2 − 2: one edge short of success.
        let (d1, d2) = (3u32, 5u32);
        let deep = d1 + d2 - 2;
        let mut run = DegResSampling::new(d1, d2, 50);
        let mut edges = Vec::new();
        for a in 0..10u32 {
            for b in 0..deep as u64 {
                edges.push(Edge::new(a, b));
            }
        }
        drive(&mut run, &edges, 10, &mut rng(3));
        assert!(!run.succeeded());
        assert!(run.result().is_none());
    }

    #[test]
    fn reservoir_is_uniform_over_crossing_vertices() {
        // 30 vertices cross d1; reservoir of 6 ⇒ each kept w.p. 1/5.
        let trials = 4000;
        let mut counts = [0u32; 30];
        for t in 0..trials {
            let mut run = DegResSampling::new(2, 99, 6);
            let mut r = rng(10_000 + t as u64);
            let mut edges = Vec::new();
            for a in 0..30u32 {
                edges.push(Edge::new(a, 0));
                edges.push(Edge::new(a, 1));
            }
            drive(&mut run, &edges, 30, &mut r);
            for (a, _) in &run.reservoir().entries {
                counts[*a as usize] += 1;
            }
        }
        let expect = trials as f64 * 0.2;
        for (a, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * (expect * 0.8).sqrt(),
                "vertex {a}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn lemma_31_success_probability_respected() {
        // n₁ = 60 vertices of degree ≥ d₁; n₂ = 6 of degree ≥ d₁ + d₂ − 1;
        // s = 20 ⇒ bound 1 − e^{−s n₂/n₁} = 1 − e^{−2} ≈ 0.865.
        let (d1, d2, s) = (2u32, 3u32, 20usize);
        let trials = 600;
        let mut successes = 0;
        for t in 0..trials {
            let mut r = rng(77_000 + t as u64);
            let mut run = DegResSampling::new(d1, d2, s);
            let mut edges = Vec::new();
            for a in 0..60u32 {
                let deg = if a < 6 { d1 + d2 - 1 } else { d1 };
                for b in 0..deg as u64 {
                    edges.push(Edge::new(a, b));
                }
            }
            // Shuffle so reservoir decisions are order-exercised.
            fews_stream::order::shuffle(&mut edges, &mut r);
            drive(&mut run, &edges, 60, &mut r);
            if run.succeeded() {
                successes += 1;
            }
        }
        let rate = successes as f64 / trials as f64;
        let bound = fews_common::math::deg_res_success_lower_bound(s as u64, 60, 6);
        assert!(
            rate >= bound - 0.06,
            "success rate {rate:.3} below Lemma 3.1 bound {bound:.3}"
        );
    }

    #[test]
    fn eviction_discards_collected_edges() {
        // Reservoir of size 1 with two crossing vertices: whenever the
        // second vertex evicts the first, the first's edges must be gone.
        let mut evicted_seen = false;
        for seed in 0..50 {
            let mut r = rng(seed);
            let mut run = DegResSampling::new(1, 10, 1);
            run.process(Edge::new(0, 0), 1, &mut r);
            run.process(Edge::new(0, 1), 2, &mut r);
            run.process(Edge::new(1, 50), 1, &mut r);
            if run.index.get(1).is_some() {
                evicted_seen = true;
                assert!(run.index.get(0).is_none(), "stale edges kept");
                assert_eq!(run.reservoir().entries[0].1.to_vec(), vec![50]);
            }
        }
        assert!(evicted_seen, "eviction never triggered across 50 seeds");
    }

    #[test]
    fn witness_cap_is_d2() {
        let mut run = DegResSampling::new(1, 3, 4);
        let edges: Vec<Edge> = (0..50u64).map(|b| Edge::new(0, b)).collect();
        drive(&mut run, &edges, 1, &mut rng(5));
        let list = &run.reservoir().entries[0].1;
        assert_eq!(list.len(), 3, "collection must stop at d₂");
        assert!(list.is_frozen(), "a full list is frozen");
    }

    /// The index agrees with a reference map through inserts and evictions
    /// on colliding vertices, and its table size depends only on how many
    /// vertices it holds.
    #[test]
    fn slot_index_matches_a_map_under_churn() {
        let mut index = SlotIndex::default();
        let mut reference = std::collections::HashMap::new();
        let mut held: Vec<u32> = Vec::new();
        let mut state = 7u64;
        let mut draw = |bound: u64| {
            state = fews_common::rng::splitmix64(state);
            state % bound
        };
        for step in 0..4000u32 {
            // Multiples of 64 share their low bits, so probes collide.
            let a = 64 * step;
            if held.len() < 300 {
                index.insert(a, held.len());
                reference.insert(a, held.len());
                held.push(a);
            } else {
                let slot = draw(held.len() as u64) as usize;
                index.replace(held[slot], a);
                reference.remove(&held[slot]);
                reference.insert(a, slot);
                held[slot] = a;
            }
            assert_eq!(index.cells.len(), SlotIndex::cells_for(held.len()));
            if step % 97 == 0 {
                for v in (0..=step).map(|s| 64 * s) {
                    assert_eq!(index.get(v), reference.get(&v).copied(), "vertex {v}");
                }
            }
        }
    }

    /// A run rebuilt from its own state is charged exactly what the run that
    /// grew push by push is.
    #[test]
    fn charge_does_not_depend_on_history() {
        let mut run = DegResSampling::new(2, 40, 64);
        let mut r = rng(9);
        let mut deg = vec![0u32; 200];
        for t in 0..20_000u64 {
            let a = (fews_common::rng::splitmix64(t) % 200) as u32;
            deg[a as usize] += 1;
            run.process(Edge::new(a, 1_000_000 + t), deg[a as usize], &mut r);
            if t % 1000 == 0 {
                let rebuilt = DegResSampling::from_packed(run.reservoir().clone());
                assert_eq!(rebuilt.space_bytes(), run.space_bytes(), "at update {t}");
                assert_eq!(rebuilt.reservoir(), run.reservoir());
            }
        }
    }
}
