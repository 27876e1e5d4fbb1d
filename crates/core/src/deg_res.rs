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
use fews_common::SpaceUsage;
use fews_stream::Edge;
use rand::{Rng, RngExt};
use std::collections::HashMap;

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
    d1: u32,
    d2: u32,
    s: usize,
    /// Reservoir members, in insertion slots (uniform victim = uniform index).
    members: Vec<u32>,
    /// Collected incident edges per member (capped at `d2`).
    collected: HashMap<u32, Vec<u64>>,
    /// Number of vertices whose degree has reached `d₁` so far (the `x`
    /// counter of Algorithm 1).
    crossings: u64,
}

impl DegResSampling {
    /// New run with degree bounds `d₁ ≥ 1`, `d₂ ≥ 1` and reservoir size
    /// `s ≥ 1`.
    pub fn new(d1: u32, d2: u32, s: usize) -> Self {
        assert!(d1 >= 1 && d2 >= 1 && s >= 1);
        DegResSampling {
            d1,
            d2,
            s,
            members: Vec::with_capacity(s.min(1024)),
            collected: HashMap::new(),
            crossings: 0,
        }
    }

    /// The lower degree bound d₁.
    pub fn d1(&self) -> u32 {
        self.d1
    }

    /// The witness target d₂.
    pub fn d2(&self) -> u32 {
        self.d2
    }

    /// Reservoir size s.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Process the next edge. `deg_a` must be the degree of `edge.a` *after*
    /// counting this edge (the caller maintains the shared degree table).
    pub fn process(&mut self, edge: Edge, deg_a: u32, rng: &mut impl Rng) {
        if deg_a == self.d1 {
            // Candidate to be inserted into the reservoir.
            self.crossings += 1;
            if self.members.len() < self.s {
                self.members.push(edge.a);
                self.collected.insert(edge.a, Vec::new());
            } else if rng.random_range(0..self.crossings) < self.s as u64 {
                // Coin(s/x): replace a uniform victim.
                let victim_idx = rng.random_range(0..self.members.len());
                let victim = self.members[victim_idx];
                self.collected.remove(&victim);
                self.members[victim_idx] = edge.a;
                self.collected.insert(edge.a, Vec::new());
            }
        }
        // Collect the edge if its endpoint is sampled and still short of d₂.
        if let Some(list) = self.collected.get_mut(&edge.a) {
            if list.len() < self.d2 as usize {
                list.push(edge.b);
            }
        }
    }

    /// Whether some sampled vertex has `d₂` collected edges.
    pub fn succeeded(&self) -> bool {
        self.collected
            .values()
            .any(|list| list.len() >= self.d2 as usize)
    }

    /// The first stored neighbourhood of size `d₂` in reservoir slot order
    /// (line 15 of Algorithm 1 allows any of them), or `None` — the run
    /// reports *fail*.
    pub fn result(&self) -> Option<Neighbourhood> {
        self.members.iter().find_map(|&a| {
            let list = self.collected.get(&a)?;
            (list.len() >= self.d2 as usize).then(|| Neighbourhood::new(a, list.clone()))
        })
    }

    /// How many vertices crossed the `d₁` threshold (the `x` counter).
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Current reservoir occupancy.
    pub fn occupancy(&self) -> usize {
        self.members.len()
    }

    /// Export the reservoir contents in slot order (for serialization by
    /// [`crate::wire`]).
    pub fn export_entries(&self) -> Vec<(u32, Vec<u64>)> {
        self.members
            .iter()
            .map(|&a| (a, self.collected.get(&a).cloned().unwrap_or_default()))
            .collect()
    }

    /// Restore reservoir contents exported by [`Self::export_entries`]
    /// (slot order preserved so future evictions behave identically).
    pub fn import_entries(&mut self, crossings: u64, entries: &[(u32, Vec<u64>)]) {
        assert!(entries.len() <= self.s, "more entries than reservoir slots");
        self.crossings = crossings;
        self.members = entries.iter().map(|&(a, _)| a).collect();
        self.collected = entries.iter().cloned().collect();
    }
}

impl SpaceUsage for DegResSampling {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            - std::mem::size_of::<Vec<u32>>()
            - std::mem::size_of::<HashMap<u32, Vec<u64>>>()
            + self.members.space_bytes()
            + self.collected.space_bytes()
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
            for &a in &run.members {
                counts[a as usize] += 1;
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
            if run.collected.contains_key(&1) {
                evicted_seen = true;
                assert!(!run.collected.contains_key(&0), "stale edges kept");
                assert_eq!(run.collected[&1], vec![50]);
            }
        }
        assert!(evicted_seen, "eviction never triggered across 50 seeds");
    }

    #[test]
    fn witness_cap_is_d2() {
        let mut run = DegResSampling::new(1, 3, 4);
        let edges: Vec<Edge> = (0..50u64).map(|b| Edge::new(0, b)).collect();
        drive(&mut run, &edges, 1, &mut rng(5));
        assert_eq!(run.collected[&0].len(), 3, "collection must stop at d₂");
    }
}
