//! The insertion-only FEwW algorithm — **Algorithm 2** of the paper.
//!
//! Runs α instances of [`DegResSampling`](crate::deg_res::DegResSampling) in
//! parallel over one shared degree table, with thresholds
//! `d₁ = max(1, i·⌊d/α⌋)` for `i = 0 … α−1`, witness target `d₂ = ⌊d/α⌋`, and
//! reservoir size `s = ⌈ln(n)·n^{1/α}⌉`.
//!
//! **Theorem 3.2.** If some A-vertex has degree ≥ d, the algorithm outputs a
//! neighbourhood of size `⌊d/α⌋` with probability ≥ 1 − 1/n, using space
//! `O(n log n + n^{1/α} d log² n)` bits. (Experiment `t32` reproduces both
//! claims; the benches `insertion_only` and `deg_res` measure throughput.)

use crate::deg_res::DegResSampling;
use crate::neighbourhood::Neighbourhood;
use crate::wire::PackedState;
use fews_common::math::reservoir_size;
use fews_common::rng::rng_for;
use fews_common::SpaceUsage;
use fews_stream::Edge;
use rand::rngs::StdRng;

/// Parameters of the insertion-only algorithm.
#[derive(Debug, Clone, Copy)]
pub struct FewwConfig {
    /// Number of A-vertices.
    pub n: u32,
    /// Degree threshold: the stream is promised to contain an A-vertex of
    /// degree ≥ d.
    pub d: u32,
    /// Approximation factor α ≥ 1 (integral, per Theorem 3.2).
    pub alpha: u32,
    /// Multiplier on the paper's reservoir size `⌈ln(n)·n^{1/α}⌉` — 1.0
    /// reproduces the paper; other values are for the ablation bench.
    pub reservoir_factor: f64,
}

impl FewwConfig {
    /// Paper-faithful configuration (`reservoir_factor = 1`).
    pub fn new(n: u32, d: u32, alpha: u32) -> Self {
        assert!(n >= 1 && d >= 1 && alpha >= 1);
        FewwConfig {
            n,
            d,
            alpha,
            reservoir_factor: 1.0,
        }
    }

    /// The witness target `d₂ = max(1, ⌊d/α⌋)`.
    pub fn witness_target(&self) -> u32 {
        (self.d / self.alpha).max(1)
    }

    /// The reservoir size `s` after applying `reservoir_factor`.
    pub fn reservoir(&self) -> usize {
        let s = reservoir_size(self.n as u64, self.alpha) as f64 * self.reservoir_factor;
        (s.ceil() as usize).max(1)
    }
}

/// The α-approximation insertion-only streaming algorithm for FEwW.
#[derive(Debug)]
pub struct FewwInsertOnly {
    config: FewwConfig,
    /// Shared degree table — the `O(n log n)` term of Theorem 3.2.
    degrees: Vec<u32>,
    /// The α parallel Deg-Res-Sampling runs.
    runs: Vec<DegResSampling>,
    rng: StdRng,
    pushed: u64,
}

impl FewwInsertOnly {
    /// Initialise the algorithm; `seed` fixes all coin flips.
    pub fn new(config: FewwConfig, seed: u64) -> Self {
        let d2 = config.witness_target();
        let s = config.reservoir();
        let runs = (0..config.alpha)
            .map(|i| DegResSampling::new((i * d2).max(1), d2, s))
            .collect();
        FewwInsertOnly {
            config,
            degrees: vec![0; config.n as usize],
            runs,
            rng: rng_for(seed, 0x0A16_0001),
            pushed: 0,
        }
    }

    /// Process the next edge insertion.
    pub fn push(&mut self, edge: Edge) {
        let a = edge.a as usize;
        assert!(
            a < self.degrees.len(),
            "vertex {a} out of range n={}",
            self.config.n
        );
        self.degrees[a] += 1;
        let deg = self.degrees[a];
        self.pushed += 1;
        for run in &mut self.runs {
            run.process(edge, deg, &mut self.rng);
        }
    }

    /// The first successful run's output: its first full reservoir entry
    /// in slot order, always of size exactly `d₂` — the entry
    /// [`crate::wire::MemoryState::certified`] picks. The paper returns
    /// an arbitrary successful run's output.
    pub fn result(&self) -> Option<Neighbourhood> {
        self.runs.iter().find_map(DegResSampling::result)
    }

    /// Results of *all* successful runs (for diagnostics/experiments).
    pub fn all_results(&self) -> Vec<Neighbourhood> {
        self.runs
            .iter()
            .filter_map(DegResSampling::result)
            .collect()
    }

    /// Indices of the runs that succeeded.
    pub fn successful_runs(&self) -> Vec<usize> {
        self.runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.succeeded())
            .map(|(i, _)| i)
            .collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &FewwConfig {
        &self.config
    }

    /// Current degree of a vertex (exact — the algorithm tracks all degrees).
    pub fn degree(&self, a: u32) -> u32 {
        self.degrees[a as usize]
    }

    /// Number of edges processed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Capture the current memory state for checkpointing / merging (see
    /// [`crate::wire::MemoryState`]).
    pub fn snapshot(&self) -> crate::wire::MemoryState {
        crate::wire::MemoryState::capture(self)
    }

    /// Install a state captured from an identically configured instance.
    pub fn restore_from(&mut self, state: &crate::wire::MemoryState) {
        state.restore(self);
    }

    /// The state with its lists still packed: a copy of the growing lists'
    /// bytes, sharing every full list's allocation — what a published view
    /// holds.
    pub fn packed(&self) -> PackedState {
        PackedState {
            degrees: self.degrees.clone(),
            runs: self.runs.iter().map(|r| r.reservoir().clone()).collect(),
        }
    }

    /// The state's wire bytes — exactly `self.snapshot().encode()` —
    /// written straight from the packed lists.
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::encode_layout(
            &self.degrees,
            self.runs.iter().map(DegResSampling::reservoir),
        )
    }

    /// Install a state of an identically configured instance, moving its
    /// lists in.
    pub fn restore_packed(&mut self, state: PackedState) {
        assert_eq!(state.degrees.len(), self.config.n as usize);
        assert_eq!(state.runs.len(), self.config.alpha as usize);
        self.degrees = state.degrees;
        self.runs = state
            .runs
            .into_iter()
            .map(DegResSampling::from_packed)
            .collect();
    }

    pub(crate) fn degrees_slice(&self) -> &[u32] {
        &self.degrees
    }

    pub(crate) fn runs_slice(&self) -> &[DegResSampling] {
        &self.runs
    }
}

impl SpaceUsage for FewwInsertOnly {
    fn space_bytes(&self) -> usize {
        // The RNG is shared public randomness in the communication-model
        // sense; we still charge its inline bytes for honesty.
        std::mem::size_of::<Self>()
            - std::mem::size_of::<Vec<u32>>()
            - std::mem::size_of::<Vec<DegResSampling>>()
            + self.degrees.space_bytes()
            + self.runs.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_common::rng::rng_for;
    use fews_stream::gen::planted::planted_star;
    use fews_stream::order::{arrange, Order};

    #[test]
    fn config_derivations() {
        let c = FewwConfig::new(1024, 40, 4);
        assert_eq!(c.witness_target(), 10);
        assert_eq!(c.reservoir(), reservoir_size(1024, 4) as usize);
        let c1 = FewwConfig::new(100, 3, 7); // α > d
        assert_eq!(c1.witness_target(), 1);
    }

    #[test]
    fn run_thresholds_match_paper() {
        // d₁ thresholds are max(1, i·d/α) for i = 0..α−1.
        let alg = FewwInsertOnly::new(FewwConfig::new(256, 32, 4), 1);
        let d1s: Vec<u32> = alg.runs.iter().map(|r| r.d1()).collect();
        assert_eq!(d1s, vec![1, 8, 16, 24]);
        assert!(alg.runs.iter().all(|r| r.d2() == 8));
    }

    #[test]
    fn finds_planted_star_all_orders() {
        let (n, d, alpha) = (128u32, 32u32, 4u32);
        for (oi, order) in Order::ALL.into_iter().enumerate() {
            let mut found = 0;
            let trials = 20;
            for t in 0..trials {
                let seed = 1000 + oi as u64 * 100 + t;
                let mut gen_rng = rng_for(seed, 1);
                let g = planted_star(n, 1 << 20, d, 4, &mut gen_rng);
                let mut edges = g.edges.clone();
                arrange(&mut edges, order, g.heavy, &mut rng_for(seed, 2));
                let mut alg = FewwInsertOnly::new(FewwConfig::new(n, d, alpha), seed);
                for e in &edges {
                    alg.push(*e);
                }
                if let Some(out) = alg.result() {
                    assert!(out.verify_against(&g.edges), "fabricated witnesses");
                    assert!(out.size() >= (d / alpha) as usize);
                    found += 1;
                }
            }
            // Theorem 3.2: success w.p. ≥ 1 − 1/n; tolerate tiny slack.
            assert!(
                found >= trials - 1,
                "order {order:?}: only {found}/{trials} succeeded"
            );
        }
    }

    #[test]
    fn alpha_one_returns_full_degree() {
        let mut alg = FewwInsertOnly::new(FewwConfig::new(8, 6, 1), 3);
        for b in 0..6u64 {
            alg.push(Edge::new(2, b));
        }
        let out = alg.result().expect("α=1 keeps everything at this size");
        assert_eq!(out.vertex, 2);
        assert_eq!(out.size(), 6);
    }

    #[test]
    fn no_heavy_vertex_usually_fails() {
        // The promise is violated (max degree < d/α): the algorithm must
        // never fabricate a neighbourhood of size d₂ — i.e. result() is None.
        let mut alg = FewwInsertOnly::new(FewwConfig::new(64, 60, 2), 9);
        for a in 0..64u32 {
            for b in 0..10u64 {
                alg.push(Edge::new(a, b));
            }
        }
        // d₂ = 30 but max degree = 10 < 30: impossible to succeed.
        assert!(alg.result().is_none());
    }

    #[test]
    fn degrees_exact() {
        let mut alg = FewwInsertOnly::new(FewwConfig::new(4, 2, 1), 0);
        for b in 0..5u64 {
            alg.push(Edge::new(1, b));
        }
        alg.push(Edge::new(3, 0));
        assert_eq!(alg.degree(1), 5);
        assert_eq!(alg.degree(3), 1);
        assert_eq!(alg.degree(0), 0);
        assert_eq!(alg.pushed(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let mut alg = FewwInsertOnly::new(FewwConfig::new(4, 2, 1), 0);
        alg.push(Edge::new(4, 0));
    }

    #[test]
    fn space_scales_with_n_and_reservoir() {
        let small = FewwInsertOnly::new(FewwConfig::new(256, 16, 2), 1);
        let big = FewwInsertOnly::new(FewwConfig::new(4096, 16, 2), 1);
        assert!(big.space_bytes() > small.space_bytes());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = planted_star(64, 1 << 16, 16, 2, &mut rng_for(5, 0));
        let run = |seed| {
            let mut alg = FewwInsertOnly::new(FewwConfig::new(64, 16, 2), seed);
            for e in &g.edges {
                alg.push(*e);
            }
            alg.result()
        };
        assert_eq!(run(123), run(123));
    }
}
