//! The insertion-deletion FEwW algorithm — **Algorithm 3** of the paper.
//!
//! Two ℓ₀-sampling strategies run side by side (§5):
//!
//! * **Vertex sampling** — before the stream, sample `10·x·ln n` A-vertices
//!   (`x = max(n/α, √n)`); for each, run `10·(d/α)·ln n` ℓ₀-samplers over its
//!   incident edges. Succeeds w.h.p. when ≥ n/x vertices have degree ≥ d/α
//!   (Lemma 5.2 — the *dense* regime).
//! * **Edge sampling** — run `10·(nd/α)(1/x + 1/α)·ln(nm)` ℓ₀-samplers over
//!   the whole edge set. Succeeds w.h.p. when ≤ n/x vertices have degree
//!   ≥ d/α (Lemma 5.3 — the *sparse* regime, where the max-degree vertex
//!   owns a large fraction of all edges).
//!
//! **Theorem 5.4.** Together they give an α-approximation w.h.p. in space
//! `Õ(dn/α²)` for α ≤ √n and `Õ(√n·d/α)` for α > √n.
//!
//! The paper's constants (the two `10·ln` factors) are tuned for the w.h.p.
//! union bounds at asymptotic scale; [`IdConfig::sampler_scale`] scales both
//! sampler-count formulas so laptop-scale experiments stay tractable
//! (`1.0` = paper-faithful; experiments report the scale they used).

use crate::neighbourhood::Neighbourhood;
use fews_common::math::{ilog2_ceil, insertion_deletion_x};
use fews_common::rng::rng_for;
use fews_common::SpaceUsage;
use fews_sketch::bank::SamplerBank;
use fews_sketch::l0::L0Config;
use fews_stream::{Edge, Update};
use std::collections::HashMap;

/// Parameters of the insertion-deletion algorithm.
#[derive(Debug, Clone, Copy)]
pub struct IdConfig {
    /// Number of A-vertices.
    pub n: u32,
    /// Number of B-vertices (`m = poly(n)`).
    pub m: u64,
    /// Degree threshold.
    pub d: u32,
    /// Approximation factor α ≥ 1.
    pub alpha: u32,
    /// Multiplier on both sampler-count formulas (1.0 = paper-faithful).
    pub sampler_scale: f64,
    /// ℓ₀-sampler tuning.
    pub l0: L0Config,
}

impl IdConfig {
    /// Paper-faithful configuration.
    pub fn new(n: u32, m: u64, d: u32, alpha: u32) -> Self {
        assert!(n >= 1 && m >= 1 && d >= 1 && alpha >= 1);
        IdConfig {
            n,
            m,
            d,
            alpha,
            sampler_scale: 1.0,
            l0: L0Config::default(),
        }
    }

    /// Same, with a sampler-count scale for laptop-sized experiments.
    pub fn with_scale(n: u32, m: u64, d: u32, alpha: u32, sampler_scale: f64) -> Self {
        assert!(sampler_scale > 0.0);
        IdConfig {
            sampler_scale,
            ..Self::new(n, m, d, alpha)
        }
    }

    /// The witness target `d₂ = max(1, ⌊d/α⌋)`.
    pub fn witness_target(&self) -> u32 {
        (self.d / self.alpha).max(1)
    }

    /// `x = max(n/α, √n)` — the strategy split point (step 1 of Algorithm 3).
    pub fn x(&self) -> u64 {
        insertion_deletion_x(self.n as u64, self.alpha)
    }

    /// Number of vertices to sample: `min(n, ⌈scale·10·x·ln n⌉)`.
    pub fn vertex_sample_size(&self) -> usize {
        let ln_n = (self.n as f64).ln().max(1.0);
        let want = (self.sampler_scale * 10.0 * self.x() as f64 * ln_n).ceil() as u64;
        want.min(self.n as u64).max(1) as usize
    }

    /// ℓ₀-samplers per sampled vertex: `⌈scale·10·(d/α)·ln n⌉`.
    pub fn samplers_per_vertex(&self) -> usize {
        let ln_n = (self.n as f64).ln().max(1.0);
        let per = self.sampler_scale * 10.0 * self.witness_target() as f64 * ln_n;
        (per.ceil() as usize).max(1)
    }

    /// Global edge ℓ₀-samplers: `⌈scale·10·(nd/α)(1/x + 1/α)·ln(nm)⌉`.
    pub fn edge_sampler_count(&self) -> usize {
        let ln_nm = ((self.n as f64) * (self.m as f64)).ln().max(1.0);
        let nd_over_alpha = self.n as f64 * self.d as f64 / self.alpha as f64;
        let mix = 1.0 / self.x() as f64 + 1.0 / self.alpha as f64;
        let want = self.sampler_scale * 10.0 * nd_over_alpha * mix * ln_nm;
        (want.ceil() as usize).max(1)
    }

    /// Register cells per vertex-strategy sampler (wire-geometry helper):
    /// `levels × rows × 2·sparsity` over the per-vertex universe `0..m`.
    pub fn cells_per_vertex_sampler(&self) -> usize {
        (ilog2_ceil(self.m) as usize + 2) * self.l0.rows * 2 * self.l0.sparsity
    }

    /// Register cells per edge-strategy sampler, over the `n·m` edge
    /// universe.
    pub fn cells_per_edge_sampler(&self) -> usize {
        (ilog2_ceil(self.n as u64 * self.m) as usize + 2) * self.l0.rows * 2 * self.l0.sparsity
    }

    /// Total sampler banks an instance runs: one per sampled vertex plus the
    /// edge bank (the wire geometry).
    pub fn bank_count(&self) -> u64 {
        self.vertex_sample_size() as u64 + 1
    }

    /// Total register cells across every bank.
    pub fn total_cells(&self) -> usize {
        self.vertex_sample_size() * self.samplers_per_vertex() * self.cells_per_vertex_sampler()
            + self.edge_sampler_count() * self.cells_per_edge_sampler()
    }
}

/// Generation sentinel that can never equal a live [`SamplerBank`]
/// generation reachable from 0 by increments — marks a cache slot stale.
const STALE: u64 = u64::MAX;

/// Memoized per-bank decode results, validated by
/// [`SamplerBank::generation`]: a slot is reused verbatim while its bank's
/// generation is unchanged, so a query after `k` updates re-decodes only the
/// banks those updates touched (plus the edge bank, which every update
/// touches) instead of the whole sampler file.
#[derive(Debug)]
struct DecodeCache {
    /// Aligned with `vertex_banks`: generation at decode + the witnesses
    /// (positive net count) that bank currently recovers.
    vertex: Vec<(u64, Vec<u64>)>,
    /// Edge bank: generation at decode + recovered `(a, b)` pairs.
    edge: (u64, Vec<(u32, u64)>),
}

impl DecodeCache {
    fn stale(vertex_banks: usize) -> Self {
        DecodeCache {
            vertex: (0..vertex_banks).map(|_| (STALE, Vec::new())).collect(),
            edge: (STALE, Vec::new()),
        }
    }
}

/// Merge recovered `(vertex, witness)` pairs into the pooled form: sorted by
/// vertex, witness lists sorted and deduplicated — all in place, no
/// intermediate hash maps.
fn group_pairs(mut pairs: Vec<(u32, u64)>) -> Vec<(u32, Vec<u64>)> {
    pairs.sort_unstable();
    pairs.dedup();
    let mut pooled: Vec<(u32, Vec<u64>)> = Vec::new();
    for (a, b) in pairs {
        match pooled.last_mut() {
            Some((last, ws)) if *last == a => ws.push(b),
            _ => pooled.push((a, vec![b])),
        }
    }
    debug_assert!(
        pooled.windows(2).all(|w| w[0].0 < w[1].0)
            && pooled
                .iter()
                .all(|(_, ws)| ws.windows(2).all(|w| w[0] < w[1])),
        "pooled output must stay sorted and deduplicated"
    );
    pooled
}

/// The pooled argmax rule of Algorithm 3 step 4: most witnesses among those
/// reaching `d₂`, ties to the smaller vertex.
fn best_vertex(pooled: Vec<(u32, Vec<u64>)>, d2: usize) -> Option<Neighbourhood> {
    pooled
        .into_iter()
        .filter(|(_, ws)| ws.len() >= d2)
        .max_by_key(|(a, ws)| (ws.len(), std::cmp::Reverse(*a)))
        .map(|(a, ws)| Neighbourhood::new(a, ws))
}

/// The witnesses (positive net count) a vertex bank currently recovers,
/// sorted and deduplicated into `out`. A bank's samplers mostly agree at
/// low degree, so without the per-bank dedup a pool would hold up to
/// `samplers_per_bank` copies of the same pair per sampled vertex — the
/// `--model id` large-`m` memory spike. Deduplicating here bounds every
/// intermediate (and the decode memo) at the *distinct* count.
fn vertex_witnesses(bank: &SamplerBank, out: &mut Vec<u64>) {
    out.clear();
    out.extend(
        (0..bank.len())
            .filter_map(|i| bank.sample(i))
            .filter(|&(_, c)| c > 0)
            .map(|(b, _)| b),
    );
    out.sort_unstable();
    out.dedup();
}

/// The `(vertex, witness)` pairs the edge bank over the `n·m` universe
/// currently recovers, sorted and deduplicated into `out`.
fn edge_witnesses(bank: &SamplerBank, m: u64, out: &mut Vec<(u32, u64)>) {
    out.clear();
    out.extend(
        (0..bank.len())
            .filter_map(|i| bank.sample(i))
            .filter(|&(_, c)| c > 0)
            .map(|(idx, _)| {
                let e = Edge::from_linear_index(idx, m);
                (e.a, e.b)
            }),
    );
    out.sort_unstable();
    out.dedup();
}

/// The α-approximation insertion-deletion streaming algorithm for FEwW.
///
/// Its ℓ₀-samplers live in flat [`SamplerBank`]s: one bank per sampled
/// vertex plus the edge bank. `crates/sketch/tests/differential_bank.rs`
/// pins every bank slot to an exact per-sampler
/// [`fews_sketch::l0::L0Sampler`].
#[derive(Debug)]
pub struct FewwInsertDelete {
    config: IdConfig,
    seed: u64,
    /// `(vertex, bank over 0..m)`, ascending by vertex.
    pub(crate) vertex_banks: Vec<(u32, SamplerBank)>,
    /// vertex → index into `vertex_banks` (push-time routing).
    vertex_index: HashMap<u32, usize>,
    /// Bank over the `n·m` edge-indicator vector.
    pub(crate) edge_bank: SamplerBank,
    pushed: u64,
    /// Lazily built by the first cached query. Generation tags keep it
    /// correct across in-place restores.
    decode_cache: Option<DecodeCache>,
}

impl FewwInsertDelete {
    /// Initialise: draws the vertex sample `A′` (kept in ascending order)
    /// and then all sampler hash functions up front — Algorithm 3 samples
    /// *before* the stream starts.
    pub fn new(config: IdConfig, seed: u64) -> Self {
        let mut rng = rng_for(seed, 0x1D_0001);
        let per_vertex = config.samplers_per_vertex();
        let mut sampled = fews_stream::gen::sample_distinct(
            config.n as u64,
            config.vertex_sample_size(),
            &mut rng,
        );
        sampled.sort_unstable();
        let vertex_banks: Vec<(u32, SamplerBank)> = sampled
            .into_iter()
            .map(|a| {
                (
                    a as u32,
                    SamplerBank::with_config(config.m, per_vertex, config.l0, &mut rng),
                )
            })
            .collect();
        let vertex_index = vertex_banks
            .iter()
            .enumerate()
            .map(|(i, (a, _))| (*a, i))
            .collect();
        let edge_bank = SamplerBank::with_config(
            config.n as u64 * config.m,
            config.edge_sampler_count(),
            config.l0,
            &mut rng,
        );
        FewwInsertDelete {
            config,
            seed,
            vertex_banks,
            vertex_index,
            edge_bank,
            pushed: 0,
            decode_cache: None,
        }
    }

    /// Process one turnstile update.
    pub fn push(&mut self, update: Update) {
        let e = update.edge;
        debug_assert!(e.a < self.config.n && e.b < self.config.m);
        self.pushed += 1;
        let delta = update.delta as i64;
        if let Some(&i) = self.vertex_index.get(&e.a) {
            self.vertex_banks[i].1.update(e.b, delta);
        }
        self.edge_bank.update(e.linear_index(self.config.m), delta);
    }

    /// Process a batch of turnstile updates — register-equivalent to
    /// [`Self::push`]ing them one at a time, but each touched bank absorbs
    /// its share of the batch in one [`SamplerBank::update_batch`] sweep:
    /// the edge bank takes the whole batch, and the vertex-strategy work is
    /// grouped per sampled vertex's bank first (per-bank application order
    /// is free — cell updates are commutative additions). Every touched
    /// bank's generation then bumps once per batch instead of once per
    /// update, so the incremental decode cache stays exactly as selective.
    pub fn push_batch(&mut self, updates: &[Update]) {
        if updates.len() < 2 {
            for &u in updates {
                self.push(u);
            }
            return;
        }
        self.pushed += updates.len() as u64;
        let (n, m) = (self.config.n, self.config.m);
        let mut edge_updates: Vec<(u64, i64)> = Vec::with_capacity(updates.len());
        let mut vertex_updates: Vec<(usize, u64, i64)> = Vec::new();
        for u in updates {
            let e = u.edge;
            debug_assert!(e.a < n && e.b < m);
            let delta = u.delta as i64;
            edge_updates.push((e.linear_index(m), delta));
            if let Some(&i) = self.vertex_index.get(&e.a) {
                vertex_updates.push((i, e.b, delta));
            }
        }
        // Group per bank with a plain sort — stability is unnecessary
        // because per-bank order is free.
        vertex_updates.sort_unstable_by_key(|&(i, _, _)| i);
        let mut group: Vec<(u64, i64)> = Vec::new();
        let mut start = 0;
        while start < vertex_updates.len() {
            let bank_i = vertex_updates[start].0;
            let end = start
                + vertex_updates[start..]
                    .iter()
                    .position(|&(i, _, _)| i != bank_i)
                    .unwrap_or(vertex_updates.len() - start);
            group.clear();
            group.extend(vertex_updates[start..end].iter().map(|&(_, b, d)| (b, d)));
            self.vertex_banks[bank_i].1.update_batch(&group);
            start = end;
        }
        self.edge_bank.update_batch(&edge_updates);
    }

    /// Every `(vertex, witness)` pair the vertex strategy currently
    /// recovers, deduplicated per bank (see [`vertex_witnesses`]).
    fn vertex_strategy_pairs(&self) -> Vec<(u32, u64)> {
        let mut pairs = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        for (a, bank) in &self.vertex_banks {
            vertex_witnesses(bank, &mut scratch);
            pairs.extend(scratch.iter().map(|&b| (*a, b)));
        }
        pairs
    }

    /// Every `(vertex, witness)` pair the edge strategy currently recovers,
    /// deduplicated.
    fn edge_strategy_pairs(&self) -> Vec<(u32, u64)> {
        let mut pairs = Vec::new();
        edge_witnesses(&self.edge_bank, self.config.m, &mut pairs);
        pairs
    }

    /// Diagnostic for the witness-pool intermediate: `(raw, deduped)` pair
    /// counts, where `raw` is every successful sampler draw (what the pool
    /// held per query before per-bank dedup bounded it) and `deduped` is
    /// what [`Self::pooled_witnesses`] actually buffers now. Multiply by
    /// `size_of::<(u32, u64)>()` for resident bytes; the bench reports the
    /// pair.
    pub fn witness_pool_stats(&self) -> (usize, usize) {
        let raw = self
            .vertex_banks
            .iter()
            .map(|(_, bank)| bank)
            .chain(std::iter::once(&self.edge_bank))
            .map(|bank| {
                (0..bank.len())
                    .filter(|&i| matches!(bank.sample(i), Some((_, c)) if c > 0))
                    .count()
            })
            .sum();
        let deduped = self.vertex_strategy_pairs().len() + self.edge_strategy_pairs().len();
        (raw, deduped)
    }

    /// Pool every edge recovered by both strategies, grouped by A-vertex:
    /// the "collect all returned edges" step of Algorithm 3, exposed so a
    /// sharded deployment can union banks across vertex-disjoint instances
    /// (ℓ₀-sampler outputs merge by set union). Sorted by vertex; witness
    /// lists sorted and deduplicated; vertices with no recovered edge are
    /// omitted.
    pub fn pooled_witnesses(&self) -> Vec<(u32, Vec<u64>)> {
        let mut pairs = self.vertex_strategy_pairs();
        pairs.extend(self.edge_strategy_pairs());
        group_pairs(pairs)
    }

    /// Incremental [`Self::pooled_witnesses`]: per-bank decode results are
    /// memoized under the bank's [`SamplerBank::generation`], so only banks
    /// whose registers changed since the previous call are re-decoded — the
    /// cost is O(banks touched since the last query), not O(total state).
    /// Output is identical to `pooled_witnesses` (the incremental-view
    /// differential suites pin this).
    pub fn pooled_witnesses_cached(&mut self) -> Vec<(u32, Vec<u64>)> {
        let banks = self.vertex_banks.len();
        let cache = self
            .decode_cache
            .get_or_insert_with(|| DecodeCache::stale(banks));
        for ((gen, witnesses), (_, bank)) in cache.vertex.iter_mut().zip(&self.vertex_banks) {
            if *gen != bank.generation() {
                vertex_witnesses(bank, witnesses);
                *gen = bank.generation();
            }
        }
        if cache.edge.0 != self.edge_bank.generation() {
            edge_witnesses(&self.edge_bank, self.config.m, &mut cache.edge.1);
            cache.edge.0 = self.edge_bank.generation();
        }
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for ((_, witnesses), (a, _)) in cache.vertex.iter().zip(&self.vertex_banks) {
            pairs.extend(witnesses.iter().map(|&b| (*a, b)));
        }
        pairs.extend_from_slice(&cache.edge.1);
        group_pairs(pairs)
    }

    /// Step 4 of Algorithm 3: pool every recovered edge and output any
    /// vertex owning ≥ d/α distinct witnesses (we return the best such
    /// vertex). `None` = *fail*.
    pub fn result(&self) -> Option<Neighbourhood> {
        best_vertex(
            self.pooled_witnesses(),
            self.config.witness_target() as usize,
        )
    }

    /// Capture the ℓ₀-sampler register file for checkpointing (see
    /// [`crate::wire_id`]).
    pub fn snapshot(&self) -> crate::wire_id::IdWireState {
        crate::wire_id::IdWireState::capture(self)
    }

    /// Install a register file captured from an instance with the same
    /// configuration and seed (hash functions are shared randomness).
    pub fn restore_from(&mut self, state: &crate::wire_id::IdWireState) {
        state.restore(self);
    }

    /// Witnesses recovered by the *vertex* strategy alone (Lemma 5.2
    /// experiments).
    pub fn vertex_strategy_result(&self) -> Option<Neighbourhood> {
        best_vertex(
            group_pairs(self.vertex_strategy_pairs()),
            self.config.witness_target() as usize,
        )
    }

    /// Witnesses recovered by the *edge* strategy alone (Lemma 5.3
    /// experiments).
    pub fn edge_strategy_result(&self) -> Option<Neighbourhood> {
        best_vertex(
            group_pairs(self.edge_strategy_pairs()),
            self.config.witness_target() as usize,
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> &IdConfig {
        &self.config
    }

    /// The master seed the sampler randomness derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of updates processed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Whether a given vertex is in the pre-drawn sample `A′`.
    pub fn vertex_sampled(&self, a: u32) -> bool {
        self.vertex_index.contains_key(&a)
    }

    /// Total ℓ₀-sampler count (diagnostics).
    pub fn sampler_count(&self) -> usize {
        self.vertex_banks
            .iter()
            .map(|(_, b)| b.len())
            .sum::<usize>()
            + self.edge_bank.len()
    }
}

impl SpaceUsage for FewwInsertDelete {
    fn space_bytes(&self) -> usize {
        // `space_bytes` on a bank already counts its struct, which
        // `size_of::<Self>()` or the vector slot holds too; count only the
        // rest of each slot once.
        let slot = std::mem::size_of::<(u32, SamplerBank)>() - std::mem::size_of::<SamplerBank>();
        std::mem::size_of::<Self>()
            + self
                .vertex_banks
                .iter()
                .map(|(_, b)| b.space_bytes() + slot)
                .sum::<usize>()
            + self.vertex_index.len() * std::mem::size_of::<(u32, usize)>()
            + self.edge_bank.space_bytes()
            - std::mem::size_of::<SamplerBank>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_common::rng::rng_for;
    use fews_stream::gen::planted::planted_star;
    use fews_stream::gen::turnstile::churn_stream;
    use fews_stream::update::as_insertions;

    fn small_cfg() -> IdConfig {
        IdConfig::with_scale(64, 4096, 16, 4, 0.05)
    }

    #[test]
    fn config_formulas() {
        let c = IdConfig::new(10_000, 1 << 20, 100, 10);
        assert_eq!(c.x(), 1000); // max(n/α, √n) = max(1000, 100)
        assert_eq!(c.witness_target(), 10);
        // Paper-scale counts are large; the scaled ones shrink linearly.
        let scaled = IdConfig::with_scale(10_000, 1 << 20, 100, 10, 0.01);
        assert!(scaled.vertex_sample_size() <= c.vertex_sample_size());
        assert!(scaled.edge_sampler_count() < c.edge_sampler_count());
    }

    #[test]
    fn finds_planted_star_in_turnstile_stream() {
        let mut found = 0;
        let trials = 10;
        for t in 0..trials {
            let seed = 900 + t;
            let g = planted_star(64, 4096, 16, 2, &mut rng_for(seed, 1));
            let stream = churn_stream(&g.edges, 64, 4096, 1.0, &mut rng_for(seed, 2));
            let mut alg = FewwInsertDelete::new(small_cfg(), seed);
            for u in &stream {
                alg.push(*u);
            }
            if let Some(out) = alg.result() {
                assert!(
                    out.verify_against(&g.edges),
                    "witness not in surviving graph"
                );
                assert!(out.size() >= 4);
                found += 1;
            }
        }
        assert!(found >= trials - 2, "only {found}/{trials} succeeded");
    }

    #[test]
    fn deleted_edges_never_reported() {
        // Insert a decoy super-star then delete it entirely; the surviving
        // graph has a different heavy vertex.
        let seed = 4242;
        let mut updates = Vec::new();
        for b in 0..40u64 {
            updates.push(Update::insert(Edge::new(0, b)));
        }
        let survivor = planted_star(64, 4096, 16, 2, &mut rng_for(seed, 1));
        updates.extend(as_insertions(&survivor.edges));
        for b in 0..40u64 {
            updates.push(Update::delete(Edge::new(0, b)));
        }
        let mut alg = FewwInsertDelete::new(small_cfg(), seed);
        for u in &updates {
            alg.push(*u);
        }
        if let Some(out) = alg.result() {
            assert!(
                out.verify_against(&survivor.edges),
                "reported a deleted edge: {out:?}"
            );
        }
    }

    #[test]
    fn empty_stream_fails_cleanly() {
        let alg = FewwInsertDelete::new(small_cfg(), 1);
        assert!(alg.result().is_none());
    }

    #[test]
    fn fully_cancelled_stream_fails_cleanly() {
        let mut alg = FewwInsertDelete::new(small_cfg(), 2);
        for b in 0..30u64 {
            alg.push(Update::insert(Edge::new(5, b)));
        }
        for b in 0..30u64 {
            alg.push(Update::delete(Edge::new(5, b)));
        }
        assert!(alg.result().is_none(), "reported witnesses from nothing");
    }

    #[test]
    fn sampler_counts_match_config() {
        let cfg = small_cfg();
        let alg = FewwInsertDelete::new(cfg, 3);
        let expected =
            cfg.vertex_sample_size() * cfg.samplers_per_vertex() + cfg.edge_sampler_count();
        assert_eq!(alg.sampler_count(), expected);
    }

    #[test]
    fn pooled_witnesses_sorted_and_consistent_with_result() {
        let seed = 77;
        let g = planted_star(64, 4096, 16, 2, &mut rng_for(seed, 1));
        let mut alg = FewwInsertDelete::new(small_cfg(), seed);
        for u in as_insertions(&g.edges) {
            alg.push(u);
        }
        let pooled = alg.pooled_witnesses();
        assert!(pooled.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
        for (_, ws) in &pooled {
            assert!(!ws.is_empty());
            assert!(ws.windows(2).all(|w| w[0] < w[1]), "dup/unsorted list");
        }
        let d2 = alg.config().witness_target() as usize;
        let best = pooled
            .iter()
            .filter(|(_, ws)| ws.len() >= d2)
            .max_by_key(|(a, ws)| (ws.len(), std::cmp::Reverse(*a)))
            .cloned();
        assert_eq!(
            alg.result(),
            best.map(|(a, ws)| Neighbourhood::new(a, ws)),
            "result() must be the pooled argmax"
        );
    }

    #[test]
    fn snapshot_hooks_roundtrip() {
        let seed = 31;
        let mut alg = FewwInsertDelete::new(small_cfg(), seed);
        for b in 0..8u64 {
            alg.push(Update::insert(Edge::new(7, b)));
        }
        let snap = alg.snapshot();
        let mut fresh = FewwInsertDelete::new(small_cfg(), seed);
        fresh.restore_from(&snap);
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.pooled_witnesses(), alg.pooled_witnesses());
    }

    #[test]
    fn space_grows_with_d_over_alpha() {
        // Theorem 5.4 shape: more witnesses required ⇒ more samplers ⇒ more
        // space.
        let lo = FewwInsertDelete::new(IdConfig::with_scale(64, 4096, 8, 4, 0.05), 1);
        let hi = FewwInsertDelete::new(IdConfig::with_scale(64, 4096, 32, 4, 0.05), 1);
        assert!(hi.space_bytes() > lo.space_bytes());
    }
}
