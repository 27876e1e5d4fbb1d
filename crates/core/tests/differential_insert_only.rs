//! Differential suite for the **insertion-only** model, mirroring what
//! `crates/sketch/tests/differential_bank.rs` does for insertion-deletion:
//! [`FewwInsertOnly`] must agree **state-for-state** with two independent
//! referees on every generator:
//!
//! 1. A *naive mirror* — Algorithm 2 transcribed directly from the paper's
//!    pseudocode with clarity-first data structures, fed the identical RNG
//!    stream. Degree table, crossing counters, reservoir slots, and witness
//!    lists must match byte-for-byte.
//! 2. An *exact offline reference* — witness lists are fully determined by
//!    reservoir membership: a vertex crosses `d₁` exactly once (degrees only
//!    grow), so a held entry's witnesses must equal the B-sides of its
//!    edges number `d₁ … d₁+d₂−1` in arrival order, computable from the raw
//!    stream with no randomness at all. Degrees and the certified set are
//!    checked against brute force the same way.
//!
//! Coverage: four workload generators (planted star, zipf, DoS trace,
//! Chung–Lu power law) × three seeds × α ∈ {1, 2, 3}, plus proptest-driven
//! random streams.

use fews_common::rng::rng_for;
use fews_core::insertion_only::{FewwConfig, FewwInsertOnly};
use fews_core::wire::{MemoryState, RunState};
use fews_stream::update::degrees;
use fews_stream::Edge;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt};
use std::collections::HashMap;

/// The RNG stream label `FewwInsertOnly::new` derives its coins from. Pinned
/// here on purpose: changing it silently invalidates every existing
/// checkpoint's replay-determinism story, so the differential suite fails
/// loudly if it drifts.
const IO_RNG_STREAM: u64 = 0x0A16_0001;

// ---------------------------------------------------------------------------
// Referee 1: the naive mirror.

/// One Deg-Res-Sampling run, straight from Algorithm 1's text.
struct NaiveRun {
    d1: u32,
    d2: u32,
    /// Reservoir slots in insertion order.
    reservoir: Vec<(u32, Vec<u64>)>,
    /// The `x` counter: vertices seen crossing `d₁`.
    crossings: u64,
}

impl NaiveRun {
    fn process(&mut self, edge: Edge, deg_a: u32, s: usize, rng: &mut impl Rng) {
        if deg_a == self.d1 {
            self.crossings += 1;
            if self.reservoir.len() < s {
                self.reservoir.push((edge.a, Vec::new()));
            } else if rng.random_range(0..self.crossings) < s as u64 {
                // Coin(s/x) accepted: evict a uniform victim, forget its
                // collected edges.
                let victim = rng.random_range(0..self.reservoir.len());
                self.reservoir[victim] = (edge.a, Vec::new());
            }
        }
        for (a, collected) in self.reservoir.iter_mut() {
            if *a == edge.a && collected.len() < self.d2 as usize {
                collected.push(edge.b);
                break; // slots hold distinct vertices
            }
        }
    }
}

/// Algorithm 2: α parallel runs over one shared degree table.
struct NaiveFeww {
    cfg: FewwConfig,
    degrees: Vec<u32>,
    runs: Vec<NaiveRun>,
    rng: StdRng,
}

impl NaiveFeww {
    fn new(cfg: FewwConfig, seed: u64) -> Self {
        let d2 = cfg.witness_target();
        let runs = (0..cfg.alpha)
            .map(|i| NaiveRun {
                d1: (i * d2).max(1),
                d2,
                reservoir: Vec::new(),
                crossings: 0,
            })
            .collect();
        NaiveFeww {
            cfg,
            degrees: vec![0; cfg.n as usize],
            runs,
            rng: rng_for(seed, IO_RNG_STREAM),
        }
    }

    fn push(&mut self, edge: Edge) {
        self.degrees[edge.a as usize] += 1;
        let deg = self.degrees[edge.a as usize];
        let s = self.cfg.reservoir();
        for run in &mut self.runs {
            run.process(edge, deg, s, &mut self.rng);
        }
    }

    /// Export in the production wire shape for byte-level comparison.
    fn state(&self) -> MemoryState {
        MemoryState {
            degrees: self.degrees.clone(),
            runs: self
                .runs
                .iter()
                .map(|r| RunState {
                    d1: r.d1,
                    d2: r.d2,
                    s: self.cfg.reservoir() as u64,
                    crossings: r.crossings,
                    entries: r.reservoir.clone(),
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Referee 2: the exact offline reference.

/// The witnesses a held reservoir entry *must* contain: the B-sides of
/// vertex `a`'s edges number `d₁ … d₁+d₂−1` in arrival order. Pure function
/// of the stream — no randomness.
fn predicted_witnesses(edges: &[Edge], a: u32, d1: u32, d2: u32) -> Vec<u64> {
    let mut deg = 0u32;
    let mut out = Vec::new();
    for e in edges {
        if e.a == a {
            deg += 1;
            if deg >= d1 && out.len() < d2 as usize {
                out.push(e.b);
            }
        }
    }
    out
}

/// Every exact-offline invariant of a captured state.
fn assert_offline_invariants(state: &MemoryState, edges: &[Edge], cfg: &FewwConfig, label: &str) {
    // Degrees are exact.
    assert_eq!(
        state.degrees,
        degrees(edges, cfg.n),
        "{label}: degree table diverged from brute force"
    );
    let mut adjacency: HashMap<u32, Vec<u64>> = HashMap::new();
    for e in edges {
        adjacency.entry(e.a).or_default().push(e.b);
    }
    for (ri, run) in state.runs.iter().enumerate() {
        // Crossings count exactly the vertices that ever reached d₁
        // (degrees only grow, so each vertex crosses at most once).
        let crossed = state.degrees.iter().filter(|&&d| d >= run.d1).count() as u64;
        assert_eq!(
            run.crossings, crossed,
            "{label}: run {ri} crossing counter diverged"
        );
        assert!(
            run.entries.len() <= run.s as usize,
            "{label}: run {ri} overfull reservoir"
        );
        let mut seen = std::collections::HashSet::new();
        for (a, ws) in &run.entries {
            assert!(
                seen.insert(*a),
                "{label}: run {ri} holds vertex {a} in two slots"
            );
            assert_eq!(
                ws,
                &predicted_witnesses(edges, *a, run.d1, run.d2),
                "{label}: run {ri} vertex {a} witness list diverged from the offline prediction"
            );
        }
    }
    // The certified set, when present, is a genuine ⌊d/α⌋-neighbourhood and
    // exactly the first full entry in (run, slot) scan order.
    let first_full = state.runs.iter().find_map(|run| {
        run.entries
            .iter()
            .find(|(_, ws)| ws.len() >= run.d2 as usize)
            .map(|(a, ws)| fews_core::neighbourhood::Neighbourhood::new(*a, ws.clone()))
    });
    assert_eq!(
        state.certified(),
        first_full,
        "{label}: certified() is not the first full entry in scan order"
    );
    if let Some(nb) = state.certified() {
        assert!(
            nb.verify_against(edges),
            "{label}: certified output fabricated witnesses"
        );
        // `Neighbourhood::new` dedups, so the ⌊d/α⌋ size guarantee holds
        // only when the stream was simple (which all generators maintain;
        // random proptest streams may repeat edges).
        let simple = {
            let mut seen = std::collections::HashSet::new();
            edges.iter().all(|e| seen.insert(*e))
        };
        if simple {
            assert!(
                nb.size() >= cfg.witness_target() as usize,
                "{label}: certified neighbourhood under-sized on a simple stream"
            );
        }
    }
}

/// Run production + naive mirror over `edges` and apply both referees.
fn differential(cfg: FewwConfig, seed: u64, edges: &[Edge], label: &str) {
    let mut alg = FewwInsertOnly::new(cfg, seed);
    let mut naive = NaiveFeww::new(cfg, seed);
    for &e in edges {
        alg.push(e);
        naive.push(e);
    }
    let got = MemoryState::capture(&alg);
    let want = naive.state();
    assert_eq!(got, want, "{label}: state diverged from the naive mirror");
    // Byte-level too: encode ∘ capture must agree, not just Eq.
    assert_eq!(got.encode(), want.encode(), "{label}: encodings diverged");
    assert_offline_invariants(&got, edges, &cfg, label);
    assert_eq!(
        alg.result().is_some(),
        got.runs
            .iter()
            .any(|r| r.entries.iter().any(|(_, ws)| ws.len() >= r.d2 as usize)),
        "{label}: result() success disagrees with the captured state"
    );
    assert_eq!(
        alg.result(),
        got.certified(),
        "{label}: result() is not the captured state's certified entry"
    );
}

const SEEDS: [u64; 3] = [11, 42, 2021];

#[test]
fn planted_star_matches_referees() {
    for seed in SEEDS {
        for alpha in [1u32, 2, 3] {
            let g = fews_stream::gen::planted::planted_star(
                96,
                1 << 14,
                24,
                3,
                &mut rng_for(seed, 101),
            );
            let mut edges = g.edges.clone();
            fews_stream::order::shuffle(&mut edges, &mut rng_for(seed, 102));
            differential(
                FewwConfig::new(96, 24, alpha),
                seed,
                &edges,
                &format!("planted seed {seed} alpha {alpha}"),
            );
        }
    }
}

#[test]
fn zipf_matches_referees() {
    for seed in SEEDS {
        for alpha in [1u32, 2, 3] {
            let s = fews_stream::gen::zipf::zipf_stream(128, 1.2, 6_000, &mut rng_for(seed, 103));
            let d = (*s.frequencies.iter().max().expect("n >= 1")).max(1);
            differential(
                FewwConfig::new(128, d, alpha),
                seed,
                &s.edges,
                &format!("zipf seed {seed} alpha {alpha}"),
            );
        }
    }
}

#[test]
fn dos_trace_matches_referees() {
    for seed in SEEDS {
        for alpha in [1u32, 2, 3] {
            let t = fews_stream::gen::dos::dos_trace(
                64,
                1 << 20,
                4_000,
                1.0,
                200,
                &mut rng_for(seed, 104),
            );
            differential(
                FewwConfig::new(64, 200, alpha),
                seed,
                &t.edges,
                &format!("dos seed {seed} alpha {alpha}"),
            );
        }
    }
}

#[test]
fn powerlaw_matches_referees() {
    for seed in SEEDS {
        for alpha in [1u32, 2, 3] {
            let edges = fews_stream::gen::powerlaw::chung_lu_bipartite(
                128,
                1 << 12,
                40,
                0.8,
                &mut rng_for(seed, 105),
            );
            differential(
                FewwConfig::new(128, 40, alpha),
                seed,
                &edges,
                &format!("powerlaw seed {seed} alpha {alpha}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random streams over a small vertex set force heavy reservoir churn
    /// (tiny `s` relative to crossings), the regime where the eviction coin
    /// flips actually fire.
    #[test]
    fn random_streams_match_referees(
        seed in 0u64..1000,
        raw in proptest::collection::vec((0u32..24, 0u64..64), 1..400),
        d in 1u32..12,
        alpha in 1u32..4,
    ) {
        let edges: Vec<Edge> = raw.iter().map(|&(a, b)| Edge::new(a, b)).collect();
        let cfg = FewwConfig::new(24, d, alpha);
        differential(cfg, seed, &edges, "random stream");
    }

    /// Snapshot → encode → decode → restore → capture is the identity on
    /// random mid-stream states (the wire path the net layer ships).
    #[test]
    fn wire_roundtrip_is_identity_on_random_states(
        seed in 0u64..1000,
        raw in proptest::collection::vec((0u32..24, 0u64..64), 1..200),
    ) {
        let cfg = FewwConfig::new(24, 6, 2);
        let mut alg = FewwInsertOnly::new(cfg, seed);
        for &(a, b) in &raw {
            alg.push(Edge::new(a, b));
        }
        let state = alg.snapshot();
        let decoded = MemoryState::decode(&state.encode()).expect("decodes");
        prop_assert_eq!(&decoded, &state);
        let mut fresh = FewwInsertOnly::new(cfg, seed.wrapping_add(1));
        fresh.restore_from(&decoded);
        prop_assert_eq!(MemoryState::capture(&fresh), state);
    }
}
