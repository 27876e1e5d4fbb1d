//! Compact wire format for algorithm memory states.
//!
//! The lower-bound reductions (Theorems 4.1, 4.8, and Lemma 6.3) turn a
//! streaming algorithm into a one-way communication protocol by sending the
//! algorithm's **memory state** from party to party. To measure message
//! sizes honestly, this module serializes the state of
//! [`FewwInsertOnly`](crate::insertion_only::FewwInsertOnly) into a compact
//! LEB128-varint byte string and restores it on the receiving side.
//!
//! The RNG stream is *not* part of the message: in the one-way communication
//! model the parties share public coins (§2 of the paper), which is exactly
//! how the reductions use randomness.
//!
//! The state has two equal-content shapes. [`MemoryState`] holds each
//! witness list as a plain `Vec<u64>`: what the reductions, the tests and
//! the paper-pseudocode mirror read. [`PackedState`] holds the lists as
//! [`WitnessList`]s, the way the algorithm stores them: what the engine
//! publishes, checkpoints and restores. Both write the one layout below
//! through one encoder, so equal states encode to equal bytes:
//!
//! ```text
//! n, n × degree
//! runs, runs × { d₁, d₂, s, crossings, entries,
//!                entries × { vertex, witnesses, witnesses × witness } }
//! ```
//!
//! every field an unsigned LEB128 varint, every witness absolute.

use crate::deg_res::slot_capacity;
use crate::insertion_only::FewwInsertOnly;
use crate::neighbourhood::Neighbourhood;
use crate::witness_list::WitnessList;

/// Append `v` as an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint; advances `pos`.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None; // overlong encoding
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Serialized state of one Deg-Res-Sampling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunState {
    /// Threshold d₁.
    pub d1: u32,
    /// Witness target d₂.
    pub d2: u32,
    /// Reservoir size s.
    pub s: u64,
    /// Crossing counter x.
    pub crossings: u64,
    /// Reservoir members with their collected witnesses, in slot order.
    pub entries: Vec<(u32, Vec<u64>)>,
}

/// Serialized state of the insertion-only algorithm: the degree table plus
/// every run's reservoir (exactly the state Theorem 3.2 charges space for).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryState {
    /// Degrees of all A-vertices.
    pub degrees: Vec<u32>,
    /// Per-run reservoir states.
    pub runs: Vec<RunState>,
}

impl MemoryState {
    /// Extract the state from a running algorithm.
    pub fn capture(alg: &FewwInsertOnly) -> Self {
        MemoryState {
            degrees: alg.degrees_slice().to_vec(),
            runs: alg
                .runs_slice()
                .iter()
                .map(|r| r.reservoir().unpack())
                .collect(),
        }
    }

    /// Install this state into an algorithm instance (which must have been
    /// constructed with the same configuration).
    pub fn restore(&self, alg: &mut FewwInsertOnly) {
        alg.restore_packed(PackedState::from(self));
    }

    /// Merge another state into this one (mergeable-summary style, the way
    /// `fews-engine` combines vertex-disjoint shard states into one global
    /// view).
    ///
    /// Both states must share the run geometry (same number of runs with the
    /// same `(d₁, d₂, s)`). Degree tables are summed elementwise — exact when
    /// the two states saw vertex-disjoint sub-streams, which is the only
    /// partitioning the engine uses. Reservoir entries are concatenated in
    /// `(self, other)` order and crossing counters summed; the merged value
    /// is a **query view** (its occupancy may exceed `s`), not a resumable
    /// algorithm state — don't [`MemoryState::restore`] it.
    pub fn merge(&mut self, other: &MemoryState) {
        assert_eq!(
            self.degrees.len(),
            other.degrees.len(),
            "merge: degree tables disagree on n"
        );
        assert_eq!(
            self.runs.len(),
            other.runs.len(),
            "merge: different run counts"
        );
        for (d, &o) in self.degrees.iter_mut().zip(&other.degrees) {
            *d += o;
        }
        for (run, o) in self.runs.iter_mut().zip(&other.runs) {
            assert!(
                run.d1 == o.d1 && run.d2 == o.d2 && run.s == o.s,
                "merge: run geometry mismatch"
            );
            run.crossings += o.crossings;
            run.entries.extend(o.entries.iter().cloned());
        }
    }

    /// The canonical certified output of this state: scan runs in index
    /// order and reservoir entries in slot order, and return the first
    /// neighbourhood that reached its run's witness target `d₂`.
    ///
    /// This choice is a pure function of the state, so a K-shard merged
    /// view certifies *byte-identical* output for every K.
    pub fn certified(&self) -> Option<Neighbourhood> {
        for run in &self.runs {
            for (a, ws) in &run.entries {
                if ws.len() >= run.d2 as usize {
                    return Some(Neighbourhood::new(*a, ws.clone()));
                }
            }
        }
        None
    }

    /// Witnesses collected for a specific vertex, if it is held by any run's
    /// reservoir: the first-longest list in (run, slot) order, together with
    /// the vertex's exact degree. `None` when no run stores the vertex.
    pub fn certify(&self, v: u32) -> Option<Neighbourhood> {
        let mut best: Option<&Vec<u64>> = None;
        for run in &self.runs {
            for (a, ws) in &run.entries {
                if *a == v && best.is_none_or(|b| ws.len() > b.len()) {
                    best = Some(ws);
                }
            }
        }
        best.map(|ws| Neighbourhood::new(v, ws.clone()))
    }

    /// The `k` sampled vertices with the most collected witnesses, sorted by
    /// (witness count descending, vertex ascending). Deterministic on merged
    /// views — the engine's `top` query.
    pub fn top(&self, k: usize) -> Vec<Neighbourhood> {
        let mut best: std::collections::BTreeMap<u32, &Vec<u64>> =
            std::collections::BTreeMap::new();
        for run in &self.runs {
            for (a, ws) in &run.entries {
                let entry = best.entry(*a).or_insert(ws);
                if ws.len() > entry.len() {
                    *entry = ws;
                }
            }
        }
        let mut ranked: Vec<(u32, &Vec<u64>)> = best.into_iter().collect();
        ranked.sort_by(|(a1, w1), (a2, w2)| w2.len().cmp(&w1.len()).then(a1.cmp(a2)));
        ranked
            .into_iter()
            .take(k)
            .map(|(a, ws)| Neighbourhood::new(a, ws.clone()))
            .collect()
    }

    /// Exact degree of a vertex in this state (the shared degree table).
    pub fn degree(&self, v: u32) -> Option<u32> {
        self.degrees.get(v as usize).copied()
    }

    /// Encode to bytes (the module's layout). Degree tables are small
    /// numbers, so varints keep the message near the information-theoretic
    /// size.
    pub fn encode(&self) -> Vec<u8> {
        PackedState::from(self).encode()
    }

    /// Decode from bytes; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        PackedState::decode(buf).map(|state| state.unpack())
    }
}

/// [`RunState`] with its witness lists packed: one Deg-Res-Sampling run as
/// the algorithm holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRun {
    /// Threshold d₁.
    pub d1: u32,
    /// Witness target d₂.
    pub d2: u32,
    /// Reservoir size s.
    pub s: u64,
    /// Crossing counter x.
    pub crossings: u64,
    /// Reservoir members with their packed witnesses, in slot order. A list
    /// holding `d₂` or more witnesses is frozen, so copies share it.
    pub entries: Vec<(u32, WitnessList)>,
}

impl PackedRun {
    /// The same run with every list decoded.
    pub fn unpack(&self) -> RunState {
        RunState {
            d1: self.d1,
            d2: self.d2,
            s: self.s,
            crossings: self.crossings,
            entries: self
                .entries
                .iter()
                .map(|(a, ws)| (*a, ws.to_vec()))
                .collect(),
        }
    }
}

/// [`MemoryState`] with its witness lists packed: what the engine publishes
/// per partition, and what a checkpoint payload decodes to.
///
/// A clone copies the growing lists' packed bytes and shares every full
/// list's allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedState {
    /// Degrees of all A-vertices.
    pub degrees: Vec<u32>,
    /// Per-run reservoir states.
    pub runs: Vec<PackedRun>,
}

impl PackedState {
    /// The same state with every list decoded.
    pub fn unpack(&self) -> MemoryState {
        MemoryState {
            degrees: self.degrees.clone(),
            runs: self.runs.iter().map(PackedRun::unpack).collect(),
        }
    }

    /// Encode to the module's layout: exactly the bytes
    /// [`MemoryState::encode`] writes for the same contents.
    pub fn encode(&self) -> Vec<u8> {
        encode_layout(&self.degrees, self.runs.iter())
    }

    /// Decode the module's layout straight into packed lists; `None` on
    /// malformed input. No count is trusted as an allocation size before
    /// the bytes left could hold that many elements.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let n = get_count(buf, &mut pos)?;
        let mut degrees = Vec::with_capacity(n);
        for _ in 0..n {
            degrees.push(u32::try_from(get_uvarint(buf, &mut pos)?).ok()?);
        }
        let n_runs = get_count(buf, &mut pos)?;
        let mut runs = Vec::with_capacity(n_runs);
        let mut scratch = Vec::new();
        for _ in 0..n_runs {
            let d1 = u32::try_from(get_uvarint(buf, &mut pos)?).ok()?;
            let d2 = u32::try_from(get_uvarint(buf, &mut pos)?).ok()?;
            let s = get_uvarint(buf, &mut pos)?;
            let crossings = get_uvarint(buf, &mut pos)?;
            let n_entries = get_count(buf, &mut pos)?;
            let mut entries = Vec::with_capacity(slot_capacity(n_entries, s));
            for _ in 0..n_entries {
                let a = u32::try_from(get_uvarint(buf, &mut pos)?).ok()?;
                let n_ws = get_count(buf, &mut pos)?;
                let ws = WitnessList::pack_with(n_ws, n_ws >= d2 as usize, &mut scratch, || {
                    get_uvarint(buf, &mut pos)
                })?;
                entries.push((a, ws));
            }
            runs.push(PackedRun {
                d1,
                d2,
                s,
                crossings,
                entries,
            });
        }
        if pos != buf.len() {
            return None; // trailing bytes
        }
        Some(PackedState { degrees, runs })
    }
}

/// Pack every list; a list holding its run's `d₂` or more is frozen.
impl From<&MemoryState> for PackedState {
    fn from(state: &MemoryState) -> Self {
        let mut scratch = Vec::new();
        PackedState {
            degrees: state.degrees.clone(),
            runs: state
                .runs
                .iter()
                .map(|run| PackedRun {
                    d1: run.d1,
                    d2: run.d2,
                    s: run.s,
                    crossings: run.crossings,
                    entries: run
                        .entries
                        .iter()
                        .map(|(a, ws)| {
                            let full = ws.len() >= run.d2 as usize;
                            let mut it = ws.iter().copied();
                            let list =
                                WitnessList::pack_with(ws.len(), full, &mut scratch, || it.next())
                                    .expect("a list of at most u32::MAX witnesses");
                            (*a, list)
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// The one writer of the module's layout, over a degree table and runs
/// whoever holds them: a [`PackedState`], or a live algorithm's runs
/// ([`FewwInsertOnly::encode`]).
pub(crate) fn encode_layout<'a>(
    degrees: &[u32],
    runs: impl ExactSizeIterator<Item = &'a PackedRun> + Clone,
) -> Vec<u8> {
    // Absolute witnesses take a little more than their packed deltas.
    let hint: usize = runs
        .clone()
        .flat_map(|run| &run.entries)
        .map(|(_, ws)| 2 * ws.byte_len() + 8)
        .sum();
    let mut buf = Vec::with_capacity(degrees.len() + hint + 64);
    put_uvarint(&mut buf, degrees.len() as u64);
    for &d in degrees {
        put_uvarint(&mut buf, d as u64);
    }
    put_uvarint(&mut buf, runs.len() as u64);
    for run in runs {
        put_uvarint(&mut buf, run.d1 as u64);
        put_uvarint(&mut buf, run.d2 as u64);
        put_uvarint(&mut buf, run.s);
        put_uvarint(&mut buf, run.crossings);
        put_uvarint(&mut buf, run.entries.len() as u64);
        for (a, ws) in &run.entries {
            put_uvarint(&mut buf, *a as u64);
            put_uvarint(&mut buf, ws.len() as u64);
            for w in ws.iter() {
                put_uvarint(&mut buf, w);
            }
        }
    }
    buf
}

/// A count read at `pos`, refused unless the bytes left could hold that
/// many elements. Every element costs at least one byte, so a larger count
/// is malformed, and trusting it as an allocation size would let a few
/// bytes demand any amount of memory.
fn get_count(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let n = get_uvarint(buf, pos)?;
    (n <= (buf.len() - *pos) as u64).then_some(n as usize)
}

/// Append a [`SpaceConfig`] in the shared varint layout used by both the
/// `fews-net` protocol (create-space / list-spaces bodies) and the
/// `fews-engine` space directory files. The `scale` factor is serialized as
/// its IEEE-754 bit pattern, so configs round-trip bit-exactly.
pub fn put_space_config(buf: &mut Vec<u8>, cfg: &fews_common::SpaceConfig) {
    buf.push(match cfg.model {
        fews_common::SpaceModel::InsertOnly => 0,
        fews_common::SpaceModel::InsertDelete => 1,
    });
    put_uvarint(buf, cfg.n as u64);
    put_uvarint(buf, cfg.m);
    put_uvarint(buf, cfg.d as u64);
    put_uvarint(buf, cfg.alpha as u64);
    put_uvarint(buf, cfg.scale.to_bits());
    put_uvarint(buf, cfg.partitions as u64);
    put_uvarint(buf, cfg.quota_bytes);
}

/// Read a [`SpaceConfig`] written by [`put_space_config`]; advances `pos`.
/// Returns `None` on truncation, an unknown model tag, out-of-range fields,
/// or a non-finite scale — a decoded config always passes
/// `SpaceConfig::validate` range checks for its integer fields.
pub fn get_space_config(buf: &[u8], pos: &mut usize) -> Option<fews_common::SpaceConfig> {
    let model = match *buf.get(*pos)? {
        0 => fews_common::SpaceModel::InsertOnly,
        1 => fews_common::SpaceModel::InsertDelete,
        _ => return None,
    };
    *pos += 1;
    let n = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    let m = get_uvarint(buf, pos)?;
    let d = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    let alpha = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    let scale = f64::from_bits(get_uvarint(buf, pos)?);
    let partitions = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    let quota_bytes = get_uvarint(buf, pos)?;
    let cfg = fews_common::SpaceConfig {
        model,
        n,
        m,
        d,
        alpha,
        scale,
        partitions,
        quota_bytes,
    };
    cfg.validate().ok()?;
    Some(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion_only::FewwConfig;
    use fews_stream::Edge;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1 << 40);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf, &mut pos), None);
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        for v in 0..128u64 {
            put_uvarint(&mut buf, v);
        }
        assert_eq!(buf.len(), 128); // one byte each
    }

    fn run_alg(edges: &[Edge]) -> FewwInsertOnly {
        let mut alg = FewwInsertOnly::new(FewwConfig::new(32, 8, 2), 5);
        for &e in edges {
            alg.push(e);
        }
        alg
    }

    #[test]
    fn state_roundtrip_through_bytes() {
        let edges: Vec<Edge> = (0..8u64)
            .map(|b| Edge::new(3, b))
            .chain((0..16u32).map(|a| Edge::new(a, 100 + a as u64)))
            .collect();
        let alg = run_alg(&edges);
        let state = MemoryState::capture(&alg);
        let bytes = state.encode();
        let back = MemoryState::decode(&bytes).expect("decodes");
        assert_eq!(back, state);
    }

    #[test]
    fn restored_algorithm_continues_correctly() {
        // Party 1 processes half the stream, ships its state; party 2
        // restores and processes the rest. The final result must certify a
        // genuine neighbourhood.
        let first: Vec<Edge> = (0..4u64).map(|b| Edge::new(3, b)).collect();
        let second: Vec<Edge> = (4..8u64).map(|b| Edge::new(3, b)).collect();

        let mut party1 = FewwInsertOnly::new(FewwConfig::new(32, 8, 2), 5);
        for &e in &first {
            party1.push(e);
        }
        let msg = MemoryState::capture(&party1).encode();

        let mut party2 = FewwInsertOnly::new(FewwConfig::new(32, 8, 2), 5);
        MemoryState::decode(&msg).unwrap().restore(&mut party2);
        for &e in &second {
            party2.push(e);
        }
        assert_eq!(party2.degree(3), 8);
        let out = party2.result().expect("degree-8 vertex with α = 2");
        assert_eq!(out.vertex, 3);
        assert!(out.size() >= 4);
    }

    /// Hand-built state: runs with explicit entries, no RNG involved.
    fn state(n: usize, runs: Vec<RunState>) -> MemoryState {
        MemoryState {
            degrees: vec![0; n],
            runs,
        }
    }

    fn run_state(d1: u32, d2: u32, entries: Vec<(u32, Vec<u64>)>) -> RunState {
        RunState {
            d1,
            d2,
            s: 8,
            crossings: entries.len() as u64,
            entries,
        }
    }

    #[test]
    fn merge_sums_degrees_and_concatenates_entries() {
        let mut left = state(4, vec![run_state(1, 2, vec![(0, vec![5, 6])])]);
        left.degrees = vec![2, 0, 0, 0];
        let mut right = state(4, vec![run_state(1, 2, vec![(2, vec![7])])]);
        right.degrees = vec![0, 0, 1, 0];
        left.merge(&right);
        assert_eq!(left.degrees, vec![2, 0, 1, 0]);
        assert_eq!(left.runs[0].crossings, 2);
        assert_eq!(left.runs[0].entries, vec![(0, vec![5, 6]), (2, vec![7])]);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn merge_rejects_mismatched_runs() {
        let mut left = state(4, vec![run_state(1, 2, vec![])]);
        let right = state(4, vec![run_state(1, 3, vec![])]);
        left.merge(&right);
    }

    #[test]
    fn certified_is_first_in_run_then_slot_order() {
        // Run 0 has an undersized entry; run 1's *second* slot is full — but
        // run 0's second entry fills first in scan order.
        let s = state(
            8,
            vec![
                run_state(1, 2, vec![(3, vec![9]), (5, vec![1, 2])]),
                run_state(2, 2, vec![(7, vec![4, 5])]),
            ],
        );
        let nb = s.certified().expect("slot (run 0, entry 1) is full");
        assert_eq!(nb.vertex, 5);
        assert_eq!(nb.witnesses, vec![1, 2]);
    }

    #[test]
    fn certify_picks_longest_list_for_vertex() {
        let s = state(
            8,
            vec![
                run_state(1, 4, vec![(3, vec![9])]),
                run_state(2, 4, vec![(3, vec![1, 2, 8])]),
            ],
        );
        assert_eq!(s.certify(3).unwrap().witnesses, vec![1, 2, 8]);
        assert!(s.certify(4).is_none());
    }

    #[test]
    fn top_ranks_by_count_then_vertex() {
        let s = state(
            8,
            vec![run_state(
                1,
                9,
                vec![(4, vec![1]), (2, vec![5, 6]), (6, vec![7, 8])],
            )],
        );
        let top = s.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].vertex, top[0].size()), (2, 2));
        assert_eq!((top[1].vertex, top[1].size()), (6, 2));
        assert_eq!(s.top(10).len(), 3);
    }

    #[test]
    fn snapshot_hooks_roundtrip() {
        let edges: Vec<Edge> = (0..8u64).map(|b| Edge::new(3, b)).collect();
        let alg = run_alg(&edges);
        let snap = alg.snapshot();
        assert_eq!(snap, MemoryState::capture(&alg));
        let mut fresh = FewwInsertOnly::new(*alg.config(), 5);
        fresh.restore_from(&snap);
        assert_eq!(MemoryState::capture(&fresh), snap);
        assert_eq!(fresh.degree(3), 8);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MemoryState::decode(&[0xff, 0xff]).is_none());
        let edges: Vec<Edge> = (0..4u32).map(|a| Edge::new(a, 0)).collect();
        let mut bytes = MemoryState::capture(&run_alg(&edges)).encode();
        bytes.push(0); // trailing byte
        assert!(MemoryState::decode(&bytes).is_none());
    }

    /// A count of 2⁴⁰ or `u64::MAX` at any level — degrees, runs, entries,
    /// witnesses — with nothing behind it is malformed, refused before it
    /// sizes an allocation.
    #[test]
    fn decode_refuses_counts_past_the_bytes_left() {
        for huge in [1u64 << 40, u64::MAX] {
            let prefixes: [&[u64]; 4] = [&[], &[0], &[0, 1, 1, 1, 1, 0], &[0, 1, 1, 1, 1, 0, 1, 0]];
            for prefix in prefixes {
                let mut buf = Vec::new();
                for &v in prefix.iter().chain([huge, 0].iter()) {
                    put_uvarint(&mut buf, v);
                }
                assert!(
                    PackedState::decode(&buf).is_none(),
                    "{prefix:?} then {huge}"
                );
                assert!(
                    MemoryState::decode(&buf).is_none(),
                    "{prefix:?} then {huge}"
                );
            }
        }
    }

    /// The packed and plain shapes encode to the same bytes and decode into
    /// each other, and full lists come back frozen.
    #[test]
    fn packed_and_plain_states_share_one_layout() {
        let edges: Vec<Edge> = (0..8u64)
            .map(|b| Edge::new(3, 1_000_000 + b))
            .chain((0..16u32).map(|a| Edge::new(a, 100 + a as u64)))
            .collect();
        let alg = run_alg(&edges);
        let plain = alg.snapshot();
        let packed = alg.packed();
        assert_eq!(packed.unpack(), plain);
        assert_eq!(PackedState::from(&plain), packed);
        let bytes = plain.encode();
        assert_eq!(packed.encode(), bytes);
        assert_eq!(alg.encode(), bytes);
        let back = PackedState::decode(&bytes).expect("decodes");
        assert_eq!(back, packed);
        for run in &back.runs {
            for (_, ws) in &run.entries {
                assert_eq!(ws.is_frozen(), ws.len() >= run.d2 as usize);
            }
        }
        assert!(back
            .runs
            .iter()
            .flat_map(|r| &r.entries)
            .any(|(_, ws)| ws.is_frozen()));
    }

    #[test]
    fn space_config_roundtrips_bit_exactly() {
        use fews_common::SpaceConfig;
        let configs = [
            SpaceConfig::insert_only(64, 8, 2),
            SpaceConfig::insert_delete(4096, 1 << 40, 100, 3, 0.037)
                .with_partitions(7)
                .with_quota(1 << 30),
        ];
        for cfg in configs {
            let mut buf = Vec::new();
            put_space_config(&mut buf, &cfg);
            let mut pos = 0;
            assert_eq!(get_space_config(&buf, &mut pos), Some(cfg));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn space_config_decode_rejects_damage() {
        let cfg = fews_common::SpaceConfig::insert_delete(64, 1 << 10, 8, 2, 0.1);
        let mut buf = Vec::new();
        put_space_config(&mut buf, &cfg);
        // Truncation at every length must fail cleanly, never panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(get_space_config(&buf[..cut], &mut pos).is_none());
        }
        // Unknown model tag.
        let mut bad = buf.clone();
        bad[0] = 9;
        let mut pos = 0;
        assert!(get_space_config(&bad, &mut pos).is_none());
    }
}
