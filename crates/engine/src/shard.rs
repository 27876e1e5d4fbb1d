//! Shard worker threads.
//!
//! A shard owns the partitions `p` with `p ≡ shard (mod K)` and processes
//! commands from its bounded channel strictly in order. Because queries and
//! snapshots travel through the same channel as update batches, a reply is
//! only produced after every previously sent batch has been applied — the
//! channel itself is the consistency barrier.

use crate::{partition_seed, EngineConfig, ModelSpec};
use fews_common::SpaceUsage;
use fews_core::insertion_deletion::FewwInsertDelete;
use fews_core::insertion_only::FewwInsertOnly;
use fews_core::wire::PackedState;
use fews_core::wire_id::IdWireState;
use fews_stream::Update;
use std::sync::mpsc::{Receiver, Sender};

/// Commands a shard understands. Replies go over one-shot channels.
pub(crate) enum ShardMsg {
    /// Apply a routed batch of updates (every update's vertex belongs to
    /// one of this shard's partitions).
    Batch(Vec<Update>),
    /// Report the query views of the named (dirty) partitions plus the
    /// shard's counters, in one reply — the engine's combined
    /// view-sync/statistics barrier. An empty partition list is a pure
    /// stats round-trip.
    Refresh(Vec<u32>, Sender<(Vec<(u32, PartView)>, ShardStatsMsg)>),
    /// Report every owned partition's wire-format snapshot.
    Snapshot(Sender<Vec<(u32, Vec<u8>)>>),
    /// Phase 1 of restore: decode and validate snapshots for the named
    /// partitions, holding them pending. Installs nothing.
    PrepareRestore(Vec<(u32, Vec<u8>)>, Sender<Result<(), String>>),
    /// Phase 2 of restore: install the pending snapshots (infallible — they
    /// were validated in phase 1).
    CommitRestore(Sender<()>),
    /// Drop any pending snapshots (another shard failed phase 1).
    AbortRestore,
}

/// One partition's contribution to the global query view. `Arc`-shared so
/// the engine's memo and every published [`crate::GlobalView`] reuse one
/// copy — an unchanged partition is never re-cloned.
#[derive(Debug)]
pub(crate) enum PartView {
    /// Insertion-only: the packed state (degree table + reservoirs). Taking
    /// it copies the growing lists' bytes and shares every full list with
    /// the partition.
    Io(std::sync::Arc<PackedState>),
    /// Insertion-deletion: recovered witnesses pooled per vertex.
    Id(Vec<(u32, Vec<u64>)>),
}

/// Raw per-shard counters (wrapped into [`crate::ShardStats`] engine-side).
pub(crate) struct ShardStatsMsg {
    pub partitions: usize,
    pub processed: u64,
    pub batches: u64,
    pub space_bytes: usize,
}

/// One partition's algorithm instance.
enum PartitionAlg {
    Io(FewwInsertOnly),
    Id(FewwInsertDelete),
}

/// A decoded, validated snapshot awaiting [`ShardMsg::CommitRestore`].
pub(crate) enum DecodedState {
    Io(PackedState),
    Id(IdWireState),
}

impl PartitionAlg {
    fn new(cfg: &EngineConfig, partition: u32) -> Self {
        let seed = partition_seed(cfg.seed, partition);
        match cfg.model {
            ModelSpec::InsertOnly(c) => PartitionAlg::Io(FewwInsertOnly::new(c, seed)),
            ModelSpec::InsertDelete(c) => PartitionAlg::Id(FewwInsertDelete::new(c, seed)),
        }
    }

    fn push(&mut self, u: Update) {
        match self {
            PartitionAlg::Io(alg) => {
                assert!(
                    u.delta > 0,
                    "insertion-only engine received a deletion for edge {:?}",
                    u.edge
                );
                alg.push(u.edge);
            }
            PartitionAlg::Id(alg) => alg.push(u),
        }
    }

    /// Apply a group of updates routed to this partition.
    /// Insertion-deletion hands the whole group to the banked batch path
    /// (one cache-linear sweep per touched sampler bank); insertion-only
    /// has no batch-shaped work and pushes one at a time.
    fn push_batch(&mut self, updates: &[Update]) {
        match self {
            PartitionAlg::Io(_) => {
                for &u in updates {
                    self.push(u);
                }
            }
            PartitionAlg::Id(alg) => alg.push_batch(updates),
        }
    }

    /// `&mut` because the insertion-deletion path memoizes per-bank decodes
    /// inside the algorithm (only banks touched since the last view are
    /// re-decoded); the reported view itself is a pure value.
    fn view(&mut self) -> PartView {
        match self {
            PartitionAlg::Io(alg) => PartView::Io(std::sync::Arc::new(alg.packed())),
            PartitionAlg::Id(alg) => PartView::Id(alg.pooled_witnesses_cached()),
        }
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        match self {
            PartitionAlg::Io(alg) => alg.encode(),
            PartitionAlg::Id(alg) => alg.snapshot().encode(),
        }
    }

    /// Install a state [`validate_payload`] produced for this same
    /// partition. Cannot fail.
    fn install(&mut self, state: DecodedState) {
        match (self, state) {
            (PartitionAlg::Io(alg), DecodedState::Io(s)) => alg.restore_packed(s),
            (PartitionAlg::Id(alg), DecodedState::Id(s)) => alg.restore_from(&s),
            _ => unreachable!("validate_payload matched the model"),
        }
    }

    fn space_bytes(&self) -> usize {
        match self {
            PartitionAlg::Io(alg) => alg.space_bytes(),
            PartitionAlg::Id(alg) => alg.space_bytes(),
        }
    }
}

/// Decode and validate `bytes` as partition `p` of an engine serving `cfg`
/// — the rule restore's phase 1 applies, which reads only the model
/// config — so a bad checkpoint surfaces as an `Err` before anything is
/// installed.
pub(crate) fn validate_payload(
    cfg: &EngineConfig,
    p: u32,
    bytes: &[u8],
) -> Result<DecodedState, String> {
    match cfg.model {
        ModelSpec::InsertOnly(c) => {
            let state = PackedState::decode(bytes)
                .ok_or_else(|| "malformed insertion-only partition payload".to_string())?;
            if state.degrees.len() != c.n as usize {
                return Err(format!(
                    "snapshot has {} vertices, engine expects {}",
                    state.degrees.len(),
                    c.n
                ));
            }
            if state.runs.len() != c.alpha as usize {
                return Err(format!(
                    "snapshot has {} runs, engine expects α = {}",
                    state.runs.len(),
                    c.alpha
                ));
            }
            let d2 = c.witness_target();
            for (r, run) in state.runs.iter().enumerate() {
                // Run r's threshold, as `FewwInsertOnly::new` sets it.
                let d1 = (r as u32 * d2).max(1);
                if run.d1 != d1 || run.d2 != d2 || run.s != c.reservoir() as u64 {
                    return Err("snapshot run geometry disagrees with engine config".into());
                }
                if run.entries.len() as u64 > run.s {
                    return Err("snapshot reservoir overflows its slot count".into());
                }
                // Entries the algorithm cannot produce: restoring one
                // would serve it, and a duplicate would silently drop the
                // first list.
                for (a, ws) in &run.entries {
                    if *a >= c.n {
                        return Err(format!("run {r} holds vertex {a}, past n = {}", c.n));
                    }
                    if crate::partition_of(*a, cfg.partitions) != p as usize {
                        return Err(format!("run {r} holds vertex {a} of another partition"));
                    }
                    if ws.len() > run.d2 as usize {
                        return Err(format!(
                            "run {r} holds {} witnesses of vertex {a}, past d2 = {}",
                            ws.len(),
                            run.d2
                        ));
                    }
                }
                let mut vertices: Vec<u32> = run.entries.iter().map(|(a, _)| *a).collect();
                vertices.sort_unstable();
                if let Some(w) = vertices.windows(2).find(|w| w[0] == w[1]) {
                    return Err(format!("run {r} holds vertex {} twice", w[0]));
                }
                // A vertex enters a run at the edge lifting it to d₁, so a
                // held vertex below d₁ would enter a second slot.
                if let Some(&a) = vertices
                    .iter()
                    .find(|&&a| state.degrees[a as usize] < run.d1)
                {
                    return Err(format!(
                        "run {r} holds vertex {a} of degree {}, below d1 = {}",
                        state.degrees[a as usize], run.d1
                    ));
                }
            }
            Ok(DecodedState::Io(state))
        }
        ModelSpec::InsertDelete(c) => {
            let state = IdWireState::decode(bytes).map_err(|e| e.to_string())?;
            let (banks, cells) = (c.bank_count(), c.total_cells());
            if state.banks != banks || state.registers.len() != cells {
                return Err(format!(
                    "snapshot geometry ({} banks / {} cells) disagrees with engine config \
                     ({banks} / {cells})",
                    state.banks,
                    state.registers.len()
                ));
            }
            Ok(DecodedState::Id(state))
        }
    }
}

/// Worker entry point: build the owned partitions, then drain the channel
/// until every sender is gone.
pub(crate) fn run_shard(shard: usize, cfg: EngineConfig, rx: Receiver<ShardMsg>) {
    // Owned partitions in ascending order; partition p lives at index p / K.
    let mut parts: Vec<(u32, PartitionAlg)> = (0..cfg.partitions)
        .filter(|p| p % cfg.shards == shard)
        .map(|p| (p as u32, PartitionAlg::new(&cfg, p as u32)))
        .collect();
    let local = |p: usize| p / cfg.shards;
    let mut processed = 0u64;
    let mut batches = 0u64;
    // Decoded snapshots held between PrepareRestore and CommitRestore.
    let mut pending_restore: Option<Vec<(u32, DecodedState)>> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(mut updates) => {
                processed += updates.len() as u64;
                batches += 1;
                // Group the batch per owned partition, then apply each
                // group in one `push_batch` call — what lets the
                // insertion-deletion banks sweep their cells once per
                // batch instead of once per update. The batch arrives in
                // channel order, but per-partition order is all that could
                // matter and a stable sort preserves it.
                updates.sort_by_key(|u| crate::partition_of(u.edge.a, cfg.partitions));
                let mut rest: &[Update] = &updates;
                while let Some(first) = rest.first() {
                    let p = crate::partition_of(first.edge.a, cfg.partitions);
                    debug_assert_eq!(p % cfg.shards, shard, "misrouted update");
                    let len = rest
                        .iter()
                        .position(|u| crate::partition_of(u.edge.a, cfg.partitions) != p)
                        .unwrap_or(rest.len());
                    parts[local(p)].1.push_batch(&rest[..len]);
                    rest = &rest[len..];
                }
            }
            ShardMsg::Refresh(dirty, reply) => {
                let views = dirty
                    .iter()
                    .map(|&p| {
                        debug_assert_eq!(p as usize % cfg.shards, shard, "misrouted partition");
                        (p, parts[local(p as usize)].1.view())
                    })
                    .collect();
                let stats = ShardStatsMsg {
                    partitions: parts.len(),
                    processed,
                    batches,
                    space_bytes: parts.iter().map(|(_, alg)| alg.space_bytes()).sum(),
                };
                let _ = reply.send((views, stats));
            }
            ShardMsg::Snapshot(reply) => {
                let snaps = parts
                    .iter()
                    .map(|(p, alg)| (*p, alg.snapshot_bytes()))
                    .collect();
                let _ = reply.send(snaps);
            }
            ShardMsg::PrepareRestore(payloads, reply) => {
                pending_restore = None;
                let mut decoded = Vec::with_capacity(payloads.len());
                let mut outcome = Ok(());
                for (p, bytes) in &payloads {
                    debug_assert_eq!(*p as usize % cfg.shards, shard, "misrouted payload");
                    match validate_payload(&cfg, *p, bytes) {
                        Ok(state) => decoded.push((*p, state)),
                        Err(e) => {
                            outcome = Err(format!("partition {p}: {e}"));
                            break;
                        }
                    }
                }
                if outcome.is_ok() {
                    pending_restore = Some(decoded);
                }
                let _ = reply.send(outcome);
            }
            ShardMsg::CommitRestore(reply) => {
                for (p, state) in pending_restore.take().expect("commit without prepare") {
                    parts[local(p as usize)].1.install(state);
                }
                let _ = reply.send(());
            }
            ShardMsg::AbortRestore => pending_restore = None,
        }
    }
}
