//! The engine front end: routing, backpressure, queries, checkpointing.

use crate::checkpoint::{self, CheckpointError};
use crate::shard::{self, run_shard, PartView, ShardMsg, ShardStatsMsg};
use crate::view::GlobalView;
use crate::{partition_of, EngineConfig, ModelSpec};
use fews_stream::Update;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ingest counters and space usage of one shard.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index (`0..K`).
    pub shard: usize,
    /// Partitions owned by this shard.
    pub partitions: usize,
    /// Updates applied so far.
    pub processed: u64,
    /// Batches applied so far.
    pub batches: u64,
    /// Measured state size of the shard's partitions (`SpaceUsage`).
    pub space_bytes: usize,
}

/// A consistent engine-wide statistics snapshot.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Updates accepted by [`Engine::push`] (equals the sum of per-shard
    /// `processed` — the stats round-trip is a barrier).
    pub ingested: u64,
    /// Wall-clock time since the engine started.
    pub uptime: Duration,
    /// Per-shard counters, in shard order.
    pub shards: Vec<ShardStats>,
}

impl EngineStats {
    /// Total measured state size across shards.
    pub fn space_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.space_bytes).sum()
    }

    /// Average ingest rate over the engine's uptime.
    pub fn updates_per_sec(&self) -> f64 {
        self.ingested as f64 / self.uptime.as_secs_f64().max(1e-9)
    }
}

/// One shard's answer to a refresh barrier: rebuilt views for its dirty
/// partitions plus its running counters.
type RefreshReply = (Vec<(u32, PartView)>, ShardStatsMsg);

/// An in-flight refresh barrier: [`Engine::refresh`]'s shard round-trip
/// split out so the potentially long wait — the shards draining their
/// queues and re-decoding touched sampler banks — can happen **without**
/// borrowing the engine. Obtain with [`Engine::refresh_begin`], block on
/// [`RefreshBarrier::wait`] with every engine borrow released, then hand
/// the result to [`Engine::refresh_install`].
pub struct RefreshBarrier {
    replies: Vec<Receiver<RefreshReply>>,
    /// Routed epochs captured when the barrier was sent: what the barrier
    /// actually covers, and what the installed memos are tagged with.
    epochs: Vec<u64>,
    any_dirty: bool,
    /// Routed-update count at send time (the publish-consistent `ingested`).
    ingested: u64,
}

impl RefreshBarrier {
    /// Block until every shard has answered. Borrows nothing from the
    /// engine — ingest may proceed concurrently; updates routed while this
    /// waits are simply not covered by the barrier.
    pub fn wait(self) -> RefreshDone {
        let mut views = Vec::new();
        let mut stats = Vec::with_capacity(self.replies.len());
        for rx in self.replies {
            let (v, s) = rx.recv().expect("shard worker died");
            views.extend(v);
            stats.push(s);
        }
        RefreshDone {
            views,
            stats,
            epochs: self.epochs,
            any_dirty: self.any_dirty,
            ingested: self.ingested,
        }
    }
}

/// A completed refresh barrier, ready for [`Engine::refresh_install`].
pub struct RefreshDone {
    views: Vec<(u32, PartView)>,
    stats: Vec<ShardStatsMsg>,
    epochs: Vec<u64>,
    any_dirty: bool,
    ingested: u64,
}

/// A running sharded engine. See the crate docs for the architecture.
///
/// Dropping the engine disconnects and joins every worker. Workers panic
/// only on programming errors (misrouted updates, deletions fed to an
/// insertion-only engine); operational failures (bad checkpoints) surface
/// as `Result`s.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    senders: Vec<SyncSender<ShardMsg>>,
    pending: Vec<Vec<Update>>,
    handles: Vec<JoinHandle<()>>,
    ingested: u64,
    started: Instant,
    /// Per-partition update epoch: how many updates [`Engine::push`] has
    /// routed to each partition. The shard applies them asynchronously, but
    /// the channel is FIFO, so after a reply round-trip the partition's
    /// state reflects exactly this epoch.
    epochs: Vec<u64>,
    /// Per-partition memo of the partition's view contribution, tagged with
    /// the epoch it was built at. `None` = never gathered / invalidated.
    /// (Not part of the `Debug` surface — `PartView` is an internal value.)
    memos: Vec<Option<(u64, PartView)>>,
    /// The combined global view assembled from the memos; shared out by
    /// [`Engine::view`] so an unchanged engine answers queries in O(1).
    cached_view: Option<Arc<GlobalView>>,
}

impl Engine {
    /// Spawn `cfg.shards` workers and return the running engine.
    pub fn start(cfg: EngineConfig) -> Engine {
        cfg.validate();
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (tx, rx) = sync_channel(cfg.queue_depth);
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("fews-shard-{shard}"))
                    .spawn(move || run_shard(shard, cfg, rx))
                    .expect("spawn shard worker"),
            );
        }
        Engine {
            senders,
            pending: vec![Vec::with_capacity(cfg.batch); cfg.shards],
            handles,
            ingested: 0,
            started: Instant::now(),
            epochs: vec![0; cfg.partitions],
            memos: (0..cfg.partitions).map(|_| None).collect(),
            cached_view: None,
            cfg,
        }
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Route one update into its shard's batch; sends the batch (blocking on
    /// backpressure when the shard's queue is full) once it reaches
    /// `cfg.batch` updates.
    pub fn push(&mut self, u: Update) {
        let partition = partition_of(u.edge.a, self.cfg.partitions);
        let shard = partition % self.cfg.shards;
        self.epochs[partition] += 1;
        self.pending[shard].push(u);
        self.ingested += 1;
        if self.pending[shard].len() >= self.cfg.batch {
            self.dispatch(shard);
        }
    }

    /// Ingest a whole batch of updates.
    pub fn ingest<I: IntoIterator<Item = Update>>(&mut self, updates: I) {
        for u in updates {
            self.push(u);
        }
    }

    /// Send every partially filled batch to its shard.
    pub fn flush(&mut self) {
        for shard in 0..self.cfg.shards {
            if !self.pending[shard].is_empty() {
                self.dispatch(shard);
            }
        }
    }

    fn dispatch(&mut self, shard: usize) {
        let batch = std::mem::replace(&mut self.pending[shard], Vec::with_capacity(self.cfg.batch));
        self.senders[shard]
            .send(ShardMsg::Batch(batch))
            .expect("shard worker died");
    }

    /// Whether every partition memo is up to date with the routed epochs
    /// (and a combined view has been assembled from them).
    fn view_is_current(&self) -> bool {
        self.cached_view.is_some()
            && self
                .memos
                .iter()
                .zip(&self.epochs)
                .all(|(memo, &epoch)| matches!(memo, Some((e, _)) if *e == epoch))
    }

    /// Flush, bring stale partition memos up to date, and collect shard
    /// counters — all in **one** reply round-trip per shard (a full
    /// barrier). Only partitions whose epoch advanced since their memo was
    /// built are re-gathered; for the insertion-deletion model the shard
    /// additionally re-decodes only the sampler banks those updates touched.
    fn sync(&mut self) -> Vec<ShardStatsMsg> {
        let done = self.refresh_begin().wait();
        self.install(done)
    }

    /// Send the refresh barrier without waiting for it: flush, compute the
    /// stale partitions, hand every shard its re-gather list, and return a
    /// [`RefreshBarrier`] owning the reply channels. The caller may drop
    /// every engine borrow while the shards drain their queues and
    /// re-decode — the expensive part — then re-borrow for
    /// [`Engine::refresh_install`]. This is what lets a serving layer's
    /// background refresher publish continuously without ever blocking
    /// ingest on decode work.
    pub fn refresh_begin(&mut self) -> RefreshBarrier {
        self.flush();
        let mut dirty_by_shard: Vec<Vec<u32>> = vec![Vec::new(); self.cfg.shards];
        let mut any_dirty = false;
        for p in 0..self.cfg.partitions {
            let clean = matches!(&self.memos[p], Some((e, _)) if *e == self.epochs[p]);
            if !clean {
                dirty_by_shard[p % self.cfg.shards].push(p as u32);
                any_dirty = true;
            }
        }
        let mut replies = Vec::with_capacity(self.cfg.shards);
        for (shard, sender) in self.senders.iter().enumerate() {
            let (tx, rx) = channel();
            sender
                .send(ShardMsg::Refresh(
                    std::mem::take(&mut dirty_by_shard[shard]),
                    tx,
                ))
                .expect("shard worker died");
            replies.push(rx);
        }
        RefreshBarrier {
            replies,
            epochs: self.epochs.clone(),
            any_dirty,
            ingested: self.ingested,
        }
    }

    /// Install a completed barrier: update the partition memos (tagged with
    /// the epochs captured at *send* time — updates routed while the
    /// barrier was in flight are not covered and leave their partitions
    /// dirty), reassemble the combined view if anything changed, and wrap
    /// the counters captured by the barrier (publish-consistent: `ingested`
    /// is the routed count at send time, which the barrier guarantees is
    /// fully applied in the returned view).
    pub fn refresh_install(&mut self, done: RefreshDone) -> (Arc<GlobalView>, EngineStats) {
        let ingested = done.ingested;
        let per_shard = self.install(done);
        let mut stats = self.wrap_stats(per_shard);
        stats.ingested = ingested;
        (
            Arc::clone(self.cached_view.as_ref().expect("view assembled")),
            stats,
        )
    }

    fn install(&mut self, done: RefreshDone) -> Vec<ShardStatsMsg> {
        for (p, v) in done.views {
            self.memos[p as usize] = Some((done.epochs[p as usize], v));
        }
        if done.any_dirty || self.cached_view.is_none() {
            self.cached_view = Some(Arc::new(self.assemble_view()));
        }
        done.stats
    }

    /// Fold the (complete, current) partition memos into one [`GlobalView`]
    /// — ascending partition order. Insertion-only contributions are
    /// `Arc`-shared into a segmented view (no merge is materialized, and
    /// unchanged partitions are not re-copied); queries on the segmented
    /// view scan `(run, partition, slot)` — exactly the entry order the
    /// pre-memo engine's materialized merge produced.
    fn assemble_view(&self) -> GlobalView {
        let d2 = self.cfg.witness_target();
        match self.cfg.model {
            ModelSpec::InsertOnly(_) => {
                let parts = self
                    .memos
                    .iter()
                    .map(|m| match m {
                        Some((_, PartView::Io(state))) => Arc::clone(state),
                        _ => unreachable!("memo missing or model mismatch"),
                    })
                    .collect();
                GlobalView::InsertOnly { parts, d2 }
            }
            ModelSpec::InsertDelete(_) => {
                // Vertices are partition-disjoint: concatenating the sorted
                // partition pools in partition order and re-sorting by
                // vertex is a disjoint union.
                let mut pooled: Vec<(u32, Vec<u64>)> = self
                    .memos
                    .iter()
                    .flat_map(|m| match m {
                        Some((_, PartView::Id(pooled))) => pooled.iter().cloned(),
                        _ => unreachable!("memo missing or model mismatch"),
                    })
                    .collect();
                pooled.sort_unstable_by_key(|&(a, _)| a);
                GlobalView::InsertDelete { pooled, d2 }
            }
        }
    }

    /// The engine-wide query view, rebuilt incrementally: only partitions
    /// that received updates since the last `view`/`refresh` call are
    /// re-gathered (a reply round-trip that doubles as a barrier, so the
    /// view reflects every update pushed before the call); when nothing
    /// changed the cached [`Arc`] is returned without touching the shards —
    /// a quiesced engine answers in O(1).
    pub fn view(&mut self) -> Arc<GlobalView> {
        if !self.view_is_current() {
            self.sync();
        }
        Arc::clone(self.cached_view.as_ref().expect("view assembled"))
    }

    /// [`Engine::view`] and [`Engine::stats`] in a single shard round-trip —
    /// what a serving layer calls after applying a batch to publish one
    /// consistent (view, counters) snapshot.
    pub fn refresh(&mut self) -> (Arc<GlobalView>, EngineStats) {
        let per_shard = self.sync();
        let stats = self.wrap_stats(per_shard);
        (
            Arc::clone(self.cached_view.as_ref().expect("view assembled")),
            stats,
        )
    }

    /// Flush and serialize every partition into one checkpoint byte string
    /// (see [`crate::checkpoint`] for the format). Identical for every shard
    /// count K under the same master seed and stream.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        self.flush();
        let mut payloads: Vec<(u32, Vec<u8>)> = self
            .gather(ShardMsg::Snapshot)
            .into_iter()
            .flatten()
            .collect();
        payloads.sort_by_key(|&(p, _)| p);
        checkpoint::encode(&self.cfg, &payloads)
    }

    /// Flush and serialize a *subset* of partitions into a sparse slice
    /// checkpoint (see [`checkpoint::encode_slice`]). `parts` may arrive in
    /// any order and with duplicates; out-of-range ids panic (a routing bug,
    /// not an operational failure). The per-partition bytes are identical to
    /// the ones a full [`Engine::checkpoint`] writes — a slice is the
    /// handoff unit for moving partitions between cluster nodes.
    pub fn checkpoint_slice(&mut self, parts: &[u32]) -> Vec<u8> {
        let mut want: Vec<u32> = parts.to_vec();
        want.sort_unstable();
        want.dedup();
        if let Some(&p) = want.last() {
            assert!((p as usize) < self.cfg.partitions, "partition out of range");
        }
        self.flush();
        let mut payloads: Vec<(u32, Vec<u8>)> = self
            .gather(ShardMsg::Snapshot)
            .into_iter()
            .flatten()
            .filter(|(p, _)| want.binary_search(p).is_ok())
            .collect();
        payloads.sort_by_key(|&(p, _)| p);
        checkpoint::encode_slice(&self.cfg, &payloads)
    }

    /// Install a slice checkpoint written by [`Engine::checkpoint_slice`] on
    /// an engine with the same model parameters, master seed, and partition
    /// count. Only the partitions the slice carries are replaced; everything
    /// else is untouched. Two-phase like [`Engine::restore_checkpoint`]: on
    /// `Err` no partition has changed.
    pub fn restore_slice(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.flush();
        let (header, payloads) = checkpoint::decode_slice(bytes)?;
        header.check_against(&self.cfg)?;
        self.install_restore(payloads)
    }

    /// Load a checkpoint written by an engine with the same model
    /// parameters, master seed, and partition count (the shard count may
    /// differ). Replaces all partition state; the stream replay can then
    /// continue from where the checkpoint was taken.
    ///
    /// Accepts a bare v1 container and any space-tagged envelope
    /// ([`checkpoint::wrap_envelope`]) — the engine itself is space-agnostic
    /// and restores the inner container either way; callers that care which
    /// space the bytes belong to check the envelope before calling.
    ///
    /// Restore is two-phase: every shard first decodes and validates its
    /// payloads without installing anything, and only when all of them
    /// succeed does the (infallible) install run — so on `Err` the engine's
    /// state is untouched.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.flush();
        let inner = checkpoint::unwrap_envelope(bytes)?.inner;
        let (header, payloads) = checkpoint::decode(inner)?;
        header.check_against(&self.cfg)?;
        self.install_restore(payloads)
    }

    /// Validate decoded checkpoint payloads for an engine serving `cfg` by
    /// the rule restore's phase 1 applies, without starting one (no shard
    /// threads, no partition state): what a front end that will push the
    /// payloads on checks before it commits them. `Err` names the first
    /// refused partition, as [`Engine::restore_checkpoint`] would.
    pub fn validate_payloads<'a>(
        cfg: &EngineConfig,
        payloads: impl IntoIterator<Item = (u32, &'a [u8])>,
    ) -> Result<(), CheckpointError> {
        for (p, bytes) in payloads {
            shard::validate_payload(cfg, p, bytes)
                .map_err(|e| CheckpointError::Corrupt(format!("partition {p}: {e}")))?;
        }
        Ok(())
    }

    /// The two-phase install under both restores: every shard validates its
    /// share of `payloads` (shards with none still join the barrier, so the
    /// following Abort/Commit is unambiguous), and only when all succeed
    /// does the infallible commit run. Drops exactly the memos of the
    /// carried partitions — for a full checkpoint, every partition.
    fn install_restore(&mut self, payloads: Vec<(u32, Vec<u8>)>) -> Result<(), CheckpointError> {
        let touched: Vec<u32> = payloads.iter().map(|&(p, _)| p).collect();
        let mut per_shard: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); self.cfg.shards];
        for (p, bytes) in payloads {
            per_shard[p as usize % self.cfg.shards].push((p, bytes));
        }
        // Phase 1: validate everywhere.
        let mut replies = Vec::with_capacity(self.cfg.shards);
        for (shard, payloads) in per_shard.into_iter().enumerate() {
            let (tx, rx) = channel();
            self.senders[shard]
                .send(ShardMsg::PrepareRestore(payloads, tx))
                .expect("shard worker died");
            replies.push(rx);
        }
        let mut failure = None;
        for rx in replies {
            if let Err(e) = rx.recv().expect("shard worker died") {
                failure.get_or_insert(e);
            }
        }
        if let Some(e) = failure {
            for sender in &self.senders {
                sender
                    .send(ShardMsg::AbortRestore)
                    .expect("shard worker died");
            }
            return Err(CheckpointError::Corrupt(e));
        }
        // Phase 2: commit everywhere (cannot fail).
        for () in self.gather(ShardMsg::CommitRestore) {}
        for p in touched {
            self.memos[p as usize] = None;
        }
        self.cached_view = None;
        Ok(())
    }

    /// Flush and collect a consistent statistics snapshot from every shard.
    /// Does *not* build any views (an empty refresh is a pure barrier), so
    /// replay paths can use it as a cheap warm-up fence.
    pub fn stats(&mut self) -> EngineStats {
        self.flush();
        let stats = self.gather(|tx| ShardMsg::Refresh(Vec::new(), tx));
        self.wrap_stats(stats.into_iter().map(|(_, s)| s).collect())
    }

    fn wrap_stats(&self, per_shard: Vec<ShardStatsMsg>) -> EngineStats {
        let shards = per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, msg)| ShardStats {
                shard,
                partitions: msg.partitions,
                processed: msg.processed,
                batches: msg.batches,
                space_bytes: msg.space_bytes,
            })
            .collect();
        EngineStats {
            ingested: self.ingested,
            uptime: self.started.elapsed(),
            shards,
        }
    }

    /// Flush, gather final statistics, and shut every worker down.
    pub fn close(mut self) -> EngineStats {
        let stats = self.stats();
        drop(self); // disconnects channels, joins workers
        stats
    }

    /// Broadcast a reply-carrying message to every shard and collect the
    /// replies in shard order.
    fn gather<T>(&self, make: impl Fn(std::sync::mpsc::Sender<T>) -> ShardMsg) -> Vec<T> {
        let mut replies = Vec::with_capacity(self.cfg.shards);
        for sender in &self.senders {
            let (tx, rx) = channel();
            sender.send(make(tx)).expect("shard worker died");
            replies.push(rx);
        }
        replies
            .into_iter()
            .map(|rx| rx.recv().expect("shard worker died"))
            .collect()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Disconnect every channel so workers drain and exit, then join.
        // Worker panics are not re-raised here (they already surfaced as a
        // send/recv failure on the caller's side).
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_common::rng::rng_for;
    use fews_core::insertion_deletion::IdConfig;
    use fews_core::insertion_only::FewwConfig;
    use fews_core::wire::MemoryState;
    use fews_stream::gen::dblog::db_log;
    use fews_stream::gen::planted::planted_star;
    use fews_stream::update::{as_insertions, net_graph};
    use fews_stream::{Edge, Update};

    fn io_cfg(shards: usize) -> EngineConfig {
        EngineConfig::insert_only(FewwConfig::new(64, 16, 2), 11)
            .with_shards(shards)
            .with_partitions(8)
            .with_batch(32)
    }

    fn planted_updates(seed: u64) -> (Vec<Update>, Vec<Edge>) {
        let g = planted_star(64, 1 << 12, 16, 3, &mut rng_for(seed, 1));
        (as_insertions(&g.edges), g.edges)
    }

    #[test]
    fn finds_planted_star_and_matches_across_shard_counts() {
        let (updates, edges) = planted_updates(5);
        let mut outputs = Vec::new();
        let mut checkpoints = Vec::new();
        for k in [1usize, 3] {
            let mut engine = Engine::start(io_cfg(k));
            engine.ingest(updates.iter().copied());
            let view = engine.view();
            let nb = view.certified().expect("planted star");
            assert!(nb.verify_against(&edges), "fabricated witnesses");
            assert!(nb.size() >= 8);
            outputs.push(nb);
            checkpoints.push(engine.checkpoint());
        }
        assert_eq!(outputs[0], outputs[1], "shard count changed the output");
        assert_eq!(checkpoints[0], checkpoints[1], "checkpoints differ");
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let (updates, _) = planted_updates(6);
        let half = updates.len() / 2;

        // Uninterrupted run.
        let mut full = Engine::start(io_cfg(2));
        full.ingest(updates.iter().copied());
        let want = full.checkpoint();

        // Checkpoint at the midpoint, restore into a fresh engine with a
        // different shard count, replay the rest.
        let mut first = Engine::start(io_cfg(2));
        first.ingest(updates[..half].iter().copied());
        let mid = first.checkpoint();
        drop(first);
        let mut second = Engine::start(io_cfg(3));
        second.restore_checkpoint(&mid).expect("restore");
        second.ingest(updates[half..].iter().copied());
        assert_eq!(second.checkpoint(), want, "resumed run diverged");
    }

    #[test]
    fn restore_rejects_garbage_and_mismatched_config() {
        let mut engine = Engine::start(io_cfg(2));
        assert!(matches!(
            engine.restore_checkpoint(b"junk"),
            Err(CheckpointError::BadMagic)
        ));
        let other =
            Engine::start(EngineConfig::insert_only(FewwConfig::new(128, 16, 2), 11)).checkpoint();
        assert!(matches!(
            engine.restore_checkpoint(&other),
            Err(CheckpointError::ConfigMismatch(_))
        ));
        // The engine still works after rejected restores.
        let (updates, _) = planted_updates(7);
        engine.ingest(updates);
        assert!(engine.view().certified().is_some());
    }

    #[test]
    fn failed_restore_leaves_state_untouched() {
        // Valid container, corrupt payload for one partition: restore must
        // fail AND leave every partition exactly as it was (two-phase).
        let (updates, _) = planted_updates(12);
        let mut donor = Engine::start(io_cfg(2));
        donor.ingest(updates.iter().copied());
        let good = donor.checkpoint();
        let (_, mut payloads) = checkpoint::decode(&good).unwrap();
        payloads[3].1 = vec![0xff, 0xff, 0xff]; // undecodable MemoryState
        let bad = checkpoint::encode(donor.config(), &payloads);

        let mut engine = Engine::start(io_cfg(3));
        let (before_updates, _) = planted_updates(13);
        engine.ingest(before_updates.iter().copied());
        let before = engine.checkpoint();
        assert!(matches!(
            engine.restore_checkpoint(&bad),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(
            engine.checkpoint(),
            before,
            "failed restore mutated partition state"
        );
        // A subsequent good restore still works.
        engine.restore_checkpoint(&good).expect("good restore");
        assert_eq!(engine.checkpoint(), good);
    }

    /// An engine that saw a planted stream, and the full and partition-0
    /// slice checkpoints of a fresh engine whose partition-0 state went
    /// through `tamper`. The fresh reservoirs leave room for added entries,
    /// so only what `tamper` changed can fail the restore.
    fn tampered_restore(tamper: impl FnOnce(&mut MemoryState)) -> (Engine, Vec<u8>, Vec<u8>) {
        let mut fresh = Engine::start(io_cfg(2));
        let (_, mut payloads) = checkpoint::decode(&fresh.checkpoint()).unwrap();
        let mut state = MemoryState::decode(&payloads[0].1).expect("partition 0 decodes");
        tamper(&mut state);
        payloads[0].1 = state.encode();
        let full = checkpoint::encode(fresh.config(), &payloads);
        let slice = checkpoint::encode_slice(fresh.config(), &payloads[..1]);
        let mut engine = Engine::start(io_cfg(3));
        engine.ingest(planted_updates(15).0);
        (engine, full, slice)
    }

    /// Both restore paths refuse the tampered state, typed, naming `why`,
    /// and leave the engine as it was.
    fn assert_refused(tamper: impl FnOnce(&mut MemoryState), why: &str) {
        let (mut engine, full, slice) = tampered_restore(tamper);
        let before = engine.checkpoint();
        for refused in [
            engine.restore_checkpoint(&full),
            engine.restore_slice(&slice),
        ] {
            match refused {
                Err(CheckpointError::Corrupt(m)) => assert!(m.contains(why), "{m}"),
                other => panic!("restore should refuse the state ({why}), got {other:?}"),
            }
        }
        assert_eq!(engine.checkpoint(), before, "refused restore mutated state");
    }

    /// [`assert_refused`] for `extra` entries in partition 0's run 0 —
    /// entries no run of the algorithm can produce.
    fn assert_entries_refused(extra: Vec<(u32, Vec<u64>)>, why: &str) {
        assert_refused(|state| state.runs[0].entries.extend(extra), why);
    }

    /// A vertex of partition `p` of the 8-partition, n = 64 test config.
    fn vertex_in(p: usize) -> u32 {
        (0..64)
            .find(|&a| partition_of(a, 8) == p)
            .expect("every partition holds a vertex")
    }

    #[test]
    fn restore_refuses_a_vertex_past_n() {
        assert_entries_refused(vec![(9999, vec![1])], "past n");
    }

    #[test]
    fn restore_refuses_a_vertex_of_another_partition() {
        assert_entries_refused(vec![(vertex_in(1), vec![1])], "another partition");
    }

    #[test]
    fn restore_refuses_a_vertex_twice_in_a_run() {
        let a = vertex_in(0);
        assert_entries_refused(vec![(a, vec![1, 2]), (a, vec![3])], "twice");
    }

    #[test]
    fn restore_refuses_a_held_vertex_below_d1() {
        // Every degree of the fresh state is 0, so no vertex can be held.
        assert_entries_refused(vec![(vertex_in(0), vec![1])], "below d1");
    }

    #[test]
    fn restore_refuses_a_threshold_the_engine_does_not_use() {
        // d₁ = 0 used to pass validation and abort the install.
        for d1 in [0, 2] {
            assert_refused(|state| state.runs[0].d1 = d1, "geometry");
        }
    }

    #[test]
    fn restore_refuses_more_than_d2_witnesses() {
        let d2 = io_cfg(1).witness_target() as u64;
        assert_entries_refused(vec![(vertex_in(0), (0..=d2).collect())], "past d2");
    }

    #[test]
    fn slice_checkpoint_moves_partitions_between_engines() {
        let (updates, _) = planted_updates(14);
        // Reference: one engine that saw the whole stream.
        let mut full = Engine::start(io_cfg(2));
        full.ingest(updates.iter().copied());
        let want = full.checkpoint();

        // Donor saw the whole stream too; carve out partitions {1, 4, 6}
        // and graft them onto a receiver that saw only the complement.
        let slice: Vec<u32> = vec![1, 4, 6];
        let mut donor = Engine::start(io_cfg(3));
        donor.ingest(updates.iter().copied());
        let moved = donor.checkpoint_slice(&slice);

        let mut receiver = Engine::start(io_cfg(2));
        receiver.ingest(
            updates
                .iter()
                .copied()
                .filter(|u| !slice.contains(&(partition_of(u.edge.a, 8) as u32))),
        );
        receiver.restore_slice(&moved).expect("slice restore");
        assert_eq!(receiver.checkpoint(), want, "grafted engine diverged");
        // Queries on the grafted engine see the union.
        assert_eq!(
            receiver.view().certified(),
            full.view().certified(),
            "certified answer diverged after slice graft"
        );
    }

    #[test]
    fn slice_restore_rejects_damage_and_leaves_state() {
        let (updates, _) = planted_updates(15);
        let mut donor = Engine::start(io_cfg(2));
        donor.ingest(updates.iter().copied());
        let good = donor.checkpoint_slice(&[2, 5]);

        let mut engine = Engine::start(io_cfg(2));
        engine.ingest(updates.iter().copied());
        let before = engine.checkpoint();
        // A full container is not a slice.
        assert!(matches!(
            engine.restore_slice(&before),
            Err(CheckpointError::BadMagic)
        ));
        // Corrupt payload: two-phase restore must leave everything alone.
        let (_, mut payloads) = checkpoint::decode_slice(&good).unwrap();
        payloads[1].1 = vec![0xff, 0xff];
        let bad = checkpoint::encode_slice(engine.config(), &payloads);
        assert!(matches!(
            engine.restore_slice(&bad),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(engine.checkpoint(), before, "failed slice restore mutated");
        engine.restore_slice(&good).expect("good slice restore");
        assert_eq!(engine.checkpoint(), before, "idempotent self-graft changed");
    }

    /// A refresh copies only the growing lists: every full list of the
    /// previous view is the same allocation in the next one, although every
    /// partition took updates in between and was re-gathered.
    #[test]
    fn refreshes_share_full_lists_with_the_previous_view() {
        let star = |degree: u64, offset: u64| -> Vec<Update> {
            (0..64u32)
                .flat_map(|a| (0..degree).map(move |b| Update::insert(Edge::new(a, offset + b))))
                .collect()
        };
        let mut engine = Engine::start(io_cfg(3));
        engine.ingest(star(12, 0));
        let before = engine.view();
        engine.ingest(star(5, 1000));
        let after = engine.view();
        let (GlobalView::InsertOnly { parts: old, .. }, GlobalView::InsertOnly { parts: new, .. }) =
            (&*before, &*after)
        else {
            panic!("insertion-only views");
        };
        let mut shared = 0;
        for (p, (old, new)) in old.iter().zip(new).enumerate() {
            assert!(!Arc::ptr_eq(old, new), "partition {p} was not re-gathered");
            for (old_run, new_run) in old.runs.iter().zip(&new.runs) {
                for ((a, ws), (b, now)) in old_run.entries.iter().zip(&new_run.entries) {
                    assert_eq!(a, b, "no reservoir here evicts");
                    if ws.len() >= old_run.d2 as usize {
                        assert!(
                            now.shares_bytes_with(ws),
                            "partition {p}: vertex {a} copied"
                        );
                        shared += 1;
                    } else {
                        assert!(!now.shares_bytes_with(ws));
                    }
                }
            }
        }
        // Run 0 (d₁ = 1) fills every vertex's list at 8 of its 12 edges.
        assert!(shared >= 64, "only {shared} full lists");
    }

    #[test]
    fn backpressure_with_tiny_queue_completes() {
        let cfg = io_cfg(2).with_batch(4).with_queue_depth(1);
        let mut engine = Engine::start(cfg);
        let (updates, _) = planted_updates(8);
        engine.ingest(updates.iter().copied());
        let stats = engine.stats();
        assert_eq!(stats.ingested, updates.len() as u64);
        assert_eq!(
            stats.shards.iter().map(|s| s.processed).sum::<u64>(),
            updates.len() as u64
        );
    }

    #[test]
    fn stats_report_all_partitions_and_space() {
        let mut engine = Engine::start(io_cfg(3));
        let (updates, _) = planted_updates(9);
        engine.ingest(updates);
        let stats = engine.close();
        assert_eq!(stats.shards.len(), 3);
        assert_eq!(stats.shards.iter().map(|s| s.partitions).sum::<usize>(), 8);
        assert!(stats.space_bytes() > 0);
        assert!(stats.updates_per_sec() > 0.0);
    }

    #[test]
    fn insert_delete_engine_respects_deletions() {
        let seed = 21;
        let log = db_log(32, 1 << 10, 12, 2, 0.4, &mut rng_for(seed, 1));
        let cfg = IdConfig::with_scale(32, 1 << 10, 12, 2, 0.05);
        let mut engine = Engine::start(
            EngineConfig::insert_delete(cfg, seed)
                .with_shards(2)
                .with_partitions(4)
                .with_batch(64),
        );
        engine.ingest(log.updates.iter().copied());
        let surviving = net_graph(&log.updates);
        let view = engine.view();
        if let Some(nb) = view.certified() {
            assert!(
                nb.verify_against(&surviving),
                "reported a deleted edge: {nb:?}"
            );
        }
        // top/certify agree with the pooled banks.
        for nb in view.top(3) {
            assert_eq!(view.certify(nb.vertex).unwrap(), nb);
        }
    }

    #[test]
    fn insert_delete_checkpoints_are_shard_invariant() {
        let seed = 22;
        let log = db_log(32, 1 << 10, 12, 2, 0.4, &mut rng_for(seed, 1));
        let cfg = IdConfig::with_scale(32, 1 << 10, 12, 2, 0.05);
        let make = |k: usize| {
            EngineConfig::insert_delete(cfg, seed)
                .with_shards(k)
                .with_partitions(4)
                .with_batch(64)
        };
        let mut a = Engine::start(make(1));
        a.ingest(log.updates.iter().copied());
        let mut b = Engine::start(make(4));
        b.ingest(log.updates.iter().copied());
        let ckpt = a.checkpoint();
        assert_eq!(ckpt, b.checkpoint());
        // And restore round-trips.
        let mut c = Engine::start(make(2));
        c.restore_checkpoint(&ckpt).expect("restore id checkpoint");
        assert_eq!(c.checkpoint(), ckpt);
    }
}
