//! Crash-replay recovery: a durable server (`ServerOptions::data_dir`) must
//! come back from `kill -9` — simulated in-process by [`Server::crash`],
//! which skips all graceful finalization — holding **exactly** the
//! acknowledged prefix of the stream, byte-for-byte.
//!
//! The reference for every differential here is a memory-only server fed the
//! same acknowledged batches; `net_stress.rs` separately proves that such a
//! server is byte-identical to the single-threaded `fews-core` merge, so the
//! chain closes: recovered state == fews-core reference.
//!
//! Beyond clean crashes, the suite injects real disk damage — mid-record
//! truncation (a torn write) and bit corruption — and requires the WAL to
//! recover the longest valid prefix, report the damage, and keep serving.
//!
//! The storage-fault lab at the end runs against a node and against a
//! durable router over two workers: both sit on the one durable core
//! (`fews_engine::wal`), so both must pass every case.

use fews_common::rng::rng_for;
use fews_common::{SpaceConfig, SpaceId};
use fews_core::insertion_only::FewwConfig;
use fews_engine::checkpoint::unwrap_envelope;
use fews_engine::diskfault::{CrashPoint, DiskFaultPlan, DiskFaultProfile};
use fews_engine::EngineConfig;
use fews_integration_tests::Front;
use fews_net::{Client, ClientError, ErrorCode, Server, ServerOptions};
use fews_stream::update::as_insertions;
use fews_stream::Update;
use rand::RngExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEED: u64 = 2021;
const BATCH: usize = 97;

fn base_cfg() -> EngineConfig {
    EngineConfig::insert_only(FewwConfig::new(96, 24, 2), SEED)
        .with_partitions(8)
        .with_shards(2)
        .with_batch(64)
}

fn workload() -> Vec<Update> {
    let g = fews_stream::gen::planted::planted_star(96, 1 << 12, 24, 3, &mut rng_for(SEED, 21));
    as_insertions(&g.edges)
}

/// A scratch data dir, cleared on entry so reruns start fresh.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fews-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> ServerOptions {
    ServerOptions {
        data_dir: Some(dir.to_path_buf()),
        // Large enough that no test here compacts mid-stream; compaction on
        // the threshold path gets its own coverage via graceful shutdown.
        compact_bytes: 64 << 20,
        refresh_debounce: None,
        ..ServerOptions::default()
    }
}

/// Feed `updates` to a fresh memory-only server and return
/// (certified, top-5, bare checkpoint container bytes).
fn reference_state(
    updates: &[Update],
) -> (
    Option<fews_core::neighbourhood::Neighbourhood>,
    Vec<fews_core::neighbourhood::Neighbourhood>,
    Vec<u8>,
) {
    let server = Server::start(base_cfg(), "127.0.0.1:0").expect("bind reference");
    let mut client = Client::connect(server.local_addr()).expect("connect reference");
    for chunk in updates.chunks(BATCH) {
        client.ingest_batch(chunk).expect("reference ingest");
    }
    let certified = client.certified().expect("certified");
    let top = client.top(5).expect("top");
    let ckpt = client.checkpoint().expect("checkpoint");
    let inner = unwrap_envelope(&ckpt).expect("envelope").inner.to_vec();
    client.shutdown().expect("shutdown");
    server.join();
    (certified, top, inner)
}

/// `(offset, total_len)` of every complete WAL record in `bytes`.
fn record_boundaries(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len == 0 || pos + 8 + len > bytes.len() {
            break; // zeroed header: end of the live log in a recycled file
        }
        out.push((pos, 8 + len));
        pos += 8 + len;
    }
    out
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

#[test]
fn crash_at_random_cut_points_replays_exactly_the_acknowledged_prefix() {
    let updates = workload();
    let batches: Vec<&[Update]> = updates.chunks(BATCH).collect();
    let mut rng = rng_for(SEED, 22);
    // Random cut points plus the edges: crash before any batch, after all.
    let mut cuts = vec![0usize, batches.len()];
    for _ in 0..3 {
        cuts.push(rng.random_range(1..batches.len() as u64) as usize);
    }

    for cut in cuts {
        let dir = scratch(&format!("cut{cut}"));
        let server = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for chunk in &batches[..cut] {
            client.ingest_batch(chunk).expect("ingest");
        }
        server.crash();
        drop(client);
        server.join();

        // Restart on the same data dir; the acknowledged prefix must be
        // back, byte-for-byte against a server that never crashed.
        let revived = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir))
            .expect("restart after crash");
        assert_eq!(revived.recovery_log().len(), 1, "one space to recover");
        assert!(
            revived.recovery_log()[0].contains(&format!("replayed {cut} wal batches")),
            "cut {cut}: recovery log said {:?}",
            revived.recovery_log()
        );
        let acknowledged: Vec<Update> = batches[..cut].concat();
        let (want_certified, want_top, want_inner) = reference_state(&acknowledged);
        let mut client = Client::connect(revived.local_addr()).expect("reconnect");
        assert_eq!(client.certified().expect("certified"), want_certified);
        assert_eq!(client.top(5).expect("top"), want_top);
        let envelope_bytes = client.checkpoint().expect("checkpoint");
        let envelope = unwrap_envelope(&envelope_bytes).expect("envelope");
        assert_eq!(envelope.space, "default");
        assert_eq!(envelope.wal_seq, cut as u64, "one WAL record per batch");
        assert_eq!(envelope.inner, &want_inner[..], "cut {cut}: state diverged");

        // The recovered server is not a museum: the rest of the stream
        // ingests on top and lands on the full-stream state.
        for chunk in &batches[cut..] {
            client.ingest_batch(chunk).expect("ingest rest");
        }
        let (full_certified, _, full_inner) = reference_state(&updates);
        assert_eq!(client.certified().expect("certified"), full_certified);
        let resumed = client.checkpoint().expect("checkpoint");
        assert_eq!(
            unwrap_envelope(&resumed).expect("envelope").inner,
            &full_inner[..],
            "cut {cut}: resumed stream diverged"
        );
        client.shutdown().expect("shutdown");
        revived.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_wal_tail_is_truncated_to_the_longest_valid_prefix() {
    let updates = workload();
    let batches: Vec<&[Update]> = updates.chunks(BATCH).collect();
    let dir = scratch("torn");
    let server = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for chunk in &batches {
        client.ingest_batch(chunk).expect("ingest");
    }
    server.crash();
    drop(client);
    server.join();

    let wal = std::fs::read(wal_path(&dir)).expect("read wal");
    let bounds = record_boundaries(&wal);
    assert_eq!(bounds.len(), batches.len(), "one record per batch");

    let mut rng = rng_for(SEED, 23);
    for _ in 0..3 {
        // Tear the log mid-record: keep `keep` whole records plus a strict
        // prefix of the next one — a crash between write and fsync.
        let keep = rng.random_range(1..(bounds.len() - 1) as u64) as usize;
        let (offset, len) = bounds[keep];
        let partial = rng.random_range(1..len as u64) as usize;
        let torn = wal[..offset + partial].to_vec();
        std::fs::write(wal_path(&dir), &torn).expect("write torn wal");

        let revived = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir))
            .expect("restart on torn wal");
        let log = revived.recovery_log();
        assert!(
            log.iter()
                .any(|l| l.contains(&format!("replayed {keep} wal batches")))
                && log.iter().any(|l| l.contains("discarded")),
            "keep {keep}, partial {partial}: recovery log said {log:?}"
        );
        let acknowledged: Vec<Update> = batches[..keep].concat();
        let (want_certified, _, want_inner) = reference_state(&acknowledged);
        let mut client = Client::connect(revived.local_addr()).expect("reconnect");
        assert_eq!(client.certified().expect("certified"), want_certified);
        let ckpt = client.checkpoint().expect("checkpoint");
        assert_eq!(
            unwrap_envelope(&ckpt).expect("envelope").inner,
            &want_inner[..],
            "keep {keep}: torn-tail recovery diverged"
        );
        client.shutdown().expect("shutdown");
        revived.crash(); // keep the on-disk files as recovery left them
        revived.join();

        // Recovery truncated the damaged tail, then compacted: the valid
        // prefix lives in the checkpoint now and the log starts over empty.
        assert!(
            record_boundaries(&std::fs::read(wal_path(&dir)).expect("reread wal")).is_empty(),
            "damaged log not reset after recovery"
        );
        let ckpt = std::fs::read(dir.join("default").join("checkpoint.fck"))
            .expect("compacted checkpoint exists");
        assert_eq!(
            unwrap_envelope(&ckpt).expect("envelope").wal_seq,
            keep as u64,
            "checkpoint watermark after torn-tail recovery"
        );
        // Rewind for the next tear: full log back, checkpoint gone.
        std::fs::write(wal_path(&dir), &wal).expect("restore wal");
        std::fs::remove_file(dir.join("default").join("checkpoint.fck"))
            .expect("remove checkpoint");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_stops_replay_at_the_damage_and_the_server_stays_live() {
    let updates = workload();
    let batches: Vec<&[Update]> = updates.chunks(BATCH).collect();
    let dir = scratch("corrupt");
    let server = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for chunk in &batches {
        client.ingest_batch(chunk).expect("ingest");
    }
    server.crash();
    drop(client);
    server.join();

    // Flip one payload bit in the middle record: its CRC fails, and — by
    // design — replay stops there even though later records are intact; a
    // log with a hole in it cannot vouch for anything after the hole.
    let mut wal = std::fs::read(wal_path(&dir)).expect("read wal");
    let bounds = record_boundaries(&wal);
    let keep = bounds.len() / 2;
    let (offset, _) = bounds[keep];
    wal[offset + 10] ^= 0x40;
    std::fs::write(wal_path(&dir), &wal).expect("write corrupt wal");

    let revived =
        Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("restart on corrupt");
    let log = revived.recovery_log();
    assert!(
        log.iter()
            .any(|l| l.contains(&format!("replayed {keep} wal batches")))
            && log.iter().any(|l| l.contains("discarded")),
        "recovery log said {log:?}"
    );
    let acknowledged: Vec<Update> = batches[..keep].concat();
    let (want_certified, _, _) = reference_state(&acknowledged);
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    assert_eq!(client.certified().expect("certified"), want_certified);

    // Still live for new writes: fresh batches append after the truncation
    // point and survive another crash.
    client
        .ingest_batch(batches[keep])
        .expect("ingest after corruption");
    server_roundtrip_crash(&dir, revived, client, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash `server`, restart, and assert the recovery line replays
/// `want_batches` batches — the records appended since the last compaction
/// (recovery itself compacts, so earlier batches sit in the checkpoint).
fn server_roundtrip_crash(dir: &Path, server: Server, client: Client, want_batches: usize) {
    server.crash();
    drop(client);
    server.join();
    let revived = Server::start_with(base_cfg(), "127.0.0.1:0", durable(dir)).expect("restart");
    let line = &revived.recovery_log()[0];
    assert!(
        line.contains(&format!("replayed {want_batches} wal batches")),
        "recovery log said {line:?}"
    );
    let mut owner = Client::connect(revived.local_addr()).expect("connect");
    owner.shutdown().expect("shutdown");
    revived.join();
}

#[test]
fn graceful_shutdown_compacts_every_space_and_restart_replays_nothing() {
    let updates = workload();
    let dir = scratch("graceful");
    let server = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for chunk in updates.chunks(BATCH) {
        client.ingest_batch(chunk).expect("ingest");
    }
    let (want_certified, _, want_inner) = reference_state(&updates);
    client.shutdown().expect("clean shutdown");
    server.join();

    // Graceful shutdown wrote a compacted checkpoint and emptied the WAL.
    let space_dir = dir.join("default");
    let ckpt = std::fs::read(space_dir.join("checkpoint.fck")).expect("final checkpoint exists");
    let envelope = unwrap_envelope(&ckpt).expect("envelope");
    assert_eq!(envelope.inner, &want_inner[..], "final checkpoint state");
    assert!(
        record_boundaries(&std::fs::read(wal_path(&dir)).expect("read wal")).is_empty(),
        "WAL not emptied by the final compaction"
    );

    // Restart restores from the checkpoint alone.
    let revived = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("restart");
    assert!(
        revived.recovery_log()[0].contains("replayed 0 wal batches"),
        "recovery log said {:?}",
        revived.recovery_log()
    );
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    assert_eq!(client.certified().expect("certified"), want_certified);
    client.shutdown().expect("shutdown");
    revived.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_space_recovers_after_crash_with_its_own_config_and_data() {
    // Two tenants beside the default space — one insert-only with its own
    // shape, one insert-deletion — all crash together, all come back with
    // their own model, seed, and acknowledged data.
    let dir = scratch("multispace");
    let server = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let io_space = SpaceId::new("tenant-io").expect("name");
    let io_spec = SpaceConfig::insert_only(48, 12, 2).with_partitions(4);
    client.create_space(&io_space, io_spec).expect("create io");
    let id_space = SpaceId::new("tenant-id").expect("name");
    let id_spec = SpaceConfig::insert_delete(32, 1 << 10, 12, 2, 0.03).with_partitions(4);
    client.create_space(&id_space, id_spec).expect("create id");

    let default_updates = workload();
    for chunk in default_updates.chunks(BATCH) {
        client.ingest_batch(chunk).expect("default ingest");
    }
    let io_updates: Vec<Update> = (0..12u64)
        .map(|b| Update::insert(fews_stream::Edge::new(7, b)))
        .collect();
    client.set_space(io_space.clone());
    client.ingest_batch(&io_updates).expect("io ingest");
    let id_updates =
        fews_stream::gen::dblog::db_log(32, 1 << 10, 12, 2, 0.4, &mut rng_for(SEED, 24)).updates;
    client.set_space(id_space.clone());
    for chunk in id_updates.chunks(BATCH) {
        client.ingest_batch(chunk).expect("id ingest");
    }

    // Snapshot every space's answers, then pull the plug.
    client.set_space(SpaceId::default_space());
    let default_certified = client.certified().expect("certified");
    client.set_space(io_space.clone());
    let io_certified = client.certified().expect("certified");
    client.set_space(id_space.clone());
    let id_certified = client.certified().expect("certified");
    let id_top = client.top(4).expect("top");
    server.crash();
    drop(client);
    server.join();

    let revived = Server::start_with(base_cfg(), "127.0.0.1:0", durable(&dir)).expect("restart");
    assert_eq!(revived.recovery_log().len(), 3, "three spaces recovered");
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    let listed = client.list_spaces().expect("list");
    let names: Vec<&str> = listed.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["default", "tenant-id", "tenant-io"],
        "sorted roster"
    );

    assert_eq!(client.certified().expect("certified"), default_certified);
    client.set_space(io_space);
    assert_eq!(client.certified().expect("certified"), io_certified);
    assert_eq!(
        client.stats().expect("stats").ingested,
        io_updates.len() as u64
    );
    client.set_space(id_space);
    assert_eq!(client.certified().expect("certified"), id_certified);
    assert_eq!(client.top(4).expect("top"), id_top);
    client.shutdown().expect("shutdown");
    revived.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Storage-fault lab: seeded disk faults under the WAL and checkpoint writer.
// ---------------------------------------------------------------------------

/// This suite's durable fronts ([`Front::durable`] serving [`base_cfg`]),
/// and what a restarted one replayed.
trait Lab {
    /// Start a node (`routed` false) or a router on `dir`, with a seeded
    /// [`DiskFaultPlan`] threaded under its WAL and checkpoint writer when
    /// `faults` is given, compacting at `compact`.
    fn start(routed: bool, dir: &Path, faults: Option<&Arc<DiskFaultPlan>>, compact: u64) -> Self;

    /// Restart the same kind of front end on `dir` after a crash, on a
    /// healthy disk (a router gets fresh, empty workers).
    fn restart(routed: bool, dir: &Path) -> Self;

    /// How many of `sent`'s batches a restarted front end replayed: the
    /// node's recovery log says so; the router's recovered ack watermark
    /// counts their updates.
    fn replayed(&self, client: &mut Client, sent: &[&[Update]]) -> usize;
}

impl Lab for Front {
    fn start(routed: bool, dir: &Path, faults: Option<&Arc<DiskFaultPlan>>, compact: u64) -> Front {
        Front::durable(base_cfg(), routed, dir, faults.cloned(), compact)
    }

    fn restart(routed: bool, dir: &Path) -> Front {
        Front::start(routed, dir, None, 64 << 20)
    }

    fn replayed(&self, client: &mut Client, sent: &[&[Update]]) -> usize {
        match self {
            Front::Node(server) => {
                let log = server.recovery_log();
                log.iter()
                    .find_map(|l| {
                        let (_, tail) = l.split_once("replayed ")?;
                        tail.split_once(" wal batches")?.0.parse().ok()
                    })
                    .unwrap_or_else(|| panic!("no replay count in recovery log {log:?}"))
            }
            Front::Routed { .. } => {
                let held = client.stats().expect("stats").ingested as usize;
                (0..=sent.len())
                    .find(|&k| sent[..k].iter().map(|b| b.len()).sum::<usize>() == held)
                    .unwrap_or_else(|| panic!("{held} updates recovered: no batch-prefix"))
            }
        }
    }
}

/// Kill -9 at **every** step of the checkpoint writer's atomic-rename dance
/// — before the tmp write, mid tmp write, before the tmp fsync, before the
/// rename, before the directory fsync — and require recovery to come back
/// bit-exact every time, on a node and on a router. An aborted compaction
/// must leave the WAL alone (`Wal::compact` resets the log only after every
/// file landed), so no acked byte has anywhere to vanish.
#[test]
fn compaction_crash_point_sweep_recovers_bit_exact() {
    let updates = workload();
    let (want_certified, _, want_inner) = reference_state(&updates);
    let sweep = [
        CrashPoint::Buffer,
        CrashPoint::TmpWrite,
        CrashPoint::TmpSync,
        CrashPoint::Rename,
        CrashPoint::DirSync,
    ];
    let cells = [false, true]
        .into_iter()
        .flat_map(|routed| sweep.map(|point| (routed, point)));
    for (i, (routed, point)) in cells.enumerate() {
        let dir = scratch(&format!("crashpoint-{i}"));
        let plan = Arc::new(DiskFaultPlan::crash_only(900 + i as u64));
        plan.arm_crash(point);
        // A tiny trigger forces compactions mid-stream — 512 log bytes on a
        // node, two batches retained on a router; the armed crash fires at
        // the first one and is consumed, so later compactions run clean —
        // exactly one power cut per cell, at a chosen instruction.
        let compact = if routed { 2 * BATCH as u64 } else { 512 };
        let server = Front::start(routed, &dir, Some(&plan), compact);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for chunk in updates.chunks(BATCH) {
            // Compaction failure is invisible to writers: correctness rests
            // on the append fsync, so every batch still acks.
            client
                .ingest_batch(chunk)
                .expect("ingest under armed crash");
        }
        assert_eq!(
            plan.counts().crashes,
            1,
            "{point:?}: armed crash fired once"
        );
        drop(client);
        server.crash();

        let revived = Front::restart(routed, &dir);
        let mut client = Client::connect(revived.local_addr()).expect("reconnect");
        assert_eq!(
            client.certified().expect("certified"),
            want_certified,
            "{point:?}: certified answer"
        );
        let ckpt = client.checkpoint().expect("checkpoint");
        assert_eq!(
            unwrap_envelope(&ckpt).expect("envelope").inner,
            &want_inner[..],
            "{point:?}: recovered state is bit-exact"
        );
        revived.finish(client);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Seeded probabilistic faults — failed fsyncs, short writes, `ENOSPC` —
/// under a live ingest stream, on a node and on a router. The first fault
/// poisons durability: the in-flight ack fails typed, later writes are
/// refused up front, reads keep serving. After a kill -9, recovery replays
/// at least every acked batch (never fewer — "acked" means "fsynced") and
/// lands on a batch-prefix of the stream, bit-exact against a memory-only
/// reference.
#[test]
fn injected_disk_faults_never_lose_an_acked_update() {
    for routed in [false, true] {
        injected_disk_faults_case(routed);
    }
}

fn injected_disk_faults_case(routed: bool) {
    let updates = workload();
    let dir = scratch(&format!("faultlab-{routed}"));
    let plan = Arc::new(DiskFaultPlan::new(
        4242,
        DiskFaultProfile {
            sync_fail_permille: 300,
            short_write_permille: 300,
            enospc_permille: 150,
        },
        1, // one fault, then the disk behaves — the poison must outlive it
    ));
    // No compaction: 64 MiB of log on a node, a million retained updates
    // on a router.
    let compact = if routed { 1 << 20 } else { 64 << 20 };
    let server = Front::start(routed, &dir, Some(&plan), compact);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut sent: Vec<&[Update]> = Vec::new();
    let mut acked = 0usize;
    let mut poisoned = false;
    for chunk in updates.chunks(BATCH) {
        sent.push(chunk);
        match client.ingest_batch(chunk) {
            Ok(_) => acked += 1,
            Err(ClientError::Server {
                code: ErrorCode::Durability,
                ..
            }) => {
                poisoned = true;
                break;
            }
            Err(e) => panic!("expected a typed durability error, got {e:?}"),
        }
    }
    assert!(poisoned, "seeded plan never fired within the workload");
    let c = plan.counts();
    assert_eq!(
        c.sync_failed + c.short_writes + c.no_space,
        1,
        "fault budget honoured: {c:?}"
    );
    // The poison is sticky: later writes are refused before touching the
    // log, so the surviving WAL stays a clean batch-prefix…
    match client.ingest_batch(&updates[..8]) {
        Err(ClientError::Server {
            code: ErrorCode::Durability,
            message,
            ..
        }) => {
            assert!(message.contains("durability disabled"), "got {message:?}")
        }
        other => panic!("poisoned server accepted a write: {other:?}"),
    }
    // …while reads keep answering: degraded, not dead.
    client.certified().expect("reads survive the poison");

    drop(client);
    server.crash();

    let revived = Front::restart(routed, &dir);
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    let replayed = revived.replayed(&mut client, &sent);
    // The batch whose ack the fault killed may or may not have reached the
    // platter — both are legal. Losing an *acked* batch is not.
    assert!(
        replayed >= acked && replayed <= sent.len(),
        "replayed {replayed} batches, acked {acked}, appended {}",
        sent.len()
    );
    let replayed_updates: Vec<Update> = sent[..replayed].concat();
    let (want_certified, _, want_inner) = reference_state(&replayed_updates);
    assert_eq!(client.certified().expect("certified"), want_certified);
    let ckpt = client.checkpoint().expect("checkpoint");
    assert_eq!(
        unwrap_envelope(&ckpt).expect("envelope").inner,
        &want_inner[..],
        "recovered state is a bit-exact batch-prefix"
    );
    revived.finish(client);
    let _ = std::fs::remove_dir_all(&dir);
}
