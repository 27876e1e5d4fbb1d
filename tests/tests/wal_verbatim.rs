//! The one-pass ingest path: node and durable router log an ingest frame's
//! update section as it arrived. Whatever bytes a frame the decoder accepts
//! carries — overlong varints, an empty batch, the largest frame — the
//! record replays to exactly the batch that was applied, a log written
//! before the path logged verbatim replays unchanged, and a restore a node
//! cannot persist leaves no later batch acked on top of it.

use fews_common::rng::rng_for;
use fews_common::{SpaceConfig, SpaceId};
use fews_core::insertion_only::FewwConfig;
use fews_core::neighbourhood::Neighbourhood;
use fews_core::wire::put_uvarint;
use fews_engine::checkpoint::unwrap_envelope;
use fews_engine::diskfault::{CrashPoint, DiskFaultPlan};
use fews_engine::wal::{scan_log, Wal};
use fews_engine::{EngineConfig, DEFAULT_PARTITIONS};
use fews_integration_tests::Front;
use fews_net::proto::{encode_ingest_batch_into, Request, Response, MAX_FRAME};
use fews_net::{Client, ClientError, ErrorCode, Server, ServerOptions};
use fews_stream::update::as_insertions;
use fews_stream::{Edge, Update};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SEED: u64 = 2021;

fn cfg() -> EngineConfig {
    EngineConfig::insert_only(FewwConfig::new(96, 24, 2), SEED)
        .with_partitions(8)
        .with_shards(2)
        .with_batch(64)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fews-verbatim-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A raw ingest frame of exactly [`MAX_FRAME`] bytes into the default
/// space, every varint canonical: 12-byte updates (`b` ≥ 2^63, a 10-byte
/// varint) with 11-byte ones (`b` < 2^63) making up the remainder, so the
/// record a re-encoding log would write is the frame's own size.
fn maximal_frame() -> Vec<u8> {
    // Past the version, tag and empty space name: a count varint (4 bytes
    // at these counts), then long × 12 + short × 11 bytes of updates.
    let updates = MAX_FRAME - 2 - 1 - 4;
    let short = (12 - updates % 12) % 12;
    let long = (updates - short * 11) / 12;
    let count = long + short;
    let mut frame = Vec::with_capacity(4 + MAX_FRAME);
    frame.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
    frame.extend_from_slice(&ingest_header(&SpaceId::default_space()));
    put_uvarint(&mut frame, count as u64);
    for i in 0..count {
        put_uvarint(&mut frame, (i % 96) as u64);
        let b = if i < long {
            (1 << 63) | i as u64
        } else {
            (1 << 56) | i as u64
        };
        put_uvarint(&mut frame, b);
        frame.push(0);
    }
    assert_eq!(frame.len(), 4 + MAX_FRAME, "the frame is exactly MAX_FRAME");
    frame
}

fn send_raw(addr: SocketAddr, frame: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(frame).expect("send the frame");
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).expect("answer header");
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    stream.read_exact(&mut payload).expect("answer payload");
    Response::decode(&payload).expect("answer decodes")
}

/// An ingest payload's version, tag and space header, as the client's
/// encoder writes them: everything before the update section.
fn ingest_header(space: &SpaceId) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_ingest_batch_into(&mut frame, space, &[]);
    // Past the length prefix, less the empty batch's one-byte count.
    frame[4..frame.len() - 1].to_vec()
}

/// `v` as a varint `width` bytes wide — at least its canonical length, at
/// most the ten bytes the decoder reads. A ten-byte varint's last byte
/// carries `junk` in the bits past bit 63, which the decoder drops.
fn put_wide(buf: &mut Vec<u8>, v: u64, width: usize, junk: u8) {
    let mut canonical = Vec::new();
    put_uvarint(&mut canonical, v);
    let width = width.clamp(canonical.len(), 10);
    let mut rest = v;
    for i in 0..width {
        let mut byte = (rest & 0x7F) as u8;
        rest >>= 7;
        if i + 1 < width {
            byte |= 0x80;
        } else if width == 10 {
            byte |= (junk << 1) & 0x7E;
        }
        buf.push(byte);
    }
}

/// `updates` as one raw ingest frame, length prefix included, into the
/// default space with every varint overlong: the count and each `a` five
/// bytes wide, each `b` ten bytes wide with junk in its dropped bits.
/// Returns the frame and its update section.
fn overlong_frame(updates: &[Update]) -> (Vec<u8>, Vec<u8>) {
    let mut section = Vec::new();
    put_wide(&mut section, updates.len() as u64, 5, 0);
    for u in updates {
        put_wide(&mut section, u.edge.a as u64, 5, 0);
        put_wide(&mut section, u.edge.b, 10, 0x3F);
        section.push(u8::from(u.delta < 0));
    }
    let header = ingest_header(&SpaceId::default_space());
    let mut frame = ((header.len() + section.len()) as u32)
        .to_le_bytes()
        .to_vec();
    frame.extend_from_slice(&header);
    frame.extend_from_slice(&section);
    (frame, section)
}

/// What a restart must hold: the certified output, the top five and the
/// ingest count, plus (on a node, whose download leaves the log alone; a
/// router's would compact it) the checkpoint's inner container.
type State = (
    Option<Neighbourhood>,
    Vec<Neighbourhood>,
    u64,
    Option<Vec<u8>>,
);

fn state(client: &mut Client, routed: bool) -> State {
    let certified = client.certified().expect("certified");
    let top = client.top(5).expect("top");
    let ingested = client.stats().expect("stats").ingested;
    let inner = (!routed).then(|| {
        let ckpt = client.checkpoint().expect("checkpoint");
        unwrap_envelope(&ckpt).expect("envelope").inner.to_vec()
    });
    (certified, top, ingested, inner)
}

fn maximal_frame_case(routed: bool) {
    let dir = scratch(&format!("maximal-{routed}"));
    // No compaction: the record must come back through the log.
    let compact = 1 << 30;
    let front = Front::durable(cfg(), routed, &dir, None, compact);
    let frame = maximal_frame();
    match send_raw(front.local_addr(), &frame) {
        Response::Ingested { .. } => {}
        other => panic!("the maximal frame was not acked: {other:?}"),
    }
    drop(frame);
    // Later requests answer, on fresh connections.
    let mut client = Client::connect(front.local_addr()).expect("connect");
    client
        .ingest_batch(&as_insertions(&[Edge::new(3, 7)]))
        .expect("a later batch is acked");
    let before = state(&mut client, routed);
    drop(client);
    front.crash();

    let revived = Front::durable(cfg(), routed, &dir, None, compact);
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    assert_eq!(
        state(&mut client, routed),
        before,
        "the restart holds what was acked"
    );
    revived.finish(client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_maximal_frame_is_logged_acked_and_recovered_on_a_node() {
    maximal_frame_case(false);
}

#[test]
fn a_maximal_frame_is_logged_acked_and_recovered_on_a_router() {
    maximal_frame_case(true);
}

/// A restore whose checkpoint write is killed before its rename is refused
/// `durability` and commits nothing: reads keep answering A + B, no later
/// batch is acked on top of it, and a restart holds exactly the batches
/// acked before it — after a `kill -9`, and after a graceful shutdown,
/// whose compaction writes what the engine holds.
fn unpersisted_restore_case(graceful: bool) {
    let dir = scratch(&format!("restore-persist-{graceful}"));
    let plan = Arc::new(DiskFaultPlan::crash_only(3));
    let front = Front::durable(cfg(), false, &dir, Some(Arc::clone(&plan)), 64 << 20);
    let updates = workload();
    let third = updates.len() / 3;
    let (a, rest) = updates.split_at(third);
    let (b, c) = rest.split_at(third);
    let mut client = Client::connect(front.local_addr()).expect("connect");
    client.ingest_batch(a).expect("A");
    let x = client.checkpoint().expect("checkpoint X");
    client.ingest_batch(b).expect("B");
    let acked = state(&mut client, false);
    plan.arm_crash(CrashPoint::Rename);
    match client.restore(&x) {
        Err(ClientError::Server {
            code: ErrorCode::Durability,
            ..
        }) => {}
        other => panic!("an unpersisted restore should be refused typed, got {other:?}"),
    }
    assert_eq!(
        state(&mut client, false),
        acked,
        "reads answer A + B, not the refused restore"
    );
    match client.ingest_batch(c) {
        Err(ClientError::Server {
            code: ErrorCode::Durability,
            message,
            ..
        }) => assert!(message.contains("could not be persisted"), "{message}"),
        other => panic!("a batch was acked after an unpersisted restore: {other:?}"),
    }
    if graceful {
        front.finish(client);
    } else {
        drop(client);
        front.crash();
    }

    let revived = Front::durable(cfg(), false, &dir, None, 64 << 20);
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    let mut held = state(&mut client, false);
    if graceful {
        // `ingested` counts what this process accepted, replay included;
        // a graceful shutdown compacts the log away, so it starts from 0.
        held.2 = acked.2;
    }
    assert_eq!(held, acked, "the restart holds A + B");
    revived.finish(client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restore_the_node_cannot_persist_commits_nothing() {
    unpersisted_restore_case(false);
}

#[test]
fn a_restore_the_node_cannot_persist_is_not_written_by_a_graceful_shutdown() {
    unpersisted_restore_case(true);
}

fn workload() -> Vec<Update> {
    let g = fews_stream::gen::planted::planted_star(96, 1 << 12, 24, 3, &mut rng_for(SEED, 21));
    as_insertions(&g.edges)
}

/// One frame of overlong varints, then a canonical one: both are acked,
/// the log holds the first frame's section byte for byte, the answers
/// equal a memory-only node's fed the same batches, and a `kill -9`
/// restart holds them.
fn overlong_case(routed: bool) {
    let dir = scratch(&format!("overlong-{routed}"));
    let front = Front::durable(cfg(), routed, &dir, None, 1 << 30);
    let updates = workload();
    let (first, rest) = updates.split_at(updates.len() / 2);
    let (frame, section) = overlong_frame(first);
    match send_raw(front.local_addr(), &frame) {
        Response::Ingested { count, .. } => assert_eq!(count, first.len() as u64),
        other => panic!("the overlong frame was not acked: {other:?}"),
    }
    let log = std::fs::read(dir.join("wal.log")).expect("read the log");
    assert!(
        log.windows(section.len()).any(|w| w == section),
        "the log holds the section as it arrived"
    );
    let mut client = Client::connect(front.local_addr()).expect("connect");
    client.ingest_batch(rest).expect("a canonical batch");
    let acked = state(&mut client, routed);

    let reference = Front::node(cfg());
    let mut plain = Client::connect(reference.local_addr()).expect("connect reference");
    plain.ingest_batch(first).expect("reference ingest");
    plain.ingest_batch(rest).expect("reference ingest");
    let want = state(&mut plain, false);
    reference.finish(plain);
    assert_eq!((&acked.0, &acked.1), (&want.0, &want.1), "answers");
    if !routed {
        assert_eq!(acked, want, "the node equals the reference");
    }
    drop(client);
    front.crash();

    let revived = Front::durable(cfg(), routed, &dir, None, 1 << 30);
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    assert_eq!(state(&mut client, routed), acked, "the restart holds both");
    revived.finish(client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_overlong_frame_is_logged_as_it_arrived_and_recovered_on_a_node() {
    overlong_case(false);
}

#[test]
fn an_overlong_frame_is_logged_as_it_arrived_and_recovered_on_a_router() {
    overlong_case(true);
}

/// Numbers the property's scratch logs, one pair per case.
static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every ingest payload the decoder accepts — canonical or overlong
    /// varints, zero updates or many, into the default space or a named
    /// one, some with a byte flipped — logs a record that `scan_log`
    /// decodes to exactly the decoded batch; and a canonical section logs
    /// the very record `Wal::append` encodes from the batch.
    #[test]
    fn every_accepted_section_replays_to_its_batch(
        drawn in proptest::collection::vec(
            (
                (any::<u32>(), 0..32u32, any::<u64>(), 0..64u32),
                (any::<bool>(), 0..10usize, 0..10usize, any::<u8>()),
            ),
            0..24,
        ),
        shape in (any::<bool>(), 0..10usize, any::<bool>(), (any::<bool>(), any::<usize>(), any::<u8>())),
    ) {
        let (overlong, count_width, named, (flip, at, mask)) = shape;
        let space = if named {
            SpaceId::new("tenant-a").expect("space name")
        } else {
            SpaceId::default_space()
        };
        let mut payload = ingest_header(&space);
        let widen = |w: usize| if overlong { w } else { 0 };
        put_wide(&mut payload, drawn.len() as u64, widen(count_width), 0);
        let mut want = Vec::with_capacity(drawn.len());
        for ((raw_a, shift_a, raw_b, shift_b), (delete, wa, wb, junk)) in drawn {
            let (a, b) = (raw_a >> shift_a, raw_b >> shift_b);
            let junk = if overlong { junk } else { 0 };
            put_wide(&mut payload, a as u64, widen(wa), junk);
            put_wide(&mut payload, b, widen(wb), junk);
            payload.push(u8::from(delete));
            let edge = Edge::new(a, b);
            want.push(if delete { Update::delete(edge) } else { Update::insert(edge) });
        }
        if flip {
            let i = at % payload.len();
            payload[i] ^= mask | 1;
        }
        let decoded = Request::decode_with_body(&payload);
        if !flip {
            prop_assert!(decoded.is_ok(), "an unflipped payload decodes: {decoded:?}");
        }
        let Ok((space, Request::IngestBatch(batch), section)) = decoded else {
            return;
        };
        if !flip {
            prop_assert_eq!(&batch, &want);
        }
        let dir = scratch(&format!("prop-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (wal, _) = Wal::open(&dir.join("verbatim.log"), 0).expect("open");
        wal.announce()
            .append_section(space.as_str(), section)
            .expect("append the section");
        wal.sync().expect("sync");
        let logged = std::fs::read(dir.join("verbatim.log")).expect("read the log");
        let (records, _, damage) = scan_log(&logged);
        prop_assert_eq!(damage, None);
        prop_assert_eq!(records, vec![(1, space.as_str().to_string(), batch.clone())]);
        if !overlong && !flip {
            let (coded, _) = Wal::open(&dir.join("coded.log"), 0).expect("open");
            coded.append(space.as_str(), &batch);
            coded.sync().expect("sync");
            let encoded = std::fs::read(dir.join("coded.log")).expect("read the log");
            prop_assert!(encoded == logged, "a canonical section logs the encoded record");
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A data dir a durable node wrote before it logged ingest frames
/// verbatim: `fews listen --n 512 --d 400 --shards 2 --data-dir DIR`, then
/// `fews client ADDR ingest stream.txt --batch 500` and `kill -9`, so its
/// `wal.log` holds every batch as a record (see `tests/data/README.md`).
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/wal-before-verbatim");

/// The config `fews listen --n 512 --d 400 --shards 2` serves.
fn fixture_cfg() -> EngineConfig {
    let spec = SpaceConfig::insert_only(512, 400, 2).with_partitions(DEFAULT_PARTITIONS as u32);
    EngineConfig::from_space(&spec, 2021)
        .with_shards(2)
        .with_batch(1024)
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the copy");
    for entry in std::fs::read_dir(from).expect("read the fixture") {
        let entry = entry.expect("fixture entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy a fixture file");
        }
    }
}

#[test]
fn a_log_written_before_verbatim_logging_replays_bit_exact() {
    let fixture = Path::new(FIXTURE);
    let stream = std::fs::read(fixture.join("stream.txt")).expect("read the stream");
    let updates = fews_stream::io::read_updates(&stream[..]).expect("parse the stream");
    let data = fixture.join("data");

    // The records are the batches, and the one framer writes each one's
    // bytes again: the record layout did not change.
    let logged = std::fs::read(data.join("wal.log")).expect("read the log");
    let (records, valid, damage) = scan_log(&logged);
    assert_eq!(damage, None);
    let batches: Vec<&[Update]> = updates.chunks(500).collect();
    assert_eq!(records.len(), batches.len(), "one record per batch");
    let dir = scratch("fixture");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (wal, _) = Wal::open(&dir.join("wal.log"), 0).expect("open");
    for (i, (seq, space, batch)) in records.iter().enumerate() {
        assert_eq!((*seq, space.as_str()), (i as u64 + 1, "default"));
        assert_eq!(batch.as_slice(), batches[i], "record {seq}");
        wal.append(space, batch);
    }
    wal.sync().expect("sync");
    let written = std::fs::read(dir.join("wal.log")).expect("read the log");
    assert!(
        written[..valid] == logged[..valid],
        "the records re-encode byte for byte"
    );
    drop(wal);

    // A node recovers the log to the state a memory-only node reaches on
    // the same batches, checkpoint byte for byte.
    let copy = dir.join("data");
    copy_dir(&data, &copy);
    let opts = ServerOptions {
        data_dir: Some(copy),
        refresh_debounce: None,
        ..ServerOptions::default()
    };
    let node = Server::start_with(fixture_cfg(), "127.0.0.1:0", opts).expect("recover");
    let mut client = Client::connect(node.local_addr()).expect("connect");
    let reference = Server::start(fixture_cfg(), "127.0.0.1:0").expect("reference");
    let mut plain = Client::connect(reference.local_addr()).expect("connect reference");
    for batch in &batches {
        plain.ingest_batch(batch).expect("reference ingest");
    }
    assert_eq!(
        client.certified().expect("certified"),
        plain.certified().expect("certified")
    );
    assert_eq!(
        client.stats().expect("stats").ingested,
        updates.len() as u64,
        "every record replayed"
    );
    let inner = |c: &mut Client| {
        let ckpt = c.checkpoint().expect("checkpoint");
        unwrap_envelope(&ckpt).expect("envelope").inner.to_vec()
    };
    assert!(inner(&mut client) == inner(&mut plain), "checkpoint bytes");
    client.shutdown().expect("shutdown");
    node.join();
    plain.shutdown().expect("shutdown");
    reference.join();
    let _ = std::fs::remove_dir_all(&dir);
}
