//! The freshness contract, differentially: watermarked read-your-writes
//! must be observationally identical to the old publish-before-ack server.
//!
//! With a single writer, both contracts pin the same answer: after the ack
//! of batch `i`, a read must reflect exactly batches `0..=i` — no more
//! exists, and the watermark forbids less. So the differential reference is
//! an in-process [`Engine`] fed the same prefix (engine ≡ `fews-core` is
//! pinned by `engine_equivalence.rs`), and every mid-stream answer must
//! match it **byte-for-byte** — at K ∈ {1, 2, 4}, through the cluster
//! router, and across a `--data-dir` restart.
//!
//! The last test is the torn-view regression: a deliberately slow refresher
//! (`ServerOptions::refresh_debounce`) must delay watermarked answers, not
//! corrupt them — a query at an acked watermark may never observe half a
//! batch.

use fews_core::insertion_deletion::IdConfig;
use fews_core::insertion_only::FewwConfig;
use fews_engine::{Engine, EngineConfig};
use fews_net::{Client, Server, ServerOptions};
use fews_stream::update::as_insertions;
use fews_stream::{Edge, Update};
use std::time::Duration;

const SEED: u64 = 2021;
const PARTITIONS: usize = 8;
const CHUNK: usize = 97;

fn io_workload() -> (EngineConfig, Vec<Update>) {
    let s = fews_stream::gen::zipf::zipf_stream(
        192,
        1.2,
        6_000,
        &mut fews_common::rng::rng_for(SEED, 11),
    );
    let d = (*s.frequencies.iter().max().expect("n >= 1")).max(1);
    let cfg = EngineConfig::insert_only(FewwConfig::new(192, d, 2), SEED)
        .with_partitions(PARTITIONS)
        .with_batch(64);
    (cfg, as_insertions(&s.edges))
}

fn id_workload() -> (EngineConfig, Vec<Update>) {
    let log = fews_stream::gen::dblog::db_log(
        32,
        1 << 10,
        12,
        4,
        0.5,
        &mut fews_common::rng::rng_for(SEED, 12),
    );
    let cfg = EngineConfig::insert_delete(IdConfig::with_scale(32, 1 << 10, 12, 2, 0.02), SEED)
        .with_partitions(PARTITIONS)
        .with_batch(64);
    (cfg, log.updates)
}

/// Drive `updates` through `client` chunk by chunk; after every acked chunk
/// the (watermarked) answers must equal the in-process reference engine fed
/// the same prefix. Returns the reference for the caller's final checks.
fn assert_prefix_equivalence(
    client: &mut Client,
    reference: &mut Engine,
    updates: &[Update],
    label: &str,
) {
    for (i, chunk) in updates.chunks(CHUNK).enumerate() {
        assert_eq!(
            client.ingest_batch(chunk).expect("ingest"),
            chunk.len() as u64
        );
        reference.ingest(chunk.iter().copied());
        let view = reference.view();
        let probe = chunk[0].edge.a;
        assert_eq!(
            client.certified().expect("certified"),
            view.certified(),
            "{label}: certified diverged after chunk {i}"
        );
        assert_eq!(
            client.certify(probe).expect("certify"),
            view.certify(probe),
            "{label}: certify({probe}) diverged after chunk {i}"
        );
        assert_eq!(
            client.top(3).expect("top"),
            view.top(3),
            "{label}: top-3 diverged after chunk {i}"
        );
    }
}

/// Watermarked reads equal the reference at every prefix, for both models,
/// at every shard count. Publish-before-ack would serve exactly these
/// answers, so this is the old contract pinned byte-for-byte.
#[test]
fn watermarked_reads_match_reference_at_every_prefix() {
    for (name, (cfg, updates)) in [("io", io_workload()), ("id", id_workload())] {
        for shards in [1usize, 2, 4] {
            let server = Server::start(cfg.with_shards(shards), "127.0.0.1:0").expect("bind");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let mut reference = Engine::start(cfg.with_shards(1));
            let label = format!("{name}, K={shards}");
            assert_prefix_equivalence(&mut client, &mut reference, &updates, &label);
            client.shutdown().expect("shutdown");
            server.join();
        }
    }
}

/// The same prefix differential through a cluster router: the ack watermark
/// is the router's, and the scoped reads it fans out must wait on the
/// per-worker watermarks it implies.
#[test]
fn watermarked_reads_match_reference_through_router() {
    let (cfg, updates) = io_workload();
    let workers: Vec<Server> = (0..3)
        .map(|i| Server::start(cfg, "127.0.0.1:0").unwrap_or_else(|e| panic!("worker {i}: {e}")))
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let opts = fews_cluster::RouterOptions {
        client: fews_net::ClientOptions::bounded(Duration::from_secs(5), 0),
        heartbeat: None,
        forward_shutdown: false,
        replicas: 2,
        data_dir: None,
        // Ten 97-update chunks (970) fit and an eleventh does not, so the
        // 6,000-update stream (62 chunks) crosses the budget six times and
        // every prefix read after a refresh reads refreshed state.
        retained_budget: 1_024,
        disk_faults: None,
        max_conns: 0,
    };
    let router = fews_cluster::Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router");
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut reference = Engine::start(cfg.with_shards(1));
    assert_prefix_equivalence(&mut client, &mut reference, &updates, "router");
    router.shutdown();
    router.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
}

/// Watermarks survive a `--data-dir` restart: recovery replays the WAL into
/// the same ingest sequence, so a watermark acked before the restart is
/// still honoured after it, and the prefix differential keeps holding for
/// the second half of the stream.
#[test]
fn watermarked_reads_survive_data_dir_restart() {
    let (cfg, updates) = io_workload();
    let dir = std::env::temp_dir().join(format!("fews-freshness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServerOptions {
        data_dir: Some(dir.clone()),
        compact_bytes: 64 << 20,
        refresh_debounce: None,
        ..ServerOptions::default()
    };
    let mut reference = Engine::start(cfg.with_shards(1));
    let half = updates.len() / 2;

    let server = Server::start_with(cfg, "127.0.0.1:0", opts.clone()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_prefix_equivalence(&mut client, &mut reference, &updates[..half], "pre-restart");
    let acked = client.watermark();
    assert!(acked > 0, "ingest acks must carry a watermark");
    client.shutdown().expect("shutdown");
    server.join();

    let server = Server::start_with(cfg, "127.0.0.1:0", opts).expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    // A client holding a pre-restart watermark is served, not timed out:
    // recovery restored the ingest sequence, so the restarted server's
    // published watermark already covers every pre-restart ack.
    client.set_watermark(acked);
    assert_eq!(
        client
            .certified()
            .expect("certified at pre-restart watermark"),
        reference.view().certified(),
        "post-restart certified diverged from the acked prefix"
    );
    assert_prefix_equivalence(
        &mut client,
        &mut reference,
        &updates[half..],
        "post-restart",
    );
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-view regression: with the refresher slowed to a crawl, a query at
/// an acked watermark must still see every acked batch **whole**. Each
/// batch is a full star for a fresh vertex and the engine hand-off is
/// smaller than the batch, so any snapshot taken at half a batch would
/// certify the star with missing witnesses.
#[test]
fn slow_refresher_never_serves_torn_views() {
    const D: u32 = 24;
    let cfg = EngineConfig::insert_only(FewwConfig::new(64, D, 1), SEED)
        .with_partitions(PARTITIONS)
        // Hand-off batches much smaller than one star: a snapshot barrier
        // that could slip between them would tear the star apart.
        .with_batch(8);
    let server = Server::start_with(
        cfg,
        "127.0.0.1:0",
        ServerOptions {
            data_dir: None,
            compact_bytes: 64 << 20,
            refresh_debounce: Some(Duration::from_millis(25)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for v in 0..32u32 {
        let star: Vec<Update> = (0..D)
            .map(|b| Update::insert(Edge::new(v, 1_000 + b as u64)))
            .collect();
        assert_eq!(client.ingest_batch(&star).expect("ingest"), D as u64);
        // α = 1 ⇒ d₂ = D: the certify answer holds the whole star or the
        // view is torn. The slow refresher means this read *waits*; it must
        // never return early with a partial batch.
        let nb = client
            .certify(v)
            .expect("certify")
            .unwrap_or_else(|| panic!("vertex {v}: acked star invisible to watermarked read"));
        assert_eq!(
            nb.size(),
            D as usize,
            "vertex {v}: watermarked read observed a torn batch"
        );
    }
    client.shutdown().expect("shutdown");
    server.join();
}
