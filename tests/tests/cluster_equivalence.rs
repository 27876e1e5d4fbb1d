//! Cluster-equivalence: an N-node `fews-cluster` — a [`Router`] fronting
//! N in-process `fews-net` worker servers — must produce **byte-identical**
//! answers to a single-threaded reference built directly from `fews-core`
//! primitives, for N ∈ {2, 3, 4}, on all four workload generators, across
//! two master seeds. Compared per run: the certified witness set, spot
//! `certify(v)` probes, `top(5)`, and the full checkpoint container bytes.
//!
//! The reference is the same one `engine_equivalence.rs` uses: P partition
//! instances seeded via [`fews_engine::partition_seed`], fed in stream order
//! through [`fews_engine::partition_of`] routing, merged with the
//! `fews-core` merge hooks. The cluster adds processes-worth of machinery —
//! wire framing, partition routing, per-node scoped reads, the merge of
//! their answers — none of which may change a byte. A final test kills a
//! worker mid-stream, keeps ingesting while it is down, revives it through
//! the checkpoint-handoff rejoin path, and holds the recovered cluster to
//! the same byte-identity bar.

use std::net::SocketAddr;
use std::time::Duration;

use fews_cluster::{Router, RouterOptions};
use fews_core::insertion_deletion::{FewwInsertDelete, IdConfig};
use fews_core::insertion_only::{FewwConfig, FewwInsertOnly};
use fews_core::neighbourhood::Neighbourhood;
use fews_engine::checkpoint::{self, unwrap_envelope};
use fews_engine::{partition_of, partition_seed, Engine, EngineConfig};
use fews_net::{Client, ClientError, ClientOptions, ErrorCode, Server};
use fews_stream::update::as_insertions;
use fews_stream::{Edge, Update};
use proptest::prelude::*;

const PARTITIONS: usize = 8;
const NODE_COUNTS: [usize; 3] = [2, 3, 4];
const SEEDS: [u64; 2] = [2021, 77];
const CHUNK: usize = 211;

/// Single-threaded insertion-only reference: per-partition payloads plus the
/// merged view's certified output.
fn reference_io(
    cfg: FewwConfig,
    seed: u64,
    updates: &[Update],
) -> (Vec<(u32, Vec<u8>)>, Option<Neighbourhood>) {
    let mut parts: Vec<FewwInsertOnly> = (0..PARTITIONS)
        .map(|p| FewwInsertOnly::new(cfg, partition_seed(seed, p as u32)))
        .collect();
    for u in updates {
        assert!(u.delta > 0, "insertion-only reference got a deletion");
        parts[partition_of(u.edge.a, PARTITIONS)].push(u.edge);
    }
    let payloads = parts
        .iter()
        .enumerate()
        .map(|(p, alg)| (p as u32, alg.snapshot().encode()))
        .collect();
    let mut merged = parts[0].snapshot();
    for alg in &parts[1..] {
        merged.merge(&alg.snapshot());
    }
    (payloads, merged.certified())
}

/// Single-threaded insertion-deletion reference (pooled-bank certified
/// output: most witnesses, ties to the smaller vertex).
fn reference_id(
    cfg: IdConfig,
    seed: u64,
    updates: &[Update],
) -> (Vec<(u32, Vec<u8>)>, Option<Neighbourhood>) {
    let mut parts: Vec<FewwInsertDelete> = (0..PARTITIONS)
        .map(|p| FewwInsertDelete::new(cfg, partition_seed(seed, p as u32)))
        .collect();
    for u in updates {
        parts[partition_of(u.edge.a, PARTITIONS)].push(*u);
    }
    let payloads = parts
        .iter()
        .enumerate()
        .map(|(p, alg)| (p as u32, alg.snapshot().encode()))
        .collect();
    let d2 = cfg.witness_target() as usize;
    let certified = parts
        .iter()
        .flat_map(FewwInsertDelete::pooled_witnesses)
        .filter(|(_, ws)| ws.len() >= d2)
        .max_by_key(|(a, ws)| (ws.len(), std::cmp::Reverse(*a)))
        .map(|(a, ws)| Neighbourhood::new(a, ws));
    (payloads, certified)
}

/// Retained-log budget of the healthy equivalence runs, derived from
/// CHUNK = 211: one chunk fits and two (422) do not, so every chunk after
/// the first refreshes before it lands. The zipf (95 chunks), dos (~16)
/// and planted (540 updates: 211 + 211 + 118, crossing before the 2nd and
/// the 3rd) streams all cross it at least twice. The dblog log (~100
/// updates) is a single chunk, which crosses no budget twice; the final
/// checkpoint's forced refresh covers it.
const HEALTHY_BUDGET: u64 = 300;

/// Router options tuned for tests: no background heartbeat (the kill tests
/// drive recovery through the query path deterministically), and a
/// retained-log budget small enough that every multi-chunk run exercises
/// slice-checkpoint pull + log truncation. The timeout is generous because
/// the whole workspace test suite shares one core — dead-worker detection
/// goes through connection-refused, which is immediate, so it stays fast
/// regardless.
fn quick_opts() -> RouterOptions {
    RouterOptions {
        client: ClientOptions::bounded(Duration::from_secs(5), 0),
        heartbeat: None,
        forward_shutdown: false,
        // R=1 keeps the base equivalence runs on the sharpest path (every
        // partition has exactly one owner, no replica masks a routing bug);
        // the interleaving proptest below sweeps R ∈ {1, 2, 3}.
        replicas: 1,
        data_dir: None,
        retained_budget: HEALTHY_BUDGET,
        disk_faults: None,
        max_conns: 0,
    }
}

/// Options for the kill/rejoin tests: a budget no stream here can reach,
/// so nothing owed to a dead worker sheds, with their refreshes coming from
/// rejoins and checkpoints. No one budget serves them both ways: the kill
/// test's victim solely owns 3 of 8 partitions and is owed ~3,750 of the
/// 10,000 updates ingested while it is down, past HEALTHY_BUDGET; and a
/// budget the proptest's shortest (60-update) stream crosses twice is
/// under 30, which the half of a stream owed to a dead node at N = 2
/// passes.
fn outage_opts() -> RouterOptions {
    RouterOptions {
        retained_budget: 1 << 20,
        ..quick_opts()
    }
}

/// An N-node cluster: N worker servers plus the fronting router.
struct Cluster {
    workers: Vec<Server>,
    router: Router,
}

impl Cluster {
    fn start(cfg: EngineConfig, n: usize) -> Cluster {
        Cluster::start_with(cfg, n, quick_opts())
    }

    fn start_with(cfg: EngineConfig, n: usize, opts: RouterOptions) -> Cluster {
        let workers: Vec<Server> = (0..n)
            .map(|i| {
                Server::start(cfg, "127.0.0.1:0").unwrap_or_else(|e| panic!("worker {i}: {e}"))
            })
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router");
        Cluster { workers, router }
    }

    fn client(&self) -> Client {
        Client::connect(self.router.local_addr()).expect("connect to router")
    }

    fn stop(self) {
        self.router.shutdown();
        self.router.join();
        for w in self.workers {
            w.shutdown();
            w.join();
        }
    }
}

/// Restart a worker on a fixed address, retrying while the previous
/// tenant's socket lingers.
fn start_worker_at(cfg: EngineConfig, addr: SocketAddr) -> Server {
    for _ in 0..100 {
        match Server::start(cfg, &addr.to_string()) {
            Ok(server) => return server,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("could not rebind {addr}");
}

/// Run the cluster at every node count and hold its answers and checkpoint
/// bytes to the reference.
fn assert_cluster_matches(
    make_cfg: impl Fn() -> EngineConfig,
    updates: &[Update],
    want_payloads: &[(u32, Vec<u8>)],
    want_certified: &Option<Neighbourhood>,
    label: &str,
) {
    // The engine is the oracle for query shapes the core reference does not
    // expose directly (certify probes, top-k ordering); engine_equivalence
    // pins the engine itself to the core reference.
    let mut oracle = Engine::start(make_cfg());
    oracle.ingest(updates.iter().copied());
    let (view, _) = oracle.refresh();
    let oracle_ckpt = oracle.checkpoint();

    let mut checkpoints: Vec<Vec<u8>> = Vec::new();
    for n in NODE_COUNTS {
        let cluster = Cluster::start(make_cfg(), n);
        let mut client = cluster.client();
        for chunk in updates.chunks(CHUNK) {
            client.ingest_batch(chunk).expect("ingest");
        }

        assert_eq!(
            &client.certified().expect("certified"),
            want_certified,
            "{label}, N = {n}: certified witness set diverged from the reference"
        );
        for v in [0u32, 7, 13, 29] {
            assert_eq!(
                client.certify(v).expect("certify"),
                view.certify(v),
                "{label}, N = {n}: certify({v}) diverged"
            );
        }
        assert_eq!(
            client.top(5).expect("top"),
            view.top(5),
            "{label}, N = {n}: top(5) diverged"
        );

        let envelope = client.checkpoint().expect("checkpoint");
        let inner = unwrap_envelope(&envelope).expect("envelope").inner.to_vec();
        let (_, got_payloads) = checkpoint::decode(&inner).expect("cluster checkpoint decodes");
        assert_eq!(
            got_payloads, want_payloads,
            "{label}, N = {n}: wire-format snapshots diverged from the reference"
        );
        assert_eq!(
            inner, oracle_ckpt,
            "{label}, N = {n}: checkpoint container bytes diverged from a single engine"
        );
        checkpoints.push(inner);
        cluster.stop();
    }
    assert!(
        checkpoints.windows(2).all(|w| w[0] == w[1]),
        "{label}: checkpoint bytes differ between node counts"
    );
}

#[test]
fn zipf_cluster_equals_reference() {
    for seed in SEEDS {
        let s = fews_stream::gen::zipf::zipf_stream(
            256,
            1.2,
            20_000,
            &mut fews_common::rng::rng_for(seed, 1),
        );
        let d = *s.frequencies.iter().max().unwrap();
        let cfg = FewwConfig::new(256, d.max(1), 2);
        let updates = as_insertions(&s.edges);
        let (payloads, certified) = reference_io(cfg, seed, &updates);
        assert!(certified.is_some(), "zipf stream must certify its head");
        assert_cluster_matches(
            || {
                EngineConfig::insert_only(cfg, seed)
                    .with_partitions(PARTITIONS)
                    .with_shards(2)
            },
            &updates,
            &payloads,
            &certified,
            "zipf",
        );
    }
}

#[test]
fn planted_cluster_equals_reference() {
    for seed in SEEDS {
        let g = fews_stream::gen::planted::planted_star(
            128,
            1 << 16,
            32,
            4,
            &mut fews_common::rng::rng_for(seed, 2),
        );
        let cfg = FewwConfig::new(128, 32, 2);
        let updates = as_insertions(&g.edges);
        let (payloads, certified) = reference_io(cfg, seed, &updates);
        assert_cluster_matches(
            || {
                EngineConfig::insert_only(cfg, seed)
                    .with_partitions(PARTITIONS)
                    .with_shards(2)
            },
            &updates,
            &payloads,
            &certified,
            "planted",
        );
    }
}

#[test]
fn dos_cluster_equals_reference() {
    for seed in SEEDS {
        let t = fews_stream::gen::dos::dos_trace(
            128,
            1 << 20,
            6_000,
            1.0,
            300,
            &mut fews_common::rng::rng_for(seed, 3),
        );
        let cfg = FewwConfig::new(128, 300, 2);
        let updates = as_insertions(&t.edges);
        let (payloads, certified) = reference_io(cfg, seed, &updates);
        assert_cluster_matches(
            || {
                EngineConfig::insert_only(cfg, seed)
                    .with_partitions(PARTITIONS)
                    .with_shards(2)
            },
            &updates,
            &payloads,
            &certified,
            "dos",
        );
    }
}

#[test]
fn dblog_cluster_equals_reference() {
    for seed in SEEDS {
        let log = fews_stream::gen::dblog::db_log(
            32,
            1 << 10,
            12,
            2,
            0.4,
            &mut fews_common::rng::rng_for(seed, 4),
        );
        let cfg = IdConfig::with_scale(32, 1 << 10, 12, 2, 0.03);
        let (payloads, certified) = reference_id(cfg, seed, &log.updates);
        assert_cluster_matches(
            || {
                EngineConfig::insert_delete(cfg, seed)
                    .with_partitions(PARTITIONS)
                    .with_shards(2)
            },
            &log.updates,
            &payloads,
            &certified,
            "dblog",
        );
    }
}

/// Kill-a-worker interleaving at R=1 (quick_opts pins one owner per
/// partition, so the loss is observable): ingest half the stream, `kill -9`
/// one worker (in-process `crash()`), keep ingesting while it is down
/// (batches must still ack — the router retains them), observe the typed
/// `node-unavailable` on a query that needs the missing slice, revive the
/// worker *empty* on the same address, and require the rejoined cluster —
/// recovered purely through checkpoint handoff + log replay — to be
/// byte-identical to the single-threaded reference that saw every update.
#[test]
fn killed_worker_rejoins_byte_identical() {
    let seed = SEEDS[0];
    let s = fews_stream::gen::zipf::zipf_stream(
        256,
        1.2,
        20_000,
        &mut fews_common::rng::rng_for(seed, 1),
    );
    let d = *s.frequencies.iter().max().unwrap();
    let core_cfg = FewwConfig::new(256, d.max(1), 2);
    let updates = as_insertions(&s.edges);
    let (payloads, certified) = reference_io(core_cfg, seed, &updates);
    let cfg = EngineConfig::insert_only(core_cfg, seed)
        .with_partitions(PARTITIONS)
        .with_shards(2);

    let mut cluster = Cluster::start_with(cfg, 3, outage_opts());
    let mut client = cluster.client();
    let (first, rest) = updates.split_at(updates.len() / 2);
    for chunk in first.chunks(CHUNK) {
        client.ingest_batch(chunk).expect("ingest");
    }
    client.certified().expect("healthy query");

    // Hard-kill the middle worker and keep the stream flowing.
    let victim = cluster.workers.remove(1);
    let victim_addr = victim.local_addr();
    victim.crash();
    victim.join();
    for chunk in rest.chunks(CHUNK) {
        client
            .ingest_batch(chunk)
            .expect("degraded ingest still acks");
    }
    match client.certified() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NodeUnavailable),
        other => panic!("query with a dead owner should be typed, got {other:?}"),
    }

    // Revive empty on the same address; the next query rejoins it via
    // slice-restore + log replay.
    cluster.workers.push(start_worker_at(cfg, victim_addr));
    assert_eq!(
        &client.certified().expect("recovered certified"),
        &certified,
        "recovered cluster diverged on the certified set"
    );

    let mut oracle = Engine::start(cfg);
    oracle.ingest(updates.iter().copied());
    let (view, _) = oracle.refresh();
    assert_eq!(client.top(5).expect("top"), view.top(5));

    let envelope = client.checkpoint().expect("checkpoint");
    let inner = unwrap_envelope(&envelope).expect("envelope").inner.to_vec();
    let (_, got_payloads) = checkpoint::decode(&inner).expect("decodes");
    assert_eq!(
        got_payloads, payloads,
        "recovered cluster snapshots diverged from the reference"
    );
    assert_eq!(
        inner,
        oracle.checkpoint(),
        "recovered cluster checkpoint bytes diverged from a single engine"
    );

    cluster.stop();
}

/// The (replicas, nodes) grid the interleaving property sweeps: R ∈ {1,2,3}
/// crossed with N ∈ {2,3,4} along the interesting diagonal — under-, fully-,
/// and over-replicated (R clamps to N) clusters.
const RN_COMBOS: [(usize, usize); 6] = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (1, 4)];

/// What one step of a random schedule does between ingest chunks.
#[derive(Debug, Clone, Copy)]
enum Act {
    Ingest,
    Kill,
    Revive,
    Query,
}

fn act_of(code: u8) -> Act {
    match code % 4 {
        0 => Act::Ingest,
        1 => Act::Kill,
        2 => Act::Revive,
        _ => Act::Query,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replicated-merge determinism under randomized interleavings of
    /// ingest / node-kill / query / rejoin, at every (R, N) combo: every
    /// ingest batch must ack, a query while at most one worker is dead must
    /// *succeed* whenever R ≥ 2 (no pause, no typed error — the replica
    /// answers) and must equal the single-threaded oracle whenever it
    /// succeeds, and after reviving the world the certified set, certify
    /// probes, top(5), and full checkpoint bytes must all be byte-identical
    /// to the oracle.
    #[test]
    fn interleaved_kill_rejoin_stays_byte_identical(
        edges in proptest::collection::vec((0u32..64, 0u64..512), 60..160),
        schedule in proptest::collection::vec(0u8..4, 6..16),
        seed in (0u64..2).prop_map(|i| SEEDS[i as usize]),
    ) {
        let updates: Vec<Update> = edges
            .iter()
            .map(|&(a, b)| Update::insert(Edge::new(a, b)))
            .collect();
        for (r, n) in RN_COMBOS {
            let cfg = EngineConfig::insert_only(FewwConfig::new(64, 8, 2), seed)
                .with_partitions(PARTITIONS)
                .with_shards(2);
            let mut opts = outage_opts();
            opts.replicas = r;

            let mut workers: Vec<Option<Server>> = (0..n)
                .map(|i| {
                    Some(Server::start(cfg, "127.0.0.1:0")
                        .unwrap_or_else(|e| panic!("worker {i}: {e}")))
                })
                .collect();
            let addrs: Vec<SocketAddr> = workers
                .iter()
                .map(|w| w.as_ref().expect("fresh worker").local_addr())
                .collect();
            let names: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
            let router = Router::start(cfg, "127.0.0.1:0", &names, opts).expect("router");
            let mut client = Client::connect(router.local_addr()).expect("connect");
            let mut oracle = Engine::start(cfg);

            let per = updates.len() / schedule.len() + 1;
            let mut chunks = updates.chunks(per);
            let mut dead: Option<usize> = None;
            let mut rotation = 0usize;
            for &code in &schedule {
                if let Some(chunk) = chunks.next() {
                    client.ingest_batch(chunk).expect("ingest must ack");
                    oracle.ingest(chunk.iter().copied());
                }
                match act_of(code) {
                    Act::Ingest => {}
                    Act::Kill => {
                        if dead.is_none() {
                            let victim = rotation % n;
                            rotation += 1;
                            if let Some(w) = workers[victim].take() {
                                w.crash();
                                w.join();
                                dead = Some(victim);
                            }
                        }
                    }
                    Act::Revive => {
                        if let Some(v) = dead.take() {
                            workers[v] = Some(start_worker_at(cfg, addrs[v]));
                        }
                    }
                    Act::Query => {
                        let (view, _) = oracle.refresh();
                        match client.certified() {
                            Ok(got) => prop_assert_eq!(
                                got, view.certified(),
                                "R={} N={}: certified diverged mid-interleaving", r, n
                            ),
                            Err(ClientError::Server { code, .. }) => prop_assert!(
                                dead.is_some() && r == 1,
                                "R={} N={}: typed {:?} without a dead sole owner", r, n, code
                            ),
                            Err(other) => {
                                prop_assert!(false, "R={} N={}: transport-level {other:?}", r, n)
                            }
                        }
                    }
                }
            }
            for chunk in chunks {
                client.ingest_batch(chunk).expect("ingest must ack");
                oracle.ingest(chunk.iter().copied());
            }
            if let Some(v) = dead.take() {
                workers[v] = Some(start_worker_at(cfg, addrs[v]));
            }

            let (view, _) = oracle.refresh();
            prop_assert_eq!(
                client.certified().expect("final certified"), view.certified(),
                "R={} N={}: final certified diverged", r, n
            );
            for v in [0u32, 7, 13, 29] {
                prop_assert_eq!(
                    client.certify(v).expect("certify"), view.certify(v),
                    "R={} N={}: certify({}) diverged", r, n, v
                );
            }
            prop_assert_eq!(
                client.top(5).expect("top"), view.top(5),
                "R={} N={}: top(5) diverged", r, n
            );
            let envelope = client.checkpoint().expect("checkpoint");
            let inner = unwrap_envelope(&envelope).expect("envelope").inner.to_vec();
            prop_assert_eq!(
                inner, oracle.checkpoint(),
                "R={} N={}: checkpoint bytes diverged", r, n
            );

            router.shutdown();
            router.join();
            for w in workers.into_iter().flatten() {
                w.shutdown();
                w.join();
            }
        }
    }
}
