//! `cluster` — loopback load against an N-node `fews-cluster`.
//!
//! Starts N real [`fews_net::Server`] workers on ephemeral loopback ports,
//! fronts them with a [`fews_cluster::Router`], and drives the *router*
//! with concurrent client threads running the same mixed workload as the
//! `net` experiment: batched ingest frames interleaved with live queries
//! (`certify`, `top`). Every op therefore pays the full cluster path —
//! router framing, partition fan-out to every owning replica, and (for
//! queries) scoped reads at each partition's designated reader plus the
//! exact merge of their answers. Reports sustained
//! throughput, request rate, p50/p99 per-request latency split by request
//! kind, and wire bytes per request, over the replication grid
//! R ∈ {1, 2} × N ∈ {1, 2, 3, 4} (R = 2 needs N ≥ 2); alongside the CSV it
//! writes `BENCH_cluster.json` for the performance trajectory.
//!
//! R = 1, N = 1 prices the coordinator itself against the plain `net`
//! numbers (one extra hop, one extra frame encode/decode per request);
//! growing N shows how the price moves as the slice spreads over more
//! processes on the same box, and the R = 2 column prices fault tolerance:
//! every ingest frame fans out to two owners, pipelined (all owner frames
//! written, then all acks collected). On a 1-core dev machine the workers'
//! shard pools cannot add real parallelism, so the interesting columns are
//! the latency ones.

use super::{percentile, ExpCtx};
use crate::table::Table;
use fews_cluster::{Router, RouterOptions};
use fews_common::rng::{derive_seed, rng_for};
use fews_core::insertion_deletion::IdConfig;
use fews_core::insertion_only::FewwConfig;
use fews_engine::EngineConfig;
use fews_net::{Client, Server};
use fews_stream::update::as_insertions;
use fews_stream::Update;
use std::time::Instant;

const NODE_COUNTS: [usize; 4] = [1, 2, 3, 4];
const REPLICA_COUNTS: [usize; 2] = [1, 2];
/// Client threads driving the router. The router serializes request
/// handling behind one mutex by design, so more clients mostly measure
/// queueing; two keep the wire busy without pretending otherwise.
const CLIENTS: usize = 2;
const PARTITIONS: usize = 8;

struct Workload {
    name: &'static str,
    updates: Vec<Update>,
    cfg: EngineConfig,
    /// Updates per ingest frame.
    batch: usize,
    /// One timed query per this many ingest frames, per client.
    query_every: usize,
    /// Ingest the stream this many times (sustained-traffic knob for short
    /// logs; turnstile semantics keep repeats meaningful).
    repeat: usize,
}

fn workloads(ctx: &ExpCtx) -> Vec<Workload> {
    let seed = derive_seed(ctx.seed, 0xC15_0001);
    let mut out = Vec::new();

    // Zipf item stream — the insertion-only throughput headline, same
    // shape as the `net` experiment's but shorter: every cell here runs
    // once per node count and the router adds a hop per frame.
    let zipf_len = if ctx.quick { 40_000 } else { 400_000 };
    let n = 4096u32;
    let s = fews_stream::gen::zipf::zipf_stream(n, 1.1, zipf_len, &mut rng_for(seed, 1));
    out.push(Workload {
        name: "zipf",
        updates: as_insertions(&s.edges),
        cfg: EngineConfig::insert_only(FewwConfig::new(n, 2048, 2), seed),
        batch: if ctx.quick { 1024 } else { 4096 },
        query_every: 1,
        repeat: 1,
    });

    // Database audit log — the insertion-deletion model through the
    // cluster. Small model, repeated log, exactly as in `net`.
    let (records, hot) = if ctx.quick { (32u32, 12u32) } else { (48, 16) };
    let log = fews_stream::gen::dblog::db_log(records, 1 << 10, hot, 4, 0.5, &mut rng_for(seed, 2));
    out.push(Workload {
        name: "dblog",
        updates: log.updates,
        cfg: EngineConfig::insert_delete(
            IdConfig::with_scale(records, 1 << 10, hot, 2, 0.02),
            seed,
        ),
        batch: 64,
        query_every: 1,
        repeat: if ctx.quick { 8 } else { 24 },
    });

    out
}

#[derive(Debug, Clone, Copy, Default)]
struct LoadMetrics {
    secs: f64,
    ops_per_sec: f64,
    requests_per_sec: f64,
    queries: u64,
    p50_ingest_us: u64,
    p99_ingest_us: u64,
    p50_query_us: u64,
    p99_query_us: u64,
    bytes_per_request: f64,
}

fn model_of(cfg: &EngineConfig) -> (&'static str, u32) {
    match cfg.model {
        fews_engine::ModelSpec::InsertOnly(c) => ("io", c.n),
        fews_engine::ModelSpec::InsertDelete(c) => ("id", c.n),
    }
}

/// Drive `CLIENTS` threads of mixed ingest+query load through a router
/// fronting `nodes` worker servers at `replicas` owners per partition.
fn run_cluster_load(
    w: &Workload,
    nodes: usize,
    replicas: usize,
    query_every: usize,
) -> LoadMetrics {
    let cfg = w
        .cfg
        .with_partitions(PARTITIONS)
        .with_shards(1)
        .with_batch(w.batch);
    let workers: Vec<Server> = (0..nodes)
        .map(|i| Server::start(cfg, "127.0.0.1:0").unwrap_or_else(|e| panic!("worker {i}: {e}")))
        .collect();
    let addrs: Vec<String> = workers.iter().map(|s| s.local_addr().to_string()).collect();
    // No background heartbeat: nothing dies in a bench cell, and the timing
    // should not carry periodic ping traffic.
    let opts = RouterOptions {
        heartbeat: None,
        forward_shutdown: false,
        replicas,
        ..RouterOptions::default()
    };
    let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("bind router");
    let addr = router.local_addr();
    let (_, n) = model_of(&w.cfg);
    let updates = &w.updates;
    // Contiguous slices per client: every update is ingested exactly once
    // per repeat pass (per-partition order is then client-dependent, which
    // the equivalence suite — not this harness — is responsible for).
    let per_client = updates.len().div_ceil(CLIENTS);
    let started = Instant::now();
    let results: Vec<(Vec<u64>, Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = updates
            .chunks(per_client)
            .enumerate()
            .map(|(c, slice)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("bench client connect");
                    let mut ingest_lat = Vec::with_capacity(w.repeat * (slice.len() / w.batch + 2));
                    let mut query_lat = Vec::new();
                    let mut queries = 0u64;
                    let mut frames = 0usize;
                    for _ in 0..w.repeat {
                        for chunk in slice.chunks(w.batch) {
                            let t0 = Instant::now();
                            client.ingest_batch(chunk).expect("bench ingest");
                            ingest_lat.push(t0.elapsed().as_micros() as u64);
                            frames += 1;
                            if frames.is_multiple_of(query_every) {
                                let t0 = Instant::now();
                                match queries % 2 {
                                    0 => {
                                        let v = (queries * 37 + c as u64) % n as u64;
                                        let _ = client.certify(v as u32).expect("bench certify");
                                    }
                                    _ => {
                                        let _ = client.top(3).expect("bench top");
                                    }
                                }
                                query_lat.push(t0.elapsed().as_micros() as u64);
                                queries += 1;
                            }
                        }
                    }
                    // One closing query per client so every cell reports
                    // query latency even when the stream is short.
                    let t0 = Instant::now();
                    let _ = client.top(3).expect("bench top");
                    query_lat.push(t0.elapsed().as_micros() as u64);
                    queries += 1;
                    (
                        ingest_lat,
                        query_lat,
                        queries,
                        client.bytes_sent() + client.bytes_received(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let total_updates = (updates.len() * w.repeat) as u64;
    let mut owner = Client::connect(addr).expect("owner connect");
    let stats = owner.stats().expect("owner stats");
    assert_eq!(stats.ingested, total_updates, "updates lost in the cluster");
    drop(owner);
    router.shutdown();
    router.join();
    for worker in workers {
        worker.shutdown();
        worker.join();
    }

    let mut ingest_lat: Vec<u64> = results.iter().flat_map(|r| r.0.iter().copied()).collect();
    let mut query_lat: Vec<u64> = results.iter().flat_map(|r| r.1.iter().copied()).collect();
    ingest_lat.sort_unstable();
    query_lat.sort_unstable();
    let queries: u64 = results.iter().map(|r| r.2).sum();
    let wire_bytes: u64 = results.iter().map(|r| r.3).sum();
    let requests = ingest_lat.len() as u64 + queries;
    LoadMetrics {
        secs,
        ops_per_sec: (total_updates + queries) as f64 / secs,
        requests_per_sec: requests as f64 / secs,
        queries,
        p50_ingest_us: percentile(&ingest_lat, 0.50),
        p99_ingest_us: percentile(&ingest_lat, 0.99),
        p50_query_us: percentile(&query_lat, 0.50),
        p99_query_us: percentile(&query_lat, 0.99),
        bytes_per_request: wire_bytes as f64 / requests.max(1) as f64,
    }
}

/// Mixed ingest+query load through the cluster router over the
/// R ∈ {1, 2} × N ∈ {1, 2, 3, 4} replication grid (R = 2 needs N ≥ 2),
/// plus `BENCH_cluster.json`.
pub fn cluster_exp(ctx: &ExpCtx) -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ws = workloads(ctx);
    let floor = super::net::query_floor(ctx.quick);

    let cols = [
        "generator",
        "model",
        "updates",
        "batch",
        "query_every",
        "nodes",
        "replicas",
        "queries_sound",
        "secs",
        "ops_per_sec",
        "requests_per_sec",
        "p50_ingest_us",
        "p99_ingest_us",
        "p50_query_us",
        "p99_query_us",
        "bytes_per_request",
    ];
    let mut load = Table::new(
        "cluster — router + N workers × R replicas, loopback mixed ingest+query load (K = 1 per worker)",
        &cols,
    );
    let mut json_rows = Vec::new();
    for w in &ws {
        let (model, _) = model_of(&w.cfg);
        let query_every = ctx.query_every.unwrap_or(w.query_every).max(1);
        let total_updates = w.updates.len() * w.repeat;
        // Untimed warm-up pass (page cache, allocator growth, thread
        // spawn) so the R = 1, N = 1 cell that runs first is not penalized.
        let _ = run_cluster_load(w, 1, 1, query_every);
        let mut cells = Vec::new();
        for &replicas in &REPLICA_COUNTS {
            for &nodes in &NODE_COUNTS {
                if replicas > nodes {
                    continue; // R clamps to N: the cell would duplicate R = N.
                }
                let m = run_cluster_load(w, nodes, replicas, query_every);
                let sound = m.queries >= floor;
                if !sound {
                    eprintln!(
                        "cluster: {} N={nodes} R={replicas} reports only {} timed queries \
                         (< {floor}) — latency percentiles flagged as unsound",
                        w.name, m.queries
                    );
                }
                load.push_row(vec![
                    w.name.into(),
                    model.into(),
                    total_updates.to_string(),
                    w.batch.to_string(),
                    query_every.to_string(),
                    nodes.to_string(),
                    replicas.to_string(),
                    if sound { "yes".into() } else { "NO".into() },
                    format!("{:.3}", m.secs),
                    format!("{:.0}", m.ops_per_sec),
                    format!("{:.0}", m.requests_per_sec),
                    m.p50_ingest_us.to_string(),
                    m.p99_ingest_us.to_string(),
                    m.p50_query_us.to_string(),
                    m.p99_query_us.to_string(),
                    format!("{:.0}", m.bytes_per_request),
                ]);
                cells.push(format!(
                    "{{\"nodes\": {nodes}, \"replicas\": {replicas}, \
                     \"ops_per_sec\": {:.0}, \"requests_per_sec\": {:.0}, \
                     \"queries\": {}, \"low_queries\": {}, \"p50_ingest_us\": {}, \
                     \"p99_ingest_us\": {}, \"p50_query_us\": {}, \
                     \"p99_query_us\": {}, \"bytes_per_request\": {:.0}}}",
                    m.ops_per_sec,
                    m.requests_per_sec,
                    m.queries,
                    !sound,
                    m.p50_ingest_us,
                    m.p99_ingest_us,
                    m.p50_query_us,
                    m.p99_query_us,
                    m.bytes_per_request
                ));
            }
        }
        json_rows.push(format!(
            "  \"{}\": {{\"model\": \"{}\", \"updates\": {}, \"batch\": {}, \
             \"query_every\": {}, \"cells\": [{}]}}",
            w.name,
            model,
            total_updates,
            w.batch,
            query_every,
            cells.join(", ")
        ));
    }
    load.write_csv(&ctx.out_dir, "cluster_load").expect("csv");

    let json = format!(
        "{{\n  \"experiment\": \"cluster\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \"cores\": {cores},\n  \"query_floor\": {floor},\n  \"node_counts\": [1, 2, 3, 4],\n  \"replica_counts\": [1, 2],\n  \"clients\": {CLIENTS},\n{}\n}}\n",
        if ctx.quick { "quick" } else { "full" },
        ctx.seed,
        json_rows.join(",\n")
    );
    std::fs::write(ctx.out_dir.join("BENCH_cluster.json"), json).expect("write BENCH_cluster.json");

    vec![load]
}
