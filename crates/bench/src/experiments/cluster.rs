//! `cluster` — loopback load against an N-node `fews-cluster`.
//!
//! Starts N real [`fews_net::Server`] workers on ephemeral loopback ports,
//! fronts them with a [`fews_cluster::Router`], and points `net`'s load
//! driver (`load::drive`) at the *router*: the same mixed workload
//! of batched ingest frames interleaved with live queries (`certify`,
//! `top`). Every op therefore pays the full cluster path —
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

use super::load::{drive, load_cols, query_floor, LoadMetrics, Workload};
use super::ExpCtx;
use crate::table::Table;
use fews_cluster::{Router, RouterOptions};
use fews_common::rng::derive_seed;
use fews_net::Server;

const NODE_COUNTS: [usize; 4] = [1, 2, 3, 4];
const REPLICA_COUNTS: [usize; 2] = [1, 2];
/// Client threads driving the router. The router serializes request
/// handling behind one mutex by design, so more clients mostly measure
/// queueing; two keep the wire busy without pretending otherwise.
const CLIENTS: usize = 2;
const PARTITIONS: usize = 8;

fn workloads(ctx: &ExpCtx) -> Vec<Workload> {
    let seed = derive_seed(ctx.seed, 0xC15_0001);
    // Zipf: the `net` experiment's shape but shorter, since every cell here
    // runs once per node count and the router adds a hop per frame. Dblog:
    // small model, repeated log, exactly as in `net`.
    let zipf = if ctx.quick {
        Workload::zipf(seed, 1, 40_000, 1024)
    } else {
        Workload::zipf(seed, 1, 400_000, 4096)
    };
    vec![zipf, Workload::dblog(ctx, seed, 2)]
}

/// Drive `CLIENTS` threads of mixed ingest+query load through a router
/// fronting `nodes` worker servers at `replicas` owners per partition.
pub(super) fn run_cluster_load(w: &Workload, nodes: usize, replicas: usize) -> LoadMetrics {
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
    // Fresh reads: every query waits for its client's last ack, so it
    // prices the scoped reads at each partition's designated reader.
    let m = drive(router.local_addr(), w, CLIENTS, false);
    router.shutdown();
    router.join();
    for worker in workers {
        worker.shutdown();
        worker.join();
    }
    m
}

/// Mixed ingest+query load through the cluster router over the
/// R ∈ {1, 2} × N ∈ {1, 2, 3, 4} replication grid (R = 2 needs N ≥ 2),
/// plus `BENCH_cluster.json`.
pub fn cluster_exp(ctx: &ExpCtx) -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ws = workloads(ctx);
    let floor = query_floor(ctx.quick);

    let mut load = Table::new(
        "cluster — router + N workers × R replicas, loopback mixed ingest+query load (K = 1 per worker)",
        &load_cols(&["nodes", "replicas"]),
    );
    let mut json_rows = Vec::new();
    for w in &ws {
        // Untimed warm-up pass (page cache, allocator growth, thread
        // spawn) so the R = 1, N = 1 cell that runs first is not penalized.
        let _ = run_cluster_load(w, 1, 1);
        let mut cells = Vec::new();
        for &replicas in &REPLICA_COUNTS {
            for &nodes in &NODE_COUNTS {
                if replicas > nodes {
                    continue; // R clamps to N: the cell would duplicate R = N.
                }
                let m = run_cluster_load(w, nodes, replicas);
                let cell = format!("cluster: {} N={nodes} R={replicas}", w.name);
                let sound = m.sound(ctx.quick, &cell);
                m.push_row(
                    &mut load,
                    w.row([nodes.to_string(), replicas.to_string()], sound),
                );
                cells.push(format!(
                    "{{\"nodes\": {nodes}, \"replicas\": {replicas}, {}}}",
                    m.json_fields(!sound)
                ));
            }
        }
        json_rows.push(format!(
            "  \"{}\": {{{}, \"cells\": [{}]}}",
            w.name,
            w.json_fields(),
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
