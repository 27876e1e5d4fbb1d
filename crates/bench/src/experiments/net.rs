//! `net` — loopback load generation against the `fews-net` TCP server.
//!
//! Starts a real [`fews_net::Server`] on an ephemeral loopback port and
//! drives it with the shared load driver (`load::drive`, which
//! `cluster` points at a router): C concurrent client threads running a
//! mixed workload of batched ingest frames interleaved with live queries
//! (`certify`, `top`).
//! Reports sustained throughput (mixed ops/s, where an op is one applied
//! update or one answered query), request rate, p50/p99 per-request latency
//! split by request kind, and wire bytes per request. Alongside the CSVs it
//! writes `BENCH_net.json` for the performance trajectory.
//!
//! The serving engine runs at K = 1 for the headline cells (the acceptance
//! target is single-shard: the 1-core dev box caps parallel speedup by
//! physics); a shard sweep on the zipf workload records how the numbers
//! move with K anyway.

use super::load::{drive, load_cols, query_floor, LoadMetrics, Workload};
use super::ExpCtx;
use crate::table::Table;
use fews_common::rng::{derive_seed, rng_for};
use fews_common::{SpaceConfig, SpaceId};
use fews_core::insertion_only::FewwConfig;
use fews_engine::EngineConfig;
use fews_net::{Client, Server, ServerOptions};
use fews_stream::update::as_insertions;
use fews_stream::Update;
use std::time::Instant;

const CLIENT_COUNTS: [usize; 3] = [1, 2, 4];
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
const SPACE_COUNTS: [usize; 3] = [1, 8, 64];

fn workloads(ctx: &ExpCtx) -> Vec<Workload> {
    let seed = derive_seed(ctx.seed, 0xE26_0002);

    // Zipf item stream — the throughput headline. Large frames amortize
    // the publish-before-ack refresh (each ack re-snapshots every partition
    // the frame touched); one timed query per frame keeps the cell
    // comfortably above the query floor.
    let zipf = if ctx.quick {
        Workload::zipf(seed, 1, 60_000, 1024)
    } else {
        Workload::zipf(seed, 1, 1_200_000, 8192)
    };

    // Planted star in a light background.
    let (n, bg, d) = if ctx.quick {
        (2_000u32, 10u32, 200u32)
    } else {
        (20_000, 15, 500)
    };
    let g = fews_stream::gen::planted::planted_star(n, 1 << 20, d, bg, &mut rng_for(seed, 2));
    let planted = Workload {
        name: "planted",
        updates: as_insertions(&g.edges),
        cfg: EngineConfig::insert_only(FewwConfig::new(n, d, 2), seed),
        batch: if ctx.quick { 1024 } else { 2048 },
        repeat: 1,
    };

    // DoS trace.
    let (dsts, packets, attack) = if ctx.quick {
        (256u32, 30_000u64, 400u32)
    } else {
        (1024, 280_000, 2000)
    };
    let t = fews_stream::gen::dos::dos_trace(
        dsts,
        1 << 24,
        packets,
        1.0,
        attack,
        &mut rng_for(seed, 3),
    );
    let dos = Workload {
        name: "dos",
        updates: as_insertions(&t.edges),
        cfg: EngineConfig::insert_only(FewwConfig::new(dsts, attack, 2), seed),
        batch: if ctx.quick { 512 } else { 1024 },
        repeat: 1,
    };

    // Database audit log — the insertion-deletion model over the wire,
    // repeated so the cell sustains enough ingest frames for ≥100 timed
    // queries (a single-frame cell once reported a "p99" from one sample).
    vec![zipf, planted, dos, Workload::dblog(ctx, seed, 4)]
}

/// One mixed-load cell: `clients` threads against a fresh K-shard server.
pub(super) fn run_load(w: &Workload, shards: usize, clients: usize) -> LoadMetrics {
    // Engine batch ≥ 1024 regardless of wire frame size: acks return at
    // enqueue, so small frames coalesce in the engine's pending buffer and
    // each shard hand-off carries enough updates per partition for the
    // banks' batched path to engage (results are batching-invariant; only
    // the hand-off granularity changes).
    let cfg = w.cfg.with_shards(shards).with_batch(w.batch.max(1024));
    let server = Server::start(cfg, "127.0.0.1:0").expect("bind server");
    // The mixed cells price *sustained* serving: queries read `?stale`
    // from the latest published snapshot. A watermarked (read-your-writes)
    // query instead waits for the refresher to cover the client's last ack
    // — that is a freshness contract with its own latency (priced by the
    // net smoke and the freshness suite), not a per-request serving cost.
    let m = drive(server.local_addr(), w, clients, true);
    server.shutdown();
    server.join();
    m
}

/// One multi-tenant cell: `s` spaces of `w`'s shape served by one server,
/// each fed `per_space`, ingest-only traffic spread round-robin across the
/// roster by 8 client threads.
/// With `data_dir` set every batch is write-ahead-logged and fsynced before
/// the ack — the WAL-on/WAL-off pair prices durability on the same traffic.
fn run_spaces_cell(
    w: &Workload,
    per_space: &[Update],
    s: usize,
    data_dir: Option<std::path::PathBuf>,
) -> LoadMetrics {
    let base = w.cfg.with_partitions(4).with_shards(1).with_batch(w.batch);
    let opts = ServerOptions {
        data_dir,
        // No mid-run compaction: the cell prices the append+fsync hot path,
        // not checkpoint writes.
        compact_bytes: 64 << 20,
        refresh_debounce: None,
        max_conns: 0,
        limits: fews_net::OverloadLimits::default(),
        ..ServerOptions::default()
    };
    let server = Server::start_with(base, "127.0.0.1:0", opts).expect("bind spaces server");
    let addr = server.local_addr();

    // The roster: the default space plus s-1 created tenants, all the same
    // shape (the sweep varies tenancy, nothing else).
    let mut roster = vec![SpaceId::default_space()];
    {
        let mut owner = Client::connect(addr).expect("owner connect");
        let spec = SpaceConfig::insert_only(4096, 2048, 2).with_partitions(4);
        for i in 1..s {
            let id = SpaceId::new(&format!("tenant-{i:03}")).expect("tenant name");
            owner.create_space(&id, spec).expect("create space");
            roster.push(id);
        }
    }

    // 8 client threads, each carrying its own eighth of *every* space's
    // stream and walking the roster in the same order. Concurrent writers
    // are exactly the traffic the WAL's group commit exists for: clients
    // near the same roster position ride shared fsyncs, and on the WAL-off
    // side the same concurrency prices the registry and lock contention.
    let clients = 8usize;
    let per_client = per_space.len().div_ceil(clients);
    let started = Instant::now();
    let results: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let roster = &roster;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("spaces client connect");
                    let lo = (c * per_client).min(per_space.len());
                    let hi = (lo + per_client).min(per_space.len());
                    let slice = &per_space[lo..hi];
                    let mut lat = Vec::new();
                    for space in roster {
                        client.set_space(space.clone());
                        for chunk in slice.chunks(w.batch) {
                            let t0 = Instant::now();
                            client.ingest_batch(chunk).expect("spaces ingest");
                            lat.push(t0.elapsed().as_micros() as u64);
                        }
                    }
                    (lat, client.bytes_sent() + client.bytes_received())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spaces client panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let mut owner = Client::connect(addr).expect("owner connect");
    owner.shutdown().expect("owner shutdown");
    let ingested = server.join();
    let total_updates = (per_space.len() * s) as u64;
    assert_eq!(ingested, total_updates, "updates lost across spaces");

    let ingest_us = results.iter().flat_map(|r| r.0.iter().copied()).collect();
    let wire_bytes = results.iter().map(|r| r.1).sum();
    LoadMetrics::from_samples(secs, total_updates, ingest_us, Vec::new(), wire_bytes)
}

/// Loopback serving throughput/latency across client counts, plus a shard
/// sweep, plus `BENCH_net.json`.
pub fn net_exp(ctx: &ExpCtx) -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ws = workloads(ctx);
    let floor = query_floor(ctx.quick);

    let mut load = Table::new(
        "net — loopback mixed ingest+query load vs client count (K = 1)",
        &load_cols(&["clients"]),
    );
    let mut json_rows = Vec::new();
    for w in &ws {
        // Untimed warm-up pass: first-touch effects (page cache, allocator
        // growth, thread spawn) land here instead of skewing the C = 1
        // cell that happens to run first.
        let _ = run_load(w, 1, 2);
        let mut client_cells = Vec::new();
        for &clients in &CLIENT_COUNTS {
            let m = run_load(w, 1, clients);
            let sound = m.sound(ctx.quick, &format!("net: {} C={clients}", w.name));
            m.push_row(&mut load, w.row([clients.to_string()], sound));
            client_cells.push(format!("\"{clients}\": {{{}}}", m.json_fields(!sound)));
        }
        json_rows.push(format!(
            "  \"{}\": {{{}, \"clients\": {{{}}}}}",
            w.name,
            w.json_fields(),
            client_cells.join(", ")
        ));
    }
    load.write_csv(&ctx.out_dir, "net_load").expect("csv");

    // Shard sweep on the zipf workload at C = 2.
    let mut cols = vec!["shards"];
    cols.extend(LoadMetrics::COLS);
    let mut sweep = Table::new("net — zipf load vs shard count (2 clients)", &cols);
    let mut sweep_cells = Vec::new();
    for &k in &SHARD_SWEEP {
        let m = run_load(&ws[0], k, 2);
        m.push_row(&mut sweep, vec![k.to_string()]);
        sweep_cells.push(format!("\"{k}\": {:.0}", m.ops_per_sec));
    }
    sweep.write_csv(&ctx.out_dir, "net_shards").expect("csv");

    // Tenancy sweep: S spaces × WAL on/off at constant total traffic —
    // the committed evidence for "durability costs ≤ 25% on batched ingest"
    // and "64 tenants do not collapse the serving layer".
    let total: usize = if ctx.quick { 49_152 } else { 1_572_864 }; // 24 / 768 batches
    let spaces = Workload::zipf(derive_seed(ctx.seed, 0xE26_0003), 1, total as u64, 2048);
    let stream = &spaces.updates;
    // Untimed warm-up so the first timed cell does not pay thread spawn,
    // allocator growth, and page-fault costs the later cells skip.
    run_spaces_cell(&spaces, &stream[..8192.min(stream.len())], 1, None);
    let mut cols = vec!["spaces", "wal"];
    cols.extend(LoadMetrics::COLS);
    let mut tenancy = Table::new(
        "net — S tenant spaces × WAL on/off (K = 1, batch 2048, constant total updates)",
        &cols,
    );
    let mut tenancy_cells = Vec::new();
    // fsync latency on this class of box swings a lot with background I/O;
    // one ~0.5s sample per cell is not a stable price. Interleave WAL-off
    // and WAL-on repetitions (so a slow stretch of the disk hits both
    // sides) and report the median of each.
    let reps = if ctx.quick { 1 } else { 5 };
    for &s in &SPACE_COUNTS {
        let per_space = &stream[..total / s];
        let mut runs: [Vec<LoadMetrics>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..reps {
            for wal in [false, true] {
                let data_dir = wal.then(|| {
                    let dir = ctx.out_dir.join("net_spaces_wal");
                    let _ = std::fs::remove_dir_all(&dir);
                    dir
                });
                let m = run_spaces_cell(&spaces, per_space, s, data_dir.clone());
                if let Some(dir) = data_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                runs[wal as usize].push(m);
            }
        }
        let mut pair = Vec::new();
        for wal in [false, true] {
            let side = &mut runs[wal as usize];
            side.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
            let m = side.swap_remove(side.len() / 2);
            m.push_row(
                &mut tenancy,
                vec![s.to_string(), if wal { "on" } else { "off" }.into()],
            );
            pair.push(m.ops_per_sec);
        }
        tenancy_cells.push(format!(
            "\"{s}\": {{\"wal_off_ops_per_sec\": {:.0}, \"wal_on_ops_per_sec\": {:.0}, \
             \"wal_overhead_pct\": {:.1}}}",
            pair[0],
            pair[1],
            (pair[0] / pair[1] - 1.0) * 100.0
        ));
    }
    tenancy.write_csv(&ctx.out_dir, "net_spaces").expect("csv");

    let json = format!(
        "{{\n  \"experiment\": \"net\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \"cores\": {cores},\n  \"query_floor\": {floor},\n  \"client_counts\": [1, 2, 4],\n{},\n  \"zipf_ops_per_sec_by_shards_c2\": {{{}}},\n  \"spaces_by_count\": {{{}}}\n}}\n",
        if ctx.quick { "quick" } else { "full" },
        ctx.seed,
        json_rows.join(",\n"),
        sweep_cells.join(", "),
        tenancy_cells.join(", ")
    );
    std::fs::write(ctx.out_dir.join("BENCH_net.json"), json).expect("write BENCH_net.json");

    vec![load, sweep, tenancy]
}
