//! `latency` — query latency under sustained ingest, per model.
//!
//! The PR 4 serving layer answered every query by taking the engine mutex
//! and re-merging the *whole* engine state; the insertion-deletion model
//! paid a full sampler-file decode per query (`certified` p50 222 ms over
//! loopback). This experiment pins the epoch-cached snapshot path that
//! replaced it:
//!
//! * **Sustained phase** — one connection loops the stream in ingest frames
//!   continuously while a query client issues ≥100 timed queries
//!   (`certified` / `certify` / `top` round-robin, paced so they span the
//!   ingest run). Queries are answered from the published snapshot, so
//!   their latency is wire + snapshot-read — independent of state size and
//!   of how expensive the concurrent publishes are.
//! * **Quiesced phase** — ingest stopped, ≥100 back-to-back `certified`
//!   queries. The engine is clean, the snapshot never changes: repeated
//!   queries are O(1).
//! * **Engine-level O(1) check** — in-process (no sockets): one cold
//!   `Engine::view` after ingest (pays the full merge/decode once) vs the
//!   mean of 100 repeated `view` calls on the quiesced engine.
//!
//! Writes `BENCH_latency.json`. Acceptance hook: the id-model sustained
//! `certified` p99 must be < 20 ms (the old serving layer was ~220 ms
//! p50), and the quiesced/engine-level numbers must show O(1) repeats.

use super::load::{query_floor, Workload};
use super::{percentile, ExpCtx};
use crate::table::Table;
use fews_common::rng::derive_seed;
use fews_engine::Engine;
use fews_net::{Client, Server};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two cells: zipf at `net`'s heavy-hitter threshold, and dblog's
/// short log, which the ingest thread loops so the engine sees sustained
/// insert/retract traffic for as long as the query phase needs.
fn cells(ctx: &ExpCtx) -> Vec<Workload> {
    let seed = derive_seed(ctx.seed, 0xE26_0003);
    let zipf_len = if ctx.quick { 40_000 } else { 400_000 };
    vec![
        Workload::zipf(seed, 1, zipf_len, 1024),
        Workload::dblog(ctx, seed, 2),
    ]
}

#[derive(Debug, Default)]
struct KindLat {
    us: Vec<u64>,
}

impl KindLat {
    fn record(&mut self, t0: Instant) {
        self.us.push(t0.elapsed().as_micros() as u64);
    }

    fn stats(&mut self) -> (u64, u64, u64) {
        self.us.sort_unstable();
        (
            percentile(&self.us, 0.50),
            percentile(&self.us, 0.99),
            self.us.len() as u64,
        )
    }
}

struct CellResult {
    certified: (u64, u64, u64), // p50, p99, count
    certify: (u64, u64, u64),
    top: (u64, u64, u64),
    ingest_updates_per_sec: f64,
    ingest_p99_us: u64,
    quiesced_mean_us: f64,
    quiesced_p99_us: u64,
}

/// Sustained-ingest + quiesced query phases against one loopback server.
fn run_cell(
    cell: &Workload,
    timed_queries: usize,
    pace: Duration,
    quiesced_queries: usize,
) -> CellResult {
    let server = Server::start(cell.cfg.with_shards(1), "127.0.0.1:0").expect("bind server");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));

    let (result, ingest) = std::thread::scope(|scope| {
        let ingester = {
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("ingest connect");
                let mut lat: Vec<u64> = Vec::new();
                let started = Instant::now();
                'outer: loop {
                    for chunk in cell.updates.chunks(cell.batch) {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        let t0 = Instant::now();
                        client.ingest_batch(chunk).expect("ingest");
                        lat.push(t0.elapsed().as_micros() as u64);
                        acked.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                    }
                }
                let secs = started.elapsed().as_secs_f64();
                lat.sort_unstable();
                (
                    acked.load(Ordering::Relaxed) as f64 / secs,
                    percentile(&lat, 0.99),
                    client.watermark(),
                )
            })
        };

        // Query client: wait for ingest to be demonstrably in flight, then
        // pace timed queries across the sustained window.
        let mut client = Client::connect(addr).expect("query connect");
        while acked.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut certified = KindLat::default();
        let mut certify = KindLat::default();
        let mut top = KindLat::default();
        for q in 0..timed_queries {
            match q % 3 {
                0 => {
                    let t0 = Instant::now();
                    let _ = client.certified().expect("certified");
                    certified.record(t0);
                }
                1 => {
                    let v = (q as u64 * 37) % cell.model().1 as u64;
                    let t0 = Instant::now();
                    let _ = client.certify(v as u32).expect("certify");
                    certify.record(t0);
                }
                _ => {
                    let t0 = Instant::now();
                    let _ = client.top(3).expect("top");
                    top.record(t0);
                }
            }
            std::thread::sleep(pace);
        }
        stop.store(true, Ordering::Relaxed);
        let (rate, p99, watermark) = ingester.join().expect("ingest thread panicked");

        // Quiesce: this connection never ingests, so it reads at the ingest
        // connection's last ack watermark — the snapshot that covers every
        // acked update. Every query below sees that final state; repeats
        // are O(1) snapshot reads.
        client.set_watermark(watermark);
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats.ingested,
            acked.load(Ordering::Relaxed),
            "quiesced reads must see every acked update"
        );
        let mut quiesced: Vec<u64> = Vec::with_capacity(quiesced_queries);
        let _ = client.certified().expect("certified");
        for _ in 0..quiesced_queries {
            let t0 = Instant::now();
            let _ = client.certified().expect("certified");
            quiesced.push(t0.elapsed().as_micros() as u64);
        }
        let quiesced_mean = quiesced.iter().sum::<u64>() as f64 / quiesced.len().max(1) as f64;
        quiesced.sort_unstable();
        let quiesced_p99 = percentile(&quiesced, 0.99);

        client.shutdown().expect("shutdown");
        (
            (certified, certify, top, quiesced_mean, quiesced_p99),
            (rate, p99),
        )
    });
    server.join();

    let (mut certified, mut certify, mut top, quiesced_mean_us, quiesced_p99_us) = result;
    let (ingest_updates_per_sec, ingest_p99_us) = ingest;
    let (c1, c2, c3) = (certified.stats(), certify.stats(), top.stats());
    CellResult {
        certified: c1,
        certify: c2,
        top: c3,
        ingest_updates_per_sec,
        ingest_p99_us,
        quiesced_mean_us,
        quiesced_p99_us,
    }
}

/// In-process engine-level O(1) check: cold first view vs repeated views on
/// a quiesced engine.
fn engine_view_profile(cell: &Workload, repeats: u32) -> (u64, f64) {
    let mut engine = Engine::start(cell.cfg.with_shards(1));
    engine.ingest(cell.updates.iter().copied());
    let t0 = Instant::now();
    let _ = engine.view();
    let cold_us = t0.elapsed().as_micros() as u64;
    let t0 = Instant::now();
    for _ in 0..repeats {
        let _ = engine.view();
    }
    let repeat_mean_us = t0.elapsed().as_micros() as f64 / repeats as f64;
    (cold_us, repeat_mean_us)
}

/// Query latency under sustained ingest + quiesced O(1) repeats; writes
/// `BENCH_latency.json`.
pub fn latency_exp(ctx: &ExpCtx) -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (timed, quiesced_n, pace) = if ctx.quick {
        (30usize, 30usize, Duration::from_millis(2))
    } else {
        (150, 120, Duration::from_millis(5))
    };
    let floor = query_floor(ctx.quick);

    let mut table = Table::new(
        "latency — per-request query latency under sustained ingest (K = 1)",
        &[
            "generator",
            "model",
            "queries",
            "queries_sound",
            "certified_p50_us",
            "certified_p99_us",
            "certify_p50_us",
            "certify_p99_us",
            "top_p50_us",
            "top_p99_us",
            "sustained_ingest_per_sec",
            "ingest_p99_us",
            "quiesced_mean_us",
            "quiesced_p99_us",
            "engine_cold_view_us",
            "engine_repeat_view_us",
        ],
    );
    let mut json_cells = Vec::new();
    for cell in &cells(ctx) {
        let r = run_cell(cell, timed, pace, quiesced_n);
        let queries = r.certified.2 + r.certify.2 + r.top.2;
        let sound = queries >= floor;
        if !sound {
            eprintln!(
                "latency: {} reports only {queries} timed queries (< {floor}) — flagged",
                cell.name
            );
        }
        let (cold_us, repeat_us) = engine_view_profile(cell, 100);
        table.push_row(vec![
            cell.name.into(),
            cell.model().0.into(),
            queries.to_string(),
            if sound { "yes".into() } else { "NO".into() },
            r.certified.0.to_string(),
            r.certified.1.to_string(),
            r.certify.0.to_string(),
            r.certify.1.to_string(),
            r.top.0.to_string(),
            r.top.1.to_string(),
            format!("{:.0}", r.ingest_updates_per_sec),
            r.ingest_p99_us.to_string(),
            format!("{:.1}", r.quiesced_mean_us),
            r.quiesced_p99_us.to_string(),
            cold_us.to_string(),
            format!("{repeat_us:.1}"),
        ]);
        json_cells.push(format!(
            "  \"{}\": {{\"model\": \"{}\", \"queries\": {}, \"low_queries\": {}, \
             \"sustained\": {{\"certified_p50_us\": {}, \"certified_p99_us\": {}, \
             \"certify_p50_us\": {}, \"certify_p99_us\": {}, \"top_p50_us\": {}, \
             \"top_p99_us\": {}, \"ingest_updates_per_sec\": {:.0}, \
             \"ingest_p99_us\": {}}}, \
             \"quiesced\": {{\"certified_mean_us\": {:.1}, \"certified_p99_us\": {}}}, \
             \"engine_view\": {{\"cold_us\": {}, \"repeat_mean_us\": {:.1}}}}}",
            cell.name,
            cell.model().0,
            queries,
            !sound,
            r.certified.0,
            r.certified.1,
            r.certify.0,
            r.certify.1,
            r.top.0,
            r.top.1,
            r.ingest_updates_per_sec,
            r.ingest_p99_us,
            r.quiesced_mean_us,
            r.quiesced_p99_us,
            cold_us,
            repeat_us,
        ));
    }
    table.write_csv(&ctx.out_dir, "latency").expect("csv");

    let json = format!(
        "{{\n  \"experiment\": \"latency\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \"cores\": {cores},\n  \"timed_queries\": {timed},\n  \"query_floor\": {floor},\n{}\n}}\n",
        if ctx.quick { "quick" } else { "full" },
        ctx.seed,
        json_cells.join(",\n")
    );
    std::fs::write(ctx.out_dir.join("BENCH_latency.json"), json).expect("write BENCH_latency.json");

    vec![table]
}
