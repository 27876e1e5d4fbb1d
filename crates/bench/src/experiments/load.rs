//! The one load driver for the serving experiments.
//!
//! `net` points [`drive`] at a [`fews_net::Server`], `cluster` at a
//! [`fews_cluster::Router`]; both send the same traffic. C client threads
//! each ingest a contiguous slice of a [`Workload`] in frames of `batch`
//! updates, follow every frame with one timed query (`certify v` and
//! `top 3` alternating) and close with one more `top 3`. `latency` builds
//! its cells from the same [`Workload`] constructors, so the three
//! experiments share one zipf and one dblog stream shape.

use super::{percentile, ExpCtx};
use crate::table::Table;
use fews_common::rng::rng_for;
use fews_core::insertion_deletion::IdConfig;
use fews_core::insertion_only::FewwConfig;
use fews_engine::{EngineConfig, ModelSpec};
use fews_net::Client;
use fews_stream::update::as_insertions;
use fews_stream::Update;
use std::net::SocketAddr;
use std::time::Instant;

/// Minimum timed queries per cell for the latency columns to be reported
/// as sound. Cells below the floor are flagged (`sound = no`, JSON
/// `"low_queries": true`) instead of being printed as if their percentiles
/// meant anything.
pub fn query_floor(quick: bool) -> u64 {
    if quick {
        20
    } else {
        100
    }
}

/// One serving workload: a stream, the engine it runs on (each cell sets
/// its own shards, partitions and engine batch), and its framing.
pub struct Workload {
    pub name: &'static str,
    pub updates: Vec<Update>,
    pub cfg: EngineConfig,
    /// Updates per ingest frame (the engine batch, for the in-process
    /// `engine` experiment).
    pub batch: usize,
    /// Ingest the stream this many times — sustained-traffic knob for
    /// short logs (turnstile semantics: repeating a log scales every net
    /// count, so positive stays positive and retracted stays retracted).
    pub repeat: usize,
}

impl Workload {
    /// A zipf(1.1) item stream of `len` updates over 4096 items, drawn from
    /// rng stream `stream` of `seed` — the insertion-only throughput
    /// headline. The detection threshold is a fixed heavy-hitter bar
    /// (d = 2048 ⇒ report items with ≥ 1024 witnesses), not the stream's
    /// max frequency: tying d to the max made d₂ ≈ 70k, so reservoir
    /// entries accumulated ~14 MB of witnesses that every per-ack publish
    /// re-snapshotted and every `top` query re-ranked.
    pub fn zipf(seed: u64, stream: u64, len: u64, batch: usize) -> Workload {
        let n = 4096u32;
        let s = fews_stream::gen::zipf::zipf_stream(n, 1.1, len, &mut rng_for(seed, stream));
        Workload {
            name: "zipf",
            updates: as_insertions(&s.edges),
            cfg: EngineConfig::insert_only(FewwConfig::new(n, 2048, 2), seed),
            batch,
            repeat: 1,
        }
    }

    /// A database audit log drawn from rng stream `stream` of `seed` — the
    /// insertion-deletion model over the wire. The model stays small on
    /// purpose (the id hot path is ~1000× costlier per update; see the
    /// `sketch` experiment), but the short log is repeated so a cell
    /// sustains enough ingest frames for its timed queries.
    pub fn dblog(ctx: &ExpCtx, seed: u64, stream: u64) -> Workload {
        let (records, hot) = if ctx.quick { (32u32, 12u32) } else { (48, 16) };
        let log = fews_stream::gen::dblog::db_log(
            records,
            1 << 10,
            hot,
            4,
            0.5,
            &mut rng_for(seed, stream),
        );
        Workload {
            name: "dblog",
            updates: log.updates,
            cfg: EngineConfig::insert_delete(
                IdConfig::with_scale(records, 1 << 10, hot, 2, 0.02),
                seed,
            ),
            batch: 64,
            repeat: if ctx.quick { 8 } else { 24 },
        }
    }

    /// The model tag (`io` / `id`) and the vertex count `n`; certify
    /// queries draw their vertex from `0..n`.
    pub fn model(&self) -> (&'static str, u32) {
        match self.cfg.model {
            ModelSpec::InsertOnly(c) => ("io", c.n),
            ModelSpec::InsertDelete(c) => ("id", c.n),
        }
    }

    /// Updates one [`drive`] run ingests: the stream times `repeat`.
    pub fn total_updates(&self) -> usize {
        self.updates.len() * self.repeat
    }

    /// The leading cells of a load row (see [`load_cols`]): the workload's
    /// columns, the cell's `axes`, and whether its query count is sound.
    pub fn row(&self, axes: impl IntoIterator<Item = String>, sound: bool) -> Vec<String> {
        let mut row = vec![
            self.name.into(),
            self.model().0.into(),
            self.total_updates().to_string(),
            self.batch.to_string(),
        ];
        row.extend(axes);
        row.push(if sound { "yes" } else { "NO" }.into());
        row
    }

    /// The workload's JSON fields, ahead of an experiment's cells.
    pub fn json_fields(&self) -> String {
        format!(
            "\"model\": \"{}\", \"updates\": {}, \"batch\": {}",
            self.model().0,
            self.total_updates(),
            self.batch
        )
    }
}

/// The columns of a load table: the workload's, then the cell's `axes`,
/// then `queries_sound` and [`LoadMetrics::COLS`].
pub fn load_cols<'a>(axes: &[&'a str]) -> Vec<&'a str> {
    let mut cols = vec!["generator", "model", "updates", "batch"];
    cols.extend(axes);
    cols.push("queries_sound");
    cols.extend(LoadMetrics::COLS);
    cols
}

/// What one load cell measured. An op is one applied update or one
/// answered query; a request is one frame, ingest or query.
#[derive(Debug, Clone, Copy)]
pub struct LoadMetrics {
    pub secs: f64,
    pub ops_per_sec: f64,
    pub requests_per_sec: f64,
    pub queries: u64,
    pub p50_ingest_us: u64,
    pub p99_ingest_us: u64,
    pub p50_query_us: u64,
    pub p99_query_us: u64,
    /// Wire bytes, both directions, per request.
    pub bytes_per_request: f64,
}

impl LoadMetrics {
    /// The metric columns, in [`LoadMetrics::push_row`] order.
    pub const COLS: [&'static str; 8] = [
        "secs",
        "ops_per_sec",
        "requests_per_sec",
        "p50_ingest_us",
        "p99_ingest_us",
        "p50_query_us",
        "p99_query_us",
        "bytes_per_request",
    ];

    /// Metrics of a run that applied `updates` in `secs`, from its
    /// per-request latencies (µs, any order; one per ingest frame and one
    /// per query) and its wire bytes.
    pub fn from_samples(
        secs: f64,
        updates: u64,
        mut ingest_us: Vec<u64>,
        mut query_us: Vec<u64>,
        wire_bytes: u64,
    ) -> LoadMetrics {
        ingest_us.sort_unstable();
        query_us.sort_unstable();
        let queries = query_us.len() as u64;
        let requests = ingest_us.len() as u64 + queries;
        LoadMetrics {
            secs,
            ops_per_sec: (updates + queries) as f64 / secs,
            requests_per_sec: requests as f64 / secs,
            queries,
            p50_ingest_us: percentile(&ingest_us, 0.50),
            p99_ingest_us: percentile(&ingest_us, 0.99),
            p50_query_us: percentile(&query_us, 0.50),
            p99_query_us: percentile(&query_us, 0.99),
            bytes_per_request: wire_bytes as f64 / requests.max(1) as f64,
        }
    }

    /// Whether the cell timed enough queries (see [`query_floor`]); a cell
    /// that did not is named on stderr by `cell`.
    pub fn sound(&self, quick: bool, cell: &str) -> bool {
        let floor = query_floor(quick);
        let sound = self.queries >= floor;
        if !sound {
            eprintln!(
                "{cell} reports only {} timed queries (< {floor}) — \
                 latency percentiles flagged as unsound",
                self.queries
            );
        }
        sound
    }

    /// Append a row to `table`: the `head` cells, then [`LoadMetrics::COLS`].
    pub fn push_row(&self, table: &mut Table, head: Vec<String>) {
        let mut row = head;
        row.extend([
            format!("{:.3}", self.secs),
            format!("{:.0}", self.ops_per_sec),
            format!("{:.0}", self.requests_per_sec),
            self.p50_ingest_us.to_string(),
            self.p99_ingest_us.to_string(),
            self.p50_query_us.to_string(),
            self.p99_query_us.to_string(),
            format!("{:.0}", self.bytes_per_request),
        ]);
        table.push_row(row);
    }

    /// The cell's JSON fields, for the caller to wrap; `low_queries` marks
    /// a cell under the query floor.
    pub fn json_fields(&self, low_queries: bool) -> String {
        format!(
            "\"ops_per_sec\": {:.0}, \"requests_per_sec\": {:.0}, \"queries\": {}, \
             \"low_queries\": {low_queries}, \"p50_ingest_us\": {}, \"p99_ingest_us\": {}, \
             \"p50_query_us\": {}, \"p99_query_us\": {}, \"bytes_per_request\": {:.0}",
            self.ops_per_sec,
            self.requests_per_sec,
            self.queries,
            self.p50_ingest_us,
            self.p99_ingest_us,
            self.p50_query_us,
            self.p99_query_us,
            self.bytes_per_request
        )
    }
}

/// Drive `clients` threads of mixed ingest+query load at `addr`, a node or
/// a router. With `stale` every query reads `?stale` from the latest
/// published snapshot; without it, each waits for its client's last ack
/// (read-your-writes). After the load a `stats` read at the highest acked
/// watermark must count every update, or this panics.
pub fn drive(addr: SocketAddr, w: &Workload, clients: usize, stale: bool) -> LoadMetrics {
    let (_, n) = w.model();
    // Contiguous slices per client: every update is ingested exactly once
    // per repeat pass (client interleaving makes the final state
    // run-dependent, which is fine here — byte-equivalence is the
    // equivalence suites' job).
    let per_client = w.updates.len().div_ceil(clients);
    let started = Instant::now();
    // Per client: (ingest latencies, query latencies, wire bytes, highest
    // acked watermark).
    type ClientSample = (Vec<u64>, Vec<u64>, u64, u64);
    let results: Vec<ClientSample> = std::thread::scope(|scope| {
        let handles: Vec<_> = w
            .updates
            .chunks(per_client)
            .enumerate()
            .map(|(c, slice)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("bench client connect");
                    client.set_stale(stale);
                    let mut ingest_us = Vec::with_capacity(w.repeat * (slice.len() / w.batch + 2));
                    let mut query_us = Vec::new();
                    for _ in 0..w.repeat {
                        for chunk in slice.chunks(w.batch) {
                            let t0 = Instant::now();
                            client.ingest_batch(chunk).expect("bench ingest");
                            ingest_us.push(t0.elapsed().as_micros() as u64);
                            let q = query_us.len() as u64;
                            let t0 = Instant::now();
                            if q.is_multiple_of(2) {
                                let v = (q * 37 + c as u64) % n as u64;
                                let _ = client.certify(v as u32).expect("bench certify");
                            } else {
                                let _ = client.top(3).expect("bench top");
                            }
                            query_us.push(t0.elapsed().as_micros() as u64);
                        }
                    }
                    // One closing query per client so every cell reports
                    // query latency even when the stream is short.
                    let t0 = Instant::now();
                    let _ = client.top(3).expect("bench top");
                    query_us.push(t0.elapsed().as_micros() as u64);
                    (
                        ingest_us,
                        query_us,
                        client.bytes_sent() + client.bytes_received(),
                        client.watermark(),
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
    let total_updates = w.total_updates() as u64;
    let mut owner = Client::connect(addr).expect("owner connect");
    // Stats counters are publish-consistent; wait for the snapshot that
    // covers the highest batch any load client had acked.
    owner.set_watermark(results.iter().map(|r| r.3).max().unwrap_or(0));
    let stats = owner.stats().expect("owner stats");
    assert_eq!(stats.ingested, total_updates, "updates lost");
    let (mut ingest_us, mut query_us, mut wire_bytes) = (Vec::new(), Vec::new(), 0);
    for (ingest, query, bytes, _) in results {
        ingest_us.extend(ingest);
        query_us.extend(query);
        wire_bytes += bytes;
    }
    LoadMetrics::from_samples(secs, total_updates, ingest_us, query_us, wire_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{cluster, net};

    /// `net`'s and `cluster`'s cells drive a node, and a router over two
    /// workers, through [`drive`]: both land every update (the driver
    /// panics otherwise) and time the same queries.
    #[test]
    fn drives_a_node_and_a_router_alike() {
        let w = Workload::zipf(7, 1, 4096, 256);
        let direct = net::run_load(&w, 1, 2);
        let routed = cluster::run_cluster_load(&w, 2, 1);
        // 16 frames over 2 clients, one query each, plus 2 closing queries.
        assert_eq!((direct.queries, routed.queries), (18, 18));
    }
}
