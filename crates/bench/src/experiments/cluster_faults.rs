//! `cluster_faults` — the fault-injection lab as a measured experiment.
//!
//! Runs a replicated cluster (R = 2 over 3 workers) under deterministic,
//! seeded [`fews_net::FaultPlan`] schedules injected into the router's
//! worker-facing transport: connection refusals, mid-frame cuts, stalls
//! past the read timeout, slow-start after rejoin. Each schedule drives
//! sustained mixed ingest+query load for the budgeted chaos window, then
//! quiesces and measures convergence; the run *asserts* the robustness
//! contract while it measures it — every ingest batch acks, every query is
//! exact-or-typed, and the post-quiesce certified set, `top(k)`, and full
//! checkpoint bytes are byte-identical to a single-threaded oracle.
//!
//! Reported per schedule: injected fault counts by kind, query outcomes
//! during chaos (exact vs typed), queries needed to converge after the
//! stream ends, and wall-clock — the cost of surviving a hostile transport,
//! quantified.

use super::ExpCtx;
use crate::table::Table;
use fews_cluster::{Router, RouterOptions};
use fews_common::rng::derive_seed;
use fews_core::insertion_only::FewwConfig;
use fews_engine::checkpoint::unwrap_envelope;
use fews_engine::{Engine, EngineConfig};
use fews_net::{Client, ClientError, ClientOptions, FaultPlan, FaultProfile, Server};
use fews_stream::update::as_insertions;
use fews_stream::Update;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const REPLICAS: usize = 2;
const PARTITIONS: usize = 8;
const BATCH: usize = 211;

struct ScheduleOutcome {
    faults_refused: u64,
    faults_cut: u64,
    faults_stalled: u64,
    chaos_queries_exact: u64,
    chaos_queries_typed: u64,
    converge_queries: u64,
    secs: f64,
}

/// Drive one fault schedule end-to-end and assert byte-identity; panics on
/// any contract violation (a lost ack, an untyped failure, a divergent
/// byte), so a green row *is* the robustness claim.
fn run_schedule(
    cfg: EngineConfig,
    updates: &[Update],
    fault_seed: u64,
    budget: u64,
) -> ScheduleOutcome {
    let plan = Arc::new(FaultPlan::new(fault_seed, FaultProfile::default(), budget));
    let workers: Vec<Server> = (0..NODES)
        .map(|i| Server::start(cfg, "127.0.0.1:0").unwrap_or_else(|e| panic!("worker {i}: {e}")))
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let mut client_opts = ClientOptions::bounded(Duration::from_secs(5), 3);
    client_opts.jitter_seed = Some(fault_seed);
    client_opts.faults = Some(Arc::clone(&plan));
    let opts = RouterOptions {
        client: client_opts,
        heartbeat: None,
        forward_shutdown: false,
        replicas: REPLICAS,
        data_dir: None,
        // Out of reach of any owed backlog (the stream is ≤ 100k updates),
        // so fault schedules never shed; refreshes come from rejoins and
        // the final checkpoint.
        retained_budget: 1 << 20,
        disk_faults: None,
        max_conns: 0,
    };
    let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router starts");
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut oracle = Engine::start(cfg);

    let started = Instant::now();
    let (mut exact, mut typed) = (0u64, 0u64);
    for (k, chunk) in updates.chunks(BATCH).enumerate() {
        client
            .ingest_batch(chunk)
            .unwrap_or_else(|e| panic!("schedule {fault_seed}: ingest must ack, got {e:?}"));
        oracle.ingest(chunk.iter().copied());
        if k % 4 != 0 {
            continue;
        }
        let (view, _) = oracle.refresh();
        match client.certified() {
            Ok(got) => {
                assert_eq!(
                    got,
                    view.certified(),
                    "schedule {fault_seed}: inexact success"
                );
                exact += 1;
            }
            Err(ClientError::Server { .. }) => typed += 1,
            Err(other) => panic!("schedule {fault_seed}: transport-level {other:?}"),
        }
    }

    // Quiesce: count the queries it takes until one succeeds fault-free.
    let (view, _) = oracle.refresh();
    let mut converge_queries = 0u64;
    loop {
        converge_queries += 1;
        assert!(
            converge_queries <= 200,
            "schedule {fault_seed}: never converged"
        );
        match client.certified() {
            Ok(got) => {
                assert_eq!(
                    got,
                    view.certified(),
                    "schedule {fault_seed}: converged certified"
                );
                break;
            }
            Err(ClientError::Server { .. }) => {}
            Err(other) => panic!("schedule {fault_seed}: transport-level {other:?}"),
        }
    }
    loop {
        match client.checkpoint() {
            Ok(envelope) => {
                let env = unwrap_envelope(&envelope).expect("envelope");
                assert_eq!(
                    env.inner,
                    oracle.checkpoint(),
                    "schedule {fault_seed}: checkpoint bytes diverged"
                );
                break;
            }
            Err(ClientError::Server { .. }) => converge_queries += 1,
            Err(other) => panic!("schedule {fault_seed}: transport-level {other:?}"),
        }
        assert!(
            converge_queries <= 200,
            "schedule {fault_seed}: never converged"
        );
    }
    let secs = started.elapsed().as_secs_f64();

    router.shutdown();
    router.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
    let counts = plan.counts();
    ScheduleOutcome {
        faults_refused: counts.refused,
        faults_cut: counts.cut,
        faults_stalled: counts.stalled,
        chaos_queries_exact: exact,
        chaos_queries_typed: typed,
        converge_queries,
        secs,
    }
}

/// Byte-identity under seeded transport fault schedules (R = 2, N = 3).
pub fn cluster_faults_exp(ctx: &ExpCtx) -> Vec<Table> {
    let seed = derive_seed(ctx.seed, 0xFA_0175);
    let len = if ctx.quick { 20_000 } else { 100_000 };
    let budget = if ctx.quick { 24 } else { 64 };
    let n = 1024u32;
    let s =
        fews_stream::gen::zipf::zipf_stream(n, 1.1, len, &mut fews_common::rng::rng_for(seed, 1));
    let updates = as_insertions(&s.edges);
    let d = (*s.frequencies.iter().max().unwrap()).max(1);
    let cfg = EngineConfig::insert_only(FewwConfig::new(n, d, 2), seed)
        .with_partitions(PARTITIONS)
        .with_shards(1)
        .with_batch(BATCH);

    let cols = [
        "schedule",
        "updates",
        "budget",
        "refused",
        "cut",
        "stalled",
        "chaos_queries_exact",
        "chaos_queries_typed",
        "converge_queries",
        "byte_identical",
        "secs",
    ];
    let mut table = Table::new(
        "cluster_faults — seeded transport fault schedules against a R=2 × 3-worker cluster \
         (asserted byte-identical to the single-threaded oracle)",
        &cols,
    );
    for schedule in 0..ctx.trials(6, 3) {
        let fault_seed = derive_seed(seed, 100 + schedule);
        let o = run_schedule(cfg, &updates, fault_seed, budget);
        table.push_row(vec![
            format!("{fault_seed:#x}"),
            updates.len().to_string(),
            budget.to_string(),
            o.faults_refused.to_string(),
            o.faults_cut.to_string(),
            o.faults_stalled.to_string(),
            o.chaos_queries_exact.to_string(),
            o.chaos_queries_typed.to_string(),
            o.converge_queries.to_string(),
            // run_schedule panics otherwise — a row exists ⇔ bytes matched.
            "yes".into(),
            format!("{:.3}", o.secs),
        ]);
    }
    table
        .write_csv(&ctx.out_dir, "cluster_faults")
        .expect("csv");
    vec![table]
}
