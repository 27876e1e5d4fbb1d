//! `overload` — admission control and graceful degradation, measured.
//!
//! Two cells, both asserting the robustness contract while they measure it:
//!
//! * **Flash crowd** — N writer clients hammer a durable server whose
//!   in-flight admission budget is far below the offered load, while a
//!   reader alternates watermarked and `?stale` queries. Every shed must be
//!   a typed `Overloaded` + retry hint, every shed batch must land on a
//!   hint-paced retry, the stale path must answer through the whole crowd,
//!   and the in-flight gauges must drain to exactly zero afterwards.
//!   Reported: landed updates/s, shed counts and rates, and the read
//!   ledger (fresh served / fresh shed / stale served).
//!
//! * **Slow disk** — seeded [`DiskFaultPlan`] schedules under the WAL:
//!   the first injected fsync failure, short write, or `ENOSPC` poisons
//!   durability; the run counts acked batches up to the poison, crashes the
//!   server, restarts on the same dir, and asserts the recovered state is a
//!   bit-exact batch-prefix covering every acked batch. Reported per
//!   schedule: fault kind, acked vs replayed batches, and recovery
//!   wall-clock — what a dying disk costs, and what it provably cannot
//!   cost (acked data).

use super::ExpCtx;
use crate::table::Table;
use fews_common::rng::derive_seed;
use fews_core::insertion_only::FewwConfig;
use fews_engine::checkpoint::unwrap_envelope;
use fews_engine::diskfault::{DiskFaultPlan, DiskFaultProfile};
use fews_engine::{Engine, EngineConfig};
use fews_net::{Client, ClientError, ErrorCode, OverloadLimits, Server, ServerOptions};
use fews_stream::{Edge, Update};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: u32 = 256;
const BATCH: usize = 512;

fn cfg(seed: u64, total: usize) -> EngineConfig {
    let d = (total as u32 / N).max(24);
    EngineConfig::insert_only(FewwConfig::new(N, d, 2), seed)
        .with_partitions(4)
        .with_shards(1)
        .with_batch(256)
}

/// `count` distinct synthetic edges starting at global index `from` — the
/// overload lab stresses batch admission, not graph structure.
fn edges(from: u64, count: usize) -> Vec<Update> {
    (from..from + count as u64)
        .map(|i| Update::insert(Edge::new((i % u64::from(N)) as u32, i / u64::from(N))))
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fews-bench-overload-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct CrowdOutcome {
    landed_per_sec: f64,
    sheds: u64,
    shed_rate: f64,
    fresh_ok: u64,
    fresh_shed: u64,
    stale_ok: u64,
    secs: f64,
}

/// One flash-crowd cell: `clients` writers against a budget sized for a
/// fraction of the offered load. Panics on any contract violation, so a
/// row exists ⇔ the degradation ladder held.
fn flash_crowd(seed: u64, clients: usize, per_client: usize) -> CrowdOutcome {
    let total = clients * per_client;
    let dir = scratch(&format!("crowd-{clients}"));
    let server = Server::start_with(
        cfg(seed, total),
        "127.0.0.1:0",
        ServerOptions {
            // Durable: the group-commit fsync holds admission tickets open,
            // so the budget actually contends.
            data_dir: Some(dir.clone()),
            limits: OverloadLimits {
                inflight_updates: (BATCH * 2) as u64,
                lag_budget: 4 * BATCH as u64,
            },
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let started = Instant::now();
    let done = AtomicBool::new(false);
    let (sheds, fresh_ok, fresh_shed, stale_ok) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..clients)
            .map(|c| {
                let base = (c * per_client) as u64;
                let done = &done;
                scope.spawn(move || {
                    let _ = done;
                    let updates = edges(base, per_client);
                    let mut client = Client::connect(addr).expect("connect writer");
                    let mut sheds = 0u64;
                    for chunk in updates.chunks(BATCH) {
                        loop {
                            match client.ingest_batch(chunk) {
                                Ok(_) => break,
                                Err(e) => {
                                    let hint = e
                                        .retry_after()
                                        .unwrap_or_else(|| panic!("crowd: untyped failure {e:?}"));
                                    sheds += 1;
                                    std::thread::sleep(hint.min(Duration::from_millis(10)));
                                }
                            }
                        }
                    }
                    sheds
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut fresh = Client::connect(addr).expect("connect fresh reader");
            let mut stale = Client::connect(addr).expect("connect stale reader");
            stale.set_stale(true);
            let (mut ok, mut shed, mut stale_ok) = (0u64, 0u64, 0u64);
            while !done.load(Ordering::Relaxed) {
                match fresh.certified() {
                    Ok(_) => ok += 1,
                    Err(e) if e.retry_after().is_some() => shed += 1,
                    Err(e) => panic!("crowd: untyped read failure {e:?}"),
                }
                // The stale lane must answer through the whole crowd.
                stale.certified().expect("stale read during flash crowd");
                stale_ok += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (ok, shed, stale_ok)
        });
        let sheds: u64 = writers.into_iter().map(|w| w.join().expect("writer")).sum();
        done.store(true, Ordering::Relaxed);
        let (ok, shed, stale_ok) = reader.join().expect("reader");
        (sheds, ok, shed, stale_ok)
    });
    let secs = started.elapsed().as_secs_f64();

    // Every shed batch landed, and the admission gauges drained to zero —
    // the budget was borrowed, never leaked.
    let mut client = Client::connect(addr).expect("reconnect");
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = client.stats().expect("stats");
        if stats.ingested >= total as u64 || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(stats.ingested, total as u64, "crowd: every batch must land");
    assert_eq!(
        (
            stats.overload.inflight_updates,
            stats.overload.inflight_bytes
        ),
        (0, 0),
        "crowd: in-flight budget leaked"
    );
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    let batches = (total / BATCH) as u64;
    CrowdOutcome {
        landed_per_sec: total as f64 / secs,
        sheds,
        shed_rate: sheds as f64 / (batches + sheds) as f64,
        fresh_ok,
        fresh_shed,
        stale_ok,
        secs,
    }
}

struct DiskOutcome {
    fault: &'static str,
    acked: u64,
    replayed: u64,
    ingest_secs: f64,
    recovery_secs: f64,
}

/// One slow-disk schedule: ingest under a seeded fault plan until the first
/// injected fault poisons durability, then crash, restart clean, and assert
/// the recovered state is a bit-exact batch-prefix covering every ack.
fn slow_disk(seed: u64, schedule: u64, max_batches: usize) -> DiskOutcome {
    let dir = scratch(&format!("disk-{schedule}"));
    let plan = Arc::new(DiskFaultPlan::new(
        schedule,
        DiskFaultProfile {
            sync_fail_permille: 8,
            short_write_permille: 8,
            enospc_permille: 4,
        },
        1,
    ));
    let engine_cfg = cfg(seed, max_batches * BATCH);
    let server = Server::start_with(
        engine_cfg,
        "127.0.0.1:0",
        ServerOptions {
            data_dir: Some(dir.clone()),
            compact_bytes: 64 << 20,
            refresh_debounce: None,
            disk_faults: Some(Arc::clone(&plan)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let started = Instant::now();
    let mut sent: Vec<Vec<Update>> = Vec::new();
    let mut acked = 0u64;
    for b in 0..max_batches {
        let chunk = edges((b * BATCH) as u64, BATCH);
        sent.push(chunk);
        match client.ingest_batch(sent.last().expect("just pushed")) {
            Ok(_) => acked += 1,
            Err(ClientError::Server {
                code: ErrorCode::Durability,
                ..
            }) => break,
            Err(e) => panic!("schedule {schedule}: untyped failure {e:?}"),
        }
    }
    let ingest_secs = started.elapsed().as_secs_f64();
    let counts = plan.counts();
    let fault = if counts.sync_failed > 0 {
        "fsync"
    } else if counts.short_writes > 0 {
        "short-write"
    } else if counts.no_space > 0 {
        "enospc"
    } else {
        "none"
    };
    server.crash();
    drop(client);
    server.join();

    // Restart on a healthy disk and demand the acked prefix back.
    let restarted = Instant::now();
    let revived = Server::start_with(
        engine_cfg,
        "127.0.0.1:0",
        ServerOptions {
            data_dir: Some(dir.clone()),
            compact_bytes: 64 << 20,
            refresh_debounce: None,
            ..ServerOptions::default()
        },
    )
    .expect("restart");
    let recovery_secs = restarted.elapsed().as_secs_f64();
    let replayed: u64 = revived
        .recovery_log()
        .iter()
        .find_map(|l| {
            let (_, tail) = l.split_once("replayed ")?;
            tail.split_once(" wal batches")?.0.parse().ok()
        })
        .expect("replay count in recovery log");
    assert!(
        replayed >= acked && replayed <= sent.len() as u64,
        "schedule {schedule}: acked {acked}, replayed {replayed} of {} appended",
        sent.len()
    );
    let mut oracle = Engine::start(engine_cfg);
    for chunk in &sent[..replayed as usize] {
        oracle.ingest(chunk.iter().copied());
    }
    let mut client = Client::connect(revived.local_addr()).expect("reconnect");
    let envelope = client.checkpoint().expect("checkpoint");
    assert_eq!(
        unwrap_envelope(&envelope).expect("envelope").inner,
        &oracle.checkpoint()[..],
        "schedule {schedule}: recovered bytes diverged from the replayed prefix"
    );
    client.shutdown().expect("shutdown");
    revived.join();
    let _ = std::fs::remove_dir_all(&dir);

    DiskOutcome {
        fault,
        acked,
        replayed,
        ingest_secs,
        recovery_secs,
    }
}

/// Overload protection and the storage-fault lab, measured end-to-end.
pub fn overload_exp(ctx: &ExpCtx) -> Vec<Table> {
    let seed = derive_seed(ctx.seed, 0x00E4_10AD);
    let per_client = if ctx.quick { 8 * BATCH } else { 24 * BATCH };
    let client_counts: &[usize] = if ctx.quick { &[2, 4] } else { &[2, 4, 8] };

    let mut crowd = Table::new(
        "overload/flash-crowd — writers vs a 2-batch admission budget; every shed is typed \
         + hinted, every batch lands, stale reads answer throughout (asserted)",
        &[
            "clients",
            "updates",
            "landed_per_sec",
            "sheds",
            "shed_rate",
            "fresh_ok",
            "fresh_shed",
            "stale_ok",
            "secs",
        ],
    );
    let mut crowd_cells = Vec::new();
    for &clients in client_counts {
        let o = flash_crowd(derive_seed(seed, clients as u64), clients, per_client);
        crowd.push_row(vec![
            clients.to_string(),
            (clients * per_client).to_string(),
            format!("{:.0}", o.landed_per_sec),
            o.sheds.to_string(),
            format!("{:.3}", o.shed_rate),
            o.fresh_ok.to_string(),
            o.fresh_shed.to_string(),
            o.stale_ok.to_string(),
            format!("{:.3}", o.secs),
        ]);
        crowd_cells.push(format!(
            "\"{clients}\": {{\"landed_per_sec\": {:.0}, \"sheds\": {}, \"shed_rate\": {:.3}, \
             \"fresh_ok\": {}, \"fresh_shed\": {}, \"stale_ok\": {}}}",
            o.landed_per_sec, o.sheds, o.shed_rate, o.fresh_ok, o.fresh_shed, o.stale_ok
        ));
    }
    crowd
        .write_csv(&ctx.out_dir, "overload_crowd")
        .expect("csv");

    let mut disk = Table::new(
        "overload/slow-disk — seeded WAL fault schedules; the first fault poisons durability, \
         recovery replays every acked batch bit-exact (asserted)",
        &[
            "schedule",
            "fault",
            "batches_acked",
            "batches_replayed",
            "ingest_secs",
            "recovery_secs",
        ],
    );
    let max_batches = if ctx.quick { 400 } else { 1200 };
    let (mut acked_total, mut replayed_total, mut disk_cells) = (0u64, 0u64, Vec::new());
    for schedule in 0..ctx.trials(4, 2) {
        let fault_seed = derive_seed(seed, 200 + schedule);
        let o = slow_disk(seed, fault_seed, max_batches);
        acked_total += o.acked;
        replayed_total += o.replayed;
        disk.push_row(vec![
            format!("{fault_seed:#x}"),
            o.fault.to_string(),
            o.acked.to_string(),
            o.replayed.to_string(),
            format!("{:.3}", o.ingest_secs),
            format!("{:.3}", o.recovery_secs),
        ]);
        disk_cells.push(format!(
            "{{\"schedule\": \"{fault_seed:#x}\", \"fault\": \"{}\", \"acked\": {}, \
             \"replayed\": {}, \"recovery_secs\": {:.3}}}",
            o.fault, o.acked, o.replayed, o.recovery_secs
        ));
    }
    disk.write_csv(&ctx.out_dir, "overload_disk").expect("csv");

    let json = format!(
        "{{\n  \"experiment\": \"overload\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \
         \"batch\": {BATCH},\n  \"flash_crowd\": {{{}}},\n  \"slow_disk\": [{}],\n  \
         \"acked_batches\": {acked_total},\n  \"replayed_batches\": {replayed_total},\n  \
         \"acked_batches_lost\": 0\n}}\n",
        if ctx.quick { "quick" } else { "full" },
        ctx.seed,
        crowd_cells.join(", "),
        disk_cells.join(", ")
    );
    std::fs::write(ctx.out_dir.join("BENCH_overload.json"), json)
        .expect("write BENCH_overload.json");

    vec![crowd, disk]
}
