//! `engine` — throughput scaling of the sharded `fews-engine` runtime.
//!
//! Replays each workload generator through the engine at 1/2/4/8 shards and
//! across batch sizes, measuring end-to-end ingest throughput (routing +
//! worker processing, barrier included). Alongside the usual CSVs it writes
//! `BENCH_engine.json`, a machine-readable summary for the performance
//! trajectory. Shard-count *correctness* invariance is pinned by
//! `tests/tests/engine_equivalence.rs`; this experiment also cross-checks it
//! cheaply by comparing certified outputs across shard counts.
//!
//! Note: speedup is physically bounded by the host's core count (recorded in
//! the JSON); on a single-core machine all shard counts tie.

use super::load::Workload;
use super::ExpCtx;
use crate::table::{f3, Table};
use fews_common::rng::{derive_seed, rng_for};
use fews_core::insertion_only::FewwConfig;
use fews_engine::{Engine, EngineConfig};
use fews_stream::update::as_insertions;
use fews_stream::Update;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Engine batch of the scaling cells (the batch sweep varies it on zipf).
const BATCH: usize = 4096;

fn workloads(ctx: &ExpCtx) -> Vec<Workload> {
    let seed = derive_seed(ctx.seed, 0xE26_0001);
    let mut out = Vec::new();

    // Zipf item stream — the ≥ 1M-update scaling headline in full mode.
    let zipf_len = if ctx.quick { 30_000 } else { 1_200_000 };
    let n = 4096u32;
    let s = fews_stream::gen::zipf::zipf_stream(n, 1.1, zipf_len, &mut rng_for(seed, 1));
    let d = *s.frequencies.iter().max().expect("n >= 1");
    out.push(Workload {
        name: "zipf",
        updates: as_insertions(&s.edges),
        cfg: EngineConfig::insert_only(FewwConfig::new(n, d.max(1), 2), seed),
        batch: BATCH,
        repeat: 1,
    });

    // Planted star in a background of light vertices.
    let (n, bg, d) = if ctx.quick {
        (2_000u32, 10u32, 200u32)
    } else {
        (20_000, 15, 500)
    };
    let g = fews_stream::gen::planted::planted_star(n, 1 << 20, d, bg, &mut rng_for(seed, 2));
    out.push(Workload {
        name: "planted",
        updates: as_insertions(&g.edges),
        cfg: EngineConfig::insert_only(FewwConfig::new(n, d, 2), seed),
        batch: BATCH,
        repeat: 1,
    });

    // DoS trace: victims × attack sources.
    let (dsts, packets, attack) = if ctx.quick {
        (256u32, 20_000u64, 400u32)
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
    out.push(Workload {
        name: "dos",
        updates: as_insertions(&t.edges),
        cfg: EngineConfig::insert_only(FewwConfig::new(dsts, attack, 2), seed),
        batch: BATCH,
        repeat: 1,
    });

    // Database audit log — the insertion-deletion model. Kept small: every
    // partition carries the full ℓ₀-sampler budget, so the id engine trades
    // P× space/time for mergeability (see the crate docs); this cell is
    // about model coverage, not peak throughput.
    out.push(Workload {
        batch: BATCH,
        repeat: 1,
        ..Workload::dblog(ctx, seed, 4)
    });

    out
}

/// Replay `updates` once and return (seconds, certified-output fingerprint).
fn replay(cfg: EngineConfig, updates: &[Update]) -> (f64, Option<(u32, usize)>) {
    let mut engine = Engine::start(cfg);
    engine.stats(); // barrier: every partition constructed before the clock
    let started = std::time::Instant::now();
    engine.ingest(updates.iter().copied());
    let stats = engine.stats(); // barrier: every batch applied
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(stats.ingested, updates.len() as u64);
    let certified = engine.view().certified().map(|nb| (nb.vertex, nb.size()));
    (secs, certified)
}

/// Throughput scaling across shard counts and batch sizes, plus the
/// `BENCH_engine.json` summary.
pub fn engine_exp(ctx: &ExpCtx) -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut scaling = Table::new(
        "engine — ingest throughput vs shard count (batch 4096)",
        &[
            "generator",
            "model",
            "updates",
            "shards",
            "secs",
            "updates_per_sec",
            "speedup_vs_1",
        ],
    );
    let mut json_rows = Vec::new();
    let ws = workloads(ctx);
    for w in &ws {
        let (model, _) = w.model();
        let mut base_rate = 0.0;
        let mut first_certified = None;
        let mut rates = Vec::new();
        for (i, &k) in SHARD_COUNTS.iter().enumerate() {
            let (secs, certified) = replay(w.cfg.with_shards(k).with_batch(w.batch), &w.updates);
            if i == 0 {
                first_certified = certified;
            } else {
                assert_eq!(
                    certified, first_certified,
                    "{}: certified output changed with shard count",
                    w.name
                );
            }
            let rate = w.updates.len() as f64 / secs;
            if i == 0 {
                base_rate = rate;
            }
            rates.push((k, rate));
            scaling.push_row(vec![
                w.name.into(),
                model.into(),
                w.updates.len().to_string(),
                k.to_string(),
                format!("{secs:.3}"),
                format!("{rate:.0}"),
                f3(rate / base_rate),
            ]);
        }
        let throughput_json: Vec<String> = rates
            .iter()
            .map(|(k, r)| format!("\"{k}\": {r:.0}"))
            .collect();
        let speedup4 = rates
            .iter()
            .find(|(k, _)| *k == 4)
            .map_or(0.0, |(_, r)| r / base_rate);
        json_rows.push(format!(
            "  \"{}\": {{\"model\": \"{}\", \"updates\": {}, \"updates_per_sec\": {{{}}}, \"speedup_4v1\": {:.3}}}",
            w.name,
            model,
            w.updates.len(),
            throughput_json.join(", "),
            speedup4
        ));
    }
    scaling
        .write_csv(&ctx.out_dir, "engine_scaling")
        .expect("csv");

    // Batch-size sensitivity on the zipf workload at 4 shards.
    let mut batch_table = Table::new(
        "engine — zipf ingest throughput vs batch size (4 shards)",
        &["batch", "secs", "updates_per_sec"],
    );
    let zipf = &ws[0];
    for b in [256usize, 1024, 4096, 16384] {
        let (secs, _) = replay(zipf.cfg.with_shards(4).with_batch(b), &zipf.updates);
        batch_table.push_row(vec![
            b.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", zipf.updates.len() as f64 / secs),
        ]);
    }
    batch_table
        .write_csv(&ctx.out_dir, "engine_batch")
        .expect("csv");

    let json = format!(
        "{{\n  \"experiment\": \"engine\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \"cores\": {cores},\n  \"batch\": {BATCH},\n  \"shard_counts\": [1, 2, 4, 8],\n{}\n}}\n",
        if ctx.quick { "quick" } else { "full" },
        ctx.seed,
        json_rows.join(",\n")
    );
    std::fs::write(ctx.out_dir.join("BENCH_engine.json"), json).expect("write BENCH_engine.json");

    vec![scaling, batch_table]
}
