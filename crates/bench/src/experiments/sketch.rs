//! `sketch` — before/after throughput of the flat ℓ₀-sampler banks.
//!
//! Two measurements, written to CSV tables and to `BENCH_sketch.json`:
//!
//! 1. **Bank-size sweep** — a turnstile stream pushed through N independent
//!    [`L0Sampler`]s (the pre-bank layout) versus one [`SamplerBank`] of the
//!    same N, at several N. This isolates the data-structure effect: shared
//!    `z^index`, flat cells, exact-level updates.
//! 2. **`id` model end to end** — the engine experiment's dblog workload
//!    ingested by [`FewwInsertDelete`] one update at a time and in
//!    engine-sized batches, same config and seed as the `engine`
//!    experiment's dblog cell. The pre-bank engine ingested this cell at
//!    426 updates/s (`BENCH_engine.json` of that time); the acceptance
//!    target is ≥ 50× that.
//!
//! Space is reported alongside (`SpaceUsage` bytes): banks also shrink the
//! resident footprint by collapsing thousands of nested `Vec`s into three
//! flat buffers per bank.

use super::ExpCtx;
use crate::table::{f3, Table};
use fews_common::rng::rng_for;
use fews_common::SpaceUsage;
use fews_core::insertion_deletion::{FewwInsertDelete, IdConfig};
use fews_sketch::bank::SamplerBank;
use fews_sketch::l0::L0Sampler;
use std::time::Instant;

/// Run `pass` repeatedly until at least `min_secs` of wall clock or
/// `max_passes` passes have elapsed; return measured updates/sec given
/// `updates_per_pass`.
fn rate(updates_per_pass: usize, min_secs: f64, max_passes: usize, mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut passes = 0usize;
    while passes < max_passes {
        pass();
        passes += 1;
        if started.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    (passes * updates_per_pass) as f64 / started.elapsed().as_secs_f64()
}

/// A deterministic turnstile stream over `0..dim`: inserts with a steady
/// trickle of deletions of earlier coordinates.
fn turnstile_updates(dim: u64, len: usize, seed: u64) -> Vec<(u64, i64)> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed | 1;
    for j in 0..len {
        // xorshift64* — cheap, deterministic, platform-stable.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let idx = x.wrapping_mul(0x2545_F491_4F6C_DD1D) % dim;
        if j % 4 == 3 {
            // Delete the coordinate inserted three steps ago (net 0 churn).
            let (prev, _) = out[j - 3];
            out.push((prev, -1i64));
        } else {
            out.push((idx, 1i64));
        }
    }
    out
}

/// The dblog cell's ingest rate before the sampler banks, in updates/s.
const PRE_BANK_BASELINE: f64 = 426.0;

/// One bank-size sweep cell: loose samplers before, the bank after.
struct Cell {
    label: String,
    updates: usize,
    before: f64,
    after: f64,
    /// The batched (`update_batch`) rate.
    batched: f64,
    before_bytes: usize,
    after_bytes: usize,
}

impl Cell {
    fn json(&self) -> String {
        format!(
            "\"{}\": {{\"updates\": {}, \"reference_updates_per_sec\": {:.0}, \
             \"banked_updates_per_sec\": {:.0}, \"speedup\": {:.1}, \
             \"batched_updates_per_sec\": {:.0}, \"batched_vs_scalar\": {:.2}, \
             \"reference_space_bytes\": {}, \"banked_space_bytes\": {}}}",
            self.label,
            self.updates,
            self.before,
            self.after,
            self.batched / self.before,
            self.batched,
            self.batched / self.after,
            self.before_bytes,
            self.after_bytes
        )
    }
}

/// Before/after ingest throughput of the sampler-bank rearchitecture.
pub fn sketch_exp(ctx: &ExpCtx) -> Vec<Table> {
    let seed = ctx.seed;
    let dim = 1u64 << 20;
    let sizes: &[usize] = if ctx.quick {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    let stream_len = if ctx.quick { 2_000 } else { 4_000 };
    let updates = turnstile_updates(dim, stream_len, seed.wrapping_mul(0x5E1F) | 1);

    let mut sweep = Table::new(
        "sketch — N ℓ₀-samplers, loose vs banked (turnstile stream)",
        &[
            "samplers",
            "updates",
            "loose_updates_per_sec",
            "bank_updates_per_sec",
            "bank_batched_updates_per_sec",
            "speedup",
            "batched_vs_scalar",
            "loose_KiB",
            "bank_KiB",
        ],
    );
    let mut size_cells = Vec::new();
    for &n in sizes {
        let mut rng = rng_for(seed, 0x5E_0001 + n as u64);
        let mut loose: Vec<L0Sampler> = (0..n).map(|_| L0Sampler::new(dim, &mut rng)).collect();
        let mut bank = SamplerBank::new(dim, n, &mut rng_for(seed, 0x5E_0002 + n as u64));
        // The loose layout is slow; cap its work so full mode stays minutes,
        // not hours. Rates are per-update, so shorter passes stay unbiased.
        let loose_budget = (200_000 / n).clamp(50, updates.len());
        let before = rate(loose_budget, 0.5, 64, || {
            for &(idx, delta) in &updates[..loose_budget] {
                for s in &mut loose {
                    s.update(idx, delta);
                }
            }
        });
        let after = rate(updates.len(), 0.5, 10_000, || {
            for &(idx, delta) in &updates {
                bank.update(idx, delta);
            }
        });
        // The batched sweep: same stream through `update_batch` in
        // engine-batch-sized chunks — the per-update shared precompute and
        // sampler-resident inner loop are what the autovectorizer turns
        // into SIMD lanes.
        let batched = rate(updates.len(), 0.5, 10_000, || {
            for chunk in updates.chunks(256) {
                bank.update_batch(chunk);
            }
        });
        let before_bytes = loose.space_bytes();
        let after_bytes = bank.space_bytes();
        sweep.push_row(vec![
            n.to_string(),
            updates.len().to_string(),
            format!("{before:.0}"),
            format!("{after:.0}"),
            format!("{batched:.0}"),
            f3(batched / before),
            f3(batched / after),
            (before_bytes / 1024).to_string(),
            (after_bytes / 1024).to_string(),
        ]);
        size_cells.push(Cell {
            label: n.to_string(),
            updates: updates.len(),
            before,
            after,
            batched,
            before_bytes,
            after_bytes,
        });
    }
    sweep
        .write_csv(&ctx.out_dir, "sketch_bank_sizes")
        .expect("csv");

    // The engine experiment's dblog cell, ingested directly by
    // FewwInsertDelete (same config + seed as `engine`).
    let eng_seed = fews_common::rng::derive_seed(seed, 0xE26_0001);
    let (records, hot) = if ctx.quick { (32u32, 12u32) } else { (48, 16) };
    let log =
        fews_stream::gen::dblog::db_log(records, 1 << 10, hot, 4, 0.5, &mut rng_for(eng_seed, 4));
    let id_cfg = IdConfig::with_scale(records, 1 << 10, hot, 2, 0.02);
    let mut id_table = Table::new(
        "sketch — id model (dblog), banked ingest vs the pre-bank engine",
        &[
            "path",
            "samplers",
            "updates",
            "updates_per_sec",
            "vs_pre_bank_engine",
            "state_KiB",
        ],
    );
    let mut banked = FewwInsertDelete::new(id_cfg, eng_seed);
    let scalar = rate(log.updates.len(), 0.5, 10_000, || {
        for u in &log.updates {
            banked.push(*u);
        }
    });
    let batched = rate(log.updates.len(), 0.5, 10_000, || {
        for chunk in log.updates.chunks(256) {
            banked.push_batch(chunk);
        }
    });
    // The witness-pool intermediate is deduplicated per bank as it is
    // collected; report what one query buffers now vs what the
    // undeduplicated pool held (16 bytes per `(u32, u64)` pair).
    let (pool_raw, pool_deduped) = banked.witness_pool_stats();
    let pair_bytes = std::mem::size_of::<(u32, u64)>();
    for (name, r) in [("scalar", scalar), ("batched", batched)] {
        id_table.push_row(vec![
            name.into(),
            banked.sampler_count().to_string(),
            log.updates.len().to_string(),
            format!("{r:.0}"),
            f3(r / PRE_BANK_BASELINE),
            (banked.space_bytes() / 1024).to_string(),
        ]);
    }
    id_table
        .write_csv(&ctx.out_dir, "sketch_id_model")
        .expect("csv");
    let id_json = format!(
        "\"id_dblog\": {{\"updates\": {}, \"banked_updates_per_sec\": {:.0}, \
         \"batched_updates_per_sec\": {:.0}, \"batched_vs_scalar\": {:.2}, \
         \"speedup_vs_pr2_engine\": {:.1}, \"banked_space_bytes\": {}}}",
        log.updates.len(),
        scalar,
        batched,
        batched / scalar,
        batched / PRE_BANK_BASELINE,
        banked.space_bytes()
    );

    let size_json: Vec<String> = size_cells
        .iter()
        .map(|c| format!("  {}", c.json()))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"sketch\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \
         \"baseline_pr2_engine_dblog_updates_per_sec\": {:.0},\n  {},\n  \
         \"witness_pool\": {{\"raw_pairs\": {}, \"deduped_pairs\": {}, \
         \"raw_bytes\": {}, \"deduped_bytes\": {}}},\n  \
         \"bank_sizes\": {{\n{}\n  }}\n}}\n",
        if ctx.quick { "quick" } else { "full" },
        seed,
        PRE_BANK_BASELINE,
        id_json,
        pool_raw,
        pool_deduped,
        pool_raw * pair_bytes,
        pool_deduped * pair_bytes,
        size_json.join(",\n")
    );
    std::fs::write(ctx.out_dir.join("BENCH_sketch.json"), json).expect("write BENCH_sketch.json");

    vec![sweep, id_table]
}
