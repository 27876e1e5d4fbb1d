//! State-density gate for the insertion-only engine at the serving
//! benchmark's zipf model (n = 4096, d = 2048, α = 2, 16 partitions,
//! Zipf(1.1) items with their timestamp as the witness).
//!
//! * The measured state (`space_bytes`) is a pure function of the state: an
//!   engine that restored a mid-stream checkpoint and an engine that never
//!   restored hold byte-equal checkpoints *and* report equal sizes.
//! * A stored witness costs at most 5 B all-in (lists, reservoir slots,
//!   indexes and the degree tables), where a `u64` per witness plus growth
//!   slack costs about 9 B.

use fews_common::rng::rng_for;
use fews_core::insertion_only::FewwConfig;
use fews_core::wire::PackedState;
use fews_engine::{checkpoint, Engine, EngineConfig};
use fews_stream::gen::zipf::Zipf;
use fews_stream::{Edge, Update};

const UPDATES: u64 = 2 << 20;
/// Items per zipf pool, walked cyclically as the serving benchmark does.
const POOL: usize = 1 << 20;

fn cfg() -> EngineConfig {
    EngineConfig::insert_only(FewwConfig::new(4096, 2048, 2), 2021)
        .with_partitions(16)
        .with_shards(2)
        .with_batch(8192)
}

fn stream(seed: u64) -> Vec<Update> {
    let zipf = Zipf::new(4096, 1.1);
    let mut rng = rng_for(seed, 0xBE_0001);
    let items: Vec<u32> = (0..POOL).map(|_| zipf.sample(&mut rng)).collect();
    (0..UPDATES)
        .map(|t| Update::insert(Edge::new(items[t as usize % POOL], t)))
        .collect()
}

/// Witnesses stored across every partition's reservoirs.
fn stored_witnesses(ckpt: &[u8]) -> usize {
    let (_, payloads) = checkpoint::decode(ckpt).expect("checkpoint decodes");
    payloads
        .iter()
        .map(|(p, bytes)| {
            let state =
                PackedState::decode(bytes).unwrap_or_else(|| panic!("partition {p} decodes"));
            state
                .runs
                .iter()
                .flat_map(|run| &run.entries)
                .map(|(_, ws)| ws.len())
                .sum::<usize>()
        })
        .sum()
}

#[test]
fn space_is_a_pure_function_of_the_state_and_dense() {
    let updates = stream(1);
    let (first, second) = updates.split_at(updates.len() / 2);

    let mut straight = Engine::start(cfg());
    straight.ingest(first.iter().copied());
    let mid = straight.checkpoint();
    straight.ingest(second.iter().copied());

    let mut restored = Engine::start(cfg());
    restored
        .restore_checkpoint(&mid)
        .expect("restore mid-stream");
    restored.ingest(second.iter().copied());

    let ckpt = straight.checkpoint();
    assert_eq!(restored.checkpoint(), ckpt, "the restored engine diverged");
    let bytes = straight.stats().space_bytes();
    assert_eq!(
        restored.stats().space_bytes(),
        bytes,
        "equal states must be charged equally, restored or not"
    );

    let witnesses = stored_witnesses(&ckpt);
    assert!(witnesses > 500_000, "only {witnesses} witnesses stored");
    let per = bytes as f64 / witnesses as f64;
    assert!(
        per <= 5.0,
        "{bytes} B for {witnesses} witnesses: {per:.2} B each, past 5"
    );
}
