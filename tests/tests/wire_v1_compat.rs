//! Wire v1, the pre-bank insertion-deletion payload format, is retired: a
//! checkpoint carrying one is refused, typed and naming the format, on every
//! tier — an in-process engine, a node, and a router over two workers — and
//! the refusal installs nothing anywhere.

use fews_core::insertion_deletion::IdConfig;
use fews_core::wire::put_uvarint;
use fews_engine::{checkpoint, Engine, EngineConfig};
use fews_integration_tests::Front;
use fews_net::{Client, ClientError, ErrorCode};
use fews_stream::Update;

const SEED: u64 = 2021;

fn id_cfg() -> IdConfig {
    IdConfig::with_scale(32, 1 << 10, 12, 2, 0.03)
}

fn cfg() -> EngineConfig {
    EngineConfig::insert_delete(id_cfg(), SEED)
        .with_partitions(4)
        .with_shards(2)
        .with_batch(64)
}

/// The register file a pre-bank engine wrote for an empty partition of
/// [`id_cfg`]: the sampler count opens it (no sentinel, no version tag),
/// then the cell count and one all-zero `(count, index-sum, fingerprint)`
/// triple per cell — four one-byte varints, the index sum taking two.
fn v1_payload() -> Vec<u8> {
    let c = id_cfg();
    let samplers = c.vertex_sample_size() * c.samplers_per_vertex() + c.edge_sampler_count();
    let mut bytes = Vec::new();
    put_uvarint(&mut bytes, samplers as u64);
    put_uvarint(&mut bytes, c.total_cells() as u64);
    bytes.resize(bytes.len() + 4 * c.total_cells(), 0);
    bytes
}

#[test]
fn v1_payloads_are_refused_on_every_tier() {
    let updates: Vec<Update> = fews_stream::gen::dblog::db_log(
        32,
        1 << 10,
        12,
        2,
        0.4,
        &mut fews_common::rng::rng_for(SEED, 4),
    )
    .updates;
    let (head, _) = updates.split_at(updates.len() / 2);
    // A donor holding the whole stream, with partition 1 swapped for v1
    // bytes: every other payload is a valid bank file that differs from
    // what the targets hold, so a partial install would show.
    let mut donor = Engine::start(cfg());
    donor.ingest(updates.iter().copied());
    let (_, mut payloads) = checkpoint::decode(&donor.checkpoint()).expect("donor decodes");
    payloads[1].1 = v1_payload();
    let mixed = checkpoint::encode(&cfg(), &payloads);

    let mut engine = Engine::start(cfg());
    engine.ingest(head.iter().copied());
    let before = (engine.view().certified(), engine.checkpoint());
    let err = engine
        .restore_checkpoint(&mixed)
        .expect_err("a v1 payload must not restore");
    assert!(err.to_string().contains("pre-bank"), "{err}");
    assert_eq!((engine.view().certified(), engine.checkpoint()), before);

    for front in [Front::node(cfg()), Front::routed(cfg())] {
        let mut client = Client::connect(front.local_addr()).expect("connect");
        for chunk in head.chunks(256) {
            client.ingest_batch(chunk).expect("ingest");
        }
        let state = |c: &mut Client| {
            (
                c.certified().expect("certified"),
                c.checkpoint().expect("checkpoint"),
            )
        };
        let before = state(&mut client);
        match client.restore(&mixed) {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, ErrorCode::Checkpoint, "{message}");
                assert!(message.contains("pre-bank"), "message: {message}");
            }
            other => panic!("expected a typed checkpoint refusal, got {other:?}"),
        }
        assert_eq!(state(&mut client), before);
        client.shutdown().expect("shutdown");
        front.join();
    }
}
