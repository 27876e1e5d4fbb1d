//! Checkpoint-over-the-wire round trips: `checkpoint` request bytes from one
//! server restore into a fresh engine behind another server — at a different
//! shard count — with identical certified sets. Covers both models (the
//! insertion-only `MemoryState` payloads and the insertion-deletion wire-v2
//! tagged-container paths from PR 3).

use fews_core::insertion_deletion::IdConfig;
use fews_core::insertion_only::FewwConfig;
use fews_engine::{checkpoint, Engine, EngineConfig};
use fews_integration_tests::Front;
use fews_net::{Client, ClientError, ErrorCode, Server};
use fews_stream::update::as_insertions;
use fews_stream::Update;

const SEED: u64 = 2021;

fn serve(cfg: EngineConfig) -> (Server, Client) {
    let server = Server::start(cfg, "127.0.0.1:0").expect("bind");
    let client = Client::connect(server.local_addr()).expect("connect");
    (server, client)
}

fn shut(server: Server, mut client: Client) {
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn insert_only_checkpoint_restores_across_shard_counts() {
    let g = fews_stream::gen::planted::planted_star(
        96,
        1 << 14,
        24,
        3,
        &mut fews_common::rng::rng_for(SEED, 11),
    );
    let updates = as_insertions(&g.edges);
    let make = |k: usize| {
        EngineConfig::insert_only(FewwConfig::new(96, 24, 2), SEED)
            .with_partitions(8)
            .with_shards(k)
            .with_batch(64)
    };

    // Server A at K = 2: ingest over the wire, fetch the checkpoint.
    let (server_a, mut a) = serve(make(2));
    let half = updates.len() / 2;
    for chunk in updates[..half].chunks(128) {
        a.ingest_batch(chunk).expect("ingest");
    }
    let mid_ckpt = a.checkpoint().expect("checkpoint");
    let mid_certified = a.certified().expect("certified");

    // Server B at K = 3: restore the wire bytes into a fresh engine, then
    // continue the stream. Answers and checkpoints must match a server that
    // saw the whole stream uninterrupted.
    let (server_b, mut b) = serve(make(3));
    b.restore(&mid_ckpt).expect("restore over the wire");
    assert_eq!(
        b.certified().expect("certified"),
        mid_certified,
        "restored engine answers differently at the restore point"
    );
    for chunk in updates[half..].chunks(128) {
        b.ingest_batch(chunk).expect("ingest rest");
    }

    let (server_c, mut c) = serve(make(4));
    for chunk in updates.chunks(128) {
        c.ingest_batch(chunk).expect("ingest full");
    }
    assert_eq!(
        b.certified().expect("certified"),
        c.certified().expect("certified"),
        "resumed run certified differently"
    );
    assert_eq!(
        b.checkpoint().expect("checkpoint"),
        c.checkpoint().expect("checkpoint"),
        "resumed run checkpoint diverged"
    );
    shut(server_a, a);
    shut(server_b, b);
    shut(server_c, c);
}

#[test]
fn insert_delete_wire_v2_checkpoint_round_trips() {
    let log = fews_stream::gen::dblog::db_log(
        32,
        1 << 10,
        12,
        2,
        0.4,
        &mut fews_common::rng::rng_for(SEED, 12),
    );
    let cfg = IdConfig::with_scale(32, 1 << 10, 12, 2, 0.03);
    let make = |k: usize| {
        EngineConfig::insert_delete(cfg, SEED)
            .with_partitions(4)
            .with_shards(k)
            .with_batch(64)
    };

    let (server_a, mut a) = serve(make(1));
    for chunk in log.updates.chunks(256) {
        a.ingest_batch(chunk).expect("ingest id");
    }
    let ckpt = a.checkpoint().expect("id checkpoint");
    let certified = a.certified().expect("certified");
    let top = a.top(4).expect("top");

    // Restore at a different shard count: certified sets, rankings, and the
    // re-serialized checkpoint must all be byte-identical.
    let (server_b, mut b) = serve(make(4));
    b.restore(&ckpt).expect("restore id checkpoint");
    assert_eq!(b.certified().expect("certified"), certified);
    assert_eq!(b.top(4).expect("top"), top);
    assert_eq!(b.checkpoint().expect("checkpoint"), ckpt);
    shut(server_a, a);
    shut(server_b, b);
}

#[test]
fn restore_rejects_garbage_and_mismatches_over_the_wire() {
    let make = |n: u32| {
        EngineConfig::insert_only(FewwConfig::new(n, 8, 2), SEED)
            .with_partitions(4)
            .with_shards(2)
            .with_batch(16)
    };
    let star = |a: u32, bs: std::ops::Range<u64>| -> Vec<Update> {
        bs.map(|b| Update::insert(fews_stream::Edge::new(a, b)))
            .collect()
    };
    // A checkpoint from a mismatched configuration.
    let foreign = Engine::start(make(128)).checkpoint();
    // A container whose header fits but whose partition-1 payload is junk:
    // only the engine's own per-partition validation can refuse it.
    let mut donor = Engine::start(make(64));
    donor.ingest(star(3, 0..8));
    let (_, mut payloads) = checkpoint::decode(&donor.checkpoint()).expect("donor decodes");
    payloads[1].1 = b"junk".to_vec();
    let junk = checkpoint::encode(&make(64), &payloads);

    for front in [Front::node(make(64)), Front::routed(make(64))] {
        let mut client = Client::connect(front.local_addr()).expect("connect");
        client.ingest_batch(&star(7, 0..8)).expect("ingest");
        let certified = client.certified().expect("certified");
        let ckpt = client.checkpoint().expect("checkpoint");
        let refusals: [(&[u8], &str); 3] = [
            (b"definitely not a checkpoint", "magic"),
            (&foreign, "mismatch"),
            (&junk, "partition 1"),
        ];
        for (bytes, names) in refusals {
            match client.restore(bytes) {
                Err(ClientError::Server { code, message, .. }) => {
                    assert_eq!(code, ErrorCode::Checkpoint, "{message}");
                    assert!(message.contains(names), "message: {message}");
                }
                other => panic!("expected a checkpoint error naming {names:?}, got {other:?}"),
            }
            // Nothing was committed: the front answers as before.
            assert_eq!(client.certified().expect("certified"), certified);
            assert_eq!(client.checkpoint().expect("checkpoint"), ckpt);
        }
        // And it still ingests and answers after the rejected restores.
        client
            .ingest_batch(&star(9, 0..8))
            .expect("ingest after reject");
        let nb = client.certify(9).expect("query").expect("vertex 9 held");
        assert_eq!(nb.vertex, 9);
        client.shutdown().expect("shutdown");
        front.join();
    }
}

/// Restores whose lengths claim far more than their bytes hold: a
/// container header naming 2⁴⁰ partitions with no body, and a real
/// checkpoint whose partition-0 payload is the single varint 2⁴⁰ (a degree
/// table of 2⁴⁰ entries). Each used to size an allocation from the claimed
/// count and abort the process. Both are refused typed `checkpoint`, on a
/// node and on a router over two workers, and the front answers on,
/// unchanged.
#[test]
fn hostile_lengths_are_refused_typed_on_every_tier() {
    let cfg = EngineConfig::insert_only(FewwConfig::new(64, 8, 2), SEED)
        .with_partitions(4)
        .with_shards(2);
    let huge = 1u64 << 40;
    let header = checkpoint::Header::for_config(&cfg);
    let mut no_body = checkpoint::MAGIC.to_vec();
    for v in [
        header.model,
        header.seed,
        huge,
        header.n,
        header.m,
        header.d,
        header.alpha,
    ] {
        fews_core::wire::put_uvarint(&mut no_body, v);
    }
    for front in [Front::node(cfg), Front::routed(cfg)] {
        let mut client = Client::connect(front.local_addr()).expect("connect");
        let star: Vec<Update> = (0..8)
            .map(|b| Update::insert(fews_stream::Edge::new(5, b)))
            .collect();
        client.ingest_batch(&star).expect("ingest");
        let certified = client.certified().expect("certified");
        let ckpt = client.checkpoint().expect("checkpoint");
        let inner = checkpoint::unwrap_envelope(&ckpt).expect("envelope").inner;
        let (_, mut payloads) = checkpoint::decode(inner).expect("own checkpoint decodes");
        payloads[0].1.clear();
        fews_core::wire::put_uvarint(&mut payloads[0].1, huge);
        let huge_degrees = checkpoint::encode(&cfg, &payloads);
        for (bytes, what) in [
            (&no_body, "2^40 partitions"),
            (&huge_degrees, "2^40 degrees"),
        ] {
            match client.restore(bytes) {
                Err(ClientError::Server { code, message, .. }) => {
                    assert_eq!(code, ErrorCode::Checkpoint, "{what}: {message}");
                }
                other => panic!("{what}: expected a checkpoint error, got {other:?}"),
            }
            assert_eq!(client.certified().expect("certified"), certified, "{what}");
            assert_eq!(client.checkpoint().expect("checkpoint"), ckpt, "{what}");
        }
        client.shutdown().expect("shutdown");
        front.join();
    }
}
