//! Protocol robustness: hostile and broken byte streams must produce clean
//! protocol errors — the front end never panics and keeps accepting.
//!
//! Every scenario here talks to a live front end over a real socket, once
//! against a node and once against a router over two workers: both run the
//! one connection core (`fews_net::serve`), so both must pass every case.
//! After each attack the suite proves liveness by running a well-formed
//! query (on the same connection when the protocol guarantees resync, on a
//! fresh one when the front end is expected to have dropped the peer).

use fews_common::rng::rng_for;
use fews_common::SpaceId;
use fews_core::insertion_only::FewwConfig;
use fews_engine::EngineConfig;
use fews_integration_tests::Front;
use fews_net::proto::{Request, Response, MAX_FRAME, VERSION};
use fews_net::{Client, ClientError, ErrorCode};
use fews_stream::{Edge, Update};
use rand::RngExt;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Run `scenario` against a node, then against a router over two workers.
fn on_each_front(scenario: impl Fn(Front)) {
    let cfg = EngineConfig::insert_only(FewwConfig::new(64, 8, 2), 9)
        .with_shards(2)
        .with_partitions(4)
        .with_batch(16);
    scenario(Front::node(cfg));
    scenario(Front::routed(cfg));
}

/// The liveness probe: the front end still answers a well-formed query.
fn assert_alive(front: &Front) {
    let mut client = Client::connect(front.local_addr()).expect("server stopped accepting");
    let stats = client.stats().expect("server stopped answering");
    // A node's two shards, or one row per worker on the router.
    assert_eq!(stats.shards.len(), 2);
}

/// Read one response frame from a raw stream.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).expect("response header");
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("response payload");
    Response::decode(&payload).expect("response decodes")
}

fn expect_error(resp: Response, want: ErrorCode) {
    match resp {
        Response::Error { code, .. } => assert_eq!(code, want),
        other => panic!("expected error frame with {want:?}, got {other:?}"),
    }
}

#[test]
fn truncated_frame_drops_connection_but_not_server() {
    on_each_front(|front| {
        let mut stream = TcpStream::connect(front.local_addr()).unwrap();
        // Declare 100 payload bytes, deliver 10, walk away.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
        drop(stream);
        assert_alive(&front);

        // Same damage, but keep the read half open: the server must name the
        // problem with the Truncated code before hanging up.
        let mut stream = TcpStream::connect(front.local_addr()).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        expect_error(read_response(&mut stream), ErrorCode::Truncated);
        assert_alive(&front);
    });
}

#[test]
fn oversized_declared_length_is_rejected_without_allocation() {
    on_each_front(|front| {
        for declared in [0u32, 1, (MAX_FRAME as u32) + 1, u32::MAX] {
            let mut stream = TcpStream::connect(front.local_addr()).unwrap();
            stream.write_all(&declared.to_le_bytes()).unwrap();
            if declared >= 2 {
                // Give read_full something so the error path, not the idle path,
                // answers — the server must reject on the declared length alone.
                stream.write_all(&[VERSION, 0x02]).unwrap();
            }
            expect_error(read_response(&mut stream), ErrorCode::Oversized);
            // The server closed this connection (cannot resync).
            let mut buf = [0u8; 1];
            assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection kept");
            assert_alive(&front);
        }
    });
}

#[test]
fn unknown_tag_errors_and_connection_stays_usable() {
    on_each_front(|front| {
        let mut stream = TcpStream::connect(front.local_addr()).unwrap();
        stream.write_all(&2u32.to_le_bytes()).unwrap();
        stream.write_all(&[VERSION, 0x66]).unwrap();
        expect_error(read_response(&mut stream), ErrorCode::UnknownTag);
        // Same connection, valid request: frame boundaries were never lost.
        stream
            .write_all(&Request::Stats(fews_net::ReadMode::Stale).encode(&SpaceId::default_space()))
            .unwrap();
        assert!(matches!(read_response(&mut stream), Response::Stats(_)));
        assert_alive(&front);
    });
}

#[test]
fn unsupported_version_is_reported() {
    on_each_front(|front| {
        // Both a from-the-future version and the pre-space v1 byte must get the
        // same clean rejection — an old client is told why, not fed garbage.
        for version in [VERSION + 6, 1] {
            let mut stream = TcpStream::connect(front.local_addr()).unwrap();
            stream.write_all(&2u32.to_le_bytes()).unwrap();
            stream.write_all(&[version, 0x02]).unwrap();
            expect_error(read_response(&mut stream), ErrorCode::UnsupportedVersion);
            assert_alive(&front);
        }
    });
}

#[test]
fn malformed_body_errors_and_connection_stays_usable() {
    on_each_front(|front| {
        let mut stream = TcpStream::connect(front.local_addr()).unwrap();
        // Certify whose vertex varint never terminates.
        stream.write_all(&5u32.to_le_bytes()).unwrap();
        stream
            .write_all(&[VERSION, 0x03, 0x80, 0x80, 0x80])
            .unwrap();
        expect_error(read_response(&mut stream), ErrorCode::Malformed);
        stream
            .write_all(
                &Request::Certified(fews_net::ReadMode::Stale).encode(&SpaceId::default_space()),
            )
            .unwrap();
        assert!(matches!(read_response(&mut stream), Response::Answer(_)));
        assert_alive(&front);
    });
}

#[test]
fn ingest_validation_rejects_bad_updates_without_state_change() {
    on_each_front(|front| {
        let mut client = Client::connect(front.local_addr()).unwrap();
        // Vertex out of range (n = 64).
        let bad = vec![
            Update::insert(Edge::new(3, 5)),
            Update::insert(Edge::new(64, 0)),
        ];
        match client.ingest_batch(&bad) {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, ErrorCode::BadUpdate);
                assert!(message.contains("out of range"), "message: {message}");
            }
            other => panic!("expected BadUpdate, got {other:?}"),
        }
        // Deletion into an insertion-only model: a typed model mismatch, not a
        // generic bad update — multi-model servers need clients to tell the two
        // apart.
        match client.ingest_batch(&[Update::delete(Edge::new(1, 1))]) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ModelMismatch),
            other => panic!("expected ModelMismatch, got {other:?}"),
        }
        // Rejection is all-or-nothing: the valid prefix of the batch was not
        // applied either.
        assert_eq!(client.stats().expect("stats").ingested, 0);
        // The connection is still good for valid work.
        assert_eq!(
            client
                .ingest_batch(&[Update::insert(Edge::new(3, 5))])
                .expect("valid batch"),
            1
        );
        assert_eq!(client.stats().expect("stats").ingested, 1);
    });
}

#[test]
fn random_byte_fuzz_streams_never_kill_the_server() {
    on_each_front(|front| {
        let mut rng = rng_for(0xF022, 1);
        for round in 0..32 {
            let len = rng.random_range(1..4096u64) as usize;
            let mut bytes = vec![0u8; len];
            for b in bytes.iter_mut() {
                *b = rng.random_range(0..256u64) as u8;
            }
            let mut stream = TcpStream::connect(front.local_addr()).unwrap();
            // The server may close mid-write (bogus length prefix) — ignore.
            let _ = stream.write_all(&bytes);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            // Drain whatever error frames come back until the server hangs up.
            let mut sink = Vec::new();
            let _ = (&mut stream).take(1 << 16).read_to_end(&mut sink);
            drop(stream);
            if round % 8 == 7 {
                assert_alive(&front);
            }
        }
        assert_alive(&front);
    });
}

#[test]
fn fuzz_valid_headers_random_payloads() {
    on_each_front(|front| {
        // Sharper fuzz: correct length prefixes, random version/tag/body — every
        // frame must be answered with *some* frame (response or error), and the
        // connection must survive whenever the header was in-protocol.
        let mut rng = rng_for(0xF023, 2);
        let mut stream = TcpStream::connect(front.local_addr()).unwrap();
        for _ in 0..64 {
            let body_len = rng.random_range(0..64u64) as usize;
            let mut payload = vec![VERSION, rng.random_range(0..256u64) as u8];
            for _ in 0..body_len {
                payload.push(rng.random_range(0..256u64) as u8);
            }
            stream
                .write_all(&(payload.len() as u32).to_le_bytes())
                .unwrap();
            stream.write_all(&payload).unwrap();
            let resp = read_response(&mut stream);
            if let Response::Bye = resp {
                // Random bytes found the shutdown tag — extremely unlikely with
                // tag sampling over 256 values, but handle it deterministically.
                return;
            }
        }
        assert_alive(&front);
        let mut owner = Client::connect(front.local_addr()).unwrap();
        owner.shutdown().expect("clean shutdown");
        front.join();
    });
}

#[test]
fn requests_for_unknown_spaces_get_the_typed_error() {
    on_each_front(|front| {
        let mut client = Client::connect(front.local_addr())
            .unwrap()
            .with_space(SpaceId::new("no-such-tenant").unwrap());
        for result in [
            client.ingest_batch(&[Update::insert(Edge::new(1, 2))]),
            client.stats().map(|_| 0),
            client.certified().map(|_| 0),
        ] {
            match result {
                Err(ClientError::Server { code, message, .. }) => {
                    assert_eq!(code, ErrorCode::UnknownSpace);
                    assert!(message.contains("no-such-tenant"), "message: {message}");
                }
                other => panic!("expected UnknownSpace, got {other:?}"),
            }
        }
        // The connection survives typed rejections, and switching back to the
        // default space works on the same socket.
        client.set_space(SpaceId::default_space());
        assert_eq!(client.stats().expect("stats").shards.len(), 2);
        assert_alive(&front);
    });
}

#[test]
fn fuzz_space_headers_with_valid_tags() {
    on_each_front(|front| {
        // Version and tag are in-protocol; the space header is adversarial:
        // random declared name lengths (often pointing past the body), random
        // name bytes (usually an invalid charset), sometimes a valid name for a
        // space that does not exist. Every frame must come back as a frame —
        // Malformed, UnknownSpace, or a real answer when the dice roll the
        // default space — and the connection must survive all of them.
        let mut rng = rng_for(0xF024, 3);
        let mut stream = TcpStream::connect(front.local_addr()).unwrap();
        for round in 0..96 {
            // Cheap query tags only — never ingest/restore/lifecycle tags, so
            // the fuzz cannot mutate server state.
            let tag = [0x02u8, 0x03, 0x04, 0x05][rng.random_range(0..4u64) as usize];
            let mut payload = vec![VERSION, tag];
            match round % 3 {
                0 => {
                    // Declared length far beyond the body.
                    payload.push(rng.random_range(3..128u64) as u8);
                    payload.push(b'x');
                }
                1 => {
                    // In-bounds length, random bytes (charset roulette).
                    let len = rng.random_range(1..9u64) as usize;
                    payload.push(len as u8);
                    for _ in 0..len {
                        payload.push(rng.random_range(0..256u64) as u8);
                    }
                }
                _ => {
                    // A perfectly valid name that names nothing.
                    let name = format!("ghost-{}", rng.random_range(0..1000u64));
                    payload.push(name.len() as u8);
                    payload.extend_from_slice(name.as_bytes());
                }
            }
            // Body for the tags that need one (certify/top take a varint).
            payload.push(rng.random_range(0..128u64) as u8);
            stream
                .write_all(&(payload.len() as u32).to_le_bytes())
                .unwrap();
            stream.write_all(&payload).unwrap();
            match read_response(&mut stream) {
                Response::Error { code, .. } => assert!(
                    matches!(code, ErrorCode::Malformed | ErrorCode::UnknownSpace),
                    "unexpected code {code:?}"
                ),
                Response::Answer(_) | Response::Top(_) | Response::Stats(_) => {}
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_alive(&front);
    });
}
