//! # `fews-net` — a concurrent, multi-tenant TCP serving layer over `fews-engine`
//!
//! PR 2 gave the FEwW reproduction a sharded in-process runtime; this crate
//! puts it behind a real wire. It is deliberately std-only (no async
//! runtime): one acceptor thread, one worker thread per connection, and a
//! registry of tenant *spaces*, each owning its own [`fews_engine::Engine`]
//! behind its own mutex — traffic in one space never contends with
//! another's, while each engine's own shard workers keep processing batches
//! in parallel.
//!
//! * [`proto`] — the versioned, length-prefixed binary frame format (v3:
//!   every request opens with a space header) and the
//!   [`proto::Request`]/[`proto::Response`] codecs (varints via
//!   `fews_core::wire`, checkpoints byte-identical to
//!   [`fews_engine::Engine::checkpoint`], wrapped in a space-tagged
//!   envelope).
//! * [`serve`] — the one connection core, run by a node's [`Server`] and
//!   by the `fews-cluster` router alike: accept-time shedding past a
//!   connection cap, per-frame read deadlines, buffer reuse, typed error
//!   frames for header damage, and shutdown. A front end supplies only its
//!   request handler.
//! * [`server`] — [`Server`]: bind, accept, validate, answer. Malformed
//!   input yields error frames, never panics; ingest is validated against
//!   the addressed space's model before any update reaches a shard. With
//!   [`ServerOptions::data_dir`] set, every space write-ahead-logs
//!   acknowledged batches (fsync before ack) and is recovered on restart by
//!   checkpoint restore + WAL tail replay.
//! * [`client`] — [`Client`]: a blocking request/response client with a
//!   current-space cursor, space lifecycle calls, and byte counters for
//!   measuring wire overhead. [`Client::connect_with`] adds
//!   connect/read/write timeouts and bounded connect retry with
//!   exponential, optionally full-jittered backoff ([`ClientOptions`]) —
//!   what keeps a hung server from wedging a caller, and what the
//!   `fews-cluster` router runs with.
//! * [`fault`] — [`FaultPlan`]: deterministic, seeded, budgeted transport
//!   fault injection (connection refusal, mid-frame cuts, stalls,
//!   slow-start) consulted by the client — the cluster fault lab's
//!   instrument. Faults only ever surface as transport errors; payload
//!   bytes are never altered.
//!
//! The protocol also carries the cluster-facing requests `fews-cluster`
//! speaks to its workers: `ping` liveness, `node-hello` admission checks,
//! `scoped-read` (a `certified` / `certify` / `top` answered over the
//! partitions the read names, under the read's freshness mode),
//! `view-pull` (epoch-watermarked shipping of the whole view), and
//! `slice-checkpoint` / `slice-restore` (partition handoff). A worker keeps
//! no per-router state: every request says what it covers.
//!
//! ```
//! use fews_core::insertion_only::FewwConfig;
//! use fews_engine::EngineConfig;
//! use fews_net::{Client, Server};
//! use fews_stream::{Edge, Update};
//!
//! let cfg = EngineConfig::insert_only(FewwConfig::new(16, 8, 2), 42).with_shards(2);
//! let server = Server::start(cfg, "127.0.0.1:0").expect("bind");
//! let mut client = Client::connect(server.local_addr()).expect("connect");
//! let updates: Vec<Update> = (0..8).map(|b| Update::insert(Edge::new(7, b))).collect();
//! client.ingest_batch(&updates).expect("ingest");
//! let out = client.certified().expect("query").expect("vertex 7 has degree 8");
//! assert_eq!(out.vertex, 7);
//! client.shutdown().expect("shutdown");
//! server.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod proto;
pub mod serve;
pub mod server;

pub use client::{Client, ClientError, ClientOptions};
pub use fault::{FaultCounts, FaultPlan, FaultProfile, SendFault};
pub use proto::{
    ErrorCode, ReadMode, Request, Response, ScopedQuery, WireNodeInfo, WireOverload,
    WireShardStats, WireSpaceInfo, WireStats, WireView,
};
pub use server::{OverloadLimits, Server, ServerOptions};
