//! The partition-routing coordinator.
//!
//! One [`Router`] fronts N `fews-net` worker processes. It is a protocol v3
//! server on its public side and a `fews-net` client on its worker side;
//! everything it knows lives in one [`Inner`] behind a mutex (request
//! handling serializes at the router, the workers' own shard pools provide
//! the parallelism). Its front end is the node's own connection core,
//! [`fews_net::serve`], handed the router's request handler: accept, frame
//! deadlines, the connection cap ([`RouterOptions::max_conns`]), typed
//! errors for header damage and shutdown behave exactly as on a node.
//!
//! ## Consistency argument
//!
//! The router's source of truth for every partition `p` is the pair
//! `(payloads[p], logs[p])`: the last slice-checkpoint payload pulled from
//! one of `p`'s owners, plus every update routed since, in arrival order.
//! An update is appended to the log *before* it is offered to a worker
//! (**log-before-send**), so whatever a send failure leaves behind on the
//! worker — applied, dropped, or unknown — the router can always rebuild the
//! exact state by restoring `payloads[p]` and replaying `logs[p]`. That
//! rebuild *is* the rejoin path, which is why a node marked down for any
//! reason (heartbeat miss, send failure, refused connection) recovers
//! through one code path and comes back bit-exact with a node that never
//! died.
//!
//! ## Replication
//!
//! Each partition has [`RouterOptions::replicas`] owners (`(p + k) % N` for
//! `k < R`, primary first). Ingest goes to every live owner through the
//! router's one fan-out ([`Inner::fan_out`]): all frames written, then all
//! replies read, so R-way replication costs one round trip, not R. Every
//! request the router sends a worker but admission's hello rides it —
//! ingest, scoped reads, slice pulls and pushes, stats, heartbeat pings
//! and forwarded shutdowns — so it alone checks worker replies and marks
//! a worker down.
//!
//! Acknowledged ingest means *retained at the router*: a batch is acked
//! once it is logged (and, with a data dir, fsynced) and offered to every
//! live owner, even if some owner is down.
//!
//! ## Scoped reads
//!
//! A read is *planned* before anything is sent: every partition it needs
//! gets a **designated reader**, its first live owner, and each planned
//! node receives one pipelined `scoped-read` naming exactly its partitions
//! and carrying the read mode (the node's own acked watermark for a fresh
//! read, `?stale` as is). The worker answers over those partitions, and as
//! partitions are vertex-disjoint the router merges the answers exactly:
//! `top k` by (stored witness count desc, vertex asc), `certified` by
//! (run, partition) for insertion-only and by (witness count desc, vertex
//! asc) for insertion-deletion; `certify v` names only `v`'s partition, so
//! it touches one worker. A read moves answers, not state, and they are
//! byte-identical to a single engine's whichever replicas are up. A failed
//! read marks its node down and re-plans (bounded by the node count), so
//! at R ≥ 2 a node loss degrades to "read from the replica" with no
//! recovery pause; only a partition with *no* live owner forces a bounded
//! rejoin attempt on the query path (the R=1 behaviour), and only its
//! failure surfaces as [`ErrorCode::NodeUnavailable`]. A read a worker
//! sheds (`overloaded`) or cannot fit in one frame (`oversized`) leaves
//! the node live and fails with the same typed code. The refresh pulls its
//! slice checkpoints through the same plan. Down nodes are repaired in the
//! background by the heartbeat thread instead of stalling ingest or
//! queries.
//!
//! ## Durability
//!
//! With [`RouterOptions::data_dir`] set, the retained state is crash-safe
//! in a node's data dir holding the default space alone, written, checked
//! and recovered by the node's durable core ([`fews_engine::wal`]): every
//! acked batch is appended to the WAL and fsynced by its group commit
//! *before* the ack, and a failed fsync poisons durability as on a node.
//! Compaction (whenever every retained log is empty) is [`Wal::compact`]
//! of one checkpoint envelope carrying the WAL sequence it covers and the
//! ack watermark `ingested`. A restart passes the node's config guard and
//! recovery routine: checkpoint + WAL tail replay to bit-exact retained
//! state, `ingested` comes back as the envelope's plus every update logged
//! past it, and every worker gets its slice wholesale, so the cluster's
//! answers are byte-identical to an uninterrupted run. An older data dir's
//! `router.meta` is read once, as an upgrade.
//!
//! The logs have one bound, [`RouterOptions::retained_budget`]. When a
//! batch would carry them past it, the router first *refreshes*: it pulls
//! fresh slice checkpoints from live owners, replacing `payloads` and
//! truncating the covered `logs` (and compacting the WAL once every log is
//! empty). Only if what is left — updates whose owners are all down —
//! still leaves no room is the batch shed. `checkpoint`, `restore` and
//! `join` force a refresh, and a rejoin refreshes from live co-owners
//! before it marks the returning node live, so it replays only what no
//! live owner holds. A healthy router therefore holds up to a budget of
//! already-delivered updates between refreshes and pays one O(state)
//! refresh per budget.

use fews_common::rng::derive_seed;
use fews_common::SpaceId;
use fews_core::neighbourhood::Neighbourhood;
use fews_engine::checkpoint::{self, Header};
use fews_engine::diskfault::DiskFaultPlan;
use fews_engine::wal::{self, scan_log, wal_path, SpaceDir, Wal};
use fews_engine::{partition_of, Engine, EngineConfig, ModelSpec};
use fews_net::serve::{self, FrontEnd};
use fews_net::server::validate_batch;
use fews_net::{
    Client, ClientError, ClientOptions, ErrorCode, ReadMode, Request, Response, ScopedQuery,
    WireNodeInfo, WireOverload, WireShardStats, WireStats,
};
use fews_stream::Update;
use std::cmp::{Ordering as Rank, Reverse};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replay chunk size for checkpoint-handoff rejoin: small enough that a
/// chunk always fits one frame, large enough to amortize round-trips.
const REPLAY_CHUNK: usize = 8192;

/// Where data dirs kept the ack watermark before the v3 envelope: read
/// beside an older envelope (or none), removed by compaction, never written.
const META_FILE: &str = "router.meta";

/// Base unit of the `retry_after_ms` hint on router-side shedding, scaled
/// by how far past the retained-log budget the router is.
const ROUTER_RETRY_MS: u64 = 100;

/// Behaviour knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Connection behaviour towards workers. The default is bounded
    /// (2 s timeouts, 2 connect retries): a hung worker must cost the
    /// cluster a timeout, never a wedge. Each worker connection derives its
    /// own jitter stream from [`ClientOptions::jitter_seed`], so retrying
    /// connections never synchronize their storms against a recovering
    /// node.
    pub client: ClientOptions,
    /// Heartbeat period: every tick, live nodes are pinged (a miss marks
    /// them down) and down nodes get a rejoin attempt — at R ≥ 2 this is
    /// the background repair that restores full replication after a loss.
    /// `None` disables the background thread — recovery then happens only
    /// on demand, when a query finds a partition with no live owner. Tests
    /// use `None` for determinism.
    pub heartbeat: Option<Duration>,
    /// Forward a client `shutdown` request to every worker before answering
    /// `Bye`. Routers owning their fleet (the CLI) want this; tests that
    /// manage worker lifetimes themselves do not.
    pub forward_shutdown: bool,
    /// How many nodes own each partition (clamped to the node count).
    /// At 1, a worker loss makes its partitions unavailable until rejoin;
    /// at 2+, queries fail over to a surviving replica with no pause.
    pub replicas: usize,
    /// Durability root. `Some(dir)` write-ahead-logs every acked batch
    /// (fsync before ack) and checkpoints retained payloads there, so a
    /// killed router restarts bit-exact from disk. `None` keeps retained
    /// state in memory only, as a cache-tier deployment would.
    pub data_dir: Option<PathBuf>,
    /// Cap on updates the retained logs may hold — the only bound on them,
    /// and so on router memory (about 24 bytes per update) and on the WAL.
    /// A batch that would carry the logs past it first triggers a refresh
    /// (slice pulls from live owners, log truncation, WAL compaction); only
    /// if the updates no live owner holds still leave no room is the batch
    /// shed with [`ErrorCode::Overloaded`] + retry-after. Shedding here is
    /// how worker loss *composes* up the tiers instead of amplifying: the
    /// router stops accepting what it cannot place and tells clients when
    /// to come back. Must be at least 1; [`Router::start`] refuses 0.
    pub retained_budget: u64,
    /// Storage fault lab: a seeded plan consulted by every WAL flush and
    /// fsync and by every compaction's checkpoint replace —
    /// the type a node's `ServerOptions::disk_faults` takes. `None` (the
    /// default) runs the real disk untouched.
    pub disk_faults: Option<Arc<DiskFaultPlan>>,
    /// Cap on concurrent client connections (0 = unlimited), enforced by
    /// the connection core a node runs: past it, a connection is shed at
    /// accept time with a typed [`ErrorCode::Overloaded`] frame.
    pub max_conns: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            client: ClientOptions::bounded(Duration::from_secs(2), 2),
            heartbeat: Some(Duration::from_secs(1)),
            forward_shutdown: true,
            replicas: 2,
            data_dir: None,
            retained_budget: 1 << 20,
            disk_faults: None,
            max_conns: 0,
        }
    }
}

/// `(code, message)` of an error frame the router is about to send.
type Fail = (ErrorCode, String);

/// One cluster member as the router sees it.
struct Node {
    addr: String,
    /// `None` = down, as [`Inner::fan_out`] marks it (or a forwarded
    /// shutdown). Every recovery goes through [`Inner::rejoin`].
    client: Option<Client>,
    /// The node's highest acked *ingest* watermark — what a fresh scoped
    /// read asks the node's snapshot to cover, so the answer includes
    /// everything routed to it. [`Inner::fan_out`] copies the client's.
    acked: u64,
    /// Updates routed to this node (the router-side `processed` counter).
    routed: u64,
    /// Batches routed to this node.
    batches: u64,
}

impl Node {
    fn fresh(addr: String, client: Option<Client>) -> Node {
        Node {
            addr,
            client,
            acked: 0,
            routed: 0,
            batches: 0,
        }
    }
}

/// The router's durable half: the WAL and the default space's directory
/// of a node's data dir.
struct Durable {
    wal: Wal,
    store: SpaceDir,
}

/// All router state, behind the one mutex.
struct Inner {
    cfg: EngineConfig,
    opts: RouterOptions,
    nodes: Vec<Node>,
    /// `owners[p]` = the node indices hosting partition `p`, primary first.
    owners: Vec<Vec<usize>>,
    /// Per-partition slice-checkpoint payload as of the last refresh.
    /// Always populated: seeded at startup from a scratch local engine
    /// (empty partition state is a pure function of `(seed, p)`), or from
    /// the durable checkpoint on recovery.
    payloads: Vec<Vec<u8>>,
    /// Per-partition updates routed since `payloads[p]` was pulled, in
    /// arrival order. `payloads[p] + logs[p]` rebuilds the partition
    /// exactly.
    logs: Vec<Vec<Update>>,
    /// Updates accepted over the router's lifetime (recovered across
    /// restarts when durable).
    ingested: u64,
    durable: Option<Durable>,
    started: Instant,
    /// Ingest batches the router itself shed with [`ErrorCode::Overloaded`]
    /// (retained-log budget exhausted) — surfaced in `stats`.
    shed_ingest: u64,
}

/// `owners[p]` for every partition: the `min(replicas, nodes)` ring
/// neighbours `(p + k) % nodes`, primary first. Every node owns the same
/// number of partitions (up to rounding), and losing any single node
/// leaves every partition with `R - 1` live owners.
fn owner_map(partitions: usize, nodes: usize, replicas: usize) -> Vec<Vec<usize>> {
    let r = replicas.clamp(1, nodes);
    (0..partitions)
        .map(|p| (0..r).map(|k| (p + k) % nodes).collect())
        .collect()
}

/// The one rule deciding which node serves a partition: its *designated
/// reader*, the first live owner. Returns, per node, the ascending
/// `wanted` partitions it reads for, and the `wanted` partitions with no
/// live owner. The lists are disjoint and together cover `wanted`.
fn plan_reads(
    owners: &[Vec<usize>],
    live: &[bool],
    wanted: impl Iterator<Item = usize>,
) -> (Vec<Vec<u32>>, Vec<usize>) {
    let mut plan = vec![Vec::new(); live.len()];
    let mut orphans = Vec::new();
    for p in wanted {
        match owners[p].iter().find(|&&i| live[i]) {
            Some(&i) => plan[i].push(p as u32),
            None => orphans.push(p),
        }
    }
    (plan, orphans)
}

/// The client options for node `i`: the shared options with a per-node
/// jitter stream, so every worker connection de-correlates its backoff.
fn client_opts_for(opts: &RouterOptions, i: usize) -> ClientOptions {
    let mut o = opts.client.clone();
    o.jitter_seed = o.jitter_seed.map(|s| derive_seed(s, i as u64));
    o
}

/// The ack watermark of a data dir from before the v3 envelope (or with no
/// checkpoint yet), by the rule that wrote it: `router.meta`'s count (0
/// without the file) plus every default-space update past the WAL sequence
/// it covers, which may include records the checkpoint holds (`tail` is
/// those past it). An unparsable file is `InvalidData`, naming it; other
/// lines, such as an older file's `assign_epoch`, are skipped.
fn legacy_ingested(dir: &Path, wal_seq: u64, tail: u64) -> std::io::Result<u64> {
    let path = dir.join(META_FILE);
    let fail = |kind, why: &dyn std::fmt::Display| {
        std::io::Error::new(kind, format!("router meta {}: {why}", path.display()))
    };
    let (count, counted) = match std::fs::read_to_string(&path) {
        Err(e) if e.kind() == ErrorKind::NotFound => (0, 0),
        Err(e) => return Err(fail(e.kind(), &e)),
        Ok(text) => {
            // `None` if the key is absent, `Some(None)` if unreadable.
            let value = |key: &str| {
                let mut line = text.lines().skip(1).map(str::split_whitespace);
                let mut words = line.find(|words| words.clone().next() == Some(key))?;
                Some(words.nth(1).and_then(|v| v.parse::<u64>().ok()))
            };
            match (text.lines().next(), value("ingested"), value("wal_seq")) {
                (Some("fews-router-meta v1"), Some(Some(count)), seq) if seq != Some(None) => {
                    (count, seq.flatten().unwrap_or(wal_seq))
                }
                _ => return Err(fail(ErrorKind::InvalidData, &"unreadable")),
            }
        }
    };
    let mut covered = 0;
    if counted < wal_seq {
        let (records, _, _) = scan_log(&std::fs::read(wal_path(dir))?);
        covered = records
            .iter()
            .filter(|(seq, space, _)| {
                (counted + 1..=wal_seq).contains(seq) && space == fews_common::DEFAULT_SPACE
            })
            .map(|(_, _, updates)| updates.len() as u64)
            .sum();
    }
    Ok(count + covered + tail)
}

/// Decode a full checkpoint (an envelope or a bare container) into the
/// dense per-partition payload store — the one decoder under startup
/// recovery and a wire `restore`. Refuses a container for another space
/// or another config; a full container for this config carries
/// partitions `0..P` in order.
fn decode_store(cfg: &EngineConfig, bytes: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let env =
        checkpoint::unwrap_for(bytes, fews_common::DEFAULT_SPACE).map_err(|e| e.to_string())?;
    let (header, listed) = checkpoint::decode(env.inner).map_err(|e| e.to_string())?;
    header.check_against(cfg).map_err(|e| e.to_string())?;
    Ok(listed.into_iter().map(|(_, b)| b).collect())
}

/// Connect to a worker and verify it serves the exact model, seed, and
/// partitioning this cluster routes for.
fn admit(
    addr: &str,
    cfg: &EngineConfig,
    opts: &ClientOptions,
) -> Result<(Client, WireNodeInfo), String> {
    let mut client =
        Client::connect_with(addr, opts).map_err(|e| format!("worker {addr}: connect: {e}"))?;
    let info = client
        .node_hello()
        .map_err(|e| format!("worker {addr}: hello: {e}"))?;
    let want = WireNodeInfo::new(&Header::for_config(cfg), 0);
    let got = WireNodeInfo {
        ingested: 0,
        ..info
    };
    if got != want {
        return Err(format!(
            "worker {addr} serves a different model/seed/partitioning than this cluster \
             (wanted model={} seed={} partitions={}, got model={} seed={} partitions={})",
            want.model, want.seed, want.partitions, got.model, got.seed, got.partitions
        ));
    }
    Ok((client, info))
}

/// Map a worker-side client failure to the error frame the router's own
/// client gets: transport trouble is `node-unavailable`, a worker's error
/// frame passes through with the worker named.
fn node_fail(addr: &str, e: &ClientError) -> Fail {
    match e {
        ClientError::Io(e) => (
            ErrorCode::NodeUnavailable,
            format!("worker {addr} unavailable: {e}"),
        ),
        ClientError::Protocol(m) => (
            ErrorCode::Malformed,
            format!("worker {addr} protocol error: {m}"),
        ),
        ClientError::Server { code, message, .. } => (*code, format!("worker {addr}: {message}")),
    }
}

/// Whether a worker's typed refusal of a read is load, not a fault: the
/// node answered in step, so it stays live and the read fails as it is —
/// a re-plan would only ask the same node again.
fn keeps_node_live(code: ErrorCode) -> bool {
    matches!(code, ErrorCode::Overloaded | ErrorCode::Oversized)
}

/// [`Inner::fan_out`]'s check of a reply whose kind is the whole answer
/// (an ingest ack's watermark goes to the client): `Ingested` to an ingest
/// batch, `Restored` to a slice restore, `Pong` to a ping, `Bye` to a
/// shutdown.
fn acknowledged(_: usize, request: &Request, reply: Response) -> Result<(), String> {
    let (what, fits) = match request {
        Request::IngestBatch(_) => ("ingest", matches!(reply, Response::Ingested { .. })),
        Request::SliceRestore(_) => ("slice-restore", reply == Response::Restored),
        Request::Ping => ("ping", reply == Response::Pong),
        Request::Shutdown => ("shutdown", reply == Response::Bye),
        _ => ("a request with an answer", false),
    };
    fits.then_some(())
        .ok_or_else(|| format!("answered `{what}` with the wrong frame kind"))
}

/// Check that an answered vertex is one the read could produce: a vertex
/// of the model (`< n`) in one of the `named` partitions.
fn check_vertex(cfg: &EngineConfig, named: &[u32], a: u32) -> Result<(), String> {
    let n = Header::for_config(cfg).n;
    if u64::from(a) >= n {
        return Err(format!("answered vertex {a}, past n = {n}"));
    }
    let p = partition_of(a, cfg.partitions) as u32;
    if named.binary_search(&p).is_err() {
        return Err(format!(
            "answered vertex {a}, whose partition {p} the read did not name"
        ));
    }
    Ok(())
}

/// Check a reader's answer to a scoped `certified` over `named`: a vertex
/// it could hold, in one of the model's runs.
fn check_certified(
    cfg: &EngineConfig,
    named: &[u32],
    answer: Response,
) -> Result<Option<(u32, Neighbourhood)>, String> {
    let Response::CertifiedIn(answer) = answer else {
        return Err("answered a scoped certified with the wrong frame kind".into());
    };
    if let Some((run, nb)) = &answer {
        check_vertex(cfg, named, nb.vertex)?;
        let runs = match cfg.model {
            ModelSpec::InsertOnly(c) => c.alpha,
            ModelSpec::InsertDelete(_) => 1,
        };
        if *run >= runs {
            return Err(format!("certified an entry of run {run}, model has {runs}"));
        }
    }
    Ok(answer)
}

/// Check a reader's answer to a scoped `certify(v)`: nothing, or `v`.
fn check_certify(
    cfg: &EngineConfig,
    named: &[u32],
    v: u32,
    answer: Response,
) -> Result<Option<Neighbourhood>, String> {
    let Response::Answer(answer) = answer else {
        return Err("answered a scoped certify with the wrong frame kind".into());
    };
    if let Some(nb) = &answer {
        if nb.vertex != v {
            return Err(format!("answered certify({v}) with vertex {}", nb.vertex));
        }
        check_vertex(cfg, named, v)?;
    }
    Ok(answer)
}

/// A scoped `top` answer: a vertex with the stored witness count it ranks
/// by.
type Ranked = (u64, Neighbourhood);

/// The order `top` ranks by: stored witness count descending, then vertex
/// ascending.
fn rank((c1, a): &Ranked, (c2, b): &Ranked) -> Rank {
    c2.cmp(c1).then(a.vertex.cmp(&b.vertex))
}

/// Check a reader's answer to a scoped `top(k)`: at most `k` vertices it
/// could hold, strictly in rank order (so each appears once), none with
/// more distinct witnesses than the stored count it ranks by.
fn check_top(
    cfg: &EngineConfig,
    named: &[u32],
    k: usize,
    answer: Response,
) -> Result<Vec<Ranked>, String> {
    let Response::TopIn(list) = answer else {
        return Err("answered a scoped top with the wrong frame kind".into());
    };
    if list.len() > k {
        return Err(format!("answered top({k}) with {} vertices", list.len()));
    }
    for (count, nb) in &list {
        check_vertex(cfg, named, nb.vertex)?;
        if nb.witnesses.len() as u64 > *count {
            return Err(format!("ranked vertex {} below its witnesses", nb.vertex));
        }
    }
    if list.windows(2).any(|w| rank(&w[0], &w[1]) != Rank::Less) {
        return Err("answered a top list out of rank order".into());
    }
    Ok(list)
}

/// Merge checked scoped `certified` answers over disjoint scopes into the
/// whole view's. Insertion-only certifies the first entry of the merged
/// (run, partition, slot) scan, so the least (run, partition) wins — each
/// partition has one reader, so no two answers tie; insertion-deletion
/// certifies the most witnesses, ties to the smaller vertex (its pools are
/// stored distinct, so an answer's count is the one the view compares).
fn merge_certified(
    cfg: &EngineConfig,
    answers: Vec<Option<(u32, Neighbourhood)>>,
) -> Option<Neighbourhood> {
    let answers = answers.into_iter().flatten();
    let best = match cfg.model {
        ModelSpec::InsertOnly(_) => {
            answers.min_by_key(|(run, nb)| (*run, partition_of(nb.vertex, cfg.partitions)))
        }
        ModelSpec::InsertDelete(_) => {
            answers.max_by_key(|(_, nb)| (nb.witnesses.len(), Reverse(nb.vertex)))
        }
    };
    best.map(|(_, nb)| nb)
}

/// Merge checked scoped `top(k)` answers over disjoint scopes: each holds
/// its scope's k best, and every vertex lives in one scope, so the k best
/// of their union are the whole view's.
fn merge_top(answers: Vec<Vec<Ranked>>, k: usize) -> Vec<Neighbourhood> {
    let mut merged: Vec<Ranked> = answers.into_iter().flatten().collect();
    merged.sort_unstable_by(rank);
    merged.into_iter().take(k).map(|(_, nb)| nb).collect()
}

impl Inner {
    /// The sorted partition ids node `i` currently owns (as any replica).
    fn owned(&self, i: usize) -> Vec<u32> {
        (0..self.cfg.partitions as u32)
            .filter(|&p| self.owners[p as usize].contains(&i))
            .collect()
    }

    /// Reseed the live nodes among `nodes` in one fan-out: each gets its
    /// full slice as a wholesale `slice-restore` from the payload store,
    /// then its retained logs in [`REPLAY_CHUNK`] batches. A node that
    /// fails any of it is marked down and gets its slice at rejoin, as a
    /// down node does; the first failure comes back.
    fn reseed(&mut self, nodes: impl IntoIterator<Item = usize>) -> Result<(), Fail> {
        let mut requests = Vec::new();
        for i in nodes {
            if self.nodes[i].client.is_none() {
                continue;
            }
            let owned = self.owned(i);
            let slice: Vec<(u32, Vec<u8>)> = owned
                .iter()
                .map(|&p| (p, self.payloads[p as usize].clone()))
                .collect();
            let container = checkpoint::encode_slice(&self.cfg, &slice);
            requests.push((i, Request::SliceRestore(container)));
            // Replay partition by partition: the engine orders per partition
            // only, and logs[p] holds exactly p's updates in arrival order.
            let mut replay = Vec::new();
            for &p in &owned {
                replay.extend_from_slice(&self.logs[p as usize]);
            }
            for chunk in replay.chunks(REPLAY_CHUNK) {
                requests.push((i, Request::IngestBatch(chunk.to_vec())));
            }
        }
        let (_, first) = self.fan_out(requests, |_| false, acknowledged);
        first.map_or(Ok(()), Err)
    }

    /// Checkpoint-handoff recovery: reconnect, verify identity, stream the
    /// node's slice back as exact engine container bytes, replay the
    /// retained log ([`Inner::reseed`]). The revived node is bit-exact with
    /// one that never died (restore is wholesale per partition, so it also
    /// erases any half-applied batch a send failure left behind).
    ///
    /// Before the node is marked live, the retained logs are refreshed from
    /// its live co-owners (it cannot be picked as a source while down), so
    /// the replay carries only updates no live owner holds.
    fn rejoin(&mut self, i: usize) -> Result<(), Fail> {
        let addr = self.nodes[i].addr.clone();
        let (client, _) = admit(&addr, &self.cfg, &client_opts_for(&self.opts, i))
            .map_err(|m| (ErrorCode::NodeUnavailable, m))?;
        self.refresh_retained();
        self.nodes[i].client = Some(client);
        self.reseed([i])
    }

    /// Which nodes are live, by index.
    fn live(&self) -> Vec<bool> {
        self.nodes.iter().map(|n| n.client.is_some()).collect()
    }

    /// Plan a read of the partitions `wanted` selects: each goes to its
    /// designated reader ([`plan_reads`]). A partition with no live owner
    /// first gets a bounded rejoin chain over its owners, in order, and
    /// only that chain's failure is the typed error — the query path's
    /// last resort, which at R ≥ 2 a single loss never reaches. A rejoin
    /// refreshes from live co-owners, which can mark one down, so the plan
    /// is recomputed after each rejoin, at most once per node.
    fn plan(&mut self, wanted: impl Fn(&Inner, usize) -> bool) -> Result<Vec<Vec<u32>>, Fail> {
        for _ in 0..=self.nodes.len() {
            let (plan, orphans) = plan_reads(
                &self.owners,
                &self.live(),
                (0..self.cfg.partitions).filter(|&p| wanted(self, p)),
            );
            let Some(&p) = orphans.first() else {
                return Ok(plan);
            };
            let mut rejoined = Err((
                ErrorCode::NodeUnavailable,
                format!("partition {p} has no live owner"),
            ));
            for i in self.owners[p].clone() {
                rejoined = self.rejoin(i);
                if rejoined.is_ok() {
                    break;
                }
            }
            rejoined?;
        }
        Err((
            ErrorCode::NodeUnavailable,
            "workers kept failing while a read was planned".into(),
        ))
    }

    /// Updates currently held in the retained logs: already delivered to a
    /// live owner (awaiting the next refresh) or owed to down ones.
    fn retained(&self) -> u64 {
        self.logs.iter().map(|l| l.len() as u64).sum()
    }

    /// Retained updates in partitions with no live owner — the only ones
    /// that exist nowhere but the router, and so what it reports as its
    /// in-flight backlog.
    fn owed(&self) -> u64 {
        self.logs
            .iter()
            .zip(&self.owners)
            .filter(|(_, owners)| owners.iter().all(|&i| self.nodes[i].client.is_none()))
            .map(|(log, _)| log.len() as u64)
            .sum()
    }

    /// Route one validated ingest batch: WAL it (durable routers fsync
    /// before the ack), log every update under its partition, fan the batch
    /// out to every live owner ([`Inner::fan_out`]), ack. Any failure marks
    /// the owner down and the ack stands — the updates are retained and
    /// replay at rejoin, which the heartbeat drives in the background. A
    /// batch that would carry the retained logs past the budget first
    /// refreshes them, and is shed only if the refresh leaves no room.
    fn ingest(&mut self, updates: Vec<Update>) -> Response {
        if let Err((code, message)) = validate_batch(&self.cfg, &updates) {
            return Response::error(code, message);
        }
        let count = updates.len() as u64;
        // Backpressure, checked before the batch touches the WAL or the
        // retained logs (so the rejection is determinate and clients may
        // retry blindly). When the budget is hit, first try to drain — if
        // the owners are merely behind, a refresh truncates the logs and
        // the batch admits; if they are down or shedding, the drain is a
        // cheap no-op and the overload propagates to the client with a
        // retry hint instead of growing the router without bound.
        if self.retained() + count > self.opts.retained_budget {
            self.refresh_retained();
            let retained = self.retained();
            if retained + count > self.opts.retained_budget && retained > 0 {
                self.shed_ingest += 1;
                let hint = ROUTER_RETRY_MS
                    .saturating_mul((retained / self.opts.retained_budget).clamp(1, 10));
                return Response::overloaded(
                    format!(
                        "router retains {retained} updates awaiting worker catch-up \
                         (budget {}); workers are down or shedding",
                        self.opts.retained_budget
                    ),
                    hint,
                );
            }
        }
        if let Some(d) = &self.durable {
            // Acknowledged means durable: the batch is on stable storage
            // before any worker sees it. A failed fsync's flush may have
            // written the refused record, so a restart may replay it, as
            // on a node; the poison refuses every later batch (a retry
            // included) before the log, so it lands at most once.
            let logged = d
                .wal
                .announce()
                .append(SpaceId::default_space().as_str(), &updates)
                .and_then(|a| d.wal.wait_durable(&a));
            if let Err(e) = logged {
                return Response::error(ErrorCode::Durability, e.to_string());
            }
        }
        let mut per_node: Vec<Vec<Update>> = vec![Vec::new(); self.nodes.len()];
        for u in &updates {
            let p = partition_of(u.edge.a, self.cfg.partitions);
            self.logs[p].push(*u);
            for &i in &self.owners[p] {
                per_node[i].push(*u);
            }
        }
        // Every live owner gets its share in one fan-out. Whatever an owner
        // that fails did with it, the wholesale restore at rejoin makes it
        // exact again, so every failure marks it down.
        let routed: Vec<u64> = per_node.iter().map(|batch| batch.len() as u64).collect();
        let requests = per_node
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(i, batch)| (i, Request::IngestBatch(batch)))
            .collect();
        let (acked, _) = self.fan_out(requests, |_| false, acknowledged);
        for (i, ()) in acked {
            self.nodes[i].routed += routed[i];
            self.nodes[i].batches += 1;
        }
        self.ingested += count;
        // The router's ack watermark is its lifetime ingest count: queries
        // carrying it back are satisfiable because every routed update is
        // either on a live owner (whose pull waits for its own acked
        // watermark) or retained in a log a rejoin replays.
        Response::Ingested {
            count,
            watermark: self.ingested,
        }
    }

    /// Pull fresh slice checkpoints of `plan`'s partitions in one fan-out
    /// ([`Inner::fan_out`]) and install them, truncating the covered logs.
    /// Every returned partition id is checked against the request — a
    /// worker shipping an unsolicited or out-of-range partition is a
    /// protocol violation, not a panic. A node whose pull fails is marked
    /// down with its logs intact; the first failure comes back typed.
    fn pull_slices(&mut self, plan: &[Vec<u32>]) -> Result<(), Fail> {
        let requests = plan
            .iter()
            .enumerate()
            .filter(|(_, parts)| !parts.is_empty())
            .map(|(i, parts)| (i, Request::SliceCheckpoint(parts.clone())))
            .collect();
        let (pulled, first) = self.fan_out(
            requests,
            |_| false,
            |i, _, reply| {
                let Response::Checkpoint(bytes) = reply else {
                    return Err("answered a slice checkpoint with the wrong frame kind".into());
                };
                let (_, payloads) = checkpoint::decode_slice(&bytes)
                    .map_err(|e| format!("slice checkpoint: {e}"))?;
                // `plan[i]` is built ascending, so the membership check can
                // binary-search; membership also bounds the index.
                match payloads
                    .iter()
                    .find(|(p, _)| plan[i].binary_search(p).is_err())
                {
                    Some((p, _)) => Err(format!("unsolicited partition {p} in a slice checkpoint")),
                    None => Ok(payloads),
                }
            },
        );
        for (p, bytes) in pulled.into_iter().flat_map(|(_, payloads)| payloads) {
            self.payloads[p as usize] = bytes;
            self.logs[p as usize].clear();
        }
        first.map_or(Ok(()), Err)
    }

    /// Best-effort log compaction: every partition with a non-empty log
    /// gets a fresh slice checkpoint from its designated reader, replacing
    /// the payload and truncating the log. Partitions whose owners are all
    /// down keep their logs (those updates are not yet anywhere else); a
    /// node that fails mid-refresh is marked down with its logs intact. If
    /// every log drains, a durable router compacts its WAL. With every log
    /// already empty there is nothing to pull or compact.
    fn refresh_retained(&mut self) {
        if self.logs.iter().all(|l| l.is_empty()) {
            return;
        }
        let (plan, _) = plan_reads(
            &self.owners,
            &self.live(),
            (0..self.cfg.partitions).filter(|&p| !self.logs[p].is_empty()),
        );
        let _ = self.pull_slices(&plan);
        if self.logs.iter().all(|l| l.is_empty()) {
            // Disk state stays consistent even if this fails (the old
            // checkpoint still pairs with the un-reset WAL), so a refresh
            // never turns an I/O hiccup into a lost ack.
            let _ = self.compact_durable();
        }
    }

    /// Like [`Inner::refresh_retained`], but *every* retained log must
    /// drain: used where the payload store must cover all logged updates
    /// (checkpoint, join, restore round-trips). After success, every log is
    /// empty and a durable router has compacted.
    fn refresh_all_strict(&mut self) -> Result<(), Fail> {
        let plan = self.plan(|inner, p| !inner.logs[p].is_empty())?;
        self.pull_slices(&plan)?;
        if let Some(p) = self.logs.iter().position(|l| !l.is_empty()) {
            // A worker answered the request but omitted a partition it was
            // asked for — refuse to pretend the store is complete.
            return Err((
                ErrorCode::Malformed,
                format!("partition {p}'s owner omitted it from a slice checkpoint"),
            ));
        }
        let _ = self.compact_durable();
        Ok(())
    }

    /// Durably anchor the retained state ([`Wal::compact`]): one checkpoint
    /// envelope carrying the last WAL sequence it covers and the ack
    /// watermark `ingested`, then the WAL reset. Sound only when every
    /// retained log is empty — the payload store then *is* the full
    /// retained state.
    fn compact_durable(&mut self) -> std::io::Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        debug_assert!(self.logs.iter().all(|l| l.is_empty()));
        let seq = d.wal.last_seq();
        d.wal
            .compact([(d.store.checkpoint_path(), self.envelope(seq, self.ingested))])?;
        // The envelope carries what an older data dir's router.meta held,
        // which is never read beside one: a failed removal is moot.
        let _ = std::fs::remove_file(d.store.path().with_file_name(META_FILE));
        Ok(())
    }

    /// Answer `query` from the designated readers: plan the read
    /// ([`Inner::plan`]), push the query down ([`Inner::scoped_reads`]) and
    /// return the checked answers for the caller to merge. A read that
    /// fails on a node marks it down and re-plans, moving that node's
    /// partitions to their next live owner (or to a rejoin), at most once
    /// per node; one a live node refused ([`keeps_node_live`]) fails as it
    /// is.
    fn read<T>(
        &mut self,
        query: ScopedQuery,
        mode: &ReadMode,
        check: impl Fn(&EngineConfig, &[u32], Response) -> Result<T, String>,
    ) -> Result<Vec<T>, Fail> {
        self.check_watermark(mode)?;
        let mut last: Option<Fail> = None;
        for _ in 0..=self.nodes.len() {
            let plan = match query {
                // Only v's partition can hold v.
                ScopedQuery::Certify(v) => {
                    self.plan(move |inner, p| p == partition_of(v, inner.cfg.partitions))?
                }
                ScopedQuery::Certified | ScopedQuery::Top(_) => self.plan(|_, _| true)?,
            };
            match self.scoped_reads(query, mode, &plan, &check) {
                Ok(answers) => return Ok(answers),
                Err(fail) if keeps_node_live(fail.0) => return Err(fail),
                Err(fail) => last = Some(fail),
            }
        }
        Err(last.expect("the loop ran at least once"))
    }

    /// Send every node `plan` names one scoped read of its partitions in
    /// one fan-out ([`Inner::fan_out`]) and check each answer with
    /// `check`: the nodes wait for their refreshers concurrently. A node
    /// whose read fails is marked down, unless it refused the read in step
    /// ([`keeps_node_live`]). The first failure comes back typed.
    fn scoped_reads<T>(
        &mut self,
        query: ScopedQuery,
        mode: &ReadMode,
        plan: &[Vec<u32>],
        check: &impl Fn(&EngineConfig, &[u32], Response) -> Result<T, String>,
    ) -> Result<Vec<T>, Fail> {
        let requests = plan
            .iter()
            .enumerate()
            .filter(|(_, parts)| !parts.is_empty())
            .map(|(i, parts)| {
                let mode = match mode {
                    ReadMode::Stale => ReadMode::Stale,
                    ReadMode::AtLeast(_) => ReadMode::AtLeast(self.nodes[i].acked),
                };
                let parts = parts.clone();
                (i, Request::ScopedRead { query, mode, parts })
            })
            .collect();
        let cfg = self.cfg;
        let (answers, first) = self.fan_out(requests, keeps_node_live, |i, _, answer| {
            check(&cfg, &plan[i], answer)
        });
        first.map_or(Ok(answers.into_iter().map(|(_, a)| a).collect()), Err)
    }

    /// The one fan-out from router to workers, which every request but
    /// admission's hello rides. Each live node's requests go out in order,
    /// one per round: write every node's next frame, then read each reply
    /// in the same order, one read per successful write, so connections
    /// stay in step and the nodes serve concurrently. `reply` checks each
    /// reply against its request (a refusal is typed `malformed`, naming
    /// the worker). A node's first failure marks it down, unless
    /// `keep_live` says its typed refusal is load, and ends its requests,
    /// as a down node gets none. Only this marks a node down or moves its
    /// acked watermark. Returns the checked replies with their nodes, and
    /// the first failure.
    fn fan_out<T>(
        &mut self,
        requests: Vec<(usize, Request)>,
        keep_live: fn(ErrorCode) -> bool,
        reply: impl Fn(usize, &Request, Response) -> Result<T, String>,
    ) -> (Vec<(usize, T)>, Option<Fail>) {
        let mut queues: Vec<VecDeque<Request>> =
            self.nodes.iter().map(|_| VecDeque::new()).collect();
        for (i, request) in requests {
            queues[i].push_back(request);
        }
        let mut first: Option<Fail> = None;
        let mut replies = Vec::new();
        loop {
            let mut written = Vec::new();
            for (i, queue) in queues.iter_mut().enumerate() {
                let node = &mut self.nodes[i];
                let (Some(client), Some(request)) = (node.client.as_mut(), queue.pop_front())
                else {
                    continue;
                };
                let sent = client.send(&request).map_err(|e| node_fail(&node.addr, &e));
                written.push((i, request, sent));
            }
            if written.is_empty() {
                return (replies, first);
            }
            for (i, request, sent) in written {
                let node = &mut self.nodes[i];
                let checked = sent.and_then(|()| {
                    let client = node.client.as_mut().expect("a written node is live");
                    let answer = client.recv().map_err(|e| node_fail(&node.addr, &e))?;
                    node.acked = client.watermark();
                    reply(i, &request, answer)
                        .map_err(|m| (ErrorCode::Malformed, format!("worker {}: {m}", node.addr)))
                });
                match checked {
                    Ok(answer) => replies.push((i, answer)),
                    Err(fail) => {
                        if !keep_live(fail.0) {
                            node.client = None;
                        }
                        queues[i].clear();
                        first.get_or_insert(fail);
                    }
                }
            }
        }
    }

    /// A full cluster checkpoint: drain every log into fresh payloads, then
    /// assemble the dense container — byte-identical to what one node
    /// holding the whole stream would produce, wrapped for the default
    /// space like a single server's answer.
    fn checkpoint(&mut self) -> Result<Vec<u8>, Fail> {
        self.refresh_all_strict()?;
        Ok(self.envelope(0, 0))
    }

    /// The payload store as a default-space checkpoint envelope stamped
    /// with `wal_seq` and `acked` — what a checkpoint answers (both 0, as a
    /// memory-only node's) and compaction persists.
    fn envelope(&self, wal_seq: u64, acked: u64) -> Vec<u8> {
        let listed: Vec<(u32, Vec<u8>)> = self
            .payloads
            .iter()
            .enumerate()
            .map(|(p, b)| (p as u32, b.clone()))
            .collect();
        let inner = checkpoint::encode(&self.cfg, &listed);
        checkpoint::wrap_acked(SpaceId::default_space().as_str(), wal_seq, acked, &inner)
    }

    /// Install a full checkpoint cluster-wide. Every payload first passes
    /// the engine's own restore validation ([`Engine::validate_payloads`]),
    /// so a checkpoint a worker would refuse is refused here, typed, with
    /// nothing committed. The payload store and the emptied logs then
    /// commit once a durable router has persisted them, and every live node
    /// is reseeded ([`Inner::reseed`]); a node that is down or misses it
    /// recovers the restored state through the ordinary rejoin path — so
    /// the restore is never torn.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), Fail> {
        let dense = decode_store(&self.cfg, bytes).map_err(|m| (ErrorCode::Checkpoint, m))?;
        let listed = dense.iter().enumerate().map(|(p, b)| (p as u32, &b[..]));
        Engine::validate_payloads(&self.cfg, listed)
            .map_err(|e| (ErrorCode::Checkpoint, e.to_string()))?;
        // An acked restore must survive a router crash, same as acked
        // ingest: persist before anything commits or reaches a worker.
        let payloads = std::mem::replace(&mut self.payloads, dense);
        let logs = std::mem::replace(&mut self.logs, vec![Vec::new(); self.cfg.partitions]);
        if let Err(e) = self.compact_durable() {
            // Nothing commits. A failure past the rename may have left the
            // restored envelope on disk, so no later batch may be acked on
            // top of either one: poison durability, as a failed fsync does.
            self.payloads = payloads;
            self.logs = logs;
            if let Some(d) = &self.durable {
                d.wal.poison();
            }
            return Err((
                ErrorCode::Durability,
                format!("persisting restored checkpoint: {e}"),
            ));
        }
        let _ = self.reseed(0..self.nodes.len());
        Ok(())
    }

    /// Admit a new worker and rebalance: the ownership map recomputes over
    /// `N + 1` nodes, and every live node is reseeded with its (possibly
    /// shrunk) slice as container bytes ([`Inner::reseed`]); a down one gets
    /// its new slice at rejoin.
    fn join(&mut self, addr: &str) -> Result<(), Fail> {
        if self.nodes.iter().any(|n| n.addr == addr) {
            return Err((
                ErrorCode::Malformed,
                format!("worker {addr} is already a cluster member"),
            ));
        }
        // Drain logs so the new ownership map can be seeded from the
        // payload store alone.
        self.refresh_all_strict()?;
        let (client, _) = admit(
            addr,
            &self.cfg,
            &client_opts_for(&self.opts, self.nodes.len()),
        )
        .map_err(|m| (ErrorCode::NodeUnavailable, m))?;
        self.nodes.push(Node::fresh(addr.to_string(), Some(client)));
        self.owners = owner_map(self.cfg.partitions, self.nodes.len(), self.opts.replicas);
        let _ = self.reseed(0..self.nodes.len());
        Ok(())
    }

    /// Gate a front-end query's [`ReadMode`] against the router's acked
    /// watermark. A fresh read is always fully fresh (every scoped read
    /// waits for the node's own acked watermark, and partitions with no
    /// live owner rejoin-and-replay), so any watermark the router has
    /// acked is covered by construction — only a watermark it never issued
    /// is refused, typed, instead of answered early.
    fn check_watermark(&self, mode: &ReadMode) -> Result<(), Fail> {
        match mode {
            ReadMode::Stale => Ok(()),
            ReadMode::AtLeast(w) if *w <= self.ingested => Ok(()),
            ReadMode::AtLeast(w) => Err((
                ErrorCode::WatermarkTimeout,
                format!(
                    "router has acked watermark {}, request wants {w}",
                    self.ingested
                ),
            )),
        }
    }

    /// Cluster statistics: the router's own ingest counter, one shard row
    /// per node (owned partitions, updates routed, measured worker state),
    /// and `shed_conns`, its front end's accept-time sheds. Each node's
    /// `stats` at its acked watermark comes in one fan-out; down nodes, and
    /// one that fails it (it is marked down), report zero measured bytes
    /// instead of failing the call — statistics must not stall behind a
    /// recovery.
    fn stats(&mut self, shed_conns: u64) -> Result<WireStats, Fail> {
        let requests = (0..self.nodes.len())
            .map(|i| (i, Request::Stats(ReadMode::AtLeast(self.nodes[i].acked))))
            .collect();
        let (measured, _) = self.fan_out(
            requests,
            |_| false,
            |_, _, reply| match reply {
                Response::Stats(stats) => Ok(stats.space_bytes),
                _ => Err("answered a stats request with the wrong frame kind".into()),
            },
        );
        let mut space_bytes = vec![0; self.nodes.len()];
        for (i, bytes) in measured {
            space_bytes[i] = bytes;
        }
        let shards = (0..self.nodes.len())
            .map(|i| WireShardStats {
                partitions: self.owned(i).len() as u64,
                processed: self.nodes[i].routed,
                batches: self.nodes[i].batches,
                space_bytes: space_bytes[i],
            })
            .collect();
        // The router's overload picture: its own sheds, and what down
        // workers still owe standing in for in-flight work. Retained
        // updates a live owner already holds are not a backlog.
        let owed = self.owed();
        Ok(WireStats {
            ingested: self.ingested,
            uptime_micros: self.started.elapsed().as_micros() as u64,
            witness_target: self.cfg.witness_target() as u64,
            space_bytes: space_bytes.iter().sum(),
            wal_bytes: self.durable.as_ref().map_or(0, |d| d.wal.bytes()),
            quota_bytes: 0,
            overload: WireOverload {
                shed_ingest: self.shed_ingest,
                shed_reads: 0,
                shed_conns,
                inflight_updates: owed,
                inflight_bytes: owed * std::mem::size_of::<Update>() as u64,
                lag_updates: owed,
                lag_ms: 0,
            },
            shards,
        })
    }

    /// One heartbeat tick: ping the live nodes in one fan-out (a miss marks
    /// them down), then try to rejoin the nodes that were down before the
    /// pings — the background repair that restores full replication after
    /// a loss.
    fn heartbeat(&mut self) {
        let was_live = self.live();
        let pings = (0..self.nodes.len()).map(|i| (i, Request::Ping)).collect();
        let _ = self.fan_out(pings, |_| false, acknowledged);
        for i in (0..was_live.len()).filter(|&i| !was_live[i]) {
            let _ = self.rejoin(i);
        }
    }
}

struct RouterShared {
    inner: Mutex<Inner>,
    /// The connection core's shared half: the shutdown flag the
    /// heartbeat polls.
    front: Arc<FrontEnd>,
}

/// A running cluster coordinator. Dropping it (or [`Router::join`] after a
/// client `shutdown`) tears down the front end and, with
/// [`RouterOptions::forward_shutdown`] on a client-initiated shutdown, the
/// workers too.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind the front end at `addr`, recover durable state if
    /// [`RouterOptions::data_dir`] holds any (checkpoint restore + WAL tail
    /// replay, then a wholesale slice push to every reachable worker),
    /// otherwise admit every worker fresh (connect, verify identity,
    /// require an empty engine) and seed the per-partition payload store
    /// from a scratch local engine. Workers keep no ownership state: every
    /// scoped read names the partitions it wants. Refuses (`InvalidInput`)
    /// a data dir written under another model config or seed, as a node.
    pub fn start(
        cfg: EngineConfig,
        addr: &str,
        workers: &[String],
        opts: RouterOptions,
    ) -> std::io::Result<Router> {
        if workers.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a cluster needs at least one worker",
            ));
        }
        if opts.replicas == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a partition needs at least one replica",
            ));
        }
        if opts.retained_budget == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "the retained-log budget must be at least 1 update: it is the only bound on \
                 router memory and the WAL",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let invalid = |m: String| std::io::Error::new(ErrorKind::InvalidInput, m);
        let partitions = cfg.partitions;

        // Durable recovery first: what is on disk decides whether workers
        // are admitted fresh (must be empty) or re-seeded wholesale.
        let mut durable: Option<Durable> = None;
        let mut recovered_payloads: Option<Vec<Vec<u8>>> = None;
        let mut logs: Vec<Vec<Update>> = vec![Vec::new(); partitions];
        let mut ingested = 0u64;
        if let Some(dir) = &opts.data_dir {
            std::fs::create_dir_all(dir)?;
            // A node's data dir holding the default space alone, guarded
            // against other model flags before anything in it is touched.
            let default = SpaceId::default_space();
            let store = SpaceDir::new(dir, &default);
            let adopted = store.check_flags(&cfg)?.is_some();
            let mut rec = wal::recover(dir, &[default], opts.disk_faults.clone())?;
            let found = rec.spaces.pop().expect("one listed space");
            recovered_payloads = found
                .checkpoint
                .as_deref()
                .map(|bytes| decode_store(&cfg, bytes))
                .transpose()
                .map_err(|m| invalid(format!("router checkpoint: {m}")))?;
            if !adopted {
                // An older data dir, its checkpoint header just checked.
                store.init(&cfg.to_space(0), cfg.seed)?;
            }
            let tail: u64 = found.records.iter().map(|(_, u)| u.len() as u64).sum();
            ingested = match found.acked {
                // Every update the checkpoint covers, and every one past it.
                Some(acked) => acked + tail,
                None => legacy_ingested(dir, found.wal_seq, tail)?,
            };
            for u in found.records.into_iter().flat_map(|(_, updates)| updates) {
                logs[partition_of(u.edge.a, partitions)].push(u);
            }
            durable = Some(Durable {
                wal: rec.wal,
                store,
            });
        }

        let recovered = recovered_payloads.is_some() || logs.iter().any(|l| !l.is_empty());
        // Baseline payloads: empty partition state is a pure function of
        // `(seed, p)`, so build it from a scratch local engine instead of
        // trusting any worker's bytes.
        let payloads = match recovered_payloads {
            Some(p) => p,
            None => decode_store(&cfg, &Engine::start(cfg).checkpoint())
                .map_err(|m| invalid(format!("baseline checkpoint: {m}")))?,
        };

        let mut nodes = Vec::with_capacity(workers.len());
        for (i, w) in workers.iter().enumerate() {
            let client_opts = client_opts_for(&opts, i);
            match admit(w, &cfg, &client_opts) {
                Ok((client, info)) => {
                    if !recovered && info.ingested != 0 {
                        return Err(invalid(format!(
                            "worker {w} already holds {} updates; start cluster workers empty",
                            info.ingested
                        )));
                    }
                    nodes.push(Node::fresh(w.clone(), Some(client)));
                }
                // A fresh cluster needs every worker; a recovering one
                // starts with the hole down and repairs it in background.
                Err(_) if recovered => nodes.push(Node::fresh(w.clone(), None)),
                Err(m) => return Err(invalid(m)),
            }
        }
        let owners = owner_map(partitions, nodes.len(), opts.replicas);
        let (heartbeat_period, max_conns) = (opts.heartbeat, opts.max_conns);
        let mut inner = Inner {
            cfg,
            opts,
            nodes,
            owners,
            payloads,
            logs,
            ingested,
            durable,
            started: Instant::now(),
            shed_ingest: 0,
        };
        if recovered {
            // Whatever the workers held when the old router died, the
            // wholesale restore makes them exact; unreachable ones stay
            // down and repair through rejoin.
            let _ = inner.reseed(0..inner.nodes.len());
        }
        let shared = Arc::new(RouterShared {
            inner: Mutex::new(inner),
            front: Arc::new(FrontEnd::new(max_conns)),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            serve::spawn(
                listener,
                Arc::clone(&shared.front),
                move |space, request| handle_request(space, request, &shared),
            )
        };
        let heartbeat = heartbeat_period.map(|period| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fews-cluster-heartbeat".into())
                .spawn(move || run_heartbeat(shared, period))
                .expect("spawn heartbeat")
        });
        Ok(Router {
            addr,
            shared,
            acceptor: Some(acceptor),
            heartbeat,
        })
    }

    /// The address the front end actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown from the owning side. Does *not* forward to the
    /// workers — only a client-initiated `shutdown` does that (and only
    /// with [`RouterOptions::forward_shutdown`]).
    pub fn shutdown(&self) {
        self.shared.front.shutdown(self.addr);
    }

    /// Block until the front end has wound down. Returns the number of
    /// updates the cluster accepted over the router's lifetime.
    pub fn join(mut self) -> u64 {
        self.join_inner()
    }

    fn join_inner(&mut self) -> u64 {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        // `Drop` runs this too, possibly while unwinding: a thread that
        // panicked under the lock must not turn the drop into an abort.
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ingested
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown();
            self.join_inner();
        }
    }
}

fn run_heartbeat(shared: Arc<RouterShared>, period: Duration) {
    let tick = Duration::from_millis(50);
    let mut elapsed = Duration::ZERO;
    loop {
        if shared.front.is_shutting_down() {
            return;
        }
        std::thread::sleep(tick);
        elapsed += tick;
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        if shared.front.is_shutting_down() {
            return;
        }
        shared.inner.lock().expect("router state").heartbeat();
    }
}

fn fail_response((code, message): Fail) -> Response {
    // A worker's Overloaded passing through the router keeps its meaning —
    // and gets a hint, so the router's clients back off the same way the
    // router's own clients would against the worker.
    if code == ErrorCode::Overloaded {
        return Response::overloaded(message, ROUTER_RETRY_MS);
    }
    Response::error(code, message)
}

/// A merged answer, bounded to one frame ([`Response::bounded`]), or the
/// read's typed failure.
fn answer(merged: Result<Response, Fail>) -> Response {
    match merged {
        Ok(response) => response.bounded(),
        Err(fail) => fail_response(fail),
    }
}

fn handle_request(space: SpaceId, request: Request, shared: &RouterShared) -> Response {
    // Requests that need no space routing, or that a router categorically
    // does not serve, are answered before the space check.
    match &request {
        Request::Ping => return Response::Pong,
        Request::Shutdown => {
            let mut inner = shared.inner.lock().expect("router state");
            if inner.opts.forward_shutdown {
                let requests = (0..inner.nodes.len())
                    .map(|i| (i, Request::Shutdown))
                    .collect();
                let _ = inner.fan_out(requests, |_| false, acknowledged);
                for node in &mut inner.nodes {
                    node.client = None;
                }
            }
            return Response::Bye;
        }
        Request::CreateSpace(_) | Request::DropSpace | Request::ListSpaces => {
            return Response::error(
                ErrorCode::Malformed,
                "a cluster router does not manage spaces; address its workers directly".into(),
            );
        }
        Request::ViewPull { .. }
        | Request::ScopedRead { .. }
        | Request::SliceCheckpoint(_)
        | Request::SliceRestore(_) => {
            return Response::error(
                ErrorCode::Malformed,
                "worker-facing request sent to a cluster router".into(),
            );
        }
        _ => {}
    }
    if !space.is_default() {
        return Response::error(
            ErrorCode::UnknownSpace,
            format!("a cluster router serves the default space only (got '{space}')"),
        );
    }
    let mut inner = shared.inner.lock().expect("router state");
    match request {
        Request::IngestBatch(updates) => inner.ingest(updates),
        Request::Certified(mode) => answer(
            inner
                .read(ScopedQuery::Certified, &mode, check_certified)
                .map(|answers| Response::Answer(merge_certified(&inner.cfg, answers))),
        ),
        Request::Certify(v, mode) => answer(
            inner
                .read(ScopedQuery::Certify(v), &mode, |cfg, named, answer| {
                    check_certify(cfg, named, v, answer)
                })
                .map(|answers| Response::Answer(answers.into_iter().flatten().next())),
        ),
        Request::Top(k, mode) => {
            let k = k.min(u32::MAX as u64) as usize;
            answer(
                inner
                    .read(ScopedQuery::Top(k as u64), &mode, |cfg, named, answer| {
                        check_top(cfg, named, k, answer)
                    })
                    .map(|answers| Response::Top(merge_top(answers, k))),
            )
        }
        Request::Stats(mode) => match inner
            .check_watermark(&mode)
            .and_then(|()| inner.stats(shared.front.shed_conns()))
        {
            Ok(stats) => Response::Stats(stats),
            Err(fail) => fail_response(fail),
        },
        Request::Checkpoint => match inner.checkpoint() {
            Ok(bytes) => Response::Checkpoint(bytes).bounded(),
            Err(fail) => fail_response(fail),
        },
        Request::Restore(bytes) => match inner.restore(&bytes) {
            Ok(()) => Response::Restored,
            Err(fail) => fail_response(fail),
        },
        Request::JoinWorker(addr) => match inner.join(&addr) {
            Ok(()) => Response::SpaceOk,
            Err(fail) => fail_response(fail),
        },
        Request::NodeHello => Response::NodeInfo(WireNodeInfo::new(
            &Header::for_config(&inner.cfg),
            inner.ingested,
        )),
        // Answered before the space check; unreachable here.
        Request::CreateSpace(_)
        | Request::DropSpace
        | Request::ListSpaces
        | Request::Shutdown
        | Request::Ping
        | Request::ViewPull { .. }
        | Request::ScopedRead { .. }
        | Request::SliceCheckpoint(_)
        | Request::SliceRestore(_) => Response::error(
            ErrorCode::Malformed,
            "request handled before space routing".into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_common::rng::rng_for;
    use fews_core::insertion_deletion::IdConfig;
    use fews_core::insertion_only::FewwConfig;
    use fews_core::wire::{MemoryState, PackedState, RunState};
    use fews_engine::checkpoint::unwrap_envelope;
    use fews_engine::diskfault::{CrashPoint, DiskFaultProfile};
    use fews_engine::{GlobalView, Scope};
    use fews_net::{OverloadLimits, Server, ServerOptions};
    use fews_stream::Edge;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn test_cfg() -> EngineConfig {
        EngineConfig::insert_only(FewwConfig::new(64, 8, 2), 2021)
            .with_shards(2)
            .with_partitions(8)
    }

    /// A deterministic insertion stream touching every partition.
    fn stream(len: u32) -> Vec<Update> {
        (0..len)
            .map(|i| {
                let a = (i * 7 + i / 5) % 64;
                let b = u64::from(i * 13 % 29);
                Update::insert(Edge::new(a, b))
            })
            .collect()
    }

    /// Retained-log budget of the healthy-path tests, derived from their
    /// 97-update chunks: two chunks (194) fit and a third (291) does not,
    /// so a refresh runs before the 3rd, 5th, 7th, … chunk, and every
    /// healthy stream here (at least 7 chunks) crosses it at least twice.
    const HEALTHY_BUDGET: u64 = 250;

    fn quick_opts() -> RouterOptions {
        RouterOptions {
            // Generous timeout: the full test suite shares one core, and
            // dead-worker detection goes through connection-refused (which
            // is immediate), so nothing here waits it out.
            client: ClientOptions::bounded(Duration::from_secs(5), 0),
            heartbeat: None,
            forward_shutdown: false,
            replicas: 1,
            data_dir: None,
            retained_budget: HEALTHY_BUDGET,
            disk_faults: None,
            max_conns: 0,
        }
    }

    fn replicated_opts(replicas: usize) -> RouterOptions {
        RouterOptions {
            replicas,
            ..quick_opts()
        }
    }

    /// Options for the outage and fault tests, which keep the budget they
    /// always had: one no stream here (≤ 3,000 updates) can reach, so
    /// nothing owed to a dead worker sheds (a dead sole owner is owed about
    /// half of a 2-node stream, past HEALTHY_BUDGET). Their refreshes come
    /// from rejoins and checkpoints.
    fn outage_opts(replicas: usize) -> RouterOptions {
        RouterOptions {
            retained_budget: 1 << 20,
            ..replicated_opts(replicas)
        }
    }

    fn start_worker_at(cfg: EngineConfig, addr: SocketAddr) -> Server {
        // The previous tenant's sockets may linger briefly; retry the bind.
        for _ in 0..100 {
            match Server::start(cfg, &addr.to_string()) {
                Ok(server) => return server,
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        panic!("could not rebind {addr}");
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fews-router-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reference_view(cfg: EngineConfig, updates: &[Update]) -> Arc<GlobalView> {
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.to_vec());
        let (view, _) = reference.refresh();
        view
    }

    /// A thread that panics while holding the router's state lock poisons
    /// it; dropping the router afterwards must still wind it down rather
    /// than panic (during unwinding that would abort the process).
    #[test]
    fn dropping_a_router_survives_a_poisoned_state_lock() {
        let cfg = test_cfg();
        let worker = Server::start(cfg, "127.0.0.1:0").expect("worker");
        let workers = [worker.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let shared = Arc::clone(&router.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.inner.lock().expect("router state");
            panic!("poisoning the router state lock on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(router.shared.inner.is_poisoned());
        drop(router);
    }

    #[test]
    fn owner_map_balances_and_clamps() {
        assert_eq!(owner_map(4, 2, 1), vec![vec![0], vec![1], vec![0], vec![1]]);
        assert_eq!(
            owner_map(4, 3, 2),
            vec![vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 1]]
        );
        // R clamps to the node count: every node owns everything.
        assert_eq!(owner_map(2, 2, 5), vec![vec![0, 1], vec![1, 0]]);
    }

    #[test]
    fn plan_names_each_partition_to_its_first_live_owner() {
        const P: usize = 8;
        for r in 1..=3 {
            for n in 2..=4 {
                let owners = owner_map(P, n, r);
                for down in std::iter::once(None).chain((0..n).map(Some)) {
                    let live: Vec<bool> = (0..n).map(|i| Some(i) != down).collect();
                    let (plan, orphans) = plan_reads(&owners, &live, 0..P);
                    let case = format!("R={r} N={n} down={down:?}");
                    let mut named = [0u32; P];
                    for (i, parts) in plan.iter().enumerate() {
                        assert!(
                            parts.windows(2).all(|w| w[0] < w[1]),
                            "{case}: not ascending"
                        );
                        for &p in parts {
                            named[p as usize] += 1;
                            let first_live = owners[p as usize].iter().copied().find(|&j| live[j]);
                            assert_eq!(first_live, Some(i), "{case}: partition {p}");
                        }
                    }
                    for (p, &times) in named.iter().enumerate() {
                        let served = owners[p].iter().any(|&j| live[j]);
                        // Disjoint and covering: named exactly once when a
                        // live owner exists, otherwise reported as orphaned.
                        assert_eq!(times, u32::from(served), "{case}: partition {p}");
                        assert_eq!(orphans.contains(&p), !served, "{case}: partition {p}");
                    }
                    // Only R = 1 leaves a single loss without a reader.
                    assert_eq!(orphans.is_empty(), r > 1 || down.is_none(), "{case}");
                }
            }
        }
    }

    #[test]
    fn two_node_cluster_matches_single_engine() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let workers = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(3_000);
        for chunk in updates.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }

        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let (view, _) = reference.refresh();

        assert_eq!(client.certified().expect("certified"), view.certified());
        for v in [0u32, 7, 13, 63] {
            assert_eq!(client.certify(v).expect("certify"), view.certify(v));
        }
        assert_eq!(client.top(5).expect("top"), view.top(5));

        // The cluster checkpoint is byte-identical to the single engine's.
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());

        // Quiesced cluster: repeated queries answer the same.
        assert_eq!(client.certified().expect("quiesced"), view.certified());

        let stats = client.stats().expect("stats");
        assert_eq!(stats.ingested, updates.len() as u64);
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.shards.iter().map(|s| s.partitions).sum::<u64>(), 8);

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }

    #[test]
    fn router_serves_default_space_only() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker");
        let workers = vec![w1.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        client.ping().expect("ping");
        let info = client.node_hello().expect("hello");
        assert_eq!(info.partitions, 8);

        let spec = fews_common::SpaceConfig::insert_only(16, 4, 2);
        let name = SpaceId::new("tenant").expect("space id");
        match client.create_space(&name, spec) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("create-space on a router should fail, got {other:?}"),
        }
        client.set_space(name);
        match client.certified() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSpace),
            other => panic!("non-default space should be rejected, got {other:?}"),
        }

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
    }

    #[test]
    fn dead_worker_is_typed_then_rejoins_via_handoff() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let w2_addr = w2.local_addr();
        let workers = vec![w1.local_addr().to_string(), w2_addr.to_string()];
        // R=1: the dead worker's partitions have no surviving replica.
        let router = Router::start(cfg, "127.0.0.1:0", &workers, outage_opts(1)).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(2_000);
        let (first, rest) = updates.split_at(1_200);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        client.certified().expect("healthy query");

        // Kill worker 2 hard, then keep ingesting: the batch still acks
        // (retained at the router), but queries need the missing slice.
        w2.crash();
        w2.join();
        for chunk in rest.chunks(97) {
            client
                .ingest_batch(chunk)
                .expect("degraded ingest still acks");
        }
        match client.certified() {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::NodeUnavailable)
            }
            other => panic!("query with a dead owner should be typed, got {other:?}"),
        }

        // Revive the worker empty on the same address: the next query
        // rejoins it via checkpoint handoff + log replay, and the cluster
        // answers exactly like a single engine that saw everything.
        let w2 = start_worker_at(cfg, w2_addr);
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let (view, _) = reference.refresh();
        assert_eq!(client.certified().expect("recovered"), view.certified());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }

    #[test]
    fn replica_survives_worker_loss_without_pausing() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let w3 = Server::start(cfg, "127.0.0.1:0").expect("worker 3");
        let workers = vec![
            w1.local_addr().to_string(),
            w2.local_addr().to_string(),
            w3.local_addr().to_string(),
        ];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, outage_opts(2)).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(3_000);
        let (first, rest) = updates.split_at(1_500);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        client.certified().expect("healthy query");

        // Kill one worker mid-stream. With R=2 every partition still has a
        // live owner, so queries keep answering — no NodeUnavailable, no
        // recovery pause — and they answer exactly.
        w2.crash();
        w2.join();
        for (k, chunk) in rest.chunks(97).enumerate() {
            client.ingest_batch(chunk).expect("degraded ingest acks");
            if k % 4 == 0 {
                let so_far = 1_500
                    + rest
                        .chunks(97)
                        .take(k + 1)
                        .map(<[Update]>::len)
                        .sum::<usize>();
                let view = reference_view(cfg, &updates[..so_far]);
                assert_eq!(
                    client.certified().expect("no pause under replica loss"),
                    view.certified()
                );
            }
        }

        let view = reference_view(cfg, &updates);
        assert_eq!(client.certified().expect("final"), view.certified());
        for v in [0u32, 7, 13, 63] {
            assert_eq!(client.certify(v).expect("certify"), view.certify(v));
        }
        assert_eq!(client.top(5).expect("top"), view.top(5));

        // Checkpoint drains through surviving replicas only.
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w3.shutdown();
        w3.join();
    }

    /// A durable two-worker cluster: the workers, their addresses, and
    /// R = 2 options over `dir`.
    fn durable_pair(dir: &Path, budget: u64) -> ([Server; 2], Vec<String>, RouterOptions) {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let workers = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
        let opts = RouterOptions {
            data_dir: Some(dir.to_path_buf()),
            retained_budget: budget,
            ..replicated_opts(2)
        };
        ([w1, w2], workers, opts)
    }

    /// Crash both workers and bring them back empty, then restart the
    /// router from its data dir alone.
    fn restart_cluster(
        workers: [Server; 2],
        addrs: &[String],
        opts: RouterOptions,
    ) -> ([Server; 2], Router, Client) {
        let cfg = test_cfg();
        let workers = workers.map(|w| {
            let addr = w.local_addr();
            w.crash();
            w.join();
            start_worker_at(cfg, addr)
        });
        let router = Router::start(cfg, "127.0.0.1:0", addrs, opts).expect("restarted router");
        let client = Client::connect(router.local_addr()).expect("reconnect");
        (workers, router, client)
    }

    /// Hold a router's answers, checkpoint bytes and ack watermark to a
    /// single engine that saw `updates`, then stop the cluster.
    fn assert_holds_exactly(
        workers: [Server; 2],
        router: Router,
        mut client: Client,
        updates: &[Update],
    ) {
        let cfg = test_cfg();
        let view = reference_view(cfg, updates);
        assert_eq!(client.certified().expect("replayed"), view.certified());
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.to_vec());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.ingested, updates.len() as u64);

        router.shutdown();
        router.join();
        for w in workers {
            w.shutdown();
            w.join();
        }
    }

    /// Crash both workers and bring them back empty, restart the router
    /// from its data dir alone, and hold its answers, checkpoint bytes and
    /// ack watermark to a single engine that saw `updates`.
    fn assert_restart_exact(
        workers: [Server; 2],
        addrs: &[String],
        opts: RouterOptions,
        updates: &[Update],
    ) {
        let (workers, router, client) = restart_cluster(workers, addrs, opts);
        assert_holds_exactly(workers, router, client, updates);
    }

    #[test]
    fn killed_router_restarts_from_data_dir_byte_identical() {
        let cfg = test_cfg();
        // 22 chunks of 97 against HEALTHY_BUDGET: the last refresh runs
        // before chunk 21 and compacts chunks 1–20 into the checkpoint, so
        // chunks 21–22 are retained only in the WAL tail — the restart
        // exercises checkpoint restore AND WAL replay. At 1 << 20 nothing
        // ever compacts: the router dies before writing any checkpoint,
        // and the restart recovers from the WAL alone.
        for budget in [HEALTHY_BUDGET, 1 << 20] {
            let dir = scratch_dir(&format!("restart-{budget}"));
            let (workers, addrs, opts) = durable_pair(&dir, budget);
            let updates = stream(2_134);
            {
                let router =
                    Router::start(cfg, "127.0.0.1:0", &addrs, opts.clone()).expect("router");
                let mut client = Client::connect(router.local_addr()).expect("connect");
                for chunk in updates.chunks(97) {
                    client.ingest_batch(chunk).expect("ingest");
                }
                let stats = client.stats().expect("stats");
                assert_eq!(stats.ingested, updates.len() as u64);
                assert!(stats.wal_bytes > 0, "budget {budget}: no WAL tail");
                // No clean shutdown handshake: dropping the router here is
                // a crash as far as durability is concerned (nothing is
                // flushed on drop — every ack was already fsynced).
                router.shutdown();
                router.join();
            }
            // A node's data dir: the config guard's file from the start,
            // and the ack watermark inside the checkpoint envelope.
            assert!(dir.join("default").join("space.cfg").is_file());
            assert_eq!(
                dir.join("default").join("checkpoint.fck").exists(),
                budget == HEALTHY_BUDGET
            );
            assert!(!dir.join(META_FILE).exists(), "budget {budget}");

            // The workers die too; they come back empty. Everything the new
            // router pushes them comes from disk alone.
            assert_restart_exact(workers, &addrs, opts, &updates);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Every file under `dir`, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(d) = todo.pop() {
            for entry in std::fs::read_dir(&d).expect("read dir") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    todo.push(path);
                } else {
                    files.push((path.clone(), std::fs::read(&path).expect("read file")));
                }
            }
        }
        files.sort();
        files
    }

    /// A router restarted over its data dir under other model flags is
    /// refused `InvalidInput`, naming the config, before it opens or
    /// writes anything there — as a node is. Before the first compaction
    /// the data dir holds a WAL alone, and after one a checkpoint too.
    #[test]
    fn restart_under_other_flags_is_refused_and_leaves_the_data_dir_unchanged() {
        let cfg = test_cfg();
        let dir = scratch_dir("flags");
        let (workers, addrs, opts) = durable_pair(&dir, 1 << 20);
        let updates = stream(400);
        let other_seed = EngineConfig { seed: 7, ..cfg };
        let other_n = EngineConfig::insert_only(FewwConfig::new(128, 8, 2), cfg.seed)
            .with_shards(2)
            .with_partitions(8);
        for checkpointed in [false, true] {
            let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts.clone()).expect("router");
            let mut client = Client::connect(router.local_addr()).expect("connect");
            if checkpointed {
                client.checkpoint().expect("a compaction");
            } else {
                for chunk in updates.chunks(97) {
                    client.ingest_batch(chunk).expect("ingest");
                }
            }
            router.shutdown();
            router.join();
            assert_eq!(
                dir.join("default").join("checkpoint.fck").exists(),
                checkpointed
            );
            let before = dir_bytes(&dir);
            for other in [other_seed, other_n] {
                match Router::start(other, "127.0.0.1:0", &addrs, opts.clone()) {
                    Err(e) => {
                        assert_eq!(e.kind(), ErrorKind::InvalidInput);
                        assert!(e.to_string().contains("different config"), "got {e}");
                    }
                    Ok(_) => panic!("a router started over a data dir written under other flags"),
                }
                assert!(
                    dir_bytes(&dir) == before,
                    "a refused start changed the data dir"
                );
            }
        }
        // Under its own flags it still restarts exact.
        assert_restart_exact(workers, &addrs, opts, &updates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One injected fsync failure refuses a batch typed `durability`, and
    /// the client retries it. The failed fsync's flush already wrote the
    /// refused record, so an accepted retry would land the batch twice:
    /// the retry must be refused too. After a crash-restart the router
    /// holds a batch-prefix of the distinct batches, every acked one
    /// exactly once; the refused one may replay, as on a node.
    #[test]
    fn retried_batch_after_a_failed_fsync_never_lands_twice() {
        let cfg = test_cfg();
        let dir = scratch_dir("fsync-retry");
        let (workers, addrs, opts) = durable_pair(&dir, 1 << 20);
        // Seed 5 fails the 4th fsync, and only it.
        let plan = Arc::new(DiskFaultPlan::new(
            5,
            DiskFaultProfile {
                sync_fail_permille: 300,
                short_write_permille: 0,
                enospc_permille: 0,
            },
            1,
        ));
        let faulty = RouterOptions {
            disk_faults: Some(Arc::clone(&plan)),
            ..opts.clone()
        };
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, faulty).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let updates = stream(4 * 97);
        let batches: Vec<&[Update]> = updates.chunks(97).collect();
        let mut acked = 0;
        for batch in &batches[..3] {
            client.ingest_batch(batch).expect("healthy fsyncs ack");
            acked += batch.len();
        }
        match client.ingest_batch(batches[3]) {
            Err(ClientError::Server {
                code: ErrorCode::Durability,
                ..
            }) => {}
            other => panic!("the failed fsync should refuse the batch typed, got {other:?}"),
        }
        assert_eq!(plan.counts().sync_failed, 1);
        let retry = client.ingest_batch(batches[3]);
        if retry.is_ok() {
            acked += batches[3].len();
        }
        router.shutdown();
        router.join();

        let (workers, router, mut client) = restart_cluster(workers, &addrs, opts);
        let held = client.stats().expect("stats").ingested as usize;
        let prefix = (0..=batches.len())
            .find(|&k| batches[..k].iter().map(|b| b.len()).sum::<usize>() == held)
            .unwrap_or_else(|| {
                panic!(
                    "the restarted router holds {held} updates: no batch-prefix of the {} \
                     distinct updates sent ({acked} acked)",
                    updates.len()
                )
            });
        assert!(
            held >= acked,
            "the restart lost acked updates: {held} < {acked}"
        );
        assert_holds_exactly(workers, router, client, &batches[..prefix].concat());
        match retry {
            Err(ClientError::Server {
                code: ErrorCode::Durability,
                message,
                ..
            }) => assert!(message.contains("durability disabled"), "got {message:?}"),
            other => panic!("a poisoned router accepted the retry: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The first compaction killed after its checkpoint rename leaves the
    /// checkpoint beside the WAL it never reset. Every record in that log
    /// is acked and counts once: those the checkpoint covers through its
    /// ack watermark, any past it from the log.
    #[test]
    fn crash_inside_the_first_compaction_keeps_the_ack_watermark() {
        let cfg = test_cfg();
        let dir = scratch_dir("first-compaction");
        let (workers, addrs, opts) = durable_pair(&dir, 1 << 20);
        let plan = Arc::new(DiskFaultPlan::crash_only(3));
        plan.arm_crash(CrashPoint::DirSync);
        let faulty = RouterOptions {
            disk_faults: Some(Arc::clone(&plan)),
            ..opts.clone()
        };
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, faulty).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let updates = stream(400);
        for chunk in updates.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        client
            .checkpoint()
            .expect("the compaction's failure is not the checkpoint's");
        assert_eq!(plan.counts().crashes, 1);
        assert!(dir.join("default").join("checkpoint.fck").exists());
        router.shutdown();
        router.join();

        let (workers, router, client) = restart_cluster(workers, &addrs, opts);
        assert_holds_exactly(workers, router, client, &updates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A restore whose compaction fails (here killed before its rename) is
    /// refused `durability` and commits nothing: the router keeps the state
    /// it had, and poisons durability, so no later batch is acked on top of
    /// either envelope. The next checkpoint downloads and persists the kept
    /// state, and a restart recovers it.
    #[test]
    fn restore_the_router_cannot_persist_commits_nothing() {
        let cfg = test_cfg();
        let dir = scratch_dir("restore-persist");
        let (workers, addrs, opts) = durable_pair(&dir, 1 << 20);
        let plan = Arc::new(DiskFaultPlan::crash_only(3));
        let faulty = RouterOptions {
            disk_faults: Some(Arc::clone(&plan)),
            ..opts.clone()
        };
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, faulty).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let updates = stream(800);
        let (first, rest) = updates.split_at(400);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        let older = client.checkpoint().expect("checkpoint");
        for chunk in rest.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        plan.arm_crash(CrashPoint::Rename);
        match client.restore(&older) {
            Err(ClientError::Server {
                code: ErrorCode::Durability,
                ..
            }) => {}
            other => panic!("an unpersisted restore should be refused typed, got {other:?}"),
        }
        assert_eq!(plan.counts().crashes, 1);
        match client.ingest_batch(&updates[..97]) {
            Err(ClientError::Server {
                code: ErrorCode::Durability,
                ..
            }) => {}
            other => panic!("a batch was acked after a failed restore compaction: {other:?}"),
        }
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint(), "the refused restore");
        router.shutdown();
        router.join();

        assert_restart_exact(workers, &addrs, opts, &updates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrite a data dir this router wrote into the layout routers wrote
    /// before the v3 envelope: the checkpoint as a v2 envelope (no ack
    /// watermark), the count in a `router.meta` of the older format (with
    /// its `assign_epoch` line) covering WAL records up to `meta_seq`, and
    /// no `space.cfg`.
    fn to_parent_layout(dir: &Path, ingested: u64, meta_seq: u64) {
        let store = SpaceDir::new(dir, &SpaceId::default_space());
        let bytes = store
            .read_checkpoint()
            .expect("read")
            .expect("a checkpoint");
        let env = unwrap_envelope(&bytes).expect("envelope");
        let mut v2 = b"FEWWCKP2".to_vec();
        fews_core::wire::put_uvarint(&mut v2, env.space.len() as u64);
        v2.extend_from_slice(env.space.as_bytes());
        fews_core::wire::put_uvarint(&mut v2, env.wal_seq);
        v2.extend_from_slice(env.inner);
        assert_eq!(unwrap_envelope(&v2).expect("v2").acked, None);
        store.write_checkpoint(&v2).expect("write v2");
        std::fs::remove_file(store.path().join("space.cfg")).expect("no space.cfg");
        let meta = format!(
            "fews-router-meta v1\nassign_epoch 2\ningested {ingested}\nwal_seq {meta_seq}\n"
        );
        std::fs::write(dir.join(META_FILE), meta).expect("router.meta");
    }

    /// A data dir in the layout of routers before the v3 envelope — a v2
    /// checkpoint, a `router.meta` of the older format and a WAL tail —
    /// restarts exact, adopts the current flags, and loses `router.meta` to
    /// its first compaction. A `router.meta` that exists there but does not
    /// parse refuses the start, naming the file, instead of recounting the
    /// ack watermark from the WAL tail alone (which would bring it back
    /// lower than one already acked).
    #[test]
    fn unreadable_meta_refuses_the_start_and_an_older_meta_still_reads() {
        let cfg = test_cfg();
        let dir = scratch_dir("bad-meta");
        let (workers, addrs, opts) = durable_pair(&dir, HEALTHY_BUDGET);
        let updates = stream(2_134);
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts.clone()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        for chunk in updates.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        router.shutdown();
        router.join();
        // The last compaction covered chunks 1–20 (WAL records 1–20); 21–22
        // are the WAL tail.
        let bytes = std::fs::read(dir.join("default").join("checkpoint.fck")).expect("checkpoint");
        let env = unwrap_envelope(&bytes).expect("envelope");
        assert_eq!((env.wal_seq, env.acked), (20, Some(20 * 97)));
        to_parent_layout(&dir, 20 * 97, 20);

        let meta = dir.join(META_FILE);
        let older = std::fs::read(&meta).expect("meta");
        std::fs::write(&meta, "garbage\n").expect("overwrite meta");
        match Router::start(cfg, "127.0.0.1:0", &addrs, opts.clone()) {
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::InvalidData);
                assert!(e.to_string().contains(META_FILE), "got {e}");
            }
            Ok(_) => panic!("a router started over an unreadable {META_FILE}"),
        }

        std::fs::write(&meta, older).expect("older meta");
        assert_restart_exact(workers, &addrs, opts, &updates);
        assert!(dir.join("default").join("space.cfg").is_file());
        assert!(!meta.exists(), "the first compaction removes {META_FILE}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash window routers had before the v3 envelope, between the
    /// checkpoint and `router.meta` writes: compaction B's v2 checkpoint,
    /// A's `router.meta` and the WAL from before B. The records B's
    /// checkpoint holds and A's count does not are counted from the log,
    /// so the ack watermark comes back whole.
    #[test]
    fn parent_crash_between_checkpoint_and_meta_recounts_the_log() {
        let cfg = test_cfg();
        let dir = scratch_dir("parent-window");
        let (workers, addrs, opts) = durable_pair(&dir, 1 << 20);
        let updates = stream(1_000);
        let (first, rest) = updates.split_at(400);
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts.clone()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        client
            .checkpoint()
            .expect("compaction A, through WAL record 5");
        for chunk in rest.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        let wal_before_b = std::fs::read(wal_path(&dir)).expect("WAL before B");
        client.checkpoint().expect("compaction B");
        router.shutdown();
        router.join();
        to_parent_layout(&dir, first.len() as u64, 5);
        std::fs::write(wal_path(&dir), wal_before_b).expect("restore the WAL");

        let (workers, router, client) = restart_cluster(workers, &addrs, opts);
        assert_holds_exactly(workers, router, client, &updates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_cluster_compacts_at_each_budget_crossing_and_restarts_exact() {
        let cfg = test_cfg();
        let dir = scratch_dir("budget");
        let (workers, addrs, opts) = durable_pair(&dir, HEALTHY_BUDGET);
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts.clone()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        // 3,000 updates are twelve budgets' worth. A batch that would carry
        // the logs past the budget refreshes them first, and the drained
        // logs compact the WAL: it then holds that batch alone.
        let updates = stream(3_000);
        let (mut retained, mut crossings, mut wal) = (0u64, 0u32, 0u64);
        for chunk in updates.chunks(97) {
            let len = chunk.len() as u64;
            let crossing = retained + len > HEALTHY_BUDGET;
            client
                .ingest_batch(chunk)
                .expect("a healthy cluster sheds nothing");
            let now = client.stats().expect("stats").wal_bytes;
            if crossing {
                assert!(now < wal, "crossing {crossings}: WAL not compacted");
                crossings += 1;
                retained = len;
            } else {
                assert!(now > wal, "the WAL grows between crossings");
                retained += len;
            }
            wal = now;
        }
        assert_eq!(crossings, 15);
        let stats = client.stats().expect("stats");
        assert_eq!(stats.overload.shed_ingest, 0);
        assert_eq!(stats.ingested, updates.len() as u64);
        router.shutdown();
        router.join();

        assert_restart_exact(workers, &addrs, opts, &updates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one crash window a compaction has: after its checkpoint write,
    /// before the WAL reset, which leaves compaction B's checkpoint beside
    /// the WAL from before B. The restarted router must still count every
    /// acked update, once: its ingest count is the ack watermark
    /// read-your-writes queries carry back.
    #[test]
    fn crash_between_checkpoint_and_meta_keeps_the_ack_watermark() {
        let cfg = test_cfg();
        let dir = scratch_dir("meta-crash");
        // Nothing crosses this budget: the two compactions below are the
        // checkpoint requests.
        let (workers, addrs, opts) = durable_pair(&dir, 1 << 20);
        let updates = stream(1_000);
        let (first, rest) = updates.split_at(400);
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts.clone()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        client.checkpoint().expect("compaction A");
        for chunk in rest.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        let wal_before_b = std::fs::read(wal_path(&dir)).expect("WAL before B");
        client.checkpoint().expect("compaction B");
        let acked = client.watermark();
        assert_eq!(acked, updates.len() as u64);
        router.shutdown();
        router.join();

        // Compaction B as a crash right after its checkpoint write leaves
        // it: B's checkpoint and the WAL B never reset.
        std::fs::write(wal_path(&dir), wal_before_b).expect("restore the WAL");

        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("restarted router");
        let mut client = Client::connect(router.local_addr()).expect("reconnect");
        client.set_watermark(acked);
        let stats = client.stats().expect("stats at the last acked watermark");
        assert_eq!(stats.ingested, acked, "the restart lost acked updates");
        let view = reference_view(cfg, &updates);
        assert_eq!(
            client
                .certified()
                .expect("read-your-writes at the last acked watermark"),
            view.certified()
        );

        router.shutdown();
        router.join();
        for w in workers {
            w.shutdown();
            w.join();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejoin_at_r2_replays_nothing_a_live_owner_holds() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let w2_addr = w2.local_addr();
        let workers = vec![w1.local_addr().to_string(), w2_addr.to_string()];
        // The large budget never refreshes, so every update below is still
        // retained when worker 2 comes back; the heartbeat drives the
        // rejoin.
        let opts = RouterOptions {
            heartbeat: Some(Duration::from_millis(50)),
            ..outage_opts(2)
        };
        let router = Router::start(cfg, "127.0.0.1:0", &workers, opts).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(2_000);
        let (first, rest) = updates.split_at(1_000);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        w2.crash();
        w2.join();
        for chunk in rest.chunks(97) {
            client.ingest_batch(chunk).expect("degraded ingest acks");
        }
        let w2 = start_worker_at(cfg, w2_addr);
        // A down node's stats row measures no state; a rejoined one does.
        let deadline = Instant::now() + Duration::from_secs(20);
        while client.stats().expect("stats").shards[1].space_bytes == 0 {
            assert!(Instant::now() < deadline, "worker 2 never rejoined");
            std::thread::sleep(Duration::from_millis(20));
        }

        // A read-your-writes query waits on every live node's acked
        // watermark, so worker 2 has published anything it was sent.
        let view = reference_view(cfg, &updates);
        assert_eq!(client.certified().expect("certified"), view.certified());
        let mut direct = Client::connect(w2_addr).expect("connect worker 2");
        assert_eq!(
            direct.stats().expect("worker stats").ingested,
            0,
            "the rejoin replayed updates worker 1 already held"
        );
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }

    /// Bytes the router's live worker connections have received so far.
    fn worker_bytes_received(router: &Router) -> u64 {
        let inner = router.shared.inner.lock().expect("router state");
        inner
            .nodes
            .iter()
            .filter_map(|n| n.client.as_ref())
            .map(Client::bytes_received)
            .sum()
    }

    /// At R = 2 over two workers each worker owns every partition. A fresh
    /// read pushes the query down to the designated readers, so the router
    /// receives answers, not state: a fresh `certify v` and a fresh
    /// `certified` each bring in under a tenth of one full view of the
    /// same state.
    #[test]
    fn fresh_read_moves_answers_not_state() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let workers = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
        let router =
            Router::start(cfg, "127.0.0.1:0", &workers, replicated_opts(2)).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let updates = stream(3_000);
        let (first, rest) = updates.split_at(2_910);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        let view = reference_view(cfg, first);
        let v = view.top(1)[0].vertex;
        let before = worker_bytes_received(&router);
        assert_eq!(client.certify(v).expect("fresh certify"), view.certify(v));
        let certify = worker_bytes_received(&router) - before;

        client.ingest_batch(rest).expect("ingest");
        let view = reference_view(cfg, &updates);
        let before = worker_bytes_received(&router);
        assert_eq!(
            client.certified().expect("fresh certified"),
            view.certified()
        );
        let certified = worker_bytes_received(&router) - before;

        // One full view pull of the same state, straight from one worker.
        let acked = router.shared.inner.lock().expect("router state").nodes[0].acked;
        let mut direct = Client::connect(w1.local_addr()).expect("connect worker 1");
        let start = direct.bytes_received();
        direct.view_pull(0, acked).expect("full view pull");
        let full = direct.bytes_received() - start;
        for (read, got) in [("certify", certify), ("certified", certified)] {
            assert!(
                got * 10 < full,
                "a fresh {read} received {got} bytes; one full view is {full}"
            );
        }

        router.shutdown();
        router.join();
        for w in [w1, w2] {
            w.shutdown();
            w.join();
        }
    }

    /// A `?stale` read is pushed down stale: each reader answers from its
    /// latest published snapshot at once, so a worker whose refresher is
    /// held back does not hold the read. A fresh read still waits for it.
    #[test]
    fn stale_read_never_waits_on_a_held_refresher() {
        let cfg = test_cfg();
        let hold = Duration::from_secs(2);
        let worker = Server::start_with(
            cfg,
            "127.0.0.1:0",
            ServerOptions {
                refresh_debounce: Some(hold),
                ..ServerOptions::default()
            },
        )
        .expect("worker");
        let workers = vec![worker.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let updates = stream(194);
        for chunk in updates.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }

        client.set_stale(true);
        let start = Instant::now();
        client.certified().expect("stale certified");
        client.top(3).expect("stale top");
        let took = start.elapsed();
        assert!(
            took < hold / 2,
            "stale reads took {took:?} behind a refresher held for {hold:?}"
        );

        client.set_stale(false);
        let view = reference_view(cfg, &updates);
        assert_eq!(client.certified().expect("fresh read"), view.certified());

        router.shutdown();
        router.join();
        worker.shutdown();
        worker.join();
    }

    /// Split a reference engine's view into random disjoint partition sets,
    /// for both models, answer each set as a designated reader would, check
    /// the answers, and merge them: the merge is the whole view's answer.
    #[test]
    fn scoped_answers_merge_into_the_whole_view() {
        let io = test_cfg();
        let id_model = IdConfig::with_scale(32, 1 << 10, 12, 2, 0.03);
        let id = EngineConfig::insert_delete(id_model, 7)
            .with_shards(2)
            .with_partitions(8);
        let log = fews_stream::gen::dblog::db_log(32, 1 << 10, 12, 2, 0.4, &mut rng_for(7, 4));
        // Repeated edges: stored lists repeat witnesses, so a vertex ranks
        // by more witnesses than its answer lists distinct.
        let repeats: Vec<Update> = (0..3_000u32)
            .map(|i| {
                let a = i * 7 % 64;
                Update::insert(Edge::new(a, u64::from(i % (1 + a % 5))))
            })
            .collect();
        for (cfg, updates) in [(io, stream(3_000)), (io, repeats), (id, log.updates)] {
            let view = reference_view(cfg, &updates);
            let n = Header::for_config(&cfg).n as u32;
            let partitions = cfg.partitions;
            assert!(view.certified().is_some(), "the stream certifies a vertex");
            for seed in 0..40u64 {
                // Partition p goes to set derive_seed(seed, p) mod r.
                let r = 1 + seed % 4;
                let mut sets = vec![Vec::new(); r as usize];
                for p in 0..partitions as u32 {
                    sets[(derive_seed(seed, u64::from(p)) % r) as usize].push(p);
                }
                sets.retain(|set| !set.is_empty());
                let certified = sets
                    .iter()
                    .map(|named| {
                        let answer = Response::CertifiedIn(
                            view.certified_in(Scope::Parts { named, partitions }),
                        );
                        check_certified(&cfg, named, answer).expect("an honest answer")
                    })
                    .collect();
                assert_eq!(merge_certified(&cfg, certified), view.certified());
                for k in [0, 1, 3, 5, n as usize + 2] {
                    let tops = sets
                        .iter()
                        .map(|named| {
                            let answer =
                                Response::TopIn(view.top_in(k, Scope::Parts { named, partitions }));
                            check_top(&cfg, named, k, answer).expect("an honest answer")
                        })
                        .collect();
                    assert_eq!(merge_top(tops, k), view.top(k), "seed {seed}: top({k})");
                }
            }
            for v in 0..n + 2 {
                let named = [partition_of(v, partitions) as u32];
                let scope = Scope::Parts {
                    named: &named,
                    partitions,
                };
                let answer = Response::Answer(view.certify_in(v, scope));
                let got = check_certify(&cfg, &named, v, answer).expect("an honest answer");
                assert_eq!(got, view.certify(v), "certify({v})");
            }
        }

        // One scope's first certified entry is in run 1, the other's in
        // run 0: the merge takes run 0's, though its partition is later.
        let cfg = EngineConfig::insert_only(FewwConfig::new(64, 4, 2), 1).with_partitions(2);
        let vertex_in = |p| {
            (0..64)
                .find(|&a| partition_of(a, 2) == p)
                .expect("a vertex")
        };
        let (a0, a1) = (vertex_in(0), vertex_in(1));
        let run = |entries| RunState {
            d1: 4,
            d2: 2,
            s: 4,
            crossings: 0,
            entries,
        };
        let part = |runs| {
            Arc::new(PackedState::from(&MemoryState {
                degrees: vec![0; 64],
                runs,
            }))
        };
        let view = GlobalView::InsertOnly {
            parts: vec![
                part(vec![run(vec![(a0, vec![1])]), run(vec![(a0, vec![1, 2])])]),
                part(vec![run(vec![(a1, vec![3, 4])]), run(Vec::new())]),
            ],
            d2: 2,
        };
        let answers: Vec<_> = [[0u32], [1]]
            .iter()
            .map(|named| {
                let scope = Scope::Parts {
                    named,
                    partitions: 2,
                };
                let answer = Response::CertifiedIn(view.certified_in(scope));
                check_certified(&cfg, named, answer).expect("an honest answer")
            })
            .collect();
        assert_eq!(answers[0].as_ref().map(|(run, _)| *run), Some(1));
        assert_eq!(answers[1].as_ref().map(|(run, _)| *run), Some(0));
        let merged = merge_certified(&cfg, answers);
        assert_eq!(merged.as_ref().map(|nb| nb.vertex), Some(a1));
        assert_eq!(merged, view.certified());
    }

    /// A worker with a lag budget sheds a pull its refresher has not yet
    /// covered with a typed `overloaded`. That is load, not a dead worker:
    /// the router fails the read with the same code, keeps the node live,
    /// and rejoins nothing.
    #[test]
    fn shed_view_pull_fails_the_read_and_keeps_the_worker() {
        let cfg = test_cfg();
        let worker = Server::start_with(
            cfg,
            "127.0.0.1:0",
            ServerOptions {
                refresh_debounce: Some(Duration::from_millis(500)),
                limits: OverloadLimits {
                    lag_budget: 1,
                    ..OverloadLimits::default()
                },
                ..ServerOptions::default()
            },
        )
        .expect("worker");
        let workers = vec![worker.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        // Two acked batches, nothing published yet: the pull's lag (2)
        // exceeds the worker's budget (1).
        let updates = stream(194);
        for chunk in updates.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        match client.certified() {
            Err(
                e @ ClientError::Server {
                    code: ErrorCode::Overloaded,
                    ..
                },
            ) => assert!(e.retry_after().is_some(), "no retry hint on {e:?}"),
            other => panic!("a shed pull should fail the read overloaded, got {other:?}"),
        }
        let inner = router.shared.inner.lock().expect("router state");
        assert!(
            inner.nodes[0].client.is_some(),
            "a shed pull marked the worker down"
        );
        drop(inner);

        // Once the refresher publishes, a fresh read answers exactly, and
        // the worker holds the stream once: no rejoin replayed it.
        let view = reference_view(cfg, &updates);
        let deadline = Instant::now() + Duration::from_secs(20);
        let got = loop {
            match client.certified() {
                Ok(got) => break got,
                Err(e) if e.retry_after().is_some() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50))
                }
                Err(e) => panic!("fresh read once the refresher caught up: {e:?}"),
            }
        };
        assert_eq!(got, view.certified());
        let mut direct = Client::connect(worker.local_addr()).expect("connect worker");
        assert_eq!(
            direct.stats().expect("worker stats").ingested,
            updates.len() as u64,
            "the worker was rejoined and replayed"
        );

        router.shutdown();
        router.join();
        worker.shutdown();
        worker.join();
    }

    #[test]
    fn zero_retained_budget_is_refused() {
        let opts = RouterOptions {
            retained_budget: 0,
            ..quick_opts()
        };
        // Refused before any worker is contacted.
        let workers = vec!["127.0.0.1:9".to_string()];
        match Router::start(test_cfg(), "127.0.0.1:0", &workers, opts) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("a zero retained-log budget must be refused"),
        }
    }

    /// What the fake worker answers when the router reads from it.
    #[derive(Clone, Copy)]
    enum FakeMode {
        /// Scoped reads answer vertex 7777 (past n = 64), and slice
        /// checkpoints name partition 7777 (out of range for an
        /// 8-partition cluster).
        AlienPartition,
        /// Every state-bearing response is a garbage byte blob.
        Garbage,
        /// Scoped reads answer a vertex of a partition the read did not
        /// name, and slice checkpoints carry every partition, well formed,
        /// whatever the request named — a worker ignoring the list.
        UnnamedPartition,
        /// Scoped reads are refused typed `oversized`: answers past one
        /// frame.
        Oversized,
        /// Every ingest batch is refused typed `overloaded`; reads are
        /// refused as for `Oversized`.
        ShedIngest,
        /// Every slice restore is refused typed `checkpoint`; ingest is
        /// acked and reads are refused as for `Oversized`.
        RefuseRestore,
        /// Pings, stats and slice restores are answered with the wrong
        /// frame kind (`space-ok`); ingest is acked and reads are refused
        /// as for `Oversized`.
        WrongKind,
    }

    /// A protocol-correct worker for admission that turns byzantine for
    /// state transfer — the regression harness for the unwrap audit: the
    /// router must answer typed errors, never panic.
    fn fake_worker(cfg: EngineConfig, mode: FakeMode) -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
        let addr = listener.local_addr().expect("fake worker addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // Every partition's empty state, as a slice.
        let all: Vec<u32> = (0..cfg.partitions as u32).collect();
        let slice = Engine::start(cfg).checkpoint_slice(&all);
        std::thread::Builder::new()
            .name("fake-worker".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(mut stream) = stream else { continue };
                    serve_fake(&mut stream, &cfg, mode, &slice);
                }
            })
            .expect("spawn fake worker");
        (addr, stop)
    }

    fn serve_fake(stream: &mut TcpStream, cfg: &EngineConfig, mode: FakeMode, slice: &[u8]) {
        let mut header = [0u8; 4];
        loop {
            if stream.read_exact(&mut header).is_err() {
                return;
            }
            let len = u32::from_le_bytes(header) as usize;
            let mut payload = vec![0u8; len];
            if stream.read_exact(&mut payload).is_err() {
                return;
            }
            let Ok((_, request)) = Request::decode(&payload) else {
                return;
            };
            let response = match request {
                Request::Ping | Request::Stats(_) | Request::SliceRestore(_)
                    if matches!(mode, FakeMode::WrongKind) =>
                {
                    Response::SpaceOk
                }
                Request::SliceRestore(_) if matches!(mode, FakeMode::RefuseRestore) => {
                    Response::error(ErrorCode::Checkpoint, "refusing the slice".into())
                }
                Request::Ping => Response::Pong,
                Request::NodeHello => {
                    Response::NodeInfo(WireNodeInfo::new(&Header::for_config(cfg), 0))
                }
                Request::SliceRestore(_) => Response::Restored,
                Request::IngestBatch(u) => match mode {
                    FakeMode::ShedIngest => Response::overloaded("shedding".into(), 100),
                    _ => Response::Ingested {
                        count: u.len() as u64,
                        watermark: 1,
                    },
                },
                Request::ScopedRead {
                    query,
                    parts: named,
                    ..
                } => {
                    // A well-formed answer about vertex `a`, certified in
                    // run 0 — wrong only in which vertex it names.
                    let answer = |a: u32| {
                        let nb = Neighbourhood::new(a, (0..cfg.witness_target() as u64).collect());
                        match query {
                            ScopedQuery::Certified => Response::CertifiedIn(Some((0, nb))),
                            ScopedQuery::Certify(_) => Response::Answer(Some(nb)),
                            ScopedQuery::Top(_) => Response::TopIn(vec![(nb.size() as u64, nb)]),
                        }
                    };
                    match mode {
                        FakeMode::AlienPartition => answer(7_777),
                        FakeMode::Garbage => {
                            // A frame that is not a decodable Response at all.
                            let junk = [9u8, 99, 99, 99, 99];
                            let _ = stream.write_all(&(junk.len() as u32).to_le_bytes());
                            let _ = stream.write_all(&junk);
                            continue;
                        }
                        FakeMode::UnnamedPartition => {
                            let unnamed = (0..Header::for_config(cfg).n as u32).find(|&a| {
                                let p = partition_of(a, cfg.partitions) as u32;
                                named.binary_search(&p).is_err()
                            });
                            answer(unnamed.expect("the read names only some partitions"))
                        }
                        FakeMode::Oversized
                        | FakeMode::ShedIngest
                        | FakeMode::RefuseRestore
                        | FakeMode::WrongKind => Response::error(
                            ErrorCode::Oversized,
                            "the answer may need more than one frame".into(),
                        ),
                    }
                }
                Request::SliceCheckpoint(_) => match mode {
                    FakeMode::AlienPartition => Response::Checkpoint(checkpoint::encode_slice(
                        cfg,
                        &[(7_777, vec![4, 5, 6])],
                    )),
                    FakeMode::Garbage => Response::Checkpoint(vec![0xde, 0xad, 0xbe, 0xef]),
                    FakeMode::UnnamedPartition
                    | FakeMode::Oversized
                    | FakeMode::ShedIngest
                    | FakeMode::RefuseRestore
                    | FakeMode::WrongKind => Response::Checkpoint(slice.to_vec()),
                },
                _ => Response::error(
                    ErrorCode::Malformed,
                    "unexpected request at fake worker".into(),
                ),
            };
            if stream.write_all(&response.encode()).is_err() {
                return;
            }
        }
    }

    #[test]
    fn byzantine_worker_yields_typed_errors_never_panics() {
        // A pull names only part of the partition space when two nodes
        // split it, so the unnamed-partition fake runs beside a real worker.
        for (mode, beside_real) in [
            (FakeMode::AlienPartition, false),
            (FakeMode::Garbage, false),
            (FakeMode::UnnamedPartition, true),
        ] {
            let cfg = test_cfg();
            let (addr, stop) = fake_worker(cfg, mode);
            let real = beside_real.then(|| Server::start(cfg, "127.0.0.1:0").expect("worker"));
            let mut workers: Vec<String> =
                real.iter().map(|w| w.local_addr().to_string()).collect();
            workers.push(addr.to_string());
            let fake = workers.len() - 1;
            let router =
                Router::start(cfg, "127.0.0.1:0", &workers, outage_opts(1)).expect("router admits");
            let mut client = Client::connect(router.local_addr()).expect("connect");

            // Ingest acks (retained at the router regardless of the worker).
            client.ingest_batch(&stream(300)).expect("ingest acks");

            // Queries and checkpoints hit the byzantine state transfer:
            // typed error frames, never a panic, and the router survives.
            for _ in 0..3 {
                match client.certified() {
                    Err(ClientError::Server { code, .. }) => match mode {
                        FakeMode::UnnamedPartition => assert_eq!(code, ErrorCode::Malformed),
                        _ => assert!(
                            matches!(code, ErrorCode::Malformed | ErrorCode::NodeUnavailable),
                            "unexpected code {code:?}"
                        ),
                    },
                    other => panic!("byzantine worker should yield typed errors, got {other:?}"),
                }
                let inner = router.shared.inner.lock().expect("router state");
                assert!(
                    inner.nodes[fake].client.is_none(),
                    "a byzantine worker stayed live"
                );
                assert!(
                    inner.nodes[..fake].iter().all(|n| n.client.is_some()),
                    "a healthy worker was marked down"
                );
            }
            match client.checkpoint() {
                Err(ClientError::Server { code, .. }) => assert!(
                    matches!(code, ErrorCode::Malformed | ErrorCode::NodeUnavailable),
                    "unexpected code {code:?}"
                ),
                other => panic!("byzantine checkpoint should be typed, got {other:?}"),
            }
            client.ping().expect("router still alive");

            stop.store(true, Ordering::SeqCst);
            router.shutdown();
            router.join();
            let _ = TcpStream::connect(addr); // unblock the fake acceptor
            if let Some(w) = real {
                w.shutdown();
                w.join();
            }
        }
    }

    /// A worker that refuses a read typed `oversized` answered in step:
    /// the read fails with the same code and the worker stays live, as for
    /// a shed read — nothing is marked down, nothing rejoins.
    #[test]
    fn oversized_answer_fails_the_read_and_keeps_the_worker() {
        let cfg = test_cfg();
        let (addr, stop) = fake_worker(cfg, FakeMode::Oversized);
        let workers = vec![addr.to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, outage_opts(1)).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        client.ingest_batch(&stream(300)).expect("ingest acks");
        for _ in 0..2 {
            match client.top(3) {
                Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Oversized),
                other => panic!("an oversized answer should fail the read typed, got {other:?}"),
            }
            assert!(
                router.shared.inner.lock().expect("router state").nodes[0]
                    .client
                    .is_some(),
                "an oversized answer marked the worker down"
            );
        }
        client.ping().expect("router still alive");

        stop.store(true, Ordering::SeqCst);
        router.shutdown();
        router.join();
        let _ = TcpStream::connect(addr); // unblock the fake acceptor
    }

    /// A worker that refuses a routed batch has not applied it, whatever
    /// it answered: unlike a shed read, a shed ingest marks the worker down
    /// (a rejoin rebuilds it), so no diverged replica serves. At R = 2 the
    /// batch acks and the live replica answers exactly.
    #[test]
    fn shed_ingest_marks_the_worker_down_and_answers_stay_exact() {
        let cfg = test_cfg();
        let (addr, stop) = fake_worker(cfg, FakeMode::ShedIngest);
        let real = Server::start(cfg, "127.0.0.1:0").expect("worker");
        let workers = vec![addr.to_string(), real.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, outage_opts(2)).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let updates = stream(300);
        client.ingest_batch(&updates).expect("ingest acks");
        let live = router.shared.inner.lock().expect("router state").live();
        assert_eq!(
            live,
            [false, true],
            "the worker that shed a routed batch, and only it, is down"
        );
        assert_eq!(
            client.certified().expect("certified"),
            reference_view(cfg, &updates).certified()
        );

        stop.store(true, Ordering::SeqCst);
        router.shutdown();
        router.join();
        let _ = TcpStream::connect(addr); // unblock the fake acceptor
        real.shutdown();
        real.join();
    }

    /// A restarted router reseeds both workers at once, each with its
    /// slice and its retained updates. The fake refuses its slice typed:
    /// it is marked down and sent nothing more, while the real worker is
    /// reseeded exactly. At R = 1 a read then repairs the fake, and the
    /// repair fails with the fake's own code; the fake stays down and no
    /// reply of its replay is taken for another request's, so the router
    /// keeps answering from the real worker exactly.
    #[test]
    fn refused_slice_restore_fails_the_repair_typed_and_skips_its_replay_acks() {
        let cfg = test_cfg();
        let dir = scratch_dir("refused-restore");
        let (addr, stop) = fake_worker(cfg, FakeMode::RefuseRestore);
        let real = Server::start(cfg, "127.0.0.1:0").expect("worker");
        let workers = vec![addr.to_string(), real.local_addr().to_string()];
        let opts = RouterOptions {
            data_dir: Some(dir.clone()),
            ..outage_opts(1)
        };
        // Nothing refreshes under this budget: every update is still
        // retained, in the WAL, when the router restarts.
        let updates = stream(600);
        let router = Router::start(cfg, "127.0.0.1:0", &workers, opts.clone()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        for chunk in updates.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        drop(client);
        router.shutdown();
        router.join();

        let router = Router::start(cfg, "127.0.0.1:0", &workers, opts).expect("restarted router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let live = router.shared.inner.lock().expect("router state").live();
        assert_eq!(live, [false, true], "the startup reseed kept the fake live");
        match client.certified() {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, ErrorCode::Checkpoint, "{message}");
                assert!(message.contains(&addr.to_string()), "{message}");
            }
            other => panic!("the fake's repair should fail typed, got {other:?}"),
        }
        let live = router.shared.inner.lock().expect("router state").live();
        assert_eq!(live, [false, true], "the failed repair left the fake live");

        // The real worker owns the odd partitions and holds them exactly.
        let odd: Vec<u32> = (1..cfg.partitions as u32).step_by(2).collect();
        let reference = {
            let mut engine = Engine::start(cfg);
            engine.ingest(updates.clone());
            engine.checkpoint_slice(&odd)
        };
        let mut direct = Client::connect(real.local_addr()).expect("connect worker");
        assert_eq!(direct.slice_checkpoint(&odd).expect("slice"), reference);
        let view = reference_view(cfg, &updates);
        for v in (0..64).filter(|&v| partition_of(v, cfg.partitions) % 2 == 1) {
            assert_eq!(client.certify(v).expect("certify"), view.certify(v), "{v}");
        }
        client.ping().expect("router still alive");

        stop.store(true, Ordering::SeqCst);
        router.shutdown();
        router.join();
        let _ = TcpStream::connect(addr); // unblock the fake acceptor
        real.shutdown();
        real.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker that answers a stats request, a slice restore or a ping
    /// with the wrong frame kind is marked down, the failure typed
    /// `malformed` and naming it; nothing panics, and the router keeps
    /// answering exactly from the live replica.
    #[test]
    fn wrong_kind_replies_mark_the_worker_down_malformed() {
        let cfg = test_cfg();
        let (addr, stop) = fake_worker(cfg, FakeMode::WrongKind);
        let real = Server::start(cfg, "127.0.0.1:0").expect("worker");
        let workers = vec![addr.to_string(), real.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, outage_opts(2)).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let updates = stream(300);
        client.ingest_batch(&updates).expect("ingest acks");
        let live = || router.shared.inner.lock().expect("router state").live();

        let stats = client.stats().expect("stats answer with a worker down");
        assert_eq!(live(), [false, true], "a wrong-kind stats reply");
        assert_eq!(stats.shards[0].space_bytes, 0);
        assert!(stats.shards[1].space_bytes > 0);

        // The repair pushes the fake its slice, which it answers wrongly.
        match router.shared.inner.lock().expect("router state").rejoin(0) {
            Err((code, message)) => {
                assert_eq!(code, ErrorCode::Malformed, "{message}");
                assert!(message.contains(&addr.to_string()), "{message}");
            }
            Ok(()) => panic!("a wrong-kind slice restore reply rejoined the fake"),
        }
        assert_eq!(live(), [false, true], "a wrong-kind slice restore reply");

        // Admitted again by hand, the fake fails its heartbeat ping.
        {
            let mut inner = router.shared.inner.lock().expect("router state");
            let opts = client_opts_for(&inner.opts, 0);
            let (admitted, _) = admit(&addr.to_string(), &cfg, &opts).expect("admit");
            inner.nodes[0].client = Some(admitted);
            inner.heartbeat();
        }
        assert_eq!(live(), [false, true], "a wrong-kind ping reply");

        assert_eq!(
            client.certified().expect("certified"),
            reference_view(cfg, &updates).certified()
        );
        client.ping().expect("router still alive");

        stop.store(true, Ordering::SeqCst);
        router.shutdown();
        router.join();
        let _ = TcpStream::connect(addr); // unblock the fake acceptor
        real.shutdown();
        real.join();
    }

    #[test]
    fn join_worker_rebalances_without_changing_answers() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let workers = vec![w1.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(2_500);
        let (first, rest) = updates.split_at(1_000);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }

        // Scale out mid-stream: the new worker takes over half the
        // partition space via checkpoint handoff.
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        client
            .join_worker(&w2.local_addr().to_string())
            .expect("join");
        for chunk in rest.chunks(97) {
            client.ingest_batch(chunk).expect("ingest after join");
        }

        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let (view, _) = reference.refresh();
        assert_eq!(client.certified().expect("certified"), view.certified());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.shards[1].partitions, 4);

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }

    #[test]
    fn restore_propagates_to_every_worker() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let workers = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        // A donor engine's checkpoint, installed cluster-wide.
        let updates = stream(1_800);
        let mut donor = Engine::start(cfg);
        donor.ingest(updates.clone());
        let inner = donor.checkpoint();
        let envelope = checkpoint::wrap_envelope("default", 0, &inner);
        client.restore(&envelope).expect("restore");

        let (view, _) = donor.refresh();
        assert_eq!(client.certified().expect("certified"), view.certified());
        let roundtrip = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&roundtrip).expect("envelope");
        assert_eq!(env.inner, inner);

        // And the stream continues cleanly on top of the restored state.
        let more = stream(2_400);
        let tail = &more[1_800..];
        for chunk in tail.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        donor.ingest(tail.to_vec());
        let (view, _) = donor.refresh();
        assert_eq!(client.certified().expect("certified"), view.certified());

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }
}
