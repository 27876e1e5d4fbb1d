//! The `fews-net` wire protocol: framing and message codecs.
//!
//! Every message travels in one *frame*:
//!
//! ```text
//! length   u32 little-endian — byte count of everything after this field
//! version  u8, currently [`VERSION`]
//! tag      u8 — message kind ([`Request`] 0x01…, [`Response`] 0x81…)
//! body     tag-specific, LEB128 varints via `fews_core::wire`
//! ```
//!
//! **Protocol v3 is multi-tenant.** Every *request* body opens with a space
//! header — `name length` varint followed by that many name bytes — routing
//! the request to one tenant space. A zero-length name means the default
//! space, so the cheapest possible header is a single `0x00` byte and
//! single-tenant clients pay one byte per request. Names are validated
//! against the [`SpaceId`] charset at decode time. Responses carry no space
//! header: the protocol is strict request/response per connection, so the
//! space is implied by the request. Pre-space (v1) clients are answered
//! with a clean [`ErrorCode::UnsupportedVersion`] error frame.
//!
//! The length field covers `version + tag + body`, so it is always ≥ 2 and
//! at most [`MAX_FRAME`] ([`FrameError::Oversized`] otherwise — a declared
//! length beyond the cap is rejected *before* any allocation, which is what
//! keeps a hostile 4-byte header from reserving gigabytes). Because every
//! body is length-delimited by the header, a malformed body never desyncs
//! the stream: the receiver consumed exactly one frame and can answer with
//! an [`Response::Error`] frame and keep going. Only header-level damage
//! (truncated length/body, oversized declaration) forces the connection
//! closed.
//!
//! Bodies reuse the engine's varint encoders ([`put_uvarint`] /
//! [`get_uvarint`]), so a checkpoint travels over the wire in exactly the
//! bytes [`fews_engine::Engine::checkpoint`] produced.

use fews_common::spaceid::MAX_SPACE_NAME;
use fews_common::{SpaceConfig, SpaceId};
use fews_core::neighbourhood::Neighbourhood;
use fews_core::wire::{
    bounded_capacity, get_space_config, get_updates, get_uvarint, put_space_config, put_updates,
    put_uvarint,
};
use fews_engine::checkpoint::Header;
#[cfg(test)]
use fews_stream::Edge;
use fews_stream::Update;

/// Protocol version carried in every frame header. v1 was the single-tenant
/// protocol; v3 adds the per-request space header and the space lifecycle
/// messages. (v2 is deliberately skipped: "v2" already names the
/// insertion-deletion checkpoint format in `fews_core::wire`.)
pub const VERSION: u8 = 3;

/// Upper bound on `version + tag + body` length ([`fews_core::wire::MAX_FRAME`]).
pub use fews_core::wire::MAX_FRAME;

/// How fresh the snapshot answering a query must be. Snapshots are
/// published by a background refresher, so "latest published" can trail the
/// last acked ingest — the read mode makes that staleness an explicit,
/// per-request contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Answer immediately from the latest published snapshot (`?stale`):
    /// minimum latency, bounded staleness.
    Stale,
    /// Wait until the published snapshot covers ingest watermark `w` before
    /// answering — read-your-writes when `w` is the watermark carried by the
    /// client's last ingest ack. `AtLeast(0)` is satisfied by any snapshot.
    AtLeast(u64),
}

/// A request frame, client → server. The space it addresses travels in the
/// frame's space header, alongside — not inside — these payloads; decoding
/// yields `(SpaceId, Request)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a batch of turnstile updates to the addressed space.
    IngestBatch(Vec<Update>),
    /// The space's certified output (global view).
    Certified(ReadMode),
    /// Everything provable about one vertex.
    Certify(u32, ReadMode),
    /// The `k` vertices with the most collected witnesses.
    Top(u64, ReadMode),
    /// Ingest counters and per-shard space usage for the addressed space.
    Stats(ReadMode),
    /// Serialize the space's engine into a checkpoint byte string.
    Checkpoint,
    /// Load a checkpoint into the addressed space's engine.
    Restore(Vec<u8>),
    /// Create the space named by the frame's space header with this config.
    CreateSpace(SpaceConfig),
    /// Drop the space named by the frame's space header.
    DropSpace,
    /// Enumerate every live space (the space header is ignored).
    ListSpaces,
    /// Stop accepting connections and shut the server down.
    Shutdown,
    /// Liveness probe: answered with [`Response::Pong`] without touching any
    /// space. Used by the cluster router's heartbeats and CI health checks.
    Ping,
    /// Identify the addressed space's model for cluster admission: answered
    /// with [`Response::NodeInfo`] so a router can verify a worker runs the
    /// exact configuration (model, seed, partition count) before routing to
    /// it.
    NodeHello,
    /// Fetch the space's whole query view (every partition) if it changed
    /// since publish epoch `since`; answered with [`Response::View`]. A
    /// quiesced worker answers `unchanged` in O(1). The view must cover
    /// ingest watermark `min_watermark`.
    ViewPull {
        /// Publish epoch of the puller's cached copy (0 = nothing cached).
        since: u64,
        /// Lowest ingest watermark the answering snapshot may cover.
        min_watermark: u64,
    },
    /// Serialize the named partitions into a sparse slice-checkpoint
    /// container (answered with [`Response::Checkpoint`] carrying
    /// `FEWWSLC1` bytes).
    SliceCheckpoint(Vec<u32>),
    /// Install a sparse slice checkpoint (`FEWWSLC1` bytes) into the
    /// addressed space, replacing only the partitions it carries.
    SliceRestore(Vec<u8>),
    /// Ask a *router* to admit the worker at this address into the cluster.
    /// Plain servers reject it — the tag exists so `fews client` can speak
    /// to routers and workers with one codec.
    JoinWorker(String),
    /// Answer `query` over the named partitions only, from a snapshot
    /// resolved under `mode` exactly as a client read's is — what a router
    /// pushes down to each designated reader, so a read moves answers, not
    /// state. Answered with [`Response::CertifiedIn`], [`Response::Answer`]
    /// or [`Response::TopIn`] for the three query kinds.
    ScopedRead {
        /// The query to answer.
        query: ScopedQuery,
        /// How fresh the answering snapshot must be.
        mode: ReadMode,
        /// The partitions to answer over: non-empty, sorted and unique (the
        /// decoder enforces it); the worker range-checks them.
        parts: Vec<u32>,
    },
}

/// The query a [`Request::ScopedRead`] carries: one of the three read
/// kinds, answered over the named partitions only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopedQuery {
    /// `certified`, answered with the winning entry's run index.
    Certified,
    /// `certify(v)`.
    Certify(u32),
    /// `top(k)`.
    Top(u64),
}

impl Request {
    const TAG_INGEST: u8 = 0x01;
    const TAG_CERTIFIED: u8 = 0x02;
    const TAG_CERTIFY: u8 = 0x03;
    const TAG_TOP: u8 = 0x04;
    const TAG_STATS: u8 = 0x05;
    const TAG_CHECKPOINT: u8 = 0x06;
    const TAG_RESTORE: u8 = 0x07;
    const TAG_SHUTDOWN: u8 = 0x08;
    const TAG_CREATE_SPACE: u8 = 0x09;
    const TAG_DROP_SPACE: u8 = 0x0A;
    const TAG_LIST_SPACES: u8 = 0x0B;
    const TAG_PING: u8 = 0x0C;
    const TAG_NODE_HELLO: u8 = 0x0D;
    /// Retired (`slice-assign`): it decodes as unknown and is never
    /// reused, so a peer still sending it gets `unknown-tag`, not another
    /// request's meaning.
    const TAG_RETIRED: u8 = 0x0E;
    const TAG_VIEW_PULL: u8 = 0x0F;
    const TAG_SLICE_CHECKPOINT: u8 = 0x10;
    const TAG_SLICE_RESTORE: u8 = 0x11;
    const TAG_JOIN_WORKER: u8 = 0x12;
    const TAG_SCOPED_READ: u8 = 0x13;

    /// Whether `tag` names a request this protocol version understands.
    /// Checked *before* the space header is parsed so that an unknown tag
    /// reports [`FrameError::UnknownTag`], not a malformed-header error.
    fn known_tag(tag: u8) -> bool {
        (Self::TAG_INGEST..=Self::TAG_SCOPED_READ).contains(&tag) && tag != Self::TAG_RETIRED
    }
}

/// One shard's counters in a [`Response::Stats`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireShardStats {
    /// Partitions owned by the shard.
    pub partitions: u64,
    /// Updates applied so far.
    pub processed: u64,
    /// Batches applied so far.
    pub batches: u64,
    /// Measured state size in bytes.
    pub space_bytes: u64,
}

/// Overload-protection gauges and counters for one space, carried inside
/// [`WireStats`]. The `shed_*` counters are monotone since the space (or
/// server) started; `inflight_*` and `lag_*` are instantaneous gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireOverload {
    /// Ingest batches rejected by admission control ([`ErrorCode::Overloaded`]).
    pub shed_ingest: u64,
    /// Watermarked reads failed fast because the refresher lag exceeded the
    /// lag budget.
    pub shed_reads: u64,
    /// Connections refused at accept because the server hit `--max-conns`
    /// (server-wide, reported identically in every space's stats).
    pub shed_conns: u64,
    /// Updates currently admitted but not yet acked (in the WAL/engine path).
    pub inflight_updates: u64,
    /// `inflight_updates` in bytes of the in-memory update (24 each).
    pub inflight_bytes: u64,
    /// Acked ingest watermark minus published snapshot watermark: how many
    /// updates the refresher currently trails by.
    pub lag_updates: u64,
    /// Age of the published snapshot relative to the last ack, in
    /// milliseconds — the refresher's current lag in time units.
    pub lag_ms: u64,
}

/// Per-space statistics as they travel over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Updates accepted into this space since it started serving.
    pub ingested: u64,
    /// Server uptime in microseconds.
    pub uptime_micros: u64,
    /// The witness target `d₂` of the space's model.
    pub witness_target: u64,
    /// Total measured engine state of the space, in bytes.
    pub space_bytes: u64,
    /// Bytes currently sitting in the space's write-ahead log (0 when the
    /// server runs without durability).
    pub wal_bytes: u64,
    /// The space's soft quota in bytes (0 = unlimited).
    pub quota_bytes: u64,
    /// Overload-protection counters and gauges.
    pub overload: WireOverload,
    /// Per-shard counters, in shard order.
    pub shards: Vec<WireShardStats>,
}

/// A worker's identity card in a [`Response::NodeInfo`] frame: the exact
/// fields of the checkpoint [`Header`], plus the
/// ingest counter. Two nodes with equal identity cards host interchangeable
/// partition state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireNodeInfo {
    /// 0 = insertion-only, 1 = insertion-deletion.
    pub model: u64,
    /// Master seed (partition RNG streams derive from it).
    pub seed: u64,
    /// Logical partition count `P`.
    pub partitions: u64,
    /// `n` (A-vertices).
    pub n: u64,
    /// `m` (B-vertices; 0 for insertion-only).
    pub m: u64,
    /// Degree threshold `d`.
    pub d: u64,
    /// Approximation factor α.
    pub alpha: u64,
    /// Updates the space has accepted so far.
    pub ingested: u64,
}

impl WireNodeInfo {
    /// The identity card of a space with checkpoint header `h` that has
    /// accepted `ingested` updates: a node's answer, a router's requirement.
    pub fn new(h: &Header, ingested: u64) -> WireNodeInfo {
        WireNodeInfo {
            model: h.model,
            seed: h.seed,
            partitions: h.partitions,
            n: h.n,
            m: h.m,
            d: h.d,
            alpha: h.alpha,
            ingested,
        }
    }
}

/// A space's query view as it travels in a [`Response::View`] frame.
///
/// `epoch` is the worker's publish counter at snapshot time; a router stores
/// it as the node's watermark and passes it back as `since` in the next
/// [`Request::ViewPull`], so a quiesced worker answers
/// [`WireView::Unchanged`] without shipping (or even encoding) any state —
/// the PR 5 epoch trick, across the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireView {
    /// Nothing changed since the `since` watermark the puller sent.
    Unchanged {
        /// The worker's current publish epoch (equals the request's `since`).
        epoch: u64,
    },
    /// Insertion-only: each requested partition's
    /// [`fews_core::wire::MemoryState::encode`] bytes, ascending partition
    /// order — the same per-partition encoding checkpoints use, so the
    /// router's merged view is bit-exact against a single-node engine.
    InsertOnly {
        /// Publish epoch this snapshot was taken at.
        epoch: u64,
        /// `(partition id, MemoryState bytes)`, sorted by partition.
        parts: Vec<(u32, Vec<u8>)>,
    },
    /// Insertion-deletion: the pooled `(vertex, witnesses)` list of the
    /// requested partitions' vertices, sorted by vertex. A router names
    /// disjoint partition sets to its nodes, so concatenating their pools
    /// and re-sorting is a disjoint union.
    InsertDelete {
        /// Publish epoch this snapshot was taken at.
        epoch: u64,
        /// `(vertex, pooled witnesses)`, sorted by vertex.
        pooled: Vec<(u32, Vec<u64>)>,
    },
}

impl WireView {
    /// The publish epoch carried by any variant.
    pub fn epoch(&self) -> u64 {
        match self {
            WireView::Unchanged { epoch }
            | WireView::InsertOnly { epoch, .. }
            | WireView::InsertDelete { epoch, .. } => *epoch,
        }
    }
}

/// One space's row in a [`Response::Spaces`] listing.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpaceInfo {
    /// The space's name.
    pub name: String,
    /// Its model and parameters.
    pub spec: SpaceConfig,
    /// Measured engine state in bytes.
    pub space_bytes: u64,
    /// Bytes in its write-ahead log (0 without durability).
    pub wal_bytes: u64,
}

/// Why the server rejected a request (the `code` of an error frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Frame header declared a length of 0, 1, or more than [`MAX_FRAME`],
    /// or an answer would need a frame larger than [`MAX_FRAME`].
    Oversized = 1,
    /// Frame version byte is not [`VERSION`].
    UnsupportedVersion = 2,
    /// Unknown request tag.
    UnknownTag = 3,
    /// Body bytes did not decode as the tagged request.
    Malformed = 4,
    /// An ingest update failed range validation.
    BadUpdate = 5,
    /// A checkpoint failed to restore.
    Checkpoint = 6,
    /// The connection ended (or errored) partway through a declared frame.
    Truncated = 7,
    /// The addressed space does not exist.
    UnknownSpace = 8,
    /// `create-space` named a space that already exists.
    SpaceExists = 9,
    /// The space's byte quota is exhausted; ingest rejected.
    QuotaExceeded = 10,
    /// The update is legal on the wire but not under the space's model
    /// (e.g. a deletion sent to an insertion-only space).
    ModelMismatch = 11,
    /// The write-ahead log could not durably record the batch; it was NOT
    /// applied.
    Durability = 12,
    /// A cluster node needed to answer this request is down and could not be
    /// recovered within the router's bounded retry budget.
    NodeUnavailable = 13,
    /// A watermarked read waited longer than the server's bound for the
    /// published snapshot to reach the requested watermark. The write is
    /// durable; retry the read (or read `?stale`).
    WatermarkTimeout = 14,
    /// The server is shedding load: the space's in-flight ingest budget is
    /// exhausted, the connection limit is reached, or the published snapshot
    /// trails the acked watermark by more than the lag budget. Nothing was
    /// applied. The error frame carries a `retry_after_ms` hint; back off at
    /// least that long (or, for reads, fall back to `?stale`).
    Overloaded = 15,
}

impl ErrorCode {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Oversized,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownTag,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::BadUpdate,
            6 => ErrorCode::Checkpoint,
            7 => ErrorCode::Truncated,
            8 => ErrorCode::UnknownSpace,
            9 => ErrorCode::SpaceExists,
            10 => ErrorCode::QuotaExceeded,
            11 => ErrorCode::ModelMismatch,
            12 => ErrorCode::Durability,
            13 => ErrorCode::NodeUnavailable,
            14 => ErrorCode::WatermarkTimeout,
            15 => ErrorCode::Overloaded,
            _ => return None,
        })
    }
}

/// A response frame, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Batch accepted (enqueued and, on a durable server, fsynced); echoes
    /// the update count and carries the space's ingest watermark after this
    /// batch — pass it back as [`ReadMode::AtLeast`] for read-your-writes.
    Ingested {
        /// Updates accepted from this batch.
        count: u64,
        /// The space's ingest watermark covering this batch.
        watermark: u64,
    },
    /// Answer to [`Request::Certified`] / [`Request::Certify`].
    Answer(Option<Neighbourhood>),
    /// Answer to [`Request::Top`].
    Top(Vec<Neighbourhood>),
    /// Answer to [`Request::Stats`].
    Stats(WireStats),
    /// Answer to [`Request::Checkpoint`]: the container bytes.
    Checkpoint(Vec<u8>),
    /// Checkpoint installed.
    Restored,
    /// Space lifecycle request ([`Request::CreateSpace`] /
    /// [`Request::DropSpace`]) succeeded.
    SpaceOk,
    /// Answer to [`Request::ListSpaces`].
    Spaces(Vec<WireSpaceInfo>),
    /// Server acknowledges [`Request::Shutdown`] and is going away.
    Bye,
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::NodeHello`].
    NodeInfo(WireNodeInfo),
    /// Answer to [`Request::ViewPull`].
    View(WireView),
    /// Answer to a scoped `certified` ([`Request::ScopedRead`]): the
    /// scope's certified neighbourhood with the index of the run whose
    /// reservoir entry it is (0 for insertion-deletion), so answers over
    /// disjoint scopes merge exactly.
    CertifiedIn(Option<(u32, Neighbourhood)>),
    /// Answer to a scoped `top` ([`Request::ScopedRead`]): the scope's best
    /// vertices, each with the stored witness count it ranks by (a stored
    /// list may repeat a witness, so the count can exceed the distinct
    /// witnesses), so answers over disjoint scopes merge exactly.
    TopIn(Vec<(u64, Neighbourhood)>),
    /// The request was rejected; the connection may still be usable (see
    /// module docs for which errors keep the stream in sync).
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Backoff hint in milliseconds, meaningful for
        /// [`ErrorCode::Overloaded`]: how long the client should wait before
        /// retrying. 0 = no hint. Travels as an optional trailing varint so
        /// hint-less error frames cost nothing extra.
        retry_after_ms: u64,
    },
}

impl Response {
    /// An error frame with no backoff hint — every rejection that is not
    /// load shedding.
    pub fn error(code: ErrorCode, message: String) -> Response {
        Response::Error {
            code,
            message,
            retry_after_ms: 0,
        }
    }

    /// An [`ErrorCode::Overloaded`] error frame carrying a backoff hint.
    pub fn overloaded(message: String, retry_after_ms: u64) -> Response {
        Response::Error {
            code: ErrorCode::Overloaded,
            message,
            retry_after_ms,
        }
    }
}

impl Response {
    const TAG_INGESTED: u8 = 0x81;
    const TAG_ANSWER: u8 = 0x82;
    const TAG_TOP: u8 = 0x83;
    const TAG_STATS: u8 = 0x84;
    const TAG_CHECKPOINT: u8 = 0x85;
    const TAG_RESTORED: u8 = 0x86;
    const TAG_BYE: u8 = 0x87;
    const TAG_SPACE_OK: u8 = 0x88;
    const TAG_SPACES: u8 = 0x89;
    const TAG_PONG: u8 = 0x8A;
    const TAG_NODE_INFO: u8 = 0x8B;
    const TAG_VIEW: u8 = 0x8C;
    const TAG_CERTIFIED_IN: u8 = 0x8D;
    const TAG_TOP_IN: u8 = 0x8E;
    const TAG_ERROR: u8 = 0xFF;
}

/// Decode failures for a single frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length outside `2..=MAX_FRAME`.
    Oversized(u64),
    /// Version byte ≠ [`VERSION`].
    UnsupportedVersion(u8),
    /// Tag byte names no known message.
    UnknownTag(u8),
    /// Body failed to decode (truncated varint, trailing bytes, bad enum…).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame length {n} outside 2..={MAX_FRAME}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            FrameError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_neighbourhood(buf: &mut Vec<u8>, nb: &Neighbourhood) {
    put_uvarint(buf, nb.vertex as u64);
    put_uvarint(buf, nb.witnesses.len() as u64);
    for &w in &nb.witnesses {
        put_uvarint(buf, w);
    }
}

fn get_neighbourhood(buf: &[u8], pos: &mut usize) -> Option<Neighbourhood> {
    let vertex = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    let count = get_uvarint(buf, pos)? as usize;
    if count > buf.len() - (*pos).min(buf.len()) {
        return None; // each witness needs ≥ 1 byte — reject bogus counts early
    }
    let mut witnesses = Vec::with_capacity(bounded_capacity(count));
    for _ in 0..count {
        witnesses.push(get_uvarint(buf, pos)?);
    }
    Some(Neighbourhood { vertex, witnesses })
}

fn put_option_neighbourhood(buf: &mut Vec<u8>, nb: &Option<Neighbourhood>) {
    match nb {
        None => buf.push(0),
        Some(nb) => {
            buf.push(1);
            put_neighbourhood(buf, nb);
        }
    }
}

fn get_option_neighbourhood(buf: &[u8], pos: &mut usize) -> Option<Option<Neighbourhood>> {
    let present = *buf.get(*pos)?;
    *pos += 1;
    match present {
        0 => Some(None),
        1 => Some(Some(get_neighbourhood(buf, pos)?)),
        _ => None,
    }
}

/// Append the request space header: name length varint + name bytes. The
/// default space is encoded as the zero-length name, so the steady-state
/// single-tenant cost is one byte. Allocation-free — the name bytes are
/// copied straight into `buf`.
fn put_space(buf: &mut Vec<u8>, space: &SpaceId) {
    if space.is_default() {
        buf.push(0);
    } else {
        let name = space.as_str().as_bytes();
        put_uvarint(buf, name.len() as u64);
        buf.extend_from_slice(name);
    }
}

/// Append a query read mode: `0x00` = stale, `0x01` + watermark varint =
/// wait-for-watermark. The default-client steady state (`AtLeast(0)` before
/// any ingest) costs two bytes.
fn put_read_mode(buf: &mut Vec<u8>, mode: &ReadMode) {
    match mode {
        ReadMode::Stale => buf.push(0),
        ReadMode::AtLeast(w) => {
            buf.push(1);
            put_uvarint(buf, *w);
        }
    }
}

/// Parse a query read mode at `pos`.
fn get_read_mode(body: &[u8], pos: &mut usize) -> Result<ReadMode, FrameError> {
    let kind = *body.get(*pos).ok_or(FrameError::Malformed("read mode"))?;
    *pos += 1;
    match kind {
        0 => Ok(ReadMode::Stale),
        1 => Ok(ReadMode::AtLeast(
            get_uvarint(body, pos).ok_or(FrameError::Malformed("read-mode watermark"))?,
        )),
        _ => Err(FrameError::Malformed("read mode")),
    }
}

/// Parse the request space header at `pos`. Zero-length = default space;
/// anything else must be a valid [`SpaceId`] name.
fn get_space(body: &[u8], pos: &mut usize) -> Result<SpaceId, FrameError> {
    let len = get_uvarint(body, pos).ok_or(FrameError::Malformed("space name length"))? as usize;
    if len == 0 {
        return Ok(SpaceId::default_space());
    }
    if len > MAX_SPACE_NAME {
        return Err(FrameError::Malformed("space name too long"));
    }
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= body.len())
        .ok_or(FrameError::Malformed("space name bytes"))?;
    let name = std::str::from_utf8(&body[*pos..end])
        .map_err(|_| FrameError::Malformed("space name utf8"))?;
    let space = SpaceId::new(name).map_err(|_| FrameError::Malformed("space name charset"))?;
    *pos = end;
    Ok(space)
}

/// Append an ingest-batch request frame straight from a borrowed slice
/// (what [`Request::IngestBatch`] would encode, without owning the batch).
/// Appending to a caller-owned buffer is the hot path: a connection reuses
/// one send buffer for its whole life, so steady-state encoding allocates
/// nothing (`tests/alloc_reuse.rs` pins this down).
pub fn encode_ingest_batch_into(buf: &mut Vec<u8>, space: &SpaceId, updates: &[Update]) {
    frame_into(buf, Request::TAG_INGEST, |body| {
        put_space(body, space);
        put_updates(body, updates);
    });
}

/// Append a restore request frame straight from borrowed checkpoint bytes.
pub fn encode_restore_into(buf: &mut Vec<u8>, space: &SpaceId, bytes: &[u8]) {
    frame_into(buf, Request::TAG_RESTORE, |body| {
        put_space(body, space);
        body.extend_from_slice(bytes);
    });
}

/// Append a sorted partition-id list: count varint + one varint per id.
fn put_partitions(buf: &mut Vec<u8>, parts: &[u32]) {
    put_uvarint(buf, parts.len() as u64);
    for &p in parts {
        put_uvarint(buf, p as u64);
    }
}

/// Parse a partition-id list (must be sorted and unique — the decode
/// enforces what every encoder in the repo produces, so a hostile peer
/// cannot smuggle duplicate ids past slice bookkeeping).
fn get_partitions(body: &[u8], pos: &mut usize) -> Result<Vec<u32>, FrameError> {
    let count = get_uvarint(body, pos).ok_or(FrameError::Malformed("partition count"))? as usize;
    if count > body.len() {
        return Err(FrameError::Malformed("partition count exceeds body"));
    }
    let mut parts = Vec::with_capacity(bounded_capacity(count));
    let mut last: Option<u32> = None;
    for _ in 0..count {
        let p = get_uvarint(body, pos)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(FrameError::Malformed("partition id"))?;
        if last.is_some_and(|q| q >= p) {
            return Err(FrameError::Malformed("partition ids not sorted unique"));
        }
        last = Some(p);
        parts.push(p);
    }
    Ok(parts)
}

impl Request {
    /// Encode into a complete frame (header + body) addressed to `space`.
    pub fn encode(&self, space: &SpaceId) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(space, &mut buf);
        buf
    }

    /// Append the complete frame to `buf` without intermediate allocations
    /// (bodies are built in place behind a patched length slot).
    pub fn encode_into(&self, space: &SpaceId, buf: &mut Vec<u8>) {
        match self {
            Request::IngestBatch(updates) => encode_ingest_batch_into(buf, space, updates),
            Request::Restore(bytes) => encode_restore_into(buf, space, bytes),
            Request::Certified(mode) => frame_into(buf, Self::TAG_CERTIFIED, |body| {
                put_space(body, space);
                put_read_mode(body, mode);
            }),
            Request::Certify(v, mode) => frame_into(buf, Self::TAG_CERTIFY, |body| {
                put_space(body, space);
                put_uvarint(body, *v as u64);
                put_read_mode(body, mode);
            }),
            Request::Top(k, mode) => frame_into(buf, Self::TAG_TOP, |body| {
                put_space(body, space);
                put_uvarint(body, *k);
                put_read_mode(body, mode);
            }),
            Request::Stats(mode) => frame_into(buf, Self::TAG_STATS, |body| {
                put_space(body, space);
                put_read_mode(body, mode);
            }),
            Request::Checkpoint => frame_into(buf, Self::TAG_CHECKPOINT, |b| put_space(b, space)),
            Request::CreateSpace(spec) => frame_into(buf, Self::TAG_CREATE_SPACE, |body| {
                put_space(body, space);
                put_space_config(body, spec);
            }),
            Request::DropSpace => frame_into(buf, Self::TAG_DROP_SPACE, |b| put_space(b, space)),
            Request::ListSpaces => frame_into(buf, Self::TAG_LIST_SPACES, |b| put_space(b, space)),
            Request::Shutdown => frame_into(buf, Self::TAG_SHUTDOWN, |b| put_space(b, space)),
            Request::Ping => frame_into(buf, Self::TAG_PING, |b| put_space(b, space)),
            Request::NodeHello => frame_into(buf, Self::TAG_NODE_HELLO, |b| put_space(b, space)),
            Request::ViewPull {
                since,
                min_watermark,
            } => frame_into(buf, Self::TAG_VIEW_PULL, |body| {
                put_space(body, space);
                put_uvarint(body, *since);
                put_uvarint(body, *min_watermark);
            }),
            Request::SliceCheckpoint(parts) => {
                frame_into(buf, Self::TAG_SLICE_CHECKPOINT, |body| {
                    put_space(body, space);
                    put_partitions(body, parts);
                })
            }
            Request::SliceRestore(bytes) => frame_into(buf, Self::TAG_SLICE_RESTORE, |body| {
                put_space(body, space);
                body.extend_from_slice(bytes);
            }),
            Request::JoinWorker(addr) => frame_into(buf, Self::TAG_JOIN_WORKER, |body| {
                put_space(body, space);
                put_uvarint(body, addr.len() as u64);
                body.extend_from_slice(addr.as_bytes());
            }),
            Request::ScopedRead { query, mode, parts } => {
                frame_into(buf, Self::TAG_SCOPED_READ, |body| {
                    put_space(body, space);
                    match query {
                        ScopedQuery::Certified => body.push(SCOPED_CERTIFIED),
                        ScopedQuery::Certify(v) => {
                            body.push(SCOPED_CERTIFY);
                            put_uvarint(body, *v as u64);
                        }
                        ScopedQuery::Top(k) => {
                            body.push(SCOPED_TOP);
                            put_uvarint(body, *k);
                        }
                    }
                    put_read_mode(body, mode);
                    put_partitions(body, parts);
                })
            }
        }
    }

    /// Decode from a frame payload (`version + tag + body`, header length
    /// already stripped and validated) into the addressed space and the
    /// request proper.
    pub fn decode(payload: &[u8]) -> Result<(SpaceId, Request), FrameError> {
        Self::decode_with_body(payload).map(|(space, request, _)| (space, request))
    }

    /// [`Request::decode`], also returning the body past its space header
    /// as it arrived. For an ingest batch that is its update section
    /// ([`put_updates`]), which a write-ahead log records verbatim: once
    /// the whole frame has decoded, those bytes decode to exactly the
    /// batch.
    pub fn decode_with_body(payload: &[u8]) -> Result<(SpaceId, Request, &[u8]), FrameError> {
        let (tag, body) = split_payload(payload)?;
        if !Self::known_tag(tag) {
            return Err(FrameError::UnknownTag(tag));
        }
        let mut pos = 0usize;
        let space = get_space(body, &mut pos)?;
        let rest = &body[pos..];
        let req = match tag {
            Self::TAG_INGEST => {
                Request::IngestBatch(get_updates(body, &mut pos).map_err(FrameError::Malformed)?)
            }
            Self::TAG_CERTIFIED => Request::Certified(get_read_mode(body, &mut pos)?),
            Self::TAG_CERTIFY => {
                let v = get_uvarint(body, &mut pos)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or(FrameError::Malformed("certify vertex"))?;
                Request::Certify(v, get_read_mode(body, &mut pos)?)
            }
            Self::TAG_TOP => {
                let k = get_uvarint(body, &mut pos).ok_or(FrameError::Malformed("top k"))?;
                Request::Top(k, get_read_mode(body, &mut pos)?)
            }
            Self::TAG_STATS => Request::Stats(get_read_mode(body, &mut pos)?),
            Self::TAG_CHECKPOINT => Request::Checkpoint,
            Self::TAG_RESTORE => {
                // Everything after the space header is the container.
                let container = body[pos..].to_vec();
                pos = body.len();
                Request::Restore(container)
            }
            Self::TAG_CREATE_SPACE => Request::CreateSpace(
                get_space_config(body, &mut pos).ok_or(FrameError::Malformed("space config"))?,
            ),
            Self::TAG_DROP_SPACE => Request::DropSpace,
            Self::TAG_LIST_SPACES => Request::ListSpaces,
            Self::TAG_SHUTDOWN => Request::Shutdown,
            Self::TAG_PING => Request::Ping,
            Self::TAG_NODE_HELLO => Request::NodeHello,
            Self::TAG_VIEW_PULL => Request::ViewPull {
                since: get_uvarint(body, &mut pos)
                    .ok_or(FrameError::Malformed("view-pull since"))?,
                min_watermark: get_uvarint(body, &mut pos)
                    .ok_or(FrameError::Malformed("view-pull watermark"))?,
            },
            Self::TAG_SLICE_CHECKPOINT => Request::SliceCheckpoint(get_partitions(body, &mut pos)?),
            Self::TAG_SLICE_RESTORE => {
                // Everything after the space header is the slice container.
                let container = body[pos..].to_vec();
                pos = body.len();
                Request::SliceRestore(container)
            }
            Self::TAG_JOIN_WORKER => {
                let len = get_uvarint(body, &mut pos)
                    .ok_or(FrameError::Malformed("worker address length"))?
                    as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= body.len())
                    .ok_or(FrameError::Malformed("worker address bytes"))?;
                let addr = std::str::from_utf8(&body[pos..end])
                    .map_err(|_| FrameError::Malformed("worker address utf8"))?
                    .to_string();
                pos = end;
                Request::JoinWorker(addr)
            }
            Self::TAG_SCOPED_READ => {
                let kind = *body
                    .get(pos)
                    .ok_or(FrameError::Malformed("scoped-read kind"))?;
                pos += 1;
                let mut arg = |what| get_uvarint(body, &mut pos).ok_or(FrameError::Malformed(what));
                let query = match kind {
                    SCOPED_CERTIFIED => ScopedQuery::Certified,
                    SCOPED_CERTIFY => ScopedQuery::Certify(
                        u32::try_from(arg("scoped-read vertex")?)
                            .map_err(|_| FrameError::Malformed("scoped-read vertex"))?,
                    ),
                    SCOPED_TOP => ScopedQuery::Top(arg("scoped-read k")?),
                    _ => return Err(FrameError::Malformed("scoped-read kind")),
                };
                let mode = get_read_mode(body, &mut pos)?;
                let parts = get_partitions(body, &mut pos)?;
                if parts.is_empty() {
                    return Err(FrameError::Malformed("scoped read names no partition"));
                }
                Request::ScopedRead { query, mode, parts }
            }
            _ => unreachable!("known_tag checked above"),
        };
        if pos != body.len() {
            return Err(FrameError::Malformed("trailing bytes"));
        }
        Ok((space, req, rest))
    }
}

fn put_node_info(buf: &mut Vec<u8>, info: &WireNodeInfo) {
    for v in [
        info.model,
        info.seed,
        info.partitions,
        info.n,
        info.m,
        info.d,
        info.alpha,
        info.ingested,
    ] {
        put_uvarint(buf, v);
    }
}

fn get_node_info(body: &[u8], pos: &mut usize) -> Option<WireNodeInfo> {
    let mut next = || get_uvarint(body, pos);
    Some(WireNodeInfo {
        model: next()?,
        seed: next()?,
        partitions: next()?,
        n: next()?,
        m: next()?,
        d: next()?,
        alpha: next()?,
        ingested: next()?,
    })
}

const SCOPED_CERTIFIED: u8 = 0;
const SCOPED_CERTIFY: u8 = 1;
const SCOPED_TOP: u8 = 2;

const VIEW_KIND_UNCHANGED: u8 = 0;
const VIEW_KIND_IO: u8 = 1;
const VIEW_KIND_ID: u8 = 2;

fn put_view(buf: &mut Vec<u8>, view: &WireView) {
    put_uvarint(buf, view.epoch());
    match view {
        WireView::Unchanged { .. } => buf.push(VIEW_KIND_UNCHANGED),
        WireView::InsertOnly { parts, .. } => {
            buf.push(VIEW_KIND_IO);
            put_uvarint(buf, parts.len() as u64);
            for (p, bytes) in parts {
                put_uvarint(buf, *p as u64);
                put_uvarint(buf, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            }
        }
        WireView::InsertDelete { pooled, .. } => {
            buf.push(VIEW_KIND_ID);
            put_uvarint(buf, pooled.len() as u64);
            for (a, ws) in pooled {
                put_uvarint(buf, *a as u64);
                put_uvarint(buf, ws.len() as u64);
                for &w in ws {
                    put_uvarint(buf, w);
                }
            }
        }
    }
}

fn get_view(body: &[u8], pos: &mut usize) -> Option<WireView> {
    let epoch = get_uvarint(body, pos)?;
    let kind = *body.get(*pos)?;
    *pos += 1;
    match kind {
        VIEW_KIND_UNCHANGED => Some(WireView::Unchanged { epoch }),
        VIEW_KIND_IO => {
            let count = get_uvarint(body, pos)? as usize;
            if count > body.len() {
                return None; // each part needs ≥ 2 bytes
            }
            let mut parts = Vec::with_capacity(bounded_capacity(count));
            let mut last: Option<u32> = None;
            for _ in 0..count {
                let p = u32::try_from(get_uvarint(body, pos)?).ok()?;
                if last.is_some_and(|q| q >= p) {
                    return None; // partitions must be sorted and unique
                }
                last = Some(p);
                let len = get_uvarint(body, pos)? as usize;
                let end = pos.checked_add(len).filter(|&e| e <= body.len())?;
                parts.push((p, body[*pos..end].to_vec()));
                *pos = end;
            }
            Some(WireView::InsertOnly { epoch, parts })
        }
        VIEW_KIND_ID => {
            let count = get_uvarint(body, pos)? as usize;
            if count > body.len() {
                return None;
            }
            let mut pooled = Vec::with_capacity(bounded_capacity(count));
            let mut last: Option<u32> = None;
            for _ in 0..count {
                let a = u32::try_from(get_uvarint(body, pos)?).ok()?;
                if last.is_some_and(|q| q >= a) {
                    return None; // vertices must be sorted and unique
                }
                last = Some(a);
                let wcount = get_uvarint(body, pos)? as usize;
                if wcount > body.len() - (*pos).min(body.len()) {
                    return None; // each witness needs ≥ 1 byte
                }
                let mut ws = Vec::with_capacity(bounded_capacity(wcount));
                for _ in 0..wcount {
                    ws.push(get_uvarint(body, pos)?);
                }
                pooled.push((a, ws));
            }
            Some(WireView::InsertDelete { epoch, pooled })
        }
        _ => None,
    }
}

fn put_space_info(buf: &mut Vec<u8>, info: &WireSpaceInfo) {
    put_uvarint(buf, info.name.len() as u64);
    buf.extend_from_slice(info.name.as_bytes());
    put_space_config(buf, &info.spec);
    put_uvarint(buf, info.space_bytes);
    put_uvarint(buf, info.wal_bytes);
}

fn get_space_info(body: &[u8], pos: &mut usize) -> Option<WireSpaceInfo> {
    let len = get_uvarint(body, pos)? as usize;
    if len > MAX_SPACE_NAME {
        return None;
    }
    let end = pos.checked_add(len).filter(|&e| e <= body.len())?;
    let name = std::str::from_utf8(&body[*pos..end]).ok()?.to_string();
    *pos = end;
    let spec = get_space_config(body, pos)?;
    let space_bytes = get_uvarint(body, pos)?;
    let wal_bytes = get_uvarint(body, pos)?;
    Some(WireSpaceInfo {
        name,
        spec,
        space_bytes,
        wal_bytes,
    })
}

impl Response {
    /// Encode into a complete frame (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the complete frame to `buf` without intermediate allocations —
    /// even a multi-MB checkpoint body is written straight into the caller's
    /// buffer behind the patched length slot.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Checkpoint(bytes) => frame_into(buf, Self::TAG_CHECKPOINT, |body| {
                body.extend_from_slice(bytes);
            }),
            Response::Ingested { count, watermark } => {
                frame_into(buf, Self::TAG_INGESTED, |body| {
                    put_uvarint(body, *count);
                    put_uvarint(body, *watermark);
                })
            }
            Response::Answer(nb) => frame_into(buf, Self::TAG_ANSWER, |body| {
                put_option_neighbourhood(body, nb);
            }),
            Response::Top(list) => frame_into(buf, Self::TAG_TOP, |body| {
                put_uvarint(body, list.len() as u64);
                for nb in list {
                    put_neighbourhood(body, nb);
                }
            }),
            Response::Stats(stats) => frame_into(buf, Self::TAG_STATS, |body| {
                put_uvarint(body, stats.ingested);
                put_uvarint(body, stats.uptime_micros);
                put_uvarint(body, stats.witness_target);
                put_uvarint(body, stats.space_bytes);
                put_uvarint(body, stats.wal_bytes);
                put_uvarint(body, stats.quota_bytes);
                for v in [
                    stats.overload.shed_ingest,
                    stats.overload.shed_reads,
                    stats.overload.shed_conns,
                    stats.overload.inflight_updates,
                    stats.overload.inflight_bytes,
                    stats.overload.lag_updates,
                    stats.overload.lag_ms,
                ] {
                    put_uvarint(body, v);
                }
                put_uvarint(body, stats.shards.len() as u64);
                for s in &stats.shards {
                    put_uvarint(body, s.partitions);
                    put_uvarint(body, s.processed);
                    put_uvarint(body, s.batches);
                    put_uvarint(body, s.space_bytes);
                }
            }),
            Response::Restored => frame_into(buf, Self::TAG_RESTORED, |_| {}),
            Response::SpaceOk => frame_into(buf, Self::TAG_SPACE_OK, |_| {}),
            Response::Spaces(list) => frame_into(buf, Self::TAG_SPACES, |body| {
                put_uvarint(body, list.len() as u64);
                for info in list {
                    put_space_info(body, info);
                }
            }),
            Response::Bye => frame_into(buf, Self::TAG_BYE, |_| {}),
            Response::Pong => frame_into(buf, Self::TAG_PONG, |_| {}),
            Response::NodeInfo(info) => frame_into(buf, Self::TAG_NODE_INFO, |body| {
                put_node_info(body, info);
            }),
            Response::View(view) => frame_into(buf, Self::TAG_VIEW, |body| {
                put_view(body, view);
            }),
            Response::CertifiedIn(answer) => {
                frame_into(buf, Self::TAG_CERTIFIED_IN, |body| match answer {
                    None => body.push(0),
                    Some((run, nb)) => {
                        body.push(1);
                        put_uvarint(body, *run as u64);
                        put_neighbourhood(body, nb);
                    }
                })
            }
            Response::TopIn(list) => frame_into(buf, Self::TAG_TOP_IN, |body| {
                put_uvarint(body, list.len() as u64);
                for (count, nb) in list {
                    put_uvarint(body, *count);
                    put_neighbourhood(body, nb);
                }
            }),
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => frame_into(buf, Self::TAG_ERROR, |body| {
                body.push(*code as u8);
                put_uvarint(body, message.len() as u64);
                body.extend_from_slice(message.as_bytes());
                if *retry_after_ms > 0 {
                    put_uvarint(body, *retry_after_ms);
                }
            }),
        }
    }

    /// Decode from a frame payload (header length already stripped).
    pub fn decode(payload: &[u8]) -> Result<Response, FrameError> {
        let (tag, body) = split_payload(payload)?;
        let mut pos = 0usize;
        let resp = match tag {
            Self::TAG_INGESTED => Response::Ingested {
                count: get_uvarint(body, &mut pos)
                    .ok_or(FrameError::Malformed("ingested count"))?,
                watermark: get_uvarint(body, &mut pos)
                    .ok_or(FrameError::Malformed("ingested watermark"))?,
            },
            Self::TAG_ANSWER => Response::Answer(
                get_option_neighbourhood(body, &mut pos)
                    .ok_or(FrameError::Malformed("answer neighbourhood"))?,
            ),
            Self::TAG_TOP => {
                let count =
                    get_uvarint(body, &mut pos).ok_or(FrameError::Malformed("top count"))? as usize;
                if count > body.len() {
                    return Err(FrameError::Malformed("top count exceeds body"));
                }
                let mut list = Vec::with_capacity(bounded_capacity(count));
                for _ in 0..count {
                    list.push(
                        get_neighbourhood(body, &mut pos)
                            .ok_or(FrameError::Malformed("top neighbourhood"))?,
                    );
                }
                Response::Top(list)
            }
            Self::TAG_STATS => {
                let mut next =
                    |what| get_uvarint(body, &mut pos).ok_or(FrameError::Malformed(what));
                let ingested = next("stats ingested")?;
                let uptime_micros = next("stats uptime")?;
                let witness_target = next("stats d2")?;
                let space_bytes = next("stats space bytes")?;
                let wal_bytes = next("stats wal bytes")?;
                let quota_bytes = next("stats quota bytes")?;
                let overload = WireOverload {
                    shed_ingest: next("stats shed ingest")?,
                    shed_reads: next("stats shed reads")?,
                    shed_conns: next("stats shed conns")?,
                    inflight_updates: next("stats inflight updates")?,
                    inflight_bytes: next("stats inflight bytes")?,
                    lag_updates: next("stats lag updates")?,
                    lag_ms: next("stats lag ms")?,
                };
                let count = next("stats shard count")? as usize;
                if count > body.len() {
                    return Err(FrameError::Malformed("shard count exceeds body"));
                }
                let mut shards = Vec::with_capacity(bounded_capacity(count));
                for _ in 0..count {
                    let mut next =
                        || get_uvarint(body, &mut pos).ok_or(FrameError::Malformed("shard stats"));
                    shards.push(WireShardStats {
                        partitions: next()?,
                        processed: next()?,
                        batches: next()?,
                        space_bytes: next()?,
                    });
                }
                Response::Stats(WireStats {
                    ingested,
                    uptime_micros,
                    witness_target,
                    space_bytes,
                    wal_bytes,
                    quota_bytes,
                    overload,
                    shards,
                })
            }
            Self::TAG_CHECKPOINT => {
                pos = body.len();
                Response::Checkpoint(body.to_vec())
            }
            Self::TAG_RESTORED => Response::Restored,
            Self::TAG_SPACE_OK => Response::SpaceOk,
            Self::TAG_SPACES => {
                let count = get_uvarint(body, &mut pos)
                    .ok_or(FrameError::Malformed("space count"))?
                    as usize;
                if count > body.len() {
                    return Err(FrameError::Malformed("space count exceeds body"));
                }
                let mut list = Vec::with_capacity(bounded_capacity(count));
                for _ in 0..count {
                    list.push(
                        get_space_info(body, &mut pos)
                            .ok_or(FrameError::Malformed("space info"))?,
                    );
                }
                Response::Spaces(list)
            }
            Self::TAG_BYE => Response::Bye,
            Self::TAG_PONG => Response::Pong,
            Self::TAG_NODE_INFO => Response::NodeInfo(
                get_node_info(body, &mut pos).ok_or(FrameError::Malformed("node info"))?,
            ),
            Self::TAG_VIEW => {
                Response::View(get_view(body, &mut pos).ok_or(FrameError::Malformed("view"))?)
            }
            Self::TAG_CERTIFIED_IN => {
                let present = *body
                    .get(pos)
                    .ok_or(FrameError::Malformed("certified-in presence"))?;
                pos += 1;
                Response::CertifiedIn(match present {
                    0 => None,
                    1 => {
                        let run = get_uvarint(body, &mut pos)
                            .and_then(|r| u32::try_from(r).ok())
                            .ok_or(FrameError::Malformed("certified-in run"))?;
                        let nb = get_neighbourhood(body, &mut pos)
                            .ok_or(FrameError::Malformed("certified-in neighbourhood"))?;
                        Some((run, nb))
                    }
                    _ => return Err(FrameError::Malformed("certified-in presence")),
                })
            }
            Self::TAG_TOP_IN => {
                let count = get_uvarint(body, &mut pos)
                    .ok_or(FrameError::Malformed("top-in count"))?
                    as usize;
                if count > body.len() {
                    return Err(FrameError::Malformed("top-in count exceeds body"));
                }
                let mut list = Vec::with_capacity(bounded_capacity(count));
                for _ in 0..count {
                    let rank = get_uvarint(body, &mut pos)
                        .ok_or(FrameError::Malformed("top-in witness count"))?;
                    let nb = get_neighbourhood(body, &mut pos)
                        .ok_or(FrameError::Malformed("top-in neighbourhood"))?;
                    list.push((rank, nb));
                }
                Response::TopIn(list)
            }
            Self::TAG_ERROR => {
                let code = *body.get(pos).ok_or(FrameError::Malformed("error code"))?;
                pos += 1;
                let code = ErrorCode::from_u8(code).ok_or(FrameError::Malformed("error code"))?;
                let len =
                    get_uvarint(body, &mut pos).ok_or(FrameError::Malformed("error length"))?;
                let end = pos
                    .checked_add(len as usize)
                    .filter(|&e| e <= body.len())
                    .ok_or(FrameError::Malformed("error message"))?;
                let message = std::str::from_utf8(&body[pos..end])
                    .map_err(|_| FrameError::Malformed("error message utf8"))?
                    .to_string();
                pos = end;
                // The backoff hint is an optional trailing varint: absent on
                // hint-less frames, so its decode never rejects older shapes.
                let retry_after_ms = if pos < body.len() {
                    get_uvarint(body, &mut pos).ok_or(FrameError::Malformed("error retry hint"))?
                } else {
                    0
                };
                Response::Error {
                    code,
                    message,
                    retry_after_ms,
                }
            }
            other => return Err(FrameError::UnknownTag(other)),
        };
        if pos != body.len() {
            return Err(FrameError::Malformed("trailing bytes"));
        }
        Ok(resp)
    }
}

/// Whether a body of `body_len` bytes fits in one frame. Senders of
/// unbounded payloads (checkpoints, large ingest batches, answers) must
/// check this before encoding — [`Request::encode`]/[`Response::encode`]
/// treat an oversized body as a programming error.
pub fn body_fits(body_len: usize) -> bool {
    body_len.saturating_add(2) <= MAX_FRAME
}

/// Worst-case body bytes of an answer frame carrying neighbourhoods with
/// these witness counts, every varint at full width: the size
/// [`Response::bounded`] checks with [`body_fits`] before an answer is
/// encoded.
pub fn answer_bound(witness_counts: impl IntoIterator<Item = usize>) -> usize {
    // A list count; per neighbourhood a presence byte, a run index or rank
    // count, a vertex and a witness count, then ten bytes per witness.
    witness_counts.into_iter().fold(10, |bound, w| {
        bound
            .saturating_add(21)
            .saturating_add(w.saturating_mul(10))
    })
}

impl Response {
    /// This response, or a typed [`ErrorCode::Oversized`] error when it is
    /// an answer ([`Response::Answer`], [`Response::Top`],
    /// [`Response::CertifiedIn`], [`Response::TopIn`]) or a checkpoint
    /// whose body could need more than one frame. Every answer and
    /// checkpoint download passes through here before it is encoded, on a
    /// node and on a router, so a large `top k` is refused, never a panic
    /// in the codec.
    pub fn bounded(self) -> Response {
        let bound = match &self {
            Response::Checkpoint(bytes) if !body_fits(bytes.len()) => {
                return Response::error(
                    ErrorCode::Oversized,
                    format!(
                        "checkpoint is {} bytes, larger than one frame can carry",
                        bytes.len()
                    ),
                );
            }
            Response::Answer(nb) => answer_bound(nb.iter().map(|nb| nb.witnesses.len())),
            Response::CertifiedIn(answer) => {
                answer_bound(answer.iter().map(|(_, nb)| nb.witnesses.len()))
            }
            Response::Top(list) => answer_bound(list.iter().map(|nb| nb.witnesses.len())),
            Response::TopIn(list) => answer_bound(list.iter().map(|(_, nb)| nb.witnesses.len())),
            _ => return self,
        };
        if body_fits(bound) {
            return self;
        }
        Response::error(
            ErrorCode::Oversized,
            format!("the answer may need {bound} bytes, more than one frame carries; ask for less"),
        )
    }
}

/// Append a complete frame — `[len u32 LE][version][tag][body]` — to `buf`:
/// a 4-byte length slot is reserved, the body is built in place by `build`,
/// and the slot is patched afterwards. No temporary body buffer exists, so
/// encoding into a warm (pre-grown) buffer performs zero allocations.
fn frame_into(buf: &mut Vec<u8>, tag: u8, build: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, VERSION, tag]);
    build(buf);
    let len = buf.len() - start - 4;
    assert!(len <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Validate the version byte and split `payload` into `(tag, body)`.
fn split_payload(payload: &[u8]) -> Result<(u8, &[u8]), FrameError> {
    if payload.len() < 2 {
        return Err(FrameError::Oversized(payload.len() as u64));
    }
    if payload[0] != VERSION {
        return Err(FrameError::UnsupportedVersion(payload[0]));
    }
    Ok((payload[1], &payload[2..]))
}

/// Check a declared frame length against the protocol bounds.
pub fn check_frame_len(len: u64) -> Result<usize, FrameError> {
    if !(2..=MAX_FRAME as u64).contains(&len) {
        return Err(FrameError::Oversized(len));
    }
    Ok(len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request_in(space: &SpaceId, req: Request) {
        let bytes = req.encode(space);
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        let (got_space, got_req) = Request::decode(&bytes[4..]).unwrap();
        assert_eq!(&got_space, space);
        assert_eq!(got_req, req);
    }

    fn roundtrip_request(req: Request) {
        roundtrip_request_in(&SpaceId::default_space(), req.clone());
        roundtrip_request_in(&SpaceId::new("tenant-7.a").unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        assert_eq!(Response::decode(&bytes[4..]).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::IngestBatch(vec![
            Update::insert(Edge::new(3, 900)),
            Update::delete(Edge::new(0, u64::MAX / 3)),
        ]));
        roundtrip_request(Request::IngestBatch(Vec::new()));
        roundtrip_request(Request::Certified(ReadMode::Stale));
        roundtrip_request(Request::Certified(ReadMode::AtLeast(0)));
        roundtrip_request(Request::Certified(ReadMode::AtLeast(u64::MAX)));
        roundtrip_request(Request::Certify(u32::MAX, ReadMode::AtLeast(7)));
        roundtrip_request(Request::Certify(0, ReadMode::Stale));
        roundtrip_request(Request::Top(17, ReadMode::AtLeast(900)));
        roundtrip_request(Request::Stats(ReadMode::Stale));
        roundtrip_request(Request::Stats(ReadMode::AtLeast(3)));
        roundtrip_request(Request::Checkpoint);
        roundtrip_request(Request::Restore(vec![1, 2, 3, 255]));
        roundtrip_request(Request::CreateSpace(
            SpaceConfig::insert_delete(64, 1 << 14, 10, 2, 0.1).with_quota(1 << 30),
        ));
        roundtrip_request(Request::DropSpace);
        roundtrip_request(Request::ListSpaces);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::NodeHello);
        roundtrip_request(Request::ViewPull {
            since: u64::MAX,
            min_watermark: 0,
        });
        roundtrip_request(Request::ViewPull {
            since: 3,
            min_watermark: u64::MAX / 7,
        });
        for (query, mode) in [
            (ScopedQuery::Certified, ReadMode::Stale),
            (ScopedQuery::Certify(u32::MAX), ReadMode::AtLeast(0)),
            (ScopedQuery::Top(u64::MAX), ReadMode::AtLeast(u64::MAX)),
        ] {
            roundtrip_request(Request::ScopedRead {
                query,
                mode,
                parts: vec![0, 3, 9],
            });
        }
        roundtrip_request(Request::ScopedRead {
            query: ScopedQuery::Top(3),
            mode: ReadMode::AtLeast(41),
            parts: vec![u32::MAX],
        });
        roundtrip_request(Request::SliceCheckpoint(vec![1, 2]));
        roundtrip_request(Request::SliceRestore(b"FEWWSLC1junk".to_vec()));
        roundtrip_request(Request::JoinWorker("10.0.0.7:7411".into()));
    }

    #[test]
    fn cluster_requests_police_damage() {
        // A scoped read's partition list must be sorted, unique and
        // non-empty. Default space, `certified`, a stale read, the list.
        let scoped = |parts: &[u64]| {
            let mut payload = vec![VERSION, 0x13, 0x00, 0x00, 0x00];
            put_uvarint(&mut payload, parts.len() as u64);
            for &p in parts {
                put_uvarint(&mut payload, p);
            }
            Request::decode(&payload)
        };
        for parts in [[3u64, 1], [2, 2]] {
            assert_eq!(
                scoped(&parts),
                Err(FrameError::Malformed("partition ids not sorted unique"))
            );
        }
        assert_eq!(
            scoped(&[]),
            Err(FrameError::Malformed("scoped read names no partition"))
        );
        assert!(scoped(&[1, 2]).is_ok());
        // An unknown scoped query kind is malformed.
        let mut payload = vec![VERSION, 0x13, 0x00, 0x07, 0x00];
        put_partitions(&mut payload, &[1]);
        assert_eq!(
            Request::decode(&payload),
            Err(FrameError::Malformed("scoped-read kind"))
        );
        // A view pull carries no list: one is trailing bytes.
        let mut payload = vec![VERSION, 0x0F, 0x00, 0x00, 0x00];
        put_partitions(&mut payload, &[1]);
        assert_eq!(
            Request::decode(&payload),
            Err(FrameError::Malformed("trailing bytes"))
        );
        // Partition count far beyond the body size must not allocate.
        let mut payload = vec![VERSION, 0x10, 0x00];
        put_uvarint(&mut payload, u64::MAX);
        assert!(matches!(
            Request::decode(&payload),
            Err(FrameError::Malformed(_))
        ));
        // The retired slice-assign tag is unknown, like any unused tag.
        let mut payload = vec![VERSION, 0x0E, 0x00];
        put_uvarint(&mut payload, 0);
        assert_eq!(Request::decode(&payload), Err(FrameError::UnknownTag(0x0E)));
        // Join-worker address running past the body.
        let mut payload = vec![VERSION, 0x12, 0x00];
        put_uvarint(&mut payload, 50);
        payload.extend_from_slice(b"short");
        assert!(matches!(
            Request::decode(&payload),
            Err(FrameError::Malformed("worker address bytes"))
        ));
    }

    #[test]
    fn default_space_header_is_one_byte() {
        // Steady-state single-tenant overhead vs protocol v1 is exactly one
        // 0x00 space byte after the tag, plus the query read mode (a stale
        // read costs one byte, a watermarked read two).
        let bytes = Request::Certified(ReadMode::Stale).encode(&SpaceId::default_space());
        assert_eq!(&bytes[4..], &[VERSION, 0x02, 0x00, 0x00]);
        let bytes = Request::Certified(ReadMode::AtLeast(5)).encode(&SpaceId::default_space());
        assert_eq!(&bytes[4..], &[VERSION, 0x02, 0x00, 0x01, 0x05]);
        // And the explicit name decodes to the same space.
        let mut named = vec![VERSION, 0x02];
        put_uvarint(&mut named, 7);
        named.extend_from_slice(b"default");
        named.push(0x00); // stale read mode
        let (space, req) = Request::decode(&named).unwrap();
        assert!(space.is_default());
        assert_eq!(req, Request::Certified(ReadMode::Stale));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Ingested {
            count: 12,
            watermark: 0,
        });
        roundtrip_response(Response::Ingested {
            count: 0,
            watermark: u64::MAX,
        });
        roundtrip_response(Response::Answer(None));
        roundtrip_response(Response::Answer(Some(Neighbourhood::new(7, vec![9, 2, 2]))));
        roundtrip_response(Response::Top(vec![
            Neighbourhood::new(1, vec![5]),
            Neighbourhood::new(2, Vec::new()),
        ]));
        roundtrip_response(Response::Stats(WireStats {
            ingested: 1000,
            uptime_micros: 5_000_000,
            witness_target: 8,
            space_bytes: (1 << 20) + (1 << 19),
            wal_bytes: 4096,
            quota_bytes: 1 << 30,
            overload: WireOverload {
                shed_ingest: 17,
                shed_reads: 3,
                shed_conns: 1,
                inflight_updates: 512,
                inflight_bytes: 4096,
                lag_updates: 900,
                lag_ms: 120,
            },
            shards: vec![
                WireShardStats {
                    partitions: 4,
                    processed: 600,
                    batches: 3,
                    space_bytes: 1 << 20,
                },
                WireShardStats {
                    partitions: 4,
                    processed: 400,
                    batches: 2,
                    space_bytes: 1 << 19,
                },
            ],
        }));
        roundtrip_response(Response::Checkpoint(b"FEWWCKP1junk".to_vec()));
        roundtrip_response(Response::Restored);
        roundtrip_response(Response::SpaceOk);
        roundtrip_response(Response::Spaces(vec![
            WireSpaceInfo {
                name: "default".into(),
                spec: SpaceConfig::insert_only(64, 10, 2),
                space_bytes: 512,
                wal_bytes: 0,
            },
            WireSpaceInfo {
                name: "tenant-1".into(),
                spec: SpaceConfig::insert_delete(64, 1 << 12, 10, 2, 0.05),
                space_bytes: 4096,
                wal_bytes: 96,
            },
        ]));
        roundtrip_response(Response::Bye);
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::NodeInfo(WireNodeInfo {
            model: 1,
            seed: 2021,
            partitions: 16,
            n: 512,
            m: 1 << 20,
            d: 400,
            alpha: 2,
            ingested: 123_456,
        }));
        roundtrip_response(Response::View(WireView::Unchanged { epoch: 42 }));
        roundtrip_response(Response::View(WireView::InsertOnly {
            epoch: 7,
            parts: vec![(0, vec![1, 2, 3]), (5, Vec::new()), (9, vec![0xFF; 40])],
        }));
        roundtrip_response(Response::View(WireView::InsertDelete {
            epoch: 9,
            pooled: vec![(3, vec![17, 2]), (8, Vec::new())],
        }));
        roundtrip_response(Response::CertifiedIn(None));
        roundtrip_response(Response::TopIn(Vec::new()));
        roundtrip_response(Response::TopIn(vec![
            (u64::MAX, Neighbourhood::new(3, vec![1, 2])),
            (2, Neighbourhood::new(0, Vec::new())),
        ]));
        roundtrip_response(Response::CertifiedIn(Some((
            1,
            Neighbourhood::new(u32::MAX, vec![4, u64::MAX]),
        ))));
        roundtrip_response(Response::error(
            ErrorCode::QuotaExceeded,
            "space tenant-1 over quota".into(),
        ));
        roundtrip_response(Response::error(
            ErrorCode::NodeUnavailable,
            "node 127.0.0.1:7431 is down".into(),
        ));
        roundtrip_response(Response::overloaded(
            "in-flight ingest budget exhausted".into(),
            250,
        ));
        roundtrip_response(Response::overloaded(String::new(), u64::MAX));
    }

    #[test]
    fn error_retry_hint_is_optional_on_the_wire() {
        // A hint-less frame omits the trailing varint entirely…
        let bytes = Response::error(ErrorCode::Durability, "disk".into()).encode();
        let hinted = Response::overloaded("disk".into(), 40).encode();
        assert_eq!(hinted.len(), bytes.len() + 1);
        // …and a hand-built frame without the hint decodes to retry 0, so
        // the extension rejects nothing an older encoder produced.
        let mut payload = vec![VERSION, 0xFF, 15];
        put_uvarint(&mut payload, 2);
        payload.extend_from_slice(b"hi");
        assert_eq!(
            Response::decode(&payload).unwrap(),
            Response::error(ErrorCode::Overloaded, "hi".into())
        );
    }

    #[test]
    fn view_frames_police_damage() {
        // Unknown view kind byte.
        let mut payload = vec![VERSION, 0x8C];
        put_uvarint(&mut payload, 1); // epoch
        payload.push(9); // bogus kind
        assert!(matches!(
            Response::decode(&payload),
            Err(FrameError::Malformed("view"))
        ));
        // Io part length running past the body.
        let mut payload = vec![VERSION, 0x8C];
        put_uvarint(&mut payload, 1);
        payload.push(1); // io
        put_uvarint(&mut payload, 1); // one part
        put_uvarint(&mut payload, 0); // partition 0
        put_uvarint(&mut payload, 100); // declared 100 payload bytes
        payload.push(0xAA);
        assert!(matches!(
            Response::decode(&payload),
            Err(FrameError::Malformed("view"))
        ));
        // Unsorted io partitions.
        let mut payload = vec![VERSION, 0x8C];
        put_uvarint(&mut payload, 1);
        payload.push(1);
        put_uvarint(&mut payload, 2);
        for p in [4u64, 2] {
            put_uvarint(&mut payload, p);
            put_uvarint(&mut payload, 0);
        }
        assert!(matches!(
            Response::decode(&payload),
            Err(FrameError::Malformed("view"))
        ));
        // Id witness count far beyond the body must not allocate.
        let mut payload = vec![VERSION, 0x8C];
        put_uvarint(&mut payload, 1);
        payload.push(2); // id
        put_uvarint(&mut payload, 1); // one vertex
        put_uvarint(&mut payload, 3); // vertex 3
        put_uvarint(&mut payload, u64::MAX); // witness count
        assert!(matches!(
            Response::decode(&payload),
            Err(FrameError::Malformed("view"))
        ));
    }

    #[test]
    fn version_and_tag_are_policed() {
        let certified = Request::Certified(ReadMode::Stale);
        let mut bytes = certified.encode(&SpaceId::default_space());
        bytes[4] = 9; // version byte
        assert_eq!(
            Request::decode(&bytes[4..]),
            Err(FrameError::UnsupportedVersion(9))
        );
        // The shipped v1 version byte gets the same clean rejection.
        let mut bytes = certified.encode(&SpaceId::default_space());
        bytes[4] = 1;
        assert_eq!(
            Request::decode(&bytes[4..]),
            Err(FrameError::UnsupportedVersion(1))
        );
        // An unknown tag reports UnknownTag even though the space header
        // never got parsed.
        let mut bytes = certified.encode(&SpaceId::default_space());
        bytes[5] = 0x60; // tag byte
        assert_eq!(
            Request::decode(&bytes[4..]),
            Err(FrameError::UnknownTag(0x60))
        );
    }

    #[test]
    fn space_headers_are_policed() {
        // Space name longer than the cap.
        let mut payload = vec![VERSION, 0x02];
        put_uvarint(&mut payload, (MAX_SPACE_NAME + 1) as u64);
        payload.extend(std::iter::repeat_n(b'a', MAX_SPACE_NAME + 1));
        assert_eq!(
            Request::decode(&payload),
            Err(FrameError::Malformed("space name too long"))
        );
        // Length that runs past the body.
        let mut payload = vec![VERSION, 0x02];
        put_uvarint(&mut payload, 5);
        payload.extend_from_slice(b"ab");
        assert_eq!(
            Request::decode(&payload),
            Err(FrameError::Malformed("space name bytes"))
        );
        // Charset violation.
        let mut payload = vec![VERSION, 0x02];
        put_uvarint(&mut payload, 3);
        payload.extend_from_slice(b"A B");
        assert_eq!(
            Request::decode(&payload),
            Err(FrameError::Malformed("space name charset"))
        );
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        // Truncated varint where the space header should be.
        assert!(matches!(
            Request::decode(&[VERSION, 0x03, 0x80]),
            Err(FrameError::Malformed(_))
        ));
        // Trailing bytes after a complete request.
        assert!(matches!(
            Request::decode(&[VERSION, 0x02, 0x00, 0x00, 0x00]),
            Err(FrameError::Malformed("trailing bytes"))
        ));
        // A query with no read mode byte is malformed, as is an unknown mode.
        assert!(matches!(
            Request::decode(&[VERSION, 0x02, 0x00]),
            Err(FrameError::Malformed("read mode"))
        ));
        assert!(matches!(
            Request::decode(&[VERSION, 0x02, 0x00, 0x09]),
            Err(FrameError::Malformed("read mode"))
        ));
        // A watermarked read mode with a truncated watermark varint.
        assert!(matches!(
            Request::decode(&[VERSION, 0x02, 0x00, 0x01, 0x80]),
            Err(FrameError::Malformed("read-mode watermark"))
        ));
        // Ingest count far beyond the body size must not allocate/overrun.
        let mut payload = vec![VERSION, 0x01, 0x00];
        put_uvarint(&mut payload, u64::MAX);
        assert!(matches!(
            Request::decode(&payload),
            Err(FrameError::Malformed(_))
        ));
        // Bad sign byte.
        let mut payload = vec![VERSION, 0x01, 0x00];
        put_uvarint(&mut payload, 1);
        put_uvarint(&mut payload, 0);
        put_uvarint(&mut payload, 0);
        payload.push(7);
        assert!(matches!(
            Request::decode(&payload),
            Err(FrameError::Malformed("update sign byte"))
        ));
        // CreateSpace with an invalid config (n = 0) is malformed.
        let mut payload = vec![VERSION, 0x09];
        put_uvarint(&mut payload, 1);
        payload.push(b's');
        let bad = SpaceConfig {
            n: 0,
            ..SpaceConfig::insert_only(8, 4, 2)
        };
        put_space_config(&mut payload, &bad);
        assert!(matches!(
            Request::decode(&payload),
            Err(FrameError::Malformed("space config"))
        ));
    }

    #[test]
    fn answers_past_one_frame_are_typed_oversized() {
        // The bound counts every varint at full width.
        assert!(body_fits(answer_bound([3, 1024, 0])));
        assert!(!body_fits(answer_bound([MAX_FRAME / 10])));
        assert!(!body_fits(answer_bound(std::iter::repeat_n(
            0,
            MAX_FRAME / 21
        ))));
        // A synthetic answer past one frame: zeroed witness pages are never
        // touched, since the bound reads only the list lengths.
        let huge = || Neighbourhood {
            vertex: 1,
            witnesses: vec![0; MAX_FRAME / 10],
        };
        for answer in [
            Response::Top(vec![Neighbourhood::new(2, vec![7]), huge()]),
            Response::Answer(Some(huge())),
            Response::CertifiedIn(Some((0, huge()))),
            Response::TopIn(vec![(3, huge())]),
        ] {
            assert!(matches!(
                answer.bounded(),
                Response::Error {
                    code: ErrorCode::Oversized,
                    ..
                }
            ));
        }
        // Answers that fit, and every other response, pass unchanged.
        let small = Response::Top(vec![Neighbourhood::new(2, vec![7, 9])]);
        assert_eq!(small.clone().bounded(), small);
        assert_eq!(Response::Pong.bounded(), Response::Pong);
    }

    #[test]
    fn frame_length_bounds() {
        assert!(check_frame_len(0).is_err());
        assert!(check_frame_len(1).is_err());
        assert_eq!(check_frame_len(2), Ok(2));
        assert_eq!(check_frame_len(MAX_FRAME as u64), Ok(MAX_FRAME));
        assert!(check_frame_len(MAX_FRAME as u64 + 1).is_err());
        assert!(check_frame_len(u64::MAX).is_err());
    }
}
