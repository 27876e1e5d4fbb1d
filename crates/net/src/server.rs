//! The threaded TCP server: the connection core ([`crate::serve`]: one
//! acceptor, one worker thread per connection) in front of a *space
//! registry* — every tenant space owns its own [`Engine`] behind its own
//! mutex, plus a published, lock-free query snapshot.
//!
//! **Spaces are isolation domains.** The registry is a
//! `RwLock<HashMap<SpaceId, Arc<SpaceHandle>>>`: request dispatch takes the
//! read lock just long enough to clone one space's `Arc`, so traffic in one
//! space never contends with another space's engine lock, and
//! `create-space` / `drop-space` (write lock) are the only registry writers.
//! Each space's engine is seeded independently
//! ([`SpaceId::seed_for`]), so two spaces never share randomness.
//!
//! **Query serving never touches an engine.** State-changing requests
//! (ingest, restore) hold the space's engine mutex just long enough to
//! log-append and apply; a dedicated *refresher* thread publishes a fresh
//! `Arc<GlobalView>` + statistics snapshot in the background — the
//! engine's epoch-cached incremental `refresh` makes each publish cost
//! O(changes since the last publish), not O(total state), and the ingest
//! ack path never pays for it. Under sustained ingest the refresher paces
//! its sweeps (a wait of about 3× each sweep) so that ingest keeps most of
//! the shards' time. Query requests (`certified` / `certify` /
//! `top` / `stats`) clone the space's published `Arc` (a pointer copy
//! behind a micro-mutex, the std-only stand-in for an atomic `Arc` swap)
//! and answer from it: they never take the engine lock, never block
//! ingest, and never block each other.
//!
//! **Durability (`--data-dir`).** With [`ServerOptions::data_dir`] set,
//! every space keeps a write-ahead log ([`fews_engine::wal`]): an ingest
//! batch is appended to the log and applied under the space lock, and the
//! acknowledgement then waits — outside the lock — for an fsync that covers
//! the record (**fsync before ack**), so every acknowledged update survives
//! `kill -9`. The wait is the log's own *group commit*
//! ([`Wal::wait_durable`]): the first waiter fsyncs once for every record
//! appended before it started, so concurrent batches share a flush instead
//! of paying one each, and a query may observe an applied-but-not-yet-durable
//! batch (its writer simply has not been acknowledged yet). A failed fsync
//! poisons the log, and every later ingest is refused typed before it is
//! logged or applied. Once the log passes [`ServerOptions::compact_bytes`],
//! the server checkpoints every space into a space-tagged envelope and
//! [`Wal::compact`] replaces each `checkpoint.fck` atomically, then resets
//! the log. Startup recovers every space found under the data dir as a
//! router does ([`wal::recover`]): restore the checkpoint, replay the log
//! tail beyond its watermark ([`Server::recovery_log`] says what happened).
//! Graceful shutdown (client `shutdown` request or [`Server::shutdown`])
//! writes a final compacted checkpoint per space; [`Server::crash`] skips
//! that finalization to simulate a hard kill in tests.
//!
//! **Freshness contract (bounded staleness + watermarks).** An ingest ack
//! carries a *watermark*: the space's ingest sequence number after the
//! batch (its WAL sequence number under durability, so watermarks stay
//! meaningful across a restart). Queries carry a
//! [`crate::proto::ReadMode`]: the default `AtLeast(watermark)` blocks
//! until the refresher has published a snapshot covering that watermark —
//! read-your-writes for everything the client has been acked, with
//! [`ErrorCode::WatermarkTimeout`] if the refresher cannot catch up in
//! time — while `Stale` answers immediately from the latest published
//! snapshot, which may trail ingest by a publish interval. A read that has
//! to wait makes a *demand*, which ends the refresher's pacing wait; the
//! part of the wait it cut short is owed to the next one, so demands move
//! sweeps earlier without making them more frequent. Every published
//! snapshot is a consistent point-in-time prefix of the stream, never a
//! torn one: the watermark is captured under the same lock as the apply,
//! and the refresher's barrier covers every apply at or below it. Once
//! ingest has quiesced and the refresher has caught up, every query answer
//! is byte-identical to the single-threaded reference
//! (`tests/tests/net_stress.rs`, `tests/tests/freshness.rs`). (`stats`
//! counters are publish-consistent; its uptime field reports real elapsed
//! time since the space started serving.)
//!
//! Ingest requests are validated *before* any update reaches the engine
//! (vertex ranges as [`ErrorCode::BadUpdate`], deletions into an
//! insertion-only space as [`ErrorCode::ModelMismatch`], quota exhaustion
//! as [`ErrorCode::QuotaExceeded`]), so a hostile or buggy client can never
//! panic a shard worker — every rejection is an error frame and the
//! connection keeps serving. Header-level damage (truncated frame,
//! oversized declared length, non-frame garbage) closes the offending
//! connection after a best-effort error frame; the acceptor and every other
//! connection are unaffected.

use crate::proto::{
    ErrorCode, ReadMode, Request, Response, ScopedQuery, WireNodeInfo, WireShardStats,
    WireSpaceInfo, WireStats, WireView,
};
use crate::serve::{self, FrontEnd};
use fews_common::{SpaceConfig, SpaceId};
use fews_engine::checkpoint::{unwrap_for, wrap_envelope, Header};
use fews_engine::wal::{self, SpaceDir, Wal};
use fews_engine::{Engine, EngineConfig, EngineStats, GlobalView, ModelSpec, Scope};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Base unit of the `retry_after_ms` hint on shed requests; scaled by how
/// far past its budget the space is, so harder overload spreads retries
/// over a wider window.
const RETRY_BASE_MS: u64 = 50;

/// Upper bound on a watermarked query's wait for the refresher to catch
/// up. A waiting query ends the refresher's pacing wait, so it normally
/// waits for at most the sweep in progress and one more; this only fires
/// if a client presents a watermark the server never acked (or a publish
/// is pathologically stalled) — the reply is a typed
/// [`ErrorCode::WatermarkTimeout`], never a hang.
const WATERMARK_WAIT: Duration = Duration::from_secs(10);

/// Upper bound on the pacing wait after a sweep, debt included. A waiting
/// read ends the wait early, so this bounds the publish lag that `?stale`
/// reads see, at roughly `sweep + REFRESH_PACE_CAP` even when view
/// rebuilds are slow.
const REFRESH_PACE_CAP: Duration = Duration::from_millis(100);

/// Overload-protection budgets. Every limit defaults to `0` = *off* — the
/// historic accept-everything behaviour; `fews listen` and the stress
/// harnesses opt in.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadLimits {
    /// Per-space cap on updates admitted to the ingest path and not yet
    /// acknowledged. A batch that arrives with the budget exhausted is shed
    /// with [`ErrorCode::Overloaded`] *before* it touches the WAL — nothing
    /// was applied, so the client may retry blindly after the hint.
    pub inflight_updates: u64,
    /// Shed `AtLeast` queries once the published snapshot trails the acked
    /// watermark by more than this many WAL records (batches): under that
    /// much refresher lag a watermarked read would only stack condvar
    /// waiters, so it fails fast with a retry hint while `?stale` reads
    /// keep answering from the snapshot that *is* published.
    pub lag_budget: u64,
}

/// Serving options beyond the engine config and bind address.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Root of the durability tree (one subdirectory per space). `None`
    /// serves from memory only — no WAL, no recovery, v1-era behaviour.
    pub data_dir: Option<PathBuf>,
    /// Compact a space's write-ahead log once it reaches this many bytes.
    pub compact_bytes: u64,
    /// Artificial delay the refresher inserts before every publish sweep.
    /// `None` (the default) publishes as fast as ingest signals. Tests set
    /// this to simulate a slow refresher and prove watermarked reads still
    /// never observe a torn or early view.
    pub refresh_debounce: Option<Duration>,
    /// Cap on concurrent connections (0 = unlimited). Connections past the
    /// cap are shed *at accept time* with a best-effort typed
    /// [`ErrorCode::Overloaded`] frame instead of being left to rot in the
    /// SYN queue.
    pub max_conns: usize,
    /// Ingest admission and query-shedding budgets.
    pub limits: OverloadLimits,
    /// Storage fault lab: a seeded plan consulted by every WAL flush/fsync
    /// and checkpoint replace ([`fews_engine::diskfault::DiskFaultPlan`]).
    /// `None` (the default) runs the real disk untouched.
    pub disk_faults: Option<Arc<fews_engine::diskfault::DiskFaultPlan>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            data_dir: None,
            compact_bytes: 8 << 20,
            refresh_debounce: None,
            max_conns: 0,
            limits: OverloadLimits::default(),
            disk_faults: None,
        }
    }
}

/// One consistent point-in-time snapshot: the global query view plus the
/// engine counters gathered in the same barrier.
struct Published {
    view: Arc<GlobalView>,
    stats: EngineStats,
    /// Monotonic publish counter — the *epoch* a cluster router stores
    /// with a pulled view. It counts publishes, not updates, so
    /// `version == since` proves the view the router already holds is
    /// still exact.
    version: u64,
    /// The space's ingest sequence number this snapshot covers: every
    /// batch acked with a watermark ≤ this value is visible in `view`.
    watermark: u64,
    /// When this snapshot was installed — the age of the published view,
    /// and (while ingest is ahead of it) the refresher's current lag.
    at: Instant,
}

impl Published {
    fn space_bytes(&self) -> u64 {
        self.stats.shards.iter().map(|s| s.space_bytes as u64).sum()
    }
}

/// The mutable half of a space: its engine, plus the sequence number of the
/// last WAL record applied to it — the watermark a compaction checkpoint
/// records so replay is exactly-once. Log-append and engine-apply happen
/// under this one lock, so the log order and the engine order of a space can
/// never disagree.
struct SpaceState {
    engine: Engine,
    /// Sequence number of this space's most recent WAL record (0 = none).
    last_seq: u64,
    /// The watermark acked to ingest clients: bumped under this lock with
    /// every applied batch. Under durability it rides the WAL sequence
    /// number (monotonic across restarts — recovery re-seeds it from the
    /// replay watermark, so pre-restart watermarks stay satisfiable);
    /// in memory-only mode it is a plain batch counter.
    ingest_seq: u64,
}

impl SpaceState {
    /// The engine's checkpoint in an envelope tagged with `space` and the
    /// applied watermark — what compaction writes and a client downloads.
    fn envelope(&mut self, space: &SpaceId) -> Vec<u8> {
        wrap_envelope(space.as_str(), self.last_seq, &self.engine.checkpoint())
    }
}

/// A space's live load picture: the in-flight admission gauges and the
/// overload counters `stats` reports. All lock-free — the admission check
/// sits on the hot ingest path and the shed paths must stay cheap when the
/// server is busiest.
#[derive(Default)]
struct SpaceLoad {
    /// Updates admitted to the ingest path and not yet released.
    inflight_updates: AtomicU64,
    /// Ingest batches shed with [`ErrorCode::Overloaded`] (monotone).
    shed_ingest: AtomicU64,
    /// Watermarked queries shed for refresher lag (monotone).
    shed_reads: AtomicU64,
    /// Lock-free mirror of the space's acked ingest watermark, for lag
    /// probes that must not touch the state lock.
    acked_seq: AtomicU64,
}

/// An admission ticket: the in-flight budget it holds is released exactly
/// once, on drop — whichever of the ingest arm's many exit paths runs
/// (validation failure, WAL poison, fsync error, clean ack), the gauges
/// come back down. That structural guarantee is what the budget-leak
/// proptest pins.
struct Admitted<'a> {
    load: &'a SpaceLoad,
    updates: u64,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.load
            .inflight_updates
            .fetch_sub(self.updates, Ordering::SeqCst);
    }
}

impl SpaceLoad {
    /// Admit `updates` of ingest against the budget, or return the
    /// `retry_after_ms` hint to shed with. A batch is only rejected when
    /// *other* work is in flight — a lone batch bigger than the whole
    /// budget still admits (the budget bounds concurrency, not batch size;
    /// frames already cap the latter).
    fn admit<'a>(&'a self, updates: u64, limits: &OverloadLimits) -> Result<Admitted<'a>, u64> {
        let u = self.inflight_updates.fetch_add(updates, Ordering::SeqCst) + updates;
        if limits.inflight_updates > 0 && u > limits.inflight_updates && u > updates {
            self.inflight_updates.fetch_sub(updates, Ordering::SeqCst);
            self.shed_ingest.fetch_add(1, Ordering::SeqCst);
            // Scale the hint with how far past budget the space is: deeper
            // overload spreads the retry wave over a wider window.
            let pressure = u / limits.inflight_updates;
            return Err(RETRY_BASE_MS.saturating_mul(pressure.clamp(1, 10)));
        }
        Ok(Admitted {
            load: self,
            updates,
        })
    }
}

/// Everything the server knows about one live space.
struct SpaceHandle {
    space: SpaceId,
    /// Authoritative model parameters, including the quota.
    spec: SpaceConfig,
    /// The engine config actually serving (spec + runtime shape).
    cfg: EngineConfig,
    /// The space's durability directory, when the server has one.
    dir: Option<SpaceDir>,
    state: Mutex<SpaceState>,
    /// The latest [`Published`] snapshot. The mutex guards a pointer
    /// clone/swap only — it is never held across engine or network work, so
    /// query connections scale with cores instead of serializing.
    published: Mutex<Arc<Published>>,
    /// Signalled on every publish; watermarked queries wait here until the
    /// published watermark covers their request.
    publish_cv: Condvar,
    /// When this space started serving — the live uptime `stats` reports.
    started: Instant,
    /// Bytes this space has appended to the shared WAL since its last
    /// checkpoint — the lock-free stats mirror of its share of the log.
    wal_bytes: AtomicU64,
    /// In-flight admission gauges and shed counters.
    load: SpaceLoad,
}

impl SpaceHandle {
    fn new(
        space: SpaceId,
        spec: SpaceConfig,
        cfg: EngineConfig,
        dir: Option<SpaceDir>,
        mut state: SpaceState,
    ) -> Arc<SpaceHandle> {
        let (view, stats) = state.engine.refresh();
        let watermark = state.ingest_seq;
        let load = SpaceLoad::default();
        load.acked_seq.store(watermark, Ordering::SeqCst);
        Arc::new(SpaceHandle {
            space,
            spec,
            cfg,
            dir,
            state: Mutex::new(state),
            published: Mutex::new(Arc::new(Published {
                view,
                stats,
                version: 1,
                watermark,
                at: Instant::now(),
            })),
            publish_cv: Condvar::new(),
            started: Instant::now(),
            wal_bytes: AtomicU64::new(0),
            load,
        })
    }

    /// Swap in a fresh snapshot from the engine and wake watermark waiters
    /// (caller holds the state lock, so the watermark captured here covers
    /// exactly the applies ordered before it).
    fn publish_state(&self, state: &mut SpaceState) {
        let watermark = state.ingest_seq;
        let (view, stats) = state.engine.refresh();
        self.publish(view, stats, watermark);
    }

    /// Install `(view, stats)` as the published snapshot at `watermark` and
    /// wake watermark waiters. The published watermark never regresses: a
    /// barrier that raced an inline publish (restore) installs its view but
    /// keeps the higher coverage claim, so `wait_published` stays monotone.
    fn publish(&self, view: Arc<GlobalView>, stats: EngineStats, watermark: u64) {
        let mut slot = self.published.lock().expect("published slot");
        let version = slot.version + 1;
        let watermark = watermark.max(slot.watermark);
        *slot = Arc::new(Published {
            view,
            stats,
            version,
            watermark,
            at: Instant::now(),
        });
        drop(slot);
        self.publish_cv.notify_all();
    }

    /// The latest snapshot — the whole query-path synchronization cost.
    fn snapshot(&self) -> Arc<Published> {
        Arc::clone(&self.published.lock().expect("published slot"))
    }

    /// The watermark the latest snapshot covers.
    fn published_watermark(&self) -> u64 {
        self.published.lock().expect("published slot").watermark
    }

    /// Block until a published snapshot covers `want` (read-your-writes
    /// for a client holding that ack watermark), or `Err` after `timeout`.
    fn wait_published(&self, want: u64, timeout: Duration) -> Result<Arc<Published>, ()> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.published.lock().expect("published slot");
        loop {
            if slot.watermark >= want {
                return Ok(Arc::clone(&slot));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(());
            }
            let (s, _) = self
                .publish_cv
                .wait_timeout(slot, deadline - now)
                .expect("published slot");
            slot = s;
        }
    }

    /// Durably checkpoint this space at its current applied watermark — a
    /// restore's persistence; the caller holds the state lock.
    fn write_checkpoint(&self, state: &mut SpaceState) -> std::io::Result<()> {
        match &self.dir {
            Some(dir) => dir.write_checkpoint(&state.envelope(&self.space)),
            None => Ok(()),
        }
    }
}

/// Stop-the-world compaction of the shared log ([`Wal::compact`]):
/// checkpoint every space at its applied watermark, then reset the log,
/// which releases every group-commit waiter (the checkpoints just written
/// cover their records). The caller holds the registry lock (read or write)
/// and the compaction gate; every space lock is taken, in name order, for
/// the duration — no append may land between a space's checkpoint and the
/// reset, or it would vanish with it. On failure the log simply keeps
/// growing — correctness does not depend on compaction succeeding, only on
/// append's fsync.
fn compact_spaces(wal: &Wal, spaces: &SpaceRegistry) -> std::io::Result<()> {
    let mut handles: Vec<&Arc<SpaceHandle>> = spaces.values().collect();
    handles.sort_by(|a, b| a.space.cmp(&b.space));
    let mut states = Vec::with_capacity(handles.len());
    for h in &handles {
        states.push(h.state.lock().expect("space state"));
    }
    wal.compact(
        handles
            .iter()
            .zip(states.iter_mut())
            .filter_map(|(h, st)| Some((h.dir.as_ref()?.checkpoint_path(), st.envelope(&h.space)))),
    )?;
    for h in &handles {
        h.wal_bytes.store(0, Ordering::Relaxed);
    }
    Ok(())
}

/// The server's space roster, keyed by name.
type SpaceRegistry = HashMap<SpaceId, Arc<SpaceHandle>>;

/// The refresher's two bells, under one mutex.
#[derive(Default)]
struct Bells {
    /// Ingest doorbell rings: a batch was applied.
    rung: u64,
    /// Demands: a read is about to wait for a snapshot.
    demand: u64,
}

/// Ingest-to-refresher doorbell, plus the demand count of reads waiting on
/// a watermark. Ingest workers ring the doorbell (a counter bump + notify)
/// after applying a batch; the refresher sleeps on it between sweeps, so
/// publish lag is one condvar wakeup, not a poll interval. A read that has
/// to wait for a snapshot makes a demand, which ends the refresher's pacing
/// wait ([`RefreshSignal::pacing_wait`]); a ring alone never does.
#[derive(Default)]
struct RefreshSignal {
    bells: Mutex<Bells>,
    cv: Condvar,
}

impl RefreshSignal {
    fn ring(&self) {
        self.bells.lock().expect("refresh signal").rung += 1;
        self.cv.notify_all();
    }

    fn demand(&self) {
        self.bells.lock().expect("refresh signal").demand += 1;
        self.cv.notify_all();
    }

    /// The demand count now: a pass reads it before it sweeps, so a demand
    /// made during the sweep ends the pacing wait after it.
    fn demands(&self) -> u64 {
        self.bells.lock().expect("refresh signal").demand
    }

    /// Wait until the bell has been rung past `seen` and return the new
    /// count. Every change to a space's state rings (ingest) or publishes
    /// inline (restore, create, recovery), and shutdown rings, so the wait
    /// needs no timeout.
    fn wait(&self, seen: u64) -> u64 {
        let bells = self.bells.lock().expect("refresh signal");
        self.cv
            .wait_while(bells, |b| b.rung == seen)
            .expect("refresh signal")
            .rung
    }

    /// Wait up to `limit`, ending early on a demand past `demanded` or once
    /// `stop` holds (its setter rings after setting it). Returns the time
    /// waited.
    fn pacing_wait(&self, demanded: u64, limit: Duration, stop: impl Fn() -> bool) -> Duration {
        let start = Instant::now();
        let bells = self.bells.lock().expect("refresh signal");
        let _ = self
            .cv
            .wait_timeout_while(bells, limit, |b| b.demand == demanded && !stop())
            .expect("refresh signal");
        start.elapsed()
    }
}

/// The refresher's pacing after a sweep, and the sleep it owes.
#[derive(Default)]
struct Pacing {
    /// What demands cut from earlier waits, still to be slept.
    owed: Duration,
}

impl Pacing {
    /// Pace after a sweep that took `took`: wait 3× the sweep plus what is
    /// owed, at most [`REFRESH_PACE_CAP`], unless a demand past `demanded`
    /// or `stop` ends the wait first. The part not waited is owed to the
    /// next wait, so a demand moves a sweep earlier without making the
    /// sweeps after it faster and smaller.
    fn pace(
        &mut self,
        signal: &RefreshSignal,
        demanded: u64,
        took: Duration,
        stop: impl Fn() -> bool,
    ) {
        let due = (took * 3 + self.owed).min(REFRESH_PACE_CAP);
        self.owed = due.saturating_sub(signal.pacing_wait(demanded, due, stop));
    }
}

struct Shared {
    spaces: RwLock<SpaceRegistry>,
    /// The default space's engine config — also the template (seed, runtime
    /// shape) for created spaces.
    base: EngineConfig,
    data_dir: Option<PathBuf>,
    /// The server-wide write-ahead log, shared by every space (`None`
    /// without a data dir). Sharing one log is what makes group commit
    /// multi-tenant: concurrent batches ride one fsync whatever space they
    /// address.
    wal: Option<Wal>,
    /// Held by whichever thread is running a compaction; `try_lock` keeps
    /// ingest workers from piling up behind one.
    compact_gate: Mutex<()>,
    compact_bytes: u64,
    /// Doorbell from ingest workers to the refresher thread.
    refresh: RefreshSignal,
    /// Test-only publish delay ([`ServerOptions::refresh_debounce`]).
    refresh_debounce: Option<Duration>,
    /// Overload budgets ([`ServerOptions::limits`]).
    limits: OverloadLimits,
    /// Storage fault lab ([`ServerOptions::disk_faults`]), attached to
    /// every created space's checkpoint writer.
    disk_faults: Option<Arc<fews_engine::diskfault::DiskFaultPlan>>,
    /// The connection core's shared half: the shutdown flag, and the
    /// connection cap ([`ServerOptions::max_conns`]) with its counts.
    front: Arc<FrontEnd>,
    /// Set by [`Server::crash`]: skip graceful finalization on join.
    crash: AtomicBool,
}

impl Shared {
    fn space(&self, id: &SpaceId) -> Option<Arc<SpaceHandle>> {
        self.spaces.read().expect("space registry").get(id).cloned()
    }
}

/// A running `fews-net` server. Dropping it (or calling [`Server::join`]
/// after a client sent [`Request::Shutdown`]) tears everything down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    refresher: Option<JoinHandle<()>>,
    recovery_log: Vec<String>,
    finalized: bool,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), start the
    /// default space's engine and the acceptor thread, and return the
    /// running server. Serves from memory only — see [`Server::start_with`]
    /// for durability.
    pub fn start(cfg: EngineConfig, addr: &str) -> std::io::Result<Server> {
        Self::start_with(cfg, addr, ServerOptions::default())
    }

    /// [`Server::start`] with explicit [`ServerOptions`]. With a data dir,
    /// every space found on disk is recovered (checkpoint restore + WAL
    /// tail replay) before the listener accepts its first connection, and
    /// the default space is created on disk if absent. Refuses to start
    /// (`InvalidInput`) if the on-disk default space was created with a
    /// different config or seed than `cfg` — silently serving a different
    /// model than the flags asked for would corrupt both.
    pub fn start_with(
        cfg: EngineConfig,
        addr: &str,
        opts: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut recovery_log = Vec::new();
        let (spaces, wal) = build_spaces(cfg, &opts, &mut recovery_log)?;
        let shared = Arc::new(Shared {
            spaces: RwLock::new(spaces),
            base: cfg,
            data_dir: opts.data_dir,
            wal,
            compact_gate: Mutex::new(()),
            compact_bytes: opts.compact_bytes.max(1),
            refresh: RefreshSignal::default(),
            refresh_debounce: opts.refresh_debounce,
            limits: opts.limits,
            disk_faults: opts.disk_faults,
            front: Arc::new(FrontEnd::new(opts.max_conns)),
            crash: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            serve::spawn(
                listener,
                Arc::clone(&shared.front),
                move |space, request| handle_request(space, request, &shared),
            )
        };
        let refresher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fews-net-refresher".into())
                .spawn(move || run_refresher(shared))
                .expect("spawn refresher")
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            refresher: Some(refresher),
            recovery_log,
            finalized: false,
        })
    }

    /// The address the server actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery did, one line per recovered space (empty when
    /// the server started without a data dir or with a fresh one).
    pub fn recovery_log(&self) -> &[String] {
        &self.recovery_log
    }

    /// Request shutdown from the owning side (equivalent to a client's
    /// [`Request::Shutdown`], minus the response frame).
    pub fn shutdown(&self) {
        // Wake the acceptor out of its blocking accept, and the refresher
        // out of its doorbell or pacing wait.
        self.shared.front.shutdown(self.addr);
        self.shared.refresh.ring();
    }

    /// Shut down *without* graceful finalization — no final checkpoint, the
    /// WAL left exactly as the last acknowledged batch wrote it. This is the
    /// in-process stand-in for `kill -9`, letting recovery tests exercise
    /// real crash states deterministically.
    pub fn crash(&self) {
        self.shared.crash.store(true, Ordering::SeqCst);
        self.shutdown();
    }

    /// Block until the server has shut down (acceptor and every connection
    /// worker joined). Returns the number of updates ingested over the
    /// server's lifetime, across all spaces.
    pub fn join(mut self) -> u64 {
        self.join_inner()
    }

    fn join_inner(&mut self) -> u64 {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.shared.refresh.ring();
        if let Some(handle) = self.refresher.take() {
            let _ = handle.join();
        }
        let spaces: Vec<Arc<SpaceHandle>> = {
            let registry = self.shared.spaces.read().expect("space registry");
            registry.values().cloned().collect()
        };
        // Graceful shutdown flushes every space to a compacted checkpoint
        // and resets the log — unless this was a simulated crash, whose
        // entire point is to leave the disk mid-flight. Runs once even if
        // join is re-entered via Drop.
        if !self.finalized && !self.shared.crash.load(Ordering::SeqCst) {
            self.finalized = true;
            if let Some(wal) = &self.shared.wal {
                let registry = self.shared.spaces.read().expect("space registry");
                let _gate = self.shared.compact_gate.lock().expect("compaction gate");
                let _ = compact_spaces(wal, &registry);
            }
        }
        spaces
            .iter()
            .map(|h| h.state.lock().expect("space state").engine.stats().ingested)
            .sum()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown();
            self.join_inner();
        }
    }
}

/// The engine config for a (non-default) space: its model and partitions
/// from the spec, runtime shape (shards, batch, queue depth) inherited from
/// the server's base config.
fn space_engine_cfg(base: &EngineConfig, spec: &SpaceConfig, seed: u64) -> EngineConfig {
    EngineConfig::from_space(spec, seed)
        .with_shards(base.shards)
        .with_batch(base.batch)
        .with_queue_depth(base.queue_depth)
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Build the startup space registry: just the default space in memory-only
/// mode; otherwise the default space plus every space recovered from disk
/// ([`wal::recover`]: checkpoint envelopes, then the shared WAL tail split
/// by space), then a startup compaction so the next boot replays nothing.
fn build_spaces(
    base: EngineConfig,
    opts: &ServerOptions,
    log: &mut Vec<String>,
) -> std::io::Result<(SpaceRegistry, Option<Wal>)> {
    let mut spaces = HashMap::new();
    let default = SpaceId::default_space();
    let Some(data_dir) = &opts.data_dir else {
        let state = SpaceState {
            engine: Engine::start(base),
            last_seq: 0,
            ingest_seq: 0,
        };
        spaces.insert(
            default.clone(),
            SpaceHandle::new(default, base.to_space(0), base, None, state),
        );
        return Ok((spaces, None));
    };
    std::fs::create_dir_all(data_dir)?;
    // The default space's model comes from the serve flags; the data dir
    // must agree with them or the stream would be fed into the wrong model.
    let default_dir = SpaceDir::new(data_dir, &default);
    let default_spec = match default_dir.check_flags(&base)? {
        Some(stored) => stored,
        None => {
            default_dir.init(&base.to_space(0), base.seed)?;
            base.to_space(0)
        }
    };
    let listed = SpaceDir::list_spaces(data_dir)?;
    let recovery = wal::recover(data_dir, &listed, opts.disk_faults.clone())?;
    for (space, found) in listed.into_iter().zip(recovery.spaces) {
        let dir = SpaceDir::new(data_dir, &space).with_faults(opts.disk_faults.clone());
        let (spec, cfg) = if space.is_default() {
            (default_spec, base)
        } else {
            let (spec, seed) = dir.load_config()?;
            spec.validate()
                .map_err(|e| invalid(format!("space {space}: stored config: {e}")))?;
            (spec, space_engine_cfg(&base, &spec, seed))
        };
        let mut engine = Engine::start(cfg);
        if let Some(envelope) = &found.checkpoint {
            engine
                .restore_checkpoint(envelope)
                .map_err(|e| invalid(format!("space {space}: checkpoint restore: {e}")))?;
        }
        // Re-seed the ack watermark from the envelope's: every batch acked
        // before the restart carried a WAL sequence ≤ it, so surviving
        // clients' watermarks stay satisfiable.
        let mut state = SpaceState {
            engine,
            last_seq: found.wal_seq,
            ingest_seq: found.acked.unwrap_or(found.wal_seq),
        };
        let (batches, mut updates) = (found.records.len(), 0);
        for (seq, batch) in found.records {
            updates += batch.len();
            state.engine.ingest(batch);
            state.last_seq = seq;
            state.ingest_seq = seq;
        }
        log.push(format!(
            "space {space}: {} replayed {batches} wal batches ({updates} updates)",
            match found.checkpoint {
                Some(_) => format!("restored checkpoint (seq {}),", found.wal_seq),
                None => "no checkpoint,".to_string(),
            }
        ));
        spaces.insert(
            space.clone(),
            SpaceHandle::new(space, spec, cfg, Some(dir), state),
        );
    }
    if let Some(damage) = recovery.damage {
        log.push(format!("wal: discarded damaged tail: {damage}"));
    }
    if recovery.unlisted > 0 {
        log.push(format!(
            "wal: skipped {} records of dropped spaces",
            recovery.unlisted
        ));
    }
    // Startup compaction. Replayed state becomes the checkpoints, the log
    // restarts empty — the next recovery replays nothing, and any
    // dropped-space debris is gone before its name can be reused.
    if recovery.wal.bytes() > 0 {
        compact_spaces(&recovery.wal, &spaces)?;
    }
    Ok((spaces, Some(recovery.wal)))
}

/// The background snapshot refresher: sleep on the ingest doorbell, then
/// sweep the registry and publish every space whose applied state has
/// moved past its published watermark, then pace ([`Pacing`]). One thread
/// serves every space — a sweep is O(spaces) lock probes plus O(changes)
/// refresh work, and the doorbell keeps an idle refresher's publish lag at
/// one condvar wakeup.
fn run_refresher(shared: Arc<Shared>) {
    let mut seen = 0u64;
    let mut pacing = Pacing::default();
    loop {
        seen = shared.refresh.wait(seen);
        if shared.front.is_shutting_down() {
            return;
        }
        if let Some(delay) = shared.refresh_debounce {
            std::thread::sleep(delay);
        }
        let demanded = shared.refresh.demands();
        let pass = Instant::now();
        let handles: Vec<Arc<SpaceHandle>> = {
            let registry = shared.spaces.read().expect("space registry");
            registry.values().cloned().collect()
        };
        for handle in handles {
            // Cheap probe first: skip the state lock entirely when the
            // published snapshot already covers everything applied.
            let published = handle.published_watermark();
            let (barrier, watermark) = {
                let mut state = handle.state.lock().expect("space state");
                if state.ingest_seq <= published {
                    continue;
                }
                (state.engine.refresh_begin(), state.ingest_seq)
            };
            // The expensive part — waiting for every shard to decode and
            // answer the barrier — happens with the state lock RELEASED, so
            // ingest acks keep flowing while the snapshot is being built.
            // Updates applied meanwhile may even make it into the snapshot
            // (the barrier drains whatever each shard has queued), which only
            // widens coverage: `watermark` stays a valid lower bound.
            let done = barrier.wait();
            let (view, stats) = {
                let mut state = handle.state.lock().expect("space state");
                state.engine.refresh_install(done)
            };
            handle.publish(view, stats, watermark);
        }
        // Adaptive pacing: a sweep's cost is the shard time it steals from
        // ingest (every barrier makes the shards re-decode their dirty
        // partitions). Waiting ~3× the sweep duration caps snapshot
        // rebuilds at roughly a quarter of shard time, so sustained ingest
        // keeps most of the machine while cheap sweeps (insert-only views,
        // idle spaces) still republish near-continuously. A read waiting
        // on a watermark ends the wait, and the next wait makes up for it.
        pacing.pace(&shared.refresh, demanded, pass.elapsed(), || {
            shared.front.is_shutting_down()
        });
    }
}

/// Validate an ingest batch against the serving model. Returns the first
/// violation with its wire code; on `Ok` every update is safe to push. A
/// cluster router runs the same check, so a cluster rejects exactly what
/// one node rejects.
pub fn validate_batch(
    cfg: &EngineConfig,
    updates: &[fews_stream::Update],
) -> Result<(), (ErrorCode, String)> {
    match cfg.model {
        ModelSpec::InsertOnly(c) => {
            for u in updates {
                if u.delta < 0 {
                    return Err((
                        ErrorCode::ModelMismatch,
                        format!(
                            "deletion of ({}, {}) into an insertion-only model",
                            u.edge.a, u.edge.b
                        ),
                    ));
                }
                if u.edge.a >= c.n {
                    return Err((
                        ErrorCode::BadUpdate,
                        format!("vertex {} out of range n={}", u.edge.a, c.n),
                    ));
                }
            }
        }
        ModelSpec::InsertDelete(c) => {
            for u in updates {
                if u.edge.a >= c.n {
                    return Err((
                        ErrorCode::BadUpdate,
                        format!("vertex {} out of range n={}", u.edge.a, c.n),
                    ));
                }
                if u.edge.b >= c.m {
                    return Err((
                        ErrorCode::BadUpdate,
                        format!("witness {} out of range m={}", u.edge.b, c.m),
                    ));
                }
            }
        }
    }
    Ok(())
}

fn handle_request(space: SpaceId, request: Request, shared: &Shared) -> Response {
    match request {
        Request::CreateSpace(spec) => create_space(shared, space, spec),
        Request::DropSpace => drop_space(shared, &space),
        Request::ListSpaces => list_spaces(shared),
        Request::Shutdown => Response::Bye,
        // Liveness needs no space: a dead-space probe must still pong.
        Request::Ping => Response::Pong,
        Request::JoinWorker(_) => Response::error(
            ErrorCode::Malformed,
            "join-worker must be addressed to a cluster router, not a worker".into(),
        ),
        request => {
            let Some(handle) = shared.space(&space) else {
                return Response::error(
                    ErrorCode::UnknownSpace,
                    format!("unknown space '{space}'"),
                );
            };
            handle_space_request(&handle, request, shared)
        }
    }
}

fn create_space(shared: &Shared, space: SpaceId, spec: SpaceConfig) -> Response {
    let mut registry = shared.spaces.write().expect("space registry");
    if registry.contains_key(&space) {
        return Response::error(
            ErrorCode::SpaceExists,
            format!("space '{space}' already exists"),
        );
    }
    let seed = space.seed_for(shared.base.seed);
    let cfg = space_engine_cfg(&shared.base, &spec, seed);
    let mut dir = None;
    if let Some(data_dir) = &shared.data_dir {
        let sd = SpaceDir::new(data_dir, &space).with_faults(shared.disk_faults.clone());
        if let Err(e) = sd.init(&spec, seed) {
            // Don't leave a half-initialised directory behind.
            let _ = sd.remove();
            return Response::error(
                ErrorCode::Durability,
                format!("space '{space}' could not be initialised on disk: {e}"),
            );
        }
        dir = Some(sd);
    }
    let state = SpaceState {
        engine: Engine::start(cfg),
        last_seq: 0,
        ingest_seq: 0,
    };
    registry.insert(
        space.clone(),
        SpaceHandle::new(space, spec, cfg, dir, state),
    );
    Response::SpaceOk
}

fn drop_space(shared: &Shared, space: &SpaceId) -> Response {
    if space.is_default() {
        return Response::error(
            ErrorCode::Malformed,
            "the default space cannot be dropped".into(),
        );
    }
    let mut registry = shared.spaces.write().expect("space registry");
    let Some(handle) = registry.remove(space) else {
        return Response::error(ErrorCode::UnknownSpace, format!("unknown space '{space}'"));
    };
    if let Some(dir) = &handle.dir {
        if let Err(e) = dir.remove() {
            return Response::error(
                ErrorCode::Durability,
                format!("space '{space}' dropped but its directory remains: {e}"),
            );
        }
    }
    // The shared log may still hold the dropped space's records. Compact
    // before the registry write lock is released: the survivors are
    // checkpointed, the log resets, and the name can be reused without a
    // crash replaying the old tenant's records into the new one.
    if let Some(wal) = &shared.wal {
        let _gate = shared.compact_gate.lock().expect("compaction gate");
        let _ = compact_spaces(wal, &registry);
    }
    Response::SpaceOk
}

fn list_spaces(shared: &Shared) -> Response {
    let mut rows: Vec<WireSpaceInfo> = shared
        .spaces
        .read()
        .expect("space registry")
        .values()
        .map(|handle| WireSpaceInfo {
            name: handle.space.as_str().to_string(),
            spec: handle.spec,
            space_bytes: handle.snapshot().space_bytes(),
            wal_bytes: handle.wal_bytes.load(Ordering::Relaxed),
        })
        .collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    Response::Spaces(rows)
}

/// Resolve a query's snapshot under its [`ReadMode`]: the latest published
/// one for `Stale`, or the first one covering the requested watermark for
/// `AtLeast` — with a typed timeout error if the refresher cannot catch up.
/// When the refresher's lag is past the configured budget, `AtLeast`
/// queries shed immediately with [`ErrorCode::Overloaded`] + retry-after
/// instead of stacking condvar waiters behind a snapshot that is many
/// publishes away; `Stale` never sheds — answering from the snapshot that
/// *is* published is the graceful-degradation path.
fn read_snapshot(
    handle: &SpaceHandle,
    mode: &ReadMode,
    shared: &Shared,
) -> Result<Arc<Published>, Box<Response>> {
    let limits = &shared.limits;
    match mode {
        ReadMode::Stale => Ok(handle.snapshot()),
        ReadMode::AtLeast(want) => {
            let snap = handle.snapshot();
            if snap.watermark >= *want {
                return Ok(snap);
            }
            if limits.lag_budget > 0 {
                let acked = handle.load.acked_seq.load(Ordering::SeqCst);
                let lag = acked.saturating_sub(snap.watermark);
                if lag > limits.lag_budget {
                    handle.load.shed_reads.fetch_add(1, Ordering::SeqCst);
                    let hint = RETRY_BASE_MS.saturating_mul((lag / limits.lag_budget).clamp(1, 10));
                    return Err(Box::new(Response::overloaded(
                        format!(
                            "published snapshot trails acked ingest by {lag} records \
                             (lag budget {}); retry after the hint, or read ?stale",
                            limits.lag_budget
                        ),
                        hint,
                    )));
                }
            }
            // This read will wait: end the refresher's pacing wait.
            shared.refresh.demand();
            handle.wait_published(*want, WATERMARK_WAIT).map_err(|()| {
                Box::new(Response::error(
                    ErrorCode::WatermarkTimeout,
                    format!(
                        "published watermark did not reach {want} within {}s \
                             (the write is durable; retry, or read ?stale)",
                        WATERMARK_WAIT.as_secs()
                    ),
                ))
            })
        }
    }
}

/// A wire `top k` as a ranking length.
fn clamp_k(k: u64) -> usize {
    k.min(u32::MAX as u64) as usize
}

fn handle_space_request(handle: &SpaceHandle, request: Request, shared: &Shared) -> Response {
    match request {
        // State-changing requests: space state lock, WAL-then-apply, then
        // publish-before-ack.
        Request::IngestBatch(updates) => {
            if let Err((code, message)) = validate_batch(&handle.cfg, &updates) {
                return Response::error(code, message);
            }
            // Admission control, *before* the WAL sees a byte: if the
            // space's in-flight budget is exhausted, shed with a typed
            // Overloaded + retry hint. The rejection is determinate —
            // nothing was logged or applied — so clients retry blindly.
            // The ticket rides to the end of the arm; its Drop releases
            // the budget on every exit path below.
            let count = updates.len() as u64;
            let _admitted = match handle.load.admit(count, &shared.limits) {
                Ok(ticket) => ticket,
                Err(retry_after_ms) => {
                    return Response::overloaded(
                        format!(
                            "space '{}' ingest budget exhausted ({} updates in flight)",
                            handle.space,
                            handle.load.inflight_updates.load(Ordering::SeqCst),
                        ),
                        retry_after_ms,
                    );
                }
            };
            // Quota is a soft limit on measured state: admit while under it.
            if handle.spec.quota_bytes > 0 {
                let used = handle.snapshot().space_bytes();
                if used >= handle.spec.quota_bytes {
                    return Response::error(
                        ErrorCode::QuotaExceeded,
                        format!(
                            "space '{}' holds {used} bytes, quota is {}",
                            handle.space, handle.spec.quota_bytes
                        ),
                    );
                }
            }
            // Under the state lock: log-append (an in-memory buffer push),
            // engine-apply (a shard enqueue), watermark bump. No snapshot
            // publish — the refresher thread does that in the background,
            // so the ack path is O(batch), not O(witness decode). The
            // flush + fsync that make the batch acknowledgeable happen
            // *after* the lock is released, through the group-commit
            // barrier — concurrent batches share one write and one fsync.
            // Announce the append *before* queueing on the space lock, so a
            // group-commit leader elected while this batch is applying knows
            // to hold its fsync for it.
            let announced = shared.wal.as_ref().map(Wal::announce);
            let (watermark, logged) = {
                let mut state = handle.state.lock().expect("space state");
                let mut logged = None;
                if let Some(announced) = announced {
                    // Log before applying, so the log order and the engine
                    // order of this space can never disagree. A poisoned
                    // log refuses the batch before either sees it.
                    let a = match announced.append(handle.space.as_str(), &updates) {
                        Ok(a) => a,
                        Err(e) => return Response::error(ErrorCode::Durability, e.to_string()),
                    };
                    state.last_seq = a.seq;
                    handle.wal_bytes.fetch_add(a.len, Ordering::Relaxed);
                    logged = Some(a);
                }
                state.engine.ingest(updates);
                // The ack watermark rides the WAL sequence when there is
                // one (monotonic across restarts); otherwise it is a plain
                // per-space batch counter.
                state.ingest_seq = if logged.is_some() {
                    state.last_seq
                } else {
                    state.ingest_seq + 1
                };
                (state.ingest_seq, logged)
            };
            // Mirror the acked watermark where lag probes can read it
            // without the state lock.
            handle.load.acked_seq.fetch_max(watermark, Ordering::SeqCst);
            // Ring the refresher outside the lock: it will publish a
            // snapshot covering this watermark as soon as it gets the CPU.
            shared.refresh.ring();
            // Compaction runs outside the space lock: the shared log spans
            // every space, so folding it away needs every space's state.
            if let Some(wal) = shared.wal.as_ref() {
                if wal.bytes() >= shared.compact_bytes {
                    let registry = shared.spaces.read().expect("space registry");
                    if let Ok(_gate) = shared.compact_gate.try_lock() {
                        if wal.bytes() >= shared.compact_bytes {
                            let _ = compact_spaces(wal, &registry);
                        }
                    }
                }
            }
            if let (Some(wal), Some(logged)) = (shared.wal.as_ref(), logged) {
                // Fsync-before-ack: the batch is applied, but the
                // acknowledgement waits for a covering flush + fsync.
                if let Err(e) = wal.wait_durable(&logged) {
                    return Response::error(ErrorCode::Durability, e.to_string());
                }
            }
            Response::Ingested { count, watermark }
        }
        Request::Restore(bytes) => {
            // The envelope must be addressed to this space: an envelope by
            // name, a bare v1 container implicitly to the default space.
            if let Err(e) = unwrap_for(&bytes, handle.space.as_str()) {
                return Response::error(ErrorCode::Checkpoint, e.to_string());
            }
            let mut state = handle.state.lock().expect("space state");
            match state.engine.restore_checkpoint(&bytes) {
                Ok(()) => {
                    // Under durability a restore is a checkpoint point: the
                    // restored state goes straight to disk at this space's
                    // current watermark, so surviving log records older than
                    // the restore can never replay over it.
                    if let Err(e) = handle.write_checkpoint(&mut state) {
                        return Response::error(
                            ErrorCode::Durability,
                            format!("restore applied but could not be persisted: {e}"),
                        );
                    }
                    // A restore is immediately visible: publish inline (the
                    // restored state replaces the stream wholesale, so
                    // waiting for the refresher would let a query observe
                    // the pre-restore world after a Restored ack).
                    handle.publish_state(&mut state);
                    Response::Restored
                }
                Err(e) => Response::error(ErrorCode::Checkpoint, e.to_string()),
            }
        }
        // Query requests: answered from a published snapshot — no engine
        // lock, no shard barrier, no blocking against ingest or each other.
        // `AtLeast` waits (condvar, not engine work) for the refresher to
        // cover the client's watermark; `Stale` answers immediately.
        // Every answer is bounded before it is encoded: a large `top k`
        // is a typed `oversized`, not a panic in the codec.
        Request::Certified(mode) => match read_snapshot(handle, &mode, shared) {
            Ok(snap) => Response::Answer(snap.view.certified()).bounded(),
            Err(resp) => *resp,
        },
        Request::Certify(v, mode) => match read_snapshot(handle, &mode, shared) {
            Ok(snap) => Response::Answer(snap.view.certify(v)).bounded(),
            Err(resp) => *resp,
        },
        Request::Top(k, mode) => match read_snapshot(handle, &mode, shared) {
            Ok(snap) => Response::Top(snap.view.top(clamp_k(k))).bounded(),
            Err(resp) => *resp,
        },
        Request::Stats(mode) => {
            let snap = match read_snapshot(handle, &mode, shared) {
                Ok(snap) => snap,
                Err(resp) => return *resp,
            };
            // The overload block is live (gauges + monotone counters), not
            // publish-consistent: its whole point is to describe the load
            // the server is under *now*. Lag is measured against the
            // latest published snapshot, whatever snapshot the read mode
            // resolved.
            let latest = handle.snapshot();
            let acked = handle.load.acked_seq.load(Ordering::SeqCst);
            let lag_updates = acked.saturating_sub(latest.watermark);
            let inflight_updates = handle.load.inflight_updates.load(Ordering::SeqCst);
            let overload = crate::proto::WireOverload {
                shed_ingest: handle.load.shed_ingest.load(Ordering::SeqCst),
                shed_reads: handle.load.shed_reads.load(Ordering::SeqCst),
                shed_conns: shared.front.shed_conns(),
                inflight_updates,
                inflight_bytes: inflight_updates
                    * std::mem::size_of::<fews_stream::Update>() as u64,
                lag_updates,
                lag_ms: if lag_updates > 0 {
                    latest.at.elapsed().as_millis() as u64
                } else {
                    0
                },
            };
            Response::Stats(WireStats {
                ingested: snap.stats.ingested,
                // Counters are publish-consistent; uptime is live. A
                // quiesced server's clock keeps running — the snapshot's
                // engine uptime froze at publish time.
                uptime_micros: handle.started.elapsed().as_micros() as u64,
                witness_target: handle.cfg.witness_target() as u64,
                space_bytes: snap.space_bytes(),
                wal_bytes: handle.wal_bytes.load(Ordering::Relaxed),
                quota_bytes: handle.spec.quota_bytes,
                overload,
                shards: snap
                    .stats
                    .shards
                    .iter()
                    .map(|s| WireShardStats {
                        partitions: s.partitions as u64,
                        processed: s.processed,
                        batches: s.batches,
                        space_bytes: s.space_bytes as u64,
                    })
                    .collect(),
            })
        }
        // Checkpoint reads engine state without changing it: state lock, no
        // publish. The container leaves tagged with the space name and the
        // WAL watermark (0 without durability), so what a client downloads
        // is exactly what compaction would have written to disk.
        Request::Checkpoint => {
            let envelope = handle
                .state
                .lock()
                .expect("space state")
                .envelope(&handle.space);
            Response::Checkpoint(envelope).bounded()
        }
        // Cluster-facing requests: what a router speaks to its workers.
        Request::NodeHello => Response::NodeInfo(WireNodeInfo::new(
            &Header::for_config(&handle.cfg),
            handle.snapshot().stats.ingested,
        )),
        Request::ViewPull {
            since,
            min_watermark,
        } => {
            let snap = match read_snapshot(handle, &ReadMode::AtLeast(min_watermark), shared) {
                Ok(snap) => snap,
                Err(resp) => return *resp,
            };
            if snap.version == since {
                // The puller's copy is current: nothing to ship.
                return Response::View(WireView::Unchanged { epoch: since });
            }
            let view = match snap.view.as_ref() {
                GlobalView::InsertOnly { parts, .. } => WireView::InsertOnly {
                    epoch: snap.version,
                    parts: (0..)
                        .zip(parts.iter().map(|state| state.encode()))
                        .collect(),
                },
                GlobalView::InsertDelete { pooled, .. } => WireView::InsertDelete {
                    epoch: snap.version,
                    pooled: pooled.clone(),
                },
            };
            // Worst-case wire size (varints at max width) — checked before
            // encoding because an oversized frame is a panic, not an error,
            // at the codec layer.
            let bound = 21
                + match &view {
                    WireView::Unchanged { .. } => 0,
                    WireView::InsertOnly { parts, .. } => {
                        parts.iter().map(|(_, b)| 15 + b.len()).sum::<usize>()
                    }
                    WireView::InsertDelete { pooled, .. } => {
                        pooled.iter().map(|(_, w)| 15 + 10 * w.len()).sum::<usize>()
                    }
                };
            if !crate::proto::body_fits(bound) {
                return Response::error(
                    ErrorCode::Oversized,
                    format!("view is ~{bound} bytes, larger than one frame"),
                );
            }
            Response::View(view)
        }
        // A router's pushed-down read: the same snapshot resolution (lag
        // shed, watermark wait) as a client read, answered over the named
        // partitions only, so only the answer's witness lists are copied.
        Request::ScopedRead {
            query,
            mode,
            parts: named,
        } => {
            let partitions = handle.cfg.partitions;
            if let Some(&p) = named.iter().find(|&&p| p as usize >= partitions) {
                return Response::error(
                    ErrorCode::Malformed,
                    format!("scoped read names partition {p}, space has {partitions}"),
                );
            }
            let snap = match read_snapshot(handle, &mode, shared) {
                Ok(snap) => snap,
                Err(resp) => return *resp,
            };
            let scope = Scope::Parts {
                named: &named,
                partitions,
            };
            match query {
                ScopedQuery::Certified => Response::CertifiedIn(snap.view.certified_in(scope)),
                ScopedQuery::Certify(v) => Response::Answer(snap.view.certify_in(v, scope)),
                ScopedQuery::Top(k) => Response::TopIn(snap.view.top_in(clamp_k(k), scope)),
            }
            .bounded()
        }
        Request::SliceCheckpoint(parts) => {
            if let Some(&p) = parts.iter().find(|&&p| p as usize >= handle.cfg.partitions) {
                return Response::error(
                    ErrorCode::Malformed,
                    format!(
                        "slice names partition {p}, space has {}",
                        handle.cfg.partitions
                    ),
                );
            }
            let mut state = handle.state.lock().expect("space state");
            Response::Checkpoint(state.engine.checkpoint_slice(&parts)).bounded()
        }
        Request::SliceRestore(bytes) => {
            let mut state = handle.state.lock().expect("space state");
            match state.engine.restore_slice(&bytes) {
                Ok(()) => {
                    // Like a full restore, a grafted slice is a checkpoint
                    // point under durability: persist before acknowledging.
                    if let Err(e) = handle.write_checkpoint(&mut state) {
                        return Response::error(
                            ErrorCode::Durability,
                            format!("slice restore applied but could not be persisted: {e}"),
                        );
                    }
                    handle.publish_state(&mut state);
                    Response::Restored
                }
                Err(e) => Response::error(ErrorCode::Checkpoint, e.to_string()),
            }
        }
        // Handled in `handle_request`; unreachable here.
        Request::CreateSpace(_)
        | Request::DropSpace
        | Request::ListSpaces
        | Request::Shutdown
        | Request::Ping
        | Request::JoinWorker(_) => Response::error(
            ErrorCode::Malformed,
            "lifecycle request routed to a space handler".into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    fn never() -> bool {
        false
    }

    #[test]
    fn a_demand_before_the_wait_begins_ends_it_at_once() {
        let signal = RefreshSignal::default();
        let demanded = signal.demands();
        // A read arrives while the sweep runs, after the pass read the count.
        signal.demand();
        let waited = signal.pacing_wait(demanded, Duration::from_secs(10), never);
        assert!(waited < Duration::from_secs(1), "waited {waited:?}");
    }

    #[test]
    fn a_demand_from_another_thread_ends_the_wait() {
        let signal = Arc::new(RefreshSignal::default());
        let demanded = signal.demands();
        // The wait checks `stop` under the signal's lock just before it
        // blocks, and the demand needs that lock: it lands during the wait.
        // (A wait that never checks `stop` drops the sender unsent.)
        let (waiting, wait_began) = mpsc::channel();
        let reader = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                let _ = wait_began.recv();
                signal.demand();
            })
        };
        let waited = signal.pacing_wait(demanded, Duration::from_secs(10), move || {
            let _ = waiting.send(());
            false
        });
        reader.join().expect("reader");
        assert!(waited < Duration::from_secs(1), "waited {waited:?}");
    }

    #[test]
    fn ingest_rings_do_not_end_the_wait() {
        let signal = Arc::new(RefreshSignal::default());
        let done = Arc::new(AtomicBool::new(false));
        let ingest = {
            let (signal, done) = (Arc::clone(&signal), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    signal.ring();
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let waited = signal.pacing_wait(signal.demands(), Duration::from_millis(300), never);
        done.store(true, Ordering::SeqCst);
        ingest.join().expect("ingest");
        assert!(waited >= Duration::from_millis(250), "waited {waited:?}");
    }

    #[test]
    fn shutdown_ends_the_wait() {
        let signal = Arc::new(RefreshSignal::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (waiting, wait_began) = mpsc::channel();
        // What `Server::shutdown` does, once the wait has begun: set the
        // flag, then ring.
        let owner = {
            let (signal, stop) = (Arc::clone(&signal), Arc::clone(&stop));
            std::thread::spawn(move || {
                let _ = wait_began.recv();
                stop.store(true, Ordering::SeqCst);
                signal.ring();
            })
        };
        let waited = signal.pacing_wait(signal.demands(), Duration::from_secs(10), move || {
            let _ = waiting.send(());
            stop.load(Ordering::SeqCst)
        });
        owner.join().expect("owner");
        assert!(waited < Duration::from_secs(1), "waited {waited:?}");
    }

    #[test]
    fn the_unslept_wait_is_owed_to_the_next_one_up_to_the_cap() {
        let ms = Duration::from_millis;
        let signal = RefreshSignal::default();
        let mut pacing = Pacing::default();
        // Each wait below but the last is cut short by a demand already
        // made, so nearly all of it is owed.
        let cut = |pacing: &mut Pacing, took: Duration| {
            let demanded = signal.demands();
            signal.demand();
            pacing.pace(&signal, demanded, took, never);
            pacing.owed
        };
        // A 20 ms sweep earns 60 ms.
        let owed = cut(&mut pacing, ms(20));
        assert!(owed > ms(50) && owed <= ms(60), "owed {owed:?}");
        // A 1 ms sweep earns 3 ms, and the debt rides on top.
        let owed = cut(&mut pacing, ms(1));
        assert!(owed > ms(53) && owed <= ms(63), "owed {owed:?}");
        // A 20 ms sweep's 60 ms on top of the debt passes the cap.
        let owed = cut(&mut pacing, ms(20));
        assert!(owed > ms(90) && owed <= REFRESH_PACE_CAP, "owed {owed:?}");
        // A wait nothing cuts short pays the whole debt.
        let start = Instant::now();
        pacing.pace(&signal, signal.demands(), Duration::ZERO, never);
        assert!(start.elapsed() > ms(80), "waited {:?}", start.elapsed());
        assert_eq!(pacing.owed, Duration::ZERO);
    }
}
