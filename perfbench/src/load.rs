//! The load generator: one writer and one reader thread, each on its own
//! connection, then a read-your-writes drain that fetches the answers the
//! oracle checks.

use crate::procs::connect;
use crate::trace::Tracer;
use crate::workload::{Spec, Stream};
use fews_net::{Client, ClientError, ErrorCode};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long each pass times `top 3` after its drain.
const DASHBOARD_BURST: Duration = Duration::from_millis(300);

/// Attempted and failed requests per kind, failures by reason.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub attempted: BTreeMap<&'static str, u64>,
    pub failed: BTreeMap<String, u64>,
}

impl Counts {
    fn attempt(&mut self, kind: &'static str) {
        *self.attempted.entry(kind).or_default() += 1;
    }

    /// Count a failure of `kind`. Sheds and watermark timeouts are failures
    /// like any error: each misses every latency target.
    fn fail(&mut self, kind: &'static str, e: &ClientError) {
        let reason = match e {
            ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            } => "overloaded",
            ClientError::Server {
                code: ErrorCode::WatermarkTimeout,
                ..
            } => "watermark_timeout",
            ClientError::Server { .. } => "server_error",
            ClientError::Io(_) => "io",
            ClientError::Protocol(_) => "protocol",
        };
        *self.failed.entry(format!("{kind}.{reason}")).or_default() += 1;
    }

    pub fn merge(&mut self, other: &Counts) {
        for (k, v) in &other.attempted {
            *self.attempted.entry(k).or_default() += v;
        }
        for (k, v) in &other.failed {
            *self.failed.entry(k.clone()).or_default() += v;
        }
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.values().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.values().sum()
    }
}

/// Everything one traffic pass measured.
pub struct Traffic {
    /// Round trip of every acked ingest frame.
    pub ack_ms: Vec<f64>,
    /// Read-your-writes queries, timed from their due time.
    pub fresh_ms: Vec<f64>,
    /// `top 3` queries of the reader (fresh or dashboard).
    pub top_ms: Vec<f64>,
    /// How late each scheduled request started against its schedule.
    pub lateness_ms: Vec<f64>,
    pub reader_queries: u64,
    pub reader_secs: f64,
    pub updates_acked: u64,
    /// Seconds from the first frame sent until the drain's read-your-writes
    /// query covering the last ack answered.
    pub ingest_secs: f64,
    pub state_bytes: u64,
    pub answers: Option<crate::workload::Answers>,
    pub counts: Counts,
    pub tracers: Vec<Tracer>,
    pub error: Option<String>,
}

struct Shared {
    watermark: AtomicU64,
    done: AtomicBool,
    start: Instant,
}

struct WriterOut {
    ack_ms: Vec<f64>,
    acked: u64,
    ingest_secs: f64,
    state_bytes: u64,
    counts: Counts,
    tracer: Tracer,
}

struct ReaderOut {
    fresh_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    queries: u64,
    secs: f64,
    counts: Counts,
    tracer: Tracer,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Send `frames` frames of `spec`'s stream, starting after the base prefix,
/// to `front` while the reader queries it; then drain and fetch answers.
pub fn run(
    spec: &Spec,
    stream: &Stream,
    front: SocketAddr,
    frames: u64,
    traced: bool,
    epoch: Instant,
) -> Traffic {
    let shared = Shared {
        watermark: AtomicU64::new(0),
        done: AtomicBool::new(false),
        start: Instant::now(),
    };
    let probes = stream.probe_vertices();
    let (writer, reader) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(spec, stream, front, frames, &shared, traced, epoch));
        let r = s.spawn(|| reader(spec.reader_hz, front, &probes, &shared, traced, epoch));
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let mut traffic = Traffic {
        ack_ms: Vec::new(),
        fresh_ms: Vec::new(),
        top_ms: Vec::new(),
        lateness_ms: Vec::new(),
        reader_queries: 0,
        reader_secs: 0.0,
        updates_acked: 0,
        ingest_secs: 0.0,
        state_bytes: 0,
        answers: None,
        counts: Counts::default(),
        tracers: Vec::new(),
        error: None,
    };
    let (w, r) = match (writer, reader) {
        (Ok(w), Ok(r)) => (w, r),
        (Err(e), _) | (_, Err(e)) => {
            traffic.error = Some(e);
            return traffic;
        }
    };
    traffic.ack_ms = w.ack_ms;
    traffic.fresh_ms = r.fresh_ms;
    traffic.lateness_ms = r.lateness_ms;
    traffic.reader_queries = r.queries;
    traffic.reader_secs = r.secs;
    traffic.updates_acked = w.acked;
    traffic.counts = w.counts;
    traffic.counts.merge(&r.counts);
    traffic.tracers = vec![w.tracer, r.tracer];
    traffic.ingest_secs = w.ingest_secs;
    traffic.state_bytes = w.state_bytes;

    // The answers the oracle checks, read at the last ack's watermark.
    let drained = (|| -> Result<(), ClientError> {
        let mut c = connect(front)?;
        c.set_watermark(shared.watermark.load(Ordering::SeqCst));
        traffic.counts.attempt("answers");
        let top = c.top(10)?;
        let mut certify = Vec::with_capacity(top.len());
        for nb in &top {
            certify.push((nb.vertex, c.certify(nb.vertex)?));
        }
        traffic.answers = Some(crate::workload::Answers {
            certified: c.certified()?,
            top,
            certify,
        });
        // The dashboard read of the state this workload grew: `top 3`
        // closed loop on the drained topology.
        let start = Instant::now();
        while start.elapsed() < DASHBOARD_BURST {
            traffic.counts.attempt("dashboard_top");
            let t = Instant::now();
            c.top(3)?;
            traffic.top_ms.push(ms(t.elapsed()));
        }
        Ok(())
    })();
    if let Err(e) = drained {
        traffic.error = Some(format!("drain: {e}"));
    }
    traffic
}

fn writer(
    spec: &Spec,
    stream: &Stream,
    front: SocketAddr,
    frames: u64,
    shared: &Shared,
    traced: bool,
    epoch: Instant,
) -> Result<WriterOut, String> {
    let result = (|| {
        let mut c = connect(front).map_err(|e| format!("writer connect: {e}"))?;
        let mut out = WriterOut {
            ack_ms: Vec::with_capacity(frames as usize),
            acked: 0,
            ingest_secs: 0.0,
            state_bytes: 0,
            counts: Counts::default(),
            tracer: Tracer::new(traced, epoch, "writer"),
        };
        let mut buf = Vec::with_capacity(spec.frame);
        let mut first_send = None;
        for k in 0..frames {
            stream.fill(
                spec.base_updates + k * spec.frame as u64,
                spec.frame,
                &mut buf,
            );
            let tr = &mut out.tracer;
            let root = tr.open("writer.frame", None, k);
            let t0 = Instant::now();
            first_send.get_or_insert(t0);
            out.counts.attempt("ingest");
            let acked = tr
                .span("client.ingest_send", Some(root), k, || c.ingest_send(&buf))
                .and_then(|()| tr.span("client.ingest_ack", Some(root), k, || c.ingest_ack()));
            let t1 = Instant::now();
            tr.close(root);
            match acked {
                Ok(_) => {
                    out.ack_ms.push(ms(t1 - t0));
                    out.acked += buf.len() as u64;
                    shared.watermark.store(c.watermark(), Ordering::SeqCst);
                }
                Err(e) => {
                    out.counts.fail("ingest", &e);
                    if matches!(e, ClientError::Io(_)) {
                        c.reconnect()
                            .map_err(|e| format!("writer reconnect: {e}"))?;
                    }
                }
            }
        }
        // The drain: a read-your-writes `stats` carrying the last ack's
        // watermark answers once everything acked is applied and published.
        out.counts.attempt("drain");
        match c.stats() {
            Ok(stats) => {
                let end = Instant::now();
                out.ingest_secs = (end - first_send.unwrap_or(end)).as_secs_f64();
                out.state_bytes = stats.space_bytes;
            }
            Err(e) => {
                out.counts.fail("drain", &e);
                return Err(format!("drain: {e}"));
            }
        }
        Ok(out)
    })();
    shared.done.store(true, Ordering::SeqCst);
    result
}

fn reader(
    hz: f64,
    front: SocketAddr,
    probes: &[u32],
    shared: &Shared,
    traced: bool,
    epoch: Instant,
) -> Result<ReaderOut, String> {
    let mut c: Client = connect(front).map_err(|e| format!("reader connect: {e}"))?;
    let mut out = ReaderOut {
        fresh_ms: Vec::new(),
        lateness_ms: Vec::new(),
        queries: 0,
        secs: 0.0,
        counts: Counts::default(),
        tracer: Tracer::new(traced, epoch, "reader"),
    };
    let start = shared.start;
    let mut i = 0u64;
    while !shared.done.load(Ordering::SeqCst) {
        let tr = &mut out.tracer;
        let v = probes[(i / 2) as usize % probes.len()];
        // The first query is due one period in, once ingest is under way.
        let due = start + Duration::from_secs_f64((i + 1) as f64 / hz);
        sleep_until(due);
        if shared.done.load(Ordering::SeqCst) {
            break;
        }
        out.lateness_ms.push(ms(Instant::now() - due));
        c.set_watermark(shared.watermark.load(Ordering::SeqCst));
        let kind = if i.is_multiple_of(2) {
            "top"
        } else {
            "certify"
        };
        out.counts.attempt(kind);
        let root = tr.open("reader.query", None, i);
        let r = if kind == "top" {
            tr.span("client.top", Some(root), i, || c.top(3).map(drop))
        } else {
            tr.span("client.certify", Some(root), i, || c.certify(v).map(drop))
        };
        let lat = ms(Instant::now() - due);
        match r {
            Ok(()) => {
                out.queries += 1;
                out.fresh_ms.push(lat);
            }
            Err(e) => {
                out.counts.fail(kind, &e);
                if matches!(e, ClientError::Io(_)) {
                    c.reconnect()
                        .map_err(|e| format!("reader reconnect: {e}"))?;
                }
            }
        }
        tr.close(root);
        i += 1;
    }
    out.secs = start.elapsed().as_secs_f64();
    Ok(out)
}
