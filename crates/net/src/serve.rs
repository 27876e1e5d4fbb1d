//! The one connection core: accept, read a frame, decode, answer. Both
//! front ends run it — a node's [`crate::Server`] and the `fews-cluster`
//! router — so every tier gets the same connection governance from one
//! copy:
//!
//! * accept-time shedding past a connection cap, with a typed
//!   [`ErrorCode::Overloaded`] frame and a retry hint;
//! * a per-frame deadline once a frame's first byte lands, while idle time
//!   between frames stays free;
//! * payload and response buffers reused for a connection's whole life;
//! * typed error frames for header damage (then close) and for decode
//!   failures (the stream stays in sync, so the connection keeps serving);
//! * a [`Response::Bye`] that commits shutdown before it is written and
//!   wakes the acceptor.
//!
//! A front end hands [`spawn`] its request handler, a plain
//! `Fn(SpaceId, Request) -> Response`, and shares the core's [`FrontEnd`],
//! whose shutdown flag its own background threads poll.

use crate::proto::{check_frame_len, ErrorCode, FrameError, Request, Response};
use fews_common::SpaceId;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection worker blocks in `read` before re-checking the
/// shutdown flag. Bounds how late a worker can notice shutdown.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Upper bound on one response write. A peer that requests a large reply
/// and then never drains its socket would otherwise pin its worker in
/// `write_all` forever — and with it the acceptor's shutdown join.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Once a frame's first byte arrives, the rest of it (header and payload)
/// must land within this deadline. A slowloris peer trickling one byte per
/// poll interval would otherwise hold a worker — and, under a connection
/// cap, a connection slot — forever. Idle time *between* frames is
/// unbounded: a quiet, well-formed connection is cheap.
const FRAME_DEADLINE: Duration = Duration::from_secs(30);

/// Retry hint handed to connections shed at accept time.
const CONN_RETRY_MS: u64 = 200;

/// A front end's request handler: one decoded request in, its response out.
type Handler = dyn Fn(SpaceId, Request) -> Response + Send + Sync;

/// What a front end shares with its connection core: the shutdown flag,
/// and the connection cap with its live and shed counts.
pub struct FrontEnd {
    shutdown: AtomicBool,
    /// Cap on concurrent connections (0 = unlimited).
    max_conns: usize,
    /// Live connection workers.
    conns: AtomicU64,
    /// Connections shed at accept time (monotone).
    shed_conns: AtomicU64,
}

impl FrontEnd {
    /// A front end that sheds connections past `max_conns` (0 = unlimited).
    pub fn new(max_conns: usize) -> FrontEnd {
        FrontEnd {
            shutdown: AtomicBool::new(false),
            max_conns,
            conns: AtomicU64::new(0),
            shed_conns: AtomicU64::new(0),
        }
    }

    /// Whether shutdown has been committed, by the owner or by a client's
    /// `shutdown` request.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Commit shutdown and wake the acceptor listening on `addr` out of its
    /// blocking accept.
    pub fn shutdown(&self, addr: SocketAddr) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    }

    /// Connections shed at accept time (monotone).
    pub fn shed_conns(&self) -> u64 {
        self.shed_conns.load(Ordering::SeqCst)
    }
}

/// Start the acceptor thread: every accepted connection is served on its
/// own worker thread, each decoded request answered by `handler`. The
/// thread returns once `front` is shutting down and every connection
/// worker has been joined.
pub fn spawn(
    listener: TcpListener,
    front: Arc<FrontEnd>,
    handler: impl Fn(SpaceId, Request) -> Response + Send + Sync + 'static,
) -> JoinHandle<()> {
    let handler: Arc<Handler> = Arc::new(handler);
    std::thread::Builder::new()
        .name("fews-net-acceptor".into())
        .spawn(move || run_acceptor(listener, front, handler))
        .expect("spawn acceptor")
}

fn run_acceptor(listener: TcpListener, front: Arc<FrontEnd>, handler: Arc<Handler>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if front.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else {
            // Accept failures (e.g. fd exhaustion from too many concurrent
            // connections) tend to persist; back off instead of spinning.
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        // Accept-time shedding: past the connection cap, answer with a
        // typed Overloaded frame and close — the peer learns to back off
        // instead of discovering a dead socket (or a full SYN queue) later.
        if front.max_conns > 0 && front.conns.load(Ordering::SeqCst) >= front.max_conns as u64 {
            front.shed_conns.fetch_add(1, Ordering::SeqCst);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = stream.write_all(
                &Response::overloaded(
                    format!("server is at its connection limit ({})", front.max_conns),
                    CONN_RETRY_MS,
                )
                .encode(),
            );
            continue;
        }
        front.conns.fetch_add(1, Ordering::SeqCst);
        let front = Arc::clone(&front);
        let handler = Arc::clone(&handler);
        let worker = std::thread::Builder::new()
            .name("fews-net-conn".into())
            .spawn(move || {
                let _slot = ConnSlot(&front);
                serve_connection(stream, &front, &*handler, FRAME_DEADLINE)
            })
            .expect("spawn connection worker");
        workers.push(worker);
        // Reap finished workers so the handle list stays bounded.
        workers.retain(|w| !w.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// What `read_full` observed at a frame boundary.
enum ReadOutcome {
    /// Buffer filled completely.
    Full,
    /// Clean EOF before the first byte — the peer is done.
    CleanEof,
    /// EOF or error partway through — the frame is truncated.
    Truncated,
    /// The front end is shutting down.
    ShuttingDown,
    /// The frame's read deadline expired before the buffer filled — a
    /// slowloris peer trickling bytes, or one that wandered off mid-frame.
    DeadlineExpired,
}

/// Fill `buf` from `stream`, tolerating read timeouts (used as a shutdown
/// poll) without ever losing bytes: the fill position survives timeouts.
/// With a `deadline`, the fill must complete before it — the slowloris
/// guard on a started frame; without one, the wait is unbounded (the idle
/// wait between frames).
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    front: &FrontEnd,
    deadline: Option<Instant>,
) -> ReadOutcome {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Truncated
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if front.is_shutting_down() {
                    return ReadOutcome::ShuttingDown;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return ReadOutcome::DeadlineExpired;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Truncated,
        }
    }
    ReadOutcome::Full
}

/// Best-effort error reply; the peer may already be gone.
fn send_error(stream: &mut TcpStream, code: ErrorCode, message: String) {
    let _ = stream.write_all(&Response::error(code, message).encode());
}

fn error_code_for(err: &FrameError) -> ErrorCode {
    match err {
        FrameError::Oversized(_) => ErrorCode::Oversized,
        FrameError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        FrameError::UnknownTag(_) => ErrorCode::UnknownTag,
        FrameError::Malformed(_) => ErrorCode::Malformed,
    }
}

/// Releases a connection's slot in [`FrontEnd::conns`] however its worker
/// exits.
struct ConnSlot<'a>(&'a FrontEnd);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn serve_connection(
    mut stream: TcpStream,
    front: &FrontEnd,
    handler: &Handler,
    frame_deadline: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut header = [0u8; 4];
    // Request payloads and response frames are read/encoded into buffers
    // that live for the whole connection — no per-frame allocations on the
    // steady-state path. One outsized frame (checkpoint/restore, up to
    // MAX_FRAME = 64 MiB) must not pin that capacity for the connection's
    // life, so capacities above this are released after the frame.
    const BUF_RETAIN: usize = 1 << 20;
    let mut payload: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        if payload.capacity() > BUF_RETAIN {
            payload.shrink_to(BUF_RETAIN);
        }
        if out.capacity() > BUF_RETAIN {
            out.shrink_to(BUF_RETAIN);
        }
        if front.is_shutting_down() {
            return;
        }
        // Idle wait (unbounded) for a frame's first byte; once it lands,
        // the whole frame — header and payload — must complete within
        // `frame_deadline`, or the connection is closed with a typed error.
        match read_full(&mut stream, &mut header[..1], front, None) {
            ReadOutcome::Full => {}
            ReadOutcome::CleanEof | ReadOutcome::ShuttingDown => return,
            ReadOutcome::Truncated | ReadOutcome::DeadlineExpired => return,
        }
        let deadline = Some(Instant::now() + frame_deadline);
        match read_full(&mut stream, &mut header[1..], front, deadline) {
            ReadOutcome::Full => {}
            ReadOutcome::ShuttingDown => return,
            ReadOutcome::CleanEof | ReadOutcome::Truncated => return,
            ReadOutcome::DeadlineExpired => {
                send_error(
                    &mut stream,
                    ErrorCode::Truncated,
                    format!(
                        "frame header did not complete within {}s",
                        frame_deadline.as_secs()
                    ),
                );
                return;
            }
        }
        let declared = u32::from_le_bytes(header) as u64;
        let len = match check_frame_len(declared) {
            Ok(len) => len,
            Err(e) => {
                // Cannot resync a stream with a bogus length: answer, close.
                send_error(&mut stream, ErrorCode::Oversized, e.to_string());
                return;
            }
        };
        payload.clear();
        payload.resize(len, 0);
        match read_full(&mut stream, &mut payload, front, deadline) {
            ReadOutcome::Full => {}
            ReadOutcome::ShuttingDown => return,
            ReadOutcome::CleanEof | ReadOutcome::Truncated => {
                send_error(
                    &mut stream,
                    ErrorCode::Truncated,
                    "frame truncated before declared length".into(),
                );
                return;
            }
            ReadOutcome::DeadlineExpired => {
                send_error(
                    &mut stream,
                    ErrorCode::Truncated,
                    format!(
                        "frame payload did not complete within {}s",
                        frame_deadline.as_secs()
                    ),
                );
                return;
            }
        }
        // The frame is complete, so any decode failure leaves the stream in
        // sync: report it and keep serving this connection.
        let (space, request) = match Request::decode(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                send_error(&mut stream, error_code_for(&e), e.to_string());
                continue;
            }
        };
        let response = handler(space, request);
        let bye = matches!(response, Response::Bye);
        if bye {
            // Commit the shutdown before answering: a peer that dies without
            // reading its Bye must not un-shutdown the front end.
            front.shutdown.store(true, Ordering::SeqCst);
        }
        out.clear();
        response.encode_into(&mut out);
        let write_ok = stream.write_all(&out).is_ok();
        if bye {
            // Wake the acceptor; its own listener address is the only
            // guaranteed-listening endpoint.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return;
        }
        if !write_ok {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_response(stream: &mut TcpStream) -> Response {
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).expect("response header");
        let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
        stream.read_exact(&mut payload).expect("response payload");
        Response::decode(&payload).expect("response decodes")
    }

    #[test]
    fn frame_deadline_cuts_a_stalled_frame_but_not_an_idle_connection() {
        let deadline = Duration::from_millis(250);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        // A core that never cuts would leave the reads below blocked: fail
        // them instead.
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("peer timeout");
        let (stream, _) = listener.accept().expect("accept");
        let conn = std::thread::spawn(move || {
            serve_connection(stream, &FrontEnd::new(0), &|_, _| Response::Pong, deadline)
        });
        // Idle longer than the deadline between frames: still served.
        std::thread::sleep(deadline * 2);
        let ping = Request::Ping.encode(&SpaceId::default_space());
        peer.write_all(&ping).expect("ping");
        assert!(matches!(read_response(&mut peer), Response::Pong));
        // One header byte, then nothing: cut with a typed error frame.
        let started = Instant::now();
        peer.write_all(&ping[..1]).expect("one header byte");
        match read_response(&mut peer) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Truncated),
            other => panic!("expected a truncated error frame, got {other:?}"),
        }
        assert!(started.elapsed() >= deadline, "cut before the deadline");
        let mut rest = [0u8; 1];
        assert_eq!(
            peer.read(&mut rest).expect("read after cut"),
            0,
            "left open"
        );
        conn.join().expect("connection worker");
    }
}
