//! Write-ahead logging, its group commit, and the per-space durability
//! directory — the one durable core under both serving tiers, a node
//! (`fews_net::server`) and a cluster router (`fews_cluster::router`).
//!
//! Durability contract: **fsync before ack**. A batch of updates is appended
//! to the log and `fdatasync`'d *before* the serving layer acknowledges the
//! client — so every acknowledged update is on disk, and a `kill -9` at any
//! instant loses at most un-acknowledged work. Append and fsync are
//! separate steps ([`Wal::append`] buffers in memory, [`Wal::sync`] writes
//! and fsyncs) so that one write+fsync can cover every record appended
//! before it: the *group commit* ([`Wal::wait_durable`]). Its first failed
//! fsync *poisons* the log, and every later batch is refused before it
//! reaches the file ([`Announced::append`]). Recovery restores each space's
//! newest checkpoint envelope and replays the log tail beyond its
//! watermark, reproducing the exact acknowledged state
//! (`tests/tests/wal_recovery.rs` byte-diffs this against a no-crash
//! reference).
//!
//! The log is **shared by every space of a server** — one file at the root
//! of the data dir, each record tagged with the space it belongs to. One
//! log instead of one per space is what makes multi-tenant group commit
//! work: every concurrent batch rides the same flush+fsync no matter which
//! space it addresses, where per-space files would pay one fsync per space
//! per wave (`fdatasync` cannot cover two files). Recovery ([`recover`])
//! demultiplexes records by tag; each space skips records at or below its
//! own checkpoint watermark.
//!
//! One data-dir layout serves both tiers (a router's holds the default
//! space alone): `DATA_DIR/wal.log`; per space, `<space>/space.cfg` (seed,
//! `SpaceConfig`; the default space's guards the flags,
//! [`SpaceDir::check_flags`]) and `<space>/checkpoint.fck` (the v3
//! envelope: the WAL sequence replay skips up to, and the ack watermark).
//!
//! ## Log format
//!
//! An append-only sequence of self-checking records:
//!
//! ```text
//! length   u32 LE — byte count of the payload that follows the two fields
//! crc32    u32 LE — IEEE CRC-32 of the payload
//! payload  seq varint      — strictly increasing record sequence number
//!          space_len varint, space bytes — the space the batch addressed
//!          count varint    — updates in the batch
//!          count × { a varint, b varint, sign byte (0 insert / 1 delete) }
//! ```
//!
//! The count and the updates are the *update section*
//! (`fews_core::wire::put_updates` / `get_updates`), byte for byte an
//! ingest frame's body past its space header. A serving tier appends the
//! section it received verbatim ([`Announced::append_section`]), so the log
//! holds the bytes that arrived, overlong varints included, and recovery
//! decodes them through the decoder the frame went through. The CRC is the
//! IEEE CRC-32, computed sixteen bytes per step (slicing-by-16).
//!
//! A record is *valid* only if its length is sane, its CRC matches, its
//! payload decodes exactly, and its sequence number strictly increases.
//! Recovery stops at the first violation and truncates the file back to the
//! last valid boundary: a torn final write (the expected crash artifact
//! under fsync-before-ack) silently disappears, and mid-log corruption is
//! reported while the valid prefix is recovered.
//!
//! Every flush, fsync, and checkpoint replace can be run under a seeded
//! [`crate::diskfault::DiskFaultPlan`] ([`Wal::open_with`],
//! [`SpaceDir::with_faults`]): injected fsync failures, short writes, and
//! `ENOSPC` surface as `std::io::Error`s from the exact site a real
//! failure would use, and an armed [`crate::diskfault::CrashPoint`] stops
//! a checkpoint replace dead at any of its five steps — the storage fault
//! lab the recovery suite sweeps.
//!
//! ## Compaction
//!
//! The log is not allowed to grow without bound: once it passes the serving
//! layer's threshold, every space's engine is checkpointed into a
//! space-tagged envelope ([`crate::checkpoint::wrap_envelope`]) carrying
//! that space's highest applied sequence number, and [`Wal::compact`]
//! writes each envelope atomically (tmp + `fsync` + `rename` + directory
//! `fsync`) and then resets the log: one file per space, on both tiers. A
//! crash between those steps is safe: replay skips every record at or
//! below its space's envelope watermark, so nothing is applied twice.
use crate::checkpoint::unwrap_for;
use crate::diskfault::{CrashPoint, DiskFault, DiskFaultPlan};
use crate::EngineConfig;
use fews_common::{SpaceConfig, SpaceId};
use fews_core::wire::{
    get_space_config, get_updates, get_uvarint, put_space_config, put_updates, put_uvarint,
    MAX_FRAME,
};
use fews_stream::Update;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Magic bytes opening a space configuration file (`space.cfg`).
pub const SPACE_CONFIG_MAGIC: &[u8; 8] = b"FEWWSPC1";

/// Upper bound on one record's payload. Every logged batch arrived in one
/// wire frame of at most [`MAX_FRAME`] bytes, and its record is that frame's
/// body — the frame less its version and tag bytes — behind a sequence
/// number of at most 10 bytes, with an empty (default) space name written
/// out as `default`, 7 bytes more.
pub const MAX_RECORD: usize = MAX_FRAME - 2 + 10 + 7;

/// File name of the server-wide shared log at the data-dir root.
const WAL_FILE: &str = "wal.log";
/// Sparse-allocation step for the log file. The file is extended with
/// `set_len` in whole chunks and records are written *inside* that
/// allocation with positioned writes, so a steady-state `fdatasync` never
/// has to journal a file-size change — on ext4 that roughly halves the
/// fsync latency on the group-commit critical path. The untouched tail of
/// a chunk reads back as zeros, which the scanner treats as the clean end
/// of the log.
const GROW_CHUNK: u64 = 4 << 20;
/// File names inside a space directory.
const CHECKPOINT_FILE: &str = "checkpoint.fck";
const CONFIG_FILE: &str = "space.cfg";
const TMP_SUFFIX: &str = ".tmp";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-16, its tables computed at compile time.

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][i]` advances byte
/// `i`'s remainder past `k` more zero bytes, so sixteen lookups fold sixteen
/// bytes at once.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// IEEE CRC-32 of `bytes` (the checksum guarding every WAL record).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Record codec.

/// Append one complete record (header + payload) at `seq`, tagged with the
/// space the batch addressed, whose update section `section` writes — the
/// one framer under every append. A payload past [`MAX_RECORD`] is taken
/// back out of `buf` and refused.
fn frame_record(
    buf: &mut Vec<u8>,
    seq: u64,
    space: &str,
    section: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 8]); // length + crc slots, patched below
    put_uvarint(buf, seq);
    put_uvarint(buf, space.len() as u64);
    buf.extend_from_slice(space.as_bytes());
    section(buf);
    let payload_len = buf.len() - start - 8;
    if payload_len > MAX_RECORD {
        buf.truncate(start);
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("a WAL record of {payload_len} bytes exceeds {MAX_RECORD}"),
        ));
    }
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Decode one record payload into `(seq, space, updates)`; `None` on any
/// damage.
fn decode_payload(payload: &[u8]) -> Option<(u64, String, Vec<Update>)> {
    let mut pos = 0usize;
    let seq = get_uvarint(payload, &mut pos)?;
    let space_len = get_uvarint(payload, &mut pos)? as usize;
    let space_end = pos.checked_add(space_len).filter(|&e| e <= payload.len())?;
    let space = std::str::from_utf8(&payload[pos..space_end])
        .ok()?
        .to_string();
    pos = space_end;
    let updates = get_updates(payload, &mut pos).ok()?;
    if pos != payload.len() {
        return None; // trailing bytes
    }
    Some((seq, space, updates))
}

/// One recovered batch: the record's sequence number, the space it
/// addressed, and its updates.
pub type WalRecord = (u64, String, Vec<Update>);

/// What [`Wal::open`] found in an existing log.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every valid record in order ([`recover`] splits them by space tag
    /// and filters against each space's own checkpoint watermark).
    pub replay: Vec<WalRecord>,
    /// Why the log's tail was discarded, if it was: a torn final record, a
    /// CRC mismatch, or a sequence regression. The file has already been
    /// truncated back to the last valid boundary.
    pub damage: Option<String>,
}

/// Scan raw log bytes into valid records plus the valid prefix length.
/// Pure function — the unit of testing for torn/corrupt logs.
pub fn scan_log(bytes: &[u8]) -> (Vec<WalRecord>, usize, Option<String>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut prev_seq = 0u64;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            return (records, pos, Some("torn record header at log tail".into()));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD {
            return (records, pos, Some(format!("absurd record length {len}")));
        }
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 && crc == 0 {
            // A zeroed header is the end of the live log inside a
            // preallocated file, not damage: records are never empty, and
            // fsync-before-ack means nothing beyond it was ever promised.
            return (records, pos, None);
        }
        let Some(end) = pos.checked_add(8 + len).filter(|&e| e <= bytes.len()) else {
            return (records, pos, Some("torn record payload at log tail".into()));
        };
        let payload = &bytes[pos + 8..end];
        if crc32(payload) != crc {
            return (records, pos, Some("record CRC mismatch".into()));
        }
        let Some((seq, space, updates)) = decode_payload(payload) else {
            return (records, pos, Some("record payload undecodable".into()));
        };
        if seq <= prev_seq {
            return (
                records,
                pos,
                Some(format!("sequence regression {prev_seq} -> {seq}")),
            );
        }
        prev_seq = seq;
        records.push((seq, space, updates));
        pos = end;
    }
    (records, pos, None)
}

/// The record's byte position and sequence assignment returned by
/// [`Wal::append`] — also the ticket [`Wal::wait_durable`] waits on.
#[derive(Debug, Clone, Copy)]
pub struct WalAppend {
    /// The record's sequence number.
    pub seq: u64,
    /// Logical log length once the record is in — the durability target a
    /// subsequent flush + fsync must cover before the batch may be
    /// acknowledged.
    pub end: u64,
    /// Encoded size of this record alone.
    pub len: u64,
    /// The log generation the record went into: every reset starts a new
    /// one, and a closed generation is durable through its checkpoints.
    epoch: u64,
}

/// An open write-ahead log — one per server, shared by all of its spaces —
/// and its group commit.
///
/// Appends land in an in-memory *log buffer* — no syscall at all. Getting
/// them to disk is a separate flush (buffer → file) and fsync, so appends
/// never touch the file's inode (they cannot stall behind an in-flight
/// fsync) and the fsync runs outside whatever lock serializes appends. The
/// contract stands regardless: **no record may be acknowledged before a
/// flush *and* an fsync have covered it** — [`Wal::wait_durable`] is how a
/// serving tier waits for that.
#[derive(Debug)]
pub struct Wal {
    file: File,
    pending: Mutex<WalBuf>,
    /// Storage fault lab, consulted on every flush and fsync and by
    /// [`Wal::compact`]'s file replaces (`None` in production).
    faults: Option<Arc<DiskFaultPlan>>,
    commit: Mutex<Commit>,
    /// Signalled whenever a group-commit wait may be able to proceed.
    committed: Condvar,
}

/// The log buffer: appended records not yet written to the file, plus the
/// counters that make appends self-contained under one lock.
#[derive(Debug, Default)]
struct WalBuf {
    data: Vec<u8>,
    /// Logical log length: live file bytes plus the pending buffer.
    bytes: u64,
    /// Physical file size (`set_len` high-water mark); grown in
    /// [`GROW_CHUNK`] steps ahead of the logical length.
    allocated: u64,
    next_seq: u64,
}

/// Group-commit state. Lock order: the buffer lock, then this one — an
/// append registers (and a reset closes the epoch) under the buffer lock,
/// so a record's ticket always names the generation it was written into.
#[derive(Debug, Default)]
struct Commit {
    /// Bumped by every log reset (compaction). Tickets from closed epochs
    /// are durable via the fsynced checkpoints that closed them.
    epoch: u64,
    /// Bytes of the current epoch's log known appended.
    appended: u64,
    /// Bytes of the current epoch's log covered by a completed fsync.
    synced: u64,
    /// A leader's fsync is in flight.
    syncing: bool,
    /// Appends announced ([`Wal::announce`]) and not yet appended or
    /// withdrawn: their records are an apply away, so a scooping leader
    /// holds its fsync for them.
    appenders: u32,
    /// How many appends the most recent completed fsync covered — the
    /// leader's evidence of concurrency when deciding whether a grace hold
    /// is worth it.
    prev_group: u64,
    /// Appends registered since the last fsync's coverage was snapshotted.
    group: u64,
    /// Why durability is off — an fsync failed, or a write to the data dir
    /// left what a restart recovers open ([`Wal::poison`]): the log can no
    /// longer vouch for anything, so every present and future durability
    /// wait fails, and every later announced append is refused, naming it.
    poisoned: Option<String>,
}

/// How long a scooping leader waits for one announced appender.
const SCOOP_WAIT: Duration = Duration::from_millis(2);
/// Cap on a leader's scoop waits, so a stuck appender cannot stall acks.
const SCOOP_ROUNDS: u32 = 8;
/// A leader's one-beat hold for the next wave when the last fsync covered
/// one (see [`Wal::wait_durable`]).
const GRACE_WAIT: Duration = Duration::from_micros(750);

/// An announced append ([`Wal::announce`]). Until it is appended or
/// dropped, a group-commit leader may hold its fsync for it.
#[derive(Debug)]
#[must_use = "an announcement is withdrawn when dropped"]
pub struct Announced<'a> {
    wal: &'a Wal,
}

impl Announced<'_> {
    /// Append one batch for `space` ([`Wal::append`]) — unless durability
    /// is poisoned, in which case the batch is refused, naming the cause,
    /// before it touches the log, so a refused batch can never land behind
    /// a later one.
    pub fn append(self, space: &str, updates: &[Update]) -> std::io::Result<WalAppend> {
        self.wal.refuse_if_poisoned()?;
        self.wal.push(space, |buf| put_updates(buf, updates))
    }

    /// [`Announced::append`] of a batch given as its update section, logged
    /// byte for byte: what a serving tier appends once an ingest frame has
    /// decoded, so the log holds the bytes that arrived and never encodes
    /// the batch again. `section` must decode exactly through
    /// [`get_updates`], as the section of an accepted ingest frame does.
    pub fn append_section(self, space: &str, section: &[u8]) -> std::io::Result<WalAppend> {
        self.wal.refuse_if_poisoned()?;
        self.wal.push(space, |buf| buf.extend_from_slice(section))
    }
}

impl Drop for Announced<'_> {
    fn drop(&mut self) {
        // A panicked holder of the lock is reported by the next `expect`;
        // a drop (maybe during that unwind) must not panic again.
        if let Ok(mut c) = self.wal.commit.lock() {
            c.appenders = c.appenders.saturating_sub(1);
            if c.syncing {
                self.wal.committed.notify_all();
            }
        }
    }
}

impl Wal {
    /// Open (or create) the log at `path`, recover its valid records, and
    /// truncate away any damaged tail. `floor_seq` is the highest checkpoint
    /// watermark across the server's spaces: the log may have been reset
    /// since those sequence numbers were issued, and new records must stay
    /// above every watermark or replay would skip them.
    pub fn open(path: &Path, floor_seq: u64) -> std::io::Result<(Wal, WalRecovery)> {
        Self::open_with(path, floor_seq, None)
    }

    /// [`Wal::open`] with a storage fault plan consulted on every flush and
    /// fsync and by [`Wal::compact`] — the fault lab's entry point.
    /// Recovery itself runs clean: the plan models a flaky device under a
    /// live log, not a corrupted read path.
    pub fn open_with(
        path: &Path,
        floor_seq: u64,
        faults: Option<Arc<DiskFaultPlan>>,
    ) -> std::io::Result<(Wal, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (replay, valid_len, damage) = scan_log(&bytes);
        let mut allocated = bytes.len() as u64;
        if damage.is_some() {
            // Drop the damaged tail. The shrink deallocates it, and the
            // bytes read back as zeros once the file regrows — a clean end
            // of log, so the damage is reported exactly once.
            file.set_len(valid_len as u64)?;
            file.sync_all()?;
            allocated = valid_len as u64;
        }
        let last_seq = replay.last().map_or(0, |(seq, _, _)| *seq);
        let wal = Wal {
            file,
            pending: Mutex::new(WalBuf {
                data: Vec::new(),
                bytes: valid_len as u64,
                allocated,
                next_seq: last_seq.max(floor_seq) + 1,
            }),
            faults,
            commit: Mutex::new(Commit::default()),
            committed: Condvar::new(),
        };
        Ok((wal, WalRecovery { replay, damage }))
    }

    /// Append one batch for `space` to the log buffer (**no file I/O**).
    /// Safe to call from many spaces concurrently — the buffer lock
    /// serializes appends and assigns globally increasing sequence numbers.
    /// This raw append does not look at the poison; a serving tier appends
    /// through [`Wal::announce`] instead.
    ///
    /// # Panics
    ///
    /// If the batch's record would exceed [`MAX_RECORD`] (over 5.5 million
    /// updates); a serving tier's append refuses it typed instead.
    pub fn append(&self, space: &str, updates: &[Update]) -> WalAppend {
        self.push(space, |buf| put_updates(buf, updates))
            .expect("WAL record exceeds MAX_RECORD")
    }

    /// Frame one record whose update section `section` writes into the log
    /// buffer at the next sequence number, and register it with the group
    /// commit.
    fn push(&self, space: &str, section: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<WalAppend> {
        let mut pending = self.pending.lock().expect("wal buffer");
        let seq = pending.next_seq;
        let before = pending.data.len();
        frame_record(&mut pending.data, seq, space, section)?;
        let len = (pending.data.len() - before) as u64;
        pending.bytes += len;
        pending.next_seq += 1;
        let mut c = self.commit.lock().expect("wal commit");
        c.group += 1;
        c.appended = c.appended.max(pending.bytes);
        if c.syncing {
            self.committed.notify_all();
        }
        Ok(WalAppend {
            seq,
            end: pending.bytes,
            len,
            epoch: c.epoch,
        })
    }

    /// The refusal of an append once durability is poisoned, naming why.
    fn refuse_if_poisoned(&self) -> std::io::Result<()> {
        match &self.commit.lock().expect("wal commit").poisoned {
            Some(cause) => Err(std::io::Error::other(format!(
                "durability disabled: {cause}"
            ))),
            None => Ok(()),
        }
    }

    /// Announce an append that is about to queue on the caller's ordering
    /// lock. The announcement is what lets a group-commit leader *scoop*:
    /// it holds its fsync until every announced appender has appended, so
    /// the whole concurrent wave shares one flush instead of paying one
    /// each.
    pub fn announce(&self) -> Announced<'_> {
        let mut c = self.commit.lock().expect("wal commit");
        c.appenders += 1;
        if c.syncing {
            // Wake a leader in its grace hold: the wave it held for is here.
            self.committed.notify_all();
        }
        Announced { wal: self }
    }

    /// Block until `appended`'s record is durable — fsynced, or covered by
    /// a compaction that reset its log generation — flushing and fsyncing
    /// the log as group leader if nobody else is. A flush or fsync failure
    /// poisons the log: this wait and every later one fail.
    pub fn wait_durable(&self, appended: &WalAppend) -> std::io::Result<()> {
        let mut c = self.commit.lock().expect("wal commit");
        loop {
            if let Some(cause) = &c.poisoned {
                return Err(std::io::Error::other(format!(
                    "durability disabled: {cause}"
                )));
            }
            if c.epoch != appended.epoch || c.synced >= appended.end {
                return Ok(());
            }
            if c.syncing {
                c = self.committed.wait(c).expect("wal commit");
                continue;
            }
            // Leader: one flush + fsync covers everything appended up to
            // here. The flush is a page-cache write under the log's own
            // buffer lock — the caller's ordering lock is never touched, so
            // appends keep landing while the disk works — and the fsync,
            // the expensive part, runs with no lock held at all.
            c.syncing = true;
            let epoch = c.epoch;
            c = self.scoop(c, epoch);
            // Grace hold: nobody is announced, but the previous fsync
            // covered a wave — its acks are in flight and the next wave is
            // about an RTT away. Holding one beat merges this record into
            // that wave instead of buying it a private fsync; with a single
            // steady writer the previous group is 1 and the hold never
            // happens, so an unconcurrent stream pays nothing.
            if c.appenders == 0 && c.prev_group >= 2 && c.epoch == epoch {
                c = self
                    .committed
                    .wait_timeout(c, GRACE_WAIT)
                    .expect("wal commit")
                    .0;
                c = self.scoop(c, epoch);
            }
            let covered = c.appended;
            c.prev_group = std::mem::take(&mut c.group);
            drop(c);
            let result = self.sync();
            c = self.commit.lock().expect("wal commit");
            c.syncing = false;
            self.committed.notify_all();
            match result {
                Ok(()) if c.epoch == epoch => c.synced = c.synced.max(covered),
                Ok(()) => {}
                Err(e) => {
                    c.poisoned
                        .get_or_insert_with(|| format!("a write-ahead log fsync failed: {e}"));
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("write-ahead log fsync failed: {e}"),
                    ));
                }
            }
        }
    }

    /// Poison the log as a failed fsync does — every present and future
    /// durability wait fails, every later announced append is refused, each
    /// naming `cause` — after a write to the data dir that left what a
    /// restart recovers open. The first cause stands.
    pub fn poison(&self, cause: impl Into<String>) {
        self.commit
            .lock()
            .expect("wal commit")
            .poisoned
            .get_or_insert_with(|| cause.into());
        self.committed.notify_all();
    }

    /// Scoop the wave: every appender that announced itself is mid-apply
    /// under the caller's ordering lock, one append away. Waiting for the
    /// count to drain means a single fsync covers the whole wave — leaving
    /// one straggler out, so its apply overlaps the disk write. The wait is
    /// event-driven (no polling); the round cap and timeout keep a slow or
    /// stuck appender from stalling acknowledged batches behind it.
    fn scoop<'a>(&self, mut c: MutexGuard<'a, Commit>, epoch: u64) -> MutexGuard<'a, Commit> {
        let mut rounds = 0;
        while c.appenders > 1 && c.epoch == epoch && rounds < SCOOP_ROUNDS {
            let (next, timeout) = self
                .committed
                .wait_timeout(c, SCOOP_WAIT)
                .expect("wal commit");
            c = next;
            if timeout.timed_out() {
                break;
            }
            rounds += 1;
        }
        c
    }

    /// Flush the log buffer and fsync: everything appended so far is on
    /// stable storage when this returns. The raw, retryable primitive under
    /// the group commit: it neither reads nor sets the poison.
    pub fn sync(&self) -> std::io::Result<()> {
        let mut pending = self.pending.lock().expect("wal buffer");
        if !pending.data.is_empty() {
            if pending.bytes > pending.allocated {
                // Sparse extension, whole chunks at a time: the size change
                // is journalled here, once, instead of on every fsync.
                let grown = pending.bytes.div_ceil(GROW_CHUNK) * GROW_CHUNK;
                self.file.set_len(grown)?;
                pending.allocated = grown;
            }
            let offset = pending.bytes - pending.data.len() as u64;
            match self
                .faults
                .as_ref()
                .map_or(DiskFault::None, |plan| plan.write_fault(pending.data.len()))
            {
                DiskFault::None => {}
                DiskFault::Short(wrote) => {
                    // The device accepted a prefix. It lands in the file —
                    // past the last synced record, so recovery's scanner
                    // truncates it — and the buffer is kept intact: the
                    // flush failed, nothing it covered may be acked.
                    self.file.write_all_at(&pending.data[..wrote], offset)?;
                    return Err(DiskFaultPlan::short_write_error(wrote, pending.data.len()));
                }
                DiskFault::NoSpace => return Err(DiskFaultPlan::no_space_error()),
            }
            self.file.write_all_at(&pending.data, offset)?;
            pending.data.clear();
        }
        // The fsync itself runs without the buffer lock: appends keep
        // landing while the disk works.
        drop(pending);
        if self.faults.as_ref().is_some_and(|plan| plan.sync_fails()) {
            // The real fsync is skipped: after a failed fsync the page
            // cache state is unknowable, which is exactly the state the
            // group commit must treat as poisoned.
            return Err(DiskFaultPlan::sync_error());
        }
        self.file.sync_data()
    }

    /// Compact the log: atomically replace every `(path, bytes)` file, in
    /// order and under the log's fault plan — each space's checkpoint
    /// envelope, watermarked with the last sequence it covers and the ack
    /// watermark a restart re-seeds from — then reset the log. A crash or
    /// an error at any step leaves the log intact (the reset comes last),
    /// and replay skips every record at or below its space's envelope
    /// watermark, so nothing is applied twice and nothing acked is lost.
    /// The caller keeps appends out until this returns: a record appended
    /// after its space's envelope was built would vanish with the reset.
    pub fn compact(
        &self,
        files: impl IntoIterator<Item = (PathBuf, Vec<u8>)>,
    ) -> std::io::Result<()> {
        for (path, bytes) in files {
            atomic_write(&path, &bytes, self.faults.as_deref())?;
        }
        self.reset()
    }

    /// Reset the log after a compaction has durably checkpointed every
    /// space. The pending buffer is discarded with the file contents —
    /// every appended record is covered by the checkpoints just taken — and
    /// the durability epoch closes, releasing every group-commit waiter on
    /// those records. Sequence numbers keep increasing across resets — the
    /// checkpoint envelopes' watermarks are what make replay exactly-once.
    pub fn reset(&self) -> std::io::Result<()> {
        // Holding the buffer lock across the truncate keeps a concurrent
        // flush from interleaving a write with it.
        let mut pending = self.pending.lock().expect("wal buffer");
        pending.data.clear();
        // Shrink to zero (dropping every old record), then regrow sparse:
        // the untouched allocation reads back as zeros — a clean end of
        // log — and steady-state appends overwrite inside it without ever
        // moving the file size again.
        self.file.set_len(0)?;
        self.file.set_len(GROW_CHUNK)?;
        self.file.sync_all()?;
        pending.bytes = 0;
        pending.allocated = GROW_CHUNK;
        let mut c = self.commit.lock().expect("wal commit");
        c.epoch += 1;
        c.appended = 0;
        c.synced = 0;
        self.committed.notify_all();
        Ok(())
    }

    /// Current logical log size in bytes (the compaction trigger input).
    pub fn bytes(&self) -> u64 {
        self.pending.lock().expect("wal buffer").bytes
    }

    /// Sequence number of the most recently appended record (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.pending.lock().expect("wal buffer").next_seq - 1
    }
}

// ---------------------------------------------------------------------------
// The per-space durability directory.

/// Atomically replace `path` with `bytes`: write a sibling tmp file, fsync
/// it, rename over the target, fsync the parent directory. A crash at any
/// point leaves either the old complete file or the new complete file.
///
/// With a fault plan attached, every step first consults its
/// [`CrashPoint`] (an armed crash stops dead, leaving the directory
/// exactly as a `kill -9` at that instant would) and the tmp write and
/// fsync draw from the plan's probabilistic stream — short writes,
/// `ENOSPC`, fsync failures — so a flaky disk under the checkpoint writer
/// is replayable from a seed.
fn atomic_write(path: &Path, bytes: &[u8], faults: Option<&DiskFaultPlan>) -> std::io::Result<()> {
    let crash = |point| faults.and_then(|plan| plan.crash(point));
    if let Some(e) = crash(CrashPoint::Buffer) {
        return Err(e);
    }
    let mut tmp_name = path.file_name().expect("file path").to_os_string();
    tmp_name.push(TMP_SUFFIX);
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        if let Some(e) = crash(CrashPoint::TmpWrite) {
            // Kill -9 mid-write: a partial tmp sibling is the artifact.
            f.write_all(&bytes[..bytes.len() / 2])?;
            return Err(e);
        }
        match faults.map_or(DiskFault::None, |plan| plan.write_fault(bytes.len())) {
            DiskFault::None => {}
            DiskFault::Short(wrote) => {
                f.write_all(&bytes[..wrote])?;
                return Err(DiskFaultPlan::short_write_error(wrote, bytes.len()));
            }
            DiskFault::NoSpace => return Err(DiskFaultPlan::no_space_error()),
        }
        f.write_all(bytes)?;
        if let Some(e) = crash(CrashPoint::TmpSync) {
            return Err(e);
        }
        if faults.is_some_and(|plan| plan.sync_fails()) {
            return Err(DiskFaultPlan::sync_error());
        }
        f.sync_all()?;
    }
    if let Some(e) = crash(CrashPoint::Rename) {
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    if let Some(e) = crash(CrashPoint::DirSync) {
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Path of the server-wide shared write-ahead log under `data_dir`.
pub fn wal_path(data_dir: &Path) -> PathBuf {
    data_dir.join(WAL_FILE)
}

/// The on-disk home of one space, `DATA_DIR/<space>/` (see the module docs).
#[derive(Debug, Clone)]
pub struct SpaceDir {
    dir: PathBuf,
    /// Storage fault lab, consulted by the checkpoint writer (`None` in
    /// production).
    faults: Option<Arc<DiskFaultPlan>>,
}

impl SpaceDir {
    /// The directory for `space` under `data_dir` (not created yet).
    pub fn new(data_dir: &Path, space: &SpaceId) -> SpaceDir {
        SpaceDir {
            dir: data_dir.join(space.as_str()),
            faults: None,
        }
    }

    /// Attach a storage fault plan to this directory's checkpoint writes.
    pub fn with_faults(mut self, faults: Option<Arc<DiskFaultPlan>>) -> SpaceDir {
        self.faults = faults;
        self
    }

    /// The space's directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Whether this space has been initialised on disk.
    pub fn exists(&self) -> bool {
        self.dir.join(CONFIG_FILE).is_file()
    }

    /// Create the directory and durably record the space's config and seed.
    pub fn init(&self, spec: &SpaceConfig, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(SPACE_CONFIG_MAGIC);
        put_uvarint(&mut buf, seed);
        put_space_config(&mut buf, spec);
        atomic_write(&self.dir.join(CONFIG_FILE), &buf, None)?;
        // Make the new directory entry itself durable.
        if let Some(parent) = self.dir.parent() {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    }

    /// The default space's config guard, on both tiers: a stored `space.cfg`
    /// must hold `flags`' config and seed (quota aside), or the start is
    /// refused `InvalidInput` before anything else in the data dir is
    /// touched. `None` if absent: the caller adopts `flags` ([`Self::init`]).
    pub fn check_flags(&self, flags: &EngineConfig) -> std::io::Result<Option<SpaceConfig>> {
        if !self.exists() {
            return Ok(None);
        }
        let (stored, seed) = self.load_config()?;
        if seed != flags.seed || stored != flags.to_space(stored.quota_bytes) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "{} was initialised with a different config or seed than the current flags",
                    self.dir.display()
                ),
            ));
        }
        Ok(Some(stored))
    }

    /// Load the space's `(config, seed)` written by [`SpaceDir::init`].
    pub fn load_config(&self) -> std::io::Result<(SpaceConfig, u64)> {
        let path = self.dir.join(CONFIG_FILE);
        let bytes = std::fs::read(&path)?;
        if bytes.len() < SPACE_CONFIG_MAGIC.len()
            || &bytes[..SPACE_CONFIG_MAGIC.len()] != SPACE_CONFIG_MAGIC
        {
            return Err(invalid(format!("{}: not a space config", path.display())));
        }
        let mut pos = SPACE_CONFIG_MAGIC.len();
        let seed = get_uvarint(&bytes, &mut pos)
            .ok_or_else(|| invalid(format!("{}: truncated", path.display())))?;
        let spec = get_space_config(&bytes, &mut pos)
            .ok_or_else(|| invalid(format!("{}: undecodable config", path.display())))?;
        if pos != bytes.len() {
            return Err(invalid(format!("{}: trailing bytes", path.display())));
        }
        Ok((spec, seed))
    }

    /// Path of the space's checkpoint envelope.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    /// Atomically replace the space's checkpoint envelope.
    pub fn write_checkpoint(&self, envelope: &[u8]) -> std::io::Result<()> {
        atomic_write(&self.checkpoint_path(), envelope, self.faults.as_deref())
    }

    /// Read the space's checkpoint envelope, if one has been written.
    pub fn read_checkpoint(&self) -> std::io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.checkpoint_path()) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Delete the space's directory and everything in it.
    pub fn remove(&self) -> std::io::Result<()> {
        std::fs::remove_dir_all(&self.dir)?;
        if let Some(parent) = self.dir.parent() {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    }

    /// Every initialised space under `data_dir`, sorted by name. Entries
    /// that are not valid space names (or not initialised) are skipped.
    pub fn list_spaces(data_dir: &Path) -> std::io::Result<Vec<SpaceId>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(data_dir)? {
            let entry = entry?;
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            let Ok(space) = SpaceId::new(&name) else {
                continue;
            };
            if SpaceDir::new(data_dir, &space).exists() {
                out.push(space);
            }
        }
        out.sort();
        Ok(out)
    }
}

/// One listed space as [`recover`] found it.
#[derive(Debug, Default)]
pub struct SpaceRecovery {
    /// Its checkpoint envelope, space tag checked (`None` if never written).
    pub checkpoint: Option<Vec<u8>>,
    /// The envelope's WAL watermark (0 without one).
    pub wal_seq: u64,
    /// The envelope's ack watermark (`None` without one, or before v3).
    pub acked: Option<u64>,
    /// `(seq, updates)` of its log records past `wal_seq`, in order.
    pub records: Vec<(u64, Vec<Update>)>,
}

/// What [`recover`] found under a data dir.
#[derive(Debug)]
pub struct Recovery {
    /// The shared log, open above every envelope's watermark.
    pub wal: Wal,
    /// One entry per listed space, in the order listed.
    pub spaces: Vec<SpaceRecovery>,
    /// [`WalRecovery::damage`].
    pub damage: Option<String>,
    /// Records of unlisted spaces: debris of dropped ones.
    pub unlisted: usize,
}

/// The one recovery routine of both tiers: read each listed space's
/// checkpoint envelope and check its space tag, open the shared log above
/// every envelope's WAL watermark, and split its records by space past
/// each one's watermark. The caller restores and applies them.
pub fn recover(
    data_dir: &Path,
    spaces: &[SpaceId],
    faults: Option<Arc<DiskFaultPlan>>,
) -> std::io::Result<Recovery> {
    let mut found = Vec::with_capacity(spaces.len());
    for space in spaces {
        let mut rec = SpaceRecovery::default();
        if let Some(bytes) = SpaceDir::new(data_dir, space).read_checkpoint()? {
            let env = unwrap_for(&bytes, space.as_str())
                .map_err(|e| invalid(format!("space {space}: checkpoint envelope: {e}")))?;
            (rec.wal_seq, rec.acked) = (env.wal_seq, env.acked);
            rec.checkpoint = Some(bytes);
        }
        found.push(rec);
    }
    let floor = found.iter().map(|r| r.wal_seq).max().unwrap_or(0);
    let (wal, log) = Wal::open_with(&wal_path(data_dir), floor, faults)?;
    let mut unlisted = 0;
    for (seq, name, updates) in log.replay {
        match spaces.iter().position(|s| s.as_str() == name) {
            None => unlisted += 1,
            Some(i) if seq > found[i].wal_seq => found[i].records.push((seq, updates)),
            Some(_) => {} // already inside this space's checkpoint
        }
    }
    Ok(Recovery {
        wal,
        spaces: found,
        damage: log.damage,
        unlisted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_stream::Edge;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fews-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn batch(lo: u32, n: u32) -> Vec<Update> {
        (lo..lo + n)
            .map(|i| {
                let e = Edge::new(i % 17, i as u64 * 31);
                if i % 5 == 4 {
                    Update::delete(e)
                } else {
                    Update::insert(e)
                }
            })
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32, one bit at a time: the reference the sliced
    /// kernel must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..320).map(|_| next() as u8).collect();
        for len in 0..=300 {
            // Every length at a random start, so the 16-byte blocks fall at
            // every alignment of the buffer.
            let start = (next() % 16) as usize;
            let bytes = &buf[start..start + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
        }
    }

    #[test]
    fn a_section_appends_the_record_its_updates_append() {
        let dir = tmp_dir("section");
        let (coded, _) = Wal::open(&dir.join("coded.log"), 0).expect("open");
        let (verbatim, _) = Wal::open(&dir.join("verbatim.log"), 0).expect("open");
        for (i, b) in [batch(0, 7), batch(9, 0), batch(40, 300)]
            .iter()
            .enumerate()
        {
            let space = ["default", "tenant-a", "default"][i];
            let mut section = Vec::new();
            put_updates(&mut section, b);
            let want = coded.append(space, b);
            let got = verbatim
                .announce()
                .append_section(space, &section)
                .expect("append");
            assert_eq!((got.seq, got.len, got.end), (want.seq, want.len, want.end));
        }
        coded.sync().expect("sync");
        verbatim.sync().expect("sync");
        let read = |name| std::fs::read(dir.join(name)).expect("read log");
        assert_eq!(read("coded.log"), read("verbatim.log"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_record_is_refused_typed_and_leaves_the_log() {
        let dir = tmp_dir("oversized");
        let (wal, _) = Wal::open(&dir.join(WAL_FILE), 0).expect("open");
        let fits = vec![0u8; MAX_RECORD - 1 - 1 - "default".len()];
        let err = wal
            .announce()
            .append_section("default", &[&fits[..], &[0]].concat())
            .expect_err("one byte past MAX_RECORD");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert_eq!((wal.bytes(), wal.last_seq()), (0, 0), "nothing appended");
        let a = wal
            .announce()
            .append_section("default", &fits)
            .expect("exactly MAX_RECORD");
        assert_eq!(a.len as usize, 8 + MAX_RECORD);
        let b = wal.append("default", &batch(0, 3));
        assert_eq!(b.seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_reopen_replays_everything_with_space_tags() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let (wal, rec) = Wal::open(&path, 0).expect("open fresh");
        assert!(rec.replay.is_empty() && rec.damage.is_none());
        let batches = [batch(0, 7), batch(100, 1), batch(200, 64)];
        let spaces = ["default", "tenant-a", "default"];
        for (i, (b, sp)) in batches.iter().zip(spaces).enumerate() {
            let a = wal.append(sp, b);
            assert_eq!(a.seq, i as u64 + 1);
            assert_eq!(a.end, wal.bytes(), "append reports the covered length");
        }
        assert_eq!(wal.last_seq(), 3);
        wal.sync().expect("sync");
        drop(wal);

        let (_, rec) = Wal::open(&path, 0).expect("reopen");
        assert!(rec.damage.is_none());
        assert_eq!(rec.replay.last().map(|r| r.0), Some(3));
        assert_eq!(rec.replay.len(), 3);
        for ((seq, space, got), (want, want_space)) in
            rec.replay.iter().zip(batches.iter().zip(spaces))
        {
            assert_eq!(got, want, "record {seq} diverged");
            assert_eq!(space, want_space, "record {seq} space tag diverged");
        }
        // A space whose checkpoint watermark is 2 replays only the third
        // record; the caller does that filtering per space.
        let beyond: Vec<_> = rec.replay.iter().filter(|(seq, _, _)| *seq > 2).collect();
        assert_eq!(beyond.len(), 1);
        assert_eq!(beyond[0].0, 3);
        // Reopening with a floor above the log's own max keeps new sequence
        // numbers above every outstanding checkpoint watermark.
        let (wal, _) = Wal::open(&path, 7).expect("reopen with floor");
        assert_eq!(wal.append("default", &batches[0]).seq, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_rest_recovered() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE);
        let (wal, _) = Wal::open(&path, 0).expect("open");
        wal.append("default", &batch(0, 10));
        wal.append("default", &batch(50, 10));
        let full = wal.bytes();
        wal.sync().expect("sync");
        drop(wal);
        // Tear the final record at every byte boundary inside it.
        let bytes = std::fs::read(&path).expect("read log");
        let first_len = {
            let (records, _, _) = scan_log(&bytes);
            assert_eq!(records.len(), 2);
            let mut pos = 0;
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
            pos += 8 + len;
            pos
        };
        for cut in [first_len + 1, first_len + 8, full as usize - 1] {
            std::fs::write(&path, &bytes[..cut]).expect("tear");
            let (wal, rec) = Wal::open(&path, 0).expect("reopen torn");
            assert!(rec.damage.is_some(), "cut {cut} should report damage");
            assert_eq!(rec.replay.len(), 1, "cut {cut}: first record survives");
            assert_eq!(rec.replay.last().map(|r| r.0), Some(1));
            assert_eq!(wal.bytes(), first_len as u64, "cut {cut}: truncated");
            drop(wal);
            // After truncation the log is clean again.
            let (_, rec) = Wal::open(&path, 0).expect("reopen clean");
            assert!(rec.damage.is_none());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_stops_replay_at_the_damage() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(WAL_FILE);
        let (wal, _) = Wal::open(&path, 0).expect("open");
        for i in 0..3 {
            wal.append("default", &batch(i * 100, 20));
        }
        wal.sync().expect("sync");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a payload byte in the middle record.
        let len0 = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let mid_payload = len0 + 8 + 8 + 2;
        bytes[mid_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");
        let (_, rec) = Wal::open(&path, 0).expect("reopen");
        assert_eq!(rec.replay.len(), 1, "only the prefix before the damage");
        assert!(rec.damage.expect("damage reported").contains("CRC"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_preserves_sequence_monotonicity() {
        let dir = tmp_dir("reset");
        let path = dir.join(WAL_FILE);
        let (wal, _) = Wal::open(&path, 0).expect("open");
        wal.append("default", &batch(0, 4));
        wal.append("default", &batch(10, 4));
        wal.reset().expect("reset");
        assert_eq!(wal.bytes(), 0);
        let a = wal.append("default", &batch(20, 4));
        assert_eq!(a.seq, 3, "sequence numbers must survive compaction");
        wal.sync().expect("sync");
        drop(wal);
        // Only the post-reset record is in the file; a space checkpointed at
        // watermark 2 replays exactly it.
        let (_, rec) = Wal::open(&path, 0).expect("reopen");
        assert_eq!(rec.replay.len(), 1);
        assert_eq!(rec.replay[0].0, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn space_dir_config_and_checkpoint_roundtrip() {
        let root = tmp_dir("spacedir");
        let space = SpaceId::new("tenant-1").expect("name");
        let sd = SpaceDir::new(&root, &space);
        assert!(!sd.exists());
        let spec = SpaceConfig::insert_delete(64, 1 << 12, 10, 2, 0.05)
            .with_partitions(4)
            .with_quota(1 << 20);
        sd.init(&spec, 9177).expect("init");
        assert!(sd.exists());
        assert_eq!(sd.load_config().expect("load"), (spec, 9177));
        assert_eq!(sd.read_checkpoint().expect("read"), None);
        sd.write_checkpoint(b"FEWWCKP2-pretend").expect("write");
        assert_eq!(
            sd.read_checkpoint().expect("read").as_deref(),
            Some(&b"FEWWCKP2-pretend"[..])
        );
        // Listing sees it; junk directories are skipped.
        std::fs::create_dir_all(root.join("Not A Space")).expect("junk dir");
        std::fs::create_dir_all(root.join("uninitialised")).expect("empty dir");
        let listed = SpaceDir::list_spaces(&root).expect("list");
        assert_eq!(listed, vec![space.clone()]);
        sd.remove().expect("remove");
        assert!(SpaceDir::list_spaces(&root).expect("list").is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn injected_flush_faults_keep_the_buffer_and_the_valid_prefix() {
        use crate::diskfault::{DiskFaultPlan, DiskFaultProfile};
        let dir = tmp_dir("diskfault-flush");
        let path = dir.join(WAL_FILE);
        // Every write lands short, every fsync would fail after it.
        let profile = DiskFaultProfile {
            sync_fail_permille: 0,
            short_write_permille: 1000,
            enospc_permille: 0,
        };
        let plan = Arc::new(DiskFaultPlan::new(5, profile, 1));
        let (wal, _) = Wal::open_with(&path, 0, Some(Arc::clone(&plan))).expect("open");
        wal.append("default", &batch(0, 12));
        let err = wal.sync().expect_err("short write must fail the flush");
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        assert_eq!(plan.counts().short_writes, 1);
        // The budget is spent: the retryable flush now lands everything —
        // the record was kept in the buffer, not lost with the failure.
        wal.sync().expect("post-budget flush is clean");
        drop(wal);
        let (_, rec) = Wal::open(&path, 0).expect("reopen");
        assert_eq!(rec.replay.len(), 1, "the record survived the short write");
        assert!(rec.damage.is_none(), "the full write covered the partial");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_failure_surfaces_without_touching_the_file() {
        use crate::diskfault::{DiskFaultPlan, DiskFaultProfile};
        let dir = tmp_dir("diskfault-sync");
        let path = dir.join(WAL_FILE);
        let profile = DiskFaultProfile {
            sync_fail_permille: 1000,
            short_write_permille: 0,
            enospc_permille: 0,
        };
        let plan = Arc::new(DiskFaultPlan::new(6, profile, 1));
        let (wal, _) = Wal::open_with(&path, 0, Some(plan)).expect("open");
        wal.append("default", &batch(0, 4));
        wal.sync().expect_err("fsync failure must surface");
        // The flush preceding the failed fsync did land; a reopen (fresh
        // plan-free handle) sees the record — what fsync-before-ack means
        // is only that it was never *promised*.
        drop(wal);
        let (_, rec) = Wal::open(&path, 0).expect("reopen");
        assert_eq!(rec.replay.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_crash_points_leave_old_or_new_complete_envelope() {
        use crate::diskfault::{CrashPoint, DiskFaultPlan};
        let root = tmp_dir("diskfault-crash");
        let space = SpaceId::new("s").expect("name");
        let plan = Arc::new(DiskFaultPlan::crash_only(8));
        let sd = SpaceDir::new(&root, &space).with_faults(Some(Arc::clone(&plan)));
        sd.init(&SpaceConfig::insert_only(8, 4, 2), 1)
            .expect("init");
        sd.write_checkpoint(b"OLD-ENVELOPE").expect("baseline");
        let sweep = [
            (CrashPoint::Buffer, false),
            (CrashPoint::TmpWrite, false),
            (CrashPoint::TmpSync, false),
            (CrashPoint::Rename, false),
            // Rename done: the *new* envelope is the visible one.
            (CrashPoint::DirSync, true),
        ];
        for (point, new_visible) in sweep {
            sd.write_checkpoint(b"OLD-ENVELOPE")
                .expect("reset baseline");
            plan.arm_crash(point);
            let err = sd
                .write_checkpoint(b"NEW-ENVELOPE-LONGER")
                .expect_err("armed crash must stop the replace");
            assert!(err.to_string().contains("injected crash"), "{point:?}");
            let got = sd.read_checkpoint().expect("read").expect("present");
            let want: &[u8] = if new_visible {
                b"NEW-ENVELOPE-LONGER"
            } else {
                b"OLD-ENVELOPE"
            };
            assert_eq!(
                got, want,
                "crash at {point:?} must leave a complete envelope"
            );
        }
        assert_eq!(plan.counts().crashes, sweep.len() as u64);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn group_commit_poisons_at_the_first_failed_fsync() {
        use crate::diskfault::{DiskFaultPlan, DiskFaultProfile};
        let dir = tmp_dir("poison");
        let profile = DiskFaultProfile {
            sync_fail_permille: 1000,
            short_write_permille: 0,
            enospc_permille: 0,
        };
        let plan = Arc::new(DiskFaultPlan::new(7, profile, 1));
        let (wal, _) = Wal::open_with(&dir.join(WAL_FILE), 0, Some(plan)).expect("open");
        let a = wal
            .announce()
            .append("default", &batch(0, 4))
            .expect("healthy");
        let err = wal
            .wait_durable(&a)
            .expect_err("the injected fsync failure");
        assert!(err.to_string().contains("fsync failed"), "{err}");
        // The plan is spent and the disk is healthy again, but the log can
        // no longer vouch for anything: later batches are refused before
        // they touch it, and no wait succeeds.
        let err = wal
            .announce()
            .append("default", &batch(10, 4))
            .expect_err("a poisoned log refuses appends");
        assert!(err.to_string().contains("durability disabled"), "{err}");
        assert_eq!(wal.last_seq(), 1, "the refused batch was never logged");
        assert!(wal.wait_durable(&a).is_err(), "the poison is sticky");
        // The raw primitive underneath stays retryable.
        wal.sync().expect("raw sync on a healthy disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_closes_the_durability_epoch_and_a_crash_keeps_the_log() {
        use crate::diskfault::{CrashPoint, DiskFaultPlan};
        let dir = tmp_dir("compact");
        let plan = Arc::new(DiskFaultPlan::crash_only(2));
        let (wal, _) =
            Wal::open_with(&dir.join(WAL_FILE), 0, Some(Arc::clone(&plan))).expect("open");
        let a = wal
            .announce()
            .append("default", &batch(0, 4))
            .expect("append");
        let files = || {
            vec![
                (dir.join("one"), b"first".to_vec()),
                (dir.join("two"), b"second".to_vec()),
            ]
        };
        // Killed before the first rename: the old file and the log stand.
        std::fs::write(dir.join("one"), b"old").expect("old file");
        plan.arm_crash(CrashPoint::Rename);
        wal.compact(files()).expect_err("armed crash");
        assert_eq!(std::fs::read(dir.join("one")).expect("one"), b"old");
        assert!(wal.bytes() > 0, "an aborted compaction keeps the log");
        // A clean compaction replaces every file in order, resets the log
        // and releases the unsynced record's waiter: its checkpoint covers it.
        wal.compact(files()).expect("compact");
        assert_eq!(std::fs::read(dir.join("two")).expect("two"), b"second");
        assert_eq!(wal.bytes(), 0);
        wal.wait_durable(&a).expect("covered by the compaction");
        let b = wal
            .announce()
            .append("default", &batch(8, 4))
            .expect("append");
        assert_eq!(b.seq, 2, "sequence numbers survive compaction");
        wal.wait_durable(&b).expect("fsynced in the new epoch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_splits_records_by_space_past_each_watermark() {
        use crate::checkpoint::{wrap_acked, wrap_envelope};
        let root = tmp_dir("recover");
        let (alpha, beta) = (
            SpaceId::new("alpha").unwrap(),
            SpaceId::new("beta").unwrap(),
        );
        let (wal, _) = Wal::open(&wal_path(&root), 0).expect("open");
        for (i, space) in ["alpha", "beta", "alpha", "gone", "beta", "alpha"]
            .iter()
            .enumerate()
        {
            assert_eq!(
                wal.append(space, &batch(i as u32 * 10, 3)).seq,
                i as u64 + 1
            );
        }
        wal.sync().expect("sync");
        drop(wal);
        // alpha is checkpointed through seq 3; beta has no checkpoint yet.
        let alpha_dir = SpaceDir::new(&root, &alpha);
        std::fs::create_dir_all(alpha_dir.path()).expect("space dir");
        alpha_dir
            .write_checkpoint(&wrap_acked("alpha", 3, 40, b"FEWWCKP1"))
            .expect("checkpoint");

        let rec = recover(&root, &[alpha.clone(), beta.clone()], None).expect("recover");
        let [a, b] = &rec.spaces[..] else {
            panic!("one entry per listed space")
        };
        assert!(a.checkpoint.is_some());
        assert_eq!((a.wal_seq, a.acked), (3, Some(40)));
        let seqs = |r: &SpaceRecovery| r.records.iter().map(|(seq, _)| *seq).collect::<Vec<_>>();
        assert_eq!(seqs(a), [6], "alpha skips the records its checkpoint holds");
        assert_eq!(a.records[0].1, batch(50, 3));
        assert!(b.checkpoint.is_none());
        assert_eq!((b.wal_seq, b.acked), (0, None));
        assert_eq!(seqs(b), [2, 5], "beta replays its whole share, in order");
        assert_eq!(rec.unlisted, 1, "the dropped space's record");
        assert!(rec.damage.is_none());
        assert_eq!(rec.wal.append("beta", &batch(0, 1)).seq, 7);
        rec.wal.reset().expect("reset");
        drop(rec);

        // After a compaction the log is empty and new records must land
        // above every envelope's watermark, or replay would skip them.
        alpha_dir
            .write_checkpoint(&wrap_envelope("alpha", 9, b"FEWWCKP1"))
            .expect("checkpoint");
        let rec = recover(&root, std::slice::from_ref(&alpha), None).expect("recover");
        assert!(rec.spaces[0].records.is_empty());
        assert_eq!(
            rec.spaces[0].acked,
            Some(9),
            "a node's ack watermark is its WAL's"
        );
        assert_eq!(rec.wal.append("alpha", &batch(0, 1)).seq, 10);
        drop(rec);

        // An envelope tagged for another space is refused.
        alpha_dir
            .write_checkpoint(&wrap_envelope("beta", 9, b"FEWWCKP1"))
            .expect("checkpoint");
        let err = recover(&root, &[alpha], None).expect_err("mis-tagged envelope");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("is for space 'beta'"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn check_flags_passes_its_own_flags_and_refuses_others() {
        use fews_core::insertion_only::FewwConfig;
        let root = tmp_dir("flags");
        let sd = SpaceDir::new(&root, &SpaceId::default_space());
        let flags = EngineConfig::insert_only(FewwConfig::new(32, 8, 2), 7).with_partitions(4);
        assert_eq!(sd.check_flags(&flags).expect("absent"), None);
        let spec = flags.to_space(0);
        sd.init(&spec, flags.seed).expect("adopt the flags");
        assert_eq!(sd.check_flags(&flags).expect("same flags"), Some(spec));
        // Shards are runtime shape, not model: they may differ.
        assert!(sd.check_flags(&flags.with_shards(3)).is_ok());
        let stored = std::fs::read(sd.path().join(CONFIG_FILE)).expect("space.cfg");
        let other_seed = EngineConfig::insert_only(FewwConfig::new(32, 8, 2), 8).with_partitions(4);
        let other_n = EngineConfig::insert_only(FewwConfig::new(64, 8, 2), 7).with_partitions(4);
        for other in [other_seed, other_n] {
            let err = sd.check_flags(&other).expect_err("other flags");
            assert_eq!(err.kind(), ErrorKind::InvalidInput);
            assert!(err.to_string().contains("different config"), "{err}");
        }
        assert_eq!(
            std::fs::read(sd.path().join(CONFIG_FILE)).expect("read"),
            stored
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_config_is_invalid_data_not_panic() {
        let root = tmp_dir("badcfg");
        let space = SpaceId::new("s").expect("name");
        let sd = SpaceDir::new(&root, &space);
        sd.init(&SpaceConfig::insert_only(8, 4, 2), 1)
            .expect("init");
        let path = sd.path().join(CONFIG_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).expect("truncate");
        let err = sd.load_config().expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        std::fs::remove_dir_all(&root).ok();
    }
}
