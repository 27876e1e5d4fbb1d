//! Deterministic storage fault injection — the disk twin of the transport
//! fault lab in `fews-net::fault`.
//!
//! A [`DiskFaultPlan`] is a storage profile on the shared [`Schedule`]
//! core (seeded decision stream, budget, replay — see
//! `fews_common::fault`), consulted by the write-ahead log
//! ([`crate::wal::Wal`]) on every flush and fsync, and by the checkpoint
//! writer on every atomic replace.
//!
//! The taxonomy matches what real disks do when they stop cooperating:
//!
//! * **fsync failure** — `fdatasync` reports an error; the page cache state
//!   is now unknowable (the kernel may have dropped the dirty pages), so
//!   the log can never again vouch for durability. The serving layer must
//!   *poison*: fail this ack and every later one with a typed error rather
//!   than guess.
//! * **short write** — the device accepts only a prefix of the buffer.
//!   Everything past the last acked record is allowed to be garbage; the
//!   log scanner's CRC + zero-header discipline must shrug it off.
//! * **ENOSPC** — the device is full before a byte lands.
//!
//! Faults only ever surface as `std::io::Error`s from the exact syscall
//! site a real failure would use; payload bytes that do reach the file are
//! exactly what was sent. That is what makes the lab's assertions
//! meaningful: injected failures exercise poisoning, truncation, and
//! replay — never silent corruption.
//!
//! Separately from the probabilistic stream, a plan can be **armed** with
//! one [`CrashPoint`]: the next time the checkpoint writer reaches that
//! step it stops dead, leaving the directory exactly as a `kill -9` at
//! that instant would. Sweeping the arm over every step of compaction —
//! buffer, tmp write, tmp fsync, rename, directory fsync — and asserting
//! bit-exact recovery after each is the compaction crash lab. Armed
//! crashes are scheduled, not drawn: they cost no budget.

use fews_common::fault::Schedule;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the plan tells the storage layer to do with one outgoing write of
/// `len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Perform the write untouched.
    None,
    /// Write only this many bytes (strictly less than the buffer length),
    /// then fail the operation — the device accepted a prefix.
    Short(usize),
    /// Fail without writing a byte: the device is full (`ENOSPC`).
    NoSpace,
}

/// One step of the checkpoint writer's atomic-replace sequence, in the
/// order a compaction executes them. Arming a plan with a point makes that
/// step stop dead — the on-disk state is exactly what a `kill -9` at that
/// instant leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before any disk mutation: the envelope exists only in memory.
    Buffer,
    /// Mid tmp-file write: a partial `.tmp` sibling is left behind.
    TmpWrite,
    /// After the tmp write, before its fsync: the tmp file's bytes are in
    /// the page cache, not promised to the platter.
    TmpSync,
    /// After the tmp fsync, before the rename: the new envelope is durable
    /// under the wrong name; the target still holds the old one.
    Rename,
    /// After the rename, before the directory fsync: the new name is in
    /// the directory's page cache only.
    DirSync,
}

/// Per-mille probabilities of the injected storage faults.
#[derive(Debug, Clone, Copy)]
pub struct DiskFaultProfile {
    /// Per-mille chance an fsync (log or checkpoint tmp) fails.
    pub sync_fail_permille: u32,
    /// Per-mille chance a write lands short.
    pub short_write_permille: u32,
    /// Per-mille chance a write fails outright with `ENOSPC`.
    pub enospc_permille: u32,
}

impl Default for DiskFaultProfile {
    fn default() -> Self {
        DiskFaultProfile {
            sync_fail_permille: 20,
            short_write_permille: 20,
            enospc_permille: 10,
        }
    }
}

/// A seeded, budgeted storage fault schedule shared by a server's log and
/// checkpoint writers (wrap it in an `Arc`).
#[derive(Debug)]
pub struct DiskFaultPlan {
    schedule: Schedule,
    profile: DiskFaultProfile,
    /// The one armed crash point, consumed on hit.
    armed: Mutex<Option<CrashPoint>>,
    sync_failed: AtomicU64,
    short_writes: AtomicU64,
    no_space: AtomicU64,
    crashes: AtomicU64,
}

/// Counters of what a [`DiskFaultPlan`] actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskFaultCounts {
    /// fsyncs failed.
    pub sync_failed: u64,
    /// Writes landed short.
    pub short_writes: u64,
    /// Writes refused with `ENOSPC`.
    pub no_space: u64,
    /// Armed crash points hit.
    pub crashes: u64,
}

impl DiskFaultPlan {
    /// A plan drawing from `seed` with the given profile, injecting at most
    /// `budget` probabilistic faults before going quiet.
    pub fn new(seed: u64, profile: DiskFaultProfile, budget: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            // The storage lab's salt: distinct from the transport lab's.
            schedule: Schedule::new(seed, 0x5851_F42D, budget),
            profile,
            armed: Mutex::new(None),
            sync_failed: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            no_space: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
        }
    }

    /// A quiet plan that only ever fires armed crash points — the
    /// compaction crash lab's configuration.
    pub fn crash_only(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan::new(
            seed,
            DiskFaultProfile {
                sync_fail_permille: 0,
                short_write_permille: 0,
                enospc_permille: 0,
            },
            0,
        )
    }

    /// Whether the probabilistic budget is spent (the quiesce signal for
    /// harnesses).
    pub fn exhausted(&self) -> bool {
        self.schedule.exhausted()
    }

    /// What to do with a write of `len` bytes about to hit the device.
    pub fn write_fault(&self, len: usize) -> DiskFault {
        let r = self.schedule.draw() % 1000;
        let p = &self.profile;
        if r < u64::from(p.short_write_permille) && len > 1 {
            if self.schedule.spend() {
                self.short_writes.fetch_add(1, Ordering::SeqCst);
                return DiskFault::Short(self.schedule.cut_inside(len));
            }
        } else if r < u64::from(p.short_write_permille) + u64::from(p.enospc_permille)
            && self.schedule.spend()
        {
            self.no_space.fetch_add(1, Ordering::SeqCst);
            return DiskFault::NoSpace;
        }
        DiskFault::None
    }

    /// Should this fsync fail?
    pub fn sync_fails(&self) -> bool {
        let hit = self.schedule.draw() % 1000 < u64::from(self.profile.sync_fail_permille);
        if hit && self.schedule.spend() {
            self.sync_failed.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Arm the plan to crash at `point` the next time the checkpoint
    /// writer reaches it. One arm at a time; re-arming replaces the
    /// previous one.
    pub fn arm_crash(&self, point: CrashPoint) {
        *self.armed.lock().expect("armed crash point") = Some(point);
    }

    /// Consult the armed crash point at `point`; `Some(error)` means stop
    /// dead — the caller must return the error without performing the
    /// step (or any later one). The arm is consumed: recovery runs clean.
    pub fn crash(&self, point: CrashPoint) -> Option<std::io::Error> {
        let mut armed = self.armed.lock().expect("armed crash point");
        if *armed == Some(point) {
            *armed = None;
            self.crashes.fetch_add(1, Ordering::SeqCst);
            return Some(std::io::Error::other(format!(
                "injected crash at {point:?}: process killed mid-checkpoint"
            )));
        }
        None
    }

    /// The error a failed fsync surfaces.
    pub fn sync_error() -> std::io::Error {
        std::io::Error::other("injected fsync failure: page cache state unknown")
    }

    /// The error a short write surfaces after `wrote` of `len` bytes landed.
    pub fn short_write_error(wrote: usize, len: usize) -> std::io::Error {
        std::io::Error::new(
            ErrorKind::WriteZero,
            format!("injected short write: device accepted {wrote} of {len} bytes"),
        )
    }

    /// The error an `ENOSPC` refusal surfaces.
    pub fn no_space_error() -> std::io::Error {
        std::io::Error::new(
            ErrorKind::StorageFull,
            "injected ENOSPC: no space left on device",
        )
    }

    /// What the plan has injected so far.
    pub fn counts(&self) -> DiskFaultCounts {
        DiskFaultCounts {
            sync_failed: self.sync_failed.load(Ordering::SeqCst),
            short_writes: self.short_writes.load(Ordering::SeqCst),
            no_space: self.no_space.load(Ordering::SeqCst),
            crashes: self.crashes.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy() -> DiskFaultProfile {
        DiskFaultProfile {
            sync_fail_permille: 300,
            short_write_permille: 300,
            enospc_permille: 200,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = DiskFaultPlan::new(42, noisy(), u64::MAX);
        let b = DiskFaultPlan::new(42, noisy(), u64::MAX);
        for _ in 0..64 {
            assert_eq!(a.write_fault(100), b.write_fault(100));
            assert_eq!(a.sync_fails(), b.sync_fails());
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn budget_silences_the_plan() {
        let plan = DiskFaultPlan::new(7, noisy(), 5);
        for _ in 0..1000 {
            let _ = plan.write_fault(64);
            let _ = plan.sync_fails();
        }
        let c = plan.counts();
        assert_eq!(c.sync_failed + c.short_writes + c.no_space, 5);
        assert!(plan.exhausted());
        for _ in 0..100 {
            assert_eq!(plan.write_fault(64), DiskFault::None);
            assert!(!plan.sync_fails());
        }
    }

    #[test]
    fn short_writes_stay_strictly_inside_the_buffer() {
        let plan = DiskFaultPlan::new(3, noisy(), u64::MAX);
        for _ in 0..500 {
            if let DiskFault::Short(at) = plan.write_fault(37) {
                assert!((1..37).contains(&at));
            }
        }
    }

    #[test]
    fn armed_crash_fires_once_at_its_point_only() {
        let plan = DiskFaultPlan::crash_only(1);
        assert!(plan.crash(CrashPoint::Rename).is_none(), "unarmed is quiet");
        plan.arm_crash(CrashPoint::Rename);
        assert!(plan.crash(CrashPoint::TmpWrite).is_none(), "wrong point");
        assert!(
            plan.crash(CrashPoint::Rename).is_some(),
            "armed point fires"
        );
        assert!(plan.crash(CrashPoint::Rename).is_none(), "arm is consumed");
        assert_eq!(plan.counts().crashes, 1);
    }

    #[test]
    fn crash_only_plans_never_draw_probabilistic_faults() {
        let plan = DiskFaultPlan::crash_only(9);
        for _ in 0..200 {
            assert_eq!(plan.write_fault(64), DiskFault::None);
            assert!(!plan.sync_fails());
        }
        assert_eq!(plan.counts(), DiskFaultCounts::default());
    }

    /// Seed 2021's first 256 consults, digested when the plan still drew
    /// its own stream: the shared schedule core must replay them exactly,
    /// budget exhaustion included.
    #[test]
    fn seeded_trace_is_pinned() {
        let profile = DiskFaultProfile {
            sync_fail_permille: 100,
            short_write_permille: 100,
            enospc_permille: 100,
        };
        let plan = DiskFaultPlan::new(2021, profile, 24);
        let digest = (0..256usize).fold(0, |h, i| {
            let code = if i.is_multiple_of(2) {
                u64::from(plan.sync_fails())
            } else {
                match plan.write_fault(64 + i) {
                    DiskFault::None => 2,
                    DiskFault::Short(at) => 3 + ((at as u64) << 8),
                    DiskFault::NoSpace => 4,
                }
            };
            fews_common::rng::splitmix64(h ^ code)
        });
        assert_eq!(digest, 0xbc97_4ca2_449c_b50f);
        assert!(plan.exhausted());
    }
}
