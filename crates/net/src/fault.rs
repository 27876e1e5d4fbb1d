//! Deterministic transport fault injection.
//!
//! A [`FaultPlan`] is the cluster's fault lab: a transport profile on the
//! shared [`Schedule`] core (seeded decision stream, budget, replay — see
//! `fews_common::fault`), consulted by the [`crate::Client`] at every
//! connect attempt and every request it is about to write.
//!
//! The taxonomy matches what a real worker loss looks like from a router:
//!
//! * **connection refusal** — the dial fails outright (the node is gone, or
//!   its listen queue is);
//! * **mid-frame cut** — a request frame is written partially and the
//!   connection is torn down, leaving the peer holding a truncated frame
//!   (what a `kill -9` mid-send leaves behind);
//! * **stall past the read timeout** — the request never completes and the
//!   caller's read deadline fires (a wedged peer, a black-holed route);
//! * **slow start** — the first requests on a fresh connection carry extra
//!   latency (a node warming its caches after rejoin).
//!
//! Faults *only* surface as transport errors; the plan never corrupts
//! payload bytes, so any data a peer does receive is exactly what was sent.
//! That is what makes byte-identity assertions under fault schedules
//! meaningful: the injected failures exercise retry, rejoin, and replica
//! fail-over, never silent corruption.

use fews_common::fault::Schedule;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What the plan tells the transport to do with one outgoing request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver the frame untouched.
    None,
    /// Write only this many bytes of the frame, then tear the connection
    /// down (always strictly less than the frame length).
    CutAfter(usize),
    /// Sleep this long, then fail the request as timed out without writing
    /// a byte.
    Stall(Duration),
    /// Deliver the *whole* frame, then tear the connection down before the
    /// response can be read — the indeterminate failure: the server may
    /// have applied the request, the caller cannot know. This is the fault
    /// that makes blind ingest resends double-apply.
    DeliverThenCut,
}

/// Per-mille probabilities and shapes of the injected faults.
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// Per-mille chance a connect attempt is refused.
    pub refuse_permille: u32,
    /// Per-mille chance a request frame is cut mid-write.
    pub cut_permille: u32,
    /// Per-mille chance a request stalls past the read timeout.
    pub stall_permille: u32,
    /// Per-mille chance a request frame is delivered in full and the
    /// connection cut before the response — the *indeterminate* failure
    /// (default 0: the classic schedules never leave the applied/not-applied
    /// question open, which is what keeps their byte-identity assertions
    /// simple).
    pub deliver_cut_permille: u32,
    /// Simulated stall duration (keep it past the caller's read timeout in
    /// spirit, short in wall-clock — the failure is reported directly).
    pub stall: Duration,
    /// Extra latency on each of the first [`FaultProfile::slow_ops`]
    /// requests of a fresh connection.
    pub slow_start: Duration,
    /// How many requests of a fresh connection are slow-started.
    pub slow_ops: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            refuse_permille: 30,
            cut_permille: 30,
            stall_permille: 20,
            deliver_cut_permille: 0,
            stall: Duration::from_millis(10),
            slow_start: Duration::from_millis(1),
            slow_ops: 4,
        }
    }
}

/// A seeded, budgeted fault schedule shared by every connection that caries
/// it (wrap it in an `Arc` inside [`crate::ClientOptions::faults`]).
#[derive(Debug)]
pub struct FaultPlan {
    schedule: Schedule,
    profile: FaultProfile,
    refused: AtomicU64,
    cut: AtomicU64,
    stalled: AtomicU64,
    delivered_cut: AtomicU64,
}

/// Counters of what a [`FaultPlan`] actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Connect attempts refused.
    pub refused: u64,
    /// Frames cut mid-write.
    pub cut: u64,
    /// Requests stalled past the read timeout.
    pub stalled: u64,
    /// Frames delivered in full with the connection cut before the response.
    pub delivered_cut: u64,
}

impl FaultPlan {
    /// A plan drawing from `seed` with the given profile, injecting at most
    /// `budget` faults before going quiet.
    pub fn new(seed: u64, profile: FaultProfile, budget: u64) -> FaultPlan {
        FaultPlan {
            // The transport lab's salt: distinct from the storage lab's.
            schedule: Schedule::new(seed, 0x9E37_79B9, budget),
            profile,
            refused: AtomicU64::new(0),
            cut: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            delivered_cut: AtomicU64::new(0),
        }
    }

    /// Whether the budget is spent (the quiesce signal for harnesses).
    pub fn exhausted(&self) -> bool {
        self.schedule.exhausted()
    }

    /// Should this connect attempt be refused?
    pub fn connect_refused(&self) -> bool {
        let hit = self.schedule.draw() % 1000 < u64::from(self.profile.refuse_permille);
        if hit && self.schedule.spend() {
            self.refused.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// What to do with the request frame about to be written (`frame_len`
    /// bytes on the wire, header included).
    pub fn send_fault(&self, frame_len: usize) -> SendFault {
        let r = self.schedule.draw() % 1000;
        let p = &self.profile;
        if r < u64::from(p.cut_permille) && frame_len > 1 {
            if self.schedule.spend() {
                self.cut.fetch_add(1, Ordering::SeqCst);
                return SendFault::CutAfter(self.schedule.cut_inside(frame_len));
            }
        } else if r < u64::from(p.cut_permille) + u64::from(p.stall_permille) {
            if self.schedule.spend() {
                self.stalled.fetch_add(1, Ordering::SeqCst);
                return SendFault::Stall(p.stall);
            }
        } else if r < u64::from(p.cut_permille)
            + u64::from(p.stall_permille)
            + u64::from(p.deliver_cut_permille)
            && self.schedule.spend()
        {
            self.delivered_cut.fetch_add(1, Ordering::SeqCst);
            return SendFault::DeliverThenCut;
        }
        SendFault::None
    }

    /// Slow-start latency for request number `op` (1-based) of a fresh
    /// connection, if the profile applies one. Costs no budget — slow start
    /// is degradation, not failure.
    pub fn slow_start(&self, op: u64) -> Option<Duration> {
        (op <= self.profile.slow_ops && !self.profile.slow_start.is_zero())
            .then_some(self.profile.slow_start)
    }

    /// What the plan has injected so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            refused: self.refused.load(Ordering::SeqCst),
            cut: self.cut.load(Ordering::SeqCst),
            stalled: self.stalled.load(Ordering::SeqCst),
            delivered_cut: self.delivered_cut.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy() -> FaultProfile {
        FaultProfile {
            refuse_permille: 500,
            cut_permille: 300,
            stall_permille: 200,
            deliver_cut_permille: 0,
            stall: Duration::from_millis(1),
            slow_start: Duration::from_micros(10),
            slow_ops: 2,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(42, noisy(), u64::MAX);
        let b = FaultPlan::new(42, noisy(), u64::MAX);
        for _ in 0..64 {
            assert_eq!(a.connect_refused(), b.connect_refused());
            assert_eq!(a.send_fault(100), b.send_fault(100));
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn budget_silences_the_plan() {
        let plan = FaultPlan::new(7, noisy(), 5);
        for _ in 0..1000 {
            let _ = plan.connect_refused();
            let _ = plan.send_fault(64);
        }
        let c = plan.counts();
        assert_eq!(c.refused + c.cut + c.stalled, 5);
        assert!(plan.exhausted());
        for _ in 0..100 {
            assert!(!plan.connect_refused());
            assert_eq!(plan.send_fault(64), SendFault::None);
        }
    }

    #[test]
    fn cuts_stay_strictly_inside_the_frame() {
        let plan = FaultPlan::new(3, noisy(), u64::MAX);
        for _ in 0..500 {
            if let SendFault::CutAfter(at) = plan.send_fault(37) {
                assert!((1..37).contains(&at));
            }
        }
    }

    #[test]
    fn deliver_then_cut_draws_deterministically() {
        let profile = FaultProfile {
            refuse_permille: 0,
            cut_permille: 0,
            stall_permille: 0,
            deliver_cut_permille: 1000,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::new(11, profile, 3);
        for _ in 0..10 {
            let _ = plan.send_fault(64);
        }
        assert_eq!(plan.counts().delivered_cut, 3);
        assert_eq!(plan.send_fault(64), SendFault::None);
    }

    #[test]
    fn slow_start_covers_only_the_first_ops() {
        let plan = FaultPlan::new(1, noisy(), u64::MAX);
        assert!(plan.slow_start(1).is_some());
        assert!(plan.slow_start(2).is_some());
        assert!(plan.slow_start(3).is_none());
    }

    /// Seed 2021's first 256 consults, digested when the plan still drew
    /// its own stream: the shared schedule core must replay them exactly,
    /// budget exhaustion included.
    #[test]
    fn seeded_trace_is_pinned() {
        let profile = FaultProfile {
            refuse_permille: 100,
            cut_permille: 100,
            stall_permille: 100,
            deliver_cut_permille: 100,
            ..noisy()
        };
        let plan = FaultPlan::new(2021, profile, 48);
        let digest = (0..256usize).fold(0, |h, i| {
            let code = if i.is_multiple_of(2) {
                u64::from(plan.connect_refused())
            } else {
                match plan.send_fault(64 + i) {
                    SendFault::None => 2,
                    SendFault::CutAfter(at) => 3 + ((at as u64) << 8),
                    SendFault::Stall(_) => 4,
                    SendFault::DeliverThenCut => 5,
                }
            };
            fews_common::rng::splitmix64(h ^ code)
        });
        assert_eq!(digest, 0xba3c_e354_ab64_7553);
        assert!(plan.exhausted());
    }
}
