//! The schedule core shared by the fault labs.
//!
//! A [`Schedule`] is a seeded, *budgeted* decision stream. Every consult
//! draws the next value of a `splitmix64` stream derived from the seed and
//! a per-lab salt, whether or not it injects anything, so the same seed
//! over the same consult sequence produces the same faults — a failing
//! schedule replays exactly from its seed.
//!
//! The `budget` bounds the total number of injected faults. Once spent,
//! the schedule goes permanently quiet: a harness injects chaos for the
//! measured window, then quiesces fault-free and asserts the recovered
//! state is byte-identical to the reference.
//!
//! The transport lab (`fews_net::fault::FaultPlan`) and the storage lab
//! (`fews_engine::diskfault::DiskFaultPlan`) are thin profiles on top:
//! each maps draws to its own fault taxonomy and keeps its own counters.
//! Their tests pin this core, down to a digest of each lab's seeded trace.

use crate::rng::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// A seeded, budgeted decision stream (see the module docs).
#[derive(Debug)]
pub struct Schedule {
    seed: u64,
    /// Per-lab constant mixed into every draw, so two labs given the same
    /// seed still draw unrelated streams.
    salt: u64,
    /// Hard cap on injected faults (`u64::MAX` = unbounded).
    budget: u64,
    /// Faults injected so far; once it reaches `budget` the schedule is
    /// quiet.
    injected: AtomicU64,
    /// Decision counter — every draw advances it.
    decisions: AtomicU64,
}

impl Schedule {
    /// A schedule drawing from `seed` under `salt`, allowing at most
    /// `budget` injected faults.
    pub fn new(seed: u64, salt: u64, budget: u64) -> Schedule {
        Schedule {
            seed,
            salt,
            budget,
            injected: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    /// The next value of the decision stream.
    pub fn draw(&self) -> u64 {
        let d = self.decisions.fetch_add(1, Ordering::SeqCst);
        splitmix64(self.seed ^ splitmix64(d.wrapping_add(self.salt)))
    }

    /// Try to spend one unit of budget; `false` once the schedule is dry.
    pub fn spend(&self) -> bool {
        self.injected
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.budget).then_some(n + 1)
            })
            .is_ok()
    }

    /// Whether the budget is spent (the quiesce signal for harnesses).
    pub fn exhausted(&self) -> bool {
        self.injected.load(Ordering::SeqCst) >= self.budget
    }

    /// A second draw placing a cut strictly inside a buffer of `len > 1`
    /// bytes: at least one byte lands, and at least one does not.
    pub fn cut_inside(&self, len: usize) -> usize {
        1 + (self.draw() as usize) % (len - 1)
    }
}
