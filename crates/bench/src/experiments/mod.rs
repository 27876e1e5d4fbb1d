//! Experiment registry — one entry per theorem/lemma/figure (DESIGN.md).

pub mod cluster;
pub mod cluster_faults;
pub mod engine;
pub mod insertion_deletion;
pub mod insertion_only;
pub mod latency;
mod load;
pub mod lower_bounds;
pub mod misc;
pub mod net;
pub mod overload;
pub mod sketch;

use crate::table::Table;
use std::path::PathBuf;

/// Nearest-rank percentile over an already-sorted sample (shared by the
/// serving experiments so `BENCH_net.json` and `BENCH_latency.json`
/// percentiles stay comparable).
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Directory for CSV output.
    pub out_dir: PathBuf,
    /// Reduced trial counts / sweep sizes (CI mode).
    pub quick: bool,
    /// Master seed; every trial derives from it.
    pub seed: u64,
}

impl ExpCtx {
    /// Trials helper: `full` normally, `quick_n` in quick mode.
    pub fn trials(&self, full: u64, quick_n: u64) -> u64 {
        if self.quick {
            quick_n
        } else {
            full
        }
    }
}

/// An experiment: id, one-line description, runner.
pub struct Experiment {
    /// Subcommand / CSV id.
    pub id: &'static str,
    /// What paper claim it reproduces.
    pub claim: &'static str,
    /// Runner producing one or more tables.
    pub run: fn(&ExpCtx) -> Vec<Table>,
}

/// All experiments, in DESIGN.md order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "l31",
            claim: "Lemma 3.1: Deg-Res-Sampling success ≥ 1 − e^{−s·n₂/n₁}",
            run: insertion_only::l31,
        },
        Experiment {
            id: "t32",
            claim: "Theorem 3.2: insertion-only success ≥ 1 − 1/n; space O(n log n + n^{1/α} d log² n)",
            run: insertion_only::t32,
        },
        Experiment {
            id: "c34",
            claim: "Corollary 3.4: semi-streaming O(log n)-approx Star Detection",
            run: insertion_only::c34,
        },
        Experiment {
            id: "l51",
            claim: "Lemma 5.1: C·ln(n)·n·y/k samples collect ≥ y of k marked items w.p. 1 − n^{−(C−3)}",
            run: insertion_deletion::l51,
        },
        Experiment {
            id: "l52",
            claim: "Lemma 5.2: vertex sampling succeeds in the dense regime (≥ n/x heavy vertices)",
            run: insertion_deletion::l52,
        },
        Experiment {
            id: "l53",
            claim: "Lemma 5.3: edge sampling succeeds in the sparse regime (≤ n/x heavy vertices)",
            run: insertion_deletion::l53,
        },
        Experiment {
            id: "t54",
            claim: "Theorem 5.4: insertion-deletion α-approx w.h.p.; space Õ(dn/α²) / Õ(√n·d/α)",
            run: insertion_deletion::t54,
        },
        Experiment {
            id: "t41",
            claim: "Theorem 4.1: FEwW solves Set-Disjointness_p ⇒ Ω(n/α²)",
            run: lower_bounds::t41,
        },
        Experiment {
            id: "t47",
            claim: "Theorems 4.7/4.8: FEwW → Bit-Vector-Learning; message vs Ω(k·n^{1/(p−1)}/p)",
            run: lower_bounds::t47,
        },
        Experiment {
            id: "t62",
            claim: "Theorems 6.2/6.4 via Lemma 6.3: FEwW → Augmented-Matrix-Row-Index",
            run: lower_bounds::t62,
        },
        Experiment {
            id: "f1",
            claim: "Figure 1: worked Bit-Vector-Learning(3,4,5) instance",
            run: lower_bounds::fig1,
        },
        Experiment {
            id: "f2",
            claim: "Figure 2: bit-encoding gadget of the Theorem 4.8 reduction",
            run: lower_bounds::fig2,
        },
        Experiment {
            id: "f3",
            claim: "Figure 3: worked Augmented-Matrix-Row-Index(4,6,2) instance",
            run: lower_bounds::fig3,
        },
        Experiment {
            id: "sep",
            claim: "§1.1: insertion-only vs insertion-deletion space separation",
            run: misc::sep,
        },
        Experiment {
            id: "base",
            claim: "§1.3: witness-free baselines scale ∝ m/d; FEwW scales ∝ d/α (and reports witnesses)",
            run: misc::base,
        },
        Experiment {
            id: "baranyai",
            claim: "Theorem 4.4: constructive Baranyai 1-factorisation (k | n)",
            run: misc::baranyai_exp,
        },
        Experiment {
            id: "ablate",
            claim: "Ablation: Theorem 3.2's reservoir size s = ⌈ln(n)·n^{1/α}⌉ is necessary on the geometric ladder",
            run: insertion_only::ablate,
        },
        Experiment {
            id: "info",
            claim: "§4.2 rules (1)–(5) and Lemma 4.2 hold exactly on enumerated distributions",
            run: misc::info_exp,
        },
        Experiment {
            id: "engine",
            claim: "fews-engine: sharded ingest throughput scaling with shard-invariant certified output (writes BENCH_engine.json)",
            run: engine::engine_exp,
        },
        Experiment {
            id: "sketch",
            claim: "fews-sketch: flat ℓ₀-sampler banks vs loose samplers — ≥50× id-model ingest (writes BENCH_sketch.json)",
            run: sketch::sketch_exp,
        },
        Experiment {
            id: "net",
            claim: "fews-net: loopback TCP serving — mixed ingest+query ops/s, p50/p99 latency, bytes/request (writes BENCH_net.json)",
            run: net::net_exp,
        },
        Experiment {
            id: "cluster",
            claim: "fews-cluster: router + N workers — mixed ingest+query at R ∈ {1,2} × N ∈ {1,2,3,4}, pipelined fan-out (writes BENCH_cluster.json)",
            run: cluster::cluster_exp,
        },
        Experiment {
            id: "cluster_faults",
            claim: "fews-cluster fault lab: seeded transport fault schedules vs R=2 × 3 workers — every schedule converges byte-identical to the oracle",
            run: cluster_faults::cluster_faults_exp,
        },
        Experiment {
            id: "overload",
            claim: "fews-net overload lab: flash-crowd admission shedding + seeded disk-fault recovery — typed errors, stale reads answer, no acked batch lost (writes BENCH_overload.json)",
            run: overload::overload_exp,
        },
        Experiment {
            id: "latency",
            claim: "fews-net snapshot serving: query p50/p99 under sustained ingest + O(1) quiesced repeats (writes BENCH_latency.json)",
            run: latency::latency_exp,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 25);
    }

    #[test]
    fn quick_ctx_reduces_trials() {
        let ctx = ExpCtx {
            out_dir: std::env::temp_dir(),
            quick: true,
            seed: 1,
        };
        assert_eq!(ctx.trials(1000, 10), 10);
        let full = ExpCtx {
            quick: false,
            ..ctx
        };
        assert_eq!(full.trials(1000, 10), 1000);
    }
}
