//! The workloads: their model, traffic shape and seeded update stream,
//! plus the in-process oracle every run is checked against.

use fews_common::rng::rng_for;
use fews_core::insertion_deletion::IdConfig;
use fews_core::insertion_only::FewwConfig;
use fews_core::neighbourhood::Neighbourhood;
use fews_engine::{Engine, EngineConfig, GlobalView};
use fews_stream::gen::zipf::Zipf;
use fews_stream::{Edge, Update};

/// The seed `fews listen` and `fews router` use when `--seed` is not given.
/// The benchmark never passes `--seed`: its own seed shapes the stream only.
pub const CLI_SEED: u64 = 2021;

/// Items drawn per zipf pool. The stream walks the pool cyclically while
/// every occurrence gets a fresh timestamp witness, so item frequencies
/// keep the zipf shape and the writer spends no time sampling.
const ZIPF_POOL: usize = 1 << 20;

/// Which model the serving processes run, with the flags that select it.
#[derive(Debug, Clone, Copy)]
pub enum Model {
    Io {
        n: u32,
        d: u32,
        alpha: u32,
    },
    Id {
        n: u32,
        m: u64,
        d: u32,
        alpha: u32,
        scale: f64,
    },
}

pub const ZIPF_MODEL: Model = Model::Io {
    n: 4096,
    d: 2048,
    alpha: 2,
};
pub const DBLOG_MODEL: Model = Model::Id {
    n: 48,
    m: 1024,
    d: 16,
    alpha: 2,
    scale: 0.02,
};

impl Model {
    /// The model flags of `fews listen` / `fews router`; every other flag
    /// stays at the CLI default.
    pub fn cli_args(&self) -> Vec<String> {
        let args = match *self {
            Model::Io { n, d, alpha } => format!("--n {n} --d {d} --alpha {alpha}"),
            Model::Id {
                n,
                m,
                d,
                alpha,
                scale,
            } => format!("--model id --n {n} --m {m} --d {d} --alpha {alpha} --scale {scale}"),
        };
        args.split(' ').map(String::from).collect()
    }

    /// The engine config `fews listen` builds from [`Model::cli_args`] at
    /// the CLI's default runtime shape.
    pub fn engine_cfg(&self) -> EngineConfig {
        match *self {
            Model::Io { n, d, alpha } => {
                EngineConfig::insert_only(FewwConfig::new(n, d, alpha), CLI_SEED)
            }
            Model::Id {
                n,
                m,
                d,
                alpha,
                scale,
            } => EngineConfig::insert_delete(IdConfig::with_scale(n, m, d, alpha, scale), CLI_SEED),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub model: Model,
    /// Updates per ingest frame.
    pub frame: usize,
    /// Updates folded into the base checkpoint every run starts from.
    pub base_updates: u64,
    /// Updates the writer sends per second of `--seconds`. Sized so one
    /// run's writer needs about `--seconds` on a 2-core host; the fixed
    /// volume keeps `state_bytes` and the oracle exact for a seed.
    pub updates_per_sec: f64,
    /// The reader's open-loop rate: it alternates read-your-writes `top 3`
    /// and `certify v`, each carrying the writer's latest acked watermark
    /// and timed from its due time. Below what the fresh path sustains.
    pub reader_hz: f64,
    pub routed: bool,
    /// Traffic passes per run. Each pass launches the topology afresh on
    /// the base state and sends the same frames, so one oracle serves them
    /// all; the run reports medians over passes, which one disturbed pass
    /// or one unlucky process cannot move.
    pub passes: usize,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "zipf-node" => Spec {
                name: "zipf-node",
                model: ZIPF_MODEL,
                frame: 8192,
                base_updates: 1 << 20,
                updates_per_sec: 3_600_000.0,
                // Below what the routed fresh path sustains too: the router
                // answers a fresh read under the lock ingest needs, so a
                // faster reader would mostly measure acks queued behind it.
                reader_hz: 4.0,
                routed: false,
                passes: 6,
            },
            "zipf-routed" => Spec {
                name: "zipf-routed",
                routed: true,
                updates_per_sec: 585_000.0,
                ..Spec::by_name("zipf-node")?
            },
            _ => return None,
        };
        Some(spec)
    }

    pub const NAMES: [&'static str; 2] = ["zipf-node", "zipf-routed"];

    /// Frames the writer sends in a window of `seconds`.
    pub fn frames(&self, seconds: f64) -> u64 {
        ((seconds * self.updates_per_sec) / self.frame as f64)
            .ceil()
            .max(1.0) as u64
    }
}

/// A seeded, indexable update stream: update `t` is a pure function of the
/// seed and `t`, so the writer, the oracle and the traced replay all see
/// the same frames without holding the stream in memory.
pub enum Stream {
    /// Zipf(1.1) items over `n` with the timestamp as the witness — the
    /// insertion-only shape of `experiments net`.
    Zipf { items: Vec<u32> },
    /// The turnstile audit log of `experiments net`, repeated. Repeating a
    /// turnstile log scales every net count, so the answers stay stable.
    Log { log: Vec<Update>, hot: u32 },
}

impl Stream {
    pub fn new(model: Model, seed: u64) -> Stream {
        match model {
            Model::Io { n, .. } => {
                let zipf = Zipf::new(n, 1.1);
                let mut rng = rng_for(seed, 0xBE_0001);
                Stream::Zipf {
                    items: (0..ZIPF_POOL).map(|_| zipf.sample(&mut rng)).collect(),
                }
            }
            Model::Id { n, m, d, .. } => {
                let log =
                    fews_stream::gen::dblog::db_log(n, m, d, 4, 0.5, &mut rng_for(seed, 0xBE_0002));
                Stream::Log {
                    hot: log.hot_record,
                    log: log.updates,
                }
            }
        }
    }

    pub fn update(&self, t: u64) -> Update {
        match self {
            Stream::Zipf { items } => {
                Update::insert(Edge::new(items[(t % items.len() as u64) as usize], t))
            }
            Stream::Log { log, .. } => log[(t % log.len() as u64) as usize],
        }
    }

    /// Updates `start .. start + len` into `out`.
    pub fn fill(&self, start: u64, len: usize, out: &mut Vec<Update>) {
        out.clear();
        out.extend((start..start + len as u64).map(|t| self.update(t)));
    }

    /// Vertices the reader certifies, in rotation: the zipf head, or every
    /// record of the log with the planted hot record first.
    pub fn probe_vertices(&self) -> Vec<u32> {
        match self {
            Stream::Zipf { .. } => (0..16).collect(),
            Stream::Log { log, hot } => {
                let mut vs: Vec<u32> = log.iter().map(|u| u.edge.a).collect();
                vs.sort_unstable();
                vs.dedup();
                vs.retain(|v| v != hot);
                vs.insert(0, *hot);
                vs
            }
        }
    }
}

/// The answers a run is held to after its drain.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    pub certified: Option<Neighbourhood>,
    pub top: Vec<Neighbourhood>,
    pub certify: Vec<(u32, Option<Neighbourhood>)>,
}

impl Answers {
    pub fn of(view: &GlobalView) -> Answers {
        let top = view.top(10);
        let certify = top
            .iter()
            .map(|nb| (nb.vertex, view.certify(nb.vertex)))
            .collect();
        Answers {
            certified: view.certified(),
            top,
            certify,
        }
    }
}

/// What the oracle knows about one run.
pub struct Oracle {
    /// Checkpoint of the base prefix, the state every launch starts from.
    pub base_checkpoint: Vec<u8>,
    /// `top 3` of the base state: a launch is set up once it answers this.
    pub base_top: Vec<Neighbourhood>,
    /// Answers after the base prefix and `updates` more.
    pub answers: Answers,
    pub updates: u64,
}

/// Feed a single-shard engine the base prefix and the next `updates`
/// updates of the stream, in frame order.
pub fn oracle(spec: &Spec, stream: &Stream, updates: u64) -> Oracle {
    let mut engine = Engine::start(spec.model.engine_cfg().with_shards(1));
    let mut buf = Vec::with_capacity(spec.frame);
    let feed = |engine: &mut Engine, buf: &mut Vec<Update>, from: u64, to: u64| {
        let mut t = from;
        while t < to {
            let len = (to - t).min(spec.frame as u64) as usize;
            stream.fill(t, len, buf);
            engine.ingest(buf.iter().copied());
            t += len as u64;
        }
    };
    feed(&mut engine, &mut buf, 0, spec.base_updates);
    let base_checkpoint = engine.checkpoint();
    let base_top = engine.view().top(3);
    feed(
        &mut engine,
        &mut buf,
        spec.base_updates,
        spec.base_updates + updates,
    );
    let answers = Answers::of(&engine.view());
    Oracle {
        base_checkpoint,
        base_top,
        answers,
        updates,
    }
}
