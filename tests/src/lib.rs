//! Shared helpers for the cross-crate integration tests.

use fews_cluster::{Router, RouterOptions};
use fews_engine::diskfault::DiskFaultPlan;
use fews_engine::EngineConfig;
use fews_net::{Client, ClientOptions, Server, ServerOptions};
use fews_stream::Edge;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Ground-truth neighbour set of a vertex in an edge list.
pub fn true_neighbours(edges: &[Edge], a: u32) -> HashSet<u64> {
    edges.iter().filter(|e| e.a == a).map(|e| e.b).collect()
}

/// Assert a reported neighbourhood is sound (vertex real, witnesses genuine,
/// enough of them) against ground truth.
pub fn assert_sound(nb: &fews_core::Neighbourhood, edges: &[Edge], min_witnesses: usize) {
    let nbrs = true_neighbours(edges, nb.vertex);
    assert!(
        nb.size() >= min_witnesses,
        "only {} witnesses, need {min_witnesses}",
        nb.size()
    );
    for w in &nb.witnesses {
        assert!(
            nbrs.contains(w),
            "witness {w} is not a neighbour of {}",
            nb.vertex
        );
    }
}

/// A front end under test: a node, or a router over two memory-only
/// workers. Both run the one connection core (`fews_net::serve`) and, when
/// durable, the one durable core (`fews_engine::wal`), so a scenario that
/// holds on one must hold on the other.
pub enum Front {
    /// A single server.
    Node(Server),
    /// A router over two workers.
    Routed {
        /// The router clients dial.
        router: Router,
        /// Its workers, each serving the router's config.
        workers: Vec<Server>,
    },
}

impl Front {
    /// A memory-only node serving `cfg`.
    pub fn node(cfg: EngineConfig) -> Front {
        Front::Node(Server::start(cfg, "127.0.0.1:0").expect("bind test server"))
    }

    /// A memory-only router over two fresh workers, every process serving
    /// `cfg`, with no heartbeat.
    pub fn routed(cfg: EngineConfig) -> Front {
        let opts = RouterOptions {
            heartbeat: None,
            ..RouterOptions::default()
        };
        Front::over_workers(cfg, opts)
    }

    /// A memory-only node (`routed` false) or router over two fresh
    /// workers serving `cfg`, shedding client connections past
    /// `max_conns`. A router has no heartbeat.
    pub fn capped(cfg: EngineConfig, routed: bool, max_conns: usize) -> Front {
        if !routed {
            let opts = ServerOptions {
                max_conns,
                ..ServerOptions::default()
            };
            return Front::Node(Server::start_with(cfg, "127.0.0.1:0", opts).expect("bind"));
        }
        let opts = RouterOptions {
            heartbeat: None,
            max_conns,
            ..RouterOptions::default()
        };
        Front::over_workers(cfg, opts)
    }

    /// A durable node (`routed` false) or router on `dir` serving `cfg`,
    /// with `faults` threaded under its WAL and checkpoint writer when
    /// given. `compact` is the compaction trigger the test picks: a node's
    /// `compact_bytes`, a router's `retained_budget` (each refresh that
    /// drains the retained logs compacts). A router gets fresh, empty
    /// workers and no heartbeat, and does not forward shutdown.
    pub fn durable(
        cfg: EngineConfig,
        routed: bool,
        dir: &Path,
        faults: Option<Arc<DiskFaultPlan>>,
        compact: u64,
    ) -> Front {
        if !routed {
            let opts = ServerOptions {
                data_dir: Some(dir.to_path_buf()),
                compact_bytes: compact,
                refresh_debounce: None,
                disk_faults: faults,
                ..ServerOptions::default()
            };
            return Front::Node(Server::start_with(cfg, "127.0.0.1:0", opts).expect("bind"));
        }
        let opts = RouterOptions {
            client: ClientOptions::bounded(Duration::from_secs(5), 0),
            heartbeat: None,
            forward_shutdown: false,
            replicas: 2,
            data_dir: Some(dir.to_path_buf()),
            retained_budget: compact,
            disk_faults: faults,
            max_conns: 0,
        };
        Front::over_workers(cfg, opts)
    }

    /// A router started with `opts` over two fresh memory-only workers.
    fn over_workers(cfg: EngineConfig, opts: RouterOptions) -> Front {
        let workers: Vec<Server> = (0..2)
            .map(|_| Server::start(cfg, "127.0.0.1:0").expect("bind test worker"))
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("start test router");
        Front::Routed { router, workers }
    }

    /// The address clients dial.
    pub fn local_addr(&self) -> SocketAddr {
        match self {
            Front::Node(server) => server.local_addr(),
            Front::Routed { router, .. } => router.local_addr(),
        }
    }

    /// Block until a client's `shutdown` has wound the front end down;
    /// workers still running stop as they drop.
    pub fn join(self) {
        match self {
            Front::Node(server) => {
                server.join();
            }
            Front::Routed { router, .. } => {
                router.join();
            }
        }
    }

    /// `kill -9` every process of the front end: no graceful finalization.
    pub fn crash(self) {
        match self {
            Front::Node(server) => {
                server.crash();
                server.join();
            }
            Front::Routed { router, workers } => {
                router.shutdown();
                router.join();
                for w in workers {
                    w.crash();
                    w.join();
                }
            }
        }
    }

    /// Shut the front end down through `client`, then every process.
    pub fn finish(self, mut client: Client) {
        client.shutdown().expect("shutdown");
        self.join();
    }
}
