//! Shared helpers for the cross-crate integration tests.

use fews_cluster::{Router, RouterOptions};
use fews_engine::EngineConfig;
use fews_net::Server;
use fews_stream::Edge;
use std::collections::HashSet;
use std::net::SocketAddr;

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

/// A memory-only front end under test: a node, or a router over two
/// workers. Both run the one connection core (`fews_net::serve`), so a
/// scenario that holds on one must hold on the other.
pub enum Front {
    /// A single server.
    Node(Server),
    /// A router over two workers.
    Routed {
        router: Router,
        _workers: Vec<Server>,
    },
}

impl Front {
    /// A node serving `cfg`.
    pub fn node(cfg: EngineConfig) -> Front {
        Front::Node(Server::start(cfg, "127.0.0.1:0").expect("bind test server"))
    }

    /// A router over two fresh workers, every process serving `cfg`, with
    /// no heartbeat.
    pub fn routed(cfg: EngineConfig) -> Front {
        let workers: Vec<Server> = (0..2)
            .map(|_| Server::start(cfg, "127.0.0.1:0").expect("bind test worker"))
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
        let opts = RouterOptions {
            heartbeat: None,
            ..RouterOptions::default()
        };
        let router = Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("start test router");
        Front::Routed {
            router,
            _workers: workers,
        }
    }

    /// The address clients dial.
    pub fn local_addr(&self) -> SocketAddr {
        match self {
            Front::Node(server) => server.local_addr(),
            Front::Routed { router, .. } => router.local_addr(),
        }
    }

    /// Block until a client's `shutdown` has wound the front end down.
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
}
