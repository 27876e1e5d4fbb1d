//! # Frequent Elements with Witnesses (FEwW)
//!
//! A faithful implementation of the streaming algorithms of
//! **Christian Konrad, "Frequent Elements with Witnesses in Data Streams"
//! (PODS 2021, arXiv:1911.08832)**.
//!
//! Given a stream of edges of a bipartite graph `G = (A, B, E)` with
//! `|A| = n`, promised to contain an A-vertex of degree at least `d`, the
//! algorithms output an A-vertex together with at least `⌊d/α⌋` of its
//! neighbours — *witnesses* proving the vertex is frequent (timestamps,
//! source IPs, users, followers, …).
//!
//! * [`deg_res::DegResSampling`] — Algorithm 1: degree-based reservoir
//!   sampling, the subroutine behind the insertion-only algorithm
//!   (Lemma 3.1).
//! * [`insertion_only::FewwInsertOnly`] — Algorithm 2: the α-approximation
//!   for insertion-only streams, space `Õ(n + d·n^{1/α})` (Theorem 3.2).
//! * [`insertion_deletion::FewwInsertDelete`] — Algorithm 3: the
//!   α-approximation for insertion-deletion streams built on ℓ₀-samplers,
//!   space `Õ(d·n/α²)` for `α ≤ √n` (Theorem 5.4).
//! * [`star`] — Star Detection (Problem 2) via geometric Δ-guessing
//!   (Lemma 3.3, Corollaries 3.4 and 5.5).
//! * [`wire`] — a compact serialization of algorithm memory states, used by
//!   the communication-complexity reductions in `fews-comm` to measure real
//!   message sizes, and by `fews-engine` for checkpoints.
//! * [`witness_list`] — the packed, append-only witness list every
//!   reservoir entry stores its witnesses in.
//!
//! ## Quick start
//!
//! ```
//! use fews_core::insertion_only::{FewwConfig, FewwInsertOnly};
//! use fews_stream::Edge;
//!
//! // A tiny stream where vertex 7 has degree 8.
//! let mut alg = FewwInsertOnly::new(FewwConfig::new(16, 8, 2), 42);
//! for b in 0..8 {
//!     alg.push(Edge::new(7, b));
//! }
//! for a in 0..16 {
//!     alg.push(Edge::new(a, 100 + a as u64));
//! }
//! let out = alg.result().expect("guaranteed w.p. ≥ 1 − 1/n");
//! assert_eq!(out.vertex, 7);
//! assert!(out.witnesses.len() >= 4); // ⌊d/α⌋ = 4 witnesses
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deg_res;
pub mod insertion_deletion;
pub mod insertion_only;
pub mod neighbourhood;
pub mod star;
pub mod two_pass;
pub mod wire;
pub mod wire_id;
pub mod witness_list;

pub use insertion_deletion::FewwInsertDelete;
pub use insertion_only::FewwInsertOnly;
pub use neighbourhood::Neighbourhood;
