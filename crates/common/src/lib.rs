//! Shared substrate for the FEwW reproduction.
//!
//! This crate holds the small, dependency-free building blocks every other
//! crate in the workspace relies on:
//!
//! * [`space`] — the [`SpaceUsage`](space::SpaceUsage) trait through which all
//!   data structures report their memory footprint. The paper's theorems are
//!   statements about space; experiments measure it through this trait.
//! * [`math`] — exact integer combinatorics (binomials, ceil-div, integer
//!   logs) and the analytic bound curves the experiments compare against.
//! * [`stats`] — summary statistics (mean, standard deviation, exact
//!   binomial confidence bounds) used by the experiment harness.
//! * [`rng`] — deterministic seed derivation so that every run of every
//!   experiment and every parallel trial is reproducible from a single seed.
//! * [`spaceid`] — multi-tenant *space* identifiers and per-space
//!   configuration ([`SpaceId`], [`SpaceConfig`]): the key every layer above
//!   (protocol, server registry, WAL, checkpoint envelope) uses to keep
//!   tenants apart.
//! * [`fault`] — the seeded, budgeted [`Schedule`](fault::Schedule) under
//!   both fault labs (transport faults in `fews-net`, storage faults in
//!   `fews-engine`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod math;
pub mod rng;
pub mod space;
pub mod spaceid;
pub mod stats;

pub use space::SpaceUsage;
pub use spaceid::{SpaceConfig, SpaceId, SpaceModel, DEFAULT_SPACE};
