//! # unimatch-benchmark
//!
//! The one benchmark for UniMatch (`BENCHMARK.json` at the repository
//! root names its workloads and metrics; [`spec::catalogue`] reads it).
//! Every run is one deployment cycle of the paper's system — train the
//! month, write the checkpoint, load it, answer online requests for both
//! tasks, run the offline audience job — under one of four workloads'
//! conditions. An untraced pass gives the end-to-end metrics; a traced
//! pass, with `unimatch_obs` on and spans recorded from this crate around
//! the calls into each layer, gives the per-layer metrics. See `README.md`
//! beside this crate's `Cargo.toml` for the tables and how the metrics are
//! expected to move together.

#![warn(missing_docs)]

pub mod client;
pub mod compare;
pub mod cycle;
pub mod inputs;
pub mod offline;
pub mod online;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod train;
