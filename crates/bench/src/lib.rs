//! # unimatch-bench
//!
//! The experiment harness regenerating every table and figure of the
//! UniMatch paper's evaluation (see `DESIGN.md` §4 for the index), plus
//! [`loadgen`], the open-loop load client for a running server.
//!
//! `--bin experiments -- <name>` prints one paper table from freshly
//! trained models; `--bin experiments -- all` runs the full suite and
//! writes `EXPERIMENTS.md`. Performance numbers are not this crate's
//! job: they come from `crates/benchmark` (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod convergence;
pub mod experiments;
pub mod loadgen;

pub use cli::Args;
