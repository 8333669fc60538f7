//! # unimatch-experiments
//!
//! The experiment harness regenerating every table and figure of the
//! UniMatch paper's evaluation (see `DESIGN.md` §4 for the index). It is
//! a leaf: no other crate of the workspace depends on it, so the
//! paper-only machinery — the [`convergence`] proof behind Tabs. I/II,
//! the Tab. VII [`grid`] search, the Sec. IV-B5 [`cost`] arithmetic and
//! the dense [`matrix`] they read — stays out of the production crates.
//!
//! `--bin experiments -- <name>` prints one paper table from freshly
//! trained models; `--bin experiments -- all` runs the full suite and
//! writes `EXPERIMENTS.md`. Performance numbers are not this crate's
//! job: they come from `crates/benchmark` (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod cli;
pub mod convergence;
pub mod cost;
pub mod experiments;
pub mod grid;
pub mod matrix;

pub use cli::Args;
