//! # unimatch-eval
//!
//! The evaluation protocol of the UniMatch paper: IR / UT test-case
//! construction with sampled negatives (Sec. IV-A1, Tab. VI), the
//! Recall@N / NDCG@N / HitRate@N metrics of Eqs. 14–15, the retrieved-
//! entity popularity audit of Tab. XI, and a plain-text table renderer for
//! the experiment binaries.
//!
//! The crate is model-free: rankers receive embeddings as raw row-major
//! buffers, so the same protocol evaluates the trained towers, the ANN
//! indexes, or any other scorer.
//!
//! Extensions beyond the paper: [`diversity`] adds catalog-coverage and
//! exposure-Gini audits, and [`bootstrap`] provides confidence intervals /
//! paired superiority tests for deciding whether a table win is real at
//! small test-set sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod diversity;
pub mod metrics;
pub mod pool;
pub mod popularity;
pub mod protocol;
pub mod ranking;
pub mod report;

pub use bootstrap::{bootstrap_ci, paired_superiority, Interval};
pub use diversity::{catalog_coverage, exposure_gini, mean_list_distinctness};
pub use metrics::{case_metrics, rank_relevance, CaseMetrics, MetricAccumulator};
pub use pool::UserPool;
pub use popularity::{popularity_stats, retrieved_popularity, PopularityStats};
pub use protocol::{build_ir_cases, build_ut_cases, item_pool, IrCase, ProtocolConfig, UtCase};
pub use ranking::{evaluate_single_positive_cases, score_candidates, top_n_candidates, EmbeddingMatrix};
pub use report::{pct, Table};
