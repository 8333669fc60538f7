//! # unimatch-core
//!
//! The UniMatch framework (Zhao et al., ICDE 2023): **one** two-tower
//! model trained with the bidirectional bias-corrected NCE loss (bbcNCE)
//! serves both of a merchant's marketing tasks —
//!
//! * **item recommendation (IR)**: given a user, rank items (`p(i|u)`);
//! * **user targeting (UT)**: given an item, rank users (`p(u|i)`).
//!
//! bbcNCE drives the similarity `φ_θ(u,i)` toward the joint probability
//! `log p̂(u,i)`, whose rankings agree with both conditionals, so one set
//! of embeddings — served through ANN indexes — answers both directions.
//!
//! ```no_run
//! use unimatch_core::{UniMatch, UniMatchConfig};
//! use unimatch_data::DatasetProfile;
//!
//! let log = DatasetProfile::EComp.generate(0.2, 42).filter_min_interactions(3);
//! let fitted = UniMatch::new(UniMatchConfig::default()).fit(log);
//!
//! let recs = fitted.recommend_items(&[3, 17, 42], 10);   // IR
//! let targets = fitted.target_users(recs[0].id, 10);     // UT — same model
//! ```
//!
//! Those two calls are the single-query form of the one query path,
//! [`MatchPipeline`] (embed → retrieve → rerank → translate). Everything
//! else — batched, by-embedding, fallible/degradable queries, the
//! serving batcher, the campaign planner, the evaluators — calls the
//! stages and runners on [`FittedUniMatch::item_pipeline`] (IR) or
//! [`FittedUniMatch::user_pipeline`] (UT) directly.
//!
//! Besides the serving facade, this crate hosts the experiment machinery
//! regenerating the paper's evaluation: [`experiment`] (Tabs. VIII–XII,
//! Fig. 3), [`grid`] (Tab. VII), and [`cost`] (the ≥94 % saving of
//! Sec. IV-B5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audience;
pub mod cost;
pub mod durable;
pub mod evaluate;
pub mod experiment;
pub mod framework;
pub mod grid;
pub mod hyper;
pub mod persist;
pub mod pipeline;
pub mod prepare;
pub mod serving;

pub use audience::{build_targeting_list, plan_campaigns, CampaignSpec, CampaignSubject, TargetingList};
pub use cost::{CostComparison, Regime};
pub use durable::{
    train_durable, DurableConfig, DurableError, DurableRun, MonthRecord, RunManifest,
};
pub use evaluate::{evaluate, evaluate_backend_deltas, evaluate_ir_rerank, evaluate_params, evaluate_store_formats, evaluate_with_audit, BackendEval, EvalOutcome, RerankEval, RerankSide, RetrievalAudit, StoreFormatEval};
pub use experiment::{run_experiment, run_experiment_on, CurvePoint, ExperimentOptions, ExperimentOutcome, ExperimentSpec};
pub use framework::{FittedUniMatch, RerankConfig, RetrieverKind, UniMatch, UniMatchConfig};
pub use pipeline::{CheckedBatch, DegradeOptions, MatchPipeline, QuerySource};
pub use unimatch_ann::{QuorumError, RowFormat, ShardHealth, ShardPolicy};
pub use unimatch_parallel::Parallelism;
pub use grid::{grid_search, GridPoint, GridSpec};
pub use hyper::{Hyperparams, Pathway};
pub use persist::{
    load_checkpoint, load_checkpoint_with_format_and_retry, load_model, model_from_json,
    model_to_json, save_model, save_model_with_marginals, RetryPolicy,
};
pub use prepare::PreparedData;
pub use serving::{ModelHandle, ServingState};

/// Serializes unit tests that arm a fault plan (persist retries,
/// durable-training kills): the plan slot is process state, so two armed
/// tests would overwrite each other. They arm with
/// `set_plan_for_this_thread`, so tests that merely pass through the
/// same seams need no lock.
#[cfg(test)]
pub(crate) fn fault_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
