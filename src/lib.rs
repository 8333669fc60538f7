//! Facade crate for the UniMatch workspace. See `unimatch_core` for the
//! framework entry point; this crate re-exports everything and hosts the
//! runnable examples and cross-crate integration tests.

#![forbid(unsafe_code)]

pub use unimatch_ann as ann;
pub use unimatch_bench as bench;
pub use unimatch_core as core;
pub use unimatch_data as data;
pub use unimatch_eval as eval;
pub use unimatch_faults as faults;
pub use unimatch_losses as losses;
pub use unimatch_models as models;
pub use unimatch_obs as obs;
pub use unimatch_parallel as parallel;
pub use unimatch_rerank as rerank;
pub use unimatch_serve as serve;
pub use unimatch_tensor as tensor;
pub use unimatch_train as train;
