//! # unimatch-train
//!
//! The optimizer (Adam with lazy sparse embedding updates), the training
//! loop for every loss pathway of the paper (bbcNCE family, SSM, BCE with
//! all four negative-sampling strategies), and the month-by-month
//! **incremental training** schedule of Sec. III-B3 with per-month
//! checkpoints (the input of the Fig. 3 experiment).
//!
//! Robustness plumbing: configs are validated before the first step
//! ([`TrainError`]), an optional [`HealthMonitor`] flags non-finite
//! losses and gradient-norm spikes per step, and [`AdamState`] makes the
//! optimizer's moments portable across a process restart so durable
//! incremental runs resume bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod health;
pub mod optim;
pub mod schedule;
pub mod trainer;

pub use checkpoint::MonthCheckpoint;
pub use error::TrainError;
pub use health::{HealthConfig, HealthMonitor, HealthReport};
pub use optim::{global_grad_norm, Adam, AdamConfig, AdamState};
pub use schedule::Schedule;
pub use trainer::{SsmContext, TrainConfig, TrainLoss, TrainStats, Trainer};
