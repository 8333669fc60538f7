//! # unimatch-train
//!
//! The optimizer (Adam with lazy sparse embedding updates), the training
//! loop for every loss pathway of the paper (bbcNCE family, SSM, BCE with
//! all four negative-sampling strategies), and the month-by-month
//! **incremental training** schedule of Sec. III-B3, one reseeded month
//! step ([`Trainer::train_month`]) that every month loop calls.
//!
//! Robustness plumbing: configs are validated before the first step
//! ([`TrainError`]), an optional [`HealthMonitor`] flags non-finite
//! losses and gradient-norm spikes per step, and [`AdamState`] makes the
//! optimizer's moments portable across a process restart so durable
//! incremental runs resume bit-identically.

#![warn(missing_docs)]

pub mod error;
pub mod health;
pub mod optim;
pub mod schedule;
pub mod trainer;

pub use error::TrainError;
pub use health::{HealthMonitor, HealthReport};
pub use optim::{global_grad_norm, Adam, AdamConfig, AdamState};
pub use schedule::Schedule;
pub use trainer::{MonthSummary, SsmContext, TrainConfig, TrainLoss, TrainStats, Trainer};
