//! # unimatch-data
//!
//! The data pipeline of the UniMatch reproduction: raw `(u, i, t)`
//! interaction logs, the next-n-day pseudo-user windowing of Sec. II-A,
//! temporal train/validation/test splitting, empirical marginals for bias
//! correction, negative samplers realizing the noise distributions of
//! Tab. I, batchers producing the Tab. IV (multinomial) and Tab. V
//! (Bernoulli) record formats, and a synthetic generator standing in for
//! the paper's four datasets (see `DESIGN.md` for the substitution
//! rationale).
//!
//! Training windows a log into samples and splits them by month; each
//! sample's history is a window on its user's shared timeline, and the
//! split moves the samples it is given. Serving never windows: it reads
//! each user's latest history and the training marginals straight off the
//! timelines ([`Marginals::from_log`]).
//!
//! ```
//! use unimatch_data::synthetic::DatasetProfile;
//! use unimatch_data::windowing::{build_samples, WindowConfig};
//! use unimatch_data::split::temporal_split;
//! use unimatch_data::Marginals;
//!
//! let log = DatasetProfile::EComp.generate(0.1, 42);
//! let log = log.filter_min_interactions(3);
//! let samples = build_samples(&log, &WindowConfig::default());
//! let split = temporal_split(samples, log.span_months());
//! assert!(!split.train.is_empty());
//! assert!(!split.test.is_empty());
//! // the same training marginals, counted without windowing
//! let direct = Marginals::from_log(&log);
//! let windowed = Marginals::from_samples(&split.train, log.num_users(), log.num_items());
//! assert_eq!(direct.floor_u().to_bits(), windowed.floor_u().to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod batch;
pub mod calendar;
pub mod csv;
pub mod json;
pub mod log;
pub mod marginals;
pub mod matrix;
pub mod negative;
pub mod split;
pub mod stats;
pub mod synthetic;
pub mod vocab;
pub mod windowing;

pub use crate::log::{Interaction, InteractionLog};
pub use batch::{BceBatch, MultinomialBatch, SeqBatch};
pub use marginals::Marginals;
pub use negative::{NegativeSampler, NegativeStrategy};
pub use split::{temporal_split, TemporalSplit};
pub use synthetic::{DatasetProfile, SyntheticConfig};
pub use vocab::{intern_log, RawRecord, Vocab};
pub use windowing::{build_samples, History, Sample, WindowConfig};
