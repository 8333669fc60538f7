//! # unimatch-models
//!
//! Two-tower architectures for the UniMatch framework (Fig. 2 of the
//! paper): a shared item-embedding lookup table, a user encoder built from
//! a context extractor (Youtube-DNN / CNN / GRU / LSTM / Transformer) and a
//! sequence aggregator (mean / last / max / attention pooling), and an item
//! encoder that reads the lookup table directly. Tower outputs are
//! L2-normalized and compared via a temperature-scaled dot product
//! (Eq. 13), keeping the towers separable for ANN serving.
//!
//! ```
//! use rand::SeedableRng;
//! use unimatch_data::SeqBatch;
//! use unimatch_models::{ModelConfig, TwoTower};
//! use unimatch_tensor::Graph;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = TwoTower::new(ModelConfig::youtube_dnn_mean(100, 8, 0.2), &mut rng);
//!
//! let history = vec![3u32, 17, 42];
//! let batch = SeqBatch::from_histories(&[&history], 8);
//! let mut g = Graph::new();
//! let user = model.user_tower(&mut g, &batch);
//! let items = model.item_tower(&mut g, &[7, 9]);
//! let logits = model.inbatch_logits(&mut g, user, items);
//! assert_eq!(g.value(logits).shape().dims(), &[1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregators;
pub mod config;
pub mod extractors;
mod registrar;
pub mod two_tower;

pub use aggregators::AggregatorParams;
pub use config::{Aggregator, ContextExtractor, ModelConfig};
pub use extractors::ExtractorParams;
pub use registrar::ArchitectureError;
pub use two_tower::TwoTower;
