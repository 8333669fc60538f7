//! # unimatch-losses
//!
//! The loss functions of the UniMatch paper:
//!
//! * [`bce::bce_loss`] — binary cross-entropy (Eq. 1), the Bernoulli
//!   pathway, whose optimum depends on the negative-sampling distribution
//!   (Tab. I);
//! * [`nce::nce_loss`] — the generalized bias-corrected in-batch NCE
//!   (Eq. 10), covering InfoNCE, SimCLR, row-bcNCE, col-bcNCE and
//!   **bbcNCE** via [`nce::BiasConfig`] switches (Tab. II);
//! * [`ssm::ssm_loss`] — sampled softmax with logQ correction.
//!
//! All losses are pure graph programs over logits produced by any model,
//! keeping the framework model-agnostic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bce;
pub mod nce;
pub mod registry;
pub mod ssm;

pub use bce::bce_loss;
pub use nce::{nce_loss, BiasConfig};
pub use registry::MultinomialLoss;
pub use ssm::ssm_loss;
