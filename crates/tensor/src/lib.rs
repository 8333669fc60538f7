//! # unimatch-tensor
//!
//! The machine-learning substrate of the UniMatch reproduction: dense `f32`
//! tensors and a tape-based reverse-mode autograd engine sized for
//! retrieval-model training (small dense layers + large embedding tables
//! with sparse gradients).
//!
//! The design follows three constraints from the paper's setting:
//!
//! 1. **Two-tower models are small but embedding tables are not** — dense
//!    parameters are copied onto the tape per step, embedding tables are
//!    borrowed in place and receive per-row [`param::SparseGrad`]s.
//! 2. **Losses are batch-global** — the in-batch NCE family needs the full
//!    `[B,B]` logit matrix, so ops like [`Graph::matmul_transpose_b`],
//!    [`Graph::diag`] and row/column softmaxes are first-class.
//! 3. **Everything must be gradient-checkable** — [`check`] provides finite
//!    difference verification used across the workspace test suites.
//!
//! ```
//! use unimatch_tensor::{Graph, ParamSet, Tensor};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Tensor::from_vec([2, 1], vec![0.5, -0.5]));
//!
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::from_vec([1, 2], vec![1.0, 2.0]));
//! let wv = g.param(&params, w);
//! let y = g.matmul(x, wv);
//! let loss = g.mean_all(y);
//! g.backward(loss);
//!
//! let grads = g.dense_grads();
//! assert_eq!(grads[&w].data(), &[1.0, 2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backward;
pub mod check;
mod graph;
pub mod init;
mod ops_nn;
mod ops_pool;
mod param;
mod shape;
mod tensor;

pub use graph::{Graph, Var};
pub use param::{Param, ParamId, ParamSet, SparseGrad};
pub use shape::Shape;
pub use tensor::{dot, Tensor};
