//! Named, persistent trainable parameters.
//!
//! Parameters live *outside* the per-step computation graph. Each training
//! step copies dense parameters into graph leaves (they are small) and
//! borrows embedding tables in place (they are large); gradients flow back
//! keyed by [`ParamId`].

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Stable handle to a parameter inside a [`ParamSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The underlying index (stable for the lifetime of the `ParamSet`).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A single named parameter tensor.
#[derive(Clone, Debug)]
pub struct Param {
    /// Human-readable name, e.g. `"user_encoder.gru.w_z"`.
    pub name: String,
    /// Current value.
    pub value: Tensor,
}

/// The collection of all trainable parameters of a model.
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// An empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(Param { name: name.into(), value });
        id
    }

    /// The parameter value.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// The parameter value, mutably (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// The parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Shape of a parameter.
    pub fn shape(&self, id: ParamId) -> &Shape {
        self.params[id.0].value.shape()
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters have been registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates `(id, param)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Total number of trainable scalars across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.shape().numel()).sum()
    }

    /// Global L2 norm of all parameters (diagnostics).
    pub fn global_norm(&self) -> f32 {
        self.params.iter().map(|p| p.value.norm_sq()).sum::<f32>().sqrt()
    }
}

/// Per-row sparse gradient for an embedding table: only touched rows carry
/// gradient mass, so optimizers can update lazily.
#[derive(Clone, Debug, Default)]
pub struct SparseGrad {
    /// Embedding dimension (row width).
    pub dim: usize,
    /// Accumulated gradient per touched row.
    pub rows: std::collections::HashMap<u32, Vec<f32>>,
}

impl SparseGrad {
    /// Creates an empty sparse gradient for rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        SparseGrad { dim, rows: std::collections::HashMap::new() }
    }

    /// Accumulates `grad` into `row`.
    pub fn accumulate(&mut self, row: u32, grad: &[f32]) {
        debug_assert_eq!(grad.len(), self.dim);
        let slot = self.rows.entry(row).or_insert_with(|| vec![0.0; self.dim]);
        for (s, &g) in slot.iter_mut().zip(grad.iter()) {
            *s += g;
        }
    }

    /// Number of distinct rows touched.
    pub fn touched(&self) -> usize {
        self.rows.len()
    }

    /// Converts into a dense gradient tensor of shape `[vocab, dim]`
    /// (testing aid; production updates stay sparse).
    pub fn to_dense(&self, vocab: usize) -> Tensor {
        let mut out = Tensor::zeros([vocab, self.dim]);
        for (&row, grad) in &self.rows {
            let dst = out.row_mut(row as usize);
            for (d, &g) in dst.iter_mut().zip(grad.iter()) {
                *d += g;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Tensor::ones([2, 3]));
        let b = ps.add("b", Tensor::zeros([3]));
        assert_ne!(a, b);
        assert_eq!(ps.name(a), "w");
        assert_eq!(ps.get(b).shape().dims(), &[3]);
        assert_eq!(ps.num_scalars(), 9);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn sparse_grad_accumulates() {
        let mut g = SparseGrad::new(2);
        g.accumulate(3, &[1.0, 2.0]);
        g.accumulate(3, &[0.5, 0.5]);
        g.accumulate(7, &[1.0, 0.0]);
        assert_eq!(g.touched(), 2);
        let dense = g.to_dense(10);
        assert_eq!(dense.row(3), &[1.5, 2.5]);
        assert_eq!(dense.row(7), &[1.0, 0.0]);
        assert_eq!(dense.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn global_norm() {
        let mut ps = ParamSet::new();
        ps.add("a", Tensor::vector(&[3.0]));
        ps.add("b", Tensor::vector(&[4.0]));
        assert!((ps.global_norm() - 5.0).abs() < 1e-6);
    }
}
