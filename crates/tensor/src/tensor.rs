//! Dense row-major `f32` tensor storage and the raw (non-differentiable)
//! kernels the autograd ops are built from.

use crate::shape::Shape;
use rand::Rng;

/// A dense, row-major, owned `f32` tensor.
///
/// `Tensor` is a plain value type: cloning copies the buffer. All autograd
/// bookkeeping lives in [`crate::graph::Graph`]; `Tensor` itself only knows
/// how to compute.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Builds a tensor from a shape and a buffer of exactly `shape.numel()`
    /// elements.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// All-zero tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// All-one tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// A rank-1 tensor wrapping `values`.
    pub fn vector(values: &[f32]) -> Self {
        Tensor::from_vec(Shape::vector(values.len()), values.to_vec())
    }

    /// A scalar represented as a one-element rank-1 tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::vector(&[value])
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Gaussian random tensor (Box–Muller; avoids a rand_distr dependency).
    pub fn rand_normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel())
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                mean + std * z
            })
            .collect();
        Tensor { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The raw buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw buffer, mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// The single value of a scalar tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape.numel(), 1, "item() requires a scalar, got {}", self.shape);
        self.data[0]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(shape.numel(), self.shape.numel(), "reshape {} -> {shape}", self.shape);
        self.shape = shape;
        self
    }

    /// A view of row `r` when the tensor is interpreted as
    /// `[outer_numel, last_dim]`.
    pub fn row(&self, r: usize) -> &[f32] {
        let d = self.shape.last_dim();
        &self.data[r * d..(r + 1) * d]
    }

    /// Mutable view of row `r` (flattened-over-last-axis interpretation).
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let d = self.shape.last_dim();
        &mut self.data[r * d..(r + 1) * d]
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip shape mismatch {} vs {}", self.shape, other.shape);
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += alpha * other` (axpy). Shapes must match.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm of the whole buffer.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Dense matrix product `self[m,k] @ rhs[k,n] -> [m,n]` (ikj loop order
    /// so the inner loop streams contiguously — see the perf-book guidance).
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(rhs.shape.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (rhs.shape.dim(0), rhs.shape.dim(1));
        assert_eq!(k, k2, "matmul inner dim mismatch: {} vs {}", self.shape, rhs.shape);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[p * n..(p + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(Shape::matrix(m, n), out)
    }

    /// `self[m,k] @ rhs[n,k]^T -> [m,n]`, used for in-batch logit matrices.
    pub fn matmul_transpose_b(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2);
        assert_eq!(rhs.shape.rank(), 2);
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (n, k2) = (rhs.shape.dim(0), rhs.shape.dim(1));
        assert_eq!(k, k2, "matmul_transpose_b inner dim mismatch");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &rhs.data[j * k..(j + 1) * k];
                out[i * n + j] = dot(a_row, b_row);
            }
        }
        Tensor::from_vec(Shape::matrix(m, n), out)
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose requires rank 2");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(Shape::matrix(n, m), out)
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|x| format!("{x:.4}")).collect();
        write!(f, "[{}{}]", preview.join(", "), if self.data.len() > 8 { ", …" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constructors() {
        let t = Tensor::zeros([2, 3]);
        assert_eq!(t.sum(), 0.0);
        let t = Tensor::full([4], 2.5);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    fn indexing() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Tensor::rand_normal([4, 5], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([3, 5], 0.0, 1.0, &mut rng);
        let fast = a.matmul_transpose_b(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let t = Tensor::rand_normal([10_000], 1.0, 2.0, &mut rng);
        let mean = t.sum() / 10_000.0;
        let var = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn axpy_adds_the_scaled_operand() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::vector(&[1., 2., 3.]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3., 5., 7.]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_len_checked() {
        Tensor::from_vec([2, 2], vec![1.0; 3]);
    }
}
