//! Shape algebra for dense row-major tensors.
//!
//! The engine supports rank 1–3 tensors, which is all the UniMatch models
//! need: vectors (biases, marginals), matrices (weights, logits) and
//! `[batch, seq, dim]` activations.

use std::fmt;

/// The dimensions of a tensor, row-major (last axis contiguous).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its dimensions. Every dimension must be non-zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimensions are not supported: {dims:?}"
        );
        Shape(dims.to_vec())
    }

    /// A rank-1 shape.
    pub fn vector(n: usize) -> Self {
        Shape::new(&[n])
    }

    /// A rank-2 shape.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape::new(&[rows, cols])
    }

    /// A rank-3 shape (`[batch, seq, dim]` in model code).
    pub fn cube(a: usize, b: usize, c: usize) -> Self {
        Shape::new(&[a, b, c])
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of axis `i` (panics if out of range).
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Number of rows of a rank-2 shape.
    pub fn rows(&self) -> usize {
        assert_eq!(self.rank(), 2, "rows() requires a matrix, got {self}");
        self.0[0]
    }

    /// Number of columns of a rank-2 shape.
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() requires a matrix, got {self}");
        self.0[1]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-index.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch for {self}");
        let strides = self.strides();
        index
            .iter()
            .zip(self.0.iter())
            .zip(strides.iter())
            .map(|((&ix, &dim), &st)| {
                assert!(ix < dim, "index {ix} out of bounds for dim {dim} in {self}");
                ix * st
            })
            .sum()
    }

    /// The last axis size.
    pub fn last_dim(&self) -> usize {
        *self.0.last().expect("non-empty shape")
    }

    /// All axes but the last, multiplied together — the number of "rows" when
    /// a tensor is viewed as a 2D matrix over its last axis.
    pub fn outer_numel(&self) -> usize {
        self.numel() / self.last_dim()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::cube(2, 3, 4);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.last_dim(), 4);
        assert_eq!(s.outer_numel(), 6);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::cube(2, 3, 4).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::matrix(5, 7).strides(), vec![7, 1]);
        assert_eq!(Shape::vector(9).strides(), vec![1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::cube(2, 3, 4);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 2]), 14);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_bounds_checked() {
        Shape::matrix(2, 2).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        Shape::new(&[3, 0]);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::cube(2, 3, 4).to_string(), "[2x3x4]");
    }
}
