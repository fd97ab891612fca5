//! A small row-major dense `f32` tensor.

use crate::{Shape, TensorError};

/// Dense row-major tensor over `f32`.
///
/// [`Tensor`] deliberately supports only the operations the DEFA workloads
/// need: construction, element access, row views for rank-2 tensors and a few
/// elementwise reductions. Matrix multiplication lives in
/// [`crate::matmul`] and softmax in [`crate::softmax`].
///
/// # Example
///
/// ```
/// use defa_tensor::Tensor;
///
/// # fn main() -> Result<(), defa_tensor::TensorError> {
/// let t = Tensor::zeros([2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.as_slice().len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from an owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-2 tensor by evaluating `f(row, col)`.
    pub fn from_fn_2d(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { shape: Shape::from([rows, cols]), data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes the tensor to `shape`, reusing the existing allocation
    /// when it is large enough.
    ///
    /// Contents after the call are unspecified (kernels that fully
    /// overwrite their output use this to recycle buffers); growing the
    /// buffer zero-fills the new tail.
    pub fn resize_reuse(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        self.data.resize(shape.volume(), 0.0);
        self.shape = shape;
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Borrowed view of row `r` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] for tensors that are not rank 2
    /// and [`TensorError::IndexOutOfBounds`] if the row is out of range.
    pub fn row(&self, r: usize) -> Result<&[f32], TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::InvalidAxis { axis: 0, rank: self.shape.rank() });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds { index: r, len: rows });
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Mutable view of row `r` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Tensor::row`].
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f32], TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::InvalidAxis { axis: 0, rank: self.shape.rank() });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds { index: r, len: rows });
        }
        Ok(&mut self.data[r * cols..(r + 1) * cols])
    }

    /// Largest absolute element, or 0.0 for an empty tensor.
    ///
    /// NaN entries are ignored. Eight lane maxima are kept and combined at
    /// the end so the loop vectorizes; `max` over non-negative values is
    /// order-free, so the result equals a sequential fold bit for bit.
    pub fn max_abs(&self) -> f32 {
        let chunks = self.data.chunks_exact(8);
        let tail = chunks.remainder().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let lanes = chunks.fold([0.0f32; 8], |mut lanes, c| {
            for (m, &x) in lanes.iter_mut().zip(c) {
                *m = m.max(x.abs());
            }
            lanes
        });
        lanes.iter().fold(tail, |m, &x| m.max(x))
    }

    /// Frobenius norm (square root of the sum of squares).
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt() as f32
    }

    /// Relative L2 error of `self` against a reference tensor.
    ///
    /// Defined as `||self − reference||₂ / max(||reference||₂, ε)`, the
    /// fidelity metric used by the accuracy-proxy experiments.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn relative_l2_error(&self, reference: &Tensor) -> Result<f32, TensorError> {
        if self.shape != reference.shape {
            return Err(TensorError::ShapeMismatch {
                op: "relative_l2_error",
                lhs: format!("{}", self.shape),
                rhs: format!("{}", reference.shape),
            });
        }
        let mut diff_sq = 0.0f64;
        for (&a, &b) in self.data.iter().zip(&reference.data) {
            let d = (a - b) as f64;
            diff_sq += d * d;
        }
        let denom = (reference.frob_norm() as f64).max(1e-12);
        Ok((diff_sq.sqrt() / denom) as f32)
    }

    /// Elementwise in-place scaling.
    pub fn scale(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Elementwise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: format!("{}", self.shape),
                rhs: format!("{}", other.shape),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full_have_expected_contents() {
        let z = Tensor::zeros([2, 2]);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full([3], 2.5);
        assert!(f.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_is_identity() {
        let e = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert_eq!(e.get(&[r, c]).unwrap(), expect);
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], [2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], [2, 3]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn row_views_slice_correctly() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]).unwrap();
        assert_eq!(t.row(0).unwrap(), &[0.0, 1.0, 2.0]);
        assert_eq!(t.row(1).unwrap(), &[3.0, 4.0, 5.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn row_rejects_non_matrix() {
        let t = Tensor::zeros([4]);
        assert!(t.row(0).is_err());
    }

    #[test]
    fn relative_l2_error_zero_for_identical() {
        let t = Tensor::from_fn_2d(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(t.relative_l2_error(&t).unwrap(), 0.0);
    }

    #[test]
    fn relative_l2_error_matches_hand_computation() {
        let a = Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 0.0], [2]).unwrap();
        // ||a - b|| = 5, ||b|| = 0 -> clamped denominator keeps it finite.
        assert!(a.relative_l2_error(&b).unwrap().is_finite());
        // And against a nonzero reference:
        let c = Tensor::from_vec(vec![3.0, 0.0], [2]).unwrap();
        let err = a.relative_l2_error(&c).unwrap();
        assert!((err - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor::full([2, 2], 1.0);
        let b = Tensor::full([2, 2], 2.0);
        let mut c = a.add(&b).unwrap();
        c.scale(2.0);
        assert!(c.as_slice().iter().all(|&x| x == 6.0));
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn frob_norm_and_max_abs() {
        let t = Tensor::from_vec(vec![3.0, -4.0], [2]).unwrap();
        assert!((t.frob_norm() - 5.0).abs() < 1e-6);
        assert_eq!(t.max_abs(), 4.0);
    }
}
