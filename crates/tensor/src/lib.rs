//! Dense tensor substrate for the DEFA reproduction.
//!
//! This crate provides the numerical foundation used by every other crate in
//! the workspace:
//!
//! * [`Shape`] / [`Tensor`] — a small row-major dense tensor over `f32`,
//!   sufficient for the matrices that appear in multi-scale deformable
//!   attention (queries, weights, feature maps, probabilities).
//! * [`matmul`] — GEMM kernels used by the functional reference model and
//!   by the accelerator's matrix-mode golden checks: a register-tiled,
//!   row-parallel production kernel (dense and row-masked) plus the naive
//!   golden reference.
//! * [`qlinear`] — the integer GEMM the INT12 PE array performs, the
//!   golden for the integer datapath.
//! * [`scratch`] — a reusable [`Scratch`] arena so the hot kernels stop
//!   allocating per call.
//! * [`softmax`] — numerically stable softmax over the trailing axis.
//! * [`quant`] — symmetric fixed-point quantization (the paper quantizes the
//!   MSDeformAttn modules to INT12) with round-trip helpers.
//! * [`fixed`] — an integer fixed-point scalar type used by the cycle-level
//!   datapath models in `defa-arch`.
//! * [`rng`] — deterministic random tensor generation for synthetic
//!   workloads.
//!
//! # Example
//!
//! ```
//! use defa_tensor::{Tensor, matmul::matmul, softmax::softmax_rows};
//!
//! # fn main() -> Result<(), defa_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
//! let b = Tensor::eye(2);
//! let c = matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! let p = softmax_rows(&c)?;
//! assert!((p.row(0)?.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod fixed;
pub mod matmul;
pub mod qlinear;
pub mod quant;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod softmax;
pub mod tensor;

pub use error::TensorError;
pub use fixed::Fixed;
pub use quant::{QTensor, QuantParams};
pub use scratch::Scratch;
pub use shape::Shape;
pub use tensor::Tensor;
