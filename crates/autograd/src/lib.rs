//! Tape-based reverse-mode automatic differentiation for the PECAN
//! reproduction.
//!
//! The paper's central claim is that product-quantized prototype matching is
//! **end-to-end learnable** (unlike MADDNESS' non-differentiable hashing).
//! This crate supplies the machinery that makes that claim testable in Rust:
//! a dynamic computation graph over [`pecan_tensor::Tensor`] values, reverse
//! accumulation, an extensible [`BackwardOp`] trait (the PECAN crates add
//! their own straight-through / soft-assignment ops through it), SGD/Adam
//! optimizers, and a finite-difference gradient checker used throughout the
//! test suites.
//!
//! # Example
//!
//! ```
//! use pecan_autograd::Var;
//! use pecan_tensor::Tensor;
//!
//! # fn main() -> Result<(), pecan_tensor::ShapeError> {
//! let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?);
//! let w = Var::parameter(Tensor::from_vec(vec![3.0, 4.0], &[2, 1])?);
//! let y = x.matmul(&w)?; // 1·3 + 2·4 = 11
//! y.backward();
//! assert_eq!(x.grad().expect("gradient").data(), &[3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod gradcheck;
mod ops;
mod optim;
mod var;

pub use gradcheck::{check_gradients, GradCheckReport};
pub use ops::loss::cross_entropy_logits;
pub use ops::norm::BatchStats;
pub use ops::slice::concat_rows;
pub use optim::{Adam, Optimizer, Sgd, StepDecay};
pub use var::{BackwardOp, Var};
