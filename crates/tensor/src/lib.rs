//! Dense `f32` tensor substrate for the PECAN reproduction.
//!
//! This crate provides the minimal-but-complete numeric foundation that the
//! rest of the workspace builds on: a row-major n-dimensional [`Tensor`],
//! cache-friendly [matrix multiplication](Tensor::matmul), the
//! [`im2col`]/[`col2im`] transforms that turn convolution into matrix
//! products (Fig. 1(b) of the paper), elementwise and reduction kernels, and
//! random initialisers.
//!
//! Everything is deliberately `f32` and CPU-only: the PECAN paper's point is
//! that inference reduces to similarity search plus table lookup, so the
//! substrate needs to be *correct and inspectable* more than it needs to be
//! fast. Training is the exception — its dense products run on the packed,
//! cache-blocked, multi-threaded [`gemm`] subsystem (lane-panel packing, a
//! register-tile microkernel, a `std::thread::scope` pool controlled by
//! `PECAN_NUM_THREADS`), which stays bit-identical to the retained scalar
//! oracle for every shape and thread count.
//!
//! # Example
//!
//! ```
//! use pecan_tensor::Tensor;
//!
//! # fn main() -> Result<(), pecan_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod error;
pub mod gemm;
mod im2col;
mod init;
mod matmul;
mod reduce;
mod shape;
mod tensor;

pub use error::ShapeError;
pub use gemm::{configured_threads, parallel_map};
pub use im2col::{col2im, im2col, Conv2dGeometry};
pub use init::{he_normal, uniform, xavier_uniform};
pub use shape::Shape;
pub use tensor::{F32Source, Tensor};
