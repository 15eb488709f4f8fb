//! Neural-network layers and the PECAN paper's model zoo.
//!
//! This crate supplies the conventional CNN substrate that PECAN both
//! *replaces* (its convolutions become PQ + table lookup) and *competes
//! against* (the "Baseline" rows of Tables 2–4). The same architecture
//! definitions serve both: every model constructor receives a
//! [`LayerBuilder`], so the `pecan-core` crate can instantiate the identical
//! topology with PECAN layers swapped in for convolutions and linears.
//!
//! Models implemented (paper §4):
//! * modified LeNet-5 (Table A1) — MNIST
//! * VGG-Small — CIFAR-10/100
//! * ResNet-20 / ResNet-32 — CIFAR-10/100
//! * modified ConvMixer (depth 8, k = 5) — Tiny-ImageNet (Table A4)
//!
//! # Example
//!
//! ```
//! use pecan_nn::{models, Layer, StandardBuilder};
//! use pecan_autograd::Var;
//! use pecan_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), pecan_tensor::ShapeError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut builder = StandardBuilder::new(&mut rng);
//! let mut lenet = models::lenet5_modified(&mut builder)?;
//! let x = Var::constant(Tensor::zeros(&[1, 1, 28, 28]));
//! let logits = lenet.forward(&x, false)?;
//! assert_eq!(logits.value().dims(), &[1, 10]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod builder;
mod layer;
mod layers;
pub mod models;
mod trainer;

pub use builder::{LayerBuilder, StandardBuilder};
pub use layer::Layer;
pub use layers::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu, Sequential,
};
pub use trainer::{accuracy, train_epoch, Batch, EpochStats};
