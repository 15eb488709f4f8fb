//! PECAN — the Product-QuantizEd Content Addressable Memory Network.
//!
//! This crate is the paper's primary contribution: DNN layers whose
//! filtering/linear transform is realised **solely** through product
//! quantization and table lookup.
//!
//! * [`PecanConv2d`] / [`PecanLinear`] — drop-in replacements for
//!   convolution and fully-connected layers. Each quantizes its im2col
//!   sub-vectors onto learned prototypes using either the **angle** measure
//!   (PECAN-A, Eq. 2: softmax attention over dot products) or the
//!   **distance** measure (PECAN-D, Eq. 3–6: hard L1 argmax with a
//!   straight-through softmax backward and an epoch-annealed sign
//!   surrogate). PECAN-D performs **zero multiplications** at inference.
//! * [`LayerLut`] — the Algorithm-1 inference engine: prototypes programmed
//!   into CAM arrays, products precomputed into lookup tables; asserted
//!   numerically identical to the training-path forward.
//! * [`PecanBuilder`] — builds any model-zoo topology with PECAN layers and
//!   per-layer codebook settings (Tables A2/A3/A4); supports both training
//!   strategies of §4.4.2 (co-optimization from scratch and
//!   uni-optimization on frozen pretrained weights).
//! * [`complexity`] — the closed-form op-count model of Table 1, validated
//!   to reproduce the paper's #Add/#Mul columns exactly.
//! * [`configs`] — the paper-scale architecture specs behind Tables 2–5 and
//!   A2–A4, plus the Fig. 4 prototype-dimension ablation.
//! * [`prune`] — usage-driven prototype pruning (§5 / Fig. 6).
//!
//! # Example
//!
//! ```
//! use pecan_core::{PecanBuilder, PecanVariant};
//! use pecan_nn::{models, Layer};
//! use pecan_autograd::Var;
//! use pecan_tensor::Tensor;
//!
//! # fn main() -> Result<(), pecan_tensor::ShapeError> {
//! // LeNet-5 with every conv/FC replaced by PECAN-D lookup layers.
//! let mut builder = PecanBuilder::from_seed(0, PecanVariant::Distance);
//! let mut net = models::lenet5_modified(&mut builder)?;
//! let logits = net.forward(&Var::constant(Tensor::zeros(&[1, 1, 28, 28])), false)?;
//! assert_eq!(logits.value().dims(), &[1, 10]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod batch;
pub mod complexity;
pub mod configs;
mod convert;
mod infer;
mod inspect;
mod layers;
pub mod prune;
mod train;

pub use batch::InferBatch;
pub use convert::{PecanBuilder, PecanVariant, PqLayerSettings, RecordingBuilder};
pub use infer::LayerLut;
pub use pecan_pq::UsageStats;
pub use inspect::{quantization_snapshot, QuantizationSnapshot};
pub use layers::{PecanConv2d, PecanLinear};
pub use train::{train_pecan, Strategy, TrainingReport};
