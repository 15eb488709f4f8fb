//! Comparison baselines for the PECAN evaluation.
//!
//! * [`AdderConv2d`] — AdderNet's L1-distance "convolution" (Chen et al.,
//!   CVPR 2020): filtering as template matching by negative L1 distance,
//!   with the paper's full-precision weight gradient and HardTanh input
//!   gradient. Multiplier-free in the filter itself, but — as PECAN's §4.3
//!   notes — it needs twice the additions of a CNN (`2·cin·k²·cout·HW`)
//!   and cannot fold its required batch normalisation away.
//! * [`BinaryConv2d`] — an XNOR-Net-style convolution with sign-binarized
//!   weights/activations and per-filter scaling, trained with the clipped
//!   straight-through estimator. Represents the BNN family Tables 3/4
//!   reference (XNOR-Net, IR-Net, ...).
//! * [`addernet_ops`] / [`binary_conv_ops`] — op-count models feeding the
//!   Table 5 comparison.
//!
//! # Example
//!
//! ```
//! use pecan_baselines::{addernet_ops, ConvShape};
//!
//! // VGG-Small has 0.61G baseline MACs → AdderNet needs 1.22G additions.
//! let shape = ConvShape::new(512, 512, 3, 8, 8);
//! let ops = addernet_ops(&shape);
//! assert_eq!(ops.muls, 0);
//! assert_eq!(ops.adds, 2 * 512 * 9 * 512 * 64);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod adder;
mod binary;
mod ops;

pub use adder::AdderConv2d;
pub use binary::BinaryConv2d;
pub use ops::{addernet_ops, binary_conv_ops, ConvShape};
