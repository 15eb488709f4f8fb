//! Product-quantization core of the PECAN reproduction.
//!
//! Implements §3 of the paper: codebooks of learnable prototypes assigned to
//! groups of im2col sub-vectors, the two similarity measures (angle/dot
//! product for PECAN-A, L1 distance for PECAN-D), the temperature-relaxed
//! soft assignment of Eq. (4), the straight-through estimator of Eq. (5) and
//! the epoch-annealed `tanh` approximation of the sign gradient of Eq. (6).
//!
//! Two API levels:
//!
//! * **tensor level** ([`dot_scores`], [`l1_scores`], [`hard_assign`]) —
//!   allocation-light kernels used by the inference engine and the CAM
//!   simulator;
//! * **autograd level** ([`Codebook`] + [`soft_assign_angle`],
//!   [`assign_distance_ste`]) — differentiable graph ops used during
//!   end-to-end training.
//!
//! # Example
//!
//! ```
//! use pecan_pq::{GroupSpec, PqConfig};
//!
//! # fn main() -> Result<(), pecan_tensor::ShapeError> {
//! // 16 input channels, 3×3 kernels quantized with d = k² = 9 prototypes
//! let cfg = PqConfig::for_rows(16 * 9, 8, 9, 1.0)?;
//! assert_eq!(cfg.groups(), 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod assign;
mod codebook;
mod config;
mod kmeans;
mod stats;
mod ste;

pub use assign::{
    assign_distance_ste, dot_scores, hard_assign, l1_scores, l1_scores_var, one_hot_matrix,
    soft_assign_angle, soft_assign_distance,
};
pub use codebook::Codebook;
pub use config::{GroupSpec, PqConfig};
pub use kmeans::kmeans_codebook;
pub use stats::UsageStats;
pub use ste::{anneal_slope, sign_approx, sign_approx_series, straight_through};
