//! Prototype search subsystem: the CAM matching primitive as a software
//! index.
//!
//! PECAN inference is "CAM similarity search + LUT read" (Algorithm 1): for
//! every im2col column and codebook group, find the stored prototype with
//! the smallest L1 distance to the query sub-vector. The behavioural CAM
//! simulator in `pecan-cam` answers that with a linear scan over all `p`
//! prototypes, which is exact but caps serving throughput — search cost is
//! `O(p·d)` per query no matter how the queries or prototypes are
//! distributed.
//!
//! This crate factors the matching primitive out behind the
//! [`PrototypeIndex`] trait and provides three interchangeable engines, all
//! returning **bit-identical winners** (same rows, same distances, same
//! first-index tie-breaks — distances are accumulated in the same element
//! order everywhere):
//!
//! * [`LinearScan`] — the exhaustive baseline, extracted from
//!   `pecan-cam`'s `AnalogCam`/`FixedCam` inner loop. Predictable and
//!   allocation-free; the reference the other two are property-tested
//!   against.
//! * [`PqTableIndex`] — non-exhaustive search in the spirit of PQTable
//!   (Matsui et al.): prototypes are product-quantized into per-sub-space
//!   codes and bucketed by code tuple. A query ranks buckets by a
//!   triangle-inequality lower bound and scans them best-first with exact
//!   re-ranking, stopping as soon as no remaining bucket can beat the
//!   current winner. Exactness is guaranteed by the bound, not by luck;
//!   degenerate configurations (too few prototypes to be worth bucketing)
//!   fall back to the full scan.
//! * [`BatchScanner`] — batched exhaustive scan in the spirit of Quick ADC
//!   (André et al.): queries are processed in fixed-width blocks laid out
//!   transposed, so the inner loop streams one prototype element against
//!   [`LANES`] query lanes of contiguous accumulators. On x86-64 hosts with
//!   AVX2 (detected at run time) the `f32` scan runs on an explicit
//!   256-bit kernel, one query per lane; elsewhere, and for `i16`, a
//!   portable loop runs. Per-query winners drop out with the same
//!   tie-break and the same distance bits as the linear scan.
//!
//! # Picking an engine
//!
//! | situation | engine |
//! |---|---|
//! | one query at a time, small `p` | [`LinearScan`] |
//! | one query at a time, large `p`, clustered prototypes | [`PqTableIndex`] |
//! | many queries per call (im2col columns, serving batches) | [`BatchScanner`] |
//!
//! Trained PECAN codebooks are clustered by construction (prototypes *are*
//! cluster centres of feature sub-vectors), which is exactly when
//! [`PqTableIndex`]'s bound prunes well. On adversarially uniform
//! prototypes its bound degrades towards a full scan plus overhead — the
//! `cam_search` bench in `pecan-bench` measures both regimes.
//!
//! # Example
//!
//! ```
//! use pecan_index::{BatchScanner, LinearScan, PqTableIndex, PrototypeIndex};
//!
//! // four prototypes of width 2, flattened row-major
//! let rows = vec![0.0, 0.0, 1.0, 1.0, -1.0, 1.0, 2.0, -2.0];
//! let linear = LinearScan::new(rows.clone(), 2).unwrap();
//! let table = PqTableIndex::new(rows.clone(), 2).unwrap();
//! let batch = BatchScanner::new(rows, 2).unwrap();
//!
//! let queries = vec![0.1, -0.2, 0.9, 1.2]; // two queries, query-major
//! let expect = linear.nearest_batch(&queries).unwrap();
//! assert_eq!(table.nearest_batch(&queries).unwrap(), expect);
//! assert_eq!(batch.nearest_batch(&queries).unwrap(), expect);
//! assert_eq!(expect[0].row, 0);
//! assert_eq!(expect[1].row, 1);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod batch;
mod linear;
mod pq_table;
#[allow(unsafe_code)]
mod simd;

pub use batch::{l1_argmin, l1_argmin_batch, BatchScanner, L1Element, LANES};
pub use linear::LinearScan;
pub use pq_table::{PqTableConfig, PqTableIndex};

use pecan_tensor::ShapeError;

/// One answered query: the winning prototype row and its exact L1 distance.
///
/// Ties are broken towards the smallest row index, matching the behaviour
/// of `pecan-cam`'s `AnalogCam::search`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// Index of the nearest stored prototype.
    pub row: usize,
    /// Exact L1 distance between the query and that prototype.
    pub distance: f32,
}

/// A store of `p` prototype rows of width `d` answering exact L1
/// nearest-neighbour queries.
///
/// All implementations in this crate agree bit-for-bit: same winning rows
/// (first index on ties) and same distances (identical floating-point
/// accumulation order), so they can be swapped freely behind the CAM
/// simulator.
pub trait PrototypeIndex {
    /// Number of stored prototypes `p`.
    fn entries(&self) -> usize;

    /// Width of each prototype `d`.
    fn width(&self) -> usize;

    /// Finds the nearest stored prototype to one query of length `d`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `query.len() != d`.
    fn nearest(&self, query: &[f32]) -> Result<Match, ShapeError>;

    /// Answers a batch of queries laid out query-major (`[q·d]`, query `i`
    /// occupying `queries[i*d..(i+1)*d]`).
    ///
    /// The default implementation loops [`PrototypeIndex::nearest`];
    /// [`BatchScanner`] overrides it with the blocked kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `queries.len()` is not a multiple of `d`.
    fn nearest_batch(&self, queries: &[f32]) -> Result<Vec<Match>, ShapeError> {
        let d = self.width();
        if queries.len() % d != 0 {
            return Err(ShapeError::new(format!(
                "query buffer of {} is not a multiple of width {d}",
                queries.len()
            )));
        }
        queries.chunks_exact(d).map(|q| self.nearest(q)).collect()
    }
}

/// Validates a flattened `[p, d]` prototype buffer, returning `(p, d)`.
pub(crate) fn validate_rows(rows: &[f32], width: usize) -> Result<usize, ShapeError> {
    if width == 0 {
        return Err(ShapeError::new("prototype width must be non-zero"));
    }
    if rows.is_empty() || rows.len() % width != 0 {
        return Err(ShapeError::new(format!(
            "prototype buffer of {} does not hold whole rows of width {width}",
            rows.len()
        )));
    }
    Ok(rows.len() / width)
}

/// Exact L1 distance accumulated in ascending element order — the single
/// summation order every engine in this crate (and `pecan-cam`'s linear
/// scan) uses, so results stay bit-identical across engines.
#[inline]
pub(crate) fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
    let mut dist = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dist += (x - y).abs();
    }
    dist
}

/// [`l1_argmin`] wrapped into a [`Match`] — the single-query / fallback
/// path of every f32 engine.
pub(crate) fn scan_rows(rows: &[f32], width: usize, query: &[f32]) -> Match {
    let (row, distance) = l1_argmin(rows, width, query);
    Match { row, distance }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rows_rejects_bad_buffers() {
        assert!(validate_rows(&[], 3).is_err());
        assert!(validate_rows(&[0.0; 4], 3).is_err());
        assert!(validate_rows(&[0.0; 6], 0).is_err());
        assert_eq!(validate_rows(&[0.0; 6], 3).unwrap(), 2);
    }

    #[test]
    fn default_batch_matches_singles() {
        let idx = LinearScan::new(vec![0.0, 0.0, 2.0, 2.0], 2).unwrap();
        let batch = idx.nearest_batch(&[0.1, 0.0, 1.9, 2.2]).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], idx.nearest(&[0.1, 0.0]).unwrap());
        assert_eq!(batch[1], idx.nearest(&[1.9, 2.2]).unwrap());
        assert!(idx.nearest_batch(&[0.0; 3]).is_err());
    }
}
