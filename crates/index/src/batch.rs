use crate::{scan_rows, validate_rows, Match, PrototypeIndex};
use pecan_tensor::{ShapeError, Tensor};

/// Number of queries processed together by the blocked kernel.
///
/// Eight `f32` lanes fill one 256-bit AVX2 register: the explicit kernel
/// computes a whole block's distances to one prototype in a single vector
/// accumulator, and the portable loop keeps a block's accumulator array
/// small enough to stay in registers.
pub const LANES: usize = 8;

/// Element types the blocked L1 kernel can scan: `f32` (the analog CAM) and
/// `i16` accumulated in `i32` (the fixed-point CAM).
///
/// Distances accumulate in ascending element order regardless of type, so
/// winners are bit-identical to the corresponding one-query-at-a-time scan.
pub trait L1Element: Copy {
    /// Accumulator type for summed distances.
    type Acc: Copy + PartialOrd;
    /// Padding value for the tail block (its results are discarded).
    const ZERO: Self;
    /// Additive identity of the accumulator.
    const ZERO_ACC: Self::Acc;
    /// Upper bound no real distance reaches.
    const MAX_ACC: Self::Acc;
    /// `|self - other|` widened into the accumulator type.
    fn abs_diff(self, other: Self) -> Self::Acc;
    /// Accumulator addition.
    fn add(a: Self::Acc, b: Self::Acc) -> Self::Acc;

    /// Answers a whole [`l1_argmin_batch`] call with an explicit SIMD
    /// kernel when this host has one for the element type, or returns
    /// `None` so the portable blocked loop runs instead. An override must
    /// return exactly what [`l1_argmin`] returns for every query: same
    /// rows, same distance bits. Only `f32` overrides it (AVX2 on
    /// x86-64, detected at run time).
    ///
    /// Internal dispatch hook, called only by [`l1_argmin_batch`] after
    /// it has validated the shape (`width > 0`, whole rows, whole
    /// queries); callers must pass a shape that holds the same checks.
    #[doc(hidden)]
    fn simd_argmin_batch(
        _rows: &[Self],
        _width: usize,
        _queries: &[Self],
    ) -> Option<Vec<(usize, Self::Acc)>> {
        None
    }
}

impl L1Element for f32 {
    type Acc = f32;
    const ZERO: Self = 0.0;
    const ZERO_ACC: f32 = 0.0;
    const MAX_ACC: f32 = f32::INFINITY;
    #[inline]
    fn abs_diff(self, other: Self) -> f32 {
        (self - other).abs()
    }
    #[inline]
    fn add(a: f32, b: f32) -> f32 {
        a + b
    }
    fn simd_argmin_batch(rows: &[f32], width: usize, queries: &[f32]) -> Option<Vec<(usize, f32)>> {
        crate::simd::l1_argmin_batch(rows, width, queries)
    }
}

impl L1Element for i16 {
    type Acc = i32;
    const ZERO: Self = 0;
    const ZERO_ACC: i32 = 0;
    const MAX_ACC: i32 = i32::MAX;
    #[inline]
    fn abs_diff(self, other: Self) -> i32 {
        (self as i32 - other as i32).abs()
    }
    #[inline]
    fn add(a: i32, b: i32) -> i32 {
        a + b
    }
}

/// Exhaustive single-query L1 argmin over a flattened `[p, width]`
/// prototype buffer: `(winning row, distance)`, first row winning ties,
/// distances accumulated in ascending element order. This is **the** scan
/// every engine in this crate and every `pecan-cam` search path shares —
/// one copy is what makes their bit-identical agreement a local property
/// rather than a cross-crate convention.
///
/// # Panics
///
/// Panics when `width` is zero, `rows` is empty or not whole rows, or the
/// query length is not `width`.
pub fn l1_argmin<E: L1Element>(rows: &[E], width: usize, query: &[E]) -> (usize, E::Acc) {
    assert!(width > 0, "width must be non-zero");
    assert!(
        !rows.is_empty() && rows.len() % width == 0,
        "prototype buffer must hold whole rows"
    );
    assert!(query.len() == width, "query length must equal width");
    let mut best_row = 0usize;
    let mut best_dist = E::MAX_ACC;
    for (r, row) in rows.chunks_exact(width).enumerate() {
        let mut dist = E::ZERO_ACC;
        for (&cell, &q) in row.iter().zip(query) {
            dist = E::add(dist, q.abs_diff(cell));
        }
        if dist < best_dist {
            best_dist = dist;
            best_row = r;
        }
    }
    (best_row, best_dist)
}

/// Blocked L1 argmin over a flattened `[p, width]` prototype buffer for a
/// query-major `[q, width]` query buffer. Returns `(winning row, distance)`
/// per query, first row winning ties, bit-identical to [`l1_argmin`] per
/// query.
///
/// This is the Quick-ADC-style layout: each block of [`LANES`] queries is
/// transposed so the inner loop reads one prototype element and updates
/// [`LANES`] contiguous accumulators — one query per lane, elements summed
/// in ascending order, rows visited in ascending order. On x86-64 hosts
/// with AVX2 the `f32` scan runs on an explicit 256-bit kernel selected at
/// run time ([`L1Element::simd_argmin_batch`]); everything else runs the
/// portable loop. The final tail block is zero-padded and the padding
/// lanes discarded.
///
/// # Panics
///
/// Panics when `width` is zero, `rows` is empty or not whole rows, or
/// `queries` is not whole queries. (The typed wrappers validate first and
/// return [`ShapeError`] instead.)
pub fn l1_argmin_batch<E: L1Element>(
    rows: &[E],
    width: usize,
    queries: &[E],
) -> Vec<(usize, E::Acc)> {
    let _span = pecan_obs::span("index.scan");
    assert!(width > 0, "width must be non-zero");
    assert!(
        !rows.is_empty() && rows.len() % width == 0,
        "prototype buffer must hold whole rows"
    );
    assert!(queries.len() % width == 0, "query buffer must hold whole queries");
    E::simd_argmin_batch(rows, width, queries)
        .unwrap_or_else(|| portable_argmin_batch(rows, width, queries))
}

/// The portable blocked scan behind [`l1_argmin_batch`]: the fallback for
/// `i16`, for non-x86 targets and for hosts without AVX2.
pub(crate) fn portable_argmin_batch<E: L1Element>(
    rows: &[E],
    width: usize,
    queries: &[E],
) -> Vec<(usize, E::Acc)> {
    blocked(width, queries, |transposed| {
        let mut best_dist = [E::MAX_ACC; LANES];
        let mut best_row = [0usize; LANES];
        for (r, row) in rows.chunks_exact(width).enumerate() {
            let mut acc = [E::ZERO_ACC; LANES];
            for (k, &cell) in row.iter().enumerate() {
                let lane = &transposed[k * LANES..(k + 1) * LANES];
                for l in 0..LANES {
                    acc[l] = E::add(acc[l], lane[l].abs_diff(cell));
                }
            }
            for l in 0..LANES {
                if acc[l] < best_dist[l] {
                    best_dist[l] = acc[l];
                    best_row[l] = r;
                }
            }
        }
        (best_row, best_dist)
    })
}

/// Block loop shared by every batch kernel: transposes each block of
/// [`LANES`] queries into a `[width, LANES]` buffer (the tail block
/// zero-padded), hands it to `scan` for per-lane `(rows, distances)`, and
/// keeps the winners of the real lanes in query order.
pub(crate) fn blocked<E: L1Element>(
    width: usize,
    queries: &[E],
    mut scan: impl FnMut(&[E]) -> ([usize; LANES], [E::Acc; LANES]),
) -> Vec<(usize, E::Acc)> {
    let q = queries.len() / width;
    let mut out = Vec::with_capacity(q);
    let mut transposed = vec![E::ZERO; width * LANES];

    for block_start in (0..q).step_by(LANES) {
        let lanes = LANES.min(q - block_start);
        for (k, chunk) in transposed.chunks_exact_mut(LANES).enumerate() {
            for (l, slot) in chunk.iter_mut().enumerate() {
                *slot = if l < lanes {
                    queries[(block_start + l) * width + k]
                } else {
                    E::ZERO
                };
            }
        }
        let (best_row, best_dist) = scan(&transposed);
        out.extend(best_row.into_iter().zip(best_dist).take(lanes));
    }
    out
}

/// Batched exhaustive scanner: the [`l1_argmin_batch`] kernel behind the
/// [`PrototypeIndex`] trait.
///
/// Scans every prototype like [`crate::LinearScan`] but amortizes each
/// prototype-element load over [`LANES`] queries, so throughput on
/// many-query workloads (im2col columns, serving batches) is several times
/// the one-at-a-time scan while returning identical winners.
#[derive(Debug, Clone)]
pub struct BatchScanner {
    rows: Vec<f32>,
    entries: usize,
    width: usize,
}

impl BatchScanner {
    /// Builds the scanner over a flattened `[p, d]` row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` is empty or not a whole number of
    /// rows of `width`.
    pub fn new(rows: Vec<f32>, width: usize) -> Result<Self, ShapeError> {
        let entries = validate_rows(&rows, width)?;
        Ok(Self { rows, entries, width })
    }

    /// Builds the scanner from a rank-2 `[p, d]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` is not a non-empty rank-2 tensor.
    pub fn from_tensor(rows: &Tensor) -> Result<Self, ShapeError> {
        rows.shape().expect_rank(2)?;
        Self::new(rows.data().to_vec(), rows.dims()[1])
    }
}

impl PrototypeIndex for BatchScanner {
    fn entries(&self) -> usize {
        self.entries
    }

    fn width(&self) -> usize {
        self.width
    }

    fn nearest(&self, query: &[f32]) -> Result<Match, ShapeError> {
        if query.len() != self.width {
            return Err(ShapeError::new(format!(
                "query width {} does not match index width {}",
                query.len(),
                self.width
            )));
        }
        Ok(scan_rows(&self.rows, self.width, query))
    }

    fn nearest_batch(&self, queries: &[f32]) -> Result<Vec<Match>, ShapeError> {
        let _span = pecan_obs::span("index.batch_scan");
        if queries.len() % self.width != 0 {
            return Err(ShapeError::new(format!(
                "query buffer of {} is not a multiple of width {}",
                queries.len(),
                self.width
            )));
        }
        Ok(l1_argmin_batch(&self.rows, self.width, queries)
            .into_iter()
            .map(|(row, distance)| Match { row, distance })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScan;

    fn pseudo(seed: &mut u64) -> f32 {
        // xorshift — keeps the test free of the rand dev-dependency cycle
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed >> 11) as f32 / (1u64 << 53) as f32) * 8.0 - 4.0
    }

    #[test]
    fn kernel_matches_linear_scan_across_block_sizes() {
        let mut seed = 7u64;
        let (p, d) = (13, 5);
        let rows: Vec<f32> = (0..p * d).map(|_| pseudo(&mut seed)).collect();
        let linear = LinearScan::new(rows.clone(), d).unwrap();
        let scanner = BatchScanner::new(rows, d).unwrap();
        // cover empty, sub-block, exact-block and ragged-tail batches
        for q in [0usize, 1, 7, 8, 9, 16, 27] {
            let queries: Vec<f32> = (0..q * d).map(|_| pseudo(&mut seed)).collect();
            let expect = linear.nearest_batch(&queries).unwrap();
            let got = scanner.nearest_batch(&queries).unwrap();
            assert_eq!(got, expect, "q={q}");
        }
    }

    #[test]
    fn portable_kernel_matches_scalar_oracle_bit_for_bit() {
        // The dispatched f32 path takes the AVX2 kernel on hosts that have
        // it; calling the portable loop directly keeps it covered there.
        let mut seed = 11u64;
        for d in [1usize, 8, 9, 17] {
            for p in [1usize, 5, 64, 67] {
                let mut rows: Vec<f32> = (0..p * d).map(|_| pseudo(&mut seed)).collect();
                if p > 3 {
                    rows.copy_within(0..d, 3 * d); // tie between rows 0 and 3
                    rows[d] = f32::NAN;
                    rows[2 * d] = -0.0;
                }
                for q in [0usize, 3, 8, 13] {
                    let mut queries: Vec<f32> = (0..q * d).map(|_| pseudo(&mut seed)).collect();
                    if q > 1 {
                        queries[0] = f32::INFINITY;
                        queries[d] = f32::from_bits(1);
                    }
                    let got = portable_argmin_batch(&rows, d, &queries);
                    assert_eq!(got.len(), q);
                    for (query, &(row, dist)) in queries.chunks_exact(d).zip(&got) {
                        let (want_row, want_dist) = l1_argmin(&rows, d, query);
                        assert_eq!((row, dist.to_bits()), (want_row, want_dist.to_bits()));
                    }
                }
            }
        }
    }

    #[test]
    fn integer_kernel_matches_scalar_search() {
        let rows: Vec<i16> = vec![0, 0, 10, 10, -5, 5, 10, 10];
        let queries: Vec<i16> = vec![1, -1, 9, 12, -6, 4];
        let got = l1_argmin_batch(&rows, 2, &queries);
        assert_eq!(got, vec![(0, 2), (1, 3), (2, 2)]);
    }

    #[test]
    fn ties_break_to_first_row() {
        // rows 1 and 3 identical — row 1 must win in every lane
        let rows = vec![9.0, 9.0, 1.0, 1.0, 5.0, 5.0, 1.0, 1.0];
        let scanner = BatchScanner::new(rows, 2).unwrap();
        let hits = scanner.nearest_batch(&[1.0, 1.0, 0.9, 1.1]).unwrap();
        assert_eq!(hits[0].row, 1);
        assert_eq!(hits[1].row, 1);
    }

    #[test]
    fn validation() {
        assert!(BatchScanner::new(vec![], 2).is_err());
        assert!(BatchScanner::new(vec![0.0; 3], 2).is_err());
        let s = BatchScanner::new(vec![0.0; 4], 2).unwrap();
        assert!(s.nearest(&[0.0]).is_err());
        assert!(s.nearest_batch(&[0.0; 5]).is_err());
        assert_eq!(s.entries(), 2);
    }
}
