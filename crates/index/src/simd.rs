//! Explicit AVX2 kernel for the `f32` L1 argmin behind
//! [`crate::l1_argmin_batch`].
//!
//! The kernel vectorizes across the [`LANES`] queries of one transposed
//! block, never across a query's dimensions, so every lane performs the
//! IEEE operation sequence of the scalar [`crate::l1_argmin`]:
//! `dist = dist + |q[k] - row[k]|` with `k` ascending (`vsubps`, sign bit
//! cleared with `vandnps`, `vaddps`). Rows are visited in ascending order
//! and the running minimum moves only on a strict ordered `<`
//! (`_CMP_LT_OQ`), so the lowest row wins ties and a NaN distance never
//! wins — the scalar `dist < best` exactly. Results are bit-identical to
//! the scalar oracle, not merely close.
//!
//! To hide the latency of the per-row add chain, [`ROWS`] prototypes are
//! accumulated side by side; their minimum updates still run one row at a
//! time in ascending order.
//!
//! The kernel is selected at run time with `is_x86_feature_detected!`;
//! without AVX2, on other targets, or with more rows than its `i32` row
//! lanes can index, [`l1_argmin_batch`] returns `None` and the caller runs
//! the portable loop.

#[cfg(target_arch = "x86_64")]
use crate::batch::{blocked, LANES};

/// Prototype rows whose distance chains run interleaved.
#[cfg(target_arch = "x86_64")]
const ROWS: usize = 4;

/// Answers [`crate::l1_argmin_batch`] for `f32` on the AVX2 kernel, or
/// `None` when the host lacks AVX2 or the row count exceeds `i32::MAX`.
/// The caller has validated the shape: `width > 0`, whole rows, whole
/// queries.
#[cfg(target_arch = "x86_64")]
pub(crate) fn l1_argmin_batch(
    rows: &[f32],
    width: usize,
    queries: &[f32],
) -> Option<Vec<(usize, f32)>> {
    if i32::try_from(rows.len() / width).is_err() || !is_x86_feature_detected!("avx2") {
        return None;
    }
    Some(blocked(width, queries, |block| {
        // SAFETY: the host supports AVX2, checked just above, which is
        // `scan_block`'s only requirement.
        unsafe { avx2::scan_block(rows, width, block) }
    }))
}

/// No explicit kernel off x86-64: the portable loop answers everything.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn l1_argmin_batch(
    _rows: &[f32],
    _width: usize,
    _queries: &[f32],
) -> Option<Vec<(usize, f32)>> {
    None
}

/// Every function here is an AVX2 `target_feature` `unsafe fn` whose one
/// contract is that the host supports AVX2.
///
/// Up to Rust 1.86 every intrinsic is an `unsafe fn`, so the blocks
/// around them are required on the workspace MSRV (1.75); from 1.87 on
/// the value-only intrinsics are safe inside an AVX2 function, which
/// makes some of those blocks redundant there.
#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)]
mod avx2 {
    use super::{LANES, ROWS};
    use core::arch::x86_64::*;

    /// Scans every row of `rows` (`[p, width]`, `p ≤ i32::MAX`) against one
    /// transposed query block (`[width, LANES]`) and returns per-lane
    /// `(winning row, distance)`.
    ///
    /// # Safety
    ///
    /// The caller must have checked that the host supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_block(
        rows: &[f32],
        width: usize,
        block: &[f32],
    ) -> ([usize; LANES], [f32; LANES]) {
        // SAFETY: AVX2 is present (this function's contract), the only
        // requirement of the intrinsics and AVX2 helpers called here.
        unsafe {
            let mut best = Best::new();
            let mut groups = rows.chunks_exact(ROWS * width);
            for group in &mut groups {
                let (r0, rest) = group.split_at(width);
                let (r1, rest) = rest.split_at(width);
                let (r2, r3) = rest.split_at(width);
                let [mut a0, mut a1, mut a2, mut a3] = [_mm256_setzero_ps(); ROWS];
                let cells = r0.iter().zip(r1).zip(r2).zip(r3);
                for (lane, (((&c0, &c1), &c2), &c3)) in block.chunks_exact(LANES).zip(cells) {
                    let q = load(lane);
                    a0 = _mm256_add_ps(a0, abs_diff(q, c0));
                    a1 = _mm256_add_ps(a1, abs_diff(q, c1));
                    a2 = _mm256_add_ps(a2, abs_diff(q, c2));
                    a3 = _mm256_add_ps(a3, abs_diff(q, c3));
                }
                best.offer(a0);
                best.offer(a1);
                best.offer(a2);
                best.offer(a3);
            }
            for row in groups.remainder().chunks_exact(width) {
                let mut acc = _mm256_setzero_ps();
                for (lane, &cell) in block.chunks_exact(LANES).zip(row) {
                    acc = _mm256_add_ps(acc, abs_diff(load(lane), cell));
                }
                best.offer(acc);
            }
            best.finish()
        }
    }

    /// Running per-lane minimum over rows offered in ascending order.
    struct Best {
        dist: __m256,
        row: __m256i,
        next: __m256i,
    }

    impl Best {
        /// # Safety
        ///
        /// The host must support AVX2.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn new() -> Best {
            // SAFETY: AVX2 is present (this function's contract).
            unsafe {
                Best {
                    dist: _mm256_set1_ps(f32::INFINITY),
                    row: _mm256_setzero_si256(),
                    next: _mm256_setzero_si256(),
                }
            }
        }

        /// Takes the next row's distances: a lane moves only when strictly
        /// (and orderedly) smaller, as the scalar `dist < best`.
        ///
        /// # Safety
        ///
        /// The host must support AVX2.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn offer(&mut self, dist: __m256) {
            // SAFETY: AVX2 is present (this function's contract).
            unsafe {
                let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(dist, self.dist);
                self.dist = _mm256_blendv_ps(self.dist, dist, lt);
                self.row = _mm256_blendv_epi8(self.row, self.next, _mm256_castps_si256(lt));
                self.next = _mm256_add_epi32(self.next, _mm256_set1_epi32(1));
            }
        }

        /// # Safety
        ///
        /// The host must support AVX2.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn finish(self) -> ([usize; LANES], [f32; LANES]) {
            let mut rows = [0i32; LANES];
            let mut dists = [0.0f32; LANES];
            // SAFETY: AVX2 is present (this function's contract); both
            // arrays hold exactly LANES = 8 elements, the width of one
            // 256-bit store, and `storeu` needs no alignment.
            unsafe {
                _mm256_storeu_si256(rows.as_mut_ptr().cast(), self.row);
                _mm256_storeu_ps(dists.as_mut_ptr(), self.dist);
            }
            // Row lanes count up from 0 and stay below p ≤ i32::MAX, so
            // they are non-negative.
            (rows.map(|r| r as usize), dists)
        }
    }

    /// One transposed block row: query element `k` of all LANES queries.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(lane: &[f32]) -> __m256 {
        assert_eq!(lane.len(), LANES);
        // SAFETY: AVX2 is present (this function's contract); `lane` holds
        // LANES = 8 contiguous f32s (asserted), the width of one unaligned
        // 256-bit load.
        unsafe { _mm256_loadu_ps(lane.as_ptr()) }
    }

    /// `|q - cell|` per lane: the scalar `(q - cell).abs()`, which clears
    /// the sign bit of the IEEE difference.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn abs_diff(q: __m256, cell: f32) -> __m256 {
        // SAFETY: AVX2 is present (this function's contract).
        unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), _mm256_sub_ps(q, _mm256_set1_ps(cell))) }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::l1_argmin_batch;

    #[test]
    fn avx2_hosts_take_the_explicit_kernel() {
        let got = l1_argmin_batch(&[0.0, 1.0, 2.0, 3.0, 2.0, 3.0], 2, &[1.9, 3.2, -1.0, 0.0]);
        assert_eq!(got.is_some(), is_x86_feature_detected!("avx2"));
        if let Some(hits) = got {
            assert_eq!(hits[0].0, 1);
            assert_eq!(hits[1], (0, 2.0));
        }
    }
}
