use pecan_tensor::{ShapeError, Tensor};
use std::sync::OnceLock;

/// Outputs per block in [`LookupTable::accumulate_weighted`]: the partial
/// sums of one block live on the stack, so the weighted read allocates
/// nothing.
const OUT_BLOCK: usize = 64;

/// The quantized-product memory of Fig. 1(c): the precomputed products
/// between all `cout` filter sub-rows and each of the `p` prototypes
/// (`Y(j) = W1(j)·C1(j)`, Algorithm 1 line 3).
///
/// The table is stored **prototype-major**, `[p, cout]`: row `m` holds
/// prototype `m`'s `cout` products, so a CAM hit on `m` reads one
/// contiguous row — the "one memory word per match" of the hardware.
/// [`LookupTable::new`] and [`LookupTable::from_products`] take the
/// mathematical `[cout, p]` orientation and transpose once;
/// [`LookupTable::from_prototype_rows`] wraps a `[p, cout]` tensor as-is
/// (no copy, so a borrowed snapshot tensor stays borrowed).
///
/// At inference, PECAN-D adds one row per group; PECAN-A adds a
/// softmax-weighted combination of rows.
///
/// # Example
///
/// ```
/// use pecan_cam::LookupTable;
/// use pecan_tensor::Tensor;
///
/// # fn main() -> Result<(), pecan_tensor::ShapeError> {
/// // [cout = 2, p = 2]: entry 1 holds the products 2.0 and 4.0.
/// let lut = LookupTable::new(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?)?;
/// assert_eq!(lut.prototype_rows().row(1), &[2.0, 4.0]);
/// let mut acc = vec![0.0; 2];
/// lut.accumulate_column(1, &mut acc)?;
/// assert_eq!(acc, vec![2.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LookupTable {
    rows: Tensor, // [p, cout]
    /// The `[cout, p]` view behind [`LookupTable::table`], built on its
    /// first call only.
    view: OnceLock<Tensor>,
}

impl PartialEq for LookupTable {
    /// Equal tables hold equal products; whether the `[cout, p]` view has
    /// been built is not observable.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl LookupTable {
    /// Builds the table from its `[cout, p]` orientation, transposing it
    /// once into the stored prototype-major layout.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `table` is not a non-empty rank-2 tensor.
    pub fn new(table: Tensor) -> Result<Self, ShapeError> {
        Self::from_prototype_rows(table.transpose2()?)
    }

    /// Wraps a prototype-major `[p, cout]` tensor as-is: no copy and no
    /// transpose, so a shared (memory-mapped) tensor stays borrowed.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` is not a non-empty rank-2 tensor.
    pub fn from_prototype_rows(rows: Tensor) -> Result<Self, ShapeError> {
        rows.shape().expect_rank(2)?;
        if rows.dims()[0] == 0 || rows.dims()[1] == 0 {
            return Err(ShapeError::new("lookup table must be non-empty"));
        }
        Ok(Self { rows, view: OnceLock::new() })
    }

    /// Builds the table from a filter sub-matrix `weights` (`[cout, d]`) and
    /// a codebook `prototypes` (`[d, p]`) — precisely Algorithm 1 line 3.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on dimension mismatch.
    pub fn from_products(weights: &Tensor, prototypes: &Tensor) -> Result<Self, ShapeError> {
        Self::new(weights.matmul(prototypes)?)
    }

    /// Output width `cout`.
    pub fn outputs(&self) -> usize {
        self.rows.dims()[1]
    }

    /// Number of addressable entries `p`.
    pub fn entries(&self) -> usize {
        self.rows.dims()[0]
    }

    /// The stored prototype-major `[p, cout]` tensor: row `m` holds
    /// prototype `m`'s products.
    pub fn prototype_rows(&self) -> &Tensor {
        &self.rows
    }

    /// The table in its `[cout, p]` orientation, for callers that index it
    /// `(output, entry)`. The view is a transposed copy built on the first
    /// call and kept for the table's lifetime, so inference never calls
    /// this; it reads [`LookupTable::prototype_rows`].
    pub fn table(&self) -> &Tensor {
        self.view
            .get_or_init(|| self.rows.transpose2().expect("validated rank 2 at construction"))
    }

    /// Adds entry `entry`'s row into `acc` (PECAN-D retrieval: `cout`
    /// additions, zero multiplications, one contiguous read).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `entry >= p` or `acc.len() != cout`.
    pub fn accumulate_column(&self, entry: usize, acc: &mut [f32]) -> Result<(), ShapeError> {
        if entry >= self.entries() {
            return Err(ShapeError::new(format!(
                "LUT entry {entry} out of range for {} entries",
                self.entries()
            )));
        }
        if acc.len() != self.outputs() {
            return Err(ShapeError::new(format!(
                "accumulator of {} for {} outputs",
                acc.len(),
                self.outputs()
            )));
        }
        // One `data()` borrow for the whole loop: shared-storage tensors
        // (mmap-backed snapshots) pay a dynamic dispatch per borrow, so the
        // hot retrieval loops must not borrow per element.
        let c = self.outputs();
        let row = &self.rows.data()[entry * c..(entry + 1) * c];
        for (a, &y) in acc.iter_mut().zip(row) {
            *a += y;
        }
        Ok(())
    }

    /// Adds the weighted combination `Σ_m weights[m] · row_m` into `acc`
    /// (PECAN-A retrieval). Each output's sum starts from `0.0`, runs `m`
    /// ascending, and is added into `acc` once complete.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `weights.len() != p` or
    /// `acc.len() != cout`.
    pub fn accumulate_weighted(
        &self,
        weights: &[f32],
        acc: &mut [f32],
    ) -> Result<(), ShapeError> {
        if weights.len() != self.entries() {
            return Err(ShapeError::new(format!(
                "{} weights for {} entries",
                weights.len(),
                self.entries()
            )));
        }
        if acc.len() != self.outputs() {
            return Err(ShapeError::new(format!(
                "accumulator of {} for {} outputs",
                acc.len(),
                self.outputs()
            )));
        }
        // Borrow once (see `accumulate_column`), then sweep the rows once
        // per block of outputs into stack partial sums.
        let table = self.rows.data();
        let c = self.outputs();
        for (b, acc) in acc.chunks_mut(OUT_BLOCK).enumerate() {
            let lo = b * OUT_BLOCK;
            let mut s = [0.0f32; OUT_BLOCK];
            let s = &mut s[..acc.len()];
            for (&w, row) in weights.iter().zip(table.chunks_exact(c)) {
                for (s, &y) in s.iter_mut().zip(&row[lo..]) {
                    *s += w * y;
                }
            }
            for (a, &s) in acc.iter_mut().zip(s.iter()) {
                *a += s;
            }
        }
        Ok(())
    }

    /// Keeps only the listed entries (prototype pruning, §5): returns a new
    /// table whose rows are the `keep` rows in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `keep` is empty or any index is out of
    /// range.
    pub fn prune(&self, keep: &[usize]) -> Result<LookupTable, ShapeError> {
        if keep.is_empty() {
            return Err(ShapeError::new("cannot prune a LUT to zero entries"));
        }
        if let Some(&bad) = keep.iter().find(|&&e| e >= self.entries()) {
            return Err(ShapeError::new(format!(
                "prune index {bad} out of range for {} entries",
                self.entries()
            )));
        }
        let mut rows = Vec::with_capacity(keep.len() * self.outputs());
        for &m in keep {
            rows.extend_from_slice(self.rows.row(m));
        }
        LookupTable::from_prototype_rows(Tensor::from_vec(rows, &[keep.len(), self.outputs()])?)
    }

    /// Memory footprint in scalars (`cout·p`).
    pub fn scalars(&self) -> usize {
        self.outputs() * self.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_products_matches_matmul() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let lut = LookupTable::from_products(&w, &c).unwrap();
        assert_eq!(lut.table().data(), w.data());
        assert_eq!(lut.prototype_rows().data(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(lut.scalars(), 4);
    }

    #[test]
    fn weighted_accumulation_matches_soft_combination() {
        let lut = LookupTable::new(
            Tensor::from_vec(vec![1.0, 3.0, 2.0, 4.0], &[2, 2]).unwrap(),
        )
        .unwrap();
        let mut acc = vec![0.0; 2];
        lut.accumulate_weighted(&[0.25, 0.75], &mut acc).unwrap();
        assert_eq!(acc, vec![0.25 + 2.25, 0.5 + 3.0]);
    }

    #[test]
    fn prune_keeps_selected_columns() {
        let lut = LookupTable::new(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap(),
        )
        .unwrap();
        let pruned = lut.prune(&[2, 0]).unwrap();
        assert_eq!(pruned.entries(), 2);
        assert_eq!(pruned.table().data(), &[3.0, 1.0, 6.0, 4.0]);
        assert!(lut.prune(&[]).is_err());
        assert!(lut.prune(&[3]).is_err());
    }

    #[test]
    fn accumulation_validates_shapes() {
        let lut = LookupTable::new(Tensor::zeros(&[2, 3])).unwrap();
        let mut acc = vec![0.0; 2];
        assert!(lut.accumulate_column(3, &mut acc).is_err());
        assert!(lut.accumulate_column(0, &mut [0.0; 1]).is_err());
        assert!(lut.accumulate_weighted(&[1.0], &mut acc).is_err());
        assert!(LookupTable::from_prototype_rows(Tensor::zeros(&[0, 2])).is_err());
    }

    #[test]
    fn prototype_rows_are_wrapped_without_a_copy() {
        let rows = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let ptr = rows.data().as_ptr();
        let lut = LookupTable::from_prototype_rows(rows).unwrap();
        assert_eq!(lut.prototype_rows().data().as_ptr(), ptr);
        assert_eq!((lut.entries(), lut.outputs()), (3, 2));
        assert_eq!(lut.table().data(), &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }
}
