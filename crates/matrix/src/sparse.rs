//! Bitmap-compressed sparse matrix — SIGMA's operand representation.

use crate::{Bitmap, DimensionError, Matrix};

/// A sparse matrix in SIGMA's bitmap format: the non-zero values in
/// row-major order plus a [`Bitmap`] marking their positions (Sec. IV-C).
///
/// The invariant maintained by all constructors is that
/// `values.len() == bitmap.count_ones()` and the k-th value corresponds to
/// the k-th set bit in row-major order.
///
/// ```
/// use sigma_matrix::{Matrix, SparseMatrix};
/// let d = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]);
/// let s = SparseMatrix::from_dense(&d);
/// assert_eq!(s.nnz(), 2);
/// assert_eq!(s.to_dense(), d);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    bitmap: Bitmap,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Compresses a dense matrix, dropping exact zeros.
    #[must_use]
    pub fn from_dense(m: &Matrix) -> Self {
        let mut bitmap = Bitmap::new(m.rows(), m.cols());
        let mut values = Vec::with_capacity(m.nnz());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m.get(r, c);
                if v != 0.0 {
                    bitmap.set(r, c, true);
                    values.push(v);
                }
            }
        }
        Self { bitmap, values }
    }

    /// Builds a sparse matrix from parts.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != bitmap.count_ones()` — the representation
    /// invariant of the format.
    #[must_use]
    pub fn from_parts(bitmap: Bitmap, values: Vec<f32>) -> Self {
        assert_eq!(
            values.len(),
            bitmap.count_ones(),
            "value count must equal number of set bitmap bits"
        );
        Self { bitmap, values }
    }

    /// Decompresses to a dense matrix.
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        for ((r, c), v) in self.bitmap.iter_ones().zip(&self.values) {
            m.set(r, c, *v);
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.bitmap.rows()
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.bitmap.cols()
    }

    /// The occupancy bitmap.
    #[must_use]
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// The non-zero values in row-major order.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `true` if every stored value is finite (no NaN or infinity).
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Fraction of elements that are zero, in `[0, 1]`.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        1.0 - self.bitmap.density()
    }

    /// Element at `(r, c)`, reconstructing zeros.
    ///
    /// This walks the row to find the value's rank, so it is `O(cols)`; the
    /// simulators use [`SparseMatrix::to_dense`] or iterate instead when on
    /// a hot path.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        if !self.bitmap.get(r, c) {
            return 0.0;
        }
        // Rank of the set bit at (r, c) among all set bits in row-major order.
        let mut rank = 0usize;
        for rr in 0..r {
            rank += self.bitmap.row_count_ones(rr);
        }
        rank += (0..c).filter(|&cc| self.bitmap.get(r, cc)).count();
        self.values[rank]
    }

    /// Iterator over `(row, col, value)` of the stored non-zeros in
    /// row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.bitmap.iter_ones().zip(&self.values).map(|((r, c), v)| (r, c, *v))
    }

    /// Sparse GEMM `self[M,K] x rhs[K,N] -> [M,N]`, row by row (Gustavson's
    /// dataflow): the verification oracle for the simulated datapath.
    ///
    /// `rhs`'s row pointers and column indices are built once from its
    /// bitmap. `self`'s non-zeros are then walked in row-major order, and
    /// each `a[i,k]` scatters `a[i,k] * b[k,j]` over `rhs`'s row `k`
    /// straight into output row `i`. The work is one multiply-add per
    /// non-zero product instead of `M * N * K`.
    ///
    /// The result is bit-for-bit [`Matrix::matmul`] of the dense operands
    /// whenever every value is finite. Each output element still adds its
    /// products in ascending `k` into an accumulator that starts at `+0.0`;
    /// the only difference is that the structurally zero products are
    /// skipped, and adding those is a no-op:
    ///
    /// * The accumulator can never become `-0.0`: under round-to-nearest
    ///   `+0.0 + -0.0 = +0.0` and `x + (-x) = +0.0`, so a zero accumulator
    ///   is always `+0.0`, and adding `±0.0` to it leaves it unchanged.
    /// * Adding `±0.0` to a non-zero accumulator is exact.
    ///
    /// Non-finite operands are the one exception: the dense loop turns a
    /// skipped `0 * Inf` into NaN, this product does not. Engines reject
    /// such operands through `validate_finite`, and the workload
    /// generators never produce them.
    ///
    /// ```
    /// use sigma_matrix::{Matrix, SparseMatrix};
    /// let a = SparseMatrix::from_dense(&Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]));
    /// let b = SparseMatrix::from_dense(&Matrix::from_rows(&[&[0.0, 3.0], &[4.0, 0.0]]));
    /// let c = a.try_matmul(&b)?;
    /// assert_eq!(c, Matrix::from_rows(&[&[0.0, 3.0], &[8.0, 0.0]]));
    /// # Ok::<(), sigma_matrix::DimensionError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`DimensionError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &SparseMatrix) -> Result<Matrix, DimensionError> {
        if self.cols() != rhs.rows() {
            return Err(DimensionError {
                op: "matmul",
                lhs: (self.rows(), self.cols()),
                rhs: (rhs.rows(), rhs.cols()),
            });
        }
        // rhs in CSR form: row k's non-zeros sit at `row_ptr[k]..row_ptr[k + 1]`
        // of `col_idx` and of `rhs.values` (both row-major).
        let mut row_ptr = Vec::with_capacity(rhs.rows() + 1);
        let mut col_idx = Vec::with_capacity(rhs.nnz());
        row_ptr.push(0);
        for k in 0..rhs.rows() {
            col_idx.extend(rhs.bitmap.row_iter_ones(k));
            row_ptr.push(col_idx.len());
        }
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        for (i, k, a) in self.iter() {
            let span = row_ptr[k]..row_ptr[k + 1];
            let row = out.row_mut(i);
            for (&j, &b) in col_idx[span.clone()].iter().zip(&rhs.values[span]) {
                row[j] += a * b;
            }
        }
        Ok(out)
    }

    /// The transpose of this sparse matrix.
    #[must_use]
    pub fn transposed(&self) -> SparseMatrix {
        SparseMatrix::from_dense(&self.to_dense().transposed())
    }

    /// Total compressed footprint in bits: 32 bits per non-zero value plus
    /// one metadata bit per element (the quantity plotted in Fig. 7 when the
    /// "Bitmap" format is selected).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.values.len() as u64 * 32 + self.bitmap.metadata_bits()
    }
}

impl From<&Matrix> for SparseMatrix {
    fn from(m: &Matrix) -> Self {
        SparseMatrix::from_dense(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[0.0, 1.5, 0.0, 2.5], &[0.0, 0.0, 0.0, 0.0], &[3.5, 0.0, 0.0, 4.5]])
    }

    #[test]
    fn roundtrip_dense_sparse_dense() {
        let d = sample();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn values_are_row_major() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.values(), &[1.5, 2.5, 3.5, 4.5]);
    }

    #[test]
    fn get_reconstructs_zeros_and_values() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(0, 3), 2.5);
        assert_eq!(s.get(2, 0), 3.5);
        assert_eq!(s.get(1, 2), 0.0);
    }

    #[test]
    fn iter_yields_triples() {
        let s = SparseMatrix::from_dense(&sample());
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v[0], (0, 1, 1.5));
        assert_eq!(v[3], (2, 3, 4.5));
    }

    #[test]
    fn sparsity_computed() {
        let s = SparseMatrix::from_dense(&sample());
        assert!((s.sparsity() - (1.0 - 4.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.transposed().transposed().to_dense(), sample());
    }

    #[test]
    fn storage_bits_accounting() {
        let s = SparseMatrix::from_dense(&sample());
        assert_eq!(s.storage_bits(), 4 * 32 + 12);
    }

    #[test]
    fn try_matmul_rejects_mismatch() {
        let a = SparseMatrix::from_dense(&Matrix::zeros(2, 3));
        let b = SparseMatrix::from_dense(&Matrix::zeros(4, 5));
        let err = a.try_matmul(&b).unwrap_err();
        assert_eq!(err, DimensionError { op: "matmul", lhs: (2, 3), rhs: (4, 5) });
    }

    #[test]
    #[should_panic(expected = "set bitmap bits")]
    fn from_parts_checks_invariant() {
        let _ = SparseMatrix::from_parts(Bitmap::new(2, 2), vec![1.0]);
    }
}
