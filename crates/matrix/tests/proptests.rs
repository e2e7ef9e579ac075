//! Property-based tests for the matrix substrate.

use proptest::prelude::*;
use sigma_matrix::formats::{metadata_bits, rlc_symbol_count, CompressionKind, Coo, Csc, Csr, Rlc};
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::{Matrix, SparseMatrix};

/// Asserts `got` and `want` agree bit for bit, element by element.
fn assert_same_bits(got: &Matrix, want: &Matrix) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "element {i} differs: {g} vs {w}");
    }
}

/// Strategy: a random sparse operand pair `[m,k] x [k,n]` with densities
/// drawn from {0, 0.1, ..., 1} (so all-zero and full operands, and empty
/// rows and columns, all occur) and `k` as small as 1.
fn sparse_pair() -> impl Strategy<Value = (SparseMatrix, SparseMatrix)> {
    (1usize..10, 1usize..10, 1usize..10, 0u8..=10, 0u8..=10, any::<u64>()).prop_map(
        |(m, n, k, da, db, seed)| {
            let density = |d10: u8| Density::new(f64::from(d10) / 10.0).unwrap();
            let a = sparse_uniform(m, k, density(da), seed);
            let b = sparse_uniform(k, n, density(db), seed.wrapping_add(1));
            (a, b)
        },
    )
}

/// Strategy: a sparse matrix over the values {0, ±1, ±2}, whose products
/// and partial sums are exact, so mixed-sign terms cancel to exactly zero
/// (the signed-zero edge of the accumulation).
fn cancelling(rows: usize, cols: usize) -> impl Strategy<Value = SparseMatrix> {
    prop::collection::vec(0u8..=4, rows * cols).prop_map(move |v| {
        let values = v.into_iter().map(|x| f32::from(x) - 2.0).collect();
        let d = Matrix::from_vec(rows, cols, values).unwrap();
        SparseMatrix::from_dense(&d)
    })
}

/// Strategy: a small random sparse matrix described by (rows, cols, density seed).
fn small_sparse() -> impl Strategy<Value = SparseMatrix> {
    (1usize..12, 1usize..12, 0u8..=10, any::<u64>()).prop_map(|(r, c, d10, seed)| {
        sparse_uniform(r, c, Density::new(f64::from(d10) / 10.0).unwrap(), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The row-wise sparse product is bit for bit the dense loop.
    #[test]
    fn sparse_matmul_matches_dense_bits((a, b) in sparse_pair()) {
        let want = a.to_dense().matmul(&b.to_dense());
        assert_same_bits(&a.try_matmul(&b).unwrap(), &want);
    }

    /// Cancelling mixed-sign terms leave `+0.0` in both products, never
    /// `-0.0` in one of them.
    #[test]
    fn sparse_matmul_matches_dense_bits_on_cancellation(
        (a, b) in (1usize..6, 1usize..6, 1usize..6)
            .prop_flat_map(|(m, n, k)| (cancelling(m, k), cancelling(k, n)))
    ) {
        let want = a.to_dense().matmul(&b.to_dense());
        assert_same_bits(&a.try_matmul(&b).unwrap(), &want);
    }
}

proptest! {
    #[test]
    fn sparse_roundtrip(s in small_sparse()) {
        let d = s.to_dense();
        let s2 = SparseMatrix::from_dense(&d);
        prop_assert_eq!(&s, &s2);
        prop_assert_eq!(s.nnz(), d.nnz());
    }

    #[test]
    fn csr_csc_coo_rlc_roundtrip(s in small_sparse()) {
        let d = s.to_dense();
        prop_assert_eq!(Csr::from_dense(&d).to_dense(), d.clone());
        prop_assert_eq!(Csc::from_dense(&d).to_dense(), d.clone());
        prop_assert_eq!(Coo::from_dense(&d).to_dense(), d.clone());
        for bits in [1u32, 2, 4, 8] {
            prop_assert_eq!(Rlc::from_dense(&d, bits).to_dense(), d.clone());
        }
    }

    #[test]
    fn rlc_symbol_count_agrees_with_codec(s in small_sparse()) {
        let d = s.to_dense();
        for bits in [2u32, 4] {
            prop_assert_eq!(
                rlc_symbol_count(s.bitmap(), bits),
                Rlc::from_dense(&d, bits).symbol_count() as u64
            );
        }
    }

    #[test]
    fn bitmap_metadata_constant_in_density(
        rows in 1usize..20, cols in 1usize..20, seed in any::<u64>()
    ) {
        let lo = sparse_uniform(rows, cols, Density::new(0.1).unwrap(), seed);
        let hi = sparse_uniform(rows, cols, Density::new(0.9).unwrap(), seed.wrapping_add(1));
        prop_assert_eq!(
            metadata_bits(CompressionKind::Bitmap, lo.bitmap()),
            metadata_bits(CompressionKind::Bitmap, hi.bitmap())
        );
    }

    #[test]
    fn matmul_identity_left_right(s in small_sparse()) {
        let d = s.to_dense();
        prop_assert_eq!(d.matmul(&Matrix::identity(d.cols())), d.clone());
        prop_assert_eq!(Matrix::identity(d.rows()).matmul(&d), d);
    }

    #[test]
    fn matmul_transpose_identity(
        m in 1usize..8, n in 1usize..8, k in 1usize..8, seed in any::<u64>()
    ) {
        // (A B)^T == B^T A^T
        let a = sparse_uniform(m, k, Density::new(0.6).unwrap(), seed).to_dense();
        let b = sparse_uniform(k, n, Density::new(0.6).unwrap(), seed.wrapping_add(9)).to_dense();
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn backward_gemms_match_explicit_transpose(
        m in 1usize..8, n in 1usize..8, k in 1usize..8, seed in any::<u64>()
    ) {
        let a = sparse_uniform(k, m, Density::new(0.7).unwrap(), seed).to_dense();
        let b = sparse_uniform(k, n, Density::new(0.7).unwrap(), seed.wrapping_add(3)).to_dense();
        prop_assert!(a.matmul_at(&b).approx_eq(&a.transposed().matmul(&b), 1e-4));

        let c = sparse_uniform(m, k, Density::new(0.7).unwrap(), seed.wrapping_add(5)).to_dense();
        let e = sparse_uniform(n, k, Density::new(0.7).unwrap(), seed.wrapping_add(7)).to_dense();
        prop_assert!(c.matmul_bt(&e).approx_eq(&c.matmul(&e.transposed()), 1e-4));
    }

    #[test]
    fn bitmap_iter_ones_matches_count(s in small_sparse()) {
        prop_assert_eq!(s.bitmap().iter_ones().count(), s.bitmap().count_ones());
        let per_row: usize = (0..s.rows()).map(|r| s.bitmap().row_count_ones(r)).sum();
        prop_assert_eq!(per_row, s.nnz());
        let per_col: usize = (0..s.cols()).map(|c| s.bitmap().col_count_ones(c)).sum();
        prop_assert_eq!(per_col, s.nnz());
    }

    /// ABFT detects (and at single-site granularity, locates) every
    /// injected single bit flip whose delta clears the tolerance, and
    /// never flags the uncorrupted product.
    #[test]
    fn abft_flags_every_single_bit_flip(
        m in 1usize..10, n in 1usize..10, k in 1usize..10,
        r_pick in any::<u64>(), c_pick in any::<u64>(),
        bit in 20u32..31, seed in any::<u64>()
    ) {
        use sigma_matrix::abft::{check_product, correct_single, residual_tolerance, AbftVerdict};

        let a = sparse_uniform(m, k, Density::new(0.8).unwrap(), seed).to_dense();
        let b = sparse_uniform(k, n, Density::new(0.8).unwrap(), seed ^ 0xf1).to_dense();
        let c = a.matmul(&b);
        let tol = residual_tolerance(m, n, k);
        prop_assert!(check_product(&a, &b, &c, tol).is_clean(), "false positive");

        let (row, col) = (r_pick as usize % m, c_pick as usize % n);
        let clean_value = c.get(row, col);
        let flipped = f32::from_bits(clean_value.to_bits() ^ (1u32 << bit));
        let mut corrupted = c.clone();
        corrupted.set(row, col, flipped);
        let delta = flipped - clean_value;
        if delta.is_nan() || delta.abs() > tol {
            let verdict = check_product(&a, &b, &corrupted, tol);
            prop_assert!(!verdict.is_clean(), "numeric-effect flip escaped");
            if let AbftVerdict::SingleSite { row: fr, col: fc, delta: fd } = verdict {
                prop_assert_eq!((fr, fc), (row, col), "located the wrong element");
                correct_single(&mut corrupted, fr, fc, fd);
                // The repair subtracts a float *estimate* of the delta,
                // so the restored element is tolerance-equal up to the
                // estimate's own precision (huge exponent-bit deltas
                // cannot land closer than |delta| * 2^-24).
                if fd.is_finite() {
                    let repair_err = (corrupted.get(row, col) - clean_value).abs();
                    prop_assert!(
                        repair_err <= tol + fd.abs() * 1e-5,
                        "repair left error {repair_err} for delta {fd}"
                    );
                }
            }
        }
    }
}

/// The density extremes at the shortest contraction: all-zero and full
/// operands, and products whose rows or columns are entirely empty.
#[test]
fn sparse_matmul_matches_dense_bits_at_density_extremes() {
    for k in [1, 5] {
        for (da, db) in [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.3, 0.3)] {
            let a = sparse_uniform(7, k, Density::new(da).unwrap(), 11);
            let b = sparse_uniform(k, 6, Density::new(db).unwrap(), 12);
            assert_same_bits(&a.try_matmul(&b).unwrap(), &a.to_dense().matmul(&b.to_dense()));
        }
    }
}

/// A negative product cancelled by a positive one sums to `+0.0` in both
/// products.
#[test]
fn sparse_matmul_cancellation_yields_positive_zero() {
    let a = SparseMatrix::from_dense(&Matrix::from_rows(&[&[1.0, 1.0]]));
    let b = SparseMatrix::from_dense(&Matrix::from_rows(&[&[-3.0, 0.0], &[3.0, 0.0]]));
    let c = a.try_matmul(&b).unwrap();
    assert_eq!(c.get(0, 0).to_bits(), 0.0f32.to_bits());
    assert_eq!(c.get(0, 1).to_bits(), 0.0f32.to_bits());
    assert_same_bits(&c, &a.to_dense().matmul(&b.to_dense()));
}

/// Paper-scale parity: the 1024^3 GEMM at 50%/20% operand density, as
/// the workload suite materializes it. The dense loop takes minutes in a
/// debug build, so this runs with `cargo test --release -- --ignored`.
#[test]
#[ignore = "release-scale: run with cargo test --release -- --ignored"]
fn sparse_matmul_matches_dense_bits_at_paper_scale() {
    use sigma_core::model::GemmProblem;
    use sigma_matrix::GemmShape;
    let p = GemmProblem::sparse(GemmShape::new(1024, 1024, 1024), 0.5, 0.2);
    let (a, b) = sigma_workloads::materialize(&p, 7);
    let want = a.to_dense().matmul(&b.to_dense());
    assert_same_bits(&a.try_matmul(&b).unwrap(), &want);
}
