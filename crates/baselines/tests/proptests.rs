//! Property-based tests for the baseline machines.

use proptest::prelude::*;
use sigma_baselines::{
    combine_columns, run_packed_gemm, CambriconSim, EieSim, EyerissV2Sim, OuterProductSim, ScnnSim,
    SystolicArray, SystolicSim,
};
use sigma_core::model::GemmProblem;
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::{GemmShape, Matrix};

fn density(x: u8) -> Density {
    Density::new(f64::from(x) / 10.0).unwrap()
}

/// Array shapes for the fold-order tests: degenerate rows and columns,
/// a shape that divides nothing, and a square tile.
const ARRAYS: [(usize, usize); 5] = [(1, 1), (1, 8), (8, 1), (3, 5), (8, 8)];

/// A `rows x cols` operand with about a quarter exact zeros and signed,
/// full-mantissa non-zeros in (-2, 2), so a reordering of additions
/// shows up in the result bits and signed-zero products occur.
fn signed_operand(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if state & 3 == 0 {
            0.0
        } else {
            ((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 2.0
        }
    })
}

/// The weight-stationary fold order written out: per K-fold of `rows`
/// contraction indices, a psum starts at `0.0` and takes `a·w` for each
/// array row top to bottom; the finished psums add into the output
/// K-fold by K-fold. N-folds touch disjoint outputs, so they don't
/// change the numerics.
fn ws_reference(rows: usize, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for k0 in (0..k).step_by(rows) {
        for i in 0..m {
            for j in 0..n {
                let mut psum = 0.0f32;
                for r in k0..(k0 + rows).min(k) {
                    psum += a.get(i, r) * b.get(r, j);
                }
                out.set(i, j, out.get(i, j) + psum);
            }
        }
    }
    out
}

/// The output-stationary fold order written out: each PE's accumulator
/// takes `a·b` for `k` ascending, then adds once into the zeroed output.
///
/// The array also adds a product on every padding cycle (a skewed feed
/// that is still `0.0` on one side). The reference skips those adds
/// because they are the identity: the accumulator starts at `+0.0`; a
/// round-to-nearest sum is `-0.0` only for `(-0) + (-0)`, so the
/// accumulator is never `-0.0`; finite operands make every padding
/// product `±0`; and `x + ±0 == x` for every `x` that is not `-0.0`.
fn os_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..k {
            acc += a.get(i, kk) * b.get(kk, j);
        }
        0.0 + acc
    })
}

fn same_bits(x: &Matrix, y: &Matrix) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both systolic dataflows match their written-out fold order bit
    /// for bit, and their cycle and fold counts match the closed forms:
    /// `R + M + kr + nc - 2` per weight-stationary fold and
    /// `K + 2·mr + nc - 2` per output-stationary fold.
    #[test]
    fn systolic_dataflows_match_fold_order_bit_for_bit(
        array in 0usize..ARRAYS.len(),
        m in 1usize..20, k in 1usize..20, n in 1usize..20,
        seed in any::<u64>()
    ) {
        let (rows, cols) = ARRAYS[array];
        let sim = SystolicSim::new(rows, cols);
        let a = signed_operand(m, k, seed);
        let b = signed_operand(k, n, seed ^ 0x9E37_79B9_7F4A_7C15);

        let ws = sim.run_gemm(&a, &b);
        prop_assert!(same_bits(&ws.result, &ws_reference(rows, &a, &b)));
        let (mut cycles, mut folds) = (0u64, 0u64);
        for k0 in (0..k).step_by(rows) {
            for n0 in (0..n).step_by(cols) {
                let (kr, nc) = ((k - k0).min(rows), (n - n0).min(cols));
                cycles += (rows + m + kr + nc - 2) as u64;
                folds += 1;
            }
        }
        prop_assert_eq!((ws.cycles, ws.folds), (cycles, folds));

        let os = sim.run_gemm_output_stationary(&a, &b);
        prop_assert!(same_bits(&os.result, &os_reference(&a, &b)));
        let (mut cycles, mut folds) = (0u64, 0u64);
        for m0 in (0..m).step_by(rows) {
            for n0 in (0..n).step_by(cols) {
                let (mr, nc) = ((m - m0).min(rows), (n - n0).min(cols));
                cycles += (k + 2 * mr + nc - 2) as u64;
                folds += 1;
            }
        }
        prop_assert_eq!((os.cycles, os.folds), (cycles, folds));
    }

    /// The functional weight-stationary systolic machine agrees with the
    /// analytic SCALE-sim formula whenever the stationary operand fits in
    /// one tile per fold dimension.
    #[test]
    fn functional_systolic_matches_analytic_formula(
        m in 1usize..20, seed in any::<u64>()
    ) {
        let (r, c) = (8usize, 8usize);
        let a = sparse_uniform(m, r, Density::DENSE, seed).to_dense();
        let b = sparse_uniform(r, c, Density::DENSE, seed ^ 1).to_dense();
        let run = SystolicSim::new(r, c).run_gemm(&a, &b);
        let est = SystolicArray::new(r, c)
            .simulate_weight_stationary(&GemmProblem::dense(GemmShape::new(m, c, r)));
        prop_assert_eq!(run.cycles, est.total_cycles());
        prop_assert!(run.result.approx_eq(&a.matmul(&b), 1e-3));
    }

    /// `ws_timing` is `run_gemm`'s cycle and fold count without the
    /// simulation, on shapes that fold over both K and N.
    #[test]
    fn ws_timing_matches_the_register_simulation(
        array in 0usize..ARRAYS.len(),
        m in 1usize..24, k in 1usize..40, n in 1usize..40,
        seed in any::<u64>()
    ) {
        let (rows, cols) = ARRAYS[array];
        let sim = SystolicSim::new(rows, cols);
        let a = signed_operand(m, k, seed);
        let b = signed_operand(k, n, !seed);
        let run = sim.run_gemm(&a, &b);
        prop_assert_eq!(sim.ws_timing(m, k, n), (run.cycles, run.folds));
    }

    /// The packed array adds each output's products in contraction-row
    /// order from `+0.0`, skipping the PEs no weight was packed into, so
    /// its result is bit for bit that written-out sum.
    #[test]
    fn packed_gemm_matches_row_order_bit_for_bit(
        m in 1usize..12, k in 1usize..24, n in 1usize..24,
        d10 in 1u8..=9, cap in 1usize..8, seed in any::<u64>()
    ) {
        let a = signed_operand(m, k, seed);
        let w = sparse_uniform(k, n, density(d10), seed ^ 3).to_dense();
        let (out, _) = run_packed_gemm(&a, &w, cap);
        let reference = Matrix::from_fn(m, n, |i, j| {
            let mut acc = 0.0f32;
            for r in (0..k).filter(|&r| w.get(r, j) != 0.0) {
                acc += a.get(i, r) * w.get(r, j);
            }
            acc
        });
        prop_assert!(same_bits(&out, &reference));
    }

    /// Column combining never loses non-zeros at zero conflict budget,
    /// never exceeds the combine cap, and its factor improves (weakly)
    /// as sparsity grows.
    #[test]
    fn column_combining_invariants(
        d10 in 1u8..=9, seed in any::<u64>(), cap in 2usize..8
    ) {
        let w = sparse_uniform(24, 24, density(d10), seed).to_dense();
        let p = combine_columns(&w, cap, 0);
        prop_assert_eq!(p.conflicts_pruned, 0);
        prop_assert_eq!(p.retained, w.nnz());
        prop_assert!(p.groups.iter().all(|g| g.len() <= cap));
        let cols: usize = p.groups.iter().map(Vec::len).sum();
        prop_assert_eq!(cols, 24);
        prop_assert!(p.packing_factor() >= 1.0 - 1e-12);
    }

    /// EIE and Eyeriss v2 both skip zero work: cycles scale (weakly)
    /// monotonically with activation density at fixed weights.
    #[test]
    fn sparse_engines_scale_with_density(seed in any::<u64>()) {
        let b = sparse_uniform(12, 12, density(5), seed).to_dense();
        let sparse_a = sparse_uniform(12, 12, density(2), seed ^ 2).to_dense();
        let dense_a = sparse_uniform(12, 12, density(9), seed ^ 3).to_dense();
        let eie = EieSim::new(8, 1);
        prop_assert!(eie.run_gemm(&sparse_a, &b).cycles <= eie.run_gemm(&dense_a, &b).cycles);
        let eye = EyerissV2Sim::new(8, 1 << 16, 16);
        prop_assert!(
            eye.run_gemm(&sparse_a, &b).compute_cycles
                <= eye.run_gemm(&dense_a, &b).compute_cycles
        );
    }

    /// SCNN's and OuterSPACE's useful-MAC counts agree exactly (both
    /// enumerate the same nonzero pairs).
    #[test]
    fn pair_counts_agree(
        da in 1u8..=9, db in 1u8..=9, seed in any::<u64>()
    ) {
        let a = sparse_uniform(10, 8, density(da), seed).to_dense();
        let b = sparse_uniform(8, 10, density(db), seed ^ 5).to_dense();
        let scnn = ScnnSim::new(16, 8).run_gemm(&a, &b);
        let osp = OuterProductSim::new(16, 8).run_gemm(&a, &b);
        prop_assert_eq!(scnn.macs, osp.partial_products);
        prop_assert!(scnn.result.approx_eq(&osp.result, 1e-3));
    }

    /// Cambricon-X issued MACs equal weight-nnz x M regardless of
    /// activation pattern.
    #[test]
    fn cambricon_issue_count(
        da in 1u8..=10, db in 1u8..=10, seed in any::<u64>()
    ) {
        let a = sparse_uniform(7, 9, density(da), seed).to_dense();
        let b = sparse_uniform(9, 6, density(db), seed ^ 7).to_dense();
        let run = CambriconSim::new(4, 4).run_gemm(&a, &b);
        prop_assert_eq!(run.issued_macs, b.nnz() as u64 * 7);
        prop_assert!(run.result.approx_eq(&a.matmul(&b), 1e-3));
    }
}
