//! A *functional* weight-stationary systolic array: real values move
//! through real PE registers cycle by cycle, exactly like the TPU-style
//! baseline the analytic model summarizes.
//!
//! Each PE holds one stationary weight; activations enter at the left
//! edge with a one-cycle skew per row and propagate rightward; partial
//! sums propagate downward, accumulating one `a·w` per row; finished
//! sums fall out of the bottom edge. GEMMs larger than the array run as
//! fold tiles over (K, N), with K-folds accumulating into the output.
//!
//! The simulator returns both the numeric product (verified against the
//! reference GEMM in tests) and the exact cycle count, which matches the
//! SCALE-sim-style analytic formula `2R + C + M − 2` per fold — that
//! agreement is itself a test, tying the analytic baseline model to real
//! hardware behavior.
//!
//! Each fold allocates its register files once, as flat row-major
//! `rows x cols` vectors, and every cycle updates them in place: a row's
//! activations shift one PE right (`copy_within`) and the skewed feed
//! enters at column 0; then every PE of the row does its multiply-add.
//! The weight-stationary fold visits rows bottom-up, so row `r` still
//! reads row `r − 1`'s psum from the previous cycle; the output-stationary
//! fold moves its `B` registers down a row with one overlapping move
//! before any PE reads them. Each PE therefore computes the same
//! `p_in + a_in·w` (or `acc += a_in·b_in`) from the same previous-cycle
//! values, on every cycle including padding cycles, as a double-buffered
//! register file would: results are bit for bit those of the written-out
//! fold order (`tests/proptests.rs`), and the allocation count does not
//! grow with the stream (`tests/alloc_counts.rs`).

use sigma_matrix::Matrix;

/// A functional `R x C` weight-stationary systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicSim {
    rows: usize,
    cols: usize,
}

/// The outcome of a functional systolic run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystolicRun {
    /// The computed product.
    pub result: Matrix,
    /// Total cycles: per fold, weight load (`R`) plus the streaming
    /// pipeline until the last output drains.
    pub cycles: u64,
    /// Number of (K, N) fold tiles executed.
    pub folds: u64,
}

impl SystolicSim {
    /// Creates the array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self { rows, cols }
    }

    /// Array rows (the contraction direction).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns (the output-width direction).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Runs `C = A[MxK] x B[KxN]` with `B` stationary, folding over
    /// `(K, N)` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    #[must_use]
    pub fn run_gemm(&self, a: &Matrix, b: &Matrix) -> SystolicRun {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let mut cycles = 0u64;
        let mut folds = 0u64;
        for (k0, kr, n0, nc) in self.tiles(a.cols(), b.cols()) {
            cycles += self.run_fold(a, b, &mut out, k0, kr, n0, nc);
            folds += 1;
        }
        SystolicRun { result: out, cycles, folds }
    }

    /// The `(cycles, folds)` that [`Self::run_gemm`] reports for an
    /// `M x K x N` GEMM, without simulating it: the same fold loop, each
    /// fold costing [`Self::analytic_fold_cycles`] (a fold with no
    /// activation rows only loads its weights, `R` cycles). The timing
    /// of a weight-stationary array does not depend on operand values.
    #[must_use]
    pub fn ws_timing(&self, m: usize, k: usize, n: usize) -> (u64, u64) {
        let mut cycles = 0u64;
        let mut folds = 0u64;
        for (_, kr, _, nc) in self.tiles(k, n) {
            cycles += if m == 0 { self.rows as u64 } else { self.analytic_fold_cycles(kr, nc, m) };
            folds += 1;
        }
        (cycles, folds)
    }

    /// The fold tiles `(o0, or, n0, nc)` over an `outer x n` grid, outer
    /// folds outermost: `outer` steps by the array's rows (K for weight
    /// stationary, M for output stationary) and `n` by its columns.
    fn tiles(&self, outer: usize, n: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let (rows, cols) = (self.rows, self.cols);
        (0..outer).step_by(rows).flat_map(move |o0| {
            (0..n).step_by(cols).map(move |n0| (o0, (outer - o0).min(rows), n0, (n - n0).min(cols)))
        })
    }

    /// Executes one stationary fold and returns its cycle count.
    #[allow(clippy::too_many_arguments)]
    fn run_fold(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
        k0: usize,
        kr: usize,
        n0: usize,
        nc: usize,
    ) -> u64 {
        let m = a.rows();
        // Stationary weights and PE registers for this tile, row-major
        // `kr x nc`.
        let mut w = Vec::with_capacity(kr * nc);
        for r in 0..kr {
            w.extend_from_slice(&b.row(k0 + r)[n0..n0 + nc]);
        }
        let mut a_reg = vec![0.0f32; kr * nc];
        let mut p_reg = vec![0.0f32; kr * nc];
        let mut collected = 0usize;
        let total_outputs = m * nc;
        let mut t = 0usize;
        // Activation m enters row r at cycle m + r; the finished psum for
        // (m, column c) leaves the bottom PE's register at m + kr + c.
        while collected < total_outputs {
            // Rows bottom-up, so row r reads row r-1's psum from cycle t-1
            // before row r-1 overwrites it.
            for r in (0..kr).rev() {
                let row = r * nc..(r + 1) * nc;
                let a_row = &mut a_reg[row.clone()];
                a_row.copy_within(..nc - 1, 1);
                // Left edge: skewed feed.
                a_row[0] =
                    t.checked_sub(r).filter(|&tt| tt < m).map_or(0.0, |tt| a.get(tt, k0 + r));
                let (above, here) = p_reg.split_at_mut(r * nc);
                let pes = here[..nc].iter_mut().zip(a_row.iter().zip(&w[row]));
                if r == 0 {
                    for (p, (&a_in, &wv)) in pes {
                        *p = 0.0 + a_in * wv;
                    }
                } else {
                    for ((p, (&a_in, &wv)), &p_in) in pes.zip(&above[(r - 1) * nc..]) {
                        *p = p_in + a_in * wv;
                    }
                }
            }
            t += 1;
            // After the update at cycle t-1 -> t, the bottom register of
            // column c holds the finished psum for activation row
            // m = t - kr - c when that index is valid.
            for (c, bottom) in p_reg[(kr - 1) * nc..].iter().enumerate() {
                if let Some(mm) = t.checked_sub(kr + c).filter(|&mm| mm < m) {
                    out.set(mm, n0 + c, out.get(mm, n0 + c) + bottom);
                    collected += 1;
                }
            }
        }
        // Weight load (store-and-forward down all R rows), then the stream.
        self.rows as u64 + t as u64
    }

    /// The SCALE-sim-style analytic cycle count for one fold of this
    /// array with `streamed` activation rows: `R + (streamed − 1) +
    /// (kr − 1) + (nc − 1) + 1`.
    #[must_use]
    pub fn analytic_fold_cycles(&self, kr: usize, nc: usize, streamed: usize) -> u64 {
        self.rows as u64 + (streamed as u64 - 1) + (kr as u64 - 1) + (nc as u64 - 1) + 1
    }

    /// Runs `C = A[MxK] x B[KxN]` in the *output-stationary* dataflow:
    /// each PE owns one output element, `A` streams from the left
    /// (row-skewed), `B` from the top (column-skewed), and finished
    /// outputs shift down their columns to drain. Folds tile `(M, N)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    #[must_use]
    pub fn run_gemm_output_stationary(&self, a: &Matrix, b: &Matrix) -> SystolicRun {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let mut cycles = 0u64;
        let mut folds = 0u64;
        for (m0, mr, n0, nc) in self.tiles(a.rows(), b.cols()) {
            cycles += self.run_fold_os(a, b, &mut out, m0, mr, n0, nc);
            folds += 1;
        }
        SystolicRun { result: out, cycles, folds }
    }

    /// One output-stationary fold; returns its cycle count.
    #[allow(clippy::too_many_arguments)]
    fn run_fold_os(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
        m0: usize,
        mr: usize,
        n0: usize,
        nc: usize,
    ) -> u64 {
        let k = a.cols();
        // Pipeline registers, row-major `mr x nc`: a travels right, b
        // travels down, psums stay.
        let mut a_reg = vec![0.0f32; mr * nc];
        let mut b_reg = vec![0.0f32; mr * nc];
        let mut acc = vec![0.0f32; mr * nc];

        // PE (r, c) receives a[m0+r][k'] and b[k'][n0+c] simultaneously at
        // cycle k' + r + c; the last PE finishes at (k-1) + (mr-1) + (nc-1).
        let stream_cycles = k + (mr - 1) + (nc - 1);
        for t in 0..stream_cycles {
            // b moves down one row (one overlapping move, so every row
            // takes the row above's value from cycle t-1); the top row
            // takes the column-skewed feed.
            b_reg.copy_within(..(mr - 1) * nc, nc);
            for (c, b_in) in b_reg[..nc].iter_mut().enumerate() {
                *b_in = t.checked_sub(c).filter(|&kk| kk < k).map_or(0.0, |kk| b.get(kk, n0 + c));
            }
            // a moves right one column; the left edge takes the
            // row-skewed feed.
            for (r, a_row) in a_reg.chunks_exact_mut(nc).enumerate() {
                a_row.copy_within(..nc - 1, 1);
                a_row[0] =
                    t.checked_sub(r).filter(|&kk| kk < k).map_or(0.0, |kk| a.get(m0 + r, kk));
            }
            for (s, (&a_in, &b_in)) in acc.iter_mut().zip(a_reg.iter().zip(&b_reg)) {
                *s += a_in * b_in;
            }
        }
        for (r, row) in acc.chunks_exact(nc).enumerate() {
            for (c, v) in row.iter().enumerate() {
                out.set(m0 + r, n0 + c, out.get(m0 + r, n0 + c) + v);
            }
        }
        // Drain: outputs shift down the columns (mr cycles).
        (stream_cycles + mr) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::gen::{dense_uniform, sparse_uniform, Density};

    #[test]
    fn single_fold_correct_and_timed() {
        let sim = SystolicSim::new(4, 4);
        let a = dense_uniform(6, 4, 1);
        let b = dense_uniform(4, 4, 2);
        let run = sim.run_gemm(&a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-4));
        assert_eq!(run.folds, 1);
        // 2R + C + M - 2 = 8 + 4 + 6 - 2 = 16.
        assert_eq!(run.cycles, 16);
        assert_eq!(run.cycles, sim.analytic_fold_cycles(4, 4, 6));
    }

    #[test]
    fn multi_fold_accumulates_k_tiles() {
        let sim = SystolicSim::new(4, 4);
        let a = dense_uniform(5, 10, 3); // K = 10: three K-folds
        let b = dense_uniform(10, 7, 4); // N = 7: two N-folds
        let run = sim.run_gemm(&a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-3));
        assert_eq!(run.folds, 6);
    }

    #[test]
    fn sparse_inputs_still_correct_but_not_faster() {
        let sim = SystolicSim::new(4, 4);
        let a = sparse_uniform(6, 8, Density::new(0.3).unwrap(), 5).to_dense();
        let b = sparse_uniform(8, 6, Density::new(0.3).unwrap(), 6).to_dense();
        let dense_a = dense_uniform(6, 8, 7);
        let dense_b = dense_uniform(8, 6, 8);
        let sparse_run = sim.run_gemm(&a, &b);
        let dense_run = sim.run_gemm(&dense_a, &dense_b);
        assert!(sparse_run.result.approx_eq(&a.matmul(&b), 1e-3));
        // The rigid array cannot skip zeros: identical cycle count.
        assert_eq!(sparse_run.cycles, dense_run.cycles);
    }

    #[test]
    fn functional_matches_analytic_model_totals() {
        // The functional machine and the analytic SystolicArray model
        // agree on total cycles for single-tile-per-fold GEMMs.
        use crate::systolic::SystolicArray;
        use sigma_core::model::GemmProblem;
        use sigma_matrix::GemmShape;
        let sim = SystolicSim::new(8, 8);
        let model = SystolicArray::new(8, 8);
        for (m, k, n) in [(8usize, 8usize, 8usize), (12, 8, 8), (20, 8, 8)] {
            let a = dense_uniform(m, k, 11);
            let b = dense_uniform(k, n, 12);
            let run = sim.run_gemm(&a, &b);
            let est =
                model.simulate_weight_stationary(&GemmProblem::dense(GemmShape::new(m, n, k)));
            assert_eq!(run.cycles, est.total_cycles(), "functional vs analytic on {m}-{n}-{k}");
        }
    }

    #[test]
    fn output_stationary_correct_single_fold() {
        let sim = SystolicSim::new(4, 4);
        let a = dense_uniform(4, 6, 21);
        let b = dense_uniform(6, 4, 22);
        let run = sim.run_gemm_output_stationary(&a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-4));
        assert_eq!(run.folds, 1);
        // K + (mr-1) + (nc-1) streaming + mr drain = 6 + 3 + 3 + 4.
        assert_eq!(run.cycles, 16);
    }

    #[test]
    fn output_stationary_folds_over_outputs() {
        let sim = SystolicSim::new(4, 4);
        let a = dense_uniform(10, 5, 23);
        let b = dense_uniform(5, 9, 24);
        let run = sim.run_gemm_output_stationary(&a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-3));
        assert_eq!(run.folds, 3 * 3);
    }

    #[test]
    fn dataflow_choice_depends_on_shape() {
        let sim = SystolicSim::new(8, 8);
        // Long-K GEMM: output-stationary avoids K-folding entirely.
        let a = dense_uniform(8, 64, 25);
        let b = dense_uniform(64, 8, 26);
        let ws = sim.run_gemm(&a, &b);
        let os = sim.run_gemm_output_stationary(&a, &b);
        assert!(os.result.approx_eq(&ws.result, 1e-2));
        assert!(os.cycles < ws.cycles, "OS {} should beat WS {} on long-K", os.cycles, ws.cycles);
        // Large-M, small-K: weight-stationary wins (one weight load, long
        // stream vs many output tiles).
        let a2 = dense_uniform(64, 8, 27);
        let b2 = dense_uniform(8, 8, 28);
        let ws2 = sim.run_gemm(&a2, &b2);
        let os2 = sim.run_gemm_output_stationary(&a2, &b2);
        assert!(ws2.cycles < os2.cycles, "WS {} should beat OS {}", ws2.cycles, os2.cycles);
    }

    #[test]
    fn identity_weights_pass_inputs_through() {
        let sim = SystolicSim::new(4, 4);
        let a = dense_uniform(3, 4, 9);
        let run = sim.run_gemm(&a, &Matrix::identity(4));
        assert!(run.result.approx_eq(&a, 1e-6));
    }

    #[test]
    fn irregular_small_tile_costs_like_full_array_load() {
        // A 2-column stationary tile still pays the full R-cycle load:
        // the rigidity SIGMA's O(1) loading avoids.
        let sim = SystolicSim::new(8, 8);
        let a = dense_uniform(4, 8, 13);
        let b = dense_uniform(8, 2, 14);
        let run = sim.run_gemm(&a, &b);
        assert!(run.cycles >= 8, "must include the 8-cycle weight load");
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-4));
    }
}
