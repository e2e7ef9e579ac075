//! A functional SCNN-style engine (Parashar et al., ISCA 2017): each PE
//! takes a vector of `F` non-zero weights and a vector of `I` non-zero
//! activations per cycle and computes their full `F x I` cartesian
//! product; the partial products then cross a crossbar into banked
//! accumulator memories, where *bank conflicts* serialize writes.
//!
//! On convolutions the cartesian product is always useful; on GEMM
//! (a 1x1 convolution) two products are useful only if they belong to
//! the same output — they always do here because we pair an activation
//! `A[m, k]` with weights `B[k, :]` (same `k`), so products target
//! different outputs and the *crossbar scatter*, not the multiplier,
//! becomes the bottleneck. That is exactly the structural claim of the
//! paper's Table III and our analytic SCNN model.

use sigma_matrix::Matrix;

/// The outcome of a functional SCNN-style run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScnnRun {
    /// The computed product.
    pub result: Matrix,
    /// Multiplier-limited cycles.
    pub multiply_cycles: u64,
    /// Accumulator-bank-limited cycles (the usual GEMM bottleneck).
    pub accumulate_cycles: u64,
    /// Useful multiply-accumulates performed.
    pub macs: u64,
    /// Worst single-cycle bank conflict degree observed.
    pub worst_conflict: u64,
}

impl ScnnRun {
    /// Total cycles: the pipeline runs at the slower of the two stages.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.multiply_cycles.max(self.accumulate_cycles)
    }
}

/// A functional SCNN-style cartesian-product engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScnnSim {
    /// Multipliers per cycle (the F x I array, e.g. 16 for 4x4).
    mults_per_cycle: usize,
    /// Accumulator banks (each accepts one write per cycle).
    banks: usize,
}

impl ScnnSim {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(mults_per_cycle: usize, banks: usize) -> Self {
        assert!(mults_per_cycle > 0 && banks > 0, "parameters must be non-zero");
        Self { mults_per_cycle, banks }
    }

    /// Runs `C = A[MxK] x B[KxN]`, skipping zeros in both operands.
    ///
    /// Per contraction index `k`, the non-zero activations of `A[:, k]`
    /// and non-zero weights of `B[k, :]` form a cartesian product; each
    /// cycle issues up to `mults_per_cycle` products, whose writes are
    /// then scheduled onto the banks (output `(m, n)` lives in bank
    /// `(m * N + n) % banks`); conflicting writes serialize.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn run_gemm(&self, a: &Matrix, b: &Matrix) -> ScnnRun {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        let mut macs = 0u64;
        let mut multiply_cycles = 0u64;
        let mut accumulate_cycles = 0u64;
        let mut worst = 0u64;
        // Scratch reused across contraction indices and waves.
        let mut acts: Vec<(usize, f32)> = Vec::with_capacity(m);
        let mut wts: Vec<(usize, f32)> = Vec::with_capacity(n);
        let mut products: Vec<(usize, usize, f32)> = Vec::new();
        let mut per_bank = vec![0u64; self.banks];

        for kk in 0..k {
            acts.clear();
            acts.extend((0..m).filter_map(|mm| {
                let v = a.get(mm, kk);
                (v != 0.0).then_some((mm, v))
            }));
            wts.clear();
            wts.extend(
                b.row(kk).iter().enumerate().filter(|&(_, &v)| v != 0.0).map(|(nn, &v)| (nn, v)),
            );
            if acts.is_empty() || wts.is_empty() {
                continue;
            }
            // Issue the cartesian product in multiplier-wide waves.
            products.clear();
            products.extend(
                acts.iter()
                    .flat_map(|&(mm, av)| wts.iter().map(move |&(nn, wv)| (mm, nn, av * wv))),
            );
            macs += products.len() as u64;
            for wave in products.chunks(self.mults_per_cycle) {
                multiply_cycles += 1;
                // Bank scheduling: the most-contended bank sets the
                // cycles this wave needs to drain.
                per_bank.fill(0);
                for &(mm, nn, pv) in wave {
                    out.set(mm, nn, out.get(mm, nn) + pv);
                    per_bank[(mm * n + nn) % self.banks] += 1;
                }
                let drain = per_bank.iter().copied().max().unwrap_or(0);
                worst = worst.max(drain);
                accumulate_cycles += drain.max(1);
            }
        }
        ScnnRun { result: out, multiply_cycles, accumulate_cycles, macs, worst_conflict: worst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::gen::{sparse_uniform, Density};

    #[test]
    fn computes_correct_product() {
        let sim = ScnnSim::new(16, 8);
        let a = sparse_uniform(7, 9, Density::new(0.4).unwrap(), 1).to_dense();
        let b = sparse_uniform(9, 6, Density::new(0.4).unwrap(), 2).to_dense();
        let run = sim.run_gemm(&a, &b);
        assert!(run.result.approx_eq(&a.matmul(&b), 1e-4));
    }

    #[test]
    fn macs_are_exactly_the_useful_pairs() {
        let a = sparse_uniform(6, 5, Density::new(0.5).unwrap(), 3).to_dense();
        let b = sparse_uniform(5, 6, Density::new(0.5).unwrap(), 4).to_dense();
        let run = ScnnSim::new(4, 4).run_gemm(&a, &b);
        let mut expected = 0u64;
        for mm in 0..6 {
            for nn in 0..6 {
                for kk in 0..5 {
                    if a.get(mm, kk) != 0.0 && b.get(kk, nn) != 0.0 {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(run.macs, expected);
    }

    #[test]
    fn bank_conflicts_make_accumulation_the_bottleneck() {
        // Few banks vs wide multiplier array: scatter dominates.
        let a = sparse_uniform(16, 8, Density::DENSE, 5).to_dense();
        let b = sparse_uniform(8, 16, Density::DENSE, 6).to_dense();
        let run = ScnnSim::new(16, 2).run_gemm(&a, &b);
        assert!(run.accumulate_cycles > run.multiply_cycles);
        assert!(run.worst_conflict > 1);
        assert_eq!(run.total_cycles(), run.accumulate_cycles);
    }

    #[test]
    fn many_banks_remove_the_conflicts() {
        let a = sparse_uniform(8, 8, Density::new(0.5).unwrap(), 7).to_dense();
        let b = sparse_uniform(8, 8, Density::new(0.5).unwrap(), 8).to_dense();
        let few = ScnnSim::new(16, 2).run_gemm(&a, &b);
        let many = ScnnSim::new(16, 256).run_gemm(&a, &b);
        assert!(many.total_cycles() <= few.total_cycles());
        assert!(many.result.approx_eq(&few.result, 1e-5));
    }

    #[test]
    fn sparsity_skips_work_entirely() {
        // 0.3 x 0.3 density leaves ~9% of the useful MACs; bank-conflict
        // serialization keeps the realized cycle ratio above that, but it
        // must still sit well below dense. Averaged over seeds so a single
        // unlucky conflict pattern cannot flip the verdict.
        let dense = {
            let a = sparse_uniform(12, 12, Density::DENSE, 9).to_dense();
            let b = sparse_uniform(12, 12, Density::DENSE, 10).to_dense();
            ScnnSim::new(8, 8).run_gemm(&a, &b).total_cycles()
        };
        let seeds = [11u64, 21, 31, 41];
        let sparse_avg = seeds
            .iter()
            .map(|&s| {
                let a = sparse_uniform(12, 12, Density::new(0.3).unwrap(), s).to_dense();
                let b = sparse_uniform(12, 12, Density::new(0.3).unwrap(), s + 1).to_dense();
                ScnnSim::new(8, 8).run_gemm(&a, &b).total_cycles() as f64
            })
            .sum::<f64>()
            / seeds.len() as f64;
        assert!(sparse_avg < 0.25 * dense as f64, "sparse avg {sparse_avg} vs dense {dense}");
    }

    #[test]
    fn empty_rows_cost_nothing() {
        let a = Matrix::zeros(4, 4);
        let b = sparse_uniform(4, 4, Density::DENSE, 13).to_dense();
        let run = ScnnSim::new(4, 4).run_gemm(&a, &b);
        assert_eq!(run.total_cycles(), 0);
        assert_eq!(run.macs, 0);
    }
}
