//! Quickstart: run one sparse, irregular GEMM on a SIGMA instance, verify
//! the result against the reference GEMM, and print the Table-II stats.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sigma::arch::{Dataflow, SigmaConfig, SigmaSim};
use sigma::matrix::gen::{sparse_uniform, Density};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small SIGMA: 4 Flex-DPEs of 32 multipliers, 32 words/cycle SRAM.
    let config = SigmaConfig::new(4, 32, 32, Dataflow::WeightStationary)?;
    let sim = SigmaSim::new(config)?;

    // An irregular GEMM with unstructured sparsity: 50%-sparse inputs,
    // 80%-sparse weights (the paper's headline regime).
    let a = sparse_uniform(96, 64, Density::from_sparsity(0.5).unwrap(), 1);
    let b = sparse_uniform(64, 24, Density::from_sparsity(0.8).unwrap(), 2);
    println!(
        "GEMM: A[{}x{}] ({} nnz) x B[{}x{}] ({} nnz)",
        a.rows(),
        a.cols(),
        a.nnz(),
        b.rows(),
        b.cols(),
        b.nnz()
    );

    // Run under both stationary dataflows; keep the faster one, exactly
    // like the paper's evaluation.
    let (dataflow, run) = sim.run_best_stationary(&a, &b)?;
    println!("best dataflow: {dataflow}");
    println!("stats: {}", run.stats);

    // The simulator computed the real product through the modeled
    // Benes -> multipliers -> FAN datapath; check it.
    let reference = a.try_matmul(&b)?;
    let diff = run.result.max_abs_diff(&reference);
    println!("max |sim - reference| = {diff:e}");
    assert!(run.result.approx_eq(&reference, 1e-3 * a.cols() as f32));

    // SIGMA's key property: only non-zeros were mapped stationary.
    assert_eq!(run.stats.stationary_utilization(), 1.0);
    println!("stationary utilization: 100% (only non-zeros mapped)");
    Ok(())
}
