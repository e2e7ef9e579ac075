//! The sweep verifies every cell against the row-wise sparse product
//! (`SparseMatrix::try_matmul`). These tests pin that switch to the dense
//! loop it replaced: each record's `max_abs_err` and `verified` must equal
//! the values recomputed against `Matrix::matmul`, so the sweep's CSV and
//! JSON renderings are byte-for-byte what the dense reference produced.

use sigma_bench::harness::{default_registry, Sweep, WorkloadSpec};
use sigma_core::model::GemmProblem;
use sigma_matrix::GemmShape;
use sigma_workloads::materialize;

fn suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::new("dense-24", GemmProblem::dense(GemmShape::new(24, 24, 24))),
        WorkloadSpec::new("dense-tall", GemmProblem::dense(GemmShape::new(40, 3, 16))),
        WorkloadSpec::new("sparse-40", GemmProblem::sparse(GemmShape::new(40, 40, 40), 0.5, 0.2)),
        WorkloadSpec::new("irregular", GemmProblem::sparse(GemmShape::new(17, 33, 9), 0.7, 0.6)),
        WorkloadSpec::new("k1", GemmProblem::sparse(GemmShape::new(12, 10, 1), 0.5, 0.5)),
    ]
}

#[test]
fn sweep_verification_matches_the_dense_reference() {
    let registry = default_registry();
    let records = Sweep::new(suite()).with_seed(11).with_threads(2).run(&registry);
    let cells = registry.iter().flat_map(|e| suite().into_iter().map(move |w| (e, w)));
    assert_eq!(records.len(), registry.len() * suite().len());
    for (record, (entry, spec)) in records.iter().zip(cells) {
        assert_eq!(
            (record.engine_slug.as_str(), record.workload.as_str()),
            (entry.slug.as_str(), spec.name.as_str())
        );
        let (a, b) = materialize(&spec.problem, record.seed);
        let dense = a.to_dense().matmul(&b.to_dense());
        let run = entry.engine.run(&a, &b).unwrap();
        // The sweep's tolerance: 1e-3 per element of the contraction.
        let tol = 1e-3 * spec.problem.shape.k as f32;
        let cell = format!("{} on {}", entry.slug, spec.name);
        assert_eq!(
            record.max_abs_err.to_bits(),
            f64::from(run.result.max_abs_diff(&dense)).to_bits(),
            "{cell}: max_abs_err differs from the dense reference's"
        );
        assert_eq!(record.verified, run.result.approx_eq(&dense, tol), "{cell}: verified differs");
        assert!(record.verified, "{cell} diverged (max abs err {})", record.max_abs_err);
    }
}
