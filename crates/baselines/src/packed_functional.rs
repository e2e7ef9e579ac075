//! Column combining (Kung et al., ASPLOS 2019) — the "Packed Systolic"
//! baseline, implemented as a real packing algorithm plus execution on
//! the functional systolic array.
//!
//! The idea: a sparse weight matrix's columns are greedily *combined*
//! into groups whose non-zero patterns (mostly) don't collide on the
//! same row; each group occupies a single physical systolic column whose
//! PEs carry per-weight column indices. Combining removes zero rows of
//! compute but only works up to a packing factor (the paper caps the
//! benefit at ~4x, and conflicts force pruning or serialization — here
//! we take the standard "prune conflicts" variant, which makes the
//! computation *approximate* unless the column patterns are disjoint).
//!
//! This grounds the analytic `SparseAcceleratorKind::PackedSystolic`
//! model: weight-sparsity-only benefit, capped packing, activations
//! dense.

use sigma_matrix::Matrix;

/// The result of packing a sparse matrix's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPacking {
    /// `groups[g]` lists the original column indices packed into
    /// physical column `g`.
    pub groups: Vec<Vec<usize>>,
    /// Non-zeros dropped because two combined columns collided on a row
    /// (the lossy part of column combining; training recovers these).
    pub conflicts_pruned: usize,
    /// Total non-zeros retained.
    pub retained: usize,
}

impl ColumnPacking {
    /// Packing factor achieved: original columns per physical column.
    #[must_use]
    pub fn packing_factor(&self) -> f64 {
        if self.groups.is_empty() {
            return 1.0;
        }
        let total: usize = self.groups.iter().map(Vec::len).sum();
        total as f64 / self.groups.len() as f64
    }
}

/// Greedily combines the columns of `w` (a `K x N` weight matrix) into
/// groups of at most `max_combine` columns, first-fit by conflict count:
/// a column joins the first group where it collides on fewer than
/// `conflict_budget` rows; colliding entries of the *joining* column are
/// pruned.
#[must_use]
pub fn combine_columns(w: &Matrix, max_combine: usize, conflict_budget: usize) -> ColumnPacking {
    assert!(max_combine >= 1, "max_combine must be at least 1");
    let (k, n) = (w.rows(), w.cols());
    // occupancy[g][r] = true when group g already has a weight on row r.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut occupancy: Vec<Vec<bool>> = Vec::new();
    let mut pruned = 0usize;
    let mut retained = 0usize;

    for col in 0..n {
        let pattern: Vec<usize> = (0..k).filter(|&r| w.get(r, col) != 0.0).collect();
        let mut placed = false;
        for (g, occ) in occupancy.iter_mut().enumerate() {
            if groups[g].len() >= max_combine {
                continue;
            }
            let conflicts = pattern.iter().filter(|&&r| occ[r]).count();
            if conflicts <= conflict_budget {
                for &r in &pattern {
                    if occ[r] {
                        pruned += 1;
                    } else {
                        occ[r] = true;
                        retained += 1;
                    }
                }
                groups[g].push(col);
                placed = true;
                break;
            }
        }
        if !placed {
            let mut occ = vec![false; k];
            for &r in &pattern {
                occ[r] = true;
            }
            retained += pattern.len();
            groups.push(vec![col]);
            occupancy.push(occ);
        }
    }
    ColumnPacking { groups, conflicts_pruned: pruned, retained }
}

/// Builds the packed weight matrix (`K x groups`) and the per-PE column
/// index map, then reports the packed GEMM's systolic cost: the packed
/// matrix has `groups.len()` physical columns instead of `N`.
///
/// Returns `(packed_weights, column_of[g][r])` where `column_of[g][r]`
/// is the original output column the PE at `(r, g)` contributes to (or
/// `None` when no weight is packed there).
#[must_use]
pub fn pack_weights(w: &Matrix, packing: &ColumnPacking) -> (Matrix, Vec<Vec<Option<usize>>>) {
    let k = w.rows();
    let g_count = packing.groups.len();
    let mut packed = Matrix::zeros(k, g_count);
    let mut column_of: Vec<Vec<Option<usize>>> = vec![vec![None; k]; g_count];
    for (g, members) in packing.groups.iter().enumerate() {
        for &col in members {
            for (r, slot) in column_of[g].iter_mut().enumerate() {
                let v = w.get(r, col);
                if v != 0.0 && slot.is_none() {
                    packed.set(r, g, v);
                    *slot = Some(col);
                }
            }
        }
    }
    (packed, column_of)
}

/// Runs `C = A x W` on a packed array *functionally*: activations stream
/// densely; each packed column's per-row products scatter to their
/// original output columns. Returns the result (exact when no conflicts
/// were pruned) and the packed column count (the latency driver).
///
/// Each original column belongs to exactly one group, so every output
/// takes its products in contraction-row order, whatever order the
/// groups run in.
#[must_use]
pub fn run_packed_gemm(a: &Matrix, w: &Matrix, max_combine: usize) -> (Matrix, ColumnPacking) {
    assert_eq!(a.cols(), w.rows(), "inner dimensions must agree");
    let packing = combine_columns(w, max_combine, 0);
    let (packed, column_of) = pack_weights(w, &packing);
    // The occupied PEs as (row, destination column, weight), in (group,
    // row) order.
    let mut pes = Vec::new();
    for (g, col_map) in column_of.iter().enumerate() {
        for (r, dest) in col_map.iter().enumerate() {
            if let Some(dest) = *dest {
                pes.push((r, dest, packed.get(r, g)));
            }
        }
    }
    let mut out = Matrix::zeros(a.rows(), w.cols());
    let mut out_row = vec![0.0f32; w.cols()];
    for mm in 0..a.rows() {
        let acts = a.row(mm);
        out_row.fill(0.0);
        for &(r, dest, wv) in &pes {
            out_row[dest] += acts[r] * wv;
        }
        for (c, &v) in out_row.iter().enumerate() {
            out.set(mm, c, v);
        }
    }
    (out, packing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::gen::{sparse_uniform, Density};

    #[test]
    fn disjoint_columns_pack_losslessly() {
        // Columns with disjoint row patterns combine with no pruning.
        let w = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 2.0],
            &[0.0, 3.0, 0.0, 0.0],
            &[0.0, 0.0, 4.0, 0.0],
            &[5.0, 0.0, 0.0, 0.0],
        ]);
        let p = combine_columns(&w, 4, 0);
        assert_eq!(p.conflicts_pruned, 0);
        assert!(p.packing_factor() > 1.0, "factor {}", p.packing_factor());
        assert_eq!(p.retained, w.nnz());
    }

    #[test]
    fn packed_gemm_exact_with_zero_budget_when_disjoint() {
        let w = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[0.0, 0.0, 4.0]]);
        let a = sparse_uniform(5, 3, Density::DENSE, 1).to_dense();
        let (out, packing) = run_packed_gemm(&a, &w, 4);
        assert_eq!(packing.conflicts_pruned, 0);
        assert!(out.approx_eq(&a.matmul(&w), 1e-5));
        // Three disjoint columns fit one physical column.
        assert_eq!(packing.groups.len(), 1);
    }

    #[test]
    fn sparser_weights_pack_tighter() {
        let sparse = sparse_uniform(64, 64, Density::new(0.1).unwrap(), 2).to_dense();
        let denser = sparse_uniform(64, 64, Density::new(0.5).unwrap(), 3).to_dense();
        let ps = combine_columns(&sparse, 8, 0);
        let pd = combine_columns(&denser, 8, 0);
        assert!(
            ps.packing_factor() > pd.packing_factor(),
            "sparse {} vs dense {}",
            ps.packing_factor(),
            pd.packing_factor()
        );
        assert!(ps.packing_factor() > 2.0);
    }

    #[test]
    fn max_combine_caps_the_factor() {
        let w = sparse_uniform(64, 64, Density::new(0.05).unwrap(), 4).to_dense();
        let p = combine_columns(&w, 4, 0);
        assert!(p.packing_factor() <= 4.0 + 1e-9);
        for g in &p.groups {
            assert!(g.len() <= 4);
        }
    }

    #[test]
    fn every_column_lands_exactly_once() {
        let w = sparse_uniform(32, 40, Density::new(0.2).unwrap(), 5).to_dense();
        let p = combine_columns(&w, 6, 0);
        let mut seen = vec![false; 40];
        for g in &p.groups {
            for &c in g {
                assert!(!seen[c], "column {c} packed twice");
                seen[c] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn zero_budget_packing_is_always_exact() {
        // With conflict_budget 0 nothing is pruned, so the packed GEMM is
        // exact for any operand.
        let w = sparse_uniform(24, 24, Density::new(0.15).unwrap(), 6).to_dense();
        let a = sparse_uniform(10, 24, Density::new(0.8).unwrap(), 7).to_dense();
        let (out, packing) = run_packed_gemm(&a, &w, 8);
        assert_eq!(packing.conflicts_pruned, 0);
        assert!(out.approx_eq(&a.matmul(&w), 1e-4));
        // And the packed array is narrower than the original.
        assert!(packing.groups.len() < 24);
    }
}
