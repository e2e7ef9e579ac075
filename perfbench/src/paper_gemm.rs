//! paper_gemm: paper-scale GEMMs on the 128 x Flex-DPE-128 (16K-PE)
//! machine, one cell at a time, through the program's own `Sweep::run`
//! path: materialize operands, compute the dense reference, simulate,
//! verify.
//!
//! Each cell is a one-workload, one-engine sweep with a seed derived from
//! `--seed`; its record must say `status=ok` and `verified`, and its
//! simulated statistics must repeat exactly. The traced run makes the
//! same public calls the sweep makes (`materialize`, the dense
//! `Matrix::matmul` reference, `Engine::run`, the comparison) under
//! spans, and its statistics must equal the sweep's.

use crate::report::{analytic_accuracy_pct, err_pct, median, observed_problem, Outcome};
use crate::trace::Tracer;
use crate::Ctx;
use sigma_bench::harness::{derive_seed, EngineEntry, RunRecord, RunStatus, Sweep, WorkloadSpec};
use sigma_core::model::{estimate, GemmProblem};
use sigma_core::{CycleStats, SigmaConfig, SigmaSim};
use sigma_matrix::{GemmShape, SparseMatrix};
use sigma_workloads::materialize;
use std::time::Instant;

/// Fig. 12b's 1024^3 at 50% / 80% sparsity, and the low-K irregular
/// 2048 x 4096 x 32 at the same sparsity.
fn cells() -> [(&'static str, GemmProblem); 2] {
    [
        ("paper-1024cube", GemmProblem::sparse(GemmShape::new(1024, 1024, 1024), 0.5, 0.2)),
        ("paper-2048x4096x32", GemmProblem::sparse(GemmShape::new(2048, 4096, 32), 0.5, 0.2)),
    ]
}

struct Cell {
    name: &'static str,
    spec: WorkloadSpec,
    /// Seed of the cell's one-workload sweep.
    sweep_seed: u64,
    estimate_cycles: u64,
    /// Useful MACs of the generated operands over m*n*k.
    useful_macs: f64,
    macs: f64,
}

struct Setup {
    cells: Vec<Cell>,
    engine: Vec<EngineEntry>,
}

/// MACs whose operands are both non-zero: sum over k of
/// nnz(A[:, k]) * nnz(B[k, :]).
fn useful_macs(a: &SparseMatrix, b: &SparseMatrix) -> f64 {
    let mut col = vec![0u64; a.cols()];
    for (_, k, _) in a.iter() {
        col[k] += 1;
    }
    (0..b.rows()).map(|k| (col[k] * b.bitmap().row_count_ones(k) as u64) as f64).sum()
}

fn setup(seed: u64) -> Setup {
    let config = SigmaConfig::paper();
    let cells = cells()
        .into_iter()
        .enumerate()
        .map(|(i, (name, problem))| {
            let sweep_seed = derive_seed(seed, i as u64);
            // The operands the sweep will generate for its one workload.
            let (a, b) = materialize(&problem, derive_seed(sweep_seed, 0));
            Cell {
                name,
                spec: WorkloadSpec::new(name, problem),
                sweep_seed,
                estimate_cycles: estimate(&config, &observed_problem(&a, &b)).total_cycles(),
                useful_macs: useful_macs(&a, &b),
                macs: problem.shape.macs() as f64,
            }
        })
        .collect();
    let sim = SigmaSim::new(config).expect("the paper configuration is valid");
    Setup { cells, engine: vec![EngineEntry::new("sigma-16k", Box::new(sim))] }
}

/// The simulated statistics of a record, which must repeat exactly.
fn record_stats(r: &RunRecord) -> [u128; 10] {
    [
        u128::from(r.loading_cycles),
        u128::from(r.streaming_cycles),
        u128::from(r.add_cycles),
        u128::from(r.total_cycles),
        u128::from(r.folds),
        r.useful_macs,
        r.issued_macs,
        u128::from(r.route_cache_hits),
        u128::from(r.route_cache_misses),
        u128::from(r.idle_cycles_skipped),
    ]
}

/// The same statistics of a run, as the record stores them.
fn run_stats(s: &CycleStats) -> [u128; 10] {
    [
        u128::from(s.loading_cycles),
        u128::from(s.streaming_cycles),
        u128::from(s.add_cycles),
        u128::from(s.total_cycles()),
        u128::from(s.folds),
        s.useful_macs,
        s.issued_macs,
        u128::from(s.route_cache_hits),
        u128::from(s.route_cache_misses),
        u128::from(s.idle_cycles_skipped),
    ]
}

/// Runs one cell through `Sweep::run`, checks its record and returns
/// (cell seconds, record).
fn sweep_cell(cell: &Cell, engine: &[EngineEntry], out: &mut Outcome) -> Option<(f64, RunRecord)> {
    let sweep = Sweep::new(vec![cell.spec.clone()])
        .with_seed(cell.sweep_seed)
        .with_threads(1)
        .with_budget(None);
    let t = Instant::now();
    let records = sweep.run(engine);
    let secs = t.elapsed().as_secs_f64();
    let name = cell.name;
    let Some(record) = records.into_iter().next() else {
        out.checks.check(false, || format!("{name}: sweep returned no record"));
        return None;
    };
    let ok = record.status == RunStatus::Ok && record.verified;
    out.checks.check(ok, || {
        format!(
            "{name}: status {:?}, verified {}, error {:?}",
            record.status, record.verified, record.error
        )
    });
    ok.then_some((secs, record))
}

/// Samples of the untraced passes, checked for exact repetition.
struct Samples {
    cell_s: Vec<Vec<f64>>,
    first: Vec<Option<RunRecord>>,
}

impl Samples {
    /// One pass over the cells; returns its seconds.
    fn pass(&mut self, s: &Setup, out: &mut Outcome) -> f64 {
        let mut total = 0.0;
        for (i, cell) in s.cells.iter().enumerate() {
            let Some((secs, record)) = sweep_cell(cell, &s.engine, out) else { continue };
            total += secs;
            self.cell_s[i].push(secs);
            match &self.first[i] {
                None => self.first[i] = Some(record),
                Some(first) => {
                    let same = record_stats(first) == record_stats(&record);
                    out.checks.check(same, || {
                        format!("{}: simulated statistics changed between repetitions", cell.name)
                    });
                }
            }
        }
        total
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let (s, setup_s) = ctx.setup(|| setup(ctx.seed));
    let mut out = Outcome::default();
    let n = s.cells.len();
    let mut samples = Samples { cell_s: vec![Vec::new(); n], first: vec![None; n] };
    if ctx.trace {
        traced(ctx, &s, &mut samples, tracer, &mut out);
        return out;
    }
    ctx.timed_passes(|_| {
        samples.pass(&s, &mut out);
    });
    let pass_s: f64 = samples.cell_s.iter().map(|t| median(t)).sum();
    let cycles: u64 = samples.first.iter().flatten().map(|r| r.total_cycles).sum();
    let errs: Vec<f64> = s
        .cells
        .iter()
        .zip(&samples.first)
        .filter_map(|(c, r)| r.as_ref().map(|r| err_pct(c.estimate_cycles, r.total_cycles)))
        .collect();
    out.set("setup_s", setup_s);
    out.set("pass_s", pass_s);
    out.set("ops_per_s", n as f64 / pass_s);
    // Simulated cycles per second of verified GEMM, end to end. The
    // engine alone at 16K PEs is timed by sim_ladder's 16K cases and by
    // the traced run's `core.engine.pe_cycles_per_s.16k`; timed inside
    // these cells it spread 10-18% across runs, since its second per cell
    // sits among six of memory-bound reference work.
    out.set("sim_cycles_per_s", cycles as f64 / pass_s);
    out.set("analytic_accuracy_pct", analytic_accuracy_pct(&errs));
    for (c, t) in s.cells.iter().zip(&samples.cell_s) {
        println!("cell {:<20} {:>9.3} s verified", c.name, median(t));
    }
    out
}

fn traced(ctx: &Ctx, s: &Setup, samples: &mut Samples, tracer: &mut Tracer, out: &mut Outcome) {
    let engine = &s.engine[0].engine;
    let mut untraced = Vec::new();
    let mut traced_s = Vec::new();
    let mut passes = 0usize;
    let mut cycles = 0u64;
    let mut engine_total = 0.0;
    let mut idle = 0u64;
    let mut estimate_us = Vec::new();
    ctx.timed_passes(|_| {
        passes += 1;
        untraced.push(samples.pass(s, out));
        let mut pass = 0.0;
        for (i, cell) in s.cells.iter().enumerate() {
            tracer.next_run();
            let name = cell.name;
            let span = tracer.begin("bench.harness", "paper.cell");
            let (a, b) = tracer.span("workloads", "matrix.gen", || {
                materialize(&cell.spec.problem, derive_seed(cell.sweep_seed, 0))
            });
            let reference =
                tracer.span("matrix", "matrix.dense.ref", || a.to_dense().matmul(&b.to_dense()));
            let e = tracer.begin("core.engine", "core.engine.ws");
            let run = engine.run(&a, &b);
            let engine_s = tracer.end(e);
            let Ok(run) = run else {
                tracer.end(span);
                out.checks.check(false, || format!("{name}: traced engine run failed"));
                continue;
            };
            let tol = 1e-3 * cell.spec.problem.shape.k as f32;
            let verified = tracer.span("matrix", "matrix.dense.compare", || {
                let _ = std::hint::black_box(run.result.max_abs_diff(&reference));
                run.result.approx_eq(&reference, tol)
            });
            pass += tracer.end(span);
            out.checks.check(verified, || format!("{name}: traced result not verified"));
            let same =
                samples.first[i].as_ref().is_some_and(|r| record_stats(r) == run_stats(&run.stats));
            out.checks.check(same, || format!("{name}: traced statistics differ from the sweep's"));
            let t = Instant::now();
            let problem = observed_problem(&a, &b);
            let est = tracer.span("core.model", "core.model.estimate", || {
                estimate(&SigmaConfig::paper(), &problem)
            });
            estimate_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.set(
                &format!("core.model.err_pct.{name}"),
                err_pct(est.total_cycles(), run.stats.total_cycles()),
            );
            cycles += run.stats.total_cycles();
            idle += run.stats.idle_cycles_skipped;
            engine_total += engine_s;
        }
        traced_s.push(pass);
    });
    let p = passes as f64;
    let useful: f64 = s.cells.iter().map(|c| c.useful_macs).sum();
    let macs: f64 = s.cells.iter().map(|c| c.macs).sum();
    out.set("matrix.dense.ref_ms", tracer.total("matrix.dense.ref") * 1e3 / p);
    out.set("matrix.dense.useful_mac_ratio", useful / macs);
    out.set("matrix.dense.compare_ms", tracer.total("matrix.dense.compare") * 1e3 / p);
    out.set("matrix.gen.ms", tracer.total("matrix.gen") * 1e3 / p);
    out.set("core.engine.ws_ms", engine_total * 1e3 / p);
    out.set(
        "core.engine.pe_cycles_per_s.16k",
        cycles as f64 * SigmaConfig::paper().total_pes() as f64 / engine_total,
    );
    out.set("core.engine.sim_cycles", cycles as f64 / p);
    out.set("core.engine.idle_cycles_skipped", idle as f64 / p);
    out.set("core.model.estimate_us", median(&estimate_us));
    let base = median(&untraced);
    out.set("trace_overhead_pct", 100.0 * (median(&traced_s) - base) / base);
}
