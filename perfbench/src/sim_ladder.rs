//! sim_ladder: `SigmaSim::run_gemm` alone, across dataflows, machine
//! sizes and sparsity regimes.
//!
//! Set-up generates each case's operands and computes its reference
//! product (in the benchmark, in f64), so the timed loop holds only the
//! simulator. Every run is checked against the reference within the
//! program's own tolerance, bitwise against the first repetition, and
//! its `CycleStats` and allocation count must repeat exactly. The traced
//! run replays each stationary case layer by layer (see `replay`), splits
//! the replay's time, and reconciles the replay with the engine before
//! publishing the split.

use crate::alloc::allocations;
use crate::replay::{bitwise_eq, reconcile, replay, ReplayCounts};
use crate::report::{analytic_accuracy_pct, err_pct, median, observed_problem, Outcome};
use crate::trace::Tracer;
use crate::Ctx;
use sigma_bench::harness::derive_seed;
use sigma_core::model::{estimate, GemmProblem};
use sigma_core::{CycleStats, Dataflow, GemmRun, SigmaConfig, SigmaSim};
use sigma_matrix::{GemmShape, Matrix, SparseMatrix};
use sigma_workloads::materialize;
use std::collections::BTreeMap;
use std::time::Instant;

struct CaseSpec {
    name: &'static str,
    dataflow: Dataflow,
    dpes: usize,
    m: usize,
    n: usize,
    k: usize,
    density_a: f64,
    density_b: f64,
}

/// Every case runs on Flex-DPE-128 units; `dpes` of 8 / 32 / 128 make
/// the 1K / 4K / 16K-PE machines.
const CASES: [CaseSpec; 6] = [
    CaseSpec {
        name: "ws-dense-1k",
        dataflow: Dataflow::WeightStationary,
        dpes: 8,
        m: 160,
        n: 192,
        k: 160,
        density_a: 1.0,
        density_b: 1.0,
    },
    CaseSpec {
        name: "nlr-sparse-1k",
        dataflow: Dataflow::NoLocalReuse,
        dpes: 8,
        m: 112,
        n: 128,
        k: 96,
        density_a: 0.5,
        density_b: 0.2,
    },
    CaseSpec {
        name: "is-sparse-4k",
        dataflow: Dataflow::InputStationary,
        dpes: 32,
        m: 384,
        n: 320,
        k: 384,
        density_a: 0.5,
        density_b: 0.2,
    },
    CaseSpec {
        name: "ws-irregular-16k",
        dataflow: Dataflow::WeightStationary,
        dpes: 128,
        m: 2048,
        n: 1024,
        k: 48,
        density_a: 0.5,
        density_b: 0.2,
    },
    CaseSpec {
        name: "ws-vsparse-16k",
        dataflow: Dataflow::WeightStationary,
        dpes: 128,
        m: 2048,
        n: 1024,
        k: 256,
        density_a: 0.005,
        density_b: 0.05,
    },
    CaseSpec {
        name: "is-dense-16k",
        dataflow: Dataflow::InputStationary,
        dpes: 128,
        m: 256,
        n: 384,
        k: 256,
        density_a: 1.0,
        density_b: 1.0,
    },
];

pub fn config(dpes: usize, dataflow: Dataflow) -> SigmaConfig {
    // Flex-DPE-128 with the paper's 128-word fill bandwidth and a
    // streaming bandwidth of one word per multiplier.
    SigmaConfig::new(dpes, 128, 128, dataflow)
        .and_then(|c| c.with_stream_bandwidth(dpes * 128))
        .expect("static Flex-DPE-128 geometry is valid")
}

struct Case {
    spec: &'static CaseSpec,
    config: SigmaConfig,
    sim: SigmaSim,
    a: SparseMatrix,
    b: SparseMatrix,
    reference: Matrix,
    tol: f32,
    estimate_cycles: u64,
}

/// `A x B` accumulated in f64 over the non-zeros only.
fn reference_product(a: &SparseMatrix, b: &SparseMatrix) -> Matrix {
    let (m, n) = (a.rows(), b.cols());
    let mut b_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); b.rows()];
    for (k, j, v) in b.iter() {
        b_rows[k].push((j, f64::from(v)));
    }
    let mut acc = vec![0.0f64; m * n];
    for (i, k, x) in a.iter() {
        let x = f64::from(x);
        for &(j, y) in &b_rows[k] {
            acc[i * n + j] += x * y;
        }
    }
    #[allow(clippy::cast_possible_truncation)]
    let data = acc.into_iter().map(|v| v as f32).collect();
    Matrix::from_vec(m, n, data).expect("shape matches the data length")
}

fn setup(seed: u64) -> Vec<Case> {
    CASES
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let problem = GemmProblem::sparse(
                GemmShape::new(spec.m, spec.n, spec.k),
                spec.density_a,
                spec.density_b,
            );
            let (a, b) = materialize(&problem, derive_seed(seed, i as u64));
            let config = config(spec.dpes, spec.dataflow);
            let sim = SigmaSim::new(config).expect("valid configuration");
            let reference = reference_product(&a, &b);
            Case {
                spec,
                config,
                sim,
                tol: 1e-3 * spec.k as f32,
                estimate_cycles: estimate(&config, &observed_problem(&a, &b)).total_cycles(),
                a,
                b,
                reference,
            }
        })
        .collect()
}

/// The first repetition of a case, against which later ones must agree.
struct First {
    run: GemmRun,
    allocs: u64,
}

/// Per-case samples of the timed passes.
struct Samples {
    times: Vec<Vec<f64>>,
    firsts: Vec<Option<First>>,
}

impl Samples {
    fn new() -> Self {
        Self {
            times: vec![Vec::new(); CASES.len()],
            firsts: (0..CASES.len()).map(|_| None).collect(),
        }
    }

    /// Runs case `i` once, timed and allocation-counted, and checks it;
    /// returns its seconds.
    fn run_case(&mut self, i: usize, case: &Case, out: &mut Outcome) -> f64 {
        let before = allocations();
        let t = Instant::now();
        let run = case.sim.run_gemm(std::hint::black_box(&case.a), std::hint::black_box(&case.b));
        let secs = t.elapsed().as_secs_f64();
        let allocs = allocations() - before;
        let name = case.spec.name;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                out.checks.check(false, || format!("{name}: run_gemm failed: {e}"));
                return secs;
            }
        };
        self.times[i].push(secs);
        match &self.firsts[i] {
            None => {
                let ok = run.result.approx_eq(&case.reference, case.tol);
                out.checks.check(ok, || {
                    format!(
                        "{name}: result differs from the reference by {} (tol {})",
                        run.result.max_abs_diff(&case.reference),
                        case.tol
                    )
                });
                self.firsts[i] = Some(First { run, allocs });
            }
            Some(first) => {
                let same = bitwise_eq(&run.result, &first.run.result)
                    && run.stats == first.run.stats
                    && allocs == first.allocs;
                out.checks.check(same, || {
                    format!(
                        "{name}: repetition differs from the first (allocs {allocs} vs {})",
                        first.allocs
                    )
                });
            }
        }
        secs
    }

    fn stats(&self, i: usize) -> Option<&CycleStats> {
        self.firsts[i].as_ref().map(|f| &f.run.stats)
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let (cases, setup_s) = ctx.setup(|| setup(ctx.seed));
    let mut out = Outcome::default();
    let mut samples = Samples::new();
    if ctx.trace {
        traced(ctx, &cases, &mut samples, tracer, &mut out);
        return out;
    }
    ctx.timed_passes(|_| {
        for (i, case) in cases.iter().enumerate() {
            samples.run_case(i, case, &mut out);
        }
    });
    let case_medians: Vec<f64> = samples.times.iter().map(|t| median(t)).collect();
    let pass_s: f64 = case_medians.iter().sum();
    let cycles: u64 =
        (0..CASES.len()).filter_map(|i| samples.stats(i)).map(CycleStats::total_cycles).sum();
    let errs: Vec<f64> = cases
        .iter()
        .enumerate()
        .filter_map(|(i, c)| samples.stats(i).map(|s| err_pct(c.estimate_cycles, s.total_cycles())))
        .collect();
    out.set("setup_s", setup_s);
    out.set("pass_s", pass_s);
    out.set("ops_per_s", CASES.len() as f64 / pass_s);
    out.set("sim_cycles_per_s", cycles as f64 / pass_s);
    out.set("analytic_accuracy_pct", analytic_accuracy_pct(&errs));
    for (case, secs) in cases.iter().zip(&case_medians) {
        println!("case {:<18} {:>9.3} ms", case.spec.name, secs * 1e3);
    }
    out
}

fn traced(
    ctx: &Ctx,
    cases: &[Case],
    samples: &mut Samples,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut untraced_pass = Vec::new();
    let mut traced_pass = Vec::new();
    let mut replayed = ReplayCounts::default();
    let mut estimate_us = Vec::new();
    // Engine stats with telemetry on, per case, for reconciliation.
    let telemetry_sims: Vec<SigmaSim> = cases
        .iter()
        .map(|c| SigmaSim::new(c.config.with_telemetry(true)).expect("valid configuration"))
        .collect();
    // Engine milliseconds per dataflow, and (PE-cycles, seconds) per
    // machine size, of the untraced runs.
    let mut dataflow_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut pe_cycles: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut passes = 0usize;
    ctx.timed_passes(|_| {
        passes += 1;
        let (mut untraced_secs, mut traced_secs) = (0.0, 0.0);
        for (i, case) in cases.iter().enumerate() {
            // The untraced run: the timed run's exact work.
            let secs = samples.run_case(i, case, out);
            untraced_secs += secs;
            let Some(first) = samples.firsts[i].as_ref().map(|f| &f.run) else { continue };
            let name = case.spec.name;
            let df = case.spec.dataflow;
            *dataflow_ms.entry(df_slug(df)).or_default() += secs * 1e3;
            let machine = match case.spec.dpes {
                8 => "1k",
                32 => "4k",
                _ => "16k",
            };
            let pc = pe_cycles.entry(machine).or_default();
            pc.0 += first.stats.total_cycles() as f64 * case.config.total_pes() as f64;
            pc.1 += secs;

            // The traced run: a stationary case is replayed layer by layer
            // under its engine span; NLR, which has no stationary layers,
            // runs the engine itself under the span.
            tracer.next_run();
            let span = tracer.begin("core.engine", &format!("core.engine.{name}"));
            if df == Dataflow::NoLocalReuse {
                let run = case.sim.run_gemm(&case.a, &case.b);
                traced_secs += tracer.end(span);
                let same = run
                    .is_ok_and(|r| r.stats == first.stats && bitwise_eq(&r.result, &first.result));
                out.checks.check(same, || format!("{name}: traced run differs from the timed run"));
            } else {
                let got = replay(&case.config, &case.a, &case.b, tracer, span);
                traced_secs += tracer.end(span);
                let tsim = &telemetry_sims[i];
                tsim.telemetry_handle().reset();
                let tel_ok = tsim
                    .run_gemm(&case.a, &case.b)
                    .is_ok_and(|t| t.stats == first.stats && bitwise_eq(&t.result, &first.result));
                out.checks.check(tel_ok, || {
                    format!("{name}: telemetry-on run differs from the plain run")
                });
                match got.and_then(|mut r| r.compile_fans().map(|()| r)) {
                    Ok(r) => {
                        let diffs =
                            reconcile(&r.counts, &r.product, &first.stats, &first.result, tsim);
                        out.checks.check(diffs.is_empty(), || {
                            format!("{name}: replay does not reconcile: {}", diffs.join("; "))
                        });
                        add_counts(&mut replayed, &r.counts);
                    }
                    Err(e) => out.checks.check(false, || format!("{name}: replay failed: {e}")),
                }
            }
            let problem = observed_problem(&case.a, &case.b);
            let t = Instant::now();
            let est = tracer
                .span("core.model", "core.model.estimate", || estimate(&case.config, &problem));
            estimate_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.set(
                &format!("core.model.err_pct.{name}"),
                err_pct(est.total_cycles(), first.stats.total_cycles()),
            );
        }
        untraced_pass.push(untraced_secs);
        traced_pass.push(traced_secs);
    });
    let engine_ms: f64 =
        cases.iter().map(|c| tracer.total(&format!("core.engine.{}", c.spec.name))).sum::<f64>()
            * 1e3;
    let replayed_ms = (tracer.total("core.controller.plan")
        + tracer.total("core.flex_dpe.load")
        + tracer.total("core.flex_dpe.steps"))
        * 1e3;

    let p = passes as f64;
    let r = &replayed;
    let stats: Vec<&CycleStats> = (0..CASES.len()).filter_map(|i| samples.stats(i)).collect();
    let allocs: Vec<f64> = samples.firsts.iter().flatten().map(|f| f.allocs as f64).collect();
    let m = out;
    m.set("core.controller.plan_ms", tracer.total("core.controller.plan") * 1e3 / p);
    m.set("core.controller.folds", r.folds as f64 / p);
    m.set("core.controller.dropped_nnz", r.dropped_nnz as f64 / p);
    m.set(
        "core.flex_dpe.load_us",
        tracer.total("core.flex_dpe.load") * 1e6 / r.loads.max(1) as f64,
    );
    m.set(
        "core.flex_dpe.step_ns",
        tracer.total("core.flex_dpe.steps") * 1e9 / r.step_calls.max(1) as f64,
    );
    m.set("core.flex_dpe.steps", r.step_calls as f64 / p);
    let hits: u64 = stats.iter().map(|s| s.route_cache_hits).sum();
    let misses: u64 = stats.iter().map(|s| s.route_cache_misses).sum();
    m.set("interconnect.route_cache.hits", hits as f64);
    m.set("interconnect.route_cache.misses", misses as f64);
    m.set("interconnect.route_cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    m.set("interconnect.fan.compile_us", r.fan_compile_ns as f64 * 1e-3 / r.loads.max(1) as f64);
    m.set("interconnect.fan.adds", r.fan_adds as f64 / p);
    for (df, ms) in dataflow_ms {
        m.set(&format!("core.engine.{df}_ms"), ms / p);
    }
    for (machine, (pc, s)) in pe_cycles {
        m.set(&format!("core.engine.pe_cycles_per_s.{machine}"), pc / s);
    }
    m.set("core.engine.sim_cycles", stats.iter().map(|s| s.total_cycles()).sum::<u64>() as f64);
    m.set(
        "core.engine.idle_cycles_skipped",
        stats.iter().map(|s| s.idle_cycles_skipped).sum::<u64>() as f64,
    );
    m.set("core.engine.allocs_per_gemm", allocs.iter().sum::<f64>() / allocs.len().max(1) as f64);
    // The traced runs' engine spans minus the layer calls inside them.
    m.set("core.engine.other_ms", (engine_ms - replayed_ms) / p);
    m.set("core.model.estimate_us", median(&estimate_us));
    let untraced = median(&untraced_pass);
    m.set("trace_overhead_pct", 100.0 * (median(&traced_pass) - untraced) / untraced);
}

fn add_counts(total: &mut ReplayCounts, c: &ReplayCounts) {
    total.folds += c.folds;
    total.dropped_nnz += c.dropped_nnz;
    total.loads += c.loads;
    total.step_calls += c.step_calls;
    total.fan_adds += c.fan_adds;
    total.fan_compile_ns += c.fan_compile_ns;
}

fn df_slug(df: Dataflow) -> &'static str {
    match df {
        Dataflow::WeightStationary => "ws",
        Dataflow::InputStationary => "is",
        Dataflow::NoLocalReuse => "nlr",
    }
}
