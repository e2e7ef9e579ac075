//! fault_campaign: `SigmaSim::run_gemm_checked` under seeded
//! single-site fault plans, every campaign site class, all three
//! dataflows, plus fault-free controls, on 1K- and 4K-PE machines.
//!
//! Set-up generates the operands, the fault-free product of each target
//! and, for each plan, the product of one unchecked faulted execution.
//! Every checked run is compared with the fault-free product: a control
//! must reproduce it bitwise with zero fault counters; a faulted run must
//! fire its one planned fault; a transient class must end within the ABFT
//! tolerance of the fault-free product, with no escape; only a persistent
//! class may end wrong, and then it must be reported as escaped after the
//! whole recompute budget. Results, `CycleStats`, fault counters and
//! attempts must repeat exactly across repetitions.

use crate::replay::bitwise_eq;
use crate::report::{analytic_accuracy_pct, err_pct, median, observed_problem, Outcome};
use crate::sim_ladder::config;
use crate::trace::Tracer;
use crate::Ctx;
use sigma_bench::harness::derive_seed;
use sigma_core::fault::{FaultKind, FaultPlan, FaultReport, FaultSite, StuckLevel};
use sigma_core::model::{estimate, GemmProblem};
use sigma_core::{Dataflow, FaultCounters, GemmRun, RecoveryPolicy, SigmaSim};
use sigma_matrix::abft::{check_product, residual_tolerance};
use sigma_matrix::{GemmShape, Matrix, SparseMatrix};
use sigma_workloads::materialize;
use std::time::Instant;

struct Target {
    name: &'static str,
    dataflow: Dataflow,
    dpes: usize,
    m: usize,
    n: usize,
    k: usize,
    density_a: f64,
    density_b: f64,
}

const TARGETS: [Target; 3] = [
    Target {
        name: "ws-4k",
        dataflow: Dataflow::WeightStationary,
        dpes: 32,
        m: 96,
        n: 128,
        k: 112,
        density_a: 0.5,
        density_b: 0.4,
    },
    Target {
        name: "is-1k",
        dataflow: Dataflow::InputStationary,
        dpes: 8,
        m: 80,
        n: 96,
        k: 88,
        density_a: 0.6,
        density_b: 0.5,
    },
    Target {
        name: "nlr-1k",
        dataflow: Dataflow::NoLocalReuse,
        dpes: 8,
        m: 48,
        n: 56,
        k: 40,
        density_a: 0.5,
        density_b: 0.5,
    },
];

/// The campaign's site classes; NLR reaches only the first three (it
/// has no Benes delivery or streaming bitmap).
const CLASSES: [&str; 7] = [
    "mult-flip",
    "mult-stuck",
    "fan-stuck",
    "benes-flip",
    "benes-drop",
    "benes-misroute",
    "bitmap-corrupt",
];

/// Classes whose fault fires once and stays consumed across recomputes,
/// so the checked path must always deliver the fault-free product. The
/// other classes are persistent defects that every recompute replays:
/// they escape by design when they corrupt more than one output.
const TRANSIENT: [&str; 3] = ["mult-flip", "benes-flip", "bitmap-corrupt"];

/// The single-site plan of `class` for seed `s`, on one of the first
/// four Flex-DPE-128 units (all targets keep at least four active).
fn plan(class: &str, s: u64) -> FaultPlan {
    let dpe = (s >> 8) as usize % 4;
    let slot = (s >> 16) as usize % 128;
    let adder = 1 + (s >> 24) as usize % 127;
    let port = (s >> 32) as usize % 128;
    let bit = 20 + (s >> 40) as u32 % 11;
    let level = if s & 1 == 0 { StuckLevel::One } else { StuckLevel::Zero };
    let (site, kind) = match class {
        "mult-flip" => {
            (FaultSite::MultiplierOutput { dpe, slot }, FaultKind::TransientFlip { bit })
        }
        "mult-stuck" => {
            (FaultSite::MultiplierOutput { dpe, slot }, FaultKind::StuckBit { bit, level })
        }
        "fan-stuck" => (FaultSite::FanAdder { dpe, adder }, FaultKind::StuckBit { bit, level }),
        "benes-flip" => (FaultSite::BenesPort { dpe, port }, FaultKind::TransientFlip { bit }),
        "benes-drop" => (FaultSite::BenesPort { dpe, port }, FaultKind::DroppedPort),
        "benes-misroute" => (
            FaultSite::BenesPort { dpe, port },
            FaultKind::MisroutedPort { from: (s >> 36) as usize % 128 },
        ),
        _ => (
            FaultSite::BitmapWord { word: (s >> 48) as usize % 4 },
            FaultKind::CorruptWord { mask: 1u64 << ((s >> 52) % 64) },
        ),
    };
    FaultPlan::single(site, kind)
}

struct Op {
    label: String,
    class: &'static str,
    target: usize,
    plan: FaultPlan,
    /// Whether one unchecked execution under the plan ends beyond the
    /// ABFT tolerance of the fault-free product.
    effect: bool,
}

struct Prepared {
    sim: SigmaSim,
    a: SparseMatrix,
    b: SparseMatrix,
    clean: GemmRun,
    tol: f32,
    estimate_cycles: u64,
}

struct Setup {
    targets: Vec<Prepared>,
    ops: Vec<Op>,
}

fn setup(seed: u64) -> Setup {
    let mut ops = Vec::new();
    let targets = TARGETS
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let problem =
                GemmProblem::sparse(GemmShape::new(t.m, t.n, t.k), t.density_a, t.density_b);
            let (a, b) = materialize(&problem, derive_seed(seed, ti as u64));
            let config = config(t.dpes, t.dataflow);
            let sim = SigmaSim::new(config).expect("valid configuration");
            let clean = sim.run_gemm(&a, &b).expect("fault-free run of generated operands");
            let classes =
                if t.dataflow == Dataflow::NoLocalReuse { &CLASSES[..3] } else { &CLASSES[..] };
            let tol = residual_tolerance(t.m, t.n, t.k);
            ops.push(Op {
                label: format!("{}/control", t.name),
                class: "control",
                target: ti,
                plan: FaultPlan::none(),
                effect: false,
            });
            for (ci, &class) in classes.iter().enumerate() {
                let plan = plan(class, derive_seed(seed ^ 0xfa17, (ti * 16 + ci) as u64));
                let (faulted, _) =
                    sim.run_gemm_with_faults(&a, &b, &plan).expect("unchecked faulted run");
                ops.push(Op {
                    label: format!("{}/{class}", t.name),
                    class,
                    target: ti,
                    effect: !within(&faulted.result, &clean.result, tol),
                    plan,
                });
            }
            Prepared {
                sim,
                tol,
                estimate_cycles: estimate(&config, &observed_problem(&a, &b)).total_cycles(),
                a,
                b,
                clean,
            }
        })
        .collect();
    Setup { targets, ops }
}

/// Whether `got` is finite and within `tol` of `want` everywhere.
fn within(got: &Matrix, want: &Matrix, tol: f32) -> bool {
    got.all_finite() && got.max_abs_diff(want) <= tol
}

/// What a checked run produced, which must repeat exactly.
struct Observed {
    run: GemmRun,
    report: FaultReport,
}

struct Samples {
    times: Vec<Vec<f64>>,
    first: Vec<Option<Observed>>,
}

impl Samples {
    /// Runs op `i` once, checks it and returns its seconds.
    fn run_op(&mut self, i: usize, s: &Setup, out: &mut Outcome) -> f64 {
        let op = &s.ops[i];
        let t = &s.targets[op.target];
        let policy = RecoveryPolicy::default();
        let start = Instant::now();
        let got = t.sim.run_gemm_checked(&t.a, &t.b, &op.plan, &policy);
        let secs = start.elapsed().as_secs_f64();
        let label = &op.label;
        let (run, report) = match got {
            Ok(x) => x,
            Err(e) => {
                out.checks.check(false, || format!("{label}: run_gemm_checked failed: {e}"));
                return secs;
            }
        };
        self.times[i].push(secs);
        let observed = Observed { run, report };
        match &self.first[i] {
            None => {
                check_against_clean(op, t, &observed, &policy, out);
                self.first[i] = Some(observed);
            }
            Some(first) => {
                out.checks.check(first.same(&observed.run, &observed.report), || {
                    format!("{label}: repetition differs from the first")
                });
            }
        }
        secs
    }
}

impl Observed {
    fn same(&self, run: &GemmRun, report: &FaultReport) -> bool {
        bitwise_eq(&self.run.result, &run.result)
            && self.run.stats == run.stats
            && self.report.counters == report.counters
            && self.report.attempts == report.attempts
            && self.report.fired == report.fired
    }
}

/// Compares a checked run with the fault-free product of its target and
/// with the outcome its fault class allows.
fn check_against_clean(
    op: &Op,
    t: &Prepared,
    o: &Observed,
    policy: &RecoveryPolicy,
    out: &mut Outcome,
) {
    let label = &op.label;
    let c = &o.report.counters;
    if op.plan.is_empty() {
        let ok = bitwise_eq(&o.run.result, &t.clean.result)
            && *c == FaultCounters::default()
            && o.report.fired.is_empty()
            && o.report.attempts == 1;
        out.checks.check(ok, || format!("{label}: control run differs from the fault-free run"));
        return;
    }
    let planned = op.plan.events()[0].site;
    let fired = o.report.fired.len() == 1 && o.report.fired[0].site == planned && c.injected == 1;
    out.checks.check(fired, || {
        format!("{label}: the planned fault did not fire once: {:?}, {c:?}", o.report.fired)
    });
    let correct = within(&o.run.result, &t.clean.result, t.tol);
    if TRANSIENT.contains(&op.class) {
        // A consumed fault: the final product must be the fault-free one,
        // and a fault that changed the product must have been caught.
        let caught = !op.effect || (c.detected >= 1 && c.corrected >= 1);
        out.checks.check(correct && c.escaped == 0 && caught, || {
            format!("{label}: transient fault not corrected (final correct={correct}, {c:?})")
        });
    } else if correct {
        out.checks.check(c.escaped == 0, || format!("{label}: correct product counted as escaped"));
    } else {
        // A persistent defect replayed by every recompute: it may escape,
        // but only once the whole recompute budget is spent.
        let spent = o.report.attempts == policy.max_recomputes + 1;
        out.checks.check(c.escaped == 1 && c.detected >= 1 && spent, || {
            format!("{label}: wrong product not reported as an escape after recomputes ({c:?}, attempts {})", o.report.attempts)
        });
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let (s, setup_s) = ctx.setup(|| setup(ctx.seed));
    let mut out = Outcome::default();
    let n = s.ops.len();
    let mut samples = Samples { times: vec![Vec::new(); n], first: (0..n).map(|_| None).collect() };
    if ctx.trace {
        traced(ctx, &s, &mut samples, tracer, &mut out);
        return out;
    }
    ctx.timed_passes(|_| {
        for i in 0..n {
            samples.run_op(i, &s, &mut out);
        }
    });
    let pass_s: f64 = samples.times.iter().map(|t| median(t)).sum();
    let cycles: u64 = samples.first.iter().flatten().map(|o| o.run.stats.total_cycles()).sum();
    let errs: Vec<f64> = s
        .targets
        .iter()
        .map(|t| err_pct(t.estimate_cycles, t.clean.stats.total_cycles()))
        .collect();
    out.set("setup_s", setup_s);
    out.set("pass_s", pass_s);
    out.set("ops_per_s", n as f64 / pass_s);
    out.set("sim_cycles_per_s", cycles as f64 / pass_s);
    out.set("analytic_accuracy_pct", analytic_accuracy_pct(&errs));
    let escaped = samples.first.iter().flatten().filter(|o| o.report.counters.escaped > 0).count();
    println!("checked {n} plans per pass; {escaped} with escaped faults");
    out
}

fn traced(ctx: &Ctx, s: &Setup, samples: &mut Samples, tracer: &mut Tracer, out: &mut Outcome) {
    let n = s.ops.len();
    let dense: Vec<(Matrix, Matrix)> =
        s.targets.iter().map(|t| (t.a.to_dense(), t.b.to_dense())).collect();
    let mut untraced = Vec::new();
    let mut traced_s = Vec::new();
    let mut passes = 0usize;
    let mut counters = FaultCounters::default();
    let mut attempts = 0u64;
    ctx.timed_passes(|_| {
        passes += 1;
        untraced.push((0..n).map(|i| samples.run_op(i, s, out)).sum::<f64>());
        let mut pass = 0.0;
        for (i, op) in s.ops.iter().enumerate() {
            tracer.next_run();
            let t = &s.targets[op.target];
            let span = tracer.begin("core.engine", "core.engine.checked");
            let got = t.sim.run_gemm_checked(&t.a, &t.b, &op.plan, &RecoveryPolicy::default());
            pass += tracer.end(span);
            let Ok((run, report)) = got else {
                out.checks.check(false, || format!("{}: traced checked run failed", op.label));
                continue;
            };
            // One ABFT check of the final product, the check every
            // attempt of the checked path performs, timed on its own
            // after the run and attached to it as the part it stands for.
            let (ad, bd) = &dense[op.target];
            let t0 = tracer.now_ns();
            let _ = std::hint::black_box(check_product(ad, bd, &run.result, t.tol));
            tracer.record("matrix", "matrix.abft.check", (t0, tracer.now_ns()), Some(span), 1);
            let same = samples.first[i].as_ref().is_some_and(|f| f.same(&run, &report));
            out.checks
                .check(same, || format!("{}: traced run differs from the timed run", op.label));
            counters.injected += report.counters.injected;
            counters.detected += report.counters.detected;
            counters.corrected += report.counters.corrected;
            counters.escaped += report.counters.escaped;
            attempts += u64::from(report.attempts);
        }
        traced_s.push(pass);
    });
    let p = passes as f64;
    out.set(
        "matrix.abft.check_ms",
        tracer.total("matrix.abft.check") * 1e3 / tracer.count("matrix.abft.check").max(1) as f64,
    );
    out.set("matrix.abft.calls", attempts as f64 / p);
    out.set("core.engine.checked_ms", tracer.total("core.engine.checked") * 1e3 / p);
    out.set("core.engine.checked_attempts", attempts as f64 / p);
    out.set("core.fault.injected", counters.injected as f64 / p);
    out.set("core.fault.detected", counters.detected as f64 / p);
    out.set("core.fault.corrected", counters.corrected as f64 / p);
    out.set("core.fault.escaped", counters.escaped as f64 / p);
    let base = median(&untraced);
    out.set("trace_overhead_pct", 100.0 * (median(&traced_s) - base) / base);
}
