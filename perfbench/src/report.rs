//! Metric names, output checks, provenance and the result line.

use sigma_core::model::GemmProblem;
use sigma_matrix::{GemmShape, SparseMatrix};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("analytic_accuracy_pct", "%"),
    ("peak_heap_mb", "MB"),
];

/// Analytic-model error cases (`core.model.err_pct.<case>`): the
/// paper_gemm cells and the sim_ladder cases.
pub const MODEL_CASES: &[&str] = &[
    "paper-1024cube",
    "paper-2048x4096x32",
    "ws-dense-1k",
    "nlr-sparse-1k",
    "is-sparse-4k",
    "ws-irregular-16k",
    "ws-vsparse-16k",
    "is-dense-16k",
];

/// Slugs of the default engine registry (`baselines.<slug>.ms`).
pub const REGISTRY_SLUGS: &[&str] = &[
    "sigma",
    "systolic-ws",
    "systolic-os",
    "packed-systolic",
    "eie",
    "outerspace",
    "scnn",
    "cambricon-x",
    "eyeriss-v2",
    "gpu-v100",
    "tpu-analytic",
];

/// Fixed per-layer metrics of the traced run (the per-case, per-engine
/// and per-layer families are appended by [`per_layer_metrics`]).
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("matrix.dense.ref_ms", "ms"),
    ("matrix.dense.useful_mac_ratio", "ratio"),
    ("matrix.dense.compare_ms", "ms"),
    ("matrix.gen.ms", "ms"),
    ("matrix.abft.check_ms", "ms"),
    ("matrix.abft.calls", "count"),
    ("core.controller.plan_ms", "ms"),
    ("core.controller.folds", "count"),
    ("core.controller.dropped_nnz", "count"),
    ("core.flex_dpe.load_us", "us"),
    ("core.flex_dpe.step_ns", "ns"),
    ("core.flex_dpe.steps", "count"),
    ("interconnect.route_cache.hits", "count"),
    ("interconnect.route_cache.misses", "count"),
    ("interconnect.route_cache.hit_ratio", "ratio"),
    ("interconnect.fan.compile_us", "us"),
    ("interconnect.fan.adds", "count"),
    ("core.engine.ws_ms", "ms"),
    ("core.engine.is_ms", "ms"),
    ("core.engine.nlr_ms", "ms"),
    ("core.engine.pe_cycles_per_s.1k", "1/s"),
    ("core.engine.pe_cycles_per_s.4k", "1/s"),
    ("core.engine.pe_cycles_per_s.16k", "1/s"),
    ("core.engine.sim_cycles", "count"),
    ("core.engine.idle_cycles_skipped", "count"),
    ("core.engine.allocs_per_gemm", "count"),
    ("core.engine.other_ms", "ms"),
    ("core.engine.checked_ms", "ms"),
    ("core.engine.checked_attempts", "count"),
    ("core.fault.injected", "count"),
    ("core.fault.detected", "count"),
    ("core.fault.corrected", "count"),
    ("core.fault.escaped", "count"),
    ("core.model.estimate_us", "us"),
    ("harness.sweep.queue_wait_ms", "ms"),
    ("harness.sweep.materialize_ms", "ms"),
    ("harness.sweep.engine_run_ms", "ms"),
    ("harness.journal.append_us", "us"),
    ("harness.journal.fsync_us", "us"),
    ("harness.cache.probe_us", "us"),
    ("harness.cache.insert_us", "us"),
    ("harness.cache.hit_ratio", "ratio"),
    ("figs.all_tables_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// Every per-layer metric with its unit, in output order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(MODEL_CASES.iter().map(|c| (format!("core.model.err_pct.{c}"), "%")));
    all.extend(REGISTRY_SLUGS.iter().map(|s| (format!("baselines.{s}.ms"), "ms")));
    all.extend(crate::trace::LAYERS.iter().map(|l| (format!("self_pct.{l}"), "%")));
    all
}

/// Counts checked outputs and the ones that missed.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Records one checked output; a miss is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checker,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// The problem the analytic model is given for concrete operands: their
/// shape and their generated densities.
pub fn observed_problem(a: &SparseMatrix, b: &SparseMatrix) -> GemmProblem {
    let density = |x: &SparseMatrix| x.nnz() as f64 / (x.rows() * x.cols()).max(1) as f64;
    GemmProblem::sparse(GemmShape::new(a.rows(), b.cols(), a.cols()), density(a), density(b))
}

/// |estimate - simulated| / simulated, percent.
pub fn err_pct(estimate: u64, simulated: u64) -> f64 {
    100.0 * (estimate as f64 - simulated as f64).abs() / simulated.max(1) as f64
}

/// 100 minus the mean analytic error over `errs_pct`: how closely
/// `model::estimate` tracks the simulated cycles. The error itself can
/// be exactly 0, which no relative bound can gate; the accuracy cannot.
pub fn analytic_accuracy_pct(errs_pct: &[f64]) -> f64 {
    100.0 - errs_pct.iter().sum::<f64>() / errs_pct.len().max(1) as f64
}

/// Median of `xs` (mean of the middle pair for an even count; NaN,
/// which fails the metric checks, for no samples).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which the checks treat as
/// failures) print as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Host and build facts attached to every result. Results from
/// different `host` labels are not comparable.
pub fn provenance(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown", |(_, v)| v.trim())
        .to_string();
    let host = sigma_bench::harness::fnv1a_64(format!("{cpu}/{nproc}").as_bytes());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{nproc},\"cpu_model\":{},\"host\":\"{host:016x}\",\"rustc\":{},\"commit\":{}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
    )
}

/// The result line: checks, counts and the metrics named by `names`
/// (a metric the run did not produce reports as 0).
pub fn result_line(outcome: &Outcome, names: &[(String, &str)]) -> String {
    let c = &outcome.checks;
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    }
    let correct = c.failed == 0 && c.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        c.attempted.max(1),
        if c.attempted == 0 { 1 } else { c.failed }
    )
}
