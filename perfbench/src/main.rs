//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_ladder --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload generates its operands from `--seed`, sets up at least
//! five times (the median is `setup_s`), then repeats passes over its
//! operations for `--seconds` seconds and checks every output. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run, whose
//! spans are also written to `.bench_out/`. Any failed check makes the
//! exit code non-zero. See `RATIONALE.md` for what each workload loads
//! and bypasses.

mod alloc;
mod calib;
mod fault_campaign;
mod paper_gemm;
mod replay;
mod report;
mod reproduce;
mod sim_ladder;
mod trace;

use report::{median, Outcome, END_TO_END};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["paper_gemm", "sim_ladder", "fault_campaign", "reproduce"];

/// Where results and span logs go, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// The parsed command line and the run's host-speed calibration.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    kernel: RefCell<calib::Kernel>,
    kernel_samples: RefCell<Vec<calib::Sample>>,
}

impl Ctx {
    fn calibrate(&self) {
        let sample = self.kernel.borrow_mut().run();
        self.kernel_samples.borrow_mut().push(sample);
    }

    /// Reference-host seconds per measured second in this run: one over
    /// the median of the kernel's speed index for `mix` (see `calib`).
    pub fn host_scale(&self, mix: calib::Mix) -> f64 {
        let index: Vec<f64> = self.kernel_samples.borrow().iter().map(|s| mix.index(s)).collect();
        1.0 / median(&index)
    }

    /// Repeats `pass` until the run's time is spent (at least once),
    /// calibrating before each pass and after the last.
    pub fn timed_passes(&self, mut pass: impl FnMut(usize)) {
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed() < self.seconds {
            self.calibrate();
            pass(i);
            i += 1;
        }
        self.calibrate();
    }

    /// Runs `setup` at least five times and until a second of set-up
    /// has passed (at most 50 times), and returns the last result with
    /// the median set-up time in seconds. A set-up of a few milliseconds
    /// needs the many repetitions for a steady median.
    pub fn setup<S>(&self, mut setup: impl FnMut() -> S) -> (S, f64) {
        let mut times: Vec<f64> = Vec::new();
        let mut last = None;
        while times.len() < 5 || (times.iter().sum::<f64>() < 1.0 && times.len() < 50) {
            drop(last.take());
            self.calibrate();
            let t = Instant::now();
            last = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        (last.expect("set-up ran"), median(&times))
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Ctx {
        workload,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs(seconds),
        trace: trace.unwrap_or(false),
        kernel: RefCell::new(calib::Kernel::new()),
        kernel_samples: RefCell::new(Vec::new()),
    })
}

fn write_out(name: &str, body: &str) {
    let dir = Path::new(OUT_DIR);
    let path: PathBuf = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The traced run's prediction of where a workload's time goes: `group`
/// together must outweigh every layer outside it (and, for sim_ladder,
/// the dense reference must be absent from the timed work).
fn prediction(workload: &str, share: &BTreeMap<&str, f64>) -> (String, bool) {
    let (claim, group): (&str, &[&str]) = match workload {
        "paper_gemm" => ("matrix (the dense reference) is the largest share", &["matrix"]),
        "sim_ladder" => (
            "the simulator layers are the largest share and matrix is absent",
            &[
                "core.controller",
                "core.flex_dpe",
                "interconnect",
                "core.engine",
                "core.fault",
                "core.model",
            ],
        ),
        "fault_campaign" => {
            ("the checked path (core.engine) is the largest share", &["core.engine"])
        }
        _ => {
            ("baselines plus bench.harness are the largest share", &["baselines", "bench.harness"])
        }
    };
    let inside: f64 = group.iter().map(|l| share.get(l).copied().unwrap_or(0.0)).sum();
    let outside =
        share.iter().filter(|(l, _)| !group.contains(l)).map(|(_, v)| *v).fold(0.0, f64::max);
    let matrix_absent =
        workload != "sim_ladder" || share.get("matrix").copied().unwrap_or(0.0) == 0.0;
    (claim.to_string(), inside > outside && matrix_absent)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = report::provenance(&ctx.workload, ctx.seed, ctx.trace);
    println!("provenance: {provenance}");
    let mut tracer = trace::Tracer::new();
    let mut outcome: Outcome = match ctx.workload.as_str() {
        "paper_gemm" => paper_gemm::run(&ctx, &mut tracer),
        "sim_ladder" => sim_ladder::run(&ctx, &mut tracer),
        "fault_campaign" => fault_campaign::run(&ctx, &mut tracer),
        _ => reproduce::run(&ctx, &mut tracer),
    };

    let names: Vec<(String, &str)> = if ctx.trace {
        for span in tracer.overfull() {
            outcome.checks.check(false, || format!("split does not reconcile: {span}"));
        }
        let self_time = tracer.self_time_by_layer();
        let total: f64 = self_time.values().sum();
        let mut share = BTreeMap::new();
        for (layer, secs) in &self_time {
            let pct = if total > 0.0 { 100.0 * secs / total } else { 0.0 };
            outcome.set(&format!("self_pct.{layer}"), pct);
            share.insert(*layer, pct);
            println!("layer {layer:<16} self {:>10.3} ms  {pct:>6.2}%", secs * 1e3);
        }
        let (claim, holds) = prediction(&ctx.workload, &share);
        println!("prediction: {claim}: {}", if holds { "holds" } else { "DOES NOT HOLD" });
        let tag = format!("{}-seed{}", ctx.workload, ctx.seed);
        write_out(&format!("trace-{tag}.jsonl"), &tracer.to_jsonl());
        report::per_layer_metrics()
    } else {
        // Measured seconds become reference-host seconds.
        let mix = calib::Mix::for_workload(&ctx.workload);
        let scale = ctx.host_scale(mix);
        let setup_scale = ctx.host_scale(calib::Mix::SET_UP);
        for &(name, unit) in END_TO_END {
            if let Some(v) = outcome.metrics.get_mut(name) {
                match unit {
                    "s" if name == "setup_s" => *v *= setup_scale,
                    "s" => *v *= scale,
                    "1/s" => *v /= scale,
                    _ => {}
                }
            }
        }
        println!(
            "calibration: {} kernel runs, {}, {mix:?}, scale {scale:.4}, set-up scale {setup_scale:.4}",
            ctx.kernel_samples.borrow().len(),
            calib::medians(&ctx.kernel_samples.borrow()),
        );
        let heap = alloc::peak_heap_bytes().saturating_sub(ctx.kernel.borrow().heap_bytes());
        outcome.set("peak_heap_mb", heap as f64 / (1024.0 * 1024.0));
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    for (name, _) in &names {
        let v = outcome.metrics.get(name).copied();
        let required = !ctx.trace || name == "trace_overhead_pct";
        if (required || v.is_some()) && !v.is_some_and(f64::is_finite) {
            outcome.checks.check(false, || format!("metric {name} missing or not finite: {v:?}"));
        }
    }
    let line = report::result_line(&outcome, &names);
    write_out(
        &format!("result-{}-seed{}-trace{}.json", ctx.workload, ctx.seed, u8::from(ctx.trace)),
        &format!("{{\"provenance\": {provenance}, \"result\": {line}}}\n"),
    );
    println!("{line}");
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
