//! reproduce: what a user runs to regenerate the paper — every figure
//! and table (`figs::all_tables`), then the 11-engine default registry
//! swept over a DSE grid on 2 threads: a cold pass through a fresh
//! write-ahead journal and run cache (`Sweep::resume`), then a warm pass
//! (`Sweep::run`) served from that cache.
//!
//! Every record must say `status=ok` and `verified`; the warm pass must
//! return the cold pass's records from the cache alone; records and
//! rendered tables must repeat exactly across repetitions. The traced
//! run reads the harness stages from the program's flight recorder.

use crate::report::{analytic_accuracy_pct, err_pct, median, observed_problem, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, OUT_DIR};
use sigma_bench::figs::all_tables;
use sigma_bench::harness::{
    default_registry, derive_seed, fnv1a_64, EngineEntry, RunCache, RunRecord, RunStatus, Sweep,
    WorkloadSpec,
};
use sigma_core::model::{estimate, GemmProblem};
use sigma_core::{Dataflow, SigmaConfig};
use sigma_matrix::GemmShape;
use sigma_telemetry::{FlightRecorder, Stage};
use sigma_workloads::materialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 2;

/// The DSE grid: irregular shapes crossed with dense, paper-sparse and
/// very sparse operand densities.
fn grid() -> Vec<WorkloadSpec> {
    let shapes = [(96, 96, 96), (128, 160, 144), (192, 128, 192), (64, 256, 112)];
    let densities = [(1.0, 1.0), (0.5, 0.2), (0.1, 0.3)];
    let mut grid = Vec::new();
    for &(m, n, k) in &shapes {
        for &(da, db) in &densities {
            grid.push(WorkloadSpec::new(
                format!("{m}x{n}x{k} d{da}/{db}"),
                GemmProblem::sparse(GemmShape::new(m, n, k), da, db),
            ));
        }
    }
    grid
}

struct Setup {
    grid: Vec<WorkloadSpec>,
    engines: Vec<EngineEntry>,
    /// Analytic cycles of the registry's SIGMA engine on each workload's
    /// generated operands.
    estimates: Vec<u64>,
    tables_digest: u64,
}

fn tables_digest() -> u64 {
    let text: String = all_tables().iter().map(sigma_bench::util::Table::render).collect();
    fnv1a_64(text.as_bytes())
}

fn setup(seed: u64) -> Setup {
    let grid = grid();
    // The registry's SIGMA engine: 4 x Flex-DPE-16, weight stationary.
    let sigma = SigmaConfig::clamped(4, 16, 64, Dataflow::WeightStationary);
    let estimates = grid
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            // The operands the sweep generates for workload `wi`.
            let (a, b) = materialize(&w.problem, derive_seed(seed, wi as u64));
            estimate(&sigma, &observed_problem(&a, &b)).total_cycles()
        })
        .collect();
    Setup { grid, engines: default_registry(), estimates, tables_digest: tables_digest() }
}

/// A fresh directory for one pass's journal and cache store.
fn pass_dir(pass: usize) -> PathBuf {
    PathBuf::from(OUT_DIR)
        .join(format!("reproduce-{}", std::process::id()))
        .join(format!("pass{pass}"))
}

/// When each stage of one pass ran.
struct PassTimes {
    figures: (Instant, Instant),
    cold: (Instant, Instant),
    warm: (Instant, Instant),
}

fn secs((start, end): (Instant, Instant)) -> f64 {
    (end - start).as_secs_f64()
}

impl PassTimes {
    fn total(&self) -> f64 {
        secs(self.figures) + secs(self.cold) + secs(self.warm)
    }
}

struct Runner<'a> {
    s: &'a Setup,
    seed: u64,
    first: Option<Vec<RunRecord>>,
    warm_hits: u64,
    warm_misses: u64,
}

impl Runner<'_> {
    fn sweep(&self, recorder: &FlightRecorder, cache: &Arc<RunCache>) -> Sweep {
        Sweep::new(self.s.grid.clone())
            .with_seed(self.seed)
            .with_threads(THREADS)
            .with_budget(None)
            .with_cache(Arc::clone(cache))
            .with_flight_recorder(recorder.clone())
    }

    /// One regeneration: figures, cold journaled sweep, warm cached
    /// sweep, each checked.
    fn pass(
        &mut self,
        i: usize,
        recorder: &FlightRecorder,
        out: &mut Outcome,
    ) -> Option<PassTimes> {
        let t = Instant::now();
        let tables = all_tables();
        let figures = (t, Instant::now());
        let text: String = tables.iter().map(sigma_bench::util::Table::render).collect();
        out.checks.check(fnv1a_64(text.as_bytes()) == self.s.tables_digest, || {
            "figure tables differ from the set-up rendering".into()
        });

        let dir = pass_dir(i);
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            out.checks.check(false, || format!("cannot create {}: {e}", dir.display()));
            return None;
        }
        let cache = match RunCache::open(&dir.join("cache.jsonl"), 4096) {
            Ok(c) => Arc::new(c.with_flight_recorder(recorder.clone())),
            Err(e) => {
                out.checks.check(false, || format!("cannot open the run cache: {e}"));
                return None;
            }
        };
        let t = Instant::now();
        let cold = self.sweep(recorder, &cache).resume(&self.s.engines, &dir.join("journal.jsonl"));
        let cold_s = (t, Instant::now());
        let cold = match cold {
            Ok(o) => o,
            Err(e) => {
                out.checks.check(false, || format!("journaled sweep failed: {e}"));
                return None;
            }
        };
        let before = cache.stats();
        let t = Instant::now();
        let warm = self.sweep(recorder, &cache).run(&self.s.engines);
        let warm_s = (t, Instant::now());
        let after = cache.stats();
        let _ = std::fs::remove_dir_all(&dir);

        for r in &cold.records {
            out.checks.check(r.status == RunStatus::Ok && r.verified, || {
                format!(
                    "{} on {}: status {:?}, verified {}",
                    r.engine_slug, r.workload, r.status, r.verified
                )
            });
        }
        let cells = cold.records.len() as u64;
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.warm_hits += hits;
        self.warm_misses += misses;
        out.checks.check(warm == cold.records && hits == cells && misses == 0, || {
            format!(
                "warm pass: {hits} hits, {misses} misses over {cells} cells, records equal: {}",
                warm == cold.records
            )
        });
        match &self.first {
            None => self.first = Some(cold.records.clone()),
            Some(first) => out.checks.check(*first == cold.records, || {
                "sweep records changed between repetitions".into()
            }),
        }
        Some(PassTimes { figures, cold: cold_s, warm: warm_s })
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let (s, setup_s) = ctx.setup(|| setup(ctx.seed));
    let mut out = Outcome::default();
    let mut runner = Runner { s: &s, seed: ctx.seed, first: None, warm_hits: 0, warm_misses: 0 };
    if ctx.trace {
        traced(ctx, &mut runner, tracer, &mut out);
    } else {
        let mut times = Vec::new();
        let off = FlightRecorder::off();
        ctx.timed_passes(|i| {
            if let Some(t) = runner.pass(i, &off, &mut out) {
                times.push(t);
            }
        });
        let records = runner.first.clone().unwrap_or_default();
        let cells = records.len() as f64;
        let stage = |f: fn(&PassTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
        let cold = stage(|t| secs(t.cold));
        let pass = stage(PassTimes::total);
        let cycles: u64 = records.iter().map(|r| r.total_cycles).sum();
        let errs: Vec<f64> = records
            .iter()
            .filter(|r| r.engine_slug == "sigma")
            .filter_map(|r| {
                let wi = s.grid.iter().position(|w| w.name == r.workload)?;
                Some(err_pct(s.estimates[wi], r.total_cycles))
            })
            .collect();
        out.set("setup_s", setup_s);
        out.set("pass_s", pass);
        out.set("ops_per_s", cells / cold);
        out.set("sim_cycles_per_s", cycles as f64 / cold);
        out.set("analytic_accuracy_pct", analytic_accuracy_pct(&errs));
        println!(
            "{} cells per sweep; figures {:.2} ms, cold {:.1} ms, warm {:.1} ms (medians of {})",
            records.len(),
            stage(|t| secs(t.figures)) * 1e3,
            cold * 1e3,
            stage(|t| secs(t.warm)) * 1e3,
            times.len()
        );
    }
    let _ = std::fs::remove_dir_all(
        PathBuf::from(OUT_DIR).join(format!("reproduce-{}", std::process::id())),
    );
    out
}

/// Layer and span name of a flight-recorder stage span.
fn stage_span(stage: Stage, label: &str) -> Option<(&'static str, String)> {
    Some(match stage {
        Stage::QueueWait => return None,
        Stage::Materialize => ("matrix", "harness.sweep.materialize".into()),
        Stage::EngineRun => {
            let slug = label.split_once(": ").map_or(label, |(s, _)| s);
            let layer = if slug == "sigma" { "core.engine" } else { "baselines" };
            (layer, format!("baselines.{slug}"))
        }
        Stage::JournalAppend => ("bench.harness", "harness.journal.append".into()),
        Stage::JournalFsync => ("bench.harness", "harness.journal.fsync".into()),
        Stage::CacheProbe => ("bench.harness", "harness.cache.probe".into()),
        Stage::CacheInsert => ("bench.harness", "harness.cache.insert".into()),
        Stage::RetryBackoff | Stage::WatchdogCancel => ("bench.harness", "harness.retry".into()),
    })
}

fn traced(ctx: &Ctx, runner: &mut Runner<'_>, tracer: &mut Tracer, out: &mut Outcome) {
    let epoch = tracer.epoch();
    let mut untraced = Vec::new();
    let mut traced_s = Vec::new();
    let mut queue_wait = Vec::new();
    let mut passes = 0usize;
    let off = FlightRecorder::off();
    ctx.timed_passes(|i| {
        passes += 1;
        if let Some(t) = runner.pass(2 * i, &off, out) {
            untraced.push(t.total());
        }
        tracer.next_run();
        // Benchmark-side generation of each grid workload's operands, the
        // part of the sweep's materialize stage that is not the reference.
        let mut gen = Vec::new();
        for (wi, w) in runner.s.grid.iter().enumerate() {
            let t0 = tracer.now_ns();
            let ops = materialize(&w.problem, derive_seed(runner.seed, wi as u64));
            std::hint::black_box(ops);
            gen.push((w.name.clone(), (t0, tracer.now_ns())));
        }
        let recorder = FlightRecorder::with_clock(1 << 20, move || {
            u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
        });
        let Some(t) = runner.pass(2 * i + 1, &recorder, out) else { return };
        traced_s.push(t.total());
        let ns = |(a, b): (Instant, Instant)| {
            let at = |x: Instant| u64::try_from((x - epoch).as_nanos()).unwrap_or(u64::MAX);
            (at(a), at(b))
        };
        tracer.record("bench.figs", "figs.all_tables", ns(t.figures), None, 1);
        let threads = THREADS as u32;
        let cold = tracer.record("bench.harness", "harness.sweep.cold", ns(t.cold), None, threads);
        let warm = tracer.record("bench.harness", "harness.sweep.warm", ns(t.warm), None, threads);
        let cold_end = ns(t.cold).1;
        let mut materialized: Vec<(String, SpanId)> = Vec::new();
        let mut spans = recorder.snapshot().spans;
        spans.sort_by_key(|s| (s.thread, s.start_us, std::cmp::Reverse(s.dur_us)));
        // Per thread, the imported spans still open at the current start:
        // a stage recorded inside another (a cache insert's store append)
        // is its child, not a second claim on the sweep's time.
        let mut open: Vec<(u64, u64, SpanId)> = Vec::new();
        for span in spans {
            let s0 = span.start_us * 1000;
            let interval = (s0, s0 + span.dur_us * 1000);
            if span.stage == Stage::QueueWait {
                queue_wait.push(span.dur_us as f64 / 1e3);
                continue;
            }
            let Some((layer, name)) = stage_span(span.stage, &span.label) else { continue };
            open.retain(|&(thread, end, _)| thread == span.thread && end >= interval.1);
            let sweep = if s0 < cold_end { cold } else { warm };
            let parent = open.last().map_or(sweep, |&(_, _, id)| id);
            let id = tracer.record(layer, &name, interval, Some(parent), 1);
            open.push((span.thread, interval.1, id));
            if span.stage == Stage::Materialize {
                materialized.push((span.label.clone(), id));
            }
        }
        for (label, id) in materialized {
            if let Some((_, interval)) = gen.iter().find(|(n, _)| *n == label) {
                tracer.record("workloads", "matrix.gen", *interval, Some(id), 1);
            }
        }
    });
    let p = passes as f64;
    let per_call =
        |name: &str, scale: f64| tracer.total(name) * scale / tracer.count(name).max(1) as f64;
    out.set("matrix.gen.ms", tracer.total("matrix.gen") * 1e3 / p);
    out.set("harness.sweep.queue_wait_ms", median(&queue_wait));
    out.set("harness.sweep.materialize_ms", tracer.total("harness.sweep.materialize") * 1e3 / p);
    let engine_ms: f64 = crate::report::REGISTRY_SLUGS
        .iter()
        .map(|slug| {
            let ms = tracer.total(&format!("baselines.{slug}")) * 1e3 / p;
            out.set(&format!("baselines.{slug}.ms"), ms);
            ms
        })
        .sum();
    out.set("harness.sweep.engine_run_ms", engine_ms);
    out.set("harness.journal.append_us", per_call("harness.journal.append", 1e6));
    out.set("harness.journal.fsync_us", per_call("harness.journal.fsync", 1e6));
    out.set("harness.cache.probe_us", per_call("harness.cache.probe", 1e6));
    out.set("harness.cache.insert_us", per_call("harness.cache.insert", 1e6));
    let (h, m) = (runner.warm_hits, runner.warm_misses);
    out.set("harness.cache.hit_ratio", h as f64 / (h + m).max(1) as f64);
    out.set("figs.all_tables_ms", per_call("figs.all_tables", 1e3));
    let base = median(&untraced);
    out.set("trace_overhead_pct", 100.0 * (median(&traced_s) - base) / base);
}
