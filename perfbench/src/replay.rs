//! Layer replay of one stationary GEMM.
//!
//! Drives the simulator's public layer calls in the order the engine's
//! event scheduler makes them — `ControllerPlan::build_with_order`, then
//! per fold `FlexDpe::load` on each active unit and `FlexDpe::step_compiled`
//! over the fold's live steps — with a span around each, and counts the
//! work done. The replay is the traced execution of the GEMM: its layer
//! spans are children of the caller's open engine span, and what the
//! replay does between them (staging the streamed columns, finding the
//! live steps, accumulating cluster sums into the product) is the
//! engine's own part. The counts and the replayed product are reconciled
//! with the engine's own `CycleStats`, telemetry and result for the same
//! GEMM before any of the split is published.

use crate::trace::{SpanId, Tracer};
use sigma_core::{
    ControllerPlan, Counter, CycleStats, Dataflow, DpeStep, FlexDpe, SigmaConfig, SigmaSim,
};
use sigma_interconnect::{Fan, FanProgram};
use sigma_matrix::{Matrix, SparseMatrix};
use std::time::Instant;

/// Work counted by one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub folds: u64,
    pub dropped_nnz: u64,
    pub loads: u64,
    pub step_calls: u64,
    /// Unit-steps the engine accounts for, dead steps included.
    pub unit_steps: u64,
    pub dead_steps: u64,
    pub useful_macs: u64,
    pub mapped: u64,
    pub route_hits: u64,
    pub route_misses: u64,
    /// FAN adds executed on live steps.
    pub fan_adds: u64,
    /// FAN adds the engine's telemetry accounts for (every step).
    pub fan_adds_all_steps: u64,
    /// FAN adds the separately compiled schedules predict for the live
    /// steps; must equal `fan_adds`.
    pub fan_adds_compiled_live: u64,
    /// Time spent compiling those schedules, after the replay and
    /// outside the span tree: the benchmark's own extra calls.
    pub fan_compile_ns: u64,
}

/// A finished replay: its counts, its product and each load's cluster
/// map, whose FAN schedules [`Replayed::compile_fans`] compiles.
pub struct Replayed {
    pub counts: ReplayCounts,
    pub product: Matrix,
    dpe: usize,
    steps: u64,
    /// Every load's `vec_ids`, `dpe` entries each, in load order.
    maps: Vec<Option<u32>>,
    /// Live steps of each load's fold.
    live: Vec<u64>,
}

/// Replays `A x B` on `config` (a stationary dataflow), recording the
/// layer spans under `parent`, which must be open.
pub fn replay(
    config: &SigmaConfig,
    a: &SparseMatrix,
    b: &SparseMatrix,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Replayed, String> {
    let ws = match config.dataflow() {
        Dataflow::WeightStationary => true,
        Dataflow::InputStationary => false,
        Dataflow::NoLocalReuse => return Err("NLR has no stationary layers to replay".into()),
    };
    let (m, n) = (a.rows(), b.cols());
    let transposed;
    let (stationary, streaming) = if ws {
        transposed = (b.transposed(), a.transposed());
        (&transposed.0, &transposed.1)
    } else {
        (a, b)
    };
    let pes = config.total_pes();
    let dpe = config.dpe_size();
    let steps = streaming.cols();
    let kdim = streaming.rows();
    let bitmap = streaming.bitmap();

    let t0 = tracer.now_ns();
    let plan = ControllerPlan::build_with_order(stationary, bitmap, pes, config.packing_order());
    tracer.record(
        "core.controller",
        "core.controller.plan",
        (t0, tracer.now_ns()),
        Some(parent),
        1,
    );

    let mut stream_tr = vec![0.0f32; kdim * steps];
    for (r, c, v) in streaming.iter() {
        stream_tr[c * kdim + r] = v;
    }
    let mut out = Matrix::zeros(m, n);
    let mut counts = ReplayCounts { folds: plan.folds.len() as u64, ..ReplayCounts::default() };
    let mut units: Vec<FlexDpe> = Vec::new();
    let mut local_ids: Vec<Option<u32>> = vec![None; dpe];
    let mut step_out = DpeStep::default();
    let mut sends = vec![0u64; steps];
    let mut live: Vec<usize> = Vec::with_capacity(steps);
    // One unit's cluster sums over a fold's live steps: (step, cluster,
    // value), accumulated into the product after the unit's steps span.
    let mut sums: Vec<(usize, u32, f32)> = Vec::new();
    let mut maps = Vec::new();
    let mut live_per_load = Vec::new();

    for fold in &plan.folds {
        let occupied = fold.occupied();
        counts.mapped += occupied as u64;
        let active = occupied.div_ceil(dpe);
        while units.len() < active {
            let mut unit = FlexDpe::new(dpe).map_err(|e| e.to_string())?;
            unit.set_route_caching(config.route_cache());
            units.push(unit);
        }
        for (d, unit) in units.iter_mut().enumerate().take(active) {
            let lo = d * dpe;
            let hi = (lo + dpe).min(occupied);
            local_ids.fill(None);
            local_ids[..hi - lo].copy_from_slice(&fold.vec_ids[lo..hi]);
            let t0 = tracer.now_ns();
            unit.load(&fold.elements[lo..hi], &local_ids).map_err(|e| e.to_string())?;
            tracer.record(
                "core.flex_dpe",
                "core.flex_dpe.load",
                (t0, tracer.now_ns()),
                Some(parent),
                1,
            );
            maps.extend_from_slice(&local_ids);
            counts.loads += 1;
        }

        sends.fill(0);
        for &k in &fold.distinct_contractions {
            for c in bitmap.row_iter_ones(k) {
                sends[c] += 1;
            }
        }
        live.clear();
        live.extend((0..steps).filter(|&s| sends[s] > 0));
        counts.dead_steps += (steps - live.len()) as u64;
        counts.unit_steps += (active * steps) as u64;
        live_per_load.extend(std::iter::repeat_n(live.len() as u64, active));

        for unit in units.iter_mut().take(active) {
            sums.clear();
            let t0 = tracer.now_ns();
            for &step in &live {
                let col = &stream_tr[step * kdim..(step + 1) * kdim];
                unit.step_compiled(col, &mut step_out).map_err(|e| e.to_string())?;
                counts.useful_macs += step_out.useful_macs as u64;
                counts.fan_adds += step_out.reduction.adds_performed as u64;
                sums.extend(step_out.reduction.sums.iter().map(|s| (step, s.vec_id, s.value)));
            }
            tracer.record(
                "core.flex_dpe",
                "core.flex_dpe.steps",
                (t0, tracer.now_ns()),
                Some(parent),
                1,
            );
            for &(step, vec_id, value) in &sums {
                let group = fold.cluster_groups[vec_id as usize];
                let (r, c) = if ws { (step, group) } else { (group, step) };
                out.set(r, c, out.get(r, c) + value);
            }
            counts.step_calls += live.len() as u64;
        }
    }
    for unit in &units {
        counts.route_hits += unit.route_cache().hits();
        counts.route_misses += unit.route_cache().misses();
    }
    counts.dropped_nnz = (stationary.nnz() as u64).saturating_sub(counts.mapped);
    Ok(Replayed { counts, product: out, dpe, steps: steps as u64, maps, live: live_per_load })
}

impl Replayed {
    /// Compiles every load's FAN schedule on its own, timed, and counts
    /// the adds the schedules predict.
    pub fn compile_fans(&mut self) -> Result<(), String> {
        let fan = Fan::new(self.dpe).map_err(|e| format!("FAN of size {}: {e}", self.dpe))?;
        let mut program = FanProgram::default();
        let c = &mut self.counts;
        for (map, &live) in self.maps.chunks(self.dpe).zip(&self.live) {
            let t0 = Instant::now();
            program.compile(&fan, map).map_err(|e| format!("FAN compile: {e}"))?;
            c.fan_compile_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let per_step_adds = program.adds_performed() as u64;
            c.fan_adds_all_steps += per_step_adds * self.steps;
            c.fan_adds_compiled_live += per_step_adds * live;
        }
        Ok(())
    }
}

/// Reconciles a replay with the engine's stats, telemetry and result
/// for the same GEMM; returns every disagreement.
pub fn reconcile(
    counts: &ReplayCounts,
    replayed: &Matrix,
    stats: &CycleStats,
    result: &Matrix,
    telemetry_sim: &SigmaSim,
) -> Vec<String> {
    let tel = |c: Counter| telemetry_sim.telemetry_handle().counter(c);
    let pairs: [(&str, u64, u64); 11] = [
        ("folds vs CycleStats", counts.folds, stats.folds),
        ("folds vs telemetry", counts.folds, tel(Counter::FoldsPlanned)),
        ("route hits vs CycleStats", counts.route_hits, stats.route_cache_hits),
        ("route misses vs CycleStats", counts.route_misses, stats.route_cache_misses),
        ("route hits vs telemetry", counts.route_hits, tel(Counter::RouteCacheHits)),
        ("route misses vs telemetry", counts.route_misses, tel(Counter::RouteCacheMisses)),
        ("unit-steps vs telemetry", counts.unit_steps, tel(Counter::StreamSteps)),
        ("FAN adds vs telemetry", counts.fan_adds_all_steps, tel(Counter::FanAdds)),
        (
            "useful MACs vs CycleStats",
            counts.useful_macs,
            u64::try_from(stats.useful_macs).unwrap_or(u64::MAX),
        ),
        ("dead steps vs idle cycles", counts.dead_steps, stats.idle_cycles_skipped),
        ("dropped vs telemetry", counts.dropped_nnz, tel(Counter::StationaryDropped)),
    ];
    let mut diffs: Vec<String> = pairs
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}: replay {got}, engine {want}"))
        .collect();
    if counts.fan_adds != counts.fan_adds_compiled_live {
        diffs.push(format!(
            "FAN adds: executed {}, compiled schedules {}",
            counts.fan_adds, counts.fan_adds_compiled_live
        ));
    }
    if counts.mapped != stats.mapped_nonzeros {
        diffs.push(format!("mapped: replay {}, engine {}", counts.mapped, stats.mapped_nonzeros));
    }
    if !bitwise_eq(replayed, result) {
        diffs.push("replayed product differs bitwise from the engine's".into());
    }
    diffs
}

/// Bitwise equality of two matrices (shape and every value's bits).
pub fn bitwise_eq(x: &Matrix, y: &Matrix) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
}
