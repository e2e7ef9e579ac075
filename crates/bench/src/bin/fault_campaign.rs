//! Fault-injection campaign: sweeps fault sites across engines and
//! reports ABFT coverage.
//!
//! Two legs:
//!
//! * **SIGMA microarchitectural leg** — seeded single-site faults
//!   (multiplier transients, FAN stuck-at bits, Benes port drops /
//!   misroutes / operand flips, bitmap-word corruption) injected into
//!   the cycle-accurate SIGMA datapath via
//!   [`SigmaSim::run_gemm_checked`], per dataflow;
//! * **output-corruption leg** — every registry engine runs clean, then
//!   one result element takes a single bit flip and the row/column
//!   checksums must flag (and, at single-site granularity, locate and
//!   repair) it.
//!
//! The binary self-checks and exits non-zero unless:
//!
//! * transient single-site faults with a numeric effect are detected at
//!   >= 99%, and
//! * fault-free control runs raise zero false positives.
//!
//! ```sh
//! cargo run -p sigma-bench --bin fault_campaign -- --smoke
//! ```
//!
//! Flags: `--smoke` (tiny trial counts for CI), plus the common
//! `--csv DIR` / `--json DIR` / `--quiet` emit flags.

use sigma_bench::harness::{default_registry, derive_seed, emit_tables_with, SiteClass};
use sigma_bench::util::Table;
use sigma_core::fault::FaultPlan;
use sigma_core::model::GemmProblem;
use sigma_core::{Dataflow, RecoveryPolicy, SigmaConfig, SigmaSim};
use sigma_matrix::abft::{check_product, correct_single, residual_tolerance, AbftVerdict};
use sigma_matrix::GemmShape;
use sigma_workloads::materialize;

/// XORs one bit of an `f32` (the same upset model the injector uses).
fn flip_bit(v: f32, bit: u32) -> f32 {
    f32::from_bits(v.to_bits() ^ (1u32 << (bit % 32)))
}

/// Per-(site-class, target) tally of one campaign cell.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    trials: u64,
    fired: u64,
    numeric: u64,
    detected: u64,
    corrected: u64,
    escaped: u64,
}

impl Tally {
    fn row(&self, class: &str, target: &str) -> Vec<String> {
        let rate = if self.numeric == 0 {
            "n/a".to_string()
        } else {
            format!("{:.1}%", 100.0 * self.detected as f64 / self.numeric as f64)
        };
        vec![
            class.to_string(),
            target.to_string(),
            self.trials.to_string(),
            self.fired.to_string(),
            self.numeric.to_string(),
            self.detected.to_string(),
            self.corrected.to_string(),
            self.escaped.to_string(),
            rate,
        ]
    }
}

/// Everything the gate needs, accumulated across the legs.
#[derive(Debug, Default)]
struct Gate {
    transient_numeric: u64,
    transient_detected: u64,
    false_positives: u64,
    scheduler_mismatches: u64,
}

struct CampaignConfig {
    trials_per_cell: u64,
    controls_per_target: u64,
    problem: GemmProblem,
}

impl CampaignConfig {
    fn new(smoke: bool) -> Self {
        let shape = if smoke { GemmShape::new(10, 9, 12) } else { GemmShape::new(18, 14, 20) };
        Self {
            trials_per_cell: if smoke { 3 } else { 12 },
            controls_per_target: if smoke { 2 } else { 6 },
            problem: GemmProblem::sparse(shape, 0.6, 0.7),
        }
    }
}

/// The SIGMA microarchitectural leg: site classes x dataflows through
/// the cycle-accurate datapath with ABFT-checked recovery.
fn sigma_leg(cc: &CampaignConfig, gate: &mut Gate) -> Table {
    const DPES: usize = 4;
    const DPE_SIZE: usize = 8;
    let policy = RecoveryPolicy::default();
    let mut table = Table::new(
        "Fault campaign — SIGMA microarchitectural sites (ABFT-checked runs)",
        &[
            "site_class",
            "target",
            "trials",
            "fired",
            "numeric_effect",
            "detected",
            "corrected",
            "escaped",
            "detection_rate",
        ],
    );
    for df in Dataflow::ALL {
        let cfg = SigmaConfig::new(DPES, DPE_SIZE, DPES * DPE_SIZE, df)
            .expect("static campaign config is valid");
        let sim = SigmaSim::new(cfg).expect("static campaign config is valid");
        let target = format!("sigma {df}");

        // Fault-free controls: any detection here is a false positive.
        for t in 0..cc.controls_per_target {
            let seed = derive_seed(0xC0_0F_0F + t, 0x5151);
            let (a, b) = materialize(&cc.problem, seed);
            let (_, report) = sim
                .run_gemm_checked(&a, &b, &FaultPlan::none(), &policy)
                .expect("fault-free control run must succeed");
            gate.false_positives += report.counters.detected;
        }

        for class in SiteClass::ALL {
            if !class.reachable_under(df) {
                continue;
            }
            let mut tally = Tally::default();
            for t in 0..cc.trials_per_cell {
                let s = derive_seed(0xFA_17 + t, ((df as u64) << 8) | class as u64);
                let (a, b) = materialize(&cc.problem, s);
                let plan = class.plan(s, DPES, DPE_SIZE);
                let (_, report) = sim
                    .run_gemm_checked(&a, &b, &plan, &policy)
                    .expect("campaign operands are valid");
                tally.trials += 1;
                tally.fired += u64::from(!report.fired.is_empty());
                tally.numeric += u64::from(report.numeric_effect);
                tally.detected += u64::from(report.counters.detected > 0);
                tally.corrected += u64::from(report.counters.corrected > 0);
                tally.escaped += u64::from(report.counters.escaped > 0);
                if class.is_transient() && report.numeric_effect {
                    gate.transient_numeric += 1;
                    gate.transient_detected += u64::from(report.counters.detected > 0);
                }
            }
            table.push(tally.row(class.label(), &target));
        }
    }
    table
}

/// The scheduler-parity leg: every SIGMA campaign cell reruns on the
/// event-driven scheduler *and* on the lockstep tick-loop oracle, and the
/// two checked runs must match exactly — identical `CycleStats`,
/// injected/detected/corrected/escaped counters, attempts, fired-fault
/// lists (cycles included), and bitwise-identical results. Faulted runs
/// take the event path's per-unit fault hook, so this leg pins its
/// injection semantics to the tick loop's at campaign scale.
fn scheduler_parity_leg(cc: &CampaignConfig, gate: &mut Gate) -> Table {
    const DPES: usize = 4;
    const DPE_SIZE: usize = 8;
    let policy = RecoveryPolicy::default();
    let mut table = Table::new(
        "Fault campaign — event vs lockstep scheduler parity (faulted runs)",
        &["site_class", "target", "trials", "stats_report_matches", "result_matches"],
    );
    for df in Dataflow::ALL {
        let base = SigmaConfig::new(DPES, DPE_SIZE, DPES * DPE_SIZE, df)
            .expect("static campaign config is valid");
        let event = SigmaSim::new(base).expect("static campaign config is valid");
        let lockstep =
            SigmaSim::new(base.with_lockstep(true)).expect("static campaign config is valid");
        let target = format!("sigma {df}");
        for class in SiteClass::ALL {
            if !class.reachable_under(df) {
                continue;
            }
            let (mut trials, mut report_matches, mut result_matches) = (0u64, 0u64, 0u64);
            for t in 0..cc.trials_per_cell {
                let s = derive_seed(0x5C_ED + t, ((df as u64) << 8) | class as u64);
                let (a, b) = materialize(&cc.problem, s);
                let plan = class.plan(s, DPES, DPE_SIZE);
                let (run_e, rep_e) = event
                    .run_gemm_checked(&a, &b, &plan, &policy)
                    .expect("campaign operands are valid");
                let (run_l, rep_l) = lockstep
                    .run_gemm_checked(&a, &b, &plan, &policy)
                    .expect("campaign operands are valid");
                trials += 1;
                let reports_match = run_e.stats == run_l.stats
                    && rep_e.counters == rep_l.counters
                    && rep_e.attempts == rep_l.attempts
                    && rep_e.fired == rep_l.fired
                    && rep_e.numeric_effect == rep_l.numeric_effect;
                let results_match = run_e
                    .result
                    .as_slice()
                    .iter()
                    .zip(run_l.result.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                report_matches += u64::from(reports_match);
                result_matches += u64::from(results_match);
                gate.scheduler_mismatches += u64::from(!(reports_match && results_match));
            }
            table.push(vec![
                class.label().to_string(),
                target.clone(),
                trials.to_string(),
                report_matches.to_string(),
                result_matches.to_string(),
            ]);
        }
    }
    table
}

/// The output-corruption leg: every registry engine runs clean (false-
/// positive control), then one result element takes a transient bit
/// flip and the checksums must flag — and at single-site granularity,
/// locate and repair — it.
fn output_corruption_leg(cc: &CampaignConfig, gate: &mut Gate) -> Table {
    let mut table = Table::new(
        "Fault campaign — output corruption across the engine fleet (ABFT checksums)",
        &[
            "site_class",
            "target",
            "trials",
            "fired",
            "numeric_effect",
            "detected",
            "corrected",
            "escaped",
            "detection_rate",
        ],
    );
    let shape = cc.problem.shape;
    let tol = residual_tolerance(shape.m, shape.n, shape.k);
    for entry in default_registry() {
        let mut tally = Tally::default();
        for t in 0..cc.trials_per_cell {
            let s = derive_seed(0xAB_F7 + t, 0x1000 + tally.trials);
            let (a, b) = materialize(&cc.problem, s);
            let Ok(run) = entry.engine.run(&a, &b) else {
                // An engine refusing the campaign problem contributes no
                // trials (the registry fleet accepts these shapes today).
                continue;
            };
            let (ad, bd) = (a.to_dense(), b.to_dense());
            if !check_product(&ad, &bd, &run.result, tol).is_clean() {
                gate.false_positives += 1;
            }
            let row = (s >> 5) as usize % shape.m;
            let col = (s >> 17) as usize % shape.n;
            let bit = 20 + (s >> 41) as u32 % 11;
            let mut corrupted = run.result.clone();
            let clean_value = corrupted.get(row, col);
            corrupted.set(row, col, flip_bit(clean_value, bit));
            let delta = corrupted.get(row, col) - clean_value;
            let numeric = delta.is_nan() || delta.abs() > tol;
            tally.trials += 1;
            tally.fired += 1;
            tally.numeric += u64::from(numeric);
            let verdict = check_product(&ad, &bd, &corrupted, tol);
            let detected = !verdict.is_clean();
            tally.detected += u64::from(detected);
            if let AbftVerdict::SingleSite { row: r, col: c, delta } = verdict {
                correct_single(&mut corrupted, r, c, delta);
                if check_product(&ad, &bd, &corrupted, tol).is_clean() {
                    tally.corrected += 1;
                }
            }
            tally.escaped += u64::from(numeric && !detected);
            if numeric {
                gate.transient_numeric += 1;
                gate.transient_detected += u64::from(detected);
            }
        }
        table.push(tally.row("output bit flip", &entry.slug));
    }
    table
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");

    let cc = CampaignConfig::new(smoke);
    let mut gate = Gate::default();
    let tables = [
        sigma_leg(&cc, &mut gate),
        scheduler_parity_leg(&cc, &mut gate),
        output_corruption_leg(&cc, &mut gate),
    ];
    if let Err(msg) = emit_tables_with(&tables, &args, &mut std::io::stdout()) {
        eprintln!("{msg} (flags: [--smoke] [--csv DIR] [--json DIR] [--quiet])");
        std::process::exit(2);
    }

    let rate = if gate.transient_numeric == 0 {
        1.0
    } else {
        gate.transient_detected as f64 / gate.transient_numeric as f64
    };
    println!(
        "gate: transient detection {}/{} ({:.1}%), false positives {}, scheduler mismatches {}",
        gate.transient_detected,
        gate.transient_numeric,
        100.0 * rate,
        gate.false_positives,
        gate.scheduler_mismatches,
    );
    let mut failed = false;
    if rate < 0.99 {
        eprintln!("FAIL: transient single-site detection below 99%");
        failed = true;
    }
    if gate.false_positives > 0 {
        eprintln!("FAIL: ABFT flagged {} fault-free run(s)", gate.false_positives);
        failed = true;
    }
    if gate.scheduler_mismatches > 0 {
        eprintln!(
            "FAIL: {} faulted run(s) diverged between the event and lockstep schedulers",
            gate.scheduler_mismatches
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("fault campaign: PASS");
}
