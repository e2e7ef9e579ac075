//! Deliberately misbehaving engines for hardening the sweep harness.
//!
//! None of these belong in [`default_registry`]; tests and the fault
//! campaign splice them into a fleet to prove that one bad engine
//! cannot take down a sweep — its cell is recorded as `panic`,
//! `timeout`, or `error` and every other cell stays byte-identical.
//!
//! [`default_registry`]: super::registry::default_registry

use sigma_core::{CancelToken, CycleStats, Engine, EngineError, EngineRun};
use sigma_matrix::{Matrix, SparseMatrix};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// An engine that panics on every [`Engine::run`] call.
///
/// Models a latent `unwrap()`/index bug tripping on a hostile workload.
#[derive(Debug, Default)]
pub struct PanickingEngine;

impl Engine for PanickingEngine {
    fn name(&self) -> String {
        "Chaos (panics)".to_string()
    }

    fn pes(&self) -> usize {
        1
    }

    // Deliberate: this engine exists to prove the sweep contains panics
    // (sigma-lint D2 waived for this file in lint.toml).
    #[allow(clippy::panic)]
    fn run(&self, _a: &SparseMatrix, _b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        panic!("chaos: deliberate panic from PanickingEngine");
    }
}

/// An engine that wedges: it sleeps far past any reasonable watchdog
/// budget before answering.
///
/// Models an infinite loop / livelock. The sleep is bounded (rather
/// than `loop {}`) so the leaked watchdog thread eventually exits and
/// test processes can still terminate cleanly.
#[derive(Debug)]
pub struct WedgingEngine {
    /// How long the engine stalls before returning.
    pub stall: Duration,
}

impl WedgingEngine {
    /// A wedge that stalls for `stall` before answering.
    #[must_use]
    pub fn new(stall: Duration) -> Self {
        Self { stall }
    }
}

impl Default for WedgingEngine {
    fn default() -> Self {
        Self::new(Duration::from_secs(60))
    }
}

impl Engine for WedgingEngine {
    fn name(&self) -> String {
        "Chaos (wedges)".to_string()
    }

    fn pes(&self) -> usize {
        1
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        sigma_core::validate_finite(a, b)?;
        std::thread::sleep(self.stall);
        Ok(EngineRun::new(
            Matrix::zeros(a.rows(), b.cols()),
            CycleStats { pes: 1, ..CycleStats::default() },
        ))
    }
}

/// An engine that spins until cooperatively cancelled (or a bound
/// elapses).
///
/// Unlike [`WedgingEngine`] — which sleeps through its whole stall no
/// matter what — this engine polls its [`CancelToken`] the way the real
/// simulator does at fold boundaries. A watchdog that cancels the token
/// and waits a short grace period gets the thread back instead of
/// leaking it, which is exactly what the bounded-thread-count test
/// proves.
#[derive(Debug)]
pub struct SpinningEngine {
    /// Upper bound on the spin, so an un-cancelled call still returns
    /// eventually and test processes terminate cleanly.
    pub bound: Duration,
}

impl SpinningEngine {
    /// A spinner that gives up after `bound` if never cancelled.
    #[must_use]
    pub fn new(bound: Duration) -> Self {
        Self { bound }
    }
}

impl Default for SpinningEngine {
    fn default() -> Self {
        Self::new(Duration::from_secs(60))
    }
}

impl Engine for SpinningEngine {
    fn name(&self) -> String {
        "Chaos (spins, cancellable)".to_string()
    }

    fn pes(&self) -> usize {
        1
    }

    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        // Without a token the spin just runs to its bound.
        self.run_cancellable(a, b, &CancelToken::new())
    }

    fn run_cancellable(
        &self,
        a: &SparseMatrix,
        b: &SparseMatrix,
        cancel: &CancelToken,
    ) -> Result<EngineRun, EngineError> {
        sigma_core::validate_finite(a, b)?;
        let start = std::time::Instant::now();
        while start.elapsed() < self.bound {
            if cancel.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(EngineRun::new(
            Matrix::zeros(a.rows(), b.cols()),
            CycleStats { pes: 1, ..CycleStats::default() },
        ))
    }
}

/// An engine that fails its first `failures` calls (alternating panic
/// and [`EngineError::Internal`]-style refusals), then succeeds by
/// delegating to a dense reference multiply.
///
/// Exercises the sweep's bounded-retry path: with enough retries the
/// cell recovers to `ok`; with too few it surfaces the last failure.
#[derive(Debug)]
pub struct FlakyEngine {
    failures: u32,
    calls: AtomicU32,
}

impl FlakyEngine {
    /// An engine whose first `failures` calls fail.
    #[must_use]
    pub fn new(failures: u32) -> Self {
        Self { failures, calls: AtomicU32::new(0) }
    }

    /// How many times the engine has been invoked so far.
    #[must_use]
    pub fn calls(&self) -> u32 {
        self.calls.load(Ordering::SeqCst)
    }
}

impl Engine for FlakyEngine {
    fn name(&self) -> String {
        "Chaos (flaky)".to_string()
    }

    fn pes(&self) -> usize {
        1
    }

    // Deliberate panics on the failing calls (sigma-lint D2 waived for
    // this file in lint.toml).
    #[allow(clippy::panic)]
    fn run(&self, a: &SparseMatrix, b: &SparseMatrix) -> Result<EngineRun, EngineError> {
        sigma_core::validate_finite(a, b)?;
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        if call < self.failures {
            if call.is_multiple_of(2) {
                panic!("chaos: flaky failure {call}");
            }
            return Err(EngineError::Numeric(format!("chaos: flaky refusal {call}")));
        }
        let result = a.try_matmul(b)?;
        let stats = CycleStats { pes: 1, ..CycleStats::default() };
        Ok(EngineRun::new(result, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::gen::{sparse_uniform, Density};

    fn operands() -> (SparseMatrix, SparseMatrix) {
        let d = Density::new(0.5).unwrap();
        let a = sparse_uniform(3, 5, d, 7);
        let b = sparse_uniform(5, 4, d, 8);
        (a, b)
    }

    #[test]
    fn panicking_engine_panics() {
        let (a, b) = operands();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = PanickingEngine.run(&a, &b);
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn wedging_engine_eventually_answers() {
        let (a, b) = operands();
        let run = WedgingEngine::new(Duration::from_millis(5)).run(&a, &b).unwrap();
        assert_eq!(run.result.rows(), 3);
        assert_eq!(run.result.cols(), 4);
    }

    #[test]
    fn spinning_engine_exits_promptly_when_cancelled() {
        let (a, b) = operands();
        let spinner = SpinningEngine::new(Duration::from_secs(30));
        let cancel = CancelToken::new();
        cancel.cancel();
        let start = std::time::Instant::now();
        assert!(matches!(spinner.run_cancellable(&a, &b, &cancel), Err(EngineError::Cancelled)));
        assert!(start.elapsed() < Duration::from_secs(1), "cancellation must be prompt");
    }

    #[test]
    fn spinning_engine_answers_at_its_bound_without_cancellation() {
        let (a, b) = operands();
        let run = SpinningEngine::new(Duration::from_millis(5)).run(&a, &b).unwrap();
        assert_eq!(run.result.rows(), 3);
    }

    #[test]
    fn flaky_engine_recovers_after_budgeted_failures() {
        let (a, b) = operands();
        let flaky = FlakyEngine::new(2);
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| flaky.run(&a, &b))).is_err()
        );
        assert!(matches!(flaky.run(&a, &b), Err(EngineError::Numeric(_))));
        let run = flaky.run(&a, &b).unwrap();
        assert_eq!(run.result.rows(), 3);
        assert_eq!(flaky.calls(), 3);
    }
}
