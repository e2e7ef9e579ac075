//! Verifies that the functional systolic arrays allocate per fold, never
//! per simulated cycle: a weight-stationary GEMM allocates as often at
//! M = 8 as at M = 512 (same K, N, so the same folds), and an
//! output-stationary GEMM as often at K = 8 as at K = 512 (same M, N).
//! The stream length sets the cycle count but not the allocation count.
//!
//! A counting `#[global_allocator]` makes the claim a deterministic count
//! instead of a timing. This file intentionally holds a single `#[test]`:
//! the counter is process-wide, and sibling tests running on other
//! threads would pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sigma_baselines::SystolicSim;
use sigma_matrix::Matrix;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method bumps a counter and forwards its arguments
// unchanged to `System`, which meets the `GlobalAlloc` contract; the
// counter update neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator with
        // `layout`; the caller's `new_size` contract passes through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Minimum heap allocations over five runs of `f`. The counter is
/// process-wide, so the test harness's own thread can add to one run's
/// count; it can never subtract, and `f` allocates the same each run.
fn allocations_of<R>(mut f: impl FnMut() -> R) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            std::hint::black_box(f());
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("five runs")
}

fn operand(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0)
}

#[test]
fn systolic_allocations_do_not_grow_with_the_stream() {
    let sim = SystolicSim::new(8, 8);

    // Weight stationary: K = 20, N = 12 is 3 x 2 folds at any M.
    let b = operand(20, 12);
    let (a_short, a_long) = (operand(8, 20), operand(512, 20));
    let ws_short = allocations_of(|| sim.run_gemm(&a_short, &b));
    let ws_long = allocations_of(|| sim.run_gemm(&a_long, &b));
    assert!(ws_short > 0, "the count must see the result allocation");
    assert_eq!(ws_short, ws_long, "weight-stationary allocations grew with M");

    // Output stationary: M = 12, N = 20 is 2 x 3 folds at any K.
    let (a_short, b_short) = (operand(12, 8), operand(8, 20));
    let (a_long, b_long) = (operand(12, 512), operand(512, 20));
    let os_short = allocations_of(|| sim.run_gemm_output_stationary(&a_short, &b_short));
    let os_long = allocations_of(|| sim.run_gemm_output_stationary(&a_long, &b_long));
    assert!(os_short > 0, "the count must see the result allocation");
    assert_eq!(os_short, os_long, "output-stationary allocations grew with K");
}
