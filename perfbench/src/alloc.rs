//! A counting global allocator for the benchmark binary.
//!
//! Each thread counts its own allocations, zeroed allocations and
//! reallocations, and its net heap bytes; the calls themselves go to the
//! system allocator unchanged. Reading a thread's count around a call
//! gives that call's exact allocation count. A thread publishes its net
//! bytes to the process-wide total only once they reach `FLUSH_BYTES`,
//! so threads allocating at once do not contend on one cache line (which
//! slowed the two-thread sweeps 2x when every call updated shared
//! counters); the heap high-water mark is therefore exact to within
//! `FLUSH_BYTES` per live thread. A thread publishes its remainder when
//! it exits, so threads that come and go leave no drift behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

struct CountingAllocator;

const FLUSH_BYTES: i64 = 16 * 1024;

/// A thread's exit flush: not yet armed, being armed, armed, done.
const UNARMED: u8 = 0;
const ARMING: u8 = 1;
const ARMED: u8 = 2;
const EXITED: u8 = 3;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static UNPUBLISHED: Cell<i64> = const { Cell::new(0) };
    static EXIT_FLUSH: Cell<u8> = const { Cell::new(UNARMED) };
    /// Its destructor publishes the thread's remainder at thread exit.
    static FLUSH_ON_EXIT: FlushOnExit = const { FlushOnExit };
}

struct FlushOnExit;

impl Drop for FlushOnExit {
    fn drop(&mut self) {
        let _ = EXIT_FLUSH.try_with(|state| state.set(EXITED));
        let _ = UNPUBLISHED.try_with(|u| publish(u.replace(0)));
    }
}

// The statistics below publish no other data, so relaxed atomics suffice.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn publish(bytes: i64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Arms the calling thread's exit flush on its first heap call. Arming
/// registers a destructor, which may itself allocate; those nested calls
/// see `ARMING` and only count, so they do not recurse.
fn exit_flush_state() -> u8 {
    let state = EXIT_FLUSH.try_with(Cell::get).unwrap_or(EXITED);
    if state != UNARMED {
        return state;
    }
    EXIT_FLUSH.set(ARMING);
    let armed = FLUSH_ON_EXIT.try_with(|_| ()).is_ok();
    let state = if armed { ARMED } else { EXITED };
    EXIT_FLUSH.set(state);
    state
}

/// Records a heap change of `bytes` (and one call when `counted`).
fn note(bytes: i64, counted: bool) {
    if counted {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    // After its exit flush a thread publishes every change at once.
    if exit_flush_state() == EXITED {
        publish(bytes);
        return;
    }
    let local = UNPUBLISHED.try_with(|u| {
        let pending = u.get() + bytes;
        if pending.abs() >= FLUSH_BYTES {
            u.set(0);
            publish(pending);
        } else {
            u.set(pending);
        }
    });
    if local.is_err() {
        publish(bytes);
    }
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are
// updates of const-initialised thread-local cells and relaxed static
// counters, which touch no memory the allocator hands out, and once per
// thread the registration of `FLUSH_ON_EXIT`'s destructor, whose own
// heap calls re-enter here only to count (see `exit_flush_state`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc` pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        note(if ptr.is_null() { 0 } else { size(layout.size()) }, true);
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-size(layout.size()), false);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        note(if ptr.is_null() { 0 } else { size(layout.size()) }, true);
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` describe a block from `System`, and
        // `new_size` is valid, as the caller guarantees.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        let change = if new.is_null() { 0 } else { size(new_size) - size(layout.size()) };
        note(change, true);
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The most bytes the process has held on the heap at once, to within
/// `FLUSH_BYTES` per live thread.
pub fn peak_heap_bytes() -> u64 {
    u64::try_from(PEAK_BYTES.load(Ordering::Relaxed)).unwrap_or(0)
}
