//! `PecanAlloc`: an opt-in counting global allocator.
//!
//! Wraps [`std::alloc::System`] and counts every allocation (and the
//! bytes it requested) in thread-local counters. Installed as the
//! `#[global_allocator]` of a test binary it turns "allocation-free hot
//! path" doc claims into asserted invariants, and span tracing reads the
//! same counters so every span reports how many allocations happened
//! inside it. Without the allocator installed the counters stay at zero,
//! so [`PecanAlloc::is_installed`] tells a true zero from an unknown and
//! trace exports mark the latter as `null`.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pecan_obs::PecanAlloc = pecan_obs::PecanAlloc;
//!
//! let before = pecan_obs::alloc_counts();
//! hot_path();
//! assert_eq!(pecan_obs::alloc_counts().0 - before.0, 0, "hot path allocated");
//! ```
//!
//! Counting is per-thread on purpose: an assertion about *this* thread's
//! hot path must not flake because another thread allocated concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the first allocation that goes through [`PecanAlloc`].
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised `Cell`s have no destructor to register, so these
    // are safe to touch from inside the allocator itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `(allocations, bytes)` requested by the calling thread since it
/// started, as counted by [`PecanAlloc`]. Always `(0, 0)` unless
/// `PecanAlloc` is the process's `#[global_allocator]`.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

fn count(size: usize) {
    // ordering: a standalone flag that publishes no other data; load
    // first so steady-state allocations only read a shared cache line.
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
    BYTES.with(|c| c.set(c.get().wrapping_add(size as u64)));
}

/// Counting allocator: [`System`] plus the thread-local tallies behind
/// [`alloc_counts`]. Zero-sized; install with `#[global_allocator]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PecanAlloc;

impl PecanAlloc {
    /// Whether `PecanAlloc` is the process's `#[global_allocator]`: true
    /// from its first allocation on (every Rust program allocates before
    /// `main`). When false, [`alloc_counts`] is `(0, 0)` because nothing
    /// counts, not because nothing allocated.
    pub fn is_installed() -> bool {
        INSTALLED.load(Ordering::Relaxed)
    }
}

// SAFETY: defers every operation to `System` with the caller's layout
// unchanged; the only addition is thread-local bookkeeping, which cannot
// violate the `GlobalAlloc` contract.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for PecanAlloc {
    // SAFETY: our caller upholds `GlobalAlloc`'s contract for us.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is forwarded unchanged, so `System`'s
        // preconditions are exactly our caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: our caller upholds `GlobalAlloc`'s contract for us.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: our caller upholds `GlobalAlloc`'s contract for us.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are forwarded unchanged; `ptr` came from
        // `System` because every allocating method here delegates to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: our caller upholds `GlobalAlloc`'s contract for us.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh allocation from the hot path's point of
        // view: growing a Vec you promised not to grow must be caught.
        count(new_size);
        // SAFETY: arguments forwarded unchanged to the allocator that
        // produced `ptr`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
