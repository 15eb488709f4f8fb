//! Allocation-regression tests for the observability primitives
//! themselves, run under the counting allocator.
//!
//! `hist.rs` documents `Histogram::record` as allocation-free and the
//! span substrate promises a recorded span costs no heap after its
//! thread's ring exists; with [`PecanAlloc`] installed as the global
//! allocator those claims become asserted invariants.

use pecan_obs::{alloc_counts, Histogram, PecanAlloc};

#[global_allocator]
static ALLOC: PecanAlloc = PecanAlloc;

/// Allocations on this thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = alloc_counts().0;
    f();
    alloc_counts().0 - before
}

#[test]
fn histogram_record_is_allocation_free() {
    let hist = Histogram::new();
    hist.record(1); // touch any lazy paths before counting
    let n = allocs_during(|| {
        for v in 0..10_000u64 {
            hist.record(v * 37);
        }
    });
    assert_eq!(n, 0, "Histogram::record allocated {n} times");
}

#[test]
fn histogram_merge_and_snapshot_do_allocate_but_record_stays_clean() {
    // Guard against the counter itself being dead: snapshot allocates.
    let hist = Histogram::new();
    hist.record(42);
    assert!(
        allocs_during(|| {
            std::hint::black_box(hist.snapshot());
        }) > 0
    );
}

#[test]
fn span_recording_is_allocation_free_after_ring_claim() {
    pecan_obs::set_tracing(true);
    // First span claims this thread's ring (allocates once); the steady
    // state must be clean.
    {
        let _warm = pecan_obs::span("alloc_test.warm");
    }
    let n = allocs_during(|| {
        for _ in 0..1_000 {
            let _s = pecan_obs::span_with_id("alloc_test.steady", 7);
        }
    });
    pecan_obs::set_tracing(false);
    assert_eq!(n, 0, "span record allocated {n} times after warm-up");
    // Counted allocations export as numbers, never as unknown.
    assert!(PecanAlloc::is_installed());
    let json = pecan_obs::dump_all_json();
    assert!(json.contains("alloc_test.steady"));
    assert!(!json.contains("\"allocs\":null"));
}

#[test]
fn disabled_span_is_allocation_free_from_the_first_call() {
    pecan_obs::set_tracing(false);
    let n = allocs_during(|| {
        for _ in 0..1_000 {
            let _s = pecan_obs::span("alloc_test.disabled");
        }
    });
    assert_eq!(n, 0, "disabled span allocated {n} times");
}
