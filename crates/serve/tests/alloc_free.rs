//! Allocation-regression tests for the serving hot paths, measured under
//! the counting global allocator ([`pecan_obs::PecanAlloc`]).
//!
//! Two different strengths of claim, matching what the code documents:
//!
//! * **Strictly zero** — `FlightRecorder::record` ("recording … never
//!   allocates", `obs/recorder.rs`). Any allocation is a regression.
//! * **Constant after warm-up** — the scheduler submit path and
//!   `FrozenEngine::infer`. These allocate by design (`submit` creates an
//!   mpsc reply channel per request; `infer` builds fresh column matrices
//!   per stage), so the honest invariant is that the per-call allocation
//!   count does not *grow* once caches and queues are warm — catching
//!   accidental per-request leaks or O(n)-growth bugs without pretending
//!   the paths are allocation-free.
//! * **Independent of batch size** — PECAN-A `FrozenEngine::infer`: the
//!   lane-blocked softmax path reuses its scratch across columns and
//!   groups, so a batch of 32 allocates exactly as often as a batch of 1.
//!
//! The counters are thread-local, so the parallel test harness and the
//! scheduler's own worker threads do not perturb a test's measurement.

use pecan_serve::obs::NO_MODEL;
use pecan_serve::{demo, BatchScheduler, FlightRecorder, SchedulerConfig, TraceRecord};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: pecan_obs::PecanAlloc = pecan_obs::PecanAlloc;

/// Allocations on *this thread* while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let (before, _) = pecan_obs::alloc_counts();
    f();
    let (after, _) = pecan_obs::alloc_counts();
    after - before
}

#[test]
fn flight_recorder_record_is_allocation_free() {
    let recorder = FlightRecorder::new(64);
    let record = TraceRecord {
        id: 1,
        conn_gen: 2,
        model: NO_MODEL,
        status: 200,
        batch_id: 3,
        batch_size: 4,
        queue_us: 5,
        infer_us: 6,
        total_us: 7,
        t_us: 8,
    };
    recorder.record(&record); // warm nothing — there is nothing to warm
    let allocs = allocs_during(|| {
        for i in 0..1_000 {
            recorder.record(&TraceRecord { id: i, ..record });
        }
    });
    assert_eq!(allocs, 0, "FlightRecorder::record allocated {allocs} times over 1000 writes");
    assert_eq!(recorder.recorded(), 1_001);
}

#[test]
fn scheduler_submit_path_allocation_count_is_constant() {
    let engine = Arc::new(demo::mlp_engine(7));
    let input_len = engine.input_len();
    let scheduler = BatchScheduler::start(
        engine,
        SchedulerConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(50),
            queue_capacity: 64,
            workers: 1,
        },
    );

    // Pre-build every input outside the measured regions so the only
    // allocations measured are the submit path's own.
    let mut inputs: Vec<Vec<f32>> = (0..60).map(|_| vec![0.25f32; input_len]).collect();
    let mut predict = |n: usize| {
        for input in inputs.drain(..n) {
            scheduler.predict(input).expect("predict");
        }
    };

    // Warm-up: first predicts pay one-time costs (worker wakeup paths,
    // queue growth, thread-local lazy init in the channel runtime).
    predict(20);
    let first = allocs_during(|| predict(20));
    let second = allocs_during(|| predict(20));
    assert_eq!(
        first, second,
        "submit path allocation count grew across warm batches ({first} → {second})"
    );
    scheduler.shutdown();
}

#[test]
fn steady_state_infer_allocation_count_is_constant() {
    use pecan_core::InferBatch;

    let engine = demo::mlp_engine(7);
    let input_len = engine.input_len();
    // Batches built up front: `infer` consumes its batch, so each call
    // needs a fresh one, and building it must not count against `infer`.
    let mut batches: Vec<InferBatch> = (0..9)
        .map(|_| {
            InferBatch::from_samples(&[vec![0.5f32; input_len]], &[input_len]).expect("batch")
        })
        .collect();
    let mut infer = |n: usize| {
        for batch in batches.drain(..n) {
            std::hint::black_box(engine.infer(batch).expect("infer"));
        }
    };

    infer(3); // warm-up: one-time lazy init inside kernels and pools
    let per_call: Vec<u64> = (0..3).map(|_| allocs_during(|| infer(2)) / 2).collect();
    assert_eq!(
        per_call[0], per_call[1],
        "infer allocation count changed between warm calls: {per_call:?}"
    );
    assert_eq!(
        per_call[1], per_call[2],
        "infer allocation count changed between warm calls: {per_call:?}"
    );
}

/// A small PECAN-A network with one conv layer: conv 1→4 (3×3, pad 1) on
/// 6×6 input, then two linear layers, ReLU between.
fn angle_engine(seed: u64) -> pecan_serve::FrozenEngine {
    use pecan_core::{PecanConv2d, PecanLinear, PecanVariant, PqLayerSettings};
    use pecan_nn::{Flatten, Relu, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Box::new(
        PecanConv2d::new(&mut rng, PecanVariant::Angle, PqLayerSettings::new(8, 9, 1.0), 1, 4, 3, 1, 1)
            .expect("conv"),
    ));
    net.push(Box::new(Relu));
    net.push(Box::new(Flatten));
    net.push(Box::new(
        PecanLinear::new(&mut rng, PecanVariant::Angle, PqLayerSettings::new(8, 4, 1.0), 144, 12)
            .expect("linear"),
    ));
    net.push(Box::new(Relu));
    net.push(Box::new(
        PecanLinear::new(&mut rng, PecanVariant::Angle, PqLayerSettings::new(8, 4, 1.0), 12, 5)
            .expect("linear"),
    ));
    pecan_serve::FrozenEngine::compile(&net, &[1, 6, 6]).expect("compile")
}

#[test]
fn angle_infer_allocation_count_does_not_grow_with_batch_size() {
    use pecan_core::InferBatch;

    let engine = angle_engine(11);
    let input_len = engine.input_len();
    // Batches built up front so building them does not count.
    let batch = |n: usize| {
        let data = (0..n * input_len).map(|i| (i % 17) as f32 / 17.0 - 0.5).collect();
        InferBatch::from_data(data, engine.input_shape(), n).expect("batch")
    };
    let mut batches = vec![batch(1), batch(32), batch(1), batch(32)];
    let mut infer = || {
        let b = batches.remove(0);
        std::hint::black_box(engine.infer(b).expect("infer"));
    };

    infer(); // warm-up at both sizes: one-time lazy init inside kernels
    infer();
    let at_1 = allocs_during(&mut infer);
    let at_32 = allocs_during(&mut infer);
    assert_eq!(
        at_1, at_32,
        "PECAN-A infer allocated {at_1} times at batch 1 but {at_32} at batch 32"
    );
}
