//! CAM prototype-search latency: the hardware primitive of PECAN-D.
//!
//! Two groups:
//!
//! * `cam_l1_search` — the original single-query linear-scan scaling in the
//!   number of stored prototypes `p` and sub-vector width `d`;
//! * `cam_search` — linear vs. indexed ([`PqTableIndex`]) vs. batched
//!   ([`BatchScanner`]) engines from `pecan-index` on the same workload:
//!   256 queries against `p ∈ {128, 512}` prototypes at `d = 32`, with the
//!   prototypes either uniform (worst case for bucketing) or clustered
//!   (the regime trained codebooks live in). Reported times are **per
//!   batch**; all engines return identical winners, so every entry is
//!   directly comparable. Medians also land in `target/bench/*.json` via
//!   the criterion shim's sink for cross-PR regression tracking;
//! * `cam_l1_argmin_batch` — the dispatched [`l1_argmin_batch`] kernel at
//!   the shapes serving runs: `p64_d9_q1352` is one LeNet conv1 group
//!   search for a batch of 2 (676 patches each), `p256_d8_q16` one demo
//!   MLP group search for a batch of 16.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pecan_cam::AnalogCam;
use pecan_index::{
    l1_argmin, l1_argmin_batch, BatchScanner, LinearScan, PqTableIndex, PrototypeIndex,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_cam_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_l1_search");
    group.sample_size(30);

    for &p in &[8usize, 32, 128] {
        for &d in &[9usize, 32] {
            let mut rng = StdRng::seed_from_u64(p as u64 * 100 + d as u64);
            let rows = pecan_tensor::uniform(&mut rng, &[p, d], -1.0, 1.0);
            let cam = AnalogCam::new(rows).expect("cam");
            let query: Vec<f32> = (0..d).map(|i| (i as f32 * 0.13).sin()).collect();
            group.bench_with_input(BenchmarkId::new("search", format!("p{p}_d{d}")), &(), |b, ()| {
                b.iter(|| black_box(cam.search(&query).expect("search")));
            });
        }
    }
    group.finish();
}

/// `p` prototypes of width `d`: uniform noise, or samples around
/// `clusters` centres like a trained codebook.
fn prototypes(p: usize, d: usize, clusters: Option<usize>, rng: &mut StdRng) -> Vec<f32> {
    match clusters {
        None => (0..p * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        Some(n) => {
            let centres: Vec<f32> =
                (0..n * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            (0..p)
                .flat_map(|r| {
                    let c = r % n;
                    (0..d)
                        .map(|k| centres[c * d + k] + rng.gen_range(-0.1f32..0.1))
                        .collect::<Vec<_>>()
                })
                .collect()
        }
    }
}

/// Queries near stored prototypes — im2col features cluster around the
/// codebooks they were trained to match.
fn queries_near(rows: &[f32], d: usize, q: usize, rng: &mut StdRng) -> Vec<f32> {
    let p = rows.len() / d;
    (0..q)
        .flat_map(|i| {
            let anchor = (i * 17) % p;
            (0..d)
                .map(|k| rows[anchor * d + k] + rng.gen_range(-0.15f32..0.15))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_search");
    group.sample_size(30);
    const D: usize = 32;
    const Q: usize = 256;

    for &p in &[128usize, 512] {
        for (regime, clusters) in [("uniform", None), ("clustered", Some(p / 16))] {
            let mut rng = StdRng::seed_from_u64(p as u64);
            let rows = prototypes(p, D, clusters, &mut rng);
            let queries = queries_near(&rows, D, Q, &mut rng);

            let linear = LinearScan::new(rows.clone(), D).expect("linear");
            let table = PqTableIndex::new(rows.clone(), D).expect("pq table");
            let batch = BatchScanner::new(rows, D).expect("batch");
            assert!(!table.is_exhaustive_fallback(), "p={p} should bucket");
            let expect = linear.nearest_batch(&queries).expect("linear batch");
            assert_eq!(table.nearest_batch(&queries).expect("table batch"), expect);
            assert_eq!(batch.nearest_batch(&queries).expect("batch batch"), expect);

            let param = format!("{regime}_p{p}_d{D}_q{Q}");
            group.bench_with_input(
                BenchmarkId::new("linear", &param),
                &(),
                |b, ()| b.iter(|| black_box(linear.nearest_batch(&queries).expect("scan"))),
            );
            group.bench_with_input(
                BenchmarkId::new("pq_table", &param),
                &(),
                |b, ()| b.iter(|| black_box(table.nearest_batch(&queries).expect("probe"))),
            );
            group.bench_with_input(
                BenchmarkId::new("batch", &param),
                &(),
                |b, ()| b.iter(|| black_box(batch.nearest_batch(&queries).expect("block"))),
            );
        }
    }
    group.finish();
}

fn bench_serving_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_l1_argmin_batch");
    group.sample_size(30);
    for (p, d, q) in [(64usize, 9usize, 1352usize), (256, 8, 16)] {
        let mut rng = StdRng::seed_from_u64((p * d) as u64);
        let rows = prototypes(p, d, Some(p / 16), &mut rng);
        let queries = queries_near(&rows, d, q, &mut rng);
        let got = l1_argmin_batch(&rows, d, &queries);
        for (query, &(row, dist)) in queries.chunks_exact(d).zip(&got) {
            let (want_row, want_dist) = l1_argmin(&rows, d, query);
            assert!(row == want_row && dist.to_bits() == want_dist.to_bits());
        }
        group.bench_with_input(
            BenchmarkId::new("f32", format!("p{p}_d{d}_q{q}")),
            &(),
            |b, ()| b.iter(|| black_box(l1_argmin_batch(&rows, d, black_box(&queries)))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cam_search, bench_engines, bench_serving_shapes);
criterion_main!(benches);
