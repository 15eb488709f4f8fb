//! End-to-end Algorithm-1 LUT inference for a whole LeNet-shaped layer
//! stack: PECAN-D float path vs fixed-point integer path vs the dense
//! baseline, plus the PECAN-A (softmax-weighted) float path on the same
//! CONV2 shape. Demonstrates the paper's deployment story at kernel level.
//! `pecan_d_fc_256` is the demo MLP's hidden layer (256→256, p 256, d 8)
//! over 16 columns: 32 table rows of 256 outputs per column, the shape
//! whose cost is the LUT accumulation rather than the CAM scan.

use criterion::{criterion_group, criterion_main, Criterion};
use pecan_cam::fixed::{FixedCam, FixedLut, Quantizer};
use pecan_core::{LayerLut, PecanConv2d, PecanLinear, PecanVariant, PqLayerSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_lut_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let layer = PecanConv2d::new(
        &mut rng,
        PecanVariant::Distance,
        PqLayerSettings::new(16, 9, 0.5),
        8,
        16,
        3,
        1,
        1,
    )
    .expect("layer");
    let engine = LayerLut::from_conv(&layer).expect("engine");
    let xcol = pecan_tensor::uniform(&mut rng, &[72, 121], -1.0, 1.0);
    let weight = layer.weight().to_tensor();
    // Drawn after the PECAN-D inputs, which stay as they were.
    let angle_layer = PecanConv2d::new(
        &mut rng,
        PecanVariant::Angle,
        PqLayerSettings::new(16, 9, 0.5),
        8,
        16,
        3,
        1,
        1,
    )
    .expect("layer");
    let angle_engine = LayerLut::from_conv(&angle_layer).expect("engine");
    // Drawn after every input above, which stay as they were.
    let fc_layer = PecanLinear::new(
        &mut rng,
        PecanVariant::Distance,
        PqLayerSettings::new(256, 8, 0.5),
        256,
        256,
    )
    .expect("layer");
    let fc_engine = LayerLut::from_linear(&fc_layer).expect("engine");
    let fc_cols = pecan_tensor::uniform(&mut rng, &[256, 16], -1.0, 1.0);

    let q = Quantizer::new(12);
    let cams: Vec<FixedCam> = layer
        .codebook()
        .to_tensors()
        .iter()
        .map(|cb| FixedCam::from_tensor(&cb.transpose2().expect("rank 2"), q).expect("cam"))
        .collect();
    let luts: Vec<FixedLut> = engine
        .luts()
        .iter()
        .map(|t| FixedLut::from_tensor(t.table(), q).expect("lut"))
        .collect();
    let d = engine.config().dim();

    let mut group = c.benchmark_group("lut_inference");
    group.sample_size(20);
    group.bench_function("dense_baseline", |b| {
        b.iter(|| black_box(weight.matmul(&xcol).expect("matmul")));
    });
    group.bench_function("pecan_d_float", |b| {
        b.iter(|| black_box(engine.forward_matrix(&xcol, None).expect("forward")));
    });
    group.bench_function("pecan_a_float", |b| {
        b.iter(|| black_box(angle_engine.forward_matrix(&xcol, None).expect("forward")));
    });
    group.bench_function("pecan_d_fc_256", |b| {
        b.iter(|| black_box(fc_engine.forward_matrix(&fc_cols, None).expect("forward")));
    });
    group.bench_function("pecan_d_fixed_point", |b| {
        b.iter(|| {
            let cols = xcol.dims()[1];
            let mut acc = vec![0i64; engine.outputs()];
            let mut out = 0i64;
            for i in 0..cols {
                acc.fill(0);
                for (j, (cam, lut)) in cams.iter().zip(&luts).enumerate() {
                    let query: Vec<i16> =
                        (0..d).map(|k| q.quantize(xcol.get2(j * d + k, i))).collect();
                    let (winner, _) = cam.search(&query).expect("search");
                    lut.accumulate(winner, &mut acc).expect("accumulate");
                }
                out += acc[0];
            }
            black_box(out)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lut_inference);
criterion_main!(benches);
