//! Bit-exact parity of the lane-blocked PECAN-A path in
//! `LayerLut::forward_cols` against a per-column oracle built from the
//! public scalar calls: `DotProductCam::scores_into`, the softmax
//! `exp(s/τ − max(s)/τ) / Σ exp(..)` written out below, and
//! `LookupTable::accumulate_weighted`, one column and one group at a time.
//! Every output must match bit for bit (`to_bits`) and the usage
//! statistics (first maximum of the weights) must be identical.
//!
//! Shapes cover p 1..=64, d 1..=33 and 0..=20 columns, so lane tails and
//! the empty batch occur; τ ∈ {0.1, 0.5, 1, 2}, with and without bias.
//! Inputs include duplicated prototypes (exact score ties), all-zero and
//! signed-zero queries, and large-magnitude queries for which every `exp`
//! but the winners' underflows to 0.

use pecan_cam::{DotProductCam, LookupTable};
use pecan_core::{InferBatch, LayerLut, PecanVariant, UsageStats};
use pecan_pq::PqConfig;
use pecan_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic value stream (splitmix64).
struct Values(u64);

impl Values {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Mostly uniform in `[-2, 2)`, with a coarse grid and signed zeros
    /// mixed in so products and sums tie often.
    fn next(&mut self) -> f32 {
        let pick = self.next_u64();
        match pick % 16 {
            0 => 0.0,
            1 => -0.0,
            2..=4 => ((pick >> 8) % 5) as f32 * 0.5 - 1.0,
            _ => (pick >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0,
        }
    }

    fn fill(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// How the query columns are drawn.
#[derive(Debug, Clone, Copy)]
enum Queries {
    /// Values from [`Values::next`].
    Plain,
    /// Every other column all `±0` (all scores `±0`, uniform weights).
    Zeros,
    /// Values scaled by 1000: the softmax is one-hot up to ties.
    Large,
}

/// A PECAN-A engine with `groups` codebooks of `p` prototypes of width
/// `d`, every fourth prototype (from the second on) a copy of an earlier
/// one, and `[cout, p]` tables.
fn engine(
    values: &mut Values,
    groups: usize,
    p: usize,
    d: usize,
    cout: usize,
    tau: f32,
    bias: bool,
) -> LayerLut {
    let config = PqConfig::for_rows(groups * d, p, d, tau).unwrap();
    let mut cams = Vec::new();
    let mut tables = Vec::new();
    for _ in 0..groups {
        let mut rows = values.fill(p * d);
        for r in (1..p).step_by(4) {
            let from = (values.next_u64() as usize) % r;
            rows.copy_within(from * d..(from + 1) * d, r * d);
        }
        cams.push(Tensor::from_vec(rows, &[p, d]).unwrap());
        tables.push(
            LookupTable::new(Tensor::from_vec(values.fill(cout * p), &[cout, p]).unwrap()).unwrap(),
        );
    }
    let bias = bias.then(|| Tensor::from_vec(values.fill(cout), &[cout]).unwrap());
    LayerLut::from_borrowed_tables(PecanVariant::Angle, config, cams, tables, bias).unwrap()
}

fn queries(values: &mut Values, kind: Queries, features: usize, cols: usize) -> InferBatch {
    let mut data = values.fill(features * cols);
    for (i, column) in data.chunks_exact_mut(features).enumerate() {
        match kind {
            Queries::Plain => {}
            Queries::Zeros if i % 2 == 0 => {
                for (k, v) in column.iter_mut().enumerate() {
                    *v = if k % 3 == 0 { -0.0 } else { 0.0 };
                }
            }
            Queries::Zeros => {}
            Queries::Large => column.iter_mut().for_each(|v| *v *= 1000.0),
        }
    }
    InferBatch::from_data(data, &[features], cols).unwrap()
}

/// The per-column softmax, operation for operation.
fn softmax(scores: &[f32], tau: f32) -> Vec<f32> {
    let mx = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max) / tau;
    let exps: Vec<f32> = scores.iter().map(|&s| (s / tau - mx).exp()).collect();
    let z: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

/// Index of the first maximum.
fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// The per-column oracle: column by column, group by group, through the
/// public scalar calls.
fn oracle(engine: &LayerLut, x: &InferBatch, stats: &mut UsageStats) -> Vec<f32> {
    let config = engine.config();
    let (d, cout) = (config.dim(), engine.outputs());
    let cams: Vec<DotProductCam> = engine
        .cam_rows()
        .into_iter()
        .map(|rows| DotProductCam::new(rows.clone()).unwrap())
        .collect();
    let mut out = vec![0.0f32; x.cols() * cout];
    let mut scores = vec![0.0f32; config.prototypes()];
    for (i, acc) in out.chunks_exact_mut(cout).enumerate() {
        let column = x.col(i);
        if let Some(b) = engine.bias() {
            acc.copy_from_slice(b.data());
        }
        for (j, cam) in cams.iter().enumerate() {
            cam.scores_into(&column[j * d..(j + 1) * d], &mut scores)
                .unwrap();
            let weights = softmax(&scores, config.tau());
            engine.luts()[j].accumulate_weighted(&weights, acc).unwrap();
            stats.record(j, argmax(&weights));
        }
    }
    out
}

fn assert_parity(engine: &LayerLut, x: InferBatch) -> Result<(), TestCaseError> {
    let mut want_stats = engine.new_stats();
    let want = oracle(engine, &x, &mut want_stats);
    let mut got_stats = engine.new_stats();
    let got = engine.forward_cols(x, Some(&mut got_stats)).unwrap();
    prop_assert_eq!(got.data().len(), want.len());
    for (i, (g, w)) in got.data().iter().zip(&want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "output {i} (column {}): got {g:?} want {w:?}",
            i / engine.outputs()
        );
    }
    for j in 0..want_stats.groups() {
        prop_assert_eq!(got_stats.counts(j), want_stats.counts(j));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn lane_blocked_angle_forward_is_bit_exact_against_per_column_oracle(
        p in 1usize..65,
        d in 1usize..34,
        cols in 0usize..21,
        groups in 1usize..4,
        cout in 1usize..10,
        tau in prop::sample::select(vec![0.1f32, 0.5, 1.0, 2.0]),
        bias in prop::bool::ANY,
        kind in prop::sample::select(vec![Queries::Plain, Queries::Zeros, Queries::Large]),
        seed in 0u64..u64::MAX,
    ) {
        let mut values = Values(seed);
        let engine = engine(&mut values, groups, p, d, cout, tau, bias);
        let x = queries(&mut values, kind, groups * d, cols);
        assert_parity(&engine, x)?;
    }
}

#[test]
fn every_shape_edge_is_bit_exact() {
    let mut values = Values(14);
    for p in [1usize, 2, 7, 8, 9, 16, 64] {
        for d in [1usize, 8, 9, 33] {
            for cols in [0usize, 1, 7, 8, 9, 16, 17, 20] {
                for (tau, kind) in [
                    (0.1, Queries::Plain),
                    (1.0, Queries::Zeros),
                    (0.5, Queries::Large),
                ] {
                    let engine = engine(&mut values, 2, p, d, 3, tau, cols % 2 == 0);
                    let x = queries(&mut values, kind, 2 * d, cols);
                    assert_parity(&engine, x).unwrap();
                }
            }
        }
    }
}
