//! Property-based tests for the CAM simulator.

use pecan_cam::fixed::{FixedCam, Quantizer};
use pecan_cam::{AnalogCam, CostModel, LookupTable, OpCounts};
use pecan_index::{BatchScanner, LinearScan, PqTableIndex, PrototypeIndex};
use pecan_tensor::Tensor;
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).expect("sized by construction"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analog_search_winner_dominates_all_rows(
        rows in matrix(6, 4),
        query in proptest::collection::vec(-4.0f32..4.0, 4),
    ) {
        let cam = AnalogCam::new(rows.clone()).unwrap();
        let hit = cam.search(&query).unwrap();
        let dist = |r: usize| -> f32 {
            rows.row(r).iter().zip(&query).map(|(&a, &b)| (a - b).abs()).sum()
        };
        for r in 0..6 {
            prop_assert!(dist(hit.row) <= dist(r) + 1e-4);
        }
        prop_assert!((hit.score + dist(hit.row)).abs() < 1e-4);
    }

    #[test]
    fn storing_query_as_row_makes_it_the_winner(
        rows in matrix(5, 3),
        row_idx in 0usize..5,
    ) {
        let cam = AnalogCam::new(rows.clone()).unwrap();
        let query: Vec<f32> = rows.row(row_idx).to_vec();
        let hit = cam.search(&query).unwrap();
        // the stored copy has distance 0; any winner must also be at 0
        prop_assert!(hit.score.abs() < 1e-5);
    }

    #[test]
    fn fixed_cam_agrees_with_float_cam_given_margin(
        rows in matrix(4, 5),
        query in proptest::collection::vec(-4.0f32..4.0, 5),
    ) {
        let float_cam = AnalogCam::new(rows.clone()).unwrap();
        let q = Quantizer::new(10);
        let fixed_cam = FixedCam::from_tensor(&rows, q).unwrap();
        let fq: Vec<i16> = query.iter().map(|&v| q.quantize(v)).collect();
        let float_hit = float_cam.search(&query).unwrap();
        let (fixed_row, _) = fixed_cam.search(&fq).unwrap();
        if fixed_row != float_hit.row {
            // disagreement is only legitimate within quantization slack
            let dist = |r: usize| -> f32 {
                rows.row(r).iter().zip(&query).map(|(&a, &b)| (a - b).abs()).sum()
            };
            let slack = 5.0 * 2.0 / 1024.0 * 5.0; // d · 2ε per element, generous
            prop_assert!((dist(fixed_row) - dist(float_hit.row)).abs() < slack);
        }
    }

    #[test]
    fn index_engines_match_noise_free_analog_cam(
        rows in matrix(24, 6),
        queries in proptest::collection::vec(-4.0f32..4.0, 6 * 11),
    ) {
        // The pecan-index engines must agree with the CAM simulator's own
        // search exactly: same winning rows, and scores that are the
        // negated distances bit-for-bit.
        let cam = AnalogCam::new(rows.clone()).unwrap();
        let linear = LinearScan::from_tensor(&rows).unwrap();
        let batch = BatchScanner::from_tensor(&rows).unwrap();
        let table = PqTableIndex::from_tensor(&rows).unwrap();
        let batched = cam.search_batch(&queries).unwrap();
        for (i, query) in queries.chunks_exact(6).enumerate() {
            let hit = cam.search(query).unwrap();
            for engine in [
                linear.nearest(query).unwrap(),
                batch.nearest(query).unwrap(),
                table.nearest(query).unwrap(),
            ] {
                prop_assert_eq!(engine.row, hit.row);
                prop_assert_eq!(-engine.distance, hit.score);
            }
            prop_assert_eq!(&batched[i], &hit);
        }
    }

    #[test]
    fn lut_weighted_read_equals_matvec(table in matrix(3, 4), w in proptest::collection::vec(0.0f32..1.0, 4)) {
        let lut = LookupTable::new(table.clone()).unwrap();
        let mut acc = vec![0.0f32; 3];
        lut.accumulate_weighted(&w, &mut acc).unwrap();
        for o in 0..3 {
            let expect: f32 = (0..4).map(|m| w[m] * table.get2(o, m)).sum();
            prop_assert!((acc[o] - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn lut_prune_preserves_kept_columns(table in matrix(2, 6), keep in proptest::collection::vec(0usize..6, 1..6)) {
        let lut = LookupTable::new(table.clone()).unwrap();
        let pruned = lut.prune(&keep).unwrap();
        prop_assert_eq!(pruned.entries(), keep.len());
        for (new_m, &old_m) in keep.iter().enumerate() {
            let mut a = vec![0.0f32; 2];
            let mut b = vec![0.0f32; 2];
            lut.accumulate_column(old_m, &mut a).unwrap();
            pruned.accumulate_column(new_m, &mut b).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// The prototype-major store is invisible through the `[cout, p]`
    /// API: the view returns the input bit for bit, and both reads equal
    /// a reference indexed `(output, entry)` on that input, bit for bit,
    /// in the historical operation order. `cout` reaches past one
    /// 64-output block of the weighted read.
    #[test]
    fn lut_layout_is_invisible_through_the_cout_p_api(
        cout in 1usize..140,
        p in 1usize..10,
        values in proptest::collection::vec(-4.0f32..4.0, 140 * 10),
        weights in proptest::collection::vec(0.0f32..1.0, 10),
        seed_acc in proptest::collection::vec(-4.0f32..4.0, 140),
        entry in 0usize..10,
    ) {
        let t = Tensor::from_vec(values[..cout * p].to_vec(), &[cout, p]).unwrap();
        let (w, entry) = (&weights[..p], entry % p);
        let lut = LookupTable::new(t.clone()).unwrap();
        prop_assert_eq!((lut.outputs(), lut.entries()), (cout, p));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(lut.table().data()), bits(t.data()));

        let mut got = seed_acc[..cout].to_vec();
        lut.accumulate_column(entry, &mut got).unwrap();
        let want: Vec<f32> =
            (0..cout).map(|o| seed_acc[o] + t.get2(o, entry)).collect();
        prop_assert_eq!(bits(&got), bits(&want));

        let mut got = seed_acc[..cout].to_vec();
        lut.accumulate_weighted(w, &mut got).unwrap();
        let want: Vec<f32> = (0..cout)
            .map(|o| {
                let mut s = 0.0f32;
                for m in 0..p {
                    s += w[m] * t.get2(o, m);
                }
                seed_acc[o] + s
            })
            .collect();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Equality compares the products only: building the cached
    /// `[cout, p]` view on one side changes nothing.
    #[test]
    fn lut_equality_ignores_the_cached_view(table in matrix(3, 5), other in matrix(3, 5)) {
        let a = LookupTable::new(table.clone()).unwrap();
        let b = LookupTable::new(table.clone()).unwrap();
        prop_assert!(a == b);
        let _ = b.table();
        prop_assert!(a == b);
        prop_assert!(a.clone() == b.clone());
        let rows = LookupTable::from_prototype_rows(a.prototype_rows().clone()).unwrap();
        prop_assert!(rows == b);
        prop_assert_eq!(LookupTable::new(other.clone()).unwrap() == a, other == table);
    }

    /// Pruning selects prototype rows, which is the old column selection
    /// of the `[cout, p]` table.
    #[test]
    fn lut_prune_matches_column_selection(
        table in matrix(4, 6),
        keep in proptest::collection::vec(0usize..6, 1..8),
    ) {
        let pruned = LookupTable::new(table.clone()).unwrap().prune(&keep).unwrap();
        let view = pruned.table();
        prop_assert_eq!(view.dims(), &[4, keep.len()][..]);
        for o in 0..4 {
            for (new_m, &old_m) in keep.iter().enumerate() {
                prop_assert_eq!(view.get2(o, new_m).to_bits(), table.get2(o, old_m).to_bits());
            }
        }
    }

    #[test]
    fn cost_model_is_linear_in_ops(adds in 0u64..1_000_000, muls in 0u64..1_000_000) {
        let m = CostModel::via_nano();
        let ops = OpCounts::new(adds, muls);
        let doubled = ops.scaled(2);
        prop_assert_eq!(m.cycles(&doubled), 2 * m.cycles(&ops));
        prop_assert!((m.energy(&doubled) - 2.0 * m.energy(&ops)).abs() < 1e-6);
        // multiplier-free computations are always cheaper than MAC-parity ones
        let mac = OpCounts::mac(adds + muls);
        let add_only = OpCounts::new(adds + muls, 0);
        prop_assert!(m.energy(&add_only) <= m.energy(&mac));
    }
}
