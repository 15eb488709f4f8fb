//! Bit-exact parity of the dispatched `l1_argmin_batch::<f32>` (the AVX2
//! kernel on hosts that have it, the portable loop elsewhere) against the
//! scalar oracle `l1_argmin`, query by query: same winning row, same
//! distance bits. Shapes cover every width up to 17 (the paper's 8 and 9
//! included), row counts that are and are not multiples of the kernel's
//! row and lane blocking, and empty, sub-block and ragged query batches.
//! Values include ties from duplicated rows and coarse grids, signed
//! zeros, infinities, NaN and subnormals.

use pecan_index::{l1_argmin, l1_argmin_batch};
use proptest::prelude::*;

/// Deterministic value stream mixing ordinary, tie-prone and IEEE edge
/// values.
struct Values(u64);

impl Values {
    fn next_u64(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next(&mut self) -> f32 {
        let pick = self.next_u64();
        let unit = (pick >> 40) as f32 / (1u64 << 24) as f32;
        match pick % 64 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            5 => f32::from_bits(1),            // smallest subnormal
            6 => -f32::from_bits(0x007f_ffff), // largest subnormal, negated
            7 => f32::MIN_POSITIVE,
            8 => f32::MAX,
            9..=24 => ((pick >> 8) % 5) as f32 - 2.0, // coarse grid: frequent ties
            _ => unit * 8.0 - 4.0,
        }
    }

    /// `n` values; `clean` leaves out the non-finite ones so most rows
    /// and queries produce ordinary distances.
    fn fill(&mut self, n: usize, clean: bool) -> Vec<f32> {
        (0..n)
            .map(|_| loop {
                let v = self.next();
                if !clean || v.is_finite() {
                    break v;
                }
            })
            .collect()
    }
}

/// `p` rows of width `d` where every fourth row (from the second on)
/// duplicates an earlier one, so exact ties across rows are common.
fn rows_with_duplicates(values: &mut Values, p: usize, d: usize, clean: bool) -> Vec<f32> {
    let mut rows = values.fill(p * d, clean);
    for r in (1..p).step_by(4) {
        let from = (values.next_u64() as usize) % r;
        rows.copy_within(from * d..(from + 1) * d, r * d);
    }
    rows
}

fn assert_bit_exact(rows: &[f32], d: usize, queries: &[f32]) -> Result<(), TestCaseError> {
    let got = l1_argmin_batch(rows, d, queries);
    prop_assert_eq!(got.len(), queries.len() / d);
    for (i, (query, &(row, dist))) in queries.chunks_exact(d).zip(&got).enumerate() {
        let (want_row, want_dist) = l1_argmin(rows, d, query);
        prop_assert!(
            row == want_row && dist.to_bits() == want_dist.to_bits(),
            "p={} d={d} query {i}: got ({row}, {dist:?}) want ({want_row}, {want_dist:?})",
            rows.len() / d
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn dispatched_kernel_is_bit_exact_against_scalar_oracle(
        d in 1usize..18,
        p in 1usize..301,
        q in 0usize..41,
        seed in 0u64..u64::MAX,
        clean in prop::bool::ANY,
    ) {
        let mut values = Values(seed);
        let rows = rows_with_duplicates(&mut values, p, d, clean);
        let queries = values.fill(q * d, clean);
        assert_bit_exact(&rows, d, &queries)?;
    }
}

#[test]
fn every_shape_edge_is_bit_exact() {
    let mut values = Values(12);
    for d in 1..=17 {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 255, 256, 257] {
            for q in [0usize, 1, 7, 8, 9, 16, 17, 40] {
                let rows = rows_with_duplicates(&mut values, p, d, true);
                let queries = values.fill(q * d, true);
                assert_bit_exact(&rows, d, &queries).unwrap();
            }
        }
    }
}

#[test]
fn edge_values_keep_scalar_semantics() {
    // Row 0 is all NaN (never wins), rows 1 and 3 are equal (row 1 wins
    // the tie), row 2 holds infinities, row 4 signed zeros and subnormals.
    let tiny = f32::from_bits(1);
    #[rustfmt::skip]
    let rows = vec![
        f32::NAN, f32::NAN,
        1.0, -1.0,
        f32::INFINITY, f32::NEG_INFINITY,
        1.0, -1.0,
        -0.0, tiny,
    ];
    #[rustfmt::skip]
    let queries = vec![
        1.0, -1.0, // exact hit on the tied rows
        0.0, -tiny, // nearest the signed zeros / subnormal row
        f32::NAN, 0.0, // NaN query: every distance NaN, row 0 keeps +inf
        f32::INFINITY, f32::NEG_INFINITY, // inf - inf = NaN on row 2
        -0.0, -0.0,
    ];
    let got = l1_argmin_batch(&rows, 2, &queries);
    assert_eq!(got[0], (1, 0.0));
    assert_eq!(got[1].0, 4);
    assert_eq!(got[1].1.to_bits(), (2.0 * tiny).to_bits());
    assert_eq!(got[2].0, 0);
    assert_eq!(got[2].1, f32::INFINITY);
    assert_eq!(got[3].0, 0);
    assert_eq!(got[3].1, f32::INFINITY);
    assert_eq!(got[4], (4, tiny));
    let got_bits: Vec<(usize, u32)> = got.iter().map(|&(r, d)| (r, d.to_bits())).collect();
    let oracle: Vec<(usize, u32)> = queries
        .chunks_exact(2)
        .map(|query| {
            let (r, d) = l1_argmin(&rows, 2, query);
            (r, d.to_bits())
        })
        .collect();
    assert_eq!(got_bits, oracle);
}
