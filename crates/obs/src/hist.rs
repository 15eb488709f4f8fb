//! Lock-free, fixed-memory, log-bucketed latency histogram.
//!
//! HDR-style layout: values below [`SUBS`] land in unit-wide buckets;
//! above that, each power-of-two octave is split into [`SUBS`] equal
//! sub-buckets, so the bucket width is always ≤ `value / SUBS` and any
//! reported quantile overshoots the true order statistic by at most
//! `1/SUBS` relative error (+1 for the unit-bucket floor). The whole
//! `u64` range maps into [`BUCKETS`] = 1920 buckets (~15 KiB), recorded
//! with relaxed atomics only — no locks, no allocation, no CAS loops on
//! the hot path.

// Serving hot path: no panics outside tests (`assert!`: tests/lint_policy.rs).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::unreachable)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution bits: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (32) — bounds the relative quantile error at
/// `1/SUBS`.
pub const SUBS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUBS as usize;

/// Maps a value to its bucket index. Monotone, total over `u64`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUBS {
        value as usize
    } else {
        // Highest set bit h ≥ SUB_BITS; keep the SUB_BITS bits below it.
        let h = 63 - value.leading_zeros();
        let row = (h - SUB_BITS + 1) as usize;
        let sub = ((value >> (h - SUB_BITS)) & (SUBS - 1)) as usize;
        row * SUBS as usize + sub
    }
}

/// Smallest value mapping to bucket `index`.
#[inline]
pub fn bucket_floor(index: usize) -> u64 {
    let row = index as u64 / SUBS;
    let sub = index as u64 % SUBS;
    if row == 0 {
        sub
    } else {
        (SUBS + sub) << (row - 1)
    }
}

/// Largest value mapping to bucket `index` (saturates at `u64::MAX`).
#[inline]
pub fn bucket_ceil(index: usize) -> u64 {
    let row = index as u64 / SUBS;
    let width = if row == 0 { 1 } else { 1u64 << (row - 1) };
    bucket_floor(index).wrapping_add(width - 1)
}

/// Lock-free latency histogram: fixed memory, relaxed atomics, mergeable.
///
/// `record` is wait-free (three `fetch_add`s and a `fetch_max`, all
/// `Ordering::Relaxed`), so workers and front ends can share one
/// histogram through an `Arc` without contention beyond cache traffic.
/// Quantiles are answered from a [`HistogramSnapshot`]; the recorded
/// true maximum tightens the top bucket's ceiling.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ordering: Relaxed — debug peek at the same monotone counters
        // `record` bumps; exactness is not part of the contract.
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Wait-free; relaxed atomics only.
    #[inline]
    pub fn record(&self, value: u64) {
        // ordering: Relaxed — pairs with the Relaxed loads in `snapshot`
        // / `merge_from` / `count`. Each counter is independently
        // monotone and the readers' contract is explicitly "coherent-
        // enough": no reader infers one counter's value from another, so
        // no ordering between the four RMWs is needed — only atomicity.
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — pairs with `record`'s Relaxed fetch_add;
        // a monotone counter read in isolation needs no ordering.
        self.count.load(Ordering::Relaxed)
    }

    /// Adds every bucket of `other` into `self` (e.g. to aggregate
    /// per-worker histograms). Concurrent recording on either side is
    /// fine; the merge is then a point-in-time-ish view like any other
    /// relaxed read.
    pub fn merge_from(&self, other: &Histogram) {
        // ordering: Relaxed throughout — reads pair with `record`'s
        // Relaxed RMWs on `other`, writes with the readers of `self`;
        // the doc contract above says the merge is a relaxed
        // point-in-time-ish view, same as `snapshot`.
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v != 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        // ordering: Relaxed — same pairing as the bucket loop above.
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Coherent-enough point-in-time copy for quantile queries and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // ordering: Relaxed — pairs with `record`'s Relaxed RMWs.
            // Counters may be mid-update relative to each other;
            // quantile math tolerates that ("coherent-enough" above).
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// One reading of a [`Histogram`]: plain integers, ready for quantile
/// queries, merging, and Prometheus export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (count 0).
    pub fn empty() -> Self {
        Self { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wraps past `u64::MAX`, like the recorder).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest value recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact-rank quantile with bounded relative error.
    ///
    /// Computes rank `max(1, ceil(q·count))` and returns the ceiling of
    /// the bucket holding that order statistic (clamped to the recorded
    /// max). The answer `a` vs the true order statistic `o` satisfies
    /// `o ≤ a ≤ o + o/SUBS + 1` — never an underestimate, and at most
    /// `1/32` relative overshoot. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Element-wise sum of two snapshots (the snapshot-level mirror of
    /// [`Histogram::merge_from`]). Commutative and associative.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(other.buckets.iter())
                .map(|(a, b)| a.wrapping_add(*b))
                .collect(),
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// Occupied buckets as `(floor, ceil, count)`, ascending — the raw
    /// material for Prometheus `_bucket` series.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (bucket_floor(i), bucket_ceil(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_is_a_partition() {
        // Floors strictly increase, each ceiling abuts the next floor, and
        // index() maps both endpoints back to the bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
            assert_eq!(bucket_index(bucket_ceil(i)), i, "ceil of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_ceil(i) + 1, bucket_floor(i + 1), "gap after bucket {i}");
            }
        }
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_ceil(BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUBS {
            h.record(v);
        }
        let snap = h.snapshot();
        for v in 0..SUBS {
            let q = (v + 1) as f64 / SUBS as f64;
            assert_eq!(snap.quantile(q), v, "quantile {q}");
        }
        assert_eq!(snap.max(), SUBS - 1);
        assert_eq!(snap.sum(), SUBS * (SUBS - 1) / 2);
    }

    #[test]
    fn quantile_bounds_hold_on_a_known_set() {
        let h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| i * i * 37 + 5).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let oracle = sorted[rank - 1];
            let got = snap.quantile(q);
            assert!(got >= oracle, "q={q}: {got} < oracle {oracle}");
            assert!(got - oracle <= oracle / SUBS + 1, "q={q}: {got} too far above {oracle}");
        }
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.nonzero_buckets().count(), 0);
    }

    #[test]
    fn merge_from_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        b.record(20);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.max(), 1_000_000);
        assert_eq!(snap.quantile(1.0), 1_000_000);
    }
}
