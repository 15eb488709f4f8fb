//! Order statistics for latency samples: nearest-rank percentiles, the
//! median, and the tail rule (the highest percentile that still has at
//! least ten samples beyond it).

/// Least number of samples that must lie beyond a reported tail
/// percentile for it to count as measured rather than as one outlier.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [(&str, f64); 4] =
    [("p999", 0.999), ("p99", 0.99), ("p90", 0.90), ("p50", 0.50)];

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of unsorted values: the mean of the two middle values for an
/// even count (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// `"p999"`, `"p99"`, `"p90"` or `"p50"`.
    pub label: &'static str,
    /// The percentile as a fraction.
    pub q: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked beyond it, over an ascending slice. `None` when there are too
/// few samples for even the median to qualify.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&(label, q)| {
        if n == 0 {
            return None;
        }
        let beyond = n - rank(n, q);
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            label,
            q,
            value: sorted[rank(n, q) - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // 10 000 samples: p999 has exactly 10 beyond it.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.label, t.beyond, t.value), ("p999", 10, 9990.0));
        // One sample fewer: p999 would have 9 beyond, so p99 wins.
        let t = tail(&ramp(9_999)).unwrap();
        assert_eq!((t.label, t.beyond), ("p99", 99));
        // 1 000 samples: p99 has exactly 10 beyond.
        let t = tail(&ramp(1_000)).unwrap();
        assert_eq!((t.label, t.beyond, t.value), ("p99", 10, 990.0));
        // 300 samples: p99 has 3 beyond, p90 has 30.
        assert_eq!(tail(&ramp(300)).unwrap().label, "p90");
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&ramp(20)).unwrap().label, "p50");
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
