//! Reading the server's Prometheus page (`GET /metrics`) and its `/stats`
//! JSON from outside: single samples, whole histograms, and the
//! difference of two scrapes taken around a timed phase.

/// One `name{labels} value` line of a scrape.
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A parsed `/metrics` page.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
}

/// A Prometheus histogram: cumulative counts at ascending finite upper
/// bounds (`le`), plus its sum and count. The page lists only non-empty
/// buckets, so a bound missing from one scrape is not an error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `(le, cumulative count)`, ascending in `le`, `+Inf` excluded.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of observed values, in the page's unit.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

fn parse_labels(text: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let end = after.find('"')?;
        labels.push((key.trim_start_matches(',').to_string(), after[..end].to_string()));
        rest = after[end + 1..].trim_start_matches(',');
    }
    Some(labels)
}

impl Scrape {
    /// Parses an exposition page; comment and malformed lines are skipped.
    pub fn parse(text: &str) -> Scrape {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((head, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            let (name, labels) = match head.split_once('{') {
                Some((name, rest)) => match rest.strip_suffix('}').and_then(parse_labels) {
                    Some(labels) => (name, labels),
                    None => continue,
                },
                None => (head, Vec::new()),
            };
            samples.push(Sample { name: name.to_string(), labels, value });
        }
        Scrape { samples }
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }

    /// The first sample of `name` whose labels include all of `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.matching(name, labels).next().map(|s| s.value)
    }

    /// Sum of every sample of `name` whose labels include `labels`.
    pub fn sum_all(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.matching(name, labels).map(|s| s.value).sum()
    }

    /// The histogram family `name` restricted to `labels` (an empty
    /// histogram when the page has none).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
        let bucket = format!("{name}_bucket");
        let mut buckets: Vec<(f64, u64)> = self
            .matching(&bucket, labels)
            .filter_map(|s| {
                let le = s.labels.iter().find(|(k, _)| k == "le")?.1.as_str();
                let le: f64 = le.parse().ok()?;
                le.is_finite().then_some((le, s.value as u64))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Hist {
            buckets,
            sum: self.value(&format!("{name}_sum"), labels).unwrap_or(0.0),
            count: self.value(&format!("{name}_count"), labels).unwrap_or(0.0) as u64,
        }
    }
}

impl Hist {
    /// Cumulative count at upper bound `le`: that of the largest listed
    /// bound not above it (buckets the page omits were empty).
    pub fn cumulative_at(&self, le: f64) -> u64 {
        self.buckets.iter().take_while(|(b, _)| *b <= le).last().map_or(0, |&(_, c)| c)
    }

    /// Observations made between the scrape `before` and this one.
    pub fn since(&self, before: &Hist) -> Hist {
        let mut bounds: Vec<f64> =
            self.buckets.iter().chain(&before.buckets).map(|&(le, _)| le).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let mut buckets = Vec::new();
        let mut last = 0;
        for le in bounds {
            let c = self.cumulative_at(le).saturating_sub(before.cumulative_at(le));
            if c != last {
                buckets.push((le, c));
                last = c;
            }
        }
        Hist {
            buckets,
            sum: self.sum - before.sum,
            count: self.count.saturating_sub(before.count),
        }
    }

    /// Upper bound of the bucket holding the nearest-rank `q` quantile
    /// (`NaN` when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        self.buckets
            .iter()
            .find(|&&(_, c)| c >= rank)
            .or(self.buckets.last())
            .map_or(f64::NAN, |&(le, _)| le)
    }

    /// Mean observation (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// `(upper bound, count in that bucket)` pairs, non-cumulative.
    pub fn counts(&self) -> Vec<(f64, u64)> {
        let mut prev = 0;
        self.buckets
            .iter()
            .map(|&(le, c)| {
                let n = c - prev.min(c);
                prev = c;
                (le, n)
            })
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// Reads `"key":<number>` from a flat or nested JSON object: the first
/// occurrence after the optional `within` key (e.g. `"connections"`).
pub fn json_number(json: &str, within: Option<&str>, key: &str) -> Option<f64> {
    let scope = match within {
        Some(w) => &json[json.find(&format!("\"{w}\""))?..],
        None => json,
    };
    let at = scope.find(&format!("\"{key}\":"))? + key.len() + 3;
    let text = &scope[at..];
    let end = text.find([',', '}']).unwrap_or(text.len());
    text[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP pecan_batch_size Requests per executed batch.
# TYPE pecan_batch_size histogram
pecan_batch_size_bucket{model=\"mlp\",le=\"1\"} 4
pecan_batch_size_bucket{model=\"mlp\",le=\"16\"} 10
pecan_batch_size_bucket{model=\"mlp\",le=\"+Inf\"} 10
pecan_batch_size_sum{model=\"mlp\"} 94
pecan_batch_size_count{model=\"mlp\"} 10
pecan_batches_total{model=\"mlp\"} 10
pecan_stage_latency_seconds_sum{model=\"mlp\",stage=\"relu\"} 0.5
";

    const AFTER: &str = "\
pecan_batch_size_bucket{model=\"mlp\",le=\"1\"} 4
pecan_batch_size_bucket{model=\"mlp\",le=\"8\"} 6
pecan_batch_size_bucket{model=\"mlp\",le=\"16\"} 30
pecan_batch_size_bucket{model=\"mlp\",le=\"+Inf\"} 30
pecan_batch_size_sum{model=\"mlp\"} 424
pecan_batch_size_count{model=\"mlp\"} 30
pecan_batches_total{model=\"mlp\"} 30
pecan_stage_latency_seconds_sum{model=\"mlp\",stage=\"relu\"} 0.75
pecan_stage_latency_seconds_sum{model=\"mlp\",stage=\"lut-linear\"} 2
pecan_timeouts_total 0
";

    #[test]
    fn parses_samples_with_and_without_labels() {
        let s = Scrape::parse(AFTER);
        assert_eq!(s.value("pecan_batches_total", &[("model", "mlp")]), Some(30.0));
        assert_eq!(s.value("pecan_timeouts_total", &[]), Some(0.0));
        assert_eq!(s.value("pecan_batches_total", &[("model", "lenet")]), None);
        assert_eq!(s.sum_all("pecan_stage_latency_seconds_sum", &[("model", "mlp")]), 2.75);
    }

    #[test]
    fn histogram_difference_handles_buckets_missing_from_either_scrape() {
        let m = [("model", "mlp")];
        let before = Scrape::parse(BEFORE).histogram("pecan_batch_size", &m);
        let after = Scrape::parse(AFTER).histogram("pecan_batch_size", &m);
        assert_eq!(before.buckets, vec![(1.0, 4), (16.0, 10)]);
        // The `le=8` bucket is new in the second scrape: its cumulative
        // count before is that of `le=1`.
        assert_eq!(before.cumulative_at(8.0), 4);
        let d = after.since(&before);
        // No new size-1 batches, 2 of size ≤8, 18 of size ≤16.
        assert_eq!(d.buckets, vec![(8.0, 2), (16.0, 20)]);
        assert_eq!(d.counts(), vec![(8.0, 2), (16.0, 18)]);
        assert_eq!((d.count, d.sum), (20, 330.0));
        assert_eq!(d.mean(), 16.5);
        assert_eq!(d.quantile(0.5), 16.0);
        assert_eq!(d.quantile(0.1), 8.0);
        assert!(Hist::default().quantile(0.5).is_nan());
    }

    #[test]
    fn json_numbers_inside_nested_objects() {
        let j = "{\"default\":\"mlp\",\"connections\":{\"timeouts\":3,\"shed_requests\":7},\
                 \"models\":{\"mlp\":{\"rejected\":1,\"failed\":0}}}";
        assert_eq!(json_number(j, Some("connections"), "shed_requests"), Some(7.0));
        assert_eq!(json_number(j, Some("models"), "rejected"), Some(1.0));
        assert_eq!(json_number(j, None, "timeouts"), Some(3.0));
        assert_eq!(json_number(j, None, "missing"), None);
    }
}
