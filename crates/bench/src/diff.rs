//! Bench-regression differ: compares two directories of the criterion
//! shim's `target/bench/*.json` records and flags median regressions.
//!
//! This is the library half of the `bench-diff` binary (see
//! `crates/bench/README.md` for the CLI). Parsing is hand-rolled for the
//! shim's fixed record shape — the workspace is offline and carries no
//! serde, and the shim is the only producer of these files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Median wall-clock per benchmark id, keyed by the bench's full name
/// (`group/function/param`), as loaded from one JSON directory.
pub type Medians = BTreeMap<String, u128>;

/// Extracts the string value of `"key": "…"` from a shim JSON record,
/// undoing the shim's `\\` / `\"` escaping.
fn string_field(json: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = json.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = json[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            other => out.push(other),
        }
    }
    None
}

/// Extracts the integer value of `"key": n` from a shim JSON record.
fn int_field(json: &str, key: &str) -> Option<u128> {
    let marker = format!("\"{key}\": ");
    let start = json.find(&marker)? + marker.len();
    let digits: String = json[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parses one shim record into `(name, median_ns)`.
pub fn parse_record(json: &str) -> Option<(String, u128)> {
    Some((string_field(json, "name")?, int_field(json, "median_ns")?))
}

/// Loads every `*.json` record in `dir`.
///
/// Files that fail to parse are skipped with a warning on stderr — a
/// half-written record from an interrupted bench run should not wedge CI.
///
/// # Errors
///
/// Returns [`io::Error`] when `dir` cannot be read at all.
pub fn load_dir(dir: &Path) -> io::Result<Medians> {
    let mut medians = Medians::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension() != Some(std::ffi::OsStr::new("json")) {
            continue;
        }
        match fs::read_to_string(&path).ok().as_deref().and_then(parse_record) {
            Some((name, median)) => {
                medians.insert(name, median);
            }
            None => {
                pecan_obs::log_warn!("bench::diff", "skipping unparseable record", path = path.display());
            }
        }
    }
    Ok(medians)
}

/// Verdict for one benchmark present in either directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold either way.
    Ok,
    /// Median grew beyond the threshold — the gating condition.
    Regressed,
    /// Median shrank beyond the threshold.
    Improved,
    /// Only in the current run (new benchmark).
    New,
    /// Only in the baseline (removed or not smoke-run anymore).
    Missing,
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Full benchmark id.
    pub name: String,
    /// Baseline median in nanoseconds, when present.
    pub baseline_ns: Option<u128>,
    /// Current median in nanoseconds, when present.
    pub current_ns: Option<u128>,
    /// Relative change in percent (`+` = slower), when both sides exist.
    pub delta_pct: Option<f64>,
    /// Classification at the configured threshold.
    pub verdict: Verdict,
}

/// Compares two median maps at a symmetric `threshold_pct`.
///
/// Rows come back sorted by name; `New` / `Missing` rows never gate (the
/// smoke set is allowed to grow and shrink), only `Regressed` does — see
/// [`regressions`].
pub fn diff(baseline: &Medians, current: &Medians, threshold_pct: f64) -> Vec<Row> {
    let mut names: Vec<&String> = baseline.keys().chain(current.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let b = baseline.get(name).copied();
            let c = current.get(name).copied();
            let (delta_pct, verdict) = match (b, c) {
                (Some(b), Some(c)) => {
                    let delta = if b == 0 {
                        if c == 0 {
                            0.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        (c as f64 - b as f64) / b as f64 * 100.0
                    };
                    let verdict = if delta > threshold_pct {
                        Verdict::Regressed
                    } else if delta < -threshold_pct {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    };
                    (Some(delta), verdict)
                }
                (None, Some(_)) => (None, Verdict::New),
                (Some(_), None) => (None, Verdict::Missing),
                (None, None) => unreachable!("name came from one of the maps"),
            };
            Row { name: name.clone(), baseline_ns: b, current_ns: c, delta_pct, verdict }
        })
        .collect()
}

/// Names of the rows that gate (verdict [`Verdict::Regressed`]).
pub fn regressions(rows: &[Row]) -> Vec<&str> {
    rows.iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .map(|r| r.name.as_str())
        .collect()
}

fn fmt_ns(ns: Option<u128>) -> String {
    match ns {
        None => "—".into(),
        Some(ns) if ns < 1_000 => format!("{ns} ns"),
        Some(ns) if ns < 1_000_000 => format!("{:.2} µs", ns as f64 / 1e3),
        Some(ns) if ns < 1_000_000_000 => format!("{:.2} ms", ns as f64 / 1e6),
        Some(ns) => format!("{:.2} s", ns as f64 / 1e9),
    }
}

/// Renders the comparison as a markdown table (one row per benchmark).
pub fn render_table(rows: &[Row]) -> String {
    let mut s = String::from("| benchmark | baseline | current | Δ median | verdict |\n|---|---|---|---|---|\n");
    for row in rows {
        let delta = row
            .delta_pct
            .map(|d| format!("{d:+.1}%"))
            .unwrap_or_else(|| "—".into());
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "**REGRESSED**",
            Verdict::Improved => "improved",
            Verdict::New => "new",
            Verdict::Missing => "missing",
        };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} |",
            row.name,
            fmt_ns(row.baseline_ns),
            fmt_ns(row.current_ns),
            delta,
            verdict,
        );
    }
    s
}

/// Renders the comparison as a JSON array — the same rows as
/// [`render_table`], machine-readable for CI annotations and dashboards.
/// Nulls stand in for absent sides (`new` / `missing` rows) and the
/// verdict is the lowercase name of the [`Verdict`] variant.
pub fn render_json(rows: &[Row]) -> String {
    let mut s = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let fmt_opt = |ns: Option<u128>| ns.map_or("null".into(), |ns| ns.to_string());
        let delta = row.delta_pct.map_or("null".into(), |d| {
            if d.is_finite() {
                format!("{d:.3}")
            } else {
                // A 0 → n regression has no finite percentage; JSON has no
                // Infinity literal, so emit null and let the verdict carry it.
                "null".into()
            }
        });
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::New => "new",
            Verdict::Missing => "missing",
        };
        let _ = write!(
            s,
            "  {{\"name\": \"{}\", \"baseline_ns\": {}, \"current_ns\": {}, \"delta_pct\": {}, \"verdict\": \"{}\"}}",
            escape_json(&row.name),
            fmt_opt(row.baseline_ns),
            fmt_opt(row.current_ns),
            delta,
            verdict,
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    s
}

/// Minimal JSON string escaping for bench names (quotes, backslashes,
/// control characters — names are shim-generated so this is belt and
/// braces, not a general-purpose encoder).
fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medians(pairs: &[(&str, u128)]) -> Medians {
        pairs.iter().map(|&(n, m)| (n.to_string(), m)).collect()
    }

    #[test]
    fn parses_the_criterion_shim_record_shape() {
        let json = "{\n  \"name\": \"matmul/packed_t4/256 \\\"q\\\"\",\n  \"median_ns\": 123456,\n  \"min_ns\": 1,\n  \"max_ns\": 2,\n  \"samples\": 10,\n  \"iters_per_sample\": 3\n}\n";
        let (name, median) = parse_record(json).expect("parses");
        assert_eq!(name, "matmul/packed_t4/256 \"q\"");
        assert_eq!(median, 123_456);
        assert!(parse_record("{\"median_ns\": 5}").is_none());
        assert!(parse_record("not json at all").is_none());
    }

    #[test]
    fn classifies_at_the_threshold() {
        let base = medians(&[("a", 1_000), ("b", 1_000), ("c", 1_000), ("gone", 50)]);
        let cur = medians(&[("a", 1_150), ("b", 1_600), ("c", 400), ("fresh", 10)]);
        let rows = diff(&base, &cur, 20.0);
        let verdict = |name: &str| rows.iter().find(|r| r.name == name).unwrap().verdict;
        assert_eq!(verdict("a"), Verdict::Ok); // +15% within threshold
        assert_eq!(verdict("b"), Verdict::Regressed); // +60%
        assert_eq!(verdict("c"), Verdict::Improved); // −60%
        assert_eq!(verdict("fresh"), Verdict::New);
        assert_eq!(verdict("gone"), Verdict::Missing);
        assert_eq!(regressions(&rows), vec!["b"]);
    }

    #[test]
    fn zero_baseline_regresses_only_when_current_nonzero() {
        let rows = diff(&medians(&[("z", 0)]), &medians(&[("z", 5)]), 20.0);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        let rows = diff(&medians(&[("z", 0)]), &medians(&[("z", 0)]), 20.0);
        assert_eq!(rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn table_renders_every_row_with_units() {
        let base = medians(&[("k", 2_500_000)]);
        let cur = medians(&[("k", 4_000_000)]);
        let rows = diff(&base, &cur, 20.0);
        let table = render_table(&rows);
        assert!(table.contains("| k | 2.50 ms | 4.00 ms | +60.0% | **REGRESSED** |"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn json_rendering_carries_every_row_and_nulls_absent_sides() {
        let base = medians(&[("k \"q\"", 1_000), ("gone", 50)]);
        let cur = medians(&[("k \"q\"", 1_600), ("fresh", 10)]);
        let rows = diff(&base, &cur, 20.0);
        let json = render_json(&rows);
        assert!(json.contains(
            "{\"name\": \"fresh\", \"baseline_ns\": null, \"current_ns\": 10, \
             \"delta_pct\": null, \"verdict\": \"new\"}"
        ));
        assert!(json.contains(
            "{\"name\": \"gone\", \"baseline_ns\": 50, \"current_ns\": null, \
             \"delta_pct\": null, \"verdict\": \"missing\"}"
        ));
        assert!(json.contains(
            "{\"name\": \"k \\\"q\\\"\", \"baseline_ns\": 1000, \"current_ns\": 1600, \
             \"delta_pct\": 60.000, \"verdict\": \"regressed\"}"
        ));
        // Valid JSON array shape: brackets, one object per row, comma-separated.
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("{\"name\"").count(), rows.len());
        assert_eq!(json.matches("},\n").count(), rows.len() - 1);
    }

    #[test]
    fn json_rendering_nulls_infinite_deltas() {
        let rows = diff(&medians(&[("z", 0)]), &medians(&[("z", 5)]), 20.0);
        let json = render_json(&rows);
        assert!(json.contains("\"delta_pct\": null, \"verdict\": \"regressed\""));
    }

    #[test]
    fn load_dir_reads_shim_files_and_skips_garbage() {
        // The skipped file logs a warning straight to stderr, which the
        // test harness does not capture; keep it out of the test output.
        pecan_obs::log::set_level(None);
        let dir = std::env::temp_dir().join("pecan-bench-diff-test-load");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ok-1.json"), "{\n  \"name\": \"g/one\",\n  \"median_ns\": 42\n}").unwrap();
        fs::write(dir.join("bad.json"), "{{{").unwrap();
        fs::write(dir.join("ignored.txt"), "not a record").unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded, medians(&[("g/one", 42)]));
        let _ = fs::remove_dir_all(&dir);
    }
}
