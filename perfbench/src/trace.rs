//! The traced run's span recorder, per-layer summaries and the
//! reconciliation checks.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: name, start, end, parent, batch id, wall time and the calling
//! thread's CPU time. They stay in memory and are written out once the
//! run ends. A span's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `"stage.lut-conv"`.
    pub name: &'static str,
    /// Unique across threads.
    pub id: u64,
    /// The enclosing span on the same thread.
    pub parent: Option<u64>,
    /// Request or batch the span belongs to.
    pub batch: u64,
    /// Recording thread.
    pub tid: u32,
    /// Wall-clock start and end, ns since the run's origin.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Thread CPU time spent inside, ns, less the cost of reading the
    /// clocks (see [`clock_overhead_ns`]).
    pub cpu_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread CPU a span charges for reading its own clocks, ns: the median
/// over empty spans of CPU minus wall time, measured once. The thread CPU
/// clock is a system call, so without this a span of a few µs would
/// show more CPU than wall time.
pub fn clock_overhead_ns() -> u64 {
    static OVERHEAD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let origin = Instant::now();
        let samples: Vec<f64> = (0..256)
            .map(|_| {
                let cpu0 = pecan_obs::thread_cpu_ns();
                let t0 = origin.elapsed().as_nanos() as u64;
                let t1 = origin.elapsed().as_nanos() as u64;
                let cpu1 = pecan_obs::thread_cpu_ns();
                cpu1.saturating_sub(cpu0).saturating_sub(t1 - t0) as f64
            })
            .collect();
        crate::stats::median(&samples) as u64
    })
}

/// Per-thread span recorder. A disabled recorder runs the closures and
/// records nothing, so the untraced path pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    tid: u32,
    enabled: bool,
    overhead: u64,
    next: u64,
    stack: Vec<usize>,
    /// Finished and open spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `tid`, timing from `origin`.
    pub fn new(origin: Instant, tid: u32, enabled: bool) -> Tracer {
        let overhead = if enabled { clock_overhead_ns() } else { 0 };
        Tracer { origin, tid, enabled, overhead, next: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, batch: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = (u64::from(self.tid) << 40) | self.next;
        self.next += 1;
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let at = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent,
            batch,
            tid: self.tid,
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
        });
        self.stack.push(at);
        let cpu0 = pecan_obs::thread_cpu_ns();
        let t0 = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let t1 = self.origin.elapsed().as_nanos() as u64;
        let cpu1 = pecan_obs::thread_cpu_ns();
        self.stack.pop();
        let s = &mut self.spans[at];
        s.start_ns = t0;
        s.end_ns = t1;
        s.cpu_ns = cpu1.saturating_sub(cpu0).saturating_sub(self.overhead);
        out
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    /// Spans of this name.
    pub calls: u64,
    /// Summed wall ns.
    pub wall_ns: u64,
    /// Summed CPU ns.
    pub cpu_ns: u64,
    /// Summed self wall ns (duration minus children).
    pub self_wall_ns: u64,
    /// Summed self CPU ns.
    pub self_cpu_ns: u64,
}

/// Rows keyed by span name.
pub type Summary = BTreeMap<&'static str, Row>;

/// Totals per span name, with self times.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_wall: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let e = child_wall.entry(p).or_default();
            e.0 += s.wall_ns();
            e.1 += s.cpu_ns;
        }
    }
    let mut out = Summary::new();
    for s in spans {
        let (cw, cc) = child_wall.get(&s.id).copied().unwrap_or_default();
        let r = out.entry(s.name).or_default();
        r.calls += 1;
        r.wall_ns += s.wall_ns();
        r.cpu_ns += s.cpu_ns;
        r.self_wall_ns += s.wall_ns().saturating_sub(cw);
        r.self_cpu_ns += s.cpu_ns.saturating_sub(cc);
    }
    out
}

/// The stage kinds the benchmark has a row for. A traced run over an
/// engine with any other stage kind fails rather than leaving a gap.
pub const STAGE_ROWS: [&str; 5] = ["lut-conv", "lut-linear", "relu", "max-pool", "flatten"];

/// Span name of a stage kind's row.
pub fn stage_span(kind: &str) -> Option<&'static str> {
    Some(match kind {
        "lut-conv" => "stage.lut-conv",
        "lut-linear" => "stage.lut-linear",
        "relu" => "stage.relu",
        "max-pool" => "stage.max-pool",
        "flatten" => "stage.flatten",
        _ => return None,
    })
}

/// Least share of a total its rows must explain.
pub const MIN_COVERAGE: f64 = 0.95;

/// What the reconciliation found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// (pack + stages + unpack) / batch total, wall; median over batches.
    pub wall: f64,
    /// The same over CPU time.
    pub cpu: f64,
    /// (search + accumulate) / `forward_cols`, CPU totals; `None` for
    /// PECAN-A.
    pub cam_cpu: Option<f64>,
}

/// Median over batches of `part / whole`, both summed per batch id.
fn median_ratio(spans: &[Span], part: impl Fn(&Span) -> u64, whole: impl Fn(&Span) -> u64) -> f64 {
    let mut per_batch: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = per_batch.entry(s.batch).or_default();
        e.0 += part(s);
        e.1 += whole(s);
    }
    let ratios: Vec<f64> = per_batch
        .values()
        .filter(|&&(_, w)| w > 0)
        .map(|&(p, w)| p as f64 / w as f64)
        .collect();
    crate::stats::median(&ratios)
}

/// Checks that the layer rows add up:
///
/// * every stage kind the engine runs has a row, and each row was seen;
/// * pack + stages + unpack cover at least 95% of `engine.batch`, in both
///   wall and CPU time;
/// * for PECAN-D (`distance`), the CAM search and LUT accumulation rows
///   cover at least 95% of `core.forward_cols` CPU time.
///
/// Shares are per batch, and the median over batches must pass, so a
/// batch preempted by the host between two rows does not fail the run.
pub fn reconcile(engine_kinds: &[&str], spans: &[Span], distance: bool) -> Result<Coverage, String> {
    let sum = summarize(spans);
    let mut parts = vec!["engine.pack", "engine.unpack"];
    for kind in engine_kinds {
        let span = stage_span(kind)
            .filter(|_| STAGE_ROWS.contains(kind))
            .ok_or_else(|| format!("stage kind `{kind}` has no per-layer row"))?;
        if sum.get(span).map_or(0, |r| r.calls) == 0 {
            return Err(format!("stage kind `{kind}` ran but its row `{span}` recorded nothing"));
        }
        parts.push(span);
    }
    let is = |names: &[&str], s: &Span| names.contains(&s.name);
    let wall = median_ratio(
        spans,
        |s| if is(&parts, s) { s.wall_ns() } else { 0 },
        |s| if s.name == "engine.batch" { s.wall_ns() } else { 0 },
    );
    let cpu = median_ratio(
        spans,
        |s| if is(&parts, s) { s.cpu_ns } else { 0 },
        |s| if s.name == "engine.batch" { s.cpu_ns } else { 0 },
    );
    if !(wall >= MIN_COVERAGE && cpu >= MIN_COVERAGE) {
        return Err(format!(
            "layer rows cover {:.1}% wall / {:.1}% CPU of the batch total, below {:.0}%",
            wall * 100.0,
            cpu * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let cam_cpu = if distance {
        // Totals, not a median over batches: the replay alternates which
        // of the two runs first, and only the totals balance that out.
        let rows = sum.get("cam.l1_search").map_or(0, |r| r.cpu_ns)
            + sum.get("cam.lut_accumulate").map_or(0, |r| r.cpu_ns);
        let whole = sum.get("core.forward_cols").map_or(0, |r| r.cpu_ns);
        let c = if whole == 0 { 0.0 } else { rows as f64 / whole as f64 };
        if c < MIN_COVERAGE {
            return Err(format!(
                "CAM rows cover {:.1}% of forward_cols CPU, below {:.0}%",
                c * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
        Some(c)
    } else {
        None
    };
    Ok(Coverage { wall, cpu, cam_cpu })
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"batch\":{},\"cpu_us\":{:.3}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.wall_ns() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.batch,
            s.cpu_ns as f64 / 1e3,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, wall: u64, cpu: u64) -> Span {
        Span { name, id, parent, batch: 0, tid: 0, start_ns: 0, end_ns: wall, cpu_ns: cpu }
    }

    /// A batch of 1000 ns wall / 900 ns CPU, fully explained by its rows.
    fn batch() -> Vec<Span> {
        vec![
            span("engine.batch", 1, None, 1000, 900),
            span("engine.pack", 2, Some(1), 50, 50),
            span("stage.lut-linear", 3, Some(1), 700, 620),
            span("stage.relu", 4, Some(1), 200, 190),
            span("engine.unpack", 5, Some(1), 40, 30),
            span("core.forward_cols", 6, None, 600, 600),
            span("cam.l1_search", 7, None, 500, 500),
            span("cam.lut_accumulate", 8, None, 90, 90),
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        let s = summarize(&batch());
        let b = s["engine.batch"];
        assert_eq!((b.calls, b.wall_ns, b.self_wall_ns, b.self_cpu_ns), (1, 1000, 10, 10));
        assert_eq!(s["stage.relu"].self_wall_ns, 200);
    }

    #[test]
    fn reconciles_when_every_row_is_present() {
        let c = reconcile(&["lut-linear", "relu"], &batch(), true).unwrap();
        assert!((c.wall - 0.99).abs() < 1e-9);
        assert!((c.cpu - 890.0 / 900.0).abs() < 1e-9);
        assert!((c.cam_cpu.unwrap() - 590.0 / 600.0).abs() < 1e-9);
    }

    #[test]
    fn dropping_a_stage_row_fails_the_reconciliation() {
        // The relu row is dropped: the rows now explain 79% of the batch.
        let spans: Vec<Span> = batch().into_iter().filter(|s| s.name != "stage.relu").collect();
        let err = reconcile(&["lut-linear", "relu"], &spans, true).unwrap_err();
        assert!(err.contains("relu"), "{err}");
        // Engine kinds without a row fail even when the totals add up.
        let err = reconcile(&["lut-linear", "relu", "global-avg-pool"], &batch(), true)
            .unwrap_err();
        assert!(err.contains("no per-layer row"), "{err}");
        // Dropping the search row leaves forward_cols unexplained.
        let spans: Vec<Span> = batch().into_iter().filter(|s| s.name != "cam.l1_search").collect();
        let err = reconcile(&["lut-linear", "relu"], &spans, true).unwrap_err();
        assert!(err.contains("forward_cols"), "{err}");
        // PECAN-A has no CAM coverage requirement.
        assert!(reconcile(&["lut-linear", "relu"], &spans, false).is_ok());
    }

    #[test]
    fn one_preempted_batch_does_not_fail_the_reconciliation() {
        // Three batches; the middle one lost 5 ms of wall between rows.
        let mut spans = Vec::new();
        for b in 0..3u64 {
            for mut s in batch() {
                s.batch = b;
                s.id += 100 * b;
                s.parent = s.parent.map(|p| p + 100 * b);
                if b == 1 && s.name == "engine.batch" {
                    s.end_ns += 5_000_000;
                }
                spans.push(s);
            }
        }
        let c = reconcile(&["lut-linear", "relu"], &spans, true).unwrap();
        assert!((c.wall - 0.99).abs() < 1e-9);
    }

    #[test]
    fn a_gap_between_rows_fails_the_reconciliation() {
        let mut spans = batch();
        spans[0].end_ns = 1200; // 200 ns of the batch in no row
        let err = reconcile(&["lut-linear", "relu"], &spans, true).unwrap_err();
        assert!(err.contains("below 95%"), "{err}");
    }

    #[test]
    fn tracer_nests_and_records_cpu() {
        let mut t = Tracer::new(Instant::now(), 3, true);
        let v = t.scope("outer", 7, |t| {
            t.scope("inner", 7, |_| (0..100_000u64).sum::<u64>())
        });
        assert_eq!(v, 4_999_950_000);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(t.spans[0].id));
        assert!(t.spans[0].wall_ns() >= t.spans[1].wall_ns());
        assert!(chrome_json(&t.spans).contains("\"name\":\"inner\""));
        let mut off = Tracer::new(Instant::now(), 0, false);
        assert_eq!(off.scope("x", 0, |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
