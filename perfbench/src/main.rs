//! `perfbench`: the PECAN serving benchmark.
//!
//! ```text
//! perfbench --workload lenet-threaded|mlp-pipelined|lenet-angle-offline
//!           --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --out-dir DIR [--corrupt-reference]
//! ```
//!
//! With `--trace 0` it runs the workload's live load with tracing off and
//! prints the end-to-end metrics. With `--trace 1` it runs the live load
//! twice (untraced, then traced), replays the same requests through each
//! layer's public calls, reconciles the layer rows and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. `perfbench/run.py`
//! builds the binaries and calls this; see `perfbench/README.md`.

mod client;
mod live;
mod oracle;
mod prom;
mod replay;
mod server;
mod stats;
mod trace;
mod workload;

use live::{Live, Options, Phases};
use prom::json_number;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Summary;
use workload::{Prepared, Workload};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
/// `answers_per_s`, `latency_p50_ms` and `latency_tail_ms` are printed
/// and saved but not listed: on a shared host their run-to-run spread
/// exceeds any bound the benchmark may set (see `perfbench/README.md`).
const END_TO_END: [(&str, &str); 4] = [
    ("cpu_us_per_answer", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reload_ms", "ms"),
];

/// Per-layer metrics every workload has, as `BENCHMARK.json` lists them.
/// Rows that exist on some workloads only (conv stages, `im2col`,
/// scheduler queue waits, the scheme-specific CAM rows) are printed in
/// the table and saved with the run, but not reported here.
const PER_LAYER: [(&str, &str); 44] = [
    ("http.parse_us_per_req", "us"),
    ("json.decode_us_per_req", "us"),
    ("json.encode_us_per_req", "us"),
    ("engine.pack_us_per_batch", "us"),
    ("engine.unpack_us_per_batch", "us"),
    ("engine.replay_wall_us_per_batch", "us"),
    ("engine.replay_cpu_us_per_batch", "us"),
    ("engine.infer_live_us_per_batch", "us"),
    ("engine.replay_vs_live", "ratio"),
    ("engine.coverage_wall", "ratio"),
    ("engine.coverage_cpu", "ratio"),
    ("stage.lut-linear.wall_us_per_batch", "us"),
    ("stage.lut-linear.cpu_us_per_batch", "us"),
    ("stage.relu.wall_us_per_batch", "us"),
    ("stage.relu.cpu_us_per_batch", "us"),
    ("stage.lut-conv.cpu_share", "ratio"),
    ("stage.lut-linear.cpu_share", "ratio"),
    ("stage.relu.cpu_share", "ratio"),
    ("stage.max-pool.cpu_share", "ratio"),
    ("stage.flatten.cpu_share", "ratio"),
    ("core.forward_cols.wall_us_per_batch", "us"),
    ("core.forward_cols.cpu_us_per_batch", "us"),
    ("cam.search.wall_us_per_batch", "us"),
    ("cam.search.cpu_us_per_batch", "us"),
    ("cam.accumulate.wall_us_per_batch", "us"),
    ("cam.accumulate.cpu_us_per_batch", "us"),
    ("cam.cells_per_batch", "count"),
    ("cam.ns_per_cell", "ns"),
    ("cam.bytes_per_batch", "bytes"),
    ("scheduler.batches", "count"),
    ("scheduler.batch_size_mean", "count"),
    ("scheduler.rejected", "count"),
    ("scheduler.failed", "count"),
    ("http.shed_requests", "count"),
    ("http.timeouts", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.crc_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("setup.first_answer_ms", "ms"),
    ("client.cpu_us_per_answer", "us"),
    ("client.busy_share", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("replay.batches", "count"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out_dir: PathBuf,
    corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from(".perfbench");
    let mut corrupt_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds must be a number")?,
            "--trace" => trace = value()? == "1",
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let serve_bin = match serve_bin {
        Some(b) => b,
        None if workload.is_http() => return Err("--serve-bin is required".into()),
        None => PathBuf::new(),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace, serve_bin, out_dir, corrupt_reference })
}

/// A metric as printed and saved.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, note: String::new() }
}

/// The end-to-end metrics of an untraced live run.
///
/// The timed phase is cut into windows of `live::WINDOW_S`, and the
/// figures come from the quietest of them: the windows in which other
/// guests stole the least host CPU (`/proc/stat`). The choice
/// looks at host steal only, never at the program's own numbers, and the
/// steal share of the chosen windows and of the whole phase is printed
/// beside the figures. Throughput, both latencies and CPU per answer pool
/// the answers of the chosen windows.
fn end_to_end(live: &Live) -> Vec<Metric> {
    let windows = live.windows();
    let quiet = live::quietest(&windows.iter().map(|w| w.steal_s).collect::<Vec<_>>());
    let chosen: Vec<live::Window> = quiet.iter().map(|&k| windows[k]).collect();
    let mut in_quiet = vec![false; windows.len()];
    for &k in &quiet {
        in_quiet[k] = true;
    }
    let mut lat: Vec<f64> = live
        .latencies
        .iter()
        .filter(|&&(t, _)| live::window_of(t, live.timed_s).is_some_and(|k| in_quiet[k]))
        .map(|&(_, l)| l)
        .collect();
    lat.sort_by(f64::total_cmp);
    let rate = |ws: &[live::Window]| {
        ws.iter().map(|w| w.answers).sum::<u64>() as f64 / ws.iter().map(|w| w.span_s).sum::<f64>()
    };
    let answers: u64 = chosen.iter().map(|w| w.answers).sum();
    let cpu: f64 = chosen.iter().map(|w| w.cpu_s).sum();
    let note = format!("quietest {} of {} windows of {} s", chosen.len(), windows.len(), live::WINDOW_S);
    let mut out = vec![
        Metric { note: note.clone(), ..metric("answers_per_s", rate(&chosen), "1/s") },
        Metric { note: note.clone(), ..metric("latency_p50_ms", stats::percentile(&lat, 0.5), "ms") },
    ];
    let mut tail = metric("latency_tail_ms", f64::NAN, "ms");
    if let Some(t) = stats::tail(&lat) {
        tail.value = t.value;
        tail.note = format!("{}, {} samples beyond it of {}; {note}", t.label, t.beyond, t.samples);
    }
    out.push(tail);
    out.push(Metric { note, ..metric("cpu_us_per_answer", cpu * 1e6 / answers.max(1) as f64, "us") });
    let (setup, setup_note) = quiet_median(&live.setup_s, "set-ups");
    out.push(Metric { note: setup_note, ..metric("setup_s", setup, "s") });
    out.push(metric("peak_rss_mb", live.peak_rss_kib as f64 / 1024.0, "MB"));
    let (reload, reload_note) = quiet_median(&live.reload_ms, "reloads");
    out.push(Metric { note: reload_note, ..metric("reload_ms", reload, "ms") });
    let attempted = live.phases.attempted().max(1) as f64;
    out.push(metric("error_rate", live.phases.failed() as f64 / attempted, "ratio"));
    out.push(metric("answers_per_s_all_windows", rate(&windows), "1/s"));
    out.push(metric("peak_rss_end_mb", live.peak_rss_end_kib as f64 / 1024.0, "MB"));
    out.push(metric("host_steal_share_quiet", live.steal_share(&chosen), "ratio"));
    out.push(metric("host_steal_share_all", live.steal_share(&windows), "ratio"));
    out
}

/// Median of the values of the quietest `(value, host steal)` samples,
/// with a note saying how many it used.
fn quiet_median(samples: &[(f64, f64)], what: &str) -> (f64, String) {
    let steal: Vec<f64> = samples.iter().map(|&(_, s)| s).collect();
    let chosen: Vec<f64> = live::quietest(&steal).iter().map(|&i| samples[i].0).collect();
    let note = format!("median of the quietest {} of {} {what}", chosen.len(), samples.len());
    (stats::median(&chosen), note)
}

fn answers_per_s(live: &Live) -> f64 {
    live.answers as f64 / live.window_s
}

/// Median of `reps` timings of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&v)
}

/// Everything a traced run measured, turned into per-layer rows.
fn per_layer(
    prep: &Prepared,
    untraced: &Live,
    traced: &Live,
    replay: &replay::Replay,
    sum: &Summary,
    coverage: &trace::Coverage,
) -> Result<Vec<Metric>, String> {
    let w = &replay.work;
    let nb = w.batches.max(1) as f64;
    let nr = w.requests.max(1) as f64;
    let row = |name: &str| sum.get(name).copied().unwrap_or_default();
    let us_b = |ns: u64| ns as f64 / 1e3 / nb;
    let mut out = Vec::new();
    let both = |out: &mut Vec<Metric>, metric_name: &str, span: &str| {
        let r = row(span);
        out.push(metric(format!("{metric_name}.wall_us_per_batch"), us_b(r.wall_ns), "us"));
        out.push(metric(format!("{metric_name}.cpu_us_per_batch"), us_b(r.cpu_ns), "us"));
    };

    // serve::http, serve::json
    out.push(metric("http.parse_us_per_req", row("http.parse").wall_ns as f64 / 1e3 / nr, "us"));
    out.push(metric("json.decode_us_per_req", row("json.decode").wall_ns as f64 / 1e3 / nr, "us"));
    out.push(metric("json.encode_us_per_req", row("json.encode").wall_ns as f64 / 1e3 / nr, "us"));

    // serve::engine and serve::stage
    let batch = row("engine.batch");
    out.push(metric("engine.pack_us_per_batch", us_b(row("engine.pack").wall_ns), "us"));
    out.push(metric("engine.unpack_us_per_batch", us_b(row("engine.unpack").wall_ns), "us"));
    out.push(metric("engine.replay_wall_us_per_batch", us_b(batch.wall_ns), "us"));
    out.push(metric("engine.replay_cpu_us_per_batch", us_b(batch.cpu_ns), "us"));
    let kinds = prep.engine.stage_kinds();
    let stage_wall: u64 =
        kinds.iter().filter_map(|k| trace::stage_span(k)).map(|s| row(s).wall_ns).sum();
    let (live_us, live_batches, live_mean) = match &traced.scrapes {
        Some(s) => {
            let m = [("model", prep.engine.name().unwrap_or("default"))];
            let stage_s = s.metrics_after.sum_all("pecan_stage_latency_seconds_sum", &m)
                - s.metrics_before.sum_all("pecan_stage_latency_seconds_sum", &m);
            let batches = s.metrics_after.value("pecan_batches_total", &m).unwrap_or(0.0)
                - s.metrics_before.value("pecan_batches_total", &m).unwrap_or(0.0);
            let sizes = s.metrics_after.histogram("pecan_batch_size", &m)
                .since(&s.metrics_before.histogram("pecan_batch_size", &m));
            (stage_s * 1e6 / batches.max(1.0), batches, sizes.mean())
        }
        None => (traced.infer_us_per_batch, traced.batches as f64, live::OFFLINE_BATCH as f64),
    };
    out.push(metric("engine.infer_live_us_per_batch", live_us, "us"));
    out.push(metric("engine.replay_vs_live", us_b(stage_wall) / live_us, "ratio"));
    out.push(metric("engine.coverage_wall", coverage.wall, "ratio"));
    out.push(metric("engine.coverage_cpu", coverage.cpu, "ratio"));
    for kind in trace::STAGE_ROWS {
        let span = trace::stage_span(kind).expect("every row kind has a span");
        if kinds.contains(&kind) {
            both(&mut out, &format!("stage.{kind}"), span);
        }
        out.push(metric(
            format!("stage.{kind}.cpu_share"),
            row(span).cpu_ns as f64 / batch.cpu_ns.max(1) as f64,
            "ratio",
        ));
    }

    // pecan-core
    if kinds.contains(&"lut-conv") {
        both(&mut out, "core.im2col", "core.im2col");
        let relayout = w.conv_stage_cpu_ns as f64
            - row("core.im2col").cpu_ns as f64
            - w.conv_forward_cpu_ns as f64;
        out.push(metric("core.conv_relayout_us_per_batch", relayout / 1e3 / nb, "us"));
    }
    both(&mut out, "core.forward_cols", "core.forward_cols");

    // pecan-cam over pecan-index
    let distance = oracle::variant(&prep.engine) == Some(pecan_core::PecanVariant::Distance);
    let (search, accumulate) = if distance {
        ("cam.l1_search", "cam.lut_accumulate")
    } else {
        both(&mut out, "cam.softmax", "cam.softmax");
        ("cam.dot_scores", "cam.weighted_accumulate")
    };
    both(&mut out, search, search);
    both(&mut out, accumulate, accumulate);
    both(&mut out, "cam.search", search);
    both(&mut out, "cam.accumulate", accumulate);
    let cells = w.cam_cells as f64 / nb;
    out.push(metric("cam.cells_per_batch", cells, "count"));
    out.push(metric("cam.ns_per_cell", row(search).wall_ns as f64 / w.cam_cells.max(1) as f64, "ns"));
    out.push(metric("cam.bytes_per_batch", w.cam_bytes as f64 / nb, "bytes"));
    if let Some(c) = coverage.cam_cpu {
        out.push(metric("cam.coverage_cpu", c, "ratio"));
    }

    // serve::scheduler and the front end's counters
    let mut sched = |name: &str, v: f64, unit| out.push(metric(name, v, unit));
    match &traced.scrapes {
        Some(s) => {
            let m = [("model", prep.engine.name().unwrap_or("default"))];
            let q = s.metrics_after.histogram("pecan_queue_latency_seconds", &m)
                .since(&s.metrics_before.histogram("pecan_queue_latency_seconds", &m));
            let r = s.metrics_after.histogram("pecan_request_latency_seconds", &m)
                .since(&s.metrics_before.histogram("pecan_request_latency_seconds", &m));
            let counter = |key: &str, within: &str| {
                json_number(&s.stats_after, Some(within), key).unwrap_or(0.0)
                    - json_number(&s.stats_before, Some(within), key).unwrap_or(0.0)
            };
            sched("scheduler.queue_wait_us_p50", q.quantile(0.5) * 1e6, "us");
            sched("scheduler.queue_wait_us_p99", q.quantile(0.99) * 1e6, "us");
            sched("scheduler.batches", live_batches, "count");
            sched("scheduler.batch_size_mean", live_mean, "count");
            sched("scheduler.rejected", counter("rejected", "models"), "count");
            sched("scheduler.failed", counter("failed", "models"), "count");
            sched("http.shed_requests", counter("shed_requests", "connections"), "count");
            sched("http.timeouts", counter("timeouts", "connections"), "count");
            let mut lat: Vec<f64> = traced.latencies.iter().map(|&(_, l)| l * 1e3).collect();
            lat.sort_by(f64::total_cmp);
            let outside = stats::percentile(&lat, 0.5) - r.quantile(0.5) * 1e6;
            sched("http.outside_server_us_p50", outside, "us");
        }
        None => {
            sched("scheduler.batches", live_batches, "count");
            sched("scheduler.batch_size_mean", live_mean, "count");
            for name in ["scheduler.rejected", "scheduler.failed", "http.shed_requests", "http.timeouts"] {
                sched(name, 0.0, "count");
            }
        }
    }

    // serve::snapshot and serve::registry
    let bytes = std::fs::read(&prep.snapshot).map_err(|e| e.to_string())?;
    out.push(metric("snapshot.bytes", bytes.len() as f64, "bytes"));
    out.push(metric("snapshot.read_ms", median_ms(5, || {
        std::hint::black_box(std::fs::read(&prep.snapshot).map(|b| b.len()).unwrap_or(0));
    }), "ms"));
    out.push(metric("snapshot.crc_ms", median_ms(5, || {
        std::hint::black_box(pecan_serve::crc32(&bytes));
    }), "ms"));
    out.push(metric("snapshot.load_ms", median_ms(5, || {
        std::hint::black_box(pecan_serve::FrozenEngine::load_snapshot(&prep.snapshot).is_ok());
    }), "ms"));
    if !traced.listen_ms.is_empty() {
        out.push(metric("setup.listen_ms", stats::median(&traced.listen_ms), "ms"));
    }
    out.push(metric("setup.first_answer_ms", quiet_median(&traced.setup_s, "set-ups").0 * 1e3, "ms"));

    // benchmark client and pecan-obs
    let answers = traced.answers.max(1) as f64;
    out.push(metric("client.cpu_us_per_answer", traced.client_cpu_s * 1e6 / answers, "us"));
    out.push(metric(
        "client.busy_share",
        traced.client_cpu_s / (traced.window_s * traced.client_threads.max(1) as f64),
        "ratio",
    ));
    out.push(metric("client.threads", traced.client_threads as f64, "count"));
    out.push(metric("obs.trace_overhead", 1.0 - answers_per_s(traced) / answers_per_s(untraced), "ratio"));
    out.push(metric("replay.batches", w.batches as f64, "count"));
    Ok(out)
}

/// Batch sizes for the replay, drawn from the live batch-size histogram.
fn replay_sizes(prep: &Prepared, traced: &Live, seed: u64) -> Vec<usize> {
    let Some(s) = &traced.scrapes else {
        return vec![live::OFFLINE_BATCH];
    };
    let m = [("model", prep.engine.name().unwrap_or("default"))];
    let counts = s.metrics_after.histogram("pecan_batch_size", &m)
        .since(&s.metrics_before.histogram("pecan_batch_size", &m))
        .counts();
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return vec![1];
    }
    let mut rng = workload::Rng::new(seed ^ 0xBA7C);
    (0..1024)
        .map(|_| {
            let mut pick = rng.next_u64() % total;
            for &(le, c) in &counts {
                if pick < c {
                    return (le.round() as usize).max(1);
                }
                pick -= c;
            }
            1
        })
        .collect()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_phases(p: &Phases) -> String {
    let c = |c: &live::Count| format!("{{\"sent\":{},\"succeeded\":{},\"failed\":{}}}", c.sent, c.ok, c.failed);
    format!("{{\"warmup\":{},\"timed\":{},\"reload\":{}}}", c(&p.warmup), c(&p.timed), c(&p.reload))
}

fn json_metrics(ms: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"value\":{},\"unit\":\"{}\"", m.name, json_num(m.value), m.unit);
        if !m.note.is_empty() {
            let _ = write!(out, ",\"note\":\"{}\"", m.note);
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn print_phases(label: &str, p: &Phases) {
    println!("phases ({label}):   sent  succeeded  failed");
    for (name, c) in [("warm-up", &p.warmup), ("timed", &p.timed), ("reload", &p.reload)] {
        println!("  {name:<8} {:>12} {:>10} {:>7}", c.sent, c.ok, c.failed);
    }
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("  {:<38} {:>16.6} {:<6}{note}", m.name, m.value, m.unit);
    }
}

fn print_table(sum: &Summary, batches: u64) {
    println!("per-layer spans (replay, per batch of the replay; wall and CPU side by side):");
    println!(
        "  {:<26} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "span", "calls", "wall_us", "cpu_us", "self_wall_us", "self_cpu_us"
    );
    let nb = batches.max(1) as f64;
    for (name, r) in sum {
        println!(
            "  {:<26} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            name,
            r.calls,
            r.wall_ns as f64 / 1e3 / nb,
            r.cpu_ns as f64 / 1e3 / nb,
            r.self_wall_ns as f64 / 1e3 / nb,
            r.self_cpu_ns as f64 / 1e3 / nb,
        );
    }
}

/// Prints the result lines and returns whether every answer was correct.
fn finish(args: &Args, phases: &Phases, all: &[Metric], wanted: &[(&str, &'static str)], extra: &str) -> Result<bool, String> {
    let correct = phases.failed() == 0;
    let mut chosen = Vec::new();
    for (name, unit) in wanted {
        let m = all.iter().find(|m| m.name == *name).ok_or(format!("metric `{name}` was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is not a finite number"));
        }
        chosen.push(Metric { unit, ..m.clone() });
    }
    println!(
        "RESULT {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{correct},\
         \"phases\":{},\"metrics\":{}{extra}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_phases(phases),
        json_metrics(all),
    );
    let plain: Vec<Metric> = chosen.into_iter().map(|m| Metric { note: String::new(), ..m }).collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        phases.attempted().max(1),
        phases.failed(),
        json_metrics(&plain)
    );
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let prep = workload::prepare(args.workload, args.seed, &args.out_dir, args.corrupt_reference)?;
    println!(
        "perfbench {} seed={} seconds={} trace={}: {} inputs, references in {:.2} s",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prep.inputs.len(),
        prep.prepare_s
    );
    let opts = Options {
        seconds: args.seconds,
        setup_repeats: live::SETUP_REPEATS,
        traced: false,
        serve_bin: args.serve_bin.clone(),
        out_dir: args.out_dir.clone(),
    };
    let untraced = live::run(&prep, &opts)?;
    print_phases("untraced", &untraced.phases);
    let e2e = end_to_end(&untraced);
    if !args.trace {
        print_metrics("end-to-end metrics (tracing off):", &e2e);
        return finish(args, &untraced.phases, &e2e, &END_TO_END, "");
    }

    let traced = live::run(&prep, &Options { traced: true, setup_repeats: 1, ..opts })?;
    print_phases("traced", &traced.phases);
    let origin = Instant::now();
    let sizes = replay_sizes(&prep, &traced, args.seed);
    let budget = Duration::from_secs_f64((args.seconds / 2.0).clamp(1.0, 5.0));
    let replay = replay::run(&prep, &sizes, origin, budget, 8)?;
    let sum = trace::summarize(&replay.spans);
    print_table(&sum, replay.work.batches);
    let distance = oracle::variant(&prep.engine) == Some(pecan_core::PecanVariant::Distance);
    let coverage = trace::reconcile(&prep.engine.stage_kinds(), &replay.spans, distance)?;
    let layers = per_layer(&prep, &untraced, &traced, &replay, &sum, &coverage)?;
    print_metrics("per-layer metrics (traced run):", &layers);

    let mut spans = traced.spans;
    spans.extend(replay.spans);
    let span_file = args.out_dir.join(format!("spans-{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::write(&span_file, trace::chrome_json(&spans)).map_err(|e| e.to_string())?;
    println!("spans: {} written to {}", spans.len(), span_file.display());

    let mut phases = untraced.phases;
    for (a, b) in [
        (&mut phases.warmup, traced.phases.warmup),
        (&mut phases.timed, traced.phases.timed),
        (&mut phases.reload, traced.phases.reload),
    ] {
        a.sent += b.sent;
        a.ok += b.ok;
        a.failed += b.failed;
    }
    let extra = format!(",\"end_to_end_untraced\":{}", json_metrics(&e2e));
    finish(args, &phases, &layers, &PER_LAYER, &extra)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: some answers were wrong (see the phase counts)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
