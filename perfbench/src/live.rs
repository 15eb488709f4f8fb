//! The measured load: set-up, warm-up, the timed phase and the reload
//! phase, against a fresh `serve` process (HTTP workloads) or against an
//! engine loaded in process (offline). Every answer is checked against
//! its reference.

use crate::client::{answer_ok, Conn, Expect, ResponseReader};
use crate::prom::Scrape;
use crate::server::{self, ServeProcess};
use crate::trace::{Span, Tracer};
use crate::workload::{Prepared, Workload};
use pecan_core::InferBatch;
use pecan_serve::FrozenEngine;
use std::collections::VecDeque;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is the median of the quietest.
pub const SETUP_REPEATS: usize = 11;
/// Warm-up before the timed phase.
pub const WARMUP: Duration = Duration::from_millis(1500);
/// Reloads in the reload phase of workloads without in-stream reloads.
const RELOADS: usize = 25;
/// Requests the pipelined client keeps in flight.
const WINDOW: usize = 32;
/// Timed predicts between two pipelined reloads (the first comes after
/// this many predicts of the timed phase; warm-up has none).
const RELOAD_EVERY: u64 = 8000;
/// Samples per offline batch.
pub const OFFLINE_BATCH: usize = 64;
/// Length of the windows the timed phase is cut into, s.
pub const WINDOW_S: f64 = 0.25;
/// The end-to-end figures come from this share of the windows: those
/// in which other guests stole the least host CPU.
pub const QUIET_SHARE: f64 = 0.2;

/// Which phase a request belongs to (decided when it is sent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up probes and warm-up load.
    Warmup,
    /// The measured phase.
    Timed,
    /// Model reloads and the answers that check them.
    Reload,
}

/// Sent, succeeded and failed requests of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Count {
    /// Requests (or offline samples) attempted.
    pub sent: u64,
    /// Verified correct.
    pub ok: u64,
    /// Transport errors, non-200s, wrong lengths and wrong bits.
    pub failed: u64,
}

/// Per-phase accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// Set-up and warm-up.
    pub warmup: Count,
    /// The timed phase.
    pub timed: Count,
    /// Reloads.
    pub reload: Count,
}

impl Phases {
    /// Counts `n` attempts in `phase`, all correct or all failed.
    pub fn record(&mut self, phase: Phase, ok: bool, n: u64) {
        let c = match phase {
            Phase::Warmup => &mut self.warmup,
            Phase::Timed => &mut self.timed,
            Phase::Reload => &mut self.reload,
        };
        c.sent += n;
        if ok {
            c.ok += n;
        } else {
            c.failed += n;
        }
    }

    fn add(&mut self, other: &Phases) {
        for (a, b) in [
            (&mut self.warmup, &other.warmup),
            (&mut self.timed, &other.timed),
            (&mut self.reload, &other.reload),
        ] {
            a.sent += b.sent;
            a.ok += b.ok;
            a.failed += b.failed;
        }
    }

    /// All attempts over all phases.
    pub fn attempted(&self) -> u64 {
        self.warmup.sent + self.timed.sent + self.reload.sent
    }

    /// All failures over all phases.
    pub fn failed(&self) -> u64 {
        self.warmup.failed + self.timed.failed + self.reload.failed
    }
}

/// Everything one live run measured.
#[derive(Debug, Default)]
pub struct Live {
    /// Per-phase accounting.
    pub phases: Phases,
    /// Timed answers: (completion, s since the timed phase began; latency, ms).
    pub latencies: Vec<(f64, f64)>,
    /// Verified answers of the timed phase.
    pub answers: u64,
    /// Timed phase start to its last answer, s.
    pub window_s: f64,
    /// Length of the timed phase as configured, s.
    pub timed_s: f64,
    /// Readings at each window boundary of the timed phase.
    pub marks: Vec<Mark>,
    /// Offline, per timed batch: completion s since the timed phase
    /// began, wall s, CPU s, verified answers.
    pub batch_marks: Vec<(f64, f64, f64, u64)>,
    /// CPU of the client threads over the timed phase, s.
    pub client_cpu_s: f64,
    /// Client threads that generated the load.
    pub client_threads: usize,
    /// Peak RSS (`VmHWM`) of the process holding the engine at the start
    /// of the timed phase, KiB: loading plus warm serving.
    pub peak_rss_kib: u64,
    /// The same at the end of the run, KiB: adds the timed phase and the
    /// reloads.
    pub peak_rss_end_kib: u64,
    /// Set-ups: (launch until first verified answer, s; host CPU stolen
    /// meanwhile, s).
    pub setup_s: Vec<(f64, f64)>,
    /// Launch until the "listening" line, ms, per repetition (HTTP).
    pub listen_ms: Vec<f64>,
    /// Reloads: (time, ms; host CPU stolen meanwhile, s).
    pub reload_ms: Vec<(f64, f64)>,
    /// `/metrics` and `/stats` at the start and the end of the timed
    /// phase (traced HTTP runs).
    pub scrapes: Option<Scrapes>,
    /// Offline: in-process `infer` wall per batch, µs, over the timed phase.
    pub infer_us_per_batch: f64,
    /// Offline: batches run in the timed phase.
    pub batches: u64,
    /// Client-side spans (traced runs).
    pub spans: Vec<Span>,
}

/// Two scrapes of the server around the timed phase.
#[derive(Debug, Default)]
pub struct Scrapes {
    /// `/metrics` at the start of the timed phase.
    pub metrics_before: Scrape,
    /// `/metrics` at its end.
    pub metrics_after: Scrape,
    /// `/stats` at the start.
    pub stats_before: String,
    /// `/stats` at the end.
    pub stats_after: String,
}

/// How to run the live part.
#[derive(Debug, Clone)]
pub struct Options {
    /// Length of the timed phase.
    pub seconds: f64,
    /// Set-up repetitions.
    pub setup_repeats: usize,
    /// Record client-side spans, switch on the program's own span
    /// tracing and scrape the server around the timed phase.
    pub traced: bool,
    /// The `serve` binary.
    pub serve_bin: PathBuf,
    /// Where the server writes its trace when traced.
    pub out_dir: PathBuf,
}

/// Runs the workload's live load.
pub fn run(prep: &Prepared, opts: &Options) -> Result<Live, String> {
    match prep.workload {
        Workload::LenetAngleOffline => offline(prep, opts),
        w => http(prep, opts, w == Workload::MlpPipelined),
    }
}

/// Readings taken at a window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Host CPU stolen by other guests so far, s (all CPUs).
    pub steal_s: f64,
    /// CPU used by the `serve` process so far, s (HTTP only).
    pub server_cpu_s: f64,
}

/// One window of the timed phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Window {
    /// Verified answers completed in it.
    pub answers: u64,
    /// CPU of the process holding the engine, s.
    pub cpu_s: f64,
    /// Host CPU stolen by other guests, s (all CPUs).
    pub steal_s: f64,
    /// Time the answers took: the window's length, or offline the wall
    /// time of the batches that completed in it.
    pub span_s: f64,
}

/// Number of windows in a timed phase of `seconds`.
pub fn window_count(seconds: f64) -> usize {
    ((seconds / WINDOW_S).round() as usize).max(1)
}

/// The window a completion at `t` s into the timed phase falls in.
pub fn window_of(t: f64, seconds: f64) -> Option<usize> {
    let n = window_count(seconds);
    (t >= 0.0 && t < seconds).then(|| ((t / seconds * n as f64) as usize).min(n - 1))
}

/// Indices, in order, of the quietest samples given the host CPU stolen
/// by other guests during each: the `QUIET_SHARE` with the least steal
/// (at least one), plus every sample tied with the last of those.
pub fn quietest(steal_s: &[f64]) -> Vec<usize> {
    let mut sorted = steal_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = ((steal_s.len() as f64 * QUIET_SHARE).round() as usize).clamp(1, steal_s.len().max(1));
    let Some(&limit) = sorted.get(keep - 1) else { return Vec::new() };
    (0..steal_s.len()).filter(|&i| steal_s[i] <= limit).collect()
}

impl Live {
    /// Verified answers, engine CPU and host steal per window of the
    /// timed phase (answers that complete after it are left out).
    pub fn windows(&self) -> Vec<Window> {
        let n = window_count(self.timed_s);
        let mut w = vec![Window::default(); n];
        for (k, pair) in self.marks.windows(2).enumerate().take(n) {
            w[k].steal_s = pair[1].steal_s - pair[0].steal_s;
            w[k].cpu_s = pair[1].server_cpu_s - pair[0].server_cpu_s;
        }
        if self.batch_marks.is_empty() {
            for window in &mut w {
                window.span_s = self.timed_s / n as f64;
            }
            for &(t, _) in &self.latencies {
                if let Some(k) = window_of(t, self.timed_s) {
                    w[k].answers += 1;
                }
            }
        } else {
            for &(t, wall, cpu, answers) in &self.batch_marks {
                if let Some(k) = window_of(t, self.timed_s) {
                    w[k].answers += answers;
                    w[k].cpu_s += cpu;
                    w[k].span_s += wall;
                }
            }
        }
        w
    }

    /// Share of all host CPUs' time stolen by other guests over the
    /// given windows: how disturbed the measurement was.
    pub fn steal_share(&self, windows: &[Window]) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let stolen: f64 = windows.iter().map(|w| w.steal_s).sum();
        stolen / (windows.len() as f64 * WINDOW_S * cpus)
    }
}

/// Takes a [`Mark`] at each window boundary of the timed phase starting
/// at `t0`, sleeping in between; `at_start` runs right after the first.
fn take_marks(t0: Instant, seconds: f64, pid: Option<u32>, at_start: impl FnOnce()) -> Vec<Mark> {
    let n = window_count(seconds);
    let len = Duration::from_secs_f64(seconds / n as f64);
    let mut marks = Vec::with_capacity(n + 1);
    let mut at_start = Some(at_start);
    for k in 0..=n as u32 {
        std::thread::sleep((t0 + len * k).saturating_duration_since(Instant::now()));
        marks.push(Mark {
            steal_s: server::host_steal_seconds().unwrap_or(f64::NAN),
            server_cpu_s: pid.and_then(server::cpu_seconds).unwrap_or(0.0),
        });
        if let Some(f) = at_start.take() {
            f();
        }
    }
    marks
}

/// One thread's share of the load.
#[derive(Debug, Default)]
struct ThreadOut {
    phases: Phases,
    latencies: Vec<(f64, f64)>,
    answers: u64,
    last_done: Option<Instant>,
    cpu_ns: u64,
    reload_ms: Vec<(f64, f64)>,
    spans: Vec<Span>,
}

/// Start and end of the timed phase.
#[derive(Debug, Clone, Copy)]
struct Clock {
    t0: Instant,
    t1: Instant,
}

impl Clock {
    fn phase(&self, at: Instant) -> Phase {
        if at < self.t0 {
            Phase::Warmup
        } else {
            Phase::Timed
        }
    }
}

impl ThreadOut {
    fn answered(&mut self, clock: &Clock, phase: Phase, ok: bool, sent: Instant, done: Instant) {
        self.phases.record(phase, ok, 1);
        if ok && phase == Phase::Timed {
            self.latencies.push((
                done.duration_since(clock.t0).as_secs_f64(),
                done.duration_since(sent).as_secs_f64() * 1e3,
            ));
            self.answers += 1;
            self.last_done = Some(self.last_done.map_or(done, |d| d.max(done)));
        }
    }
}

/// Thread CPU over the timed phase: the reading taken when the thread
/// first saw the timed phase, up to now.
fn cpu_since(start: Option<u64>) -> u64 {
    start.map_or(0, |s| pecan_obs::thread_cpu_ns().saturating_sub(s))
}

/// Closed loop on one keep-alive connection: send, read, check, repeat.
fn closed_loop(
    addr: SocketAddr,
    prep: &Prepared,
    offset: usize,
    clock: Clock,
    tracer: &mut Tracer,
) -> Result<ThreadOut, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = ThreadOut::default();
    let mut cpu0 = None;
    let mut i = offset;
    loop {
        let sent = Instant::now();
        if sent >= clock.t1 {
            break;
        }
        let phase = clock.phase(sent);
        if phase == Phase::Timed && cpu0.is_none() {
            cpu0 = Some(pecan_obs::thread_cpu_ns());
        }
        let idx = i % prep.requests.len();
        i += 1;
        let result = tracer.scope("client.request", i as u64, |_| {
            conn.call_checked(&prep.requests[idx], Expect::Predict(idx), &prep.refs)
        });
        let done = Instant::now();
        match result {
            Ok(ok) => out.answered(&clock, phase, ok, sent, done),
            Err(_) => {
                out.phases.record(phase, false, 1);
                conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    out.cpu_ns = cpu_since(cpu0);
    Ok(out)
}

/// A request written on the pipelined connection, awaiting its answer.
#[derive(Debug)]
enum Sent {
    /// `steal` is the host steal reading when a reload was sent.
    Req { expect: Expect, phase: Phase, at: Instant, steal: f64 },
    End,
}

/// The pipelined writer: keeps `WINDOW` requests in flight, batching all
/// free slots into one write, and slips a reload in after every
/// `RELOAD_EVERY` predicts.
fn pipelined_writer(
    mut stream: std::net::TcpStream,
    prep: &Prepared,
    clock: Clock,
    slots: mpsc::Receiver<()>,
    sent_tx: mpsc::Sender<Sent>,
) -> Result<ThreadOut, String> {
    let reload = crate::client::post("/reload", "");
    let mut out = ThreadOut::default();
    let mut cpu0 = None;
    let mut predicts = 0u64;
    let mut next_reload = u64::MAX;
    let mut buf = Vec::with_capacity(WINDOW * 1024);
    while slots.recv().is_ok() {
        let mut free = 1;
        while slots.try_recv().is_ok() {
            free += 1;
        }
        let at = Instant::now();
        if at >= clock.t1 {
            break;
        }
        let phase = clock.phase(at);
        if phase == Phase::Timed && cpu0.is_none() {
            cpu0 = Some(pecan_obs::thread_cpu_ns());
            next_reload = predicts + RELOAD_EVERY;
        }
        buf.clear();
        for _ in 0..free {
            let (expect, steal) = if predicts >= next_reload {
                next_reload += RELOAD_EVERY;
                buf.extend_from_slice(&reload);
                (Expect::Reload, server::host_steal_seconds().unwrap_or(f64::NAN))
            } else {
                let idx = (predicts % prep.requests.len() as u64) as usize;
                predicts += 1;
                buf.extend_from_slice(&prep.requests[idx]);
                (Expect::Predict(idx), f64::NAN)
            };
            sent_tx.send(Sent::Req { expect, phase, at, steal }).map_err(|_| "reader stopped")?;
        }
        stream.write_all(&buf).map_err(|e| format!("pipelined write: {e}"))?;
    }
    let _ = sent_tx.send(Sent::End);
    out.cpu_ns = cpu_since(cpu0);
    Ok(out)
}

/// The pipelined reader: matches responses in order to what was sent,
/// checks each, and frees one window slot per answer.
fn pipelined_reader(
    mut stream: std::net::TcpStream,
    mut reader: ResponseReader,
    prep: &Prepared,
    clock: Clock,
    slots: mpsc::Sender<()>,
    sent_rx: mpsc::Receiver<Sent>,
    tracer: &mut Tracer,
) -> Result<ThreadOut, String> {
    let mut out = ThreadOut::default();
    let mut cpu0 = None;
    let mut pending: VecDeque<(Expect, Phase, Instant, f64)> = VecDeque::new();
    let mut ended = false;
    let mut seq = 0u64;
    loop {
        if pending.is_empty() {
            if ended {
                break;
            }
            match sent_rx.recv() {
                Ok(Sent::Req { expect, phase, at, steal }) => pending.push_back((expect, phase, at, steal)),
                Ok(Sent::End) | Err(_) => ended = true,
            }
            continue;
        }
        let (status, body) = tracer
            .scope("client.response", seq, |_| reader.next(&mut stream))
            .map_err(|e| format!("pipelined read: {e}"))?;
        seq += 1;
        let done = Instant::now();
        if cpu0.is_none() && done >= clock.t0 {
            cpu0 = Some(pecan_obs::thread_cpu_ns());
        }
        let (expect, phase, at, steal) = pending.pop_front().expect("pending is non-empty");
        let ok = answer_ok(expect, status, reader.body(body), &prep.refs);
        if expect == Expect::Reload {
            out.phases.record(Phase::Reload, ok, 1);
            if ok && phase == Phase::Timed {
                let stolen = server::host_steal_seconds().unwrap_or(f64::NAN) - steal;
                out.reload_ms.push((done.duration_since(at).as_secs_f64() * 1e3, stolen));
            }
        } else {
            out.answered(&clock, phase, ok, at, done);
        }
        let _ = slots.send(());
        while let Ok(m) = sent_rx.try_recv() {
            match m {
                Sent::Req { expect, phase, at, steal } => pending.push_back((expect, phase, at, steal)),
                Sent::End => ended = true,
            }
        }
    }
    out.cpu_ns = cpu_since(cpu0);
    Ok(out)
}

/// Starts `serve` `repeats` times, each until its first verified answer;
/// the last instance stays up for the load.
fn setup_http(
    prep: &Prepared,
    opts: &Options,
    event_loop: bool,
    live: &mut Live,
) -> Result<ServeProcess, String> {
    let trace_file = opts
        .traced
        .then(|| opts.out_dir.join(format!("serve-trace-{}.json", prep.workload.name())));
    for r in 0..opts.setup_repeats.max(1) {
        let steal = server::host_steal_seconds().unwrap_or(f64::NAN);
        let started = Instant::now();
        let server = ServeProcess::spawn(&opts.serve_bin, &prep.snapshot, event_loop, trace_file.as_deref())?;
        live.listen_ms.push(server.listen_s * 1e3);
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let mut answered = false;
        for _ in 0..100 {
            let ok = conn
                .call_checked(&prep.requests[0], Expect::Predict(0), &prep.refs)
                .unwrap_or(false);
            live.phases.record(Phase::Warmup, ok, 1);
            if ok {
                answered = true;
                break;
            }
        }
        if !answered {
            return Err("serve never gave a verified answer during set-up".into());
        }
        let took = started.elapsed().as_secs_f64();
        live.setup_s.push((took, server::host_steal_seconds().unwrap_or(f64::NAN) - steal));
        drop(conn);
        if r + 1 == opts.setup_repeats.max(1) {
            return Ok(server);
        }
        server.shutdown()?;
    }
    unreachable!("the loop returns on its last repetition")
}

fn scrape(addr: SocketAddr) -> Result<(Scrape, String), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (s1, metrics) = conn.call_raw(&crate::client::get("/metrics")).map_err(|e| e.to_string())?;
    let (s2, stats) = conn.call_raw(&crate::client::get("/stats")).map_err(|e| e.to_string())?;
    if s1 != 200 || s2 != 200 {
        return Err(format!("scrape answered {s1}/{s2}"));
    }
    Ok((
        Scrape::parse(&String::from_utf8_lossy(&metrics)),
        String::from_utf8_lossy(&stats).into_owned(),
    ))
}

fn http(prep: &Prepared, opts: &Options, pipelined: bool) -> Result<Live, String> {
    let mut live = Live { timed_s: opts.seconds, ..Live::default() };
    let server = setup_http(prep, opts, pipelined, &mut live)?;
    let addr = server.addr;
    let pid = server.pid();
    let origin = Instant::now();
    let t0 = origin + WARMUP;
    let clock = Clock { t0, t1: t0 + Duration::from_secs_f64(opts.seconds) };

    let outs: Vec<Result<ThreadOut, String>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        if pipelined {
            let conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let (stream, reader) = conn.into_parts();
            let write_half = stream.try_clone().map_err(|e| e.to_string())?;
            let (slot_tx, slot_rx) = mpsc::channel();
            for _ in 0..WINDOW {
                let _ = slot_tx.send(());
            }
            let (sent_tx, sent_rx) = mpsc::channel();
            handles.push(s.spawn(move || pipelined_writer(write_half, prep, clock, slot_rx, sent_tx)));
            let traced = opts.traced;
            handles.push(s.spawn(move || {
                let mut tracer = Tracer::new(origin, 1, traced);
                let mut out = pipelined_reader(stream, reader, prep, clock, slot_tx, sent_rx, &mut tracer)?;
                out.spans = tracer.spans;
                Ok(out)
            }));
        } else {
            for t in 0..2 {
                let traced = opts.traced;
                handles.push(s.spawn(move || {
                    let mut tracer = Tracer::new(origin, t as u32 + 1, traced);
                    let offset = t * prep.requests.len() / 2;
                    let mut out = closed_loop(addr, prep, offset, clock, &mut tracer)?;
                    out.spans = tracer.spans;
                    Ok(out)
                }));
            }
        }
        let mut before = None;
        live.marks = take_marks(t0, opts.seconds, Some(pid), || {
            live.peak_rss_kib = server::peak_rss_kib(Some(pid)).unwrap_or(0);
            if opts.traced {
                before = Some(scrape(addr));
            }
        });
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into()))).collect();
        if let Some(before) = before {
            let (metrics_before, stats_before) = before?;
            let (metrics_after, stats_after) = scrape(addr)?;
            live.scrapes = Some(Scrapes { metrics_before, metrics_after, stats_before, stats_after });
        }
        Ok::<_, String>(outs)
    })?;
    live.client_threads = outs.len();
    let mut last_done = t0;
    for out in outs {
        let out = out?;
        live.phases.add(&out.phases);
        live.latencies.extend(out.latencies);
        live.answers += out.answers;
        live.client_cpu_s += out.cpu_ns as f64 / 1e9;
        live.reload_ms.extend(out.reload_ms);
        live.spans.extend(out.spans);
        if let Some(d) = out.last_done {
            last_done = last_done.max(d);
        }
    }
    live.window_s = last_done.duration_since(t0).as_secs_f64();

    if !pipelined {
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reload = crate::client::post("/reload", "");
        for r in 0..RELOADS {
            let steal = server::host_steal_seconds().unwrap_or(f64::NAN);
            let at = Instant::now();
            let ok = conn.call_checked(&reload, Expect::Reload, &prep.refs).unwrap_or(false);
            if ok {
                let ms = at.elapsed().as_secs_f64() * 1e3;
                live.reload_ms.push((ms, server::host_steal_seconds().unwrap_or(f64::NAN) - steal));
            }
            live.phases.record(Phase::Reload, ok, 1);
            let idx = (r + 1) % prep.requests.len();
            let ok = conn.call_checked(&prep.requests[idx], Expect::Predict(idx), &prep.refs).unwrap_or(false);
            live.phases.record(Phase::Reload, ok, 1);
        }
    }
    live.peak_rss_end_kib = server::peak_rss_kib(Some(pid)).unwrap_or(0);
    server.shutdown()?;
    Ok(live)
}

/// Loads the snapshot in process and answers one batch.
fn offline_setup(prep: &Prepared, live: &mut Live) -> Result<FrozenEngine, String> {
    let steal = server::host_steal_seconds().unwrap_or(f64::NAN);
    let started = Instant::now();
    let engine = FrozenEngine::load_snapshot(&prep.snapshot).map_err(|e| e.to_string())?;
    let ok = offline_batch(&engine, prep, &consecutive(prep, 0))?;
    live.phases.record(Phase::Warmup, ok == OFFLINE_BATCH, OFFLINE_BATCH as u64);
    let took = started.elapsed().as_secs_f64();
    live.setup_s.push((took, server::host_steal_seconds().unwrap_or(f64::NAN) - steal));
    Ok(engine)
}

/// The `OFFLINE_BATCH` consecutive pool indices from `first` (wrapping).
fn consecutive(prep: &Prepared, first: usize) -> Vec<usize> {
    (0..OFFLINE_BATCH).map(|k| (first + k) % prep.inputs.len()).collect()
}

/// Runs one batch of the pool inputs `idx` and returns how many answers
/// were correct.
fn offline_batch(engine: &FrozenEngine, prep: &Prepared, idx: &[usize]) -> Result<usize, String> {
    let mut data = Vec::with_capacity(idx.len() * engine.input_len());
    for &i in idx {
        data.extend_from_slice(&prep.inputs[i]);
    }
    let batch = InferBatch::from_data(data, engine.input_shape(), idx.len()).map_err(|e| e.to_string())?;
    let out = engine.infer(batch).map_err(|e| e.to_string())?;
    Ok(idx
        .iter()
        .enumerate()
        .filter(|&(k, &i)| crate::client::bits_equal(out.col(k), &prep.refs[i]))
        .count())
}

fn offline(prep: &Prepared, opts: &Options) -> Result<Live, String> {
    let mut live = Live { client_threads: 1, timed_s: opts.seconds, ..Live::default() };
    let mut engine = offline_setup(prep, &mut live)?;
    for _ in 1..opts.setup_repeats.max(1) {
        engine = offline_setup(prep, &mut live)?;
    }
    pecan_obs::set_tracing(opts.traced);
    let origin = Instant::now();
    let t0 = origin + WARMUP;
    let clock = Clock { t0, t1: t0 + Duration::from_secs_f64(opts.seconds) };
    let mut tracer = Tracer::new(origin, 1, opts.traced);
    let mut out = ThreadOut::default();
    let mut cpu0 = None;
    let mut infer_ns = 0u128;
    let mut pick = crate::workload::Rng::new(prep.inputs.len() as u64);
    let mut batch_id = 0u64;
    let seconds = opts.seconds;
    std::thread::scope(|s| {
        let sampler = s.spawn(move || take_marks(t0, seconds, None, || {}));
        loop {
            let sent = Instant::now();
            if sent >= clock.t1 {
                break;
            }
            let phase = clock.phase(sent);
            if phase == Phase::Timed && cpu0.is_none() {
                cpu0 = Some(pecan_obs::thread_cpu_ns());
                live.peak_rss_kib = server::peak_rss_kib(None).unwrap_or(0);
            }
            let cpu_before = pecan_obs::thread_cpu_ns();
            // Each batch draws its inputs afresh, so batches do not repeat
            // in a cycle of a few fixed compositions.
            let idx: Vec<usize> = (0..OFFLINE_BATCH).map(|_| pick.below(prep.inputs.len())).collect();
            let ok = tracer.scope("client.batch", batch_id, |_| offline_batch(&engine, prep, &idx))?;
            let done = Instant::now();
            let cpu_ns = pecan_obs::thread_cpu_ns().saturating_sub(cpu_before);
            batch_id += 1;
            out.phases.record(phase, true, ok as u64);
            out.phases.record(phase, false, (OFFLINE_BATCH - ok) as u64);
            if phase == Phase::Timed {
                infer_ns += done.duration_since(sent).as_nanos();
                live.batches += 1;
                live.latencies.push((
                    done.duration_since(t0).as_secs_f64(),
                    done.duration_since(sent).as_secs_f64() * 1e3,
                ));
                live.answers += ok as u64;
                live.batch_marks.push((
                done.duration_since(t0).as_secs_f64(),
                done.duration_since(sent).as_secs_f64(),
                cpu_ns as f64 / 1e9,
                ok as u64,
            ));
                out.last_done = Some(done);
            }
        }
        live.marks = sampler.join().map_err(|_| "mark sampler panicked".to_string())?;
        Ok::<_, String>(())
    })?;
    live.client_cpu_s = cpu_since(cpu0) as f64 / 1e9;
    pecan_obs::set_tracing(false);
    live.phases.add(&out.phases);
    live.window_s = out.last_done.map_or(0.0, |d| d.duration_since(t0).as_secs_f64());
    live.infer_us_per_batch = infer_ns as f64 / 1e3 / live.batches.max(1) as f64;
    live.spans = tracer.spans;

    for r in 0..RELOADS {
        let steal = server::host_steal_seconds().unwrap_or(f64::NAN);
        let at = Instant::now();
        let fresh = FrozenEngine::load_snapshot(&prep.snapshot);
        let ok = fresh.is_ok();
        if let Ok(e) = fresh {
            engine = e;
            let ms = at.elapsed().as_secs_f64() * 1e3;
            live.reload_ms.push((ms, server::host_steal_seconds().unwrap_or(f64::NAN) - steal));
        }
        live.phases.record(Phase::Reload, ok, 1);
        let good = offline_batch(&engine, prep, &consecutive(prep, r * OFFLINE_BATCH))?;
        live.phases.record(Phase::Reload, true, good as u64);
        live.phases.record(Phase::Reload, false, (OFFLINE_BATCH - good) as u64);
    }
    live.peak_rss_end_kib = server::peak_rss_kib(None).unwrap_or(0);
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_takes_the_least_stolen_share_and_its_ties() {
        // 20 samples, QUIET_SHARE of them is 4.
        let mut steal = vec![0.5; 20];
        for (i, v) in [(3, 0.0), (9, 0.1), (12, 0.0), (17, 0.2), (18, 0.3)] {
            steal[i] = v;
        }
        assert_eq!(quietest(&steal), vec![3, 9, 12, 17]);
        // Ties with the last chosen sample are all kept.
        steal[5] = 0.2;
        assert_eq!(quietest(&steal), vec![3, 5, 9, 12, 17]);
        assert_eq!(quietest(&[0.7]), vec![0]);
        assert!(quietest(&[]).is_empty());
    }

    #[test]
    fn windows_count_answers_cpu_and_steal() {
        let mark = |steal_s, server_cpu_s| Mark { steal_s, server_cpu_s };
        let live = Live {
            timed_s: 0.5,
            marks: vec![mark(1.0, 10.0), mark(1.0, 10.2), mark(1.05, 10.5)],
            latencies: vec![(0.1, 1.0), (0.2, 1.0), (0.3, 1.0), (0.6, 1.0)],
            ..Live::default()
        };
        let w = live.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].answers, 2);
        assert_eq!(w[1].answers, 1, "answers after the phase are left out");
        assert!((w[0].cpu_s - 0.2).abs() < 1e-9 && (w[1].cpu_s - 0.3).abs() < 1e-9);
        assert!(w[0].steal_s == 0.0 && (w[1].steal_s - 0.05).abs() < 1e-9);
        assert_eq!(w[0].span_s, 0.25);
    }
}
