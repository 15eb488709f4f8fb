//! The traced run's replay: the workload's own requests, in batches
//! drawn from the live run's batch sizes, pushed through the public
//! function of each serving layer in process, with a span around every
//! call.
//!
//! This module is used by the traced run only. An API change in a layer
//! breaks the traced run here and leaves the end-to-end path alone.
//!
//! Each batch is replayed twice. The first pass is the serving path as
//! the engine runs it: `http.parse` (`RequestParser`), `json.decode`,
//! then `engine.batch` = `engine.pack` + one `stage.<kind>` span per
//! `Stage::run` + `engine.unpack`, then `json.encode`. The second pass
//! breaks the lookup-table stages down: `core.im2col`,
//! `core.forward_cols`, and `LayerLut::forward_cols` redone from its
//! parts — CAM search (`cam.l1_search` or `cam.dot_scores`, plus
//! `cam.softmax` for PECAN-A) and LUT accumulation (`cam.lut_accumulate`
//! or `cam.weighted_accumulate`). The redone output must equal the
//! engine's bit for bit.

use crate::client::bits_equal;
use crate::trace::{stage_span, Span, Tracer};
use crate::workload::Prepared;
use pecan_cam::{AnalogCam, DotProductCam};
use pecan_core::{InferBatch, LayerLut, PecanVariant};
use pecan_serve::{json, LutConvStage, LutLinearStage, RequestParser, Stage};
use std::time::{Duration, Instant};

/// The CAM arrays of one lookup-table stage, programmed from
/// `LayerLut::cam_rows()`.
enum Cams {
    Distance(Vec<AnalogCam>),
    Angle(Vec<DotProductCam>),
}

impl Cams {
    fn of(lut: &LayerLut) -> Result<Cams, String> {
        let rows = lut.cam_rows();
        let e = |e: pecan_tensor::ShapeError| e.to_string();
        Ok(match lut.variant() {
            PecanVariant::Distance => Cams::Distance(
                rows.into_iter().map(|r| AnalogCam::new(r.clone())).collect::<Result<_, _>>().map_err(e)?,
            ),
            PecanVariant::Angle => Cams::Angle(
                rows.into_iter().map(|r| DotProductCam::new(r.clone())).collect::<Result<_, _>>().map_err(e)?,
            ),
        })
    }
}

/// Work counts the replay computes from tensor sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Batches replayed.
    pub batches: u64,
    /// Requests replayed.
    pub requests: u64,
    /// CAM cells compared: p·d per query per group.
    pub cam_cells: u64,
    /// Bytes the CAM searches read: prototypes plus queries, f32.
    pub cam_bytes: u64,
    /// CPU ns of `core.forward_cols` inside `lut-conv` stages only.
    pub conv_forward_cpu_ns: u64,
    /// CPU ns of `lut-conv` `Stage::run` in the breakdown pass, right
    /// after its parts, so the relayout (stage minus `im2col` minus
    /// `forward_cols`) compares neighbouring runs.
    pub conv_stage_cpu_ns: u64,
}

/// Spans and counts of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Work counts.
    pub work: Work,
}

/// The engine's softmax, reproduced operation for operation so the
/// decomposed PECAN-A path is bit-identical to `forward_cols`.
fn softmax_into(scores: &[f32], tau: f32, out: &mut [f32]) {
    let mx = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max) / tau;
    let exps: Vec<f32> = scores.iter().map(|&s| (s / tau - mx).exp()).collect();
    let z: f32 = exps.iter().sum();
    for (o, e) in out.iter_mut().zip(exps) {
        *o = e / z;
    }
}

/// Columns per PECAN-A decomposition chunk (bounds the score buffers).
const ANGLE_CHUNK: usize = 4096;

/// `LayerLut::forward_cols` redone from the CAM and LUT calls.
fn forward_from_parts(
    t: &mut Tracer,
    bid: u64,
    lut: &LayerLut,
    cams: &Cams,
    x: &InferBatch,
    work: &mut Work,
) -> Result<Vec<f32>, String> {
    let cfg = lut.config();
    let (d, c_out, cols) = (cfg.dim(), lut.outputs(), x.cols());
    let e = |e: pecan_tensor::ShapeError| e.to_string();
    let mut acc = vec![0.0f32; cols * c_out];
    let init = |acc: &mut [f32]| {
        if let Some(b) = lut.bias() {
            for column in acc.chunks_exact_mut(c_out) {
                column.copy_from_slice(b.data());
            }
        }
    };
    match cams {
        Cams::Distance(cams) => {
            // Group by group, as `forward_cols` runs them: one search
            // span and one accumulation span per group.
            t.scope("cam.lut_accumulate", bid, |_| init(&mut acc));
            let mut scratch = Vec::new();
            for (j, cam) in cams.iter().enumerate() {
                let hits = t
                    .scope("cam.l1_search", bid, |_| {
                        cam.search_strided_into(x.data(), x.features(), j * d, cols, &mut scratch)
                    })
                    .map_err(e)?;
                t.scope("cam.lut_accumulate", bid, |_| {
                    for (i, hit) in hits.iter().enumerate() {
                        lut.luts()[j].accumulate_column(hit.row, &mut acc[i * c_out..(i + 1) * c_out])?;
                    }
                    Ok(())
                })
                .map_err(e)?;
                work.cam_cells += (cam.entries() * d * cols) as u64;
                work.cam_bytes += ((cam.entries() * d + cols * d) * 4) as u64;
            }
        }
        Cams::Angle(cams) => {
            let tau = cfg.tau();
            for cam in cams {
                work.cam_cells += (cam.entries() * d * cols) as u64;
                work.cam_bytes += ((cam.entries() * d + cols * d) * 4) as u64;
            }
            for start in (0..cols).step_by(ANGLE_CHUNK) {
                let end = (start + ANGLE_CHUNK).min(cols);
                let offsets: Vec<usize> = cams.iter().scan(0, |at, c| {
                    let o = *at;
                    *at += c.entries();
                    Some(o)
                }).collect();
                let per_col: usize = cams.iter().map(DotProductCam::entries).sum();
                let mut scores = vec![0.0f32; (end - start) * per_col];
                t.scope("cam.dot_scores", bid, |_| {
                    for i in start..end {
                        let column = x.col(i);
                        let row = &mut scores[(i - start) * per_col..(i - start + 1) * per_col];
                        for (j, cam) in cams.iter().enumerate() {
                            let out = &mut row[offsets[j]..offsets[j] + cam.entries()];
                            cam.scores_into(&column[j * d..(j + 1) * d], out)?;
                        }
                    }
                    Ok(())
                }).map_err(e)?;
                let mut weights = vec![0.0f32; scores.len()];
                t.scope("cam.softmax", bid, |_| {
                    for (s, w) in scores.chunks_exact(per_col).zip(weights.chunks_exact_mut(per_col)) {
                        for (j, cam) in cams.iter().enumerate() {
                            let r = offsets[j]..offsets[j] + cam.entries();
                            softmax_into(&s[r.clone()], tau, &mut w[r]);
                        }
                    }
                });
                t.scope("cam.weighted_accumulate", bid, |_| {
                    let acc = &mut acc[start * c_out..end * c_out];
                    init(acc);
                    for (k, w) in weights.chunks_exact(per_col).enumerate() {
                        let a = &mut acc[k * c_out..(k + 1) * c_out];
                        for (j, cam) in cams.iter().enumerate() {
                            lut.luts()[j].accumulate_weighted(&w[offsets[j]..offsets[j] + cam.entries()], a)?;
                        }
                    }
                    Ok(())
                }).map_err(e)?;
            }
        }
    }
    Ok(acc)
}

/// Times `f` as span `name` and returns its (wall, CPU) ns too.
fn timed<R>(t: &mut Tracer, name: &'static str, bid: u64, f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let at = t.spans.len();
    let r = t.scope(name, bid, |_| f());
    let s = &t.spans[at];
    (r, (s.wall_ns(), s.cpu_ns))
}

/// Second pass over one batch: each lookup-table stage broken into its
/// parts, every part's output checked against the engine's.
fn decompose(
    t: &mut Tracer,
    bid: u64,
    prep: &Prepared,
    cams: &[Option<Cams>],
    inputs: &[Vec<f32>],
    work: &mut Work,
) -> Result<(), String> {
    let engine = &prep.engine;
    let e = |e: pecan_tensor::ShapeError| e.to_string();
    let mut x = InferBatch::from_samples(inputs, engine.input_shape()).map_err(e)?;
    for (stage, cams) in engine.stages().iter().zip(cams) {
        let any = stage.as_any();
        let (lut, cols) = if let Some(conv) = any.downcast_ref::<LutConvStage>() {
            let cols = t.scope("core.im2col", bid, |_| x.im2col(conv.geometry())).map_err(e)?;
            (conv.lut_engine(), Some(cols))
        } else if let Some(linear) = any.downcast_ref::<LutLinearStage>() {
            (linear.lut_engine(), None)
        } else {
            x = stage.run(x, None).map_err(|e| e.to_string())?;
            continue;
        };
        let is_conv = cols.is_some();
        let features = cols.unwrap_or_else(|| x.clone());
        let cams = cams.as_ref().ok_or("lookup-table stage without CAM arrays")?;
        // Whichever of the two runs second finds the tables in cache, so
        // they take turns going first.
        let parts_first = bid % 2 == 1;
        let mut parts = Ok(Vec::new());
        if parts_first {
            parts = forward_from_parts(t, bid, lut, cams, &features, work);
        }
        let copy = features.clone();
        let (y, ns) = timed(t, "core.forward_cols", bid, || lut.forward_cols(copy, None));
        let y = y.map_err(e)?;
        if is_conv {
            work.conv_forward_cpu_ns += ns.1;
        }
        if !parts_first {
            parts = forward_from_parts(t, bid, lut, cams, &features, work);
        }
        let parts = parts?;
        if !bits_equal(&parts, y.data()) {
            return Err(format!("{} redone from CAM and LUT calls differs from forward_cols", stage.name()));
        }
        if is_conv {
            let (out, ns) = timed(t, "decompose.lut-conv", bid, || stage.run(x, None));
            work.conv_stage_cpu_ns += ns.1;
            x = out.map_err(|e| e.to_string())?;
        } else {
            x = stage.run(x, None).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Replays the workload's requests for at least `min_batches` batches
/// and until `budget` has passed, cycling through `sizes`.
pub fn run(
    prep: &Prepared,
    sizes: &[usize],
    origin: Instant,
    budget: Duration,
    min_batches: u64,
) -> Result<Replay, String> {
    let engine = &prep.engine;
    let stages: &[Box<dyn Stage>] = engine.stages();
    let kinds: Vec<&'static str> = stages
        .iter()
        .map(|s| stage_span(s.name()).ok_or_else(|| format!("stage kind `{}` has no per-layer row", s.name())))
        .collect::<Result<_, _>>()?;
    let cams: Vec<Option<Cams>> =
        stages.iter().map(|s| s.lut().map(Cams::of).transpose()).collect::<Result<_, _>>()?;
    let mut t = Tracer::new(origin, 0, true);
    let mut work = Work::default();
    let mut parser = RequestParser::new(64 << 10, 16 << 20);
    let n = prep.inputs.len();
    let mut next = 0;
    let started = Instant::now();
    let e = |e: pecan_tensor::ShapeError| e.to_string();
    while work.batches < min_batches || started.elapsed() < budget {
        let bid = work.batches;
        let b = sizes[bid as usize % sizes.len()].max(1);
        let idx: Vec<usize> = (0..b).map(|k| (next + k) % n).collect();
        next = (next + b) % n;

        let bodies: Vec<Vec<u8>> = t.scope("http.parse", bid, |_| {
            idx.iter()
                .map(|&i| {
                    parser.push(&prep.requests[i]);
                    match parser.next_request() {
                        Ok(Some(r)) => Ok(r.body),
                        other => Err(format!("replayed request did not parse: {other:?}")),
                    }
                })
                .collect::<Result<_, String>>()
        })?;
        let inputs: Vec<Vec<f32>> = t.scope("json.decode", bid, |_| {
            bodies
                .iter()
                .map(|b| json::parse_f32_array(std::str::from_utf8(b).map_err(|e| e.to_string())?))
                .collect::<Result<_, String>>()
        })?;
        if !idx.iter().zip(&inputs).all(|(&i, x)| bits_equal(x, &prep.inputs[i])) {
            return Err("decoded inputs differ from the generated ones".into());
        }

        let outputs = t.scope("engine.batch", bid, |t| {
            let mut x = t
                .scope("engine.pack", bid, |_| InferBatch::from_samples(&inputs, engine.input_shape()))
                .map_err(e)?;
            for (stage, &span) in stages.iter().zip(&kinds) {
                x = t.scope(span, bid, |_| stage.run(x, None)).map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(t.scope("engine.unpack", bid, |_| x.into_samples()))
        })?;
        if !idx.iter().zip(&outputs).all(|(&i, y)| bits_equal(y, &prep.refs[i])) {
            return Err("a replayed answer differs from its reference".into());
        }
        let encoded: usize = t.scope("json.encode", bid, |_| {
            outputs.iter().map(|y| json::format_f32_array(y).len()).sum()
        });
        std::hint::black_box(encoded);

        t.scope("decompose", bid, |t| decompose(t, bid, prep, &cams, &inputs, &mut work))?;
        work.batches += 1;
        work.requests += b as u64;
    }
    Ok(Replay { spans: t.spans, work })
}
