//! Reference answers, computed before any timing.
//!
//! PECAN-D references replay Algorithm 1 stage by stage from the engine's
//! public accessors (`cam_rows`, `luts`, `bias`, conv geometry, pooling
//! windows), with every group search done by the scalar oracle
//! `pecan_index::l1_argmin` (lowest index wins ties) and every table read
//! added in the engine's order: bias first, then groups ascending. They
//! share no code with the serving path beyond the stored tables.
//! PECAN-A references are the engine's own answers at batch size 1.

use pecan_core::{InferBatch, LayerLut, PecanVariant};
use pecan_serve::{
    FlattenStage, FrozenEngine, GlobalAvgPoolStage, LutConvStage, LutLinearStage, MaxPoolStage,
    ReluStage,
};
use pecan_tensor::Conv2dGeometry;

/// The scheme of the engine's first lookup-table stage.
pub fn variant(engine: &FrozenEngine) -> Option<PecanVariant> {
    engine.stages().iter().find_map(|s| s.lut()).map(LayerLut::variant)
}

/// Reference outputs for every input.
pub fn references(engine: &FrozenEngine, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, String> {
    match variant(engine) {
        Some(PecanVariant::Distance) => inputs.iter().map(|x| distance_reference(engine, x)).collect(),
        Some(PecanVariant::Angle) => inputs
            .iter()
            .map(|x| {
                let batch = InferBatch::from_data(x.clone(), engine.input_shape(), 1)
                    .map_err(|e| e.to_string())?;
                Ok(engine.infer(batch).map_err(|e| e.to_string())?.into_data())
            })
            .collect(),
        None => Err("engine has no lookup-table stage".into()),
    }
}

/// One column through one PECAN-D layer.
fn lut_column(lut: &LayerLut, x: &[f32]) -> Result<Vec<f32>, String> {
    let d = lut.config().dim();
    let c_out = lut.outputs();
    if x.len() != lut.config().rows() {
        return Err(format!("column of {} for {} rows", x.len(), lut.config().rows()));
    }
    let mut acc = match lut.bias() {
        Some(b) => b.data().to_vec(),
        None => vec![0.0; c_out],
    };
    for (j, (rows, table)) in lut.cam_rows().iter().zip(lut.luts()).enumerate() {
        let (row, _) = pecan_index::l1_argmin(rows.data(), d, &x[j * d..(j + 1) * d]);
        let p = table.entries();
        let t = table.table().data();
        for (o, a) in acc.iter_mut().enumerate() {
            *a += t[o * p + row];
        }
    }
    Ok(acc)
}

/// One sample through a PECAN-D convolution: unfold each output
/// position's window (channel, then kernel row, then kernel column, zero
/// outside the image), run the layer, and lay the result out channel-major.
fn conv(geom: &Conv2dGeometry, lut: &LayerLut, x: &[f32]) -> Result<Vec<f32>, String> {
    let (k, s, pad) = (geom.kernel(), geom.stride(), geom.padding() as isize);
    let (h, w) = (geom.h_in(), geom.w_in());
    let n = geom.n_patches();
    let mut out = vec![0.0; lut.outputs() * n];
    let mut patch = vec![0.0; geom.patch_len()];
    for oy in 0..geom.h_out() {
        for ox in 0..geom.w_out() {
            let mut r = 0;
            for c in 0..geom.c_in() {
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * s + ky) as isize - pad;
                        let ix = (ox * s + kx) as isize - pad;
                        let inside = iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w;
                        patch[r] =
                            if inside { x[(c * h + iy as usize) * w + ix as usize] } else { 0.0 };
                        r += 1;
                    }
                }
            }
            let p = oy * geom.w_out() + ox;
            for (o, v) in lut_column(lut, &patch)?.into_iter().enumerate() {
                out[o * n + p] = v;
            }
        }
    }
    Ok(out)
}

fn max_pool(kernel: usize, stride: usize, shape: &[usize], x: &[f32]) -> Vec<f32> {
    let (c_n, h, w) = (shape[0], shape[1], shape[2]);
    let (h_out, w_out) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let mut out = Vec::with_capacity(c_n * h_out * w_out);
    for c in 0..c_n {
        for oy in 0..h_out {
            for ox in 0..w_out {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let v = x[c * h * w + (oy * stride + ky) * w + ox * stride + kx];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

/// Algorithm 1 for one sample, stage by stage.
pub fn distance_reference(engine: &FrozenEngine, input: &[f32]) -> Result<Vec<f32>, String> {
    let mut x = input.to_vec();
    let mut shape = engine.input_shape().to_vec();
    for stage in engine.stages() {
        let any = stage.as_any();
        if let Some(s) = any.downcast_ref::<LutConvStage>() {
            x = conv(s.geometry(), s.lut_engine(), &x)?;
        } else if let Some(s) = any.downcast_ref::<LutLinearStage>() {
            x = lut_column(s.lut_engine(), &x)?;
        } else if any.is::<ReluStage>() {
            for v in &mut x {
                *v = v.max(0.0);
            }
        } else if let Some(s) = any.downcast_ref::<MaxPoolStage>() {
            x = max_pool(s.kernel(), s.stride(), &shape, &x);
        } else if any.is::<FlattenStage>() {
        } else if any.is::<GlobalAvgPoolStage>() {
            let hw = shape[1] * shape[2];
            x = x.chunks_exact(hw).map(|c| c.iter().sum::<f32>() / hw as f32).collect();
        } else {
            return Err(format!("no reference for stage kind `{}`", stage.name()));
        }
        shape = stage.out_shape(&shape).map_err(|e| e.to_string())?;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::bits_equal;

    fn inputs(n: usize, len: usize) -> Vec<Vec<f32>> {
        let mut rng = crate::workload::Rng::new(5);
        (0..n).map(|_| (0..len).map(|_| rng.unit() - 0.25).collect()).collect()
    }

    #[test]
    fn distance_reference_matches_the_engine_bit_for_bit() {
        for engine in [pecan_serve::demo::mlp_engine(3), pecan_serve::demo::lenet_engine(3)] {
            let xs = inputs(3, engine.input_len());
            let refs = references(&engine, &xs).unwrap();
            let got = engine.predict_batch(&xs).unwrap();
            for (r, g) in refs.iter().zip(&got) {
                assert!(bits_equal(r, g));
            }
        }
    }

    #[test]
    fn a_corrupted_reference_is_caught() {
        let engine = pecan_serve::demo::mlp_engine(4);
        let xs = inputs(2, engine.input_len());
        let mut refs = references(&engine, &xs).unwrap();
        refs[1][3] = f32::from_bits(refs[1][3].to_bits() ^ 1);
        let got = engine.predict_batch(&xs).unwrap();
        assert!(bits_equal(&refs[0], &got[0]));
        assert!(!bits_equal(&refs[1], &got[1]));
    }
}
