//! The three workloads and everything made before timing: the model's
//! snapshot file, the seeded input pool, the encoded requests and the
//! reference answers.

use crate::client;
use pecan_core::{PecanBuilder, PecanVariant};
use pecan_serve::FrozenEngine;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: a small seeded generator, so inputs depend on the seed only.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper LeNet-5, PECAN-D, threaded front end, 2 closed-loop clients.
    LenetThreaded,
    /// Demo MLP, PECAN-D, event loop, 32 pipelined requests plus reloads.
    MlpPipelined,
    /// LeNet-5, PECAN-A, in process, batches of 64.
    LenetAngleOffline,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] =
        [Workload::LenetThreaded, Workload::MlpPipelined, Workload::LenetAngleOffline];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LenetThreaded => "lenet-threaded",
            Workload::MlpPipelined => "mlp-pipelined",
            Workload::LenetAngleOffline => "lenet-angle-offline",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs against a `serve` process.
    pub fn is_http(self) -> bool {
        self != Workload::LenetAngleOffline
    }

    /// Distinct inputs in the pool the load cycles through.
    fn pool_size(self) -> usize {
        match self {
            Workload::LenetThreaded => 256,
            Workload::MlpPipelined => 2048,
            Workload::LenetAngleOffline => 2048,
        }
    }

    fn build_engine(self, seed: u64) -> Result<FrozenEngine, String> {
        Ok(match self {
            Workload::LenetThreaded => pecan_serve::demo::lenet_engine(seed),
            Workload::MlpPipelined => pecan_serve::demo::mlp_engine(seed),
            Workload::LenetAngleOffline => {
                let mut builder = PecanBuilder::from_seed(seed, PecanVariant::Angle);
                let net = pecan_nn::models::lenet5_modified(&mut builder)
                    .map_err(|e| e.to_string())?;
                FrozenEngine::compile(&net, &[1, 28, 28])
                    .map_err(|e| e.to_string())?
                    .with_name("lenet-angle")
            }
        })
    }

    /// One input: MNIST-like pixels (about half zero, the rest `k/255`)
    /// for LeNet, values in `[-1, 1]` at a 1/1000 grid for the MLP.
    fn input(self, rng: &mut Rng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match self {
                Workload::MlpPipelined => (rng.below(2001) as f32 - 1000.0) / 1000.0,
                _ if rng.unit() < 0.5 => 0.0,
                _ => (1 + rng.below(255)) as f32 / 255.0,
            })
            .collect()
    }
}

/// Everything a run needs, made before timing.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The snapshot file the program under test loads.
    pub snapshot: PathBuf,
    /// The engine as loaded back from that file (the reference's source).
    pub engine: FrozenEngine,
    /// The input pool.
    pub inputs: Vec<Vec<f32>>,
    /// The reference answer for each input.
    pub refs: Vec<Vec<f32>>,
    /// The encoded `POST /predict` request for each input.
    pub requests: Vec<Vec<u8>>,
    /// Seconds spent preparing (not part of any metric).
    pub prepare_s: f64,
}

/// Writes the seeded model to a snapshot in `out_dir`, draws the input
/// pool and computes the references. With `corrupt_reference`, one bit
/// of one reference is flipped, which every run must then report as a
/// failure.
pub fn prepare(
    workload: Workload,
    seed: u64,
    out_dir: &Path,
    corrupt_reference: bool,
) -> Result<Prepared, String> {
    let started = Instant::now();
    let snapshot = out_dir.join(format!("{}-seed{seed}.psnp", workload.name()));
    workload
        .build_engine(seed)?
        .save_snapshot(&snapshot)
        .map_err(|e| format!("cannot write {}: {e}", snapshot.display()))?;
    let engine = FrozenEngine::load_snapshot(&snapshot).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(workload as u64));
    let inputs: Vec<Vec<f32>> = (0..workload.pool_size())
        .map(|_| workload.input(&mut rng, engine.input_len()))
        .collect();
    let mut refs = crate::oracle::references(&engine, &inputs)?;
    // The last input, so set-up (which answers input 0) still succeeds
    // and the failure shows in the load phases.
    if let Some(r) = refs.last_mut().and_then(|r| r.first_mut()).filter(|_| corrupt_reference) {
        *r = f32::from_bits(r.to_bits() ^ 1);
    }
    let requests = inputs
        .iter()
        .map(|x| client::post("/predict", &pecan_serve::json::format_f32_array(x)))
        .collect();
    Ok(Prepared {
        workload,
        snapshot,
        engine,
        inputs,
        refs,
        requests,
        prepare_s: started.elapsed().as_secs_f64(),
    })
}
