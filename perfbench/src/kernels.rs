//! Kernel-layer replay: the Otsu chain's four kernels over a workload's
//! stage inputs, through each execution tier the program uses —
//! `Interpreter::run` (the partition functional layer), `ExecUnit::run`
//! (board accelerators) and `ExecUnit::run_batch` (the lane VM behind
//! software stages). Only the kernel calls are timed; feeding and
//! draining streams is not.

use crate::host::{digest, median};
use accelsoc_apps::image::RgbImage;
use accelsoc_apps::kernels;
use accelsoc_kernel::interp::ExecOutcome;
use accelsoc_kernel::{ExecError, ExecUnit, Interpreter, Kernel, StreamBundle};
use std::collections::HashMap;
use std::time::Instant;

/// Host rates of each tier over the same inputs. IR ops are the
/// kernels' retired steps, identical across tiers by contract.
pub struct TierRates {
    pub compile_s: f64,
    pub interp_ops_per_s: f64,
    pub scalar_ops_per_s: f64,
    pub lane_ops_per_s: f64,
    pub ops_per_dispatch: f64,
    pub ir_ops: u64,
    /// Every tier produced the same output pixels and the same op count.
    pub consistent: bool,
}

/// One image's progress through the chain.
#[derive(Clone, Default)]
struct Lane {
    rgb: Vec<i64>,
    gray_ch: Vec<i64>,
    gray_seg: Vec<i64>,
    hist: Vec<i64>,
    thr: i64,
    out: Vec<i64>,
}

/// Scalar inputs and fed streams of `stage` for one lane.
fn feed(stage: usize, lane: &Lane) -> (HashMap<String, i64>, StreamBundle) {
    let n = HashMap::from([("n".to_string(), lane.rgb.len() as i64)]);
    let mut b = StreamBundle::new();
    match stage {
        0 => b.feed("imageIn", lane.rgb.iter().copied()),
        1 => b.feed("grayScaleImage", lane.gray_ch.iter().copied()),
        2 => {
            b.feed("histogram", lane.hist.iter().copied());
            return (HashMap::new(), b);
        }
        _ => {
            b.feed("otsuThreshold", [lane.thr]);
            b.feed("grayScaleImage", lane.gray_seg.iter().copied());
        }
    }
    (n, b)
}

/// Move `stage`'s outputs into the lane.
fn absorb(stage: usize, lane: &mut Lane, b: &mut StreamBundle) {
    match stage {
        0 => {
            lane.gray_ch = b.take_output("imageOutCH").unwrap_or_default();
            lane.gray_seg = b.take_output("imageOutSEG").unwrap_or_default();
        }
        1 => lane.hist = b.take_output("histogram").unwrap_or_default(),
        2 => lane.thr = b.take_output("probability").unwrap_or_default()[0],
        _ => lane.out = b.take_output("segmentedGrayImage").unwrap_or_default(),
    }
}

fn out_digest(lanes: &[Lane]) -> u64 {
    let bytes: Vec<u8> = lanes
        .iter()
        .flat_map(|l| l.out.iter().map(|&v| v as u8))
        .collect();
    digest(&bytes)
}

/// Run every image through the chain one kernel call at a time.
fn run_scalar(
    chain: &[Kernel; 4],
    images: &[Lane],
    mut call: impl FnMut(
        usize,
        &HashMap<String, i64>,
        &mut StreamBundle,
    ) -> Result<ExecOutcome, ExecError>,
) -> Result<(f64, u64, u64), ExecError> {
    let (mut secs, mut ops) = (0.0, 0u64);
    let mut lanes = images.to_vec();
    for lane in &mut lanes {
        for stage in 0..chain.len() {
            let (sc, mut b) = feed(stage, lane);
            let t = Instant::now();
            let o = call(stage, &sc, &mut b)?;
            secs += t.elapsed().as_secs_f64();
            ops += o.stats.steps;
            absorb(stage, lane, &mut b);
        }
    }
    Ok((secs, ops, out_digest(&lanes)))
}

/// Replay the chain over `images` on all three tiers; the lane VM runs
/// groups of `width` images, as the serving precompute does.
pub fn replay(images: &[RgbImage], width: usize) -> Result<TierRates, ExecError> {
    let chain = [
        kernels::grayscale(),
        kernels::compute_histogram(),
        kernels::half_probability(),
        kernels::segment(),
    ];
    let compile: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for k in &chain {
                std::hint::black_box(ExecUnit::new(k));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    let units: Vec<ExecUnit> = chain.iter().map(ExecUnit::new).collect();
    let lanes: Vec<Lane> = images
        .iter()
        .map(|img| Lane {
            rgb: img.data.iter().map(|&p| p as i64).collect(),
            ..Lane::default()
        })
        .collect();

    let interp = run_scalar(&chain, &lanes, |s, sc, b| {
        Interpreter::new(&chain[s]).run(sc, b)
    })?;
    let scalar = run_scalar(&chain, &lanes, |s, sc, b| units[s].run(sc, b))?;

    let (mut lane_s, mut lane_ops, mut dispatches) = (0.0, 0u64, 0u64);
    let mut done = lanes.clone();
    for group in done.chunks_mut(width.max(1)) {
        for (stage, unit) in units.iter().enumerate() {
            let (scalars, mut bundles): (Vec<_>, Vec<_>) =
                group.iter().map(|l| feed(stage, l)).unzip();
            let t = Instant::now();
            let out = unit.run_batch(&scalars, &mut bundles);
            lane_s += t.elapsed().as_secs_f64();
            dispatches += out.dispatches;
            for ((lane, b), res) in group.iter_mut().zip(&mut bundles).zip(out.lanes) {
                lane_ops += res?.stats.steps;
                absorb(stage, lane, b);
            }
        }
    }

    let rate = |ops: u64, s: f64| if s > 0.0 { ops as f64 / s } else { 0.0 };
    Ok(TierRates {
        compile_s: median(&compile),
        interp_ops_per_s: rate(interp.1, interp.0),
        scalar_ops_per_s: rate(scalar.1, scalar.0),
        lane_ops_per_s: rate(lane_ops, lane_s),
        ops_per_dispatch: if dispatches > 0 {
            lane_ops as f64 / dispatches as f64
        } else {
            0.0
        },
        ir_ops: interp.1,
        consistent: interp.1 == scalar.1
            && interp.1 == lane_ops
            && interp.2 == scalar.2
            && interp.2 == out_digest(&done),
    })
}
