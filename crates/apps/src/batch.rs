//! Batched throughput runs: N independent simulated boards process a
//! stream of images in parallel host threads.
//!
//! Every image is simulated on a board of its own, new or reset to new
//! between images (boards are independent SoCs; there is no
//! cross-image contention to model), so
//! per-image simulated latency is a pure function of (architecture,
//! image, board knobs). Host threads only parallelise the *host* work of
//! running the simulations — the aggregated [`BatchReport`] is therefore
//! **byte-identical across `--threads` values and across repeated runs**:
//! results land in their input slot regardless of which worker computed
//! them, and all derived statistics are computed from that ordered list.

use crate::archs::Arch;
use crate::image::RgbImage;
use crate::otsu::{AppConfig, AppError, GroupRunner};
use accelsoc_core::flow::{FlowArtifacts, FlowEngine};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Map `f` over `0..n` on up to `threads` scoped host threads, each
/// taking one contiguous chunk of indices, and return the results in
/// index order — so the output never depends on `threads`.
pub fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    par_map_with(n, threads, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker state: each worker makes one `S` with
/// `init` and hands it to `f` for every index of its chunk, so `f` can
/// keep boards and buffers from one index to the next. When one chunk
/// covers all `n` indices (one thread, or `n <= 1`), the map runs on
/// the calling thread and spawns none.
pub fn par_map_with<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let chunk = n.div_ceil(threads.max(1)).max(1);
    if chunk >= n {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    let (init, f) = (&init, &f);
    crossbeam::thread::scope(|s| {
        for (c, out) in slots.chunks_mut(chunk).enumerate() {
            s.spawn(move |_| {
                let mut state = init();
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = Some(f(&mut state, c * chunk + i));
                }
            });
        }
    })
    .expect("parallel map worker panicked");
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Lane width used when the caller doesn't pick one: on the sides the
/// serving tenants use, 4 lanes in lockstep run the Otsu chain faster
/// than one lane (DESIGN.md §14).
pub const DEFAULT_LANES: usize = 4;

/// Deterministic aggregate of one batched run.
///
/// The report separates **simulated time** (`per_image_ns` and its
/// aggregates — a pure function of architecture, image and board knobs,
/// identical at every lane count) from **host dispatch/decode overhead**
/// (`ir_ops` / `vm_dispatches` — how many lane-VM dispatches the host
/// spent retiring that simulated work). Lane batching only moves the
/// second group: `ops_per_dispatch` growing with `lanes` is the
/// amortization, while `per_image_ns` staying put is the correctness
/// contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    pub arch: String,
    pub images: usize,
    /// Simulated latency of each image, nanoseconds, in input order.
    pub per_image_ns: Vec<f64>,
    /// Nearest-rank percentiles over `per_image_ns`.
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub mean_ns: f64,
    /// Sum of per-image simulated time: one board processing the batch
    /// back to back.
    pub total_board_ns: f64,
    /// Simulated throughput of a single board: `images / total_board_ns`.
    pub images_per_sec_single_board: f64,
    /// Lane width the batch was executed at (images per lane group).
    pub lanes: usize,
    /// IR operations retired by software tasks across the batch —
    /// simulated work, independent of lane width.
    pub ir_ops: u64,
    /// Lane-VM dispatches the host spent retiring them: the
    /// dispatch/decode overhead that lane batching amortizes.
    pub vm_dispatches: u64,
    /// `ir_ops / vm_dispatches`: retired IR operations per dispatch.
    /// Scales with `lanes`, since a group's lanes, all of one image
    /// shape, run in lockstep.
    pub ops_per_dispatch: f64,
}

/// Nearest-rank percentile (`p` in [0, 100]) over unsorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run `images` through `arch` on `threads` parallel host threads (each
/// image on a board of its own) at the default lane width and fold the
/// per-image simulated latencies into a [`BatchReport`].
pub fn run_batch(
    arch: Arch,
    engine: &FlowEngine,
    artifacts: &FlowArtifacts,
    images: &[RgbImage],
    threads: usize,
    cfg: &AppConfig,
) -> Result<BatchReport, AppError> {
    run_batch_lanes(arch, engine, artifacts, images, threads, DEFAULT_LANES, cfg)
}

/// [`run_batch`] with an explicit lane width: images are partitioned
/// into lane groups of up to `lanes` images of one shape, in input
/// order, each group executes its software tasks as **one** lane-VM
/// batch ([`GroupRunner`]), and host threads parallelise across groups,
/// each worker reusing one runner's boards for all its groups. Images of different shapes never run in lockstep
/// (their loops run different trip counts), so a group mixing them
/// would run each image alone. Results land in their input slot
/// regardless of which worker computed them, so the report stays
/// byte-identical across `threads` for any fixed `lanes`.
pub fn run_batch_lanes(
    arch: Arch,
    engine: &FlowEngine,
    artifacts: &FlowArtifacts,
    images: &[RgbImage],
    threads: usize,
    lanes: usize,
    cfg: &AppConfig,
) -> Result<BatchReport, AppError> {
    // Each shape's open group, filled to `lanes` images in input order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut open: HashMap<(u32, u32), usize> = HashMap::new();
    for (i, img) in images.iter().enumerate() {
        let shape = (img.width, img.height);
        let g = *open.entry(shape).or_insert_with(|| {
            groups.push(Vec::with_capacity(lanes));
            groups.len() - 1
        });
        groups[g].push(i);
        if groups[g].len() >= lanes {
            open.remove(&shape);
        }
    }
    // Each worker runs its groups on one runner, reusing its boards.
    let results = par_map_with(
        groups.len(),
        threads,
        || GroupRunner::new(arch, engine, artifacts, cfg),
        |runner, g| {
            let group: Vec<&RgbImage> = groups[g].iter().map(|&i| &images[i]).collect();
            runner.latencies(&group).and_then(|g| {
                let ns = g.total_ns.into_iter().collect::<Result<Vec<f64>, _>>()?;
                Ok((ns, g.ir_ops, g.vm_dispatches))
            })
        },
    );
    let mut per_image_ns = vec![0.0; images.len()];
    let (mut ir_ops, mut vm_dispatches) = (0u64, 0u64);
    for (group, result) in groups.iter().zip(results) {
        let (ns, ops, disp) = result?;
        for (&i, ns) in group.iter().zip(ns) {
            per_image_ns[i] = ns;
        }
        ir_ops += ops;
        vm_dispatches += disp;
    }
    let mut sorted = per_image_ns.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let total_board_ns: f64 = per_image_ns.iter().sum();
    let mean_ns = if per_image_ns.is_empty() {
        0.0
    } else {
        total_board_ns / per_image_ns.len() as f64
    };
    let images_per_sec_single_board = if total_board_ns > 0.0 {
        per_image_ns.len() as f64 / (total_board_ns * 1e-9)
    } else {
        0.0
    };
    let ops_per_dispatch = if vm_dispatches > 0 {
        ir_ops as f64 / vm_dispatches as f64
    } else {
        0.0
    };
    Ok(BatchReport {
        arch: arch.name().to_string(),
        images: per_image_ns.len(),
        p50_ns: percentile(&sorted, 50.0),
        p99_ns: percentile(&sorted, 99.0),
        mean_ns,
        total_board_ns,
        images_per_sec_single_board,
        per_image_ns,
        lanes,
        ir_ops,
        vm_dispatches,
        ops_per_dispatch,
    })
}

/// Deterministic image stream for throughput runs: `count` synthetic
/// scenes whose object layout varies with the image index.
pub fn image_stream(count: usize, side: u32) -> Vec<RgbImage> {
    (0..count)
        .map(|i| RgbImage::from_gray(&crate::image::synthetic_scene(side, side, 11 + i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archs::{arch_dsl_source, otsu_flow_engine};
    use crate::otsu::run_application_group;

    #[test]
    fn one_thread_maps_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_map(5, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // One chunk, one worker state, kept from index to index.
        let inits = std::sync::atomic::AtomicUsize::new(0);
        let init = || {
            inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Vec::new()
        };
        let seen = |state: &mut Vec<usize>, i: usize| {
            state.push(i);
            state.clone()
        };
        let out = par_map_with(3, 1, init, seen);
        assert_eq!(out, [vec![0], vec![0, 1], vec![0, 1, 2]]);
        assert_eq!(inits.into_inner(), 1);
        // Three threads: a state per chunk, results in index order.
        let out = par_map_with(5, 3, Vec::new, seen);
        assert_eq!(out, [vec![0], vec![0, 1], vec![2], vec![2, 3], vec![4]]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
    }

    #[test]
    fn batch_report_independent_of_thread_count() {
        let mut engine = otsu_flow_engine();
        let artifacts = engine.run_source(&arch_dsl_source(Arch::Arch1)).unwrap();
        let images = image_stream(5, 24);
        let cfg = AppConfig::default();
        let seq = run_batch(Arch::Arch1, &engine, &artifacts, &images, 1, &cfg).unwrap();
        let par = run_batch(Arch::Arch1, &engine, &artifacts, &images, 4, &cfg).unwrap();
        assert_eq!(seq, par);
        // And byte-identical once serialized (the repro-report contract).
        assert_eq!(
            serde_json::to_string(&seq).unwrap(),
            serde_json::to_string(&par).unwrap()
        );
        assert_eq!(seq.images, 5);
        assert!(seq.p50_ns > 0.0 && seq.p99_ns >= seq.p50_ns);
        assert!(seq.images_per_sec_single_board > 0.0);
    }

    #[test]
    fn lane_width_never_changes_simulated_time() {
        use crate::image::synthetic_scene;
        use crate::otsu::run_application_with;
        let mut engine = otsu_flow_engine();
        // One stream mixing three sides: `run_batch_lanes` groups it by
        // shape, and the input-order chunks below mix shapes.
        let images: Vec<RgbImage> = (0..9u64)
            .map(|i| {
                let side = [16, 17, 24][i as usize % 3];
                RgbImage::from_gray(&synthetic_scene(side, side, 11 + i))
            })
            .collect();
        let cfg = AppConfig::default();
        for arch in Arch::all() {
            let artifacts = engine.run_source(&arch_dsl_source(arch)).unwrap();
            let solo: Vec<_> = images
                .iter()
                .map(|img| run_application_with(arch, &engine, &artifacts, img, &cfg).unwrap())
                .collect();
            let lane_widths = [1usize, 3, 4, 8];
            let reports: Vec<BatchReport> = lane_widths
                .iter()
                .map(|&lanes| {
                    run_batch_lanes(arch, &engine, &artifacts, &images, 2, lanes, &cfg).unwrap()
                })
                .collect();
            // Simulated time is a pure function of (arch, image, knobs):
            // identical at every lane width, down to the last bit.
            for r in &reports[1..] {
                assert_eq!(r.per_image_ns, reports[0].per_image_ns, "{arch:?}");
                assert_eq!(r.total_board_ns, reports[0].total_board_ns, "{arch:?}");
                // The simulated work is the same no matter how it was batched…
                assert_eq!(r.ir_ops, reports[0].ir_ops, "{arch:?}");
            }
            // …and so is every lane's whole run, against the image alone.
            for &lanes in &lane_widths {
                let mut l = 0;
                for chunk in images.chunks(lanes) {
                    let group = run_application_group(arch, &engine, &artifacts, chunk, &cfg);
                    for run in group.unwrap().runs {
                        let (run, alone) = (run.unwrap(), &solo[l]);
                        let at = format!("{arch:?} lanes {lanes} image {l}");
                        assert_eq!(run.tasks, alone.tasks, "{at}");
                        assert_eq!(run.total_ns, alone.total_ns, "{at}");
                        assert_eq!(run.dma_bytes, alone.dma_bytes, "{at}");
                        assert_eq!(run.threshold, alone.threshold, "{at}");
                        assert_eq!(run.output, alone.output, "{at}");
                        assert_eq!(reports[0].per_image_ns[l], alone.total_ns, "{at}");
                        l += 1;
                    }
                }
            }
            // …but wider lanes retire the software tasks (Arch4 has
            // none) in fewer host dispatches.
            if reports[0].ir_ops > 0 {
                assert!(
                    reports[3].vm_dispatches < reports[0].vm_dispatches,
                    "{arch:?}: lanes=8 dispatches {} not < lanes=1 dispatches {}",
                    reports[3].vm_dispatches,
                    reports[0].vm_dispatches
                );
                assert!(reports[3].ops_per_dispatch > reports[0].ops_per_dispatch);
            }
        }
    }

    #[test]
    fn oversubscribed_threads_are_fine() {
        let mut engine = otsu_flow_engine();
        let artifacts = engine.run_source(&arch_dsl_source(Arch::Arch2)).unwrap();
        let images = image_stream(2, 16);
        let cfg = AppConfig::default();
        let r = run_batch(Arch::Arch2, &engine, &artifacts, &images, 16, &cfg).unwrap();
        assert_eq!(r.per_image_ns.len(), 2);
    }
}
