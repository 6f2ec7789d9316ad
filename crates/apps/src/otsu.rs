//! The Otsu case study: software reference implementations of all six
//! tasks (Fig. 8) and the application runner that executes any of the four
//! architectures (Table I) on the simulated platform — software tasks on
//! the CPU model, hardware tasks as a streaming phase on the board.

use crate::archs::Arch;
use crate::image::{GrayImage, RgbImage};
use accelsoc_axi::dma::DmaDescriptor;
use accelsoc_axi::protocol::MemError;
use accelsoc_core::flow::{FlowArtifacts, FlowEngine, FlowError};
use accelsoc_kernel::interp::StreamBundle;
use accelsoc_platform::board::{Board, BoardError};
use std::collections::HashMap;

// --- software reference --------------------------------------------------

/// `grayScale` reference: integer luma `(77R + 150G + 29B) >> 8`,
/// bit-identical to the kernel.
pub fn grayscale_reference(rgb: &RgbImage) -> GrayImage {
    let mut out = GrayImage::new(rgb.width, rgb.height);
    for (i, &px) in rgb.data.iter().enumerate() {
        let (r, g, b) = ((px >> 16) & 255, (px >> 8) & 255, px & 255);
        out.data[i] = ((77 * r + 150 * g + 29 * b) >> 8) as u8;
    }
    out
}

/// `histogram` reference.
pub fn histogram_reference(img: &GrayImage) -> [u32; 256] {
    let mut h = [0u32; 256];
    for &v in &img.data {
        h[v as usize] += 1;
    }
    h
}

/// `otsuMethod` reference: integer between-class-variance maximisation,
/// bit-identical to the `halfProbability` kernel (first maximum wins).
pub fn otsu_threshold_from_hist(h: &[u32; 256]) -> u8 {
    let total: u64 = h.iter().map(|&v| v as u64).sum();
    let sum_all: u64 = h
        .iter()
        .enumerate()
        .map(|(i, &v)| i as u64 * v as u64)
        .sum();
    let (mut w_b, mut sum_b) = (0u64, 0u64);
    let (mut max_var, mut thr) = (0u64, 0u8);
    for (t, &count) in h.iter().enumerate() {
        w_b += count as u64;
        sum_b += t as u64 * count as u64;
        let w_f = total - w_b;
        if w_b > 0 && w_f > 0 {
            let m_b = sum_b / w_b;
            let m_f = (sum_all - sum_b) / w_f;
            let d = m_b as i64 - m_f as i64;
            let between = w_b * w_f * (d * d) as u64;
            if between > max_var {
                max_var = between;
                thr = t as u8;
            }
        }
    }
    thr
}

/// `binarization` reference (`> thr → 255`), matching the `segment`
/// kernel.
pub fn binarize_reference(img: &GrayImage, thr: u8) -> GrayImage {
    GrayImage {
        width: img.width,
        height: img.height,
        data: img
            .data
            .iter()
            .map(|&v| if v > thr { 255 } else { 0 })
            .collect(),
    }
}

/// Full software pipeline: gray → histogram → threshold → binary image.
pub fn otsu_reference(rgb: &RgbImage) -> (GrayImage, u8) {
    let gray = grayscale_reference(rgb);
    let h = histogram_reference(&gray);
    let thr = otsu_threshold_from_hist(&h);
    (binarize_reference(&gray, thr), thr)
}

// --- application runner ---------------------------------------------------

/// Result of running the application on one architecture.
#[derive(Debug, Clone)]
pub struct AppRun {
    pub arch: Arch,
    pub output: GrayImage,
    pub threshold: u8,
    /// Total modelled wall time in nanoseconds.
    pub total_ns: f64,
    /// Per-task time: (task name, ns, ran-in-hardware).
    pub tasks: Vec<(String, f64, bool)>,
    /// Bytes moved over DMA.
    pub dma_bytes: u64,
}

#[derive(Debug)]
pub enum AppError {
    Board(BoardError),
    Flow(FlowError),
    Exec(accelsoc_kernel::interp::ExecError),
    /// A hardware-phase buffer does not fit the board's DRAM.
    Memory(MemError),
    /// The artifacts have no accelerator for a task the architecture
    /// runs in hardware.
    MissingAccel(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Board(e) => write!(f, "{e}"),
            AppError::Flow(e) => write!(f, "{e}"),
            AppError::Exec(e) => write!(f, "{e}"),
            AppError::Memory(e) => write!(f, "{e}"),
            AppError::MissingAccel(name) => {
                write!(f, "the artifacts have no `{name}` accelerator")
            }
        }
    }
}

impl std::error::Error for AppError {}

impl From<BoardError> for AppError {
    fn from(e: BoardError) -> Self {
        AppError::Board(e)
    }
}

impl From<FlowError> for AppError {
    fn from(e: FlowError) -> Self {
        AppError::Flow(e)
    }
}

impl From<accelsoc_kernel::interp::ExecError> for AppError {
    fn from(e: accelsoc_kernel::interp::ExecError) -> Self {
        AppError::Exec(e)
    }
}

impl From<MemError> for AppError {
    fn from(e: MemError) -> Self {
        AppError::Memory(e)
    }
}

/// DRAM addresses where the hardware phase stages its input and
/// collects its output.
const IN_BUF: u64 = 0x10_0000;
const OUT_BUF: u64 = 0x20_0000;

/// Bytes of board DRAM the runner needs for an image of `pixels`
/// pixels on any architecture: the hardware phase's input at `IN_BUF`
/// and its output at `OUT_BUF`. The largest input is Arch4's RGBA
/// words (or the 256-bin histogram Arch2 takes), the largest output
/// Arch4's segmented bytes (or the histogram Arch1 returns).
pub fn dram_footprint(pixels: u64) -> u64 {
    const HIST_BYTES: u64 = 256 * 4;
    let input = (4 * pixels).max(HIST_BYTES);
    let output = pixels.max(HIST_BYTES);
    (IN_BUF + input).max(OUT_BUF + output)
}

/// Board-level knobs for an application run.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Depth of every AXI-Stream FIFO on the board (clamped to ≥ 1).
    pub stream_fifo_depth: usize,
    /// Simulated DRAM size in bytes.
    pub dram_bytes: usize,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            stream_fifo_depth: 16,
            dram_bytes: 64 << 20,
        }
    }
}

/// Result of running a lane group of images through one architecture:
/// per-image runs in input order, plus the VM-level counters that make
/// lane amortization measurable in the batch report.
#[derive(Debug)]
pub struct GroupExec {
    /// One entry per input image, in input order. Each lane succeeds or
    /// fails independently — a trap in one lane does not stall the rest.
    pub runs: Vec<Result<AppRun, AppError>>,
    /// IR operations retired by software tasks across the whole group
    /// (the simulated work, independent of how it was dispatched).
    pub ir_ops: u64,
    /// Lane-VM dispatches spent retiring them. While lanes stay
    /// converged one dispatch covers every lane, so
    /// `ir_ops / vm_dispatches` grows with the lane count.
    pub vm_dispatches: u64,
}

/// Per-lane mutable state for one group run: boards, task timelines and
/// failure flags, plus the group-wide dispatch/work counters.
struct LaneGroup<'e> {
    engine: &'e FlowEngine,
    boards: Vec<Board>,
    tasks: Vec<Vec<(String, f64, bool)>>,
    dma_bytes: Vec<u64>,
    failed: Vec<Option<AppError>>,
    ir_ops: u64,
    vm_dispatches: u64,
}

impl LaneGroup<'_> {
    /// Lanes that have not failed yet, in input order.
    fn alive(&self) -> Vec<usize> {
        (0..self.failed.len())
            .filter(|&l| self.failed[l].is_none())
            .collect()
    }

    /// Run one software task for `lanes` as a single lane-VM batch of
    /// the engine's `kernel` (one decoded instruction stream over all of
    /// them), charge each lane's CPU model with its bit-exact
    /// `ExecStats`, and record the task entry. A lane that traps is
    /// retired into `failed` without disturbing its siblings; a kernel
    /// the engine lacks fails the whole group.
    fn sw_stage(
        &mut self,
        kernel: &str,
        task: &str,
        lanes: &[usize],
        scalars: Vec<HashMap<String, i64>>,
        bundles: &mut [StreamBundle],
    ) -> Result<(), FlowError> {
        debug_assert_eq!(lanes.len(), bundles.len());
        if lanes.is_empty() {
            return Ok(());
        }
        let unit = self.engine.exec_unit(kernel)?;
        let out = unit.run_batch(&scalars, bundles);
        self.vm_dispatches += out.dispatches;
        for (i, res) in out.lanes.into_iter().enumerate() {
            let l = lanes[i];
            match res {
                Ok(o) => {
                    self.ir_ops += o.stats.steps;
                    let ns = self.boards[l].cpu.execute(&o.stats);
                    self.tasks[l].push((task.to_string(), ns, false));
                }
                Err(e) => self.failed[l] = Some(AppError::Exec(e)),
            }
        }
        Ok(())
    }
}

/// What one lane's hardware streaming phase produced.
struct HwPhase {
    /// Histogram, when the phase's output is the histogram (Arch1).
    hist: Vec<u32>,
    thr: Option<u8>,
    seg: Option<Vec<u8>>,
    dma_bytes: u64,
    task: (String, f64, bool),
}

/// The contiguous hardware phase for one lane: per-arch DMA descriptors
/// in and out of DRAM, one streaming phase on that lane's board.
fn hw_phase(
    arch: Arch,
    artifacts: &FlowArtifacts,
    board: &mut Board,
    input: &RgbImage,
    gray: &[i64],
    hist_in: &[u32],
) -> Result<HwPhase, AppError> {
    let n = input.data.len() as i64;
    let accel_of = |name: &str| -> Result<usize, AppError> {
        artifacts
            .hls
            .iter()
            .position(|(nm, _)| nm == name)
            .ok_or_else(|| AppError::MissingAccel(name.to_string()))
    };
    match arch {
        Arch::Arch1 => {
            // HW: computeHistogram. in: gray bytes; out: 256 u32.
            let in_bytes: Vec<u8> = gray.iter().map(|&v| v as u8).collect();
            board.dram.load_bytes(IN_BUF, &in_bytes)?;
            let stats = board.run_stream_phase(
                &[(
                    0,
                    DmaDescriptor {
                        addr: IN_BUF,
                        len: in_bytes.len() as u64,
                    },
                )],
                &[(
                    0,
                    DmaDescriptor {
                        addr: OUT_BUF,
                        len: 256 * 4,
                    },
                )],
                &[(accel_of("computeHistogram")?, "n", n)],
            )?;
            let out = board.dram.dump_bytes(OUT_BUF, 256 * 4)?;
            Ok(HwPhase {
                hist: bytes_to_u32s(&out),
                thr: None,
                seg: None,
                dma_bytes: stats.bytes_in + stats.bytes_out,
                task: ("histogram".into(), stats.ns, true),
            })
        }
        Arch::Arch2 => {
            // HW: halfProbability over the software-computed histogram.
            let in_bytes = u32s_to_bytes(hist_in);
            board.dram.load_bytes(IN_BUF, &in_bytes)?;
            let stats = board.run_stream_phase(
                &[(
                    0,
                    DmaDescriptor {
                        addr: IN_BUF,
                        len: in_bytes.len() as u64,
                    },
                )],
                &[(
                    0,
                    DmaDescriptor {
                        addr: OUT_BUF,
                        len: 4,
                    },
                )],
                &[],
            )?;
            let thr = board.dram.dump_bytes(OUT_BUF, 4)?[0];
            Ok(HwPhase {
                hist: Vec::new(),
                thr: Some(thr),
                seg: None,
                dma_bytes: stats.bytes_in + stats.bytes_out,
                task: ("otsuMethod".into(), stats.ns, true),
            })
        }
        Arch::Arch3 => {
            // HW: computeHistogram -> halfProbability chained.
            let in_bytes: Vec<u8> = gray.iter().map(|&v| v as u8).collect();
            board.dram.load_bytes(IN_BUF, &in_bytes)?;
            let stats = board.run_stream_phase(
                &[(
                    0,
                    DmaDescriptor {
                        addr: IN_BUF,
                        len: in_bytes.len() as u64,
                    },
                )],
                &[(
                    0,
                    DmaDescriptor {
                        addr: OUT_BUF,
                        len: 4,
                    },
                )],
                &[(accel_of("computeHistogram")?, "n", n)],
            )?;
            let thr = board.dram.dump_bytes(OUT_BUF, 4)?[0];
            Ok(HwPhase {
                hist: Vec::new(),
                thr: Some(thr),
                seg: None,
                dma_bytes: stats.bytes_in + stats.bytes_out,
                task: ("histogram+otsuMethod".into(), stats.ns, true),
            })
        }
        Arch::Arch4 => {
            // Whole pipeline in HW: RGB in, segmented image out.
            let in_bytes = u32s_to_bytes(&input.data);
            board.dram.load_bytes(IN_BUF, &in_bytes)?;
            let stats = board.run_stream_phase(
                &[(
                    0,
                    DmaDescriptor {
                        addr: IN_BUF,
                        len: in_bytes.len() as u64,
                    },
                )],
                &[(
                    0,
                    DmaDescriptor {
                        addr: OUT_BUF,
                        len: input.data.len() as u64,
                    },
                )],
                &[
                    (accel_of("grayScale")?, "n", n),
                    (accel_of("computeHistogram")?, "n", n),
                    (accel_of("segment")?, "n", n),
                ],
            )?;
            let seg = board.dram.dump_bytes(OUT_BUF, input.data.len())?;
            // The threshold never leaves the PL in Arch4 (it flows core to
            // core); recompute it host-side for reporting only — no CPU
            // time charged.
            let thr = otsu_threshold_from_hist(&histogram_reference(&grayscale_reference(input)));
            Ok(HwPhase {
                hist: Vec::new(),
                thr: Some(thr),
                seg: Some(seg),
                dma_bytes: stats.bytes_in + stats.bytes_out,
                task: (
                    "grayScale+histogram+otsuMethod+binarization".into(),
                    stats.ns,
                    true,
                ),
            })
        }
    }
}

/// Execute the six-task application on `arch`, using hardware for the
/// tasks that architecture implements in the PL (Table I) and the CPU
/// model for the rest. Returns pixel-exact results plus timing.
pub fn run_application(
    arch: Arch,
    engine: &FlowEngine,
    artifacts: &FlowArtifacts,
    input: &RgbImage,
) -> Result<AppRun, AppError> {
    run_application_with(arch, engine, artifacts, input, &AppConfig::default())
}

/// [`run_application`] with explicit board knobs — used by the property
/// tests to vary FIFO depth and by the batch driver. Delegates to
/// [`run_application_group`] with a single lane; every lane of a group
/// is bit-identical to a solo run by the lane VM's contract, so there is
/// one runner code path regardless of batch size.
pub fn run_application_with(
    arch: Arch,
    engine: &FlowEngine,
    artifacts: &FlowArtifacts,
    input: &RgbImage,
    cfg: &AppConfig,
) -> Result<AppRun, AppError> {
    let mut group =
        run_application_group(arch, engine, artifacts, std::slice::from_ref(input), cfg)?;
    group.runs.remove(0)
}

/// Execute the application for a whole group of images at once: every
/// software task runs as **one** lane-VM batch over the group (one
/// decoded instruction stream, K structure-of-arrays lanes), while the
/// modeled hardware phase stays per-lane (boards are independent SoCs).
/// `runs[l]` is bit-identical to running image `l` alone — lanes only
/// amortize host-side dispatch, never simulated time.
pub fn run_application_group(
    arch: Arch,
    engine: &FlowEngine,
    artifacts: &FlowArtifacts,
    images: &[RgbImage],
    cfg: &AppConfig,
) -> Result<GroupExec, AppError> {
    let k = images.len();
    let mut g = LaneGroup {
        engine,
        boards: Vec::with_capacity(k),
        tasks: vec![Vec::new(); k],
        dma_bytes: vec![0u64; k],
        failed: (0..k).map(|_| None).collect(),
        ir_ops: 0,
        vm_dispatches: 0,
    };
    for input in images {
        let mut board = engine.build_board(artifacts, cfg.dram_bytes)?;
        board.stream_fifo_depth = cfg.stream_fifo_depth.max(1);
        g.boards.push(board);
        // readImage: fixed I/O cost model (SD-card read ≈ 20 MB/s).
        let read_ns = input.data.len() as f64 * 4.0 * 50.0;
        g.tasks[g.boards.len() - 1].push(("readImage".into(), read_ns, false));
    }

    // --- grayScale: one lane-group software stage (Arch1-3) ---
    let hw_gray = arch.hw_tasks().contains(&"grayScale");
    let mut gray: Vec<Vec<i64>> = vec![Vec::new(); k];
    if !hw_gray {
        let lanes = g.alive();
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("imageIn", images[l].data.iter().map(|&p| p as i64));
                b
            })
            .collect();
        let scalars = lanes
            .iter()
            .map(|&l| HashMap::from([("n".to_string(), images[l].data.len() as i64)]))
            .collect();
        g.sw_stage("grayScale", "grayScale", &lanes, scalars, &mut bundles)?;
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                gray[l] = bundles[i].output("imageOutCH").to_vec();
            }
        }
    }

    // --- Arch2 computes its histogram in software before the HW phase ---
    let mut hist: Vec<Vec<u32>> = vec![Vec::new(); k];
    if matches!(arch, Arch::Arch2) {
        let lanes = g.alive();
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("grayScaleImage", gray[l].iter().copied());
                b
            })
            .collect();
        let scalars = lanes
            .iter()
            .map(|&l| HashMap::from([("n".to_string(), images[l].data.len() as i64)]))
            .collect();
        g.sw_stage(
            "computeHistogram",
            "histogram",
            &lanes,
            scalars,
            &mut bundles,
        )?;
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                hist[l] = bundles[i]
                    .output("histogram")
                    .iter()
                    .map(|&v| v as u32)
                    .collect();
            }
        }
    }

    // --- the hardware streaming phase, per lane ---
    let mut thr: Vec<Option<u8>> = vec![None; k];
    let mut seg: Vec<Option<Vec<u8>>> = vec![None; k];
    for l in g.alive() {
        match hw_phase(
            arch,
            artifacts,
            &mut g.boards[l],
            &images[l],
            &gray[l],
            &hist[l],
        ) {
            Ok(ph) => {
                g.dma_bytes[l] += ph.dma_bytes;
                g.tasks[l].push(ph.task);
                if !ph.hist.is_empty() {
                    hist[l] = ph.hist;
                }
                thr[l] = ph.thr;
                seg[l] = ph.seg;
            }
            Err(e) => g.failed[l] = Some(e),
        }
    }

    // --- SW otsuMethod for lanes whose threshold stayed on the CPU ---
    let lanes: Vec<usize> = g
        .alive()
        .into_iter()
        .filter(|&l| thr[l].is_none())
        .collect();
    if !lanes.is_empty() {
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("histogram", hist[l].iter().map(|&v| v as i64));
                b
            })
            .collect();
        let scalars = lanes.iter().map(|_| HashMap::new()).collect();
        g.sw_stage(
            "halfProbability",
            "otsuMethod",
            &lanes,
            scalars,
            &mut bundles,
        )?;
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                thr[l] = Some(bundles[i].output("probability")[0] as u8);
            }
        }
    }

    // --- SW binarization for lanes whose pixels stayed on the CPU ---
    let lanes: Vec<usize> = g
        .alive()
        .into_iter()
        .filter(|&l| seg[l].is_none())
        .collect();
    if !lanes.is_empty() {
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("otsuThreshold", [thr[l].unwrap() as i64]);
                b.feed("grayScaleImage", gray[l].iter().copied());
                b
            })
            .collect();
        let scalars = lanes
            .iter()
            .map(|&l| HashMap::from([("n".to_string(), images[l].data.len() as i64)]))
            .collect();
        g.sw_stage("segment", "binarization", &lanes, scalars, &mut bundles)?;
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                seg[l] = Some(
                    bundles[i]
                        .output("segmentedGrayImage")
                        .iter()
                        .map(|&v| v as u8)
                        .collect(),
                );
            }
        }
    }

    // --- writeImage + assemble, in input order ---
    let mut runs = Vec::with_capacity(k);
    for (l, input) in images.iter().enumerate() {
        if let Some(e) = g.failed[l].take() {
            runs.push(Err(e));
            continue;
        }
        let write_ns = input.data.len() as f64 * 50.0;
        g.tasks[l].push(("writeImage".into(), write_ns, false));
        let tasks = std::mem::take(&mut g.tasks[l]);
        let total_ns: f64 = tasks.iter().map(|(_, ns, _)| ns).sum();
        runs.push(Ok(AppRun {
            arch,
            output: GrayImage {
                width: input.width,
                height: input.height,
                data: seg[l].take().expect("alive lane has segmented pixels"),
            },
            threshold: thr[l].expect("alive lane has a threshold"),
            total_ns,
            tasks,
            dma_bytes: g.dma_bytes[l],
        }));
    }
    Ok(GroupExec {
        runs,
        ir_ops: g.ir_ops,
        vm_dispatches: g.vm_dispatches,
    })
}

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bytes_to_u32s(b: &[u8]) -> Vec<u32> {
    b.chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archs::{arch_dsl_source, otsu_flow_engine, otsu_flow_engine_with, Arch};
    use crate::image::synthetic_scene;
    use accelsoc_core::flow::FlowOptions;
    use accelsoc_observe::{CollectObserver, FlowEvent};
    use std::sync::Arc;

    /// Every lane group on one engine — boards and software stages, all
    /// four architectures, repeated — runs on one compiled unit per
    /// kernel.
    #[test]
    fn lane_groups_compile_each_kernel_once_per_engine() {
        let collect = Arc::new(CollectObserver::new());
        let mut engine =
            otsu_flow_engine_with(FlowOptions::builder().observer(collect.clone()).build());
        let images: Vec<RgbImage> = (0..3)
            .map(|seed| RgbImage::from_gray(&synthetic_scene(16, 16, seed)))
            .collect();
        for arch in Arch::all() {
            let art = engine.run_source(&arch_dsl_source(arch)).unwrap();
            for _ in 0..2 {
                let group =
                    run_application_group(arch, &engine, &art, &images, &AppConfig::default())
                        .unwrap();
                assert!(group.runs.iter().all(|r| r.is_ok()), "{arch:?}");
            }
        }
        let mut compiled: Vec<String> = collect
            .events()
            .into_iter()
            .filter_map(|ev| match ev {
                FlowEvent::KernelCompiled { kernel } => Some(kernel),
                _ => None,
            })
            .collect();
        compiled.sort();
        assert_eq!(
            compiled,
            [
                "computeHistogram",
                "grayScale",
                "halfProbability",
                "segment"
            ]
        );
    }

    #[test]
    fn dram_footprint_fits_every_architecture() {
        let mut engine = otsu_flow_engine();
        for side in [16, 40] {
            let rgb = RgbImage::from_gray(&synthetic_scene(side, side, 7));
            let cfg = AppConfig {
                dram_bytes: dram_footprint(rgb.data.len() as u64) as usize,
                ..AppConfig::default()
            };
            for arch in Arch::all() {
                let art = engine.run_source(&arch_dsl_source(arch)).unwrap();
                run_application_with(arch, &engine, &art, &rgb, &cfg)
                    .unwrap_or_else(|e| panic!("{arch:?} side {side}: {e}"));
            }
        }
    }

    #[test]
    fn hw_phase_buffer_overflow_is_a_typed_error() {
        let rgb = RgbImage::from_gray(&synthetic_scene(16, 16, 1));
        let mut engine = otsu_flow_engine();
        let art = engine.run_source(&arch_dsl_source(Arch::Arch4)).unwrap();
        let run = |dram_bytes| {
            let cfg = AppConfig {
                dram_bytes,
                ..AppConfig::default()
            };
            run_application_with(Arch::Arch4, &engine, &art, &rgb, &cfg).unwrap_err()
        };
        // The input load at IN_BUF overruns 1 MiB; the output DMA at
        // OUT_BUF overruns 2 MiB.
        assert!(matches!(run(1 << 20), AppError::Memory(_)));
        assert!(matches!(run(2 << 20), AppError::Board(_)));
    }

    #[test]
    fn reference_pipeline_separates_scene() {
        let scene = synthetic_scene(64, 64, 3);
        let rgb = RgbImage::from_gray(&scene);
        let (binary, thr) = otsu_reference(&rgb);
        // Between-class variance is constant across the empty gap between
        // the two modes, and first-maximum-wins lands at the gap's start —
        // anywhere in [background max, foreground min) separates perfectly.
        assert!((50..185).contains(&thr), "thr = {thr}");
        // Foreground pixels found, background suppressed.
        let white = binary.data.iter().filter(|&&v| v == 255).count();
        assert!(white > 500 && white < binary.pixels() - 500);
        assert!(binary.data.iter().all(|&v| v == 0 || v == 255));
    }

    #[test]
    fn every_architecture_matches_the_reference_exactly() {
        let scene = synthetic_scene(48, 40, 11);
        let rgb = RgbImage::from_gray(&scene);
        let (expect, expect_thr) = otsu_reference(&rgb);
        let mut engine = otsu_flow_engine();
        for arch in Arch::all() {
            let artifacts = engine
                .run_source(&crate::archs::arch_dsl_source(arch))
                .unwrap();
            let run = run_application(arch, &engine, &artifacts, &rgb).unwrap();
            assert_eq!(run.threshold, expect_thr, "{arch:?} threshold");
            assert_eq!(run.output, expect, "{arch:?} pixels");
            assert!(run.total_ns > 0.0);
        }
    }

    #[test]
    fn hw_offload_reduces_cpu_share() {
        let scene = synthetic_scene(32, 32, 5);
        let rgb = RgbImage::from_gray(&scene);
        let mut engine = otsu_flow_engine();
        let a1 = engine
            .run_source(&crate::archs::arch_dsl_source(Arch::Arch1))
            .unwrap();
        let a4 = engine
            .run_source(&crate::archs::arch_dsl_source(Arch::Arch4))
            .unwrap();
        let r1 = run_application(Arch::Arch1, &engine, &a1, &rgb).unwrap();
        let r4 = run_application(Arch::Arch4, &engine, &a4, &rgb).unwrap();
        let sw_ns = |r: &AppRun| -> f64 {
            r.tasks
                .iter()
                .filter(|(name, _, hw)| !hw && name != "readImage" && name != "writeImage")
                .map(|(_, ns, _)| ns)
                .sum()
        };
        assert!(sw_ns(&r4) < sw_ns(&r1), "Arch4 offloads everything");
        assert!(r4.dma_bytes > 0 && r1.dma_bytes > 0);
    }
}
