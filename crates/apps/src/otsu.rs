//! The Otsu case study: software reference implementations of all six
//! tasks (Fig. 8), the chain's one description, and the application
//! runner that executes any of the four architectures (Table I) on the
//! simulated platform.
//!
//! [`STAGES`] is the chain: each stage's task, kernel, input and output
//! ports and the [`Value`] each carries (token width and count per
//! image). A Table I architecture is a contiguous range of it in
//! hardware ([`hw_range`]). The runner walks the table: software stages
//! before the range, one streaming phase on the board for the range,
//! software stages after it. Partition-sim's functional chains and the
//! DSE's task profiles walk the same table.

use crate::archs::Arch;
use crate::image::{GrayImage, RgbImage};
use crate::kernels;
use accelsoc_axi::dma::DmaDescriptor;
use accelsoc_axi::protocol::MemError;
use accelsoc_core::flow::{FlowArtifacts, FlowEngine, FlowError};
use accelsoc_kernel::interp::StreamBundle;
use accelsoc_kernel::ir::Kernel;
use accelsoc_platform::board::{Board, BoardError, PhaseArgs};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

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

// --- the chain -----------------------------------------------------------

/// A per-image value that flows along the chain: the edges of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// The packed-RGB input image.
    Rgb,
    /// The 8-bit gray image.
    Gray,
    /// The 256-bin histogram.
    Histogram,
    /// The Otsu threshold.
    Threshold,
    /// The binarized output image.
    Segmented,
}

impl Value {
    /// Bytes per token: the width of every kernel port that carries it.
    pub const fn token_bytes(self) -> u64 {
        match self {
            Value::Rgb | Value::Histogram | Value::Threshold => 4,
            Value::Gray | Value::Segmented => 1,
        }
    }

    /// Tokens per image of `pixels` pixels.
    pub const fn tokens(self, pixels: u64) -> u64 {
        match self {
            Value::Rgb | Value::Gray | Value::Segmented => pixels,
            Value::Histogram => 256,
            Value::Threshold => 1,
        }
    }

    /// Bytes per image of `pixels` pixels.
    pub const fn bytes(self, pixels: u64) -> u64 {
        self.token_bytes() * self.tokens(pixels)
    }
}

/// One task of the chain and the kernel that implements it.
#[derive(Debug)]
pub struct Stage {
    /// Task name (Fig. 8, Table I).
    pub task: &'static str,
    /// Kernel name: the Listing-4 node, built by [`kernels::otsu_kernel`].
    pub kernel: &'static str,
    /// Input ports and the value each reads. The first is the stream
    /// the stage iterates over: its token count sets the hardware time
    /// and it is what a hardware range starting here reads from DRAM.
    pub inputs: &'static [(&'static str, Value)],
    /// Output port and the value it writes.
    pub output: (&'static str, Value),
    /// The kernel takes the pixel count as scalar `n`.
    pub takes_n: bool,
}

/// The Otsu chain of Fig. 8, in order. Every Table I architecture runs a
/// contiguous range of it in hardware ([`hw_range`]) and the rest on the
/// CPU. `grayScale` also writes a second gray copy on `imageOutSEG`;
/// only Arch4's DSL wires it, so the table does not name it.
pub const STAGES: [Stage; 4] = [
    Stage {
        task: "grayScale",
        kernel: "grayScale",
        inputs: &[("imageIn", Value::Rgb)],
        output: ("imageOutCH", Value::Gray),
        takes_n: true,
    },
    Stage {
        task: "histogram",
        kernel: "computeHistogram",
        inputs: &[("grayScaleImage", Value::Gray)],
        output: ("histogram", Value::Histogram),
        takes_n: true,
    },
    Stage {
        task: "otsuMethod",
        kernel: "halfProbability",
        inputs: &[("histogram", Value::Histogram)],
        output: ("probability", Value::Threshold),
        takes_n: false,
    },
    Stage {
        task: "binarization",
        kernel: "segment",
        inputs: &[
            ("grayScaleImage", Value::Gray),
            ("otsuThreshold", Value::Threshold),
        ],
        output: ("segmentedGrayImage", Value::Segmented),
        takes_n: true,
    },
];

impl Stage {
    /// The stage's kernel IR.
    pub fn kernel_ir(&self) -> Kernel {
        kernels::otsu_kernel(self.kernel).expect("every stage names an Otsu kernel")
    }

    /// The stage's input streams, fed from `values` (a value not yet
    /// produced feeds an empty stream, which the kernel reports as an
    /// underflow).
    pub fn inputs_from(&self, values: &ChainValues) -> StreamBundle {
        let mut bundle = StreamBundle::new();
        for &(port, value) in self.inputs {
            bundle.feed(port, values.get(value).unwrap_or_default().iter().copied());
        }
        bundle
    }

    /// The stage's scalar inputs for an image of `pixels` pixels.
    pub fn scalars(&self, pixels: u64) -> HashMap<String, i64> {
        if self.takes_n {
            HashMap::from([("n".to_string(), pixels as i64)])
        } else {
            HashMap::new()
        }
    }

    /// Move the stage's output stream out of `bundle` into `values`.
    pub fn store_output(&self, bundle: &mut StreamBundle, values: &mut ChainValues) {
        let (port, value) = self.output;
        values.set(value, bundle.take_output(port).unwrap_or_default());
    }
}

/// The range of [`STAGES`] that `arch` runs in hardware: its Table I row
/// ([`Arch::hw_tasks`]), which is contiguous in chain order.
pub fn hw_range(arch: Arch) -> Range<usize> {
    let hw = arch.hw_tasks();
    let start = STAGES
        .iter()
        .position(|s| s.task == hw[0])
        .expect("Table I names chain tasks");
    start..start + hw.len()
}

/// The values a hardware range reads from and writes back to DRAM: its
/// first stage's stream input and its last stage's output.
fn range_io(range: &Range<usize>) -> (Value, Value) {
    (
        STAGES[range.start].inputs[0].1,
        STAGES[range.end - 1].output.1,
    )
}

/// One image's token streams along the chain, by [`Value`].
#[derive(Debug, Clone, Default)]
pub struct ChainValues([Option<Vec<i64>>; 5]);

impl ChainValues {
    /// The chain's input: `rgb`'s pixels as [`Value::Rgb`] tokens.
    pub fn new(rgb: &RgbImage) -> Self {
        let mut values = ChainValues::default();
        values.set(Value::Rgb, rgb.data.iter().map(|&p| p as i64).collect());
        values
    }

    /// The tokens of `value`, if a stage has produced it.
    pub(crate) fn get(&self, value: Value) -> Option<&[i64]> {
        self.0[value as usize].as_deref()
    }

    /// Record the tokens of `value`, replacing any earlier ones.
    pub fn set(&mut self, value: Value, tokens: Vec<i64>) {
        self.0[value as usize] = Some(tokens);
    }

    /// The threshold, once it has left the stage that computes it.
    pub fn threshold(&self) -> Option<u8> {
        self.get(Value::Threshold)?.first().map(|&t| t as u8)
    }

    /// The binarized pixels (empty before `binarization` ran).
    pub fn segmented(&self) -> Vec<u8> {
        let tokens = self.get(Value::Segmented).unwrap_or_default();
        tokens.iter().map(|&t| t as u8).collect()
    }
}

/// `readImage`'s cost model: an SD-card read at ≈ 20 MB/s (50 ns per
/// byte) of the RGBA input.
pub fn read_image_ns(pixels: u64) -> f64 {
    Value::Rgb.bytes(pixels) as f64 * 50.0
}

/// `writeImage`'s cost model: the same 50 ns per byte over the
/// segmented output.
pub fn write_image_ns(pixels: u64) -> f64 {
    Value::Segmented.bytes(pixels) as f64 * 50.0
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
/// pixels on any architecture: the hardware range's input at `IN_BUF`
/// and its output at `OUT_BUF`, for the largest of the four ranges.
/// Serve admission calls this once per job, so the ranges' DRAM values
/// are worked out once.
pub fn dram_footprint(pixels: u64) -> u64 {
    static RANGE_IO: OnceLock<[(Value, Value); 4]> = OnceLock::new();
    let ios = RANGE_IO.get_or_init(|| Arch::all().map(|arch| range_io(&hw_range(arch))));
    ios.iter()
        .map(|(input, output)| (IN_BUF + input.bytes(pixels)).max(OUT_BUF + output.bytes(pixels)))
        .fold(0, u64::max)
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

/// Per-lane mutable state for one group run: boards, chain values, task
/// timelines and failure flags, plus the group-wide dispatch/work
/// counters.
struct LaneGroup<'e> {
    engine: &'e FlowEngine,
    boards: Vec<Board>,
    values: Vec<ChainValues>,
    pixels: Vec<u64>,
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

    /// Run `stage` in software for every live lane as a single lane-VM
    /// batch of the engine's kernel (one decoded instruction stream over
    /// all of them), charge each lane's CPU model with its bit-exact
    /// `ExecStats`, and record the task entry. A lane that traps is
    /// retired into `failed` without disturbing its siblings; a kernel
    /// the engine lacks fails the whole group.
    fn sw_stage(&mut self, stage: &Stage) -> Result<(), FlowError> {
        let lanes = self.alive();
        if lanes.is_empty() {
            return Ok(());
        }
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| stage.inputs_from(&self.values[l]))
            .collect();
        let scalars: Vec<_> = lanes
            .iter()
            .map(|&l| stage.scalars(self.pixels[l]))
            .collect();
        let unit = self.engine.exec_unit(stage.kernel)?;
        let out = unit.run_batch(&scalars, &mut bundles);
        self.vm_dispatches += out.dispatches;
        for ((&l, res), bundle) in lanes.iter().zip(out.lanes).zip(&mut bundles) {
            match res {
                Ok(o) => {
                    self.ir_ops += o.stats.steps;
                    let ns = self.boards[l].cpu.execute(&o.stats);
                    self.tasks[l].push((stage.task.to_string(), ns, false));
                    stage.store_output(bundle, &mut self.values[l]);
                }
                Err(e) => self.failed[l] = Some(AppError::Exec(e)),
            }
        }
        Ok(())
    }

    /// Run `STAGES[range]` on every live lane's board as one group
    /// streaming phase ([`Board::run_stream_phases`]): stage the value
    /// entering the range in each board's DRAM, pass `n` to every
    /// accelerator in the range that takes it, and read the value leaving
    /// the range back. A lane that fails is retired into `failed` without
    /// disturbing its siblings.
    fn hw_stages(&mut self, range: &Range<usize>, artifacts: &FlowArtifacts) {
        let stages = &STAGES[range.clone()];
        let (input, output) = range_io(range);
        let width = input.token_bytes() as usize;
        // Lanes whose input is staged, with its length in bytes.
        let mut staged: Vec<(usize, u64)> = Vec::new();
        let mut is_staged = vec![false; self.boards.len()];
        for l in self.alive() {
            let tokens = self.values[l].get(input).unwrap_or_default();
            let mut in_bytes = Vec::with_capacity(tokens.len() * width);
            for &t in tokens {
                in_bytes.extend_from_slice(&t.to_le_bytes()[..width]);
            }
            match self.boards[l].dram.load_bytes(IN_BUF, &in_bytes) {
                Ok(()) => {
                    is_staged[l] = true;
                    staged.push((l, in_bytes.len() as u64));
                }
                Err(e) => self.failed[l] = Some(e.into()),
            }
        }
        let takes_n: Result<Vec<usize>, &str> = stages
            .iter()
            .filter(|s| s.takes_n)
            .map(|stage| {
                let accel = artifacts
                    .hls
                    .iter()
                    .position(|(name, _)| name == stage.kernel);
                accel.ok_or(stage.kernel)
            })
            .collect();
        let takes_n = match takes_n {
            Ok(accels) => accels,
            Err(kernel) => {
                for (l, _) in staged {
                    self.failed[l] = Some(AppError::MissingAccel(kernel.to_string()));
                }
                return;
            }
        };
        let dma = |addr, len| [(0, DmaDescriptor { addr, len })];
        let ins: Vec<_> = staged.iter().map(|&(_, len)| dma(IN_BUF, len)).collect();
        let outs: Vec<_> = staged
            .iter()
            .map(|&(l, _)| dma(OUT_BUF, output.bytes(self.pixels[l])))
            .collect();
        let scalars: Vec<Vec<(usize, &str, i64)>> = staged
            .iter()
            .map(|&(l, _)| {
                takes_n
                    .iter()
                    .map(|&a| (a, "n", self.pixels[l] as i64))
                    .collect()
            })
            .collect();
        let args: Vec<PhaseArgs> = (0..staged.len())
            .map(|i| PhaseArgs {
                inputs: &ins[i],
                outputs: &outs[i],
                scalar_args: &scalars[i],
            })
            .collect();
        let mut boards: Vec<&mut Board> = (self.boards.iter_mut().enumerate())
            .filter_map(|(l, board)| is_staged[l].then_some(board))
            .collect();
        let results = Board::run_stream_phases(&mut boards, &args);
        let task = stages.iter().map(|s| s.task).collect::<Vec<_>>().join("+");
        for ((l, _), (result, out)) in staged.into_iter().zip(results.into_iter().zip(&outs)) {
            let out_len = out[0].1.len;
            let read_back = result.map_err(AppError::from).and_then(|stats| {
                let out = self.boards[l].dram.dump_bytes(OUT_BUF, out_len as usize)?;
                Ok((stats, out))
            });
            let (stats, out) = match read_back {
                Ok(r) => r,
                Err(e) => {
                    self.failed[l] = Some(e);
                    continue;
                }
            };
            let tokens = out
                .chunks_exact(output.token_bytes() as usize)
                .map(|c| c.iter().rev().fold(0i64, |acc, &b| (acc << 8) | b as i64))
                .collect();
            self.values[l].set(output, tokens);
            self.tasks[l].push((task.clone(), stats.ns, true));
            self.dma_bytes[l] += stats.bytes_in + stats.bytes_out;
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

/// Execute the application for a whole group of images at once: the
/// software stages before and after `arch`'s hardware range each run as
/// **one** lane-VM batch over the group (one decoded instruction
/// stream, K structure-of-arrays lanes), and the range itself is one
/// group streaming phase over the lanes' boards (each an independent
/// SoC), whose accelerators fire as lane-VM batches too
/// ([`Board::run_stream_phases`]). `runs[l]` is bit-identical to running
/// image `l` alone — lanes only amortize host-side dispatch, never
/// simulated time. Lanes of one image size stay converged; the serving
/// precompute groups them that way.
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
        values: images.iter().map(ChainValues::new).collect(),
        pixels: images.iter().map(|img| img.data.len() as u64).collect(),
        tasks: vec![Vec::new(); k],
        dma_bytes: vec![0u64; k],
        failed: (0..k).map(|_| None).collect(),
        ir_ops: 0,
        vm_dispatches: 0,
    };
    for l in 0..k {
        let mut board = engine.build_board(artifacts, cfg.dram_bytes)?;
        board.stream_fifo_depth = cfg.stream_fifo_depth.max(1);
        g.boards.push(board);
        g.tasks[l].push(("readImage".into(), read_image_ns(g.pixels[l]), false));
    }

    let hw = hw_range(arch);
    for stage in &STAGES[..hw.start] {
        g.sw_stage(stage)?;
    }
    g.hw_stages(&hw, artifacts);
    for stage in &STAGES[hw.end..] {
        g.sw_stage(stage)?;
    }

    // --- writeImage + assemble, in input order ---
    let mut runs = Vec::with_capacity(k);
    for (l, input) in images.iter().enumerate() {
        if let Some(e) = g.failed[l].take() {
            runs.push(Err(e));
            continue;
        }
        g.tasks[l].push(("writeImage".into(), write_image_ns(g.pixels[l]), false));
        let tasks = std::mem::take(&mut g.tasks[l]);
        let total_ns: f64 = tasks.iter().map(|(_, ns, _)| ns).sum();
        let values = &g.values[l];
        // Arch4's threshold flows core to core and never reaches DRAM;
        // recompute it host-side for reporting only (no CPU time).
        let threshold = values.threshold().unwrap_or_else(|| {
            otsu_threshold_from_hist(&histogram_reference(&grayscale_reference(input)))
        });
        runs.push(Ok(AppRun {
            arch,
            output: GrayImage {
                width: input.width,
                height: input.height,
                data: values.segmented(),
            },
            threshold,
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

    /// The stage table cannot drift from Table I, the DSL listings or the
    /// kernels: each architecture's hardware set is a contiguous range
    /// whose kernels are exactly its DSL nodes, entered and left through
    /// the ports its `'soc` links name, and every port the table names
    /// exists on its kernel with the table's direction and width.
    #[test]
    fn stage_table_matches_table1_the_dsl_and_the_kernels() {
        use accelsoc_core::graph::LinkEnd;
        use accelsoc_kernel::ir::ParamKind;
        for arch in Arch::all() {
            let range = hw_range(arch);
            let stages = &STAGES[range.clone()];
            let tasks: Vec<&str> = stages.iter().map(|s| s.task).collect();
            assert_eq!(tasks, arch.hw_tasks(), "{arch:?}");

            // The range reads exactly one value it does not produce.
            let (input, output) = range_io(&range);
            let produced: Vec<Value> = stages.iter().map(|s| s.output.1).collect();
            let mut read: Vec<Value> = stages
                .iter()
                .flat_map(|s| s.inputs.iter().map(|&(_, v)| v))
                .filter(|v| !produced.contains(v))
                .collect();
            read.dedup();
            assert_eq!(read, [input], "{arch:?}");

            let graph = accelsoc_core::dsl::parse(&arch_dsl_source(arch)).unwrap();
            let mut nodes: Vec<&str> = graph.nodes.iter().map(|n| n.name.as_str()).collect();
            let mut kernels: Vec<&str> = stages.iter().map(|s| s.kernel).collect();
            nodes.sort();
            kernels.sort();
            assert_eq!(kernels, nodes, "{arch:?}");
            let port = |stage: &Stage, port: &str| LinkEnd::Port {
                node: stage.kernel.into(),
                port: port.into(),
            };
            let first = &stages[0];
            let last = &stages[stages.len() - 1];
            let soc: Vec<(&LinkEnd, &LinkEnd)> = graph
                .links()
                .filter(|(a, b)| **a == LinkEnd::Soc || **b == LinkEnd::Soc)
                .collect();
            assert_eq!(
                soc,
                [
                    (&LinkEnd::Soc, &port(first, first.inputs[0].0)),
                    (&port(last, last.output.0), &LinkEnd::Soc)
                ],
                "{arch:?}"
            );
            assert_eq!(
                (input, output),
                (first.inputs[0].1, last.output.1),
                "{arch:?}"
            );
        }
        for stage in &STAGES {
            let k = kernels::otsu_kernel(stage.kernel).expect("stage kernel exists");
            let outputs = [(stage.output.0, stage.output.1, ParamKind::StreamOut)];
            let inputs = stage
                .inputs
                .iter()
                .map(|&(p, v)| (p, v, ParamKind::StreamIn));
            for (port, value, kind) in inputs.chain(outputs) {
                let param = k
                    .param(port)
                    .unwrap_or_else(|| panic!("{} has no port {port}", k.name));
                assert_eq!(param.kind, kind, "{}.{port}", k.name);
                assert_eq!(
                    u64::from(param.ty.bits),
                    8 * value.token_bytes(),
                    "{}.{port}",
                    k.name
                );
            }
            let takes_n = k.param("n").is_some_and(|p| p.kind == ParamKind::ScalarIn);
            assert_eq!(takes_n, stage.takes_n, "{}", k.name);
        }
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
