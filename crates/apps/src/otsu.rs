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
use accelsoc_axi::dma::{self, DmaDescriptor};
use accelsoc_axi::protocol::{MemError, MemoryPort};
use accelsoc_core::flow::{FlowArtifacts, FlowEngine, FlowError};
use accelsoc_kernel::interp::StreamBundle;
use accelsoc_kernel::ir::Kernel;
use accelsoc_platform::board::{Board, BoardError, PhaseArgs};
use std::borrow::Borrow;
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
        self.feed_inputs(values, &mut bundle);
        bundle
    }

    /// Feed the stage's input streams from `values` into `bundle`, as
    /// [`Stage::inputs_from`] does into a new one.
    pub fn feed_inputs(&self, values: &ChainValues, bundle: &mut StreamBundle) {
        for &(port, value) in self.inputs {
            bundle.feed(port, values.get(value).unwrap_or_default().iter().copied());
        }
    }

    /// The stage's scalar inputs for an image of `pixels` pixels.
    pub fn scalars(&self, pixels: u64) -> HashMap<String, i64> {
        if self.takes_n {
            HashMap::from([("n".to_string(), pixels as i64)])
        } else {
            HashMap::new()
        }
    }

    /// Move the stage's output stream out of `bundle` into `values`
    /// (replacing any earlier tokens of that value); the bundle keeps
    /// the port for its next invocation.
    pub fn store_output(&self, bundle: &mut StreamBundle, values: &mut ChainValues) {
        let (port, value) = self.output;
        bundle.take_output_into(port, values.fill(value));
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

/// One image's token streams along the chain, by [`Value`]. Reloading
/// it with the next image ([`ChainValues::load`]) keeps every buffer.
#[derive(Debug, Clone, Default)]
pub struct ChainValues {
    tokens: [Vec<i64>; 5],
    /// Which values the input or a stage has produced.
    produced: [bool; 5],
}

impl ChainValues {
    /// The chain's input: `rgb`'s pixels as [`Value::Rgb`] tokens.
    pub fn new(rgb: &RgbImage) -> Self {
        let mut values = ChainValues::default();
        values.load(rgb);
        values
    }

    /// Start over on `rgb`: no value produced but its pixels as
    /// [`Value::Rgb`] tokens, as [`ChainValues::new`] gives.
    pub fn load(&mut self, rgb: &RgbImage) {
        self.produced = [false; 5];
        let tokens = self.fill(Value::Rgb);
        tokens.extend(rgb.data.iter().map(|&p| p as i64));
    }

    /// The tokens of `value`, if a stage has produced it.
    pub(crate) fn get(&self, value: Value) -> Option<&[i64]> {
        let v = value as usize;
        self.produced[v].then_some(self.tokens[v].as_slice())
    }

    /// Record the tokens of `value`, replacing any earlier ones.
    pub fn set(&mut self, value: Value, tokens: Vec<i64>) {
        *self.fill(value) = tokens;
    }

    /// Feed `value`'s tokens to `bundle`'s input `port` for the chain's
    /// last read of it: the value's buffer trades places with the
    /// port's drained queue ([`StreamBundle::feed_from`]) instead of
    /// being copied, and the value reads as not produced after.
    fn feed_last_read(&mut self, value: Value, port: &str, bundle: &mut StreamBundle) {
        let v = value as usize;
        match std::mem::take(&mut self.produced[v]) {
            true => bundle.feed_from(port, &mut self.tokens[v]),
            false => bundle.feed(port, []),
        }
    }

    /// The buffer of `value`, emptied and marked produced, for the
    /// caller to fill with its tokens.
    pub(crate) fn fill(&mut self, value: Value) -> &mut Vec<i64> {
        let v = value as usize;
        self.produced[v] = true;
        self.tokens[v].clear();
        &mut self.tokens[v]
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
    /// Lane-VM dispatches spent retiring them. Lanes in lockstep share
    /// every dispatch, so `ir_ops / vm_dispatches` grows with the lane
    /// count; a group whose lanes disagree (images of different shapes
    /// do) runs each lane alone after an abandoned attempt, and counts
    /// both.
    pub vm_dispatches: u64,
}

/// A lane group's simulated latencies: what a caller that keeps only
/// timing reads ([`GroupRunner::latencies`]).
#[derive(Debug)]
pub struct GroupLatencies {
    /// Each lane's simulated end-to-end time in nanoseconds (its
    /// [`AppRun::total_ns`]) or its failure, in input order.
    pub total_ns: Vec<Result<f64, AppError>>,
    /// As [`GroupExec::ir_ops`].
    pub ir_ops: u64,
    /// As [`GroupExec::vm_dispatches`].
    pub vm_dispatches: u64,
}

/// A task of a lane's timeline, named only when a run is assembled.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// A task on the CPU: `readImage`, `writeImage` or a chain stage.
    Sw(&'static str),
    /// The hardware range's streaming phase.
    Hw,
}

/// One lane of a [`GroupRunner`]: its board and the buffers its image
/// passes through, all kept from one group to the next.
struct Lane {
    board: Board,
    values: ChainValues,
    pixels: u64,
    /// `{"n": pixels}`, the scalar input of every stage that takes `n`.
    n_arg: HashMap<String, i64>,
    /// (task, ns, ran-in-hardware), in the order the tasks ran.
    tasks: Vec<(Task, f64, bool)>,
    dma_bytes: u64,
    failed: Option<AppError>,
    /// Bytes staged into, and read back from, the board's DRAM.
    bytes: Vec<u8>,
}

impl Lane {
    fn new(board: Board) -> Self {
        Lane {
            board,
            values: ChainValues::default(),
            pixels: 0,
            n_arg: HashMap::from([("n".to_string(), 0)]),
            tasks: Vec::new(),
            dma_bytes: 0,
            failed: None,
            bytes: Vec::new(),
        }
    }

    /// Start `rgb` on this lane: a reset board, the chain's input and
    /// the `readImage` task.
    fn load(&mut self, rgb: &RgbImage) {
        self.board.reset();
        self.values.load(rgb);
        self.pixels = rgb.data.len() as u64;
        *self.n_arg.get_mut("n").expect("a lane's `n` argument") = self.pixels as i64;
        self.tasks.clear();
        self.tasks
            .push((Task::Sw("readImage"), read_image_ns(self.pixels), false));
        self.dma_bytes = 0;
        self.failed = None;
    }

    /// The lane's simulated end-to-end time: its tasks' times summed in
    /// the order they ran.
    fn total_ns(&self) -> f64 {
        self.tasks.iter().map(|(_, ns, _)| ns).sum()
    }
}

/// Runs lane groups of images through one architecture's flow run: the
/// software stages before and after the architecture's hardware range
/// each run as **one** lane-VM batch over the group (one decoded
/// instruction stream, K structure-of-arrays lanes), and the range
/// itself is one group streaming phase over the lanes' boards (each an
/// independent SoC), whose accelerators fire as lane-VM batches too
/// ([`Board::run_stream_phases`]).
///
/// The runner keeps each lane's board, stream bundle and token and byte
/// buffers from one group to the next: a board is built on a lane's
/// first image and [reset](Board::reset) before every later one, which
/// makes it equal to a newly built board. A worker that runs many
/// groups (the serving precompute, [`run_batch_lanes`]) keeps one
/// runner per architecture for the whole call, so after its first
/// groups it builds no boards and allocates no token buffers.
///
/// Lane `l`'s result is bit-identical to running image `l` alone, on a
/// new runner or a warm one — lanes only amortize host-side dispatch,
/// never simulated time. Lanes of one image size run in lockstep; lanes
/// of different sizes part at their first loop exit, where the lane VM
/// runs each alone, so the serving precompute and [`run_batch_lanes`]
/// group images by size.
///
/// [`run_batch_lanes`]: crate::batch::run_batch_lanes
pub struct GroupRunner<'e> {
    arch: Arch,
    engine: &'e FlowEngine,
    artifacts: &'e FlowArtifacts,
    cfg: AppConfig,
    hw: Range<usize>,
    /// The hardware range's task name: its stages' tasks joined by `+`.
    hw_task: String,
    /// The accelerator of each hardware stage that takes `n`, or the
    /// kernel of the first such stage the artifacts have no accelerator
    /// for.
    takes_n: Result<Vec<usize>, &'static str>,
    lanes: Vec<Lane>,
    /// The software stages' stream bundles, one per live lane.
    bundles: Vec<StreamBundle>,
    /// The lanes a stage runs on, in input order.
    live: Vec<usize>,
    /// The scalar inputs of a stage that takes none.
    no_args: HashMap<String, i64>,
    ir_ops: u64,
    vm_dispatches: u64,
}

impl<'e> GroupRunner<'e> {
    /// A runner for `arch` on `engine`'s flow run `artifacts`, with the
    /// board knobs of `cfg`. It builds nothing until its first group.
    pub fn new(
        arch: Arch,
        engine: &'e FlowEngine,
        artifacts: &'e FlowArtifacts,
        cfg: &AppConfig,
    ) -> Self {
        let hw = hw_range(arch);
        let stages = &STAGES[hw.clone()];
        let hw_task = stages.iter().map(|s| s.task).collect::<Vec<_>>().join("+");
        let takes_n = stages
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
        GroupRunner {
            arch,
            engine,
            artifacts,
            cfg: cfg.clone(),
            hw,
            hw_task,
            takes_n,
            lanes: Vec::new(),
            bundles: Vec::new(),
            live: Vec::new(),
            no_args: HashMap::new(),
            ir_ops: 0,
            vm_dispatches: 0,
        }
    }

    /// Simulate `images` as one lane group and return each lane's
    /// simulated latency, without assembling its [`AppRun`] (no output
    /// image, task names or reported threshold).
    pub fn latencies<I: Borrow<RgbImage>>(
        &mut self,
        images: &[I],
    ) -> Result<GroupLatencies, AppError> {
        self.simulate(images)?;
        let total_ns = self.lanes[..images.len()]
            .iter_mut()
            .map(|lane| match lane.failed.take() {
                Some(e) => Err(e),
                None => Ok(lane.total_ns()),
            })
            .collect();
        Ok(GroupLatencies {
            total_ns,
            ir_ops: self.ir_ops,
            vm_dispatches: self.vm_dispatches,
        })
    }

    /// Simulate `images` as one lane group and assemble each lane's
    /// [`AppRun`].
    pub fn run<I: Borrow<RgbImage>>(&mut self, images: &[I]) -> Result<GroupExec, AppError> {
        self.simulate(images)?;
        let runs = images
            .iter()
            .zip(&mut self.lanes)
            .map(|(input, lane)| {
                if let Some(e) = lane.failed.take() {
                    return Err(e);
                }
                let input = input.borrow();
                let tasks: Vec<(String, f64, bool)> = lane
                    .tasks
                    .iter()
                    .map(|&(task, ns, hw)| {
                        let name = match task {
                            Task::Sw(name) => name.to_string(),
                            Task::Hw => self.hw_task.clone(),
                        };
                        (name, ns, hw)
                    })
                    .collect();
                let values = &lane.values;
                // Arch4's threshold flows core to core and never reaches
                // DRAM; recompute it host-side for reporting only (no CPU
                // time).
                let threshold = values.threshold().unwrap_or_else(|| {
                    otsu_threshold_from_hist(&histogram_reference(&grayscale_reference(input)))
                });
                Ok(AppRun {
                    arch: self.arch,
                    output: GrayImage {
                        width: input.width,
                        height: input.height,
                        data: values.segmented(),
                    },
                    threshold,
                    total_ns: lane.total_ns(),
                    tasks,
                    dma_bytes: lane.dma_bytes,
                })
            })
            .collect();
        Ok(GroupExec {
            runs,
            ir_ops: self.ir_ops,
            vm_dispatches: self.vm_dispatches,
        })
    }

    /// Run the chain on `images`, lane `l` on image `l`: the software
    /// stages before the hardware range, the range, the stages after it
    /// and `writeImage`. Each lane's outcome is left in its `Lane`.
    fn simulate<I: Borrow<RgbImage>>(&mut self, images: &[I]) -> Result<(), AppError> {
        let k = images.len();
        while self.lanes.len() < k {
            let mut board = self
                .engine
                .build_board(self.artifacts, self.cfg.dram_bytes)?;
            board.stream_fifo_depth = self.cfg.stream_fifo_depth.max(1);
            self.lanes.push(Lane::new(board));
        }
        if self.bundles.len() < k {
            self.bundles.resize_with(k, StreamBundle::new);
        }
        for (lane, image) in self.lanes.iter_mut().zip(images) {
            lane.load(image.borrow());
        }
        self.ir_ops = 0;
        self.vm_dispatches = 0;

        let hw = self.hw.clone();
        for i in 0..hw.start {
            self.sw_stage(k, i)?;
        }
        self.hw_stages(k);
        for i in hw.end..STAGES.len() {
            self.sw_stage(k, i)?;
        }
        for lane in self.lanes[..k].iter_mut().filter(|l| l.failed.is_none()) {
            let ns = write_image_ns(lane.pixels);
            lane.tasks.push((Task::Sw("writeImage"), ns, false));
        }
        Ok(())
    }

    /// Run stage `i` of [`STAGES`] in software for every live lane
    /// among the first `k` as a single lane-VM batch of the engine's
    /// kernel (one decoded instruction stream over all of them), charge
    /// each lane's CPU model with its bit-exact `ExecStats`, and record
    /// the task entry. A lane that traps is retired into `failed`
    /// without disturbing its siblings; a kernel the engine lacks fails
    /// the whole group.
    fn sw_stage(&mut self, k: usize, i: usize) -> Result<(), FlowError> {
        let stage = &STAGES[i];
        self.live.clear();
        self.live
            .extend((0..k).filter(|&l| self.lanes[l].failed.is_none()));
        if self.live.is_empty() {
            return Ok(());
        }
        for (bundle, &l) in self.bundles.iter_mut().zip(&self.live) {
            bundle.clear();
            let values = &mut self.lanes[l].values;
            for &(port, value) in stage.inputs {
                // No later stage reads a value past its last reader, so
                // that stage takes the tokens; the threshold stays for
                // `GroupRunner::run` to report.
                let last = STAGES
                    .iter()
                    .rposition(|s| s.inputs.iter().any(|&(_, v)| v == value));
                match value != Value::Threshold && last == Some(i) {
                    true => values.feed_last_read(value, port, bundle),
                    false => {
                        bundle.feed(port, values.get(value).unwrap_or_default().iter().copied())
                    }
                }
            }
        }
        let scalars: Vec<&HashMap<String, i64>> = (self.live.iter())
            .map(|&l| match stage.takes_n {
                true => &self.lanes[l].n_arg,
                false => &self.no_args,
            })
            .collect();
        let unit = self.engine.exec_unit(stage.kernel)?;
        let bundles = &mut self.bundles[..self.live.len()];
        let out = unit.run_batch(&scalars, bundles);
        self.vm_dispatches += out.dispatches;
        for ((&l, res), bundle) in self.live.iter().zip(out.lanes).zip(bundles) {
            let lane = &mut self.lanes[l];
            match res {
                Ok(o) => {
                    self.ir_ops += o.stats.steps;
                    let ns = lane.board.cpu.execute(&o.stats);
                    lane.tasks.push((Task::Sw(stage.task), ns, false));
                    stage.store_output(bundle, &mut lane.values);
                }
                Err(e) => lane.failed = Some(AppError::Exec(e)),
            }
        }
        Ok(())
    }

    /// Run the hardware range on every live lane's board among the
    /// first `k` as one group streaming phase
    /// ([`Board::run_stream_phases`]): stage the value entering the
    /// range in each board's DRAM, pass `n` to every accelerator in the
    /// range that takes it, and read the value leaving the range back.
    /// A lane that fails is retired into `failed` without disturbing
    /// its siblings.
    fn hw_stages(&mut self, k: usize) {
        let (input, output) = range_io(&self.hw);
        // Lanes whose input is staged.
        self.live.clear();
        for (l, lane) in self.lanes[..k].iter_mut().enumerate() {
            if lane.failed.is_some() {
                continue;
            }
            let tokens = lane.values.get(input).unwrap_or_default();
            lane.bytes.clear();
            dma::pack_beats(tokens, input.token_bytes() as u32, &mut lane.bytes);
            match lane.board.dram.load_bytes(IN_BUF, &lane.bytes) {
                Ok(()) => self.live.push(l),
                Err(e) => lane.failed = Some(e.into()),
            }
        }
        let takes_n = match &self.takes_n {
            Ok(accels) => accels,
            Err(kernel) => {
                for &l in &self.live {
                    self.lanes[l].failed = Some(AppError::MissingAccel(kernel.to_string()));
                }
                return;
            }
        };
        let dma = |addr, len| [(0, DmaDescriptor { addr, len })];
        let lanes = &mut self.lanes;
        let ins: Vec<_> = (self.live.iter())
            .map(|&l| dma(IN_BUF, lanes[l].bytes.len() as u64))
            .collect();
        let outs: Vec<_> = (self.live.iter())
            .map(|&l| dma(OUT_BUF, output.bytes(lanes[l].pixels)))
            .collect();
        // Each lane's scalar arguments, `takes_n.len()` of them.
        let scalars: Vec<(usize, &str, i64)> = (self.live.iter())
            .flat_map(|&l| takes_n.iter().map(move |&a| (a, "n", l)))
            .map(|(a, n, l)| (a, n, lanes[l].pixels as i64))
            .collect();
        let args: Vec<PhaseArgs> = (ins.iter().zip(&outs).enumerate())
            .map(|(i, (ins, outs))| PhaseArgs {
                inputs: ins,
                outputs: outs,
                scalar_args: &scalars[i * takes_n.len()..][..takes_n.len()],
            })
            .collect();
        let mut boards: Vec<&mut Board> = (lanes.iter_mut().enumerate())
            .filter(|(l, _)| self.live.contains(l))
            .map(|(_, lane)| &mut lane.board)
            .collect();
        let results = Board::run_stream_phases(&mut boards, &args);
        for ((&l, result), out) in self.live.iter().zip(results).zip(&outs) {
            let lane = &mut lanes[l];
            let out_len = out[0].1.len as usize;
            let read_back = result.map_err(AppError::from).and_then(|stats| {
                lane.bytes.resize(out_len, 0);
                lane.board.dram.read(OUT_BUF, &mut lane.bytes)?;
                Ok(stats)
            });
            let stats = match read_back {
                Ok(stats) => stats,
                Err(e) => {
                    lane.failed = Some(e);
                    continue;
                }
            };
            let tokens = lane.values.fill(output);
            dma::unpack_beats(&lane.bytes, output.token_bytes() as u32, tokens);
            lane.tasks.push((Task::Hw, stats.ns, true));
            lane.dma_bytes += stats.bytes_in + stats.bytes_out;
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

/// Execute the application for a whole group of images at once, on new
/// boards: a [`GroupRunner`] used for one group. `runs[l]` is
/// bit-identical to running image `l` alone.
pub fn run_application_group(
    arch: Arch,
    engine: &FlowEngine,
    artifacts: &FlowArtifacts,
    images: &[RgbImage],
    cfg: &AppConfig,
) -> Result<GroupExec, AppError> {
    GroupRunner::new(arch, engine, artifacts, cfg).run(images)
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

    /// One side of [`reused_runners_match_fresh_ones`]: an engine whose
    /// boards report to `events`, and its flow runs of Arch1 and Arch4.
    struct Side {
        engine: FlowEngine,
        artifacts: [FlowArtifacts; 2],
        events: Arc<CollectObserver>,
    }

    impl Side {
        fn new() -> Self {
            let events = Arc::new(CollectObserver::new());
            let mut engine =
                otsu_flow_engine_with(FlowOptions::builder().observer(events.clone()).build());
            let artifacts = [Arch::Arch1, Arch::Arch4]
                .map(|arch| engine.run_source(&arch_dsl_source(arch)).unwrap());
            Side {
                engine,
                artifacts,
                events,
            }
        }

        /// The `SimPhaseDone` events since the last call.
        fn phases(&self) -> Vec<FlowEvent> {
            let events = self.events.take().into_iter();
            events
                .filter(|e| matches!(e, FlowEvent::SimPhaseDone { .. }))
                .collect()
        }
    }

    /// What a lane's board holds after a group: its staged input and its
    /// read-back output.
    fn dram_of(runner: &GroupRunner, lane: usize) -> (Vec<u8>, Vec<u8>) {
        let dram = &runner.lanes[lane].board.dram;
        let at = |addr| dram.dump_bytes(addr, 4096).unwrap();
        (at(IN_BUF), at(OUT_BUF))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// Lane groups run through reused runners (their boards reset,
        /// their bundles and buffers kept, one runner per architecture as
        /// the serving precompute keeps them) give what each group gives
        /// on new boards: the same latencies, task times, DMA bytes,
        /// outputs, VM counters, `SimPhaseDone` events and DRAM
        /// contents. Groups mix architectures, image sides and lane
        /// counts, and a side-514 Arch4 image overruns the boards' DRAM
        /// when its input is staged.
        #[test]
        fn reused_runners_match_fresh_ones(
            groups in proptest::collection::vec(
                (
                    0usize..2,
                    proptest::collection::vec((0usize..5, 0u64..1000), 1..=4),
                ),
                1..=4,
            ),
        ) {
            // Room for every staged input at IN_BUF and output at
            // OUT_BUF, except a 514 × 514 RGB input.
            let cfg = AppConfig {
                dram_bytes: (OUT_BUF + 4096) as usize,
                ..AppConfig::default()
            };
            let (reused, fresh) = (Side::new(), Side::new());
            let mut runners: [Option<GroupRunner>; 2] = [None, None];
            for (g, &(a, ref lanes)) in groups.iter().enumerate() {
                let arch = [Arch::Arch1, Arch::Arch4][a];
                let images: Vec<RgbImage> = lanes
                    .iter()
                    .map(|&(side, seed)| {
                        let side = match side {
                            4 if arch == Arch::Arch4 => 514,
                            s => [12, 16, 17, 24, 24][s],
                        };
                        RgbImage::from_gray(&synthetic_scene(side, side, seed))
                    })
                    .collect();
                let runner = runners[a].get_or_insert_with(|| {
                    GroupRunner::new(arch, &reused.engine, &reused.artifacts[a], &cfg)
                });
                let mut new = GroupRunner::new(arch, &fresh.engine, &fresh.artifacts[a], &cfg);
                let want = new.run(&images).unwrap();
                // Every other group reads latencies only.
                let (got, got_ops, got_dispatches) = if g % 2 == 0 {
                    let got = runner.latencies(&images).unwrap();
                    let ns = got.total_ns.into_iter().map(|r| r.map_err(|e| e.to_string()));
                    (ns.collect::<Vec<_>>(), got.ir_ops, got.vm_dispatches)
                } else {
                    let got = runner.run(&images).unwrap();
                    for (l, (run, fresh_run)) in got.runs.iter().zip(&want.runs).enumerate() {
                        if let (Ok(r), Ok(f)) = (run, fresh_run) {
                            proptest::prop_assert_eq!(&r.tasks, &f.tasks, "group {} lane {}", g, l);
                            proptest::prop_assert_eq!(r.dma_bytes, f.dma_bytes);
                            proptest::prop_assert_eq!(r.threshold, f.threshold);
                            proptest::prop_assert_eq!(&r.output, &f.output);
                        }
                    }
                    let ns = got.runs.into_iter().map(|r| r.map(|r| r.total_ns).map_err(|e| e.to_string()));
                    (ns.collect::<Vec<_>>(), got.ir_ops, got.vm_dispatches)
                };
                let want_ns: Vec<_> = (want.runs.iter())
                    .map(|r| r.as_ref().map(|r| r.total_ns).map_err(|e| e.to_string()))
                    .collect();
                proptest::prop_assert_eq!(&got, &want_ns, "group {}", g);
                proptest::prop_assert_eq!((got_ops, got_dispatches), (want.ir_ops, want.vm_dispatches));
                proptest::prop_assert_eq!(reused.phases(), fresh.phases(), "group {}", g);
                for l in 0..images.len() {
                    proptest::prop_assert_eq!(dram_of(runner, l), dram_of(&new, l), "group {} lane {}", g, l);
                }
            }
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
