//! The scaled-Otsu case study: replicate the paper's 4-kernel chain K
//! times, partition the result over several Zynq-7020 boards, co-simulate
//! the whole system, and check the output pixels against the scalar
//! reference.
//!
//! Each chain `k` is the Fig. 8 diamond
//!
//! ```text
//! c{k}_grayScale -> c{k}_histogram -> c{k}_otsuMethod -> c{k}_binarization
//!        `-----------------------------------------------^
//! ```
//!
//! processing its own synthetic tile. A `scatter` node (the hub board's
//! I/O: it reads the K tiles) feeds every chain, and every chain's output
//! drains into a `gather` node (the hub writes the results) — so a chain
//! placed on a non-hub board necessarily pays for two inter-board links,
//! and the cut-cost refinement earns its keep by keeping as many chains
//! as fit on the hub. Per-chain area comes from the real HLS reports
//! (the same measurement path the DSE uses), plus one DMA infrastructure
//! block per chain — so enough replicas genuinely overflow one device
//! and force a multi-board cut.
//!
//! The **functional** result is computed on the batch-lane kernel VM
//! ([`CompiledKernel::run`]) at width 1: the four kernels are
//! compiled once per run and shared by every chain worker, and each chain
//! runs its four stages as one-lane batches (parallelized over host
//! threads into slot-ordered storage, so thread count never changes the
//! answer). Every chain is compared pixel-for-pixel with
//! [`accelsoc_apps::otsu::otsu_reference`]. The **timing** result comes
//! from [`accelsoc_platform::multiboard`]. The two never mix: the report
//! is byte-identical across `--threads`.

use crate::pack::{partition_observed, PartitionOptions};
use crate::plan::{BoardPlan, PlanError};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::{kernels, otsu};
use accelsoc_dse::otsu::otsu_chain_model_cached;
use accelsoc_hls::cache::HlsCache;
use accelsoc_hls::resource::ResourceEstimate;
use accelsoc_htg::graph::{Htg, TaskNode, TransferKind};
use accelsoc_integration::device::Device;
use accelsoc_kernel::{CompiledKernel, ExecError, StreamBundle};
use accelsoc_observe::{FlowObserver, NullObserver};
use accelsoc_platform::multiboard::{
    simulate, MbLink, MbNode, MultiBoardError, MultiBoardReport, MultiBoardSpec,
};
use accelsoc_platform::sim::ps_from_ns;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Knobs of one `partition-sim` run.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct PartitionSimOptions {
    /// Chain replicas (the paper's chain is `scale = 1`).
    pub scale: usize,
    /// Board budget.
    pub max_boards: usize,
    /// Image side — every chain processes a `side × side` image.
    pub side: u32,
    /// Seed for the synthetic images and the refinement sweep.
    pub seed: u64,
    /// Host threads for the functional (lane-VM) layer. Never affects
    /// the report contents, only wall time.
    pub threads: usize,
    /// Partitioner/link parameters beyond the board budget and seed.
    pub partition: PartitionOptions,
}

impl Default for PartitionSimOptions {
    fn default() -> Self {
        PartitionSimOptions {
            scale: 1,
            max_boards: 2,
            side: 64,
            seed: 1,
            threads: 1,
            partition: PartitionOptions::default(),
        }
    }
}

impl PartitionSimOptions {
    pub fn builder() -> PartitionSimOptionsBuilder {
        PartitionSimOptionsBuilder {
            opts: PartitionSimOptions::default(),
        }
    }
}

/// Chained-setter builder for [`PartitionSimOptions`].
#[derive(Debug, Clone)]
pub struct PartitionSimOptionsBuilder {
    opts: PartitionSimOptions,
}

impl PartitionSimOptionsBuilder {
    pub fn scale(mut self, k: usize) -> Self {
        self.opts.scale = k.max(1);
        self
    }

    pub fn max_boards(mut self, n: usize) -> Self {
        self.opts.max_boards = n.max(1);
        self
    }

    pub fn side(mut self, side: u32) -> Self {
        self.opts.side = side.max(8);
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads.max(1);
        self
    }

    pub fn partition(mut self, p: PartitionOptions) -> Self {
        self.opts.partition = p;
        self
    }

    pub fn build(self) -> PartitionSimOptions {
        self.opts
    }
}

/// Functional result of one chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainResult {
    pub chain: usize,
    /// Otsu threshold the hardware kernels computed.
    pub threshold: u8,
    /// FNV-1a of the binarized output pixels.
    pub checksum: u64,
    /// Output pixels identical to the scalar reference, and threshold
    /// matches.
    pub exact: bool,
}

/// Everything one `partition-sim` run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSimReport {
    pub scale: usize,
    pub side: u32,
    pub seed: u64,
    pub max_boards: usize,
    /// The cut: board subgraphs + inter-board links.
    pub plan: BoardPlan,
    /// The deterministic timing result.
    pub sim: MultiBoardReport,
    /// Per-chain functional results, in chain order.
    pub chains: Vec<ChainResult>,
    /// All chains pixel-exact against the scalar reference.
    pub pixel_exact: bool,
}

/// Why a `partition-sim` run failed.
#[derive(Debug)]
pub enum PartitionSimError {
    Plan(PlanError),
    Sim(MultiBoardError),
    Exec(ExecError),
}

impl fmt::Display for PartitionSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionSimError::Plan(e) => write!(f, "partitioning failed: {e}"),
            PartitionSimError::Sim(e) => write!(f, "co-simulation failed: {e}"),
            PartitionSimError::Exec(e) => write!(f, "kernel execution failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionSimError::Plan(e) => Some(e),
            PartitionSimError::Sim(e) => Some(e),
            PartitionSimError::Exec(e) => Some(e),
        }
    }
}

impl From<PlanError> for PartitionSimError {
    fn from(e: PlanError) -> Self {
        PartitionSimError::Plan(e)
    }
}

impl From<MultiBoardError> for PartitionSimError {
    fn from(e: MultiBoardError) -> Self {
        PartitionSimError::Sim(e)
    }
}

impl From<ExecError> for PartitionSimError {
    fn from(e: ExecError) -> Self {
        PartitionSimError::Exec(e)
    }
}

/// The four chain tasks, in chain order, with their edge payloads.
const CHAIN_TASKS: [&str; 4] = ["grayScale", "histogram", "otsuMethod", "binarization"];

/// Build the K-times-replicated Otsu HTG plus the per-node area map.
///
/// Timing and area for the four kernels come from the measured DSE chain
/// model at `pixels` pixels; each chain is additionally charged one DMA
/// infrastructure block (on its first node) because every replica needs
/// its own stream endpoints.
pub fn scaled_otsu_htg(
    scale: usize,
    pixels: u64,
    cache: &HlsCache,
    observer: &dyn FlowObserver,
) -> (
    Htg,
    BTreeMap<String, ResourceEstimate>,
    BTreeMap<String, u64>,
) {
    let model = otsu_chain_model_cached(pixels, cache, observer);
    let profile = |task: &str| {
        model
            .tasks
            .iter()
            .find(|t| t.name == task)
            .expect("otsu chain model always has the four hw tasks")
    };
    let chain_infra = model.infra_area;

    let mut htg = Htg::new();
    let mut areas = BTreeMap::new();
    let mut compute_ps = BTreeMap::new();

    // The hub's I/O endpoints: `scatter` reads and distributes the K
    // tiles, `gather` collects and writes the K results. Small stream-
    // switch area; time from the model's sw-only I/O tasks, scaled by K.
    let endpoint_area = ResourceEstimate::new(400, 600, 1, 0);
    let scatter = htg
        .add_task(
            "scatter",
            TaskNode {
                kernel: "readImage".into(),
                sw_cycles: 0,
                sw_only: false,
            },
        )
        .expect("fresh graph");
    areas.insert("scatter".to_string(), endpoint_area);
    compute_ps.insert(
        "scatter".to_string(),
        ps_from_ns(profile("readImage").sw_ns) * scale as u64,
    );
    let gather = htg
        .add_task(
            "gather",
            TaskNode {
                kernel: "writeImage".into(),
                sw_cycles: 0,
                sw_only: false,
            },
        )
        .expect("fresh graph");
    areas.insert("gather".to_string(), endpoint_area);
    compute_ps.insert(
        "gather".to_string(),
        ps_from_ns(profile("writeImage").sw_ns) * scale as u64,
    );

    for k in 0..scale {
        let mut ids = Vec::with_capacity(CHAIN_TASKS.len());
        for task in CHAIN_TASKS {
            let p = profile(task);
            let name = format!("c{k}_{task}");
            let id = htg
                .add_task(
                    &name,
                    TaskNode {
                        kernel: task.to_string(),
                        sw_cycles: (p.sw_ns / accelsoc_platform::PS_CLK_NS) as u64,
                        sw_only: false,
                    },
                )
                .expect("chain node names are unique");
            let mut area = p.area;
            if task == CHAIN_TASKS[0] {
                area += chain_infra;
            }
            areas.insert(name.clone(), area);
            compute_ps.insert(name, ps_from_ns(p.hw_ns));
            ids.push(id);
        }
        let buf = |bytes| TransferKind::SharedBuffer { bytes };
        // scatter -> gray (RGBA tile in), gray -> histogram (gray
        // pixels), gray -> binarization (the second gray copy),
        // histogram -> otsu (256 bins), otsu -> binarization (the
        // threshold), binarization -> gather (binary tile out).
        htg.add_edge(scatter, ids[0], buf(pixels * 4)).unwrap();
        htg.add_edge(ids[0], ids[1], buf(pixels)).unwrap();
        htg.add_edge(ids[0], ids[3], buf(pixels)).unwrap();
        htg.add_edge(ids[1], ids[2], buf(256 * 4)).unwrap();
        htg.add_edge(ids[2], ids[3], TransferKind::ParameterCopy { bytes: 4 })
            .unwrap();
        htg.add_edge(ids[3], gather, buf(pixels)).unwrap();
    }
    (htg, areas, compute_ps)
}

/// Lower a validated plan + per-node compute times into the platform's
/// board-neutral co-simulation spec.
fn lower_to_spec(
    htg: &Htg,
    plan: &BoardPlan,
    compute_ps: &BTreeMap<String, u64>,
) -> MultiBoardSpec {
    let nodes: Vec<MbNode> = htg
        .node_ids()
        .map(|id| {
            let name = htg.name(id);
            MbNode {
                name: name.to_string(),
                board: plan.board_of(name).expect("plan covers every node"),
                compute_ps: compute_ps[name],
            }
        })
        .collect();
    let edges: Vec<(usize, usize)> = htg
        .edges()
        .iter()
        .map(|e| (e.src.0 as usize, e.dst.0 as usize))
        .collect();
    let links: Vec<MbLink> = plan
        .links
        .iter()
        .map(|l| MbLink {
            id: l.id,
            src: htg.lookup(&l.src_node).expect("link endpoints exist").0 as usize,
            dst: htg.lookup(&l.dst_node).expect("link endpoints exist").0 as usize,
            words: l.words(),
            width_bits: l.width_bits,
            word_ps: l.word_ps,
            latency_ps: l.latency_ps,
            fifo_depth: l.fifo_depth,
        })
        .collect();
    MultiBoardSpec {
        boards: plan.board_count(),
        nodes,
        edges,
        links,
    }
}

/// FNV-1a over the output pixels.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The four chain kernels, compiled once per run and shared by reference
/// across the chain workers. Each stage runs through
/// [`CompiledKernel::run`], a one-lane batch on the lane VM. Width 1 keeps
/// each worker's working set to a single tile: 4-lane groups measured
/// about a fifth faster but hold four tiles' snapshots and SoA state, for
/// a third more peak memory (DESIGN.md §13).
struct ChainKernels {
    gray: CompiledKernel,
    hist: CompiledKernel,
    otsu: CompiledKernel,
    seg: CompiledKernel,
}

impl ChainKernels {
    fn compile() -> ChainKernels {
        ChainKernels {
            gray: CompiledKernel::compile(&kernels::grayscale()),
            hist: CompiledKernel::compile(&kernels::compute_histogram()),
            otsu: CompiledKernel::compile(&kernels::half_probability()),
            seg: CompiledKernel::compile(&kernels::segment()),
        }
    }
}

/// Run one chain's four kernels and compare with the scalar reference.
/// The chain stops at its first failing stage.
fn run_chain(
    compiled: &ChainKernels,
    chain: usize,
    side: u32,
    seed: u64,
) -> Result<ChainResult, ExecError> {
    let rgb = RgbImage::from_gray(&synthetic_scene(side, side, seed));
    let n = (side * side) as i64;
    let scalars: HashMap<String, i64> = [("n".to_string(), n)].into_iter().collect();

    let mut s = StreamBundle::new();
    s.feed("imageIn", rgb.data.iter().map(|&p| p as i64));
    compiled.gray.run(&scalars, &mut s)?;
    let gray_ch = s.take_output("imageOutCH").unwrap_or_default();
    let gray_seg = s.take_output("imageOutSEG").unwrap_or_default();

    let mut s = StreamBundle::new();
    s.feed("grayScaleImage", gray_ch);
    compiled.hist.run(&scalars, &mut s)?;
    let hist = s.take_output("histogram").unwrap_or_default();

    let mut s = StreamBundle::new();
    s.feed("histogram", hist);
    compiled.otsu.run(&HashMap::new(), &mut s)?;
    let threshold = s.take_output("probability").unwrap_or_default()[0] as u8;

    let mut s = StreamBundle::new();
    s.feed("otsuThreshold", [threshold as i64]);
    s.feed("grayScaleImage", gray_seg);
    compiled.seg.run(&scalars, &mut s)?;
    let out: Vec<u8> = s
        .take_output("segmentedGrayImage")
        .unwrap_or_default()
        .iter()
        .map(|&v| v as u8)
        .collect();

    let (ref_img, ref_thr) = otsu::otsu_reference(&rgb);
    let exact = threshold == ref_thr && out == ref_img.data;
    Ok(ChainResult {
        chain,
        threshold,
        checksum: fnv1a(&out),
        exact,
    })
}

/// [`run_partition_sim_observed`] with a null observer.
pub fn run_partition_sim(
    opts: &PartitionSimOptions,
) -> Result<PartitionSimReport, PartitionSimError> {
    run_partition_sim_observed(opts, &NullObserver)
}

/// The whole pipeline: build the scaled HTG, partition it, co-simulate
/// the boards, execute the chains functionally, and cross-check against
/// the scalar reference.
pub fn run_partition_sim_observed(
    opts: &PartitionSimOptions,
    observer: &dyn FlowObserver,
) -> Result<PartitionSimReport, PartitionSimError> {
    let pixels = u64::from(opts.side) * u64::from(opts.side);
    let cache = HlsCache::in_memory();
    let (htg, areas, compute_ps) = scaled_otsu_htg(opts.scale, pixels, &cache, observer);

    let mut popts = opts.partition.clone();
    popts.max_boards = opts.max_boards;
    popts.seed = opts.seed;
    let device = Device::zynq7020();
    let plan = partition_observed(&htg, &areas, &device, &popts, observer)?;

    let spec = lower_to_spec(&htg, &plan, &compute_ps);
    let sim = simulate(&spec, observer)?;

    // Functional layer: parallel-but-pure, slot-ordered, so `threads`
    // never leaks into the report.
    let compiled = &ChainKernels::compile();
    let mut slots: Vec<Option<Result<ChainResult, ExecError>>> = Vec::new();
    slots.resize_with(opts.scale, || None);
    let chunk = opts.scale.div_ceil(opts.threads).max(1);
    let chain_ids: Vec<usize> = (0..opts.scale).collect();
    let (side, seed) = (opts.side, opts.seed);
    crossbeam::thread::scope(|s| {
        for (id_chunk, slot_chunk) in chain_ids.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            s.spawn(move |_| {
                for (&k, slot) in id_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(run_chain(compiled, k, side, seed.wrapping_add(k as u64)));
                }
            });
        }
    })
    .expect("chain worker panicked");
    let mut chains = Vec::with_capacity(opts.scale);
    for slot in slots {
        chains.push(slot.expect("every chain slot filled")?);
    }
    let pixel_exact = chains.iter().all(|c| c.exact);

    Ok(PartitionSimReport {
        scale: opts.scale,
        side: opts.side,
        seed: opts.seed,
        max_boards: opts.max_boards,
        plan,
        sim,
        chains,
        pixel_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_fits_one_board_and_is_exact() {
        let opts = PartitionSimOptions::builder()
            .scale(1)
            .max_boards(2)
            .build();
        let r = run_partition_sim(&opts).unwrap();
        assert_eq!(r.plan.board_count(), 1);
        assert!(r.plan.links.is_empty());
        assert!(r.pixel_exact);
        assert!(r.sim.makespan_ps > 0);
    }

    #[test]
    fn scaled_chain_overflows_onto_multiple_boards_and_stays_exact() {
        let opts = PartitionSimOptions::builder()
            .scale(16)
            .max_boards(4)
            .build();
        let r = run_partition_sim(&opts).unwrap();
        assert!(
            r.plan.board_count() >= 2,
            "16 chains must overflow one Zynq-7020, got {} boards",
            r.plan.board_count()
        );
        assert!(!r.plan.links.is_empty(), "a cut implies links");
        assert!(r.pixel_exact, "partitioning must not change the pixels");
        assert_eq!(r.chains.len(), 16);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let base = PartitionSimOptions::builder().scale(8).max_boards(4);
        let mut jsons = Vec::new();
        for threads in [1usize, 2, 4] {
            let r = run_partition_sim(&base.clone().threads(threads).build()).unwrap();
            jsons.push(serde_json::to_string(&r).unwrap());
        }
        assert_eq!(jsons[0], jsons[1]);
        assert_eq!(jsons[1], jsons[2]);
    }

    #[test]
    fn budget_too_small_is_a_typed_plan_error() {
        let opts = PartitionSimOptions::builder()
            .scale(16)
            .max_boards(1)
            .build();
        match run_partition_sim(&opts) {
            Err(PartitionSimError::Plan(PlanError::ExceedsBoardBudget { .. })) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn more_boards_never_slow_the_single_chain_down_much() {
        // A single chain fits one board; granting more boards must not
        // change the plan (and hence the makespan) at all.
        let one = run_partition_sim(&PartitionSimOptions::builder().max_boards(1).build()).unwrap();
        let four =
            run_partition_sim(&PartitionSimOptions::builder().max_boards(4).build()).unwrap();
        assert_eq!(one.sim.makespan_ps, four.sim.makespan_ps);
    }
}
