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
//! Both the graph and the functional chains come from the runner's own
//! description of the chain, [`accelsoc_apps::otsu::STAGES`]: its tasks
//! are the nodes, its values (with their byte sizes) the edges.
//!
//! The **functional** result is computed on the batch-lane kernel VM
//! ([`CompiledKernel::run`]) at width 1: the stage kernels are compiled
//! once per run and shared by every chain worker, and each chain walks
//! the stage table as one-lane batches (parallelized over host threads
//! by [`accelsoc_apps::par_map`], in chain order, so thread count never
//! changes the answer).
//! Every chain is compared pixel-for-pixel with
//! [`accelsoc_apps::otsu::otsu_reference`]. The **timing** result comes
//! from [`accelsoc_platform::multiboard`]. The two never mix: the report
//! is byte-identical across `--threads`. A tile whose runner layout does
//! not fit one board's DRAM ([`accelsoc_apps::otsu::dram_footprint`]), or
//! whose pixel count the Otsu kernels cannot count
//! ([`MAX_PIXELS`]), is refused before any of this runs.

use crate::flow::lower_spec;
use crate::pack::{partition_observed, PartitionOptions};
use crate::plan::{BoardPlan, PlanError};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::kernels::MAX_PIXELS;
use accelsoc_apps::otsu::{self, AppConfig, ChainValues, Value, STAGES};
use accelsoc_apps::par_map;
use accelsoc_dse::otsu::otsu_chain_model_cached;
use accelsoc_hls::cache::HlsCache;
use accelsoc_hls::resource::ResourceEstimate;
use accelsoc_htg::graph::{Htg, TaskNode, TransferKind};
use accelsoc_integration::device::Device;
use accelsoc_kernel::{CompiledKernel, ExecError};
use accelsoc_observe::{FlowObserver, NullObserver};
use accelsoc_platform::multiboard::{simulate, MultiBoardError, MultiBoardReport};
use accelsoc_platform::sim::ps_from_ns;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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
    /// A `side × side` tile needs more board DRAM than a board has
    /// (the bound serve admission applies to the same runner layout).
    TileTooLarge {
        side: u32,
        bytes: u64,
        capacity: u64,
    },
    /// A `side × side` tile has more pixels than the Otsu kernels'
    /// pixel counters hold ([`MAX_PIXELS`]).
    TooManyPixels {
        side: u32,
        pixels: u64,
        max: u64,
    },
    Plan(PlanError),
    Sim(MultiBoardError),
    Exec(ExecError),
}

impl fmt::Display for PartitionSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionSimError::TileTooLarge {
                side,
                bytes,
                capacity,
            } => write!(
                f,
                "a {side}x{side} tile needs {bytes} B of board DRAM, more than its {capacity} B"
            ),
            PartitionSimError::TooManyPixels { side, pixels, max } => write!(
                f,
                "a {side}x{side} tile has {pixels} pixels, more than the Otsu kernels' \
                 pixel counters hold ({max})"
            ),
            PartitionSimError::Plan(e) => write!(f, "partitioning failed: {e}"),
            PartitionSimError::Sim(e) => write!(f, "co-simulation failed: {e}"),
            PartitionSimError::Exec(e) => write!(f, "kernel execution failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionSimError::TileTooLarge { .. } | PartitionSimError::TooManyPixels { .. } => {
                None
            }
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

/// Build the K-times-replicated Otsu HTG plus the per-node area map.
///
/// Timing and area for the four kernels come from the measured DSE chain
/// model at `pixels` pixels; each chain is additionally charged one DMA
/// infrastructure block (on its first node) because every replica needs
/// its own stream endpoints. Nodes and edges follow [`STAGES`]: each
/// stage's output feeds every later stage that reads it, the RGBA tile
/// comes from `scatter` and the last stage's output drains to `gather`.
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
    let mut endpoint = |name: &str, task: &str| {
        let id = htg
            .add_task(
                name,
                TaskNode {
                    kernel: task.into(),
                    sw_cycles: 0,
                    sw_only: false,
                },
            )
            .expect("fresh graph");
        areas.insert(name.to_string(), endpoint_area);
        compute_ps.insert(
            name.to_string(),
            ps_from_ns(profile(task).sw_ns) * scale as u64,
        );
        id
    };
    let scatter = endpoint("scatter", "readImage");
    let gather = endpoint("gather", "writeImage");

    // The threshold is a parameter copy; every other value moves
    // through a shared buffer.
    let transfer = |value: Value| {
        let bytes = value.bytes(pixels);
        if value == Value::Threshold {
            TransferKind::ParameterCopy { bytes }
        } else {
            TransferKind::SharedBuffer { bytes }
        }
    };
    let last = STAGES.len() - 1;
    for k in 0..scale {
        let mut ids = Vec::with_capacity(STAGES.len());
        for (i, stage) in STAGES.iter().enumerate() {
            let p = profile(stage.task);
            let name = format!("c{k}_{}", stage.task);
            let id = htg
                .add_task(
                    &name,
                    TaskNode {
                        kernel: stage.task.to_string(),
                        sw_cycles: (p.sw_ns / accelsoc_platform::PS_CLK_NS) as u64,
                        sw_only: false,
                    },
                )
                .expect("chain node names are unique");
            let mut area = p.area;
            if i == 0 {
                area += chain_infra;
            }
            areas.insert(name.clone(), area);
            compute_ps.insert(name, ps_from_ns(p.hw_ns));
            ids.push(id);
        }
        htg.add_edge(scatter, ids[0], transfer(STAGES[0].inputs[0].1))
            .unwrap();
        for (i, producer) in STAGES.iter().enumerate() {
            let value = producer.output.1;
            for (j, consumer) in STAGES.iter().enumerate().skip(i + 1) {
                if consumer.inputs.iter().any(|&(_, v)| v == value) {
                    htg.add_edge(ids[i], ids[j], transfer(value)).unwrap();
                }
            }
        }
        htg.add_edge(ids[last], gather, transfer(STAGES[last].output.1))
            .unwrap();
    }
    (htg, areas, compute_ps)
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

/// Run one chain's stages on `units` (one compiled kernel per entry of
/// [`STAGES`]) and compare with the scalar reference. The chain stops at
/// its first failing stage.
fn run_chain(
    units: &[CompiledKernel],
    chain: usize,
    side: u32,
    seed: u64,
) -> Result<ChainResult, ExecError> {
    let rgb = RgbImage::from_gray(&synthetic_scene(side, side, seed));
    let pixels = rgb.data.len() as u64;
    let mut values = ChainValues::new(&rgb);
    for (stage, unit) in STAGES.iter().zip(units) {
        let mut bundle = stage.inputs_from(&values);
        unit.run(&stage.scalars(pixels), &mut bundle)?;
        stage.store_output(&mut bundle, &mut values);
    }
    let threshold = values.threshold().unwrap_or_default();
    let out = values.segmented();

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
    let bytes = otsu::dram_footprint(pixels);
    let capacity = AppConfig::default().dram_bytes as u64;
    if bytes > capacity {
        return Err(PartitionSimError::TileTooLarge {
            side: opts.side,
            bytes,
            capacity,
        });
    }
    if pixels > u64::from(MAX_PIXELS) {
        return Err(PartitionSimError::TooManyPixels {
            side: opts.side,
            pixels,
            max: u64::from(MAX_PIXELS),
        });
    }
    let cache = HlsCache::in_memory();
    let (htg, areas, compute_ps) = scaled_otsu_htg(opts.scale, pixels, &cache, observer);

    let mut popts = opts.partition.clone();
    popts.max_boards = opts.max_boards;
    popts.seed = opts.seed;
    let device = Device::zynq7020();
    let plan = partition_observed(&htg, &areas, &device, &popts, observer)?;

    let spec = lower_spec(&htg, &plan, &compute_ps);
    let sim = simulate(&spec, observer)?;

    // Functional layer: parallel-but-pure, slot-ordered, so `threads`
    // never leaks into the report.
    // The stage kernels, compiled once per run and shared by reference
    // across the chain workers. Each stage runs through
    // [`CompiledKernel::run`], a one-lane batch on the lane VM. Width 1
    // keeps each worker's working set to a single tile: 4-lane groups
    // measured about a fifth faster but hold four tiles' snapshots and
    // SoA state, for a third more peak memory (DESIGN.md §13).
    let units: Vec<CompiledKernel> = STAGES
        .iter()
        .map(|stage| CompiledKernel::compile(&stage.kernel_ir()))
        .collect();
    let chains = par_map(opts.scale, opts.threads, |k| {
        run_chain(&units, k, opts.side, opts.seed.wrapping_add(k as u64))
    })
    .into_iter()
    .collect::<Result<Vec<ChainResult>, ExecError>>()?;
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
    fn oversized_tile_is_a_typed_error_before_any_work() {
        let opts = PartitionSimOptions::builder().side(100_000).build();
        match run_partition_sim(&opts) {
            Err(PartitionSimError::TileTooLarge { side: 100_000, .. }) => {}
            other => panic!("expected a tile-size error, got {other:?}"),
        }
    }

    #[test]
    fn tile_past_the_pixel_counters_is_a_typed_error_before_any_work() {
        // 1449² = 2 099 601 px fits one board's DRAM but wraps
        // `halfProbability`'s 21-bit pixel counts.
        let opts = PartitionSimOptions::builder().side(1449).build();
        match run_partition_sim(&opts) {
            Err(PartitionSimError::TooManyPixels {
                side: 1449,
                pixels: 2_099_601,
                max: 2_097_151,
            }) => {}
            other => panic!("expected a pixel-count error, got {other:?}"),
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
