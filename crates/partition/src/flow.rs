//! The flow fallback: run the normal single-board
//! [`FlowEngine`] and, when integration
//! fails with a typed [`CapacityExceeded`], partition the HTG over
//! several boards and co-simulate instead of giving up.
//!
//! This wrapper lives here (and not in `accelsoc-core`) because the core
//! flow cannot depend on the partitioner without a dependency cycle; the
//! layering mirrors the paper's toolchain, where multi-board mapping is a
//! pass *around* the per-board Vivado flow, not inside it.

use crate::pack::{partition_observed, PartitionOptions};
use crate::plan::{BoardPlan, PlanError};
use accelsoc_core::flow::{FlowArtifacts, FlowEngine, FlowError};
use accelsoc_core::htg_bridge::{lower_htg, BridgeError};
use accelsoc_hls::resource::ResourceEstimate;
use accelsoc_htg::graph::Htg;
use accelsoc_htg::partition::Partition;
use accelsoc_integration::synth::CapacityExceeded;
use accelsoc_kernel::ir::Kernel;
use accelsoc_platform::multiboard::{
    simulate, MbLink, MbNode, MultiBoardError, MultiBoardReport, MultiBoardSpec,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// What one [`PartitionedFlow::run`] produced: either the normal
/// single-board artifacts, or — when the design overflowed the device —
/// a multi-board plan plus its co-simulation.
#[derive(Debug)]
pub enum FlowOutcome {
    /// The design fit one board; the ordinary flow result.
    SingleBoard(Box<FlowArtifacts>),
    /// The design overflowed one board; partitioned and co-simulated.
    MultiBoard {
        /// The typed capacity failure that triggered partitioning.
        trigger: CapacityExceeded,
        plan: BoardPlan,
        sim: Box<MultiBoardReport>,
    },
}

impl FlowOutcome {
    pub fn is_multi_board(&self) -> bool {
        matches!(self, FlowOutcome::MultiBoard { .. })
    }

    /// Boards the outcome occupies (1 for a single-board run).
    pub fn board_count(&self) -> usize {
        match self {
            FlowOutcome::SingleBoard(_) => 1,
            FlowOutcome::MultiBoard { plan, .. } => plan.board_count(),
        }
    }
}

/// Errors of the wrapped pipeline.
#[derive(Debug)]
pub enum PartitionedFlowError {
    /// The single-board flow failed for a reason other than capacity.
    Flow(FlowError),
    /// HTG → DSL lowering failed.
    Bridge(BridgeError),
    /// Capacity was exceeded but no valid multi-board plan exists.
    Plan(PlanError),
    /// The multi-board co-simulation rejected the lowered spec.
    Sim(MultiBoardError),
}

impl fmt::Display for PartitionedFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionedFlowError::Flow(e) => write!(f, "flow failed: {e}"),
            PartitionedFlowError::Bridge(e) => write!(f, "htg lowering failed: {e}"),
            PartitionedFlowError::Plan(e) => write!(f, "partitioning failed: {e}"),
            PartitionedFlowError::Sim(e) => write!(f, "co-simulation failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionedFlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionedFlowError::Flow(e) => Some(e),
            PartitionedFlowError::Bridge(e) => Some(e),
            PartitionedFlowError::Plan(e) => Some(e),
            PartitionedFlowError::Sim(e) => Some(e),
        }
    }
}

/// A [`FlowEngine`] with a multi-board escape hatch.
pub struct PartitionedFlow {
    pub engine: FlowEngine,
    pub options: PartitionOptions,
}

impl PartitionedFlow {
    pub fn new(engine: FlowEngine, options: PartitionOptions) -> Self {
        PartitionedFlow { engine, options }
    }

    /// Run the single-board flow on the hardware side of a partitioned
    /// HTG; fall back to multi-board partitioning when (and only when)
    /// the flow fails with a typed capacity error.
    ///
    /// `areas` and `compute_ps` must cover every HTG node (software
    /// nodes may use [`ResourceEstimate::ZERO`] and their software
    /// time); they drive the fallback packer and co-simulation.
    pub fn run(
        &mut self,
        htg: &Htg,
        hw_sw: &Partition,
        kernels: &HashMap<String, Kernel>,
        areas: &BTreeMap<String, ResourceEstimate>,
        compute_ps: &BTreeMap<String, u64>,
    ) -> Result<FlowOutcome, PartitionedFlowError> {
        let graph = lower_htg(htg, hw_sw, kernels).map_err(PartitionedFlowError::Bridge)?;
        match self.engine.run(&graph) {
            Ok(artifacts) => Ok(FlowOutcome::SingleBoard(Box::new(artifacts))),
            Err(err) => {
                let trigger = match err.capacity_exceeded() {
                    Some(ce) => ce.clone(),
                    None => return Err(PartitionedFlowError::Flow(err)),
                };
                let device = self.engine.options.device.clone();
                let observer = self.engine.options.observer.clone();
                let plan =
                    partition_observed(htg, areas, &device, &self.options, observer.as_ref())
                        .map_err(PartitionedFlowError::Plan)?;
                let spec = lower_spec(htg, &plan, compute_ps);
                let sim = simulate(&spec, observer.as_ref()).map_err(PartitionedFlowError::Sim)?;
                Ok(FlowOutcome::MultiBoard {
                    trigger,
                    plan,
                    sim: Box::new(sim),
                })
            }
        }
    }
}

/// Lower a validated plan + per-node compute times into the platform's
/// board-neutral co-simulation spec. A node missing from `compute_ps`
/// computes for 0 ps: [`PartitionedFlow::run`] takes the map from its
/// caller.
pub(crate) fn lower_spec(
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
                compute_ps: compute_ps.get(name).copied().unwrap_or(0),
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

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_core::flow::FlowOptions;
    use accelsoc_htg::graph::{TaskNode, TransferKind};
    use accelsoc_integration::device::Device;
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;

    /// A tiny scalar (AXI-Lite) kernel — simple HTG tasks lower to
    /// memory-mapped nodes, so they must not carry stream ports.
    fn scalar_kernel(name: &str) -> Kernel {
        KernelBuilder::new(name)
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("return", Ty::U32)
            .push(assign("return", add(var("a"), var("b"))))
            .build()
    }

    type Fixture = (
        Htg,
        Partition,
        HashMap<String, Kernel>,
        BTreeMap<String, ResourceEstimate>,
        BTreeMap<String, u64>,
    );

    /// A two-node hardware chain with the given per-node areas.
    fn fixture(lut: u32) -> Fixture {
        let mut htg = Htg::new();
        let a = htg
            .add_task(
                "A",
                TaskNode {
                    kernel: "k_a".into(),
                    sw_cycles: 100,
                    sw_only: false,
                },
            )
            .unwrap();
        let b = htg
            .add_task(
                "B",
                TaskNode {
                    kernel: "k_b".into(),
                    sw_cycles: 100,
                    sw_only: false,
                },
            )
            .unwrap();
        htg.add_edge(a, b, TransferKind::SharedBuffer { bytes: 1024 })
            .unwrap();
        let partition = Partition::hardware_set(&htg, ["A", "B"]);
        let mut kernels = HashMap::new();
        kernels.insert("k_a".to_string(), scalar_kernel("k_a"));
        kernels.insert("k_b".to_string(), scalar_kernel("k_b"));
        let mut areas = BTreeMap::new();
        areas.insert("A".to_string(), ResourceEstimate::new(lut, lut, 1, 0));
        areas.insert("B".to_string(), ResourceEstimate::new(lut, lut, 1, 0));
        let mut compute_ps = BTreeMap::new();
        compute_ps.insert("A".to_string(), 10_000);
        compute_ps.insert("B".to_string(), 20_000);
        (htg, partition, kernels, areas, compute_ps)
    }

    fn engine_on(device: Device) -> FlowEngine {
        FlowEngine::new(FlowOptions::builder().device(device).build())
    }

    #[test]
    fn fitting_design_stays_single_board() {
        let (htg, p, kernels, areas, compute) = fixture(1_000);
        let mut engine = engine_on(Device::zynq7020());
        for (node, kname) in [("A", "k_a"), ("B", "k_b")] {
            let mut k = kernels[kname].clone();
            k.name = node.to_string();
            engine.register_kernel(k);
        }
        let mut pf = PartitionedFlow::new(engine, PartitionOptions::default());
        let outcome = pf.run(&htg, &p, &kernels, &areas, &compute).unwrap();
        assert!(!outcome.is_multi_board());
        assert_eq!(outcome.board_count(), 1);
    }

    #[test]
    fn capacity_exceeded_falls_back_to_multi_board() {
        // Two synthesized passthrough cores won't overflow a 7020, so
        // target the much smaller 7010 and inflate the modeled areas the
        // packer sees to match a genuinely overflowing design.
        let (htg, p, kernels, _, compute) = fixture(1_000);
        let mut engine = engine_on(Device::zynq7010());
        // Shrink the device the flow sees so synthesis genuinely fails.
        let mut tiny = Device::zynq7010();
        tiny.capacity = ResourceEstimate::new(700, 100_000, 280, 220);
        engine.options.device = tiny.clone();
        for (node, kname) in [("A", "k_a"), ("B", "k_b")] {
            let mut k = kernels[kname].clone();
            k.name = node.to_string();
            engine.register_kernel(k);
        }
        let mut pf = PartitionedFlow::new(
            engine,
            PartitionOptions::builder()
                .max_boards(4)
                .infra_area(ResourceEstimate::ZERO)
                .build(),
        );
        // Areas sized so each node alone fits the shrunken device but
        // the pair does not.
        let mut areas = BTreeMap::new();
        areas.insert("A".to_string(), ResourceEstimate::new(500, 500, 1, 0));
        areas.insert("B".to_string(), ResourceEstimate::new(500, 500, 1, 0));
        let outcome = pf.run(&htg, &p, &kernels, &areas, &compute).unwrap();
        match outcome {
            FlowOutcome::MultiBoard { trigger, plan, sim } => {
                assert_eq!(trigger.part, tiny.part);
                assert_eq!(plan.board_count(), 2);
                assert_eq!(plan.cut_edges(), 1);
                assert!(sim.makespan_ps >= 30_000, "compute + link time");
            }
            FlowOutcome::SingleBoard(_) => panic!("expected multi-board fallback"),
        }
    }

    #[test]
    fn non_capacity_errors_propagate() {
        let (htg, p, mut kernels, areas, compute) = fixture(1_000);
        kernels.remove("k_b");
        let engine = engine_on(Device::zynq7020());
        let mut pf = PartitionedFlow::new(engine, PartitionOptions::default());
        let err = pf.run(&htg, &p, &kernels, &areas, &compute).unwrap_err();
        assert!(matches!(err, PartitionedFlowError::Bridge(_)));
    }
}
