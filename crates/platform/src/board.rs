//! The assembled board: DRAM + CPU + stream topology + DMA engines +
//! accelerators.
//!
//! Two execution styles, matching the paper's two interconnect kinds:
//!
//! * [`Board::invoke_lite`] — memory-mapped invocation of one core: the
//!   host writes argument registers over AXI-Lite, starts the core, polls
//!   for completion and reads results (ADD/MULT style in Fig. 4). Each
//!   AXI-Lite transaction costs a fixed 5 PL cycles.
//! * [`Board::run_stream_phase`] — a streaming phase (GAUSS→EDGE style):
//!   each MM2S DMA reads its whole input buffer ([`dma::mm2s`]), the
//!   cores fire in feed-forward order, and each S2MM DMA writes its whole
//!   output buffer back ([`dma::s2mm`]). Timing uses a steady-state
//!   pipeline model: transfers and computation overlap, so the makespan
//!   is the pipeline fill plus the *slowest* stage, not the sum of stages.
//!
//! A streaming phase's function runs every time; its timing comes from
//! the board's [`PhaseMemo`], which simulates each distinct phase shape
//! once ([`crate::cosim`]) from the phase's token counts alone.
//! [`Board::new`] gives a board a private memo; a flow engine shares one
//! memo across every board it builds ([`Board::set_phase_memo`]). Board
//! DRAM is paged ([`Dram`]), so a board costs only the pages its phases
//! touch.

use crate::accel::AccelInstance;
use crate::cosim::{CosimPhase, PhaseMemo, SinkSpec, SourceSpec, StagePort, StageSpec};
use crate::cpu::Cpu;
use crate::memory::Dram;
use crate::PL_CLK_NS;
use accelsoc_axi::dma::{self, DmaDescriptor, DmaEngine, DmaError};
use accelsoc_kernel::interp::{ExecError, StreamBundle};
use accelsoc_observe::{null_observer, FlowEvent, SharedObserver};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One endpoint of a stream link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A DMA engine channel (the DSL's `'soc`).
    Dma(usize),
    /// An accelerator port.
    Accel { accel: usize, port: String },
}

/// A point-to-point AXI-Stream link.
#[derive(Debug, Clone)]
pub struct StreamLink {
    pub from: Endpoint,
    pub to: Endpoint,
}

#[derive(Debug)]
pub enum BoardError {
    UnknownAccel(usize),
    UnknownDma(usize),
    UnknownPort {
        accel: String,
        port: String,
    },
    WidthMismatch {
        from: String,
        to: String,
        from_bits: u32,
        to_bits: u32,
    },
    Exec {
        accel: String,
        err: ExecError,
    },
    Dma(DmaError),
    /// The stream topology has a cycle — no feed-forward firing order.
    CyclicTopology,
    /// No link feeds one of the inputs an accelerator needs.
    UnconnectedInput {
        accel: String,
        port: String,
    },
    /// The co-scheduled cycle simulation hit its safety cap without all
    /// endpoints finishing — the token accounting is inconsistent.
    SimDiverged {
        cycles: u64,
    },
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::UnknownAccel(i) => write!(f, "no accelerator with index {i}"),
            BoardError::UnknownDma(i) => write!(f, "no DMA engine with index {i}"),
            BoardError::UnknownPort { accel, port } => {
                write!(f, "accelerator `{accel}` has no stream port `{port}`")
            }
            BoardError::WidthMismatch {
                from,
                to,
                from_bits,
                to_bits,
            } => write!(
                f,
                "stream width mismatch: {from} ({from_bits}b) -> {to} ({to_bits}b)"
            ),
            BoardError::Exec { accel, err } => write!(f, "accelerator `{accel}` failed: {err}"),
            BoardError::Dma(e) => write!(f, "{e}"),
            BoardError::CyclicTopology => write!(f, "stream topology contains a cycle"),
            BoardError::UnconnectedInput { accel, port } => {
                write!(f, "input `{accel}.{port}` is not fed by any link")
            }
            BoardError::SimDiverged { cycles } => {
                write!(
                    f,
                    "cycle simulation did not converge within {cycles} cycles"
                )
            }
        }
    }
}

impl std::error::Error for BoardError {}

impl From<DmaError> for BoardError {
    fn from(e: DmaError) -> Self {
        BoardError::Dma(e)
    }
}

/// Statistics of one streaming-phase execution. Timing comes from the
/// co-scheduled bounded-FIFO cycle simulation ([`crate::cosim`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Total modelled wall time.
    pub ns: f64,
    /// Total cycles of the co-scheduled simulation.
    pub total_cycles: u64,
    /// Cycles until the first result beat reached an S2MM channel
    /// (pipeline fill: DMA setup + stage startups + first traversal).
    pub fill_cycles: u64,
    /// `total_cycles - fill_cycles`.
    pub steady_cycles: u64,
    /// Cycles producers spent blocked on a full stream FIFO.
    pub backpressure_stall_cycles: u64,
    /// Cycles consumers spent blocked on an empty stream FIFO.
    pub starvation_stall_cycles: u64,
    /// Cycles DMA endpoints spent waiting for HP-port byte budget.
    pub hp_stall_cycles: u64,
    /// Per-stage busy cycles: (stage name, cycles).
    pub per_stage: Vec<(String, u64)>,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// The simulated ZedBoard.
pub struct Board {
    pub dram: Dram,
    pub cpu: Cpu,
    pub accels: Vec<AccelInstance>,
    pub dmas: Vec<DmaEngine>,
    pub links: Vec<StreamLink>,
    /// Host poll interval for done-bit polling, in PL cycles.
    pub poll_interval_cycles: u64,
    /// Bytes per PL cycle the HP port sustains (64-bit port → 8 B/cycle).
    /// All of a phase's DMA traffic shares this port, so total bytes over
    /// this bandwidth lower-bounds the steady-state phase time.
    pub hp_bytes_per_cycle: u64,
    /// Depth of every AXI-Stream FIFO on the board (Vivado-style skid
    /// buffer default is 16). Shallower FIFOs surface more backpressure.
    pub stream_fifo_depth: usize,
    /// Safety cap for the co-scheduled cycle simulation.
    pub max_sim_cycles: u64,
    /// Event bus for phase-level counters (DMA bursts, bus stalls).
    observer: SharedObserver,
    /// Streaming-phase timing, memoized by phase shape.
    phase_memo: Arc<PhaseMemo>,
    /// Streaming phases executed so far (labels the emitted events).
    phases_run: u64,
}

impl Board {
    pub fn new(dram_bytes: usize) -> Self {
        Board {
            dram: Dram::new(dram_bytes),
            cpu: Cpu::cortex_a9(),
            accels: Vec::new(),
            dmas: Vec::new(),
            links: Vec::new(),
            poll_interval_cycles: 50,
            hp_bytes_per_cycle: 8,
            stream_fifo_depth: 16,
            max_sim_cycles: 50_000_000,
            observer: null_observer(),
            phase_memo: Arc::new(PhaseMemo::new()),
            phases_run: 0,
        }
    }

    /// Report streaming-phase counters to `observer` from now on.
    pub fn set_observer(&mut self, observer: SharedObserver) {
        self.observer = observer;
    }

    /// Take streaming-phase timing from `memo` from now on, sharing it
    /// with every other board that holds it.
    pub fn set_phase_memo(&mut self, memo: Arc<PhaseMemo>) {
        self.phase_memo = memo;
    }

    pub fn add_accel(&mut self, accel: AccelInstance) -> usize {
        self.accels.push(accel);
        self.accels.len() - 1
    }

    pub fn add_dma(&mut self) -> usize {
        self.dmas
            .push(DmaEngine::new(&format!("dma{}", self.dmas.len())));
        self.dmas.len() - 1
    }

    /// Connect two endpoints with a stream link, validating ports/widths.
    pub fn link(&mut self, from: Endpoint, to: Endpoint) -> Result<(), BoardError> {
        let from_bits = self.endpoint_bits(&from, false)?;
        let to_bits = self.endpoint_bits(&to, true)?;
        if let (Some(fb), Some(tb)) = (from_bits, to_bits) {
            if fb != tb {
                return Err(BoardError::WidthMismatch {
                    from: self.endpoint_name(&from),
                    to: self.endpoint_name(&to),
                    from_bits: fb,
                    to_bits: tb,
                });
            }
        }
        self.links.push(StreamLink { from, to });
        Ok(())
    }

    fn endpoint_bits(&self, ep: &Endpoint, is_dest: bool) -> Result<Option<u32>, BoardError> {
        match ep {
            Endpoint::Dma(_) => Ok(None), // DMA adapts to any width
            Endpoint::Accel { accel, port } => {
                let a = self
                    .accels
                    .get(*accel)
                    .ok_or(BoardError::UnknownAccel(*accel))?;
                let sp =
                    a.report
                        .interface
                        .stream(port)
                        .ok_or_else(|| BoardError::UnknownPort {
                            accel: a.kernel.name.clone(),
                            port: port.clone(),
                        })?;
                use accelsoc_hls::interface::StreamDir;
                let ok = if is_dest {
                    sp.dir == StreamDir::In
                } else {
                    sp.dir == StreamDir::Out
                };
                if !ok {
                    return Err(BoardError::UnknownPort {
                        accel: a.kernel.name.clone(),
                        port: format!("{port} (wrong direction)"),
                    });
                }
                Ok(Some(sp.tdata_bits))
            }
        }
    }

    fn endpoint_name(&self, ep: &Endpoint) -> String {
        match ep {
            Endpoint::Dma(i) => format!("dma{i}"),
            Endpoint::Accel { accel, port } => match self.accels.get(*accel) {
                Some(a) => format!("{}.{}", a.kernel.name, port),
                None => format!("accel{accel}.{port}"),
            },
        }
    }

    /// Memory-mapped invocation of one accelerator (AXI-Lite style).
    /// Returns (scalar outputs, nanoseconds elapsed).
    pub fn invoke_lite(
        &mut self,
        accel: usize,
        args: &[(&str, i64)],
    ) -> Result<(HashMap<String, i64>, f64), BoardError> {
        let a = self
            .accels
            .get_mut(accel)
            .ok_or(BoardError::UnknownAccel(accel))?;
        for (name, v) in args {
            a.set_arg(name, *v);
        }
        let mut streams = StreamBundle::new();
        let (outs, _) = a.invoke(&mut streams).map_err(|err| BoardError::Exec {
            accel: a.kernel.name.clone(),
            err,
        })?;
        // Bus cost: one write per argument + start write; polls until the
        // core's latency elapses; one read per output register.
        let txn = 5u64; // AXI-Lite cycles per single-beat transaction
        let latency = a.report.latency;
        let polls = latency.div_ceil(self.poll_interval_cycles).max(1);
        let cycles = (args.len() as u64 + 1) * txn // arg writes + start
            + latency
            + polls * txn
            + outs.len() as u64 * txn;
        let ns = cycles as f64 * PL_CLK_NS;
        Ok((outs, ns))
    }

    /// Feed-forward firing order of accelerators referenced by links.
    fn topo_order(&self) -> Result<Vec<usize>, BoardError> {
        let n = self.accels.len();
        let mut indeg = vec![0usize; n];
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for l in &self.links {
            if let (Endpoint::Accel { accel: a, .. }, Endpoint::Accel { accel: b, .. }) =
                (&l.from, &l.to)
            {
                edges.push((*a, *b));
                indeg[*b] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::new();
        while let Some(u) = ready.pop() {
            order.push(u);
            for &(a, b) in &edges {
                if a == u {
                    indeg[b] -= 1;
                    if indeg[b] == 0 {
                        ready.push(b);
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(BoardError::CyclicTopology)
        }
    }

    /// Execute a streaming phase.
    ///
    /// `inputs`: for each MM2S entry point, (dma index, source descriptor).
    /// `outputs`: for each S2MM exit, (dma index, destination descriptor).
    /// `scalar_args`: per-accelerator scalar arguments (e.g. pixel counts).
    pub fn run_stream_phase(
        &mut self,
        inputs: &[(usize, DmaDescriptor)],
        outputs: &[(usize, DmaDescriptor)],
        scalar_args: &[(usize, &str, i64)],
    ) -> Result<PhaseStats, BoardError> {
        for (accel, name, v) in scalar_args {
            let a = self
                .accels
                .get_mut(*accel)
                .ok_or(BoardError::UnknownAccel(*accel))?;
            a.set_arg(name, *v);
        }

        let mut stats = PhaseStats::default();
        // AXI bursts issued by the phase's DMA transfers (event counter).
        let mut dma_bursts = 0u64;
        // Input token buffers per (accel, port).
        let mut inbox: HashMap<(usize, String), Vec<i64>> = HashMap::new();
        // Tokens that traversed each stream link during the functional
        // pass, indexed like `self.links` — the cycle simulation replays
        // exactly this traffic over bounded FIFOs.
        let mut link_tokens = vec![0u64; self.links.len()];
        // The phase's timing model: one FIFO per stream link; each DMA
        // transfer adds its endpoint as it completes, the accelerators
        // join after the functional pass.
        let mut phase = CosimPhase::default();
        for _ in &self.links {
            phase.add_fifo(self.stream_fifo_depth as u64);
        }

        // 1. MM2S: each input buffer moves whole from DRAM into the inbox
        // of the accelerator port its link feeds.
        for (dma_idx, desc) in inputs {
            // Find the link leaving this DMA.
            let (link_idx, link) = self
                .links
                .iter()
                .enumerate()
                .find(|(_, l)| l.from == Endpoint::Dma(*dma_idx))
                .map(|(i, l)| (i, l.clone()))
                .ok_or(BoardError::UnknownDma(*dma_idx))?;
            let (accel, port) = match &link.to {
                Endpoint::Accel { accel, port } => (*accel, port.clone()),
                Endpoint::Dma(_) => continue, // DMA->DMA loopback: nothing to compute
            };
            let beat_bytes = self
                .endpoint_bits(&link.to, true)?
                .unwrap_or(32)
                .div_ceil(8);
            let tokens = dma::mm2s(&mut self.dram, *desc, beat_bytes)?;
            let engine = self
                .dmas
                .get(*dma_idx)
                .ok_or(BoardError::UnknownDma(*dma_idx))?;
            let beats = tokens.len() as u64;
            let name = format!("dma{dma_idx}:mm2s");
            stats.bytes_in += desc.len;
            dma_bursts += engine.bursts(beats);
            stats
                .per_stage
                .push((name.clone(), engine.cycles_for(beats)));
            phase.sources.push(SourceSpec {
                name,
                beats,
                bytes_per_beat: beat_bytes as u64,
                setup_cycles: engine.setup_cycles as u64,
                burst_beats: engine.burst_beats as u64,
                burst_overhead: engine.burst_overhead_cycles as u64,
                out_fifo: link_idx,
            });
            link_tokens[link_idx] += beats;
            inbox.entry((accel, port)).or_default().extend(tokens);
        }

        // 2. Fire accelerators in feed-forward order.
        let order = self.topo_order()?;
        // Collect (dma_idx -> tokens,width) for S2MM exits.
        let mut outbox: HashMap<usize, (Vec<i64>, u32)> = HashMap::new();
        for accel_idx in order {
            // Skip accelerators not participating in this phase (no inputs
            // queued and no links at all).
            let participates = self.links.iter().any(|l| {
                matches!(&l.from, Endpoint::Accel { accel, .. } if *accel == accel_idx)
                    || matches!(&l.to, Endpoint::Accel { accel, .. } if *accel == accel_idx)
            });
            if !participates {
                continue;
            }
            let mut bundle = StreamBundle::new();
            // Wire declared input ports.
            let input_ports: Vec<String> = self.accels[accel_idx]
                .kernel
                .stream_inputs()
                .map(|p| p.name.clone())
                .collect();
            for port in &input_ports {
                let fed = self.links.iter().any(|l| {
                    matches!(&l.to, Endpoint::Accel { accel, port: p } if *accel == accel_idx && p == port)
                });
                if !fed {
                    return Err(BoardError::UnconnectedInput {
                        accel: self.accels[accel_idx].kernel.name.clone(),
                        port: port.clone(),
                    });
                }
                let tokens = inbox.remove(&(accel_idx, port.clone())).unwrap_or_default();
                bundle.feed(port, tokens);
            }
            let a = &self.accels[accel_idx];
            let name = a.kernel.name.clone();
            let (_, cycles) = a.invoke(&mut bundle).map_err(|err| BoardError::Exec {
                accel: name.clone(),
                err,
            })?;
            stats.per_stage.push((name, cycles));
            // Distribute outputs along links.
            let out_ports: Vec<String> = self.accels[accel_idx]
                .kernel
                .stream_outputs()
                .map(|p| p.name.clone())
                .collect();
            for port in &out_ports {
                let tokens = bundle.take_output(port).unwrap_or_default();
                let link = self.links.iter().enumerate().find(|(_, l)| {
                    matches!(&l.from, Endpoint::Accel { accel, port: p } if *accel == accel_idx && p == port)
                });
                match link {
                    Some((li, l)) => {
                        link_tokens[li] += tokens.len() as u64;
                        match &l.to {
                            Endpoint::Accel { accel, port } => {
                                inbox
                                    .entry((*accel, port.clone()))
                                    .or_default()
                                    .extend(tokens);
                            }
                            Endpoint::Dma(d) => {
                                let bits = self.accels[accel_idx]
                                    .report
                                    .interface
                                    .stream(port)
                                    .map(|p| p.tdata_bits)
                                    .unwrap_or(32);
                                let e = outbox.entry(*d).or_insert_with(|| (Vec::new(), bits));
                                e.0.extend(tokens);
                            }
                        }
                    }
                    None => { /* dangling output: tokens dropped (warn-level) */ }
                }
            }
        }

        // 3. S2MM: each exit's tokens move whole into their DRAM buffer.
        // The DMA is looked up first, so a phase that fails here has
        // written nothing for this exit.
        for (dma_idx, desc) in outputs {
            let (tokens, bits) = outbox.remove(dma_idx).unwrap_or((Vec::new(), 32));
            if tokens.is_empty() {
                continue;
            }
            let engine = self
                .dmas
                .get(*dma_idx)
                .ok_or(BoardError::UnknownDma(*dma_idx))?;
            let beat_bytes = bits.div_ceil(8);
            let beats = dma::s2mm(&mut self.dram, *desc, beat_bytes, &tokens)?;
            let name = format!("dma{dma_idx}:s2mm");
            stats.bytes_out += beats * beat_bytes as u64;
            dma_bursts += engine.bursts(beats);
            stats
                .per_stage
                .push((name.clone(), engine.cycles_for(beats)));
            let in_fifo = self
                .links
                .iter()
                .position(|l| l.to == Endpoint::Dma(*dma_idx));
            if let Some(in_fifo) = in_fifo {
                phase.sinks.push(SinkSpec {
                    name,
                    beats,
                    bytes_per_beat: beat_bytes as u64,
                    setup_cycles: engine.setup_cycles as u64,
                    burst_beats: engine.burst_beats as u64,
                    burst_overhead: engine.burst_overhead_cycles as u64,
                    in_fifo,
                });
            }
        }

        // 4. Timing: add one stage per participating accelerator and
        // replay the phase's traffic through the co-scheduled
        // bounded-FIFO cycle simulation, the MM2S/S2MM endpoints sharing
        // the HP port's per-cycle byte budget. The memo runs it only for
        // a shape it has not seen.
        for accel_idx in self.topo_order()? {
            let inputs: Vec<StagePort> = self
                .links
                .iter()
                .enumerate()
                .filter(
                    |(_, l)| matches!(&l.to, Endpoint::Accel { accel, .. } if *accel == accel_idx),
                )
                .map(|(li, _)| StagePort {
                    fifo: li,
                    tokens: link_tokens[li],
                })
                .collect();
            let outputs: Vec<StagePort> = self
                .links
                .iter()
                .enumerate()
                .filter(|(_, l)| {
                    matches!(&l.from, Endpoint::Accel { accel, .. } if *accel == accel_idx)
                })
                .map(|(li, _)| StagePort {
                    fifo: li,
                    tokens: link_tokens[li],
                })
                .collect();
            if inputs.is_empty() && outputs.is_empty() {
                continue;
            }
            let a = &self.accels[accel_idx];
            phase.stages.push(StageSpec {
                name: a.kernel.name.clone(),
                startup_cycles: a.startup_cycles,
                ii: a.ii_max(),
                inputs,
                outputs,
            });
        }
        let (r, timing_reused) =
            self.phase_memo
                .run(phase, self.hp_bytes_per_cycle, self.max_sim_cycles);
        if r.capped {
            return Err(BoardError::SimDiverged {
                cycles: r.total_cycles,
            });
        }
        stats.total_cycles = r.total_cycles;
        stats.fill_cycles = r.fill_cycles;
        stats.steady_cycles = r.steady_cycles;
        stats.backpressure_stall_cycles = r.backpressure_stall_cycles;
        stats.starvation_stall_cycles = r.starvation_stall_cycles;
        stats.hp_stall_cycles = r.hp_stall_cycles;
        stats.ns = stats.total_cycles as f64 * PL_CLK_NS;
        self.observer.on_event(&FlowEvent::SimPhaseDone {
            label: format!("phase{}", self.phases_run),
            ns: stats.ns,
            fill_cycles: stats.fill_cycles,
            steady_cycles: stats.steady_cycles,
            bytes_in: stats.bytes_in,
            bytes_out: stats.bytes_out,
            dma_bursts,
            bus_stall_cycles: stats.hp_stall_cycles,
            backpressure_stall_cycles: stats.backpressure_stall_cycles,
            starvation_stall_cycles: stats.starvation_stall_cycles,
            timing_reused,
        });
        self.phases_run += 1;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;
    use accelsoc_observe::CollectObserver;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest};

    fn make_accel(k: accelsoc_kernel::ir::Kernel) -> AccelInstance {
        let r = synthesize_kernel(&k, &HlsOptions::default()).unwrap();
        AccelInstance::new(k, r.report)
    }

    fn adder_kernel() -> accelsoc_kernel::ir::Kernel {
        KernelBuilder::new("ADD")
            .scalar_in("A", Ty::U32)
            .scalar_in("B", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .push(assign("ret", add(var("A"), var("B"))))
            .build()
    }

    fn inc_kernel(name: &str) -> accelsoc_kernel::ir::Kernel {
        KernelBuilder::new(name)
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U8)
            .stream_out("out", Ty::U8)
            .push(for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![write("out", add(read("in"), c(1)))],
            ))
            .build()
    }

    /// A board whose `inc_kernel` stages, one per name, form a single
    /// chain from DMA 0 (MM2S) to DMA 1 (S2MM) over `depth`-deep FIFOs.
    /// Returns the board and the stages' accelerator indices.
    fn chain(names: &[&str], depth: usize) -> (Board, Vec<usize>) {
        let mut b = Board::new(1 << 20);
        b.stream_fifo_depth = depth;
        let stages: Vec<usize> = names
            .iter()
            .map(|n| b.add_accel(make_accel(inc_kernel(n))))
            .collect();
        let din = b.add_dma();
        let dout = b.add_dma();
        let mut from = Endpoint::Dma(din);
        for &accel in &stages {
            let port = |p: &str| Endpoint::Accel {
                accel,
                port: p.into(),
            };
            b.link(from, port("in")).unwrap();
            from = port("out");
        }
        b.link(from, Endpoint::Dma(dout)).unwrap();
        (b, stages)
    }

    /// One phase on a [`chain`]: `len` bytes in from 0x1000 (every
    /// stage's `n` is `len`), into an `out_len`-byte buffer at 0x8000.
    fn run_chain(
        b: &mut Board,
        stages: &[usize],
        len: u64,
        out_len: u64,
    ) -> Result<PhaseStats, BoardError> {
        let args: Vec<(usize, &str, i64)> = stages.iter().map(|&s| (s, "n", len as i64)).collect();
        b.run_stream_phase(
            &[(0, DmaDescriptor { addr: 0x1000, len })],
            &[(
                1,
                DmaDescriptor {
                    addr: 0x8000,
                    len: out_len,
                },
            )],
            &args,
        )
    }

    #[test]
    fn lite_invocation_computes_and_costs_time() {
        let mut b = Board::new(1 << 16);
        let a = b.add_accel(make_accel(adder_kernel()));
        let (outs, ns) = b.invoke_lite(a, &[("A", 40), ("B", 2)]).unwrap();
        assert_eq!(outs["ret"], 42);
        assert!(ns > 0.0);
    }

    #[test]
    fn two_stage_stream_pipeline_end_to_end() {
        let (mut b, stages) = chain(&["S1", "S2"], 16);
        b.dram.load_bytes(0x1000, &[10, 20, 30, 40]).unwrap();
        let stats = run_chain(&mut b, &stages, 4, 4).unwrap();
        assert_eq!(b.dram.dump_bytes(0x8000, 4).unwrap(), vec![12, 22, 32, 42]);
        assert_eq!(stats.bytes_in, 4);
        assert_eq!(stats.bytes_out, 4);
        assert!(stats.ns > 0.0);
        // Pipelined: steady-state is one stage, not the sum.
        let sum: u64 = stats.per_stage.iter().map(|(_, c)| c).sum();
        assert!(stats.steady_cycles < sum);
    }

    #[test]
    fn hp_bandwidth_bounds_steady_state() {
        // A wide pipeline (II = 1) moving lots of bytes: with a crippled
        // HP port, the port — not the compute — sets the phase time.
        let run = |hp_bytes_per_cycle: u64| {
            let (mut b, stages) = chain(&["S1"], 16);
            b.hp_bytes_per_cycle = hp_bytes_per_cycle;
            b.dram.load_bytes(0x1000, &[7; 4096]).unwrap();
            run_chain(&mut b, &stages, 4096, 4096).unwrap()
        };
        let f = run(8);
        let s = run(1); // starved port
        assert!(s.total_cycles > f.total_cycles);
        // 8192 bytes over 1 B/cycle = 8192 cycles lower bound.
        assert!(s.total_cycles >= 8192);
        // The starved port shows up as bus-contention stall cycles.
        assert!(s.hp_stall_cycles > f.hp_stall_cycles);
    }

    #[test]
    fn shallow_fifos_surface_backpressure_stalls() {
        // Same single-stage pipeline twice; the shallow-FIFO board must
        // report strictly more producer stalls and no fewer cycles.
        let run = |depth: usize| {
            let (mut b, stages) = chain(&["S1"], depth);
            b.dram.load_bytes(0x1000, &[9; 2048]).unwrap();
            let stats = run_chain(&mut b, &stages, 2048, 2048).unwrap();
            (stats, b.dram.dump_bytes(0x8000, 4).unwrap())
        };
        let (shallow, out_shallow) = run(1);
        let (deep, out_deep) = run(64);
        // Functional output is identical — capacity only affects timing.
        assert_eq!(out_shallow, out_deep);
        assert_eq!(out_shallow, vec![10, 10, 10, 10]);
        assert!(shallow.backpressure_stall_cycles > deep.backpressure_stall_cycles);
        assert!(shallow.total_cycles >= deep.total_cycles);
        assert!(shallow.backpressure_stall_cycles > 0);
    }

    #[test]
    fn stream_phase_emits_sim_counters() {
        let collect = Arc::new(CollectObserver::new());
        let (mut b, stages) = chain(&["S1"], 16);
        b.set_observer(collect.clone());
        b.dram.load_bytes(0x1000, &[1, 2, 3, 4]).unwrap();
        let stats = run_chain(&mut b, &stages, 4, 4).unwrap();
        let events = collect.events();
        match events.as_slice() {
            [FlowEvent::SimPhaseDone {
                label,
                ns,
                bytes_in,
                bytes_out,
                dma_bursts,
                ..
            }] => {
                assert_eq!(label, "phase0");
                assert_eq!(*ns, stats.ns);
                assert_eq!(*bytes_in, 4);
                assert_eq!(*bytes_out, 4);
                // 4 one-byte beats in + 4 out = one burst each way.
                assert_eq!(*dma_bursts, 2);
            }
            other => panic!("expected one SimPhaseDone, got {other:?}"),
        }
    }

    #[test]
    fn overlong_s2mm_fails_identically_at_every_fifo_depth() {
        // 8 one-byte tokens into a 4-byte S2MM buffer: at every depth the
        // phase fails with the same overrun, before DRAM is written and
        // before the co-simulation runs.
        for depth in [1, 2, 3, 4, 16] {
            let (mut b, stages) = chain(&["S1", "S2"], depth);
            let memo = Arc::new(PhaseMemo::new());
            b.set_phase_memo(memo.clone());
            b.dram.load_bytes(0x1000, &[1; 8]).unwrap();
            let err = run_chain(&mut b, &stages, 8, 4).unwrap_err();
            assert!(
                matches!(
                    err,
                    BoardError::Dma(DmaError::BufferOverrun {
                        got: 5,
                        capacity: 4
                    })
                ),
                "depth {depth}: {err}"
            );
            assert_eq!(
                b.dram.dump_bytes(0x8000, 8).unwrap(),
                [0; 8],
                "depth {depth}"
            );
            assert!(memo.is_empty(), "depth {depth}: timing was simulated");
        }
    }

    proptest! {
        /// A phase's function does not depend on the FIFO depth: on random
        /// input bytes, the two-stage chain at any depth writes the same
        /// bytes and reports the same byte counts, DMA bursts and DMA rows
        /// as at depth 16 — and a one-byte-short S2MM buffer fails the
        /// same way.
        #[test]
        fn phase_function_is_independent_of_fifo_depth(
            data in proptest::collection::vec(any::<u8>(), 2..64),
            depth in 1usize..=32,
        ) {
            let len = data.len() as u64;
            let run = |depth: usize, out_len: u64| {
                let (mut b, stages) = chain(&["S1", "S2"], depth);
                let events = Arc::new(CollectObserver::new());
                b.set_observer(events.clone());
                b.dram.load_bytes(0x1000, &data).unwrap();
                let stats = run_chain(&mut b, &stages, len, out_len).map_err(|e| e.to_string())?;
                let dma_bursts = events.events().iter().find_map(|e| match e {
                    FlowEvent::SimPhaseDone { dma_bursts, .. } => Some(*dma_bursts),
                    _ => None,
                });
                let dma_rows: Vec<(String, u64)> = stats
                    .per_stage
                    .into_iter()
                    .filter(|(name, _)| name.starts_with("dma"))
                    .collect();
                Ok::<_, String>((
                    b.dram.dump_bytes(0x8000, out_len as usize).unwrap(),
                    stats.bytes_in,
                    stats.bytes_out,
                    dma_bursts,
                    dma_rows,
                ))
            };
            let at_16 = run(16, len);
            prop_assert!(at_16.is_ok(), "{at_16:?}");
            prop_assert_eq!(run(depth, len), at_16);
            let short_at_16 = run(16, len - 1);
            prop_assert!(short_at_16.is_err(), "{short_at_16:?}");
            prop_assert_eq!(run(depth, len - 1), short_at_16);
        }
    }

    #[test]
    fn width_mismatch_rejected_at_link_time() {
        let wide = KernelBuilder::new("W")
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U32)
            .stream_out("out", Ty::U32)
            .push(for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![write("out", read("in"))],
            ))
            .build();
        let mut b = Board::new(1 << 12);
        let narrow = b.add_accel(make_accel(inc_kernel("N")));
        let wide = b.add_accel(make_accel(wide));
        let err = b
            .link(
                Endpoint::Accel {
                    accel: narrow,
                    port: "out".into(),
                },
                Endpoint::Accel {
                    accel: wide,
                    port: "in".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, BoardError::WidthMismatch { .. }));
    }

    #[test]
    fn wrong_direction_port_rejected() {
        let mut b = Board::new(1 << 12);
        let a = b.add_accel(make_accel(inc_kernel("A")));
        // Using an input port as a source.
        let err = b
            .link(
                Endpoint::Accel {
                    accel: a,
                    port: "in".into(),
                },
                Endpoint::Dma(0),
            )
            .unwrap_err();
        assert!(matches!(err, BoardError::UnknownPort { .. }));
    }

    #[test]
    fn unconnected_input_detected_at_run_time() {
        let mut b = Board::new(1 << 12);
        let a = b.add_accel(make_accel(inc_kernel("A")));
        let dout = b.add_dma();
        b.link(
            Endpoint::Accel {
                accel: a,
                port: "out".into(),
            },
            Endpoint::Dma(dout),
        )
        .unwrap();
        let err = b
            .run_stream_phase(
                &[],
                &[(dout, DmaDescriptor { addr: 0, len: 4 })],
                &[(a, "n", 0)],
            )
            .unwrap_err();
        assert!(matches!(err, BoardError::UnconnectedInput { .. }));
    }

    #[test]
    fn cyclic_topology_detected() {
        let mut b = Board::new(1 << 12);
        let a1 = b.add_accel(make_accel(inc_kernel("A1")));
        let a2 = b.add_accel(make_accel(inc_kernel("A2")));
        b.link(
            Endpoint::Accel {
                accel: a1,
                port: "out".into(),
            },
            Endpoint::Accel {
                accel: a2,
                port: "in".into(),
            },
        )
        .unwrap();
        b.link(
            Endpoint::Accel {
                accel: a2,
                port: "out".into(),
            },
            Endpoint::Accel {
                accel: a1,
                port: "in".into(),
            },
        )
        .unwrap();
        let err = b.run_stream_phase(&[], &[], &[]).unwrap_err();
        assert!(matches!(err, BoardError::CyclicTopology));
    }
}
