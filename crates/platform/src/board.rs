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
//!   each MM2S DMA reads its whole input buffer ([`dma::mm2s_into`]),
//!   the cores fire in feed-forward order, and each S2MM DMA writes its
//!   whole output buffer back ([`dma::s2mm_via`]). Timing uses a steady-state
//!   pipeline model: transfers and computation overlap, so the makespan
//!   is the pipeline fill plus the *slowest* stage, not the sum of stages.
//!   It is the one-board case of [`Board::run_stream_phases`], which runs
//!   a phase on a group of twin boards at once: each core fires as one
//!   lane-VM batch over the boards whose inputs have the same length.
//!
//! A streaming phase's function runs every time; its timing comes from
//! the board's [`PhaseMemo`], which simulates each distinct phase shape
//! once ([`crate::cosim`]) from the phase's token counts alone.
//! [`Board::new`] gives a board a private memo; a flow engine shares one
//! memo across every board it builds ([`Board::set_phase_memo`]). Board
//! DRAM is paged ([`Dram`]), so a board costs only the pages its phases
//! touch. A board resolves its topology's [`PhasePlan`] once and keeps
//! its phase buffers, and [`Board::reset`] makes it equal to a newly
//! built board, so a runner can reuse one board for image after image.

use crate::accel::AccelInstance;
use crate::cosim::{CosimPhase, PhaseMemo, PhaseShape, SinkSpec, SourceSpec, StagePort, StageSpec};
use crate::cpu::Cpu;
use crate::memory::Dram;
use crate::PL_CLK_NS;
use accelsoc_axi::dma::{self, DmaDescriptor, DmaEngine, DmaError};
use accelsoc_kernel::interp::{ExecError, StreamBundle};
use accelsoc_observe::{null_observer, FlowEvent, SharedObserver};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One endpoint of a stream link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A DMA engine channel (the DSL's `'soc`).
    Dma(usize),
    /// An accelerator port.
    Accel { accel: usize, port: String },
}

/// A point-to-point AXI-Stream link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamLink {
    pub from: Endpoint,
    pub to: Endpoint,
}

#[derive(Debug, Clone)]
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
    /// Board `board` of a phase group differs from board 0 in its stream
    /// links or its accelerators' kernels, reports or execution units,
    /// so it cannot share the group's routing and batches.
    GroupMismatch {
        board: usize,
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
            BoardError::GroupMismatch { board } => write!(
                f,
                "board {board} of a phase group is not a twin of board 0 \
                 (its stream links or accelerators differ)"
            ),
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
    /// Per-stage busy cycles: (stage name, cycles). The names are the
    /// board's [`PhasePlan`]'s, shared by every phase it runs.
    pub per_stage: Vec<(Arc<str>, u64)>,
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
    /// The plan of this board's last streaming phase, shared with the
    /// twins it ran beside; re-resolved when the board no longer fits it.
    plan: Option<Arc<PhasePlan>>,
    /// Token buffers and counters of the phase in flight, kept from
    /// phase to phase so that a phase allocates no buffers.
    scratch: PhaseScratch,
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
            plan: None,
            scratch: PhaseScratch::default(),
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

    /// Return the board's state to that of a board just built with the
    /// same topology: every DRAM byte reads 0 again (zeroed in place, so
    /// its pages stay allocated), the CPU has no busy time, every
    /// accelerator's argument registers are empty and the phase count,
    /// which labels the phase events, restarts at 0. The topology, the
    /// knobs, the observer, the phase memo, the phase plan and the
    /// phase buffers are kept, so a reset board runs its next image
    /// exactly like a new board without building one.
    pub fn reset(&mut self) {
        self.dram.zero();
        self.cpu.busy_ns = 0.0;
        self.accels.iter_mut().for_each(AccelInstance::clear_args);
        self.phases_run = 0;
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

    /// This board's phase plan: the one it last ran, while the board
    /// still fits it, else the one its phase memo holds for the board's
    /// topology ([`PhaseMemo::plan_for`]).
    fn plan(&mut self) -> Arc<PhasePlan> {
        match &self.plan {
            Some(plan) if plan.fits(self) => Arc::clone(plan),
            _ => {
                let plan = self.phase_memo.plan_for(self);
                self.plan = Some(Arc::clone(&plan));
                plan
            }
        }
    }

    /// Take `plan` as this board's plan if the board fits it (it is a
    /// twin of the board the plan was resolved from).
    fn adopt(&mut self, plan: &Arc<PhasePlan>) -> bool {
        if !plan.fits(self) {
            return false;
        }
        if !self.plan.as_ref().is_some_and(|p| Arc::ptr_eq(p, plan)) {
            self.plan = Some(Arc::clone(plan));
        }
        true
    }

    /// Execute a streaming phase: a group of one board
    /// ([`Board::run_stream_phases`]).
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
        let args = PhaseArgs {
            inputs,
            outputs,
            scalar_args,
        };
        Board::run_stream_phases(&mut [self], &[args])
            .pop()
            .expect("one board, one result")
    }

    /// Execute one streaming phase on each board of a group, board `b`
    /// with `args[b]`. The boards are twins — one flow engine built them
    /// from one flow run with one FIFO depth, so they share links, DMA
    /// engines and their timing parameters, FIFO depth, and each
    /// accelerator's kernel, report, execution unit and startup cycles
    /// ([`PhasePlan::fits`]) — and run together:
    ///
    /// 1. board 0's [`PhasePlan`] (its routing, names and timing shapes,
    ///    taken from its phase memo when the board first runs a phase)
    ///    becomes every twin's;
    /// 2. each board's MM2S transfers move its input buffers whole from
    ///    its DRAM;
    /// 3. each accelerator fires once per distinct input length, as one
    ///    lane-VM batch over the boards whose inputs have that length
    ///    ([`AccelInstance::invoke_batch`]);
    /// 4. each board's S2MM transfers write its output buffers whole,
    ///    its timing comes from its phase memo, and it reports its
    ///    [`FlowEvent::SimPhaseDone`] — in board order.
    ///
    /// Result `b` equals what `boards[b].run_stream_phase` would return
    /// on `args[b]` alone, with the same DRAM effects and events. A
    /// board that fails stops there (it fires no later accelerator)
    /// while the others run on. A board that is not a twin of board 0
    /// fails with [`BoardError::GroupMismatch`] and runs nothing; that
    /// includes a board that differs from board 0 in timing alone (its
    /// FIFO depth, a DMA engine's parameters or an accelerator's startup
    /// cycles), since the group's phases share board 0's timing shapes.
    /// Run such a board in a group of its own.
    ///
    /// The boards keep their token buffers from phase to phase, so a
    /// group of boards that has run a phase before allocates no token
    /// buffer for the next one.
    pub fn run_stream_phases(
        boards: &mut [&mut Board],
        args: &[PhaseArgs],
    ) -> Vec<Result<PhaseStats, BoardError>> {
        assert_eq!(boards.len(), args.len(), "one PhaseArgs per board");
        let Some(first) = boards.first_mut() else {
            return Vec::new();
        };
        let plan = first.plan();
        let mut live: Vec<Result<(), BoardError>> = boards
            .iter_mut()
            .zip(args)
            .enumerate()
            .map(|(b, (board, args))| {
                if board.adopt(&plan) {
                    board.begin_phase(&plan, args)
                } else {
                    Err(BoardError::GroupMismatch { board: b })
                }
            })
            .collect();
        let order = match &plan.order {
            Ok(order) => order.as_slice(),
            Err(e) => {
                fail_live(&mut live, e);
                &[]
            }
        };
        for stage in order {
            fire(boards, &mut live, stage);
        }
        boards
            .iter_mut()
            .zip(args)
            .zip(live)
            .map(|((board, args), live)| live.and_then(|()| board.end_phase(&plan, order, args)))
            .collect()
    }

    /// A phase's first half on this board: set the scalar arguments and
    /// move each MM2S input buffer from DRAM into the inbox its link
    /// feeds.
    fn begin_phase(&mut self, plan: &PhasePlan, args: &PhaseArgs) -> Result<(), BoardError> {
        for (accel, name, v) in args.scalar_args {
            let a = self
                .accels
                .get_mut(*accel)
                .ok_or(BoardError::UnknownAccel(*accel))?;
            a.set_arg(name, *v);
        }
        let stages = plan.order.as_ref().map_or(0, Vec::len);
        let sc = &mut self.scratch;
        sc.begin(plan, args.inputs.len() + stages + args.outputs.len());
        for (dma_idx, desc) in args.inputs {
            let entry = plan
                .mm2s
                .get(*dma_idx)
                .and_then(Option::as_ref)
                .ok_or(BoardError::UnknownDma(*dma_idx))?;
            // A DMA->DMA loopback has nothing to compute.
            let Some((inbox, beat_bytes)) = entry.feed.clone()? else {
                continue;
            };
            let inbox = &mut sc.inboxes[inbox];
            let queued = inbox.len();
            dma::mm2s_into(&mut self.dram, *desc, beat_bytes, &mut sc.bytes, inbox)?;
            let beats = (inbox.len() - queued) as u64;
            let engine = self
                .dmas
                .get(*dma_idx)
                .ok_or(BoardError::UnknownDma(*dma_idx))?;
            sc.bytes_in += desc.len;
            sc.dma_bursts += engine.bursts(beats);
            let name = Arc::clone(&plan.dma_names[*dma_idx].0);
            sc.per_stage.push((name, engine.cycles_for(beats)));
            sc.shape_key.push(*dma_idx as u64);
            sc.counts.push(beats);
            sc.link_tokens[entry.link] += beats;
        }
        Ok(())
    }

    /// A phase's second half on this board: move each S2MM exit's
    /// tokens whole into their DRAM buffer, take the phase's timing from
    /// the memo and report it.
    fn end_phase(
        &mut self,
        plan: &PhasePlan,
        order: &[StageRoute],
        args: &PhaseArgs,
    ) -> Result<PhaseStats, BoardError> {
        let sc = &mut self.scratch;
        // The DMA is looked up first, so a phase that fails here has
        // written nothing for this exit, whether or not it has tokens.
        for (dma_idx, desc) in args.outputs {
            let engine = self
                .dmas
                .get(*dma_idx)
                .ok_or(BoardError::UnknownDma(*dma_idx))?;
            let Some((tokens, Some(bits))) = sc.outboxes.get_mut(*dma_idx) else {
                continue;
            };
            if tokens.is_empty() {
                continue;
            }
            let beat_bytes = bits.div_ceil(8);
            let beats = dma::s2mm_via(&mut self.dram, *desc, beat_bytes, tokens, &mut sc.bytes)?;
            // The exit's tokens are written: a second transfer on the
            // same DMA finds none.
            tokens.clear();
            sc.bytes_out += beats * beat_bytes as u64;
            sc.dma_bursts += engine.bursts(beats);
            let name = Arc::clone(&plan.dma_names[*dma_idx].1);
            sc.per_stage.push((name, engine.cycles_for(beats)));
            if let Some(Some(_)) = plan.s2mm.get(*dma_idx) {
                sc.sinks.push((*dma_idx as u64, beat_bytes as u64, beats));
            }
        }

        // Timing: one stage per participating accelerator, then replay
        // the phase's traffic through the co-scheduled bounded-FIFO
        // cycle simulation, the MM2S/S2MM endpoints sharing the HP
        // port's per-cycle byte budget. The memo runs it only for a
        // shape and token counts it has not seen.
        sc.shape_key.push(SINKS);
        for stage in order {
            let ports = stage.in_links.iter().chain(&stage.out_links);
            sc.counts.extend(ports.map(|&fifo| sc.link_tokens[fifo]));
        }
        for &(dma, beat_bytes, beats) in &sc.sinks {
            sc.shape_key.extend([dma, beat_bytes]);
            sc.counts.push(beats);
        }
        let shape = plan.shape(&sc.shape_key);
        let (r, timing_reused) = self.phase_memo.run_shaped(
            &shape,
            &sc.counts,
            self.hp_bytes_per_cycle,
            self.max_sim_cycles,
        );
        if r.capped {
            return Err(BoardError::SimDiverged {
                cycles: r.total_cycles,
            });
        }
        let stats = PhaseStats {
            ns: r.total_cycles as f64 * PL_CLK_NS,
            total_cycles: r.total_cycles,
            fill_cycles: r.fill_cycles,
            steady_cycles: r.steady_cycles,
            backpressure_stall_cycles: r.backpressure_stall_cycles,
            starvation_stall_cycles: r.starvation_stall_cycles,
            hp_stall_cycles: r.hp_stall_cycles,
            per_stage: std::mem::take(&mut sc.per_stage),
            bytes_in: sc.bytes_in,
            bytes_out: sc.bytes_out,
        };
        self.observer.on_event(&FlowEvent::SimPhaseDone {
            label: format!("phase{}", self.phases_run),
            ns: stats.ns,
            fill_cycles: stats.fill_cycles,
            steady_cycles: stats.steady_cycles,
            bytes_in: stats.bytes_in,
            bytes_out: stats.bytes_out,
            dma_bursts: sc.dma_bursts,
            bus_stall_cycles: stats.hp_stall_cycles,
            backpressure_stall_cycles: stats.backpressure_stall_cycles,
            starvation_stall_cycles: stats.starvation_stall_cycles,
            timing_reused,
        });
        self.phases_run += 1;
        Ok(stats)
    }
}

/// One board's arguments to a streaming phase
/// ([`Board::run_stream_phases`]).
#[derive(Debug, Clone, Copy)]
pub struct PhaseArgs<'a> {
    /// For each MM2S entry point: (DMA index, source descriptor).
    pub inputs: &'a [(usize, DmaDescriptor)],
    /// For each S2MM exit: (DMA index, destination descriptor).
    pub outputs: &'a [(usize, DmaDescriptor)],
    /// Per-accelerator scalar arguments: (accelerator, name, value).
    pub scalar_args: &'a [(usize, &'a str, i64)],
}

/// Where the tokens an accelerator output port writes land.
#[derive(Debug, Clone, Copy)]
enum Dest {
    /// An accelerator input's inbox.
    Inbox(usize),
    /// An S2MM exit's outbox, with the width of the port feeding it.
    Dma { dma: usize, bits: u32 },
}

/// The first stream link leaving a DMA engine (an MM2S entry).
#[derive(Debug)]
struct Mm2sRoute {
    link: usize,
    /// The inbox it feeds and the beat width in bytes; `None` for a
    /// DMA->DMA loopback.
    feed: Result<Option<(usize, u32)>, BoardError>,
}

/// One participating accelerator, in firing order.
#[derive(Debug)]
struct StageRoute {
    accel: usize,
    /// Kernel name.
    name: Arc<str>,
    /// Worst II of its pipelined loops.
    ii: u64,
    /// Its declared stream inputs, each with the inbox that feeds it, or
    /// the error for the first input no link feeds.
    inputs: Result<Vec<(String, usize)>, BoardError>,
    /// Its declared stream outputs, each with the first link it drives
    /// and where that link's tokens land (`None`: dangling, dropped).
    outputs: Vec<(String, Option<(usize, Dest)>)>,
    /// Links into and out of it, in link order: its timing ports.
    in_links: Vec<usize>,
    out_links: Vec<usize>,
}

impl StageRoute {
    /// Accelerator `idx`'s route on `board`, or `None` when no link
    /// touches it (it does not take part in the phase). `inbox` maps an
    /// (accelerator, port) a link feeds to its inbox.
    fn resolve(
        board: &Board,
        idx: usize,
        inbox: &dyn Fn(usize, &str) -> Option<usize>,
    ) -> Option<StageRoute> {
        let links = &board.links;
        let here = |ep: &Endpoint| matches!(ep, Endpoint::Accel { accel, .. } if *accel == idx);
        let in_links: Vec<usize> = (0..links.len()).filter(|&li| here(&links[li].to)).collect();
        let out_links: Vec<usize> = (0..links.len())
            .filter(|&li| here(&links[li].from))
            .collect();
        if in_links.is_empty() && out_links.is_empty() {
            return None;
        }
        let a = &board.accels[idx];
        let name = &a.kernel.name;
        let inputs = a
            .kernel
            .stream_inputs()
            .map(|p| match inbox(idx, &p.name) {
                Some(i) => Ok((p.name.clone(), i)),
                None => Err(BoardError::UnconnectedInput {
                    accel: name.clone(),
                    port: p.name.clone(),
                }),
            })
            .collect();
        let outputs = a
            .kernel
            .stream_outputs()
            .map(|p| {
                let from_port = |li: &usize| {
                    matches!(&links[*li].from, Endpoint::Accel { port, .. } if *port == p.name)
                };
                let dest = out_links.iter().find(|li| from_port(li)).map(|&li| {
                    let dest = match &links[li].to {
                        Endpoint::Accel { accel, port } => {
                            Dest::Inbox(inbox(*accel, port).expect("every link end has an inbox"))
                        }
                        Endpoint::Dma(dma) => {
                            let port = a.report.interface.stream(&p.name);
                            let bits = port.map_or(32, |s| s.tdata_bits);
                            Dest::Dma { dma: *dma, bits }
                        }
                    };
                    (li, dest)
                });
                (p.name.clone(), dest)
            })
            .collect();
        Some(StageRoute {
            accel: idx,
            name: name.as_str().into(),
            ii: a.ii_max(),
            inputs,
            outputs,
            in_links,
            out_links,
        })
    }
}

/// A streaming phase's plan on one board topology, resolved once from a
/// board and shared by every twin that fits it ([`Board::run_stream_phases`]):
/// the routing, the stage and DMA channel names, and the timing shapes
/// its phases have run. The token flow depends only on the links and
/// the accelerators' kernels and reports, and the timing shape only on
/// those, the DMA engines, the accelerators' startup cycles and the FIFO
/// depth — the board state [`PhasePlan::fits`] compares.
#[derive(Debug)]
pub struct PhasePlan {
    links: Vec<StreamLink>,
    accels: Vec<AccelInstance>,
    dmas: Vec<DmaEngine>,
    stream_fifo_depth: usize,
    /// By DMA index: the first link leaving that DMA.
    mm2s: Vec<Option<Mm2sRoute>>,
    /// By DMA index: the first link entering that DMA.
    s2mm: Vec<Option<usize>>,
    /// Accelerator input ports that some link feeds.
    inboxes: usize,
    /// Participating accelerators in feed-forward order.
    order: Result<Vec<StageRoute>, BoardError>,
    /// By DMA engine: its MM2S and S2MM channel names.
    dma_names: Vec<(Arc<str>, Arc<str>)>,
    /// The timing shapes of the plan's phases so far, each under the
    /// shape key that names it (see [`PhasePlan::shape`]).
    shapes: Mutex<Vec<KeyedShape>>,
}

/// A timing shape under the shape key that names it.
type KeyedShape = (Box<[u64]>, Arc<PhaseShape>);

/// Separates a shape key's MM2S part from its S2MM part.
const SINKS: u64 = u64::MAX;

impl PhasePlan {
    pub(crate) fn resolve(board: &Board) -> PhasePlan {
        let links = &board.links;
        // One inbox per (accelerator, port) some link feeds.
        let mut inbox_ports: Vec<(usize, &str)> = Vec::new();
        for l in links {
            if let Endpoint::Accel { accel, port } = &l.to {
                if !inbox_ports.contains(&(*accel, port.as_str())) {
                    inbox_ports.push((*accel, port));
                }
            }
        }
        let inbox = |accel: usize, port: &str| inbox_ports.iter().position(|&p| p == (accel, port));
        // By DMA index: the first link with that DMA at the `end` side.
        let first_link_at = |end: fn(&StreamLink) -> &Endpoint| {
            let mut by_dma: Vec<Option<usize>> = Vec::new();
            for (li, l) in links.iter().enumerate() {
                if let Endpoint::Dma(d) = *end(l) {
                    if by_dma.len() <= d {
                        by_dma.resize(d + 1, None);
                    }
                    by_dma[d].get_or_insert(li);
                }
            }
            by_dma
        };
        let mm2s = first_link_at(|l| &l.from)
            .into_iter()
            .map(|link| {
                link.map(|li| Mm2sRoute {
                    link: li,
                    feed: match &links[li].to {
                        Endpoint::Dma(_) => Ok(None),
                        to @ Endpoint::Accel { accel, port } => {
                            board.endpoint_bits(to, true).map(|bits| {
                                let inbox =
                                    inbox(*accel, port).expect("every link end has an inbox");
                                Some((inbox, bits.unwrap_or(32).div_ceil(8)))
                            })
                        }
                    },
                })
            })
            .collect();
        let s2mm = first_link_at(|l| &l.to);
        let order = board.topo_order().map(|order| {
            order
                .into_iter()
                .filter_map(|idx| StageRoute::resolve(board, idx, &inbox))
                .collect()
        });
        let dma_names = (0..board.dmas.len())
            .map(|d| (format!("dma{d}:mm2s").into(), format!("dma{d}:s2mm").into()))
            .collect();
        PhasePlan {
            links: links.clone(),
            accels: board.accels.clone(),
            dmas: board.dmas.clone(),
            stream_fifo_depth: board.stream_fifo_depth,
            mm2s,
            s2mm,
            inboxes: inbox_ports.len(),
            order,
            dma_names,
            shapes: Mutex::new(Vec::new()),
        }
    }

    /// Whether `board` can run this plan: the same links, DMA engines
    /// and FIFO depth, and accelerators on the same kernels, reports and
    /// execution units ([`AccelInstance::is_twin`]) with the same
    /// startup cycles.
    pub fn fits(&self, board: &Board) -> bool {
        self.links == board.links
            && self.stream_fifo_depth == board.stream_fifo_depth
            && self.dmas == board.dmas
            && self.accels.len() == board.accels.len()
            && self
                .accels
                .iter()
                .zip(&board.accels)
                .all(|(a, b)| a.is_twin(b) && a.startup_cycles == b.startup_cycles)
    }

    /// The timing shape of a phase of this plan whose transfers are
    /// named by `key`: the DMA index of each MM2S transfer that fed an
    /// accelerator, in order, then [`SINKS`], then (DMA index, beat
    /// bytes) of each S2MM transfer that drains a link. Built on the
    /// first request for a key and shared from then on.
    fn shape(&self, key: &[u64]) -> Arc<PhaseShape> {
        let mut shapes = self.shapes.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, shape)) = shapes.iter().find(|(k, _)| **k == *key) {
            return Arc::clone(shape);
        }
        let shape = Arc::new(PhaseShape::new(self.phase_of(key)));
        shapes.push((key.into(), Arc::clone(&shape)));
        shape
    }

    /// The co-simulation input of a phase named by `key` (see
    /// [`PhasePlan::shape`]), its token counts all zero: one FIFO per
    /// stream link, an endpoint per transfer and a stage per
    /// participating accelerator.
    fn phase_of(&self, key: &[u64]) -> CosimPhase {
        let mut phase = CosimPhase::default();
        for _ in &self.links {
            phase.add_fifo(self.stream_fifo_depth as u64);
        }
        let split = key.iter().position(|&w| w == SINKS).unwrap_or(key.len());
        let (sources, sinks) = key.split_at(split);
        for &dma in sources {
            let dma = dma as usize;
            let engine = &self.dmas[dma];
            let route = self.mm2s[dma].as_ref().expect("a fed MM2S has a route");
            let (_, beat_bytes) = route
                .feed
                .clone()
                .ok()
                .flatten()
                .expect("it feeds an inbox");
            phase.sources.push(SourceSpec {
                name: self.dma_names[dma].0.to_string(),
                beats: 0,
                bytes_per_beat: beat_bytes as u64,
                setup_cycles: engine.setup_cycles as u64,
                burst_beats: engine.burst_beats as u64,
                burst_overhead: engine.burst_overhead_cycles as u64,
                out_fifo: route.link,
            });
        }
        let port = |&fifo: &usize| StagePort { fifo, tokens: 0 };
        for stage in self.order.iter().flatten() {
            phase.stages.push(StageSpec {
                name: stage.name.to_string(),
                startup_cycles: self.accels[stage.accel].startup_cycles,
                ii: stage.ii,
                inputs: stage.in_links.iter().map(port).collect(),
                outputs: stage.out_links.iter().map(port).collect(),
            });
        }
        for pair in sinks.get(1..).unwrap_or_default().chunks_exact(2) {
            let (dma, beat_bytes) = (pair[0] as usize, pair[1]);
            let engine = &self.dmas[dma];
            phase.sinks.push(SinkSpec {
                name: self.dma_names[dma].1.to_string(),
                beats: 0,
                bytes_per_beat: beat_bytes,
                setup_cycles: engine.setup_cycles as u64,
                burst_beats: engine.burst_beats as u64,
                burst_overhead: engine.burst_overhead_cycles as u64,
                in_fifo: self.s2mm[dma].expect("a drained S2MM has a route"),
            });
        }
        phase
    }
}

/// One board's tokens and counters of the phase in flight, between its
/// halves ([`Board::begin_phase`], [`fire`], [`Board::end_phase`]). The
/// board keeps it, so every buffer in it is reused by the next phase.
#[derive(Debug, Default)]
struct PhaseScratch {
    /// The phase's rows of [`PhaseStats::per_stage`].
    per_stage: Vec<(Arc<str>, u64)>,
    bytes_in: u64,
    bytes_out: u64,
    /// AXI bursts issued by the phase's DMA transfers (event counter).
    dma_bursts: u64,
    /// Tokens that crossed each stream link, indexed like the board's
    /// links: the cycle simulation replays exactly this traffic.
    link_tokens: Vec<u64>,
    /// Tokens waiting at each accelerator input (the plan's inboxes).
    inboxes: Vec<Vec<i64>>,
    /// By DMA index: the tokens bound for that S2MM exit and, once an
    /// accelerator output delivered to it, the width of that port.
    outboxes: Vec<(Vec<i64>, Option<u32>)>,
    /// The stream bundle each accelerator of the phase fires on.
    bundle: StreamBundle,
    /// DMA bytes between DRAM and tokens.
    bytes: Vec<u8>,
    /// The phase's shape key ([`PhasePlan::shape`]) and token counts
    /// ([`PhaseShape::counts`] order).
    shape_key: Vec<u64>,
    counts: Vec<u64>,
    /// Each S2MM transfer that drains a link: (DMA, beat bytes, beats).
    sinks: Vec<(u64, u64, u64)>,
}

impl PhaseScratch {
    /// Empty every buffer and counter for a phase of `plan` that
    /// records `rows` rows of per-stage cycles.
    fn begin(&mut self, plan: &PhasePlan, rows: usize) {
        self.per_stage = Vec::with_capacity(rows);
        self.bytes_in = 0;
        self.bytes_out = 0;
        self.dma_bursts = 0;
        self.link_tokens.clear();
        self.link_tokens.resize(plan.links.len(), 0);
        self.inboxes.resize_with(plan.inboxes, Vec::new);
        self.inboxes.iter_mut().for_each(Vec::clear);
        self.outboxes.resize_with(plan.s2mm.len(), Default::default);
        for (tokens, bits) in &mut self.outboxes {
            tokens.clear();
            *bits = None;
        }
        self.shape_key.clear();
        self.counts.clear();
        self.sinks.clear();
    }

    /// Record `stage`'s firing and move its outputs along their links.
    fn deliver(&mut self, stage: &StageRoute, cycles: u64, bundle: &mut StreamBundle) {
        self.per_stage.push((Arc::clone(&stage.name), cycles));
        for (port, link) in &stage.outputs {
            // A dangling output's tokens are dropped.
            let Some((li, dest)) = *link else {
                continue;
            };
            let moved = match dest {
                Dest::Inbox(i) => bundle.take_output_into(port, &mut self.inboxes[i]),
                Dest::Dma { dma, bits: b } => {
                    let (buf, bits) = &mut self.outboxes[dma];
                    bits.get_or_insert(b);
                    bundle.take_output_into(port, buf)
                }
            };
            self.link_tokens[li] += moved as u64;
        }
    }
}

/// Fail every board still running with `err`.
fn fail_live(live: &mut [Result<(), BoardError>], err: &BoardError) {
    for l in live.iter_mut().filter(|l| l.is_ok()) {
        *l = Err(err.clone());
    }
}

/// Fire `stage` on every live board: one lane-VM batch per distinct
/// input length, boards in order within each batch.
fn fire(boards: &mut [&mut Board], live: &mut [Result<(), BoardError>], stage: &StageRoute) {
    let ports = match &stage.inputs {
        Ok(ports) => ports,
        Err(e) => return fail_live(live, e),
    };
    let mut pending: Vec<usize> = Vec::with_capacity(boards.len());
    for (b, board) in boards.iter_mut().enumerate() {
        if live[b].is_err() {
            continue;
        }
        let sc = &mut board.scratch;
        sc.bundle.clear();
        for (port, inbox) in ports {
            sc.bundle.feed_from(port, &mut sc.inboxes[*inbox]);
        }
        pending.push(b);
    }
    while let Some(&head) = pending.first() {
        let len = boards[head].scratch.bundle.input_tokens();
        let members: Vec<usize> = pending
            .iter()
            .copied()
            .filter(|&b| boards[b].scratch.bundle.input_tokens() == len)
            .collect();
        pending.retain(|b| !members.contains(b));
        let mut streams: Vec<StreamBundle> = members
            .iter()
            .map(|&b| std::mem::take(&mut boards[b].scratch.bundle))
            .collect();
        let accels: Vec<&AccelInstance> = members
            .iter()
            .map(|&b| &boards[b].accels[stage.accel])
            .collect();
        let results = AccelInstance::invoke_batch(&accels, &mut streams);
        for ((b, res), mut bundle) in members.into_iter().zip(results).zip(streams) {
            let sc = &mut boards[b].scratch;
            match res {
                Ok((_, cycles)) => sc.deliver(stage, cycles, &mut bundle),
                Err(err) => {
                    live[b] = Err(BoardError::Exec {
                        accel: stage.name.to_string(),
                        err,
                    })
                }
            }
            sc.bundle = bundle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;
    use accelsoc_observe::CollectObserver;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

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
                let dma_rows: Vec<(Arc<str>, u64)> = stats
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

    /// `k` twins of `template`: each copies its links and clones its
    /// accelerators, so they share its kernels, reports and execution
    /// units. Each twin reports its phases to its own observer (returned
    /// beside it), and a phase whose co-sim cannot drain diverges within
    /// a short cycle cap.
    fn twins(template: &Board, k: usize) -> Vec<(Board, Arc<CollectObserver>)> {
        (0..k)
            .map(|_| {
                let mut b = Board::new(1 << 20);
                b.stream_fifo_depth = template.stream_fifo_depth;
                b.max_sim_cycles = 10_000;
                for a in &template.accels {
                    b.add_accel(a.clone());
                }
                for _ in &template.dmas {
                    b.add_dma();
                }
                b.links = template.links.clone();
                let events = Arc::new(CollectObserver::new());
                b.set_observer(events.clone());
                (b, events)
            })
            .collect()
    }

    /// One DMA transfer of a phase.
    type OneDma = [(usize, DmaDescriptor); 1];

    /// One lane of a group phase on a [`chain`] twin: its input bytes at
    /// 0x1000 and a fault to inject.
    fn lane_args(data: &[u8], fault: u8) -> (OneDma, OneDma, u64) {
        let len = data.len() as u64;
        let (in_dma, out_dma, out_len, n) = match fault {
            // An S2MM buffer one byte short: `BufferOverrun` (or a
            // zero-length transfer) after both stages fired.
            1 => (0, 1, len - 1, len),
            // `n` past the input: the first stage underflows.
            2 => (0, 1, len, len + 1),
            // An MM2S or S2MM engine the board does not have.
            3 => (5, 1, len, len),
            4 => (0, 7, len, len),
            _ => (0, 1, len, len),
        };
        (
            [(in_dma, DmaDescriptor { addr: 0x1000, len })],
            [(
                out_dma,
                DmaDescriptor {
                    addr: 0x8000,
                    len: out_len,
                },
            )],
            n,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A group phase over K twin boards gives each board exactly what
        /// a solo phase on a fresh twin gives it: the same result, the
        /// same DRAM output and the same `SimPhaseDone` events — with
        /// random inputs of random, often equal, lengths (so the
        /// accelerators fire as one or several batches) and some lanes
        /// made to fail at MM2S, in an accelerator or at S2MM. Each
        /// lane's outcome is also checked against its fault directly.
        #[test]
        fn group_phase_equals_solo_phases(
            lanes in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..6), 0u8..8),
                0..=4,
            ),
        ) {
            let args: Vec<_> = lanes.iter().map(|(data, fault)| lane_args(data, *fault)).collect();
            let scalars: Vec<Vec<(usize, &str, i64)>> = args
                .iter()
                .map(|(_, _, n)| vec![(0, "n", *n as i64), (1, "n", *n as i64)])
                .collect();
            let phase_args: Vec<PhaseArgs> = args
                .iter()
                .zip(&scalars)
                .map(|((ins, outs, _), scalar_args)| PhaseArgs {
                    inputs: ins,
                    outputs: outs,
                    scalar_args,
                })
                .collect();
            let load = |b: &mut Board, data: &[u8]| b.dram.load_bytes(0x1000, data).unwrap();

            let (template, _) = chain(&["S1", "S2"], 4);
            let mut group = twins(&template, lanes.len());
            for ((b, _), (data, _)) in group.iter_mut().zip(&lanes) {
                load(b, data);
            }
            let mut boards: Vec<&mut Board> = group.iter_mut().map(|(b, _)| b).collect();
            let results = Board::run_stream_phases(&mut boards, &phase_args);
            prop_assert_eq!(results.len(), lanes.len());

            for (l, ((data, fault), a)) in lanes.iter().zip(&phase_args).enumerate() {
                let (board, events) = &group[l];
                let out = board.dram.dump_bytes(0x8000, data.len()).unwrap();
                let as_faulted = match (fault, &results[l]) {
                    (1, Err(BoardError::Dma(_)))
                    | (3, Err(BoardError::UnknownDma(5)))
                    | (4, Err(BoardError::UnknownDma(7))) => true,
                    (2, Err(BoardError::Exec { accel, .. })) => accel == "S1",
                    (0 | 5.., Ok(_)) => out.iter().zip(data).all(|(o, d)| *o == d.wrapping_add(2)),
                    _ => false,
                };
                prop_assert!(as_faulted, "lane {} fault {}: {:?}", l, fault, results[l]);

                let (mut solo, solo_events) = twins(&template, 1).pop().unwrap();
                load(&mut solo, data);
                let expect = solo.run_stream_phase(a.inputs, a.outputs, a.scalar_args);
                prop_assert_eq!(format!("{:?}", results[l]), format!("{expect:?}"), "lane {}", l);
                prop_assert_eq!(
                    board.dram.dump_bytes(0x8000, 16).unwrap(),
                    solo.dram.dump_bytes(0x8000, 16).unwrap(),
                    "lane {}", l
                );
                prop_assert_eq!(events.events(), solo_events.events(), "lane {}", l);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// A sequence of group phases on twins that are reset before each
        /// phase (keeping their plan and buffers) gives what each phase
        /// gives on new twins: the same results (`PhaseStats` with their
        /// per-stage rows, or errors), DRAM contents and `SimPhaseDone`
        /// events, while lanes fail at MM2S, in an accelerator or at
        /// S2MM along the way. Each side's boards share one phase memo
        /// across the sequence, as a flow engine's boards do.
        #[test]
        fn reset_boards_run_phase_sequences_like_new_ones(
            phases in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(any::<u8>(), 1..6), 0u8..8),
                    1..=4,
                ),
                1..=4,
            ),
        ) {
            let (template, _) = chain(&["S1", "S2"], 4);
            let memos = [Arc::new(PhaseMemo::new()), Arc::new(PhaseMemo::new())];
            let mut reused = twins(&template, 4);
            for (b, _) in &mut reused {
                b.set_phase_memo(memos[0].clone());
            }
            for (p, lanes) in phases.iter().enumerate() {
                let args: Vec<_> = lanes.iter().map(|(data, fault)| lane_args(data, *fault)).collect();
                let scalars: Vec<Vec<(usize, &str, i64)>> = args
                    .iter()
                    .map(|(_, _, n)| vec![(0, "n", *n as i64), (1, "n", *n as i64)])
                    .collect();
                let phase_args: Vec<PhaseArgs> = args
                    .iter()
                    .zip(&scalars)
                    .map(|((ins, outs, _), scalar_args)| PhaseArgs {
                        inputs: ins,
                        outputs: outs,
                        scalar_args,
                    })
                    .collect();
                let mut fresh = twins(&template, lanes.len());
                for (b, _) in &mut fresh {
                    b.set_phase_memo(memos[1].clone());
                }
                let run = |group: &mut [(Board, Arc<CollectObserver>)]| {
                    for ((b, _), (data, _)) in group.iter_mut().zip(lanes) {
                        b.reset();
                        b.dram.load_bytes(0x1000, data).unwrap();
                    }
                    let mut boards: Vec<&mut Board> = group.iter_mut().map(|(b, _)| b).collect();
                    let results = Board::run_stream_phases(&mut boards, &phase_args);
                    let seen: Vec<_> = group
                        .iter()
                        .map(|(b, events)| (b.dram.dump_bytes(0, 0x9000).unwrap(), events.take()))
                        .collect();
                    (format!("{results:?}"), seen)
                };
                let got = run(&mut reused[..lanes.len()]);
                prop_assert_eq!(got, run(&mut fresh), "phase {}", p);
            }
        }
    }

    #[test]
    fn boards_sharing_a_memo_share_their_topology_plan() {
        let (template, stages) = chain(&["S1", "S2"], 4);
        let memo = Arc::new(PhaseMemo::new());
        let mut boards = twins(&template, 3);
        boards[2].0.stream_fifo_depth += 1;
        for (b, _) in &mut boards {
            b.set_phase_memo(Arc::clone(&memo));
            b.dram.load_bytes(0x1000, &[1, 2, 3, 4]).unwrap();
            run_chain(b, &stages, 4, 4).unwrap();
        }
        let plan = |b: usize| boards[b].0.plan.clone().expect("ran a phase");
        // A twin run on its own takes the plan its memo holds for its
        // topology; a board of another FIFO depth gets a plan of its own.
        assert!(Arc::ptr_eq(&plan(0), &plan(1)));
        assert!(!Arc::ptr_eq(&plan(0), &plan(2)));
        assert_eq!(memo.plans.lock().unwrap().len(), 2);
    }

    #[test]
    fn reset_returns_a_board_to_its_built_state() {
        let (mut b, stages) = chain(&["S1"], 16);
        b.dram.load_bytes(0x1000, &[1, 2, 3, 4]).unwrap();
        run_chain(&mut b, &stages, 4, 4).unwrap();
        b.cpu.execute_cycles(100);
        b.reset();
        assert_eq!(b.dram.dump_bytes(0, 0x9000).unwrap(), vec![0; 0x9000]);
        assert_eq!(b.cpu.busy_ns, 0.0);
        assert!(b.accels.iter().all(|a| a.scalar_args.is_empty()));
        let events = Arc::new(CollectObserver::new());
        b.set_observer(events.clone());
        b.dram.load_bytes(0x1000, &[5, 6, 7, 8]).unwrap();
        run_chain(&mut b, &stages, 4, 4).unwrap();
        assert!(matches!(
            events.events().as_slice(),
            [FlowEvent::SimPhaseDone { label, timing_reused: true, .. }] if label == "phase0"
        ));
    }

    #[test]
    fn a_board_that_is_not_a_twin_fails_and_runs_nothing() {
        let (template, _) = chain(&["S1", "S2"], 4);
        let mut group = twins(&template, 5);
        // Same links, but its own compiled units; and another topology.
        let (mut own_units, _) = chain(&["S1", "S2"], 4);
        let (mut shorter, _) = chain(&["S1"], 4);
        // Twins but for one timing knob each: the FIFO depth, a DMA
        // engine's setup cycles, an accelerator's startup cycles.
        let (mut deeper, _) = group.pop().unwrap();
        deeper.stream_fifo_depth += 1;
        let (mut slow_dma, _) = group.pop().unwrap();
        slow_dma.dmas[0].setup_cycles += 1;
        let (mut slow_start, _) = group.pop().unwrap();
        slow_start.accels[1].startup_cycles += 1;
        let data = [1, 2, 3, 4];
        let ins = [(
            0,
            DmaDescriptor {
                addr: 0x1000,
                len: 4,
            },
        )];
        let outs = [(
            1,
            DmaDescriptor {
                addr: 0x8000,
                len: 4,
            },
        )];
        let scalar_args = [(0, "n", 4), (1, "n", 4)];
        let args = PhaseArgs {
            inputs: &ins,
            outputs: &outs,
            scalar_args: &scalar_args,
        };
        let [(first, first_events), (last, _)] = &mut group[..] else {
            unreachable!()
        };
        let mut boards = [
            first,
            &mut own_units,
            &mut shorter,
            &mut deeper,
            &mut slow_dma,
            &mut slow_start,
            last,
        ];
        for b in boards.iter_mut() {
            b.dram.load_bytes(0x1000, &data).unwrap();
        }
        let mismatched = 1..=5;
        let results = Board::run_stream_phases(&mut boards, &[args; 7]);
        for (b, r) in results.iter().enumerate() {
            match mismatched.contains(&b) {
                true => assert!(
                    matches!(r, Err(BoardError::GroupMismatch { board }) if *board == b),
                    "board {b}: {r:?}"
                ),
                false => assert!(r.is_ok(), "board {b}: {r:?}"),
            }
        }
        for (b, board) in boards.iter().enumerate() {
            let out = board.dram.dump_bytes(0x8000, 4).unwrap();
            let expect = match mismatched.contains(&b) {
                true => [0; 4],
                false => [3, 4, 5, 6],
            };
            assert_eq!(out, expect, "board {b}");
            // The mismatched boards did not even take their arguments.
            if mismatched.contains(&b) {
                assert!(board.accels.iter().all(|a| a.scalar_args.is_empty()));
            }
        }
        assert_eq!(first_events.len(), 1);
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
