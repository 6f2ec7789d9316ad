//! Co-scheduled cycle simulation of a streaming phase.
//!
//! The functional result of a phase comes from running each
//! accelerator's kernel on the lane VM
//! ([`crate::board::Board::run_stream_phase`]); this module computes its
//! *timing* by stepping every endpoint of the stream topology together,
//! one PL cycle at a time, over **bounded integer-occupancy FIFOs**:
//!
//! * a [`SourceSpec`] (MM2S DMA channel) injects one beat per cycle into
//!   its output FIFO — stalling when the FIFO is full (backpressure) or
//!   when the shared HP port's byte budget for the cycle is spent;
//! * a [`StageSpec`] (accelerator) fires repeatedly, consuming input
//!   tokens and producing output tokens per firing, stalling on empty
//!   inputs (starvation) or full outputs (backpressure);
//! * a [`SinkSpec`] (S2MM DMA channel) drains one beat per cycle from its
//!   input FIFO, sharing the same HP byte budget.
//!
//! Stages use a Bresenham token-distribution firing model: a stage with
//! per-port token totals fires `n_fire = max(tokens)` times, and firing
//! `f` moves `floor((f+1)·tok/n_fire) − floor(f·tok/n_fire)` tokens on
//! each port. This spreads rate-changing streams (4096-pixel input →
//! 256-bin histogram output, or a single threshold scalar) evenly across
//! the run, so reductions and broadcasts neither deadlock nor burst.
//!
//! Everything is integer; the simulation is exactly deterministic
//! (endpoints are stepped in a fixed order: sinks, stages, sources).
//!
//! # Memoized phase timing
//!
//! [`run`] reads nothing but its arguments: the [`CosimPhase`] (FIFO
//! capacities plus the source, stage and sink specs with their token
//! counts — never token values), the HP-port budget and the cycle cap.
//! Its result is therefore a pure function of the phase's *shape*, and
//! [`PhaseMemo`] caches it under that complete input, held as a shared
//! [`PhaseShape`] (the phase with its counts zeroed, hashed once) plus
//! the counts. Boards running the
//! same application on same-sized images repeat a handful of shapes, so
//! all but the first phase of each shape are a hash lookup. Because the
//! key is the whole input, nothing ever invalidates an entry: a kernel
//! re-registered with another II, a deeper FIFO or a narrower HP port is
//! simply a different key.

use crate::board::{Board, PhasePlan};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A bounded FIFO modelled by occupancy only — the functional payload
/// already moved through the kernel VM.
#[derive(Debug, Clone)]
struct Fifo {
    capacity: u64,
    occupancy: u64,
}

/// MM2S endpoint: injects `beats` beats into FIFO `out_fifo`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceSpec {
    pub name: String,
    pub beats: u64,
    /// HP-port bytes each beat consumes.
    pub bytes_per_beat: u64,
    /// Cycles before the first beat (descriptor fetch, channel start).
    pub setup_cycles: u64,
    /// Beats per DRAM burst; a burst boundary costs `burst_overhead`.
    pub burst_beats: u64,
    pub burst_overhead: u64,
    pub out_fifo: usize,
}

/// One stage port: which FIFO it reads/writes and how many tokens move
/// across it over the whole phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StagePort {
    pub fifo: usize,
    pub tokens: u64,
}

/// Accelerator endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StageSpec {
    pub name: String,
    /// Cycles before the stage can fire for the first time.
    pub startup_cycles: u64,
    /// Initiation interval: cycles from consuming a firing's inputs to
    /// producing its outputs.
    pub ii: u64,
    pub inputs: Vec<StagePort>,
    pub outputs: Vec<StagePort>,
}

/// S2MM endpoint: drains `beats` beats from FIFO `in_fifo`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SinkSpec {
    pub name: String,
    pub beats: u64,
    pub bytes_per_beat: u64,
    pub setup_cycles: u64,
    pub burst_beats: u64,
    pub burst_overhead: u64,
    pub in_fifo: usize,
}

/// The phase topology handed to [`run`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CosimPhase {
    pub fifo_capacities: Vec<u64>,
    pub sources: Vec<SourceSpec>,
    pub stages: Vec<StageSpec>,
    pub sinks: Vec<SinkSpec>,
}

impl CosimPhase {
    pub fn add_fifo(&mut self, capacity: u64) -> usize {
        self.fifo_capacities.push(capacity.max(1));
        self.fifo_capacities.len() - 1
    }
}

/// Aggregate timing of one co-scheduled phase run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CosimResult {
    /// Cycles from phase start to the last endpoint finishing.
    pub total_cycles: u64,
    /// Cycle at which the first sink beat landed (pipeline fill); equals
    /// `total_cycles` if no sink ever received a beat.
    pub fill_cycles: u64,
    /// `total_cycles - fill_cycles`.
    pub steady_cycles: u64,
    /// Producer-side stall cycles: a source or stage had work but its
    /// output FIFO was full.
    pub backpressure_stall_cycles: u64,
    /// Consumer-side stall cycles: a sink or stage waited on an empty
    /// input FIFO.
    pub starvation_stall_cycles: u64,
    /// Cycles a DMA endpoint was ready but the shared HP port's byte
    /// budget for the cycle was already spent (bus contention).
    pub hp_stall_cycles: u64,
    /// True if the safety cap was hit before all endpoints finished
    /// (inconsistent token accounting — a modelling bug, not a property
    /// of the design).
    pub capped: bool,
}

#[derive(Debug, Clone)]
struct SourceState {
    moved: u64,
    burst_wait: u64,
}

#[derive(Debug, Clone)]
struct SinkState {
    moved: u64,
    burst_wait: u64,
    first_beat_cycle: Option<u64>,
}

#[derive(Debug, Clone)]
struct StageState {
    fired: u64,
    n_fire: u64,
    /// In-flight firing completes at this cycle (inputs already consumed).
    completes_at: Option<u64>,
    /// Output tokens of the in-flight firing not yet pushed, per port.
    pending_out: Vec<u64>,
}

/// Tokens port `p` moves during firing `f` of `n_fire` total firings.
fn bresenham_share(tokens: u64, f: u64, n_fire: u64) -> u64 {
    debug_assert!(n_fire > 0);
    (f + 1) * tokens / n_fire - f * tokens / n_fire
}

/// Run the phase to completion with the given shared HP-port bandwidth.
/// `max_cycles` caps runaway topologies (see [`CosimResult::capped`]).
pub fn run(phase: &CosimPhase, hp_bytes_per_cycle: u64, max_cycles: u64) -> CosimResult {
    let mut fifos: Vec<Fifo> = phase
        .fifo_capacities
        .iter()
        .map(|&c| Fifo {
            capacity: c,
            occupancy: 0,
        })
        .collect();
    let mut sources: Vec<SourceState> = phase
        .sources
        .iter()
        .map(|_| SourceState {
            moved: 0,
            burst_wait: 0,
        })
        .collect();
    let mut sinks: Vec<SinkState> = phase
        .sinks
        .iter()
        .map(|_| SinkState {
            moved: 0,
            burst_wait: 0,
            first_beat_cycle: None,
        })
        .collect();
    let mut stages: Vec<StageState> = phase
        .stages
        .iter()
        .map(|s| {
            let n_fire = s
                .inputs
                .iter()
                .chain(&s.outputs)
                .map(|p| p.tokens)
                .max()
                .unwrap_or(0);
            StageState {
                fired: 0,
                n_fire,
                completes_at: None,
                pending_out: vec![0; s.outputs.len()],
            }
        })
        .collect();

    let mut r = CosimResult::default();
    let mut cycle: u64 = 0;
    loop {
        let all_done = sources
            .iter()
            .zip(&phase.sources)
            .all(|(s, sp)| s.moved == sp.beats)
            && sinks
                .iter()
                .zip(&phase.sinks)
                .all(|(s, sp)| s.moved == sp.beats)
            && stages
                .iter()
                .all(|s| s.fired == s.n_fire && s.completes_at.is_none());
        if all_done {
            break;
        }
        if cycle >= max_cycles {
            r.capped = true;
            break;
        }
        let mut budget = hp_bytes_per_cycle;

        // 1. Sinks drain first: freeing FIFO slots lets upstream make
        // progress in the same cycle, guaranteeing forward motion even
        // with depth-1 FIFOs.
        for (st, spec) in sinks.iter_mut().zip(&phase.sinks) {
            if st.moved == spec.beats || cycle < spec.setup_cycles {
                continue;
            }
            if st.burst_wait > 0 {
                st.burst_wait -= 1;
                continue;
            }
            let fifo = &mut fifos[spec.in_fifo];
            if fifo.occupancy == 0 {
                r.starvation_stall_cycles += 1;
            } else if budget < spec.bytes_per_beat {
                r.hp_stall_cycles += 1;
            } else {
                fifo.occupancy -= 1;
                budget -= spec.bytes_per_beat;
                st.moved += 1;
                if st.first_beat_cycle.is_none() {
                    st.first_beat_cycle = Some(cycle);
                }
                if spec.burst_beats > 0 && st.moved.is_multiple_of(spec.burst_beats) {
                    st.burst_wait = spec.burst_overhead;
                }
            }
        }

        // 2. Stages, in declaration (feed-forward) order.
        for (st, spec) in stages.iter_mut().zip(&phase.stages) {
            if cycle < spec.startup_cycles {
                continue;
            }
            // Finish an in-flight firing: push its outputs as space allows.
            if let Some(done_at) = st.completes_at {
                if cycle < done_at {
                    continue;
                }
                let mut blocked = false;
                for (pending, port) in st.pending_out.iter_mut().zip(&spec.outputs) {
                    while *pending > 0 {
                        let fifo = &mut fifos[port.fifo];
                        if fifo.occupancy < fifo.capacity {
                            fifo.occupancy += 1;
                            *pending -= 1;
                        } else {
                            blocked = true;
                            break;
                        }
                    }
                }
                if blocked {
                    r.backpressure_stall_cycles += 1;
                    continue;
                }
                st.completes_at = None;
            }
            // Start the next firing if its inputs are all available.
            if st.fired < st.n_fire {
                let f = st.fired;
                let ready = spec
                    .inputs
                    .iter()
                    .all(|p| fifos[p.fifo].occupancy >= bresenham_share(p.tokens, f, st.n_fire));
                if !ready {
                    r.starvation_stall_cycles += 1;
                    continue;
                }
                for p in &spec.inputs {
                    fifos[p.fifo].occupancy -= bresenham_share(p.tokens, f, st.n_fire);
                }
                for (pending, p) in st.pending_out.iter_mut().zip(&spec.outputs) {
                    *pending = bresenham_share(p.tokens, f, st.n_fire);
                }
                st.fired += 1;
                st.completes_at = Some(cycle + spec.ii.max(1));
            }
        }

        // 3. Sources inject last: a beat pushed this cycle is consumed
        // no earlier than the next cycle (one-cycle link latency).
        for (st, spec) in sources.iter_mut().zip(&phase.sources) {
            if st.moved == spec.beats || cycle < spec.setup_cycles {
                continue;
            }
            if st.burst_wait > 0 {
                st.burst_wait -= 1;
                continue;
            }
            let fifo = &mut fifos[spec.out_fifo];
            if fifo.occupancy == fifo.capacity {
                r.backpressure_stall_cycles += 1;
            } else if budget < spec.bytes_per_beat {
                r.hp_stall_cycles += 1;
            } else {
                fifo.occupancy += 1;
                budget -= spec.bytes_per_beat;
                st.moved += 1;
                if spec.burst_beats > 0 && st.moved.is_multiple_of(spec.burst_beats) {
                    st.burst_wait = spec.burst_overhead;
                }
            }
        }

        cycle += 1;
    }

    r.total_cycles = cycle;
    r.fill_cycles = sinks
        .iter()
        .filter_map(|s| s.first_beat_cycle)
        .min()
        .unwrap_or(cycle);
    r.steady_cycles = r.total_cycles - r.fill_cycles;
    r
}

/// A phase with its token counts taken out: the FIFO capacities and
/// every endpoint's fixed parameters, with each `beats` and each stage
/// port's `tokens` zero. A phase is its shape plus its counts in
/// [`PhaseShape::counts`] order, and [`PhaseShape::phase`] puts them
/// back together. Boards build the shapes their topology runs once and
/// share them, so a phase's timing is looked up by shape and counts
/// without building, cloning or hashing the phase's names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseShape {
    phase: CosimPhase,
    /// A hash of `phase`, taken once.
    hash: u64,
}

impl PhaseShape {
    /// `phase`'s shape; its counts are ignored.
    pub fn new(mut phase: CosimPhase) -> Self {
        for s in &mut phase.sources {
            s.beats = 0;
        }
        for st in &mut phase.stages {
            st.inputs
                .iter_mut()
                .chain(&mut st.outputs)
                .for_each(|p| p.tokens = 0);
        }
        for s in &mut phase.sinks {
            s.beats = 0;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        phase.hash(&mut h);
        PhaseShape {
            hash: h.finish(),
            phase,
        }
    }

    /// `phase`'s token counts, in the order [`PhaseShape::phase`] reads
    /// them: each source's beats, each stage's input then output port
    /// tokens, each sink's beats.
    pub fn counts(phase: &CosimPhase) -> Vec<u64> {
        let sources = phase.sources.iter().map(|s| s.beats);
        let stages = phase
            .stages
            .iter()
            .flat_map(|st| st.inputs.iter().chain(&st.outputs).map(|p| p.tokens));
        let sinks = phase.sinks.iter().map(|s| s.beats);
        sources.chain(stages).chain(sinks).collect()
    }

    /// How many counts a phase of this shape has.
    pub fn count_len(&self) -> usize {
        let p = &self.phase;
        let ports: usize = p
            .stages
            .iter()
            .map(|st| st.inputs.len() + st.outputs.len())
            .sum();
        p.sources.len() + ports + p.sinks.len()
    }

    /// The phase of this shape with `counts` filled in.
    pub fn phase(&self, counts: &[u64]) -> CosimPhase {
        debug_assert_eq!(counts.len(), self.count_len());
        let mut phase = self.phase.clone();
        let mut counts = counts.iter().copied();
        let mut next = || counts.next().expect("one count per source, port and sink");
        for s in &mut phase.sources {
            s.beats = next();
        }
        for st in &mut phase.stages {
            for p in st.inputs.iter_mut().chain(&mut st.outputs) {
                p.tokens = next();
            }
        }
        for s in &mut phase.sinks {
            s.beats = next();
        }
        phase
    }
}

/// One memoized input of [`run`] and its result.
#[derive(Debug)]
struct MemoEntry {
    shape: Arc<PhaseShape>,
    counts: Box<[u64]>,
    hp_bytes_per_cycle: u64,
    max_cycles: u64,
    result: CosimResult,
}

impl MemoEntry {
    fn is(&self, shape: &Arc<PhaseShape>, counts: &[u64], hp: u64, cap: u64) -> bool {
        (Arc::ptr_eq(&self.shape, shape) || self.shape == *shape)
            && *self.counts == *counts
            && self.hp_bytes_per_cycle == hp
            && self.max_cycles == cap
    }
}

/// Mix a memo key into one word: the shape's stored hash, the counts and
/// the two knobs, through a multiply-rotate step per word.
fn memo_hash(shape: &PhaseShape, counts: &[u64], hp: u64, cap: u64) -> u64 {
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    let h = [hp, cap].into_iter().fold(step(0, shape.hash), step);
    counts.iter().fold(h, |h, &w| step(h, w))
}

/// A memo of [`run`] keyed by its complete input (see the module docs),
/// held as a [`PhaseShape`] plus its counts, and the phase plans of the
/// board topologies that ran it. Shared by reference: a flow engine
/// hands one to every board it builds, and a standalone board owns a
/// private one.
#[derive(Debug, Default)]
pub struct PhaseMemo {
    /// Entries by [`memo_hash`]; a bucket holds every entry whose key
    /// mixes to that word.
    results: Mutex<HashMap<u64, Vec<MemoEntry>>>,
    /// One plan per board topology its boards ran
    /// ([`PhaseMemo::plan_for`]).
    pub(crate) plans: Mutex<Vec<Arc<PhasePlan>>>,
}

impl PhaseMemo {
    pub fn new() -> Self {
        PhaseMemo::default()
    }

    /// `run(&phase, hp_bytes_per_cycle, max_cycles)`, simulated on the
    /// first request for this input and copied on every later one. The
    /// flag is true when the result was reused.
    pub fn run(
        &self,
        phase: CosimPhase,
        hp_bytes_per_cycle: u64,
        max_cycles: u64,
    ) -> (CosimResult, bool) {
        let counts = PhaseShape::counts(&phase);
        let shape = Arc::new(PhaseShape::new(phase));
        self.run_shaped(&shape, &counts, hp_bytes_per_cycle, max_cycles)
    }

    /// [`PhaseMemo::run`] on the phase `shape.phase(counts)`, which is
    /// only built when the memo misses. A miss simulates under the
    /// lock, so each distinct input is simulated exactly once even when
    /// boards on several threads share the memo.
    pub fn run_shaped(
        &self,
        shape: &Arc<PhaseShape>,
        counts: &[u64],
        hp_bytes_per_cycle: u64,
        max_cycles: u64,
    ) -> (CosimResult, bool) {
        let (hp, cap) = (hp_bytes_per_cycle, max_cycles);
        let key = memo_hash(shape, counts, hp, cap);
        let mut results = self.results.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = results.entry(key).or_default();
        if let Some(e) = bucket.iter().find(|e| e.is(shape, counts, hp, cap)) {
            return (e.result.clone(), true);
        }
        let result = run(&shape.phase(counts), hp, cap);
        bucket.push(MemoEntry {
            shape: Arc::clone(shape),
            counts: counts.into(),
            hp_bytes_per_cycle: hp,
            max_cycles: cap,
            result: result.clone(),
        });
        (result, false)
    }

    /// The plan `board` fits: one resolved by an earlier board of the
    /// same topology, or else one resolved from `board` and kept. So a
    /// new board built by the engine that shares this memo takes its
    /// twins' plan, with the timing shapes they ran.
    pub(crate) fn plan_for(&self, board: &Board) -> Arc<PhasePlan> {
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = plans.iter().find(|plan| plan.fits(board)) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(PhasePlan::resolve(board));
        plans.push(Arc::clone(&plan));
        plan
    }

    /// Distinct inputs simulated so far.
    pub fn len(&self) -> usize {
        let results = self.results.lock().unwrap_or_else(|e| e.into_inner());
        results.values().map(Vec::len).sum()
    }

    /// The distinct inputs simulated so far — the phase shapes the
    /// memo's boards ran — in no particular order.
    pub fn inputs(&self) -> Vec<(CosimPhase, u64, u64)> {
        let results = self.results.lock().unwrap_or_else(|e| e.into_inner());
        results
            .values()
            .flatten()
            .map(|e| (e.shape.phase(&e.counts), e.hp_bytes_per_cycle, e.max_cycles))
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 1_000_000;

    fn copy_phase(beats: u64, fifo_depth: u64, ii: u64) -> CosimPhase {
        // source -> stage(ii) -> sink, 1 byte/beat.
        let mut p = CosimPhase::default();
        let f_in = p.add_fifo(fifo_depth);
        let f_out = p.add_fifo(fifo_depth);
        p.sources.push(SourceSpec {
            name: "mm2s".into(),
            beats,
            bytes_per_beat: 1,
            setup_cycles: 30,
            burst_beats: 16,
            burst_overhead: 8,
            out_fifo: f_in,
        });
        p.stages.push(StageSpec {
            name: "stage".into(),
            startup_cycles: 40,
            ii,
            inputs: vec![StagePort {
                fifo: f_in,
                tokens: beats,
            }],
            outputs: vec![StagePort {
                fifo: f_out,
                tokens: beats,
            }],
        });
        p.sinks.push(SinkSpec {
            name: "s2mm".into(),
            beats,
            bytes_per_beat: 1,
            setup_cycles: 30,
            burst_beats: 16,
            burst_overhead: 8,
            in_fifo: f_out,
        });
        p
    }

    #[test]
    fn pipeline_completes_and_fill_precedes_steady() {
        let r = run(&copy_phase(256, 16, 1), 8, CAP);
        assert!(!r.capped);
        assert!(r.total_cycles > 256, "at least one cycle per beat");
        assert!(r.fill_cycles >= 40, "fill covers stage startup");
        assert_eq!(r.total_cycles, r.fill_cycles + r.steady_cycles);
    }

    #[test]
    fn slow_stage_backpressures_source() {
        // II=4 stage drains the input FIFO 4x slower than the source
        // fills it: with a shallow FIFO the source must stall.
        let r = run(&copy_phase(128, 2, 4), 8, CAP);
        assert!(!r.capped);
        assert!(r.backpressure_stall_cycles > 0, "{r:?}");
        // And the sink starves while each firing is in flight.
        assert!(r.starvation_stall_cycles > 0, "{r:?}");
    }

    #[test]
    fn deeper_fifos_absorb_jitter() {
        let shallow = run(&copy_phase(128, 1, 2), 8, CAP);
        let deep = run(&copy_phase(128, 64, 2), 8, CAP);
        assert!(deep.backpressure_stall_cycles <= shallow.backpressure_stall_cycles);
        assert!(deep.total_cycles <= shallow.total_cycles);
    }

    #[test]
    fn hp_budget_throttles_dma_endpoints() {
        // 1 byte/cycle shared between source and sink: the port binds.
        let fast = run(&copy_phase(512, 16, 1), 8, CAP);
        let slow = run(&copy_phase(512, 16, 1), 1, CAP);
        assert!(slow.total_cycles > fast.total_cycles);
        assert!(slow.hp_stall_cycles > 0, "{slow:?}");
        // 512 beats in + 512 out at 1 B/cycle: at least 1024 move cycles.
        assert!(slow.total_cycles >= 1024);
    }

    #[test]
    fn reduction_stage_spreads_rare_outputs() {
        // 4096 tokens in, 16 out (histogram-style reduction) through a
        // depth-16 FIFO: must terminate without deadlock or cap.
        let mut p = CosimPhase::default();
        let f_in = p.add_fifo(16);
        let f_out = p.add_fifo(16);
        p.sources.push(SourceSpec {
            name: "src".into(),
            beats: 4096,
            bytes_per_beat: 1,
            setup_cycles: 0,
            burst_beats: 0,
            burst_overhead: 0,
            out_fifo: f_in,
        });
        p.stages.push(StageSpec {
            name: "hist".into(),
            startup_cycles: 0,
            ii: 1,
            inputs: vec![StagePort {
                fifo: f_in,
                tokens: 4096,
            }],
            outputs: vec![StagePort {
                fifo: f_out,
                tokens: 16,
            }],
        });
        p.sinks.push(SinkSpec {
            name: "snk".into(),
            beats: 16,
            bytes_per_beat: 4,
            setup_cycles: 0,
            burst_beats: 0,
            burst_overhead: 0,
            in_fifo: f_out,
        });
        let r = run(&p, 8, CAP);
        assert!(!r.capped, "{r:?}");
        assert!(r.total_cycles >= 4096);
    }

    #[test]
    fn broadcast_with_late_join_does_not_deadlock() {
        // Arch4 shape: gray feeds both hist (full rate) and segment
        // (full rate); segment also needs one threshold token produced
        // only after hist+otsu finish. Bresenham consumption lets
        // segment drain gray tokens while waiting, so the shared
        // upstream never wedges on a full FIFO.
        let n = 1024;
        let mut p = CosimPhase::default();
        let f_src = p.add_fifo(16);
        let f_gray_hist = p.add_fifo(16);
        let f_gray_seg = p.add_fifo(16);
        let f_hist_otsu = p.add_fifo(16);
        let f_thresh = p.add_fifo(16);
        let f_out = p.add_fifo(16);
        p.sources.push(SourceSpec {
            name: "src".into(),
            beats: n,
            bytes_per_beat: 4,
            setup_cycles: 30,
            burst_beats: 16,
            burst_overhead: 8,
            out_fifo: f_src,
        });
        p.stages.push(StageSpec {
            name: "gray".into(),
            startup_cycles: 40,
            ii: 1,
            inputs: vec![StagePort {
                fifo: f_src,
                tokens: n,
            }],
            outputs: vec![
                StagePort {
                    fifo: f_gray_hist,
                    tokens: n,
                },
                StagePort {
                    fifo: f_gray_seg,
                    tokens: n,
                },
            ],
        });
        p.stages.push(StageSpec {
            name: "hist".into(),
            startup_cycles: 40,
            ii: 3,
            inputs: vec![StagePort {
                fifo: f_gray_hist,
                tokens: n,
            }],
            outputs: vec![StagePort {
                fifo: f_hist_otsu,
                tokens: 256,
            }],
        });
        p.stages.push(StageSpec {
            name: "otsu".into(),
            startup_cycles: 40,
            ii: 1,
            inputs: vec![StagePort {
                fifo: f_hist_otsu,
                tokens: 256,
            }],
            outputs: vec![StagePort {
                fifo: f_thresh,
                tokens: 1,
            }],
        });
        p.stages.push(StageSpec {
            name: "segment".into(),
            startup_cycles: 40,
            ii: 1,
            inputs: vec![
                StagePort {
                    fifo: f_gray_seg,
                    tokens: n,
                },
                StagePort {
                    fifo: f_thresh,
                    tokens: 1,
                },
            ],
            outputs: vec![StagePort {
                fifo: f_out,
                tokens: n,
            }],
        });
        p.sinks.push(SinkSpec {
            name: "snk".into(),
            beats: n,
            bytes_per_beat: 1,
            setup_cycles: 30,
            burst_beats: 16,
            burst_overhead: 8,
            in_fifo: f_out,
        });
        let r = run(&p, 8, CAP);
        assert!(!r.capped, "{r:?}");
        // The segment stage genuinely waits for the threshold: the II=3
        // histogram plus the 256-bin drain delays the final firing.
        assert!(r.starvation_stall_cycles > 0, "{r:?}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = copy_phase(300, 4, 2);
        let a = run(&p, 8, CAP);
        let b = run(&p, 8, CAP);
        assert_eq!(a, b);
    }

    #[test]
    fn cap_reported_on_inconsistent_topology() {
        // A sink expecting beats that nothing produces can never finish.
        let mut p = CosimPhase::default();
        let f = p.add_fifo(4);
        p.sinks.push(SinkSpec {
            name: "snk".into(),
            beats: 10,
            bytes_per_beat: 1,
            setup_cycles: 0,
            burst_beats: 0,
            burst_overhead: 0,
            in_fifo: f,
        });
        let r = run(&p, 8, 10_000);
        assert!(r.capped);
        assert_eq!(r.total_cycles, 10_000);
    }
}
