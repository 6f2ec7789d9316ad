//! The event vocabulary of the flow: phases, spans, and per-stage
//! progress reports.

use crate::tenant::TenantId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Flow phases, in order (the bars of Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowPhase {
    DslCompile,
    Hls,
    ProjectGen,
    Synthesis,
    Implementation,
    SwGen,
}

impl FlowPhase {
    /// All phases, in flow order.
    pub const ALL: [FlowPhase; 6] = [
        FlowPhase::DslCompile,
        FlowPhase::Hls,
        FlowPhase::ProjectGen,
        FlowPhase::Synthesis,
        FlowPhase::Implementation,
        FlowPhase::SwGen,
    ];

    /// The paper's Fig. 9 bar label for this phase.
    pub fn as_str(&self) -> &'static str {
        match self {
            FlowPhase::DslCompile => "SCALA",
            FlowPhase::Hls => "HLS",
            FlowPhase::ProjectGen => "PROJECT_GEN",
            FlowPhase::Synthesis => "SYNTHESIS",
            FlowPhase::Implementation => "IMPLEMENTATION",
            FlowPhase::SwGen => "SW_GEN",
        }
    }
}

impl fmt::Display for FlowPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a phase span (or the whole flow) ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanOutcome {
    /// The phase ran to completion.
    Success,
    /// The span guard was dropped without an explicit finish — an error
    /// unwound past it (the guard still closes the span so traces stay
    /// well-nested).
    Aborted,
    /// The phase failed with the given error rendering.
    Failed(String),
}

impl SpanOutcome {
    pub fn is_success(&self) -> bool {
        matches!(self, SpanOutcome::Success)
    }
}

impl fmt::Display for SpanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanOutcome::Success => f.write_str("ok"),
            SpanOutcome::Aborted => f.write_str("aborted"),
            SpanOutcome::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

/// One observation from the running flow.
///
/// Serialized externally tagged (`{"PhaseStarted": {...}}`), one event
/// per line, in the JSON-lines trace format written by
/// [`crate::JsonTraceObserver`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlowEvent {
    /// A flow run began: the design name and its node count.
    FlowStarted { design: String, nodes: usize },
    /// The flow run ended (after the last `PhaseEnded`).
    FlowFinished {
        outcome: SpanOutcome,
        modeled_total_s: f64,
    },
    /// A phase span opened. Always balanced by a `PhaseEnded` with the
    /// same phase, even on error paths (see [`crate::PhaseSpan`]).
    PhaseStarted { phase: FlowPhase },
    /// A phase span closed. `modeled_s` is the modeled vendor-tool
    /// seconds (paper scale); `wall_us` the measured wall time of our
    /// simulated tool.
    PhaseEnded {
        phase: FlowPhase,
        outcome: SpanOutcome,
        modeled_s: f64,
        wall_us: u64,
    },
    /// The HLS core cache was consulted for a kernel.
    HlsCacheQuery { kernel: String, hit: bool },
    /// A cache hit was satisfied from the persistent (on-disk) tier
    /// rather than the in-memory map; `key` is the content digest hex.
    HlsCachePersistedHit { kernel: String, key: String },
    /// A persistent cache entry could not be used — truncated, corrupt,
    /// version-mismatched, or unreadable. The entry is treated as a
    /// miss; synthesis proceeds normally.
    HlsCacheCorrupt { path: String, reason: String },
    /// A freshly synthesized result was written to the persistent tier.
    HlsCacheStored { kernel: String, key: String },
    /// A kernel was lowered to register bytecode for the execution VM.
    /// Emitted once per registered kernel per flow engine; a high count
    /// relative to distinct kernels means compiled code is not being
    /// reused across invocations.
    KernelCompiled { kernel: String },
    /// A fetch of a kernel's execution unit found it already compiled —
    /// the batch/serve hot paths reusing compiled code instead of
    /// paying the compile again.
    KernelVmCacheHit { kernel: String },
    /// One kernel finished HLS: scheduling and resource statistics from
    /// its synthesis report.
    HlsKernelSynthesized {
        kernel: String,
        latency: u64,
        pipelined_loops: usize,
        lut: u32,
        ff: u32,
        bram18: u32,
        dsp: u32,
        clock_estimate_ns: f64,
        modeled_tool_seconds: f64,
    },
    /// System-level synthesis finished (resource aggregation + capacity
    /// check against the device).
    SynthesisDone {
        design: String,
        part: String,
        lut: u32,
        ff: u32,
        bram18: u32,
        dsp: u32,
        utilization: f64,
    },
    /// One temperature step of the simulated-annealing placer: current
    /// temperature and half-perimeter wirelength cost.
    PlacementProgress {
        step: u32,
        temperature: f64,
        hpwl: u64,
    },
    /// Placement converged.
    PlacementDone { cells: usize, hpwl: u64, moves: u64 },
    /// Routing finished.
    RouteDone {
        nets: usize,
        total_wirelength: u64,
        max_net_length: u32,
        congestion: f64,
    },
    /// Static timing analysis finished.
    TimingDone {
        target_ns: f64,
        achieved_ns: f64,
        slack_ns: f64,
        fmax_mhz: f64,
        met: bool,
    },
    /// The platform simulator completed one streaming phase: simulated
    /// time plus DMA, FIFO and bus contention counters from the
    /// co-scheduled bounded-FIFO cycle simulation.
    SimPhaseDone {
        label: String,
        ns: f64,
        fill_cycles: u64,
        steady_cycles: u64,
        bytes_in: u64,
        bytes_out: u64,
        dma_bursts: u64,
        /// Cycles any endpoint waited for the shared HP port's byte
        /// budget (bus contention).
        bus_stall_cycles: u64,
        /// Cycles producers waited on a full stream FIFO.
        backpressure_stall_cycles: u64,
        /// Cycles consumers waited on an empty stream FIFO.
        starvation_stall_cycles: u64,
    },
    /// The multi-board partitioner cut an oversized design into
    /// per-board subgraphs that each fit the device.
    PartitionPlanned {
        nodes: usize,
        boards: usize,
        cut_edges: usize,
        cut_bytes: u64,
        /// Worst per-board utilisation fraction across the plan.
        worst_utilization: f64,
    },
    /// The multi-board co-simulation finished: whole-system makespan plus
    /// aggregate inter-board link stalls.
    MultiBoardSimDone {
        boards: usize,
        links: usize,
        makespan_ns: f64,
        /// Total time transfers spent blocked on wire arbitration, rx-DMA
        /// arbitration, or a full receive FIFO, across all links.
        link_stall_ns: f64,
    },
    /// A serving-runtime job passed admission control and entered its
    /// tenant's queue on serve node `node`. `est_ns` is the DSE latency
    /// estimate used by size-aware policies.
    JobAdmitted {
        job: u64,
        tenant: TenantId,
        node: usize,
        est_ns: f64,
    },
    /// A serving-runtime job was refused at admission. `reason` is the
    /// stable `AdmissionError` kind (`QueueFull`, `JobTooLarge`,
    /// `DeadlineImpossible`, `InvalidGraph`, `UnknownTenant`).
    JobRejected {
        job: u64,
        tenant: TenantId,
        node: usize,
        reason: String,
    },
    /// A job left its queue for a board (possibly batched with others).
    JobDispatched {
        job: u64,
        tenant: TenantId,
        node: usize,
        board: usize,
        /// Jobs coalesced into the same board phase, including this one.
        batch: usize,
        at_ps: u64,
    },
    /// A job finished on a board within its deadline (or had none).
    JobCompleted {
        job: u64,
        tenant: TenantId,
        node: usize,
        board: usize,
        latency_ps: u64,
    },
    /// A job's execution hit a transient fault; the scheduler requeued
    /// it for `attempt` (1-based retry count), avoiding `from_board`.
    JobRetried {
        job: u64,
        tenant: TenantId,
        node: usize,
        from_board: usize,
        attempt: u32,
    },
    /// A job missed its deadline — either it expired in the queue or it
    /// finished `late_ps` picoseconds past the deadline.
    JobDeadlineMissed {
        job: u64,
        tenant: TenantId,
        node: usize,
        late_ps: u64,
    },
    /// Cluster routing forwarded a job between serve nodes before
    /// admission — either its consistent-hash home was dead at delivery
    /// time or the home's queue was full and the shed policy bounced it
    /// to the least-loaded peer.
    JobForwarded {
        job: u64,
        tenant: TenantId,
        from_node: usize,
        to_node: usize,
    },
    /// An idle serve node stole a queued job from the back of a loaded
    /// peer's longest queue.
    JobStolen {
        job: u64,
        tenant: TenantId,
        from_node: usize,
        to_node: usize,
    },
    /// Cluster load-shedding dropped a job: every forwarding hop ended
    /// at a full queue (or no alive node could accept it before
    /// admission).
    JobShed {
        job: u64,
        tenant: TenantId,
        node: usize,
    },
    /// A node failure orphaned this admitted job (queued or in flight)
    /// and the cluster re-dispatched it to a surviving node.
    JobRedispatched {
        job: u64,
        tenant: TenantId,
        from_node: usize,
        to_node: usize,
    },
    /// An admitted job was lost to node failure: its re-dispatch budget
    /// was exhausted or no alive node remained.
    JobFailed {
        job: u64,
        tenant: TenantId,
        node: usize,
    },
    /// A serve node failed at simulated time `at_ps`, orphaning `queued`
    /// queued jobs and `in_flight` jobs on its boards.
    NodeFailed {
        node: usize,
        at_ps: u64,
        queued: usize,
        in_flight: usize,
    },
}

impl fmt::Display for FlowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowEvent::FlowStarted { design, nodes } => {
                write!(f, "flow '{design}' started ({nodes} nodes)")
            }
            FlowEvent::FlowFinished {
                outcome,
                modeled_total_s,
            } => {
                write!(
                    f,
                    "flow finished: {outcome} (modeled {modeled_total_s:.1} s)"
                )
            }
            FlowEvent::PhaseStarted { phase } => write!(f, "[{phase}] started"),
            FlowEvent::PhaseEnded {
                phase,
                outcome,
                modeled_s,
                wall_us,
            } => {
                write!(
                    f,
                    "[{phase}] ended: {outcome} (modeled {modeled_s:.1} s, {wall_us} us)"
                )
            }
            FlowEvent::HlsCacheQuery { kernel, hit } => {
                let verdict = if *hit { "hit" } else { "miss" };
                write!(f, "[HLS] core cache {verdict} for '{kernel}'")
            }
            FlowEvent::HlsCachePersistedHit { kernel, key } => {
                write!(f, "[HLS] persisted cache hit for '{kernel}' ({key})")
            }
            FlowEvent::HlsCacheCorrupt { path, reason } => {
                write!(f, "[HLS] cache entry unusable at {path}: {reason}")
            }
            FlowEvent::HlsCacheStored { kernel, key } => {
                write!(f, "[HLS] stored '{kernel}' in persistent cache ({key})")
            }
            FlowEvent::KernelCompiled { kernel } => {
                write!(f, "[VM] compiled '{kernel}' to bytecode")
            }
            FlowEvent::KernelVmCacheHit { kernel } => {
                write!(f, "[VM] cache hit for '{kernel}'")
            }
            FlowEvent::HlsKernelSynthesized {
                kernel,
                latency,
                lut,
                dsp,
                clock_estimate_ns,
                ..
            } => {
                write!(
                    f,
                    "[HLS] '{kernel}': latency {latency}, {lut} LUT, {dsp} DSP, \
                     clock {clock_estimate_ns:.2} ns"
                )
            }
            FlowEvent::SynthesisDone {
                design,
                lut,
                utilization,
                ..
            } => {
                write!(
                    f,
                    "[SYNTHESIS] '{design}': {lut} LUT, {:.1}% utilized",
                    utilization * 100.0
                )
            }
            FlowEvent::PlacementProgress {
                step,
                temperature,
                hpwl,
            } => {
                write!(
                    f,
                    "[IMPLEMENTATION] SA step {step}: T={temperature:.2}, HPWL={hpwl}"
                )
            }
            FlowEvent::PlacementDone { cells, hpwl, moves } => {
                write!(
                    f,
                    "[IMPLEMENTATION] placed {cells} cells, HPWL={hpwl} ({moves} moves)"
                )
            }
            FlowEvent::RouteDone {
                nets,
                total_wirelength,
                congestion,
                ..
            } => {
                write!(
                    f,
                    "[IMPLEMENTATION] routed {nets} nets, wirelength {total_wirelength}, \
                     congestion {congestion:.2}"
                )
            }
            FlowEvent::TimingDone {
                achieved_ns,
                fmax_mhz,
                met,
                ..
            } => {
                let verdict = if *met { "met" } else { "VIOLATED" };
                write!(
                    f,
                    "[IMPLEMENTATION] timing {verdict}: {achieved_ns:.2} ns ({fmax_mhz:.1} MHz)"
                )
            }
            FlowEvent::SimPhaseDone {
                label,
                ns,
                bytes_in,
                bytes_out,
                bus_stall_cycles,
                backpressure_stall_cycles,
                starvation_stall_cycles,
                ..
            } => {
                write!(
                    f,
                    "[SIM] phase '{label}': {ns:.0} ns, {bytes_in} B in / {bytes_out} B out, \
                     stalls: {bus_stall_cycles} bus / {backpressure_stall_cycles} backpressure / \
                     {starvation_stall_cycles} starvation"
                )
            }
            FlowEvent::PartitionPlanned {
                nodes,
                boards,
                cut_edges,
                cut_bytes,
                worst_utilization,
            } => {
                write!(
                    f,
                    "[PARTITION] {nodes} nodes -> {boards} boards, {cut_edges} cut edges \
                     ({cut_bytes} B), worst board {:.1}% utilized",
                    worst_utilization * 100.0
                )
            }
            FlowEvent::MultiBoardSimDone {
                boards,
                links,
                makespan_ns,
                link_stall_ns,
            } => {
                write!(
                    f,
                    "[MULTIBOARD] {boards} boards / {links} links: makespan {makespan_ns:.0} ns, \
                     link stalls {link_stall_ns:.0} ns"
                )
            }
            FlowEvent::JobAdmitted {
                job,
                tenant,
                node,
                est_ns,
            } => {
                write!(
                    f,
                    "[SERVE] n{node} job {job} ({tenant}) admitted, est {est_ns:.0} ns"
                )
            }
            FlowEvent::JobRejected {
                job,
                tenant,
                node,
                reason,
            } => {
                write!(f, "[SERVE] n{node} job {job} ({tenant}) rejected: {reason}")
            }
            FlowEvent::JobDispatched {
                job,
                tenant,
                node,
                board,
                batch,
                at_ps,
            } => {
                write!(
                    f,
                    "[SERVE] n{node} job {job} ({tenant}) -> board {board} at {at_ps} ps \
                     (batch of {batch})"
                )
            }
            FlowEvent::JobCompleted {
                job,
                tenant,
                node,
                board,
                latency_ps,
            } => {
                write!(
                    f,
                    "[SERVE] n{node} job {job} ({tenant}) done on board {board}, \
                     latency {latency_ps} ps"
                )
            }
            FlowEvent::JobRetried {
                job,
                tenant,
                node,
                from_board,
                attempt,
            } => {
                write!(
                    f,
                    "[SERVE] n{node} job {job} ({tenant}) faulted on board {from_board}, \
                     retry #{attempt}"
                )
            }
            FlowEvent::JobDeadlineMissed {
                job,
                tenant,
                node,
                late_ps,
            } => {
                write!(
                    f,
                    "[SERVE] n{node} job {job} ({tenant}) missed deadline by {late_ps} ps"
                )
            }
            FlowEvent::JobForwarded {
                job,
                tenant,
                from_node,
                to_node,
            } => {
                write!(
                    f,
                    "[CLUSTER] job {job} ({tenant}) forwarded n{from_node} -> n{to_node}"
                )
            }
            FlowEvent::JobStolen {
                job,
                tenant,
                from_node,
                to_node,
            } => {
                write!(
                    f,
                    "[CLUSTER] job {job} ({tenant}) stolen n{from_node} -> n{to_node}"
                )
            }
            FlowEvent::JobShed { job, tenant, node } => {
                write!(f, "[CLUSTER] job {job} ({tenant}) shed at n{node}")
            }
            FlowEvent::JobRedispatched {
                job,
                tenant,
                from_node,
                to_node,
            } => {
                write!(
                    f,
                    "[CLUSTER] job {job} ({tenant}) redispatched n{from_node} -> n{to_node}"
                )
            }
            FlowEvent::JobFailed { job, tenant, node } => {
                write!(
                    f,
                    "[CLUSTER] job {job} ({tenant}) lost to failure of n{node}"
                )
            }
            FlowEvent::NodeFailed {
                node,
                at_ps,
                queued,
                in_flight,
            } => {
                write!(
                    f,
                    "[CLUSTER] n{node} FAILED at {at_ps} ps ({queued} queued, \
                     {in_flight} in flight)"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_match_fig9() {
        let labels: Vec<&str> = FlowPhase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            labels,
            [
                "SCALA",
                "HLS",
                "PROJECT_GEN",
                "SYNTHESIS",
                "IMPLEMENTATION",
                "SW_GEN"
            ]
        );
    }

    #[test]
    fn events_serialize_externally_tagged() {
        let e = FlowEvent::PhaseStarted {
            phase: FlowPhase::Hls,
        };
        let v = serde_json::to_value(&e);
        assert_eq!(v["PhaseStarted"]["phase"].as_str(), Some("Hls"));

        let e = FlowEvent::HlsCacheQuery {
            kernel: "mul".into(),
            hit: true,
        };
        let v = serde_json::to_value(&e);
        assert_eq!(v["HlsCacheQuery"]["hit"].as_bool(), Some(true));
    }

    #[test]
    fn outcome_serializes_both_shapes() {
        assert_eq!(
            serde_json::to_value(&SpanOutcome::Success).as_str(),
            Some("Success")
        );
        let v = serde_json::to_value(&SpanOutcome::Failed("boom".into()));
        assert_eq!(v["Failed"].as_str(), Some("boom"));
    }

    #[test]
    fn display_is_human_readable() {
        let e = FlowEvent::PhaseEnded {
            phase: FlowPhase::Synthesis,
            outcome: SpanOutcome::Success,
            modeled_s: 12.5,
            wall_us: 42,
        };
        let s = e.to_string();
        assert!(s.contains("SYNTHESIS"), "{s}");
        assert!(s.contains("12.5"), "{s}");
    }
}
