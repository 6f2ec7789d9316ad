//! Aggregated flow metrics: the event stream folded into one summary,
//! embedded in `FlowArtifacts` after every run.

use crate::event::{FlowEvent, FlowPhase};
use crate::observer::FlowObserver;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// One completed phase span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMetric {
    pub phase: FlowPhase,
    /// Modeled vendor-tool seconds (paper scale).
    pub modeled_s: f64,
    /// Measured wall time of our simulated tool, in microseconds.
    pub wall_us: u64,
    pub ok: bool,
}

/// Everything the observer bus learned during one flow run, folded down
/// to counters and totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowMetrics {
    /// Completed phase spans, in completion order.
    pub phases: Vec<PhaseMetric>,
    pub hls_cache_hits: u64,
    pub hls_cache_misses: u64,
    /// Subset of `hls_cache_hits` satisfied from the persistent (disk)
    /// tier rather than the in-memory map.
    pub hls_persisted_hits: u64,
    /// Persistent cache entries rejected as corrupt/stale (each was
    /// treated as a miss).
    pub hls_cache_corrupt: u64,
    /// Results written to the persistent tier.
    pub hls_cache_stored: u64,
    pub kernels_synthesized: u64,
    /// Kernels lowered to VM bytecode (one per registered kernel per
    /// flow engine when compiled code is reused; higher means
    /// recompilation churn).
    pub kernel_compiles: u64,
    /// Execution-unit fetches that found the kernel already compiled.
    pub vm_compile_hits: u64,
    /// Execution-unit fetches that had to compile (== `kernel_compiles`
    /// when all compiles go through the flow engine).
    pub vm_compile_misses: u64,
    /// Simulated-annealing temperature steps the placer reported.
    pub placement_steps: u64,
    /// Final half-perimeter wirelength after placement.
    pub placement_hpwl: u64,
    pub route_wirelength: u64,
    pub route_congestion: f64,
    pub timing_fmax_mhz: f64,
    pub timing_met: bool,
    /// Streaming phases the platform simulator completed.
    pub sim_phases: u64,
    /// Subset of `sim_phases` whose timing the phase-timing memo reused
    /// instead of simulating.
    pub sim_phases_reused: u64,
    pub sim_bytes_in: u64,
    pub sim_bytes_out: u64,
    pub sim_dma_bursts: u64,
    pub sim_bus_stall_cycles: u64,
    /// Producer-side FIFO-full stall cycles across simulated phases.
    pub sim_backpressure_stall_cycles: u64,
    /// Consumer-side FIFO-empty stall cycles across simulated phases.
    pub sim_starvation_stall_cycles: u64,
    /// Serving runtime: jobs that passed admission control.
    pub jobs_admitted: u64,
    /// Serving runtime: jobs refused at admission (any reason).
    pub jobs_rejected: u64,
    /// Serving runtime: queue-to-board dispatches (retries re-count).
    pub jobs_dispatched: u64,
    /// Serving runtime: jobs that completed within their deadline.
    pub jobs_completed: u64,
    /// Serving runtime: transient-fault retries.
    pub jobs_retried: u64,
    /// Serving runtime: deadline misses (queue expiry or late finish).
    pub jobs_deadline_missed: u64,
    /// Cluster: pre-admission forwards between nodes (dead home or shed
    /// hop).
    pub jobs_forwarded: u64,
    /// Cluster: queued jobs stolen by idle nodes.
    pub jobs_stolen: u64,
    /// Cluster: jobs dropped by load shedding before admission.
    pub jobs_shed: u64,
    /// Cluster: admitted jobs re-dispatched off a failed node.
    pub jobs_redispatched: u64,
    /// Cluster: admitted jobs lost to node failure.
    pub jobs_failed: u64,
    /// Cluster: node failure injections that fired.
    pub node_failures: u64,
    /// Serving runtime: completed-job latencies per tenant, in
    /// completion order (tenants in first-completion order). Folded from
    /// `JobCompleted`; percentiles via [`FlowMetrics::tenant_latency_ps`].
    pub serve_tenant_latency_ps: Vec<(String, Vec<u64>)>,
    /// Multi-board: partitioning passes that produced a board plan.
    pub partitions_planned: u64,
    /// Multi-board: boards in the most recent plan.
    pub partition_boards: u64,
    /// Multi-board: cut edges in the most recent plan.
    pub partition_cut_edges: u64,
    /// Multi-board: co-simulations completed.
    pub multiboard_sims: u64,
    /// Multi-board: total modeled link-stall nanoseconds across sims.
    pub multiboard_link_stall_ns: f64,
}

/// Nearest-rank percentile of a sample set (`p` in 0..=100). Integer
/// picoseconds in, integer picoseconds out — no float ordering anywhere.
pub fn percentile_ps(samples: &[u64], p: u32) -> u64 {
    nearest_rank(&mut samples.to_vec(), p)
}

/// Nearest-rank percentile (`p` in 0..=100) selected in place: the value
/// `sorted[ceil(p·n/100).max(1) − 1]` would hold, found in O(n) by
/// `select_nth_unstable` instead of a sort. Reorders `samples`; 0 for an
/// empty set.
pub fn nearest_rank(samples: &mut [u64], p: u32) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = (p as usize * samples.len()).div_ceil(100).max(1);
    *samples.select_nth_unstable(rank.min(samples.len()) - 1).1
}

impl FlowMetrics {
    /// Sum of modeled seconds across all completed phase spans — by
    /// construction equal to `FlowArtifacts::modeled_total_seconds()`.
    pub fn modeled_total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.modeled_s).sum()
    }

    /// Completed-job latency percentile for one tenant (nearest rank;
    /// `p` in 0..=100). Returns `None` for a tenant with no completions.
    pub fn tenant_latency_ps(&self, tenant: &str, p: u32) -> Option<u64> {
        self.serve_tenant_latency_ps
            .iter()
            .find(|(t, _)| t == tenant)
            .filter(|(_, v)| !v.is_empty())
            .map(|(_, v)| percentile_ps(v, p))
    }

    /// Modeled seconds spent in one phase (summed over repeated spans).
    pub fn phase_modeled_seconds(&self, phase: FlowPhase) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .map(|p| p.modeled_s)
            .sum()
    }

    /// Fold one event into the summary.
    pub fn record(&mut self, event: &FlowEvent) {
        match event {
            FlowEvent::PhaseEnded {
                phase,
                outcome,
                modeled_s,
                wall_us,
            } => {
                self.phases.push(PhaseMetric {
                    phase: *phase,
                    modeled_s: *modeled_s,
                    wall_us: *wall_us,
                    ok: outcome.is_success(),
                });
            }
            FlowEvent::HlsCacheQuery { hit, .. } => {
                if *hit {
                    self.hls_cache_hits += 1;
                } else {
                    self.hls_cache_misses += 1;
                }
            }
            FlowEvent::HlsCachePersistedHit { .. } => self.hls_persisted_hits += 1,
            FlowEvent::HlsCacheCorrupt { .. } => self.hls_cache_corrupt += 1,
            FlowEvent::HlsCacheStored { .. } => self.hls_cache_stored += 1,
            FlowEvent::HlsKernelSynthesized { .. } => self.kernels_synthesized += 1,
            FlowEvent::KernelCompiled { .. } => {
                self.kernel_compiles += 1;
                self.vm_compile_misses += 1;
            }
            FlowEvent::KernelVmCacheHit { .. } => self.vm_compile_hits += 1,
            FlowEvent::PlacementProgress { .. } => self.placement_steps += 1,
            FlowEvent::PlacementDone { hpwl, .. } => self.placement_hpwl = *hpwl,
            FlowEvent::RouteDone {
                total_wirelength,
                congestion,
                ..
            } => {
                self.route_wirelength = *total_wirelength;
                self.route_congestion = *congestion;
            }
            FlowEvent::TimingDone { fmax_mhz, met, .. } => {
                self.timing_fmax_mhz = *fmax_mhz;
                self.timing_met = *met;
            }
            FlowEvent::SimPhaseDone {
                bytes_in,
                bytes_out,
                dma_bursts,
                bus_stall_cycles,
                backpressure_stall_cycles,
                starvation_stall_cycles,
                timing_reused,
                ..
            } => {
                self.sim_phases += 1;
                self.sim_phases_reused += *timing_reused as u64;
                self.sim_bytes_in += bytes_in;
                self.sim_bytes_out += bytes_out;
                self.sim_dma_bursts += dma_bursts;
                self.sim_bus_stall_cycles += bus_stall_cycles;
                self.sim_backpressure_stall_cycles += backpressure_stall_cycles;
                self.sim_starvation_stall_cycles += starvation_stall_cycles;
            }
            FlowEvent::JobAdmitted { .. } => self.jobs_admitted += 1,
            FlowEvent::JobRejected { .. } => self.jobs_rejected += 1,
            FlowEvent::JobDispatched { .. } => self.jobs_dispatched += 1,
            FlowEvent::JobCompleted {
                tenant, latency_ps, ..
            } => {
                self.jobs_completed += 1;
                match self
                    .serve_tenant_latency_ps
                    .iter_mut()
                    .find(|(t, _)| tenant == t.as_str())
                {
                    Some((_, v)) => v.push(*latency_ps),
                    None => self
                        .serve_tenant_latency_ps
                        .push((tenant.name().to_string(), vec![*latency_ps])),
                }
            }
            FlowEvent::JobRetried { .. } => self.jobs_retried += 1,
            FlowEvent::JobDeadlineMissed { .. } => self.jobs_deadline_missed += 1,
            FlowEvent::JobForwarded { .. } => self.jobs_forwarded += 1,
            FlowEvent::JobStolen { .. } => self.jobs_stolen += 1,
            FlowEvent::JobShed { .. } => self.jobs_shed += 1,
            FlowEvent::JobRedispatched { .. } => self.jobs_redispatched += 1,
            FlowEvent::JobFailed { .. } => self.jobs_failed += 1,
            FlowEvent::NodeFailed { .. } => self.node_failures += 1,
            FlowEvent::PartitionPlanned {
                boards, cut_edges, ..
            } => {
                self.partitions_planned += 1;
                self.partition_boards = *boards as u64;
                self.partition_cut_edges = *cut_edges as u64;
            }
            FlowEvent::MultiBoardSimDone { link_stall_ns, .. } => {
                self.multiboard_sims += 1;
                self.multiboard_link_stall_ns += link_stall_ns;
            }
            FlowEvent::FlowStarted { .. }
            | FlowEvent::FlowFinished { .. }
            | FlowEvent::PhaseStarted { .. }
            | FlowEvent::SynthesisDone { .. } => {}
        }
    }
}

/// Observer that folds the stream into a [`FlowMetrics`] as it arrives.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    inner: Mutex<FlowMetrics>,
}

impl MetricsObserver {
    pub fn new() -> Self {
        MetricsObserver::default()
    }

    /// Snapshot of the aggregate so far.
    pub fn snapshot(&self) -> FlowMetrics {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl FlowObserver for MetricsObserver {
    fn on_event(&self, event: &FlowEvent) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanOutcome;

    #[test]
    fn phases_sum_to_modeled_total() {
        let mut m = FlowMetrics::default();
        for (phase, s) in [(FlowPhase::Hls, 221.8), (FlowPhase::Synthesis, 30.0)] {
            m.record(&FlowEvent::PhaseEnded {
                phase,
                outcome: SpanOutcome::Success,
                modeled_s: s,
                wall_us: 1,
            });
        }
        assert!((m.modeled_total_seconds() - 251.8).abs() < 1e-9);
        assert_eq!(m.phase_modeled_seconds(FlowPhase::Hls), 221.8);
        assert_eq!(m.phase_modeled_seconds(FlowPhase::SwGen), 0.0);
    }

    #[test]
    fn cache_and_sim_counters_accumulate() {
        let obs = MetricsObserver::new();
        obs.on_event(&FlowEvent::HlsCacheQuery {
            kernel: "a".into(),
            hit: true,
        });
        obs.on_event(&FlowEvent::HlsCacheQuery {
            kernel: "b".into(),
            hit: false,
        });
        for timing_reused in [false, true, true] {
            obs.on_event(&FlowEvent::SimPhaseDone {
                label: "phase".into(),
                ns: 100.0,
                fill_cycles: 3,
                steady_cycles: 7,
                bytes_in: 64,
                bytes_out: 32,
                dma_bursts: 4,
                bus_stall_cycles: 5,
                backpressure_stall_cycles: 11,
                starvation_stall_cycles: 2,
                timing_reused,
            });
        }
        let m = obs.snapshot();
        assert_eq!((m.hls_cache_hits, m.hls_cache_misses), (1, 1));
        assert_eq!(m.sim_phases, 3);
        // A reused phase still counts its traffic and stalls.
        assert_eq!(m.sim_phases_reused, 2);
        assert_eq!(m.sim_bytes_in, 192);
        assert_eq!(m.sim_dma_bursts, 12);
        assert_eq!(m.sim_bus_stall_cycles, 15);
        assert_eq!(m.sim_backpressure_stall_cycles, 33);
        assert_eq!(m.sim_starvation_stall_cycles, 6);
    }

    #[test]
    fn persisted_tier_counters_accumulate() {
        let mut m = FlowMetrics::default();
        m.record(&FlowEvent::HlsCachePersistedHit {
            kernel: "k".into(),
            key: "deadbeef".into(),
        });
        m.record(&FlowEvent::HlsCacheCorrupt {
            path: "/tmp/x.json".into(),
            reason: "truncated".into(),
        });
        m.record(&FlowEvent::HlsCacheStored {
            kernel: "k".into(),
            key: "deadbeef".into(),
        });
        assert_eq!(m.hls_persisted_hits, 1);
        assert_eq!(m.hls_cache_corrupt, 1);
        assert_eq!(m.hls_cache_stored, 1);
        m.record(&FlowEvent::KernelCompiled { kernel: "k".into() });
        m.record(&FlowEvent::KernelCompiled {
            kernel: "k2".into(),
        });
        assert_eq!(m.kernel_compiles, 2);
        // A persisted hit is reported *alongside* the ordinary query
        // event, so it does not itself bump hit/miss counters.
        assert_eq!((m.hls_cache_hits, m.hls_cache_misses), (0, 0));
    }

    #[test]
    fn implementation_results_overwrite_not_accumulate() {
        let mut m = FlowMetrics::default();
        m.record(&FlowEvent::PlacementDone {
            cells: 4,
            hpwl: 900,
            moves: 100,
        });
        m.record(&FlowEvent::PlacementDone {
            cells: 4,
            hpwl: 700,
            moves: 100,
        });
        m.record(&FlowEvent::TimingDone {
            target_ns: 10.0,
            achieved_ns: 8.0,
            slack_ns: 2.0,
            fmax_mhz: 125.0,
            met: true,
        });
        assert_eq!(m.placement_hpwl, 700);
        assert!(m.timing_met);
        assert_eq!(m.timing_fmax_mhz, 125.0);
    }

    #[test]
    fn serve_counters_and_tenant_latencies_fold() {
        let mut m = FlowMetrics::default();
        m.record(&FlowEvent::JobAdmitted {
            job: 1,
            tenant: "a".into(),
            node: 0,
            est_ns: 100.0,
        });
        m.record(&FlowEvent::JobRejected {
            job: 2,
            tenant: "b".into(),
            node: 0,
            reason: "QueueFull".into(),
        });
        m.record(&FlowEvent::JobDispatched {
            job: 1,
            tenant: "a".into(),
            node: 0,
            board: 0,
            batch: 1,
            at_ps: 10,
        });
        for (job, lat) in [(1u64, 500u64), (3, 700), (4, 900)] {
            m.record(&FlowEvent::JobCompleted {
                job,
                tenant: "a".into(),
                node: 0,
                board: 0,
                latency_ps: lat,
            });
        }
        m.record(&FlowEvent::JobRetried {
            job: 5,
            tenant: "a".into(),
            node: 0,
            from_board: 0,
            attempt: 1,
        });
        m.record(&FlowEvent::JobDeadlineMissed {
            job: 6,
            tenant: "a".into(),
            node: 0,
            late_ps: 42,
        });
        assert_eq!(m.jobs_admitted, 1);
        assert_eq!(m.jobs_rejected, 1);
        assert_eq!(m.jobs_dispatched, 1);
        assert_eq!(m.jobs_completed, 3);
        assert_eq!(m.jobs_retried, 1);
        assert_eq!(m.jobs_deadline_missed, 1);
        assert_eq!(m.tenant_latency_ps("a", 50), Some(700));
        assert_eq!(m.tenant_latency_ps("a", 99), Some(900));
        assert_eq!(m.tenant_latency_ps("b", 50), None);
    }

    #[test]
    fn cluster_counters_fold() {
        let mut m = FlowMetrics::default();
        m.record(&FlowEvent::JobForwarded {
            job: 1,
            tenant: "a".into(),
            from_node: 0,
            to_node: 1,
        });
        m.record(&FlowEvent::JobStolen {
            job: 2,
            tenant: "a".into(),
            from_node: 1,
            to_node: 0,
        });
        m.record(&FlowEvent::JobShed {
            job: 3,
            tenant: "b".into(),
            node: 1,
        });
        m.record(&FlowEvent::JobRedispatched {
            job: 4,
            tenant: "a".into(),
            from_node: 1,
            to_node: 0,
        });
        m.record(&FlowEvent::JobFailed {
            job: 5,
            tenant: "a".into(),
            node: 1,
        });
        m.record(&FlowEvent::NodeFailed {
            node: 1,
            at_ps: 1_000,
            queued: 2,
            in_flight: 1,
        });
        assert_eq!(m.jobs_forwarded, 1);
        assert_eq!(m.jobs_stolen, 1);
        assert_eq!(m.jobs_shed, 1);
        assert_eq!(m.jobs_redispatched, 1);
        assert_eq!(m.jobs_failed, 1);
        assert_eq!(m.node_failures, 1);
    }

    #[test]
    fn percentile_is_nearest_rank_on_integers() {
        assert_eq!(percentile_ps(&[], 50), 0);
        assert_eq!(percentile_ps(&[10], 99), 10);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ps(&s, 50), 50);
        assert_eq!(percentile_ps(&s, 99), 99);
        assert_eq!(percentile_ps(&s, 100), 100);
        assert_eq!(percentile_ps(&s, 0), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The in-place selection equals the sort definition of the
        /// nearest rank, also when one buffer serves several percentiles
        /// in turn (as a report row's p50 then p99 do). Values come from
        /// a small range so duplicates are common.
        #[test]
        fn in_place_nearest_rank_matches_the_sorted_definition(
            samples in proptest::collection::vec(0u64..64, 0..=2000),
        ) {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let mut buf = samples.clone();
            for p in [0u32, 1, 50, 99, 100] {
                let want = if sorted.is_empty() {
                    0
                } else {
                    sorted[(p as usize * sorted.len()).div_ceil(100).max(1) - 1]
                };
                proptest::prop_assert_eq!(nearest_rank(&mut buf, p), want, "p{}", p);
                proptest::prop_assert_eq!(percentile_ps(&samples, p), want, "p{}", p);
            }
        }
    }

    #[test]
    fn metrics_serialize_for_artifact_embedding() {
        let mut m = FlowMetrics::default();
        m.record(&FlowEvent::HlsCacheQuery {
            kernel: "k".into(),
            hit: true,
        });
        let v = serde_json::to_value(&m);
        assert_eq!(v["hls_cache_hits"].as_u64(), Some(1));
        assert!(v["phases"].as_array().unwrap().is_empty());
    }
}
