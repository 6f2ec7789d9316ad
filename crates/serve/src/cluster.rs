//! Deterministic N-node serving cluster.
//!
//! A [`ClusterSession`] composes N [`ServeNode`]s — each owning its own
//! board pool and admission queues — under **one** integer-picosecond
//! [`Calendar`] with the total event order `(ps, node, rank, seq)`. This
//! is the serving runtime's only event loop: a standalone
//! [`crate::scheduler::ServeSession`] is a one-node cluster over a free
//! network. Jobs route to their consistent-hash home
//! ([`crate::routing::HashRing`]), cross the modeled network
//! ([`crate::net::NetModel`]) on every inter-node hop, and flow between
//! nodes three ways:
//!
//! * **load shedding** — a job whose home queue is full is forwarded
//!   once to the least-loaded alive peer; a second full queue drops it
//!   (terminal `Shed`);
//! * **work stealing** — an alive node with an idle board, empty queues
//!   and nothing already in flight toward it steals the newest job from
//!   the back of the most-loaded peer's longest queue;
//! * **failure re-dispatch** — killing a node orphans its queued and
//!   in-flight jobs; each is re-dispatched (bounded by
//!   `max_redispatch`) to the ring successor, or counted `Failed` when
//!   the budget or the cluster is exhausted.
//!
//! Client arrivals stay out of the calendar: they are pre-sorted once
//! and merged with the calendar head on the same key, so a million-job
//! run keeps only its live events queued.
//!
//! Determinism follows the PR 4 argument unchanged: the only parallel
//! stage is the pure, slot-ordered latency precompute (shared by all
//! nodes via [`SimTables`]); the event loop is sequential over a total
//! order no host thread can perturb. The same `(workload, config)`
//! yields a byte-identical [`ClusterReport`] for any `--threads`.
//!
//! **Accounting invariant** (pinned by [`ClusterReport::accounting_ok`]
//! and the cluster test suite): every submitted job reaches exactly one
//! terminal state —
//!
//! ```text
//! submitted == admitted + rejected + shed
//! admitted  == completed + completed_late + timed_out + failed
//! ```

use crate::job::{AdmissionError, JobOutcome, JobSpec};
use crate::net::NetModel;
use crate::node::{Admit, ServeNode, SimTables};
use crate::policy::PolicyKind;
use crate::queue::ActiveJob;
use crate::report::{jobs_per_s, RejectionCounts, ServeReport, TenantReport};
use crate::routing::HashRing;
use crate::scheduler::{ServeConfig, ServeError};
use accelsoc_observe::{FlowEvent, FlowObserver, TenantId};
use accelsoc_platform::sim::Calendar;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Kill node `node` at virtual time `at_ps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFailure {
    pub node: usize,
    pub at_ps: u64,
}

/// Knobs of one cluster run: per-node [`ServeConfig`]s plus the
/// cluster-level routing/stealing/failure model.
///
/// `#[non_exhaustive]`: construct with [`ClusterConfig::builder`].
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One [`ServeConfig`] per node. All nodes must share the tenant
    /// set, DRAM capacity and dispatch overhead (validated by the
    /// builder); boards, queue depth and even policy may differ.
    pub nodes: Vec<ServeConfig>,
    pub net: NetModel,
    /// Enable work-stealing between nodes.
    pub steal: bool,
    /// Enable shed-forwarding of queue-full jobs (one hop).
    pub shed: bool,
    /// Failure injections, applied in calendar order.
    pub failures: Vec<NodeFailure>,
    /// Re-dispatches allowed per job before it counts as `Failed`.
    pub max_redispatch: u32,
    /// Host threads for the shared latency precompute (no effect on
    /// results).
    pub threads: usize,
    /// Workload seed, stamped into the report.
    pub seed: u64,
    /// Keep the per-job [`ClusterJobRecord`] ledger (and per-node
    /// records). Off by default — million-job sweeps want aggregates.
    pub keep_records: bool,
}

impl ClusterConfig {
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig {
                nodes: Vec::new(),
                net: NetModel::default(),
                steal: true,
                shed: true,
                failures: Vec::new(),
                max_redispatch: 1,
                threads: 1,
                seed: 0,
                keep_records: false,
            },
        }
    }
}

/// A [`ClusterConfig`] that cannot describe a runnable cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// The cluster has no nodes.
    NoNodes,
    /// Node `node`'s tenant list differs from node 0's — routing is
    /// cluster-wide, so every node must know every tenant.
    TenantMismatch { node: usize },
    /// Node `node`'s board DRAM / FIFO knobs or dispatch overhead
    /// differ from node 0's — the shared latency tables assume one
    /// board model.
    BoardModelMismatch { node: usize },
    /// A failure injection names a node outside the cluster.
    BadFailureNode { node: usize, nodes: usize },
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::NoNodes => write!(f, "cluster needs at least one node"),
            ClusterConfigError::TenantMismatch { node } => {
                write!(f, "node {node} has a different tenant list than node 0")
            }
            ClusterConfigError::BoardModelMismatch { node } => {
                write!(f, "node {node} has a different board model than node 0")
            }
            ClusterConfigError::BadFailureNode { node, nodes } => {
                write!(
                    f,
                    "failure injection names node {node}, cluster has {nodes}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterConfigError {}

/// Chained-setter builder for [`ClusterConfig`]; `build` validates.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Append one node.
    pub fn node(mut self, cfg: ServeConfig) -> Self {
        self.cfg.nodes.push(cfg);
        self
    }

    /// Replace the node list with `n` copies of `template`.
    pub fn nodes(mut self, n: usize, template: &ServeConfig) -> Self {
        self.cfg.nodes = (0..n).map(|_| template.clone()).collect();
        self
    }

    pub fn net(mut self, net: NetModel) -> Self {
        self.cfg.net = net;
        self
    }

    pub fn steal(mut self, on: bool) -> Self {
        self.cfg.steal = on;
        self
    }

    pub fn shed(mut self, on: bool) -> Self {
        self.cfg.shed = on;
        self
    }

    /// Inject a node failure at `at_ps`.
    pub fn fail_node(mut self, node: usize, at_ps: u64) -> Self {
        self.cfg.failures.push(NodeFailure { node, at_ps });
        self
    }

    pub fn max_redispatch(mut self, n: u32) -> Self {
        self.cfg.max_redispatch = n;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn keep_records(mut self, keep: bool) -> Self {
        self.cfg.keep_records = keep;
        self
    }

    pub fn build(self) -> Result<ClusterConfig, ClusterConfigError> {
        let cfg = self.cfg;
        let Some(first) = cfg.nodes.first() else {
            return Err(ClusterConfigError::NoNodes);
        };
        for (i, n) in cfg.nodes.iter().enumerate().skip(1) {
            if n.tenants != first.tenants {
                return Err(ClusterConfigError::TenantMismatch { node: i });
            }
            if n.app.dram_bytes != first.app.dram_bytes
                || n.app.stream_fifo_depth != first.app.stream_fifo_depth
                || n.dispatch_overhead_ps != first.dispatch_overhead_ps
            {
                return Err(ClusterConfigError::BoardModelMismatch { node: i });
            }
        }
        for f in &cfg.failures {
            if f.node >= cfg.nodes.len() {
                return Err(ClusterConfigError::BadFailureNode {
                    node: f.node,
                    nodes: cfg.nodes.len(),
                });
            }
        }
        Ok(cfg)
    }
}

/// Terminal state of one job, cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterOutcome {
    Completed,
    CompletedLate,
    TimedOut,
    Rejected,
    Shed,
    Failed,
}

/// One ledger entry: where and how a job reached its terminal state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterJobRecord {
    pub id: u64,
    pub tenant: TenantId,
    /// Node of the terminal event (`None` when the whole cluster was
    /// dead at arrival).
    pub node: Option<usize>,
    pub outcome: ClusterOutcome,
    pub finish_ps: u64,
}

/// Everything one cluster run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    pub policy: PolicyKind,
    pub seed: u64,
    pub nodes: usize,
    pub submitted: u64,
    pub admitted: u64,
    /// Terminal admission rejections (shed-reclassified queue-fulls are
    /// *not* counted here).
    pub rejected: u64,
    /// Dropped by load shedding before admission.
    pub shed: u64,
    pub completed: u64,
    pub completed_late: u64,
    pub timed_out: u64,
    /// Admitted jobs lost to node failure (budget or cluster exhausted).
    pub failed: u64,
    /// Pre-admission forwards between nodes (shed hops + dead-home
    /// re-routes).
    pub forwarded: u64,
    pub stolen: u64,
    pub redispatched: u64,
    pub node_failures: u64,
    /// Typed breakdown of the terminal `rejected` counter.
    pub rejections: RejectionCounts,
    pub makespan_ps: u64,
    pub throughput_jobs_per_s: f64,
    /// Jain fairness over per-tenant completion counts.
    pub fairness: f64,
    /// Cluster-wide per-tenant rows (shed jobs count into `rejected`).
    pub tenants: Vec<TenantReport>,
    /// Each node's local view, in node order ([`ServeNode`] reports;
    /// transfers in/out are cluster-accounted, not node-accounted).
    pub per_node: Vec<ServeReport>,
    /// Per-job terminal ledger in event order (only when
    /// `keep_records`).
    pub records: Vec<ClusterJobRecord>,
}

impl ClusterReport {
    /// The job-accounting invariant: every submitted job reached
    /// exactly one terminal state.
    pub fn accounting_ok(&self) -> bool {
        self.submitted == self.admitted + self.rejected + self.shed
            && self.admitted == self.completed + self.completed_late + self.timed_out + self.failed
    }
}

/// Calendar ranks within one `(ps, node)` instant: board completions
/// free capacity first, failures strike before new work lands, then
/// client arrivals, then inter-node deliveries.
const RANK_BATCH_DONE: u8 = 0;
const RANK_FAIL: u8 = 1;
const RANK_ARRIVE: u8 = 2;
const RANK_DELIVER: u8 = 3;

/// The cluster calendar: events ordered `(ps, node, rank, seq)`.
type ClusterCalendar = Calendar<(u32, u8), CEv>;

enum DeliverKind {
    /// Pre-admission forward of job index `idx`; `hops` counts shed
    /// forwards already taken (a second full queue is terminal).
    Forward { idx: u32, hops: u8 },
    /// A stolen job in transit to its thief.
    Steal(Box<ActiveJob>),
    /// A failure-orphaned job in transit to a survivor.
    Redispatch(Box<ActiveJob>),
}

enum CEv {
    BatchDone { node: u32, board: u32 },
    Fail { node: u32 },
    Deliver { node: u32, kind: DeliverKind },
}

/// One configured cluster: the entry point for running job streams
/// against N serve nodes. See the [module docs](self).
pub struct ClusterSession {
    cfg: ClusterConfig,
}

impl ClusterSession {
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterSession { cfg }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Run the cluster over an arrival-ordered job stream.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        observer: &dyn FlowObserver,
    ) -> Result<ClusterReport, ServeError> {
        let cfg = &self.cfg;
        let n_nodes = cfg.nodes.len();
        assert!(n_nodes >= 1, "ClusterConfig::builder validates >= 1 node");

        // Shared precompute: one table set for every node (node 0's
        // board model — the builder validated homogeneity).
        let tables = Arc::new(SimTables::build(jobs, &cfg.nodes[0], cfg.threads)?);
        let mut nodes: Vec<ServeNode> = cfg
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node_cfg)| {
                let mut node_cfg = node_cfg.clone();
                node_cfg.seed = cfg.seed;
                node_cfg.keep_records = cfg.keep_records;
                ServeNode::new(i, node_cfg, Arc::clone(&tables))
            })
            .collect();
        let ring = HashRing::new(n_nodes);
        let mut alive = vec![true; n_nodes];
        let mut alive_count = n_nodes;

        // Cluster-wide tenant registry (node 0's tenant order).
        let tenant_ids: Vec<TenantId> = cfg.nodes[0]
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantId::new(i as u32, t.as_str()))
            .collect();
        let tenant_lookup: HashMap<&str, usize> = cfg.nodes[0]
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i))
            .collect();
        let resolve = |t: &TenantId| -> Option<usize> {
            let i = t.index() as usize;
            if i < tenant_ids.len() && tenant_ids[i].name() == t.name() {
                return Some(i);
            }
            tenant_lookup.get(t.name()).copied()
        };

        // Arrivals stay out of the calendar: indices pre-sorted by
        // `(ps, node, rank)`, then job index as their sequence number,
        // keep a million-job calendar at O(live events). The calendar
        // never holds `RANK_ARRIVE`, so comparing `(ps, node, rank)`
        // against its head totally orders the merge.
        let home: Vec<u32> = jobs.iter().map(|j| ring.home(&j.tenant) as u32).collect();
        let arrive_key = |i: usize| -> (u64, u32, u8) {
            (jobs[i].submit_ps + cfg.net.ingress_ps, home[i], RANK_ARRIVE)
        };
        let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (arrive_key(i as usize), i));
        let mut cursor = 0usize;

        let mut calendar = ClusterCalendar::new();
        for f in &cfg.failures {
            calendar.push(
                f.at_ps,
                (f.node as u32, RANK_FAIL),
                CEv::Fail {
                    node: f.node as u32,
                },
            );
        }

        // --- cluster tallies ---------------------------------------------
        let n_tenants = tenant_ids.len();
        let mut submitted = 0u64;
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut shed = 0u64;
        let mut completed = 0u64;
        let mut completed_late = 0u64;
        let mut timed_out = 0u64;
        let mut failed = 0u64;
        let mut forwarded = 0u64;
        let mut stolen = 0u64;
        let mut redispatched = 0u64;
        let mut node_failures = 0u64;
        let mut rejections = RejectionCounts::default();
        let mut makespan_ps = 0u64;
        let mut t_submitted = vec![0u64; n_tenants];
        let mut t_rejected = vec![0u64; n_tenants];
        let mut t_missed = vec![0u64; n_tenants];
        let mut t_latencies: Vec<Vec<u64>> = vec![Vec::new(); n_tenants];
        let mut records: Vec<ClusterJobRecord> = Vec::new();

        // Job `idx`, carrying `hops` shed forwards, found node `from`
        // dead on delivery: re-route it along the ring, or drop it
        // unadmitted when the whole cluster is dead.
        macro_rules! reroute {
            ($from:expr, $idx:expr, $hops:expr, $now_ps:expr) => {{
                let (from, idx, now_ps): (usize, u32, u64) = ($from, $idx, $now_ps);
                let job = &jobs[idx as usize];
                match ring.successor(from, &alive) {
                    Some(t2) => {
                        forwarded += 1;
                        observer.on_event(&FlowEvent::JobForwarded {
                            job: job.id,
                            tenant: job.tenant.clone(),
                            from_node: from,
                            to_node: t2,
                        });
                        nodes[t2].pending_incoming += 1;
                        calendar.push(
                            now_ps + cfg.net.forward_ps,
                            (t2 as u32, RANK_DELIVER),
                            CEv::Deliver {
                                node: t2 as u32,
                                kind: DeliverKind::Forward { idx, hops: $hops },
                            },
                        );
                    }
                    None => {
                        shed += 1;
                        observer.on_event(&FlowEvent::JobShed {
                            job: job.id,
                            tenant: job.tenant.clone(),
                            node: from,
                        });
                        if cfg.keep_records {
                            records.push(ClusterJobRecord {
                                id: job.id,
                                tenant: job.tenant.clone(),
                                node: None,
                                outcome: ClusterOutcome::Shed,
                                finish_ps: now_ps,
                            });
                        }
                    }
                }
            }};
        }

        let mut sched_buf: Vec<(usize, u64)> = Vec::new();
        loop {
            // Merge the arrival cursor with the live-event calendar on
            // the total key order.
            let next_arrival = order.get(cursor).map(|&i| arrive_key(i as usize));
            let use_arrival = match (next_arrival, calendar.peek()) {
                (Some(a), Some((ps, &(node, rank)))) => a < (ps, node, rank),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };

            // Nodes touched by this event, serviced (dispatch + outcome
            // drain + steal scan) below.
            let mut touched: Option<usize> = None;
            let now_ps;

            if use_arrival {
                let i = order[cursor] as usize;
                cursor += 1;
                now_ps = arrive_key(i).0;
                let job = &jobs[i];
                submitted += 1;
                if let Some(ti) = resolve(&job.tenant) {
                    t_submitted[ti] += 1;
                }
                let target = home[i] as usize;
                if alive[target] {
                    touched = Some(target);
                    Self::deliver(
                        cfg,
                        jobs,
                        &mut nodes,
                        &alive,
                        alive_count,
                        target,
                        i,
                        0,
                        now_ps,
                        observer,
                        &mut calendar,
                        &mut admitted,
                        &mut rejected,
                        &mut shed,
                        &mut forwarded,
                        &mut rejections,
                        &mut t_rejected,
                        &resolve,
                        cfg.keep_records.then_some(&mut records),
                    );
                } else {
                    reroute!(target, i as u32, 0, now_ps);
                }
            } else {
                let (ps, ev) = calendar.pop().expect("peeked above");
                now_ps = ps;
                match ev {
                    CEv::BatchDone { node, board } => {
                        let node = node as usize;
                        if alive[node] {
                            nodes[node].batch_done(board as usize, observer);
                            touched = Some(node);
                        }
                    }
                    CEv::Fail { node } => {
                        let node = node as usize;
                        if alive[node] {
                            alive[node] = false;
                            alive_count -= 1;
                            node_failures += 1;
                            let orphans = nodes[node].fail(now_ps, observer);
                            for job in orphans {
                                Self::redispatch(
                                    cfg,
                                    &mut nodes,
                                    &ring,
                                    &alive,
                                    node,
                                    job,
                                    now_ps,
                                    observer,
                                    &mut calendar,
                                    &mut failed,
                                    &mut redispatched,
                                    cfg.keep_records.then_some(&mut records),
                                );
                            }
                        }
                    }
                    CEv::Deliver { node, kind } => {
                        let node = node as usize;
                        nodes[node].pending_incoming -= 1;
                        match kind {
                            DeliverKind::Forward { idx, hops } => {
                                if alive[node] {
                                    touched = Some(node);
                                    Self::deliver(
                                        cfg,
                                        jobs,
                                        &mut nodes,
                                        &alive,
                                        alive_count,
                                        node,
                                        idx as usize,
                                        hops + 1,
                                        now_ps,
                                        observer,
                                        &mut calendar,
                                        &mut admitted,
                                        &mut rejected,
                                        &mut shed,
                                        &mut forwarded,
                                        &mut rejections,
                                        &mut t_rejected,
                                        &resolve,
                                        cfg.keep_records.then_some(&mut records),
                                    );
                                } else {
                                    reroute!(node, idx, hops, now_ps);
                                }
                            }
                            DeliverKind::Steal(job) | DeliverKind::Redispatch(job)
                                if !alive[node] =>
                            {
                                // The receiver died mid-transfer: the job
                                // is orphaned again.
                                Self::redispatch(
                                    cfg,
                                    &mut nodes,
                                    &ring,
                                    &alive,
                                    node,
                                    *job,
                                    now_ps,
                                    observer,
                                    &mut calendar,
                                    &mut failed,
                                    &mut redispatched,
                                    cfg.keep_records.then_some(&mut records),
                                );
                            }
                            DeliverKind::Steal(job) => {
                                nodes[node].transfer_in(*job, false);
                                touched = Some(node);
                            }
                            DeliverKind::Redispatch(job) => {
                                nodes[node].transfer_in(*job, true);
                                touched = Some(node);
                            }
                        }
                    }
                }
            }

            // Service the touched node: dispatch freed capacity, then
            // drain terminal outcomes into the cluster tallies.
            if let Some(id) = touched {
                if alive[id] {
                    nodes[id].dispatch(now_ps, observer, &mut sched_buf);
                    for (board, done_ps) in sched_buf.drain(..) {
                        calendar.push(
                            done_ps,
                            (id as u32, RANK_BATCH_DONE),
                            CEv::BatchDone {
                                node: id as u32,
                                board: board as u32,
                            },
                        );
                    }
                }
                for rec in nodes[id].drain_outcomes() {
                    makespan_ps = makespan_ps.max(rec.finish_ps);
                    let outcome = match rec.outcome {
                        JobOutcome::Completed => {
                            completed += 1;
                            ClusterOutcome::Completed
                        }
                        JobOutcome::CompletedLate => {
                            completed_late += 1;
                            ClusterOutcome::CompletedLate
                        }
                        JobOutcome::TimedOut => {
                            timed_out += 1;
                            ClusterOutcome::TimedOut
                        }
                    };
                    if let Some(ti) = resolve(&rec.tenant) {
                        match outcome {
                            ClusterOutcome::Completed => t_latencies[ti].push(rec.latency_ps),
                            ClusterOutcome::CompletedLate => {
                                t_latencies[ti].push(rec.latency_ps);
                                t_missed[ti] += 1;
                            }
                            ClusterOutcome::TimedOut => t_missed[ti] += 1,
                            _ => unreachable!("node outcomes are completions"),
                        }
                    }
                    if cfg.keep_records {
                        records.push(ClusterJobRecord {
                            id: rec.id,
                            tenant: rec.tenant.clone(),
                            node: Some(id),
                            outcome,
                            finish_ps: rec.finish_ps,
                        });
                    }
                }
            }

            // Work-stealing scan: idle, empty, nothing inbound → steal
            // the newest job from the most-loaded alive peer.
            if cfg.steal && alive_count >= 2 {
                for thief in 0..n_nodes {
                    if !alive[thief]
                        || nodes[thief].pending_incoming > 0
                        || nodes[thief].idle_boards() == 0
                        || nodes[thief].queued_total() > 0
                    {
                        continue;
                    }
                    let mut victim: Option<(usize, usize)> = None; // (queued, id)
                    for v in 0..n_nodes {
                        if v == thief || !alive[v] {
                            continue;
                        }
                        let q = nodes[v].queued_total();
                        if q > victim.map_or(0, |(q, _)| q) {
                            victim = Some((q, v));
                        }
                    }
                    let Some((_, v)) = victim else { continue };
                    let Some(job) = nodes[v].steal_out() else {
                        continue;
                    };
                    stolen += 1;
                    observer.on_event(&FlowEvent::JobStolen {
                        job: job.spec.id,
                        tenant: job.spec.tenant.clone(),
                        from_node: v,
                        to_node: thief,
                    });
                    nodes[thief].pending_incoming += 1;
                    calendar.push(
                        now_ps + cfg.net.steal_ps,
                        (thief as u32, RANK_DELIVER),
                        CEv::Deliver {
                            node: thief as u32,
                            kind: DeliverKind::Steal(Box::new(job)),
                        },
                    );
                }
            }
        }

        // --- fold into the report ----------------------------------------
        let tenants: Vec<TenantReport> = tenant_ids
            .iter()
            .enumerate()
            .map(|(i, t)| {
                TenantReport::new(
                    t.clone(),
                    t_submitted[i],
                    t_rejected[i],
                    t_missed[i],
                    &t_latencies[i],
                )
            })
            .collect();
        let throughput_jobs_per_s = jobs_per_s(completed + completed_late, makespan_ps);
        let fairness = ServeReport::jain_fairness(&tenants);
        Ok(ClusterReport {
            policy: cfg.nodes[0].policy,
            seed: cfg.seed,
            nodes: n_nodes,
            submitted,
            admitted,
            rejected,
            shed,
            completed,
            completed_late,
            timed_out,
            failed,
            forwarded,
            stolen,
            redispatched,
            node_failures,
            rejections,
            makespan_ps,
            throughput_jobs_per_s,
            fairness,
            tenants,
            per_node: nodes.into_iter().map(ServeNode::into_report).collect(),
            records,
        })
    }

    /// Deliver job `idx` to `node`'s admission control. `hops` counts
    /// shed forwards already taken: hop 0 may bounce a queue-full job to
    /// the least-loaded peer; hop 1's queue-full is terminal `Shed`.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        cfg: &ClusterConfig,
        jobs: &[JobSpec],
        nodes: &mut [ServeNode],
        alive: &[bool],
        alive_count: usize,
        node: usize,
        idx: usize,
        hops: u8,
        now_ps: u64,
        observer: &dyn FlowObserver,
        calendar: &mut ClusterCalendar,
        admitted: &mut u64,
        rejected: &mut u64,
        shed: &mut u64,
        forwarded: &mut u64,
        rejections: &mut RejectionCounts,
        t_rejected: &mut [u64],
        resolve: &dyn Fn(&TenantId) -> Option<usize>,
        mut records: Option<&mut Vec<ClusterJobRecord>>,
    ) {
        let job = &jobs[idx];
        let job_id = job.id;
        let job_tenant = job.tenant.clone();
        let probe = cfg.shed && hops == 0 && alive_count >= 2;
        match nodes[node].admit(job, now_ps, probe, observer) {
            Admit::Queued(_) => *admitted += 1,
            Admit::Rejected(err) => {
                if hops > 0 && matches!(err, AdmissionError::QueueFull { .. }) {
                    // The forwarded hop also found a full queue: shed.
                    *shed += 1;
                    observer.on_event(&FlowEvent::JobShed {
                        job: job_id,
                        tenant: job_tenant.clone(),
                        node,
                    });
                    if let Some(records) = records.as_deref_mut() {
                        records.push(ClusterJobRecord {
                            id: job_id,
                            tenant: job_tenant,
                            node: Some(node),
                            outcome: ClusterOutcome::Shed,
                            finish_ps: now_ps,
                        });
                    }
                } else {
                    *rejected += 1;
                    rejections.count(&err);
                    if let Some(ti) = resolve(&job_tenant) {
                        t_rejected[ti] += 1;
                    }
                    if let Some(records) = records {
                        records.push(ClusterJobRecord {
                            id: job_id,
                            tenant: job_tenant,
                            node: Some(node),
                            outcome: ClusterOutcome::Rejected,
                            finish_ps: now_ps,
                        });
                    }
                }
            }
            Admit::WouldOverflow => {
                // Least-loaded alive peer (queued + inbound, id as
                // tie-break) takes the bounce.
                let target = (0..nodes.len())
                    .filter(|&v| v != node && alive[v])
                    .min_by_key(|&v| {
                        (
                            nodes[v].queued_total() + nodes[v].pending_incoming as usize,
                            v,
                        )
                    })
                    .expect("alive_count >= 2 checked by probe");
                *forwarded += 1;
                observer.on_event(&FlowEvent::JobForwarded {
                    job: job_id,
                    tenant: job_tenant,
                    from_node: node,
                    to_node: target,
                });
                nodes[target].pending_incoming += 1;
                calendar.push(
                    now_ps + cfg.net.forward_ps,
                    (target as u32, RANK_DELIVER),
                    CEv::Deliver {
                        node: target as u32,
                        kind: DeliverKind::Forward {
                            idx: idx as u32,
                            hops: 1,
                        },
                    },
                );
            }
        }
    }

    /// Re-dispatch a failure-orphaned job, or count it `Failed` when
    /// the budget or the cluster is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn redispatch(
        cfg: &ClusterConfig,
        nodes: &mut [ServeNode],
        ring: &HashRing,
        alive: &[bool],
        from_node: usize,
        mut job: ActiveJob,
        now_ps: u64,
        observer: &dyn FlowObserver,
        calendar: &mut ClusterCalendar,
        failed: &mut u64,
        redispatched: &mut u64,
        records: Option<&mut Vec<ClusterJobRecord>>,
    ) {
        job.redispatches += 1;
        let target = if job.redispatches > cfg.max_redispatch {
            None
        } else {
            ring.route(&job.spec.tenant, alive)
        };
        match target {
            Some(t) => {
                *redispatched += 1;
                observer.on_event(&FlowEvent::JobRedispatched {
                    job: job.spec.id,
                    tenant: job.spec.tenant.clone(),
                    from_node,
                    to_node: t,
                });
                nodes[t].pending_incoming += 1;
                calendar.push(
                    now_ps + cfg.net.redispatch_ps,
                    (t as u32, RANK_DELIVER),
                    CEv::Deliver {
                        node: t as u32,
                        kind: DeliverKind::Redispatch(Box::new(job)),
                    },
                );
            }
            None => {
                *failed += 1;
                observer.on_event(&FlowEvent::JobFailed {
                    job: job.spec.id,
                    tenant: job.spec.tenant.clone(),
                    node: from_node,
                });
                if let Some(records) = records {
                    records.push(ClusterJobRecord {
                        id: job.spec.id,
                        tenant: job.spec.tenant.clone(),
                        node: Some(from_node),
                        outcome: ClusterOutcome::Failed,
                        finish_ps: now_ps,
                    });
                }
            }
        }
    }
}
