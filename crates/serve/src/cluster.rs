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
    /// Summed over `per_node`, as are `completed`, `completed_late` and
    /// `timed_out`; `makespan_ps` is their max.
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
    /// Cluster-wide per-tenant rows. `submitted` counts arrivals and
    /// `rejected` only terminal rejections, so a shed job, which is
    /// neither rejected nor admitted by any node, still counts into its
    /// row's `admitted` (`submitted - rejected`). The rows' `admitted`
    /// can therefore sum to more than the report's `admitted`.
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
type ClusterCalendar<'a> = Calendar<(u32, u8), CEv<'a>>;

enum DeliverKind<'a> {
    /// Pre-admission forward of job index `idx`; `hops` counts shed
    /// forwards already taken (a second full queue is terminal).
    Forward { idx: u32, hops: u8 },
    /// A stolen job in transit to its thief.
    Steal(ActiveJob<'a>),
    /// A failure-orphaned job in transit to a survivor.
    Redispatch(ActiveJob<'a>),
}

enum CEv<'a> {
    BatchDone { node: u32, board: u32 },
    Fail { node: u32 },
    Deliver { node: u32, kind: DeliverKind<'a> },
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
        assert!(
            !self.cfg.nodes.is_empty(),
            "ClusterConfig::builder validates >= 1 node"
        );
        // Shared precompute: one table set for every node.
        // `ClusterConfigBuilder::build` made every node share node 0's
        // tenants, board model and dispatch overhead, so the pool size is
        // the one static-admission input that can differ: filter with the
        // widest pool (the first, on a tie), so a gang any node can admit
        // is simulated.
        let widest = self
            .cfg
            .nodes
            .iter()
            .reduce(|w, n| if n.boards > w.boards { n } else { w })
            .expect("ClusterConfig::builder validates >= 1 node");
        let tables = Arc::new(SimTables::build(jobs, widest, self.cfg.threads)?);
        Ok(ClusterRun::new(&self.cfg, jobs, observer, tables).run())
    }
}

/// One cluster run in progress: the whole state of the event loop, in
/// one value.
///
/// Who counts what: each node counts what happens on its own queues and
/// boards (admissions, completions, late completions, time-outs, their
/// latencies and the makespan), and the report folds those from the
/// nodes at the end. The run counts only what no node can see: arrivals
/// per tenant, terminal rejections, sheds, failures, forwards, steals,
/// re-dispatches and node failures.
struct ClusterRun<'a> {
    cfg: &'a ClusterConfig,
    jobs: &'a [JobSpec],
    observer: &'a dyn FlowObserver,
    nodes: Vec<ServeNode<'a>>,
    ring: HashRing,
    /// Each registered tenant's consistent-hash home node.
    tenant_home: Vec<u32>,
    alive: Vec<bool>,
    alive_count: usize,
    calendar: ClusterCalendar<'a>,
    /// Job indices in arrival order, the next one to arrive, and its
    /// merge key.
    order: Vec<u32>,
    cursor: usize,
    next_arrival: Option<(u64, u32, u8)>,
    /// Batches the last node dispatch started, as `(board, done_ps)`.
    started: Vec<(usize, u64)>,
    t_submitted: Vec<u64>,
    rejected: u64,
    rejections: RejectionCounts,
    t_rejected: Vec<u64>,
    shed: u64,
    failed: u64,
    forwarded: u64,
    stolen: u64,
    redispatched: u64,
    node_failures: u64,
    records: Vec<ClusterJobRecord>,
    /// How many of each node's own records the ledger already holds.
    node_records_seen: Vec<usize>,
}

impl<'a> ClusterRun<'a> {
    fn new(
        cfg: &'a ClusterConfig,
        jobs: &'a [JobSpec],
        observer: &'a dyn FlowObserver,
        tables: Arc<SimTables>,
    ) -> Self {
        let n_nodes = cfg.nodes.len();
        let nodes: Vec<ServeNode> = cfg
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
        let tenant_home: Vec<u32> = nodes[0]
            .tenant_ids()
            .iter()
            .map(|t| ring.home(t) as u32)
            .collect();
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
        let n_tenants = cfg.nodes[0].tenants.len();
        let mut run = ClusterRun {
            cfg,
            jobs,
            observer,
            nodes,
            ring,
            tenant_home,
            alive: vec![true; n_nodes],
            alive_count: n_nodes,
            calendar,
            order: Vec::new(),
            cursor: 0,
            next_arrival: None,
            started: Vec::new(),
            t_submitted: vec![0; n_tenants],
            rejected: 0,
            rejections: RejectionCounts::default(),
            t_rejected: vec![0; n_tenants],
            shed: 0,
            failed: 0,
            forwarded: 0,
            stolen: 0,
            redispatched: 0,
            node_failures: 0,
            records: Vec::new(),
            node_records_seen: vec![0; n_nodes],
        };
        // Arrivals stay out of the calendar: indices pre-sorted by
        // `(ps, node, rank)`, then job index as their sequence number,
        // keep a million-job calendar at O(live events). The calendar
        // never holds `RANK_ARRIVE`, so comparing `(ps, node, rank)`
        // against its head totally orders the merge.
        let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (run.arrive_key(i as usize), i));
        run.order = order;
        run.next_arrival = run.order.first().map(|&i| run.arrive_key(i as usize));
        run
    }

    /// Job `i`'s home node: its tenant's, or (for a tenant no node
    /// knows, which the home refuses) the ring's answer for the name.
    fn home(&self, i: usize) -> usize {
        let tenant = self.jobs[i].tenant;
        match self.nodes[0].resolve(tenant) {
            Some(ti) => self.tenant_home[ti] as usize,
            None => self.ring.home(&tenant),
        }
    }

    fn arrive_key(&self, i: usize) -> (u64, u32, u8) {
        (
            self.jobs[i].submit_ps + self.cfg.net.ingress_ps,
            self.home(i) as u32,
            RANK_ARRIVE,
        )
    }

    fn run(mut self) -> ClusterReport {
        loop {
            // Merge the arrival cursor with the live-event calendar on
            // the total key order.
            let use_arrival = match (self.next_arrival, self.calendar.peek()) {
                (Some(a), Some((ps, &(node, rank)))) => a < (ps, node, rank),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (now_ps, touched) = if use_arrival {
                self.arrive()
            } else {
                self.next_event()
            };
            if let Some(node) = touched {
                self.service(node, now_ps);
            }
            if self.cfg.steal && self.alive_count >= 2 {
                self.steal_scan(now_ps);
            }
        }
        self.into_report()
    }

    /// Take the next client arrival to its home node (re-routing it when
    /// the home is dead). Returns the time and the node it touched.
    fn arrive(&mut self) -> (u64, Option<usize>) {
        let i = self.order[self.cursor] as usize;
        let (now_ps, home, _) = self.next_arrival.take().expect("an arrival is due");
        self.cursor += 1;
        if let Some(&next) = self.order.get(self.cursor) {
            self.next_arrival = Some(self.arrive_key(next as usize));
        }
        if let Some(ti) = self.nodes[0].resolve(self.jobs[i].tenant) {
            self.t_submitted[ti] += 1;
        }
        let home = home as usize;
        if self.alive[home] {
            self.deliver(home, i, 0, now_ps);
            (now_ps, Some(home))
        } else {
            self.reroute(home, i as u32, 0, now_ps);
            (now_ps, None)
        }
    }

    /// Apply the calendar's next event. Returns its time and the node it
    /// touched.
    fn next_event(&mut self) -> (u64, Option<usize>) {
        let (now_ps, ev) = self.calendar.pop().expect("peeked above");
        let touched = match ev {
            CEv::BatchDone { node, board } => {
                let node = node as usize;
                if self.alive[node] {
                    self.nodes[node].batch_done(board as usize, self.observer);
                    Some(node)
                } else {
                    // Stale: the node's failure orphaned this batch.
                    None
                }
            }
            CEv::Fail { node } => {
                let node = node as usize;
                if self.alive[node] {
                    self.alive[node] = false;
                    self.alive_count -= 1;
                    self.node_failures += 1;
                    for job in self.nodes[node].fail(now_ps, self.observer) {
                        self.redispatch(node, job, now_ps);
                    }
                }
                None
            }
            CEv::Deliver { node, kind } => {
                let node = node as usize;
                self.nodes[node].pending_incoming -= 1;
                match kind {
                    DeliverKind::Forward { idx, hops } if self.alive[node] => {
                        self.deliver(node, idx as usize, hops + 1, now_ps);
                        Some(node)
                    }
                    DeliverKind::Forward { idx, hops } => {
                        self.reroute(node, idx, hops, now_ps);
                        None
                    }
                    DeliverKind::Steal(job) | DeliverKind::Redispatch(job) if !self.alive[node] => {
                        // The receiver died mid-transfer: the job is
                        // orphaned again.
                        self.redispatch(node, job, now_ps);
                        None
                    }
                    DeliverKind::Steal(job) => {
                        self.nodes[node].transfer_in(job, false);
                        Some(node)
                    }
                    DeliverKind::Redispatch(job) => {
                        self.nodes[node].transfer_in(job, true);
                        Some(node)
                    }
                }
            }
        };
        (now_ps, touched)
    }

    /// Put `kind` on the wire to node `to`, landing at `at_ps`. The
    /// receiver counts it as inbound until then, which keeps stealing
    /// away from a node that is about to get work anyway.
    fn send(&mut self, to: usize, at_ps: u64, kind: DeliverKind<'a>) {
        self.nodes[to].pending_incoming += 1;
        self.calendar.push(
            at_ps,
            (to as u32, RANK_DELIVER),
            CEv::Deliver {
                node: to as u32,
                kind,
            },
        );
    }

    /// Append a terminal outcome to the ledger when the run keeps
    /// records: the one place a [`ClusterJobRecord`] is built.
    fn record(
        &mut self,
        id: u64,
        tenant: TenantId,
        node: Option<usize>,
        outcome: ClusterOutcome,
        finish_ps: u64,
    ) {
        if self.cfg.keep_records {
            self.records.push(ClusterJobRecord {
                id,
                tenant,
                node,
                outcome,
                finish_ps,
            });
        }
    }

    /// Deliver job `idx` to `node`'s admission control. `hops` counts
    /// shed forwards already taken: hop 0 may bounce a queue-full job to
    /// the least-loaded peer; hop 1's queue-full is terminal `Shed`.
    fn deliver(&mut self, node: usize, idx: usize, hops: u8, now_ps: u64) {
        let job = &self.jobs[idx];
        let probe = self.cfg.shed && hops == 0 && self.alive_count >= 2;
        match self.nodes[node].admit(job, idx, now_ps, probe, self.observer) {
            Admit::Queued(_) => {}
            Admit::Rejected(AdmissionError::QueueFull { .. }) if hops > 0 => {
                // The forwarded hop also found a full queue: shed.
                self.shed += 1;
                self.observer.on_event(&FlowEvent::JobShed {
                    job: job.id,
                    tenant: job.tenant,
                    node,
                });
                self.record(job.id, job.tenant, Some(node), ClusterOutcome::Shed, now_ps);
            }
            Admit::Rejected(err) => {
                self.rejected += 1;
                self.rejections.count(&err);
                if let Some(ti) = self.nodes[0].resolve(job.tenant) {
                    self.t_rejected[ti] += 1;
                }
                self.record(
                    job.id,
                    job.tenant,
                    Some(node),
                    ClusterOutcome::Rejected,
                    now_ps,
                );
            }
            Admit::WouldOverflow => {
                // Least-loaded alive peer (queued + inbound, id as
                // tie-break) takes the bounce.
                let to = (0..self.nodes.len())
                    .filter(|&v| v != node && self.alive[v])
                    .min_by_key(|&v| {
                        let n = &self.nodes[v];
                        (n.queued_total() + n.pending_incoming as usize, v)
                    })
                    .expect("alive_count >= 2 checked by probe");
                self.forwarded += 1;
                self.observer.on_event(&FlowEvent::JobForwarded {
                    job: job.id,
                    tenant: job.tenant,
                    from_node: node,
                    to_node: to,
                });
                let kind = DeliverKind::Forward {
                    idx: idx as u32,
                    hops: 1,
                };
                self.send(to, now_ps + self.cfg.net.forward_ps, kind);
            }
        }
    }

    /// Job `idx`, carrying `hops` shed forwards, found node `from` dead
    /// on delivery: re-route it along the ring, or drop it unadmitted
    /// when the whole cluster is dead.
    fn reroute(&mut self, from: usize, idx: u32, hops: u8, now_ps: u64) {
        let job = &self.jobs[idx as usize];
        match self.ring.successor(from, &self.alive) {
            Some(to) => {
                self.forwarded += 1;
                self.observer.on_event(&FlowEvent::JobForwarded {
                    job: job.id,
                    tenant: job.tenant,
                    from_node: from,
                    to_node: to,
                });
                let kind = DeliverKind::Forward { idx, hops };
                self.send(to, now_ps + self.cfg.net.forward_ps, kind);
            }
            None => {
                self.shed += 1;
                self.observer.on_event(&FlowEvent::JobShed {
                    job: job.id,
                    tenant: job.tenant,
                    node: from,
                });
                self.record(job.id, job.tenant, None, ClusterOutcome::Shed, now_ps);
            }
        }
    }

    /// Re-dispatch a failure-orphaned job, or count it `Failed` when
    /// the budget or the cluster is exhausted.
    fn redispatch(&mut self, from: usize, mut job: ActiveJob<'a>, now_ps: u64) {
        job.redispatches += 1;
        let target = if job.redispatches > self.cfg.max_redispatch {
            None
        } else {
            self.ring.route(&job.spec.tenant, &self.alive)
        };
        match target {
            Some(to) => {
                self.redispatched += 1;
                self.observer.on_event(&FlowEvent::JobRedispatched {
                    job: job.spec.id,
                    tenant: job.spec.tenant,
                    from_node: from,
                    to_node: to,
                });
                let at_ps = now_ps + self.cfg.net.redispatch_ps;
                self.send(to, at_ps, DeliverKind::Redispatch(job));
            }
            None => {
                self.failed += 1;
                self.observer.on_event(&FlowEvent::JobFailed {
                    job: job.spec.id,
                    tenant: job.spec.tenant,
                    node: from,
                });
                self.record(
                    job.spec.id,
                    job.spec.tenant,
                    Some(from),
                    ClusterOutcome::Failed,
                    now_ps,
                );
            }
        }
    }

    /// Service a node an event touched: let it dispatch what its freed
    /// capacity allows, then move the completions and time-outs it
    /// recorded since its last service into the ledger.
    fn service(&mut self, id: usize, now_ps: u64) {
        if self.alive[id] {
            self.nodes[id].dispatch(now_ps, self.observer, &mut self.started);
            for (board, done_ps) in self.started.drain(..) {
                self.calendar.push(
                    done_ps,
                    (id as u32, RANK_BATCH_DONE),
                    CEv::BatchDone {
                        node: id as u32,
                        board: board as u32,
                    },
                );
            }
        }
        // A node keeps its records exactly when the ledger is kept.
        while let Some(rec) = self.nodes[id].records().get(self.node_records_seen[id]) {
            let outcome = match rec.outcome {
                JobOutcome::Completed => ClusterOutcome::Completed,
                JobOutcome::CompletedLate => ClusterOutcome::CompletedLate,
                JobOutcome::TimedOut => ClusterOutcome::TimedOut,
            };
            let (job, tenant, finish_ps) = (rec.id, rec.tenant, rec.finish_ps);
            self.node_records_seen[id] += 1;
            self.record(job, tenant, Some(id), outcome, finish_ps);
        }
    }

    /// Work-stealing scan: an alive node that is idle, empty and has
    /// nothing inbound steals the newest job from the most-loaded alive
    /// peer.
    fn steal_scan(&mut self, now_ps: u64) {
        for thief in 0..self.nodes.len() {
            let t = &self.nodes[thief];
            if !self.alive[thief]
                || t.pending_incoming > 0
                || t.idle_boards() == 0
                || t.queued_total() > 0
            {
                continue;
            }
            let mut victim: Option<(usize, usize)> = None; // (queued, id)
            for v in 0..self.nodes.len() {
                if v == thief || !self.alive[v] {
                    continue;
                }
                let q = self.nodes[v].queued_total();
                if q > victim.map_or(0, |(q, _)| q) {
                    victim = Some((q, v));
                }
            }
            let Some((_, v)) = victim else { continue };
            let Some(job) = self.nodes[v].steal_out() else {
                continue;
            };
            self.stolen += 1;
            self.observer.on_event(&FlowEvent::JobStolen {
                job: job.spec.id,
                tenant: job.spec.tenant,
                from_node: v,
                to_node: thief,
            });
            let at_ps = now_ps + self.cfg.net.steal_ps;
            self.send(thief, at_ps, DeliverKind::Steal(job));
        }
    }

    /// Fold the run into its report: the cluster's own tallies, plus the
    /// admissions, completions, time-outs, latencies and makespan summed
    /// (or maxed, or merged) over the nodes.
    fn into_report(self) -> ClusterReport {
        let tenants: Vec<TenantReport> = self.nodes[0]
            .tenant_ids()
            .iter()
            .enumerate()
            .map(|(ti, tenant)| {
                let mut latencies = Vec::new();
                let mut missed = 0;
                for node in &self.nodes {
                    let (node_latencies, node_missed) = node.tenant_completions(ti);
                    latencies.extend_from_slice(node_latencies);
                    missed += node_missed;
                }
                TenantReport::new(
                    *tenant,
                    self.t_submitted[ti],
                    self.t_rejected[ti],
                    missed,
                    latencies,
                )
            })
            .collect();
        let per_node: Vec<ServeReport> =
            self.nodes.into_iter().map(ServeNode::into_report).collect();
        let sum = |count: fn(&ServeReport) -> u64| per_node.iter().map(count).sum::<u64>();
        let completed = sum(|r| r.completed);
        let completed_late = sum(|r| r.completed_late);
        let makespan_ps = per_node.iter().map(|r| r.makespan_ps).max().unwrap_or(0);
        ClusterReport {
            policy: self.cfg.nodes[0].policy,
            seed: self.cfg.seed,
            nodes: per_node.len(),
            submitted: self.jobs.len() as u64,
            admitted: sum(|r| r.admitted),
            rejected: self.rejected,
            shed: self.shed,
            completed,
            completed_late,
            timed_out: sum(|r| r.timed_out),
            failed: self.failed,
            forwarded: self.forwarded,
            stolen: self.stolen,
            redispatched: self.redispatched,
            node_failures: self.node_failures,
            rejections: self.rejections,
            makespan_ps,
            throughput_jobs_per_s: jobs_per_s(completed + completed_late, makespan_ps),
            fairness: ServeReport::jain_fairness(&tenants),
            tenants,
            per_node,
            records: self.records,
        }
    }
}
