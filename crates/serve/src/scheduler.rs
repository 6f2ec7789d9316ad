//! The virtual-time serving session: one [`ServeNode`] over one board
//! pool.
//!
//! A session is a one-node [`ClusterSession`] over a free network
//! ([`NetModel::zero`]), so the serving runtime has exactly one event
//! loop. Execution happens in two strictly separated stages:
//!
//! 1. **Parallel precompute** (host threads): every admissible job's true
//!    board latency is simulated into the slot-ordered [`SimTables`] —
//!    see [`crate::node`]. Host thread count can only change *when* a
//!    slot is filled, never *what* it holds.
//! 2. **Sequential event loop** (virtual time): the cluster's
//!    integer-picosecond calendar (`accelsoc_platform::sim::Calendar`:
//!    `u64` times, explicit tie-break ranks, no floats, no wall clock)
//!    drives the node through admission, policy decisions, batching,
//!    retries and deadlines. With one node there are no peers to steal
//!    from or shed to, so the node sees arrivals and board completions
//!    only. Nothing in this stage reads anything a host thread could
//!    have reordered.
//!
//! Hence the same `(workload, config)` yields a byte-identical
//! [`ServeReport`] for any `--threads` value.
//!
//! The entry point is [`ServeSession`]: build a [`ServeConfig`] with
//! [`ServeConfig::builder`] (the struct is `#[non_exhaustive]`; the
//! builder is the only way to construct a non-default one) and call
//! [`ServeSession::run`].
//!
//! [`ServeNode`]: crate::node::ServeNode
//! [`SimTables`]: crate::node::SimTables

use crate::cluster::{ClusterConfig, ClusterSession};
use crate::job::JobSpec;
use crate::net::NetModel;
use crate::policy::PolicyKind;
use crate::report::ServeReport;
use accelsoc_apps::otsu::{AppConfig, AppError};
use accelsoc_core::flow::FlowError;
use accelsoc_observe::FlowObserver;
use std::fmt;

/// Knobs of one serve run.
///
/// `#[non_exhaustive]`: construct with [`ServeConfig::builder`] (or
/// start from [`ServeConfig::default`] and mutate fields). Struct
/// literals would freeze the field set into every caller, which is
/// exactly what the PR 4 → PR 6 migration (seed moved into the config,
/// records became optional) showed does not scale.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tenants the runtime is configured for, in fixed report order.
    /// Jobs naming anyone else are rejected (`UnknownTenant`).
    pub tenants: Vec<String>,
    /// Size of the board pool.
    pub boards: usize,
    pub policy: PolicyKind,
    /// Bounded depth of every tenant's admission queue.
    pub queue_depth: usize,
    /// Max jobs coalesced into one board phase (same architecture).
    pub max_batch: usize,
    /// Host threads for the latency precompute (no effect on results).
    pub threads: usize,
    /// Lane width of the precompute's batch-lane VM: same-arch jobs are
    /// simulated as one lane group of up to this many images (no effect
    /// on results, only on host-side dispatch amortization). Defaults
    /// to [`accelsoc_apps::DEFAULT_LANES`]; no builder setter.
    pub lanes: usize,
    /// Fixed per-batch dispatch cost (descriptor setup, doorbell).
    pub dispatch_overhead_ps: u64,
    /// Cost of switching a board to a different architecture's
    /// bitstream before a batch can start.
    pub reconfig_ps: u64,
    /// Transient-fault retries allowed per job.
    pub max_retries: u32,
    /// Board knobs handed to the per-job simulation.
    pub app: AppConfig,
    /// Workload seed, stamped into the report (pure provenance — the
    /// session itself draws no randomness).
    pub seed: u64,
    /// Keep the per-job [`crate::JobRecord`] ledger in the report.
    /// Disable for million-job runs where only the aggregates matter.
    pub keep_records: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: Vec::new(),
            boards: 2,
            policy: PolicyKind::Fifo,
            queue_depth: 8,
            max_batch: 4,
            threads: 1,
            lanes: accelsoc_apps::batch::DEFAULT_LANES,
            dispatch_overhead_ps: 1_000_000, // 1 us
            reconfig_ps: 20_000_000,         // 20 us partial reconfig
            max_retries: 1,
            app: AppConfig::default(),
            seed: 0,
            keep_records: true,
        }
    }
}

impl ServeConfig {
    /// Start a builder from the defaults (the `FlowOptions` pattern).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }
}

/// Chained-setter builder for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Replace the tenant list (fixed report order).
    pub fn tenants<I, S>(mut self, tenants: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.cfg.tenants = tenants.into_iter().map(Into::into).collect();
        self
    }

    /// Append one tenant.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.cfg.tenants.push(tenant.into());
        self
    }

    pub fn boards(mut self, boards: usize) -> Self {
        self.cfg.boards = boards;
        self
    }

    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.cfg.policy = policy;
        self
    }

    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.cfg.max_batch = max_batch;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    pub fn dispatch_overhead_ps(mut self, ps: u64) -> Self {
        self.cfg.dispatch_overhead_ps = ps;
        self
    }

    pub fn reconfig_ps(mut self, ps: u64) -> Self {
        self.cfg.reconfig_ps = ps;
        self
    }

    pub fn max_retries(mut self, retries: u32) -> Self {
        self.cfg.max_retries = retries;
        self
    }

    pub fn app(mut self, app: AppConfig) -> Self {
        self.cfg.app = app;
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

    pub fn build(self) -> ServeConfig {
        self.cfg
    }
}

/// A serve run failed outside the per-job admission path.
#[derive(Debug)]
pub enum ServeError {
    /// Building the flow artifacts for an architecture failed.
    Flow(FlowError),
    /// A job's board simulation failed (a bug: admission should have
    /// filtered anything the board can reject).
    App(AppError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Flow(e) => write!(f, "flow: {e}"),
            ServeError::App(e) => write!(f, "app: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FlowError> for ServeError {
    fn from(e: FlowError) -> Self {
        ServeError::Flow(e)
    }
}

impl From<AppError> for ServeError {
    fn from(e: AppError) -> Self {
        ServeError::App(e)
    }
}

/// One configured serving runtime: the single entry point for running
/// job streams against a board pool.
///
/// ```no_run
/// # use accelsoc_serve::{ServeConfig, ServeSession, PolicyKind};
/// # use accelsoc_observe::NullObserver;
/// let cfg = ServeConfig::builder()
///     .tenants(["interactive", "batch"])
///     .boards(4)
///     .policy(PolicyKind::Sjf)
///     .seed(7)
///     .build();
/// let report = ServeSession::new(cfg).run(&[], &NullObserver).unwrap();
/// ```
pub struct ServeSession {
    cfg: ServeConfig,
}

impl ServeSession {
    pub fn new(cfg: ServeConfig) -> Self {
        ServeSession { cfg }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Run the scheduler over a job stream: a one-node
    /// [`ClusterSession`] over a free network whose only node is this
    /// session's config. The report is that node's.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        observer: &dyn FlowObserver,
    ) -> Result<ServeReport, ServeError> {
        let cfg = ClusterConfig::builder()
            .node(self.cfg.clone())
            .net(NetModel::zero())
            .threads(self.cfg.threads)
            .seed(self.cfg.seed)
            .keep_records(self.cfg.keep_records)
            .build()
            .expect("a one-node cluster is always valid");
        let mut report = ClusterSession::new(cfg).run(jobs, observer)?;
        Ok(report.per_node.swap_remove(0))
    }
}
