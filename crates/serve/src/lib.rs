//! # accelsoc-serve — multi-tenant accelerator serving runtime
//!
//! The paper's generated software stack ends at a single host program
//! pushing one job at a time through `/dev` nodes; this crate is the
//! runtime that sits between many clients and a **pool** of simulated
//! SoCs. It multiplexes a stream of accelerator requests (Otsu
//! segmentation jobs at varying image sizes, any of the four Table I
//! architectures) across `N` boards:
//!
//! * **admission control** — bounded per-tenant queues with typed
//!   rejection ([`AdmissionError`]: `QueueFull`, `JobTooLarge`,
//!   `DeadlineImpossible`, `InvalidGraph` via `htg::validate`,
//!   `UnknownTenant`, `TooManyBoards`);
//! * **multi-board gangs** — a job whose graph was partitioned across
//!   several devices ([`JobShape::MultiBoard`]) atomically claims its
//!   whole board gang at dispatch and frees it as one unit;
//! * **pluggable policies** — the [`SchedPolicy`] trait with FIFO,
//!   round-robin-per-tenant and shortest-job-first (sized by the
//!   `accelsoc-dse` latency model through [`DseEstimator`]);
//! * **dynamic batching** — same-architecture jobs at queue heads are
//!   coalesced into one board phase sharing reconfiguration and
//!   dispatch overhead;
//! * **deadlines and retries** — queue expiry, late-finish detection,
//!   and bounded retry of transiently-faulted jobs on a *different*
//!   board.
//!
//! The whole runtime is **deterministic**: virtual time only (integer
//! picoseconds on the shared `accelsoc_platform::sim::Calendar`), a
//! seeded workload generator, and a strict split between a
//! parallel-but-pure latency precompute and a sequential event loop. The
//! same `(workload, config)` produces a byte-identical [`ServeReport`]
//! for any host thread count — see `DESIGN.md` §10 for the argument.
//!
//! Observability rides on `accelsoc-observe`: every admission, dispatch,
//! completion, retry and deadline miss is a `FlowEvent`, and
//! `FlowMetrics` folds them into counters plus per-tenant latency
//! percentiles.
//!
//! [`ClusterSession`] shards the runtime across N [`ServeNode`]s —
//! consistent-hash routing ([`HashRing`]), a modeled network
//! ([`NetModel`]), work stealing, load shedding and node-failure
//! re-dispatch — under one calendar with the total event order
//! `(ps, node, rank, seq)`, keeping the [`ClusterReport`] byte-identical
//! across host thread counts. It is the runtime's only event loop: a
//! [`ServeSession`] runs as a one-node cluster over
//! [`NetModel::zero`].

pub mod cluster;
pub mod estimator;
pub mod job;
pub mod net;
pub mod node;
pub mod policy;
pub mod queue;
pub mod report;
pub mod routing;
pub mod scheduler;
pub mod workload;

pub use cluster::{
    ClusterConfig, ClusterConfigBuilder, ClusterConfigError, ClusterJobRecord, ClusterOutcome,
    ClusterReport, ClusterSession, NodeFailure,
};
pub use estimator::DseEstimator;
pub use job::{AdmissionError, JobOutcome, JobRecord, JobShape, JobSpec};
pub use net::NetModel;
pub use node::{Admit, ServeNode, SimTables};
pub use policy::{Fifo, PolicyKind, RoundRobin, SchedPolicy, Sjf};
pub use queue::{ActiveJob, TenantQueue};
pub use report::{RejectionCounts, ServeReport, TenantReport};
pub use routing::HashRing;
pub use scheduler::{ServeConfig, ServeConfigBuilder, ServeError, ServeSession};
pub use workload::{generate_workload, pool_image_seeds, TenantProfile, WorkloadSpec};
