//! # accelsoc-observe — flow observability
//!
//! The paper's DSL runs a long, opaque tool flow (HLS → project
//! generation → synthesis → implementation → software generation); this
//! crate is the observability layer threaded through it. Every stage of
//! the flow reports progress as a [`FlowEvent`] to a [`FlowObserver`],
//! and sinks turn the event stream into logs, JSON-lines traces, or an
//! aggregated [`FlowMetrics`] summary.
//!
//! The crate sits *below* `accelsoc-hls`, `accelsoc-integration`,
//! `accelsoc-platform` and `accelsoc-core` in the dependency graph so
//! all of them can emit into one shared bus:
//!
//! * [`FlowPhase`] — the six phases of the paper's Fig. 9 flow;
//! * [`FlowEvent`] — everything worth reporting: well-nested phase
//!   spans, per-kernel HLS statistics and cache hits, simulated-annealing
//!   placement progress, routing/timing closure, platform-simulator
//!   DMA/bus counters;
//! * [`FlowObserver`] — the `Send + Sync` event bus (observers are shared
//!   across the flow's crossbeam-scoped HLS workers);
//! * [`PhaseSpan`] — an RAII guard guaranteeing every `PhaseStarted` gets
//!   a matching `PhaseEnded`, even on early-error paths;
//! * sinks — [`NullObserver`], [`LogObserver`], [`JsonTraceObserver`]
//!   (one JSON object per line), [`CollectObserver`] (tests),
//!   [`FanoutObserver`] (tee), [`MetricsObserver`] → [`FlowMetrics`].

pub mod event;
pub mod metrics;
pub mod observer;
pub mod sinks;
pub mod tenant;

pub use event::{FlowEvent, FlowPhase, SpanOutcome};
pub use metrics::{nearest_rank, percentile_ps, FlowMetrics, MetricsObserver, PhaseMetric};
pub use observer::{null_observer, FlowObserver, PhaseSpan, SharedObserver};
pub use sinks::{CollectObserver, FanoutObserver, JsonTraceObserver, LogObserver, NullObserver};
pub use tenant::{TenantId, TENANT_UNRESOLVED};
