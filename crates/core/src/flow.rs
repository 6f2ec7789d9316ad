//! The flow engine: executing a task graph (Fig. 5/6 of the paper).
//!
//! "Executing" the DSL drives the full implementation chain:
//!
//! 1. **DSL compile** — parse (if textual) + semantic elaboration (the
//!    paper's "SCALA" phase);
//! 2. **HLS** — synthesize each node's kernel with `accelsoc-hls`; cores
//!    are cached under a content-addressed key ([`accelsoc_hls::CacheKey`]:
//!    a digest of the kernel IR, its interface directives, and the HLS
//!    options incl. clock target), so re-running for another architecture
//!    reuses them (the paper generates Arch4 first for exactly this
//!    reason). With [`FlowOptions::cache_dir`] set, results also persist
//!    on disk and warm-start later processes;
//! 3. **Project generation** — assemble the block design and emit tcl;
//! 4. **Synthesis** — aggregate/optimize resources, check capacity;
//! 5. **Implementation** — place, route, timing, bitstream;
//! 6. **Software generation** — device tree, boot image, C API.
//!
//! Each phase is timed (measured wall-clock of our simulated tools) and
//! also annotated with modeled vendor-tool seconds (for the Fig. 9
//! reproduction at the paper's scale).
//!
//! Every phase is wrapped in an observer span ([`accelsoc_observe::PhaseSpan`]):
//! the [`FlowObserver`](accelsoc_observe::FlowObserver) configured via [`FlowOptions::builder`] receives
//! `PhaseStarted`/`PhaseEnded` pairs (well-nested even on error paths),
//! plus the fine-grained events the lower layers emit (HLS cache queries,
//! placement cooling, timing closure, …). A [`MetricsObserver`] always
//! rides along and its aggregate is returned as [`FlowArtifacts::metrics`].

use crate::dsl::{parse, ParseError};
use crate::graph::{InterfaceKind, LinkEnd, TaskGraph};
use crate::semantics::{elaborate, Elaborated, PortDirection, SemanticError};
use accelsoc_hls::cache::{CacheKey, HlsCache};
use accelsoc_hls::project::{synthesize_kernel_observed, HlsError, HlsOptions, HlsResult};
use accelsoc_hls::report::HlsReport;
use accelsoc_integration::assembler::{
    assemble, ArchSpec, AssembleError, CoreSpec, DmaPolicy, LinkSpec, SocEndpoint,
};
use accelsoc_integration::bitstream::Bitstream;
use accelsoc_integration::blockdesign::BlockDesign;
use accelsoc_integration::device::Device;
use accelsoc_integration::place::Placement;
use accelsoc_integration::route::RouteReport;
use accelsoc_integration::synth::{SynthError, SynthReport};
use accelsoc_integration::tcl::TclBackend;
use accelsoc_integration::timing::TimingReport;
use accelsoc_integration::{flowtime, place, route, synth, tcl, timing};
use accelsoc_kernel::ir::{Kernel, ParamKind};
use accelsoc_kernel::ExecUnit;
use accelsoc_observe::{
    null_observer, FanoutObserver, FlowEvent, FlowMetrics, MetricsObserver, PhaseSpan,
    SharedObserver, SpanOutcome,
};
use accelsoc_platform::accel::AccelInstance;
use accelsoc_platform::board::{Board, BoardError, Endpoint};
use accelsoc_platform::cosim::PhaseMemo;
use accelsoc_swgen::boot::BootImage;
use accelsoc_swgen::{capi, devicetree};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use accelsoc_observe::FlowPhase;

/// Timing record for one phase.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    pub phase: FlowPhase,
    /// Wall time our simulated tool actually took.
    pub actual: Duration,
    /// Modeled vendor-tool seconds (paper scale).
    pub modeled_s: f64,
}

/// Options for a flow run.
///
/// Marked `#[non_exhaustive]`: construct with [`FlowOptions::default`] or
/// [`FlowOptions::builder`] and mutate fields, rather than with a struct
/// literal, so new knobs can be added without breaking downstream code.
#[derive(Clone)]
#[non_exhaustive]
pub struct FlowOptions {
    pub device: Device,
    pub tcl_backend: TclBackend,
    pub dma_policy: DmaPolicy,
    pub hls: HlsOptions,
    /// Observer receiving flow events. Defaults to a no-op sink.
    pub observer: SharedObserver,
    /// Directory for the persistent HLS cache tier. `None` (the
    /// default) keeps the cache in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// Master switch for HLS result reuse. `false` forces every node
    /// through fresh synthesis (every cache query is a miss and nothing
    /// is stored) — the CLI's `--no-cache`.
    pub use_cache: bool,
    /// An explicit cache instance to share between engines (e.g. DSE
    /// workers evaluating candidates concurrently). Takes precedence
    /// over `cache_dir` when set.
    pub cache: Option<Arc<HlsCache>>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            device: Device::zynq7020(),
            tcl_backend: TclBackend::default(),
            dma_policy: DmaPolicy::SharedChannel,
            hls: HlsOptions::default(),
            observer: null_observer(),
            cache_dir: None,
            use_cache: true,
            cache: None,
        }
    }
}

impl fmt::Debug for FlowOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowOptions")
            .field("device", &self.device)
            .field("tcl_backend", &self.tcl_backend)
            .field("dma_policy", &self.dma_policy)
            .field("hls", &self.hls)
            .field("cache_dir", &self.cache_dir)
            .field("use_cache", &self.use_cache)
            .finish_non_exhaustive()
    }
}

impl FlowOptions {
    /// Start building a [`FlowOptions`] from the defaults.
    pub fn builder() -> FlowOptionsBuilder {
        FlowOptionsBuilder {
            options: FlowOptions::default(),
        }
    }
}

/// Builder for [`FlowOptions`] (see [`FlowOptions::builder`]).
///
/// ```
/// use accelsoc_core::flow::FlowOptions;
/// use accelsoc_integration::assembler::DmaPolicy;
/// let opts = FlowOptions::builder()
///     .dma_policy(DmaPolicy::PerSocLink)
///     .build();
/// assert_eq!(opts.dma_policy, DmaPolicy::PerSocLink);
/// ```
#[derive(Clone, Default)]
pub struct FlowOptionsBuilder {
    options: FlowOptions,
}

impl FlowOptionsBuilder {
    pub fn device(mut self, device: Device) -> Self {
        self.options.device = device;
        self
    }

    pub fn tcl_backend(mut self, backend: TclBackend) -> Self {
        self.options.tcl_backend = backend;
        self
    }

    pub fn dma_policy(mut self, policy: DmaPolicy) -> Self {
        self.options.dma_policy = policy;
        self
    }

    pub fn hls(mut self, hls: HlsOptions) -> Self {
        self.options.hls = hls;
        self
    }

    /// Attach an observer; it receives every event of every run.
    pub fn observer(mut self, observer: SharedObserver) -> Self {
        self.options.observer = observer;
        self
    }

    /// Persist HLS results under `dir` (and warm-start from entries
    /// already there).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.options.cache_dir = Some(dir.into());
        self
    }

    /// Enable/disable HLS result reuse entirely (`use_cache(false)` is
    /// the CLI's `--no-cache`).
    pub fn use_cache(mut self, on: bool) -> Self {
        self.options.use_cache = on;
        self
    }

    /// Share an existing cache instance with this engine (overrides
    /// `cache_dir`).
    pub fn shared_cache(mut self, cache: Arc<HlsCache>) -> Self {
        self.options.cache = Some(cache);
        self
    }

    pub fn build(self) -> FlowOptions {
        self.options
    }
}

/// How a DSL port disagrees with the registered kernel's interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortIssue {
    /// The kernel declares the port as a stream *input* but the graph
    /// links it as a source (driving data out of the node).
    StreamInputUsedAsSource,
    /// The kernel declares the port as a stream *output* but the graph
    /// links it as a destination.
    StreamOutputUsedAsDestination,
    /// Interface kinds disagree outright (`None` when the kernel has no
    /// such parameter at all).
    KindMismatch {
        declared: InterfaceKind,
        found: Option<ParamKind>,
    },
}

impl fmt::Display for PortIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortIssue::StreamInputUsedAsSource => {
                write!(f, "stream input in the kernel but used as a link source")
            }
            PortIssue::StreamOutputUsedAsDestination => {
                write!(
                    f,
                    "stream output in the kernel but used as a link destination"
                )
            }
            PortIssue::KindMismatch { declared, found } => {
                write!(
                    f,
                    "declared {declared:?} in the DSL but kernel has {found:?}"
                )
            }
        }
    }
}

/// Everything that can go wrong executing a flow. Every variant carries
/// typed context; the wrapped layer errors are reachable via
/// [`std::error::Error::source`].
#[derive(Debug)]
pub enum FlowError {
    Parse(ParseError),
    Semantic(SemanticError),
    /// A DSL node has no registered kernel.
    MissingKernel {
        node: String,
    },
    /// A DSL port doesn't match the kernel's interface.
    PortMismatch {
        node: String,
        port: String,
        issue: PortIssue,
    },
    Hls {
        node: String,
        source: HlsError,
    },
    Assemble(AssembleError),
    Synth(SynthError),
    /// Post-route timing failed to close at the PL clock.
    TimingFailure(TimingReport),
    /// Board construction from the artifacts failed.
    Board(BoardError),
    /// A flow invariant was violated (e.g. a worker thread panicked).
    Internal {
        context: &'static str,
    },
}

impl FlowError {
    /// The typed per-resource capacity report, when this error is an
    /// oversized design rejected at synthesis. This is the trigger the
    /// multi-board partitioning layer keys on: a flow that fails *only*
    /// because the design doesn't fit one device can be split across
    /// several instead of being abandoned.
    pub fn capacity_exceeded(&self) -> Option<&accelsoc_integration::synth::CapacityExceeded> {
        match self {
            FlowError::Synth(e) => e.capacity_exceeded(),
            _ => None,
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Parse(e) => write!(f, "DSL parse error: {e}"),
            FlowError::Semantic(e) => write!(f, "semantic error: {e}"),
            FlowError::MissingKernel { node } => {
                write!(
                    f,
                    "no kernel registered for node `{node}` (need a C-equivalent source)"
                )
            }
            FlowError::PortMismatch { node, port, issue } => {
                write!(
                    f,
                    "node `{node}` interface mismatch on port `{port}`: {issue}"
                )
            }
            FlowError::Hls { node, source } => write!(f, "HLS failed for `{node}`: {source}"),
            FlowError::Assemble(e) => write!(f, "integration failed: {e}"),
            FlowError::Synth(e) => write!(f, "synthesis failed: {e}"),
            FlowError::TimingFailure(t) => {
                write!(
                    f,
                    "timing failure: achieved {:.2} ns > target {:.2} ns",
                    t.achieved_ns, t.target_ns
                )
            }
            FlowError::Board(e) => write!(f, "board construction failed: {e}"),
            FlowError::Internal { context } => {
                write!(f, "internal flow invariant violated: {context}")
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Parse(e) => Some(e),
            FlowError::Semantic(e) => Some(e),
            FlowError::Hls { source, .. } => Some(source),
            FlowError::Assemble(e) => Some(e),
            FlowError::Synth(e) => Some(e),
            FlowError::Board(e) => Some(e),
            FlowError::MissingKernel { .. }
            | FlowError::PortMismatch { .. }
            | FlowError::TimingFailure(_)
            | FlowError::Internal { .. } => None,
        }
    }
}

/// Everything a flow run produces — the paper's "bitstream + boot files +
/// API" bundle plus all intermediate reports.
#[derive(Debug, Clone)]
pub struct FlowArtifacts {
    pub elaborated: Elaborated,
    /// Per node, in graph order: the HLS result used.
    pub hls: Vec<(String, HlsResult)>,
    pub block_design: BlockDesign,
    pub tcl: String,
    pub synth: SynthReport,
    pub placement: Placement,
    pub route: RouteReport,
    pub timing: TimingReport,
    pub bitstream: Bitstream,
    pub dts: String,
    pub boot: BootImage,
    /// Generated C API per AXI-Lite core: (core, header, implementation).
    pub capi: Vec<(String, String, String)>,
    /// Generated host application skeleton (`main.c`) and its Makefile.
    pub main_c: String,
    pub makefile: String,
    pub phase_timings: Vec<PhaseTiming>,
    /// Aggregated observer-side metrics for this run (phase spans, HLS
    /// cache behaviour, placement/routing/timing summaries).
    pub metrics: FlowMetrics,
}

impl FlowArtifacts {
    pub fn modeled_total_seconds(&self) -> f64 {
        self.phase_timings.iter().map(|p| p.modeled_s).sum()
    }

    pub fn phase(&self, phase: FlowPhase) -> Option<&PhaseTiming> {
        self.phase_timings.iter().find(|p| p.phase == phase)
    }
}

/// One kernel of the library, with its execution unit compiled on
/// first use. Boards share both through their `Arc`s.
struct KernelEntry {
    kernel: Arc<Kernel>,
    unit: OnceLock<Arc<ExecUnit>>,
}

/// The engine. Holds the kernel library (the "synthesizable C/C++ files"),
/// the content-addressed HLS cache shared across runs (and, when built
/// with a `cache_dir` or a shared cache, across engines and processes),
/// and the streaming-phase timing memo shared by every board it builds.
pub struct FlowEngine {
    pub options: FlowOptions,
    kernels: HashMap<String, KernelEntry>,
    hls_cache: Arc<HlsCache>,
    phase_memo: Arc<PhaseMemo>,
}

impl FlowEngine {
    pub fn new(options: FlowOptions) -> Self {
        let hls_cache = match (&options.cache, &options.cache_dir) {
            (Some(shared), _) => shared.clone(),
            (None, Some(dir)) => Arc::new(HlsCache::persistent(dir)),
            (None, None) => Arc::new(HlsCache::in_memory()),
        };
        FlowEngine {
            options,
            kernels: HashMap::new(),
            hls_cache,
            phase_memo: Arc::new(PhaseMemo::new()),
        }
    }

    /// The engine's HLS cache (shareable with other engines via
    /// [`FlowOptionsBuilder::shared_cache`]).
    pub fn cache(&self) -> &Arc<HlsCache> {
        &self.hls_cache
    }

    /// The streaming-phase timing memo every board of this engine
    /// shares.
    pub fn phase_memo(&self) -> &Arc<PhaseMemo> {
        &self.phase_memo
    }

    /// The execution unit of the kernel registered as `name`, compiled
    /// on the first fetch and then shared by every board and software
    /// stage of this engine until the kernel is re-registered. The
    /// compiling fetch reports [`FlowEvent::KernelCompiled`], every later
    /// one [`FlowEvent::KernelVmCacheHit`]; they land in
    /// `FlowMetrics::vm_compile_misses`/`_hits`.
    pub fn exec_unit(&self, name: &str) -> Result<Arc<ExecUnit>, FlowError> {
        let entry = self
            .kernels
            .get(name)
            .ok_or_else(|| FlowError::MissingKernel {
                node: name.to_string(),
            })?;
        Ok(self.unit_of(entry))
    }

    fn unit_of(&self, entry: &KernelEntry) -> Arc<ExecUnit> {
        let mut compiled = false;
        let unit = entry.unit.get_or_init(|| {
            compiled = true;
            Arc::new(ExecUnit::new(&entry.kernel))
        });
        let kernel = entry.kernel.name.clone();
        self.options.observer.on_event(&if compiled {
            FlowEvent::KernelCompiled { kernel }
        } else {
            FlowEvent::KernelVmCacheHit { kernel }
        });
        unit.clone()
    }

    /// Register the kernel implementing a node (by kernel name),
    /// replacing any earlier kernel of that name and its execution unit.
    pub fn register_kernel(&mut self, kernel: Kernel) {
        let entry = KernelEntry {
            kernel: Arc::new(kernel),
            unit: OnceLock::new(),
        };
        self.kernels.insert(entry.kernel.name.clone(), entry);
    }

    /// Number of cores currently cached (Fig. 9's reuse effect).
    pub fn cached_cores(&self) -> usize {
        self.hls_cache.len()
    }

    /// Parse DSL source and run the flow.
    pub fn run_source(&mut self, src: &str) -> Result<FlowArtifacts, FlowError> {
        let t0 = Instant::now();
        let graph = parse(src).map_err(FlowError::Parse)?;
        self.run_inner(&graph, Some(t0))
    }

    /// Run the flow on an already-constructed graph.
    pub fn run(&mut self, graph: &TaskGraph) -> Result<FlowArtifacts, FlowError> {
        self.run_inner(graph, None)
    }

    fn run_inner(
        &mut self,
        graph: &TaskGraph,
        parse_start: Option<Instant>,
    ) -> Result<FlowArtifacts, FlowError> {
        // Every run fans out to the user's observer plus a metrics
        // aggregator whose snapshot lands in the artifacts.
        let metrics = Arc::new(MetricsObserver::new());
        let mut fanout = FanoutObserver::new(vec![self.options.observer.clone()]);
        fanout.push(metrics.clone());
        let observer: SharedObserver = Arc::new(fanout);

        observer.on_event(&FlowEvent::FlowStarted {
            design: graph.project.clone(),
            nodes: graph.nodes.len(),
        });
        let result = self.run_phases(graph, parse_start, &observer);
        let snapshot = metrics.snapshot();
        let (outcome, modeled) = match &result {
            Ok(_) => (SpanOutcome::Success, snapshot.modeled_total_seconds()),
            Err(e) => (
                SpanOutcome::Failed(e.to_string()),
                snapshot.modeled_total_seconds(),
            ),
        };
        observer.on_event(&FlowEvent::FlowFinished {
            outcome,
            modeled_total_s: modeled,
        });
        result.map(|mut art| {
            art.metrics = snapshot;
            art
        })
    }

    fn run_phases(
        &mut self,
        graph: &TaskGraph,
        parse_start: Option<Instant>,
        observer: &SharedObserver,
    ) -> Result<FlowArtifacts, FlowError> {
        let mut timings = Vec::new();

        // --- Phase 1: DSL compile (parse + elaborate) ---
        // A dropped span reports `Aborted`, so `?` exits still produce a
        // matching PhaseEnded for every PhaseStarted.
        let span = PhaseSpan::enter(observer.clone(), FlowPhase::DslCompile);
        let t = parse_start.unwrap_or_else(Instant::now);
        let elaborated = elaborate(graph).map_err(FlowError::Semantic)?;
        self.check_kernels(&elaborated)?;
        let modeled = flowtime::dsl_compile_seconds(graph.nodes.len(), graph.edges.len());
        timings.push(PhaseTiming {
            phase: FlowPhase::DslCompile,
            actual: t.elapsed(),
            modeled_s: modeled,
        });
        span.finish(modeled);

        // --- Phase 2: HLS per node (content-addressed cache, parallel) ---
        let span = PhaseSpan::enter(observer.clone(), FlowPhase::Hls);
        let t = Instant::now();
        let mut fresh_seconds = 0.0;
        let mut results: HashMap<String, HlsResult> = HashMap::new();
        let mut missing: Vec<(String, Option<CacheKey>, &Kernel)> = Vec::new();
        for n in &graph.nodes {
            let kernel = &self
                .kernels
                .get(&n.name)
                .ok_or_else(|| FlowError::MissingKernel {
                    node: n.name.clone(),
                })?
                .kernel;
            // The key digests the kernel body + directives + HLS
            // options, so a re-registered kernel under the same node
            // name (or a different clock target) can never alias a
            // stale result.
            let (key, found) = if self.options.use_cache {
                let key = CacheKey::compute(kernel, &self.options.hls);
                let found = self
                    .hls_cache
                    .lookup(key, &n.name, observer.as_ref())
                    .map(|(r, _tier)| r);
                (Some(key), found)
            } else {
                (None, None)
            };
            observer.on_event(&FlowEvent::HlsCacheQuery {
                kernel: n.name.clone(),
                hit: found.is_some(),
            });
            match found {
                Some(r) => {
                    results.insert(n.name.clone(), r);
                }
                None => missing.push((n.name.clone(), key, kernel)),
            }
        }
        // Worker results, or `Err(())` if any worker thread panicked.
        type WorkerResults =
            Result<Vec<(String, Option<CacheKey>, Result<HlsResult, HlsError>)>, ()>;
        let scope_result: WorkerResults = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = missing
                .iter()
                .map(|(name, key, kernel)| {
                    let opts = &self.options.hls;
                    let obs = observer.as_ref();
                    s.spawn(move |_| {
                        (
                            name.clone(),
                            *key,
                            synthesize_kernel_observed(kernel, opts, obs),
                        )
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(handles.len());
            for h in handles {
                out.push(h.join().map_err(|_| ())?);
            }
            Ok(out)
        })
        .unwrap_or(Err(()));
        let fresh = scope_result.map_err(|()| FlowError::Internal {
            context: "HLS worker thread panicked",
        })?;
        for (name, key, result) in fresh {
            let r = result.map_err(|source| FlowError::Hls {
                node: name.clone(),
                source,
            })?;
            fresh_seconds += r.report.modeled_tool_seconds;
            if let Some(key) = key {
                self.hls_cache
                    .insert(key, &name, r.clone(), observer.as_ref());
            }
            results.insert(name, r);
        }
        let hls: Vec<(String, HlsResult)> = graph
            .nodes
            .iter()
            .map(|n| {
                results
                    .remove(&n.name)
                    .map(|r| (n.name.clone(), r))
                    .ok_or(FlowError::Internal {
                        context: "HLS phase missing a synthesized kernel",
                    })
            })
            .collect::<Result<_, _>>()?;
        timings.push(PhaseTiming {
            phase: FlowPhase::Hls,
            actual: t.elapsed(),
            modeled_s: fresh_seconds,
        });
        span.finish(fresh_seconds);

        // --- Phase 3: project generation (assembly + tcl) ---
        let span = PhaseSpan::enter(observer.clone(), FlowPhase::ProjectGen);
        let t = Instant::now();
        let spec = self.arch_spec(graph, &hls);
        let block_design = assemble(&spec).map_err(FlowError::Assemble)?;
        let tcl_text = tcl::generate(
            &block_design,
            self.options.tcl_backend,
            &self.options.device.part,
        );
        let modeled = flowtime::project_gen_seconds(&block_design);
        timings.push(PhaseTiming {
            phase: FlowPhase::ProjectGen,
            actual: t.elapsed(),
            modeled_s: modeled,
        });
        span.finish(modeled);

        // --- Phase 4: synthesis ---
        let span = PhaseSpan::enter(observer.clone(), FlowPhase::Synthesis);
        let t = Instant::now();
        let synth_report =
            synth::synthesize_observed(&block_design, &self.options.device, observer.as_ref())
                .map_err(FlowError::Synth)?;
        let modeled = flowtime::synth_seconds(synth_report.total.lut);
        timings.push(PhaseTiming {
            phase: FlowPhase::Synthesis,
            actual: t.elapsed(),
            modeled_s: modeled,
        });
        span.finish(modeled);

        // --- Phase 5: implementation (place, route, timing, bitstream) ---
        let span = PhaseSpan::enter(observer.clone(), FlowPhase::Implementation);
        let t = Instant::now();
        let placement =
            place::place_observed(&block_design, &self.options.device, observer.as_ref());
        let route_report = route::route_observed(
            &block_design,
            &placement,
            &self.options.device,
            observer.as_ref(),
        );
        let timing_report =
            timing::analyze_observed(&synth_report, &route_report, 10.0, observer.as_ref());
        if !timing_report.met() {
            let err = FlowError::TimingFailure(timing_report);
            span.fail(err.to_string());
            return Err(err);
        }
        let bitstream = accelsoc_integration::bitstream::generate(
            &block_design,
            &placement,
            &self.options.device.part,
        );
        let modeled = flowtime::impl_seconds(synth_report.total.lut, &placement);
        timings.push(PhaseTiming {
            phase: FlowPhase::Implementation,
            actual: t.elapsed(),
            modeled_s: modeled,
        });
        span.finish(modeled);

        // --- Phase 6: software generation ---
        let span = PhaseSpan::enter(observer.clone(), FlowPhase::SwGen);
        let t = Instant::now();
        let dts = devicetree::generate_dts(&block_design);
        let boot = BootImage::assemble(&bitstream, &dts);
        let mut capi_files = Vec::new();
        for (name, r) in &hls {
            if graph.connects().any(|c| c == name) {
                let base = block_design.base_of(name).unwrap_or(0);
                capi_files.push((
                    name.clone(),
                    capi::generate_header(&r.report, base),
                    capi::generate_impl(&r.report),
                ));
            }
        }
        let lite_reports: Vec<&HlsReport> = hls
            .iter()
            .filter(|(name, _)| graph.connects().any(|c| c == name))
            .map(|(_, r)| &*r.report)
            .collect();
        let main_c = accelsoc_swgen::app::generate_main_c(&block_design, &lite_reports);
        let makefile = accelsoc_swgen::app::generate_makefile(&block_design, &lite_reports);
        let modeled = 8.0 + 1.5 * capi_files.len() as f64;
        timings.push(PhaseTiming {
            phase: FlowPhase::SwGen,
            actual: t.elapsed(),
            modeled_s: modeled,
        });
        span.finish(modeled);

        Ok(FlowArtifacts {
            elaborated,
            hls,
            block_design,
            tcl: tcl_text,
            synth: synth_report,
            placement,
            route: route_report,
            timing: timing_report,
            bitstream,
            dts,
            boot,
            capi: capi_files,
            main_c,
            makefile,
            phase_timings: timings,
            metrics: FlowMetrics::default(),
        })
    }

    /// Check every node has a kernel whose interface matches the DSL ports.
    fn check_kernels(&self, e: &Elaborated) -> Result<(), FlowError> {
        for n in &e.graph.nodes {
            let kernel = &self
                .kernels
                .get(&n.name)
                .ok_or_else(|| FlowError::MissingKernel {
                    node: n.name.clone(),
                })?
                .kernel;
            for p in &n.ports {
                let param = kernel.param(&p.name);
                match (p.kind, param.map(|p| p.kind)) {
                    (InterfaceKind::Lite, Some(ParamKind::ScalarIn | ParamKind::ScalarOut)) => {}
                    (InterfaceKind::Stream, Some(ParamKind::StreamIn)) => {
                        if e.direction(&n.name, &p.name) != Some(PortDirection::Input) {
                            return Err(FlowError::PortMismatch {
                                node: n.name.clone(),
                                port: p.name.clone(),
                                issue: PortIssue::StreamInputUsedAsSource,
                            });
                        }
                    }
                    (InterfaceKind::Stream, Some(ParamKind::StreamOut)) => {
                        if e.direction(&n.name, &p.name) != Some(PortDirection::Output) {
                            return Err(FlowError::PortMismatch {
                                node: n.name.clone(),
                                port: p.name.clone(),
                                issue: PortIssue::StreamOutputUsedAsDestination,
                            });
                        }
                    }
                    (declared, found) => {
                        return Err(FlowError::PortMismatch {
                            node: n.name.clone(),
                            port: p.name.clone(),
                            issue: PortIssue::KindMismatch { declared, found },
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn arch_spec(&self, graph: &TaskGraph, hls: &[(String, HlsResult)]) -> ArchSpec {
        ArchSpec {
            name: graph.project.clone(),
            cores: hls
                .iter()
                .map(|(_, r)| CoreSpec {
                    report: HlsReport::clone(&r.report),
                })
                .collect(),
            stream_links: graph
                .links()
                .map(|(from, to)| LinkSpec {
                    from: conv_end(from),
                    to: conv_end(to),
                })
                .collect(),
            lite_cores: graph.connects().map(|s| s.to_string()).collect(),
            dma_policy: self.options.dma_policy,
        }
    }

    /// Build a simulated board from the artifacts, wiring accelerators and
    /// DMA engines per the block design, ready to execute the application.
    /// The board inherits the engine's observer, so stream-phase counters
    /// (DMA bursts, bus stalls) land in the same trace as the build. It
    /// shares the engine's kernel IR, execution units and phase-timing
    /// memo, so a streaming phase whose shape any board of this engine
    /// already ran reuses that timing instead of re-simulating it.
    pub fn build_board(
        &self,
        artifacts: &FlowArtifacts,
        dram_bytes: usize,
    ) -> Result<Board, FlowError> {
        let mut board = Board::new(dram_bytes);
        board.set_observer(self.options.observer.clone());
        board.set_phase_memo(self.phase_memo.clone());
        let mut accel_index = HashMap::new();
        for (name, r) in &artifacts.hls {
            let entry = self
                .kernels
                .get(name)
                .ok_or_else(|| FlowError::MissingKernel { node: name.clone() })?;
            let idx = board.add_accel(AccelInstance::with_unit(
                Arc::clone(&entry.kernel),
                Arc::clone(&r.report),
                self.unit_of(entry),
            ));
            accel_index.insert(name.clone(), idx);
        }
        for _ in 0..artifacts.block_design.dma_count() {
            board.add_dma();
        }
        // Mirror the assembler's DMA numbering.
        let mut soc_seen = 0usize;
        for (from, to) in artifacts.elaborated.graph.links() {
            let mut dma_ep = || {
                let idx = match self.options.dma_policy {
                    DmaPolicy::PerSocLink => soc_seen,
                    DmaPolicy::SharedChannel => 0,
                };
                soc_seen += 1;
                Endpoint::Dma(idx)
            };
            let accel_ep = |node: &str, port: &str| -> Result<Endpoint, FlowError> {
                let accel = *accel_index.get(node).ok_or(FlowError::Internal {
                    context: "link references an unbuilt accelerator",
                })?;
                Ok(Endpoint::Accel {
                    accel,
                    port: port.to_string(),
                })
            };
            let from_ep = match from {
                LinkEnd::Soc => dma_ep(),
                LinkEnd::Port { node, port } => accel_ep(node, port)?,
            };
            let to_ep = match to {
                LinkEnd::Soc => dma_ep(),
                LinkEnd::Port { node, port } => accel_ep(node, port)?,
            };
            board.link(from_ep, to_ep).map_err(FlowError::Board)?;
        }
        Ok(board)
    }
}

fn conv_end(e: &LinkEnd) -> SocEndpoint {
    match e {
        LinkEnd::Soc => SocEndpoint::Soc,
        LinkEnd::Port { node, port } => SocEndpoint::Core {
            core: node.clone(),
            port: port.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskGraphBuilder;
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;
    use accelsoc_observe::CollectObserver;
    use accelsoc_platform::board::PhaseStats;

    fn inc_kernel(name: &str) -> Kernel {
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

    fn adder_kernel() -> Kernel {
        KernelBuilder::new("ADD")
            .scalar_in("A", Ty::U32)
            .scalar_in("B", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .push(assign("ret", add(var("A"), var("B"))))
            .build()
    }

    fn pipeline_graph() -> TaskGraph {
        TaskGraphBuilder::new("pipe")
            .node("S1", |n| n.stream("in").stream("out"))
            .node("S2", |n| n.stream("in").stream("out"))
            .link_soc_to("S1", "in")
            .link(("S1", "out"), ("S2", "in"))
            .link_to_soc("S2", "out")
            .build()
            .unwrap()
    }

    fn engine_with_pipeline() -> FlowEngine {
        let mut e = FlowEngine::new(FlowOptions::default());
        e.register_kernel(inc_kernel("S1"));
        e.register_kernel(inc_kernel("S2"));
        e
    }

    #[test]
    fn full_flow_produces_all_artifacts() {
        let mut e = engine_with_pipeline();
        let art = e.run(&pipeline_graph()).unwrap();
        assert_eq!(art.hls.len(), 2);
        assert!(art.tcl.contains("create_bd_design"));
        assert!(art.synth.total.lut > 0);
        assert!(art.timing.met());
        assert!(art.bitstream.frame_count > 0);
        assert!(art.dts.contains("axi_dma_0"));
        assert_eq!(art.phase_timings.len(), 6);
        assert!(art.modeled_total_seconds() > 100.0);
        accelsoc_swgen::boot::BootImage::verify(&art.boot.data).unwrap();
    }

    #[test]
    fn metrics_agree_with_phase_timings() {
        let mut e = engine_with_pipeline();
        let art = e.run(&pipeline_graph()).unwrap();
        // The observer-side aggregate must match the artifact-side sum.
        assert_eq!(art.metrics.phases.len(), 6);
        let diff = (art.metrics.modeled_total_seconds() - art.modeled_total_seconds()).abs();
        assert!(diff < 1e-9, "metrics/timings disagree by {diff}");
        assert_eq!(art.metrics.hls_cache_misses, 2);
        assert_eq!(art.metrics.kernels_synthesized, 2);
        assert!(art.metrics.timing_met);
    }

    #[test]
    fn hls_cache_reused_across_runs() {
        let mut e = engine_with_pipeline();
        let a1 = e.run(&pipeline_graph()).unwrap();
        assert_eq!(e.cached_cores(), 2);
        let hls_first = a1.phase(FlowPhase::Hls).unwrap().modeled_s;
        assert!(hls_first > 0.0);
        let a2 = e.run(&pipeline_graph()).unwrap();
        // Second run: everything cached, no fresh HLS seconds.
        assert_eq!(a2.phase(FlowPhase::Hls).unwrap().modeled_s, 0.0);
        assert_eq!(a2.metrics.hls_cache_hits, 2);
        assert_eq!(a2.metrics.hls_cache_misses, 0);
    }

    /// A dividing variant of [`inc_kernel`]: same name, same interface,
    /// different body (and so different IR, directives, and RTL — the
    /// divider instantiates its own functional unit where the increment
    /// used a plain adder).
    fn scale_kernel(name: &str) -> Kernel {
        KernelBuilder::new(name)
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U8)
            .stream_out("out", Ty::U8)
            .push(for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![write("out", div(read("in"), c(3)))],
            ))
            .build()
    }

    /// Regression for the name-keyed cache collision: re-registering a
    /// *different* kernel under the same node name must re-synthesize,
    /// not serve the stale core. (Under the old `HashMap<String, _>`
    /// cache the second run reported two hits and returned S1's old
    /// RTL.)
    #[test]
    fn reregistered_kernel_with_new_body_is_resynthesized() {
        let mut e = engine_with_pipeline();
        let a1 = e.run(&pipeline_graph()).unwrap();

        e.register_kernel(scale_kernel("S1"));
        let a2 = e.run(&pipeline_graph()).unwrap();

        // S2 unchanged: hit. S1 changed: miss, fresh synthesis.
        assert_eq!(a2.metrics.hls_cache_hits, 1);
        assert_eq!(a2.metrics.hls_cache_misses, 1);
        assert_eq!(a2.metrics.kernels_synthesized, 1);
        let v1 = &a1.hls.iter().find(|(n, _)| n == "S1").unwrap().1.verilog;
        let v2 = &a2.hls.iter().find(|(n, _)| n == "S1").unwrap().1.verilog;
        assert_ne!(v1, v2, "stale RTL served for a re-registered kernel");
        // Both cores are retained under their distinct content keys.
        assert_eq!(e.cached_cores(), 3);
    }

    /// Different HLS options (clock target) must also miss, even for a
    /// byte-identical kernel.
    #[test]
    fn different_clock_target_is_a_cache_miss() {
        let shared = Arc::new(accelsoc_hls::HlsCache::in_memory());
        let mut e1 = FlowEngine::new(FlowOptions::builder().shared_cache(shared.clone()).build());
        e1.register_kernel(inc_kernel("S1"));
        e1.register_kernel(inc_kernel("S2"));
        e1.run(&pipeline_graph()).unwrap();

        let mut fast_hls = HlsOptions::default();
        fast_hls.lib.clock_ns /= 2.0;
        let mut e2 = FlowEngine::new(
            FlowOptions::builder()
                .shared_cache(shared.clone())
                .hls(fast_hls)
                .build(),
        );
        e2.register_kernel(inc_kernel("S1"));
        e2.register_kernel(inc_kernel("S2"));
        let art = e2.run(&pipeline_graph()).unwrap();
        assert_eq!(art.metrics.hls_cache_hits, 0);
        assert_eq!(art.metrics.hls_cache_misses, 2);
        assert_eq!(shared.len(), 4);
    }

    #[test]
    fn no_cache_forces_fresh_synthesis_every_run() {
        let mut e = FlowEngine::new(FlowOptions::builder().use_cache(false).build());
        e.register_kernel(inc_kernel("S1"));
        e.register_kernel(inc_kernel("S2"));
        e.run(&pipeline_graph()).unwrap();
        let a2 = e.run(&pipeline_graph()).unwrap();
        assert_eq!(a2.metrics.hls_cache_hits, 0);
        assert_eq!(a2.metrics.hls_cache_misses, 2);
        assert_eq!(a2.metrics.kernels_synthesized, 2);
        assert_eq!(e.cached_cores(), 0);
        assert!(a2.phase(FlowPhase::Hls).unwrap().modeled_s > 0.0);
    }

    #[test]
    fn persistent_cache_warms_a_fresh_engine() {
        let dir =
            std::env::temp_dir().join(format!("accelsoc-flow-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cold = FlowEngine::new(FlowOptions::builder().cache_dir(&dir).build());
        cold.register_kernel(inc_kernel("S1"));
        cold.register_kernel(inc_kernel("S2"));
        let a1 = cold.run(&pipeline_graph()).unwrap();
        assert_eq!(a1.metrics.hls_cache_misses, 2);
        assert_eq!(a1.metrics.hls_cache_stored, 2);

        // A brand-new engine over the same dir models a new process:
        // all hits come from the persistent tier, no fresh synthesis.
        let mut warm = FlowEngine::new(FlowOptions::builder().cache_dir(&dir).build());
        warm.register_kernel(inc_kernel("S1"));
        warm.register_kernel(inc_kernel("S2"));
        let a2 = warm.run(&pipeline_graph()).unwrap();
        assert_eq!(a2.metrics.hls_cache_hits, 2);
        assert_eq!(a2.metrics.hls_persisted_hits, 2);
        assert_eq!(a2.metrics.kernels_synthesized, 0);
        assert_eq!(a2.phase(FlowPhase::Hls).unwrap().modeled_s, 0.0);

        // Warm-run artifacts are byte-identical to the cold run's.
        assert_eq!(a1.tcl, a2.tcl);
        assert_eq!(a1.dts, a2.dts);
        assert_eq!(a1.bitstream.data, a2.bitstream.data);
        for ((n1, r1), (n2, r2)) in a1.hls.iter().zip(&a2.hls) {
            assert_eq!(n1, n2);
            assert_eq!(r1.verilog, r2.verilog);
            assert_eq!(r1.directives_tcl, r2.directives_tcl);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observer_sees_all_phases_in_order() {
        let collect = Arc::new(CollectObserver::new());
        let mut e = FlowEngine::new(FlowOptions::builder().observer(collect.clone()).build());
        e.register_kernel(inc_kernel("S1"));
        e.register_kernel(inc_kernel("S2"));
        e.run(&pipeline_graph()).unwrap();
        let events = collect.take();
        assert!(matches!(
            events.first(),
            Some(FlowEvent::FlowStarted { nodes: 2, .. })
        ));
        assert!(matches!(
            events.last(),
            Some(FlowEvent::FlowFinished {
                outcome: SpanOutcome::Success,
                ..
            })
        ));
        let started: Vec<FlowPhase> = events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::PhaseStarted { phase } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(started, FlowPhase::ALL.to_vec());
        // Every start has a matching successful end.
        let ended_ok = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FlowEvent::PhaseEnded {
                        outcome: SpanOutcome::Success,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(ended_ok, 6);
    }

    #[test]
    fn failed_flow_still_closes_spans() {
        let collect = Arc::new(CollectObserver::new());
        let mut e = FlowEngine::new(FlowOptions::builder().observer(collect.clone()).build());
        e.register_kernel(inc_kernel("S1"));
        // S2 unregistered: the flow dies inside the DslCompile span.
        let err = e.run(&pipeline_graph()).unwrap_err();
        assert!(matches!(err, FlowError::MissingKernel { ref node } if node == "S2"));
        let events = collect.take();
        let starts = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::PhaseStarted { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::PhaseEnded { .. }))
            .count();
        assert_eq!(starts, 1);
        assert_eq!(ends, 1, "aborted span must still emit PhaseEnded");
        assert!(matches!(
            events.last(),
            Some(FlowEvent::FlowFinished {
                outcome: SpanOutcome::Failed(_),
                ..
            })
        ));
    }

    #[test]
    fn flow_error_exposes_sources() {
        let mut e = engine_with_pipeline();
        let err = e.run_source("tg nodes; garbage").unwrap_err();
        assert!(
            std::error::Error::source(&err).is_some(),
            "Parse must carry a source"
        );
        let mut e = FlowEngine::new(FlowOptions::default());
        e.register_kernel(inc_kernel("S1"));
        let err = e.run(&pipeline_graph()).unwrap_err();
        assert!(
            std::error::Error::source(&err).is_none(),
            "MissingKernel is a leaf error"
        );
    }

    #[test]
    fn missing_kernel_reported() {
        let mut e = FlowEngine::new(FlowOptions::default());
        e.register_kernel(inc_kernel("S1"));
        let err = e.run(&pipeline_graph()).unwrap_err();
        assert!(matches!(err, FlowError::MissingKernel { ref node } if node == "S2"));
    }

    #[test]
    fn port_mismatch_reported() {
        let mut e = FlowEngine::new(FlowOptions::default());
        e.register_kernel(inc_kernel("S1"));
        e.register_kernel(inc_kernel("S2"));
        // DSL declares a port the kernel doesn't have.
        let g = TaskGraphBuilder::new("bad")
            .node("S1", |n| n.stream("in").stream("wrong"))
            .node("S2", |n| n.stream("in").stream("out"))
            .link_soc_to("S1", "in")
            .link(("S1", "wrong"), ("S2", "in"))
            .link_to_soc("S2", "out")
            .build()
            .unwrap();
        match e.run(&g).unwrap_err() {
            FlowError::PortMismatch { node, port, issue } => {
                assert_eq!(node, "S1");
                assert_eq!(port, "wrong");
                assert!(matches!(issue, PortIssue::KindMismatch { found: None, .. }));
            }
            other => panic!("expected PortMismatch, got {other}"),
        }
    }

    #[test]
    fn lite_core_gets_capi() {
        let mut e = FlowEngine::new(FlowOptions::default());
        e.register_kernel(adder_kernel());
        let g = TaskGraphBuilder::new("lite")
            .node("ADD", |n| n.lite("A").lite("B").lite("ret"))
            .connect("ADD")
            .build()
            .unwrap();
        let art = e.run(&g).unwrap();
        assert_eq!(art.capi.len(), 1);
        let (name, header, impl_) = &art.capi[0];
        assert_eq!(name, "ADD");
        assert!(header.contains("ADD_BASE"));
        assert!(impl_.contains("ap_start"));
        // No DMA for a lite-only design.
        assert_eq!(art.block_design.dma_count(), 0);
    }

    /// Stream `input` through a built `pipeline_graph` board; returns
    /// the output bytes and the phase statistics.
    fn run_pipeline(board: &mut Board, input: &[u8]) -> (Vec<u8>, PhaseStats) {
        use accelsoc_axi::dma::DmaDescriptor;
        let n = input.len();
        let (src, dst) = (0x100, 0x100 + n as u64);
        board.dram.load_bytes(src, input).unwrap();
        let stats = board
            .run_stream_phase(
                &[(
                    0,
                    DmaDescriptor {
                        addr: src,
                        len: n as u64,
                    },
                )],
                &[(
                    0,
                    DmaDescriptor {
                        addr: dst,
                        len: n as u64,
                    },
                )],
                &[(0, "n", n as i64), (1, "n", n as i64)],
            )
            .unwrap();
        (board.dram.dump_bytes(dst, n).unwrap(), stats)
    }

    #[test]
    fn board_from_artifacts_runs_pipeline() {
        let mut e = engine_with_pipeline();
        let art = e.run(&pipeline_graph()).unwrap();
        let mut board = e.build_board(&art, 1 << 16).unwrap();
        let (out, stats) = run_pipeline(&mut board, &[1, 2, 3, 4]);
        // Two increment stages: each byte +2.
        assert_eq!(out, vec![3, 4, 5, 6]);
        assert!(stats.ns > 0.0);
    }

    /// `pipeline_graph`'s board wired by hand around `Board::new`, so its
    /// phase timing comes from a private, empty memo.
    fn fresh_pipeline_board(art: &FlowArtifacts) -> Board {
        let mut board = Board::new(1 << 16);
        for name in ["S1", "S2"] {
            let (_, r) = art.hls.iter().find(|(n, _)| n == name).unwrap();
            board.add_accel(AccelInstance::new(inc_kernel(name), r.report.clone()));
        }
        let dma = board.add_dma();
        let port = |accel: usize, port: &str| Endpoint::Accel {
            accel,
            port: port.into(),
        };
        board.link(Endpoint::Dma(dma), port(0, "in")).unwrap();
        board.link(port(0, "out"), port(1, "in")).unwrap();
        board.link(port(1, "out"), Endpoint::Dma(dma)).unwrap();
        board
    }

    fn timing_reuse(events: &[FlowEvent]) -> Vec<bool> {
        events
            .iter()
            .filter_map(|ev| match ev {
                FlowEvent::SimPhaseDone { timing_reused, .. } => Some(*timing_reused),
                _ => None,
            })
            .collect()
    }

    /// Boards of one engine share one phase-timing memo: a second
    /// board's phase of the same shape (other pixel values) reuses the
    /// first one's timing, reports it as reused, and gets equal stats.
    #[test]
    fn boards_of_one_engine_share_phase_timing() {
        let collect = Arc::new(CollectObserver::new());
        let mut e = FlowEngine::new(FlowOptions::builder().observer(collect.clone()).build());
        e.register_kernel(inc_kernel("S1"));
        e.register_kernel(inc_kernel("S2"));
        let art = e.run(&pipeline_graph()).unwrap();
        collect.take();

        let mut first = e.build_board(&art, 1 << 16).unwrap();
        let mut second = e.build_board(&art, 1 << 16).unwrap();
        let (out1, s1) = run_pipeline(&mut first, &[1, 2, 3, 4]);
        let (out2, s2) = run_pipeline(&mut second, &[50, 60, 70, 80]);
        assert_eq!((out1, out2), (vec![3, 4, 5, 6], vec![52, 62, 72, 82]));
        assert_eq!(s1, s2);
        assert_eq!(e.phase_memo().len(), 1);

        let events = collect.take();
        assert_eq!(timing_reuse(&events), [false, true]);
        let mut metrics = FlowMetrics::default();
        for ev in &events {
            metrics.record(ev);
        }
        assert_eq!((metrics.sim_phases, metrics.sim_phases_reused), (2, 1));
    }

    /// `build_board` hands every board the engine's kernel IR by pointer,
    /// never a deep copy.
    #[test]
    fn boards_of_one_engine_share_accelerator_ir() {
        let mut e = engine_with_pipeline();
        let art = e.run(&pipeline_graph()).unwrap();
        let boards: Vec<Board> = (0..3)
            .map(|_| e.build_board(&art, 1 << 16).unwrap())
            .collect();
        for board in &boards {
            assert_eq!(board.accels.len(), 2);
            for a in &board.accels {
                let entry = &e.kernels[&a.kernel.name];
                assert!(Arc::ptr_eq(&a.kernel, &entry.kernel), "{}", a.kernel.name);
            }
        }
    }

    /// The memo key is the phase's whole input: after a built board's
    /// FIFO depth or HP-port width changes, its phase returns exactly
    /// what a fresh `Board::new` computes, never the timing memoized
    /// for the engine's default knobs.
    #[test]
    fn changed_board_knobs_match_a_fresh_board() {
        let mut e = engine_with_pipeline();
        let art = e.run(&pipeline_graph()).unwrap();
        let data = [7u8; 256];
        let (_, default) = run_pipeline(&mut e.build_board(&art, 1 << 16).unwrap(), &data);
        for (depth, hp) in [(1, 8), (16, 1), (2, 2)] {
            let mut built = e.build_board(&art, 1 << 16).unwrap();
            let mut fresh = fresh_pipeline_board(&art);
            for b in [&mut built, &mut fresh] {
                b.stream_fifo_depth = depth;
                b.hp_bytes_per_cycle = hp;
            }
            let (_, got) = run_pipeline(&mut built, &data);
            let (_, want) = run_pipeline(&mut fresh, &data);
            assert_eq!(got, want, "depth {depth}, hp {hp}");
            assert_ne!(got, default, "depth {depth}, hp {hp}");
        }
        assert_eq!(e.phase_memo().len(), 4);
    }

    fn compiled_kernels(events: &[FlowEvent]) -> Vec<String> {
        events
            .iter()
            .filter_map(|ev| match ev {
                FlowEvent::KernelCompiled { kernel } => Some(kernel.clone()),
                _ => None,
            })
            .collect()
    }

    /// Every board and software stage of one engine shares one compiled
    /// unit per kernel: the first fetch compiles, every later one is a
    /// countable hit, and an unregistered name is a typed error.
    #[test]
    fn exec_units_compile_once_per_engine() {
        let collect = Arc::new(CollectObserver::new());
        let mut e = FlowEngine::new(FlowOptions::builder().observer(collect.clone()).build());
        e.register_kernel(inc_kernel("S1"));
        e.register_kernel(inc_kernel("S2"));
        let art = e.run(&pipeline_graph()).unwrap();
        let boards: Vec<Board> = (0..5)
            .map(|_| e.build_board(&art, 1 << 16).unwrap())
            .collect();
        // The fetches software stages make. Each unit is owned by the
        // engine, this handle and every board: all share one `Arc`.
        for name in ["S1", "S2"] {
            let unit = e.exec_unit(name).unwrap();
            assert_eq!(Arc::strong_count(&unit), 2 + boards.len(), "{name}");
        }
        let events = collect.take();
        assert_eq!(compiled_kernels(&events), ["S1", "S2"]);
        let mut metrics = FlowMetrics::default();
        for ev in &events {
            metrics.record(ev);
        }
        assert_eq!(metrics.vm_compile_misses, 2);
        assert_eq!(metrics.vm_compile_hits, 5 * 2 + 2 - 2);

        assert!(matches!(
            e.exec_unit("S3").unwrap_err(),
            FlowError::MissingKernel { ref node } if node == "S3"
        ));
    }

    /// The execution-side twin of
    /// `reregistered_kernel_with_new_body_is_resynthesized`:
    /// re-registering drops the stale unit, so a freshly built board
    /// runs the new body, while a board built earlier keeps its own.
    #[test]
    fn reregistered_kernel_runs_new_body_on_fresh_boards() {
        let collect = Arc::new(CollectObserver::new());
        let mut e = FlowEngine::new(FlowOptions::builder().observer(collect.clone()).build());
        e.register_kernel(inc_kernel("S1"));
        e.register_kernel(inc_kernel("S2"));
        let a1 = e.run(&pipeline_graph()).unwrap();
        let mut old = e.build_board(&a1, 1 << 16).unwrap();

        e.register_kernel(scale_kernel("S1"));
        let a2 = e.run(&pipeline_graph()).unwrap();
        let mut fresh = e.build_board(&a2, 1 << 16).unwrap();

        // S1 now divides by 3 before S2 adds 1.
        assert_eq!(
            run_pipeline(&mut fresh, &[9, 30, 60, 90]).0,
            [4, 11, 21, 31]
        );
        assert_eq!(run_pipeline(&mut old, &[9, 30, 60, 90]).0, [11, 32, 62, 92]);
        assert_eq!(compiled_kernels(&collect.take()), ["S1", "S2", "S1"]);
    }

    #[test]
    fn run_source_end_to_end() {
        let src = r#"
            object pipe extends App {
              tg nodes;
                tg node "S1" is "in" is "out" end;
                tg node "S2" is "in" is "out" end;
              tg end_nodes;
              tg edges;
                tg link 'soc to ("S1","in") end;
                tg link ("S1","out") to ("S2","in") end;
                tg link ("S2","out") to 'soc end;
              tg end_edges;
            }
        "#;
        let mut e = engine_with_pipeline();
        let art = e.run_source(src).unwrap();
        assert_eq!(art.elaborated.graph.project, "pipe");
        assert_eq!(art.block_design.dma_count(), 1);
    }

    #[test]
    fn parse_error_surfaces() {
        let mut e = engine_with_pipeline();
        assert!(matches!(
            e.run_source("tg nodes; garbage").unwrap_err(),
            FlowError::Parse(_)
        ));
    }
}
