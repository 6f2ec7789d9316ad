//! The traced run: tracing overhead, then one pass broken down into
//! per-layer host time, plus the kernel-tier replay. Never mixed into
//! the end-to-end numbers.
//!
//! The breakdown pass runs on one host thread so that sibling spans are
//! sequential and their self times add up to the pass.

use crate::host::{digest, median, percentile};
use crate::kernels;
use crate::trace::Tracer;
use crate::workloads::{Kind, Report, Workload, THREADS};
use accelsoc_apps::archs::Arch;
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::{run_application_group, AppConfig};
use accelsoc_apps::DEFAULT_LANES;
use accelsoc_observe::{
    FlowEvent, FlowMetrics, FlowObserver, FlowPhase, MetricsObserver, NullObserver,
};
use accelsoc_serve::{DseEstimator, ServeConfig, SimTables};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The breakdown must leave at most this share of the pass unexplained
/// in at least one repetition. A layer the breakdown misses shows in
/// every repetition; host noise between a call and its replays does not.
pub const COVERAGE_TOLERANCE: f64 = 0.25;

/// Images the kernel-tier replay takes from the workload's stage inputs.
const KERNEL_REPLAY_IMAGES: usize = 64;

/// Breakdown passes per traced run (even, so both call orders of the
/// serving precompute are sampled equally).
const BREAKDOWN_REPS: usize = 4;

pub struct Traced {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Some breakdown pass is covered within [`COVERAGE_TOLERANCE`].
    pub coverage_ok: bool,
    /// Replays agreed with the program (kernel tiers bit-identical, no
    /// lane group failed).
    pub replays_ok: bool,
    pub spans_json: String,
}

fn phase_layer(phase: FlowPhase) -> (&'static str, &'static str) {
    match phase {
        FlowPhase::DslCompile => ("core.dsl_compile", "core.dsl_compile_s"),
        FlowPhase::Hls => ("hls.hls", "hls.hls_s"),
        FlowPhase::ProjectGen => ("integration.project_gen", "integration.project_gen_s"),
        FlowPhase::Synthesis => ("integration.synthesis", "integration.synthesis_s"),
        FlowPhase::Implementation => ("integration.implementation", "integration.implementation_s"),
        FlowPhase::SwGen => ("swgen.swgen", "swgen.swgen_s"),
    }
}

/// Timestamps the two partition events that separate packing,
/// co-simulation and the functional layer inside one call.
struct Stamps {
    epoch: Instant,
    at: Mutex<HashMap<&'static str, u64>>,
}

impl FlowObserver for Stamps {
    fn on_event(&self, event: &FlowEvent) {
        let tag = match event {
            FlowEvent::PartitionPlanned { .. } => "planned",
            FlowEvent::MultiBoardSimDone { .. } => "cosim_done",
            _ => return,
        };
        let ns = self.epoch.elapsed().as_nanos() as u64;
        self.at.lock().expect("stamp lock").insert(tag, ns);
    }
}

/// One board simulation of the precompute: `(arch, side, image seed)`.
type SimKey = (Arch, u32, u64);

/// Same-arch lane groups of the stream's unique `(arch, side, image)`
/// keys in first-seen order — the grouping `SimTables::build` makes.
/// Every job of these workloads passes static admission, so no key is
/// filtered out.
fn lane_groups(w: &Workload, lanes: usize) -> (usize, Vec<Vec<SimKey>>) {
    let mut seen = HashSet::new();
    let mut groups: Vec<Vec<SimKey>> = Vec::new();
    let mut open: HashMap<&'static str, usize> = HashMap::new();
    let mut unique = 0;
    for j in w.jobs() {
        if !seen.insert((j.arch.name(), j.side, j.image_seed)) {
            continue;
        }
        unique += 1;
        let slot = *open.entry(j.arch.name()).or_insert_with(|| {
            groups.push(Vec::with_capacity(lanes));
            groups.len() - 1
        });
        groups[slot].push((j.arch, j.side, j.image_seed));
        if groups[slot].len() == lanes {
            open.remove(j.arch.name());
        }
    }
    (unique, groups)
}

fn image(side: u32, seed: u64) -> RgbImage {
    RgbImage::from_gray(&synthetic_scene(side, side, seed))
}

pub fn run(w: &Workload, seconds: f64, reference: Option<u64>) -> Result<Traced, String> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut reference = reference;
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Tracing overhead: alternate untraced and traced passes at the
    // workload's own configuration, for half the run; the breakdown
    // passes below take about the other half.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed() < Duration::from_secs_f64(seconds / 2.0) {
        for observed in [false, true] {
            let metrics = MetricsObserver::new();
            let obs: &dyn FlowObserver = if observed { &metrics } else { &NullObserver };
            attempted += 1;
            match w.pass(THREADS, obs) {
                Ok(p) => {
                    let expect = *reference.get_or_insert(p.digest);
                    if p.digest != expect || !p.report.invariant_ok() {
                        failed += 1;
                    }
                    if observed { &mut traced } else { &mut plain }.push(p.wall_s);
                }
                Err(_) => failed += 1,
            }
        }
    }
    v.insert(
        "observe.trace_overhead".into(),
        median(&traced) / median(&plain),
    );

    // The breakdown, repeated; each per-layer value is the median over
    // the repetitions, so one noisy call cannot flip a difference.
    let mut t = Tracer::default();
    let stamps = Stamps {
        epoch: t.epoch(),
        at: Mutex::new(HashMap::new()),
    };
    let mut reps: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut replays_ok = true;
    for rep in 0..BREAKDOWN_REPS {
        let b = breakdown(w, &mut t, &stamps, rep % 2 == 1)?;
        attempted += 1;
        if Some(b.digest) != reference || !b.invariant_ok {
            failed += 1;
        }
        replays_ok &= b.replays_ok;
        reps.push(b.values);
    }
    for key in reps[0].keys() {
        let samples: Vec<f64> = reps.iter().filter_map(|r| r.get(key).copied()).collect();
        v.insert(key.clone(), median(&samples));
    }

    let kernel_images: Vec<RgbImage> = if w.kind == Kind::PartitionX48 {
        let opts = w.partition_options(1);
        (0..opts.scale)
            .map(|k| image(opts.side, opts.seed.wrapping_add(k as u64)))
            .collect()
    } else {
        lane_groups(w, DEFAULT_LANES)
            .1
            .iter()
            .flatten()
            .take(KERNEL_REPLAY_IMAGES)
            .map(|&(_, side, seed)| image(side, seed))
            .collect()
    };
    let rates = kernels::replay(&kernel_images, DEFAULT_LANES).map_err(|e| e.to_string())?;
    replays_ok &= rates.consistent;
    v.insert("kernel.compile_s".into(), rates.compile_s);
    v.insert("kernel.interp_ir_ops_per_s".into(), rates.interp_ops_per_s);
    v.insert("kernel.scalar_ir_ops_per_s".into(), rates.scalar_ops_per_s);
    v.insert("kernel.lane_ir_ops_per_s".into(), rates.lane_ops_per_s);
    v.insert("kernel.ops_per_dispatch".into(), rates.ops_per_dispatch);
    v.insert("kernel.replay_ir_ops".into(), rates.ir_ops as f64);

    let coverage_ok = reps
        .iter()
        .any(|r| r["observe.uncovered_frac"].abs() <= COVERAGE_TOLERANCE);
    Ok(Traced {
        values: v,
        attempted,
        failed,
        coverage_ok,
        replays_ok,
        spans_json: t.to_json(),
    })
}

/// Per-layer values of one breakdown pass.
struct Breakdown {
    values: BTreeMap<String, f64>,
    digest: u64,
    invariant_ok: bool,
    replays_ok: bool,
}

fn cache_hit_ratio(m: &FlowMetrics) -> f64 {
    m.hls_cache_hits as f64 / (m.hls_cache_hits + m.hls_cache_misses).max(1) as f64
}

/// The serving precompute's configuration: the workload's own, on one
/// host thread.
fn precompute_config(w: &Workload) -> ServeConfig {
    match w.kind {
        Kind::ServeFresh => w.serve_config(1),
        _ => w.cluster_config(1).nodes[0].clone(),
    }
}

/// Time the latency precompute a serving run performs first, as a call
/// of its own on the same inputs.
fn time_precompute(w: &Workload, t: &Tracer) -> Result<(u64, u64), String> {
    let start = t.now_ns();
    SimTables::build(w.jobs(), &precompute_config(w), 1).map_err(|e| e.to_string())?;
    Ok((start, t.now_ns()))
}

/// One pass on one host thread, broken down into spans, plus the
/// separately timed calls attributed to its layers. The serving
/// precompute is timed before the pass when `precompute_first`, after it
/// otherwise, so call order cannot bias the loop time (run minus
/// precompute).
fn breakdown(
    w: &Workload,
    t: &mut Tracer,
    stamps: &Stamps,
    precompute_first: bool,
) -> Result<Breakdown, String> {
    let run_name = match w.kind {
        Kind::ServeFresh => "serve.run",
        Kind::ClusterPooled => "cluster.run",
        Kind::PartitionX48 => "partition.run",
    };
    let serving = w.kind != Kind::PartitionX48;
    let early = match serving && precompute_first {
        true => Some(time_precompute(w, t)?),
        false => None,
    };
    stamps.at.lock().expect("stamp lock").clear();
    let root = t.open("pass", None, false);
    // The run's self time is the serving event loop; the partition run is
    // split by its event stamps instead.
    let (run, report) = t.time(run_name, Some(root), serving, || w.simulate(1, stamps));
    let report = report?;
    let (ser, json) = t.time("report_ser", Some(root), true, || report.to_json());
    let (_, d) = t.time("bench.digest", Some(root), true, || digest(json.as_bytes()));
    t.close(root);

    let mut v = BTreeMap::new();
    let replays_ok = if serving {
        let (start, end) = match early {
            Some(interval) => interval,
            None => time_precompute(w, t)?,
        };
        let pre = t.record("serve.precompute", Some(run), false, start, end);
        serving_layers(w, t, run, pre, &report, &mut v)?
    } else {
        partition_layers(w, t, run, stamps, &mut v)?;
        true
    };
    let ser_metric = if serving {
        "serve.report_ser_s"
    } else {
        "partition.report_ser_s"
    };
    v.insert(ser_metric.into(), t.span(ser).dur_s());
    let pass_s = t.span(root).dur_s();
    let uncovered = t.uncovered_s(root);
    v.insert("observe.pass_s".into(), pass_s);
    v.insert("observe.uncovered_s".into(), uncovered);
    v.insert("observe.uncovered_frac".into(), uncovered / pass_s);
    Ok(Breakdown {
        values: v,
        digest: d,
        invariant_ok: report.invariant_ok(),
        replays_ok,
    })
}

/// Replay the stages of the serving precompute `pre` under it; the run's
/// remaining self time is the event loop. Returns whether every replayed
/// lane group succeeded.
fn serving_layers(
    w: &Workload,
    t: &mut Tracer,
    run: usize,
    pre: usize,
    report: &Report,
    v: &mut BTreeMap<String, f64>,
) -> Result<bool, String> {
    let metrics = Arc::new(MetricsObserver::new());

    // Its stages, replayed: flow artifacts per architecture...
    let flow_start = t.now_ns();
    let (engine, artifacts) = w.flow(metrics.clone())?;
    let flow = t.record("flow", Some(pre), false, flow_start, t.now_ns());
    let mut cursor = flow_start;
    for (_, a) in &artifacts {
        for p in &a.phase_timings {
            let (span, metric) = phase_layer(p.phase);
            let ns = p.actual.as_nanos() as u64;
            t.record(span, Some(flow), true, cursor, cursor + ns);
            cursor += ns;
            *v.entry(metric.into()).or_default() += p.actual.as_secs_f64();
        }
    }
    // ...the DSE estimate of every job...
    t.time("serve.estimates", Some(pre), true, || {
        let mut est = DseEstimator::new();
        for j in w.jobs() {
            est.estimate_ps(j.arch, j.side);
        }
    });
    // ...the unique-key scan and lane grouping...
    let (_, (unique, groups)) = t.time("serve.keys", Some(pre), true, || {
        lane_groups(w, precompute_config(w).lanes.max(1))
    });
    // ...then image synthesis and one `run_application_group` per lane
    // group on this engine.
    let mut group_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut ir_ops, mut dispatches, mut ok) = (0u64, 0u64, true);
    for g in &groups {
        let arch = g[0].0;
        let (_, images) = t.time("apps.image_synth", Some(pre), true, || {
            g.iter()
                .map(|&(_, side, seed)| image(side, seed))
                .collect::<Vec<_>>()
        });
        let art = &artifacts
            .iter()
            .find(|(a, _)| *a == arch)
            .expect("flow ran per arch")
            .1;
        let name = arch.name().to_ascii_lowercase();
        let (id, exec) = t.time(&format!("apps.group.{name}"), Some(pre), true, || {
            run_application_group(arch, &engine, art, &images, &AppConfig::default())
        });
        let exec = exec.map_err(|e| e.to_string())?;
        ok &= exec.runs.iter().all(Result::is_ok);
        ir_ops += exec.ir_ops;
        dispatches += exec.vm_dispatches;
        group_s.entry(name).or_default().push(t.span(id).dur_s());
    }
    for (arch, samples) in &group_s {
        let key = |stat: &str| format!("apps.group_s.{arch}.{stat}");
        v.insert(key("p50"), percentile(samples, 50));
        v.insert(key("p99"), percentile(samples, 99));
        v.insert(key("n"), samples.len() as f64);
    }
    v.insert("apps.ir_ops".into(), ir_ops as f64);
    v.insert("apps.vm_dispatches".into(), dispatches as f64);

    let m = metrics.snapshot();
    v.insert("hls.cache_hit_ratio".into(), cache_hit_ratio(&m));
    v.insert("platform.sim_phases".into(), m.sim_phases as f64);
    v.insert("platform.dma_bursts".into(), m.sim_dma_bursts as f64);
    let stalls =
        m.sim_bus_stall_cycles + m.sim_backpressure_stall_cycles + m.sim_starvation_stall_cycles;
    v.insert("platform.stall_cycles".into(), stalls as f64);

    let jobs = w.jobs().len() as f64;
    let loop_s = t.self_s(run);
    v.insert("serve.precompute_s".into(), t.span(pre).dur_s());
    v.insert("serve.loop_s".into(), loop_s);
    v.insert("serve.loop_ns_per_job".into(), loop_s * 1e9 / jobs);
    v.insert("serve.unique_sims".into(), unique as f64);
    v.insert("serve.sims_per_job".into(), unique as f64 / jobs);
    let (batches, forwarded, stolen, shed, redispatched) = match report {
        Report::Cluster(r) => (
            r.per_node.iter().map(|n| n.batches).sum(),
            r.forwarded,
            r.stolen,
            r.shed,
            r.redispatched,
        ),
        Report::Serve(r) => (r.batches, 0, 0, 0, 0),
        Report::Partition(_) => unreachable!("serving reports only"),
    };
    v.insert("serve.batches".into(), batches as f64);
    v.insert("serve.forwarded".into(), forwarded as f64);
    v.insert("serve.stolen".into(), stolen as f64);
    v.insert("serve.shed".into(), shed as f64);
    v.insert("serve.redispatched".into(), redispatched as f64);
    Ok(ok)
}

/// Split the partition run at its two event stamps, and attribute the
/// plan stage's HTG build and packing from calls timed on their own.
fn partition_layers(
    w: &Workload,
    t: &mut Tracer,
    run: usize,
    stamps: &Stamps,
    v: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let at = stamps.at.lock().expect("stamp lock").clone();
    let span = t.span(run).clone();
    let planned = *at.get("planned").ok_or("no PartitionPlanned event")?;
    let cosim_done = *at.get("cosim_done").ok_or("no MultiBoardSimDone event")?;
    let plan = t.record("partition.plan", Some(run), false, span.start_ns, planned);
    let mb = t.record("platform.multiboard", Some(run), true, planned, cosim_done);
    let func = t.record(
        "partition.functional",
        Some(run),
        true,
        cosim_done,
        span.end_ns,
    );

    let metrics = MetricsObserver::new();
    let st = t.now_ns();
    let (htg_s, pack_s) = w.plan(&metrics)?;
    let htg_end = st + (htg_s * 1e9) as u64;
    t.record("partition.htg", Some(plan), true, st, htg_end);
    t.record(
        "partition.pack",
        Some(plan),
        true,
        htg_end,
        htg_end + (pack_s * 1e9) as u64,
    );
    v.insert(
        "hls.cache_hit_ratio".into(),
        cache_hit_ratio(&metrics.snapshot()),
    );
    v.insert("partition.htg_s".into(), htg_s);
    v.insert("partition.pack_s".into(), pack_s);
    v.insert("platform.multiboard_s".into(), t.span(mb).dur_s());
    v.insert("partition.functional_s".into(), t.span(func).dur_s());
    Ok(())
}
