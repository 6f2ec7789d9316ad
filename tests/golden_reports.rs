//! Golden tests pinning the serialized `BatchReport`, `ServeReport` and
//! `PartitionSimReport` byte-for-byte, the reports and full event streams
//! of serve and multi-node cluster stress runs, and the Otsu chain's
//! per-task runs, DSE profiles and scaled HTG, and the compiled kernel
//! programs the lane VM runs.
//!
//! All three reports are virtual-time-only and deterministic by construction,
//! so their JSON must not drift when the execution engine underneath is
//! swapped (e.g. interpreter -> compiled kernel VM): any byte of
//! difference means simulated timing or results changed, which is a
//! semantic regression, not a refactor. Regenerate after an *intentional*
//! model change with `UPDATE_GOLDEN=1 cargo test --test golden_reports`.

use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine, Arch};
use accelsoc_apps::batch::{image_stream, run_batch};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::kernels::{
    add_core, edge_core, gauss2d_core, gauss_core, mul_core, sobel2d_core,
};
use accelsoc_apps::otsu::{self, run_application_group, AppConfig, ChainValues, Value, STAGES};
use accelsoc_core::observe::{CollectObserver, NullObserver};
use accelsoc_dse::otsu_chain_model;
use accelsoc_hls::cache::HlsCache;
use accelsoc_htg::graph::{Htg, TaskNode, TransferKind};
use accelsoc_kernel::interp::{ExecStats, StreamBundle};
use accelsoc_kernel::{CompiledKernel, Kernel};
use accelsoc_partition::{run_partition_sim, scaled_otsu_htg, PartitionSimOptions};
use accelsoc_serve::{
    generate_workload, pool_image_seeds, ClusterConfig, ClusterOutcome, ClusterSession,
    DseEstimator, JobShape, JobSpec, PolicyKind, ServeConfig, ServeSession, TenantProfile,
    WorkloadSpec,
};
use std::collections::HashMap;
use std::path::Path;

fn check_or_update(golden_rel: &str, actual: &str) {
    let golden_path =
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).join(golden_rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden report missing: run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        actual,
        golden,
        "{} diverged from its pre-recorded golden; the simulated timing or \
         results changed. Rerun with UPDATE_GOLDEN=1 only if the model \
         change is intentional",
        golden_path.display()
    );
}

#[test]
fn batch_report_matches_golden() {
    let mut engine = otsu_flow_engine();
    let stream = image_stream(3, 24);
    let cfg = AppConfig::default();
    let mut out = String::new();
    for arch in [Arch::Arch2, Arch::Arch4] {
        let art = engine.run_source(&arch_dsl_source(arch)).expect("flow");
        let rep = run_batch(arch, &engine, &art, &stream, 2, &cfg).expect("batch");
        out.push_str(&serde_json::to_string_pretty(&rep).unwrap());
        out.push('\n');
    }
    check_or_update("batch_report.json", &out);
}

#[test]
fn serve_report_matches_golden() {
    let profiles = vec![
        TenantProfile {
            name: "interactive".into(),
            weight: 2,
            sides: vec![16, 24],
            archs: vec![Arch::Arch4],
            deadline_slack_pct: Some(5_000),
            fault_rate: 0.0,
        },
        TenantProfile {
            name: "batch".into(),
            weight: 1,
            sides: vec![32],
            archs: vec![Arch::Arch1],
            deadline_slack_pct: None,
            fault_rate: 0.1,
        },
    ];
    let spec = WorkloadSpec {
        tenants: profiles.clone(),
        jobs: 12,
        mean_interarrival_ps: 50_000_000,
        seed: 7,
    };
    let mut est = DseEstimator::new();
    let jobs = generate_workload(&spec, &mut est);
    let cfg = ServeConfig::builder()
        .tenants(profiles.iter().map(|t| t.name.clone()))
        .boards(2)
        .policy(PolicyKind::Sjf)
        .threads(2)
        .seed(spec.seed)
        .build();
    let rep = ServeSession::new(cfg)
        .run(&jobs, &NullObserver)
        .expect("serve");
    let out = serde_json::to_string_pretty(&rep).unwrap() + "\n";
    check_or_update("serve_report.json", &out);
}

/// Eight hand-made jobs spliced into the middle of the stream: one per
/// static rejection kind, three multi-board gangs (one faulting) and one
/// submitted at time 0, so arrival order differs from slice order.
fn stress_extras(next_id: u64, mid_ps: u64) -> Vec<JobSpec> {
    let base = |id: u64, tenant: &str| JobSpec {
        id,
        tenant: tenant.into(),
        arch: Arch::Arch1,
        side: 16,
        image_seed: id,
        submit_ps: mid_ps,
        deadline_ps: None,
        transient_fault: false,
        graph: None,
        shape: JobShape::SingleBoard,
    };
    let task = |kernel: &str| TaskNode {
        kernel: kernel.into(),
        sw_cycles: 1,
        sw_only: false,
    };
    let mut cyclic = Htg::new();
    let a = cyclic.add_task("A", task("a")).unwrap();
    let b = cyclic.add_task("B", task("b")).unwrap();
    cyclic
        .add_edge(a, b, TransferKind::SharedBuffer { bytes: 4 })
        .unwrap();
    cyclic
        .add_edge(b, a, TransferKind::SharedBuffer { bytes: 4 })
        .unwrap();

    let mut extras: Vec<JobSpec> = (next_id..next_id + 8).map(|id| base(id, "batch")).collect();
    extras[0].tenant = "nobody".into();
    extras[1].side = 6_000;
    extras[2].deadline_ps = Some(mid_ps + 1);
    extras[3].graph = Some(Box::new(cyclic));
    extras[4].shape = JobShape::MultiBoard { boards: 2 };
    extras[5].shape = JobShape::MultiBoard { boards: 2 };
    extras[5].transient_fault = true;
    extras[6].shape = JobShape::MultiBoard { boards: 3 };
    extras[7].submit_ps = 0;
    extras
}

/// The stress workload: a saturated two-tenant stream (30 % transient
/// faults, tight interactive deadlines, six pooled images) with
/// [`stress_extras`] spliced into its middle. Returns the tenant names,
/// the jobs and the workload seed.
fn stress_workload() -> (Vec<String>, Vec<JobSpec>, u64) {
    let profiles = vec![
        TenantProfile {
            name: "interactive".into(),
            weight: 2,
            sides: vec![16, 24],
            archs: vec![Arch::Arch4, Arch::Arch2],
            deadline_slack_pct: Some(150),
            fault_rate: 0.3,
        },
        TenantProfile {
            name: "batch".into(),
            weight: 1,
            sides: vec![24],
            archs: vec![Arch::Arch1, Arch::Arch3],
            deadline_slack_pct: None,
            fault_rate: 0.3,
        },
    ];
    let spec = WorkloadSpec {
        tenants: profiles.clone(),
        jobs: 80,
        mean_interarrival_ps: 40_000_000,
        seed: 1,
    };
    let mut jobs = generate_workload(&spec, &mut DseEstimator::new());
    pool_image_seeds(&mut jobs, 6);
    let mid = jobs.len() / 2;
    let extras = stress_extras(jobs.len() as u64, jobs[mid - 1].submit_ps);
    jobs.splice(mid..mid, extras);
    let tenants = profiles.into_iter().map(|t| t.name).collect();
    (tenants, jobs, spec.seed)
}

/// Append a run's compact report JSON, then every `FlowEvent` it
/// emitted, one JSON document a line.
fn push_run(out: &mut String, report: String, obs: &CollectObserver) {
    out.push_str(&report);
    out.push('\n');
    for event in obs.events() {
        out.push_str(&serde_json::to_string(&event).unwrap());
        out.push('\n');
    }
}

/// A saturated serve run that exercises every path of the event loop:
/// retries, queue time-outs, late completions, all six rejection kinds
/// and multi-board gangs, under every policy.
#[test]
fn serve_stress_matches_golden() {
    let (tenants, jobs, seed) = stress_workload();
    let mut out = String::new();
    for (policy, boards) in [
        (PolicyKind::Fifo, 2),
        (PolicyKind::RoundRobin, 2),
        (PolicyKind::Sjf, 2),
        (PolicyKind::Sjf, 1),
    ] {
        let cfg = ServeConfig::builder()
            .tenants(tenants.clone())
            .boards(boards)
            .policy(policy)
            .queue_depth(2)
            .max_batch(3)
            .max_retries(1)
            .threads(2)
            .seed(seed)
            .build();
        let obs = CollectObserver::new();
        let rep = ServeSession::new(cfg).run(&jobs, &obs).expect("serve");
        push_run(&mut out, serde_json::to_string(&rep).unwrap(), &obs);
    }
    check_or_update("serve_stress.jsonl", &out);
}

/// The stress workload on three heterogeneous nodes (fifo/rr/sjf on
/// 2/2/1 boards, queue depth 2) over the default network, in three
/// clusters: stealing and shedding on with node 1 killed mid-run;
/// stealing and shedding off, no re-dispatch budget and node 0 killed
/// mid-run; and every node killed before the stream ends. Pins the multi-node loop's
/// report (tenant rows, per-node views, the ordered ledger) and events.
#[test]
fn cluster_stress_matches_golden() {
    let (tenants, jobs, seed) = stress_workload();
    let last_ps = jobs.iter().map(|j| j.submit_ps).max().unwrap();
    let node = |policy: PolicyKind, boards: usize| {
        ServeConfig::builder()
            .tenants(tenants.clone())
            .boards(boards)
            .policy(policy)
            .queue_depth(2)
            .max_batch(3)
            .max_retries(1)
            .build()
    };
    let base = || {
        ClusterConfig::builder()
            .node(node(PolicyKind::Fifo, 2))
            .node(node(PolicyKind::RoundRobin, 2))
            .node(node(PolicyKind::Sjf, 1))
            .threads(2)
            .seed(seed)
            .keep_records(true)
    };
    let configs = [
        base().fail_node(1, last_ps / 2),
        base()
            .steal(false)
            .shed(false)
            .max_redispatch(0)
            .fail_node(0, last_ps / 2),
        base()
            .fail_node(0, last_ps / 4)
            .fail_node(1, last_ps / 2)
            .fail_node(2, last_ps * 3 / 4),
    ];

    let mut out = String::new();
    let mut outcomes = Vec::new();
    let mut unrouted_shed = false;
    let (mut forwarded, mut stolen, mut redispatched) = (0, 0, 0);
    for cfg in configs {
        let obs = CollectObserver::new();
        let rep = ClusterSession::new(cfg.build().unwrap())
            .run(&jobs, &obs)
            .expect("cluster");
        assert!(rep.accounting_ok(), "accounting violated: {rep:?}");
        for rec in &rep.records {
            if !outcomes.contains(&rec.outcome) {
                outcomes.push(rec.outcome);
            }
            unrouted_shed |= rec.outcome == ClusterOutcome::Shed && rec.node.is_none();
        }
        forwarded += rep.forwarded;
        stolen += rep.stolen;
        redispatched += rep.redispatched;
        push_run(&mut out, serde_json::to_string(&rep).unwrap(), &obs);
    }
    for outcome in [
        ClusterOutcome::Completed,
        ClusterOutcome::CompletedLate,
        ClusterOutcome::TimedOut,
        ClusterOutcome::Rejected,
        ClusterOutcome::Shed,
        ClusterOutcome::Failed,
    ] {
        assert!(outcomes.contains(&outcome), "no run reached {outcome:?}");
    }
    assert!(unrouted_shed, "no job arrived at an all-dead cluster");
    assert!(forwarded > 0 && stolen > 0 && redispatched > 0);
    check_or_update("cluster_stress.jsonl", &out);
}

#[test]
fn partition_report_matches_golden() {
    // The verify.sh smoke config, plus an odd scale and side that leave a
    // ragged last chunk of chains per worker and a non-power-of-two tile.
    // The makespan comes from the DSE chain model and the chain checksums
    // from the functional layer, so this pins both.
    let mut out = String::new();
    for (scale, side) in [(16, 32), (5, 17)] {
        let opts = PartitionSimOptions::builder()
            .scale(scale)
            .max_boards(2)
            .side(side)
            .seed(1)
            .threads(2)
            .build();
        let rep = run_partition_sim(&opts).expect("partition-sim");
        assert!(rep.pixel_exact);
        out.push_str(&serde_json::to_string_pretty(&rep).unwrap());
        out.push('\n');
    }
    check_or_update("partition_report.json", &out);
}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Otsu chain task by task: every architecture's per-task names,
/// times and hardware flags, DMA bytes, threshold and output digest at
/// three image sides (one odd); the DSE chain profiles at two pixel
/// counts; and the scaled HTG's nodes, edges, areas and compute times.
/// The other goldens pin only totals, so this is what shows a task
/// renamed, split or retimed.
#[test]
fn otsu_chain_matches_golden() {
    let mut engine = otsu_flow_engine();
    let mut runs = Vec::new();
    for arch in Arch::all() {
        let art = engine.run_source(&arch_dsl_source(arch)).expect("flow");
        for side in [16u32, 17, 24] {
            let images: Vec<RgbImage> = (0..2)
                .map(|seed| RgbImage::from_gray(&synthetic_scene(side, side, seed)))
                .collect();
            let group = run_application_group(arch, &engine, &art, &images, &AppConfig::default())
                .expect("group");
            for (seed, run) in group.runs.into_iter().enumerate() {
                let run = run.expect("run");
                let tasks: Vec<serde_json::Value> = run
                    .tasks
                    .iter()
                    .map(|(name, ns, hw)| serde_json::json!({"name": name, "ns": ns, "hw": hw}))
                    .collect();
                runs.push(serde_json::json!({
                    "arch": arch.name(),
                    "side": side,
                    "seed": seed,
                    "tasks": tasks,
                    "total_ns": run.total_ns,
                    "dma_bytes": run.dma_bytes,
                    "threshold": run.threshold,
                    "output_fnv1a": fnv1a(&run.output.data),
                }));
            }
        }
    }
    let models: Vec<serde_json::Value> = [64u64 * 64, 512 * 512]
        .into_iter()
        .map(
            |pixels| serde_json::json!({"pixels": pixels, "tasks": otsu_chain_model(pixels).tasks}),
        )
        .collect();
    let (htg, areas, compute_ps) =
        scaled_otsu_htg(3, 17 * 17, &HlsCache::in_memory(), &NullObserver);
    let doc = serde_json::json!({
        "runs": runs,
        "chain_models": models,
        "scaled_htg": {"htg": htg, "areas": areas, "compute_ps": compute_ps},
    });
    check_or_update(
        "otsu_chain.json",
        &(serde_json::to_string_pretty(&doc).unwrap() + "\n"),
    );
}

/// One lane's inputs: scalar values and fed input streams.
type LaneInputs = (HashMap<String, i64>, StreamBundle);

fn stats_json(s: &ExecStats) -> serde_json::Value {
    serde_json::json!({
        "steps": s.steps, "adds": s.adds, "muls": s.muls, "divs": s.divs,
        "compares": s.compares, "bitops": s.bitops, "mem_reads": s.mem_reads,
        "mem_writes": s.mem_writes, "stream_reads": s.stream_reads,
        "stream_writes": s.stream_writes, "branches": s.branches,
    })
}

/// Run `lanes` as one batch and record what the compiled program did:
/// its length, the batch's host dispatches, and per lane its
/// `ExecStats` and an FNV-1a digest of its scalar and stream outputs.
fn program_run(ck: &CompiledKernel, lanes: &[LaneInputs]) -> serde_json::Value {
    let scalars: Vec<HashMap<String, i64>> = lanes.iter().map(|(s, _)| s.clone()).collect();
    let mut bundles: Vec<StreamBundle> = lanes.iter().map(|(_, b)| b.clone()).collect();
    let out = ck.run_batch(&scalars, &mut bundles);
    let per_lane: Vec<serde_json::Value> = out
        .lanes
        .iter()
        .zip(&bundles)
        .map(|(res, bundle)| {
            let res = res.as_ref().expect("kernel run");
            let mut bytes = Vec::new();
            let mut scalars: Vec<_> = res.scalar_outputs.iter().collect();
            scalars.sort();
            for (name, v) in scalars {
                bytes.extend(name.as_bytes());
                bytes.extend(v.to_le_bytes());
            }
            for (port, tokens) in bundle.outputs() {
                bytes.extend(port.as_bytes());
                tokens.iter().for_each(|t| bytes.extend(t.to_le_bytes()));
            }
            serde_json::json!({"stats": stats_json(&res.stats), "outputs_fnv1a": fnv1a(&bytes)})
        })
        .collect();
    serde_json::json!({
        "width": lanes.len(),
        "ops": ck.len(),
        "dispatches": out.dispatches,
        "lanes": per_lane,
    })
}

/// `kernel` compiled once and run at widths 1 and 4, lane `l` on
/// `inputs(l)`.
fn kernel_runs(kernel: &Kernel, inputs: impl Fn(u64) -> LaneInputs) -> serde_json::Value {
    let ck = CompiledKernel::compile(kernel);
    let runs: Vec<serde_json::Value> = [1u64, 4]
        .into_iter()
        .map(|width| program_run(&ck, &(0..width).map(&inputs).collect::<Vec<_>>()))
        .collect();
    serde_json::json!({"kernel": kernel.name, "runs": runs})
}

/// The compiled programs of the four Otsu stages, the two line-buffer
/// stencils and the four Fig. 4 cores, run at widths 1 and 4 on fixed
/// inputs (one seed per lane, so lanes diverge where the data does). Pins the bytecode's length and
/// host dispatch count, which no report golden sees, next to each lane's
/// counters and outputs.
#[test]
fn kernel_programs_match_golden() {
    let side = 24u32;
    // Each image's chain values, from the host-side references, so every
    // stage runs on its own inputs.
    let chain = |seed: u64| {
        let rgb = RgbImage::from_gray(&synthetic_scene(side, side, seed));
        let gray = otsu::grayscale_reference(&rgb);
        let hist = otsu::histogram_reference(&gray);
        let thr = otsu::otsu_threshold_from_hist(&hist);
        let mut values = ChainValues::new(&rgb);
        values.set(Value::Gray, gray.data.iter().map(|&v| v as i64).collect());
        values.set(Value::Histogram, hist.iter().map(|&v| v as i64).collect());
        values.set(Value::Threshold, vec![thr as i64]);
        values
    };
    let (w, h) = (16u32, 12u32);
    let stencil = |seed: u64| -> LaneInputs {
        let img = synthetic_scene(w, h, seed);
        let mut bundle = StreamBundle::new();
        bundle.feed("in", img.data.iter().map(|&v| v as i64));
        let scalars = HashMap::from([
            ("n".to_string(), img.data.len() as i64),
            ("W".to_string(), w as i64),
        ]);
        (scalars, bundle)
    };
    let mut doc = Vec::new();
    for stage in &STAGES {
        doc.push(kernel_runs(&stage.kernel_ir(), |seed| {
            let pixels = (side * side) as u64;
            (stage.scalars(pixels), stage.inputs_from(&chain(seed)))
        }));
    }
    doc.push(kernel_runs(&gauss2d_core(), stencil));
    doc.push(kernel_runs(&sobel2d_core(), stencil));
    // The Fig. 4 cores: the scalar adder and multiplier on operands past
    // u32, and the 1-D filters over a scene's pixels.
    let operands = |seed: u64| -> LaneInputs {
        let a = (seed as i64 + 3) * 0x9e37_79b9;
        let scalars = HashMap::from([("A".to_string(), a), ("B".to_string(), -a / 7)]);
        (scalars, StreamBundle::new())
    };
    doc.push(kernel_runs(&add_core(), operands));
    doc.push(kernel_runs(&mul_core(), operands));
    let pixels = |seed: u64| -> LaneInputs {
        let img = synthetic_scene(w, h, seed);
        let mut bundle = StreamBundle::new();
        bundle.feed("in", img.data.iter().map(|&v| v as i64));
        (
            HashMap::from([("n".to_string(), img.data.len() as i64)]),
            bundle,
        )
    };
    doc.push(kernel_runs(&gauss_core(), pixels));
    doc.push(kernel_runs(&edge_core(), pixels));
    check_or_update(
        "kernel_programs.json",
        &(serde_json::to_string_pretty(&doc).unwrap() + "\n"),
    );
}
