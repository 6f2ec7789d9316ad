//! End-to-end scheduler tests: determinism across host thread counts,
//! saturation behaviour, typed admission errors, retries and deadlines.

use accelsoc_apps::archs::Arch;
use accelsoc_apps::otsu::AppConfig;
use accelsoc_htg::graph::{Htg, TaskNode, TransferKind};
use accelsoc_observe::FlowObserver;
use accelsoc_observe::{CollectObserver, FlowEvent, MetricsObserver, NullObserver};
use accelsoc_serve::{
    generate_workload, DseEstimator, JobOutcome, JobShape, JobSpec, PolicyKind, ServeConfig,
    ServeReport, ServeSession, TenantProfile, WorkloadSpec,
};

fn run(jobs: &[JobSpec], cfg: ServeConfig, observer: &dyn FlowObserver) -> ServeReport {
    ServeSession::new(cfg).run(jobs, observer).unwrap()
}

fn two_tenant_spec(seed: u64, jobs: usize, mean_interarrival_ps: u64) -> WorkloadSpec {
    WorkloadSpec {
        tenants: vec![
            TenantProfile {
                name: "interactive".into(),
                weight: 2,
                sides: vec![16, 24],
                archs: vec![Arch::Arch4],
                deadline_slack_pct: Some(5_000), // 50× the estimate: generous
                fault_rate: 0.0,
            },
            TenantProfile {
                name: "batch".into(),
                weight: 1,
                sides: vec![24],
                archs: vec![Arch::Arch1],
                deadline_slack_pct: None,
                fault_rate: 0.0,
            },
        ],
        jobs,
        mean_interarrival_ps,
        seed,
    }
}

fn config(policy: PolicyKind, boards: usize, threads: usize) -> ServeConfig {
    ServeConfig::builder()
        .tenants(["interactive", "batch"])
        .boards(boards)
        .policy(policy)
        .threads(threads)
        .seed(42)
        .build()
}

fn plain_job(id: u64, tenant: &str, submit_ps: u64) -> JobSpec {
    JobSpec {
        id,
        tenant: tenant.into(),
        arch: Arch::Arch1,
        side: 16,
        image_seed: id,
        submit_ps,
        deadline_ps: None,
        transient_fault: false,
        graph: None,
        shape: JobShape::SingleBoard,
    }
}

#[test]
fn report_is_bit_identical_across_thread_counts_and_policies() {
    // The acceptance-criterion property: same (seed, policy, boards) ⇒
    // identical ServeReport — job completion order, per-tenant latency
    // percentiles, retry counts — independent of host threads.
    let spec = two_tenant_spec(42, 24, 50_000_000);
    let mut est = DseEstimator::new();
    let jobs = generate_workload(&spec, &mut est);
    for policy in PolicyKind::ALL {
        let seq = run(&jobs, config(policy, 2, 1), &NullObserver);
        let par = run(&jobs, config(policy, 2, 4), &NullObserver);
        assert_eq!(seq, par, "{policy:?} differs across thread counts");
        assert_eq!(
            serde_json::to_string(&seq).unwrap(),
            serde_json::to_string(&par).unwrap(),
            "{policy:?} serialization differs"
        );
        assert_eq!(seq.completed + seq.completed_late, seq.admitted);
        assert!(seq.makespan_ps > 0);
    }
}

#[test]
fn saturation_bounds_queues_and_round_robin_protects_low_rate_tenant() {
    // Offered load far above capacity: arrivals every ~2 us against a
    // per-job service time of hundreds of us on a single board.
    let spec = WorkloadSpec {
        tenants: vec![
            TenantProfile::simple("flood", 8, 24, Arch::Arch1),
            TenantProfile::simple("trickle", 1, 16, Arch::Arch4),
        ],
        jobs: 48,
        mean_interarrival_ps: 2_000_000,
        seed: 7,
    };
    let mut est = DseEstimator::new();
    let jobs = generate_workload(&spec, &mut est);
    let cfg = ServeConfig::builder()
        .tenants(["flood", "trickle"])
        .boards(1)
        .policy(PolicyKind::RoundRobin)
        .queue_depth(4)
        .build();
    let report = run(&jobs, cfg, &NullObserver);

    // Queues stayed bounded: the overload shows up as typed QueueFull
    // rejections, not as unbounded buffering.
    assert!(
        report.rejections.queue_full > 0,
        "overload must hit the bounded queues: {:?}",
        report.rejections
    );
    assert_eq!(
        report.admitted + report.rejections.total(),
        report.submitted
    );

    // No starvation: every tenant's admitted jobs complete (no deadlines
    // here, so nothing can time out).
    for t in &report.tenants {
        assert_eq!(
            t.completed, t.admitted,
            "tenant {} starved: {t:?}",
            t.tenant
        );
    }
    let trickle = report
        .tenants
        .iter()
        .find(|t| t.tenant == "trickle")
        .unwrap();
    assert!(trickle.admitted > 0, "low-rate tenant got service");
}

#[test]
fn typed_admission_errors_are_counted_and_reported() {
    let obs = CollectObserver::new();
    let cfg = ServeConfig::builder().tenant("t").boards(1).build();

    // JobTooLarge: a 6000×6000 RGBA image does not fit 64 MiB DRAM.
    let mut too_large = plain_job(0, "t", 1_000);
    too_large.side = 6_000;
    // DeadlineImpossible: a deadline before even an idle board could
    // finish.
    let mut hopeless = plain_job(1, "t", 2_000);
    hopeless.deadline_ps = Some(2_001);
    // UnknownTenant.
    let stranger = plain_job(2, "nobody", 3_000);
    // InvalidGraph: two tasks in a buffered cycle.
    let mut cyclic = plain_job(3, "t", 4_000);
    cyclic.graph = Some(Box::new({
        let mut g = Htg::new();
        let a = g
            .add_task(
                "A",
                TaskNode {
                    kernel: "a".into(),
                    sw_cycles: 1,
                    sw_only: false,
                },
            )
            .unwrap();
        let b = g
            .add_task(
                "B",
                TaskNode {
                    kernel: "b".into(),
                    sw_cycles: 1,
                    sw_only: false,
                },
            )
            .unwrap();
        g.add_edge(a, b, TransferKind::SharedBuffer { bytes: 4 })
            .unwrap();
        g.add_edge(b, a, TransferKind::SharedBuffer { bytes: 4 })
            .unwrap();
        g
    }));
    // And one good job so the run isn't empty.
    let good = plain_job(4, "t", 5_000);

    let jobs = vec![too_large, hopeless, stranger, cyclic, good];
    let report = run(&jobs, cfg, &obs);

    assert_eq!(report.rejections.job_too_large, 1);
    assert_eq!(report.rejections.deadline_impossible, 1);
    assert_eq!(report.rejections.unknown_tenant, 1);
    assert_eq!(report.rejections.invalid_graph, 1);
    assert_eq!(report.rejections.queue_full, 0);
    assert_eq!(report.admitted, 1);
    assert_eq!(report.completed, 1);

    // The event stream carries the stable reason labels.
    let reasons: Vec<String> = obs
        .events()
        .iter()
        .filter_map(|e| match e {
            FlowEvent::JobRejected { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        reasons,
        [
            "JobTooLarge",
            "DeadlineImpossible",
            "UnknownTenant",
            "InvalidGraph"
        ]
    );
}

/// Admission must account for where the runner stages its buffers
/// (input at 1 MiB, output at 2 MiB), not just their sizes: a 16×16
/// Arch4 job needs only 1,280 bytes of buffers, yet overruns a 1 MiB or
/// 2 MiB pool. Such jobs are typed rejections, never a failed
/// precompute.
#[test]
fn admission_accounts_for_the_runner_dram_layout() {
    let mut job = plain_job(0, "t", 1_000);
    job.arch = Arch::Arch4;
    for dram_bytes in [1usize << 20, 2 << 20] {
        let cfg = ServeConfig::builder()
            .tenant("t")
            .boards(1)
            .app(AppConfig {
                dram_bytes,
                ..AppConfig::default()
            })
            .build();
        let report = run(std::slice::from_ref(&job), cfg, &NullObserver);
        assert_eq!(report.rejections.job_too_large, 1, "{dram_bytes} B pool");
        assert_eq!(report.admitted, 0);
    }
    // The default 64 MiB pool runs it.
    let cfg = ServeConfig::builder().tenant("t").boards(1).build();
    let report = run(&[job], cfg, &NullObserver);
    assert_eq!(report.completed, 1);
}

#[test]
fn transient_fault_retries_on_a_different_board() {
    let obs = CollectObserver::new();
    let cfg = ServeConfig::builder().tenant("t").boards(2).build();
    let mut faulty = plain_job(0, "t", 1_000);
    faulty.transient_fault = true;
    let report = run(&[faulty], cfg, &obs);

    assert_eq!(report.retries, 1);
    assert_eq!(report.completed, 1);
    let rec = &report.records[0];
    assert_eq!(rec.retries, 1);
    assert_eq!(rec.outcome, JobOutcome::Completed);

    // The retry ran on a different board than the faulting execution.
    let fault_board = obs
        .events()
        .iter()
        .find_map(|e| match e {
            FlowEvent::JobRetried { from_board, .. } => Some(*from_board),
            _ => None,
        })
        .expect("JobRetried emitted");
    assert_ne!(rec.board, Some(fault_board), "retry moved boards");

    // Dispatched twice (original + retry), completed once.
    let dispatches = obs
        .events()
        .iter()
        .filter(|e| matches!(e, FlowEvent::JobDispatched { .. }))
        .count();
    assert_eq!(dispatches, 2);
}

#[test]
fn deadline_expiry_in_queue_is_a_timeout_record() {
    // One board, two jobs arriving together; the second has a deadline
    // shorter than the first job's service time, so it expires while
    // queued.
    let cfg = ServeConfig::builder()
        .tenant("t")
        .boards(1)
        .max_batch(1)
        .build();
    let first = plain_job(0, "t", 1_000);
    let mut second = plain_job(1, "t", 2_000);
    // Estimate for a 16×16 Arch1 job is ~hundreds of us; give the second
    // job just enough slack to pass admission but not to survive the
    // queue behind `first`.
    let mut est = DseEstimator::new();
    let est_ps = est.estimate_ps(Arch::Arch1, 16);
    second.deadline_ps = Some(2_000 + cfg.dispatch_overhead_ps + est_ps + 1);
    let report = run(&[first, second], cfg, &NullObserver);

    assert_eq!(report.admitted, 2, "both pass admission");
    assert_eq!(report.completed, 1);
    assert_eq!(report.timed_out, 1);
    assert_eq!(report.deadline_misses, 1);
    let timed_out = report
        .records
        .iter()
        .find(|r| r.outcome == JobOutcome::TimedOut)
        .unwrap();
    assert_eq!(timed_out.id, 1);
    assert_eq!(timed_out.board, None, "never dispatched");
}

#[test]
fn batching_coalesces_same_arch_jobs_and_metrics_fold() {
    let metrics = MetricsObserver::new();
    let cfg = ServeConfig::builder()
        .tenant("t")
        .boards(1)
        .max_batch(4)
        .build();
    // Four same-arch jobs arrive while the board is busy with the first:
    // jobs 1-3 coalesce into one batch when it frees.
    let jobs: Vec<JobSpec> = (0..4).map(|i| plain_job(i, "t", 1_000 + i)).collect();
    let report = run(&jobs, cfg, &metrics);
    assert_eq!(report.completed, 4);
    assert!(
        report.batches < 4,
        "same-arch queue drains in {} batches (< 4)",
        report.batches
    );

    let m = metrics.snapshot();
    assert_eq!(m.jobs_admitted, 4);
    assert_eq!(m.jobs_dispatched, 4);
    assert_eq!(m.jobs_completed, 4);
    assert_eq!(m.jobs_rejected, 0);
    assert_eq!(m.jobs_deadline_missed, 0);
    let p50 = m.tenant_latency_ps("t", 50).unwrap();
    let p99 = m.tenant_latency_ps("t", 99).unwrap();
    assert!(p50 > 0 && p99 >= p50);
}

#[test]
fn sjf_prefers_small_jobs_under_contention() {
    // One board busy; a large and a small job queue up together. SJF
    // runs the small one first, FIFO the older (large) one.
    let mk_jobs = || {
        let mut large = plain_job(1, "t", 2_000);
        large.side = 48;
        let mut small = plain_job(2, "t2", 2_001);
        small.side = 16;
        vec![plain_job(0, "t", 1_000), large, small]
    };
    let base = |policy: PolicyKind| {
        ServeConfig::builder()
            .tenants(["t", "t2"])
            .boards(1)
            .max_batch(1)
            .policy(policy)
            .build()
    };
    let sjf = run(&mk_jobs(), base(PolicyKind::Sjf), &NullObserver);
    let fifo = run(&mk_jobs(), base(PolicyKind::Fifo), &NullObserver);
    let order = |r: &ServeReport| -> Vec<u64> { r.records.iter().map(|rec| rec.id).collect() };
    assert_eq!(order(&sjf), vec![0, 2, 1], "small job jumps the queue");
    assert_eq!(order(&fifo), vec![0, 1, 2], "fifo keeps arrival order");
}

#[test]
fn session_stamps_config_seed_into_the_report() {
    // The seed lives in `ServeConfig` and flows through the builder API
    // into the report, reproducibly: same config ⇒ identical report.
    let spec = two_tenant_spec(11, 16, 50_000_000);
    let mut est = DseEstimator::new();
    let jobs = generate_workload(&spec, &mut est);
    let cfg = config(PolicyKind::Sjf, 2, 1);
    let first = run(&jobs, cfg.clone(), &NullObserver);
    assert_eq!(first.seed, 42, "builder seed lands in the report");
    let again = run(&jobs, cfg, &NullObserver);
    assert_eq!(first, again, "same config is reproducible");

    let mut reseeded_cfg = config(PolicyKind::Sjf, 2, 1);
    reseeded_cfg.seed = 99;
    let reseeded = run(&jobs, reseeded_cfg, &NullObserver);
    assert_eq!(reseeded.seed, 99);
}

#[test]
fn multi_board_gang_claims_and_frees_boards_atomically() {
    let obs = CollectObserver::new();
    let cfg = ServeConfig::builder()
        .tenant("t")
        .boards(4)
        .max_batch(4)
        .build();
    // A 3-board gang alone in a 4-board pool: it must occupy exactly
    // boards 0-2 (lowest idle indices), leave board 3 untouched, and
    // dispatch without coalescing.
    let mut gang = plain_job(0, "t", 1_000);
    gang.shape = JobShape::MultiBoard { boards: 3 };
    let report = run(&[gang], cfg, &obs);
    assert_eq!(report.admitted, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(report.batches, 1);

    // The gang dispatched alone (batch of 1) on its primary board.
    let gang_dispatch = obs
        .events()
        .iter()
        .find_map(|e| match e {
            FlowEvent::JobDispatched { job: 0, batch, .. } => Some(*batch),
            _ => None,
        })
        .expect("gang dispatched");
    assert_eq!(gang_dispatch, 1, "gang jobs never batch-coalesce");

    // All three gang boards carry identical occupancy; the spare is idle.
    let busy = &report.board_busy_ps;
    assert_eq!(busy.len(), 4);
    assert!(busy[0] > 0, "primary busy: {busy:?}");
    assert_eq!(busy[0], busy[1], "secondary 1 held with primary: {busy:?}");
    assert_eq!(busy[0], busy[2], "secondary 2 held with primary: {busy:?}");
    assert_eq!(busy[3], 0, "spare board untouched: {busy:?}");
}

#[test]
fn back_to_back_gangs_prove_secondary_boards_are_freed() {
    // Pool of exactly 3 boards, two 3-board gangs: the second can only
    // ever dispatch if the first frees *all* of its boards (a leaked
    // secondary would deadlock the pool).
    let cfg = ServeConfig::builder().tenant("t").boards(3).build();
    let mut g0 = plain_job(0, "t", 1_000);
    g0.shape = JobShape::MultiBoard { boards: 3 };
    let mut g1 = plain_job(1, "t", 2_000);
    g1.shape = JobShape::MultiBoard { boards: 3 };
    let report = run(&[g0, g1], cfg, &NullObserver);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
    assert_eq!(report.batches, 2);
}

#[test]
fn gang_wider_than_the_pool_is_rejected_typed() {
    let obs = CollectObserver::new();
    let cfg = ServeConfig::builder().tenant("t").boards(2).build();
    let mut huge = plain_job(0, "t", 1_000);
    huge.shape = JobShape::MultiBoard { boards: 3 };
    let jobs = vec![huge, plain_job(1, "t", 2_000)];
    let report = run(&jobs, cfg, &obs);
    assert_eq!(report.rejections.too_many_boards, 1);
    assert_eq!(report.admitted, 1);
    assert_eq!(report.completed, 1);
    let reasons: Vec<String> = obs
        .events()
        .iter()
        .filter_map(|e| match e {
            FlowEvent::JobRejected { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(reasons, ["TooManyBoards"]);
}
