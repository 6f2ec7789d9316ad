//! Cluster-level end-to-end tests: determinism across host threads,
//! how the single-node session maps onto a 1-node cluster, and the
//! job-accounting invariant under node failure.

use accelsoc_apps::archs::Arch;
use accelsoc_observe::{NullObserver, TenantId};
use accelsoc_serve::{
    generate_workload, pool_image_seeds, ClusterConfig, ClusterConfigError, ClusterReport,
    ClusterSession, DseEstimator, HashRing, JobShape, JobSpec, NetModel, PolicyKind, ServeConfig,
    ServeSession, TenantProfile, WorkloadSpec,
};
use proptest::prelude::*;

fn workload(seed: u64, jobs: usize, mean_interarrival_ps: u64) -> Vec<accelsoc_serve::JobSpec> {
    let spec = WorkloadSpec {
        tenants: vec![
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
                sides: vec![24],
                archs: vec![Arch::Arch1],
                deadline_slack_pct: None,
                fault_rate: 0.0,
            },
        ],
        jobs,
        mean_interarrival_ps,
        seed,
    };
    let mut est = DseEstimator::new();
    let mut jobs = generate_workload(&spec, &mut est);
    // Bound the precompute so property cases stay cheap.
    pool_image_seeds(&mut jobs, 8);
    jobs
}

fn node_cfg(policy: PolicyKind, boards: usize) -> ServeConfig {
    ServeConfig::builder()
        .tenants(["interactive", "batch"])
        .boards(boards)
        .policy(policy)
        .queue_depth(4)
        .build()
}

fn cluster(nodes: usize, policy: PolicyKind, seed: u64, threads: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(nodes, &node_cfg(policy, 2))
        .threads(threads)
        .seed(seed)
        .keep_records(true)
        .build()
        .unwrap()
}

fn run_cluster(cfg: ClusterConfig, jobs: &[accelsoc_serve::JobSpec]) -> ClusterReport {
    ClusterSession::new(cfg).run(jobs, &NullObserver).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance-criterion property: for every policy, the full
    /// serialized ClusterReport is byte-identical whether the latency
    /// precompute ran on 1, 2 or 4 host threads.
    #[test]
    fn cluster_report_is_byte_identical_across_threads(
        seed in 0u64..1_000,
        nodes in 1usize..=4,
    ) {
        let jobs = workload(seed, 24, 20_000_000);
        for policy in PolicyKind::ALL {
            let r1 = run_cluster(cluster(nodes, policy, seed, 1), &jobs);
            let r2 = run_cluster(cluster(nodes, policy, seed, 2), &jobs);
            let r4 = run_cluster(cluster(nodes, policy, seed, 4), &jobs);
            prop_assert_eq!(&r1, &r2, "{:?}: 1 vs 2 threads", policy);
            let b1 = serde_json::to_string(&r1).unwrap();
            let b2 = serde_json::to_string(&r2).unwrap();
            let b4 = serde_json::to_string(&r4).unwrap();
            prop_assert_eq!(&b1, &b2, "{:?}: bytes differ at 2 threads", policy);
            prop_assert_eq!(&b1, &b4, "{:?}: bytes differ at 4 threads", policy);
            prop_assert!(r1.accounting_ok(), "{:?}: {:?}", policy, r1);
        }
    }
}

#[test]
fn one_node_cluster_reproduces_the_single_node_session() {
    // ServeSession runs as a 1-node cluster over a free network. Built
    // by hand — stealing and shedding left on but inert (no peers), the
    // seed and record knobs set at the cluster level — the cluster's
    // node-0 report must *equal* the session's: this pins how a
    // ServeConfig maps onto the cluster config.
    let jobs = workload(7, 32, 30_000_000);
    for policy in PolicyKind::ALL {
        let mut single_cfg = node_cfg(policy, 2);
        single_cfg.seed = 7;
        single_cfg.keep_records = true;
        let single = ServeSession::new(single_cfg)
            .run(&jobs, &NullObserver)
            .unwrap();

        let cluster_cfg = ClusterConfig::builder()
            .node(node_cfg(policy, 2))
            .net(NetModel::zero())
            .seed(7)
            .keep_records(true)
            .build()
            .unwrap();
        let clustered = run_cluster(cluster_cfg, &jobs);

        assert_eq!(clustered.per_node.len(), 1);
        assert_eq!(
            clustered.per_node[0], single,
            "{policy:?}: node 0 diverged from the standalone session"
        );
        assert_eq!(clustered.submitted, single.submitted);
        assert_eq!(clustered.completed, single.completed);
        assert_eq!(clustered.stolen + clustered.forwarded, 0, "no peers");
        assert!(clustered.accounting_ok());
    }
}

#[test]
fn killing_a_node_never_loses_or_duplicates_a_job() {
    // Kill a node mid-run: every submitted job must still reach exactly
    // one terminal state (the ledger has one record per job id), with
    // orphans either re-dispatched to survivors or counted Failed.
    let jobs = workload(42, 48, 10_000_000);
    let mid_ps = jobs[jobs.len() / 2].submit_ps;
    let cfg = ClusterConfig::builder()
        .nodes(3, &node_cfg(PolicyKind::Sjf, 2))
        .fail_node(1, mid_ps)
        .seed(42)
        .keep_records(true)
        .build()
        .unwrap();
    let r = run_cluster(cfg, &jobs);

    assert_eq!(r.node_failures, 1);
    assert!(r.accounting_ok(), "accounting violated: {r:?}");
    assert_eq!(r.submitted, jobs.len() as u64);

    let mut ids: Vec<u64> = r.records.iter().map(|rec| rec.id).collect();
    ids.sort_unstable();
    let expected: Vec<u64> = (0..jobs.len() as u64).collect();
    assert_eq!(
        ids, expected,
        "every job id appears in exactly one terminal record"
    );

    // The dead node took load before the kill, and its tenants were
    // re-routed afterwards (per-node views only count local admissions).
    let dead = &r.per_node[1];
    let survivors: u64 = r.per_node.iter().map(|n| n.admitted).sum::<u64>() - dead.admitted;
    assert!(survivors > 0, "survivors admitted re-routed work");

    // Killing the same node twice is a no-op the second time.
    let cfg2 = ClusterConfig::builder()
        .nodes(3, &node_cfg(PolicyKind::Sjf, 2))
        .fail_node(1, mid_ps)
        .fail_node(1, mid_ps + 1)
        .seed(42)
        .keep_records(true)
        .build()
        .unwrap();
    let r2 = run_cluster(cfg2, &jobs);
    assert_eq!(r2.node_failures, 1);
    assert!(r2.accounting_ok());
}

#[test]
fn killing_every_node_sheds_or_fails_everything() {
    let jobs = workload(5, 24, 10_000_000);
    let cfg = ClusterConfig::builder()
        .nodes(2, &node_cfg(PolicyKind::Fifo, 1))
        .fail_node(0, 1)
        .fail_node(1, 1)
        .seed(5)
        .keep_records(true)
        .build()
        .unwrap();
    let r = run_cluster(cfg, &jobs);
    assert!(r.accounting_ok(), "accounting violated: {r:?}");
    assert_eq!(r.completed + r.completed_late, 0, "nothing can run");
    assert_eq!(
        r.shed + r.failed + r.rejected,
        jobs.len() as u64,
        "every job terminates as shed/failed/rejected: {r:?}"
    );
}

#[test]
fn builder_rejects_malformed_clusters() {
    assert_eq!(
        ClusterConfig::builder().build().unwrap_err(),
        ClusterConfigError::NoNodes
    );
    let base = node_cfg(PolicyKind::Fifo, 1);
    let other_tenants = ServeConfig::builder().tenant("loner").build();
    assert_eq!(
        ClusterConfig::builder()
            .node(base.clone())
            .node(other_tenants)
            .build()
            .unwrap_err(),
        ClusterConfigError::TenantMismatch { node: 1 }
    );
    let mut slow = base.clone();
    slow.dispatch_overhead_ps += 1;
    assert_eq!(
        ClusterConfig::builder()
            .node(base.clone())
            .node(slow)
            .build()
            .unwrap_err(),
        ClusterConfigError::BoardModelMismatch { node: 1 }
    );
    assert_eq!(
        ClusterConfig::builder()
            .node(base)
            .fail_node(3, 1_000)
            .build()
            .unwrap_err(),
        ClusterConfigError::BadFailureNode { node: 3, nodes: 1 }
    );
}

#[test]
fn shedding_forwards_overflow_to_the_least_loaded_peer() {
    // Saturate tiny queues on 2 nodes: with shedding on, overflow is
    // forwarded or terminally shed instead of rejected outright; with
    // shedding off, the same workload shows plain QueueFull rejections
    // and no forwards.
    let mk = |shed: bool| {
        let node = ServeConfig::builder()
            .tenants(["interactive", "batch"])
            .boards(1)
            .policy(PolicyKind::Fifo)
            .queue_depth(1)
            .build();
        ClusterConfig::builder()
            .nodes(2, &node)
            .shed(shed)
            .steal(false)
            .seed(3)
            .keep_records(true)
            .build()
            .unwrap()
    };
    let jobs = workload(3, 48, 1_000_000); // heavy overload
    let with_shed = run_cluster(mk(true), &jobs);
    let without = run_cluster(mk(false), &jobs);
    assert!(with_shed.accounting_ok());
    assert!(without.accounting_ok());
    assert!(
        with_shed.forwarded > 0,
        "overload must trigger forwards: {with_shed:?}"
    );
    assert_eq!(without.forwarded, 0);
    assert_eq!(without.shed, 0);
    assert!(without.rejections.queue_full > 0);
}

#[test]
fn a_gang_only_a_wider_node_can_hold_is_simulated_and_runs_there() {
    // Node 0 has one board, node 1 two. A two-board gang whose tenant
    // homes on node 1 is admitted there, so the shared precompute must
    // simulate it although node 0 could never hold it.
    let tenants = ["a", "b", "c", "d"];
    let ring = HashRing::new(2);
    let tenant = tenants
        .into_iter()
        .find(|&t| ring.home(&TenantId::from(t)) == 1)
        .expect("some tenant homes on node 1");
    let node = |boards| {
        ServeConfig::builder()
            .tenants(tenants)
            .boards(boards)
            .build()
    };
    let cfg = ClusterConfig::builder()
        .node(node(1))
        .node(node(2))
        .keep_records(true)
        .build()
        .unwrap();
    let gang = JobSpec {
        id: 0,
        tenant: tenant.into(),
        arch: Arch::Arch1,
        side: 16,
        image_seed: 1,
        submit_ps: 0,
        deadline_ps: None,
        transient_fault: false,
        graph: None,
        shape: JobShape::MultiBoard { boards: 2 },
    };
    let r = run_cluster(cfg, &[gang]);
    assert!(r.accounting_ok(), "accounting violated: {r:?}");
    assert_eq!(r.completed, 1, "{r:?}");
    assert_eq!(r.per_node[1].completed, 1, "the gang ran on its home");
}
