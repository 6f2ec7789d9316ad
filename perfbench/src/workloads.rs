//! The three workloads: their inputs (generated from the seed, handed to
//! the program as plain `JobSpec`s and options), their set-up, and one
//! closed-loop pass over the whole input.

use crate::host::digest;
use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine_with, Arch};
use accelsoc_core::flow::{FlowArtifacts, FlowEngine, FlowOptions};
use accelsoc_hls::cache::HlsCache;
use accelsoc_integration::device::Device;
use accelsoc_observe::{FlowObserver, SharedObserver};
use accelsoc_partition::{
    partition_observed, run_partition_sim_observed, scaled_otsu_htg, PartitionSimOptions,
    PartitionSimReport,
};
use accelsoc_serve::{
    generate_workload, pool_image_seeds, ClusterConfig, ClusterReport, ClusterSession,
    DseEstimator, JobSpec, PolicyKind, ServeConfig, ServeReport, ServeSession, TenantProfile,
    WorkloadSpec,
};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Distinct image per job: the latency precompute (flow artifacts,
    /// image synthesis, lane VM, board co-simulation) dominates, and it
    /// is the only workload that runs `ServeSession`'s own event loop.
    ServeFresh,
    /// 250k jobs over a 64-image catalog on a 4-node cluster with a node
    /// failure: the precompute is small and the cluster event loop
    /// (routing, forwarding, stealing, shedding, redispatch) dominates.
    ClusterPooled,
    /// The Otsu chain x48 cut across boards: the only workload that runs
    /// the packer and the multi-board co-simulation, and it executes
    /// kernels on the interpreter rather than the VM tiers.
    PartitionX48,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ServeFresh, Kind::ClusterPooled, Kind::PartitionX48];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeFresh => "serve_fresh",
            Kind::ClusterPooled => "cluster_pooled",
            Kind::PartitionX48 => "partition_x48",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Host threads of the timed passes, on every workload: a second thread
/// on a two-vCPU shared host measures the scheduler and the neighbours
/// more than the simulator.
pub const THREADS: usize = 1;
/// The other thread count, whose output must be byte-identical.
pub const ALT_THREADS: usize = 2;

/// `Full` is the benchmark; `Tiny` is a seconds-long pass of the same
/// shape for the benchmark's own tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn parse(s: &str) -> Option<Size> {
        [Size::Full, Size::Tiny].into_iter().find(|z| z.name() == s)
    }
}

const POLICY: PolicyKind = PolicyKind::Sjf;
const QUEUE_DEPTH: usize = 8;
const SERVE_BOARDS: usize = 2;
const SERVE_LOAD: f64 = 0.8;
const CLUSTER_NODES: usize = 4;
const CLUSTER_BOARDS_PER_NODE: usize = 2;
const CLUSTER_LOAD: f64 = 0.9;
const IMAGE_POOL: u64 = 64;
const KILL_NODE: usize = 2;
/// Virtual 2000 ms, in picoseconds.
const KILL_AT_PS: u64 = 2_000 * 1_000_000_000;
const PARTITION_BOARDS: usize = 8;

/// What one pass produced.
pub enum Report {
    Serve(ServeReport),
    Cluster(ClusterReport),
    Partition(PartitionSimReport),
}

impl Report {
    pub fn to_json(&self) -> String {
        match self {
            Report::Serve(r) => serde_json::to_string(r),
            Report::Cluster(r) => serde_json::to_string(r),
            Report::Partition(r) => serde_json::to_string(r),
        }
        .expect("reports serialize")
    }

    /// The report's own invariant: cluster job accounting, partition
    /// pixel-exactness (serve reports carry none beyond the digest).
    pub fn invariant_ok(&self) -> bool {
        match self {
            Report::Serve(_) => true,
            Report::Cluster(r) => r.accounting_ok(),
            Report::Partition(r) => r.pixel_exact,
        }
    }
}

/// One pass's outcome, as the identity gate sees it.
pub struct Pass {
    pub report: Report,
    pub digest: u64,
    pub wall_s: f64,
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub size: Size,
    tenants: Vec<String>,
    jobs: Vec<JobSpec>,
    /// Architectures the stream uses, in flow order.
    archs: Vec<Arch>,
    scale: usize,
    side: u32,
}

/// The CLI's canonical two-tenant mix: a latency-sensitive tenant on the
/// all-hardware architecture and a best-effort tenant on the
/// all-software one, offered at `load` of `total_boards` boards.
fn canonical_jobs(
    total_boards: usize,
    load: f64,
    jobs: usize,
    seed: u64,
) -> (Vec<String>, Vec<JobSpec>) {
    let tenants = vec![
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
            sides: vec![24, 32],
            archs: vec![Arch::Arch1],
            deadline_slack_pct: None,
            fault_rate: 0.0,
        },
    ];
    let mut est = DseEstimator::new();
    let mix: Vec<u64> = tenants
        .iter()
        .flat_map(|t| {
            t.archs
                .iter()
                .flat_map(|&a| t.sides.iter().map(move |&s| (a, s)))
        })
        .map(|(a, s)| est.estimate_ps(a, s))
        .collect();
    let mean_est_ps = mix.iter().sum::<u64>() / mix.len() as u64;
    let spec = WorkloadSpec {
        mean_interarrival_ps: ((mean_est_ps as f64 / total_boards as f64) / load).max(1.0) as u64,
        tenants,
        jobs,
        seed,
    };
    let names = spec.tenants.iter().map(|t| t.name.clone()).collect();
    (names, generate_workload(&spec, &mut est))
}

impl Workload {
    pub fn generate(kind: Kind, size: Size, seed: u64) -> Workload {
        let tiny = size == Size::Tiny;
        let mut w = Workload {
            kind,
            seed,
            size,
            tenants: Vec::new(),
            jobs: Vec::new(),
            archs: Vec::new(),
            scale: 0,
            side: 0,
        };
        match kind {
            Kind::ServeFresh => {
                let n = if tiny { 48 } else { 1_000 };
                (w.tenants, w.jobs) = canonical_jobs(SERVE_BOARDS, SERVE_LOAD, n, seed);
            }
            Kind::ClusterPooled => {
                let n = if tiny { 4_000 } else { 250_000 };
                let boards = CLUSTER_NODES * CLUSTER_BOARDS_PER_NODE;
                (w.tenants, w.jobs) = canonical_jobs(boards, CLUSTER_LOAD, n, seed);
                pool_image_seeds(&mut w.jobs, IMAGE_POOL);
            }
            Kind::PartitionX48 => (w.scale, w.side) = if tiny { (4, 16) } else { (48, 64) },
        }
        w.archs = Arch::all()
            .into_iter()
            .filter(|a| w.jobs.iter().any(|j| j.arch == *a))
            .collect();
        w
    }

    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Jobs one pass takes to a terminal outcome (for partition_x48, a
    /// job is one chain: one tile planned, co-simulated and verified).
    pub fn jobs_per_pass(&self) -> usize {
        match self.kind {
            Kind::PartitionX48 => self.scale,
            _ => self.jobs.len(),
        }
    }

    pub fn serve_config(&self, threads: usize) -> ServeConfig {
        ServeConfig::builder()
            .tenants(self.tenants.clone())
            .boards(SERVE_BOARDS)
            .policy(POLICY)
            .queue_depth(QUEUE_DEPTH)
            .threads(threads)
            .seed(self.seed)
            .build()
    }

    pub fn cluster_config(&self, threads: usize) -> ClusterConfig {
        let node = ServeConfig::builder()
            .tenants(self.tenants.clone())
            .boards(CLUSTER_BOARDS_PER_NODE)
            .policy(POLICY)
            .queue_depth(QUEUE_DEPTH)
            .build();
        ClusterConfig::builder()
            .nodes(CLUSTER_NODES, &node)
            .steal(true)
            .shed(true)
            .fail_node(KILL_NODE, KILL_AT_PS)
            .threads(threads)
            .seed(self.seed)
            .build()
            .expect("homogeneous cluster with an in-range failure")
    }

    pub fn partition_options(&self, threads: usize) -> PartitionSimOptions {
        PartitionSimOptions::builder()
            .scale(self.scale)
            .max_boards(PARTITION_BOARDS)
            .side(self.side)
            .seed(self.seed)
            .threads(threads)
            .build()
    }

    /// Run the simulator once over the whole input.
    pub fn simulate(&self, threads: usize, observer: &dyn FlowObserver) -> Result<Report, String> {
        match self.kind {
            Kind::ServeFresh => ServeSession::new(self.serve_config(threads))
                .run(&self.jobs, observer)
                .map(Report::Serve)
                .map_err(|e| e.to_string()),
            Kind::ClusterPooled => ClusterSession::new(self.cluster_config(threads))
                .run(&self.jobs, observer)
                .map(Report::Cluster)
                .map_err(|e| e.to_string()),
            Kind::PartitionX48 => {
                run_partition_sim_observed(&self.partition_options(threads), observer)
                    .map(Report::Partition)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// One closed-loop pass: simulate, serialize the report, digest it.
    pub fn pass(&self, threads: usize, observer: &dyn FlowObserver) -> Result<Pass, String> {
        let t = Instant::now();
        let report = self.simulate(threads, observer)?;
        let digest = digest(report.to_json().as_bytes());
        Ok(Pass {
            report,
            digest,
            wall_s: t.elapsed().as_secs_f64(),
        })
    }

    /// The serving set-up: the whole flow for every architecture the
    /// stream uses, on a fresh engine (cold in-memory HLS cache).
    pub fn flow(
        &self,
        observer: SharedObserver,
    ) -> Result<(FlowEngine, Vec<(Arch, FlowArtifacts)>), String> {
        let mut engine = otsu_flow_engine_with(FlowOptions::builder().observer(observer).build());
        let mut artifacts = Vec::new();
        for &arch in &self.archs {
            let a = engine
                .run_source(&arch_dsl_source(arch))
                .map_err(|e| e.to_string())?;
            artifacts.push((arch, a));
        }
        Ok((engine, artifacts))
    }

    /// The partition set-up: build the scaled HTG (cold HLS cache), then
    /// pack it. Returns the two host times.
    pub fn plan(&self, observer: &dyn FlowObserver) -> Result<(f64, f64), String> {
        let opts = self.partition_options(THREADS);
        let pixels = u64::from(opts.side) * u64::from(opts.side);
        let t = Instant::now();
        let cache = HlsCache::in_memory();
        let (htg, areas, _) = scaled_otsu_htg(opts.scale, pixels, &cache, observer);
        let htg_s = t.elapsed().as_secs_f64();
        let mut popts = opts.partition.clone();
        popts.max_boards = opts.max_boards;
        popts.seed = opts.seed;
        let t = Instant::now();
        partition_observed(&htg, &areas, &Device::zynq7020(), &popts, observer)
            .map_err(|e| e.to_string())?;
        Ok((htg_s, t.elapsed().as_secs_f64()))
    }

    /// Host seconds before the first simulation can start.
    pub fn setup(&self) -> Result<f64, String> {
        let t = Instant::now();
        match self.kind {
            Kind::PartitionX48 => {
                self.plan(&accelsoc_observe::NullObserver)?;
            }
            _ => {
                self.flow(accelsoc_observe::null_observer())?;
            }
        }
        Ok(t.elapsed().as_secs_f64())
    }
}
