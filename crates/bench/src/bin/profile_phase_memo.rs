//! Phase-timing memo probe (not part of the repro suite): how many of a
//! serving precompute's streaming phases reuse a memoized timing, and
//! what a memo miss costs over a plain `cosim::run`.
//!
//! It generates the canonical two-tenant stream of `accelsoc serve-sim`
//! (an interactive tenant on Arch4 at sides 16/24, a best-effort one on
//! Arch1 at sides 24/32), groups its unique `(arch, side, image)` keys
//! into same-arch lane groups as `SimTables::build` does, and runs each
//! group with `run_application_group` on one flow engine whose observer
//! is a `MetricsObserver`. It prints `sim_phases` and
//! `sim_phases_reused`, then times three calls on every distinct phase
//! shape the engine's memo holds: a plain `cosim::run`, a miss on a fresh
//! memo (hash, insert, simulate), and a hit on a warm memo.
//!
//! ```text
//! profile_phase_memo [--jobs N] [--pool P] [--boards B] [--load L]
//!                    [--seed S] [--reps R] [--partition]
//! ```
//!
//! `--pool P` folds image seeds into a catalog of `P` (0, the default,
//! keeps one image per job). `--boards` and `--load` set the arrival rate
//! exactly as the CLI does. The defaults mirror the benchmark's
//! `serve_fresh`; `--jobs 250000 --pool 64 --boards 8 --load 0.9` mirrors
//! `cluster_pooled`. `--partition` instead runs the multi-board Otsu x48
//! scenario of `partition_x48` and counts its board phases.

use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine_with, Arch};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::{run_application_group, AppConfig};
use accelsoc_apps::DEFAULT_LANES;
use accelsoc_core::flow::FlowOptions;
use accelsoc_observe::{FlowMetrics, MetricsObserver};
use accelsoc_partition::{run_partition_sim_observed, PartitionSimOptions};
use accelsoc_platform::cosim::{self, CosimPhase, PhaseMemo};
use accelsoc_serve::{
    generate_workload, pool_image_seeds, DseEstimator, JobSpec, TenantProfile, WorkloadSpec,
};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The CLI's canonical two-tenant mix, offered at `load` of `boards`.
fn canonical_jobs(boards: usize, load: f64, jobs: usize, seed: u64) -> Vec<JobSpec> {
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
        mean_interarrival_ps: ((mean_est_ps as f64 / boards as f64) / load).max(1.0) as u64,
        tenants,
        jobs,
        seed,
    };
    generate_workload(&spec, &mut est)
}

/// Unique `(arch, side, image seed)` keys in first-seen order, cut into
/// same-arch groups of up to `lanes`.
fn lane_groups(jobs: &[JobSpec], lanes: usize) -> Vec<Vec<(Arch, u32, u64)>> {
    let mut seen = HashSet::new();
    let mut groups: Vec<Vec<(Arch, u32, u64)>> = Vec::new();
    let mut open: HashMap<&'static str, usize> = HashMap::new();
    for j in jobs {
        if !seen.insert((j.arch.name(), j.side, j.image_seed)) {
            continue;
        }
        let slot = *open.entry(j.arch.name()).or_insert_with(|| {
            groups.push(Vec::with_capacity(lanes));
            groups.len() - 1
        });
        groups[slot].push((j.arch, j.side, j.image_seed));
        if groups[slot].len() == lanes {
            open.remove(j.arch.name());
        }
    }
    groups
}

fn print_reuse(m: &FlowMetrics) {
    let share = if m.sim_phases == 0 {
        0.0
    } else {
        100.0 * m.sim_phases_reused as f64 / m.sim_phases as f64
    };
    println!(
        "phases: {} run, {} reused a memoized timing ({share:.1}%)",
        m.sim_phases, m.sim_phases_reused
    );
}

/// Timing rounds per shape; the three calls alternate within a round,
/// so host drift hits all of them alike.
const ROUNDS: usize = 21;

/// Mean microseconds per call of `f` over `reps` calls, each handed its
/// own pre-cloned phase so cloning stays outside the clock.
fn time_us(phase: &CosimPhase, reps: usize, mut f: impl FnMut(CosimPhase)) -> f64 {
    let inputs = vec![phase.clone(); reps];
    let t = Instant::now();
    for p in inputs {
        f(p);
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg(&args, "--seed", 42);
    let reps: usize = arg(&args, "--reps", 200);

    if args.iter().any(|a| a == "--partition") {
        let metrics = MetricsObserver::new();
        let opts = PartitionSimOptions::builder()
            .scale(48)
            .max_boards(8)
            .side(64)
            .seed(seed)
            .threads(1)
            .build();
        let report = run_partition_sim_observed(&opts, &metrics).expect("partition sim runs");
        println!("partition x48: pixel-exact {}", report.pixel_exact);
        print_reuse(&metrics.snapshot());
        return;
    }

    let jobs: usize = arg(&args, "--jobs", 1_000);
    let pool: u64 = arg(&args, "--pool", 0);
    let boards: usize = arg(&args, "--boards", 2);
    let load: f64 = arg(&args, "--load", 0.8);
    let mut stream = canonical_jobs(boards, load, jobs, seed);
    if pool > 0 {
        pool_image_seeds(&mut stream, pool);
    }
    let groups = lane_groups(&stream, DEFAULT_LANES);

    let metrics = Arc::new(MetricsObserver::new());
    let mut engine =
        otsu_flow_engine_with(FlowOptions::builder().observer(metrics.clone()).build());
    let mut artifacts = HashMap::new();
    for g in &groups {
        let arch = g[0].0;
        if !artifacts.contains_key(arch.name()) {
            let art = engine
                .run_source(&arch_dsl_source(arch))
                .expect("flow runs");
            artifacts.insert(arch.name(), art);
        }
    }
    for g in &groups {
        let arch = g[0].0;
        let images: Vec<RgbImage> = g
            .iter()
            .map(|&(_, side, s)| RgbImage::from_gray(&synthetic_scene(side, side, s)))
            .collect();
        let exec = run_application_group(
            arch,
            &engine,
            &artifacts[arch.name()],
            &images,
            &AppConfig::default(),
        )
        .expect("lane group runs");
        assert!(exec.runs.iter().all(Result::is_ok), "every lane succeeds");
    }
    println!(
        "stream: {jobs} jobs (seed {seed}, pool {pool}), {} lane groups",
        groups.len()
    );
    print_reuse(&metrics.snapshot());

    let mut shapes = engine.phase_memo().inputs();
    shapes.sort_by_key(|(p, _, _)| (p.stages.len(), p.sources.first().map(|s| s.beats)));
    println!(
        "{} distinct shapes; per call, median of {ROUNDS} rounds of {reps} \
         (over = median of per-round miss - run):",
        shapes.len()
    );
    println!(
        "{:>7} {:>10} {:>7} {:>10} {:>10} {:>10} {:>9}",
        "stages", "src beats", "cycles", "run (us)", "miss (us)", "over (us)", "hit (us)"
    );
    for (phase, hp, cap) in &shapes {
        let (hp, cap) = (*hp, *cap);
        let warm = PhaseMemo::new();
        let cycles = warm.run(phase.clone(), hp, cap).0.total_cycles;
        let (mut run, mut miss, mut over, mut hit) = (vec![], vec![], vec![], vec![]);
        for _ in 0..ROUNDS {
            let r = time_us(phase, reps, |p| {
                black_box(cosim::run(&p, hp, cap));
            });
            let m = time_us(phase, reps, |p| {
                black_box(PhaseMemo::new().run(p, hp, cap));
            });
            hit.push(time_us(phase, reps, |p| {
                black_box(warm.run(p, hp, cap));
            }));
            run.push(r);
            miss.push(m);
            over.push(m - r);
        }
        println!(
            "{:>7} {:>10} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>9.3}",
            phase.stages.len(),
            phase.sources.first().map_or(0, |s| s.beats),
            cycles,
            median(run),
            median(miss),
            median(over),
            median(hit)
        );
    }
}
