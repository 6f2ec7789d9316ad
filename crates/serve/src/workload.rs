//! Seeded synthetic workload generator.
//!
//! Everything is derived from one `u64` seed through the vendored
//! xoshiro `StdRng`, and all times are integer picoseconds, so a
//! workload is a pure function of its spec — the first half of the
//! serve determinism argument.

use crate::estimator::DseEstimator;
use crate::job::{JobShape, JobSpec};
use accelsoc_apps::archs::Arch;
use accelsoc_observe::TenantId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Traffic shape of one tenant.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    pub name: String,
    /// Relative arrival weight: a tenant with weight 3 submits ~3× the
    /// jobs of a weight-1 tenant.
    pub weight: u32,
    /// Image sides this tenant draws from (uniform).
    pub sides: Vec<u32>,
    /// Architectures this tenant requests (uniform).
    pub archs: Vec<Arch>,
    /// Deadline slack in percent of the DSE estimate: a job submitted at
    /// `t` gets `deadline = t + est × slack / 100`. `None` = best-effort
    /// jobs with no deadline.
    pub deadline_slack_pct: Option<u64>,
    /// Probability that a job hits a seeded transient fault on its first
    /// execution (exercises the retry path).
    pub fault_rate: f64,
}

impl TenantProfile {
    /// A plain best-effort tenant with one size and one architecture.
    pub fn simple(name: impl Into<String>, weight: u32, side: u32, arch: Arch) -> Self {
        TenantProfile {
            name: name.into(),
            weight: weight.max(1),
            sides: vec![side],
            archs: vec![arch],
            deadline_slack_pct: None,
            fault_rate: 0.0,
        }
    }
}

/// Full workload description: who submits what, how often, under which
/// seed.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub tenants: Vec<TenantProfile>,
    /// Total jobs across all tenants.
    pub jobs: usize,
    /// Mean inter-arrival gap; actual gaps are uniform in
    /// `[1, 2 × mean]` picoseconds, so offered load scales as
    /// `1 / mean_interarrival_ps`.
    pub mean_interarrival_ps: u64,
    pub seed: u64,
}

/// Generate the job stream: arrival-ordered, ids dense from 0.
///
/// `estimator` is consulted for deadline placement (deadline = arrival +
/// slack × estimate); best-effort tenants never touch it.
///
/// # Panics
///
/// When the spec has no tenant, or when an arrival time or deadline
/// does not fit the `u64` picosecond clock (a mean interarrival so long
/// that `jobs × 2 × mean` overflows it); the message names the spec.
pub fn generate_workload(spec: &WorkloadSpec, estimator: &mut DseEstimator) -> Vec<JobSpec> {
    assert!(
        !spec.tenants.is_empty(),
        "workload needs at least one tenant"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let total_weight: u64 = spec.tenants.iter().map(|t| t.weight.max(1) as u64).sum();
    let mean = spec.mean_interarrival_ps.max(1);
    let max_gap = mean
        .checked_mul(2)
        .unwrap_or_else(|| clock_overflow(spec, "arrival gap", 0));

    // One interned TenantId per profile, pre-resolved to its index so
    // a node resolves each job's tenant with one pointer compare.
    let tenant_ids: Vec<TenantId> = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantId::new(i as u32, &t.name))
        .collect();

    let mut jobs = Vec::with_capacity(spec.jobs);
    let mut clock_ps = 0u64;
    for id in 0..spec.jobs as u64 {
        clock_ps = clock_ps
            .checked_add(rng.gen_range(1..=max_gap))
            .unwrap_or_else(|| clock_overflow(spec, "arrival", id));

        // Weighted tenant choice.
        let mut pick = rng.gen_range(0..total_weight);
        let (tenant_idx, tenant) = spec
            .tenants
            .iter()
            .enumerate()
            .find(|(_, t)| {
                let w = t.weight.max(1) as u64;
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("pick < total_weight by construction");

        let side = tenant.sides[rng.gen_range(0..tenant.sides.len())];
        let arch = tenant.archs[rng.gen_range(0..tenant.archs.len())];
        let deadline_ps = tenant.deadline_slack_pct.map(|slack| {
            let est = estimator.estimate_ps(arch, side);
            clock_ps
                .checked_add(est.saturating_mul(slack) / 100)
                .unwrap_or_else(|| clock_overflow(spec, "deadline", id))
        });
        let transient_fault = tenant.fault_rate > 0.0 && rng.gen_bool(tenant.fault_rate);

        jobs.push(JobSpec {
            id,
            tenant: tenant_ids[tenant_idx],
            arch,
            side,
            image_seed: spec.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            submit_ps: clock_ps,
            deadline_ps,
            transient_fault,
            graph: None,
            shape: JobShape::SingleBoard,
        });
    }
    jobs
}

/// Refuse a spec whose arrival clock or deadlines leave `u64`
/// picoseconds, naming the spec instead of failing on the arithmetic.
fn clock_overflow(spec: &WorkloadSpec, what: &str, id: u64) -> ! {
    panic!(
        "workload spec overflows the u64 picosecond clock ({what} of job {id}): \
         {} jobs, mean interarrival {} ps, seed {}",
        spec.jobs, spec.mean_interarrival_ps, spec.seed
    )
}

/// Fold every job's `image_seed` into a pool of `pool` distinct values.
///
/// The latency precompute simulates one board run per unique
/// `(arch, side, image_seed)` key, so an unbounded seed space makes a
/// million-job sweep pay a million board simulations. Serving workloads
/// in the wild re-serve a bounded catalog of inputs; this models that
/// by reducing seeds modulo the pool size, keeping the precompute
/// `O(archs × sides × pool)` while the event loop still processes every
/// job.
pub fn pool_image_seeds(jobs: &mut [JobSpec], pool: u64) {
    let pool = pool.max(1);
    for job in jobs {
        job.image_seed %= pool;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            tenants: vec![
                TenantProfile {
                    name: "interactive".into(),
                    weight: 3,
                    sides: vec![16, 24],
                    archs: vec![Arch::Arch4],
                    deadline_slack_pct: Some(1_000),
                    fault_rate: 0.0,
                },
                TenantProfile::simple("batch", 1, 32, Arch::Arch1),
            ],
            jobs: 60,
            mean_interarrival_ps: 1_000_000,
            seed,
        }
    }

    #[test]
    fn same_seed_same_workload() {
        let mut e = DseEstimator::new();
        let a = generate_workload(&spec(42), &mut e);
        let b = generate_workload(&spec(42), &mut e);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.side, y.side);
            assert_eq!(x.submit_ps, y.submit_ps);
            assert_eq!(x.deadline_ps, y.deadline_ps);
            assert_eq!(x.image_seed, y.image_seed);
        }
    }

    #[test]
    fn generated_tenants_are_pre_resolved() {
        let mut e = DseEstimator::new();
        let jobs = generate_workload(&spec(3), &mut e);
        for j in &jobs {
            assert!(j.tenant.is_resolved());
            let i = j.tenant.index() as usize;
            assert_eq!(spec(3).tenants[i].name, j.tenant.name());
        }
    }

    #[test]
    fn image_seed_pool_bounds_unique_seeds() {
        let mut e = DseEstimator::new();
        let mut jobs = generate_workload(&spec(9), &mut e);
        pool_image_seeds(&mut jobs, 16);
        let distinct: std::collections::HashSet<u64> = jobs.iter().map(|j| j.image_seed).collect();
        assert!(distinct.len() <= 16);
        assert!(jobs.iter().all(|j| j.image_seed < 16));
        // pool of 0 is clamped, not a divide-by-zero
        pool_image_seeds(&mut jobs, 0);
        assert!(jobs.iter().all(|j| j.image_seed == 0));
    }

    #[test]
    #[should_panic(expected = "workload spec overflows the u64 picosecond clock (arrival gap")]
    fn an_unrepresentable_gap_names_the_spec() {
        let mut s = spec(1);
        s.mean_interarrival_ps = u64::MAX / 2 + 1;
        generate_workload(&s, &mut DseEstimator::new());
    }

    #[test]
    #[should_panic(expected = "workload spec overflows the u64 picosecond clock (arrival of job")]
    fn an_arrival_past_the_clock_names_the_spec() {
        let mut s = spec(1);
        s.mean_interarrival_ps = u64::MAX / 2;
        generate_workload(&s, &mut DseEstimator::new());
    }

    #[test]
    fn different_seed_different_arrivals() {
        let mut e = DseEstimator::new();
        let a = generate_workload(&spec(1), &mut e);
        let b = generate_workload(&spec(2), &mut e);
        assert!(a.iter().zip(&b).any(|(x, y)| x.submit_ps != y.submit_ps));
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_weighted() {
        let mut e = DseEstimator::new();
        let jobs = generate_workload(&spec(7), &mut e);
        assert!(jobs.windows(2).all(|w| w[0].submit_ps < w[1].submit_ps));
        let interactive = jobs.iter().filter(|j| j.tenant == "interactive").count();
        let batch = jobs.iter().filter(|j| j.tenant == "batch").count();
        assert_eq!(interactive + batch, 60);
        assert!(
            interactive > batch,
            "weight 3 beats weight 1: {interactive} vs {batch}"
        );
        // Deadlines only where the profile asks for them.
        assert!(jobs
            .iter()
            .all(|j| (j.tenant == "interactive") == j.deadline_ps.is_some()));
        for j in jobs.iter().filter(|j| j.deadline_ps.is_some()) {
            assert!(j.deadline_ps.unwrap() > j.submit_ps);
        }
    }
}
