//! Search strategies over the 2^N partition space.

use crate::model::{ChainModel, DesignPoint};
use accelsoc_apps::par_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Exhaustive enumeration of all partitions of the partitionable tasks.
pub fn exhaustive(model: &ChainModel) -> Vec<DesignPoint> {
    let tasks = searchable(model);
    (0..1 << tasks.len())
        .map(|mask| point(model, &tasks, mask))
        .collect()
}

/// [`exhaustive`], fanned out over `threads` host threads.
///
/// The mask range is split into contiguous chunks, one per worker, and
/// the results come back in mask order ([`par_map`]) — so the result is
/// element-for-element identical to the sequential enumeration (the
/// differential property `tests/prop_cache.rs` pins this). The cost
/// model itself is pure, so workers share nothing but the model; when
/// the profiles came from a cache-aware build (see
/// [`crate::otsu::otsu_chain_model_cached`]), the expensive HLS work
/// has already been amortized once, before the sweep.
pub fn exhaustive_parallel(model: &ChainModel, threads: usize) -> Vec<DesignPoint> {
    let tasks = searchable(model);
    par_map(1 << tasks.len(), threads, |mask| point(model, &tasks, mask))
}

/// The partitionable tasks, few enough to enumerate.
fn searchable(model: &ChainModel) -> Vec<&str> {
    let tasks = model.partitionable();
    let n = tasks.len();
    assert!(
        n <= 20,
        "exhaustive search over 2^{n} points is unreasonable"
    );
    tasks
}

/// The design point that maps the tasks selected by `mask` to hardware.
fn point(model: &ChainModel, tasks: &[&str], mask: usize) -> DesignPoint {
    let hw: HashSet<&str> = tasks
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| *t)
        .collect();
    model.evaluate(&hw)
}

/// Greedy accretion: starting from all-software, repeatedly move the task
/// with the best runtime-gain per added LUT to hardware, while feasible.
/// Returns the trajectory (one point per step, starting at all-SW).
pub fn greedy(model: &ChainModel) -> Vec<DesignPoint> {
    let tasks = model.partitionable();
    let mut hw: HashSet<&str> = HashSet::new();
    let mut trajectory = vec![model.evaluate(&hw)];
    loop {
        let current = trajectory.last().unwrap().runtime_ns;
        let mut best: Option<(&str, f64, DesignPoint)> = None;
        for t in &tasks {
            if hw.contains(t) {
                continue;
            }
            let mut candidate = hw.clone();
            candidate.insert(t);
            let p = model.evaluate(&candidate);
            if !p.feasible {
                continue;
            }
            let gain = current - p.runtime_ns;
            let cost = (p.area.lut.max(1)) as f64;
            let score = gain / cost;
            if gain > 0.0 && best.as_ref().is_none_or(|(_, s, _)| score > *s) {
                best = Some((t, score, p));
            }
        }
        match best {
            Some((t, _, p)) => {
                hw.insert(t);
                trajectory.push(p);
            }
            None => return trajectory,
        }
    }
}

/// Seeded random sampling of `samples` distinct partitions.
pub fn random_search(model: &ChainModel, samples: usize, seed: u64) -> Vec<DesignPoint> {
    let tasks = model.partitionable();
    let n = tasks.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let space = 1u64 << n.min(63);
    while out.len() < samples.min(space as usize) {
        let mask: u64 = rng.gen_range(0..space);
        if !seen.insert(mask) {
            continue;
        }
        let hw: HashSet<&str> = tasks
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, t)| *t)
            .collect();
        out.push(model.evaluate(&hw));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaskProfile;
    use crate::pareto::pareto_front;
    use accelsoc_hls::resource::ResourceEstimate;

    fn model() -> ChainModel {
        let profile = |name: &str, sw: f64, hw: f64| TaskProfile {
            name: name.into(),
            sw_ns: sw,
            hw_ns: hw,
            area: ResourceEstimate::new(2000, 2500, 1, 1),
            input_bytes: 1000,
            output_bytes: 1000,
            sw_only: false,
        };
        ChainModel {
            tasks: vec![
                profile("gray", 50_000.0, 3_000.0),
                profile("hist", 80_000.0, 4_000.0),
                profile("otsu", 20_000.0, 6_000.0),
                profile("bin", 40_000.0, 3_000.0),
            ],
            dma_ns_per_byte: 0.5,
            dma_setup_ns: 300.0,
            infra_area: ResourceEstimate::new(3000, 4000, 4, 0),
            capacity: ResourceEstimate::new(53_200, 106_400, 280, 220),
        }
    }

    #[test]
    fn exhaustive_covers_whole_space() {
        let pts = exhaustive(&model());
        assert_eq!(pts.len(), 16);
        // All distinct hw sets.
        let mut sets: Vec<_> = pts.iter().map(|p| p.hw_tasks.clone()).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 16);
    }

    #[test]
    fn parallel_enumeration_is_bit_identical_to_sequential() {
        let m = model();
        let seq = exhaustive(&m);
        for threads in [1, 2, 3, 4, 7, 16, 64] {
            let par = exhaustive_parallel(&m, threads);
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.hw_tasks, b.hw_tasks, "threads={threads}");
                assert_eq!(
                    a.runtime_ns.to_bits(),
                    b.runtime_ns.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(a.area, b.area, "threads={threads}");
                assert_eq!(a.crossings, b.crossings, "threads={threads}");
                assert_eq!(a.feasible, b.feasible, "threads={threads}");
            }
        }
    }

    #[test]
    fn greedy_monotonically_improves_runtime() {
        let traj = greedy(&model());
        assert!(traj.len() >= 2);
        for w in traj.windows(2) {
            assert!(w[1].runtime_ns < w[0].runtime_ns);
        }
    }

    #[test]
    fn greedy_endpoint_on_or_near_pareto_front() {
        let m = model();
        let front = pareto_front(&exhaustive(&m));
        let last = greedy(&m).pop().unwrap();
        // The greedy endpoint is not dominated by more than a small margin:
        // here (symmetric costs) it should actually be on the front.
        assert!(
            front.iter().any(|p| p.hw_tasks == last.hw_tasks),
            "greedy endpoint {:?} not on front {:?}",
            last.hw_tasks,
            front.iter().map(|p| &p.hw_tasks).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pareto_front_contains_extremes() {
        let m = model();
        let pts = exhaustive(&m);
        let front = pareto_front(&pts);
        // All-SW is the zero-area extreme.
        assert!(front.iter().any(|p| p.hw_tasks.is_empty()));
        // The fastest feasible point is on the front.
        let fastest = pts
            .iter()
            .filter(|p| p.feasible)
            .min_by(|a, b| a.runtime_ns.partial_cmp(&b.runtime_ns).unwrap())
            .unwrap();
        assert!(front.iter().any(|p| p.hw_tasks == fastest.hw_tasks));
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let m = model();
        let a = random_search(&m, 8, 99);
        let b = random_search(&m, 8, 99);
        assert_eq!(a.len(), 8);
        assert_eq!(
            a.iter().map(|p| &p.hw_tasks).collect::<Vec<_>>(),
            b.iter().map(|p| &p.hw_tasks).collect::<Vec<_>>()
        );
    }
}
