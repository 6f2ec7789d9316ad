//! Job-size estimation via the DSE cost model.
//!
//! Shortest-job-first and deadline admission both need a cheap latency
//! estimate *before* a job runs. We reuse the `accelsoc-dse` chain model:
//! the estimator measures the Otsu chain's [`OtsuChainProfile`] once
//! (four kernel probe runs and four HLS syntheses through its in-memory
//! cache), builds the [`ChainModel`] for each job's pixel count from it
//! and evaluates the partition matching the job's architecture.
//! Estimates are memoized per `(arch, side)`.

use accelsoc_apps::archs::Arch;
use accelsoc_dse::model::ChainModel;
use accelsoc_dse::otsu::OtsuChainProfile;
use accelsoc_hls::cache::HlsCache;
use accelsoc_observe::{FlowObserver, NullObserver};
use accelsoc_platform::sim::ps_from_ns;
use std::collections::HashMap;
use std::collections::HashSet;

/// Memoizing latency estimator backed by the DSE chain model.
pub struct DseEstimator {
    cache: HlsCache,
    /// Measured on the first estimate.
    profile: Option<OtsuChainProfile>,
    models: HashMap<u64, ChainModel>,
    est_ps: HashMap<(&'static str, u32), u64>,
}

impl Default for DseEstimator {
    fn default() -> Self {
        DseEstimator::new()
    }
}

impl DseEstimator {
    pub fn new() -> Self {
        DseEstimator {
            cache: HlsCache::in_memory(),
            profile: None,
            models: HashMap::new(),
            est_ps: HashMap::new(),
        }
    }

    /// Estimated end-to-end latency of one `side × side` job on `arch`,
    /// in integer picoseconds.
    pub fn estimate_ps(&mut self, arch: Arch, side: u32) -> u64 {
        if let Some(&ps) = self.est_ps.get(&(arch.name(), side)) {
            return ps;
        }
        let pixels = side as u64 * side as u64;
        let model = self.models.entry(pixels).or_insert_with(|| {
            let profile = self.profile.get_or_insert_with(|| {
                OtsuChainProfile::measure(&self.cache, &NullObserver as &dyn FlowObserver)
            });
            profile.model(pixels)
        });
        let hw: HashSet<&str> = arch.hw_tasks().iter().copied().collect();
        let ns = model.evaluate(&hw).runtime_ns;
        let ps = ps_from_ns(ns);
        self.est_ps.insert((arch.name(), side), ps);
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_memoized_and_monotone_in_size() {
        let mut e = DseEstimator::new();
        let small = e.estimate_ps(Arch::Arch4, 16);
        let again = e.estimate_ps(Arch::Arch4, 16);
        assert_eq!(small, again);
        let big = e.estimate_ps(Arch::Arch4, 64);
        assert!(big > small, "{big} > {small}");
        // All four kernels synthesized exactly once despite two sizes.
        assert_eq!(e.cache.len(), 4);
    }

    #[test]
    fn arch_ordering_matches_table1() {
        // Arch4 (everything in HW, one streaming pass) is the fastest
        // point of Table I in the DSE model too.
        let mut e = DseEstimator::new();
        let side = 64;
        let a4 = e.estimate_ps(Arch::Arch4, side);
        for arch in [Arch::Arch1, Arch::Arch2, Arch::Arch3] {
            assert!(a4 < e.estimate_ps(arch, side), "{arch:?}");
        }
    }
}
