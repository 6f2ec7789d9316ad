//! The deterministic output of one serve run.
//!
//! Every field is computed from integer virtual-time quantities in a
//! fixed order, so serializing a [`ServeReport`] yields byte-identical
//! JSON for the same (workload, config) regardless of host thread count.

use crate::job::{AdmissionError, JobRecord};
use crate::policy::PolicyKind;
use accelsoc_observe::{nearest_rank, TenantId};
use serde::{Deserialize, Serialize};

/// Per-tenant aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    pub tenant: TenantId,
    /// Jobs this tenant submitted (admitted + rejected).
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Queue expiries + late finishes.
    pub deadline_missed: u64,
    /// Latency percentiles over completed (on-time or late) jobs.
    pub p50_latency_ps: u64,
    pub p99_latency_ps: u64,
    pub mean_latency_ps: u64,
}

impl TenantReport {
    /// Fold one tenant's tallies into its row. `latencies` holds every
    /// completed (on-time or late) job's latency, in any order: the row
    /// takes the vector and selects its percentiles in place. `missed`
    /// counts queue expiries plus late finishes.
    pub fn new(
        tenant: TenantId,
        submitted: u64,
        rejected: u64,
        missed: u64,
        mut latencies: Vec<u64>,
    ) -> Self {
        let mean = if latencies.is_empty() {
            0
        } else {
            latencies.iter().sum::<u64>() / latencies.len() as u64
        };
        TenantReport {
            tenant,
            submitted,
            admitted: submitted - rejected,
            rejected,
            completed: latencies.len() as u64,
            deadline_missed: missed,
            p50_latency_ps: nearest_rank(&mut latencies, 50),
            p99_latency_ps: nearest_rank(&mut latencies, 99),
            mean_latency_ps: mean,
        }
    }
}

/// Completed jobs per virtual second over `makespan_ps` (0 for an empty
/// run).
pub(crate) fn jobs_per_s(completed: u64, makespan_ps: u64) -> f64 {
    if makespan_ps > 0 {
        completed as f64 / (makespan_ps as f64 * 1e-12)
    } else {
        0.0
    }
}

/// Counts of admission rejections by typed reason.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RejectionCounts {
    pub queue_full: u64,
    pub job_too_large: u64,
    pub deadline_impossible: u64,
    pub invalid_graph: u64,
    pub unknown_tenant: u64,
    pub too_many_boards: u64,
}

impl RejectionCounts {
    /// Count one rejection under its typed reason.
    pub fn count(&mut self, err: &AdmissionError) {
        match err {
            AdmissionError::QueueFull { .. } => self.queue_full += 1,
            AdmissionError::JobTooLarge { .. } => self.job_too_large += 1,
            AdmissionError::DeadlineImpossible { .. } => self.deadline_impossible += 1,
            AdmissionError::InvalidGraph { .. } => self.invalid_graph += 1,
            AdmissionError::UnknownTenant(_) => self.unknown_tenant += 1,
            AdmissionError::TooManyBoards { .. } => self.too_many_boards += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.queue_full
            + self.job_too_large
            + self.deadline_impossible
            + self.invalid_graph
            + self.unknown_tenant
            + self.too_many_boards
    }
}

/// Everything one serve run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    pub policy: PolicyKind,
    pub boards: usize,
    pub seed: u64,
    pub submitted: u64,
    pub admitted: u64,
    pub rejections: RejectionCounts,
    pub completed: u64,
    pub completed_late: u64,
    pub timed_out: u64,
    /// `completed_late + timed_out`.
    pub deadline_misses: u64,
    pub retries: u64,
    /// Board phases dispatched (a batch of n jobs is one phase).
    pub batches: u64,
    /// Virtual time of the last completion (or expiry).
    pub makespan_ps: u64,
    /// Completed jobs per virtual second (0 for an empty run).
    pub throughput_jobs_per_s: f64,
    /// Jain fairness index over per-tenant completion counts, in (0, 1];
    /// 1.0 = perfectly even service.
    pub fairness: f64,
    pub tenants: Vec<TenantReport>,
    /// Busy virtual time per board, by board index.
    pub board_busy_ps: Vec<u64>,
    /// Per-job records in completion/expiry order (the determinism
    /// witness: this order is part of the report equality).
    pub records: Vec<JobRecord>,
}

impl ServeReport {
    /// Jain fairness index over per-tenant completion counts: tenants
    /// that submitted nothing are excluded.
    pub fn jain_fairness(tenants: &[TenantReport]) -> f64 {
        let xs: Vec<u64> = tenants
            .iter()
            .filter(|t| t.submitted > 0)
            .map(|t| t.completed)
            .collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: u64 = xs.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let sum_sq: u64 = xs.iter().map(|&x| x * x).sum();
        (sum as f64 * sum as f64) / (xs.len() as f64 * sum_sq as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tenant: &str, submitted: u64, rejected: u64, missed: u64, lat: &[u64]) -> TenantReport {
        TenantReport::new(tenant.into(), submitted, rejected, missed, lat.to_vec())
    }

    #[test]
    fn tenant_rows_fold_outcomes() {
        // Tenant a: one on-time (100 ps), one late (300 ps), one timed
        // out and one rejected job; tenant b: one on-time (200 ps).
        let rows = [row("a", 4, 1, 2, &[100, 300]), row("b", 1, 0, 0, &[200])];
        assert_eq!(rows[0].completed, 2, "late still counts as completed");
        assert_eq!(rows[0].deadline_missed, 2, "late + timed out");
        assert_eq!(rows[0].admitted, 3);
        assert_eq!(rows[0].p50_latency_ps, 100);
        assert_eq!(rows[0].p99_latency_ps, 300);
        assert_eq!(rows[0].mean_latency_ps, 200);
        assert_eq!(rows[1].completed, 1);
        assert_eq!(rows[1].deadline_missed, 0);
    }

    #[test]
    fn jain_index_bounds() {
        let even = [row("a", 2, 0, 0, &[1, 1]), row("b", 2, 0, 0, &[1, 1])];
        assert_eq!(ServeReport::jain_fairness(&even), 1.0);

        let skewed = [row("a", 4, 0, 0, &[1, 1, 1, 1]), row("b", 4, 0, 0, &[])];
        let j = ServeReport::jain_fairness(&skewed);
        assert!(j < 0.6 && j > 0.0, "one-sided service: {j}");
        assert_eq!(ServeReport::jain_fairness(&[]), 1.0);
    }
}
