//! Bounded per-tenant admission queues.

use crate::job::JobSpec;
use accelsoc_observe::TenantId;
use std::collections::VecDeque;

/// One admitted job waiting in (or moving through) the system: a borrow
/// of its spec in the run's job stream plus what the node tracks about
/// it. 48 bytes, moved by value through queues, boards and transfers.
#[derive(Debug, Clone)]
pub struct ActiveJob<'a> {
    pub spec: &'a JobSpec,
    /// DSE latency estimate (integer picoseconds) — the key size-aware
    /// policies sort by.
    pub est_ps: u64,
    /// True simulated board latency (integer picoseconds).
    pub lat_ps: u64,
    /// Executions so far (0 before the first dispatch).
    pub attempts: u32,
    /// Board the job faulted on; the scheduler avoids it on retry when
    /// the pool has an alternative.
    pub excluded_board: Option<usize>,
    /// Times this job was re-dispatched off a failed node (cluster
    /// bookkeeping; bounded by `ClusterConfig::max_redispatch`).
    pub redispatches: u32,
}

/// A bounded FIFO of admitted jobs for one tenant. Jobs leave from the
/// front only (per-tenant FIFO order is preserved under every policy);
/// policies choose *which tenant's* front job goes next.
#[derive(Debug)]
pub struct TenantQueue<'a> {
    pub tenant: TenantId,
    pub depth: usize,
    jobs: VecDeque<ActiveJob<'a>>,
    /// The earliest deadline among the queued jobs (`None` when no
    /// queued job has one): lowered by every push, recomputed only when
    /// the job holding it leaves, so [`TenantQueue::has_expired`] is one
    /// comparison.
    earliest_deadline_ps: Option<u64>,
}

impl<'a> TenantQueue<'a> {
    pub fn new(tenant: impl Into<TenantId>, depth: usize) -> Self {
        TenantQueue {
            tenant: tenant.into(),
            depth: depth.max(1),
            jobs: VecDeque::new(),
            earliest_deadline_ps: None,
        }
    }

    pub fn is_full(&self) -> bool {
        self.jobs.len() >= self.depth
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The job a policy may dispatch next (per-tenant FIFO head).
    pub fn head(&self) -> Option<&ActiveJob<'a>> {
        self.jobs.front()
    }

    pub fn push(&mut self, job: ActiveJob<'a>) {
        debug_assert!(!self.is_full(), "admission must check is_full first");
        self.push_unbounded(job);
    }

    /// Append past the depth bound: cluster transfers (stolen or
    /// re-dispatched jobs) were already admitted elsewhere and must not
    /// be droppable by a second depth check.
    pub fn push_unbounded(&mut self, job: ActiveJob<'a>) {
        self.arrived(&job);
        self.jobs.push_back(job);
    }

    /// Requeue a faulted job at the front so its retry is not penalised
    /// by jobs that arrived while it was executing.
    pub fn push_front(&mut self, job: ActiveJob<'a>) {
        self.arrived(&job);
        self.jobs.push_front(job);
    }

    pub fn pop(&mut self) -> Option<ActiveJob<'a>> {
        let job = self.jobs.pop_front()?;
        self.left(&job);
        Some(job)
    }

    /// Take the *newest* queued job (the work-stealing victim side:
    /// stealing from the back preserves the FIFO order of everything
    /// the tenant is still owed locally).
    pub fn pop_back(&mut self) -> Option<ActiveJob<'a>> {
        let job = self.jobs.pop_back()?;
        self.left(&job);
        Some(job)
    }

    /// Whether any queued job's deadline is at or before `now_ps` — the
    /// pre-check for [`TenantQueue::drain_expired`], called once per
    /// dispatch iteration on the hot path.
    pub fn has_expired(&self, now_ps: u64) -> bool {
        debug_assert_eq!(self.earliest_deadline_ps, self.scan_earliest());
        matches!(self.earliest_deadline_ps, Some(d) if d <= now_ps)
    }

    /// Remove every queued job whose deadline is at or before `now_ps`
    /// and return them (queue-expiry deadline misses).
    pub fn drain_expired(&mut self, now_ps: u64) -> Vec<ActiveJob<'a>> {
        let mut expired = Vec::new();
        let mut keep = VecDeque::with_capacity(self.jobs.len());
        for job in self.jobs.drain(..) {
            match job.spec.deadline_ps {
                Some(d) if d <= now_ps => expired.push(job),
                _ => keep.push_back(job),
            }
        }
        self.jobs = keep;
        self.earliest_deadline_ps = self.scan_earliest();
        expired
    }

    /// Empty the queue in FIFO order (node-failure drain).
    pub fn drain_all(&mut self) -> std::collections::vec_deque::Drain<'_, ActiveJob<'a>> {
        self.earliest_deadline_ps = None;
        self.jobs.drain(..)
    }

    fn arrived(&mut self, job: &ActiveJob<'a>) {
        if let Some(d) = job.spec.deadline_ps {
            self.earliest_deadline_ps = Some(self.earliest_deadline_ps.map_or(d, |e| e.min(d)));
        }
    }

    fn left(&mut self, job: &ActiveJob<'a>) {
        if job.spec.deadline_ps.is_some() && job.spec.deadline_ps == self.earliest_deadline_ps {
            self.earliest_deadline_ps = self.scan_earliest();
        }
    }

    fn scan_earliest(&self) -> Option<u64> {
        self.jobs.iter().filter_map(|j| j.spec.deadline_ps).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_apps::archs::Arch;
    use proptest::prelude::*;

    fn spec(id: u64, deadline_ps: Option<u64>) -> JobSpec {
        JobSpec {
            id,
            tenant: "t".into(),
            arch: Arch::Arch1,
            side: 16,
            image_seed: id,
            submit_ps: 0,
            deadline_ps,
            transient_fault: false,
            graph: None,
            shape: Default::default(),
        }
    }

    fn active(spec: &JobSpec) -> ActiveJob<'_> {
        ActiveJob {
            spec,
            est_ps: 100,
            lat_ps: 100,
            attempts: 0,
            excluded_board: None,
            redispatches: 0,
        }
    }

    /// Jobs `1..=n` with the given deadlines, for tests to borrow.
    fn specs(deadlines: &[Option<u64>]) -> Vec<JobSpec> {
        (1..).zip(deadlines).map(|(id, &d)| spec(id, d)).collect()
    }

    #[test]
    fn a_job_handle_is_48_bytes() {
        assert!(std::mem::size_of::<ActiveJob<'_>>() <= 48);
    }

    #[test]
    fn bounded_fifo_order() {
        let s = specs(&[None, None]);
        let mut q = TenantQueue::new("t", 2);
        assert!(q.is_empty());
        q.push(active(&s[0]));
        q.push(active(&s[1]));
        assert!(q.is_full());
        assert_eq!(q.head().unwrap().spec.id, 1);
        assert_eq!(q.pop().unwrap().spec.id, 1);
        assert_eq!(q.pop().unwrap().spec.id, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn expiry_keeps_relative_order_of_survivors() {
        let s = specs(&[Some(50), None, Some(200), Some(49)]);
        let mut q = TenantQueue::new("t", 8);
        for j in &s {
            q.push(active(j));
        }
        assert!(!q.has_expired(48));
        assert!(q.has_expired(50));
        let expired = q.drain_expired(50);
        assert_eq!(
            expired.iter().map(|j| j.spec.id).collect::<Vec<_>>(),
            [1, 4]
        );
        assert!(!q.has_expired(50));
        assert!(q.has_expired(200));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().spec.id, 2);
        assert_eq!(q.pop().unwrap().spec.id, 3);
        assert!(!q.has_expired(u64::MAX));
    }

    #[test]
    fn retry_requeues_at_front() {
        let s = specs(&[None, None]);
        let mut q = TenantQueue::new("t", 8);
        q.push(active(&s[0]));
        q.push(active(&s[1]));
        let mut j = q.pop().unwrap();
        j.attempts = 1;
        q.push_front(j);
        assert_eq!(q.head().unwrap().spec.id, 1);
        assert_eq!(q.head().unwrap().attempts, 1);
    }

    #[test]
    fn steal_side_pops_newest_and_transfers_ignore_depth() {
        let s = specs(&[None, None, None]);
        let mut q = TenantQueue::new("t", 2);
        q.push(active(&s[0]));
        q.push(active(&s[1]));
        assert!(q.is_full());
        q.push_unbounded(active(&s[2]));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_back().unwrap().spec.id, 3);
        assert_eq!(q.head().unwrap().spec.id, 1, "front order untouched");
        assert_eq!(q.drain_all().map(|j| j.spec.id).collect::<Vec<_>>(), [1, 2]);
        assert!(q.is_empty());
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push,
        PushFront,
        PushUnbounded,
        Pop,
        PopBack,
        DrainExpired(u64),
        DrainAll,
    }

    /// A random queue operation, weighted toward pushes and pops.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..10, 0u64..40).prop_map(|(k, now)| match k {
            0..=2 => Op::Push,
            3 => Op::PushFront,
            4 => Op::PushUnbounded,
            5 | 6 => Op::Pop,
            7 => Op::PopBack,
            8 => Op::DrainExpired(now),
            _ => Op::DrainAll,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kept earliest deadline answers `has_expired` exactly as a
        /// scan of the queue would, under any mix of the queue's
        /// operations (the `debug_assert` inside `has_expired` checks
        /// the kept value itself), and the queue stays a FIFO.
        #[test]
        fn kept_earliest_deadline_matches_a_scan(
            ops in proptest::collection::vec(arb_op(), 1..80),
            deadlines in proptest::collection::vec((any::<bool>(), 0u64..40), 80),
            probes in proptest::collection::vec(0u64..45, 3),
        ) {
            let deadlines: Vec<Option<u64>> =
                deadlines.into_iter().map(|(some, d)| some.then_some(d)).collect();
            let s = specs(&deadlines);
            let mut next = s.iter();
            let mut q = TenantQueue::new("t", 4);
            let mut model: VecDeque<&JobSpec> = VecDeque::new();
            for op in ops {
                match op {
                    Op::Push | Op::PushFront | Op::PushUnbounded => {
                        let Some(j) = next.next() else { continue };
                        match op {
                            // A push into a full queue goes past the bound.
                            Op::Push if !q.is_full() => {
                                q.push(active(j));
                                model.push_back(j);
                            }
                            Op::PushFront => {
                                q.push_front(active(j));
                                model.push_front(j);
                            }
                            _ => {
                                q.push_unbounded(active(j));
                                model.push_back(j);
                            }
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(q.pop().map(|j| j.spec.id), model.pop_front().map(|j| j.id));
                    }
                    Op::PopBack => {
                        prop_assert_eq!(q.pop_back().map(|j| j.spec.id), model.pop_back().map(|j| j.id));
                    }
                    Op::DrainExpired(now) => {
                        let got: Vec<u64> = q.drain_expired(now).iter().map(|j| j.spec.id).collect();
                        let want: Vec<u64> = model
                            .iter()
                            .filter(|j| matches!(j.deadline_ps, Some(d) if d <= now))
                            .map(|j| j.id)
                            .collect();
                        model.retain(|j| !matches!(j.deadline_ps, Some(d) if d <= now));
                        prop_assert_eq!(got, want);
                    }
                    Op::DrainAll => {
                        let got: Vec<u64> = q.drain_all().map(|j| j.spec.id).collect();
                        let want: Vec<u64> = model.drain(..).map(|j| j.id).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                for &now in &probes {
                    let want = model
                        .iter()
                        .any(|j| matches!(j.deadline_ps, Some(d) if d <= now));
                    prop_assert_eq!(q.has_expired(now), want);
                }
            }
        }
    }
}
