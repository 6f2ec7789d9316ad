//! One serve node: the admission / policy / batching / retry engine.
//! Every node is one shard of a [`crate::cluster::ClusterSession`]; a
//! standalone [`crate::scheduler::ServeSession`] is the one-node case.
//!
//! A node owns its board pool, its bounded per-tenant queues and its
//! policy state, and exposes *pull-style* hooks to the cluster calendar
//! that drives it: the driver delivers arrivals ([`ServeNode::admit`]),
//! board completions ([`ServeNode::batch_done`]) and failure injections
//! ([`ServeNode::fail`]), then asks the node to dispatch as much as its
//! pool allows ([`ServeNode::dispatch`]). The node never schedules its
//! own events and never reads a clock — every timestamp comes in from the
//! driver — which is what keeps a multi-node composition on one total
//! event order deterministic.
//!
//! The node counts every terminal outcome that happens on it
//! (completions, late completions, queue time-outs, their latencies and
//! the makespan), and keeps a [`JobRecord`] per outcome only when its
//! config keeps records; the cluster folds those counts from its nodes
//! and copies new records into its ledger instead of counting again.
//!
//! In-flight jobs live *on the node* (in each board slot), not in the
//! calendar: a `BatchDone` event is just `(node, board)`, so a node
//! failure can drain its boards without fishing payloads back out of
//! the event queue.

use crate::job::{AdmissionError, JobOutcome, JobRecord, JobSpec};
use crate::policy::SchedPolicy;
use crate::queue::{ActiveJob, TenantQueue};
use crate::report::{jobs_per_s, RejectionCounts, ServeReport, TenantReport};
use crate::scheduler::{ServeConfig, ServeError};
use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine, Arch};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::kernels::MAX_PIXELS;
use accelsoc_apps::otsu::{dram_footprint, AppError, GroupRunner, Value};
use accelsoc_apps::par_map_with;
use accelsoc_core::flow::FlowArtifacts;
use accelsoc_observe::{FlowEvent, FlowObserver, TenantId};
use accelsoc_platform::sim::{ns_from_ps, ps_from_ns};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Admission checks that depend only on the job itself (not on queue
/// state). Split out so the latency precompute can skip jobs that will
/// never run. `tenant` is the job's tenant resolved against
/// `cfg.tenants` (`None` for a tenant the config does not list), and is
/// returned when the job passes. `now_ps` is the delivery time — at or
/// after the job's submit time once routing latency is modeled.
pub(crate) fn static_admission(
    job: &JobSpec,
    tenant: Option<usize>,
    cfg: &ServeConfig,
    est_ps: u64,
    now_ps: u64,
) -> Result<usize, AdmissionError> {
    let Some(ti) = tenant else {
        return Err(AdmissionError::UnknownTenant(job.tenant.name().into()));
    };
    // A gang wider than the whole pool can never dispatch here.
    if job.shape.boards() > cfg.boards {
        return Err(AdmissionError::TooManyBoards {
            requested: job.shape.boards(),
            pool: cfg.boards,
        });
    }
    if let Some(graph) = &job.graph {
        let report = accelsoc_htg::validate::validate(graph);
        if !report.is_ok() {
            let detail = report
                .errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(AdmissionError::InvalidGraph { detail });
        }
    }
    // The board needs the input image and the output buffer resident at
    // once, at the fixed DRAM addresses the runner stages them at;
    // reject anything that cannot fit the pool's DRAM.
    let output_bytes = Value::Segmented.bytes(job.pixels());
    let need = (job.input_bytes() + output_bytes).max(dram_footprint(job.pixels()));
    let capacity = cfg.app.dram_bytes as u64;
    if need > capacity {
        return Err(AdmissionError::JobTooLarge {
            bytes: need,
            capacity,
        });
    }
    // The Otsu kernels count pixels in 21-bit locals (`halfProbability`),
    // so a larger image would run with wrapped counts.
    let max_input = Value::Rgb.bytes(u64::from(MAX_PIXELS));
    if job.input_bytes() > max_input {
        return Err(AdmissionError::JobTooLarge {
            bytes: job.input_bytes(),
            capacity: max_input,
        });
    }
    if let Some(deadline_ps) = job.deadline_ps {
        let earliest_finish_ps = now_ps.max(job.submit_ps) + cfg.dispatch_overhead_ps + est_ps;
        if deadline_ps < earliest_finish_ps {
            return Err(AdmissionError::DeadlineImpossible {
                deadline_ps,
                earliest_finish_ps,
            });
        }
    }
    Ok(ti)
}

/// The read-only simulation tables every node shares, read by job
/// index: each job's dense `(arch, side, image_seed)` key, the DSE
/// estimate of each key and the true simulated board latency of each key
/// some job can be admitted with.
///
/// Building the latency table is the only parallel stage of a serve
/// run, and it follows the PR 4 argument exactly: each unique key is a
/// pure function of `(arch, image, board knobs)` computed into a
/// slot-ordered vector, so host thread count changes only *when* a slot
/// is filled, never *what* it holds.
pub struct SimTables {
    /// Each job's key, by job index.
    key: Vec<u32>,
    /// DSE estimate per key.
    est_ps: Vec<u64>,
    /// Simulated latency per key; `None` for a key no job of which
    /// passes static admission (never simulated, never dispatched).
    lat_ps: Vec<Option<u64>>,
}

/// Multiply-rotate hashing for the precompute's job keys and shapes:
/// they come from the program's own job stream, so SipHash's resistance
/// to crafted collisions buys nothing there.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl SimTables {
    /// Build the tables for a job stream. `cfg` supplies the admission
    /// filter (jobs that can never pass static admission at their
    /// submit time are not simulated) and the board knobs; `threads` is
    /// the host-parallelism of the latency precompute and has no effect
    /// on the result.
    pub fn build(jobs: &[JobSpec], cfg: &ServeConfig, threads: usize) -> Result<Self, ServeError> {
        // --- stage 0: one pass over the jobs -----------------------------
        // Intern each job's (arch, side, image_seed) into a dense key and
        // estimate each new key once (the estimator memoizes per
        // (arch, side)). A key is simulated once some job of it passes
        // static admission; `sim_keys` lists those in that order.
        let mut estimator = crate::estimator::DseEstimator::new();
        let mut index: HashMap<(u64, u64), u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        let mut keys: Vec<(Arch, u32, u64)> = Vec::new();
        let mut est_ps: Vec<u64> = Vec::new();
        let mut admissible: Vec<bool> = Vec::new();
        let mut sim_keys: Vec<usize> = Vec::new();
        let mut key = Vec::with_capacity(jobs.len());
        for job in jobs {
            let k = *index
                .entry(((job.arch as u64) << 32 | job.side as u64, job.image_seed))
                .or_insert_with(|| {
                    keys.push((job.arch, job.side, job.image_seed));
                    est_ps.push(estimator.estimate_ps(job.arch, job.side));
                    admissible.push(false);
                    (keys.len() - 1) as u32
                });
            key.push(k);
            let k = k as usize;
            if !admissible[k] {
                let tenant = cfg.tenants.iter().position(|t| job.tenant == *t);
                if static_admission(job, tenant, cfg, est_ps[k], job.submit_ps).is_ok() {
                    admissible[k] = true;
                    sim_keys.push(k);
                }
            }
        }

        // --- stage 1: parallel latency precompute ------------------------
        // Flow artifacts once per architecture in use (order-fixed),
        // indexed by `Arch` discriminant.
        let mut engine = otsu_flow_engine();
        let mut artifacts: [Option<FlowArtifacts>; 4] = Default::default();
        for arch in Arch::all() {
            if keys.iter().any(|&(a, _, _)| a == arch) {
                artifacts[arch as usize] = Some(engine.run_source(&arch_dsl_source(arch))?);
            }
        }
        // Partition the keys to simulate into lane groups of at most
        // `cfg.lanes` keys of one phase shape, `(arch, side)`, in
        // `sim_keys` order within each shape: each group's software
        // tasks execute as one batch-lane VM invocation (one decoded
        // instruction stream over all its images) and its boards' hardware
        // phase as one group phase whose lanes never diverge on length.
        // Grouping is a pure function of the job stream and `cfg.lanes`,
        // and every per-key latency is bit-identical to a solo run by the
        // lane-VM contract — so neither lanes nor threads can change the
        // table.
        let lanes = cfg.lanes.max(1);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut open: HashMap<u64, usize, BuildHasherDefault<KeyHasher>> = HashMap::default();
        for &k in &sim_keys {
            let (arch, side, _) = keys[k];
            let shape = (arch as u64) << 32 | side as u64;
            let slot = *open.entry(shape).or_insert_with(|| {
                groups.push(Vec::with_capacity(lanes));
                groups.len() - 1
            });
            groups[slot].push(k);
            if groups[slot].len() == lanes {
                open.remove(&shape);
            }
        }
        // Each worker keeps one runner per architecture for the whole
        // build, so its boards and buffers serve every group it runs.
        let results = par_map_with(
            groups.len(),
            threads,
            <[Option<GroupRunner>; 4]>::default,
            |runners, g| {
                let grp = &groups[g];
                let arch = keys[grp[0]].0;
                let images: Vec<RgbImage> = grp
                    .iter()
                    .map(|&k| {
                        let (_, side, seed) = keys[k];
                        RgbImage::from_gray(&synthetic_scene(side, side, seed))
                    })
                    .collect();
                let runner = runners[arch as usize].get_or_insert_with(|| {
                    let artifacts = artifacts[arch as usize]
                        .as_ref()
                        .expect("flow built for every architecture in use");
                    GroupRunner::new(arch, &engine, artifacts, &cfg.app)
                });
                let g = runner.latencies(&images)?;
                g.total_ns
                    .into_iter()
                    .collect::<Result<Vec<f64>, AppError>>()
            },
        );
        let mut lat_ps = vec![None; keys.len()];
        for (grp, result) in groups.iter().zip(results) {
            for (&k, ns) in grp.iter().zip(result?) {
                lat_ps[k] = Some(ps_from_ns(ns));
            }
        }
        Ok(SimTables {
            key,
            est_ps,
            lat_ps,
        })
    }

    /// DSE estimate of job `idx` (an index into the built job stream).
    pub fn est(&self, idx: usize) -> u64 {
        self.est_ps[self.key[idx] as usize]
    }

    /// Simulated board latency of job `idx`. Every job a node can admit
    /// was simulated: the tables were filtered with a pool at least as
    /// wide as the node's and every other static-admission input equal.
    fn lat(&self, idx: usize) -> u64 {
        self.lat_ps[self.key[idx] as usize].expect("admitted jobs were simulated")
    }
}

struct BoardSlot<'a> {
    busy: bool,
    arch: Option<Arch>,
    busy_ps: u64,
    /// Jobs of the batch currently executing, with staggered finishes.
    /// Emptied, not dropped, when the batch ends, so the next batch
    /// reuses its capacity.
    running: Vec<InFlight<'a>>,
    /// When this board is a secondary member of a multi-board gang,
    /// the primary board's index. The gang's `InFlight` entries live on
    /// the primary; secondaries are busy but carry no payload and free
    /// when the primary's `batch_done` arrives.
    linked_to: Option<usize>,
}

struct InFlight<'a> {
    job: ActiveJob<'a>,
    finish_ps: u64,
}

/// Outcome of delivering one job to a node's admission control.
#[derive(Debug)]
pub enum Admit {
    /// Admitted into the tenant's queue (index returned).
    Queued(usize),
    /// Refused, with full bookkeeping (counters + event) applied.
    Rejected(AdmissionError),
    /// Probe result: the *only* obstacle is a full queue, and the
    /// caller asked to intercept that case (for shed-forwarding). No
    /// bookkeeping was applied — the job was neither counted nor
    /// rejected on this node.
    WouldOverflow,
}

/// One serve node: board pool + admission queues + policy, driven by the
/// cluster calendar. See the [module docs](self). Queued and in-flight
/// jobs borrow their specs from the job stream the node is driven over
/// (`'a`).
pub struct ServeNode<'a> {
    id: usize,
    cfg: ServeConfig,
    tables: Arc<SimTables>,
    tenant_ids: Vec<TenantId>,
    queues: Vec<TenantQueue<'a>>,
    boards: Vec<BoardSlot<'a>>,
    policy: Box<dyn SchedPolicy>,
    max_batch: usize,
    alive: bool,
    /// Jobs waiting across all tenant queues, and boards busy: kept at
    /// every queue and board update so the cluster's per-event load
    /// reads ([`ServeNode::queued_total`], [`ServeNode::idle_boards`])
    /// are O(1).
    queued: usize,
    busy: usize,
    /// Jobs routed to this node but still "on the wire" — a cluster
    /// uses this to keep work-stealing away from nodes that are about
    /// to receive work anyway.
    pub(crate) pending_incoming: u32,
    // --- report bookkeeping ------------------------------------------
    submitted: u64,
    submitted_per_tenant: Vec<u64>,
    rejected_per_tenant: Vec<u64>,
    rejections: RejectionCounts,
    admitted: u64,
    retries: u64,
    batches: u64,
    makespan_ps: u64,
    completed: u64,
    completed_late: u64,
    timed_out: u64,
    tenant_latencies: Vec<Vec<u64>>,
    tenant_missed: Vec<u64>,
    records: Vec<JobRecord>,
}

impl<'a> ServeNode<'a> {
    pub fn new(id: usize, cfg: ServeConfig, tables: Arc<SimTables>) -> Self {
        assert!(cfg.boards >= 1, "need at least one board");
        let tenant_ids: Vec<TenantId> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantId::new(i as u32, t))
            .collect();
        let queues: Vec<TenantQueue> = tenant_ids
            .iter()
            .map(|&t| TenantQueue::new(t, cfg.queue_depth))
            .collect();
        let boards: Vec<BoardSlot> = (0..cfg.boards)
            .map(|_| BoardSlot {
                busy: false,
                arch: None,
                busy_ps: 0,
                running: Vec::new(),
                linked_to: None,
            })
            .collect();
        let n = tenant_ids.len();
        ServeNode {
            id,
            policy: cfg.policy.make(),
            max_batch: cfg.max_batch.max(1),
            tables,
            tenant_ids,
            queues,
            boards,
            alive: true,
            queued: 0,
            busy: 0,
            pending_incoming: 0,
            submitted: 0,
            submitted_per_tenant: vec![0; n],
            rejected_per_tenant: vec![0; n],
            rejections: RejectionCounts::default(),
            admitted: 0,
            retries: 0,
            batches: 0,
            makespan_ps: 0,
            completed: 0,
            completed_late: 0,
            timed_out: 0,
            tenant_latencies: vec![Vec::new(); n],
            tenant_missed: vec![0; n],
            records: Vec::new(),
            cfg,
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// Total jobs waiting across all tenant queues.
    pub fn queued_total(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.queues.iter().map(|q| q.len()).sum::<usize>()
        );
        self.queued
    }

    pub fn idle_boards(&self) -> usize {
        debug_assert_eq!(self.busy, self.boards.iter().filter(|b| b.busy).count());
        self.boards.len() - self.busy
    }

    /// The tenant registry, in report order (shared by every node of a
    /// cluster: the builder checks they agree).
    pub(crate) fn tenant_ids(&self) -> &[TenantId] {
        &self.tenant_ids
    }

    /// Tenant `ti`'s completions here: each completed (on-time or late)
    /// job's latency, and the deadline misses (late finishes plus queue
    /// time-outs).
    pub(crate) fn tenant_completions(&self, ti: usize) -> (&[u64], u64) {
        (&self.tenant_latencies[ti], self.tenant_missed[ti])
    }

    /// The per-job records kept so far, in completion/expiry order
    /// (empty unless the config keeps records).
    pub(crate) fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Index of `tenant` in the registry (`None` for an unknown tenant).
    /// A handle whose index already points at its own registry entry
    /// resolves with one bounds check and one pointer compare; any other
    /// handle (unresolved, or indexed against a different tenant order)
    /// is looked up among the registry's few handles, by pointer too.
    pub(crate) fn resolve(&self, tenant: TenantId) -> Option<usize> {
        let i = tenant.index() as usize;
        if self.tenant_ids.get(i) == Some(&tenant) {
            return Some(i);
        }
        self.tenant_ids.iter().position(|&t| t == tenant)
    }

    /// Record one terminal outcome of `job` at `finish_ps`: the
    /// makespan, counters and tenant tallies, and the per-job record
    /// when the config keeps records.
    fn record_outcome(
        &mut self,
        job: &ActiveJob,
        board: Option<usize>,
        outcome: JobOutcome,
        finish_ps: u64,
        retries: u32,
    ) {
        let latency_ps = finish_ps - job.spec.submit_ps;
        self.makespan_ps = self.makespan_ps.max(finish_ps);
        match outcome {
            JobOutcome::Completed => self.completed += 1,
            JobOutcome::CompletedLate => self.completed_late += 1,
            JobOutcome::TimedOut => self.timed_out += 1,
        }
        if let Some(ti) = self.resolve(job.spec.tenant) {
            match outcome {
                JobOutcome::Completed => self.tenant_latencies[ti].push(latency_ps),
                JobOutcome::CompletedLate => {
                    self.tenant_latencies[ti].push(latency_ps);
                    self.tenant_missed[ti] += 1;
                }
                JobOutcome::TimedOut => self.tenant_missed[ti] += 1,
            }
        }
        if self.cfg.keep_records {
            self.records.push(JobRecord {
                id: job.spec.id,
                tenant: job.spec.tenant,
                arch: job.spec.arch.name().into(),
                side: job.spec.side,
                board,
                outcome,
                submit_ps: job.spec.submit_ps,
                finish_ps,
                latency_ps,
                retries,
            });
        }
    }

    /// Deliver one job to admission control at virtual time `now_ps`.
    ///
    /// With `probe_overflow` set, a job whose only obstacle is a full
    /// queue returns [`Admit::WouldOverflow`] *without any bookkeeping*
    /// so the cluster can forward it to a peer instead; every other
    /// verdict is fully applied (counters + events) before returning.
    /// `idx` is the job's index in the stream the node's [`SimTables`]
    /// were built from.
    pub fn admit(
        &mut self,
        job: &'a JobSpec,
        idx: usize,
        now_ps: u64,
        probe_overflow: bool,
        observer: &dyn FlowObserver,
    ) -> Admit {
        let e = self.tables.est(idx);
        let tenant = self.resolve(job.tenant);
        let verdict = static_admission(job, tenant, &self.cfg, e, now_ps).and_then(|ti| {
            if self.queues[ti].is_full() {
                Err(AdmissionError::QueueFull {
                    tenant: job.tenant.name().into(),
                    depth: self.queues[ti].depth,
                })
            } else {
                Ok(ti)
            }
        });
        if probe_overflow && matches!(verdict, Err(AdmissionError::QueueFull { .. })) {
            return Admit::WouldOverflow;
        }
        self.submitted += 1;
        if let Some(ti) = tenant {
            self.submitted_per_tenant[ti] += 1;
        }
        match verdict {
            Err(err) => {
                self.rejections.count(&err);
                if let Some(ti) = tenant {
                    self.rejected_per_tenant[ti] += 1;
                }
                observer.on_event(&FlowEvent::JobRejected {
                    job: job.id,
                    tenant: job.tenant,
                    node: self.id,
                    reason: err.kind().into(),
                });
                Admit::Rejected(err)
            }
            Ok(ti) => {
                self.admitted += 1;
                observer.on_event(&FlowEvent::JobAdmitted {
                    job: job.id,
                    tenant: job.tenant,
                    node: self.id,
                    est_ns: ns_from_ps(e),
                });
                self.queues[ti].push(ActiveJob {
                    spec: job,
                    est_ps: e,
                    lat_ps: self.tables.lat(idx),
                    attempts: 0,
                    excluded_board: None,
                    redispatches: 0,
                });
                self.queued += 1;
                Admit::Queued(ti)
            }
        }
    }

    /// Accept a job transferred from another node (work-stealing or
    /// failure re-dispatch) without re-running admission: the job was
    /// already admitted somewhere, and losing it to a second admission
    /// check would break the cluster's accounting invariant. Transfers
    /// bypass the depth bound (`front` additionally requeues at the
    /// head, the re-dispatch path).
    pub fn transfer_in(&mut self, mut job: ActiveJob<'a>, front: bool) {
        let ti = self
            .resolve(job.spec.tenant)
            .expect("cluster nodes share one tenant set");
        // Board indices are per-node; a fault exclusion from another
        // node's pool is meaningless here.
        job.excluded_board = None;
        if front {
            self.queues[ti].push_front(job);
        } else {
            self.queues[ti].push_unbounded(job);
        }
        self.queued += 1;
    }

    /// Give up the back of the longest queue (the victim side of
    /// work-stealing). Ties break toward the lowest tenant index.
    pub fn steal_out(&mut self) -> Option<ActiveJob<'a>> {
        let mut best: Option<(usize, usize)> = None; // (len, tenant idx)
        for (i, q) in self.queues.iter().enumerate() {
            if q.len() > best.map_or(0, |(l, _)| l) {
                best = Some((q.len(), i));
            }
        }
        let (_, ti) = best?;
        self.queued -= 1;
        self.queues[ti].pop_back()
    }

    /// Board `board` finished its batch: process completions and
    /// transient-fault retries.
    pub fn batch_done(&mut self, board: usize, observer: &dyn FlowObserver) {
        let mut done = std::mem::take(&mut self.boards[board].running);
        debug_assert!(self.boards[board].busy, "a batch ends on a busy board");
        self.boards[board].busy = false;
        self.boards[board].linked_to = None;
        self.busy -= 1;
        // Free the gang's secondary boards along with their primary.
        for b in &mut self.boards {
            if b.linked_to == Some(board) {
                b.busy = false;
                b.linked_to = None;
                self.busy -= 1;
            }
        }
        for inflight in done.drain(..) {
            let mut job = inflight.job;
            if job.spec.transient_fault && job.attempts <= self.cfg.max_retries {
                self.retries += 1;
                observer.on_event(&FlowEvent::JobRetried {
                    job: job.spec.id,
                    tenant: job.spec.tenant,
                    node: self.id,
                    from_board: board,
                    attempt: job.attempts,
                });
                job.excluded_board = Some(board);
                let ti = self
                    .resolve(job.spec.tenant)
                    .expect("admitted jobs have a tenant");
                self.queues[ti].push_front(job);
                self.queued += 1;
                continue;
            }
            let finish_ps = inflight.finish_ps;
            let outcome = match job.spec.deadline_ps {
                Some(d) if finish_ps > d => {
                    observer.on_event(&FlowEvent::JobDeadlineMissed {
                        job: job.spec.id,
                        tenant: job.spec.tenant,
                        node: self.id,
                        late_ps: finish_ps - d,
                    });
                    JobOutcome::CompletedLate
                }
                _ => JobOutcome::Completed,
            };
            observer.on_event(&FlowEvent::JobCompleted {
                job: job.spec.id,
                tenant: job.spec.tenant,
                node: self.id,
                board,
                latency_ps: finish_ps - job.spec.submit_ps,
            });
            self.record_outcome(&job, Some(board), outcome, finish_ps, job.attempts - 1);
        }
        self.boards[board].running = done;
    }

    /// Sweep queue-expiry deadline misses at `now_ps`.
    fn expire(&mut self, now_ps: u64, observer: &dyn FlowObserver) {
        for qi in 0..self.queues.len() {
            if !self.queues[qi].has_expired(now_ps) {
                continue;
            }
            let expired = self.queues[qi].drain_expired(now_ps);
            self.queued -= expired.len();
            for job in expired {
                let deadline = job.spec.deadline_ps.expect("expired ⇒ has deadline");
                observer.on_event(&FlowEvent::JobDeadlineMissed {
                    job: job.spec.id,
                    tenant: job.spec.tenant,
                    node: self.id,
                    late_ps: now_ps.saturating_sub(deadline),
                });
                self.record_outcome(&job, None, JobOutcome::TimedOut, deadline, job.attempts);
            }
        }
    }

    /// Dispatch as much as the pool allows at this instant. Every
    /// started batch is reported into `schedule` as
    /// `(board, done_ps)` — the driver must deliver a matching
    /// [`ServeNode::batch_done`] at that time.
    pub fn dispatch(
        &mut self,
        now_ps: u64,
        observer: &dyn FlowObserver,
        schedule: &mut Vec<(usize, u64)>,
    ) {
        loop {
            self.expire(now_ps, observer);
            if self.idle_boards() == 0 {
                break;
            }
            let Some(ti) = self.policy.select(&self.queues, now_ps) else {
                break;
            };
            let head = self.queues[ti]
                .head()
                .expect("policy selected a non-empty queue");
            let arch = head.spec.arch;
            let excluded = head.excluded_board;
            let gang = head.spec.shape.boards();
            if gang > 1 {
                if !self.dispatch_gang(ti, gang, now_ps, observer, schedule) {
                    break;
                }
                continue;
            }
            // An idle board the job may use: a retry avoids the board it
            // faulted on unless the pool has no other. Prefer one already
            // carrying this architecture's bitstream (no reconfig),
            // lowest index as tie-break.
            let lone = self.boards.len() == 1;
            let (mut first, mut warm) = (None, None);
            for (b, slot) in self.boards.iter().enumerate() {
                if slot.busy || (Some(b) == excluded && !lone) {
                    continue;
                }
                if slot.arch == Some(arch) {
                    warm = Some(b);
                    break;
                }
                first.get_or_insert(b);
            }
            let Some(board) = warm.or(first) else {
                // The only idle board is the one the job faulted on;
                // wait for a different one to free up.
                break;
            };

            // Pull the selected head straight into the board's batch,
            // then coalesce same-arch heads (global id order) into it.
            let running = &mut self.boards[board].running;
            debug_assert!(running.is_empty(), "an idle board runs nothing");
            let job = self.queues[ti].pop().expect("head exists");
            running.push(InFlight { job, finish_ps: 0 });
            self.policy.on_dispatch(ti);
            while running.len() < self.max_batch {
                let next = self
                    .queues
                    .iter()
                    .enumerate()
                    .filter_map(|(qi, q)| q.head().map(|j| (j, qi)))
                    .filter(|(j, _)| {
                        j.spec.arch == arch
                            && j.excluded_board != Some(board)
                            && !j.spec.shape.is_multi_board()
                    })
                    .map(|(j, qi)| (j.spec.id, qi))
                    .min();
                match next {
                    Some((_, qi)) => {
                        let job = self.queues[qi].pop().expect("head exists");
                        running.push(InFlight { job, finish_ps: 0 });
                    }
                    None => break,
                }
            }
            let batch_size = running.len();
            self.queued -= batch_size;

            let slot = &mut self.boards[board];
            let reconfig = if slot.arch == Some(arch) {
                0
            } else {
                self.cfg.reconfig_ps
            };
            slot.arch = Some(arch);
            let mut t = now_ps + reconfig + self.cfg.dispatch_overhead_ps;
            for inflight in &mut slot.running {
                inflight.job.attempts += 1;
                t += inflight.job.lat_ps;
                inflight.finish_ps = t;
                observer.on_event(&FlowEvent::JobDispatched {
                    job: inflight.job.spec.id,
                    tenant: inflight.job.spec.tenant,
                    node: self.id,
                    board,
                    batch: batch_size,
                    at_ps: now_ps,
                });
            }
            slot.busy = true;
            slot.busy_ps += t - now_ps;
            self.busy += 1;
            self.batches += 1;
            schedule.push((board, t));
        }
    }

    /// Start queue `ti`'s head, a multi-board gang of `gang` boards:
    /// claim that many idle boards atomically, lowest indices first, no
    /// batch coalescing — the boards are wired together for the job's
    /// whole service time. Returns `false` (and starts nothing) while
    /// too few boards are idle.
    fn dispatch_gang(
        &mut self,
        ti: usize,
        gang: usize,
        now_ps: u64,
        observer: &dyn FlowObserver,
        schedule: &mut Vec<(usize, u64)>,
    ) -> bool {
        let head = self.queues[ti].head().expect("caller checked the head");
        let (arch, excluded) = (head.spec.arch, head.excluded_board);
        let idle: Vec<usize> = (0..self.boards.len())
            .filter(|&b| !self.boards[b].busy)
            .collect();
        let mut candidates: Vec<usize> = idle
            .iter()
            .copied()
            .filter(|&b| Some(b) != excluded)
            .collect();
        if candidates.len() < gang && self.boards.len() == gang {
            // A retry has nowhere else to go in a pool exactly the
            // gang's size: allow the faulted board back in.
            candidates = idle;
        }
        if candidates.len() < gang {
            // Not enough idle boards yet; wait for completions.
            return false;
        }
        let selected = &candidates[..gang];
        let primary = selected[0];
        let reconfig = if selected.iter().all(|&b| self.boards[b].arch == Some(arch)) {
            0
        } else {
            self.cfg.reconfig_ps
        };
        let mut job = self.queues[ti].pop().expect("head exists");
        self.queued -= 1;
        self.policy.on_dispatch(ti);
        job.attempts += 1;
        let t = now_ps + reconfig + self.cfg.dispatch_overhead_ps + job.lat_ps;
        observer.on_event(&FlowEvent::JobDispatched {
            job: job.spec.id,
            tenant: job.spec.tenant,
            node: self.id,
            board: primary,
            batch: 1,
            at_ps: now_ps,
        });
        for &b in selected {
            self.boards[b].arch = Some(arch);
            self.boards[b].busy = true;
            self.boards[b].busy_ps += t - now_ps;
            self.boards[b].linked_to = (b != primary).then_some(primary);
        }
        self.busy += gang;
        self.boards[primary]
            .running
            .push(InFlight { job, finish_ps: t });
        self.batches += 1;
        schedule.push((primary, t));
        true
    }

    /// Kill the node at `now_ps`: mark it dead and hand back every
    /// orphaned job — queued (tenant order, front to back) then in
    /// flight (board order, dispatch order) — for the cluster to
    /// re-dispatch. Scheduled `BatchDone` events for this node become
    /// stale; drivers must skip completions on dead nodes.
    pub fn fail(&mut self, now_ps: u64, observer: &dyn FlowObserver) -> Vec<ActiveJob<'a>> {
        self.alive = false;
        let mut orphans: Vec<ActiveJob> = Vec::new();
        for q in &mut self.queues {
            orphans.extend(q.drain_all());
        }
        let queued = orphans.len();
        self.queued = 0;
        let mut in_flight = 0usize;
        for b in &mut self.boards {
            b.busy = false;
            b.linked_to = None;
            for inflight in b.running.drain(..) {
                in_flight += 1;
                orphans.push(inflight.job);
            }
        }
        self.busy = 0;
        observer.on_event(&FlowEvent::NodeFailed {
            node: self.id,
            at_ps: now_ps,
            queued,
            in_flight,
        });
        orphans
    }

    /// Fold the node's bookkeeping into a [`ServeReport`]: the node's
    /// local view (transfers in/out are accounted by the cluster, not
    /// the node). For a one-node cluster this is the session's report.
    pub fn into_report(self) -> ServeReport {
        debug_assert!(
            !self.alive || self.queues.iter().all(|q| q.is_empty()),
            "alive nodes drain at shutdown"
        );
        let tenants: Vec<TenantReport> = self
            .tenant_ids
            .iter()
            .zip(self.tenant_latencies)
            .enumerate()
            .map(|(i, (t, latencies))| {
                TenantReport::new(
                    *t,
                    self.submitted_per_tenant[i],
                    self.rejected_per_tenant[i],
                    self.tenant_missed[i],
                    latencies,
                )
            })
            .collect();
        let throughput_jobs_per_s =
            jobs_per_s(self.completed + self.completed_late, self.makespan_ps);
        let fairness = ServeReport::jain_fairness(&tenants);
        ServeReport {
            policy: self.cfg.policy,
            boards: self.cfg.boards,
            seed: self.cfg.seed,
            submitted: self.submitted,
            admitted: self.admitted,
            rejections: self.rejections,
            completed: self.completed,
            completed_late: self.completed_late,
            timed_out: self.timed_out,
            deadline_misses: self.completed_late + self.timed_out,
            retries: self.retries,
            batches: self.batches,
            makespan_ps: self.makespan_ps,
            throughput_jobs_per_s,
            fairness,
            tenants,
            board_busy_ps: self.boards.iter().map(|b| b.busy_ps).collect(),
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(side: u32) -> JobSpec {
        JobSpec {
            id: 0,
            tenant: "t".into(),
            arch: Arch::Arch4,
            side,
            image_seed: 0,
            submit_ps: 0,
            deadline_ps: None,
            transient_fault: false,
            graph: None,
            shape: Default::default(),
        }
    }

    #[test]
    fn admission_refuses_images_past_the_kernels_pixel_counters() {
        let cfg = ServeConfig::builder().tenants(["t"]).build();
        // Side 1449 needs about 10.5 MB, well inside the board's DRAM,
        // but has more pixels than `halfProbability`'s 21-bit counters
        // hold; side 1448 is the largest square that fits them.
        let big = square(1449);
        assert!(big.pixels() > u64::from(MAX_PIXELS));
        assert!(dram_footprint(big.pixels()) < cfg.app.dram_bytes as u64);
        assert_eq!(
            static_admission(&big, Some(0), &cfg, 0, 0),
            Err(AdmissionError::JobTooLarge {
                bytes: big.input_bytes(),
                capacity: Value::Rgb.bytes(u64::from(MAX_PIXELS)),
            })
        );
        assert_eq!(static_admission(&square(1448), Some(0), &cfg, 0, 0), Ok(0));
    }

    /// Shape-matched lane groups change how keys are batched, never what
    /// a key's latency is: over a stream mixing architectures and sides
    /// (and repeating some keys), every job reads the same estimate and
    /// simulated latency at every lane width.
    #[test]
    fn lane_width_never_changes_the_tables() {
        let jobs: Vec<JobSpec> = (0..14u64)
            .map(|i| JobSpec {
                id: i,
                arch: [Arch::Arch1, Arch::Arch4, Arch::Arch2][i as usize % 3],
                image_seed: i % 11,
                ..square([16, 17, 24][i as usize / 2 % 3])
            })
            .collect();
        let tables = |lanes: usize| {
            let mut cfg = ServeConfig::builder().tenants(["t"]).build();
            cfg.lanes = lanes;
            let t = SimTables::build(&jobs, &cfg, 2).unwrap();
            (0..jobs.len())
                .map(|i| (t.est(i), t.lat(i)))
                .collect::<Vec<_>>()
        };
        let solo = tables(1);
        assert_eq!(tables(4), solo);
        assert_eq!(tables(8), solo);
    }

    #[test]
    fn resolve_compares_handles_not_names() {
        let cfg = ServeConfig::builder().tenants(["a", "b"]).build();
        let node = ServeNode::new(
            0,
            cfg,
            Arc::new(SimTables::build(&[], &ServeConfig::default(), 1).unwrap()),
        );
        assert_eq!(node.resolve(TenantId::new(1, "b")), Some(1));
        // An index from another registry order, or none, still resolves.
        assert_eq!(node.resolve(TenantId::new(0, "b")), Some(1));
        assert_eq!(node.resolve(TenantId::unresolved("a")), Some(0));
        assert_eq!(node.resolve(TenantId::new(0, "c")), None);
        assert_eq!(node.resolve(TenantId::new(7, "c")), None);
    }
}
