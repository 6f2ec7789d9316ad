//! Job vocabulary of the serving runtime: what a tenant submits, why a
//! submission can be refused, and what the scheduler records about each
//! accepted job.

use accelsoc_apps::archs::Arch;
use accelsoc_apps::otsu::Value;
use accelsoc_htg::graph::Htg;
use accelsoc_observe::TenantId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How many boards a job occupies while it runs.
///
/// The common case is one board; a job whose task graph overflowed a
/// single device (see `accelsoc-partition`) dispatches as a *gang*: it
/// atomically claims `boards` idle boards, holds them for its whole
/// service time, and frees them together. Gang jobs never batch-coalesce
/// with other jobs — the boards are wired to each other for the
/// duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum JobShape {
    /// Ordinary job: one board, batchable.
    #[default]
    SingleBoard,
    /// Partitioned multi-board job: claims `boards` boards at once.
    MultiBoard { boards: usize },
}

impl JobShape {
    /// Boards the job occupies (≥ 1; a degenerate `MultiBoard { 0 }`
    /// still occupies one).
    pub fn boards(&self) -> usize {
        match self {
            JobShape::SingleBoard => 1,
            JobShape::MultiBoard { boards } => (*boards).max(1),
        }
    }

    pub fn is_multi_board(&self) -> bool {
        self.boards() > 1
    }
}

/// One accelerator request, as submitted by a tenant.
///
/// A job is an Otsu segmentation request: one synthetic image of
/// `side × side` pixels (seeded by `image_seed`) pushed through the
/// architecture `arch` on some board of the pool. All times are in
/// **virtual integer picoseconds** — the serving runtime never consults
/// a wall clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique, monotonically increasing id (doubles as the FIFO key).
    pub id: u64,
    /// Interned tenant identity — a `Copy` handle, so the scheduler can
    /// tag every event with it for free.
    pub tenant: TenantId,
    pub arch: Arch,
    /// Image side in pixels (the image is square).
    pub side: u32,
    /// Seed of the synthetic input scene.
    pub image_seed: u64,
    /// Virtual arrival time.
    pub submit_ps: u64,
    /// Absolute virtual deadline; `None` = best-effort.
    pub deadline_ps: Option<u64>,
    /// Seeded transient fault: the first execution of this job fails and
    /// the scheduler must retry it (on a different board when the pool
    /// allows).
    pub transient_fault: bool,
    /// Optional explicit task graph. When present it is validated at
    /// admission time with `accelsoc_htg::validate` — a graph whose
    /// stream links would deadlock (a cycle without buffering) is
    /// rejected with [`AdmissionError::InvalidGraph`] instead of failing
    /// mid-dispatch. Boxed: a graph is rare, and every queued or
    /// in-flight job carries this field.
    pub graph: Option<Box<Htg>>,
    /// Board footprint: single-board (default) or a partitioned
    /// multi-board gang.
    pub shape: JobShape,
}

impl JobSpec {
    pub fn pixels(&self) -> u64 {
        self.side as u64 * self.side as u64
    }

    /// Bytes of DRAM the job's input occupies (RGBA words).
    pub fn input_bytes(&self) -> u64 {
        Value::Rgb.bytes(self.pixels())
    }
}

/// Why a submission was refused at the admission queue.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The tenant's admission queue is at its bounded depth.
    QueueFull { tenant: String, depth: usize },
    /// The job's working set exceeds what any board in the pool can hold,
    /// or its RGB input has more pixels than the Otsu kernels' 21-bit
    /// pixel counters take (`apps::kernels::MAX_PIXELS`; `bytes` is then
    /// the input and `capacity` the largest input they take).
    JobTooLarge { bytes: u64, capacity: u64 },
    /// Even an idle board could not finish before the deadline.
    DeadlineImpossible {
        deadline_ps: u64,
        earliest_finish_ps: u64,
    },
    /// The job's task graph failed `accelsoc_htg::validate` — e.g. a
    /// stream-link cycle with no buffering, which would deadlock the
    /// board mid-dispatch.
    InvalidGraph { detail: String },
    /// The job names a tenant the runtime was not configured with.
    UnknownTenant(String),
    /// A multi-board job asked for more boards than the whole pool has —
    /// it could never dispatch, so it is refused up front.
    TooManyBoards { requested: usize, pool: usize },
}

impl AdmissionError {
    /// Stable label used in `JobRejected` events and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            AdmissionError::QueueFull { .. } => "QueueFull",
            AdmissionError::JobTooLarge { .. } => "JobTooLarge",
            AdmissionError::DeadlineImpossible { .. } => "DeadlineImpossible",
            AdmissionError::InvalidGraph { .. } => "InvalidGraph",
            AdmissionError::UnknownTenant(_) => "UnknownTenant",
            AdmissionError::TooManyBoards { .. } => "TooManyBoards",
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { tenant, depth } => {
                write!(f, "tenant `{tenant}` queue full (depth {depth})")
            }
            AdmissionError::JobTooLarge { bytes, capacity } => {
                write!(f, "job needs {bytes} B, boards hold {capacity} B")
            }
            AdmissionError::DeadlineImpossible {
                deadline_ps,
                earliest_finish_ps,
            } => write!(
                f,
                "deadline {deadline_ps} ps before earliest possible finish {earliest_finish_ps} ps"
            ),
            AdmissionError::InvalidGraph { detail } => {
                write!(f, "invalid task graph: {detail}")
            }
            AdmissionError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            AdmissionError::TooManyBoards { requested, pool } => {
                write!(f, "job wants {requested} boards, pool has {pool}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// How one admitted job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Finished within its deadline (or had none).
    Completed,
    /// Finished, but after its deadline.
    CompletedLate,
    /// Expired in the queue before it could be dispatched.
    TimedOut,
}

/// Per-job record in the [`crate::report::ServeReport`], in completion
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    pub id: u64,
    pub tenant: TenantId,
    pub arch: String,
    pub side: u32,
    pub board: Option<usize>,
    pub outcome: JobOutcome,
    pub submit_ps: u64,
    /// Virtual completion (or expiry) time.
    pub finish_ps: u64,
    /// `finish - submit`; queue wait plus service.
    pub latency_ps: u64,
    /// Executions beyond the first (transient-fault recoveries).
    pub retries: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobSpec {
        JobSpec {
            id: 7,
            tenant: "t0".into(),
            arch: Arch::Arch1,
            side: 32,
            image_seed: 1,
            submit_ps: 0,
            deadline_ps: None,
            transient_fault: false,
            graph: None,
            shape: JobShape::SingleBoard,
        }
    }

    #[test]
    fn sizes_derive_from_side() {
        let j = job();
        assert_eq!(j.pixels(), 1024);
        assert_eq!(j.input_bytes(), 4096);
    }

    #[test]
    fn shape_board_counts() {
        assert_eq!(JobShape::default(), JobShape::SingleBoard);
        assert_eq!(JobShape::SingleBoard.boards(), 1);
        assert!(!JobShape::SingleBoard.is_multi_board());
        assert_eq!(JobShape::MultiBoard { boards: 3 }.boards(), 3);
        assert!(JobShape::MultiBoard { boards: 3 }.is_multi_board());
        assert_eq!(JobShape::MultiBoard { boards: 0 }.boards(), 1);
    }

    #[test]
    fn shape_round_trips_through_json() {
        let mut j = job();
        j.shape = JobShape::MultiBoard { boards: 3 };
        let back: JobSpec = serde_json::from_value(&serde_json::to_value(&j)).unwrap();
        assert_eq!(back.shape, JobShape::MultiBoard { boards: 3 });
        let back: JobSpec = serde_json::from_value(&serde_json::to_value(&job())).unwrap();
        assert_eq!(back.shape, JobShape::SingleBoard);
    }

    #[test]
    fn admission_error_kinds_are_stable() {
        let errs: Vec<AdmissionError> = vec![
            AdmissionError::QueueFull {
                tenant: "a".into(),
                depth: 4,
            },
            AdmissionError::JobTooLarge {
                bytes: 10,
                capacity: 5,
            },
            AdmissionError::DeadlineImpossible {
                deadline_ps: 1,
                earliest_finish_ps: 2,
            },
            AdmissionError::InvalidGraph {
                detail: "cycle".into(),
            },
            AdmissionError::UnknownTenant("x".into()),
            AdmissionError::TooManyBoards {
                requested: 4,
                pool: 2,
            },
        ];
        let kinds: Vec<&str> = errs.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "QueueFull",
                "JobTooLarge",
                "DeadlineImpossible",
                "InvalidGraph",
                "UnknownTenant",
                "TooManyBoards"
            ]
        );
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
