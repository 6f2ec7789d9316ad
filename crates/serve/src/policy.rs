//! Pluggable scheduling policies.
//!
//! A policy never touches wall-clock time or host-thread state: it sees
//! only the tenant queues and the current virtual time, and every
//! tie-break bottoms out at the global job id. That — plus the fact that
//! queues are `Vec`-indexed in fixed tenant order — is what makes a
//! whole serve run bit-reproducible.

use crate::queue::TenantQueue;
use serde::{value::Value, DeError, Deserialize, Serialize};
use std::fmt;

/// A scheduling discipline: given the per-tenant queues, pick which
/// tenant's **head** job should be dispatched next.
///
/// Only queue heads are eligible (per-tenant FIFO order is invariant
/// across policies). Returning `None` means "nothing dispatchable".
pub trait SchedPolicy {
    fn name(&self) -> &'static str;

    /// Index into `queues` of the tenant to serve next.
    fn select(&mut self, queues: &[TenantQueue<'_>], now_ps: u64) -> Option<usize>;

    /// Hook invoked after a job from `tenant` left its queue.
    fn on_dispatch(&mut self, _tenant: usize) {}
}

/// Globally-FIFO: the oldest admitted job (smallest id) across all
/// tenants goes first.
#[derive(Debug, Default)]
pub struct Fifo;

impl SchedPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, queues: &[TenantQueue<'_>], _now_ps: u64) -> Option<usize> {
        queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.head().map(|j| (j.spec.id, i)))
            .min()
            .map(|(_, i)| i)
    }
}

/// Round-robin over tenants: a rotating cursor gives each tenant with
/// queued work one dispatch per revolution, so a low-rate tenant cannot
/// be starved by a flood from a high-rate one. `cursor` is the next
/// tenant to consider.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl SchedPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn select(&mut self, queues: &[TenantQueue<'_>], _now_ps: u64) -> Option<usize> {
        if queues.is_empty() {
            return None;
        }
        (0..queues.len())
            .map(|k| (self.cursor + k) % queues.len())
            .find(|&i| !queues[i].is_empty())
    }

    fn on_dispatch(&mut self, tenant: usize) {
        self.cursor = tenant + 1;
    }
}

/// Shortest-job-first by the DSE latency estimate; ties broken by job id
/// so equal-size jobs keep FIFO order.
#[derive(Debug, Default)]
pub struct Sjf;

impl SchedPolicy for Sjf {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn select(&mut self, queues: &[TenantQueue<'_>], _now_ps: u64) -> Option<usize> {
        queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.head().map(|j| (j.est_ps, j.spec.id, i)))
            .min()
            .map(|(_, _, i)| i)
    }
}

/// The built-in policies, for CLI/bench/report selection.
///
/// One parsing/rendering path for every consumer: `FromStr` (the CLI
/// flag), `Display`/[`PolicyKind::as_str`] (tables, logs), and serde
/// (report JSON, where it encodes as its bare name string).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    Fifo,
    RoundRobin,
    Sjf,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Fifo, PolicyKind::RoundRobin, PolicyKind::Sjf];

    /// Canonical short name (`fifo` | `rr` | `sjf`) — stable in JSON
    /// reports and accepted back by `FromStr`.
    pub fn as_str(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::RoundRobin => "rr",
            PolicyKind::Sjf => "sjf",
        }
    }

    pub fn make(&self) -> Box<dyn SchedPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::RoundRobin => Box::new(RoundRobin::default()),
            PolicyKind::Sjf => Box::new(Sjf),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(PolicyKind::Fifo),
            "rr" | "round-robin" => Ok(PolicyKind::RoundRobin),
            "sjf" => Ok(PolicyKind::Sjf),
            other => Err(format!("unknown policy `{other}` (fifo|rr|sjf)")),
        }
    }
}

impl Serialize for PolicyKind {
    fn to_json_value(&self) -> Value {
        Value::String(self.as_str().into())
    }
}

impl Deserialize for PolicyKind {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => s.parse().map_err(DeError::new),
            other => Err(DeError::new(format!(
                "expected a policy name string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::queue::ActiveJob;
    use accelsoc_apps::archs::Arch;

    /// Jobs `(id, est_ps)` of tenant `name`, for a queue to borrow.
    fn specs(name: &str, jobs: &[(u64, u64)]) -> Vec<(JobSpec, u64)> {
        jobs.iter()
            .map(|&(id, est_ps)| {
                let spec = JobSpec {
                    id,
                    tenant: name.into(),
                    arch: Arch::Arch1,
                    side: 16,
                    image_seed: id,
                    submit_ps: 0,
                    deadline_ps: None,
                    transient_fault: false,
                    graph: None,
                    shape: Default::default(),
                };
                (spec, est_ps)
            })
            .collect()
    }

    fn queue<'a>(name: &str, jobs: &'a [(JobSpec, u64)]) -> TenantQueue<'a> {
        let mut q = TenantQueue::new(name, 16);
        for (spec, est_ps) in jobs {
            q.push(ActiveJob {
                spec,
                est_ps: *est_ps,
                lat_ps: *est_ps,
                attempts: 0,
                excluded_board: None,
                redispatches: 0,
            });
        }
        q
    }

    #[test]
    fn fifo_picks_globally_oldest() {
        let (a, b) = (specs("a", &[(5, 10)]), specs("b", &[(2, 99)]));
        let queues = vec![queue("a", &a), queue("b", &b)];
        assert_eq!(Fifo.select(&queues, 0), Some(1));
        assert_eq!(Fifo.select(&[queue("a", &[]), queue("b", &[])], 0), None);
    }

    #[test]
    fn round_robin_cycles_and_skips_empty() {
        let (a, c) = (specs("a", &[(1, 10), (4, 10)]), specs("c", &[(2, 10)]));
        let queues = vec![queue("a", &a), queue("b", &[]), queue("c", &c)];
        let mut rr = RoundRobin::default();
        let first = rr.select(&queues, 0).unwrap();
        assert_eq!(first, 0);
        rr.on_dispatch(first);
        // Tenant b is empty, so the cursor skips to c.
        assert_eq!(rr.select(&queues, 0), Some(2));
        rr.on_dispatch(2);
        assert_eq!(rr.select(&queues, 0), Some(0));
    }

    #[test]
    fn sjf_picks_smallest_estimate_then_id() {
        let (a, b) = (specs("a", &[(1, 500)]), specs("b", &[(2, 100)]));
        let queues = vec![queue("a", &a), queue("b", &b)];
        assert_eq!(Sjf.select(&queues, 0), Some(1));
        let (a, b) = (specs("a", &[(7, 100)]), specs("b", &[(3, 100)]));
        let tied = vec![queue("a", &a), queue("b", &b)];
        assert_eq!(Sjf.select(&tied, 0), Some(1), "tie falls back to id");
    }

    #[test]
    fn policy_kind_round_trips() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.as_str().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.make().name(), kind.as_str());
            assert_eq!(kind.to_string(), kind.as_str());
            // One rendering path: serde encodes the same bare string.
            assert_eq!(kind.to_json_value(), Value::String(kind.as_str().into()));
            assert_eq!(PolicyKind::from_json_value(&kind.to_json_value()), Ok(kind));
        }
        assert!("edf".parse::<PolicyKind>().is_err());
        assert!(PolicyKind::from_json_value(&Value::Null).is_err());
    }
}
