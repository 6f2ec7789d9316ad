//! Modeled inter-node network latency for the serving cluster.
//!
//! Like everything else in the runtime, the network is virtual-time
//! only: each hop kind is a fixed integer-picosecond cost added to the
//! delivery timestamp of the job crossing it. No queueing is modeled on
//! the fabric itself — contention shows up where it matters for the
//! serving story, in node queues and board pools.

use serde::{Deserialize, Serialize};

/// Per-hop latencies, in integer picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetModel {
    /// Client → serving node: paid by every job between submission and
    /// delivery at its routed home.
    pub ingress_ps: u64,
    /// Node → node shed-forward hop (full queue at the routed home).
    pub forward_ps: u64,
    /// Victim → thief transfer of a stolen job.
    pub steal_ps: u64,
    /// Failure re-dispatch hop of an orphaned job to a survivor.
    pub redispatch_ps: u64,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel {
            ingress_ps: 2_000_000,     // 2 us: client RPC into the pod
            forward_ps: 5_000_000,     // 5 us: peer hop incl. requeue
            steal_ps: 5_000_000,       // 5 us: same fabric as a forward
            redispatch_ps: 10_000_000, // 10 us: failure detection + hop
        }
    }
}

impl NetModel {
    /// A free network: every hop is instantaneous. A
    /// [`crate::ServeSession`] is a 1-node cluster over it.
    pub fn zero() -> Self {
        NetModel {
            ingress_ps: 0,
            forward_ps: 0,
            steal_ps: 0,
            redispatch_ps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_free_and_default_is_not() {
        let z = NetModel::zero();
        assert_eq!(
            (z.ingress_ps, z.forward_ps, z.steal_ps, z.redispatch_ps),
            (0, 0, 0, 0)
        );
        let d = NetModel::default();
        assert!(d.ingress_ps > 0 && d.forward_ps > 0 && d.steal_ps > 0 && d.redispatch_ps > 0);
    }
}
