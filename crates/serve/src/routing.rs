//! Consistent-hash tenant → node routing.
//!
//! Each node owns a fixed set of virtual points on a `u64` ring
//! (FNV-1a of `node:replica`, no `RandomState`, no wall clock — the
//! ring is a pure function of the node count). A tenant's home is the
//! first point clockwise of the hash of its name; with an alive mask,
//! routing walks further clockwise until it lands on a live node, so a
//! failure only remaps the tenants whose points resolved to the dead
//! node — everyone else keeps their home (the property the stability
//! test pins).

use accelsoc_observe::TenantId;

/// Virtual points per node: enough that tenant load spreads evenly
/// across small clusters, few enough that building the ring is free.
const VNODES: usize = 64;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer: raw FNV-1a of short, similar strings
    // ("node-0:1", "node-0:2", ...) clusters on the ring; the extra
    // avalanche spreads the points uniformly.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The ring: sorted `(point, node)` pairs.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 1, "a ring needs at least one node");
        let mut points = Vec::with_capacity(nodes * VNODES);
        for node in 0..nodes {
            for replica in 0..VNODES {
                points.push((fnv1a(format!("node-{node}:{replica}").as_bytes()), node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes }
    }

    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The tenant's home node, ignoring liveness.
    pub fn home(&self, tenant: &TenantId) -> usize {
        self.route_from(fnv1a(tenant.name().as_bytes()), |_| true)
            .expect("a ring has at least one node")
    }

    /// First alive node clockwise of the tenant's hash; `None` when the
    /// whole cluster is dead.
    pub fn route(&self, tenant: &TenantId, alive: &[bool]) -> Option<usize> {
        debug_assert_eq!(alive.len(), self.nodes);
        self.route_from(fnv1a(tenant.name().as_bytes()), |n| {
            alive.get(n).copied().unwrap_or(false)
        })
    }

    /// Re-route after a dead delivery: first alive node clockwise of
    /// `from`'s first point, excluding `from` itself.
    pub fn successor(&self, from: usize, alive: &[bool]) -> Option<usize> {
        let start = self
            .points
            .iter()
            .find(|&&(_, n)| n == from)
            .map(|&(p, _)| p)?;
        let idx = self.points.partition_point(|&(p, _)| p <= start);
        self.points[idx..]
            .iter()
            .chain(self.points[..idx].iter())
            .find(|&&(_, n)| n != from && alive.get(n).copied().unwrap_or(false))
            .map(|&(_, n)| n)
    }

    fn route_from(&self, hash: u64, alive: impl Fn(usize) -> bool) -> Option<usize> {
        let idx = self.points.partition_point(|&(p, _)| p < hash);
        self.points[idx..]
            .iter()
            .chain(self.points[..idx].iter())
            .find(|&&(_, n)| alive(n))
            .map(|&(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants(n: usize) -> Vec<TenantId> {
        (0..n)
            .map(|i| TenantId::from(format!("tenant-{i}")))
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(4);
        let alive = vec![true; 4];
        for t in tenants(100) {
            let a = ring.route(&t, &alive).unwrap();
            let b = ring.route(&t, &alive).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
            assert_eq!(ring.home(&t), a);
        }
    }

    #[test]
    fn load_spreads_across_nodes() {
        let ring = HashRing::new(4);
        let alive = vec![true; 4];
        let mut counts = [0usize; 4];
        for t in tenants(400) {
            counts[ring.route(&t, &alive).unwrap()] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(c > 0, "node {n} got no tenants: {counts:?}");
            assert!(c < 400 / 2, "node {n} got most tenants: {counts:?}");
        }
    }

    #[test]
    fn failure_only_remaps_the_dead_nodes_tenants() {
        let ring = HashRing::new(4);
        let alive = vec![true; 4];
        let mut degraded = alive.clone();
        degraded[2] = false;
        for t in tenants(200) {
            let before = ring.route(&t, &alive).unwrap();
            let after = ring.route(&t, &degraded).unwrap();
            if before != 2 {
                assert_eq!(before, after, "live homes must be stable");
            } else {
                assert_ne!(after, 2);
            }
        }
    }

    #[test]
    fn dead_cluster_routes_nowhere() {
        let ring = HashRing::new(3);
        let dead = vec![false; 3];
        assert_eq!(ring.route(&TenantId::from("a"), &dead), None);
        assert_eq!(ring.successor(0, &dead), None);
        let mut one = dead.clone();
        one[1] = true;
        assert_eq!(ring.successor(1, &one), None, "successor excludes self");
        assert_eq!(ring.successor(0, &one), Some(1));
    }
}
