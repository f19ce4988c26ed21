//! Per-AS IGP shortest paths (OSPF/IS-IS stand-in).
//!
//! Each AS's interior routing is an ECMP-aware shortest-path computation
//! over its intra-AS links with per-direction metrics. The control plane
//! runs one Dijkstra per member and keeps the distance matrix: FIB next
//! hops, LDP LSP construction and BGP hot-potato egress selection all
//! derive from it.

use crate::ids::{Asn, RouterId};
use crate::net::Network;
use std::collections::{BinaryHeap, HashMap};

/// "Unreachable" distance sentinel.
pub const INF: u32 = u32::MAX / 2;

/// The IGP view of one AS: members, the all-pairs distance matrix, and
/// the precomputed all-pairs ECMP first-hop sets in CSR layout.
///
/// Everything is indexed by *local* member index (position in
/// [`Self::members`]). [`Self::distance`] and [`Self::first_hops`] take
/// router ids and pay a [`Self::local`] hash lookup per call; table
/// builders that already hold local indices read [`Self::dist`] and
/// [`Self::first_hops_at`] directly.
#[derive(Debug, Clone)]
pub struct AsIgp {
    /// The AS.
    pub asn: Asn,
    /// Member routers, in [`Network::as_members`] order.
    pub members: Vec<RouterId>,
    /// Router id → local dense index.
    pub local: HashMap<RouterId, usize>,
    /// `dist[s][d]`: shortest metric from member `s` to member `d`
    /// (local indices).
    pub dist: Vec<Vec<u32>>,
    /// CSR offsets into [`Self::fh_data`]: pair `(s, d)` owns the span
    /// `fh_index[s * n + d] .. fh_index[s * n + d + 1]`.
    fh_index: Vec<u32>,
    /// Concatenated `(iface index, neighbor)` first-hop sets.
    fh_data: Vec<(u32, RouterId)>,
}

impl AsIgp {
    /// Computes the IGP view of `asn`.
    pub fn compute(net: &Network, asn: Asn) -> AsIgp {
        let members: Vec<RouterId> = net.as_members(asn).to_vec();
        let local: HashMap<RouterId, usize> =
            members.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let dist: Vec<Vec<u32>> = members
            .iter()
            .map(|&src| dijkstra(net, &members, &local, src))
            .collect();
        // Precompute every (s, d) ECMP first-hop set once, so per-hop
        // forwarding decisions borrow a slice instead of re-deriving
        // (and allocating) the set on every packet.
        let n = members.len();
        let mut fh_index = Vec::with_capacity(n * n + 1);
        let mut fh_data = Vec::new();
        fh_index.push(0u32);
        for (ls, &s) in members.iter().enumerate() {
            let router = net.router(s);
            for (ld, &total) in dist[ls].iter().enumerate() {
                if total < INF && ls != ld {
                    for (idx, iface) in router.ifaces.iter().enumerate() {
                        if net.link(iface.link).inter_as {
                            continue;
                        }
                        let Some(&ln) = local.get(&iface.peer) else {
                            continue;
                        };
                        let w = edge_metric(net, s, idx);
                        if w.saturating_add(dist[ln][ld]) == total {
                            fh_data.push((idx as u32, iface.peer));
                        }
                    }
                }
                fh_index.push(fh_data.len() as u32);
            }
        }
        AsIgp {
            asn,
            members,
            local,
            dist,
            fh_index,
            fh_data,
        }
    }

    /// Shortest metric from `s` to `d` (router ids; `INF` if either is
    /// not a member or unreachable).
    pub fn distance(&self, s: RouterId, d: RouterId) -> u32 {
        match (self.local.get(&s), self.local.get(&d)) {
            (Some(&ls), Some(&ld)) => self.dist[ls][ld],
            _ => INF,
        }
    }

    /// The ECMP first-hop set from `s` towards `d`: every
    /// `(iface index, neighbor)` of `s` lying on a shortest path.
    /// Empty when `d` is unreachable or `s == d`. Borrowed from the
    /// table precomputed by [`AsIgp::compute`]; no per-call allocation.
    pub fn first_hops(&self, s: RouterId, d: RouterId) -> &[(u32, RouterId)] {
        match (self.local.get(&s), self.local.get(&d)) {
            (Some(&ls), Some(&ld)) => self.first_hops_at(ls, ld),
            _ => &[],
        }
    }

    /// [`Self::first_hops`] by local member indices (`members[ls]`
    /// towards `members[ld]`): one CSR cell read, no hash lookup — the
    /// form per-AS table builders use once they hold local indices.
    ///
    /// # Panics
    /// Panics when either index is not below `members.len()`.
    #[inline]
    pub fn first_hops_at(&self, ls: usize, ld: usize) -> &[(u32, RouterId)] {
        let cell = ls * self.members.len() + ld;
        let lo = self.fh_index[cell] as usize;
        let hi = self.fh_index[cell + 1] as usize;
        &self.fh_data[lo..hi]
    }

    /// True when every member can reach every other member.
    pub fn connected(&self) -> bool {
        self.dist.iter().all(|row| row.iter().all(|&d| d < INF))
    }

    /// A member unreachable from the first member, if any.
    pub fn find_unreachable(&self) -> Option<RouterId> {
        let row = self.dist.first()?;
        row.iter().position(|&d| d >= INF).map(|i| self.members[i])
    }

    /// The raw first-hop CSR `(fh_index, fh_data)`, for the D5xx
    /// dense-plane verifier's well-formedness checks.
    pub fn first_hop_csr(&self) -> (&[u32], &[(u32, RouterId)]) {
        (&self.fh_index, &self.fh_data)
    }

    /// Mutable first-hop CSR offsets (test-only mutation hook).
    #[cfg(feature = "mutation")]
    pub fn fh_index_mut(&mut self) -> &mut Vec<u32> {
        &mut self.fh_index
    }
}

/// The IGP metric of `router`'s `iface_idx`-th interface in the outgoing
/// direction.
pub fn edge_metric(net: &Network, router: RouterId, iface_idx: usize) -> u32 {
    let iface = &net.router(router).ifaces[iface_idx];
    let link = net.link(iface.link);
    if link.a.router == router && link.a.iface == iface_idx as u32 {
        link.metric_ab
    } else {
        link.metric_ba
    }
}

fn dijkstra(
    net: &Network,
    members: &[RouterId],
    local: &HashMap<RouterId, usize>,
    src: RouterId,
) -> Vec<u32> {
    use std::cmp::Reverse;
    let mut dist = vec![INF; members.len()];
    let src_l = local[&src];
    dist[src_l] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, src_l)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        let router = net.router(members[u]);
        for (idx, iface) in router.ifaces.iter().enumerate() {
            if net.link(iface.link).inter_as {
                continue;
            }
            let Some(&v) = local.get(&iface.peer) else {
                continue;
            };
            let nd = d.saturating_add(edge_metric(net, members[u], idx));
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkOpts, NetworkBuilder};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    /// Square AS: a-b, b-d, a-c, c-d, plus an expensive direct a-d.
    fn square() -> (Network, [RouterId; 4]) {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let a = b.add_router("a", Asn(1), cfg.clone());
        let bb = b.add_router("b", Asn(1), cfg.clone());
        let c = b.add_router("c", Asn(1), cfg.clone());
        let d = b.add_router("d", Asn(1), cfg.clone());
        b.link(a, bb, LinkOpts::symmetric(10, 1.0));
        b.link(bb, d, LinkOpts::symmetric(10, 1.0));
        b.link(a, c, LinkOpts::symmetric(10, 1.0));
        b.link(c, d, LinkOpts::symmetric(10, 1.0));
        b.link(a, d, LinkOpts::symmetric(100, 1.0));
        (b.build().unwrap(), [a, bb, c, d])
    }

    #[test]
    fn shortest_distances() {
        let (net, [a, bb, c, d]) = square();
        let igp = AsIgp::compute(&net, Asn(1));
        assert_eq!(igp.distance(a, d), 20);
        assert_eq!(igp.distance(a, bb), 10);
        assert_eq!(igp.distance(a, c), 10);
        assert_eq!(igp.distance(d, a), 20);
        assert_eq!(igp.distance(a, a), 0);
        assert!(igp.connected());
        assert!(igp.find_unreachable().is_none());
    }

    #[test]
    fn ecmp_first_hops() {
        let (net, [a, bb, c, d]) = square();
        let igp = AsIgp::compute(&net, Asn(1));
        let mut fh: Vec<RouterId> = igp.first_hops(a, d).iter().map(|&(_, r)| r).collect();
        fh.sort();
        assert_eq!(fh, vec![bb, c]);
        // Direct expensive edge not part of the set.
        assert!(!fh.contains(&d));
        // Single path a->b.
        assert_eq!(igp.first_hops(a, bb).len(), 1);
        // Self: empty.
        assert!(igp.first_hops(a, a).is_empty());
    }

    #[test]
    fn asymmetric_metrics() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router("x", Asn(1), cfg.clone());
        let y = b.add_router("y", Asn(1), cfg.clone());
        let z = b.add_router("z", Asn(1), cfg.clone());
        // x->y cheap, y->x expensive; detour via z costs 2+2.
        b.link(
            x,
            y,
            LinkOpts {
                delay_ms: 1.0,
                metric_ab: 1,
                metric_ba: 10,
            },
        );
        b.link(x, z, LinkOpts::symmetric(2, 1.0));
        b.link(z, y, LinkOpts::symmetric(2, 1.0));
        let net = b.build().unwrap();
        let igp = AsIgp::compute(&net, Asn(1));
        assert_eq!(igp.distance(x, y), 1);
        assert_eq!(igp.distance(y, x), 4); // via z
        let fh = igp.first_hops(y, x);
        assert_eq!(fh.len(), 1);
        assert_eq!(fh[0].1, z);
    }

    #[test]
    fn disconnected_detected() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router("x", Asn(1), cfg.clone());
        let y = b.add_router("y", Asn(1), cfg.clone());
        b.link(x, y, LinkOpts::default());
        let lonely = b.add_router("lonely", Asn(1), cfg);
        let net = b.build().unwrap();
        let igp = AsIgp::compute(&net, Asn(1));
        assert!(!igp.connected());
        assert_eq!(igp.find_unreachable(), Some(lonely));
    }

    #[test]
    fn inter_as_links_ignored_by_igp() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let x = b.add_router("x", Asn(1), cfg.clone());
        let y = b.add_router("y", Asn(2), cfg);
        b.link(x, y, LinkOpts::default());
        let net = b.build().unwrap();
        let igp = AsIgp::compute(&net, Asn(1));
        assert_eq!(igp.members.len(), 1);
        assert!(igp.first_hops(x, y).is_empty());
    }
}
