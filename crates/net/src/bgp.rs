//! AS-level routing: Gao–Rexford valley-free route selection.
//!
//! The measurement techniques never inspect BGP state, but the *shape*
//! of inter-domain routing matters twice in the paper: external transit
//! traffic is label-switched towards the BGP next hop (the egress border
//! loopback), and hot-potato egress selection makes forward and return
//! paths asymmetric — the noise FRPLA must average out (§3.4, Fig 7).

use crate::error::NetError;
use crate::ids::Asn;
use crate::net::{Network, RelKind};
use std::collections::HashMap;

/// Preference class of an AS-level route, lower is better
/// (customer > peer > provider in operator revenue terms).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RouteClass {
    /// Learned from a customer (or the origin itself).
    Customer = 0,
    /// Learned from a settlement-free peer.
    Peer = 1,
    /// Learned from a provider.
    Provider = 2,
}

/// The AS-level routing table: for every (source, destination) AS
/// pair, the set of equally-best next-hop ASes.
///
/// The sets are interned: a thousand-AS Internet has over a million AS
/// pairs but only about a thousand distinct next-hop sets, so the table
/// is one dense matrix of set ids over one flat pool of sorted sets
/// instead of a heap allocation per pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp {
    /// Number of ASes: the side of [`Self::set_of`].
    n: usize,
    /// `set_of[src * n + dst]`: the id of the next-hop set from `src`
    /// towards `dst`. Set 0 is the empty set (unreachable, or
    /// `src == dst`).
    set_of: Vec<u32>,
    /// CSR offsets: set `k` is `set_pool[set_base[k]..set_base[k + 1]]`.
    set_base: Vec<u32>,
    /// Concatenated next-hop sets, each sorted ascending (dense AS
    /// indices).
    set_pool: Vec<u32>,
}

/// Neighbor view used during route computation.
struct AsAdj {
    /// `neighbors[x]`: `(y, class)` pairs where `class` is what `y`
    /// assigns to a route it learns from `x`.
    neighbors: Vec<Vec<(usize, RouteClass)>>,
}

fn build_adj(net: &Network) -> Result<AsAdj, NetError> {
    let n = net.as_list().len();
    let mut neighbors = vec![Vec::new(); n];
    let mut declared: HashMap<(usize, usize), ()> = HashMap::new();
    for rel in net.as_rels() {
        let (Some(a), Some(b)) = (net.as_index(rel.a), net.as_index(rel.b)) else {
            continue; // relationship about an AS with no routers
        };
        declared.insert((a.min(b), a.max(b)), ());
        match rel.kind {
            RelKind::ProviderCustomer => {
                // a provides transit to b. A route propagated a→b is
                // provider-learned at b; a route propagated b→a is
                // customer-learned at a.
                neighbors[a].push((b, RouteClass::Provider));
                neighbors[b].push((a, RouteClass::Customer));
            }
            RelKind::Peer => {
                neighbors[a].push((b, RouteClass::Peer));
                neighbors[b].push((a, RouteClass::Peer));
            }
        }
    }
    // Every physical inter-AS link must be covered by a relationship.
    for link in net.links() {
        if !link.inter_as {
            continue;
        }
        let asn_a = net.router(link.a.router).asn;
        let asn_b = net.router(link.b.router).asn;
        let ia = net
            .as_index(asn_a)
            .ok_or(NetError::UnregisteredAs { asn: asn_a })?;
        let ib = net
            .as_index(asn_b)
            .ok_or(NetError::UnregisteredAs { asn: asn_b })?;
        if !declared.contains_key(&(ia.min(ib), ia.max(ib))) {
            return Err(NetError::MissingAsRel { a: asn_a, b: asn_b });
        }
    }
    Ok(AsAdj { neighbors })
}

/// Route classes in preference order: the index is `class as usize`.
const CLASSES: [RouteClass; 3] = [RouteClass::Customer, RouteClass::Peer, RouteClass::Provider];

/// Reusable buffers of the per-destination Dijkstra, so computing all
/// destinations allocates once rather than once per AS pair.
struct DestScratch {
    best: Vec<Option<(RouteClass, u32)>>,
    nexts: Vec<Vec<usize>>,
    /// `buckets[class][hops]`: the ASes reached at that label of the
    /// `(class, hops)` lattice, waiting to export.
    buckets: [Vec<Vec<usize>>; 3],
}

impl DestScratch {
    fn new(n: usize) -> DestScratch {
        DestScratch {
            best: vec![None; n],
            nexts: vec![Vec::new(); n],
            buckets: Default::default(),
        }
    }

    /// Dijkstra over the `(class, hops)` lattice for one destination,
    /// leaving every AS's equally-best next hops in `nexts`.
    ///
    /// An AS `x` exports its route to neighbor `y` only when `y` is its
    /// customer, or when `x`'s own route is customer-learned / originated
    /// — the classic valley-free export rule.
    ///
    /// An export never lowers the class and always adds a hop, so every
    /// label it produces is strictly above the one being settled: the
    /// priority queue is a bucket per `(class, hops)`, drained in
    /// lexicographic order.
    fn run(&mut self, adj: &AsAdj, dst: usize) {
        self.best.fill(None);
        for hops in &mut self.nexts {
            hops.clear();
        }
        self.best[dst] = Some((RouteClass::Customer, 0));
        // One past the highest non-empty bucket of each class.
        let mut top = [0usize; 3];
        Self::enqueue(&mut self.buckets[0], &mut top[0], 0, dst);
        for (c, &class) in CLASSES.iter().enumerate() {
            let mut h = 0;
            while h < top[c] {
                let mut settled = std::mem::take(&mut self.buckets[c][h]);
                for &x in &settled {
                    if self.best[x] != Some((class, h as u32)) {
                        continue; // superseded
                    }
                    for &(y, class_at_y) in &adj.neighbors[x] {
                        // Export rule: x -> y allowed if y is x's customer,
                        // i.e. y would class the route "Provider"; otherwise
                        // only customer routes (and the origin's own) are
                        // exported.
                        let exporting_down = class_at_y == RouteClass::Provider;
                        if !exporting_down && class != RouteClass::Customer {
                            continue;
                        }
                        let cand = (class_at_y, h as u32 + 1);
                        match self.best[y] {
                            Some(cur) if cur < cand => {}
                            Some(cur) if cur == cand => {
                                if !self.nexts[y].contains(&x) {
                                    self.nexts[y].push(x);
                                }
                            }
                            _ => {
                                self.best[y] = Some(cand);
                                self.nexts[y].clear();
                                self.nexts[y].push(x);
                                let cy = class_at_y as usize;
                                Self::enqueue(&mut self.buckets[cy], &mut top[cy], h + 1, y);
                            }
                        }
                    }
                }
                settled.clear();
                self.buckets[c][h] = settled;
                h += 1;
            }
        }
    }

    /// Puts `y` in bucket `hops` of one class, growing the class's
    /// buckets (kept across destinations) and its `top` as needed.
    fn enqueue(buckets: &mut Vec<Vec<usize>>, top: &mut usize, hops: usize, y: usize) {
        if buckets.len() <= hops {
            buckets.resize_with(hops + 1, Vec::new);
        }
        buckets[hops].push(y);
        *top = (*top).max(hops + 1);
    }
}

/// Tag bit of a [`columns`] cell holding a multi-hop set: the low bits
/// are the set's index among its worker's sets.
const MULTI: u32 = 1 << 31;

/// Runs the per-destination Dijkstra for destinations `first..` — one
/// per `n`-cell column of `out` — and writes every source's next hops
/// compactly: `0` for none, `x + 1` for the singleton `{x}`, and
/// `MULTI | k` for a larger set, the `k`-th distinct one (sorted) this
/// call met, as returned.
fn columns(adj: &AsAdj, first: usize, out: &mut [u32]) -> Vec<Vec<u32>> {
    let n = adj.neighbors.len();
    let mut scratch = DestScratch::new(n);
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let mut index: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut key: Vec<u32> = Vec::new();
    for (d, col) in out.chunks_mut(n.max(1)).enumerate() {
        scratch.run(adj, first + d);
        for (cell, hops) in col.iter_mut().zip(&scratch.nexts) {
            *cell = match hops.as_slice() {
                [] => 0,
                &[x] => x as u32 + 1,
                many => {
                    key.clear();
                    key.extend(many.iter().map(|&x| x as u32));
                    key.sort_unstable();
                    let k = match index.get(key.as_slice()) {
                        Some(&k) => k,
                        None => {
                            let k = sets.len() as u32;
                            assert!(k < MULTI, "distinct next-hop sets fit 31 bits");
                            sets.push(key.clone());
                            index.insert(key.clone(), k);
                            k
                        }
                    };
                    MULTI | k
                }
            };
        }
    }
    sets
}

impl Bgp {
    /// Computes valley-free best routes for every (source, destination)
    /// AS pair, interning each distinct next-hop set once. Set ids are
    /// assigned in order of first appearance (destination-major), so
    /// the table is a pure function of the network. Serial; see
    /// [`Self::compute_with_jobs`].
    pub fn compute(net: &Network) -> Result<Bgp, NetError> {
        Bgp::compute_with_jobs(net, 1)
    }

    /// [`Self::compute`] with the per-destination Dijkstras split over
    /// at most `jobs` scoped worker threads, each taking a contiguous
    /// run of destinations and writing one compact column per
    /// destination (`columns`). One serial pass then interns the sets
    /// in destination order, so set ids and the pool are identical at
    /// every job count.
    pub fn compute_with_jobs(net: &Network, jobs: usize) -> Result<Bgp, NetError> {
        let adj = build_adj(net)?;
        let n = net.as_list().len();
        // `cells[dst * n + src]`: src's next hops towards dst, as
        // `columns` encodes them — destination-major, so each worker
        // owns a contiguous block.
        let mut cells = vec![0u32; n * n];
        let chunk = n.div_ceil(jobs.max(1)).max(1);
        let sets: Vec<Vec<Vec<u32>>> = if chunk >= n {
            vec![columns(&adj, 0, &mut cells)]
        } else {
            let adj = &adj;
            std::thread::scope(|scope| {
                let workers: Vec<_> = cells
                    .chunks_mut(chunk * n)
                    .enumerate()
                    .map(|(w, block)| scope.spawn(move || columns(adj, w * chunk, block)))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("BGP worker panicked"))
                    .collect()
            })
        };
        let mut bgp = Bgp {
            n,
            set_of: Vec::new(),
            set_base: vec![0, 0],
            set_pool: Vec::new(),
        };
        // Singletons — the vast majority — intern through a direct
        // table; a worker's larger sets through `global[worker][k]`,
        // filled from a map keyed by the sorted set the first time the
        // set appears. Each cell is overwritten with its id in place.
        let mut singleton = vec![0u32; n];
        let mut global: Vec<Vec<u32>> = sets.iter().map(|s| vec![0; s.len()]).collect();
        let mut multi: HashMap<&[u32], u32> = HashMap::new();
        for (dst, col) in cells.chunks_mut(n.max(1)).enumerate() {
            let w = dst / chunk;
            for cell in col {
                *cell = match *cell {
                    0 => 0,
                    v if v & MULTI == 0 => {
                        let x = (v - 1) as usize;
                        if singleton[x] == 0 {
                            singleton[x] = bgp.push_set(&[x as u32]);
                        }
                        singleton[x]
                    }
                    v => {
                        let k = (v & !MULTI) as usize;
                        if global[w][k] == 0 {
                            let set = sets[w][k].as_slice();
                            global[w][k] = *multi.entry(set).or_insert_with(|| bgp.push_set(set));
                        }
                        global[w][k]
                    }
                };
            }
        }
        // Transpose in place to the source-major `set_of` layout.
        for dst in 0..n {
            for src in dst + 1..n {
                cells.swap(dst * n + src, src * n + dst);
            }
        }
        bgp.set_of = cells;
        Ok(bgp)
    }

    /// Appends one sorted set to the pool, returning its id.
    fn push_set(&mut self, set: &[u32]) -> u32 {
        self.set_pool.extend_from_slice(set);
        self.set_base.push(self.set_pool.len() as u32);
        (self.set_base.len() - 2) as u32
    }

    /// The equally-best next hops of every AS towards `dst`, computed
    /// from scratch for that one destination: `sets[src]` in discovery
    /// order (empty ⇒ unreachable or `src == dst`). The reference the
    /// interned table is checked against.
    pub fn single_dest(net: &Network, dst: usize) -> Result<Vec<Vec<usize>>, NetError> {
        let adj = build_adj(net)?;
        let mut scratch = DestScratch::new(net.as_list().len());
        scratch.run(&adj, dst);
        Ok(scratch.nexts)
    }

    /// The id of the next-hop set from `src` towards `dst` (dense AS
    /// indices; 0 is the empty set).
    #[inline]
    pub fn set_id(&self, src: usize, dst: usize) -> u32 {
        self.set_of[src * self.n + dst]
    }

    /// The next-hop set with id `id`: dense AS indices, ascending.
    #[inline]
    pub fn set(&self, id: u32) -> &[u32] {
        let lo = self.set_base[id as usize] as usize;
        let hi = self.set_base[id as usize + 1] as usize;
        &self.set_pool[lo..hi]
    }

    /// Number of distinct next-hop sets, the empty set included.
    pub fn num_sets(&self) -> usize {
        self.set_base.len() - 1
    }

    /// The best next-hop AS indices from `src` towards `dst` (dense
    /// indices, ascending).
    pub fn next_hops(&self, dst: usize, src: usize) -> &[u32] {
        self.set(self.set_id(src, dst))
    }

    /// Whether `src` has any route to `dst`.
    pub fn reachable(&self, dst: usize, src: usize) -> bool {
        src == dst || self.set_id(src, dst) != 0
    }

    /// Convenience: resolves through [`Network::as_index`].
    pub fn next_hop_asns(&self, net: &Network, dst: Asn, src: Asn) -> Vec<Asn> {
        let (Some(d), Some(s)) = (net.as_index(dst), net.as_index(src)) else {
            return Vec::new();
        };
        self.next_hops(d, s)
            .iter()
            .map(|&i| net.as_list()[i as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkOpts, NetworkBuilder};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    /// AS1 --customer-of--> AS2 (transit) <--customer-- AS3;
    /// AS2 peers with AS4; AS4 provides AS5.
    fn net5() -> Network {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        let r4 = b.add_router("r4", Asn(4), cfg.clone());
        let r5 = b.add_router("r5", Asn(5), cfg.clone());
        b.link(r1, r2, LinkOpts::default());
        b.link(r2, r3, LinkOpts::default());
        b.link(r2, r4, LinkOpts::default());
        b.link(r4, r5, LinkOpts::default());
        b.as_rel(Asn(2), Asn(1), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(4), RelKind::Peer);
        b.as_rel(Asn(4), Asn(5), RelKind::ProviderCustomer);
        b.build().unwrap()
    }

    #[test]
    fn transit_through_provider() {
        let net = net5();
        let bgp = Bgp::compute(&net).unwrap();
        // AS1 reaches AS3 via its provider AS2.
        assert_eq!(bgp.next_hop_asns(&net, Asn(3), Asn(1)), vec![Asn(2)]);
        // AS3 reaches AS1 via AS2 as well.
        assert_eq!(bgp.next_hop_asns(&net, Asn(1), Asn(3)), vec![Asn(2)]);
    }

    #[test]
    fn peering_is_not_transit() {
        let net = net5();
        let bgp = Bgp::compute(&net).unwrap();
        // AS2 reaches AS5 through its peer AS4 (AS4 exports its customer).
        assert_eq!(bgp.next_hop_asns(&net, Asn(5), Asn(2)), vec![Asn(4)]);
        // And AS1 (customer of AS2) reaches AS5 via AS2.
        assert_eq!(bgp.next_hop_asns(&net, Asn(5), Asn(1)), vec![Asn(2)]);
        // AS5 reaches AS1: AS5 -> AS4 (provider) -> peer AS2 -> customer.
        assert_eq!(bgp.next_hop_asns(&net, Asn(1), Asn(5)), vec![Asn(4)]);
    }

    #[test]
    fn customer_routes_preferred_over_peer() {
        // AS2 has both a customer path and a peer path to AS6:
        // AS2 -> AS3 (customer) -> AS6 (customer of AS3)
        // AS2 -> AS4 (peer), AS4 -> AS6 (customer of AS4)
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        let r4 = b.add_router("r4", Asn(4), cfg.clone());
        let r6 = b.add_router("r6", Asn(6), cfg.clone());
        b.link(r2, r3, LinkOpts::default());
        b.link(r2, r4, LinkOpts::default());
        b.link(r3, r6, LinkOpts::default());
        b.link(r4, r6, LinkOpts::default());
        b.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(4), RelKind::Peer);
        b.as_rel(Asn(3), Asn(6), RelKind::ProviderCustomer);
        b.as_rel(Asn(4), Asn(6), RelKind::ProviderCustomer);
        let net = b.build().unwrap();
        let bgp = Bgp::compute(&net).unwrap();
        assert_eq!(bgp.next_hop_asns(&net, Asn(6), Asn(2)), vec![Asn(3)]);
    }

    #[test]
    fn ecmp_as_level_ties_kept() {
        // Two equally-good customer paths from AS1 to AS4.
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        let r4 = b.add_router("r4", Asn(4), cfg.clone());
        b.link(r1, r2, LinkOpts::default());
        b.link(r1, r3, LinkOpts::default());
        b.link(r2, r4, LinkOpts::default());
        b.link(r3, r4, LinkOpts::default());
        b.as_rel(Asn(1), Asn(2), RelKind::ProviderCustomer);
        b.as_rel(Asn(1), Asn(3), RelKind::ProviderCustomer);
        b.as_rel(Asn(2), Asn(4), RelKind::ProviderCustomer);
        b.as_rel(Asn(3), Asn(4), RelKind::ProviderCustomer);
        let net = b.build().unwrap();
        let bgp = Bgp::compute(&net).unwrap();
        let mut nh = bgp.next_hop_asns(&net, Asn(4), Asn(1));
        nh.sort();
        assert_eq!(nh, vec![Asn(2), Asn(3)]);
    }

    #[test]
    fn undeclared_inter_as_link_is_an_error() {
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg);
        b.link(r1, r2, LinkOpts::default());
        let net = b.build().unwrap();
        assert!(matches!(
            Bgp::compute(&net),
            Err(NetError::MissingAsRel { .. })
        ));
    }

    #[test]
    fn valley_paths_rejected() {
        // AS1 and AS3 are both customers of nobody, peers of AS2? No:
        // peer-peer-peer chains must not provide transit:
        // AS1 - peer - AS2 - peer - AS3: AS1 cannot reach AS3.
        let mut b = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        let r1 = b.add_router("r1", Asn(1), cfg.clone());
        let r2 = b.add_router("r2", Asn(2), cfg.clone());
        let r3 = b.add_router("r3", Asn(3), cfg.clone());
        b.link(r1, r2, LinkOpts::default());
        b.link(r2, r3, LinkOpts::default());
        b.as_rel(Asn(1), Asn(2), RelKind::Peer);
        b.as_rel(Asn(2), Asn(3), RelKind::Peer);
        let net = b.build().unwrap();
        let bgp = Bgp::compute(&net).unwrap();
        assert!(bgp.next_hop_asns(&net, Asn(3), Asn(1)).is_empty());
        // Direct peers still reach each other.
        assert_eq!(bgp.next_hop_asns(&net, Asn(2), Asn(1)), vec![Asn(2)]);
    }
}
