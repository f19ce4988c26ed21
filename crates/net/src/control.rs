//! Control-plane assembly: FIBs, BGP external routes, and LFIBs.
//!
//! [`ControlPlane::build`] computes, from an immutable [`Network`]:
//!
//! 1. per-AS IGP distance matrices ([`AsIgp`]), in parallel across
//!    ASes (`build_with_jobs`) with a deterministic AS-ordered merge;
//! 2. per-router intra-AS FIBs (ECMP next-hop sets towards the nearest
//!    owner of each internal prefix), computed per AS in the same
//!    parallel phase and concatenated into one flat [`Fib`];
//! 3. external routes: hot-potato egress selection over the
//!    valley-free AS-level routes ([`Bgp`], one Dijkstra per
//!    destination AS, split over the same workers), computed once per
//!    `(source AS, next-hop set)` class inside the per-AS phase and
//!    stored as a per-AS-pair class id plus one short row per router;
//! 4. LDP bindings ([`LdpBindings`]) and per-router LFIBs implementing
//!    swap / PHP-pop / explicit-null-swap, stored as dense label
//!    windows (labels are small integers we allocate ourselves) with a
//!    sorted overflow for outliers (RSVP-TE labels, injected entries).

use crate::addr::Addr;
use crate::bgp::Bgp;
use crate::error::NetError;
use crate::ids::{Asn, Label, LinkId, RouterId};
use crate::igp::{AsIgp, INF};
use crate::ldp::{LabelValue, LdpBindings};
use crate::net::Network;
use crate::prefixes::AsPrefixes;
use crate::vendor::PoppingMode;
use std::collections::HashMap;

/// A route towards an external AS.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtRoute {
    /// No valley-free route exists.
    Unreachable,
    /// This router is the egress border: forward over its own eBGP
    /// interface.
    Direct {
        /// Interface index of the eBGP link to use.
        iface: u32,
    },
    /// Forward towards the chosen egress border's loopback (the BGP
    /// next hop); MPLS ingresses push the label bound to that loopback.
    ViaEgress {
        /// The selected egress border router.
        egress: RouterId,
    },
}

/// What an LFIB entry does with the top label.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LabelAction {
    /// Replace the top label (mid-LSP forwarding).
    Swap(Label),
    /// Remove the top label (Penultimate Hop Popping, or a downstream
    /// neighbor without a binding — Cisco "untagged").
    Pop,
    /// Replace the top label with explicit null (penultimate hop of a
    /// UHP LSP).
    SwapExplicitNull,
}

/// One ECMP branch of an LFIB entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LfibHop {
    /// Outgoing interface index.
    pub iface: u32,
    /// The next router.
    pub next: RouterId,
    /// The label operation on this branch.
    pub action: LabelAction,
}

/// An LFIB entry: incoming label → FEC and ECMP branches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LfibEntry {
    /// The FEC (prefix slot in the router's AS table).
    pub slot: u32,
    /// ECMP branches.
    pub nexthops: Vec<LfibHop>,
}

/// Labels further than this from a router's dense LDP run go to the
/// sorted overflow instead of growing the window (RSVP-TE labels live
/// at `500_000+`, far from the LDP runs that start near `16`).
const LFIB_WINDOW_SPAN: u32 = 4096;

/// The LFIB of one router: a dense label window (direct indexing for
/// the contiguous LDP run) plus a small sorted overflow for outliers.
#[derive(Debug, Clone, Default)]
struct RouterLfib {
    /// Label value of `window[0]`.
    lo: u32,
    /// `window[label - lo]`, `None` for gaps.
    window: Vec<Option<LfibEntry>>,
    /// Entries outside the window, sorted by label value.
    overflow: Vec<(u32, LfibEntry)>,
    /// Number of installed entries (window `Some`s + overflow).
    len: usize,
}

impl RouterLfib {
    #[inline]
    fn get(&self, label: Label) -> Option<&LfibEntry> {
        let v = label.0;
        if v >= self.lo {
            if let Some(Some(e)) = self.window.get((v - self.lo) as usize) {
                return Some(e);
            }
        }
        self.overflow
            .binary_search_by_key(&v, |&(l, _)| l)
            .ok()
            .map(|i| &self.overflow[i].1)
    }

    fn insert(&mut self, label: Label, entry: LfibEntry) {
        let v = label.0;
        if self.window.is_empty() {
            self.lo = v;
            self.window.push(Some(entry));
            self.len += 1;
            self.absorb_overflow();
            return;
        }
        let hi = self.lo + self.window.len() as u32;
        if v >= self.lo && v < hi {
            let slot = &mut self.window[(v - self.lo) as usize];
            if slot.is_none() {
                self.len += 1;
            }
            *slot = Some(entry);
            return;
        }
        if v >= hi && v - self.lo < LFIB_WINDOW_SPAN {
            self.window.resize_with((v - self.lo + 1) as usize, || None);
            self.window[(v - self.lo) as usize] = Some(entry);
            self.len += 1;
            self.absorb_overflow();
            return;
        }
        if v < self.lo && hi - v <= LFIB_WINDOW_SPAN {
            let shift = (self.lo - v) as usize;
            let mut grown: Vec<Option<LfibEntry>> = Vec::with_capacity(self.window.len() + shift);
            grown.resize_with(shift, || None);
            grown.append(&mut self.window);
            self.window = grown;
            self.lo = v;
            self.window[0] = Some(entry);
            self.len += 1;
            self.absorb_overflow();
            return;
        }
        match self.overflow.binary_search_by_key(&v, |&(l, _)| l) {
            Ok(i) => self.overflow[i] = (v, entry),
            Err(i) => {
                self.overflow.insert(i, (v, entry));
                self.len += 1;
            }
        }
    }

    /// Migrates overflow entries that the (re)grown window now covers,
    /// so every label has exactly one home.
    fn absorb_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        let lo = self.lo;
        let hi = self.lo + self.window.len() as u32;
        let mut kept = Vec::with_capacity(self.overflow.len());
        for (v, e) in self.overflow.drain(..) {
            if v >= lo && v < hi {
                self.window[(v - lo) as usize] = Some(e);
            } else {
                kept.push((v, e));
            }
        }
        self.overflow = kept;
    }

    fn iter(&self) -> impl Iterator<Item = (Label, &LfibEntry)> + '_ {
        let lo = self.lo;
        self.window
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| e.as_ref().map(|e| (Label(lo + i as u32), e)))
            .chain(self.overflow.iter().map(|(v, e)| (Label(*v), e)))
    }
}

/// A TE autoroute decision: `(out iface, first hop, label to push)`.
pub type TeRoute = (u32, RouterId, Option<Label>);

/// Bit flags of the per-router walk-table configuration byte — the
/// [`RouterConfig`](crate::router::RouterConfig) knobs the engine's hot
/// loop consults, condensed into one byte per router so a forwarding
/// step reads a single dense-table row instead of chasing the full
/// `Router` struct.
pub mod walk {
    /// MPLS/LDP forwarding enabled.
    pub const MPLS: u8 = 1 << 0;
    /// RFC 3443 `ttl-propagate` on.
    pub const TTL_PROPAGATE: u8 = 1 << 1;
    /// RFC 4950 label-stack quoting on.
    pub const RFC4950: u8 = 1 << 2;
    /// `min(IP-TTL, LSE-TTL)` applied when the last label pops.
    pub const MIN_ON_EXIT: u8 = 1 << 3;
    /// The router answers probes.
    pub const REPLIES: u8 = 1 << 4;
    /// The router is a measurement host.
    pub const IS_HOST: u8 = 1 << 5;
}

/// One flat interface record of the walk tables: everything the
/// engine's hot loop reads per wire crossing, inlined from
/// [`crate::router::Interface`] and [`crate::net::Link`] so a crossing
/// is one indexed load instead of three dependent pointer chases.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WalkIface {
    /// The interface's own address.
    pub addr: Addr,
    /// The peer's address on the shared subnet (the arrival address).
    pub peer_addr: Addr,
    /// The router on the other end.
    pub peer: RouterId,
    /// The link this interface terminates (flap schedules key on it).
    pub link: LinkId,
    /// One-way propagation delay of the link, in milliseconds.
    pub delay_ms: f64,
}

/// Addresses per page of the dense owner index (and the page
/// alignment): the low 12 bits of an address index into a page, the
/// high 20 bits select it.
pub const OWNER_PAGE_SIZE: usize = 1 << 12;

/// The computed control plane of a network.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    /// Per-AS internal prefix tables (dense AS index order).
    pub as_prefixes: Vec<AsPrefixes>,
    /// Per-AS IGP views.
    pub igp: Vec<AsIgp>,
    /// AS-level routes.
    pub bgp: Bgp,
    /// LDP advertisements.
    pub bindings: LdpBindings,
    /// Intra-AS FIBs of every router, as [`logical_fib`] computes them.
    fib: Fib,
    /// External-route class of every AS pair:
    /// `ext_class[src_as * ext_stride + dst_as]` indexes the row of
    /// every member of `src_as`. Class 0 is unreachable (and the
    /// `src_as == dst_as` diagonal).
    ext_class: Vec<u16>,
    /// Row stride of [`Self::ext_class`]: the number of ASes.
    ext_stride: usize,
    /// Classes per AS: the row width of each of its members.
    ext_width: Vec<u16>,
    /// Router → base index of its row in [`Self::ext_pool`]; length
    /// `num_routers + 1`.
    ext_row: Vec<u32>,
    /// Concatenated per-router rows: one route per class of the
    /// router's AS.
    ext_pool: Vec<ExtRoute>,
    /// Per-router dense LFIBs.
    lfib: Vec<RouterLfib>,
    /// Router → span of [`Self::te_routes`] headed there; length
    /// `num_routers + 1`. Almost every router heads no tunnel, so the
    /// miss path is two adjacent loads.
    te_heads: Vec<u32>,
    /// `(tail, (out iface, first hop, label to push))`, grouped by head
    /// router and sorted by tail within each group.
    te_routes: Vec<(RouterId, TeRoute)>,
    /// FIB slot of each router's loopback inside its own AS table
    /// (`u32::MAX` = none). The packet walk only ever longest-prefix
    /// matches addresses inside the AS that owns them, so these tables
    /// pay every trie walk once at build time.
    loopback_slot: Vec<u32>,
    /// Router → base index into [`Self::iface_slot`]; length
    /// `num_routers + 1`.
    iface_slot_base: Vec<u32>,
    /// FIB slot of each interface address inside its owner's own AS
    /// table (`u32::MAX` = none), in router-then-interface order.
    iface_slot: Vec<u32>,
    /// Dense AS index of each router's own AS (`u32::MAX` = the AS is
    /// unregistered, which `NetworkBuilder` never produces).
    router_as_idx: Vec<u32>,
    /// Level-1 page table of the dense address→owner index:
    /// `addr >> 12` → base of a [`OWNER_PAGE_SIZE`]-entry page in
    /// [`Self::owner_pool`] (`u32::MAX` = no address in that /20).
    /// Addresses come from the builder's contiguous pools, so the
    /// handful of live pages replace the per-leg owner hash with two
    /// dependent array loads.
    owner_page: Vec<u32>,
    /// Concatenated owner pages: `owner router id + 1`, `0` = unowned.
    owner_pool: Vec<u32>,
    /// Per-router configuration byte (see [`walk`]).
    walk_flags: Vec<u8>,
    /// Per-router vendor initial TTL for time-exceeded replies.
    walk_te_ttl: Vec<u8>,
    /// Per-router vendor initial TTL for echo replies.
    walk_er_ttl: Vec<u8>,
    /// Per-router loopback address.
    walk_loopback: Vec<Addr>,
    /// Flat interface records in router-then-interface order, indexed
    /// through [`Self::iface_slot_base`] (same CSR as `iface_slot`).
    walk_iface: Vec<WalkIface>,
}

/// One source AS's external routes, grouped by next-hop class.
struct AsExt {
    /// `class[dst_as]`: the class of every destination AS.
    class: Vec<u16>,
    /// Number of classes, class 0 (unreachable) included.
    width: u16,
    /// Class-major routes: class `c`'s route for the member with local
    /// index `i` is `routes[c * members + i]`.
    routes: Vec<ExtRoute>,
}

/// Phase-1 output for one AS: its IGP view, prefix table, FIB slice and
/// external routes.
type AsPhase = (AsIgp, AsPrefixes, AsFib, AsExt);

fn compute_as(net: &Network, bgp: &Bgp, as_idx: usize) -> Result<AsPhase, NetError> {
    let asn = net.as_list()[as_idx];
    let view = AsIgp::compute(net, asn);
    if let Some(unreachable) = view.find_unreachable() {
        return Err(NetError::DisconnectedAs { asn, unreachable });
    }
    let prefixes = AsPrefixes::build(net, asn);
    let fib = as_fib(&view, &prefixes);
    let ext = class_routes(net, &view, bgp, as_idx)?;
    Ok((view, prefixes, fib, ext))
}

/// The external routes of source AS `src_as`, computed once per class:
/// every destination AS with the same best next-hop set shares its
/// egress candidates and therefore every member's hot-potato choice.
/// The result equals [`hot_potato_route`] for every `(member,
/// destination)` pair (the D513 rule checks it).
fn class_routes(net: &Network, view: &AsIgp, bgp: &Bgp, src_as: usize) -> Result<AsExt, NetError> {
    let asn = net.as_list()[src_as];
    let members = &view.members;
    // The AS's eBGP interfaces, collected once with their peer AS:
    // `(border local index, border, iface, peer AS index)` in
    // `(border, iface)` order.
    let mut ebgp: Vec<(usize, RouterId, u32, u32)> = Vec::new();
    for (local, &b) in members.iter().enumerate() {
        for (idx, iface) in net.router(b).ifaces.iter().enumerate() {
            if !net.link(iface.link).inter_as {
                continue;
            }
            let peer_as = net.router(iface.peer).asn;
            let peer_idx = net
                .as_index(peer_as)
                .ok_or(NetError::UnregisteredAs { asn: peer_as })?;
            ebgp.push((local, b, idx as u32, peer_idx as u32));
        }
    }
    ebgp.sort_by_key(|&(_, b, i, _)| (b, i));

    let mut class = vec![0u16; net.as_list().len()];
    let mut routes = vec![ExtRoute::Unreachable; members.len()];
    let mut width: u16 = 1;
    let mut class_of_set = vec![u16::MAX; bgp.num_sets()];
    let mut candidates: Vec<(usize, RouterId, u32)> = Vec::new();
    for (dst_as, slot) in class.iter_mut().enumerate() {
        if dst_as == src_as {
            continue;
        }
        let set = bgp.set_id(src_as, dst_as) as usize;
        if set == 0 {
            continue;
        }
        if class_of_set[set] != u16::MAX {
            *slot = class_of_set[set];
            continue;
        }
        let best = bgp.set(set as u32);
        candidates.clear();
        candidates.extend(
            ebgp.iter()
                .filter(|e| best.contains(&e.3))
                .map(|&(local, b, iface, _)| (local, b, iface)),
        );
        let c = if candidates.is_empty() {
            0 // relationship without a physical link
        } else {
            let c = width;
            width = width
                .checked_add(1)
                .ok_or(NetError::TooManyRouteClasses { asn })?;
            for (local, &rid) in members.iter().enumerate() {
                let route = match candidates.iter().find(|&&(_, b, _)| b == rid) {
                    Some(&(_, _, iface)) => ExtRoute::Direct { iface },
                    None => {
                        // Nearest candidate border (hot potato).
                        let (d, egress) = candidates
                            .iter()
                            .map(|&(lb, b, _)| (view.dist[local][lb], b))
                            .min()
                            .expect("candidates is non-empty");
                        if d < INF {
                            ExtRoute::ViaEgress { egress }
                        } else {
                            ExtRoute::Unreachable
                        }
                    }
                };
                routes.push(route);
            }
            c
        };
        class_of_set[set] = c;
        *slot = c;
    }
    Ok(AsExt {
        class,
        width,
        routes,
    })
}

/// The *logical* external route of `router` towards the AS with dense
/// index `dst_as`, derived for that one pair: the BGP best next-hop
/// set, the AS's egress candidates towards it, and the hot-potato
/// choice among them. This is the per-pair loop the class tables of
/// [`ControlPlane::build`] replace, kept as the oracle the D513
/// verifier and the equivalence tests check [`ControlPlane::ext_route`]
/// against; it shares no code with the per-class build.
pub fn hot_potato_route(
    net: &Network,
    igp: &[AsIgp],
    bgp: &Bgp,
    router: RouterId,
    dst_as: usize,
) -> ExtRoute {
    let asn = net.router(router).asn;
    let Some(src_as) = net.as_index(asn) else {
        return ExtRoute::Unreachable;
    };
    if src_as == dst_as {
        return ExtRoute::Unreachable;
    }
    let best = bgp.next_hops(dst_as, src_as);
    if best.is_empty() {
        return ExtRoute::Unreachable;
    }
    hot_potato_choice(&igp[src_as], router, &hot_potato_candidates(net, asn, best))
}

/// Every `(border, eBGP interface)` of `asn` whose peer AS is in `best`
/// (dense AS indices), sorted: the egress candidates hot-potato routing
/// chooses among. The destination-dependent half of
/// [`hot_potato_route`].
pub fn hot_potato_candidates(net: &Network, asn: Asn, best: &[u32]) -> Vec<(RouterId, u32)> {
    let mut candidates = Vec::new();
    for b in net.borders(asn) {
        for (idx, iface) in net.router(b).ifaces.iter().enumerate() {
            if !net.link(iface.link).inter_as {
                continue;
            }
            let peer = net.as_index(net.router(iface.peer).asn);
            if peer.is_some_and(|p| best.contains(&(p as u32))) {
                candidates.push((b, idx as u32));
            }
        }
    }
    candidates.sort_unstable();
    candidates
}

/// The hot-potato choice of `router` among its AS's egress
/// `candidates` ([`hot_potato_candidates`]): its own first eBGP
/// interface when it is a candidate border, else the IGP-nearest
/// candidate border (lowest router id on ties). The router-dependent
/// half of [`hot_potato_route`].
pub fn hot_potato_choice(
    view: &AsIgp,
    router: RouterId,
    candidates: &[(RouterId, u32)],
) -> ExtRoute {
    if let Some(&(_, iface)) = candidates.iter().find(|&&(b, _)| b == router) {
        return ExtRoute::Direct { iface };
    }
    match candidates
        .iter()
        .map(|&(b, _)| (view.distance(router, b), b))
        .min()
    {
        Some((d, egress)) if d < INF => ExtRoute::ViaEgress { egress },
        _ => ExtRoute::Unreachable,
    }
}

/// The intra-AS FIB of every router in one flat CSR: a router's row
/// holds one span per prefix slot of its own AS table, and each span is
/// that slot's ECMP next-hop set `(iface index, next router)`, sorted by
/// `(next, iface)` — empty for connected or unreachable prefixes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fib {
    /// Router → base index into `spans`; length `num_routers + 1`.
    base: Vec<u32>,
    /// `(start, len)` into `pool` per `(router, slot)`.
    spans: Vec<(u32, u32)>,
    /// Concatenated ECMP next-hop sets.
    pool: Vec<(u32, RouterId)>,
}

impl Fib {
    /// Number of slots in `router`'s row: its AS's prefix count.
    pub fn slots(&self, router: RouterId) -> usize {
        (self.base[router.index() + 1] - self.base[router.index()]) as usize
    }

    /// The ECMP next-hop set of `router` for prefix `slot`; empty when
    /// the router owns the prefix, cannot reach it, or the slot is past
    /// its row.
    #[inline]
    pub fn entry(&self, router: RouterId, slot: u32) -> &[(u32, RouterId)] {
        if slot as usize >= self.slots(router) {
            return &[];
        }
        let (start, len) = self.spans[self.base[router.index()] as usize + slot as usize];
        &self.pool[start as usize..(start + len) as usize]
    }

    /// Concatenates per-AS slices into router order. `member_of[r]` is
    /// router `r`'s `(dense AS index, local member index)`; a router
    /// whose AS has no slice gets an empty row.
    fn assemble(member_of: &[(usize, usize)], parts: &[AsFib]) -> Fib {
        let mut base = Vec::with_capacity(member_of.len() + 1);
        let mut spans = Vec::with_capacity(parts.iter().map(|p| p.spans.len()).sum());
        let mut pool = Vec::with_capacity(parts.iter().map(|p| p.pool.len()).sum());
        for &(as_idx, local) in member_of {
            base.push(spans.len() as u32);
            let Some(part) = parts.get(as_idx) else {
                continue;
            };
            let row = &part.spans[local * part.slots..(local + 1) * part.slots];
            let (Some(first), Some(last)) = (row.first(), row.last()) else {
                continue;
            };
            // A member's spans tile one contiguous run of its AS's pool.
            let (lo, hi) = (first.0, last.0 + last.1);
            let at = pool.len() as u32;
            spans.extend(row.iter().map(|&(start, len)| (start - lo + at, len)));
            pool.extend_from_slice(&part.pool[lo as usize..hi as usize]);
        }
        base.push(spans.len() as u32);
        Fib { base, spans, pool }
    }
}

/// One AS's slice of the [`Fib`], in local member order: member `i`'s
/// span for `slot` is `spans[i * slots + slot]`, into `pool`.
struct AsFib {
    /// Prefix slots of the AS table: the row width of every member.
    slots: usize,
    spans: Vec<(u32, u32)>,
    pool: Vec<(u32, RouterId)>,
}

/// The FIB rows of every member of `view`'s AS. Each slot's owners are
/// resolved to local indices once; the per-`(member, slot)` work then
/// reads the distance row and first-hop cells by local index and
/// appends straight into the pool, without a hash lookup or an
/// allocation.
fn as_fib(view: &AsIgp, ap: &AsPrefixes) -> AsFib {
    let slots = ap.len();
    let mut owner_base = Vec::with_capacity(slots + 1);
    let mut owners: Vec<usize> = Vec::new();
    owner_base.push(0);
    for slot in 0..slots as u32 {
        owners.extend(ap.owners(slot).iter().filter_map(|o| view.local.get(o)));
        owner_base.push(owners.len());
    }
    let mut spans = Vec::with_capacity(view.members.len() * slots);
    let mut pool: Vec<(u32, RouterId)> = Vec::new();
    for (ls, dist) in view.dist.iter().enumerate() {
        for w in owner_base.windows(2) {
            let start = pool.len();
            let own = &owners[w[0]..w[1]];
            // Owners route the prefix as connected; the engine handles it.
            if !own.contains(&ls) {
                let best = own.iter().map(|&o| dist[o]).min().unwrap_or(INF);
                if best < INF {
                    for &o in own.iter().filter(|&&o| dist[o] == best) {
                        for &h in view.first_hops_at(ls, o) {
                            if !pool[start..].contains(&h) {
                                pool.push(h);
                            }
                        }
                    }
                    pool[start..].sort_unstable_by_key(|&(i, r)| (r, i));
                }
            }
            spans.push((start as u32, (pool.len() - start) as u32));
        }
    }
    AsFib { slots, spans, pool }
}

/// `(dense AS index, local member index)` of every router, from the
/// member lists of the per-AS IGP views; `(usize::MAX, 0)` for a router
/// no view lists.
fn member_index(num_routers: usize, igp: &[AsIgp]) -> Vec<(usize, usize)> {
    let mut member_of = vec![(usize::MAX, 0usize); num_routers];
    for (as_idx, view) in igp.iter().enumerate() {
        for (local, &rid) in view.members.iter().enumerate() {
            member_of[rid.index()] = (as_idx, local);
        }
    }
    member_of
}

/// The *logical* intra-AS FIB: for every router, the per-slot ECMP
/// next-hop set towards the nearest owner(s) of each internal prefix of
/// its own AS — the union of the IGP first hops towards every owner at
/// the minimum distance — empty for connected or unreachable prefixes.
///
/// [`ControlPlane::build`] runs the same per-AS computation on its
/// workers and stores the result as its FIB; the `wormhole-lint` D508
/// rule re-derives it here, serially, from the plane's IGP views and
/// prefix tables and compares it row by row with the stored one, and
/// D507 derives the expected LDP LFIB from it.
pub fn logical_fib(net: &Network, igp: &[AsIgp], as_prefixes: &[AsPrefixes]) -> Fib {
    let parts: Vec<AsFib> = igp
        .iter()
        .zip(as_prefixes)
        .map(|(view, ap)| as_fib(view, ap))
        .collect();
    Fib::assemble(&member_index(net.num_routers(), igp), &parts)
}

/// The LFIB branches a router installs for FEC `slot` given its ECMP
/// next-hop set `hops`: each branch's label operation follows the
/// downstream neighbor's LDP advertisement — swap to its real label,
/// pop on implicit null or a missing binding (Cisco "untagged"),
/// swap-to-explicit-null on UHP. Shared by [`ControlPlane::build`] and
/// the D5xx verifier.
pub fn ldp_lfib_hops(bindings: &LdpBindings, slot: u32, hops: &[(u32, RouterId)]) -> Vec<LfibHop> {
    hops.iter()
        .map(|&hop| ldp_lfib_hop(bindings, slot, hop))
        .collect()
}

/// One branch of [`ldp_lfib_hops`]: the label operation towards `next`
/// for FEC `slot`, per `next`'s LDP advertisement.
pub fn ldp_lfib_hop(bindings: &LdpBindings, slot: u32, (iface, next): (u32, RouterId)) -> LfibHop {
    let action = match bindings.advertised(next, slot) {
        Some(LabelValue::Real(out_label)) => LabelAction::Swap(out_label),
        Some(LabelValue::ImplicitNull) => LabelAction::Pop,
        Some(LabelValue::ExplicitNull) => LabelAction::SwapExplicitNull,
        // Downstream has no binding: "untagged".
        None => LabelAction::Pop,
    };
    LfibHop {
        iface,
        next,
        action,
    }
}

/// The label program of every RSVP-TE tunnel: the transit LFIB entries
/// to install (in tunnel-then-path order) and the per-`(head, tail)`
/// autoroute decisions sorted by `(head, tail)` (a later tunnel on the
/// same pair wins, as in [`ControlPlane::build`]). Fails when a tunnel
/// path is invalid or lacks a physical adjacency.
#[allow(clippy::type_complexity)] // the two halves of the TE program
pub fn te_program(
    net: &Network,
) -> Result<
    (
        Vec<(RouterId, Label, LfibEntry)>,
        Vec<((RouterId, RouterId), TeRoute)>,
    ),
    NetError,
> {
    let mut transit = Vec::new();
    let mut te_autoroute = HashMap::new();
    for t in net.te_tunnels() {
        t.validate(net)
            .map_err(|reason| NetError::InvalidTeTunnel { reason })?;
        for i in 1..t.path.len().saturating_sub(1) {
            let cur = t.path[i];
            let next = t.path[i + 1];
            let iface = net
                .router(cur)
                .iface_to(next)
                .ok_or(NetError::MissingAdjacency {
                    from: cur,
                    to: next,
                })? as u32;
            let action = if i + 1 == t.path.len() - 1 {
                match t.popping {
                    PoppingMode::Php => LabelAction::Pop,
                    PoppingMode::Uhp => LabelAction::SwapExplicitNull,
                }
            } else {
                LabelAction::Swap(t.label_into(i + 1))
            };
            transit.push((
                cur,
                t.label_into(i),
                LfibEntry {
                    slot: u32::MAX, // TE entries carry no LDP FEC
                    nexthops: vec![LfibHop {
                        iface,
                        next,
                        action,
                    }],
                },
            ));
        }
        let first = t.path[1];
        let head = t.head();
        let iface = net
            .router(head)
            .iface_to(first)
            .ok_or(NetError::MissingAdjacency {
                from: head,
                to: first,
            })? as u32;
        let push = if t.path.len() == 2 {
            match t.popping {
                PoppingMode::Php => None, // one-hop LSP degenerates
                PoppingMode::Uhp => Some(Label::EXPLICIT_NULL),
            }
        } else {
            Some(t.label_into(1))
        };
        te_autoroute.insert((t.head(), t.tail()), (iface, first, push));
    }
    let mut te_list: Vec<((RouterId, RouterId), TeRoute)> = te_autoroute.into_iter().collect();
    te_list.sort_by_key(|&((h, t), _)| (h, t));
    Ok((transit, te_list))
}

impl ControlPlane {
    /// Computes the full control plane, using every available core for
    /// the per-AS phase. Fails when an AS is internally disconnected or
    /// an inter-AS link lacks a declared relationship.
    pub fn build(net: &Network) -> Result<ControlPlane, NetError> {
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ControlPlane::build_with_jobs(net, jobs)
    }

    /// Computes the full control plane with at most `jobs` worker
    /// threads for BGP (per destination AS, [`Bgp::compute_with_jobs`])
    /// and for the per-AS phase: IGP (one Dijkstra per AS member),
    /// prefix table, FIB rows and the AS's external-route classes. The
    /// result is byte-identical at any job count: workers fill disjoint
    /// AS-index slots and the merge walks them in AS order, so the first
    /// error by AS index wins deterministically.
    pub fn build_with_jobs(net: &Network, jobs: usize) -> Result<ControlPlane, NetError> {
        let bgp = Bgp::compute_with_jobs(net, jobs)?;
        let as_list = net.as_list();
        let n_as = as_list.len();
        let jobs = jobs.max(1).min(n_as.max(1));

        let mut slots: Vec<Option<Result<AsPhase, NetError>>> = Vec::new();
        slots.resize_with(n_as, || None);
        if jobs <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(compute_as(net, &bgp, i));
            }
        } else {
            let chunk = n_as.div_ceil(jobs);
            let bgp = &bgp;
            std::thread::scope(|scope| {
                for (ci, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                    let base = ci * chunk;
                    scope.spawn(move || {
                        for (j, slot) in chunk_slots.iter_mut().enumerate() {
                            *slot = Some(compute_as(net, bgp, base + j));
                        }
                    });
                }
            });
        }
        let mut as_prefixes = Vec::with_capacity(n_as);
        let mut igp = Vec::with_capacity(n_as);
        let mut fibs = Vec::with_capacity(n_as);
        let mut exts = Vec::with_capacity(n_as);
        for slot in slots.into_iter().flatten() {
            let (view, prefixes, fib, ext) = slot?;
            igp.push(view);
            as_prefixes.push(prefixes);
            fibs.push(fib);
            exts.push(ext);
        }
        let bindings = LdpBindings::compute(net, &as_prefixes);

        // Intra-AS FIBs: the per-AS slices concatenated in router order.
        let member_of = member_index(net.num_routers(), &igp);
        let fib = Fib::assemble(&member_of, &fibs);
        drop(fibs);

        // External-route class tables: the per-AS class ids side by
        // side, then each router's row (its AS's route for it in every
        // class) in router order.
        let mut ext_class = Vec::with_capacity(n_as * n_as);
        let mut ext_width = Vec::with_capacity(n_as);
        for ext in &exts {
            ext_class.extend_from_slice(&ext.class);
            ext_width.push(ext.width);
        }
        let mut ext_row = Vec::with_capacity(net.num_routers() + 1);
        let mut ext_pool = Vec::new();
        for &(as_idx, local) in &member_of {
            ext_row.push(ext_pool.len() as u32);
            if let Some(ext) = exts.get(as_idx) {
                let m = igp[as_idx].members.len();
                ext_pool.extend((0..usize::from(ext.width)).map(|c| ext.routes[c * m + local]));
            }
        }
        ext_row.push(ext_pool.len() as u32);
        drop(exts);

        // LFIBs: one entry per real incoming label.
        let mut lfib: Vec<RouterLfib> = vec![RouterLfib::default(); net.num_routers()];
        for ap in as_prefixes.iter() {
            for &rid in net.as_members(ap.asn) {
                let advertised: Vec<(u32, LabelValue)> = bindings.advertisements(rid).collect();
                for (slot, value) in advertised {
                    let LabelValue::Real(in_label) = value else {
                        continue;
                    };
                    let hops = ldp_lfib_hops(&bindings, slot, fib.entry(rid, slot));
                    if !hops.is_empty() {
                        lfib[rid.index()].insert(
                            in_label,
                            LfibEntry {
                                slot,
                                nexthops: hops,
                            },
                        );
                    }
                }
            }
        }

        // RSVP-TE tunnels: validate paths, install the label chain at
        // every transit LSR, and flatten the heads' autoroute decisions
        // into a CSR table grouped by head.
        let (te_transit, te_list) = te_program(net)?;
        for (cur, in_label, entry) in te_transit {
            lfib[cur.index()].insert(in_label, entry);
        }
        let mut te_heads = Vec::with_capacity(net.num_routers() + 1);
        let mut te_routes = Vec::with_capacity(te_list.len());
        let mut cursor = 0usize;
        for r in 0..net.num_routers() {
            te_heads.push(te_routes.len() as u32);
            while cursor < te_list.len() && te_list[cursor].0 .0.index() == r {
                let ((_, tail), route) = te_list[cursor];
                te_routes.push((tail, route));
                cursor += 1;
            }
        }
        te_heads.push(te_routes.len() as u32);

        // Dense destination-resolution tables: the forwarding decision
        // only ever LPMs an address inside the AS that owns it (the
        // destination's own table, or the egress border's loopback in
        // the border's own table), so every slot the walk can ask for
        // is resolved here, once, instead of per packet leg.
        let mut loopback_slot = vec![u32::MAX; net.num_routers()];
        let mut router_as_idx = vec![u32::MAX; net.num_routers()];
        let mut iface_slot_base = Vec::with_capacity(net.num_routers() + 1);
        let mut iface_slot = Vec::new();
        iface_slot_base.push(0u32);
        for (i, r) in net.routers().iter().enumerate() {
            match net.as_index(r.asn) {
                Some(idx) => {
                    let ap = &as_prefixes[idx];
                    router_as_idx[i] = idx as u32;
                    if let Some(s) = ap.lookup(r.loopback) {
                        loopback_slot[i] = s;
                    }
                    for ifc in &r.ifaces {
                        iface_slot.push(ap.lookup(ifc.addr).unwrap_or(u32::MAX));
                    }
                }
                None => iface_slot.resize(iface_slot.len() + r.ifaces.len(), u32::MAX),
            }
            iface_slot_base.push(iface_slot.len() as u32);
        }

        // Dense address→owner index. Walking the routers (not the owner
        // hash) keeps page allocation order — and thus the table bytes —
        // deterministic across builds and job counts.
        let mut owner_page = vec![u32::MAX; 1 << 20];
        let mut owner_pool: Vec<u32> = Vec::new();
        {
            let mut index = |addr: Addr, rid: RouterId| {
                let hi = (addr.0 >> 12) as usize;
                if owner_page[hi] == u32::MAX {
                    owner_page[hi] = owner_pool.len() as u32;
                    owner_pool.resize(owner_pool.len() + OWNER_PAGE_SIZE, 0);
                }
                let base = owner_page[hi] as usize;
                owner_pool[base + (addr.0 & 0xFFF) as usize] = rid.0 + 1;
            };
            for r in net.routers() {
                index(r.loopback, r.id);
                for ifc in &r.ifaces {
                    index(ifc.addr, r.id);
                }
            }
        }

        // Flat walk tables: the per-router configuration byte, vendor
        // TTL signatures, loopbacks and interface records the engine's
        // hot loop reads — one cache-friendly row per router instead of
        // the pointer-heavy `Router` struct.
        let n = net.num_routers();
        let mut walk_flags = Vec::with_capacity(n);
        let mut walk_te_ttl = Vec::with_capacity(n);
        let mut walk_er_ttl = Vec::with_capacity(n);
        let mut walk_loopback = Vec::with_capacity(n);
        let mut walk_iface = Vec::with_capacity(iface_slot.len());
        for r in net.routers() {
            let c = &r.config;
            let mut f = 0u8;
            if c.mpls {
                f |= walk::MPLS;
            }
            if c.ttl_propagate {
                f |= walk::TTL_PROPAGATE;
            }
            if c.rfc4950 {
                f |= walk::RFC4950;
            }
            if c.min_on_exit {
                f |= walk::MIN_ON_EXIT;
            }
            if c.replies {
                f |= walk::REPLIES;
            }
            if c.is_host {
                f |= walk::IS_HOST;
            }
            walk_flags.push(f);
            walk_te_ttl.push(c.vendor.te_init_ttl());
            walk_er_ttl.push(c.vendor.er_init_ttl());
            walk_loopback.push(r.loopback);
            for ifc in &r.ifaces {
                walk_iface.push(WalkIface {
                    addr: ifc.addr,
                    peer_addr: ifc.peer_addr,
                    peer: ifc.peer,
                    link: ifc.link,
                    delay_ms: net.link(ifc.link).delay_ms,
                });
            }
        }

        Ok(ControlPlane {
            as_prefixes,
            igp,
            bgp,
            bindings,
            fib,
            ext_class,
            ext_stride: n_as,
            ext_width,
            ext_row,
            ext_pool,
            lfib,
            te_heads,
            te_routes,
            loopback_slot,
            iface_slot_base,
            iface_slot,
            router_as_idx,
            owner_page,
            owner_pool,
            walk_flags,
            walk_te_ttl,
            walk_er_ttl,
            walk_loopback,
            walk_iface,
        })
    }

    /// The router owning `addr`, through the dense owner index — two
    /// dependent array loads, the replacement for the per-leg owner
    /// hash. Agrees with [`Network::owner`] by construction (the D512
    /// dense-plane rule cross-checks it against the routers).
    #[inline]
    pub fn owner_of(&self, addr: Addr) -> Option<RouterId> {
        let page = self.owner_page[(addr.0 >> 12) as usize];
        if page == u32::MAX {
            return None;
        }
        let v = self.owner_pool[page as usize + (addr.0 & 0xFFF) as usize];
        if v == 0 {
            None
        } else {
            Some(RouterId(v - 1))
        }
    }

    /// The walk-table configuration byte of `router` (see [`walk`]).
    #[inline]
    pub fn router_flags(&self, router: RouterId) -> u8 {
        self.walk_flags[router.index()]
    }

    /// The vendor initial TTL `router` stamps on time-exceeded (and
    /// unreachable) replies.
    #[inline]
    pub fn te_init_ttl(&self, router: RouterId) -> u8 {
        self.walk_te_ttl[router.index()]
    }

    /// The vendor initial TTL `router` stamps on echo replies.
    #[inline]
    pub fn er_init_ttl(&self, router: RouterId) -> u8 {
        self.walk_er_ttl[router.index()]
    }

    /// The loopback address of `router`, from the flat walk table.
    #[inline]
    pub fn loopback_addr(&self, router: RouterId) -> Addr {
        self.walk_loopback[router.index()]
    }

    /// The flat interface records of `router`, in interface order.
    #[inline]
    pub fn walk_ifaces(&self, router: RouterId) -> &[WalkIface] {
        let lo = self.iface_slot_base[router.index()] as usize;
        let hi = self.iface_slot_base[router.index() + 1] as usize;
        &self.walk_iface[lo..hi]
    }

    /// The dense AS index of `router`'s own AS, raw (`u32::MAX` = the
    /// AS is unregistered) — the branch-free form the hot loop compares
    /// against a destination's cached AS index.
    #[inline]
    pub(crate) fn router_as_raw(&self, router: RouterId) -> u32 {
        self.router_as_idx[router.index()]
    }

    /// The FIB slot of `router`'s loopback inside its own AS table.
    #[inline]
    pub fn loopback_slot(&self, router: RouterId) -> Option<u32> {
        let s = self.loopback_slot[router.index()];
        (s != u32::MAX).then_some(s)
    }

    /// The FIB slot of `router`'s interface `iface`'s address inside
    /// its own AS table.
    #[inline]
    pub fn iface_slot(&self, router: RouterId, iface: usize) -> Option<u32> {
        let base = self.iface_slot_base[router.index()] as usize;
        let s = self.iface_slot[base + iface];
        (s != u32::MAX).then_some(s)
    }

    /// The dense AS index of `router`'s own AS.
    #[inline]
    pub fn router_as_index(&self, router: RouterId) -> Option<usize> {
        let i = self.router_as_idx[router.index()];
        (i != u32::MAX).then_some(i as usize)
    }

    /// The intra-AS ECMP next-hop set of `router` for prefix `slot`, as
    /// `(iface index, next router)` pairs. `None` when the router owns
    /// the prefix or it is unreachable.
    #[inline]
    pub fn fib_entry(&self, router: RouterId, slot: u32) -> Option<&[(u32, RouterId)]> {
        let hops = self.fib.entry(router, slot);
        (!hops.is_empty()).then_some(hops)
    }

    /// The external route of `router` towards the AS with dense index
    /// `dst_as`.
    #[inline]
    pub fn ext_route(&self, router: RouterId, dst_as: usize) -> ExtRoute {
        self.ext_route_from(router, self.router_as_idx[router.index()], dst_as)
    }

    /// [`Self::ext_route`] for a caller that already holds `router`'s
    /// raw AS index ([`Self::router_as_raw`]): the pair's class and the
    /// router's row base are two independent loads into small tables,
    /// then one load of the route.
    #[inline]
    pub(crate) fn ext_route_from(
        &self,
        router: RouterId,
        router_as: u32,
        dst_as: usize,
    ) -> ExtRoute {
        let class = self.ext_class[router_as as usize * self.ext_stride + dst_as];
        self.ext_pool[self.ext_row[router.index()] as usize + usize::from(class)]
    }

    /// The LFIB entry of `router` for incoming `label`.
    #[inline]
    pub fn lfib_entry(&self, router: RouterId, label: Label) -> Option<&LfibEntry> {
        self.lfib[router.index()].get(label)
    }

    /// Number of LFIB entries installed at `router`.
    pub fn lfib_size(&self, router: RouterId) -> usize {
        self.lfib[router.index()].len
    }

    /// Iterates over every LFIB entry installed at `router`, as
    /// `(incoming label, entry)` pairs (arbitrary order).
    pub fn lfib_entries(&self, router: RouterId) -> impl Iterator<Item = (Label, &LfibEntry)> + '_ {
        self.lfib[router.index()].iter()
    }

    /// Installs (or overwrites) an LFIB entry at `router` — a what-if
    /// mutator for fault-injection studies and for exercising the
    /// static checks: `build` only ever produces consistent LFIBs, so
    /// dangling label-swaps can only be created deliberately.
    pub fn inject_lfib_entry(&mut self, router: RouterId, label: Label, entry: LfibEntry) {
        self.lfib[router.index()].insert(label, entry);
    }

    /// The TE autoroute decision at `head` for traffic towards `tail`
    /// (its BGP next hop or its own addresses):
    /// `(out iface, first hop, label to push)`.
    #[inline]
    pub fn te_route(
        &self,
        head: RouterId,
        tail: RouterId,
    ) -> Option<(u32, RouterId, Option<Label>)> {
        let lo = self.te_heads[head.index()] as usize;
        let hi = self.te_heads[head.index() + 1] as usize;
        let span = &self.te_routes[lo..hi];
        if span.is_empty() {
            return None;
        }
        span.binary_search_by_key(&tail, |&(t, _)| t)
            .ok()
            .map(|i| span[i].1)
    }

    /// Borrows every flat destination/forwarding table at once, for the
    /// D5xx dense-plane verifier. The packet walk never goes through
    /// this view — it exists so an external checker can audit CSR
    /// well-formedness without the tables becoming public fields.
    pub fn dense_view(&self) -> DenseView<'_> {
        DenseView {
            fib_base: &self.fib.base,
            fib_spans: &self.fib.spans,
            fib_pool: &self.fib.pool,
            te_heads: &self.te_heads,
            te_routes: &self.te_routes,
            loopback_slot: &self.loopback_slot,
            iface_slot_base: &self.iface_slot_base,
            iface_slot: &self.iface_slot,
            router_as_idx: &self.router_as_idx,
            owner_page: &self.owner_page,
            owner_pool: &self.owner_pool,
            ext_class: &self.ext_class,
            ext_width: &self.ext_width,
            ext_row: &self.ext_row,
            ext_pool: &self.ext_pool,
        }
    }

    /// Borrows the raw window/overflow representation of `router`'s
    /// LFIB, for the D5xx dense-plane verifier.
    pub fn lfib_raw(&self, router: RouterId) -> LfibRaw<'_> {
        let t = &self.lfib[router.index()];
        LfibRaw {
            lo: t.lo,
            window: &t.window,
            overflow: &t.overflow,
            len: t.len,
        }
    }
}

/// A read-only borrow of every flat table inside a [`ControlPlane`],
/// exposed for invariant verification (see [`ControlPlane::dense_view`]).
#[derive(Copy, Clone, Debug)]
pub struct DenseView<'a> {
    /// Router → base index into `fib_spans`; length `num_routers + 1`.
    pub fib_base: &'a [u32],
    /// `(start, len)` into `fib_pool` per `(router, slot)`.
    pub fib_spans: &'a [(u32, u32)],
    /// Concatenated ECMP next-hop sets `(iface index, next router)`.
    pub fib_pool: &'a [(u32, RouterId)],
    /// Router → span of `te_routes` headed there; length
    /// `num_routers + 1`.
    pub te_heads: &'a [u32],
    /// `(tail, route)` grouped by head, sorted by tail within a group.
    pub te_routes: &'a [(RouterId, TeRoute)],
    /// FIB slot of each router's loopback (`u32::MAX` = none).
    pub loopback_slot: &'a [u32],
    /// Router → base index into `iface_slot`; length `num_routers + 1`.
    pub iface_slot_base: &'a [u32],
    /// FIB slot of each interface address (`u32::MAX` = none).
    pub iface_slot: &'a [u32],
    /// Dense AS index of each router's own AS (`u32::MAX` = none).
    pub router_as_idx: &'a [u32],
    /// Level-1 page table of the dense owner index (`u32::MAX` = no
    /// page for that /20).
    pub owner_page: &'a [u32],
    /// Concatenated owner pages (`owner id + 1`, `0` = unowned).
    pub owner_pool: &'a [u32],
    /// External-route class per AS pair, row-major by source AS
    /// (`num_ases × num_ases`).
    pub ext_class: &'a [u16],
    /// External-route classes per AS: its members' row width.
    pub ext_width: &'a [u16],
    /// Router → base of its row in `ext_pool`; length
    /// `num_routers + 1`.
    pub ext_row: &'a [u32],
    /// Concatenated per-router external-route rows.
    pub ext_pool: &'a [ExtRoute],
}

/// A read-only borrow of one router's raw LFIB representation (see
/// [`ControlPlane::lfib_raw`]).
#[derive(Copy, Clone, Debug)]
pub struct LfibRaw<'a> {
    /// Label value of `window[0]`.
    pub lo: u32,
    /// `window[label - lo]`, `None` for gaps.
    pub window: &'a [Option<LfibEntry>],
    /// Entries outside the window, sorted by label value.
    pub overflow: &'a [(u32, LfibEntry)],
    /// Claimed number of installed entries.
    pub len: usize,
}

/// Test-only mutation hooks (`mutation` cargo feature): `&mut` access
/// to the private dense tables so the lint crate's mutation self-test
/// can seed one corruption per D5xx rule. Nothing in the simulator
/// calls these.
#[cfg(feature = "mutation")]
impl ControlPlane {
    /// Mutable `te_heads` CSR offsets.
    pub fn te_heads_mut(&mut self) -> &mut Vec<u32> {
        &mut self.te_heads
    }

    /// Mutable `te_routes` pool.
    pub fn te_routes_mut(&mut self) -> &mut Vec<(RouterId, TeRoute)> {
        &mut self.te_routes
    }

    /// Mutable `fib_base` CSR offsets.
    pub fn fib_base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.fib.base
    }

    /// Mutable `fib_spans` table.
    pub fn fib_spans_mut(&mut self) -> &mut Vec<(u32, u32)> {
        &mut self.fib.spans
    }

    /// Mutable `fib_pool`.
    pub fn fib_pool_mut(&mut self) -> &mut Vec<(u32, RouterId)> {
        &mut self.fib.pool
    }

    /// Mutable per-router loopback slot table.
    pub fn loopback_slot_mut(&mut self) -> &mut Vec<u32> {
        &mut self.loopback_slot
    }

    /// Mutable interface slot table.
    pub fn iface_slot_mut(&mut self) -> &mut Vec<u32> {
        &mut self.iface_slot
    }

    /// Mutable interface slot CSR offsets.
    pub fn iface_slot_base_mut(&mut self) -> &mut Vec<u32> {
        &mut self.iface_slot_base
    }

    /// Mutable router → AS index table.
    pub fn router_as_idx_mut(&mut self) -> &mut Vec<u32> {
        &mut self.router_as_idx
    }

    /// Mutable LFIB overflow list of `router`.
    pub fn lfib_overflow_mut(&mut self, router: RouterId) -> &mut Vec<(u32, LfibEntry)> {
        &mut self.lfib[router.index()].overflow
    }

    /// Mutable LFIB window of `router`.
    pub fn lfib_window_mut(&mut self, router: RouterId) -> &mut Vec<Option<LfibEntry>> {
        &mut self.lfib[router.index()].window
    }

    /// Mutable per-router external-route rows.
    pub fn ext_pool_mut(&mut self) -> &mut Vec<ExtRoute> {
        &mut self.ext_pool
    }

    /// Rebinds `addr` to `owner` in the dense owner index without
    /// touching the routers that actually hold the address (test-only
    /// mutation hook for the D512 owner-index invariant check).
    pub fn poison_owner_index(&mut self, addr: Addr, owner: RouterId) {
        let hi = (addr.0 >> 12) as usize;
        if self.owner_page[hi] == u32::MAX {
            self.owner_page[hi] = self.owner_pool.len() as u32;
            self.owner_pool
                .resize(self.owner_pool.len() + OWNER_PAGE_SIZE, 0);
        }
        let base = self.owner_page[hi] as usize;
        self.owner_pool[base + (addr.0 & 0xFFF) as usize] = owner.0 + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Asn;
    use crate::net::{LinkOpts, NetworkBuilder, RelKind};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    /// AS1(h) -- AS2: a - b - c (MPLS line) -- AS3(t).
    fn line_net() -> (Network, [RouterId; 5]) {
        let mut bld = NetworkBuilder::new();
        let h = bld.add_router("h", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let a = bld.add_router("a", Asn(2), RouterConfig::mpls_router(Vendor::CiscoIos));
        let b = bld.add_router("b", Asn(2), RouterConfig::mpls_router(Vendor::CiscoIos));
        let c = bld.add_router("c", Asn(2), RouterConfig::mpls_router(Vendor::CiscoIos));
        let t = bld.add_router("t", Asn(3), RouterConfig::ip_router(Vendor::CiscoIos));
        bld.link(h, a, LinkOpts::default());
        bld.link(a, b, LinkOpts::default());
        bld.link(b, c, LinkOpts::default());
        bld.link(c, t, LinkOpts::default());
        bld.as_rel(Asn(2), Asn(1), RelKind::ProviderCustomer);
        bld.as_rel(Asn(2), Asn(3), RelKind::ProviderCustomer);
        (bld.build().unwrap(), [h, a, b, c, t])
    }

    #[test]
    fn fib_points_to_nearest_owner() {
        let (net, [_, a, b, c, _]) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let ap = &cp.as_prefixes[as2];
        let slot = ap.lookup(net.router(c).loopback).unwrap();
        let e = cp.fib_entry(a, slot).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].1, b);
        // Owner has no FIB entry (connected).
        assert!(cp.fib_entry(c, slot).is_none());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (net, [_, a, _, c, _]) = line_net();
        let serial = ControlPlane::build_with_jobs(&net, 1).unwrap();
        let par = ControlPlane::build_with_jobs(&net, 4).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let slot = serial.as_prefixes[as2]
            .lookup(net.router(c).loopback)
            .unwrap();
        assert_eq!(serial.fib_entry(a, slot), par.fib_entry(a, slot));
        for r in 0..net.num_routers() as u32 {
            let rid = RouterId(r);
            assert_eq!(serial.lfib_size(rid), par.lfib_size(rid));
        }
        assert_eq!(serial.igp.len(), par.igp.len());
        for (s, p) in serial.igp.iter().zip(par.igp.iter()) {
            assert_eq!(s.asn, p.asn);
            assert_eq!(s.dist, p.dist);
        }
    }

    #[test]
    fn ext_routes_direct_and_via_egress() {
        let (net, [h, a, b, c, t]) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let as3 = net.as_index(Asn(3)).unwrap();
        // c is the egress border towards AS3.
        assert!(matches!(cp.ext_route(c, as3), ExtRoute::Direct { .. }));
        assert_eq!(cp.ext_route(a, as3), ExtRoute::ViaEgress { egress: c });
        assert_eq!(cp.ext_route(b, as3), ExtRoute::ViaEgress { egress: c });
        // AS1's router reaches AS3 through its provider.
        let as1_h = cp.ext_route(h, as3);
        assert!(matches!(as1_h, ExtRoute::Direct { .. }));
        // And t's route back to AS1.
        let as1 = net.as_index(Asn(1)).unwrap();
        assert!(matches!(cp.ext_route(t, as1), ExtRoute::Direct { .. }));
    }

    #[test]
    fn lfib_swap_then_pop() {
        let (net, [_, a, b, c, _]) = line_net();
        let cp = ControlPlane::build(&net).unwrap();
        let as2 = net.as_index(Asn(2)).unwrap();
        let ap = &cp.as_prefixes[as2];
        let slot = ap.lookup(net.router(c).loopback).unwrap();
        // a pushes b's label; b's LFIB entry for it pops (c advertised
        // implicit null for its own loopback): a 2-hop LSP a -> b -> c.
        let LabelValue::Real(lb) = cp.bindings.advertised(b, slot).unwrap() else {
            panic!("b should advertise a real label");
        };
        let entry = cp.lfib_entry(b, lb).unwrap();
        assert_eq!(entry.slot, slot);
        assert_eq!(entry.nexthops.len(), 1);
        assert_eq!(entry.nexthops[0].next, c);
        assert_eq!(entry.nexthops[0].action, LabelAction::Pop);
        // a itself advertises a real label whose entry swaps to b's.
        let LabelValue::Real(la) = cp.bindings.advertised(a, slot).unwrap() else {
            panic!()
        };
        let entry_a = cp.lfib_entry(a, la).unwrap();
        assert_eq!(entry_a.nexthops[0].action, LabelAction::Swap(lb));
        assert!(cp.lfib_size(a) > 0);
    }

    #[test]
    fn lfib_window_handles_sparse_and_injected_labels() {
        // A dense run, a far-away TE-style label, and labels straddling
        // the window edges must all round-trip through the same table.
        let mut t = RouterLfib::default();
        let entry = |slot: u32| LfibEntry {
            slot,
            nexthops: vec![LfibHop {
                iface: 0,
                next: RouterId(1),
                action: LabelAction::Pop,
            }],
        };
        for v in [20u32, 18, 19, 22] {
            t.insert(Label(v), entry(v));
        }
        t.insert(Label(500_007), entry(7)); // overflow (TE range)
        t.insert(Label(16), entry(16)); // front growth
        assert_eq!(t.len, 6);
        for v in [16u32, 18, 19, 20, 22] {
            assert_eq!(t.get(Label(v)).map(|e| e.slot), Some(v), "label {v}");
        }
        assert_eq!(t.get(Label(500_007)).map(|e| e.slot), Some(7));
        assert!(t.get(Label(17)).is_none());
        assert!(t.get(Label(21)).is_none());
        assert!(t.get(Label(500_008)).is_none());
        // Overwrites don't double-count.
        t.insert(Label(20), entry(99));
        assert_eq!(t.len, 6);
        assert_eq!(t.get(Label(20)).map(|e| e.slot), Some(99));
        assert_eq!(t.iter().count(), 6);
    }

    #[test]
    fn disconnected_as_rejected() {
        let mut bld = NetworkBuilder::new();
        let cfg = RouterConfig::ip_router(Vendor::CiscoIos);
        bld.add_router("x", Asn(1), cfg.clone());
        bld.add_router("y", Asn(1), cfg);
        let net = bld.build().unwrap();
        assert!(matches!(
            ControlPlane::build(&net),
            Err(NetError::DisconnectedAs { .. })
        ));
    }

    #[test]
    fn uhp_penultimate_swaps_explicit_null() {
        let mut bld = NetworkBuilder::new();
        let a = bld.add_router("a", Asn(1), RouterConfig::mpls_router(Vendor::CiscoIos));
        let b = bld.add_router("b", Asn(1), RouterConfig::mpls_router(Vendor::CiscoIos));
        let c = bld.add_router(
            "c",
            Asn(1),
            RouterConfig::mpls_router(Vendor::CiscoIos).uhp(),
        );
        bld.link(a, b, LinkOpts::default());
        bld.link(b, c, LinkOpts::default());
        let net = bld.build().unwrap();
        let cp = ControlPlane::build(&net).unwrap();
        let ap = &cp.as_prefixes[0];
        let slot = ap.lookup(net.router(c).loopback).unwrap();
        let LabelValue::Real(lb) = cp.bindings.advertised(b, slot).unwrap() else {
            panic!()
        };
        let entry = cp.lfib_entry(b, lb).unwrap();
        assert_eq!(entry.nexthops[0].action, LabelAction::SwapExplicitNull);
        let _ = a;
    }
}
