//! Synthetic-Internet generation.
//!
//! The paper's campaign ran against the real Internet from PlanetLab.
//! Our substitute is a generated inter-domain topology: the ten persona
//! transit ASes of Tables 4–5 (PoP-structured, MPLS configured per
//! persona), stub ASes multihomed to them, and vantage-point hosts in a
//! subset of the stubs. Everything is seeded and deterministic.

use crate::persona::{paper_personas, AsPersona, PopMesh, VendorMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wormhole_net::{
    Asn, ControlPlane, LinkOpts, Network, NetworkBuilder, PoppingMode, RelKind, RouterConfig,
    RouterId, Vendor,
};

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct InternetConfig {
    /// RNG seed; same seed ⇒ same Internet.
    pub seed: u64,
    /// Transit-AS personas.
    pub personas: Vec<AsPersona>,
    /// Number of stub ASes.
    pub n_stubs: usize,
    /// Number of vantage points (each in its own stub).
    pub n_vps: usize,
    /// Probability that two non-adjacent personas peer.
    pub peer_prob: f64,
    /// Fraction of persona core routers that never answer probes.
    pub silent_share: f64,
    /// Number of leading personas forming a tier-1 peer clique, with
    /// every later persona their customer. `0` keeps the flat peer
    /// chain. Valley-free routing crosses at most one peer edge, so a
    /// flat mesh strands most AS pairs once the mesh outgrows its
    /// chord density; the hierarchy keeps every AS reachable from
    /// every stub at any scale (up to a tier-1, across the clique,
    /// down to the destination).
    pub tier1: usize,
}

impl Default for InternetConfig {
    fn default() -> InternetConfig {
        InternetConfig {
            seed: 1717,
            personas: paper_personas(),
            n_stubs: 40,
            n_vps: 10,
            peer_prob: 0.5,
            silent_share: 0.02,
            tier1: 0,
        }
    }
}

impl InternetConfig {
    /// A small three-persona Internet for fast tests (Tinet, Level3 and
    /// DTAG: invisible deployments with multi-LSR tunnels and a rich
    /// signature mix).
    pub fn small(seed: u64) -> InternetConfig {
        let personas: Vec<AsPersona> = paper_personas().into_iter().skip(2).take(3).collect();
        InternetConfig {
            seed,
            personas,
            n_stubs: 8,
            n_vps: 3,
            peer_prob: 1.0,
            silent_share: 0.0,
            tier1: 0,
        }
    }

    /// A tenfold Internet: the ten paper personas plus ninety transit
    /// ASes drawn from the §1–2 operator-survey priors
    /// ([`crate::persona::random_persona`]) — one hundred transit ASes
    /// in total, the scale target for the sharded campaign executor.
    /// Peering probability is lowered so interconnect density stays
    /// near the default Internet's per-AS average.
    pub fn tenfold(seed: u64) -> InternetConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E_2F01D);
        let mut personas = paper_personas();
        personas.extend(
            (0..90).map(|i| crate::persona::random_persona(Asn(21_000 + i), "survey", &mut rng)),
        );
        InternetConfig {
            seed,
            personas,
            n_stubs: 120,
            n_vps: 10,
            peer_prob: 0.04,
            silent_share: 0.02,
            tier1: 0,
        }
    }

    /// A thousandfold Internet: the ten paper personas plus 990
    /// survey-prior transit ASes — a thousand transit ASes riding the
    /// extended address plan (`NetworkBuilder` packs four ASes per
    /// second octet past slot 245). Survey personas are shrunken to at
    /// most four PoPs with two edges each (~12 routers): at this scale
    /// the campaign measures breadth across ASes, not depth within
    /// them, and the full survey sizes would make the substrate an
    /// order of magnitude bigger than the address space needs to prove.
    /// Peering probability keeps the per-AS interconnect average near
    /// the tenfold Internet's, and the ten paper personas form a
    /// tier-1 clique providing transit to the survey ASes (`tier1`):
    /// at a thousand ASes a flat peer mesh strands almost every pair
    /// under the valley-free one-peer-hop rule, while a provider
    /// hierarchy keeps the whole survey reachable from every VP.
    pub fn thousandfold(seed: u64) -> InternetConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E_2F01D7);
        let mut personas = paper_personas();
        personas.extend((0..990).map(|i| {
            let mut p = crate::persona::random_persona(Asn(21_000 + i), "survey", &mut rng);
            p.pops = p.pops.min(4);
            p.edges_per_pop = p.edges_per_pop.min(2);
            p
        }));
        InternetConfig {
            seed,
            personas,
            n_stubs: 150,
            n_vps: 10,
            peer_prob: 0.0004,
            silent_share: 0.02,
            tier1: 10,
        }
    }
}

/// A generated Internet with its control plane and vantage points.
#[derive(Debug)]
pub struct Internet {
    /// The network.
    pub net: Network,
    /// The computed control plane.
    pub cp: ControlPlane,
    /// Vantage-point host routers.
    pub vps: Vec<RouterId>,
    /// The persona ASes (index-aligned with `config.personas`).
    pub personas: Vec<AsPersona>,
    /// The stub AS numbers.
    pub stub_asns: Vec<Asn>,
}

impl Internet {
    /// The persona describing `asn`, if it is a transit AS.
    pub fn persona_of(&self, asn: Asn) -> Option<&AsPersona> {
        self.personas.iter().find(|p| p.asn == asn)
    }
}

fn sample_vendor(mix: VendorMix, rng: &mut StdRng) -> Vendor {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for &(v, w) in mix {
        acc += w;
        if x < acc {
            return v;
        }
    }
    mix.last().expect("non-empty mix").0
}

fn persona_router_config(p: &AsPersona, mix: VendorMix, rng: &mut StdRng) -> RouterConfig {
    let vendor = sample_vendor(mix, rng);
    let mut cfg = if p.mpls {
        RouterConfig::mpls_router(vendor)
    } else {
        RouterConfig::ip_router(vendor)
    };
    cfg.ttl_propagate = rng.gen::<f64>() < p.propagate_share;
    if p.uhp {
        cfg.popping = PoppingMode::Uhp;
    }
    if let Some(policy) = p.ldp_override {
        cfg.ldp_policy = policy;
    }
    cfg
}

struct PersonaRouters {
    edges: Vec<RouterId>,
}

fn build_persona(
    b: &mut NetworkBuilder,
    p: &AsPersona,
    rng: &mut StdRng,
    silent_share: f64,
) -> PersonaRouters {
    let mut cores = Vec::with_capacity(p.pops);
    let mut edges = Vec::new();
    for pop in 0..p.pops {
        let mut cfg = persona_router_config(p, p.core_vendors, rng);
        if rng.gen::<f64>() < silent_share {
            cfg = cfg.silent();
        }
        let core = b.add_router(&format!("{}-C{pop}", p.name), p.asn, cfg);
        cores.push(core);
        for e in 0..p.edges_per_pop {
            let cfg = persona_router_config(p, p.edge_vendors, rng);
            let pe = b.add_router(&format!("{}-E{pop}.{e}", p.asn.0), p.asn, cfg);
            b.link(core, pe, LinkOpts::symmetric(10, 0.5));
            edges.push(pe);
        }
    }
    // Backbone between PoP cores.
    let interpop = LinkOpts::symmetric(10, p.interpop_delay_ms);
    for i in 0..p.pops.saturating_sub(1) {
        b.link(cores[i], cores[i + 1], interpop);
    }
    match p.mesh {
        PopMesh::Chain => {}
        PopMesh::Ring => {
            if p.pops > 2 {
                b.link(cores[p.pops - 1], cores[0], interpop);
            }
        }
        PopMesh::Chords(prob) => {
            if p.pops > 2 {
                b.link(cores[p.pops - 1], cores[0], interpop);
            }
            for i in 0..p.pops {
                for j in i + 2..p.pops {
                    if (i, j) == (0, p.pops - 1) {
                        continue; // the ring's wrap link
                    }
                    if rng.gen::<f64>() < prob {
                        b.link(cores[i], cores[j], interpop);
                    }
                }
            }
        }
    }
    PersonaRouters { edges }
}

/// A generated topology before its control plane is computed.
pub(crate) struct Topology {
    pub(crate) net: Network,
    pub(crate) vps: Vec<RouterId>,
    pub(crate) stub_asns: Vec<Asn>,
}

/// Generates the network topology from `config` without computing the
/// control plane.
pub(crate) fn generate_topology(config: &InternetConfig) -> Topology {
    assert!(!config.personas.is_empty(), "need at least one persona");
    assert!(
        config.n_vps <= config.n_stubs,
        "each vantage point lives in its own stub"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new();

    // Transit ASes.
    let persona_routers: Vec<PersonaRouters> = config
        .personas
        .iter()
        .map(|p| build_persona(&mut b, p, &mut rng, config.silent_share))
        .collect();

    // Transit AS-level structure. Flat (`tier1 == 0`): a peer chain
    // guarantees connectivity, chords densify. Hierarchical: the first
    // `tier1` personas form a peer clique and every later persona is
    // their customer, so a valley-free path (up, one peer edge, down)
    // exists between any two ASes at any scale; sparse lateral peer
    // chords among the customers add path diversity.
    let n = config.personas.len();
    let t = config.tier1.min(n);
    let mut peerings: Vec<(usize, usize)> = Vec::new();
    let mut transit_customers: Vec<(usize, usize)> = Vec::new(); // (provider, customer)
    if t == 0 {
        peerings.extend((0..n.saturating_sub(1)).map(|i| (i, i + 1)));
        for i in 0..n {
            for j in i + 2..n {
                if rng.gen::<f64>() < config.peer_prob {
                    peerings.push((i, j));
                }
            }
        }
    } else {
        for i in 0..t {
            for j in i + 1..t {
                peerings.push((i, j));
            }
        }
        for c in t..n {
            let n_providers = 1 + usize::from(rng.gen::<f64>() < 0.3);
            let mut chosen: Vec<usize> = Vec::new();
            while chosen.len() < n_providers {
                let p = rng.gen_range(0..t);
                if !chosen.contains(&p) {
                    chosen.push(p);
                }
            }
            for p in chosen {
                transit_customers.push((p, c));
            }
        }
        for i in t..n {
            for j in i + 2..n {
                if rng.gen::<f64>() < config.peer_prob {
                    peerings.push((i, j));
                }
            }
        }
    }
    for &(i, j) in &peerings {
        b.as_rel(
            config.personas[i].asn,
            config.personas[j].asn,
            RelKind::Peer,
        );
        // One or two physical interconnects per peering.
        let links = 1 + rng.gen_range(0..2usize);
        for _ in 0..links {
            let ei = persona_routers[i].edges[rng.gen_range(0..persona_routers[i].edges.len())];
            let ej = persona_routers[j].edges[rng.gen_range(0..persona_routers[j].edges.len())];
            b.link(ei, ej, LinkOpts::symmetric(10, 2.0));
        }
    }
    for &(p, c) in &transit_customers {
        b.as_rel(
            config.personas[p].asn,
            config.personas[c].asn,
            RelKind::ProviderCustomer,
        );
        let links = 1 + rng.gen_range(0..2usize);
        for _ in 0..links {
            let ep = persona_routers[p].edges[rng.gen_range(0..persona_routers[p].edges.len())];
            let ec = persona_routers[c].edges[rng.gen_range(0..persona_routers[c].edges.len())];
            b.link(ep, ec, LinkOpts::symmetric(10, 2.0));
        }
    }

    // Stub ASes, multihomed customers of the transit personas.
    let mut stub_asns = Vec::with_capacity(config.n_stubs);
    let mut stub_gateways = Vec::with_capacity(config.n_stubs);
    for s in 0..config.n_stubs {
        let asn = Asn(60000 + s as u32);
        stub_asns.push(asn);
        let gw = b.add_router(
            &format!("stub{s}-gw"),
            asn,
            RouterConfig::ip_router(Vendor::CiscoIos),
        );
        stub_gateways.push(gw);
        // Optionally a second internal router.
        if rng.gen::<f64>() < 0.5 {
            let r2 = b.add_router(
                &format!("stub{s}-r1"),
                asn,
                RouterConfig::ip_router(if rng.gen::<f64>() < 0.5 {
                    Vendor::BrocadeLinux
                } else {
                    Vendor::CiscoIos
                }),
            );
            b.link(gw, r2, LinkOpts::symmetric(10, 0.5));
        }
        // One or two providers.
        let n_providers = 1 + usize::from(rng.gen::<f64>() < 0.4);
        let mut provider_idx: Vec<usize> = Vec::new();
        while provider_idx.len() < n_providers {
            let p = rng.gen_range(0..n);
            if !provider_idx.contains(&p) {
                provider_idx.push(p);
            }
        }
        for p in provider_idx {
            b.as_rel(config.personas[p].asn, asn, RelKind::ProviderCustomer);
            let pe = persona_routers[p].edges[rng.gen_range(0..persona_routers[p].edges.len())];
            b.link(pe, gw, LinkOpts::symmetric(10, 1.0));
        }
    }

    // Vantage points: hosts behind the first `n_vps` stub gateways.
    let mut vps = Vec::with_capacity(config.n_vps);
    for (i, &gw) in stub_gateways.iter().take(config.n_vps).enumerate() {
        let vp = b.add_router(&format!("VP{i}"), stub_asns[i], RouterConfig::host());
        b.link(vp, gw, LinkOpts::symmetric(10, 0.2));
        vps.push(vp);
    }

    let net = b.build().expect("generated network is well-formed");
    Topology {
        net,
        vps,
        stub_asns,
    }
}

/// Generates an Internet from `config`.
pub fn generate(config: &InternetConfig) -> Internet {
    let topo = generate_topology(config);
    let cp = ControlPlane::build(&topo.net).expect("generated network has a control plane");
    Internet {
        net: topo.net,
        cp,
        vps: topo.vps,
        personas: config.personas.clone(),
        stub_asns: topo.stub_asns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_net::{Engine, Packet};

    #[test]
    fn small_internet_builds_and_routes() {
        let internet = generate(&InternetConfig::small(7));
        assert_eq!(internet.vps.len(), 3);
        assert!(internet.net.num_routers() > 50);
        // Every VP can ping every persona edge loopback.
        let mut eng = Engine::new(&internet.net, &internet.cp);
        let vp = internet.vps[0];
        let src = internet.net.router(vp).loopback;
        let mut ok = 0;
        let mut total = 0;
        for asn in internet.personas.iter().map(|p| p.asn) {
            for &rid in internet.net.as_members(asn).iter().take(5) {
                total += 1;
                let dst = internet.net.router(rid).loopback;
                let out = eng.send(vp, Packet::echo_request(src, dst, 64, 3, 1, 1));
                if out.reply().is_some() {
                    ok += 1;
                }
            }
        }
        assert_eq!(ok, total, "all persona routers reachable");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&InternetConfig::small(42));
        let b = generate(&InternetConfig::small(42));
        assert_eq!(a.net.num_routers(), b.net.num_routers());
        assert_eq!(a.net.num_links(), b.net.num_links());
        for (ra, rb) in a.net.routers().iter().zip(b.net.routers()) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.loopback, rb.loopback);
            assert_eq!(ra.config.vendor, rb.config.vendor);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&InternetConfig::small(1));
        let b = generate(&InternetConfig::small(2));
        // Vendor sampling should differ somewhere.
        let differs = a
            .net
            .routers()
            .iter()
            .zip(b.net.routers())
            .take(40)
            .any(|(x, y)| x.config.vendor != y.config.vendor || x.name != y.name);
        assert!(differs || a.net.num_links() != b.net.num_links());
    }

    #[test]
    fn tenfold_internet_builds() {
        let t0 = std::time::Instant::now();
        let cfg = InternetConfig::tenfold(8);
        assert_eq!(cfg.personas.len(), 100);
        let internet = generate(&cfg);
        assert_eq!(internet.vps.len(), 10);
        assert!(
            internet.net.num_routers() > 2_000,
            "tenfold Internet should be an order of magnitude beyond paper scale, got {}",
            internet.net.num_routers()
        );
        // Paper personas keep their identities at the larger scale.
        assert!(internet.persona_of(Asn(3320)).is_some());
        assert!(internet.persona_of(Asn(21_000)).is_some());
        eprintln!(
            "tenfold: {} routers, {} links in {:?}",
            internet.net.num_routers(),
            internet.net.num_links(),
            t0.elapsed()
        );
    }

    #[test]
    #[ignore = "thousand-AS build is fast in release but slow under debug; run explicitly or via the bench"]
    fn thousandfold_internet_builds() {
        let t0 = std::time::Instant::now();
        let cfg = InternetConfig::thousandfold(8);
        assert_eq!(cfg.personas.len(), 1000);
        let internet = generate(&cfg);
        assert_eq!(internet.vps.len(), 10);
        assert!(
            internet.net.num_routers() > 10_000,
            "thousandfold Internet should cross ten thousand routers, got {}",
            internet.net.num_routers()
        );
        assert!(internet.persona_of(Asn(3320)).is_some());
        assert!(internet.persona_of(Asn(21_989)).is_some());
        eprintln!(
            "thousandfold: {} routers, {} links in {:?}",
            internet.net.num_routers(),
            internet.net.num_links(),
            t0.elapsed()
        );
    }

    #[test]
    fn full_paper_internet_builds() {
        let internet = generate(&InternetConfig {
            n_stubs: 12,
            n_vps: 4,
            ..InternetConfig::default()
        });
        assert_eq!(internet.personas.len(), 10);
        assert!(internet.persona_of(Asn(3320)).is_some());
        assert!(internet.persona_of(Asn(64000)).is_none());
        // BT persona routers are UHP.
        let bt = internet.net.as_members(Asn(2856));
        assert!(!bt.is_empty());
        assert!(bt
            .iter()
            .all(|&r| internet.net.router(r).config.popping == PoppingMode::Uhp));
    }
}
