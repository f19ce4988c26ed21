//! External routes against their oracles.
//!
//! The control plane computes hot-potato external routes once per
//! `(source AS, best next-hop set)` class and stores them as a class id
//! per AS pair plus one short row per router. These tests hold that
//! layout to the per-pair definition:
//!
//! * every `ext_route(router, dst_as)` equals
//!   [`hot_potato_route`], which re-derives the next-hop set, the
//!   egress candidates and the hot-potato choice for that one pair;
//! * every interned BGP next-hop set equals the set a from-scratch
//!   single-destination run ([`Bgp::single_dest`]) computes, and equal
//!   sets share one id;
//! * the class tables are identical at any `build_with_jobs` count.
//!
//! Every Fig. 2 scenario, the quick and paper Internets run in tier 1;
//! tenfold and thousandfold are `#[ignore]`d rows for release runs.

use std::collections::HashMap;
use wormhole::net::{hot_potato_route, Bgp, ControlPlane, Network, PoppingMode};
use wormhole::topo::{generate, gns3_fig2, gns3_fig2_te, Fig2Config, InternetConfig};

/// Every `(router, destination AS)` route against the per-pair oracle.
fn assert_matches_oracle(what: &str, net: &Network, cp: &ControlPlane) {
    for r in net.routers() {
        for (d, dst) in net.as_list().iter().enumerate() {
            assert_eq!(
                cp.ext_route(r.id, d),
                hot_potato_route(net, &cp.igp, &cp.bgp, r.id, d),
                "{what}: {} towards {dst}",
                r.name
            );
        }
    }
}

/// Every interned next-hop set equals the single-destination run's,
/// and the pool holds each distinct set exactly once.
fn assert_interned_sets_match(what: &str, net: &Network, bgp: &Bgp) {
    let n = net.as_list().len();
    let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
    for dst in 0..n {
        let sets = Bgp::single_dest(net, dst).expect("the network has BGP routes");
        for (src, set) in sets.iter().enumerate() {
            let mut want: Vec<u32> = set.iter().map(|&x| x as u32).collect();
            want.sort_unstable();
            assert_eq!(bgp.next_hops(dst, src), want, "{what}: AS {src} → AS {dst}");
            let id = bgp.set_id(src, dst);
            assert_eq!(
                *ids.entry(want).or_insert(id),
                id,
                "{what}: one next-hop set interned under two ids"
            );
        }
    }
    assert_eq!(
        ids.len() + usize::from(!ids.contains_key(&Vec::new())),
        bgp.num_sets()
    );
}

/// The class tables are a pure function of the network: identical at
/// one, two and four build workers.
fn assert_tables_identical_across_jobs(what: &str, net: &Network) {
    let one = ControlPlane::build_with_jobs(net, 1).expect("plane builds");
    let a = one.dense_view();
    for jobs in [2, 4] {
        let other = ControlPlane::build_with_jobs(net, jobs).expect("plane builds");
        let b = other.dense_view();
        assert_eq!(a.ext_class, b.ext_class, "{what}: classes at jobs={jobs}");
        assert_eq!(a.ext_width, b.ext_width, "{what}: widths at jobs={jobs}");
        assert_eq!(a.ext_row, b.ext_row, "{what}: rows at jobs={jobs}");
        assert_eq!(a.ext_pool, b.ext_pool, "{what}: routes at jobs={jobs}");
    }
}

fn check_internet(what: &str, config: InternetConfig) {
    let i = generate(&config);
    assert_matches_oracle(what, &i.net, &i.cp);
    assert_interned_sets_match(what, &i.net, &i.cp.bgp);
    assert_tables_identical_across_jobs(what, &i.net);
}

#[test]
fn every_scenario_matches_the_oracle() {
    let mut scenarios: Vec<(String, _)> = Fig2Config::ALL
        .iter()
        .map(|&c| (c.name().to_string(), gns3_fig2(c)))
        .collect();
    for popping in [PoppingMode::Php, PoppingMode::Uhp] {
        for ttl_propagate in [false, true] {
            scenarios.push((
                format!("te {popping:?} propagate={ttl_propagate}"),
                gns3_fig2_te(popping, ttl_propagate),
            ));
        }
    }
    for (what, s) in &scenarios {
        assert_matches_oracle(what, &s.net, &s.cp);
        assert_interned_sets_match(what, &s.net, &s.cp.bgp);
        assert_tables_identical_across_jobs(what, &s.net);
    }
}

#[test]
fn quick_internet_matches_the_oracle() {
    for seed in [1, 8] {
        check_internet(&format!("quick seed {seed}"), InternetConfig::small(seed));
    }
}

#[test]
fn paper_internet_matches_the_oracle() {
    let config = InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    };
    check_internet("paper seed 8", config);
}

#[test]
#[ignore = "tenfold scale: run in release with --include-ignored"]
fn tenfold_internet_matches_the_oracle() {
    check_internet("tenfold seed 8", InternetConfig::tenfold(8));
}

#[test]
#[ignore = "thousandfold scale: run in release with --include-ignored"]
fn thousandfold_internet_matches_the_oracle() {
    check_internet("thousandfold seed 8", InternetConfig::thousandfold(8));
}
