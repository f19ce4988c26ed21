//! End-to-end campaign validation: everything the blind measurement
//! pipeline reveals is checked against simulator ground truth.

use wormhole::core::{Campaign, CampaignConfig};
use wormhole::net::PoppingMode;
use wormhole::topo::{generate, GroundTruth, InternetConfig};

fn quick_campaign() -> (wormhole::topo::Internet, wormhole::core::CampaignResult) {
    let internet = generate(&InternetConfig::small(23));
    let cfg = CampaignConfig {
        hdn_threshold: 6,
        ..CampaignConfig::default()
    };
    let campaign = Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg);
    let result = campaign.run();
    (internet, result)
}

#[test]
fn revealed_hops_are_real_hidden_routers() {
    let (internet, result) = quick_campaign();
    let gt = GroundTruth::new(&internet.net, &internet.cp);
    let mut verified = 0usize;
    for c in &result.candidates {
        let Some(t) = result
            .revelations
            .get(&(c.ingress, c.egress))
            .and_then(|o| o.tunnel())
        else {
            continue;
        };
        let (Some(ingress), Some(egress)) =
            (internet.net.owner(c.ingress), internet.net.owner(c.egress))
        else {
            panic!("candidate endpoints resolve");
        };
        // The true hidden routers between the pair, on the path the
        // observing VP's probe actually took.
        let vp = internet.vps[c.vp_index];
        let Some(hidden) = gt.hidden_hops(vp, c.target, ingress, egress, 0) else {
            continue; // pair not on this target's path for flow 0
        };
        let revealed: Vec<_> = t
            .hops()
            .iter()
            .map(|&a| internet.net.owner(a).expect("revealed addr exists"))
            .collect();
        // Under ECMP the revealed path can be a sibling equal-cost path;
        // lengths must agree, and when the sets match we count an exact
        // verification.
        assert_eq!(
            revealed.len(),
            hidden.len(),
            "revealed length must match ground truth for {} → {}",
            c.ingress,
            c.egress
        );
        if revealed == hidden {
            verified += 1;
        }
    }
    assert!(verified > 0, "at least some revelations verify exactly");
}

#[test]
fn revealed_hops_stay_inside_the_pair_as() {
    let (internet, result) = quick_campaign();
    for t in result.tunnels() {
        let asn = internet.net.owner_asn(t.ingress).unwrap();
        assert_eq!(internet.net.owner_asn(t.egress), Some(asn));
        for hop in t.hops() {
            assert_eq!(
                internet.net.owner_asn(hop),
                Some(asn),
                "LSR {hop} leaked outside {asn}"
            );
        }
    }
}

#[test]
fn no_false_revelations_on_direct_links() {
    // Every revealed pair must actually hide something: the pair's
    // routers must NOT be physically adjacent.
    let (internet, result) = quick_campaign();
    for t in result.tunnels() {
        let a = internet.net.owner(t.ingress).unwrap();
        let b = internet.net.owner(t.egress).unwrap();
        let adjacent = internet.net.router(a).neighbors().contains(&b);
        assert!(
            !adjacent,
            "pair {} → {} is physically adjacent yet was 'revealed'",
            t.ingress, t.egress
        );
    }
}

#[test]
fn uhp_personas_never_reveal() {
    let mut cfg = InternetConfig::small(29);
    // Make one persona UHP.
    cfg.personas[0].uhp = true;
    let internet = generate(&cfg);
    let asn = internet.personas[0].asn;
    let campaign = Campaign::new(
        &internet.net,
        &internet.cp,
        internet.vps.clone(),
        CampaignConfig {
            hdn_threshold: 6,
            ..CampaignConfig::default()
        },
    );
    let result = campaign.run();
    assert!(internet
        .net
        .as_members(asn)
        .iter()
        .all(|&r| internet.net.router(r).config.popping == PoppingMode::Uhp));
    for t in result.tunnels() {
        assert_ne!(
            internet.net.owner_asn(t.ingress),
            Some(asn),
            "UHP persona must be unrevealable"
        );
    }
}

#[test]
fn probing_budget_accounted() {
    let (_, result) = quick_campaign();
    assert!(result.probes > 1000, "campaign must actually probe");
    // Every revelation's extra probes are included.
    let extra: u64 = result.tunnels().map(|t| t.extra_probes).sum();
    assert!(extra > 0);
    assert!(extra < result.probes);
}

#[test]
fn campaign_is_deterministic() {
    let (_, a) = quick_campaign();
    let (_, b) = quick_campaign();
    assert_eq!(a.targets, b.targets);
    assert_eq!(a.candidates.len(), b.candidates.len());
    assert_eq!(a.probes, b.probes);
    assert_eq!(
        a.tunnels().count(),
        b.tunnels().count(),
        "same seed ⇒ same revelations"
    );
}

/// `lint::audit` normalizes its findings, so the `lint: warn[...]`
/// lines a campaign prints are stable: auditing one result twice, and
/// the same campaign run at one and at two workers, yield the same
/// findings in the same order.
#[test]
fn audit_findings_keep_one_order() {
    let internet = generate(&InternetConfig::small(23));
    let run = |jobs| {
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            jobs,
            ..CampaignConfig::default()
        };
        Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
    };
    let (one, two) = (run(1), run(2));
    let findings = wormhole::core::audit_campaign(&internet.net, &one);
    assert!(
        findings.len() >= 2,
        "the fixture must produce several findings for their order to matter: {findings:?}"
    );
    assert_eq!(
        findings,
        wormhole::core::audit_campaign(&internet.net, &one)
    );
    assert_eq!(
        findings,
        wormhole::core::audit_campaign(&internet.net, &two)
    );
}
