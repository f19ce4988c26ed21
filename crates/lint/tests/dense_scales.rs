//! Clean-plane property tests for the dense verifier at the paper's
//! three scales: a correct build must produce **zero** D5xx findings,
//! and the parallel builder must pass the same verifier as the serial
//! one — the evidence behind the `build_with_jobs` lint gate.
//!
//! The FIB is also held to an independent reference: the build's stored
//! FIB and the one D508 recomputes ([`logical_fib`]) share their per-AS
//! code, so both are compared slot for slot with [`reference_fib`], the
//! FIB derived per `(router, slot)` straight from its definition.

use wormhole_lint as lint;
use wormhole_net::igp::INF;
use wormhole_net::{logical_fib, AsIgp, AsPrefixes, ControlPlane, Network, PoppingMode, RouterId};
use wormhole_topo::{
    generate, gns3_fig2, gns3_fig2_te, gns3_fig2_with, Fig2Config, Fig2Opts, InternetConfig,
};

/// The intra-AS FIB from its definition, one `(router, slot)` at a time
/// through the IGP view's router-id accessors: the owners of the slot's
/// prefix at the least IGP distance, the union of the first hops
/// towards each of them, sorted by `(next, iface)`; empty when the
/// router owns the prefix or reaches no owner. Nested and allocating on
/// purpose — it shares no code with the per-AS flat computation.
fn reference_fib(
    net: &Network,
    igp: &[AsIgp],
    as_prefixes: &[AsPrefixes],
) -> Vec<Vec<Vec<(u32, RouterId)>>> {
    let mut fib = vec![Vec::new(); net.num_routers()];
    for (view, ap) in igp.iter().zip(as_prefixes) {
        for &rid in net.as_members(ap.asn) {
            let table: &mut Vec<Vec<(u32, RouterId)>> = &mut fib[rid.index()];
            table.resize(ap.len(), Vec::new());
            for slot in 0..ap.len() as u32 {
                let owners = ap.owners(slot);
                if owners.contains(&rid) {
                    continue;
                }
                let best = owners
                    .iter()
                    .map(|&o| view.distance(rid, o))
                    .min()
                    .unwrap_or(INF);
                if best >= INF {
                    continue;
                }
                let mut hops: Vec<(u32, RouterId)> = Vec::new();
                for &o in owners {
                    if view.distance(rid, o) == best {
                        for &h in view.first_hops(rid, o) {
                            if !hops.contains(&h) {
                                hops.push(h);
                            }
                        }
                    }
                }
                hops.sort_by_key(|&(i, r)| (r, i));
                table[slot as usize] = hops;
            }
        }
    }
    fib
}

/// The build's stored FIB and the recomputed [`logical_fib`] both equal
/// [`reference_fib`] at every router and slot.
fn assert_fib_matches_reference(what: &str, net: &Network, cp: &ControlPlane) {
    let want = reference_fib(net, &cp.igp, &cp.as_prefixes);
    let flat = logical_fib(net, &cp.igp, &cp.as_prefixes);
    let v = cp.dense_view();
    for r in net.routers() {
        let row = &want[r.id.index()];
        let i = r.id.index();
        assert_eq!(
            flat.slots(r.id),
            row.len(),
            "{what}: {} recomputed row",
            r.name
        );
        assert_eq!(
            (v.fib_base[i + 1] - v.fib_base[i]) as usize,
            row.len(),
            "{what}: {} stored row",
            r.name
        );
        for (slot, hops) in row.iter().enumerate() {
            let slot = slot as u32;
            assert_eq!(
                flat.entry(r.id, slot),
                hops.as_slice(),
                "{what}: {} slot {slot}, recomputed",
                r.name
            );
            assert_eq!(
                cp.fib_entry(r.id, slot).unwrap_or(&[]),
                hops.as_slice(),
                "{what}: {} slot {slot}, stored",
                r.name
            );
        }
    }
}

fn dense_findings(i: &wormhole_topo::Internet) -> Vec<lint::Diagnostic> {
    lint::verify_dense(&i.net, &i.cp)
}

fn assert_clean(config: InternetConfig, what: &str) {
    let i = generate(&config);
    assert_fib_matches_reference(what, &i.net, &i.cp);
    let dense = dense_findings(&i);
    assert!(
        dense.is_empty(),
        "{what}: clean build produced D5xx findings\n{}",
        lint::render(&dense)
    );
    let all = lint::check_internet(&i);
    assert!(!lint::has_errors(&all), "{what}: {}", lint::render(&all));
}

#[test]
fn quick_scale_builds_clean() {
    for seed in [1, 7, 42] {
        assert_clean(InternetConfig::small(seed), &format!("quick/seed{seed}"));
    }
}

#[test]
fn paper_scale_builds_clean() {
    assert_clean(
        InternetConfig {
            seed: 42,
            ..InternetConfig::default()
        },
        "paper/seed42",
    );
}

/// Tenfold is release-CI territory; run with `--include-ignored` there.
#[test]
#[ignore = "release-mode CI scale; run with --include-ignored"]
fn tenfold_scale_builds_clean() {
    assert_clean(InternetConfig::tenfold(42), "tenfold/seed42");
}

/// The parallel plane builder must satisfy the same invariants as the
/// serial one — the property the campaign's debug gate relies on when
/// it verifies `build_with_jobs` output before sharding.
#[test]
fn parallel_build_passes_the_same_verifier_as_serial() {
    let i = generate(&InternetConfig::small(42));
    for jobs in [1, 4] {
        let cp = ControlPlane::build_with_jobs(&i.net, jobs)
            .expect("generated network has a control plane");
        let dense = lint::verify_dense(&i.net, &cp);
        assert!(dense.is_empty(), "jobs={jobs}: {}", lint::render(&dense));
        assert_fib_matches_reference(&format!("jobs={jobs}"), &i.net, &cp);
    }
}

/// Every hand-built scenario: the four §3.3 presets (with Cisco and
/// with Juniper LERs) and the RSVP-TE testbed in all four popping ×
/// `ttl-propagate` variants.
#[test]
fn every_scenario_fib_matches_the_reference() {
    let mut scenarios = Vec::new();
    for config in Fig2Config::ALL {
        scenarios.push((config.name().to_string(), gns3_fig2(config)));
        scenarios.push((
            format!("{} (Juniper LERs)", config.name()),
            gns3_fig2_with(Fig2Opts::preset_juniper_ler(config)),
        ));
    }
    for popping in [PoppingMode::Php, PoppingMode::Uhp] {
        for ttl_propagate in [false, true] {
            scenarios.push((
                format!("te {popping:?} propagate={ttl_propagate}"),
                gns3_fig2_te(popping, ttl_propagate),
            ));
        }
    }
    for (what, s) in &scenarios {
        assert_fib_matches_reference(what, &s.net, &s.cp);
    }
}
