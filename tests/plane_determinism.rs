//! Plane-build and lint determinism across worker counts.
//!
//! `ControlPlane::build_with_jobs` splits BGP (one Dijkstra per
//! destination AS) and the per-AS phase (IGP, prefix table, FIB rows,
//! external-route classes) over scoped workers, and the lint pass runs
//! its dense-plane content rules on two threads. None of that may leak
//! into what a user sees:
//!
//! * the BGP table (set ids, `set_base`, `set_pool`) and the FIB and
//!   LFIB tables are identical at one, two and four workers;
//! * `check_internet` renders byte-identical diagnostics over planes
//!   built at one, two and four workers, clean and corrupted alike.
//!
//! Quick and paper scale run in tier 1.

use wormhole::lint;
use wormhole::net::{Bgp, ControlPlane, Label, LabelAction, LfibEntry, LfibHop, RouterId};
use wormhole::topo::{generate, InternetConfig};

fn configs() -> Vec<(&'static str, InternetConfig)> {
    vec![
        ("quick seed 1", InternetConfig::small(1)),
        ("quick seed 8", InternetConfig::small(8)),
        (
            "paper seed 8",
            InternetConfig {
                seed: 8,
                ..InternetConfig::default()
            },
        ),
    ]
}

#[test]
fn bgp_and_forwarding_tables_are_identical_at_any_job_count() {
    for (what, config) in configs() {
        let i = generate(&config);
        let serial = Bgp::compute(&i.net).expect("the network has BGP routes");
        let one = ControlPlane::build_with_jobs(&i.net, 1).expect("plane builds");
        assert_eq!(one.bgp, serial, "{what}: the build's BGP at jobs=1");
        for jobs in [2, 4] {
            let bgp = Bgp::compute_with_jobs(&i.net, jobs).expect("the network has BGP routes");
            assert_eq!(bgp, serial, "{what}: BGP at jobs={jobs}");
            let other = ControlPlane::build_with_jobs(&i.net, jobs).expect("plane builds");
            assert_eq!(other.bgp, serial, "{what}: the build's BGP at jobs={jobs}");
            let (a, b) = (one.dense_view(), other.dense_view());
            assert_eq!(a.fib_base, b.fib_base, "{what}: FIB rows at jobs={jobs}");
            assert_eq!(a.fib_spans, b.fib_spans, "{what}: FIB spans at jobs={jobs}");
            assert_eq!(a.fib_pool, b.fib_pool, "{what}: FIB pool at jobs={jobs}");
            for r in 0..i.net.num_routers() as u32 {
                let (x, y) = (one.lfib_raw(RouterId(r)), other.lfib_raw(RouterId(r)));
                assert_eq!(
                    (x.lo, x.window, x.overflow, x.len),
                    (y.lo, y.window, y.overflow, y.len),
                    "{what}: LFIB of router {r} at jobs={jobs}"
                );
            }
        }
    }
}

/// Seeds two D507 findings through the public what-if hook: a label no
/// binding produces, and an installed entry rewritten to pop.
fn corrupt_lfib(cp: &mut ControlPlane, num_routers: usize) {
    let (rid, label, entry) = (0..num_routers as u32)
        .map(RouterId)
        .find_map(|r| cp.lfib_entries(r).next().map(|(l, e)| (r, l, e.clone())))
        .expect("some router installs an LFIB entry");
    let hop = entry.nexthops[0];
    cp.inject_lfib_entry(
        rid,
        Label(700_123),
        LfibEntry {
            slot: 0,
            nexthops: vec![LfibHop {
                action: LabelAction::Pop,
                ..hop
            }],
        },
    );
    let rewritten = LabelAction::Swap(Label(700_124));
    cp.inject_lfib_entry(
        rid,
        label,
        LfibEntry {
            nexthops: vec![LfibHop {
                action: rewritten,
                ..hop
            }],
            ..entry
        },
    );
}

#[test]
fn check_internet_is_byte_identical_at_any_job_count() {
    for (what, config) in configs() {
        let mut i = generate(&config);
        let mut runs = Vec::new();
        for jobs in [1, 2, 4] {
            i.cp = ControlPlane::build_with_jobs(&i.net, jobs).expect("plane builds");
            let clean = lint::to_json(&lint::check_internet(&i));
            corrupt_lfib(&mut i.cp, i.net.num_routers());
            let corrupted = lint::check_internet(&i);
            assert!(
                corrupted.iter().filter(|d| d.code == "D507").count() >= 2,
                "{what}: the seeded LFIB corruptions surface at jobs={jobs}"
            );
            runs.push((jobs, clean, lint::to_json(&corrupted)));
        }
        let (_, clean, corrupted) = &runs[0];
        for (jobs, c, k) in &runs[1..] {
            assert_eq!(c, clean, "{what}: clean diagnostics at jobs={jobs}");
            assert_eq!(k, corrupted, "{what}: corrupted diagnostics at jobs={jobs}");
        }
    }
}
