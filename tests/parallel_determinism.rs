//! Determinism regression: the sharded campaign executor must produce
//! byte-identical output at every worker count.
//!
//! Fault injection is enabled so each vantage point actually consumes
//! its `(seed, vp_index)` RNG stream — a lossless run would pass even
//! with broken per-worker seeding, because no randomness is drawn.

use wormhole::core::{Campaign, CampaignConfig, CampaignReport, Scheduling};
use wormhole::experiments::{campaign_config_for, campaign_over, internet_config_for, Scale};
use wormhole::net::wire::checksum;
use wormhole::net::{FaultPlan, FaultScenario};
use wormhole::probe::NullSink;
use wormhole::topo::{generate, Internet, InternetConfig};

fn report(internet: &Internet, jobs: usize, seed: u64) -> CampaignReport {
    report_with(internet, jobs, seed, Scheduling::VpBatches)
}

fn report_with(
    internet: &Internet,
    jobs: usize,
    seed: u64,
    scheduling: Scheduling,
) -> CampaignReport {
    let cfg = CampaignConfig {
        hdn_threshold: 9,
        faults: FaultPlan {
            loss: 0.03,
            icmp_loss: 0.02,
            jitter_ms: 0.7,
            ..FaultPlan::default()
        },
        seed,
        jobs,
        scheduling,
        ..CampaignConfig::default()
    };
    Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
        .run()
        .report()
}

#[test]
fn paper_campaign_is_identical_at_any_worker_count() {
    let internet = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    let serial = report(&internet, 1, 42);
    let parallel = report(&internet, 4, 42);
    assert_eq!(
        serial, parallel,
        "jobs=4 diverged from jobs=1 on the same seed"
    );
    // `jobs=0` (auto parallelism) must land on the same bytes too.
    assert_eq!(serial, report(&internet, 0, 42), "jobs=0 diverged");
    // Same topology, different campaign seed: faults are live, so the
    // transcript must actually change — otherwise the RNG streams were
    // never consumed and this test guards nothing.
    assert_ne!(
        serial,
        report(&internet, 1, 43),
        "different seeds produced identical reports; faults were not exercised"
    );
}

#[test]
fn every_fault_scenario_is_identical_at_any_worker_count() {
    // The ISSUE's headline robustness guarantee: token buckets,
    // persistent silence, and link flaps all run on per-worker virtual
    // clocks, so even the hostile composite shards byte-identically.
    let internet = generate(&InternetConfig::small(17));
    for scenario in FaultScenario::ALL {
        let run = |jobs: usize| {
            let cfg = CampaignConfig {
                hdn_threshold: 6,
                faults: scenario.plan(),
                seed: 5,
                jobs,
                ..CampaignConfig::default()
            };
            Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
                .run()
                .report()
        };
        let serial = run(1);
        for jobs in [2, 4] {
            assert_eq!(
                serial,
                run(jobs),
                "scenario {} diverged at jobs={jobs}",
                scenario.name()
            );
        }
    }
}

/// Golden report checksums: `net::wire::checksum` (FNV-64) of the
/// [`CampaignReport`] text that `campaign_config_for(scale, 1, scenario,
/// scheduling)` produces over `internet_config_for(scale, 8)` — the
/// substrate and configuration `wormhole-cli campaign` runs. Any change
/// to these bytes is a re-baseline and must be declared as one; a
/// hot-path refactor that moves them is a bug.
const GOLDEN: &[(Scale, &str, Scheduling, u64)] = &[
    (
        Scale::Quick,
        "clean",
        Scheduling::VpBatches,
        0x8f12_5342_b8b5_9fb3,
    ),
    (
        Scale::Quick,
        "clean",
        Scheduling::Stealing,
        0x8f12_5342_b8b5_9fb3,
    ),
    (
        Scale::Quick,
        "hostile",
        Scheduling::VpBatches,
        0x5666_a7ae_826b_d620,
    ),
    (
        Scale::Quick,
        "hostile",
        Scheduling::Stealing,
        0x2a15_8035_2db8_8c2a,
    ),
    (
        Scale::Quick,
        "paranoid",
        Scheduling::VpBatches,
        0xb4e1_528f_199a_1983,
    ),
    (
        Scale::Quick,
        "paranoid",
        Scheduling::Stealing,
        0x6c29_1a78_4407_23d8,
    ),
    (
        Scale::Paper,
        "clean",
        Scheduling::VpBatches,
        0x7e33_9793_9bf4_0413,
    ),
    (
        Scale::Paper,
        "hostile",
        Scheduling::VpBatches,
        0xa36a_5730_421d_d96d,
    ),
    (
        Scale::Tenfold,
        "clean",
        Scheduling::VpBatches,
        0x9ef6_082e_ab8b_d4f5,
    ),
    (
        Scale::Tenfold,
        "clean",
        Scheduling::Stealing,
        0xccb5_6f14_86b6_8c43,
    ),
    (
        Scale::Tenfold,
        "hostile",
        Scheduling::VpBatches,
        0xafbc_1c01_dee5_880a,
    ),
    (
        Scale::Tenfold,
        "hostile",
        Scheduling::Stealing,
        0x4296_9957_4c94_0278,
    ),
    (
        Scale::ThousandFold,
        "clean",
        Scheduling::VpBatches,
        0x3205_f11d_33dc_4c06,
    ),
];

/// Checks every [`GOLDEN`] row at `scale`, generating the substrate
/// once. Campaign sessions keep path recording off, so the walk must
/// also stay allocation-free.
fn assert_golden(scale: Scale) {
    let internet = generate(&internet_config_for(scale, 8));
    for &(_, name, scheduling, want) in GOLDEN.iter().filter(|row| row.0 == scale) {
        let scenario = FaultScenario::parse(name).expect("golden scenario exists");
        let cfg = campaign_config_for(scale, 1, scenario, scheduling);
        let result = campaign_over(&internet, &cfg, &mut NullSink);
        let got = checksum(result.report().text().as_bytes());
        assert_eq!(
            got, want,
            "{scale:?} {name} {scheduling:?}: report checksum {got:#018x}, golden {want:#018x}"
        );
        assert_eq!(
            result.engine_stats.heap_allocs, 0,
            "{scale:?} {name} {scheduling:?}: campaign walk allocated"
        );
    }
}

#[test]
fn golden_reports_quick_scale() {
    assert_golden(Scale::Quick);
}

/// Runs `wormhole-cli campaign` with `args`, with the environment
/// knobs that would override its flags cleared.
fn cli_campaign(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_wormhole-cli"))
        .arg("campaign")
        .args(args)
        .env_remove("WORMHOLE_JOBS")
        .env_remove("WORMHOLE_SCHED")
        .env_remove("WORMHOLE_FAULTS")
        .output()
        .expect("wormhole-cli runs")
}

#[test]
fn cli_report_matches_the_golden_checksums() {
    for &(_, name, scheduling, want) in GOLDEN.iter().filter(|row| row.0 == Scale::Quick) {
        let mut args = vec!["quick", "--jobs", "1", "--faults", name];
        if scheduling == Scheduling::Stealing {
            args.push("--stealing");
        }
        args.extend(["--emit", "report"]);
        let out = cli_campaign(&args);
        assert!(out.status.success(), "{args:?} failed: {out:?}");
        let got = checksum(&out.stdout);
        assert_eq!(
            got, want,
            "{args:?}: stdout checksum {got:#018x}, golden {want:#018x}"
        );
    }
    // `--distributed` is not a campaign flag; it is refused like any
    // other unknown argument.
    let out = cli_campaign(&["quick", "--distributed", "2"]);
    assert!(!out.status.success(), "--distributed was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown campaign argument"),
        "unexpected stderr: {stderr}"
    );
}

#[test]
fn golden_reports_paper_scale() {
    assert_golden(Scale::Paper);
}

#[test]
#[ignore = "tenfold scale: run in release CI via --include-ignored"]
fn golden_reports_tenfold_scale() {
    assert_golden(Scale::Tenfold);
}

#[test]
#[ignore = "thousandfold scale: run in release CI via --include-ignored"]
fn golden_reports_thousandfold_scale() {
    assert_golden(Scale::ThousandFold);
}

#[test]
fn stealing_campaign_is_identical_at_any_worker_count() {
    // Per-trace work stealing executes tasks in whatever order idle
    // workers claim them; byte-identical reports at every job count
    // prove the per-(seed, vp, target) RNG streams really are hermetic.
    let internet = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    let serial = report_with(&internet, 1, 42, Scheduling::Stealing);
    for jobs in [2, 4] {
        assert_eq!(
            serial,
            report_with(&internet, jobs, 42, Scheduling::Stealing),
            "stealing diverged at jobs={jobs}"
        );
    }
    assert_eq!(
        serial,
        report_with(&internet, 0, 42, Scheduling::Stealing),
        "stealing diverged at jobs=0"
    );
    // Different seed must change the transcript (streams are consumed).
    assert_ne!(
        serial,
        report_with(&internet, 1, 43, Scheduling::Stealing),
        "different seeds produced identical stealing reports"
    );
}

#[test]
fn stealing_survives_the_hostile_scenario_at_any_worker_count() {
    // The hostile composite (loss + rate limiting + silence + flaps)
    // exercises every per-task fault mechanism; the report must not
    // depend on how tasks are interleaved across stealing workers.
    let internet = generate(&InternetConfig::small(17));
    let hostile = FaultScenario::ALL
        .iter()
        .find(|s| s.name() == "hostile")
        .expect("hostile scenario exists");
    let run = |jobs: usize| {
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            faults: hostile.plan(),
            seed: 5,
            jobs,
            scheduling: Scheduling::Stealing,
            ..CampaignConfig::default()
        };
        Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
            .run()
            .report()
    };
    let serial = run(1);
    for jobs in [2, 4] {
        assert_eq!(
            serial,
            run(jobs),
            "hostile stealing diverged at jobs={jobs}"
        );
    }
}

#[test]
fn stealing_survives_the_paranoid_scenario_at_any_worker_count() {
    // The paranoid composite layers every deception (spoofed quoted
    // TTLs, per-probe forking, egress hiding, silence) on top of the
    // stealing executor's arbitrary task interleaving; reports must
    // still be byte-identical at every worker count.
    let internet = generate(&InternetConfig::small(17));
    let paranoid = FaultScenario::ALL
        .iter()
        .find(|s| s.name() == "paranoid")
        .expect("paranoid scenario exists");
    let run = |jobs: usize| {
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            faults: paranoid.plan(),
            seed: 5,
            jobs,
            scheduling: Scheduling::Stealing,
            ..CampaignConfig::default()
        };
        Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
            .run()
            .report()
    };
    let serial = run(1);
    for jobs in [2, 4] {
        assert_eq!(
            serial,
            run(jobs),
            "paranoid stealing diverged at jobs={jobs}"
        );
    }
}

#[test]
fn incremental_snapshot_is_identical_across_worker_counts() {
    // The streaming builder ingests shard merges in vantage-point
    // order, so its per-phase delta rows and order-independent
    // checksum must land on the same values at every worker count,
    // under both schedulers, clean and hostile.
    let internet = generate(&InternetConfig::small(11));
    let hostile = FaultScenario::ALL
        .iter()
        .copied()
        .find(|s| s.name() == "hostile")
        .expect("hostile scenario exists");
    for faults in [FaultPlan::none(), hostile.plan()] {
        for scheduling in [Scheduling::VpBatches, Scheduling::Stealing] {
            let run = |jobs: usize| {
                let cfg = CampaignConfig {
                    hdn_threshold: 6,
                    faults: faults.clone(),
                    seed: 7,
                    jobs,
                    scheduling,
                    ..CampaignConfig::default()
                };
                Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
            };
            let serial = run(1);
            assert_eq!(serial.snapshot_deltas.len(), 2, "bootstrap + probe rows");
            for jobs in [2, 4] {
                let parallel = run(jobs);
                assert_eq!(
                    serial.snapshot_deltas, parallel.snapshot_deltas,
                    "delta rows diverged at jobs={jobs} ({scheduling:?})"
                );
                assert_eq!(
                    serial.snapshot_checksum, parallel.snapshot_checksum,
                    "snapshot checksum diverged at jobs={jobs} ({scheduling:?})"
                );
            }
        }
    }
}

#[test]
fn probe_accounting_matches_across_worker_counts() {
    let internet = generate(&InternetConfig::small(11));
    let run = |jobs: usize| {
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            faults: FaultPlan::with_loss(0.05).expect("valid loss"),
            seed: 7,
            jobs,
            ..CampaignConfig::default()
        };
        Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.probes, b.probes);
    assert_eq!(a.probes_by_vp, b.probes_by_vp);
    assert_eq!(a.trace_vps, b.trace_vps);
    assert_eq!(
        a.tunnels().count(),
        b.tunnels().count(),
        "revealed tunnel count must not depend on the worker count"
    );
}
