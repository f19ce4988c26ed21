//! Campaign-scale benchmarks: ITDK aggregation, the full §4 pipeline on
//! the reduced Internet, and serial-vs-parallel campaign throughput on
//! the tenfold (100 transit-AS) and thousandfold (1000 transit-AS)
//! Internets.
//!
//! The parallel section also writes `BENCH_campaign.json` at the repo
//! root via [`measure`]: probes/sec per `(scale, jobs, faults,
//! scheduling)` with the build/probe/merge breakdown, plus the
//! machine's core count so a single-core CI runner's flat numbers are
//! not mistaken for an executor regression. The `bench-regression`
//! binary replays the same matrix and gates on the committed file.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wormhole_bench::measure;
use wormhole_core::{Campaign, CampaignConfig, Scheduling};
use wormhole_net::{Addr, FaultScenario};
use wormhole_topo::{generate, InternetConfig, ItdkSnapshot, NodeInfo};

fn itdk_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("itdk");
    // Synthetic path set: 2,000 paths of 12 hops over a 4,096-address
    // space (deterministic xorshift).
    let mut x: u32 = 0x9E37_79B9;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let paths: Vec<Vec<Option<Addr>>> = (0..2_000)
        .map(|_| {
            (0..12)
                .map(|_| Some(Addr(0x0A00_0000 | (step() % 4096))))
                .collect()
        })
        .collect();
    group.bench_function("aggregate_2k_paths", |b| {
        b.iter(|| {
            black_box(ItdkSnapshot::build(&paths, |a| NodeInfo {
                key: u64::from(a.0),
                asn: None,
            }))
        })
    });
    group.finish();
}

fn campaign_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    let internet = generate(&InternetConfig::small(5));
    group.bench_function("full_pipeline_small_internet", |b| {
        b.iter(|| {
            let campaign = Campaign::new(
                &internet.net,
                &internet.cp,
                internet.vps.clone(),
                CampaignConfig {
                    hdn_threshold: 6,
                    ..CampaignConfig::default()
                },
            );
            black_box(campaign.run())
        })
    });
    group.finish();
}

fn campaign_parallel_bench(c: &mut Criterion) {
    let (internet, tenfold_build) = measure::generate_timed(&InternetConfig::tenfold(8));
    let mut group = c.benchmark_group("campaign_tenfold");
    group.sample_size(3);
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                black_box(measure::time_campaign(
                    &internet,
                    jobs,
                    FaultScenario::Clean,
                    Scheduling::VpBatches,
                ))
            })
        });
    }
    group.finish();

    // Emit BENCH_campaign.json from dedicated timed runs outside the
    // criterion harness: the full tenfold matrix (worker sweep, both
    // executors, hostile rows) plus the thousandfold completion proof,
    // each with its build/probe/merge breakdown.
    let (thousandfold, thousandfold_build) =
        measure::generate_timed(&InternetConfig::thousandfold(8));
    let scales = vec![
        measure::measure_scale("tenfold", &internet, tenfold_build, measure::TENFOLD_MATRIX),
        measure::measure_scale(
            "thousandfold",
            &thousandfold,
            thousandfold_build,
            measure::THOUSANDFOLD_MATRIX,
        ),
    ];
    for line in measure::summary_lines(&scales) {
        println!("{line}");
    }
    // No distributed/cache rows from here: the Criterion bench has no
    // worker binary of its own, and bench-regression owns those rows.
    measure::write_baseline("BENCH_campaign.json", &measure::campaign_json(&scales, &[]));
}

criterion_group!(benches, itdk_bench, campaign_bench, campaign_parallel_bench);
criterion_main!(benches);
