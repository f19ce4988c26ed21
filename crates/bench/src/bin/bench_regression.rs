//! `bench-regression` — re-measure campaign and engine throughput and
//! fail when any run regresses more than 20% against the committed
//! `BENCH_campaign.json` / `BENCH_engine.json` baselines.
//!
//! ```text
//! bench-regression            compare fresh numbers to the baselines
//! bench-regression --write    refresh the baselines in place
//! ```
//!
//! Wall times are gated too: each scale's substrate build (topology
//! plus control plane), its lint-before-simulate pass
//! (`lint::check_internet`) and each run's post-merge analysis may not
//! grow more than 20% over the baseline, above a small absolute slack.
//!
//! The gate also fails when any recording-off packet walk — at either
//! scale — performs a heap allocation, regardless of throughput: the
//! allocation-free walk is an invariant, not a number that may drift.

use std::process::ExitCode;
use wormhole_bench::measure;
use wormhole_topo::InternetConfig;

/// Largest tolerated throughput drop versus a committed baseline.
const MAX_REGRESSION: f64 = 0.20;

/// Absolute slack under which the wall-time gates never fire: at
/// sub-10ms the signal is scheduler noise, not a regression.
const TIME_SLACK_SECONDS: f64 = 0.010;

fn check(name: &str, baseline: f64, fresh: f64, failures: &mut Vec<String>) {
    let floor = baseline * (1.0 - MAX_REGRESSION);
    if fresh < floor {
        failures.push(format!(
            "{name}: {fresh:.0} probes/sec is below {floor:.0} (80% of the committed \
             {baseline:.0})"
        ));
    } else {
        println!("ok {name}: {fresh:.0} probes/sec vs committed {baseline:.0}");
    }
}

/// Wall-time gate: `what` seconds may not grow more than 20% over the
/// committed baseline, with an absolute slack floor so
/// microsecond-scale rows on small runs never flap. Guards the
/// incremental-aggregation analysis time, the substrate build and the
/// lint pass.
fn check_seconds(name: &str, what: &str, baseline: f64, fresh: f64, failures: &mut Vec<String>) {
    let ceiling = baseline * (1.0 + MAX_REGRESSION) + TIME_SLACK_SECONDS;
    if fresh > ceiling {
        failures.push(format!(
            "{name}: {what} {fresh:.3}s exceeds {ceiling:.3}s (120% of the committed \
             {baseline:.3}s plus {TIME_SLACK_SECONDS:.3}s slack)"
        ));
    } else {
        println!("ok {name}: {what} {fresh:.3}s vs committed {baseline:.3}s");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write");

    let (tenfold, tenfold_build) = measure::generate_timed(&InternetConfig::tenfold(8));
    let (thousandfold, thousandfold_build) =
        measure::generate_timed(&InternetConfig::thousandfold(8));
    let scales = vec![
        measure::measure_scale("tenfold", &tenfold, tenfold_build, measure::TENFOLD_MATRIX),
        measure::measure_scale(
            "thousandfold",
            &thousandfold,
            thousandfold_build,
            measure::THOUSANDFOLD_MATRIX,
        ),
    ];
    let engine = measure::measure_engine(&tenfold, &thousandfold);

    for line in measure::summary_lines(&scales) {
        println!("{line}");
    }
    for s in &scales {
        println!("substrate build {}: {:.3}s", s.scale, s.build_seconds);
        println!("lint pass {}: {:.3}s", s.scale, s.lint_seconds);
    }
    for w in &engine.walks {
        println!(
            "engine {}: {:.0} probes/sec over {} probes ({} traces, {} routers), {} heap allocs",
            w.name, w.probes_per_sec, w.probes, w.traces, w.routers, w.heap_allocs
        );
    }
    println!(
        "plane build: {:.3}s serial, {:.3}s at {} workers",
        engine.plane_serial_seconds, engine.plane_parallel_seconds, engine.plane_jobs
    );

    if write {
        measure::write_baseline("BENCH_campaign.json", &measure::campaign_json(&scales));
        measure::write_baseline("BENCH_engine.json", &measure::engine_json(&engine));
        println!("baselines rewritten");
        return ExitCode::SUCCESS;
    }

    let mut failures = Vec::new();
    for w in &engine.walks {
        if w.heap_allocs != 0 {
            failures.push(format!(
                "recording-off {} touched the heap {} times (expected 0)",
                w.name, w.heap_allocs
            ));
        }
    }
    match measure::read_baseline("BENCH_campaign.json") {
        Some(json) => {
            for base in measure::parse_campaign_baseline(&json) {
                let name = format!(
                    "campaign {} jobs={} faults={} sched={}",
                    base.scale, base.jobs, base.faults, base.scheduling
                );
                let fresh = scales
                    .iter()
                    .filter(|s| s.scale == base.scale)
                    .flat_map(|s| &s.runs)
                    .find(|r| {
                        r.jobs == base.jobs
                            && r.faults == base.faults
                            && r.scheduling == base.scheduling
                    });
                match fresh {
                    Some(r) => {
                        check(&name, base.probes_per_sec, r.probes_per_sec, &mut failures);
                        if let Some(base_analysis) = base.analysis_seconds {
                            check_seconds(
                                &name,
                                "analysis",
                                base_analysis,
                                r.analysis_seconds,
                                &mut failures,
                            );
                        }
                    }
                    None => failures.push(format!(
                        "{name}: committed baseline has no fresh measurement — the run matrix \
                         shrank; refresh the baseline with --write if that was intended"
                    )),
                }
            }
            let mut gate_wall =
                |row: &str, what: &str, key: &str, fresh: fn(&measure::ScaleBench) -> f64| {
                    for (scale, base) in measure::parse_scale_seconds(&json, key) {
                        let name = format!("{row} {scale}");
                        match scales.iter().find(|s| s.scale == scale) {
                            Some(s) => check_seconds(&name, what, base, fresh(s), &mut failures),
                            None => failures.push(format!(
                                "{name}: committed baseline has no fresh measurement — the scale \
                             matrix shrank; refresh the baseline with --write if that was intended"
                            )),
                        }
                    }
                };
            gate_wall("substrate build", "build", "build_seconds", |s| {
                s.build_seconds
            });
            gate_wall("lint pass", "lint", "lint_seconds", |s| s.lint_seconds);
        }
        None => {
            failures.push("BENCH_campaign.json missing — commit a baseline via --write".to_string())
        }
    }
    match measure::read_baseline("BENCH_engine.json").as_deref() {
        Some(json) => {
            let rows = measure::parse_engine_baseline(json);
            if rows.is_empty() {
                failures.push(
                    "BENCH_engine.json has no walk entry — refresh it via --write".to_string(),
                );
            }
            for base in rows {
                let name = format!("engine {}", base.name);
                match engine.walks.iter().find(|w| w.name == base.name) {
                    Some(w) => check(&name, base.probes_per_sec, w.probes_per_sec, &mut failures),
                    None => failures.push(format!(
                        "{name}: committed baseline has no fresh measurement — the walk matrix \
                         shrank; refresh the baseline with --write if that was intended"
                    )),
                }
            }
        }
        None => {
            failures.push("BENCH_engine.json missing — commit a baseline via --write".to_string())
        }
    }

    if failures.is_empty() {
        println!(
            "bench-regression: all runs within {:.0}% of the baselines",
            MAX_REGRESSION * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        ExitCode::FAILURE
    }
}
