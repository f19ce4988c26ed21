//! `perfbench`: the end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench selftest [--seed <n>]      quick-scale smoke + gate self-test
//! perfbench gate-matrix                the gate at seeds 8, 9 (thousandfold)
//!                                      and 8, 9, 1234 (tenfold), clean + hostile
//! perfbench known-defects              whether table4's known panics still occur
//! ```
//!
//! A run prints every metric with its unit, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. `child-cold` and `serve` are the
//! subcommands the benchmark re-invokes itself with.

mod cold;
mod gate;
mod layers;
mod report;
mod sys;
mod warm;

use layers::{Seeds, SUBSTRATE_SEED};
use report::{Outcome, E2E, LAYER};
use std::process::ExitCode;
use wormhole::experiments::Scale;
use wormhole::net::FaultScenario;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Cold,
    WarmCampaign,
    WarmTrace,
}

/// The workloads: name, kind, scale and fault scenario.
const WORKLOADS: [(&str, Kind, Scale, FaultScenario); 3] = [
    (
        "cold_thousandfold",
        Kind::Cold,
        Scale::ThousandFold,
        FaultScenario::Clean,
    ),
    (
        "warm_tenfold_hostile",
        Kind::WarmCampaign,
        Scale::Tenfold,
        FaultScenario::Hostile,
    ),
    (
        "warm_trace_tenfold",
        Kind::WarmTrace,
        Scale::Tenfold,
        FaultScenario::Clean,
    ),
];

/// Timed server starts per warm run (`setup_s` is their median).
const WARM_SETUPS: usize = 7;

fn run_workload(
    kind: Kind,
    scale: Scale,
    faults: FaultScenario,
    seed: u64,
    secs: f64,
    traced: bool,
) -> Outcome {
    let seeds = Seeds {
        substrate: SUBSTRATE_SEED,
        draw: seed,
    };
    let run = std::panic::catch_unwind(|| match kind {
        Kind::Cold => cold::run(scale, seed, secs, traced),
        Kind::WarmCampaign => warm::run_campaign(scale, faults, seeds, secs, traced, WARM_SETUPS),
        Kind::WarmTrace => warm::run_trace(scale, seeds, secs, traced, WARM_SETUPS),
    });
    run.unwrap_or_else(|_| {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.fail("the benchmark panicked");
        out
    })
}

/// The value following `--key`.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench selftest [--seed <n>] | gate-matrix | known-defects",
        WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = opt(&args, "--seed").map(str::parse::<u64>);
    match args.first().map(String::as_str) {
        Some("child-cold") => {
            let (Some(scale), Some(Ok(seed))) =
                (opt(&args, "--scale").and_then(Scale::parse), seed)
            else {
                return usage("child-cold needs --scale and --seed");
            };
            cold::child_main(scale, seed)
        }
        Some("serve") => {
            let (Some(socket), Some(Ok(seed))) = (opt(&args, "--socket"), seed) else {
                return usage("serve needs --socket and --seed");
            };
            match warm::server_main(socket.into(), seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("selftest") => selftest(seed.and_then(Result::ok).unwrap_or(8)),
        Some("gate-matrix") => gate_matrix(),
        Some("known-defects") => {
            cold::known_defects().iter().for_each(|l| println!("{l}"));
            ExitCode::SUCCESS
        }
        _ => {
            let Some(&(_, kind, scale, faults)) =
                opt(&args, "--workload").and_then(|w| WORKLOADS.iter().find(|(n, ..)| *n == w))
            else {
                return usage("unknown or missing --workload");
            };
            let Some(Ok(seed)) = seed else {
                return usage("--seed needs a whole number");
            };
            let Some(Ok(secs)) = opt(&args, "--seconds").map(str::parse::<f64>) else {
                return usage("--seconds needs a number");
            };
            let traced = match opt(&args, "--trace") {
                Some("1") => true,
                Some("0") | None => false,
                Some(_) => return usage("--trace is 0 or 1"),
            };
            let out = run_workload(kind, scale, faults, seed, secs, traced);
            out.print(traced);
            ExitCode::SUCCESS
        }
    }
}

/// Every workload end to end at the quick scale, traced and untraced,
/// and the gate's rejection of a corrupted and a foreign report.
fn selftest(seed: u64) -> ExitCode {
    let mut ok = true;
    if let Ok(spec) = std::fs::read_to_string("BENCHMARK.json") {
        for (name, unit) in E2E.iter().chain(LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            if !spec.contains(&entry) {
                println!("selftest FAIL: BENCHMARK.json lacks {entry}");
                ok = false;
            }
        }
    }
    for &(name, kind, _, faults) in &WORKLOADS {
        for traced in [false, true] {
            let out = run_workload(kind, Scale::Quick, faults, seed, 1.0, traced);
            let catalogue: &[(&str, &str)] = if traced { &LAYER } else { &E2E };
            let missing: Vec<&str> = catalogue
                .iter()
                .filter(|(n, _)| {
                    let m = if traced { &out.layer } else { &out.e2e };
                    !m.iter().any(|m| m.name == *n && m.value.is_finite())
                })
                .map(|(n, _)| *n)
                .collect();
            let pass = out.correct() && missing.is_empty();
            ok &= pass;
            println!(
                "selftest {}: {name} at quick scale, trace={}: {} attempted, {} failed, \
                 missing {missing:?}, problems {:?}",
                if pass { "ok" } else { "FAIL" },
                u8::from(traced),
                out.attempted,
                out.failed,
                out.problems
            );
        }
    }
    match cold::gate_rejects(Scale::Quick, seed) {
        Ok(()) => println!(
            "selftest ok: the gate rejects a corrupted report and seed {}'s report",
            seed + 1
        ),
        Err(e) => {
            ok = false;
            println!("selftest FAIL: {e}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The gate at the seeds and scales it was verified on: every check a
/// warm run makes (audit, AS containment, adjacency, jobs 1 vs 2,
/// serve report and trace frames vs in-process), clean and hostile.
fn gate_matrix() -> ExitCode {
    let mut ok = true;
    for (scale, seeds) in [
        (Scale::Tenfold, &[8u64, 9, 1234][..]),
        (Scale::ThousandFold, &[8, 9]),
    ] {
        for &seed in seeds {
            let seeds = Seeds {
                substrate: seed,
                draw: seed,
            };
            for faults in [FaultScenario::Clean, FaultScenario::Hostile] {
                let out = warm::run_campaign(scale, faults, seeds, 0.0, false, 1);
                ok &= out.correct();
                println!(
                    "gate-matrix {}: {} seed {seed} {} campaign: {:?}",
                    if out.correct() { "ok" } else { "FAIL" },
                    scale.name(),
                    faults.name(),
                    out.problems
                );
            }
            let out = warm::run_trace(scale, seeds, 0.2, false, 1);
            ok &= out.correct();
            println!(
                "gate-matrix {}: {} seed {seed} trace frames ({} requests): {:?}",
                if out.correct() { "ok" } else { "FAIL" },
                scale.name(),
                out.attempted,
                out.problems
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
