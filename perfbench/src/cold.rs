//! `cold_thousandfold`: every operation is a fresh process doing what
//! `wormhole-cli campaign thousandfold --jobs 2` does under the clean
//! scenario — `PaperContext::generate_full`, then `table4::run` — and
//! the user waits from process start until the table is rendered.

use crate::gate::{check_report, parse_lint_tally, snapshot_line};
use crate::layers::{
    engine_metrics, expected_traces, finish, shares, substrate_metrics, timed_internet_for,
    trace_pool, walk_metrics, Reference, TraceCounts, Tracer, SUBSTRATE_SEED,
};
use crate::report::{latency_line, ratio, Outcome, Samples};
use crate::sys::status_kb;
use crate::warm::side_serve_metrics;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use wormhole::core::Scheduling;
use wormhole::experiments::{campaign_config_for, table4, PaperContext, Scale};
use wormhole::net::wire::checksum;
use wormhole::net::FaultScenario;

/// The line a cold process prints once the table is rendered.
const RENDERED: &str = "perfbench: table rendered";
/// Prefix of the line carrying what the parent checks.
const RESULT: &str = "perfbench-child";
/// How many times a run times the cold set-up (`internet_for`).
const SETUPS: usize = 5;

/// The `child-cold` subcommand: one user-visible cold run, then the
/// facts the parent checks (after the rendered marker, so outside the
/// user's wait).
pub fn child_main(scale: Scale, seed: u64) -> ExitCode {
    let t0 = Instant::now();
    let ctx =
        PaperContext::generate_full(scale, seed, 2, FaultScenario::Clean, Scheduling::VpBatches);
    let generate_full_s = t0.elapsed().as_secs_f64();
    println!("{}", snapshot_line(&ctx.result));
    let t1 = Instant::now();
    let table = table4::run(&ctx);
    let table4_s = t1.elapsed().as_secs_f64();
    println!("{table}");
    println!("{RENDERED}");
    let t = &ctx.result.timings;
    println!(
        "{RESULT} checksum={} probes={} campaign_s={} hwm_kb={} generate_full_s={generate_full_s} \
         table4_s={table4_s}",
        checksum(ctx.result.report().text().as_bytes()),
        ctx.result.probes,
        t.probe_seconds + t.merge_seconds,
        status_kb(None, "VmHWM").unwrap_or(0),
    );
    ExitCode::SUCCESS
}

/// What every cold process must print, from the `jobs = 1` reference.
#[derive(Debug)]
pub struct Expect {
    pub checksum: u64,
    pub snapshot: String,
    pub tally: (usize, usize, usize),
}

/// One cold process, as the parent saw it.
#[derive(Debug, Default)]
struct ChildRun {
    wall_s: f64,
    probes: f64,
    campaign_s: f64,
    hwm_kb: f64,
    generate_full_s: f64,
    table4_s: f64,
}

/// The `key=value` field of the child's result line.
fn field(line: &str, key: &str) -> Option<f64> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Spawns one cold process and checks what it printed.
fn spawn_child(scale: Scale, seed: u64, expect: &Expect) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "child-cold",
            "--scale",
            scale.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a cold process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut run = ChildRun::default();
    let mut wall = None;
    let mut seen = (false, false, false);
    let mut problem = None;
    let mut checksum = None;
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if line == RENDERED {
            wall = Some(started.elapsed().as_secs_f64());
        } else if line.starts_with("snapshot: ") {
            seen.0 = true;
            if line != expect.snapshot {
                problem.get_or_insert(format!("snapshot line differs: {line}"));
            }
        } else if let Some(tally) = parse_lint_tally(&line) {
            seen.1 = true;
            if tally != expect.tally {
                problem.get_or_insert(format!(
                    "audit tally {tally:?} differs from the reference {:?}",
                    expect.tally
                ));
            }
        } else if line.starts_with("total revealed pairs") {
            seen.2 = true;
        } else if line.starts_with(RESULT) {
            checksum = line
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("checksum="))
                .and_then(|v| v.parse::<u64>().ok());
            run.probes = field(&line, "probes").unwrap_or(0.0);
            run.campaign_s = field(&line, "campaign_s").unwrap_or(0.0);
            run.hwm_kb = field(&line, "hwm_kb").unwrap_or(0.0);
            run.generate_full_s = field(&line, "generate_full_s").unwrap_or(0.0);
            run.table4_s = field(&line, "table4_s").unwrap_or(0.0);
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a cold process: {e}"))?;
    if !status.success() {
        return Err(format!("cold process failed: {status}"));
    }
    if let Some(p) = problem {
        return Err(p);
    }
    if seen != (true, true, true) {
        return Err(format!(
            "cold process output incomplete (snapshot, tally, table) = {seen:?}"
        ));
    }
    if checksum != Some(expect.checksum) {
        return Err(format!(
            "jobs-2 report checksum {checksum:?} differs from the jobs-1 reference {}",
            expect.checksum
        ));
    }
    run.wall_s = wall.ok_or("cold process never rendered the table")?;
    Ok(run)
}

/// What a loop of cold processes measured.
#[derive(Debug, Default)]
struct ColdLoop {
    wall: Samples,
    /// Simulated probes of one process (the same in every one).
    probes: f64,
    campaign_s: Samples,
    hwm_kb: Samples,
    table4: Samples,
    loop_s: f64,
}

/// Runs cold processes back to back for `secs` seconds (at least one).
/// With a tracer each process and its two timed calls become spans.
fn cold_loop(
    scale: Scale,
    secs: f64,
    expect: &Expect,
    out: &mut Outcome,
    mut tr: Option<&mut Tracer>,
) -> ColdLoop {
    let mut lp = ColdLoop::default();
    let started = Instant::now();
    let mut n = 0;
    while n == 0 || started.elapsed().as_secs_f64() < secs {
        n += 1;
        out.attempted += 1;
        let span_start = tr.as_ref().map(|t| t.now());
        match spawn_child(scale, SUBSTRATE_SEED, expect) {
            Ok(run) => {
                if let (Some(t), Some(s)) = (tr.as_mut(), span_start) {
                    let id = t.record("bench.cold_process", None, s, s + run.wall_s);
                    t.record(
                        "experiments.generate_full",
                        Some(id),
                        s,
                        s + run.generate_full_s,
                    );
                    let t4 = s + run.generate_full_s;
                    t.record("experiments.table4", Some(id), t4, t4 + run.table4_s);
                }
                lp.wall.push(run.wall_s);
                lp.probes = run.probes;
                lp.campaign_s.push(run.campaign_s);
                lp.hwm_kb.push(run.hwm_kb);
                lp.table4.push(run.table4_s);
            }
            Err(e) => out.fail(e),
        }
    }
    lp.loop_s = started.elapsed().as_secs_f64();
    lp
}

/// `experiments.table4_s` for workloads whose path does not render the
/// table: one cold process at `scale`, checked like any other.
pub fn table4_seconds(scale: Scale, out: &mut Outcome) -> f64 {
    let mut tr = Tracer::default();
    let (_, internet) = timed_internet_for(scale, SUBSTRATE_SEED, 1);
    let cfg = campaign_config_for(scale, 1, FaultScenario::Clean, Scheduling::VpBatches);
    match Reference::run(internet, &cfg, false, &mut tr) {
        Ok(r) => {
            let expect = expect_of(&r);
            drop(r);
            cold_loop(scale, 0.0, &expect, out, None).table4.median()
        }
        Err(e) => {
            out.fail(format!("clean reference at {}: {e}", scale.name()));
            0.0
        }
    }
}

fn expect_of(r: &Reference) -> Expect {
    Expect {
        checksum: checksum(r.report.as_bytes()),
        snapshot: snapshot_line(&r.result),
        tally: (r.facts.errors, r.facts.warnings, r.facts.infos),
    }
}

/// The cold workload at `scale` (thousandfold; quick in the smoke). The
/// substrate is [`SUBSTRATE_SEED`]'s, as in `wormhole-cli campaign`;
/// `draw` seeds the traced run's trace pool and side server.
pub fn run(scale: Scale, draw: u64, secs: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let build = traced.then(|| substrate_metrics(scale, SUBSTRATE_SEED, &mut out, &mut tr));
    let (setup_s, internet) = timed_internet_for(scale, SUBSTRATE_SEED, SETUPS);
    let cfg = campaign_config_for(scale, 1, FaultScenario::Clean, Scheduling::VpBatches);
    let reference = match Reference::run(internet, &cfg, false, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("reference campaign: {e}"));
            return out;
        }
    };
    let expect = expect_of(&reference);
    if traced {
        reference.layer_metrics(&mut out);
        engine_metrics(&reference.result.engine_stats, &mut out);
        let mut counts = TraceCounts::default();
        reference.result.traces.iter().for_each(|t| counts.add(t));
        counts.metrics(&mut out);
        let pool = trace_pool(&reference.result, draw, 4096);
        let (_, trace_s, _, _) = expected_traces(&reference.internet, &pool);
        out.layer("probe.trace_us", ratio(trace_s, pool.len() as f64) * 1e6);
        walk_metrics(&reference.internet, &mut out);
    }
    let (campaign_s, audit_s) = (reference.campaign_s, reference.facts.audit_s);
    // The cold processes need the memory the reference holds.
    drop(reference);
    if traced {
        // No server is on this path; the serve layer is measured on
        // the side so every layer reports.
        side_serve_metrics(draw, &mut out);
    }

    let half = if traced { secs / 2.0 } else { secs };
    let plain = cold_loop(scale, half, &expect, &mut out, None);
    out.e2e("setup_s", setup_s.median());
    out.e2e("req_p90_ms", plain.wall.percentile(90.0) * 1e3);
    out.e2e(
        "probes_per_s",
        ratio(plain.probes, plain.campaign_s.percentile(90.0)),
    );
    out.e2e("peak_rss_mb", plain.hwm_kb.median() / 1024.0);
    out.note(latency_line(
        "wall_s (process start to rendered table)",
        &plain.wall,
        plain.wall.len() as f64 / plain.loop_s,
    ));
    out.note(format!(
        "setup (internet_for): n={} median {:.4} s",
        setup_s.len(),
        setup_s.median()
    ));

    if let Some(build) = build {
        let spanned = cold_loop(scale, half, &expect, &mut out, Some(&mut tr));
        let (a, b) = (plain.wall.median(), spanned.wall.median());
        out.layer("bench.untraced_req_p50_ms", a * 1e3);
        out.layer("bench.traced_req_p50_ms", b * 1e3);
        out.layer("bench.trace_overhead", ratio(b - a, a));
        let table4_s = spanned.table4.median();
        out.layer("experiments.table4_s", table4_s);
        // The blocking steps of one cold run, from the traced pass
        // (campaign at jobs 1) and the traced processes (table4).
        let steps = [
            ("share.topology", build.topology_s),
            ("share.plane_build", build.plane_build_s),
            ("share.lint", build.check_s + audit_s),
            ("share.campaign", campaign_s),
            ("share.table4", table4_s),
        ];
        let total: f64 = steps.iter().map(|(_, v)| v).sum();
        let on_path: Vec<(&'static str, f64)> =
            steps.iter().map(|&(n, v)| (n, ratio(v, total))).collect();
        shares(&mut out, &on_path);
    }
    finish(&mut out, &tr, traced);
    out
}

/// The gate's negative self-test on a cold reference: a corrupted
/// report and a report from another seed must both be rejected.
pub fn gate_rejects(scale: Scale, seed: u64) -> Result<(), String> {
    let mut tr = Tracer::default();
    let cfg = campaign_config_for(scale, 1, FaultScenario::Clean, Scheduling::VpBatches);
    let (_, a) = timed_internet_for(scale, seed, 1);
    let a = Reference::run(a, &cfg, false, &mut tr)?;
    let (_, b) = timed_internet_for(scale, seed + 1, 1);
    let b = Reference::run(b, &cfg, false, &mut tr)?;
    let mut corrupted = a.report.clone().into_bytes();
    let mid = corrupted.len() / 2;
    corrupted[mid] = if corrupted[mid] == b'7' { b'8' } else { b'7' };
    let corrupted = String::from_utf8(corrupted).map_err(|e| e.to_string())?;
    if check_report(&a.report, &corrupted).is_ok() {
        return Err("the gate accepted a corrupted report".into());
    }
    if check_report(&a.report, &b.report).is_ok() {
        return Err(format!(
            "the gate accepted seed {}'s report for seed {seed}",
            seed + 1
        ));
    }
    if checksum(corrupted.as_bytes()) == checksum(a.report.as_bytes()) {
        return Err("the cold checksum does not see a corrupted report".into());
    }
    if check_report(&a.report, &a.report).is_err() {
        return Err("the gate rejected the reference itself".into());
    }
    Ok(())
}

/// Whether `table4::run`'s paper-shape assertions still panic on the
/// thousandfold substrates where they were found to (seeds 4 and 16 of
/// 0–29): one line per seed.
pub fn known_defects() -> Vec<String> {
    let expect = Expect {
        checksum: 0,
        snapshot: String::new(),
        tally: (0, 0, 0),
    };
    [4u64, 16]
        .iter()
        .map(|&seed| {
            let verdict = match spawn_child(Scale::ThousandFold, seed, &expect) {
                Err(e) if e.starts_with("cold process failed") => "still panics",
                _ => "no longer panics",
            };
            format!("thousandfold seed {seed}: table4::run {verdict}")
        })
        .collect()
}
