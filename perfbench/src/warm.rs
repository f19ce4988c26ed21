//! The warm workloads: closed loops of requests over one connection to
//! a resident `wormhole-serve` process that holds the substrate.
//!
//! The server is this benchmark's own executable re-invoked as
//! `serve`, which runs `wormhole_serve::Server` unchanged; the load
//! generator is one thread with one `wormhole_serve::Client`.

use crate::gate::check_report;
use crate::layers::{
    engine_metrics, expected_traces, finish, inproc_campaign_s, shares, substrate_metrics,
    trace_pool, walk_metrics, ExpectedTrace, Reference, Seeds, TraceCounts, Tracer, SUBSTRATE_SEED,
};
use crate::report::{latency_line, ratio, Outcome, Samples};
use crate::sys::status_kb;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wormhole::core::Scheduling;
use wormhole::experiments::{campaign_config_for, campaign_over, internet_for, Scale};
use wormhole::net::FaultScenario;
use wormhole::serve::proto::{bool_field, num_field, str_field};
use wormhole::serve::{Client, ServeConfig, Server};

/// How many `(vp, dst)` pairs a trace workload cycles through.
const POOL: usize = 4096;

/// The `serve` subcommand: run the resident server until a `shutdown`
/// request arrives.
pub fn server_main(socket: PathBuf, seed: u64) -> std::io::Result<()> {
    let cfg = ServeConfig {
        socket,
        history: 16,
        seed,
    };
    std::sync::Arc::new(Server::new(cfg)).run()
}

/// A running server process. Dropping it stops the process and waits
/// for it.
struct ServerProc {
    child: Child,
    socket: PathBuf,
    shutdown_sent: bool,
}

impl ServerProc {
    /// Spawns a server and connects to it.
    fn start(seed: u64) -> Result<(ServerProc, Client), String> {
        static STARTS: AtomicUsize = AtomicUsize::new(0);
        let n = STARTS.fetch_add(1, Ordering::Relaxed);
        // Relative, so the path stays short whatever the checkout path.
        let socket = PathBuf::from(format!(".perfbench-{}-{n}.sock", std::process::id()));
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let child = Command::new(exe)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--seed")
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let mut proc = ServerProc {
            child,
            socket,
            shutdown_sent: false,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match Client::connect(&proc.socket) {
                Ok(c) => return Ok((proc, c)),
                Err(e) => {
                    if let Ok(Some(status)) = proc.child.try_wait() {
                        return Err(format!("server exited before accepting: {status}"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("server never accepted: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// The server's peak resident set, in MB.
    fn peak_rss_mb(&self) -> f64 {
        status_kb(Some(self.child.id()), "VmHWM").unwrap_or(0) as f64 / 1024.0
    }

    fn stop(mut self, mut client: Client) {
        self.shutdown_sent = client.shutdown().is_ok();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.shutdown_sent {
            for _ in 0..500 {
                if matches!(self.child.try_wait(), Ok(Some(_))) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Checks one response; returns the simulated probes it carried.
type Check<'a> = dyn Fn(usize, &[String], bool) -> Result<u64, String> + 'a;

/// What a closed loop measured.
#[derive(Debug, Default)]
struct LoopStats {
    lat: Samples,
    wall_s: f64,
    probes: u64,
    frames: u64,
    bytes: u64,
}

impl LoopStats {
    fn per_req(&self, total: u64) -> f64 {
        ratio(total as f64, self.lat.len() as f64)
    }
}

/// Sends `reqs` in order, cyclically, each after the previous reply,
/// for `secs` seconds (at least one request). With a tracer every
/// request is recorded as a span.
fn closed_loop(
    client: &mut Client,
    reqs: &[String],
    secs: f64,
    check: &Check<'_>,
    out: &mut Outcome,
    mut tr: Option<&mut Tracer>,
) -> LoopStats {
    let mut st = LoopStats::default();
    let parent = tr.as_mut().map(|t| t.open("bench.loop", None));
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed().as_secs_f64() < secs {
        let k = i % reqs.len();
        let t = Instant::now();
        let span_start = tr.as_ref().map(|t| t.now());
        let res = client.request(&reqs[k]);
        let lat = t.elapsed().as_secs_f64();
        if let (Some(t), Some(s)) = (tr.as_mut(), span_start) {
            t.record("serve.request", parent, s, s + lat);
        }
        st.lat.push(lat);
        out.attempted += 1;
        match res {
            Ok(frames) => {
                st.frames += frames.len() as u64;
                st.bytes += frames.iter().map(|f| 4 + f.len() as u64).sum::<u64>();
                match check(k, &frames, true) {
                    Ok(p) => st.probes += p,
                    Err(e) => out.fail(e),
                }
            }
            Err(e) => out.fail(format!("request failed: {e}")),
        }
        i += 1;
    }
    st.wall_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(p)) = (tr, parent) {
        t.close(p);
    }
    st
}

/// Starts the server `setups` times, timing each start until its
/// first (cold-substrate) response to `reqs[0]` completes, and keeps
/// the last one running.
fn start_servers(
    seed: u64,
    setups: usize,
    reqs: &[String],
    check: &Check<'_>,
    out: &mut Outcome,
) -> Result<(ServerProc, Client, Samples), String> {
    let mut samples = Samples::default();
    for k in 0..setups.max(1) {
        let t = Instant::now();
        let (proc, mut client) = ServerProc::start(seed)?;
        let res = client.request(&reqs[0]);
        samples.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match res {
            Ok(frames) => {
                if let Err(e) = check(0, &frames, false) {
                    out.fail(format!("first response: {e}"));
                }
            }
            Err(e) => out.fail(format!("first request failed: {e}")),
        }
        if k + 1 == setups.max(1) {
            return Ok((proc, client, samples));
        }
        proc.stop(client);
    }
    unreachable!("the loop returns on its last start")
}

/// The end-to-end metrics of a warm run.
fn warm_e2e(out: &mut Outcome, setup: &Samples, st: &LoopStats, rss_mb: f64) {
    let p90 = st.lat.percentile(90.0);
    out.e2e("setup_s", setup.median());
    out.e2e("req_p90_ms", p90 * 1e3);
    out.e2e("probes_per_s", ratio(st.per_req(st.probes), p90));
    out.e2e("peak_rss_mb", rss_mb);
    out.note(latency_line(
        "requests",
        &st.lat,
        st.lat.len() as f64 / st.wall_s,
    ));
    out.note(format!(
        "setup: n={} median {:.4} s",
        setup.len(),
        setup.median()
    ));
}

/// Runs the timed loop, split into an untraced and a traced half when
/// tracing; records the end-to-end metrics (of the untraced loop) and
/// the tracing overhead. Returns the loop whose shape the per-layer
/// metrics describe.
#[allow(clippy::too_many_arguments)]
fn timed_loops(
    client: &mut Client,
    reqs: &[String],
    secs: f64,
    check: &Check<'_>,
    out: &mut Outcome,
    tr: &mut Tracer,
    traced: bool,
) -> (LoopStats, Option<LoopStats>) {
    if !traced {
        return (closed_loop(client, reqs, secs, check, out, None), None);
    }
    let plain = closed_loop(client, reqs, secs / 2.0, check, out, None);
    let spanned = closed_loop(client, reqs, secs / 2.0, check, out, Some(tr));
    let (a, b) = (plain.lat.median(), spanned.lat.median());
    out.layer("bench.untraced_req_p50_ms", a * 1e3);
    out.layer("bench.traced_req_p50_ms", b * 1e3);
    out.layer("bench.trace_overhead", ratio(b - a, a));
    (plain, Some(spanned))
}

/// `warm_tenfold_hostile` (and its quick-scale smoke): streamed
/// campaign requests to a resident server.
pub fn run_campaign(
    scale: Scale,
    faults: FaultScenario,
    seeds: Seeds,
    secs: f64,
    traced: bool,
    setups: usize,
) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let build = traced.then(|| substrate_metrics(scale, seeds.substrate, &mut out, &mut tr));
    let internet = internet_for(scale, seeds.substrate);
    let cfg = campaign_config_for(scale, 1, faults, Scheduling::VpBatches);
    let reference = match Reference::run(internet, &cfg, true, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("reference campaign: {e}"));
            return out;
        }
    };
    // jobs 1 and jobs 2 must agree byte for byte, and their audits as
    // an order-free multiset.
    let cfg2 = campaign_config_for(scale, 2, faults, Scheduling::VpBatches);
    let r2 = campaign_over(&reference.internet, &cfg2, &mut wormhole::probe::NullSink);
    if let Err(e) = check_report(&reference.report, r2.report().text()) {
        out.problem(format!("jobs 2 vs jobs 1: {e}"));
    }
    match crate::gate::check_result(&reference.internet, &r2) {
        Ok(f) if f.findings == reference.facts.findings => {}
        Ok(_) => out.problem("jobs 2 audit findings differ from jobs 1 as a multiset"),
        Err(e) => out.problem(format!("jobs 2 result: {e}")),
    }
    drop(r2);

    let reqs = vec![format!(
        "{{\"cmd\":\"campaign\",\"scale\":\"{}\",\"faults\":\"{}\",\"stream\":true}}",
        scale.name(),
        faults.name()
    )];
    let check = |_: usize, frames: &[String], warm: bool| -> Result<u64, String> {
        let (Some(first), Some(last)) = (frames.first(), frames.last()) else {
            return Err("empty response".into());
        };
        if str_field(first, "type").as_deref() != Some("start") {
            return Err(format!("first frame is not start: {first:.200}"));
        }
        if bool_field(first, "warm") != Some(warm) {
            return Err(format!("start frame warm flag is not {warm}"));
        }
        if str_field(last, "type").as_deref() != Some("report") {
            return Err(format!("last frame is not a report: {last:.200}"));
        }
        let body = &frames[1..frames.len() - 1];
        if body != reference.frames.as_slice() {
            let at = body
                .iter()
                .zip(&reference.frames)
                .position(|(a, b)| a != b)
                .unwrap_or(body.len().min(reference.frames.len()));
            return Err(format!(
                "streamed frame {at} differs ({} streamed, {} expected)",
                body.len(),
                reference.frames.len()
            ));
        }
        let report = str_field(last, "report").ok_or("report frame without report")?;
        check_report(&reference.report, &report)?;
        let probes = num_field(last, "probes").unwrap_or(-1.0);
        if probes != reference.result.probes as f64 {
            return Err(format!(
                "report frame probes {probes} != {}",
                reference.result.probes
            ));
        }
        Ok(reference.result.probes)
    };
    let (server, mut client, setup) =
        match start_servers(seeds.substrate, setups, &reqs, &check, &mut out) {
            Ok(v) => v,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
    let (plain, spanned) = timed_loops(&mut client, &reqs, secs, &check, &mut out, &mut tr, traced);
    let rss = server.peak_rss_mb();
    server.stop(client);
    warm_e2e(&mut out, &setup, &plain, rss);

    if let (Some(build), Some(spanned)) = (build, spanned) {
        reference.layer_metrics(&mut out);
        engine_metrics(&reference.result.engine_stats, &mut out);
        let mut counts = TraceCounts::default();
        reference.result.traces.iter().for_each(|t| counts.add(t));
        counts.metrics(&mut out);
        let pool = trace_pool(&reference.result, seeds.draw, POOL);
        let (_, trace_s, _, _) = expected_traces(&reference.internet, &pool);
        out.layer("probe.trace_us", ratio(trace_s, pool.len() as f64) * 1e6);
        walk_metrics(&reference.internet, &mut out);
        let table4_s = crate::cold::table4_seconds(scale, &mut out);
        out.layer("experiments.table4_s", table4_s);
        // The serve layer's own cost: request latency minus the
        // in-process time of the same campaign, frames and report.
        let inproc = inproc_campaign_s(&reference.internet, &cfg, 5);
        let overhead = spanned.lat.median() - inproc;
        out.layer("serve.overhead_ms", overhead * 1e3);
        out.layer("serve.frames_per_req", spanned.per_req(spanned.frames));
        out.layer("serve.bytes_per_req", spanned.per_req(spanned.bytes));
        let overhead = overhead.max(0.0);
        let total = overhead + reference.campaign_s + reference.report_s;
        shares(
            &mut out,
            &[
                ("share.campaign", reference.campaign_s / total),
                ("share.report", reference.report_s / total),
                ("share.serve", overhead / total),
            ],
        );
        out.note(format!(
            "off the request path (set-up only): topology {:.4} s, plane build {:.4} s, lint {:.4} s",
            build.topology_s, build.plane_build_s, build.check_s
        ));
    }
    finish(&mut out, &tr, traced);
    out
}

/// Everything a trace workload compares against: the reference
/// campaign, the drawn pairs, and their in-process answers.
pub struct TracePlan {
    pub reference: Reference,
    substrate: u64,
    pool: Vec<(usize, wormhole::net::Addr)>,
    expected: Vec<ExpectedTrace>,
    inproc_s: f64,
    counts: TraceCounts,
    stats: wormhole::net::EngineStats,
    reqs: Vec<String>,
}

impl TracePlan {
    /// Builds the substrate in-process, runs the clean reference
    /// campaign, and draws the pool from the addresses that answered.
    pub fn new(scale: Scale, seeds: Seeds, tr: &mut Tracer) -> Result<TracePlan, String> {
        let internet = internet_for(scale, seeds.substrate);
        let cfg = campaign_config_for(scale, 1, FaultScenario::Clean, Scheduling::VpBatches);
        let reference = Reference::run(internet, &cfg, false, tr)?;
        let pool = trace_pool(&reference.result, seeds.draw, POOL);
        if pool.is_empty() {
            return Err("the reference campaign had no answering address".into());
        }
        let (expected, inproc_s, counts, stats) = expected_traces(&reference.internet, &pool);
        let reqs = pool
            .iter()
            .map(|(vp, dst)| {
                format!(
                    "{{\"cmd\":\"trace\",\"scale\":\"{}\",\"vp\":{vp},\"dst\":\"{dst}\"}}",
                    scale.name()
                )
            })
            .collect();
        Ok(TracePlan {
            reference,
            substrate: seeds.substrate,
            pool,
            expected,
            inproc_s,
            counts,
            stats,
            reqs,
        })
    }

    fn check(&self, k: usize, frames: &[String], warm: bool) -> Result<u64, String> {
        let want = &self.expected[k];
        let [trace, done] = frames else {
            return Err(format!(
                "trace response has {} frames, expected 2",
                frames.len()
            ));
        };
        if *trace != want.frame {
            return Err(format!(
                "trace frame for {:?} differs from the in-process Session::traceroute",
                self.pool[k]
            ));
        }
        if str_field(done, "type").as_deref() != Some("done")
            || bool_field(done, "warm") != Some(warm)
            || num_field(done, "probes") != Some(want.probes as f64)
        {
            return Err(format!("unexpected done frame: {done:.200}"));
        }
        Ok(want.probes)
    }

    /// The in-process seconds of one trace, on average.
    fn inproc_per_trace(&self) -> f64 {
        self.inproc_s / self.pool.len() as f64
    }

    /// Runs the serve loop: `setups` timed server starts, then the
    /// closed loop. Returns the untraced and traced loop statistics
    /// and the server's set-up samples and peak RSS.
    fn serve(
        &self,
        secs: f64,
        setups: usize,
        out: &mut Outcome,
        tr: &mut Tracer,
        traced: bool,
    ) -> Option<(Samples, LoopStats, Option<LoopStats>, f64)> {
        let check = |k: usize, f: &[String], warm: bool| self.check(k, f, warm);
        let (server, mut client, setup) =
            match start_servers(self.substrate, setups, &self.reqs, &check, out) {
                Ok(v) => v,
                Err(e) => {
                    out.fail(e);
                    return None;
                }
            };
        let (plain, spanned) = timed_loops(&mut client, &self.reqs, secs, &check, out, tr, traced);
        let rss = server.peak_rss_mb();
        server.stop(client);
        Some((setup, plain, spanned, rss))
    }

    /// The serve-layer metrics of a traced loop over this plan.
    fn serve_metrics(&self, spanned: &LoopStats, out: &mut Outcome) -> f64 {
        let overhead = spanned.lat.median() - self.inproc_per_trace();
        out.layer("serve.overhead_ms", overhead * 1e3);
        out.layer("serve.frames_per_req", spanned.per_req(spanned.frames));
        out.layer("serve.bytes_per_req", spanned.per_req(spanned.bytes));
        overhead.max(0.0)
    }
}

/// `warm_trace_tenfold` (and its quick-scale smoke): single trace
/// requests to a resident server.
pub fn run_trace(scale: Scale, seeds: Seeds, secs: f64, traced: bool, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let build = traced.then(|| substrate_metrics(scale, seeds.substrate, &mut out, &mut tr));
    let plan = match TracePlan::new(scale, seeds, &mut tr) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("reference: {e}"));
            return out;
        }
    };
    let Some((setup, plain, spanned, rss)) = plan.serve(secs, setups, &mut out, &mut tr, traced)
    else {
        return out;
    };
    warm_e2e(&mut out, &setup, &plain, rss);
    if let (Some(build), Some(spanned)) = (build, spanned) {
        plan.reference.layer_metrics(&mut out);
        engine_metrics(&plan.stats, &mut out);
        plan.counts.metrics(&mut out);
        let per_trace = plan.inproc_per_trace();
        out.layer("probe.trace_us", per_trace * 1e6);
        walk_metrics(&plan.reference.internet, &mut out);
        let table4_s = crate::cold::table4_seconds(scale, &mut out);
        out.layer("experiments.table4_s", table4_s);
        let overhead = plan.serve_metrics(&spanned, &mut out);
        let total = overhead + per_trace;
        shares(
            &mut out,
            &[
                ("share.trace", per_trace / total),
                ("share.serve", overhead / total),
            ],
        );
        out.note(format!(
            "off the request path (set-up only): topology {:.4} s, plane build {:.4} s, lint {:.4} s",
            build.topology_s, build.plane_build_s, build.check_s
        ));
    }
    finish(&mut out, &tr, traced);
    out
}

/// Serve-layer metrics for a workload whose path has no server: a
/// short trace loop at the quick scale.
pub fn side_serve_metrics(draw: u64, out: &mut Outcome) {
    let mut tr = Tracer::default();
    let seeds = Seeds {
        substrate: SUBSTRATE_SEED,
        draw,
    };
    match TracePlan::new(Scale::Quick, seeds, &mut tr) {
        Ok(plan) => {
            if let Some((_, plain, _, _)) = plan.serve(0.3, 1, out, &mut tr, false) {
                plan.serve_metrics(&plain, out);
            }
        }
        Err(e) => out.fail(format!("quick serve reference: {e}")),
    }
}
