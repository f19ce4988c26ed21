//! The in-process half of every run: the reference campaign the gate
//! compares against, and — in traced runs — spans around each call
//! into a layer plus the counters the layers already expose.
//!
//! Spans are recorded here, around public calls, never inside the
//! program. The campaign is split at the boundaries its public
//! [`TraceSink`] callbacks mark: the run starts, `on_phase("probe")`
//! fires after bootstrap and the probe phase, `on_stats` after
//! fingerprinting and revelation, and the call returns.

use crate::gate::{check_result, Facts};
use crate::report::{ratio, Outcome, Samples, LAYER};
use crate::sys::status_kb;
use std::hint::black_box;
use std::time::Instant;
use wormhole::core::{CampaignConfig, CampaignResult};
use wormhole::experiments::{campaign_over, internet_config_for, internet_for, Scale};
use wormhole::net::{worker_seed, Addr, ControlPlane, Engine, EngineStats, Packet};
use wormhole::probe::{stats_jsonl, trace_jsonl, Session, Trace, TraceSink, TracerouteOpts};
use wormhole::topo::{generate, Internet};

/// The substrate seed of every workload: the one `wormhole-cli
/// campaign` pins (its `SUBSTRATE_SEED`) and `wormhole-serve` defaults
/// to. Letting the workload seed pick the substrate moves the work per
/// operation by about ±25% between seeds (tenfold hostile campaigns:
/// IQR/median 0.24 over seeds 1–5), more than any bound could absorb,
/// so the workload seed draws only what varies inside one substrate.
pub const SUBSTRATE_SEED: u64 = 8;

/// The two seeds a run uses: which substrate to build, and the seed of
/// the benchmark's own draws (trace destinations).
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub substrate: u64,
    pub draw: u64,
}

/// One recorded span: a name, its parent, and its interval in seconds
/// since the tracer started.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// An in-memory span recorder, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Times `f` as a span named `name` under `parent`; returns its
    /// value and duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let v = f();
        (v, self.close(id))
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> f64 {
        let s = &mut self.spans[id];
        s.end = self.t0.elapsed().as_secs_f64();
        s.end - s.start
    }

    /// Records an interval measured elsewhere (a child process, a
    /// sink callback) as a span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// One line per span — duration and self time (duration minus the
    /// part its children cover) — up to `limit` lines, then a count of
    /// the spans left out.
    pub fn lines(&self, limit: usize) -> Vec<String> {
        let mut children = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut out: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .take(limit)
            .map(|(i, s)| {
                let dur = s.end - s.start;
                format!(
                    "span {i} {} parent={} start_s={:.6} dur_s={:.6} self_s={:.6}",
                    s.name,
                    s.parent.map_or("-".to_string(), |p| p.to_string()),
                    s.start,
                    dur,
                    (dur - children[i]).max(0.0)
                )
            })
            .collect();
        if self.spans.len() > limit {
            out.push(format!("span … {} more", self.spans.len() - limit));
        }
        out
    }
}

/// Marks the campaign's phase boundaries from the sink callbacks and,
/// when asked, records the frames `wormhole-serve` streams for the
/// same run (its `FrameSink` renders the same three shapes).
struct PhaseSink {
    t0: Instant,
    probe_at: Option<f64>,
    stats_at: Option<f64>,
    frames: Option<Vec<String>>,
}

impl TraceSink for PhaseSink {
    fn on_trace(&mut self, vp: usize, trace: &Trace) {
        if let Some(f) = &mut self.frames {
            f.push(trace_jsonl(vp, trace));
        }
    }

    fn on_stats(&mut self, delta: &EngineStats) {
        self.stats_at = Some(self.t0.elapsed().as_secs_f64());
        if let Some(f) = &mut self.frames {
            f.push(stats_jsonl(delta));
        }
    }

    fn on_phase(&mut self, phase: &str) {
        if phase == "probe" {
            self.probe_at = Some(self.t0.elapsed().as_secs_f64());
        }
        if let Some(f) = &mut self.frames {
            f.push(format!("{{\"type\":\"phase\",\"phase\":\"{phase}\"}}"));
        }
    }
}

/// A campaign run in-process at `jobs = 1`, checked by the gate: what
/// every timed operation of the run is compared against.
#[derive(Debug)]
pub struct Reference {
    pub internet: Internet,
    pub result: CampaignResult,
    pub report: String,
    pub facts: Facts,
    /// Frames a serve session streams between `start` and `report`
    /// (empty unless recorded).
    pub frames: Vec<String>,
    pub campaign_s: f64,
    pub phase_trace_s: f64,
    pub phase_reveal_s: f64,
    pub report_s: f64,
}

impl Reference {
    /// Runs the campaign over `internet`, renders the canonical report
    /// and applies the gate.
    pub fn run(
        internet: Internet,
        cfg: &CampaignConfig,
        record_frames: bool,
        tr: &mut Tracer,
    ) -> Result<Reference, String> {
        let mut sink = PhaseSink {
            t0: Instant::now(),
            probe_at: None,
            stats_at: None,
            frames: record_frames.then(Vec::new),
        };
        let base = tr.now();
        let id = tr.open("core.campaign_over", None);
        let result = campaign_over(&internet, cfg, &mut sink);
        let campaign_s = tr.close(id);
        let (probe_at, stats_at) = match (sink.probe_at, sink.stats_at) {
            (Some(p), Some(s)) => (p, s),
            _ => return Err("campaign never reached its probe/stats boundaries".into()),
        };
        tr.record("core.phase_trace", Some(id), base, base + probe_at);
        tr.record(
            "core.phase_reveal",
            Some(id),
            base + probe_at,
            base + stats_at,
        );
        let (report, report_s) =
            tr.span("core.report", None, || result.report().text().to_string());
        let (facts, _) = tr.span("gate.check_result", None, || {
            check_result(&internet, &result)
        });
        Ok(Reference {
            facts: facts?,
            report,
            frames: sink.frames.unwrap_or_default(),
            campaign_s,
            phase_trace_s: probe_at,
            phase_reveal_s: stats_at - probe_at,
            report_s,
            internet,
            result,
        })
    }

    /// The core, lint-audit and campaign-walk metrics of this run.
    pub fn layer_metrics(&self, out: &mut Outcome) {
        let r = &self.result;
        let f = &self.facts;
        out.layer("core.campaign_s", self.campaign_s);
        out.layer("core.phase_trace_s", self.phase_trace_s);
        out.layer("core.phase_reveal_s", self.phase_reveal_s);
        out.layer("core.probe_s", r.timings.probe_seconds);
        out.layer("core.merge_s", r.timings.merge_seconds);
        out.layer("core.analysis_s", r.timings.analysis_seconds);
        out.layer("core.candidates", f.candidates as f64);
        out.layer("core.tunnels", f.tunnels as f64);
        out.layer("core.reveal_extra_probes", f.reveal_extra_probes as f64);
        out.layer(
            "core.probes_per_tunnel",
            ratio(r.probes as f64, f.tunnels as f64),
        );
        out.layer("core.corroborated", f.corroborated as f64);
        out.layer("core.unverified", f.unverified as f64);
        out.layer("core.contradicted", f.contradicted as f64);
        out.layer(
            "core.gt_exact_share",
            ratio(f.gt_exact as f64, f.gt_checked as f64),
        );
        out.layer("core.report_s", self.report_s);
        out.layer("core.report_bytes", self.report.len() as f64);
        out.layer("lint.audit_s", f.audit_s);
        out.layer("lint.audit_errors", f.errors as f64);
        out.layer("lint.audit_warnings", f.warnings as f64);
        out.note(format!(
            "core: {} probes; ground truth: {}/{} revealed lengths exact",
            r.probes, f.gt_exact, f.gt_checked
        ));
    }
}

/// Median seconds of `n` in-process runs of the work a streamed
/// campaign request does: the campaign with every frame rendered, then
/// the report.
pub fn inproc_campaign_s(internet: &Internet, cfg: &CampaignConfig, n: usize) -> f64 {
    let mut samples = Samples::default();
    for _ in 0..n {
        let started = Instant::now();
        let mut sink = PhaseSink {
            t0: started,
            probe_at: None,
            stats_at: None,
            frames: Some(Vec::new()),
        };
        let result = campaign_over(internet, cfg, &mut sink);
        black_box(result.report());
        samples.push(started.elapsed().as_secs_f64());
    }
    samples.median()
}

/// The engine counters of one probing run, as net-layer ratios.
pub fn engine_metrics(s: &EngineStats, out: &mut Outcome) {
    let probes = s.probes as f64;
    out.layer("net.crossings_per_probe", ratio(s.crossings as f64, probes));
    out.layer("net.reply_share", ratio(s.replies as f64, probes));
    out.layer("net.lost_share", ratio(s.lost as f64, probes));
}

/// Sums over a set of traces that the probe layer produced.
#[derive(Debug, Default)]
pub struct TraceCounts {
    traces: u64,
    probes: u64,
    retries: u64,
    stars: u64,
}

impl TraceCounts {
    pub fn add(&mut self, t: &Trace) {
        self.traces += 1;
        self.probes += u64::from(t.probes);
        let attempts: u64 = t.hops.iter().map(|h| u64::from(h.attempts)).sum();
        self.retries += attempts.saturating_sub(t.hops.len() as u64);
        self.stars += t.hops.iter().filter(|h| h.addr.is_none()).count() as u64;
    }

    pub fn metrics(&self, out: &mut Outcome) {
        out.layer("probe.traces", self.traces as f64);
        out.layer(
            "probe.probes_per_trace",
            ratio(self.probes as f64, self.traces as f64),
        );
        out.layer("probe.retries", self.retries as f64);
        out.layer("probe.stars", self.stars as f64);
    }
}

/// Phase times of building a substrate the way `generate` does.
#[derive(Debug, Default)]
pub struct BuildTimes {
    pub topology_s: f64,
    pub plane_build_s: f64,
    pub check_s: f64,
}

/// Times `generate`, a second `ControlPlane::build` over its network
/// (so topology time is `generate` minus the plane build) and
/// `lint::check_internet`, and records the topo/net/lint metrics.
pub fn substrate_metrics(
    scale: Scale,
    seed: u64,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> BuildTimes {
    let cfg = internet_config_for(scale, seed);
    let rss0 = status_kb(None, "VmRSS").unwrap_or(0);
    let (internet, generate_s) = tr.span("topo.generate", None, || generate(&cfg));
    let rss1 = status_kb(None, "VmRSS").unwrap_or(0);
    let (plane, plane_build_s) = tr.span("net.plane_build", None, || {
        ControlPlane::build(&internet.net)
    });
    if let Err(e) = plane {
        out.problem(format!(
            "ControlPlane::build failed on a generated network: {e}"
        ));
    }
    let (diags, check_s) = tr.span("lint.check_internet", None, || {
        wormhole::lint::check_internet(&internet)
    });
    let (errors, _, _) = wormhole::lint::count(&diags);
    if errors > 0 {
        out.problem(format!(
            "check_internet: {errors} errors on a generated Internet"
        ));
    }
    // Below the timing noise (tenfold) this difference can read
    // negative; it is reported as measured.
    let topology_s = generate_s - plane_build_s;
    out.layer("topo.generate_s", generate_s);
    out.layer("topo.topology_s", topology_s);
    out.layer("topo.routers", internet.net.num_routers() as f64);
    out.layer("topo.rss_mb", rss1.saturating_sub(rss0) as f64 / 1024.0);
    out.layer("net.plane_build_s", plane_build_s);
    out.layer("lint.check_internet_s", check_s);
    BuildTimes {
        topology_s,
        plane_build_s,
        check_s,
    }
}

/// `internet_for` timed `n` times (generate plus lint, the cold
/// set-up); returns the samples and the last Internet built.
pub fn timed_internet_for(scale: Scale, seed: u64, n: usize) -> (Samples, Internet) {
    let mut samples = Samples::default();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        let internet = internet_for(scale, seed);
        samples.push(t.elapsed().as_secs_f64());
        last = Some(internet);
    }
    (samples, last.expect("at least one build"))
}

/// A scalar loopback sweep from the first vantage point: one echo
/// request to every router's loopback, repeated for at least 0.2 s.
/// Records the engine's packets per second and heap allocations.
pub fn walk_metrics(internet: &Internet, out: &mut Outcome) {
    let net = &internet.net;
    let vp = internet.vps[0];
    let src = net.router(vp).loopback;
    let dsts: Vec<Addr> = net.routers().iter().map(|r| r.loopback).collect();
    let mut eng = Engine::new(net, &internet.cp);
    eng.set_record_paths(false);
    let started = Instant::now();
    let mut sent = 0u64;
    while sent == 0 || started.elapsed().as_secs_f64() < 0.2 {
        for (i, &dst) in dsts.iter().enumerate() {
            let pkt = Packet::echo_request(src, dst, 255, 0, 0xBEEF, i as u16);
            black_box(eng.send(vp, black_box(pkt)));
        }
        sent += dsts.len() as u64;
    }
    let secs = started.elapsed().as_secs_f64();
    out.layer("net.walk_pps", sent as f64 / secs);
    out.layer("net.heap_allocs", eng.stats().heap_allocs as f64);
}

/// `n` `(vp, dst)` pairs drawn by `seed` from the addresses that
/// answered in `result`, each paired with the VP that observed it.
pub fn trace_pool(result: &CampaignResult, seed: u64, n: usize) -> Vec<(usize, Addr)> {
    let mut answered: Vec<(usize, Addr)> = result
        .traces
        .iter()
        .zip(&result.trace_vps)
        .flat_map(|(t, &vp)| t.hops.iter().filter_map(move |h| Some((vp, h.addr?))))
        .collect();
    answered.sort_unstable();
    answered.dedup();
    if answered.is_empty() {
        return Vec::new();
    }
    // `worker_seed` is the program's SplitMix64 stream derivation.
    (0..n as u64)
        .map(|i| answered[(worker_seed(seed, i) % answered.len() as u64) as usize])
        .collect()
}

/// What a `trace` request for one pool pair must return.
#[derive(Debug)]
pub struct ExpectedTrace {
    pub frame: String,
    pub probes: u64,
}

/// The in-process answer to every pool pair — `Session::traceroute`
/// rendered by `trace_jsonl`, exactly as the server does it — plus the
/// seconds that took, the traces' counts and their engine counters.
pub fn expected_traces(
    internet: &Internet,
    pool: &[(usize, Addr)],
) -> (Vec<ExpectedTrace>, f64, TraceCounts, EngineStats) {
    let mut counts = TraceCounts::default();
    let mut stats = EngineStats::default();
    let mut out = Vec::with_capacity(pool.len());
    let mut secs = 0.0;
    for &(vp, dst) in pool {
        let started = Instant::now();
        let mut sess = Session::new(&internet.net, &internet.cp, internet.vps[vp]);
        sess.set_opts(TracerouteOpts::default());
        let trace = sess.traceroute(dst);
        let frame = trace_jsonl(vp, &trace);
        secs += started.elapsed().as_secs_f64();
        counts.add(&trace);
        stats.merge(sess.engine_stats());
        out.push(ExpectedTrace {
            frame,
            probes: sess.stats.probes,
        });
    }
    (out, secs, counts, stats)
}

/// Records the blocking-step shares: every `share.*` metric, zero for
/// steps off this workload's path.
pub fn shares(out: &mut Outcome, on_path: &[(&'static str, f64)]) {
    for (name, _) in LAYER.iter().filter(|(n, _)| n.starts_with("share.")) {
        let v = on_path
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        out.layer(name, v);
    }
}

/// Appends the error rate and the span listing of a traced run.
pub fn finish(out: &mut Outcome, tr: &Tracer, traced: bool) {
    if traced {
        out.layer(
            "bench.error_rate",
            ratio(out.failed as f64, out.attempted as f64),
        );
        for l in tr.lines(64) {
            out.note(l);
        }
    }
}
