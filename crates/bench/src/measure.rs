//! Shared measurement routines behind the repo-root benchmark
//! artefacts (`BENCH_campaign.json`, `BENCH_engine.json`).
//!
//! Both the Criterion benches and the `bench-regression` gate binary
//! run the same timed code paths through this module, so the committed
//! baselines mean the same thing no matter which tool wrote them. The
//! JSON is emitted (and re-parsed) by hand — one run object per line —
//! to keep the bench crate free of serialisation dependencies.

use std::time::Instant;
use wormhole_core::{Campaign, CampaignConfig, Scheduling};
use wormhole_net::{Addr, ControlPlane, FaultPlan, FaultScenario, ProbeState, SubstrateRef};
use wormhole_probe::Session;
use wormhole_topo::{generate, Internet, InternetConfig};

/// One timed §4 campaign at a fixed worker count, fault scenario and
/// executor, with the per-phase breakdown the campaign itself reports.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Worker count passed to the campaign.
    pub jobs: usize,
    /// Fault scenario name.
    pub faults: &'static str,
    /// Executor name (`batches` or `stealing`).
    pub scheduling: &'static str,
    /// Probe packets the campaign injected.
    pub probes: u64,
    /// End-to-end wall seconds for the campaign run.
    pub seconds: f64,
    /// Wall seconds inside the four probing phases.
    pub probe_seconds: f64,
    /// Wall seconds merging and aggregating between phases.
    pub merge_seconds: f64,
    /// Wall seconds in post-merge analysis (snapshot finish, HDN
    /// extraction, revelation) — the incremental-aggregation pipeline
    /// keeps this flat as the trace corpus grows.
    pub analysis_seconds: f64,
    /// Headline throughput (`probes / seconds`).
    pub probes_per_sec: f64,
}

/// Campaign measurements over one generated Internet.
pub struct ScaleBench {
    /// Scale name (`tenfold`, `thousandfold`).
    pub scale: &'static str,
    /// Transit-AS count at this scale.
    pub transit_ases: usize,
    /// Router count of the generated Internet.
    pub routers: usize,
    /// Wall seconds to generate the Internet, control plane included
    /// (fastest of three builds).
    pub build_seconds: f64,
    /// The timed runs, in matrix order.
    pub runs: Vec<CampaignRun>,
}

/// The tenfold run matrix: the serial baseline, the worker sweep, and
/// both executors under the hostile scenario.
pub const TENFOLD_MATRIX: &[(usize, FaultScenario, Scheduling)] = &[
    (1, FaultScenario::Clean, Scheduling::VpBatches),
    (2, FaultScenario::Clean, Scheduling::VpBatches),
    (4, FaultScenario::Clean, Scheduling::VpBatches),
    (4, FaultScenario::Hostile, Scheduling::VpBatches),
    (1, FaultScenario::Clean, Scheduling::Stealing),
    (4, FaultScenario::Clean, Scheduling::Stealing),
    (4, FaultScenario::Hostile, Scheduling::Stealing),
];

/// The thousandfold run matrix: enough to prove the scale completes
/// under both executors without doubling the bench wall time.
pub const THOUSANDFOLD_MATRIX: &[(usize, FaultScenario, Scheduling)] = &[
    (1, FaultScenario::Clean, Scheduling::VpBatches),
    (4, FaultScenario::Clean, Scheduling::Stealing),
];

/// Stable on-disk name of a scheduling mode.
pub fn scheduling_name(s: Scheduling) -> &'static str {
    match s {
        Scheduling::VpBatches => "batches",
        Scheduling::Stealing => "stealing",
    }
}

/// The runner's core count (1 when unknown) — recorded in every
/// artefact so a single-core runner's flat parallel numbers are not
/// mistaken for an executor regression.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Generates the Internet for `cfg`, returning it with the build wall
/// seconds (topology plus control plane). Generation is deterministic,
/// so it runs three times and the fastest build is kept — the same
/// noise guard as [`time_campaign`], since `bench-regression` gates
/// this number.
pub fn generate_timed(cfg: &InternetConfig) -> (Internet, f64) {
    let mut best = f64::INFINITY;
    let mut internet = None;
    for _ in 0..3 {
        drop(internet.take());
        let t0 = Instant::now();
        internet = Some(generate(cfg));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (internet.expect("three builds produce an Internet"), best)
}

/// Times one §4 campaign over an already-generated Internet. The
/// campaign is deterministic, so only the timing varies between runs;
/// it runs three times and the fastest wall time is kept, which keeps
/// the regression gate stable on noisy shared runners.
pub fn time_campaign(
    internet: &Internet,
    jobs: usize,
    scenario: FaultScenario,
    scheduling: Scheduling,
) -> CampaignRun {
    let mut best: Option<CampaignRun> = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let result = Campaign::new(
            &internet.net,
            &internet.cp,
            internet.vps.clone(),
            CampaignConfig {
                hdn_threshold: 9,
                jobs,
                faults: scenario.plan(),
                scheduling,
                ..CampaignConfig::default()
            },
        )
        .run();
        let seconds = t0.elapsed().as_secs_f64();
        let run = CampaignRun {
            jobs,
            faults: scenario.name(),
            scheduling: scheduling_name(scheduling),
            probes: result.probes,
            seconds,
            probe_seconds: result.timings.probe_seconds,
            merge_seconds: result.timings.merge_seconds,
            analysis_seconds: result.timings.analysis_seconds,
            probes_per_sec: result.probes as f64 / seconds,
        };
        if best.as_ref().is_none_or(|b| run.seconds < b.seconds) {
            best = Some(run);
        }
    }
    best.expect("three runs produce a fastest run")
}

/// Runs the `(jobs, scenario, scheduling)` matrix over one Internet.
pub fn measure_scale(
    scale: &'static str,
    internet: &Internet,
    build_seconds: f64,
    matrix: &[(usize, FaultScenario, Scheduling)],
) -> ScaleBench {
    ScaleBench {
        scale,
        transit_ases: internet.personas.len(),
        routers: internet.net.num_routers(),
        build_seconds,
        runs: matrix
            .iter()
            .map(|&(jobs, scenario, sched)| time_campaign(internet, jobs, scenario, sched))
            .collect(),
    }
}

/// One human-readable line per run, for bench and CI logs.
pub fn summary_lines(scales: &[ScaleBench]) -> Vec<String> {
    scales
        .iter()
        .flat_map(|s| {
            s.runs.iter().map(move |r| {
                format!(
                    "campaign {} jobs={} faults={} sched={}: {:.0} probes/sec \
                     ({:.3}s wall; probe {:.3}s, merge {:.3}s, analysis {:.3}s; build {:.3}s)",
                    s.scale,
                    r.jobs,
                    r.faults,
                    r.scheduling,
                    r.probes_per_sec,
                    r.seconds,
                    r.probe_seconds,
                    r.merge_seconds,
                    r.analysis_seconds,
                    s.build_seconds
                )
            })
        })
        .collect()
}

/// Renders campaign measurements as the `BENCH_campaign.json` document.
pub fn campaign_json(scales: &[ScaleBench]) -> String {
    let sections: Vec<String> = scales
        .iter()
        .map(|s| {
            let runs: Vec<String> = s
                .runs
                .iter()
                .map(|r| {
                    format!(
                        "        {{\"jobs\": {}, \"faults\": \"{}\", \"scheduling\": \"{}\", \
                         \"probes\": {}, \"seconds\": {:.6}, \"probe_seconds\": {:.6}, \
                         \"merge_seconds\": {:.6}, \"analysis_seconds\": {:.6}, \
                         \"probes_per_sec\": {:.1}}}",
                        r.jobs,
                        r.faults,
                        r.scheduling,
                        r.probes,
                        r.seconds,
                        r.probe_seconds,
                        r.merge_seconds,
                        r.analysis_seconds,
                        r.probes_per_sec
                    )
                })
                .collect();
            format!(
                "    {{\n      \"scale\": \"{}\",\n      \"transit_ases\": {},\n      \
                 \"routers\": {},\n      \"build_seconds\": {:.6},\n      \"runs\": [\n{}\n      \
                 ]\n    }}",
                s.scale,
                s.transit_ases,
                s.routers,
                s.build_seconds,
                runs.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"campaign\",\n  \"cores\": {},\n  \"scales\": [\n{}\n  ]\n}}\n",
        cores(),
        sections.join(",\n")
    )
}

/// One timed loopback sweep — a walk of every router loopback from the
/// first vantage point with path recording off.
pub struct WalkRun {
    /// Stable row name in `BENCH_engine.json` (`walk_scalar`,
    /// `walk_thousandfold`).
    pub name: &'static str,
    /// Router count of the Internet walked.
    pub routers: usize,
    /// Traceroutes run (one per router loopback).
    pub traces: u64,
    /// Probe packets injected by the walk.
    pub probes: u64,
    /// Wall seconds for the walk.
    pub seconds: f64,
    /// Walk throughput.
    pub probes_per_sec: f64,
    /// Heap allocations the engine charged to packets — must stay 0
    /// with path recording off.
    pub heap_allocs: u64,
}

/// Engine-level microbench results: the allocation-free packet walk at
/// tenfold and thousandfold scale and the serial-vs-parallel
/// control-plane build.
pub struct EngineBench {
    /// Router count of the tenfold Internet (the headline scale).
    pub routers: usize,
    /// The timed walks, one `BENCH_engine.json` row each.
    pub walks: Vec<WalkRun>,
    /// Control-plane build wall seconds at one worker.
    pub plane_serial_seconds: f64,
    /// Worker count of the parallel build (the runner's core count).
    pub plane_jobs: usize,
    /// Control-plane build wall seconds at `plane_jobs` workers.
    pub plane_parallel_seconds: f64,
}

/// Times one loopback sweep: one `Session::traceroute` per router
/// loopback. Best-of-three sweeps: the walk is deterministic, only
/// timing varies, and counters are read after the first sweep so they
/// count one sweep's probes.
pub fn time_walk(name: &'static str, internet: &Internet) -> WalkRun {
    let sub = SubstrateRef::new(&internet.net, &internet.cp);
    let mut sess = Session::over(sub, internet.vps[0], ProbeState::new(FaultPlan::none(), 0));
    let dsts: Vec<Addr> = internet.net.routers().iter().map(|r| r.loopback).collect();
    let mut seconds = f64::INFINITY;
    let mut probes = 0;
    let mut traces = 0;
    for sweep in 0..3 {
        let t0 = Instant::now();
        for &d in &dsts {
            sess.traceroute(d);
        }
        seconds = seconds.min(t0.elapsed().as_secs_f64());
        if sweep == 0 {
            probes = sess.stats.probes;
            traces = sess.stats.traceroutes;
        }
    }
    WalkRun {
        name,
        routers: internet.net.num_routers(),
        traces,
        probes,
        seconds,
        probes_per_sec: probes as f64 / seconds,
        heap_allocs: sess.engine_stats().heap_allocs,
    }
}

/// Measures the two walk rows — tenfold, then thousandfold — and
/// times the tenfold control-plane build serially and with every core.
pub fn measure_engine(tenfold: &Internet, thousandfold: &Internet) -> EngineBench {
    let walks = vec![
        time_walk("walk_scalar", tenfold),
        time_walk("walk_thousandfold", thousandfold),
    ];

    // Untimed warmup build: the first build pays the allocator's page
    // faults, which would otherwise be billed to the serial timing and
    // fake a parallel speedup.
    ControlPlane::build_with_jobs(&tenfold.net, 1).expect("warmup plane build");
    let t1 = Instant::now();
    ControlPlane::build_with_jobs(&tenfold.net, 1).expect("serial plane build");
    let plane_serial_seconds = t1.elapsed().as_secs_f64();
    let plane_jobs = cores();
    let t2 = Instant::now();
    ControlPlane::build_with_jobs(&tenfold.net, plane_jobs).expect("parallel plane build");
    let plane_parallel_seconds = t2.elapsed().as_secs_f64();

    EngineBench {
        routers: tenfold.net.num_routers(),
        walks,
        plane_serial_seconds,
        plane_jobs,
        plane_parallel_seconds,
    }
}

/// Renders engine measurements as the `BENCH_engine.json` document —
/// one object per line so [`parse_engine_baseline`] can key each walk
/// row by name.
pub fn engine_json(e: &EngineBench) -> String {
    let walks: Vec<String> = e
        .walks
        .iter()
        .map(|w| {
            format!(
                "  \"{}\": {{\"routers\": {}, \"traces\": {}, \"probes\": {}, \
                 \"seconds\": {:.6}, \"probes_per_sec\": {:.1}, \"heap_allocs\": {}}},",
                w.name, w.routers, w.traces, w.probes, w.seconds, w.probes_per_sec, w.heap_allocs
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"engine\",\n  \"cores\": {},\n  \"scale\": \"tenfold\",\n  \
         \"routers\": {},\n{}\n  \"plane_build\": \
         {{\"serial_seconds\": {:.6}, \"parallel_jobs\": {}, \"parallel_seconds\": {:.6}}}\n}}\n",
        cores(),
        e.routers,
        walks.join("\n"),
        e.plane_serial_seconds,
        e.plane_jobs,
        e.plane_parallel_seconds
    )
}

/// Writes a benchmark artefact at the repo root, next to the sources.
pub fn write_baseline(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

/// Reads a committed benchmark artefact from the repo root.
pub fn read_baseline(file: &str) -> Option<String> {
    std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))).ok()
}

/// A `(scale, jobs, faults, scheduling)` throughput entry extracted
/// from a committed `BENCH_campaign.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRun {
    /// Scale name the run belongs to.
    pub scale: String,
    /// Worker count of the run.
    pub jobs: usize,
    /// Fault scenario name.
    pub faults: String,
    /// Executor name.
    pub scheduling: String,
    /// Committed throughput.
    pub probes_per_sec: f64,
    /// Committed post-merge analysis wall seconds, when the baseline
    /// predates the incremental pipeline this is `None` and the time
    /// gate is skipped for the row.
    pub analysis_seconds: Option<f64>,
}

/// Extracts the per-run throughput entries from a `BENCH_campaign.json`
/// document. Leans on the emitter's one-object-per-line layout, and
/// tolerates the pre-stealing single-scale format by defaulting the
/// scale to `tenfold`, the scenario to `clean` and the executor to
/// `batches`.
pub fn parse_campaign_baseline(json: &str) -> Vec<BaselineRun> {
    let mut scale = "tenfold".to_string();
    let mut out = Vec::new();
    for line in json.lines() {
        if let Some(s) = str_field(line, "scale") {
            scale = s;
        }
        if let (Some(jobs), Some(pps)) =
            (num_field(line, "jobs"), num_field(line, "probes_per_sec"))
        {
            out.push(BaselineRun {
                scale: scale.clone(),
                jobs: jobs as usize,
                faults: str_field(line, "faults").unwrap_or_else(|| "clean".into()),
                scheduling: str_field(line, "scheduling").unwrap_or_else(|| "batches".into()),
                probes_per_sec: pps,
                analysis_seconds: num_field(line, "analysis_seconds"),
            });
        }
    }
    out
}

/// The committed build wall seconds of every scale section of a
/// `BENCH_campaign.json` document, as `(scale, build_seconds)`. Keys on
/// the `"build_seconds":` line, which the emitter writes after the
/// section's `"scale":` line.
pub fn parse_build_baseline(json: &str) -> Vec<(String, f64)> {
    let mut scale = None;
    let mut out = Vec::new();
    for line in json.lines() {
        if let Some(s) = str_field(line, "scale") {
            scale = Some(s);
        }
        if let (Some(s), Some(secs)) = (&scale, num_field(line, "build_seconds")) {
            out.push((s.clone(), secs));
        }
    }
    out
}

/// A named walk-throughput row extracted from a committed
/// `BENCH_engine.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineRow {
    /// Row name (`walk_scalar`, `walk_thousandfold`).
    pub name: String,
    /// Committed throughput.
    pub probes_per_sec: f64,
}

/// Extracts every `walk*` throughput row from a `BENCH_engine.json`
/// document. Leans on the emitter's one-object-per-line layout; the
/// committed format is the two-row matrix (`walk_scalar`,
/// `walk_thousandfold`) — a baseline with fewer rows simply gates
/// fewer walks, and `bench-regression --write` refreshes it.
pub fn parse_engine_baseline(json: &str) -> Vec<EngineRow> {
    json.lines()
        .filter_map(|line| {
            let name = line.trim_start().strip_prefix('"')?;
            let (name, _) = name.split_once('"')?;
            if !name.starts_with("walk") {
                return None;
            }
            Some(EngineRow {
                name: name.to_string(),
                probes_per_sec: num_field(line, "probes_per_sec")?,
            })
        })
        .collect()
}

/// The number following `"key":` on `line`, if present.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = line[line.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The quoted string following `"key":` on `line`, if present.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scales() -> Vec<ScaleBench> {
        vec![ScaleBench {
            scale: "tenfold",
            transit_ases: 100,
            routers: 3694,
            build_seconds: 1.5,
            runs: vec![
                CampaignRun {
                    jobs: 1,
                    faults: "clean",
                    scheduling: "batches",
                    probes: 27146,
                    seconds: 0.033,
                    probe_seconds: 0.02,
                    merge_seconds: 0.009,
                    analysis_seconds: 0.004,
                    probes_per_sec: 822606.1,
                },
                CampaignRun {
                    jobs: 4,
                    faults: "hostile",
                    scheduling: "stealing",
                    probes: 30000,
                    seconds: 0.05,
                    probe_seconds: 0.04,
                    merge_seconds: 0.007,
                    analysis_seconds: 0.003,
                    probes_per_sec: 600000.0,
                },
            ],
        }]
    }

    #[test]
    fn campaign_json_round_trips_through_the_baseline_parser() {
        let json = campaign_json(&sample_scales());
        let runs = parse_campaign_baseline(&json);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].scale, "tenfold");
        assert_eq!(runs[0].jobs, 1);
        assert_eq!(runs[0].faults, "clean");
        assert_eq!(runs[0].scheduling, "batches");
        assert!((runs[0].probes_per_sec - 822606.1).abs() < 0.2);
        assert!((runs[0].analysis_seconds.expect("analysis row") - 0.004).abs() < 1e-9);
        assert_eq!(runs[1].jobs, 4);
        assert_eq!(runs[1].faults, "hostile");
        assert_eq!(runs[1].scheduling, "stealing");
        assert!((runs[1].analysis_seconds.expect("analysis row") - 0.003).abs() < 1e-9);
        assert_eq!(
            parse_build_baseline(&json),
            vec![("tenfold".to_string(), 1.5)]
        );
    }

    #[test]
    fn parser_accepts_the_pre_stealing_baseline_format() {
        let old = "{\n  \"bench\": \"campaign_tenfold\",\n  \"transit_ases\": 100,\n  \
                   \"routers\": 3694,\n  \"cores\": 1,\n  \"runs\": [\n    {\"jobs\": 1, \
                   \"probes\": 27146, \"seconds\": 0.033908, \"probes_per_sec\": 800585.9}\n  \
                   ]\n}\n";
        let runs = parse_campaign_baseline(old);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0],
            BaselineRun {
                scale: "tenfold".into(),
                jobs: 1,
                faults: "clean".into(),
                scheduling: "batches".into(),
                probes_per_sec: 800585.9,
                analysis_seconds: None,
            }
        );
    }

    #[test]
    fn engine_json_round_trips_every_walk_row() {
        let walk = |name, routers, pps| WalkRun {
            name,
            routers,
            traces: routers as u64,
            probes: 55000,
            seconds: 0.03,
            probes_per_sec: pps,
            heap_allocs: 0,
        };
        let e = EngineBench {
            routers: 3694,
            walks: vec![
                walk("walk_scalar", 3694, 1_833_333.5),
                walk("walk_thousandfold", 14201, 11_000_000.0),
            ],
            plane_serial_seconds: 1.2,
            plane_jobs: 4,
            plane_parallel_seconds: 0.4,
        };
        let json = engine_json(&e);
        let rows = parse_engine_baseline(&json);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "walk_scalar");
        assert!((rows[0].probes_per_sec - 1_833_333.5).abs() < 0.2);
        assert_eq!(rows[1].name, "walk_thousandfold");
        assert!(json.contains("\"heap_allocs\": 0"));
    }
}
