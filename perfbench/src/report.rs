//! Sample summaries, the metric catalogue and the result line.

/// Every end-to-end metric, in `BENCHMARK.json` order: `(name, unit)`.
///
/// Latency and rate are gated at the 90th-percentile operation. On the
/// 2-vCPU host the benchmark was tuned on, load from other tenants
/// comes and goes: tenfold hostile campaign requests fall in an ~18 ms
/// and an ~28 ms mode (the same campaign in-process does too) whose mix
/// drifts, so the request median moved by a third between sets of runs;
/// trace requests have a fast shoulder whose size drifts, so their p10
/// spread 0.23 across runs. The 90th percentile sat in a stable part of
/// every workload's distribution (IQR/median 0.05–0.13 over ten runs).
/// The other percentiles and the completion rate are printed beside it.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("req_p90_ms", "ms"),
    ("probes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric of the traced run, in `BENCHMARK.json` order.
pub const LAYER: [(&str, &str); 51] = [
    ("topo.generate_s", "s"),
    ("topo.topology_s", "s"),
    ("topo.routers", "count"),
    ("topo.rss_mb", "MB"),
    ("net.plane_build_s", "s"),
    ("net.walk_pps", "1/s"),
    ("net.crossings_per_probe", "ratio"),
    ("net.reply_share", "ratio"),
    ("net.lost_share", "ratio"),
    ("net.heap_allocs", "count"),
    ("lint.check_internet_s", "s"),
    ("lint.audit_s", "s"),
    ("lint.audit_errors", "count"),
    ("lint.audit_warnings", "count"),
    ("probe.traces", "count"),
    ("probe.probes_per_trace", "ratio"),
    ("probe.retries", "count"),
    ("probe.stars", "count"),
    ("probe.trace_us", "us"),
    ("core.campaign_s", "s"),
    ("core.phase_trace_s", "s"),
    ("core.phase_reveal_s", "s"),
    ("core.probe_s", "s"),
    ("core.merge_s", "s"),
    ("core.analysis_s", "s"),
    ("core.candidates", "count"),
    ("core.tunnels", "count"),
    ("core.reveal_extra_probes", "count"),
    ("core.probes_per_tunnel", "ratio"),
    ("core.corroborated", "count"),
    ("core.unverified", "count"),
    ("core.contradicted", "count"),
    ("core.gt_exact_share", "ratio"),
    ("core.report_s", "s"),
    ("core.report_bytes", "bytes"),
    ("experiments.table4_s", "s"),
    ("serve.overhead_ms", "ms"),
    ("serve.frames_per_req", "count"),
    ("serve.bytes_per_req", "bytes"),
    ("share.topology", "ratio"),
    ("share.plane_build", "ratio"),
    ("share.lint", "ratio"),
    ("share.campaign", "ratio"),
    ("share.report", "ratio"),
    ("share.table4", "ratio"),
    ("share.trace", "ratio"),
    ("share.serve", "ratio"),
    ("bench.untraced_req_p50_ms", "ms"),
    ("bench.traced_req_p50_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
];

/// Wall-clock samples of one kind of operation, in seconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle pair for an even count); 0 when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The `p`-th percentile by nearest rank; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
    }

    /// The highest of a fixed ladder of percentiles that still has at
    /// least ten samples above it (nearest-rank), with its label. With
    /// ten samples or fewer no percentile qualifies and the maximum is
    /// returned, labelled as such.
    pub fn tail(&self) -> (String, f64) {
        let v = self.sorted();
        let n = v.len();
        for p in [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let idx = rank.saturating_sub(1);
            if n >= 1 && n - 1 - idx >= 10 {
                return (format!("p{p}"), v[idx]);
            }
        }
        ("max".to_string(), v.last().copied().unwrap_or(0.0))
    }
}

/// The printed latency summary of a loop: count, p10, median, p90, the
/// highest percentile with ten samples beyond it, and completions per
/// second.
pub fn latency_line(what: &str, lat: &Samples, per_s: f64) -> String {
    let (label, tail) = lat.tail();
    format!(
        "{what}: n={} p10={:.4} ms p50={:.4} ms p90={:.4} ms {label}={:.4} ms; {per_s:.4} per second",
        lat.len(),
        lat.percentile(10.0) * 1e3,
        lat.median() * 1e3,
        lat.percentile(90.0) * 1e3,
        tail * 1e3,
    )
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: campaigns (cold processes or requests)
    /// and trace requests, setup requests included.
    pub attempted: u64,
    /// Operations that failed: an error frame, a crashed process, or a
    /// failed correctness check.
    pub failed: u64,
    /// Why the outputs are not correct (empty when they are).
    pub problems: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push(Metric { name, value });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push(Metric { name, value });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed correctness check on one operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problem(why);
    }

    /// Records a failed check that is not tied to one operation.
    pub fn problem(&mut self, why: impl Into<String>) {
        let why = why.into();
        // A broken loop can fail thousands of requests the same way;
        // keep the first few distinct reasons.
        if self.problems.len() < 8 && !self.problems.contains(&why) {
            self.problems.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints the notes, every metric with its unit, and the result
    /// line: the end-to-end metrics untraced, the per-layer metrics
    /// when traced.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        for p in &self.problems {
            println!("INCORRECT: {p}");
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "error_rate = {rate} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let (catalogue, measured): (&[(&str, &str)], &[Metric]) = if traced {
            (&LAYER, &self.layer)
        } else {
            (&E2E, &self.e2e)
        };
        let mut json = String::new();
        for (name, unit) in catalogue {
            let value = measured
                .iter()
                .rev()
                .find(|m| m.name == *name)
                .map(|m| m.value);
            let value = match value {
                Some(v) if v.is_finite() => v,
                _ => {
                    // A missing metric is a benchmark bug; the result
                    // still prints so the failure shows in the result line.
                    println!("INCORRECT: metric {name} was not measured");
                    0.0
                }
            };
            println!("{name} = {value} {unit}");
            if !json.is_empty() {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(value)
            ));
        }
        let correct = self.correct()
            && catalogue.iter().all(|(name, _)| {
                measured
                    .iter()
                    .any(|m| m.name == *name && m.value.is_finite())
            });
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives (which never uses exponent notation for `f64`).
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..10 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail().0, "max");
        for i in 10..1000 {
            s.push(f64::from(i));
        }
        let (label, v) = s.tail();
        assert_eq!(label, "p99");
        assert_eq!(v, 989.0);
        assert_eq!(s.median(), 499.5);
        assert_eq!(s.percentile(90.0), 899.0);
    }
}
