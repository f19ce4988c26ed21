//! The correctness gate: invariants of a campaign result that hold on
//! correct code at every seed, plus exact comparisons of what a user
//! receives against an in-process reference.
//!
//! Deliberately *not* gated (each fails on correct code):
//! * revealed length == ground-truth length — ECMP siblings and
//!   faults make some differ; reported as `core.gt_exact_share`;
//! * `A301` under `deceptive_ttl`/`paranoid` — fires by design;
//! * the order of audit findings — `lint::audit` does not normalize
//!   and `audit_campaign` walks a `HashMap`, so findings are compared
//!   as counts or as a sorted multiset only;
//! * probe counts copied from committed bench files or docs.

use wormhole::core::{audit_campaign, CampaignResult, Veracity};
use wormhole::lint::Severity;
use wormhole::topo::{GroundTruth, Internet};

/// What the gate learned about a result that passed it.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub audit_s: f64,
    pub errors: usize,
    pub warnings: usize,
    pub infos: usize,
    /// Every audit finding rendered, sorted: the order-free multiset.
    pub findings: Vec<String>,
    pub candidates: usize,
    pub tunnels: usize,
    pub reveal_extra_probes: u64,
    pub corroborated: usize,
    pub unverified: usize,
    pub contradicted: usize,
    /// Revealed tunnels whose ground-truth hidden hops were known …
    pub gt_checked: usize,
    /// … and how many of those had exactly the true length.
    pub gt_exact: usize,
}

/// Audits a campaign result and checks the invariants every correct
/// run satisfies: no Error-level audit diagnostic, every revealed hop
/// inside the pair's AS, and no revealed pair physically adjacent.
pub fn check_result(internet: &Internet, result: &CampaignResult) -> Result<Facts, String> {
    let net = &internet.net;
    let started = std::time::Instant::now();
    let diags = audit_campaign(net, result);
    let audit_s = started.elapsed().as_secs_f64();
    let (errors, warnings, infos) = wormhole::lint::count(&diags);
    if errors > 0 {
        let first = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(ToString::to_string)
            .unwrap_or_default();
        return Err(format!("campaign audit: {errors} errors, first: {first}"));
    }
    let mut findings: Vec<String> = diags.iter().map(ToString::to_string).collect();
    findings.sort();

    let mut facts = Facts {
        audit_s,
        errors,
        warnings,
        infos,
        findings,
        candidates: result.unique_pairs().len(),
        ..Facts::default()
    };
    for t in result.tunnels() {
        let (Some(a), Some(b)) = (net.owner(t.ingress), net.owner(t.egress)) else {
            return Err(format!("pair {} → {} has no owner", t.ingress, t.egress));
        };
        let asn = net.router(a).asn;
        if net.router(b).asn != asn {
            return Err(format!("pair {} → {} spans two ASes", t.ingress, t.egress));
        }
        if let Some(hop) = t
            .hops()
            .into_iter()
            .find(|&h| net.owner_asn(h) != Some(asn))
        {
            return Err(format!(
                "revealed hop {hop} of {} → {} lies outside AS{}",
                t.ingress, t.egress, asn.0
            ));
        }
        if net.router(a).neighbors().contains(&b) {
            return Err(format!(
                "pair {} → {} is physically adjacent yet revealed",
                t.ingress, t.egress
            ));
        }
        facts.tunnels += 1;
        facts.reveal_extra_probes += t.extra_probes;
    }
    for out in result.revelations.values() {
        match out.veracity() {
            Veracity::Corroborated => facts.corroborated += 1,
            Veracity::Unverified => facts.unverified += 1,
            Veracity::Contradicted => facts.contradicted += 1,
        }
    }
    let gt = GroundTruth::new(net, &internet.cp);
    for c in &result.candidates {
        let Some(t) = result
            .revelations
            .get(&(c.ingress, c.egress))
            .and_then(|o| o.tunnel())
        else {
            continue;
        };
        let (Some(ingress), Some(egress)) = (net.owner(c.ingress), net.owner(c.egress)) else {
            continue;
        };
        if let Some(hidden) = gt.hidden_hops(internet.vps[c.vp_index], c.target, ingress, egress, 0)
        {
            facts.gt_checked += 1;
            facts.gt_exact += usize::from(hidden.len() == t.hops().len());
        }
    }
    Ok(facts)
}

/// Byte equality of a received report with the reference, naming the
/// first differing line on mismatch.
pub fn check_report(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let line = expected
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.lines().count().min(got.lines().count()));
    Err(format!(
        "report differs from the reference at line {} ({} vs {} bytes)",
        line + 1,
        got.len(),
        expected.len()
    ))
}

/// The `snapshot:` summary line `wormhole-cli campaign` prints.
pub fn snapshot_line(r: &CampaignResult) -> String {
    format!(
        "snapshot: {} nodes, {} HDNs; {} targets; {} candidate pairs; {} tunnels revealed; {} probes",
        r.snapshot.num_nodes(),
        r.hdns.len(),
        r.targets.len(),
        r.unique_pairs().len(),
        r.tunnels().count(),
        r.probes
    )
}

/// The `(errors, warnings, notes)` tally of an experiment's
/// `lint: E errors, W warnings, I notes over …` line.
pub fn parse_lint_tally(line: &str) -> Option<(usize, usize, usize)> {
    let w: Vec<&str> = line.split_whitespace().collect();
    match w.as_slice() {
        ["lint:", e, "errors,", wn, "warnings,", i, "notes", ..] => {
            Some((e.parse().ok()?, wn.parse().ok()?, i.parse().ok()?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_parses() {
        assert_eq!(
            parse_lint_tally("lint: 0 errors, 242 warnings, 0 notes over 15456 traces"),
            Some((0, 242, 0))
        );
        assert_eq!(parse_lint_tally("lint: warn[A302] pair"), None);
    }

    #[test]
    fn report_mismatch_names_line() {
        assert!(check_report("a\nb\n", "a\nb\n").is_ok());
        let e = check_report("a\nb\n", "a\nc\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }
}
