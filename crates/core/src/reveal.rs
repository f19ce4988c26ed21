//! DPR and BRPR — revealing the hidden hops (paper §3.2, §4).
//!
//! Both techniques exploit the fact that not all packets inside an MPLS
//! network are label-switched:
//!
//! * **DPR** (Direct Path Revelation): when internal prefixes are not in
//!   LDP (Juniper's loopback-only default), a trace towards the egress
//!   LER's *incoming interface* follows the explicit IGP route and
//!   reveals the whole hidden path in one probe burst;
//! * **BRPR** (Backward Recursive Path Revelation): with LDP on all
//!   prefixes (Cisco default) and PHP, a trace towards the egress
//!   reveals the Last Hop (the LSP towards the egress's incoming `/31`
//!   ends one router early); recursing on each newly revealed address
//!   walks the LSP backwards to the ingress.
//!
//! The driver below implements the §4 recursion verbatim: re-trace the
//! egress, recurse while exactly one new hop appears, stop when nothing
//! new is revealed or the trace no longer passes through the ingress.

use wormhole_net::{Addr, RouterId};
use wormhole_probe::Session;

/// Options for the revelation recursion.
#[derive(Clone, Debug)]
pub struct RevealOpts {
    /// Maximum recursion depth (traces beyond the initial one).
    pub max_steps: usize,
    /// Spend one extra trace re-running the first re-trace and flag a
    /// path change ([`RevealedTunnel::retrace_mismatch`]). Per-flow
    /// forwarding makes the repeat byte-identical, so any difference is
    /// positive evidence of a non-Paris load balancer forking the
    /// per-probe path. Off by default — the campaign enables it only
    /// under deceptive fault plans, keeping honest probe counts (and
    /// reports) unchanged.
    pub paris_check: bool,
}

impl Default for RevealOpts {
    fn default() -> RevealOpts {
        RevealOpts {
            max_steps: 16,
            paris_check: false,
        }
    }
}

/// One newly revealed hop.
#[derive(Clone, Debug, PartialEq)]
pub struct RevealedHop {
    /// The revealed address.
    pub addr: Addr,
    /// Whether the revealing trace quoted MPLS labels at this hop (if
    /// so, the "tunnel" was explicit, not invisible — used by the
    /// cross-validation criteria of Table 3).
    pub labeled: bool,
    /// Round-trip time observed when the hop was revealed (feeds the
    /// Fig. 6 RTT decomposition).
    pub rtt_ms: Option<f64>,
    /// Simulator ground truth (validation only).
    pub truth: Option<RouterId>,
}

/// One step of the recursion.
#[derive(Clone, Debug)]
pub struct RevealStep {
    /// The address this step traced towards.
    pub target: Addr,
    /// The new hops it revealed, in forward (ingress→egress) order.
    pub new_hops: Vec<RevealedHop>,
}

/// Which §4 bucket a revelation falls into.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RevealMethod {
    /// Several hops in a single extra trace.
    Dpr,
    /// One hop per recursion step, more than one step.
    Brpr,
    /// A single revealed hop: DPR and BRPR are indistinguishable
    /// (Table 3's "BRPR or DPR" row).
    Either,
    /// A mix: single-hop steps plus a multi-hop step
    /// (Table 3's "hybrid DPR/BRPR").
    Hybrid,
}

/// A revealed invisible tunnel.
#[derive(Clone, Debug)]
pub struct RevealedTunnel {
    /// The suspected tunnel ingress (address `X` of §4).
    pub ingress: Addr,
    /// The suspected tunnel egress (address `Y`).
    pub egress: Addr,
    /// The original trace's destination (`D`).
    pub target: Addr,
    /// The recursion transcript.
    pub steps: Vec<RevealStep>,
    /// Extra probe packets spent by the revelation.
    pub extra_probes: u64,
    /// Addresses observed at more than one TTL across the re-traces.
    /// The veracity screen reads a non-zero count as a forged
    /// loop/cycle artifact (non-Paris load balancing). It is not proof:
    /// an honest re-trace can also show one address at two
    /// consecutive TTLs.
    pub revisits: usize,
    /// Non-responding hops (`*`) across the re-traces — the raw count
    /// behind the [`Confidence`] grade, kept for the star-burst screen.
    pub stars: usize,
    /// The [`RevealOpts::paris_check`] repeat of the first re-trace
    /// followed a different path — positive evidence that the per-flow
    /// invariant DPR/BRPR rely on does not hold here.
    pub retrace_mismatch: bool,
}

impl RevealedTunnel {
    /// The revealed hidden hops in forward order (ingress side first).
    ///
    /// BRPR discovers hops backwards (last hop first); the forward order
    /// therefore concatenates the steps most-recent-first.
    pub fn hops(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        for step in self.steps.iter().rev() {
            out.extend(step.new_hops.iter().map(|h| h.addr));
        }
        out
    }

    /// Number of revealed hops.
    pub fn len(&self) -> usize {
        self.steps.iter().map(|s| s.new_hops.len()).sum()
    }

    /// True when nothing was revealed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any revealed hop was labeled.
    pub fn any_labeled(&self) -> bool {
        self.steps
            .iter()
            .any(|s| s.new_hops.iter().any(|h| h.labeled))
    }

    /// The §4 classification.
    pub fn method(&self) -> RevealMethod {
        let revealing: Vec<&RevealStep> = self
            .steps
            .iter()
            .filter(|s| !s.new_hops.is_empty())
            .collect();
        let total = self.len();
        if total == 1 {
            return RevealMethod::Either;
        }
        let multi = revealing.iter().any(|s| s.new_hops.len() > 1);
        if revealing.len() == 1 && multi {
            RevealMethod::Dpr
        } else if multi {
            RevealMethod::Hybrid
        } else {
            RevealMethod::Brpr
        }
    }

    /// The forward tunnel length (FTL) in the paper's Fig. 5 convention:
    /// hops needed to reach the egress from the ingress, i.e. revealed
    /// LSRs + 1.
    pub fn forward_tunnel_length(&self) -> usize {
        self.len() + 1
    }
}

/// Why a revelation was abandoned with nothing revealed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AbandonReason {
    /// The first re-trace never passed through the suspected ingress.
    IngressNotObserved,
    /// The probe budget ran out before anything could be revealed.
    ProbeBudget,
    /// The worker running this revelation panicked; the campaign merge
    /// synthesized this outcome for the degraded shard.
    WorkerPanicked,
}

impl AbandonReason {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AbandonReason::IngressNotObserved => "ingress-not-observed",
            AbandonReason::ProbeBudget => "probe-budget",
            AbandonReason::WorkerPanicked => "worker-panicked",
        }
    }
}

/// What a partial revelation is missing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MissingPart {
    /// A mid-recursion re-trace stopped passing through the ingress;
    /// hops between the ingress and the deepest revealed hop are
    /// unaccounted for.
    IngressLostMidway,
    /// The recursion hit its step limit while still discovering hops.
    StepLimit,
    /// The probe budget ran out mid-recursion.
    ProbeBudget,
}

impl MissingPart {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MissingPart::IngressLostMidway => "ingress-lost-midway",
            MissingPart::StepLimit => "step-limit",
            MissingPart::ProbeBudget => "probe-budget",
        }
    }
}

/// How trustworthy a revelation's hop set is, judged by how degraded
/// its re-traces were (stars, rate-limited hops, truncation).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Confidence {
    /// Every re-trace hop replied.
    High,
    /// A couple of degraded hops across the revelation's re-traces.
    Medium,
    /// The re-traces were heavily degraded; revealed hops may be an
    /// under-count.
    Low,
}

impl Confidence {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Confidence::High => "high",
            Confidence::Medium => "medium",
            Confidence::Low => "low",
        }
    }

    /// Grades a revelation by the number of degraded (non-replying)
    /// hops observed across its re-traces.
    fn grade(degraded_hops: usize) -> Confidence {
        match degraded_hops {
            0 => Confidence::High,
            1..=2 => Confidence::Medium,
            _ => Confidence::Low,
        }
    }
}

/// How a revelation fared against the independent-evidence screens
/// (quoted-TTL plausibility, per-flow stability, duplicate-IP/loop
/// checks) — the defense against deceptive routers and non-Paris load
/// balancers forging measurement artifacts. Orthogonal to
/// [`Confidence`]: confidence grades how *degraded* the re-traces were,
/// veracity grades whether the evidence actively corroborates or
/// contradicts the claimed hop set.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Veracity {
    /// Every screen that could run returned positive corroborating
    /// evidence (plausible fingerprints on all participants, stable
    /// re-traces, consistent return-path length where measurable).
    Corroborated,
    /// The screens could not gather enough evidence either way — also
    /// the default before the campaign's screening pass runs.
    Unverified,
    /// At least one screen found positive evidence of an artifact
    /// (forged loop, per-flow instability, implausible quoted TTL).
    Contradicted,
}

impl Veracity {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Veracity::Corroborated => "corroborated",
            Veracity::Unverified => "unverified",
            Veracity::Contradicted => "contradicted",
        }
    }
}

/// Outcome of a revelation attempt: the typed replacement for the old
/// revealed/nothing-hidden/failed trichotomy, distinguishing *how much*
/// was revealed and *why* revelation stopped.
#[derive(Clone, Debug)]
pub enum RevelationOutcome {
    /// The recursion converged on its own. An *empty* complete tunnel
    /// means the re-traces exposed nothing between ingress and egress:
    /// no invisible tunnel, or one that resists both techniques (UHP).
    Complete {
        /// The revelation transcript (possibly empty).
        tunnel: RevealedTunnel,
        /// Re-trace quality.
        confidence: Confidence,
        /// Evidence-screen verdict (set by the campaign's screening
        /// pass; [`Veracity::Unverified`] until then).
        veracity: Veracity,
    },
    /// Hops were revealed but the recursion was cut short; the hop set
    /// is a lower bound.
    Partial {
        /// What was revealed before the cut-off.
        tunnel: RevealedTunnel,
        /// Why the revelation is incomplete.
        missing: MissingPart,
        /// Re-trace quality.
        confidence: Confidence,
        /// Evidence-screen verdict (set by the campaign's screening
        /// pass; [`Veracity::Unverified`] until then).
        veracity: Veracity,
    },
    /// Nothing was revealed and the attempt could not even establish
    /// the ingress/egress bracket.
    Abandoned {
        /// Why.
        reason: AbandonReason,
    },
}

impl RevelationOutcome {
    /// A clean, fully-confident completion (test/merge constructor).
    pub fn complete(tunnel: RevealedTunnel) -> RevelationOutcome {
        RevelationOutcome::Complete {
            tunnel,
            confidence: Confidence::High,
            veracity: Veracity::Unverified,
        }
    }

    /// The evidence-screen verdict. Abandoned attempts have no hop set
    /// to screen, so they are always [`Veracity::Unverified`].
    pub fn veracity(&self) -> Veracity {
        match self {
            RevelationOutcome::Complete { veracity, .. }
            | RevelationOutcome::Partial { veracity, .. } => *veracity,
            RevelationOutcome::Abandoned { .. } => Veracity::Unverified,
        }
    }

    /// Records the evidence-screen verdict (no-op on Abandoned).
    pub fn set_veracity(&mut self, v: Veracity) {
        match self {
            RevelationOutcome::Complete { veracity, .. }
            | RevelationOutcome::Partial { veracity, .. } => *veracity = v,
            RevelationOutcome::Abandoned { .. } => {}
        }
    }

    /// The revealed tunnel, when hops were actually revealed (empty
    /// complete tunnels — "nothing hidden" — return `None`).
    pub fn tunnel(&self) -> Option<&RevealedTunnel> {
        match self {
            RevelationOutcome::Complete { tunnel, .. }
            | RevelationOutcome::Partial { tunnel, .. }
                if !tunnel.is_empty() =>
            {
                Some(tunnel)
            }
            _ => None,
        }
    }

    /// True when the attempt completed and exposed nothing hidden.
    pub fn is_nothing_hidden(&self) -> bool {
        matches!(self, RevelationOutcome::Complete { tunnel, .. } if tunnel.is_empty())
    }

    /// True when the attempt was abandoned outright.
    pub fn is_abandoned(&self) -> bool {
        matches!(self, RevelationOutcome::Abandoned { .. })
    }

    /// Re-trace quality, when the attempt produced traces at all.
    pub fn confidence(&self) -> Option<Confidence> {
        match self {
            RevelationOutcome::Complete { confidence, .. }
            | RevelationOutcome::Partial { confidence, .. } => Some(*confidence),
            RevelationOutcome::Abandoned { .. } => None,
        }
    }

    /// Short kind label for reports ("complete"/"partial"/"abandoned").
    pub fn kind_label(&self) -> &'static str {
        match self {
            RevelationOutcome::Complete { .. } => "complete",
            RevelationOutcome::Partial { .. } => "partial",
            RevelationOutcome::Abandoned { .. } => "abandoned",
        }
    }
}

/// The hops strictly between `after` and the final hop equal to `until`
/// in a trace, as (addr, labeled, truth) triples. `None` when the trace
/// does not pass through `after` or does not end at `until`.
fn segment_between(
    trace: &wormhole_probe::Trace,
    after: Addr,
    until: Addr,
) -> Option<Vec<RevealedHop>> {
    let hops: Vec<&wormhole_probe::TraceHop> =
        trace.hops.iter().filter(|h| h.addr.is_some()).collect();
    let i = hops.iter().position(|h| h.addr == Some(after))?;
    let j = hops.iter().position(|h| h.addr == Some(until))?;
    if j < i {
        return None;
    }
    Some(
        hops[i + 1..j]
            .iter()
            .filter_map(|h| {
                h.addr.map(|addr| RevealedHop {
                    addr,
                    labeled: h.is_labeled(),
                    rtt_ms: h.rtt_ms,
                    truth: h.truth,
                })
            })
            .collect(),
    )
}

/// Runs the §4 revelation between a suspected ingress `x` and egress
/// `y` first observed on a trace towards `target`.
pub fn reveal_between(
    sess: &mut Session<'_>,
    x: Addr,
    y: Addr,
    target: Addr,
    opts: &RevealOpts,
) -> RevelationOutcome {
    let probes_before = sess.stats.probes;
    let mut steps: Vec<RevealStep> = Vec::new();
    let mut known: std::collections::HashSet<Addr> = [x, y, target].into_iter().collect();
    let mut cur = y;
    let mut degraded_hops = 0usize;
    let mut revisits = 0usize;
    let mut first_path: Option<Vec<Option<Addr>>> = None;
    let mut missing: Option<MissingPart> = None;
    for step_idx in 0..=opts.max_steps {
        let trace = sess.traceroute(cur);
        degraded_hops += trace.hops.iter().filter(|h| h.addr.is_none()).count();
        revisits += trace.revisits();
        if step_idx == 0 && opts.paris_check {
            first_path = Some(trace.addr_path());
        }
        let Some(seg) = segment_between(&trace, x, cur) else {
            // The re-trace does not pass through the ingress: stop, keep
            // whatever was already revealed.
            if steps.iter().all(|s| s.new_hops.is_empty()) {
                return RevelationOutcome::Abandoned {
                    reason: if trace.truncated {
                        AbandonReason::ProbeBudget
                    } else {
                        AbandonReason::IngressNotObserved
                    },
                };
            }
            missing = Some(if trace.truncated {
                MissingPart::ProbeBudget
            } else {
                MissingPart::IngressLostMidway
            });
            break;
        };
        let new_hops: Vec<RevealedHop> = seg
            .into_iter()
            .filter(|h| !known.contains(&h.addr))
            .collect();
        for h in &new_hops {
            known.insert(h.addr);
        }
        let n = new_hops.len();
        let next = new_hops.first().map(|h| h.addr);
        steps.push(RevealStep {
            target: cur,
            new_hops,
        });
        match (n, next) {
            // Backward step: recurse towards the newly revealed hop.
            (1, Some(revealed)) => {
                cur = revealed;
                if step_idx == opts.max_steps {
                    // Still discovering when the step limit hit: the
                    // hop set is a lower bound.
                    missing = Some(MissingPart::StepLimit);
                }
            }
            // Recursion exhausted, or DPR revealed the remainder at once.
            _ => break,
        }
    }
    // The per-flow stability screen: repeat the first re-trace and
    // compare paths. Honest per-flow ECMP repeats byte-identically (the
    // Paris flow is held per destination); only a load balancer keyed
    // on per-probe fields can make the repeat diverge.
    let retrace_mismatch = match first_path {
        Some(ref path) => sess.traceroute(y).addr_path() != *path,
        None => false,
    };
    let extra_probes = sess.stats.probes - probes_before;
    let confidence = Confidence::grade(degraded_hops);
    let tunnel = RevealedTunnel {
        ingress: x,
        egress: y,
        target,
        steps,
        extra_probes,
        revisits,
        stars: degraded_hops,
        retrace_mismatch,
    };
    match missing {
        Some(m) if !tunnel.is_empty() => RevelationOutcome::Partial {
            tunnel,
            missing: m,
            confidence,
            veracity: Veracity::Unverified,
        },
        _ => RevelationOutcome::Complete {
            tunnel,
            confidence,
            veracity: Veracity::Unverified,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_probe::TracerouteOpts;
    use wormhole_topo::{gns3_fig2, Fig2Config, Scenario};

    fn setup(config: Fig2Config) -> (Scenario, Addr, Addr) {
        let s = gns3_fig2(config);
        // The invisible trace shows … PE1.left, PE2.left, CE2 — the
        // candidate ingress/egress pair.
        let x = s.left_addr("PE1");
        let y = s.left_addr("PE2");
        (s, x, y)
    }

    fn names(s: &Scenario, hops: &[Addr]) -> Vec<String> {
        hops.iter()
            .map(|&a| s.net.router(s.net.owner(a).unwrap()).name.clone())
            .collect()
    }

    #[test]
    fn brpr_on_cisco_default() {
        let (s, x, y) = setup(Fig2Config::BackwardRecursive);
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let out = reveal_between(&mut sess, x, y, s.target, &RevealOpts::default());
        let t = out.tunnel().expect("revealed");
        assert_eq!(names(&s, &t.hops()), ["P1", "P2", "P3"]);
        assert_eq!(t.method(), RevealMethod::Brpr);
        assert!(!t.any_labeled());
        assert_eq!(t.forward_tunnel_length(), 4);
        assert!(t.extra_probes > 0);
        assert_eq!(out.confidence(), Some(Confidence::High));
        assert_eq!(out.kind_label(), "complete");
    }

    #[test]
    fn dpr_on_juniper_style_config() {
        let (s, x, y) = setup(Fig2Config::ExplicitRoute);
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let out = reveal_between(&mut sess, x, y, s.target, &RevealOpts::default());
        let t = out.tunnel().expect("revealed");
        assert_eq!(names(&s, &t.hops()), ["P1", "P2", "P3"]);
        assert_eq!(t.method(), RevealMethod::Dpr);
        assert!(!t.any_labeled());
        // One extra trace only.
        assert_eq!(t.steps.len(), 1);
    }

    #[test]
    fn uhp_reveals_nothing() {
        let (s, x, _) = setup(Fig2Config::TotallyInvisible);
        // In the UHP trace PE2 does not even appear; the candidate pair
        // seen by the campaign is PE1 → CE2.
        let y = s.loopback("CE2");
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let out = reveal_between(&mut sess, x, y, s.target, &RevealOpts::default());
        assert!(out.is_nothing_hidden());
        assert!(out.tunnel().is_none());
    }

    #[test]
    fn explicit_tunnel_brpr_hops_unlabeled_each_step() {
        // Cross-validation setting: propagate on, LDP on all prefixes.
        // The recursion reveals each Last Hop without labels (Table 2).
        let (s, x, y) = setup(Fig2Config::Default);
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let out = reveal_between(&mut sess, x, y, s.target, &RevealOpts::default());
        let t = out.tunnel().expect("revealed");
        assert_eq!(names(&s, &t.hops()), ["P1", "P2", "P3"]);
        // Visible tunnel: the first re-trace shows P1, P2 labeled and P3
        // (the popped hop) unlabeled — a Dpr-shaped step with labels.
        assert!(t.any_labeled());
        assert_eq!(t.method(), RevealMethod::Dpr);
    }

    #[test]
    fn failed_when_ingress_absent() {
        let (s, _, y) = setup(Fig2Config::BackwardRecursive);
        // A bogus ingress address never on the path.
        let x = s.loopback("CE1");
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        // CE1's loopback is not CE1.left, so the re-trace does not list
        // it: Failed.
        let out = reveal_between(&mut sess, x, y, s.target, &RevealOpts::default());
        assert!(matches!(
            out,
            RevelationOutcome::Abandoned {
                reason: AbandonReason::IngressNotObserved
            }
        ));
        assert!(out.is_abandoned());
        assert_eq!(out.confidence(), None);
    }

    #[test]
    fn step_limit_yields_partial_with_lower_bound() {
        // BRPR needs 3 backward steps for the 3-LSR tunnel; capping the
        // recursion at 1 extra trace cuts it short mid-discovery.
        let (s, x, y) = setup(Fig2Config::BackwardRecursive);
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let out = reveal_between(
            &mut sess,
            x,
            y,
            s.target,
            &RevealOpts {
                max_steps: 1,
                ..RevealOpts::default()
            },
        );
        match &out {
            RevelationOutcome::Partial {
                tunnel, missing, ..
            } => {
                assert_eq!(*missing, MissingPart::StepLimit);
                assert!(!tunnel.is_empty());
                assert!(
                    tunnel.len() < 3,
                    "partial must under-count the 3-LSR tunnel"
                );
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert_eq!(out.kind_label(), "partial");
        assert!(out.tunnel().is_some());
    }

    #[test]
    fn single_hop_tunnel_is_either() {
        // Shrink the tunnel to one LSR by tracing towards P2.left in the
        // BackwardRecursive config: between PE1 and P2 only P1 hides.
        let s = gns3_fig2(Fig2Config::BackwardRecursive);
        let x = s.left_addr("PE1");
        let y = s.left_addr("P2");
        let mut sess = Session::new(&s.net, &s.cp, s.vp);
        sess.set_opts(TracerouteOpts::default());
        let out = reveal_between(&mut sess, x, y, y, &RevealOpts::default());
        let t = out.tunnel().expect("revealed");
        assert_eq!(t.len(), 1);
        assert_eq!(t.method(), RevealMethod::Either);
    }
}
