//! `wormhole-core`: the paper's contribution — techniques for tracking
//! invisible MPLS tunnels.
//!
//! * [`fingerprint`] — TTL-based router signatures (Table 1);
//! * [`frpla`] — Forward/Return Path Length Analysis: the statistical
//!   *shift* detector and tunnel-length estimator;
//! * [`rtla`] — Return Tunnel Length Analysis: the exact `<255,64>`
//!   *gap* method;
//! * [`reveal`] — DPR and BRPR, the hop-revealing recursion of §4;
//! * [`veracity`] — evidence screens grading each revelation
//!   Corroborated/Unverified/Contradicted against deceptive routers
//!   and non-Paris load balancers;
//! * [`campaign`] — the full HDN-driven measurement campaign;
//! * [`smart`] — the §8 "modified traceroute": FRPLA/RTLA as triggers,
//!   DPR/BRPR revealing hidden hops on the fly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod fingerprint;
pub mod frpla;
pub mod reveal;
pub mod rtla;
mod shard;
pub mod smart;
pub mod veracity;

pub use campaign::{
    audit_campaign, audit_input, snapshot_oracle, Campaign, CampaignConfig, CampaignReport,
    CampaignResult, CampaignTimings, CandidatePair, DegradedShard, HdnRule, Scheduling,
    SnapshotDelta,
};
pub use fingerprint::{infer_initial_ttl, return_path_len, FingerprintTable, Signature};
pub use frpla::{rfa_of_hop, rfa_of_trace, FrplaAnalysis, RfaDistribution, RfaSample};
pub use reveal::{
    reveal_between, AbandonReason, Confidence, MissingPart, RevealMethod, RevealOpts, RevealStep,
    RevealedHop, RevealedTunnel, RevelationOutcome, Veracity,
};
pub use rtla::{return_tunnel_length, sample as rtla_sample, tunnel_asymmetry, RtlaSample};
pub use smart::{smart_traceroute, SmartHop, SmartOpts, SmartTrace, Trigger};
pub use veracity::{screen_revelation, PLAUSIBLE_REPLY_INITS};
