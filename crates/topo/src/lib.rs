//! `wormhole-topo`: topology generation for the wormhole reproduction.
//!
//! * [`scenario`] — the paper's GNS3 Fig. 2 testbed under all four §3.3
//!   configurations (plus vendor/knob variants);
//! * [`persona`] — per-AS MPLS deployment personas mirroring the ten
//!   ASes of Tables 4–5;
//! * [`internet`] — a seeded synthetic-Internet generator (transit
//!   personas, stubs, vantage points);
//! * [`ground_truth`] — oracle queries used only for validation;
//! * [`itdk`] — ITDK-style router-level snapshots with HDN extraction;
//! * [`survey`] — the operator-survey constants of §1–2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ground_truth;
pub mod internet;
pub mod itdk;
pub mod persona;
pub mod scenario;
pub mod survey;

pub use ground_truth::GroundTruth;
pub use internet::{generate, Internet, InternetConfig};
pub use itdk::{ItdkBuilder, ItdkSnapshot, NodeInfo};
pub use persona::{paper_personas, random_persona, AsPersona, PopMesh};
pub use scenario::{gns3_fig2, gns3_fig2_te, gns3_fig2_with, Fig2Config, Fig2Opts, Scenario};
