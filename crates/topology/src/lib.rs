#![warn(missing_docs)]

//! Synthetic Internet topology and BGP-style anycast routing.
//!
//! The paper's central mechanism question — *why* is anycast inflation
//! large for root DNS letters but small for Microsoft's CDN (§7.1) — is a
//! routing question. This crate provides the substrate to answer it in
//! simulation:
//!
//! * [`asn`] — AS identities, kinds (tier-1 / transit / eyeball / content /
//!   hoster), and organizations (sibling merging for Fig. 6),
//! * [`prefix`] — an IPv4-like /24-granular address plan plus the
//!   Team-Cymru-style IP→ASN mapping service of §2.1,
//! * [`graph`] — the AS-level graph with Gao–Rexford relationships and
//!   geographic interconnection points,
//! * [`gen`] — deterministic generation of a tiered Internet with
//!   realistic geography (PoPs near population centers),
//! * [`bgp`] — route propagation and the BGP decision process
//!   (local-pref ≻ AS-path length ≻ early-exit IGP ≻ stable tie-break),
//! * [`anycast`] — anycast deployments (sites, global/local scope,
//!   selective-announcement traffic engineering) and catchment
//!   computation,
//! * [`infer`] — Gao-style AS-relationship inference from observed
//!   paths, with ground-truth scoring (the CAIDA-dataset stand-in),
//! * [`waypoints`] — the hot-potato walk of an AS-level path (the
//!   interconnect nearest the traffic at each handoff) to its entry into
//!   the origin AS and its great-circle length, which is what makes long
//!   AS paths *physically* circuitous in the latency model.
//!
//! The model is intentionally policy-faithful rather than
//! message-faithful: we compute BGP outcomes (which site each source
//! selects and along which AS path) rather than simulating UPDATE
//! churn — the paper measures steady-state catchments, not convergence.

pub mod anycast;
pub mod asn;
pub mod bgp;
pub mod gen;
pub mod graph;
pub mod infer;
pub mod prefix;
pub mod waypoints;

pub use anycast::{
    AnycastDeployment, AnycastSite, CandidateKey, Catchment, RouteCache, SiteAssignment, SiteDrain,
    SiteId,
};
pub use asn::{AsKind, Asn, OrgId};
pub use bgp::{ExportScope, OriginRoutes, RouteClass};
pub use gen::{InternetGenerator, TopologyConfig};
pub use infer::{infer_relationships, score_inference};
pub use graph::{nearest, AsGraph, AsNode, Relationship};
pub use prefix::{IpToAsnService, Ipv4Addr24, Prefix24};
