#![warn(missing_docs)]

//! The paper's analysis pipeline, end to end.
//!
//! Raw datasets (DITL captures, CDN logs, probe measurements, user
//! counts) go in; figure-ready distributions come out:
//!
//! * [`stats`] — weighted CDFs and box summaries (every figure is one),
//! * [`preprocess`](mod@preprocess) — §2.1's DITL filtering (invalid names, PTR, private
//!   space, IPv6), with Appendix B.1's keep-invalid counterfactual,
//! * [`join`] — DITL∩CDN /24 joining, the exact-IP counterfactual, the
//!   APNIC per-AS variant, and Table 4's overlap accounting,
//! * [`amortize`] — queries-per-user-per-day amortization (Fig. 3/8/9),
//! * [`inflation`] — Eq. 1 geographic and Eq. 2 latency inflation for
//!   root letters and CDN rings (Figs. 2 and 5), plus Fig. 7b coverage,
//! * [`affinity`] — Eq. 3 favorite-site fractions (Fig. 10),
//! * [`paths`] — AS-path-length distributions and inflation-by-length
//!   (Fig. 6), with org merging and interface cleaning,
//! * [`efficiency`](mod@efficiency) — §7.2's efficiency metric and Fig. 7a points.
//!
//! Beyond the paper's artifacts, four extension studies answer the
//! questions the paper raises but cannot measure:
//!
//! * [`unicast`] — the Li-et-al unicast-alternative inflation metric §3
//!   declines, computed on ground truth,
//! * [`locals`] — who local (NO_EXPORT) sites serve and what they save,
//! * [`resilience`] — DDoS failure cascades over anycast catchments
//!   (Table 1's top growth driver),
//! * [`te`] — the selective-announcement traffic-engineering loop of
//!   §7.1, as a greedy optimizer.

pub mod affinity;
pub mod amortize;
pub mod efficiency;
pub mod inflation;
pub mod join;
pub mod locals;
pub mod paths;
pub mod preprocess;
pub mod resilience;
pub mod stats;
pub mod te;
pub mod unicast;

pub use affinity::{favorite_site_miss_fractions, site_affinity_over_windows};
pub use amortize::{ideal_queries_per_user_cdf, queries_per_user_cdf};
pub use efficiency::{efficiency, kendall_tau};
pub use inflation::{cdn_inflation, coverage_cdf, root_inflation, RootInflation};
pub use join::{join_by_asn, join_by_ip, join_by_prefix};
pub use preprocess::{preprocess, FilterOptions};
pub use locals::local_site_study;
pub use resilience::SiteCapacities;
pub use stats::{median, BoxStats, WeightedCdf};
pub use unicast::unicast_study;
