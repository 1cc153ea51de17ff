#![warn(missing_docs)]

//! DNS substrate: root zone, root letters, and recursive resolution.
//!
//! The first of the paper's two systems. This crate models exactly the
//! pieces the paper measures:
//!
//! * [`query`] — query names/types and the traffic taxonomy §2.1 filters
//!   by (valid TLD / invalid TLD / Chromium probes / PTR),
//! * [`zone`] — the root zone: ~1000 TLDs with 2-day NS TTLs and a
//!   Zipf popularity profile,
//! * [`letters`] — the 13 root letters as anycast deployments over the
//!   synthetic Internet, with per-letter deployment *strategies*
//!   (university, legacy, open-hosting, CDN-partner) that reproduce the
//!   diversity §7.2 observes, plus the 2018 vs 2020 DITL metadata of
//!   Appendix B.3,
//! * [`resolver`] — a caching recursive resolver: TTL-respecting cache,
//!   root-letter preference (recursives favor low-latency letters, §3),
//!   and the BIND redundant-query pathology of Appendix E / Table 5,
//! * [`hierarchy`] — the authoritative layer below the root: TLD
//!   operator platforms (the com-like registry, regional ccTLD anycast,
//!   and the long-tail shared platform),
//! * [`survey`] — Table 1's operator survey encoded as data, plus the
//!   growth model that evolves 2018 deployments into their 2020 shape.

pub mod hierarchy;
pub mod letters;
pub mod query;
pub mod resolver;
pub mod survey;
pub mod zone;

pub use hierarchy::DnsHierarchy;
pub use letters::{Letter, LetterSet};
pub use query::QueryName;
pub use zone::{RootZone, TLD_TTL_MS};
