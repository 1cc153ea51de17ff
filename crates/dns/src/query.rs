//! Query names, types, and the paper's traffic taxonomy.
//!
//! §2.1's pre-processing is all about classifying queries: of 51.9 B
//! daily root queries, 31 B target non-existing TLDs (≈28% of those are
//! Chromium captive-portal probes), 2 B are PTR lookups, 7% come from
//! private space, 12% are IPv6. [`QueryClass`] is the label that
//! classification produces, and Appendix B.1 re-runs Fig. 3 with the
//! invalid classes included.

use serde::{Deserialize, Serialize};

/// DNS query types the analysis distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryType {
    /// IPv4 address.
    A,
    /// IPv6 address.
    Aaaa,
    /// Delegation.
    Ns,
    /// Reverse lookup.
    Ptr,
}

/// Why a query reached the root, in the taxonomy of §2.1 / Appendix B.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryClass {
    /// A lookup under an existing TLD — the only class on the user's
    /// critical path.
    ValidTld,
    /// Chromium-style captive-portal probe: a random single-label name
    /// sent at browser startup/network change, never awaited by a page.
    ChromiumProbe,
    /// Queries for invalid suffixes like `local`, `belkin`, `corp` —
    /// leaked by software and corporate networks (\[28\] in the paper).
    JunkSuffix,
    /// A misspelled TLD a user might actually wait on; rare (\[28\] finds
    /// most invalid queries are not typos).
    Typo,
    /// PTR lookup (traceroute, auth logging) — not web latency.
    Ptr,
}

impl QueryClass {
    /// Whether §2.1's filtering keeps this class ("queries that affect
    /// user latency").
    pub fn is_user_latency(&self) -> bool {
        matches!(self, QueryClass::ValidTld | QueryClass::Typo)
    }

    /// Whether the query's target TLD exists in the root zone.
    pub fn tld_exists(&self) -> bool {
        matches!(self, QueryClass::ValidTld | QueryClass::Ptr)
    }
}

/// A query name reduced to what the reproduction needs: the full name
/// (for answer caching at the recursive), the TLD (or invalid suffix, for
/// root-level behaviour), and its traffic class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryName {
    /// Fully-qualified name, lower-case (e.g. `"www.example.com"`).
    pub fqdn: String,
    /// The rightmost label, lower-case.
    pub tld: String,
    /// Traffic class.
    pub class: QueryClass,
}

impl QueryName {
    /// A lookup of `host` under existing TLD `tld`.
    pub fn valid_host(host: impl Into<String>, tld: impl Into<String>) -> Self {
        let tld = tld.into().to_ascii_lowercase();
        let fqdn = format!("{}.{}", host.into().to_ascii_lowercase(), tld);
        Self { fqdn, tld, class: QueryClass::ValidTld }
    }

    /// A generic lookup under existing TLD `tld`.
    pub fn valid(tld: impl Into<String>) -> Self {
        Self::valid_host("www.example", tld)
    }

    /// A Chromium captive-portal probe (random 7–15 letter label).
    pub fn chromium_probe(random_label: impl Into<String>) -> Self {
        let label = random_label.into();
        Self { fqdn: label.clone(), tld: label, class: QueryClass::ChromiumProbe }
    }

    /// A junk-suffix query.
    pub fn junk(suffix: impl Into<String>) -> Self {
        let suffix = suffix.into();
        Self { fqdn: format!("device.{suffix}"), tld: suffix, class: QueryClass::JunkSuffix }
    }

    /// A typo'd TLD.
    pub fn typo(tld: impl Into<String>) -> Self {
        let tld = tld.into();
        Self { fqdn: format!("www.example.{tld}"), tld, class: QueryClass::Typo }
    }

    /// A PTR lookup.
    pub fn ptr() -> Self {
        Self { fqdn: "4.3.2.1.in-addr.arpa".into(), tld: "arpa".into(), class: QueryClass::Ptr }
    }
}

/// The junk suffixes \[28\] found dominate invalid root traffic.
pub const JUNK_SUFFIXES: &[&str] = &["local", "no_dot", "belkin", "corp", "home", "lan", "internal"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_valid_and_typo_are_user_latency() {
        assert!(QueryName::valid("com").class.is_user_latency());
        assert!(QueryName::typo("cmo").class.is_user_latency());
        assert!(!QueryName::chromium_probe("xkqzpfwh").class.is_user_latency());
        assert!(!QueryName::junk("local").class.is_user_latency());
        assert!(!QueryName::ptr().class.is_user_latency());
    }

    #[test]
    fn valid_lowercases() {
        assert_eq!(QueryName::valid("COM").tld, "com");
    }

    #[test]
    fn tld_existence() {
        assert!(QueryClass::ValidTld.tld_exists());
        assert!(QueryClass::Ptr.tld_exists());
        assert!(!QueryClass::Typo.tld_exists());
        assert!(!QueryClass::ChromiumProbe.tld_exists());
    }

    #[test]
    fn junk_suffix_list_is_nonempty_and_lowercase() {
        assert!(!JUNK_SUFFIXES.is_empty());
        for s in JUNK_SUFFIXES {
            assert_eq!(*s, s.to_ascii_lowercase());
        }
    }
}
