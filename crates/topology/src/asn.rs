//! AS identities, kinds, and organizations.

use serde::{Deserialize, Serialize};

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// An organization owning one or more sibling ASes.
///
/// Fig. 6 merges AS siblings "into one 'organization'" (using CAIDA's
/// AS-to-organization dataset) before counting AS-path lengths; the
/// topology records ground-truth org membership so the analysis can do the
/// same merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OrgId(pub u32);

/// Coarse behavioural class of an AS.
///
/// The class drives topology generation (who connects to whom, how many
/// PoPs, how many prefixes) and the last-mile latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// Global transit-free backbone; full mesh of peers with other tier-1s,
    /// PoPs on every continent.
    Tier1,
    /// Regional/continental transit provider; customer of tier-1s,
    /// provider of eyeballs/hosters in its footprint.
    Transit,
    /// Access ("eyeball") network serving end users and typically also
    /// running the users' recursive resolvers.
    Eyeball,
    /// Content/cloud network (the CDN AS is one of these): peers widely,
    /// hosts services, no end users.
    Content,
    /// Hosting/colocation provider: the kind of AS that volunteers to host
    /// root DNS sites under open hosting policies (§7.3).
    Hoster,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_display() {
        assert_eq!(Asn(65000).to_string(), "AS65000");
    }

    #[test]
    fn asn_ordering_is_numeric() {
        assert!(Asn(2) < Asn(10));
    }
}
