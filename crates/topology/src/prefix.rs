//! IPv4-like /24-granular address plan and IP→ASN mapping.
//!
//! Everything in the paper's DITL pipeline is /24-granular: captures are
//! "partially anonymized, but only at the /24 level", user counts and
//! query volumes are joined by "recursive /24" (§2.1), and Appendix B.2
//! studies per-/24 routing coherence. We therefore model addresses as a
//! `(/24 prefix, host byte)` pair and allocate prefixes to ASes.
//!
//! [`IpToAsnService`] reproduces the Team Cymru IP→ASN mapping step, with
//! a configurable unmapped fraction (the paper maps 99.4% of DITL IPs,
//! covering 98.6% of query volume).

use crate::asn::Asn;
use par::DetHashMap;
use serde::{Deserialize, Serialize};

/// A /24 prefix, stored as the upper 24 bits of an IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Prefix24(pub u32);

impl Prefix24 {
    /// The /24 containing a full 32-bit address.
    pub fn containing(addr: u32) -> Self {
        Prefix24(addr >> 8)
    }

    /// Address of host `host` within this /24.
    pub fn host(&self, host: u8) -> Ipv4Addr24 {
        Ipv4Addr24 { prefix: *self, host }
    }

    /// Dotted-quad rendering of the network address (host byte 0).
    pub(crate) fn dotted(&self) -> String {
        let a = self.0 << 8;
        format!("{}.{}.{}.0/24", (a >> 24) & 0xff, (a >> 16) & 0xff, (a >> 8) & 0xff)
    }

    /// Whether this prefix falls in private/special-purpose space
    /// (RFC 1918 plus loopback and link-local), which §2.1 filters out of
    /// DITL (7% of all queries).
    pub fn is_private(&self) -> bool {
        let a = self.0 << 8;
        let o1 = (a >> 24) & 0xff;
        let o2 = (a >> 16) & 0xff;
        o1 == 10
            || (o1 == 172 && (16..=31).contains(&o2))
            || (o1 == 192 && o2 == 168)
            || o1 == 127
            || (o1 == 169 && o2 == 254)
    }
}

impl std::fmt::Display for Prefix24 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.dotted())
    }
}

/// A single IPv4-like address: a /24 prefix plus a host byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Addr24 {
    /// The covering /24.
    pub prefix: Prefix24,
    /// Low 8 bits.
    pub host: u8,
}

impl Ipv4Addr24 {
    /// The full 32-bit address value.
    pub(crate) fn as_u32(&self) -> u32 {
        (self.prefix.0 << 8) | self.host as u32
    }
}

impl std::fmt::Display for Ipv4Addr24 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = self.as_u32();
        write!(f, "{}.{}.{}.{}", (a >> 24) & 0xff, (a >> 16) & 0xff, (a >> 8) & 0xff, a & 0xff)
    }
}

/// Team-Cymru-style IP→ASN mapping service over the ground-truth address
/// plan, with a configurable fraction of unmapped prefixes.
///
/// The miss set is deterministic in the prefix bits (a hash), mirroring how
/// real mapping gaps are stable properties of particular prefixes rather
/// than random per-query noise.
#[derive(Debug, Clone)]
pub struct IpToAsnService {
    map: DetHashMap<Prefix24, Asn>,
    /// Fraction of prefixes the service cannot map (paper: 0.6%).
    miss_rate: f64,
}

impl IpToAsnService {
    /// Builds the service from a ground-truth allocation. `miss_rate` is
    /// the fraction of prefixes that will (deterministically) fail to map.
    ///
    /// # Panics
    ///
    /// Panics if `miss_rate` is outside `[0, 1)`.
    pub fn new(allocations: impl IntoIterator<Item = (Prefix24, Asn)>, miss_rate: f64) -> Self {
        assert!((0.0..1.0).contains(&miss_rate), "miss_rate must be in [0,1)");
        Self { map: allocations.into_iter().collect(), miss_rate }
    }

    /// Maps a /24 to its origin AS, or `None` if the prefix is unknown or
    /// falls in the service's (stable) unmapped set.
    pub fn lookup(&self, prefix: Prefix24) -> Option<Asn> {
        if self.pseudo_uniform(prefix) < self.miss_rate {
            return None;
        }
        self.map.get(&prefix).copied()
    }

    /// Stable hash of the prefix to a uniform `[0, 1)` value
    /// ([`par::splitmix64_mix`]).
    fn pseudo_uniform(&self, prefix: Prefix24) -> f64 {
        par::unit_f64(par::splitmix64_mix((prefix.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_containing_and_host_roundtrip() {
        let p = Prefix24::containing(0x0a_01_02_03);
        assert_eq!(p.host(3).as_u32(), 0x0a_01_02_03);
    }

    #[test]
    fn dotted_rendering() {
        let p = Prefix24::containing(0xc0_a8_01_00);
        assert_eq!(p.dotted(), "192.168.1.0/24");
        assert_eq!(p.host(5).to_string(), "192.168.1.5");
    }

    #[test]
    fn private_space_detection() {
        assert!(Prefix24::containing(0x0a_00_00_00).is_private()); // 10/8
        assert!(Prefix24::containing(0xc0_a8_05_00).is_private()); // 192.168/16
        assert!(Prefix24::containing(0xac_10_00_00).is_private()); // 172.16/12
        assert!(!Prefix24::containing(0xac_20_00_00).is_private()); // 172.32
        assert!(!Prefix24::containing(0x08_08_08_00).is_private()); // 8.8.8
    }

    #[test]
    fn mapping_hits_and_misses_are_stable() {
        let allocs: Vec<_> = (0..10_000u32).map(|i| (Prefix24(i), Asn(i % 50))).collect();
        let svc = IpToAsnService::new(allocs, 0.006);
        let misses = (0..10_000u32).filter(|i| svc.lookup(Prefix24(*i)).is_none()).count();
        // ~0.6% of 10k = ~60; allow generous slack for the hash.
        assert!((20..150).contains(&misses), "misses = {misses}");
        // Stability: same answer on repeat lookups.
        for i in 0..100u32 {
            assert_eq!(svc.lookup(Prefix24(i)), svc.lookup(Prefix24(i)));
        }
    }

    #[test]
    fn zero_miss_rate_maps_everything_known() {
        let svc = IpToAsnService::new(vec![(Prefix24(1), Asn(7))], 0.0);
        assert_eq!(svc.lookup(Prefix24(1)), Some(Asn(7)));
        assert_eq!(svc.lookup(Prefix24(2)), None);
    }

    #[test]
    #[should_panic(expected = "miss_rate")]
    fn invalid_miss_rate_panics() {
        IpToAsnService::new(vec![], 1.0);
    }
}
