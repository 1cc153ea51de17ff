//! User populations, recursives, and the two user-count datasets.
//!
//! Ground truth first: every ⟨region, AS⟩ location gets a user count
//! (heavy-tailed, proportional to region population). Users resolve DNS
//! through their access network's recursive resolvers (a /24 of colocated
//! resolver IPs — the colocation prior work found for up to 80% of /24s,
//! §2.1) or through a public DNS service hosted in a separate AS (which
//! is exactly the case where APNIC's "recursives live in the user's AS"
//! assumption breaks, §2.1).
//!
//! From the ground truth we derive the paper's two *views*:
//!
//! * [`CdnUserCounts`] — Microsoft-style: unique user IPs observed per
//!   recursive *IP* (undercounts NATed users; misses recursives whose
//!   users never fetch CDN content; sees different resolver IPs within a
//!   /24 than DITL does — the mismatch Table 4 quantifies),
//! * [`ApnicUserCounts`] — APNIC-style: per-AS Internet-user estimates
//!   from ad-network sampling (noisy, coarse, but NAT-free).

use geo::region::RegionId;
use geo::GeoPoint;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use par::DetHashMap as HashMap;
use topology::gen::{ContentAsSpec, Internet};
use topology::{nearest, Asn, Ipv4Addr24, Prefix24};

/// Identifier of a recursive resolver deployment (index into
/// [`UserPopulation::recursives`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct RecursiveId(pub(crate) u32);

/// One recursive resolver deployment: a /24 of colocated resolver hosts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recursive {
    /// Identifier.
    pub(crate) id: RecursiveId,
    /// AS hosting the resolvers.
    pub asn: Asn,
    /// The resolver /24.
    pub prefix: Prefix24,
    /// Where the resolver farm sits (for routing and geolocation).
    pub location: GeoPoint,
    /// Host bytes of resolver IPs that send upstream (DITL-visible)
    /// queries.
    pub(crate) query_ips: Vec<u8>,
    /// Whether this is a public DNS service (users from many ASes).
    pub public_dns: bool,
    /// Ground-truth users served, summed over locations.
    pub users: f64,
}

/// Ground-truth users at one ⟨region, AS⟩ location.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocationUsers {
    /// The region.
    pub region: RegionId,
    /// The eyeball AS.
    pub asn: Asn,
    /// Ground-truth user count.
    pub users: f64,
    /// Recursives serving these users, with the user share via each.
    pub(crate) via: Vec<(RecursiveId, f64)>,
}

/// Population-synthesis parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserConfig {
    /// Total users worldwide ("over a billion" at paper scale).
    pub total_users: f64,
}

impl Default for UserConfig {
    fn default() -> Self {
        Self { total_users: 1.0e9 }
    }
}

/// Fraction of each location's users on public DNS.
const PUBLIC_DNS_SHARE: f64 = 0.15;
/// Fraction of users that are Microsoft users (observable by the
/// CDN-side counting).
const CDN_USER_SHARE: f64 = 0.75;
/// NAT shrink factor: unique IPs per user as the CDN counts them.
const NAT_IP_FACTOR: f64 = 0.6;
/// Fraction of recursives the CDN instrumentation never observes.
const CDN_BLIND_SPOT: f64 = 0.2;
/// Multiplicative noise σ (lognormal) on APNIC per-AS estimates.
const APNIC_NOISE_SIGMA: f64 = 0.5;

/// The synthesized ground-truth population.
#[derive(Debug, Clone)]
pub struct UserPopulation {
    /// Users per ⟨region, AS⟩ location.
    pub locations: Vec<LocationUsers>,
    /// All recursive deployments.
    pub recursives: Vec<Recursive>,
}

impl UserPopulation {
    /// Synthesizes the population over `internet`.
    ///
    /// Adds one public-DNS content AS to the topology (widely peered,
    /// PoPs at top metros) and designates resolver /24s inside every
    /// eyeball AS.
    pub fn synthesize(internet: &mut Internet, config: &UserConfig) -> Self {
        let mut rng = internet.derive_rng(0xa11_0ca7e_u64);

        // Public DNS: one global service.
        let pop_regions: Vec<RegionId> = internet
            .world
            .top_regions_by_population(12.min(internet.world.regions().len()))
            .iter()
            .map(|r| r.id)
            .collect();
        let public_asn = internet.add_content_as(&ContentAsSpec {
            name: "public-dns".into(),
            pop_regions,
            peer_all_tier1: true,
            peer_all_transit: true,
            eyeball_peering_prob: 0.3,
            hoster_peering_prob: 0.0,
            prefixes: 4,
        });

        // Recursives: one /24 per eyeball AS (its first prefix), plus the
        // public service's prefixes at each of its PoPs.
        let mut recursives: Vec<Recursive> = Vec::new();
        let mut by_asn: HashMap<Asn, RecursiveId> = HashMap::default();
        for (asn, _regions) in internet.eyeballs.clone() {
            let node = internet.graph.node(asn);
            let prefix = node.prefixes[0];
            let location = node.pops[0];
            let n_ips = rng.gen_range(1..=5);
            let query_ips: Vec<u8> = (0..n_ips).map(|_| rng.gen_range(1..=250)).collect();
            let id = RecursiveId(recursives.len() as u32);
            recursives.push(Recursive {
                id,
                asn,
                prefix,
                location,
                query_ips,
                public_dns: false,
                users: 0.0,
            });
            by_asn.insert(asn, id);
        }
        // Public DNS farms: one recursive per public PoP.
        let public_node = internet.graph.node(public_asn).clone();
        let mut public_ids: Vec<(GeoPoint, RecursiveId)> = Vec::new();
        for (i, pop) in public_node.pops.iter().enumerate() {
            let prefix = public_node.prefixes[i % public_node.prefixes.len()];
            let id = RecursiveId(recursives.len() as u32);
            let n_ips = rng.gen_range(2..=6);
            recursives.push(Recursive {
                id,
                asn: public_asn,
                prefix,
                location: *pop,
                query_ips: (0..n_ips).map(|_| rng.gen_range(1..=250)).collect(),
                public_dns: true,
                users: 0.0,
            });
            public_ids.push((*pop, id));
        }

        // Users per location: region weight split across its eyeball ASes
        // with random shares, scaled to the configured total.
        let total_weight: f64 = internet.world.total_population_weight();
        let mut locations: Vec<LocationUsers> = Vec::new();
        // Count eyeballs per region to split weight.
        let mut region_shares: HashMap<RegionId, Vec<(Asn, f64)>> = HashMap::default();
        for (asn, regions) in &internet.eyeballs {
            for r in regions {
                region_shares.entry(*r).or_default().push((*asn, rng.gen_range(0.2..1.0)));
            }
        }
        for region in internet.world.regions() {
            let Some(shares) = region_shares.get(&region.id) else { continue };
            let share_total: f64 = shares.iter().map(|(_, s)| s).sum();
            for (asn, share) in shares {
                let users = config.total_users * (region.population_weight / total_weight)
                    * (share / share_total);
                // Route users to their AS recursive and the public service.
                let own = by_asn[asn];
                let public = nearest_public(&public_ids, &region.center);
                let via = vec![
                    (own, users * (1.0 - PUBLIC_DNS_SHARE)),
                    (public, users * PUBLIC_DNS_SHARE),
                ];
                locations.push(LocationUsers { region: region.id, asn: *asn, users, via });
            }
        }
        // Accumulate per-recursive users.
        for loc in &locations {
            for (rid, u) in &loc.via {
                recursives[rid.0 as usize].users += u;
            }
        }

        Self { locations, recursives }
    }

    /// Total ground-truth users.
    pub fn total_users(&self) -> f64 {
        self.locations.iter().map(|l| l.users).sum()
    }

    /// Derives the Microsoft-style user-count dataset: unique user IPs
    /// per recursive *IP* (not /24!). A deterministic per-recursive
    /// draw decides which resolver IPs Microsoft's DNS-mapping technique
    /// observed — intentionally *different* host bytes than the
    /// DITL-visible query IPs about half the time.
    pub fn cdn_user_counts(&self, seed: u64) -> CdnUserCounts {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de_ba5e_0000_0001);
        use rand::SeedableRng as _;
        let mut by_ip: HashMap<Ipv4Addr24, f64> = HashMap::default();
        for rec in &self.recursives {
            if rng.gen_bool(CDN_BLIND_SPOT) {
                continue; // never observed by the CDN
            }
            let observed_users = rec.users * CDN_USER_SHARE * NAT_IP_FACTOR;
            // Microsoft sees 1..4 resolver IPs in this /24; each query IP
            // is re-observed with p=0.35, others are fresh host bytes —
            // resolver farms use different egress IPs toward roots than
            // toward instrumented content.
            let mut ips: Vec<u8> = rec
                .query_ips
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.35))
                .collect();
            let extra = rng.gen_range(0..=2);
            for _ in 0..extra {
                ips.push(rng.gen_range(1..=250));
            }
            if ips.is_empty() {
                ips.push(rng.gen_range(1..=250));
            }
            ips.sort_unstable();
            ips.dedup();
            let per_ip = observed_users / ips.len() as f64;
            for h in ips {
                *by_ip.entry(rec.prefix.host(h)).or_default() += per_ip;
            }
        }
        // Microsoft also maps some users to forwarders/VPN egresses in
        // prefixes that never query the roots directly — CDN-only keys
        // that depress the CDN-side match rate (Table 4's 78.8%).
        for loc in &self.locations {
            if !rng.gen_bool(0.15) {
                continue;
            }
            // A user-prefix of the location's AS acts as a forwarder.
            if recursive_node(&self.recursives, loc).is_none() {
                continue;
            }
            let users = loc.users * CDN_USER_SHARE * NAT_IP_FACTOR * 0.05;
            let prefix = self
                .recursives
                .iter()
                .find(|r| r.asn == loc.asn)
                .map(|r| Prefix24(r.prefix.0 ^ 0x1))
                .unwrap_or(Prefix24(9_999_000));
            *by_ip.entry(prefix.host(rng.gen_range(1..=250))).or_default() += users;
        }
        CdnUserCounts { by_ip }
    }

    /// Derives the APNIC-style per-AS user estimates: ground truth per
    /// eyeball AS with multiplicative lognormal noise. Public-DNS ASes
    /// get *no* users here — APNIC counts where users live, and nobody
    /// lives inside a resolver AS (the joining assumption breaks instead).
    pub fn apnic_user_counts(&self, seed: u64) -> ApnicUserCounts {
        use rand::SeedableRng as _;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de_ba5e_0000_0002);
        let mut truth: HashMap<Asn, f64> = HashMap::default();
        for loc in &self.locations {
            *truth.entry(loc.asn).or_default() += loc.users;
        }
        let mut by_asn: HashMap<Asn, f64> = HashMap::default();
        let mut asns: Vec<Asn> = truth.keys().copied().collect();
        asns.sort();
        for asn in asns {
            let noise = (APNIC_NOISE_SIGMA * netsim::sample_standard_normal(&mut rng)).exp();
            by_asn.insert(asn, truth[&asn] * noise);
        }
        ApnicUserCounts { by_asn }
    }
}

fn recursive_node<'a>(
    recursives: &'a [Recursive],
    loc: &LocationUsers,
) -> Option<&'a Recursive> {
    recursives.iter().find(|r| r.asn == loc.asn)
}

fn nearest_public(publics: &[(GeoPoint, RecursiveId)], loc: &GeoPoint) -> RecursiveId {
    nearest(publics, |(p, _)| p.distance_km(loc))
        .map(|((_, id), _)| *id)
        .expect("public DNS always deployed")
}

/// Microsoft-style user counts: unique user IPs per recursive IP (§2.1).
#[derive(Debug, Clone, Default)]
pub struct CdnUserCounts {
    /// Users per observed recursive IP.
    pub by_ip: HashMap<Ipv4Addr24, f64>,
}

impl CdnUserCounts {
    /// Aggregates to /24 granularity (the DITL∩CDN join key).
    pub fn by_prefix(&self) -> HashMap<Prefix24, f64> {
        let mut out: HashMap<Prefix24, f64> = HashMap::default();
        for (ip, u) in &self.by_ip {
            *out.entry(ip.prefix).or_default() += u;
        }
        out
    }
}

/// APNIC-style per-AS Internet user estimates (§2.1).
#[derive(Debug, Clone, Default)]
pub struct ApnicUserCounts {
    /// Estimated users per AS.
    pub by_asn: HashMap<Asn, f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{InternetGenerator, TopologyConfig};

    fn population() -> (Internet, UserPopulation) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(61));
        let cfg = UserConfig { total_users: 1.0e6 };
        let pop = UserPopulation::synthesize(&mut net, &cfg);
        (net, pop)
    }

    #[test]
    fn total_users_match_config() {
        let (_, pop) = population();
        assert!((pop.total_users() - 1.0e6).abs() / 1.0e6 < 1e-6);
    }

    #[test]
    fn every_location_has_two_resolver_paths() {
        let (_, pop) = population();
        for loc in &pop.locations {
            assert_eq!(loc.via.len(), 2);
            let recursive = |i: usize| {
                let (RecursiveId(id), _) = loc.via[i];
                &pop.recursives[id as usize]
            };
            let own = recursive(0);
            assert_eq!(own.asn, loc.asn, "primary recursive lives in the user AS");
            let public = recursive(1);
            assert!(public.public_dns);
        }
    }

    #[test]
    fn recursive_user_totals_are_conserved() {
        let (_, pop) = population();
        let via_recursives: f64 = pop.recursives.iter().map(|r| r.users).sum();
        assert!((via_recursives - pop.total_users()).abs() / pop.total_users() < 1e-6);
    }

    #[test]
    fn public_dns_carries_configured_share() {
        let (_, pop) = population();
        let public: f64 =
            pop.recursives.iter().filter(|r| r.public_dns).map(|r| r.users).sum();
        let share = public / pop.total_users();
        assert!((share - 0.15).abs() < 0.01, "public share {share}");
    }

    #[test]
    fn cdn_counts_undercount_ground_truth() {
        let (_, pop) = population();
        let counts = pop.cdn_user_counts(1);
        let total: f64 = counts.by_ip.values().sum();
        // NAT + blind spot + MS share ⇒ strictly below ground truth.
        assert!(total < 0.7 * pop.total_users(), "{total}");
        assert!(total > 0.1 * pop.total_users(), "{total}");
    }

    #[test]
    fn cdn_ip_level_overlap_with_ditl_ips_is_partial() {
        let (_, pop) = population();
        let counts = pop.cdn_user_counts(2);
        let ditl_ips: std::collections::HashSet<Ipv4Addr24> = pop
            .recursives
            .iter()
            .flat_map(|r| r.query_ips.iter().map(|h| r.prefix.host(*h)))
            .collect();
        let cdn_ips: Vec<&Ipv4Addr24> = counts.by_ip.keys().collect();
        let overlap = cdn_ips.iter().filter(|ip| ditl_ips.contains(**ip)).count();
        let frac = overlap as f64 / cdn_ips.len() as f64;
        assert!(frac > 0.1 && frac < 0.9, "IP-level overlap {frac}");
    }

    #[test]
    fn apnic_estimates_track_truth_with_noise() {
        let (_, pop) = population();
        let apnic = pop.apnic_user_counts(3);
        let mut truth: HashMap<Asn, f64> = HashMap::default();
        for l in &pop.locations {
            *truth.entry(l.asn).or_default() += l.users;
        }
        let mut ratios: Vec<f64> = truth
            .iter()
            .filter_map(|(asn, t)| apnic.by_asn.get(asn).map(|e| e / t))
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med = ratios[ratios.len() / 2];
        assert!((0.6..1.6).contains(&med), "median ratio {med}");
        // No APNIC users in the public DNS AS.
        for r in pop.recursives.iter().filter(|r| r.public_dns) {
            assert!(!apnic.by_asn.contains_key(&r.asn));
        }
    }

    #[test]
    fn datasets_are_deterministic() {
        let (_, pop) = population();
        let a = pop.cdn_user_counts(7);
        let b = pop.cdn_user_counts(7);
        assert_eq!(a.by_ip.len(), b.by_ip.len());
        let x = pop.apnic_user_counts(7);
        let y = pop.apnic_user_counts(7);
        assert_eq!(x.by_asn, y.by_asn);
    }
}
