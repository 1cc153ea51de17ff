//! The 13 root letters as anycast deployments.
//!
//! Each letter is operated independently with its own deployment strategy
//! (§2.1: "13 letters, each with a different anycast deployment with 6 to
//! 254 anycast sites, run by 12 organizations"). The strategy diversity is
//! load-bearing for the paper's Fig. 7a: B (2 university-hosted sites) has
//! high efficiency but terrible latency; F (94 sites via a CDN partner)
//! has low latency *and* low efficiency; open-hosting letters (K, J, L)
//! grew huge through volunteer hosters.
//!
//! [`LetterSet::build`] instantiates all thirteen letters over a synthetic
//! [`Internet`], with 2018-DITL or 2020-DITL site censuses and the
//! per-letter data-availability flags §3 works around (G absent, I
//! anonymized, D/L TCP-broken).

use geo::GeoPoint;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::gen::Internet;
use topology::{AnycastDeployment, AnycastSite, AsKind, Asn, ExportScope, SiteId};

/// A root letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Letter {
    /// A root (Verisign).
    A,
    /// B root (USC/ISI).
    B,
    /// C root (Cogent).
    C,
    /// D root (University of Maryland).
    D,
    /// E root (NASA).
    E,
    /// F root (ISC (Cloudflare-partnered)).
    F,
    /// G root (US DoD).
    G,
    /// H root (US Army Research Lab).
    H,
    /// I root (Netnod).
    I,
    /// J root (Verisign).
    J,
    /// K root (RIPE NCC).
    K,
    /// L root (ICANN).
    L,
    /// M root (WIDE).
    M,
}

impl Letter {
    /// All letters in order.
    pub const ALL: [Letter; 13] = [
        Letter::A,
        Letter::B,
        Letter::C,
        Letter::D,
        Letter::E,
        Letter::F,
        Letter::G,
        Letter::H,
        Letter::I,
        Letter::J,
        Letter::K,
        Letter::L,
        Letter::M,
    ];

    /// Single-character name.
    pub fn name(&self) -> char {
        match self {
            Letter::A => 'A',
            Letter::B => 'B',
            Letter::C => 'C',
            Letter::D => 'D',
            Letter::E => 'E',
            Letter::F => 'F',
            Letter::G => 'G',
            Letter::H => 'H',
            Letter::I => 'I',
            Letter::J => 'J',
            Letter::K => 'K',
            Letter::L => 'L',
            Letter::M => 'M',
        }
    }
}

impl std::fmt::Display for Letter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-root", self.name())
    }
}

/// How a letter's operator deploys sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum DeployStrategy {
    /// A handful of sites hosted by one or two institutions (B, H, M):
    /// simple, high site-affinity, high latency for distant users.
    University,
    /// Sites hosted inside transit providers' PoPs worldwide (A, C, D, E,
    /// G): reachable, but catchments follow transit topology.
    Legacy,
    /// Volunteer hosting at colo/IXP hosters under open policies (I, J,
    /// K, L): many sites, many origin ASes, BGP picks among them
    /// geography-blind.
    OpenHosting,
    /// Partnership with a widely-peered CDN-like network (F + Cloudflare):
    /// many sites inside one content AS, early-exit lands near users.
    CdnPartner,
}

/// Data-availability and census metadata for one letter in one DITL year.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LetterMeta {
    /// The letter.
    pub letter: Letter,
    /// Deployment strategy.
    pub(crate) strategy: DeployStrategy,
    /// Global site count in the census year.
    pub(crate) global_sites: usize,
    /// Unscaled census global-site count (availability rules key off the
    /// real-world census even when the simulation is scaled down).
    pub census_global_sites: usize,
    /// Local (NO_EXPORT) site count.
    pub local_sites: usize,
    /// Whether the letter contributed usable DITL captures.
    pub in_ditl: bool,
    /// Whether captures are fully anonymized (unusable even if present).
    pub fully_anonymized: bool,
    /// Whether TCP handshakes survived capture (D and L root's 2018
    /// PCAPs were malformed — §3 excludes them from latency inflation).
    pub(crate) tcp_ok: bool,
}

impl LetterMeta {
    /// Whether the letter enters geographic-inflation analysis (Fig. 2a):
    /// present, not anonymized, and more than one site.
    pub fn usable_for_geo_inflation(&self) -> bool {
        self.in_ditl && !self.fully_anonymized && self.census_global_sites > 1
    }

    /// Whether the letter enters latency-inflation analysis (Fig. 2b).
    pub fn usable_for_latency_inflation(&self) -> bool {
        self.usable_for_geo_inflation() && self.tcp_ok
    }
}

/// A letter plus its instantiated anycast deployment.
#[derive(Debug, Clone)]
pub struct RootLetter {
    /// Census/availability metadata.
    pub meta: LetterMeta,
    /// The deployed sites (shared: catchment computation and the
    /// parallel layer hold references without deep-cloning).
    pub deployment: Arc<AnycastDeployment>,
}

/// All thirteen letters for one DITL year.
#[derive(Debug, Clone)]
pub struct LetterSet {
    /// The letters, in [`Letter::ALL`] order.
    pub letters: Vec<RootLetter>,
    /// Census year (2018 or 2020).
    pub year: u16,
}

/// 2018 census: (letter, strategy, global, total, in_ditl, anonymized,
/// tcp_ok) from §2.1, Fig. 2, and Fig. 10.
const CENSUS_2018: &[(Letter, DeployStrategy, usize, usize, bool, bool, bool)] = &[
    (Letter::A, DeployStrategy::Legacy, 5, 5, true, false, true),
    (Letter::B, DeployStrategy::University, 2, 2, true, false, true),
    (Letter::C, DeployStrategy::Legacy, 10, 10, true, false, true),
    (Letter::D, DeployStrategy::Legacy, 20, 117, true, false, false),
    (Letter::E, DeployStrategy::Legacy, 15, 85, true, false, true),
    (Letter::F, DeployStrategy::CdnPartner, 94, 141, true, false, true),
    (Letter::G, DeployStrategy::Legacy, 6, 6, false, false, false),
    (Letter::H, DeployStrategy::University, 1, 1, true, false, true),
    (Letter::I, DeployStrategy::OpenHosting, 48, 60, true, true, false),
    (Letter::J, DeployStrategy::OpenHosting, 68, 110, true, false, true),
    (Letter::K, DeployStrategy::OpenHosting, 52, 53, true, false, true),
    (Letter::L, DeployStrategy::OpenHosting, 138, 138, true, false, false),
    (Letter::M, DeployStrategy::University, 5, 6, true, false, true),
];

/// 2020 census (Appendix B.3 / Fig. 11): only M, H, C, D, A, K, J usable;
/// B missing, E one-site-only, F missing its Cloudflare sites, L
/// anonymized, G and I as before.
const CENSUS_2020: &[(Letter, DeployStrategy, usize, usize, bool, bool, bool)] = &[
    (Letter::A, DeployStrategy::Legacy, 51, 51, true, false, true),
    (Letter::B, DeployStrategy::University, 2, 2, false, false, false),
    (Letter::C, DeployStrategy::Legacy, 10, 10, true, false, true),
    (Letter::D, DeployStrategy::Legacy, 23, 150, true, false, true),
    (Letter::E, DeployStrategy::Legacy, 20, 132, false, false, false),
    (Letter::F, DeployStrategy::CdnPartner, 120, 180, false, false, false),
    (Letter::G, DeployStrategy::Legacy, 6, 6, false, false, false),
    (Letter::H, DeployStrategy::University, 8, 8, true, false, true),
    (Letter::I, DeployStrategy::OpenHosting, 60, 70, true, true, false),
    (Letter::J, DeployStrategy::OpenHosting, 127, 160, true, false, true),
    (Letter::K, DeployStrategy::OpenHosting, 75, 80, true, false, true),
    (Letter::L, DeployStrategy::OpenHosting, 150, 150, true, true, false),
    (Letter::M, DeployStrategy::University, 8, 9, true, false, true),
];

impl LetterSet {
    /// Builds the letters for `year` (2018 or 2020) over `internet`,
    /// scaling site counts by `scale` (1.0 = paper-scale; tests use less).
    ///
    /// # Panics
    ///
    /// Panics on unknown years or non-positive scales.
    pub fn build(internet: &mut Internet, year: u16, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let census = match year {
            2018 => CENSUS_2018,
            2020 => CENSUS_2020,
            _ => panic!("no census for year {year}"),
        };
        let mut rng = internet.derive_rng(0x1e77_e125 ^ year as u64);
        let letters = census
            .iter()
            .map(|&(letter, strategy, global, total, in_ditl, anon, tcp_ok)| {
                let global_sites = ((global as f64 * scale).round() as usize).max(1);
                let local_sites =
                    ((total.saturating_sub(global)) as f64 * scale).round() as usize;
                let meta = LetterMeta {
                    letter,
                    strategy,
                    global_sites,
                    census_global_sites: global,
                    local_sites,
                    in_ditl,
                    fully_anonymized: anon,
                    tcp_ok,
                };
                let deployment =
                    Arc::new(build_deployment(internet, &meta, &mut rng));
                RootLetter { meta, deployment }
            })
            .collect();
        Self { letters, year }
    }

    /// The letter's entry.
    pub fn get(&self, letter: Letter) -> &RootLetter {
        self.letters
            .iter()
            .find(|l| l.meta.letter == letter)
            .expect("all letters are always built")
    }

    /// Letters usable for geographic-inflation analysis (Fig. 2a's set).
    pub fn geo_analysis_letters(&self) -> Vec<&RootLetter> {
        self.letters.iter().filter(|l| l.meta.usable_for_geo_inflation()).collect()
    }

    /// Total sites across all letters (the "516 → 1367" growth trivia of
    /// §4.1 at full scale).
    pub fn total_sites(&self) -> usize {
        self.letters.iter().map(|l| l.deployment.total_site_count()).sum()
    }
}

/// IXP-peering probability of the letter's own AS, per strategy: how
/// aggressively the operator peers openly at exchanges near its sites.
fn operator_peering_prob(strategy: DeployStrategy) -> f64 {
    match strategy {
        DeployStrategy::University => 0.0,
        DeployStrategy::Legacy => 0.12,
        DeployStrategy::OpenHosting => 0.3,
        DeployStrategy::CdnPartner => 0.2,
    }
}

/// Places one letter's sites over the Internet per its strategy.
fn build_deployment(internet: &mut Internet, meta: &LetterMeta, rng: &mut StdRng) -> AnycastDeployment {
    let mut sites: Vec<AnycastSite> = Vec::new();
    let push = |sites: &mut Vec<AnycastSite>, host: Asn, loc: GeoPoint, scope: ExportScope| {
        let id = SiteId(sites.len() as u32);
        sites.push(AnycastSite {
            id,
            name: format!("{}-site-{}", meta.letter, sites.len()),
            host,
            location: loc,
            scope,
        });
    };

    match meta.strategy {
        DeployStrategy::University => {
            // All sites at hosters clustered around one home area.
            let mut hosters = internet.hosters.clone();
            hosters.sort();
            let home = hosters[(meta.letter as usize * 7) % hosters.len()];
            let home_loc = internet.graph.node(home).pops[0];
            let mut pool: Vec<Asn> = hosters
                .iter()
                .copied()
                .filter(|h| internet.graph.node(*h).pops[0].distance_km(&home_loc) < 9000.0)
                .collect();
            if pool.is_empty() {
                pool = hosters.clone();
            }
            pool.shuffle(rng);
            for i in 0..meta.global_sites {
                let host = pool[i % pool.len()];
                let loc = internet.graph.node(host).pops[0];
                push(&mut sites, host, jitter(loc, 0.5, rng), ExportScope::Global);
            }
        }
        DeployStrategy::Legacy => {
            // Operator-run deployments live inside a handful of transit
            // ASes (C root is hosted entirely inside one transit
            // provider); sites sit at the hosts' PoPs, spread across the
            // hosts' footprints.
            let n_hosts = ((meta.global_sites + 3) / 4).clamp(1, 8);
            let mut transits = internet.transits.clone();
            transits.shuffle(rng);
            // Prefer hosts on distinct continents for coverage.
            let hosts: Vec<Asn> = transits.into_iter().take(n_hosts).collect();
            for i in 0..meta.global_sites {
                let host = hosts[i % hosts.len()];
                let pops = internet.graph.node(host).pops.clone();
                let loc = pops[(i / hosts.len()) % pops.len()];
                push(&mut sites, host, jitter(loc, 0.3, rng), ExportScope::Global);
            }
        }
        DeployStrategy::OpenHosting => {
            // Global sites at volunteer colo hosters; deployments larger
            // than the hoster population place second racks at existing
            // hosts (never inside transit ASes — open hosting policies
            // recruit edge organizations, §7.3).
            let mut hosters = internet.hosters.clone();
            hosters.shuffle(rng);
            for i in 0..meta.global_sites {
                let host = hosters[i % hosters.len()];
                let loc = internet.graph.node(host).pops[0];
                push(&mut sites, host, jitter(loc, 0.4, rng), ExportScope::Global);
            }
        }
        DeployStrategy::CdnPartner => {
            // A widely-peered partner content AS hosts most sites at its
            // PoPs; a residual handful stay at legacy transit hosts.
            let partner_pops: Vec<_> = {
                let n = meta.global_sites.max(4);
                internet
                    .world
                    .top_regions_by_population(n)
                    .iter()
                    .map(|r| r.id)
                    .collect()
            };
            let partner = internet.add_content_as(&topology::gen::ContentAsSpec {
                name: format!("{}-partner-cdn", meta.letter),
                pop_regions: partner_pops,
                peer_all_tier1: true,
                peer_all_transit: true,
                eyeball_peering_prob: 0.35,
                hoster_peering_prob: 0.05,
                prefixes: 2,
            });
            let pops = internet.graph.node(partner).pops.clone();
            let n_partner = (meta.global_sites as f64 * 0.85).round() as usize;
            for i in 0..n_partner.min(pops.len()) {
                push(&mut sites, partner, pops[i], ExportScope::Global);
            }
            let mut hosters = internet.hosters.clone();
            hosters.shuffle(rng);
            let mut i = 0;
            while sites.len() < meta.global_sites {
                let host = hosters[i % hosters.len()];
                let loc = internet.graph.node(host).pops[0];
                push(&mut sites, host, jitter(loc, 0.3, rng), ExportScope::Global);
                i += 1;
            }
        }
    }

    // Local sites: NO_EXPORT announcements from hosters and eyeball-dense
    // metros — "offering root sites in certain locations and networks so
    // that service can still be offered even if connectivity ... is
    // severed" (§7.3 ISP resilience).
    let mut hosters = internet.hosters.clone();
    hosters.shuffle(rng);
    for i in 0..meta.local_sites {
        let host = hosters[i % hosters.len()];
        let loc = internet.graph.node(host).pops[0];
        push(&mut sites, host, jitter(loc, 0.3, rng), ExportScope::Local);
    }

    // The letter's own operator AS: collocated at every site, appended
    // behind upstream hosts on AS paths, and peering openly at IXPs near
    // its sites per the operator's strategy.
    let site_locations: Vec<GeoPoint> = sites.iter().map(|s| s.location).collect();
    let operator =
        internet.add_operator_as(format!("{}-operator", meta.letter), site_locations.clone());
    let peer_prob = operator_peering_prob(meta.strategy);
    if peer_prob > 0.0 {
        // ASes present at IXPs within reach of a site may peer directly.
        let candidates: Vec<Asn> = internet
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, AsKind::Eyeball | AsKind::Transit))
            .filter(|n| {
                internet.ixps.iter().any(|(_, ixp)| {
                    n.pops.iter().any(|p| p.distance_km(ixp) < 300.0)
                        && site_locations.iter().any(|s| s.distance_km(ixp) < 300.0)
                })
            })
            .map(|n| n.asn)
            .collect();
        for asn in candidates {
            if rng.gen_bool(peer_prob) && !internet.graph.connected(operator, asn) {
                let x = internet.graph.serving_pop(operator, &internet.graph.node(asn).pops[0]);
                internet.graph.add_peer_link(operator, asn, vec![x]);
            }
        }
    }
    // Which hosts announce the prefix as their own origin? Operator-run
    // deployments (Verisign's A/J, Cogent's C, USC's B) originate from
    // the hosting AS itself, as does a partner CDN; open-hosting sites
    // announce the *operator's* AS behind the volunteer host.
    let direct_hosts: Vec<Asn> = match meta.strategy {
        DeployStrategy::University | DeployStrategy::Legacy => sites
            .iter()
            .map(|s| s.host)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect(),
        DeployStrategy::CdnPartner => sites
            .iter()
            .map(|s| s.host)
            .filter(|h| internet.graph.node(*h).kind == AsKind::Content)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect(),
        DeployStrategy::OpenHosting => Vec::new(),
    };
    AnycastDeployment::new(meta.letter.to_string(), sites, vec![])
        .with_origin(operator, direct_hosts)
}

fn jitter(p: GeoPoint, spread_deg: f64, rng: &mut StdRng) -> GeoPoint {
    GeoPoint::new(
        p.lat() + rng.gen_range(-spread_deg..spread_deg),
        p.lon() + rng.gen_range(-spread_deg..spread_deg),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{InternetGenerator, TopologyConfig};

    fn internet() -> Internet {
        InternetGenerator::generate(&TopologyConfig::small(21))
    }

    #[test]
    fn builds_all_13_letters() {
        let mut net = internet();
        let set = LetterSet::build(&mut net, 2018, 0.2);
        assert_eq!(set.letters.len(), 13);
        assert_eq!(set.year, 2018);
    }

    #[test]
    fn site_counts_scale() {
        let mut net = internet();
        let set = LetterSet::build(&mut net, 2018, 1.0);
        assert_eq!(set.get(Letter::B).deployment.global_site_count(), 2);
        assert_eq!(set.get(Letter::L).deployment.global_site_count(), 138);
        assert_eq!(set.get(Letter::D).deployment.total_site_count(), 117);
        assert_eq!(set.get(Letter::H).deployment.global_site_count(), 1);
    }

    #[test]
    fn analysis_set_matches_paper_exclusions_2018() {
        let mut net = internet();
        let set = LetterSet::build(&mut net, 2018, 0.2);
        let geo: Vec<Letter> =
            set.geo_analysis_letters().iter().map(|l| l.meta.letter).collect();
        // Fig. 2a: 10 letters — all but G (absent), H (1 site), I (anon).
        assert_eq!(geo.len(), 10);
        assert!(!geo.contains(&Letter::G));
        assert!(!geo.contains(&Letter::I));
        let lat: Vec<Letter> = set
            .letters
            .iter()
            .filter(|l| l.meta.usable_for_latency_inflation())
            .map(|l| l.meta.letter)
            .collect();
        // Fig. 2b additionally drops D and L (malformed PCAPs): 8 letters.
        assert_eq!(lat.len(), 8);
        assert!(!lat.contains(&Letter::D));
        assert!(!lat.contains(&Letter::L));
    }

    #[test]
    fn analysis_set_2020_has_seven_letters() {
        let mut net = internet();
        let set = LetterSet::build(&mut net, 2020, 0.2);
        let geo: Vec<Letter> =
            set.geo_analysis_letters().iter().map(|l| l.meta.letter).collect();
        // Fig. 11b: M, H, C, D, A, K, J.
        assert_eq!(geo.len(), 7);
        for l in [Letter::M, Letter::H, Letter::C, Letter::D, Letter::A, Letter::K, Letter::J] {
            assert!(geo.contains(&l), "{l} missing");
        }
    }

    #[test]
    fn letters_grow_from_2018_to_2020() {
        let mut n1 = internet();
        let s18 = LetterSet::build(&mut n1, 2018, 1.0);
        let mut n2 = internet();
        let s20 = LetterSet::build(&mut n2, 2020, 1.0);
        for l in [Letter::A, Letter::J, Letter::K, Letter::M, Letter::H] {
            assert!(
                s20.get(l).deployment.global_site_count()
                    >= s18.get(l).deployment.global_site_count(),
                "{l} shrank"
            );
        }
    }

    #[test]
    fn cdn_partner_letter_hosts_most_sites_in_content_as() {
        let mut net = internet();
        let set = LetterSet::build(&mut net, 2018, 0.2);
        let f = set.get(Letter::F);
        let content_hosted = f
            .deployment
            .sites
            .iter()
            .filter(|s| net.graph.node(s.host).kind == AsKind::Content)
            .count();
        assert!(content_hosted as f64 >= 0.5 * f.deployment.global_site_count() as f64);
    }

    #[test]
    fn local_sites_have_local_scope() {
        let mut net = internet();
        let set = LetterSet::build(&mut net, 2018, 0.3);
        let e = set.get(Letter::E);
        let locals =
            e.deployment.sites.iter().filter(|s| s.scope == ExportScope::Local).count();
        assert_eq!(locals, e.meta.local_sites);
        assert!(locals > 0, "E root has many local sites");
    }

    #[test]
    fn deployment_is_deterministic() {
        let mut n1 = internet();
        let a = LetterSet::build(&mut n1, 2018, 0.2);
        let mut n2 = internet();
        let b = LetterSet::build(&mut n2, 2018, 0.2);
        for (x, y) in a.letters.iter().zip(&b.letters) {
            assert_eq!(x.deployment.sites.len(), y.deployment.sites.len());
            for (sx, sy) in x.deployment.sites.iter().zip(&y.deployment.sites) {
                assert_eq!(sx.host, sy.host);
                assert!(sx.location.distance_km(&sy.location) < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "census")]
    fn unknown_year_panics() {
        let mut net = internet();
        LetterSet::build(&mut net, 2019, 1.0);
    }
}
