//! Closed-loop anycast load management: pluggable per-epoch controllers.
//!
//! Anycast catchments are load-blind — BGP sends each user to the
//! routing-preferred site no matter how full it is. The FastRoute /
//! Sinha et al. line of work closes the loop operationally: each epoch
//! a controller observes per-site load against [`SiteCapacities`] and
//! withholds (or re-announces) individual entry sessions, reusing the
//! same per-neighbor withhold mechanism as staged maintenance drains.
//!
//! This crate defines the [`LoadController`] contract the dynamics
//! engine drives — observe → decide → apply, repeated up to
//! [`LoadController::max_rounds`] times per epoch — plus four
//! deterministic policies:
//!
//! * [`NullController`] — never acts; a controller-attached run is
//!   byte-identical to a plain run.
//! * [`ThresholdController`] — naive: shed heaviest sessions while a
//!   site is over capacity, release *everything* the moment it is back
//!   under. Prone to shed/release oscillation across epochs.
//! * [`HysteresisController`] — high/low watermarks: shed
//!   lightest-first at the capacity line, release only below a low
//!   watermark and only as much as projects to stay there; a released
//!   session is pinned and never withheld again in the run, so no
//!   (site, session) pair ever flip-flops.
//! * [`DistributedController`] — Sinha-style: each overloaded site
//!   sheds its *lightest* sessions until the projected load clears the
//!   excess (minimal shed), releases gradually under a release
//!   watermark, and runs several rounds per epoch so spillover from one
//!   site's shed onto a neighbor is handled within the same epoch.
//!
//! Controllers are pure decision logic over an immutable
//! [`LoadObservation`]; the engine owns application, recompute, and the
//! `dynamics.load.*` ledger. All iteration is over index-ordered
//! slices, so decisions are deterministic at any thread count.
//!
//! Under the live traffic-replay mode (the `anycast-replay` crate) the
//! same contract carries over unchanged: the replay driver steps the
//! engine's epochs — including every `LoadTick` controller round —
//! between serving windows, and the per-site load a controller
//! observes is derived from the same cohort demand columns the query
//! generator draws its per-window counts from. One source of truth,
//! two consumers: the controller sheds the load the replayed queries
//! are about to pay RTT for, so a round's effect shows up in the very
//! next window's served percentiles and `overload_user_ms` delta.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use analysis::SiteCapacities;
use par::DetHashSet;
use topology::{Asn, SiteId};

/// What a controller sees at the start of each decision round.
///
/// All slices are indexed by original site id (the engine's stable id
/// space, not the dense announced remap), so observations line up with
/// [`SiteCapacities`] across site failures and drains.
#[derive(Debug)]
pub struct LoadObservation<'a> {
    /// Current user weight served by each site.
    pub loads: &'a [f64],
    /// Per-site load limits, in the same id space as `loads`.
    pub caps: &'a SiteCapacities,
    /// Active entry sessions per site: `(neighbor AS, carried user
    /// weight)`, lightest first (ties by ASN) — the same ordering
    /// convention as drain withhold plans. Sessions the controller has
    /// already withheld carry no users and do not appear here.
    pub sessions: &'a [Vec<(Asn, f64)>],
    /// Sessions currently withheld by the controller, per site, sorted
    /// by ASN, with the user weight each carried when withheld — the
    /// projection estimate for what a release would attract back.
    pub withheld: &'a [Vec<(Asn, f64)>],
    /// Whether each site is currently announced (neither down nor
    /// held by a drain). Controllers must not act on dark sites.
    pub announced: &'a [bool],
}

impl LoadObservation<'_> {
    /// Load above capacity at `site` (zero when under).
    pub(crate) fn excess(&self, site: SiteId) -> f64 {
        (self.loads[site.0 as usize] - self.caps.capacity(site)).max(0.0)
    }
}

/// One staged action a controller emits; the engine applies the whole
/// round as a same-`SimTime` batch and recomputes once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadAction {
    /// Withhold `site`'s announcement from neighbor `session`, pushing
    /// the users it carried onto their next-best catchment.
    Shed {
        /// The overloaded site shedding load.
        site: SiteId,
        /// The neighbor AS whose session is withheld.
        session: Asn,
    },
    /// Re-announce `site` toward `session`, attracting its users back.
    Release {
        /// The recovering site releasing a withhold.
        site: SiteId,
        /// The previously withheld neighbor AS.
        session: Asn,
    },
}

/// A per-epoch load-management policy.
///
/// The engine runs up to [`max_rounds`](Self::max_rounds) observe →
/// decide → apply rounds after each epoch's routing events settle; a
/// round that returns no actions ends the loop early. Implementations
/// must be deterministic functions of the observation (plus their own
/// state) — no clocks, no randomness.
pub trait LoadController: std::fmt::Debug {
    /// Short policy name, used in epoch labels and experiment tables.
    fn name(&self) -> &'static str;

    /// Maximum decision rounds per epoch — the bound on spillover
    /// recursion (a shed that overloads a neighbor is only visible to
    /// the next round). Defaults to one round.
    fn max_rounds(&self) -> u32 {
        1
    }

    /// One decision round over the current observation.
    fn decide(&mut self, obs: &LoadObservation<'_>) -> Vec<LoadAction>;
}

/// The do-nothing policy: attaching it must leave a run byte-identical
/// to no controller at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullController;

impl LoadController for NullController {
    fn name(&self) -> &'static str {
        "null"
    }

    fn decide(&mut self, _obs: &LoadObservation<'_>) -> Vec<LoadAction> {
        Vec::new()
    }
}

/// Sheds `site`'s sessions in `order` until the cumulative carried
/// weight covers `excess`, always leaving at least one active session
/// (a site never goes via-dark through load management alone).
fn shed_until(
    site: SiteId,
    sessions: &[(Asn, f64)],
    order: impl Iterator<Item = usize>,
    excess: f64,
    skip: impl Fn(Asn) -> bool,
    out: &mut Vec<LoadAction>,
) -> f64 {
    let budget = sessions.len().saturating_sub(1);
    let mut shed = 0.0;
    let mut n = 0;
    for i in order {
        if shed >= excess || n >= budget {
            break;
        }
        let (session, w) = sessions[i];
        if skip(session) {
            continue;
        }
        out.push(LoadAction::Shed { site, session });
        shed += w;
        n += 1;
    }
    shed
}

/// Naive threshold policy: the textbook strawman.
///
/// Over capacity → shed heaviest sessions until the projection clears
/// the excess (overshoot-prone). At or under capacity → release every
/// withheld session at once. With surge load still present, the
/// release re-overloads the site on the next observation, so the
/// policy oscillates shed → release → shed across epochs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThresholdController;

impl LoadController for ThresholdController {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn decide(&mut self, obs: &LoadObservation<'_>) -> Vec<LoadAction> {
        let mut out = Vec::new();
        for site in (0..obs.loads.len() as u32).map(SiteId) {
            let i = site.0 as usize;
            if !obs.announced[i] {
                continue;
            }
            let excess = obs.excess(site);
            if excess > 0.0 {
                let sess = &obs.sessions[i];
                shed_until(site, sess, (0..sess.len()).rev(), excess, |_| false, &mut out);
            } else {
                for &(session, _) in &obs.withheld[i] {
                    out.push(LoadAction::Release { site, session });
                }
            }
        }
        out
    }
}

/// High/low watermark policy.
///
/// Sheds lightest-first at the capacity line (the minimal-shed order),
/// but only releases once load falls below `low_frac · cap`, and only
/// as many sessions as project (by their carried-at-withhold weight) to
/// keep it there. Each released pair is *pinned* — never withheld again
/// within the run — so no (site, session) pair can flip-flop
/// withhold → release → withhold. Against the distributed policy it
/// lacks the in-epoch spillover rounds: a shed that overloads a
/// neighbor is only seen an epoch later, and pinning slowly burns the
/// options it would need to correct course.
#[derive(Debug, Clone)]
pub struct HysteresisController {
    low_frac: f64,
    pinned: DetHashSet<(SiteId, Asn)>,
}

impl HysteresisController {
    /// A controller releasing below `low_frac` of capacity
    /// (`0 < low_frac < 1`).
    pub fn new(low_frac: f64) -> Self {
        assert!(
            low_frac > 0.0 && low_frac < 1.0,
            "low watermark must be a fraction of capacity, got {low_frac}"
        );
        Self { low_frac, pinned: DetHashSet::default() }
    }
}

impl Default for HysteresisController {
    fn default() -> Self {
        Self::new(0.75)
    }
}

impl LoadController for HysteresisController {
    fn name(&self) -> &'static str {
        "hysteresis"
    }

    fn decide(&mut self, obs: &LoadObservation<'_>) -> Vec<LoadAction> {
        let mut out = Vec::new();
        for site in (0..obs.loads.len() as u32).map(SiteId) {
            let i = site.0 as usize;
            if !obs.announced[i] {
                continue;
            }
            let excess = obs.excess(site);
            let low = self.low_frac * obs.caps.capacity(site);
            if excess > 0.0 {
                let sess = &obs.sessions[i];
                shed_until(
                    site,
                    sess,
                    0..sess.len(),
                    excess,
                    |a| self.pinned.contains(&(site, a)),
                    &mut out,
                );
            } else if obs.loads[i] < low {
                let mut projected = obs.loads[i];
                for &(session, w) in &obs.withheld[i] {
                    if projected + w <= low {
                        out.push(LoadAction::Release { site, session });
                        self.pinned.insert((site, session));
                        projected += w;
                    }
                }
            }
        }
        out
    }
}

/// Sinha-style distributed policy.
///
/// Each overloaded site sheds its *lightest* sessions until the
/// projected load clears the excess — the minimal-shed choice, moving
/// the fewest users. Releases are gradual: below `release_frac · cap`,
/// withheld sessions come back only while the projection stays under
/// that watermark. The engine re-runs the policy up to `rounds` times
/// per epoch, so load a shed spills onto a neighbor is re-shed within
/// the same epoch — the bounded spillover recursion of the distributed
/// algorithm.
#[derive(Debug, Clone, Copy)]
pub struct DistributedController {
    release_frac: f64,
    rounds: u32,
}

impl DistributedController {
    /// A controller releasing below `release_frac` of capacity
    /// (`0 < release_frac < 1`) with `rounds ≥ 1` decision rounds per
    /// epoch.
    pub(crate) fn new(release_frac: f64, rounds: u32) -> Self {
        assert!(
            release_frac > 0.0 && release_frac < 1.0,
            "release watermark must be a fraction of capacity, got {release_frac}"
        );
        assert!(rounds >= 1, "the spillover recursion needs at least one round");
        Self { release_frac, rounds }
    }
}

impl Default for DistributedController {
    fn default() -> Self {
        Self::new(0.7, 6)
    }
}

impl LoadController for DistributedController {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn max_rounds(&self) -> u32 {
        self.rounds
    }

    fn decide(&mut self, obs: &LoadObservation<'_>) -> Vec<LoadAction> {
        let mut out = Vec::new();
        for site in (0..obs.loads.len() as u32).map(SiteId) {
            let i = site.0 as usize;
            if !obs.announced[i] {
                continue;
            }
            let excess = obs.excess(site);
            let watermark = self.release_frac * obs.caps.capacity(site);
            if excess > 0.0 {
                let sess = &obs.sessions[i];
                shed_until(site, sess, 0..sess.len(), excess, |_| false, &mut out);
            } else if obs.loads[i] < watermark {
                // Release lightest recorded weight first, while the
                // projection stays under the watermark.
                let mut order: Vec<usize> = (0..obs.withheld[i].len()).collect();
                order.sort_by(|&a, &b| {
                    let (aa, wa) = obs.withheld[i][a];
                    let (ab, wb) = obs.withheld[i][b];
                    wa.total_cmp(&wb).then(aa.cmp(&ab))
                });
                let mut projected = obs.loads[i];
                for k in order {
                    let (session, w) = obs.withheld[i][k];
                    if projected + w <= watermark {
                        out.push(LoadAction::Release { site, session });
                        projected += w;
                    }
                }
            }
        }
        out
    }
}

/// A policy by name: the one map from the names in experiment tables,
/// storms and reproducer files to the controllers above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyName {
    /// [`NullController`]: observes, never acts.
    Null,
    /// [`ThresholdController`]: naive shed-over-capacity.
    Threshold,
    /// [`HysteresisController`]: high/low watermark shedding.
    Hysteresis,
    /// [`DistributedController`]: Sinha-style bounded spillover.
    Distributed,
}

impl PolicyName {
    /// Stable lowercase name, as [`LoadController::name`] reports it.
    pub fn as_str(&self) -> &'static str {
        match self {
            PolicyName::Null => "null",
            PolicyName::Threshold => "threshold",
            PolicyName::Hysteresis => "hysteresis",
            PolicyName::Distributed => "distributed",
        }
    }

    /// Parses [`PolicyName::as_str`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "null" => Some(PolicyName::Null),
            "threshold" => Some(PolicyName::Threshold),
            "hysteresis" => Some(PolicyName::Hysteresis),
            "distributed" => Some(PolicyName::Distributed),
            _ => None,
        }
    }

    /// A fresh controller implementing the policy.
    pub fn controller(&self) -> Box<dyn LoadController> {
        match self {
            PolicyName::Null => Box::new(NullController),
            PolicyName::Threshold => Box::new(ThresholdController),
            PolicyName::Hysteresis => Box::new(HysteresisController::default()),
            PolicyName::Distributed => Box::new(DistributedController::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sites: site 0 over its cap of 100 with three sessions,
    /// site 1 idle with headroom.
    fn obs<'a>(
        loads: &'a [f64],
        caps: &'a SiteCapacities,
        sessions: &'a [Vec<(Asn, f64)>],
        withheld: &'a [Vec<(Asn, f64)>],
        announced: &'a [bool],
    ) -> LoadObservation<'a> {
        LoadObservation { loads, caps, sessions, withheld, announced }
    }

    #[test]
    fn observation_reports_excess_and_overloaded_sites() {
        let caps = SiteCapacities::uniform(2, 100.0);
        let empty = vec![vec![], vec![]];
        let o = obs(&[130.0, 40.0], &caps, &empty, &empty, &[true, true]);
        assert_eq!(o.excess(SiteId(0)), 30.0);
        assert_eq!(o.excess(SiteId(1)), 0.0);
    }

    #[test]
    fn null_controller_never_acts() {
        let caps = SiteCapacities::uniform(1, 1.0);
        let sessions = vec![vec![(Asn(1), 99.0)]];
        let withheld = vec![vec![]];
        let o = obs(&[99.0], &caps, &sessions, &withheld, &[true]);
        assert!(NullController.decide(&o).is_empty());
    }

    #[test]
    fn threshold_sheds_heaviest_first_and_stops_at_the_excess() {
        let caps = SiteCapacities::uniform(2, 100.0);
        let sessions =
            vec![vec![(Asn(3), 10.0), (Asn(1), 40.0), (Asn(2), 80.0)], vec![]];
        let withheld = vec![vec![], vec![]];
        let o = obs(&[130.0, 40.0], &caps, &sessions, &withheld, &[true, true]);
        let acts = ThresholdController.decide(&o);
        // Excess 30: the heaviest session (80) alone covers it.
        assert_eq!(acts, vec![LoadAction::Shed { site: SiteId(0), session: Asn(2) }]);
    }

    #[test]
    fn threshold_keeps_the_last_active_session() {
        let caps = SiteCapacities::uniform(1, 10.0);
        let sessions = vec![vec![(Asn(7), 500.0)]];
        let withheld: Vec<Vec<(Asn, f64)>> = vec![vec![]];
        let o = obs(&[500.0], &caps, &sessions, &withheld, &[true]);
        assert!(ThresholdController.decide(&o).is_empty(), "never via-darkens a site");
    }

    #[test]
    fn threshold_releases_everything_once_under_cap() {
        let caps = SiteCapacities::uniform(1, 100.0);
        let sessions = vec![vec![(Asn(5), 20.0)]];
        let withheld = vec![vec![(Asn(1), 30.0), (Asn(2), 50.0)]];
        let o = obs(&[20.0], &caps, &sessions, &withheld, &[true]);
        let acts = ThresholdController.decide(&o);
        assert_eq!(
            acts,
            vec![
                LoadAction::Release { site: SiteId(0), session: Asn(1) },
                LoadAction::Release { site: SiteId(0), session: Asn(2) },
            ],
            "naive release is all-at-once even though 20+80 would re-overload"
        );
    }

    #[test]
    fn controllers_ignore_dark_sites() {
        let caps = SiteCapacities::uniform(1, 10.0);
        let sessions = vec![vec![(Asn(1), 5.0), (Asn(2), 90.0)]];
        let withheld: Vec<Vec<(Asn, f64)>> = vec![vec![]];
        let o = obs(&[95.0], &caps, &sessions, &withheld, &[false]);
        assert!(ThresholdController.decide(&o).is_empty());
        assert!(HysteresisController::default().decide(&o).is_empty());
        assert!(DistributedController::default().decide(&o).is_empty());
    }

    #[test]
    fn hysteresis_holds_in_the_dead_band_and_projects_releases() {
        let mut c = HysteresisController::new(0.5);
        let caps = SiteCapacities::uniform(1, 100.0);
        let withheld = vec![vec![(Asn(1), 20.0), (Asn(2), 45.0)]];
        // In the band [low, cap]: no action either way.
        let sessions = vec![vec![(Asn(9), 80.0)]];
        let o = obs(&[80.0], &caps, &sessions, &withheld, &[true]);
        assert!(c.decide(&o).is_empty(), "no release inside the hysteresis band");
        // Below low (50): release only what projects to stay ≤ 50.
        let o = obs(&[25.0], &caps, &sessions, &withheld, &[true]);
        assert_eq!(
            c.decide(&o),
            vec![LoadAction::Release { site: SiteId(0), session: Asn(1) }],
            "25 + 20 stays under the watermark; adding 45 more would not"
        );
    }

    #[test]
    fn hysteresis_never_resheds_a_released_pair() {
        let mut c = HysteresisController::new(0.5);
        let caps = SiteCapacities::uniform(1, 100.0);
        // Round 1: way under the low watermark → release AS1.
        let withheld = vec![vec![(Asn(1), 20.0)]];
        let idle = vec![vec![(Asn(9), 10.0)]];
        let o = obs(&[10.0], &caps, &idle, &withheld, &[true]);
        assert_eq!(c.decide(&o), vec![LoadAction::Release { site: SiteId(0), session: Asn(1) }]);
        // Round 2: overloaded again — AS1 is pinned even though it is
        // lighter than shedding AS9 alone would require.
        let sessions = vec![vec![(Asn(1), 35.0), (Asn(9), 95.0)]];
        let none: Vec<Vec<(Asn, f64)>> = vec![vec![]];
        let o = obs(&[130.0], &caps, &sessions, &none, &[true]);
        assert_eq!(
            c.decide(&o),
            vec![LoadAction::Shed { site: SiteId(0), session: Asn(9) }],
            "the released pair is pinned; the shed falls to the next lightest"
        );
    }

    #[test]
    fn distributed_sheds_the_lightest_cover_of_the_excess() {
        let caps = SiteCapacities::uniform(1, 100.0);
        let sessions = vec![vec![(Asn(3), 10.0), (Asn(1), 15.0), (Asn(2), 80.0)]];
        let none: Vec<Vec<(Asn, f64)>> = vec![vec![]];
        let o = obs(&[105.0], &caps, &sessions, &none, &[true]);
        let acts = DistributedController::default().decide(&o);
        // Excess 5: one lightest session (10) covers it — minimal shed.
        assert_eq!(acts, vec![LoadAction::Shed { site: SiteId(0), session: Asn(3) }]);
    }

    #[test]
    fn distributed_releases_gradually_under_the_watermark() {
        let c = &mut DistributedController::new(0.7, 4);
        let caps = SiteCapacities::uniform(1, 100.0);
        let withheld = vec![vec![(Asn(1), 30.0), (Asn(2), 5.0), (Asn(3), 60.0)]];
        let sessions = vec![vec![(Asn(9), 30.0)]];
        let o = obs(&[30.0], &caps, &sessions, &withheld, &[true]);
        let acts = c.decide(&o);
        // Watermark 70: lightest-first, 30+5 ≤ 70, then 35+30 ≤ 70;
        // adding 60 more would cross it.
        assert_eq!(
            acts,
            vec![
                LoadAction::Release { site: SiteId(0), session: Asn(2) },
                LoadAction::Release { site: SiteId(0), session: Asn(1) },
            ]
        );
        assert_eq!(c.max_rounds(), 4);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn hysteresis_rejects_a_silly_watermark() {
        HysteresisController::new(1.5);
    }

    #[test]
    fn policy_names_round_trip_and_match_their_controllers() {
        use PolicyName::*;
        for p in [Null, Threshold, Hysteresis, Distributed] {
            assert_eq!(PolicyName::parse(p.as_str()), Some(p));
            assert_eq!(p.controller().name(), p.as_str());
        }
        assert_eq!(PolicyName::parse("bogus"), None);
    }
}
