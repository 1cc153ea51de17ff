//! Seed-pure storm generation: thousands of mixed routing incidents
//! over hours of simulated time.
//!
//! A storm is a list of [`Incident`]s — *paired* operational episodes
//! (a flap is a down **and** its up, a surge carries its reciprocal,
//! a swap cycle promotes and demotes back) rather than raw events.
//! Pairing is what makes delta-debugging sound: **every subset of a
//! storm's incidents is itself a legal storm** that ends in a
//! recoverable state, so the minimizer in [`crate::minimize`](mod@crate::minimize) can
//! drop any incident without producing an event sequence the engine
//! would reject or a permanently degraded deployment the invariants
//! would (correctly, uselessly) flag.
//!
//! Generation is a pure function of [`StormConfig`]: incident `i`
//! derives every parameter from `par::seed_for(cfg.seed, i)`, never
//! from shared RNG state, so a storm regenerates identically on every
//! run and machine — the precondition for replayable reproducers.

use dynamics::{RoutingEvent, Scenario, ScheduledEvent};
use geo::GeoPoint;
use loadmgmt::PolicyName;
use netsim::SimTime;
use topology::{Asn, SiteId};

/// Every policy a [`IncidentKind::PolicySwitch`] picks from, in
/// switch-rotation order.
const POLICY_ROTATION: [PolicyName; 4] = [
    PolicyName::Hysteresis,
    PolicyName::Distributed,
    PolicyName::Threshold,
    PolicyName::Null,
];

/// One self-contained operational episode. Every kind either returns
/// the deployment to its pre-incident announced state (flap, drain,
/// peering flap, swap cycle) or is reciprocal-paired (surge, capacity
/// dip) or is state-free (policy switch, tick) — see the module docs
/// for why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncidentKind {
    /// Site fails, recovers `outage_ms` later.
    Flap {
        /// Failing site.
        site: SiteId,
        /// Down time, ms.
        outage_ms: f64,
    },
    /// Staged load-aware maintenance drain (the engine schedules the
    /// stages and the end itself).
    Drain {
        /// Drained site.
        site: SiteId,
        /// Time between stage escalations, ms.
        stage_ms: f64,
        /// Escalation stages.
        stages: u32,
        /// Hold at full withdrawal, ms.
        hold_ms: f64,
    },
    /// All sessions toward one neighbor AS lost, restored later.
    PeeringFlap {
        /// Neighbor AS losing its sessions.
        neighbor: Asn,
        /// Outage length, ms.
        outage_ms: f64,
    },
    /// Ring promotion to swap-set entry `to`, demoted back to entry 0
    /// `hold_ms` later.
    SwapCycle {
        /// Swap-set entry promoted to (never 0).
        to: u32,
        /// Hold before demotion back to entry 0, ms.
        hold_ms: f64,
    },
    /// Regional demand surge, subsiding by the reciprocal factor.
    Surge {
        /// Epicenter.
        center: GeoPoint,
        /// Affected radius, km.
        radius_km: f64,
        /// Demand multiplier (> 1).
        factor: f64,
        /// Hold before the reciprocal restore, ms.
        hold_ms: f64,
    },
    /// One site's capacity dips (rack failure), restored by the
    /// reciprocal factor.
    CapacityDip {
        /// Affected site.
        site: SiteId,
        /// Capacity multiplier (< 1).
        factor: f64,
        /// Hold before the reciprocal restore, ms.
        hold_ms: f64,
    },
    /// The live load-management policy is swapped mid-run. Expands to
    /// no routing events — the harness applies it to the engine before
    /// the next epoch at or after this time.
    PolicySwitch {
        /// Policy switched to.
        policy: PolicyName,
    },
    /// A controller observation point ([`RoutingEvent::LoadTick`]).
    Tick,
}

/// An incident bound to its start instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// When the incident begins.
    pub at: SimTime,
    /// What happens.
    pub kind: IncidentKind,
}

impl Incident {
    /// The scheduled routing events this incident expands to, in time
    /// order. [`IncidentKind::PolicySwitch`] expands to none (see
    /// [`switch_schedule`]).
    pub(crate) fn events(&self) -> Vec<ScheduledEvent> {
        let at = self.at;
        match self.kind {
            IncidentKind::Flap { site, outage_ms } => vec![
                ScheduledEvent { at, event: RoutingEvent::SiteDown(site) },
                ScheduledEvent { at: at.plus_ms(outage_ms), event: RoutingEvent::SiteUp(site) },
            ],
            IncidentKind::Drain { site, stage_ms, stages, hold_ms } => vec![ScheduledEvent {
                at,
                event: RoutingEvent::DrainStart { site, stage_ms, stages, hold_ms },
            }],
            IncidentKind::PeeringFlap { neighbor, outage_ms } => vec![
                ScheduledEvent { at, event: RoutingEvent::PeeringDown(neighbor) },
                ScheduledEvent {
                    at: at.plus_ms(outage_ms),
                    event: RoutingEvent::PeeringUp(neighbor),
                },
            ],
            IncidentKind::SwapCycle { to, hold_ms } => vec![
                ScheduledEvent { at, event: RoutingEvent::RingPromote { to } },
                ScheduledEvent {
                    at: at.plus_ms(hold_ms),
                    event: RoutingEvent::RingDemote { to: 0 },
                },
            ],
            IncidentKind::Surge { center, radius_km, factor, hold_ms } => vec![
                ScheduledEvent {
                    at,
                    event: RoutingEvent::DemandScale { center, radius_km, factor },
                },
                ScheduledEvent {
                    at: at.plus_ms(hold_ms),
                    event: RoutingEvent::DemandScale {
                        center,
                        radius_km,
                        factor: 1.0 / factor,
                    },
                },
            ],
            IncidentKind::CapacityDip { site, factor, hold_ms } => vec![
                ScheduledEvent { at, event: RoutingEvent::CapacityScale { site, factor } },
                ScheduledEvent {
                    at: at.plus_ms(hold_ms),
                    event: RoutingEvent::CapacityScale { site, factor: 1.0 / factor },
                },
            ],
            IncidentKind::PolicySwitch { .. } => vec![],
            IncidentKind::Tick => vec![ScheduledEvent { at, event: RoutingEvent::LoadTick }],
        }
    }

    /// How many routing events the incident contributes.
    pub(crate) fn event_count(&self) -> usize {
        self.events().len()
    }
}

/// Builds the [`Scenario`] a set of incidents scripts. Incidents are
/// expanded in list order; the event queue's `(time, insertion)` order
/// makes the replay a pure function of that list.
pub fn scenario_from(name: impl Into<String>, incidents: &[Incident]) -> Scenario {
    let mut s = Scenario::new(name);
    for inc in incidents {
        for ev in inc.events() {
            s = s.at(ev.at, ev.event);
        }
    }
    s
}

/// The controller-churn schedule of a storm: every
/// [`IncidentKind::PolicySwitch`] with its time, in list order (the
/// generator emits incidents time-sorted, and subsets preserve order).
pub fn switch_schedule(incidents: &[Incident]) -> Vec<(SimTime, PolicyName)> {
    incidents
        .iter()
        .filter_map(|i| match i.kind {
            IncidentKind::PolicySwitch { policy } => Some((i.at, policy)),
            _ => None,
        })
        .collect()
}

/// Which incident families a storm draws from. The engine's builder
/// constraints make some families mutually exclusive — capacities
/// exclude swap sets — so a storm picks a regime instead of mixing
/// illegally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormRegime {
    /// Flaps, drains, peering flaps, ticks — any engine.
    Routing,
    /// Routing events plus ring swap cycles — requires a registered
    /// swap set (and therefore no capacities).
    Swap,
    /// Routing events plus surges, capacity dips, and controller-policy
    /// churn — requires capacities (and an attached controller for the
    /// switches to replace).
    Load,
}

impl StormRegime {
    /// Stable lowercase name, used in summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            StormRegime::Routing => "routing",
            StormRegime::Swap => "swap",
            StormRegime::Load => "load",
        }
    }
}

/// Everything a storm is generated from — see [`generate`].
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Campaign seed; every incident parameter derives from it.
    pub seed: u64,
    /// Number of incidents to emit (each expands to 1–2 events, plus
    /// engine-scheduled drain follow-ups).
    pub incidents: usize,
    /// When the first incident may fire.
    pub start: SimTime,
    /// Mean gap between incident starts, ms (each gap jitters in
    /// `[0.5, 1.5)` of the mean).
    pub mean_gap_ms: f64,
    /// Sites in the base deployment (incident targets draw from
    /// `0..sites`).
    pub sites: u32,
    /// Candidate neighbor ASes for peering flaps.
    pub neighbors: Vec<Asn>,
    /// Candidate surge epicenters (required non-empty for
    /// [`StormRegime::Load`]).
    pub centers: Vec<GeoPoint>,
    /// Swap-set entries (required ≥ 2 for [`StormRegime::Swap`]; entry
    /// 0 is the home ring cycles return to).
    pub rings: u32,
    /// Incident families drawn from.
    pub regime: StormRegime,
}

/// A unit-interval fraction from substream `k` of incident seed `s`.
fn frac(s: u64, k: u64) -> f64 {
    (par::seed_for(s, k) % 1_000_000) as f64 / 1_000_000.0
}

/// An index below `n` from substream `k` of incident seed `s`.
fn pick(s: u64, k: u64, n: u64) -> u64 {
    par::seed_for(s, k) % n.max(1)
}

/// Generates the storm: `cfg.incidents` incidents in start-time order,
/// a pure function of `cfg` (see the module docs).
///
/// # Panics
///
/// Panics on an unsatisfiable config: no sites, a non-positive mean
/// gap, [`StormRegime::Load`] without surge centers, or
/// [`StormRegime::Swap`] with fewer than two rings.
pub fn generate(cfg: &StormConfig) -> Vec<Incident> {
    assert!(cfg.sites > 0, "a storm needs at least one site to target");
    assert!(
        cfg.mean_gap_ms.is_finite() && cfg.mean_gap_ms > 0.0,
        "mean incident gap must be positive"
    );
    if cfg.regime == StormRegime::Load {
        assert!(!cfg.centers.is_empty(), "a load storm needs surge centers");
    }
    if cfg.regime == StormRegime::Swap {
        assert!(cfg.rings >= 2, "a swap storm needs at least two rings");
    }
    let mut t = cfg.start;
    let mut out = Vec::with_capacity(cfg.incidents);
    for i in 0..cfg.incidents {
        let s = par::seed_for(cfg.seed, i as u64);
        t = t.plus_ms(cfg.mean_gap_ms * (0.5 + frac(s, 0)));
        let site = SiteId(pick(s, 1, u64::from(cfg.sites)) as u32);
        let outage_ms = 20_000.0 + frac(s, 2) * 120_000.0;
        let hold_ms = 30_000.0 + frac(s, 3) * 90_000.0;
        let roll = pick(s, 4, 100);
        let kind = match cfg.regime {
            StormRegime::Routing => match roll {
                0..=34 => IncidentKind::Flap { site, outage_ms },
                35..=59 => drain(s, site),
                60..=79 => peering(s, cfg, outage_ms),
                _ => IncidentKind::Tick,
            },
            StormRegime::Swap => match roll {
                0..=24 => IncidentKind::Flap { site, outage_ms },
                25..=44 => drain(s, site),
                45..=59 => peering(s, cfg, outage_ms),
                60..=84 => IncidentKind::SwapCycle {
                    to: (1 + pick(s, 5, u64::from(cfg.rings) - 1)) as u32,
                    hold_ms,
                },
                _ => IncidentKind::Tick,
            },
            StormRegime::Load => match roll {
                0..=19 => IncidentKind::Flap { site, outage_ms },
                20..=31 => drain(s, site),
                32..=39 => peering(s, cfg, outage_ms),
                40..=59 => IncidentKind::Surge {
                    center: cfg.centers[pick(s, 6, cfg.centers.len() as u64) as usize],
                    radius_km: 2_000.0 + frac(s, 7) * 6_000.0,
                    factor: 1.25 + frac(s, 8) * 1.25,
                    hold_ms,
                },
                60..=79 => IncidentKind::CapacityDip {
                    site,
                    factor: 0.4 + frac(s, 9) * 0.5,
                    hold_ms,
                },
                80..=87 => IncidentKind::PolicySwitch {
                    policy: POLICY_ROTATION[pick(s, 10, POLICY_ROTATION.len() as u64) as usize],
                },
                _ => IncidentKind::Tick,
            },
        };
        out.push(Incident { at: t, kind });
    }
    out
}

fn drain(s: u64, site: SiteId) -> IncidentKind {
    IncidentKind::Drain {
        site,
        stage_ms: 8_000.0 + frac(s, 11) * 24_000.0,
        stages: 1 + pick(s, 12, 3) as u32,
        hold_ms: 15_000.0 + frac(s, 13) * 60_000.0,
    }
}

fn peering(s: u64, cfg: &StormConfig, outage_ms: f64) -> IncidentKind {
    if cfg.neighbors.is_empty() {
        // No neighbor candidates: degrade to an observation point
        // rather than fabricating an AS number.
        return IncidentKind::Tick;
    }
    IncidentKind::PeeringFlap {
        neighbor: cfg.neighbors[pick(s, 14, cfg.neighbors.len() as u64) as usize],
        outage_ms,
    }
}

/// Total routing events a storm expands to (excluding engine-scheduled
/// drain follow-ups, which only add to the real count).
pub fn event_total(incidents: &[Incident]) -> usize {
    incidents.iter().map(Incident::event_count).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(regime: StormRegime) -> StormConfig {
        StormConfig {
            seed: 2021,
            incidents: 400,
            start: SimTime::from_secs(60.0),
            mean_gap_ms: 45_000.0,
            sites: 5,
            neighbors: vec![Asn(10), Asn(20)],
            centers: vec![GeoPoint::new(10.0, 20.0), GeoPoint::new(-30.0, 100.0)],
            rings: 3,
            regime,
        }
    }

    #[test]
    fn generation_is_seed_pure_and_time_sorted() {
        for regime in [StormRegime::Routing, StormRegime::Swap, StormRegime::Load] {
            let a = generate(&cfg(regime));
            let b = generate(&cfg(regime));
            assert_eq!(a, b, "{regime:?} regenerates identically");
            assert_eq!(a.len(), 400);
            for w in a.windows(2) {
                assert!(w[0].at.as_ms() < w[1].at.as_ms(), "start times strictly increase");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&cfg(StormRegime::Routing));
        let b = generate(&StormConfig { seed: 2022, ..cfg(StormRegime::Routing) });
        assert_ne!(a, b);
    }

    #[test]
    fn regimes_respect_engine_exclusions() {
        let swap = generate(&cfg(StormRegime::Swap));
        assert!(swap.iter().all(|i| !matches!(
            i.kind,
            IncidentKind::Surge { .. }
                | IncidentKind::CapacityDip { .. }
                | IncidentKind::PolicySwitch { .. }
        )));
        assert!(swap.iter().any(|i| matches!(i.kind, IncidentKind::SwapCycle { .. })));
        let load = generate(&cfg(StormRegime::Load));
        assert!(load.iter().all(|i| !matches!(i.kind, IncidentKind::SwapCycle { .. })));
        assert!(load.iter().any(|i| matches!(i.kind, IncidentKind::Surge { .. })));
        assert!(load.iter().any(|i| matches!(i.kind, IncidentKind::PolicySwitch { .. })));
    }

    #[test]
    fn incidents_expand_to_paired_events() {
        let inc = Incident {
            at: SimTime::from_secs(10.0),
            kind: IncidentKind::Flap { site: SiteId(1), outage_ms: 5_000.0 },
        };
        let evs = inc.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].event, RoutingEvent::SiteDown(SiteId(1)));
        assert_eq!(evs[1].event, RoutingEvent::SiteUp(SiteId(1)));
        assert_eq!(evs[1].at.as_ms(), 15_000.0);
        let surge = Incident {
            at: SimTime::from_secs(10.0),
            kind: IncidentKind::Surge {
                center: GeoPoint::new(0.0, 0.0),
                radius_km: 1_000.0,
                factor: 2.0,
                hold_ms: 9_000.0,
            },
        };
        match surge.events()[1].event {
            RoutingEvent::DemandScale { factor, .. } => assert_eq!(factor, 0.5),
            ref e => panic!("expected reciprocal DemandScale, got {e:?}"),
        }
        assert!(Incident {
            at: SimTime::from_secs(1.0),
            kind: IncidentKind::PolicySwitch { policy: PolicyName::Null },
        }
        .events()
        .is_empty());
    }

    #[test]
    fn scenario_and_switch_schedule_split_the_storm() {
        let incidents = generate(&cfg(StormRegime::Load));
        let scenario = scenario_from("t", &incidents);
        let switches = switch_schedule(&incidents);
        let expanded = event_total(&incidents);
        assert_eq!(scenario.events.len(), expanded);
        assert!(!switches.is_empty());
        let n_switch =
            incidents.iter().filter(|i| matches!(i.kind, IncidentKind::PolicySwitch { .. })).count();
        assert_eq!(switches.len(), n_switch);
    }
}
