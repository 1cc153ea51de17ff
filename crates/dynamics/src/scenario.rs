//! The scenario DSL: named, seeded timelines of routing events.
//!
//! A [`Scenario`] is a plain event list with a name — no interpreter,
//! no strings to parse. Builders cover the operational patterns the
//! experiments script: a flapping site, rolling maintenance drains
//! across a CDN ring, a correlated regional outage, and the loss of all
//! sessions toward one neighbor AS. Timing jitter is derived from
//! [`par::seed_for`] per event index, so a scenario is a pure function
//! of `(inputs, seed)` and replays byte-identically at any thread
//! count.

use crate::event::{RoutingEvent, ScheduledEvent};
use geo::GeoPoint;
use netsim::SimTime;
use serde::{Deserialize, Serialize};
use topology::{AnycastDeployment, Asn, SiteId};

/// A named timeline of routing events to drive one deployment through.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (shows up in spans and timeline artifacts).
    pub name: String,
    /// The scripted events. Order matters only for simultaneous events
    /// (the queue breaks time ties by insertion order).
    pub events: Vec<ScheduledEvent>,
}

/// Deterministic jitter fraction in `[0, 1)` for event `index` of the
/// scenario seeded by `seed` — [`par::seed_for`]'s per-index stream
/// mapped onto the unit interval.
pub(crate) fn jitter_frac(seed: u64, index: u64) -> f64 {
    par::unit_f64(par::seed_for(seed, index))
}

impl Scenario {
    /// An empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), events: Vec::new() }
    }

    /// Appends one event (builder style).
    pub fn at(mut self, t: SimTime, event: RoutingEvent) -> Self {
        self.events.push(ScheduledEvent { at: t, event });
        self
    }

    /// A site that flaps `flaps` times: down at
    /// `start + k·period ± jitter`, back up half a period later. Each
    /// edge gets independent jitter of up to `jitter_ms` (from `seed`),
    /// capped below a quarter period so down/up edges never reorder.
    pub fn site_flap(
        name: impl Into<String>,
        site: SiteId,
        start: SimTime,
        period_ms: f64,
        flaps: usize,
        jitter_ms: f64,
        seed: u64,
    ) -> Self {
        assert!(period_ms > 0.0, "flap period must be positive");
        let jitter_ms = jitter_ms.min(period_ms / 4.0 - 1.0).max(0.0);
        let mut s = Self::new(name);
        for k in 0..flaps {
            let base = start.plus_ms(k as f64 * period_ms);
            let down = base.plus_ms(jitter_ms * jitter_frac(seed, 2 * k as u64));
            let up = base
                .plus_ms(period_ms / 2.0)
                .plus_ms(jitter_ms * jitter_frac(seed, 2 * k as u64 + 1));
            s = s.at(down, RoutingEvent::SiteDown(site)).at(up, RoutingEvent::SiteUp(site));
        }
        s
    }

    /// One load-aware gradual drain: `site` escalates through `stages`
    /// withhold stages `stage_ms` apart, stays fully down for `hold_ms`
    /// (the maintenance window), then re-announces. Stage and end
    /// events are scheduled by the engine as each stage commits; a
    /// stage that would overload a surviving site aborts the drain
    /// instead (see `docs/DYNAMICS.md`).
    pub fn gradual_drain(
        name: impl Into<String>,
        site: SiteId,
        start: SimTime,
        stage_ms: f64,
        stages: u32,
        hold_ms: f64,
    ) -> Self {
        assert!(stage_ms > 0.0, "stage spacing must be positive");
        assert!(stages >= 1, "a drain needs at least one stage");
        assert!(hold_ms > 0.0, "maintenance hold must be positive");
        Self::new(name).at(start, RoutingEvent::DrainStart { site, stage_ms, stages, hold_ms })
    }

    /// Rolling maintenance: each listed site runs a gradual drain
    /// (`stages` escalations `stage_ms` apart, then `hold_ms` fully
    /// down), with starts staggered `stagger_ms` apart — the classic
    /// one-at-a-time CDN ring maintenance loop. Stage escalations and
    /// drain ends are scheduled by the engine when each
    /// [`RoutingEvent::DrainStart`] fires; pass `stages = 1` for the
    /// old binary down/up drain.
    pub fn rolling_drain(
        name: impl Into<String>,
        sites: &[SiteId],
        start: SimTime,
        stage_ms: f64,
        stages: u32,
        hold_ms: f64,
        stagger_ms: f64,
    ) -> Self {
        assert!(stage_ms > 0.0, "stage spacing must be positive");
        assert!(stages >= 1, "a drain needs at least one stage");
        assert!(hold_ms > 0.0, "maintenance hold must be positive");
        let mut s = Self::new(name);
        for (k, &site) in sites.iter().enumerate() {
            s = s.at(
                start.plus_ms(k as f64 * stagger_ms),
                RoutingEvent::DrainStart { site, stage_ms, stages, hold_ms },
            );
        }
        s
    }

    /// A correlated regional outage: every site of `deployment` within
    /// `radius_km` of `center` fails within a `jitter_ms` window after
    /// `start` (cascading, not instantaneous) and recovers after
    /// `duration_ms`, again with per-site jitter. Returns the scenario
    /// and the affected site ids (empty if the radius catches nothing).
    pub fn regional_outage(
        name: impl Into<String>,
        deployment: &AnycastDeployment,
        center: &GeoPoint,
        radius_km: f64,
        start: SimTime,
        duration_ms: f64,
        jitter_ms: f64,
        seed: u64,
    ) -> (Self, Vec<SiteId>) {
        let mut s = Self::new(name);
        let mut hit = Vec::new();
        for site in &deployment.sites {
            if site.location.distance_km(center) <= radius_km {
                hit.push(site.id);
            }
        }
        for (k, &site) in hit.iter().enumerate() {
            let down = start.plus_ms(jitter_ms * jitter_frac(seed, 2 * k as u64));
            let up = start
                .plus_ms(duration_ms)
                .plus_ms(jitter_ms * jitter_frac(seed, 2 * k as u64 + 1));
            s = s.at(down, RoutingEvent::SiteDown(site)).at(up, RoutingEvent::SiteUp(site));
        }
        (s, hit)
    }

    /// Loss of every session toward `neighbor` from `start`, restored
    /// `duration_ms` later.
    pub fn peering_flap(
        name: impl Into<String>,
        neighbor: Asn,
        start: SimTime,
        duration_ms: f64,
    ) -> Self {
        Self::new(name)
            .at(start, RoutingEvent::PeeringDown(neighbor))
            .at(start.plus_ms(duration_ms), RoutingEvent::PeeringUp(neighbor))
    }

    /// A ring promotion held for `hold_ms`, then demoted back: promote
    /// to swap-set entry `up` at `start`, demote to entry `down` at
    /// `start + hold_ms` — the R74 → R95 → R74 maintenance cycle the
    /// `dynring` experiment scripts.
    ///
    /// # Panics
    ///
    /// Panics when `hold_ms` is not positive: a zero hold would put the
    /// promote and demote in the same epoch, where an opposing pair to
    /// one ring cancels into a no-op.
    pub fn ring_swap(
        name: impl Into<String>,
        up: u32,
        down: u32,
        start: SimTime,
        hold_ms: f64,
    ) -> Self {
        assert!(hold_ms > 0.0, "hold_ms must be positive, got {hold_ms}");
        Self::new(name)
            .at(start, RoutingEvent::RingPromote { to: up })
            .at(start.plus_ms(hold_ms), RoutingEvent::RingDemote { to: down })
    }

    /// A flash crowd: demand within `radius_km` of `center` scales by
    /// `factor` at `start`, holds for `hold_ms` with controller ticks
    /// every `tick_ms`, then subsides (a second scale by `1/factor`),
    /// followed by one trailing tick so the recovery is observed. The
    /// ticks are the cadence an attached load controller acts on
    /// between routing events; without a controller they are recorded
    /// no-op epochs.
    pub fn flash_crowd(
        name: impl Into<String>,
        center: GeoPoint,
        radius_km: f64,
        factor: f64,
        start: SimTime,
        hold_ms: f64,
        tick_ms: f64,
    ) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "demand factor must be positive");
        assert!(tick_ms > 0.0, "tick spacing must be positive");
        assert!(hold_ms > tick_ms, "the hold must outlast one tick");
        let mut s =
            Self::new(name).at(start, RoutingEvent::DemandScale { center, radius_km, factor });
        let mut k = 1;
        while (k as f64) * tick_ms < hold_ms {
            s = s.at(start.plus_ms(k as f64 * tick_ms), RoutingEvent::LoadTick);
            k += 1;
        }
        s = s.at(
            start.plus_ms(hold_ms),
            RoutingEvent::DemandScale { center, radius_km, factor: 1.0 / factor },
        );
        s.at(start.plus_ms(hold_ms + tick_ms), RoutingEvent::LoadTick)
    }

    /// Appends `n` controller ticks every `every_ms` from `from`
    /// (builder style) — scheduled observation points for an attached
    /// load controller, recorded no-ops otherwise.
    pub fn ticks(mut self, from: SimTime, every_ms: f64, n: usize) -> Self {
        assert!(every_ms > 0.0, "tick spacing must be positive");
        for k in 0..n {
            self = self.at(from.plus_ms(k as f64 * every_ms), RoutingEvent::LoadTick);
        }
        self
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for i in 0..100 {
            let f = jitter_frac(2021, i);
            assert!((0.0..1.0).contains(&f));
            assert_eq!(f, jitter_frac(2021, i));
        }
        assert_ne!(jitter_frac(2021, 0), jitter_frac(2021, 1));
        assert_ne!(jitter_frac(2021, 0), jitter_frac(2022, 0));
    }

    #[test]
    fn site_flap_alternates_down_up() {
        let s = Scenario::site_flap(
            "flap",
            SiteId(2),
            SimTime::from_secs(60.0),
            600_000.0,
            3,
            30_000.0,
            7,
        );
        assert_eq!(s.events.len(), 6);
        for pair in s.events.chunks(2) {
            assert!(matches!(pair[0].event, RoutingEvent::SiteDown(SiteId(2))));
            assert!(matches!(pair[1].event, RoutingEvent::SiteUp(SiteId(2))));
            assert!(pair[0].at < pair[1].at, "down precedes up within a flap");
        }
        assert!(s.events[5].at.as_ms() >= 60_000.0 + 2.0 * 600_000.0);
    }

    #[test]
    fn rolling_drain_staggers_starts() {
        let sites = [SiteId(0), SiteId(1), SiteId(2)];
        let s = Scenario::rolling_drain(
            "mnt",
            &sites,
            SimTime::ZERO,
            60_000.0,
            3,
            300_000.0,
            120_000.0,
        );
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.events[1].at.as_ms() - s.events[0].at.as_ms(), 120_000.0);
        assert!(matches!(
            s.events[0].event,
            RoutingEvent::DrainStart { site: SiteId(0), stages: 3, .. }
        ));
    }

    #[test]
    fn gradual_drain_is_one_start_event() {
        let s = Scenario::gradual_drain("gd", SiteId(4), SimTime::from_secs(10.0), 30_000.0, 4, 600_000.0);
        assert_eq!(s.events.len(), 1);
        assert!(matches!(
            s.events[0].event,
            RoutingEvent::DrainStart { site: SiteId(4), stages: 4, .. }
        ));
        assert_eq!(s.events[0].at.as_secs(), 10.0);
    }

    #[test]
    fn ring_swap_promotes_then_demotes() {
        let s = Scenario::ring_swap("cycle", 3, 2, SimTime::from_secs(60.0), 1_800_000.0);
        assert_eq!(s.events.len(), 2);
        assert!(matches!(s.events[0].event, RoutingEvent::RingPromote { to: 3 }));
        assert!(matches!(s.events[1].event, RoutingEvent::RingDemote { to: 2 }));
        assert_eq!(s.events[1].at.as_ms() - s.events[0].at.as_ms(), 1_800_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ring_swap_zero_hold_panics() {
        Scenario::ring_swap("bad", 3, 2, SimTime::ZERO, 0.0);
    }

    #[test]
    fn flash_crowd_surges_ticks_and_subsides() {
        let c = GeoPoint::new(10.0, 20.0);
        let s = Scenario::flash_crowd(
            "fc",
            c,
            3000.0,
            2.0,
            SimTime::from_secs(60.0),
            300_000.0,
            60_000.0,
        );
        // Surge, 4 hold ticks (60..300 s exclusive), subside, 1 trailing tick.
        assert_eq!(s.events.len(), 7);
        assert!(matches!(
            s.events[0].event,
            RoutingEvent::DemandScale { factor, .. } if factor == 2.0
        ));
        assert!(matches!(s.events[1].event, RoutingEvent::LoadTick));
        assert!(matches!(
            s.events[5].event,
            RoutingEvent::DemandScale { factor, .. } if factor == 0.5
        ));
        assert_eq!(s.events[5].at.as_secs(), 360.0);
        assert!(matches!(s.events[6].event, RoutingEvent::LoadTick));
        assert_eq!(s.events[6].at.as_secs(), 420.0);
    }

    #[test]
    fn ticks_append_a_regular_cadence() {
        let s = Scenario::new("t").ticks(SimTime::from_secs(10.0), 5_000.0, 3);
        assert_eq!(s.events.len(), 3);
        assert!(s.events.iter().all(|e| matches!(e.event, RoutingEvent::LoadTick)));
        assert_eq!(s.events[2].at.as_secs(), 20.0);
    }

    #[test]
    fn peering_flap_brackets_the_outage() {
        let s = Scenario::peering_flap("pf", Asn(9), SimTime::from_hours(1.0), 1800_000.0);
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].at.as_secs(), 3600.0);
        assert_eq!(s.events[1].at.as_secs(), 5400.0);
    }
}
