//! The staged-drain state machine: escalation, abort, and the
//! lightest-first withhold plan. `docs/DYNAMICS.md` §3 draws the machine.

use super::DynamicsEngine;
use crate::event::RoutingEvent;
use netsim::SimTime;
use par::DetHashMap;
use topology::{Asn, SiteId};

impl<'g> DynamicsEngine<'g> {
    /// Advances `site`'s drain by one stage and returns the follow-up
    /// to schedule *if the epoch commits*: the next generation-stamped
    /// [`RoutingEvent::DrainStage`] for a partial stage, or the
    /// [`RoutingEvent::DrainEnd`] once the final stage withdraws the
    /// site for its maintenance hold.
    pub(super) fn escalate(&mut self, site: SiteId) -> (SimTime, RoutingEvent) {
        let now = self.clock.now();
        let d = self.drains[site.0 as usize].as_mut().expect("escalating a live drain");
        d.stage += 1;
        if !d.holding() {
            // A partial stage withholds a longer prefix of the plan
            // (`DrainState::withheld`); the final stage only removes the
            // remaining intra-host traffic.
            (now.plus_ms(d.stage_ms), RoutingEvent::DrainStage { site, gen: d.gen })
        } else {
            let (gen, hold) = (d.gen, d.hold_ms);
            self.alive[site.0 as usize] = false;
            (now.plus_ms(hold), RoutingEvent::DrainEnd { site, gen })
        }
    }

    /// Cancels `site`'s drain outright: the withholds disappear and,
    /// if the final stage had already withdrawn the site, it
    /// re-announces.
    pub(super) fn abort_drain(&mut self, site: SiteId) {
        if self.drains[site.0 as usize].take().is_some_and(|d| d.holding()) {
            self.alive[site.0 as usize] = true;
        }
    }

    /// The per-neighbor withhold plan for draining `site`: every AS
    /// adjacent to the site's host, ordered lightest current traffic
    /// first (ties by ASN) so early stages shift the smallest
    /// catchment slices. Load is measured at plan time from the users
    /// `site` currently serves through each entry session.
    pub(super) fn drain_plan(&self, site: SiteId) -> Vec<Asn> {
        let host = self.base.sites[site.0 as usize].host;
        let hidx = self.graph.idx(host);
        let mut neigh: Vec<Asn> = self
            .graph
            .adjacency(hidx)
            .iter()
            .map(|a| self.graph.node_at(a.neighbor).asn)
            .collect();
        neigh.sort_unstable();
        neigh.dedup();
        let load: DetHashMap<Asn, f64> =
            self.entry_sessions().swap_remove(site.0 as usize).into_iter().collect();
        neigh.sort_by(|a, b| {
            let la = load.get(a).copied().unwrap_or(0.0);
            let lb = load.get(b).copied().unwrap_or(0.0);
            la.total_cmp(&lb).then(a.cmp(b))
        });
        neigh
    }
}
