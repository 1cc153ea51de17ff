//! Closed-loop load control: the attached controller's observe → decide
//! → apply rounds, and the overload and headroom readings over the
//! announced sites. `docs/DYNAMICS.md` §7 has the loop.

use super::DynamicsEngine;
use crate::timeline::EpochRecord;
use loadmgmt::{LoadAction, LoadObservation};
use topology::SiteId;

impl<'g> DynamicsEngine<'g> {
    /// Runs the attached controller's observe → decide → apply rounds
    /// for the epoch that just closed, appending one record per
    /// effective round. Decisions read only per-cohort aggregates
    /// (loads, entry sessions), so a round's cost is independent of
    /// the expanded population.
    pub(super) fn controller_rounds(&mut self, records: &mut Vec<EpochRecord>) {
        let mut ctrl = self.controller.take().expect("caller checked");
        for _ in 0..ctrl.max_rounds().max(1) {
            let loads = self.site_loads();
            let sessions = self.entry_sessions();
            let actions = {
                let caps = self.capacities.as_ref().expect("with_controller requires capacities");
                ctrl.decide(&LoadObservation {
                    loads: &loads,
                    caps,
                    sessions: &sessions,
                    withheld: &self.ctrl_withheld,
                    // Capacities exclude swap sets, so `alive` covers
                    // exactly the deployment's sites.
                    announced: &self.alive,
                })
            };
            if actions.is_empty() {
                break;
            }
            let (mut shed_w, mut rel_w) = (0.0, 0.0);
            let (mut shed_n, mut rel_n) = (0usize, 0usize);
            let mut detail: Vec<String> = Vec::new();
            for a in &actions {
                match *a {
                    LoadAction::Shed { site, session } => {
                        let set = &mut self.ctrl_withheld[site.0 as usize];
                        if set.binary_search_by_key(&session, |e| e.0).is_ok() {
                            continue; // already withheld: recorded no-op
                        }
                        let carried = sessions[site.0 as usize]
                            .iter()
                            .find(|(a2, _)| *a2 == session)
                            .map_or(0.0, |(_, w)| *w);
                        let pos = set.partition_point(|e| e.0 < session);
                        set.insert(pos, (session, carried));
                        shed_w += carried;
                        shed_n += 1;
                        detail.push(format!("shed {site}:{session}"));
                    }
                    LoadAction::Release { site, session } => {
                        let set = &mut self.ctrl_withheld[site.0 as usize];
                        if let Ok(pos) = set.binary_search_by_key(&session, |e| e.0) {
                            rel_w += set[pos].1;
                            rel_n += 1;
                            set.remove(pos);
                            detail.push(format!("release {site}:{session}"));
                        }
                    }
                }
            }
            if shed_n == 0 && rel_n == 0 {
                break; // every action was a no-op; nothing to recompute
            }
            self.load_ledger.shed_users += shed_w;
            self.load_ledger.released_users += rel_w;
            self.load_ledger.controller_rounds += 1;
            let label = match (shed_n, rel_n) {
                (s, 0) => format!("ctrl[{}] shed {s}", ctrl.name()),
                (0, r) => format!("ctrl[{}] release {r}", ctrl.name()),
                (s, r) => format!("ctrl[{}] shed {s} + release {r}", ctrl.name()),
            };
            let mut r = self.reassign(&label, false);
            r.headroom_frac = self.current_headroom();
            r.note = detail.join(" ");
            records.push(r);
        }
        self.controller = Some(ctrl);
    }

    /// Announced sites currently loaded past their capacity, and their
    /// total user weight above it.
    pub(super) fn overload_snapshot(&self) -> (usize, f64) {
        let Some(caps) = self.capacities.as_ref() else { return (0, 0.0) };
        let loads = self.site_loads();
        let mut count = 0usize;
        let mut excess = 0.0f64;
        for s in self.announced_sites() {
            let over = loads[s.0 as usize] - caps.capacity(s);
            if over > 0.0 {
                count += 1;
                excess += over;
            }
        }
        (count, excess)
    }

    /// Worst relative headroom across announced sites under the
    /// current loads, when capacities are configured.
    pub(super) fn current_headroom(&self) -> Option<f64> {
        let caps = self.capacities.as_ref()?;
        caps.min_headroom_frac(&self.site_loads(), self.announced_sites())
    }

    /// Ids of the sites currently announced (alive) — the
    /// survivors a drain's load check protects.
    pub(super) fn announced_sites(&self) -> Vec<SiteId> {
        self.base
            .sites
            .iter()
            .enumerate()
            .filter(|(i, _)| self.alive[*i])
            .map(|(_, s)| s.id)
            .collect()
    }
}
