//! Deployment swaps (ring promotion and demotion): replace the effective
//! deployment and re-key every piece of per-site state across the
//! universe-id remap. `docs/DYNAMICS.md` §5 has the semantics.

use super::{BatchOutcome, DrainState, DynamicsEngine};
use par::DetHashMap;
use std::sync::Arc;
use topology::SiteId;

impl<'g> DynamicsEngine<'g> {
    /// Display name of swap-set entry `t`.
    pub(super) fn swap_name(&self, t: u32) -> String {
        self.swap_set[t as usize].deployment.name.clone()
    }

    /// Replaces the effective deployment with swap-set entry `to`,
    /// re-keying every piece of per-site state — announcement flags,
    /// active drains, per-user assignments, and the group snapshot —
    /// across the universe-id site remap. A drain of a site that
    /// leaves the deployment is cancelled and ledgered as aborted; a
    /// user whose site leaves keeps the stored candidate key with
    /// `site: None`, the marker the group diff's rule 0 re-ranks.
    pub(super) fn apply_swap(&mut self, to: usize, out: &mut BatchOutcome) {
        assert!(
            self.capacities.is_none(),
            "deployment swaps do not support per-site capacities"
        );
        let old_len = self.base.sites.len();
        let new_dep = Arc::clone(&self.swap_set[to].deployment);
        let new_len = new_dep.sites.len();
        // Forward map, old site id → new site id, via shared universe
        // ids; `None` marks a site leaving the deployment.
        let mut uni_to_new: DetHashMap<u32, SiteId> = DetHashMap::default();
        for (i, &u) in self.swap_set[to].universe.iter().enumerate() {
            uni_to_new.insert(u, SiteId(i as u32));
        }
        let fwd: Vec<Option<SiteId>> = self.swap_set[self.current_swap]
            .universe
            .iter()
            .map(|u| uni_to_new.get(u).copied())
            .collect();

        // Ledger classification is by what actually happened to the
        // site count — robust to mislabeled events — so
        // `promotions + demotions = swap epochs` always balances.
        obs::counter_add(
            if new_len >= old_len { "dynamics.swap.promotions" } else { "dynamics.swap.demotions" },
            1,
        );
        obs::counter_add("dynamics.swap.epochs", 1);

        // Drains: survivors carry their state (and generation stamp —
        // follow-ups match by stamp alone) under the new id; a drain
        // of a departing site is cancelled and ledgered.
        let mut kept: Vec<DrainState> = Vec::new();
        for mut d in std::mem::take(&mut self.drains) {
            match fwd[d.site.0 as usize] {
                Some(ns) => {
                    d.site = ns;
                    kept.push(d);
                }
                None => {
                    obs::counter_add("dynamics.drain.aborted", 1);
                    out.notes.push(format!(
                        "drain on {} cancelled: site left the deployment (ledgered)",
                        d.site
                    ));
                }
            }
        }
        kept.sort_by_key(|d| d.site);
        self.drains = kept;

        // Announcement flags: survivors keep theirs (a downed site
        // stays down across the swap), new arrivals announce. A site
        // that leaves forfeits its state — re-entering on a later swap
        // starts alive.
        let mut alive = vec![true; new_len];
        for (i, m) in fwd.iter().enumerate() {
            if let Some(ns) = m {
                alive[ns.0 as usize] = self.alive[i];
            }
        }
        self.alive = alive;

        // Per-user assignments: surviving cohorts re-key their stored
        // site in place; a cohort whose site left the deployment keeps
        // its stored key with the site cleared — the rule-0 orphan
        // marker — and joins the orphan set the next recompute
        // re-ranks unconditionally.
        let mut rekeyed = 0u64;
        for (c, cohort) in self.cohorts.iter().enumerate() {
            let Some(s) = self.states[c].site else {
                continue;
            };
            match fwd[s.0 as usize] {
                Some(ns) => {
                    self.states[c].site = Some(ns);
                    rekeyed += u64::from(cohort.len());
                }
                None => {
                    self.states[c].site = None;
                    // `reassign` cleared `orphans` last epoch and one
                    // swap applies per epoch, so a plain push keeps the
                    // set sorted and duplicate-free.
                    self.orphans.push(c as u32);
                }
            }
        }
        obs::counter_add("dynamics.swap.users_rekeyed", rekeyed);

        // Group snapshot: remap hosted-site and drain-footprint ids,
        // dropping departed sites. After a pure demotion the surviving
        // group then compares equal to the freshly computed one, so
        // the following recompute re-ranks exactly the rule-0 users.
        for snap in self.groups.values_mut() {
            snap.sites = snap.sites.iter().filter_map(|s| fwd[s.0 as usize]).collect();
            snap.sites.sort_unstable();
            snap.drains = snap
                .drains
                .iter()
                .filter_map(|(s, w)| fwd[s.0 as usize].map(|ns| (ns, w.clone())))
                .collect();
            snap.drains.sort_by_key(|(s, _)| *s);
        }

        self.base = new_dep;
        self.current_swap = to;
        // Controller withholds cannot coexist with swaps (a controller
        // requires capacities, which exclude swap sets), so the table
        // is all-empty here — just re-size it to the new site space.
        debug_assert!(self.ctrl_withheld.iter().all(Vec::is_empty));
        self.ctrl_withheld = vec![Vec::new(); self.base.sites.len()];
    }
}
