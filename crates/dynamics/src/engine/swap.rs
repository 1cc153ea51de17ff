//! Deployment swaps (ring promotion and demotion): replace the effective
//! deployment with another nested ring and resize every piece of
//! per-site state to its site count. `docs/DYNAMICS.md` §5 has the
//! semantics.

use super::{BatchOutcome, DynamicsEngine};
use std::sync::Arc;
use topology::SiteId;

impl<'g> DynamicsEngine<'g> {
    /// Display name of swap-set entry `t`.
    pub(super) fn swap_name(&self, t: u32) -> String {
        self.swap_set[t as usize].name.clone()
    }

    /// Replaces the effective deployment with swap-set entry `to`. The
    /// entries are nested prefixes of one site list, so a site keeps
    /// its id and survives exactly when the id is below the new site
    /// count. Per-site state — announcement flags, active drains,
    /// per-user assignments, and the group snapshot — is cut or
    /// extended to the new ring. A drain of a site that leaves the
    /// deployment is cancelled and ledgered as aborted; a user whose
    /// site leaves keeps the stored candidate key with `site: None`,
    /// the marker the group diff's rule 0 re-ranks.
    pub(super) fn apply_swap(&mut self, to: usize, out: &mut BatchOutcome) {
        let old_len = self.base.sites.len();
        let new_dep = Arc::clone(&self.swap_set[to]);
        let new_len = new_dep.sites.len();
        let survives = |s: SiteId| (s.0 as usize) < new_len;

        // Ledger classification is by what actually happened to the
        // site count — robust to mislabeled events — so
        // `promotions + demotions = swap epochs` always balances.
        obs::counter_add(
            if new_len >= old_len { "dynamics.swap.promotions" } else { "dynamics.swap.demotions" },
            1,
        );
        obs::counter_add("dynamics.swap.epochs", 1);

        // Drains: survivors keep their state and generation stamp; a
        // drain of a departing site is cancelled and ledgered.
        self.drains.retain(|d| {
            if survives(d.site) {
                return true;
            }
            obs::counter_add("dynamics.drain.aborted", 1);
            out.notes.push(format!(
                "drain on {} cancelled: site left the deployment (ledgered)",
                d.site
            ));
            false
        });

        // Announcement flags: survivors keep theirs (a downed site
        // stays down across the swap), new arrivals announce. A site
        // that leaves forfeits its state — re-entering on a later swap
        // starts alive. Controller withholds cannot coexist with swaps
        // (a controller requires capacities, which exclude swap sets),
        // so that table only changes size.
        self.alive.resize(new_len, true);
        self.ctrl_withheld.resize(new_len, Vec::new());

        // Per-user assignments: surviving cohorts keep their stored
        // site; a cohort whose site left the deployment keeps its
        // stored key with the site cleared — the rule-0 orphan marker
        // — and joins the orphan set the next recompute re-ranks
        // unconditionally.
        let mut kept_users = 0u64;
        for (c, cohort) in self.cohorts.iter().enumerate() {
            let Some(s) = self.states[c].site else {
                continue;
            };
            if survives(s) {
                kept_users += u64::from(cohort.len());
            } else {
                self.states[c].site = None;
                // `reassign` cleared `orphans` last epoch and one
                // swap applies per epoch, so a plain push keeps the
                // set sorted and duplicate-free.
                self.orphans.push(c as u32);
            }
        }
        obs::counter_add("dynamics.swap.users_rekeyed", kept_users);

        // Group snapshot: drop departed sites from hosted-site lists
        // and drain footprints. After a pure demotion the surviving
        // group then compares equal to the freshly computed one, so
        // the following recompute re-ranks exactly the rule-0 users.
        for snap in self.groups.values_mut() {
            snap.sites.retain(|&s| survives(s));
            snap.drains.retain(|(s, _)| survives(*s));
        }

        self.base = new_dep;
        self.current_swap = to;
    }
}
