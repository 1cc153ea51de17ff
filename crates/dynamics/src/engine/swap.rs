//! Deployment swaps (ring promotion and demotion). The engine routes
//! over the widest swap-set entry, so a swap only changes which of its
//! sites announce. `docs/DYNAMICS.md` §5 has the semantics.

use super::{BatchOutcome, DynamicsEngine};
use topology::SiteId;

impl<'g> DynamicsEngine<'g> {
    /// Display name of swap-set entry `t`.
    pub(super) fn swap_name(&self, t: u32) -> String {
        self.swap_set[t as usize].name.clone()
    }

    /// Makes swap-set entry `to` the effective deployment. The entries
    /// are nested prefixes of the widest one, which the engine routes
    /// over, so a site keeps its id and belongs to the new ring exactly
    /// when the id is below the new site count. Arrivals announce,
    /// departures stop announcing, and survivors keep their flags (a
    /// downed site stays down across the swap). A drain of a departing
    /// site is cancelled and ledgered as aborted. Stored assignments
    /// are left alone: the next recompute's group diff sees a departed
    /// site as a removal, and the site-diff rule re-ranks its users.
    pub(super) fn apply_swap(&mut self, to: usize, out: &mut BatchOutcome) {
        let old_len = self.deployment().sites.len();
        let new_len = self.swap_set[to].sites.len();

        // Ledger classification is by what actually happened to the
        // site count — robust to mislabeled events — so
        // `promotions + demotions = swap epochs` always balances.
        obs::counter_add(
            if new_len >= old_len { "dynamics.swap.promotions" } else { "dynamics.swap.demotions" },
            1,
        );
        obs::counter_add("dynamics.swap.epochs", 1);

        // Drains: survivors keep their state and generation stamp; a
        // drain of a departing site is cancelled and ledgered, in
        // ascending site order.
        for (i, slot) in self.drains.iter_mut().enumerate().skip(new_len) {
            if slot.take().is_some() {
                obs::counter_add("dynamics.drain.aborted", 1);
                out.notes.push(format!(
                    "drain on {} cancelled: site left the deployment (ledgered)",
                    SiteId(i as u32)
                ));
            }
        }

        // A site that leaves forfeits its state: re-entering on a later
        // swap starts alive. Controller withholds cannot coexist with
        // swaps (a controller requires capacities, which exclude swap
        // sets), so `ctrl_withheld` stays empty.
        if new_len > old_len {
            self.alive[old_len..new_len].fill(true);
        } else {
            self.alive[new_len..old_len].fill(false);
        }

        let kept_users: u64 = self
            .cohorts
            .iter()
            .zip(&self.states)
            .filter(|(_, st)| st.is_some_and(|st| (st.site.0 as usize) < new_len))
            .map(|(c, _)| u64::from(c.len()))
            .sum();
        obs::counter_add("dynamics.swap.users_rekeyed", kept_users);
        self.current_swap = to;
    }
}
