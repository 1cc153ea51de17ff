//! The recompute: build the effective deployment, diff its origin groups
//! against the stored catchment's, re-rank only the cohorts the diff
//! invalidates (`plan → rank → commit`), and build the epoch record.
//! [`DynamicsEngine::verify_full_recompute`] re-ranks everyone as the
//! oracle.
//!
//! Why reusing every other cohort's stored assignment is sound — the
//! invalidation rules 1–3, the site-diff refinement, and how drains,
//! withholds and swaps keep the argument — is argued once, in
//! `docs/DYNAMICS.md` §4 and §5.

use super::apply::insert_sorted;
use super::convergence;
use super::{
    same_bits, DrainState, DynamicsEngine, MismatchKind, RecomputeMismatch, RecomputeMode,
    ReassignPlan, Served,
};
use crate::timeline::EpochRecord;
use analysis::WeightedCdf;
use netsim::{LastMile, PathProfile};
use std::sync::Arc;
use topology::{AnycastDeployment, Asn, Catchment, ExportScope, OriginRoutes, SiteDrain, SiteId};

const MS_PER_DAY: f64 = 86_400_000.0;

/// What the group diff found for one stored `(host, scope)` group that
/// the epoch touched.
enum GroupChange {
    /// Removed, or its routes or drain footprint changed: every cohort
    /// keyed under it re-ranks.
    Invalidated,
    /// Only the hosted-site list changed (both lists sorted): the
    /// site-diff rule decides per cohort.
    Sites { added: Vec<SiteId>, removed: Vec<SiteId> },
}

/// The drain footprint of the group of `c` hosting `sites`: the site
/// drains of `c`'s deployment that fall on those sites, ascending by
/// site. Per-session eligibility state the routes `Arc` cannot see, so
/// it takes part in the group diff.
fn drain_footprint<'c>(
    c: &'c Catchment<'_>,
    sites: &'c [SiteId],
) -> impl Iterator<Item = &'c SiteDrain> + 'c {
    c.deployment().site_drains.iter().filter(|d| sites.binary_search(&d.site).is_ok())
}

impl<'g> DynamicsEngine<'g> {
    /// The deployment as currently announced: every site of `base`,
    /// the ones not alive withdrawn, lost peerings merged into the
    /// withhold list, and each site's active withhold set (its partial
    /// drain's sessions merged with the controller's sheds, sorted and
    /// deduplicated) as a site drain, ascending by site. Holding drains
    /// have no withheld set: their site is simply withdrawn. The group
    /// diff reads a group's drain footprint from these site drains, so
    /// a controller withhold is as visible to it as a drain stage.
    fn effective_deployment(&self) -> Arc<AnycastDeployment> {
        let mut dep = (*self.base).clone();
        dep.withhold.extend(self.lost_peerings.iter().copied());
        dep.withhold.sort_unstable();
        dep.withhold.dedup();
        for s in &self.base.sites {
            if !self.alive[s.id.0 as usize] {
                dep.withdrawn.push(s.id);
                continue;
            }
            let drain = self.drains[s.id.0 as usize].as_ref();
            let mut withheld = drain.map(DrainState::withheld).unwrap_or_default();
            for &(a, _) in &self.ctrl_withheld[s.id.0 as usize] {
                insert_sorted(&mut withheld, a);
            }
            if !withheld.is_empty() {
                dep.site_drains.push(SiteDrain { site: s.id, withheld });
            }
        }
        Arc::new(dep)
    }

    /// Recomputes the catchment over the effective deployment, re-ranks
    /// the affected users (all of them under [`RecomputeMode::Full`] or
    /// at init), and closes the epoch. Composed from the three phases —
    /// [`DynamicsEngine::plan_reassign`] (catchment + group diff +
    /// invalidation selection), [`DynamicsEngine::rank_plan`] (the
    /// parallel re-rank), and [`DynamicsEngine::commit_plan`] (state
    /// writes, counters, and the record) — run back to back.
    pub(super) fn reassign(&mut self, label: &str, is_init: bool) -> EpochRecord {
        let plan = self.plan_reassign(is_init);
        let results = self.rank_plan(&plan);
        self.commit_plan(plan, &results, label, is_init)
    }

    /// Phase 1 of a recompute: the new catchment over the effective
    /// deployment and the affected-cohort selection (the group diff
    /// against the stored catchment and invalidation rules 1–3).
    /// Mutates only the route cache; every assignment write, and the
    /// new catchment's storing, waits for
    /// [`DynamicsEngine::commit_plan`].
    fn plan_reassign(&mut self, is_init: bool) -> ReassignPlan<'g> {
        let population = self.queries_per_day.len();
        // New catchment over whatever is still announced.
        let catchment = Arc::new(Catchment::compute(
            self.graph,
            self.effective_deployment(),
            &mut self.cache,
        ));
        // Who must be re-ranked?
        let (affected, slice_users) = if is_init || self.mode == RecomputeMode::Full {
            ((0..self.cohorts.len() as u32).collect(), population as u64)
        } else {
            let old = self.catchment.as_deref().expect("the init commit stored a catchment");
            self.invalidated_cohorts(old, &catchment)
        };
        ReassignPlan { catchment, affected, slice_users }
    }

    /// The cohorts an incremental recompute must re-rank, ascending,
    /// and the users in the cohorts the invalidation rules opened for a
    /// check (`dynamics.invalidation.slice_users`). One ascending pass
    /// over the cohort table applies rules 1–3 and the site-diff rule
    /// to each cohort's stored key, reading its group from that key; a
    /// cohort of a group the epoch provably did not touch is skipped
    /// without a check.
    fn invalidated_cohorts(&self, old: &Catchment<'_>, new: &Catchment<'_>) -> (Vec<u32>, u64) {
        // Diff the group sets, walking both catchments' groups in their
        // ascending `(host, scope)` order, so `touched` comes out
        // ascending. A group whose routes Arc, hosted sites, and drain
        // footprint all survived unchanged ranks and materializes
        // exactly as before. A group whose ONLY change is its hosted-site
        // list (the site up/down and deployment-swap shape) is diffed
        // site-by-site: its own users re-rank only when their stored site
        // was removed or an added site beats it on
        // `Catchment::pick_site`'s nearest-to-entry tie-break, and it
        // challenges other groups' users only when sites were added
        // (shrinking a group cannot improve it). Everything else
        // invalidates its own users wholesale and may challenge others.
        let mut touched: Vec<((Asn, ExportScope), GroupChange)> = Vec::new();
        let mut challengers: Vec<((Asn, ExportScope), &Arc<OriginRoutes>)> = Vec::new();
        let mut olds = old.groups().peekable();
        for (host, scope, routes, sites) in new.groups() {
            let k = (host, scope);
            // Old groups sorting before this one are gone.
            while let Some((h, s, ..)) = olds.next_if(|&(h, s, ..)| (h, s) < k) {
                touched.push(((h, s), GroupChange::Invalidated));
            }
            let Some((_, _, old_routes, old_sites)) = olds.next_if(|&(h, s, ..)| (h, s) == k)
            else {
                // A new group can only challenge.
                challengers.push((k, routes));
                continue;
            };
            if !Arc::ptr_eq(old_routes, routes)
                || !drain_footprint(old, old_sites).eq(drain_footprint(new, sites))
            {
                touched.push((k, GroupChange::Invalidated));
                challengers.push((k, routes));
            } else if old_sites != sites {
                // Both lists ascending: `a` minus `b`, in `a`'s order.
                let minus = |a: &[SiteId], b: &[SiteId]| -> Vec<SiteId> {
                    a.iter().copied().filter(|s| b.binary_search(s).is_err()).collect()
                };
                let (added, removed) = (minus(sites, old_sites), minus(old_sites, sites));
                if !added.is_empty() {
                    challengers.push((k, routes));
                }
                touched.push((k, GroupChange::Sites { added, removed }));
            }
        }
        touched.extend(olds.map(|(h, s, ..)| ((h, s), GroupChange::Invalidated)));
        // No touched group and no challenger: no rule applies to anyone.
        if touched.is_empty() && challengers.is_empty() {
            return (Vec::new(), 0);
        }
        let base = &self.base;
        let mut out: Vec<u32> = Vec::new();
        let mut slice_users = 0u64;
        for (c, (cohort, st)) in self.cohorts.iter().zip(&self.states).enumerate() {
            let c = c as u32;
            let src = cohort.src_idx as usize;
            // Rule 3: unserved cohorts re-rank when an added or changed
            // group now has any route at their source. With no challengers
            // they are provably untouched and never checked.
            let Some(st) = st else {
                if !challengers.is_empty() {
                    slice_users += u64::from(cohort.len());
                    if challengers.iter().any(|(_, r)| r.route_at(src).is_some()) {
                        out.push(c);
                    }
                }
                continue;
            };
            // Rules 1 and 2, per cohort of a stored-key group: a cohort
            // whose group is not invalidated, not site-diffed, and
            // challenged by nobody else is skipped without a check.
            let gk = st.key.group();
            let change =
                touched.binary_search_by_key(&gk, |(k, _)| *k).ok().map(|i| &touched[i].1);
            if change.is_none() && challengers.iter().all(|(ck, _)| *ck == gk) {
                continue;
            }
            slice_users += u64::from(cohort.len());
            if matches!(change, Some(GroupChange::Invalidated)) {
                out.push(c);
                continue;
            }
            if let Some(GroupChange::Sites { added, removed }) = change {
                if removed.binary_search(&st.site).is_ok() {
                    out.push(c);
                    continue;
                }
                // An added site takes over exactly when it beats the
                // stored one on (distance to the stored entry point, site
                // id) — `Catchment::pick_site`'s tie-break.
                let ds = base.sites[st.site.0 as usize].location.distance_km(&st.entry);
                if added.iter().any(|&a| {
                    let da = base.sites[a.0 as usize].location.distance_km(&st.entry);
                    da < ds || (da == ds && a < st.site)
                }) {
                    out.push(c);
                    continue;
                }
            }
            // The cohort's own group never challenges it here: the
            // site-diff rule above already decided for it.
            if challengers.iter().any(|(ck, r)| {
                *ck != gk
                    && r.route_at(src)
                        .is_some_and(|nr| st.key.challenged_by(nr.class, nr.path_len))
            }) {
                out.push(c);
            }
        }
        // Ascending and duplicate-free by construction: the order every
        // downstream accumulation (and therefore byte-level determinism)
        // depends on.
        (out, slice_users)
    }

    /// Phase 2 of a recompute: re-rank the planned cohorts on the
    /// deterministic parallel layer; index order of `plan.affected`
    /// fixes the merge order. One BGP decision per cohort serves every
    /// member: the decision sees only `(source AS, location)`, which
    /// members share. Reads the engine immutably.
    fn rank_plan(&self, plan: &ReassignPlan<'_>) -> Vec<Option<Served>> {
        let cohorts = &self.cohorts;
        let model = &self.model;
        let c = &plan.catchment;
        par::ordered_map(&plan.affected, |_, &ci| {
            let u = &cohorts[ci as usize];
            c.assign_with_key(u.asn, &u.location).map(|(a, key)| {
                let ms =
                    model.median_rtt_ms(&PathProfile::from_assignment(&a, LastMile::Broadband));
                // The withhold-relevant session: the AS the host
                // announced to on this path (the hop right before the
                // host; None when no AS precedes it — `Served::via`).
                let host = c.deployment().site(a.site).host;
                let via = a
                    .as_path
                    .iter()
                    .position(|&n| n == host)
                    .and_then(|p| p.checked_sub(1))
                    .map(|p| a.as_path[p]);
                Served {
                    site: a.site,
                    key,
                    via,
                    entry: a.entry,
                    latency_ms: ms,
                    path_km: a.path_km,
                }
            })
        })
    }

    /// Phase 3 of a recompute: store each rank result in the per-cohort
    /// state table, store the new catchment for the next group diff,
    /// emit the recompute counters, and build the epoch's record from
    /// the committed state.
    fn commit_plan(
        &mut self,
        plan: ReassignPlan<'g>,
        results: &[Option<Served>],
        label: &str,
        is_init: bool,
    ) -> EpochRecord {
        let ReassignPlan { catchment, affected, slice_users } = plan;
        let population = self.queries_per_day.len();
        let mut shifted = 0.0;
        let mut shifted_qpd = 0.0;
        for (&ci, &new) in affected.iter().zip(results) {
            let cohort = self.cohorts[ci as usize];
            let old = self.states[ci as usize];
            if !is_init && new.map(|s| s.site) != old.map(|s| s.site) {
                shifted += cohort.weight;
                shifted_qpd += cohort.queries_per_day;
            }
            self.states[ci as usize] = new;
        }
        self.catchment = Some(catchment);

        // The recompute ledger stays in *user* units: an affected
        // cohort recomputes once but stands in for all its members.
        let recomputed: u64 =
            affected.iter().map(|&ci| u64::from(self.cohorts[ci as usize].len())).sum();
        let reused = population as u64 - recomputed;
        obs::counter_add("dynamics.assign_recomputed", recomputed);
        obs::counter_add("dynamics.assign_reused", reused);
        // What a full recompute would have paid for this event — the
        // denominator of the incremental savings.
        obs::counter_add("dynamics.full_equiv", population as u64);
        if !is_init {
            obs::counter_add("dynamics.invalidation.slice_users", slice_users);
            obs::counter_add("dynamics.invalidation.population", population as u64);
            self.slice_users_total += slice_users;
            self.population_total += population as u64;
        }
        self.record(&self.states, label, shifted, shifted_qpd, recomputed)
    }

    /// Builds an epoch record at the current instant from per-cohort
    /// `states` (ascending cohort order) plus the epoch's shift and
    /// recompute totals. Served weight, Σ path length × weight, and the
    /// weighted-median points come from one pass over cohorts, since
    /// every member shares its cohort's assignment, so the cost stays
    /// O(cohorts) at any population. The one record builder:
    /// [`DynamicsEngine::commit_plan`] hands it the committed state,
    /// [`DynamicsEngine::verify_full_recompute`] a fresh full re-rank.
    fn record(
        &self,
        states: &[Option<Served>],
        label: &str,
        shifted: f64,
        shifted_qpd: f64,
        recomputed: u64,
    ) -> EpochRecord {
        let mut latency_pts = Vec::new();
        let mut served_w = 0.0;
        let mut path_sum = 0.0;
        for (c, st) in self.cohorts.iter().zip(states) {
            if let Some(st) = st {
                served_w += c.weight;
                path_sum += st.path_km * c.weight;
                latency_pts.push((st.latency_ms, c.weight));
            }
        }
        let cdf = WeightedCdf::from_points(latency_pts);
        let median_ms = (!cdf.is_empty()).then(|| cdf.median());
        let total_weight = self.total_weight();
        let frac = |w: f64| if total_weight > 0.0 { w / total_weight } else { 0.0 };
        let shifted_frac = frac(shifted);
        let convergence_ms = convergence::convergence_ms(shifted, shifted_frac);
        EpochRecord {
            t_ms: self.clock.now().as_ms(),
            event: label.to_string(),
            shifted,
            shifted_frac,
            unserved_frac: (1.0 - frac(served_w)).max(0.0),
            median_ms,
            // `None` during the init recompute itself.
            inflation_ms: match (median_ms, self.init_record.as_ref().and_then(|r| r.median_ms)) {
                (Some(m), Some(b)) => Some(m - b),
                _ => None,
            },
            mean_path_km: (served_w > 0.0).then(|| path_sum / served_w),
            convergence_ms,
            degraded_queries: shifted_qpd * convergence_ms / MS_PER_DAY,
            recomputed,
            reused: self.queries_per_day.len() as u64 - recomputed,
            headroom_frac: None,
            note: String::new(),
        }
    }

    /// The on-demand full-recompute oracle. Re-ranks every cohort
    /// against the current effective deployment — the plan and rank
    /// phases with all cohorts selected, and no commit — and compares
    /// the result with the stored per-cohort state (site, key, entry
    /// session, entry point, latency and path bits). It then recomputes
    /// the served weight, mean path and median from those fresh states
    /// and compares them with `last`, the record of the epoch that
    /// produced the current state. Returns every disagreement (empty =
    /// the stored state is what a [`RecomputeMode::Full`] engine would
    /// hold). Leaves the assignment state untouched; only the route
    /// cache may gain entries.
    ///
    /// [`RecomputeMode::Incremental`] and [`RecomputeMode::Full`] differ
    /// only in which cohorts the plan selects, so this checks exactly
    /// the reuse rule the incremental engine trusts.
    pub fn verify_full_recompute(&mut self, last: &EpochRecord) -> Vec<RecomputeMismatch> {
        let span = obs::span!("dynamics.verify_full_recompute");
        span.add_items(self.cohorts.len() as u64);
        let plan = self.plan_reassign(true);
        let fresh = self.rank_plan(&plan);
        let mut out = Vec::new();
        // One cohort is evidence enough; don't flood.
        if let Some(c) = (0..fresh.len()).find(|&c| !same_bits(&self.states[c], &fresh[c])) {
            let show = |st: Option<Served>| {
                (st.map(|s| s.site), st.map_or(0.0, |s| s.latency_ms), st.and_then(|s| s.via))
            };
            let (a, b) = (show(self.states[c]), show(fresh[c]));
            let cohort = &self.cohorts[c];
            out.push(RecomputeMismatch {
                kind: MismatchKind::State,
                detail: format!(
                    "cohort [{}, {}) stores {:?}@{} ms via {:?} but a full re-rank gives \
                     {:?}@{} ms via {:?}",
                    cohort.start, cohort.end, a.0, a.1, a.2, b.0, b.1, b.2
                ),
            });
        }
        let want = self.record(&fresh, "", 0.0, 0.0, 0);
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        for (field, stored, recomputed) in [
            ("unserved_frac", Some(last.unserved_frac), Some(want.unserved_frac)),
            ("mean_path_km", last.mean_path_km, want.mean_path_km),
            ("median_ms", last.median_ms, want.median_ms),
            ("inflation_ms", last.inflation_ms, want.inflation_ms),
        ] {
            if bits(stored) != bits(recomputed) {
                out.push(RecomputeMismatch {
                    kind: MismatchKind::Record,
                    detail: format!(
                        "'{}': {field} {stored:?} but the fresh assignments give {recomputed:?}",
                        last.event
                    ),
                });
            }
        }
        out
    }

    /// Nudges one cohort's stored latency by one ulp, so tests can
    /// prove [`DynamicsEngine::verify_full_recompute`] notices.
    ///
    /// # Panics
    ///
    /// Panics when the cohort is unserved: it stores no latency.
    #[doc(hidden)]
    pub fn corrupt_cohort_state_for_test(&mut self, cohort: usize) {
        let st = self.states[cohort].as_mut().expect("only a served cohort stores a latency");
        st.latency_ms = f64::from_bits(st.latency_ms.to_bits() ^ 1);
    }
}
