//! One batched epoch: apply every event of one instant in the fixed
//! precedence order (opposing same-timestamp pairs cancel first), then
//! recompute, and either commit the epoch or — when a drain stage
//! overloads a survivor — roll it back into a `drain-abort` record.
//! `docs/DYNAMICS.md` §2 has the precedence table.

use super::{BatchOutcome, DrainState, DynamicsEngine};
use crate::event::{EventQueue, RoutingEvent};
use crate::timeline::EpochRecord;
use geo::GeoPoint;
use topology::{Asn, SiteId};

/// Removes the intersection of two sorted, deduplicated sets and
/// returns it — the same-timestamp cancellation rule of batched
/// epochs (e.g. `SiteDown` + `SiteUp` of one site net out to a
/// recorded no-op flap).
fn cancel_pairs<T: Ord + Copy>(a: &mut Vec<T>, b: &mut Vec<T>) -> Vec<T> {
    let both: Vec<T> = a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect();
    a.retain(|x| both.binary_search(x).is_err());
    b.retain(|x| both.binary_search(x).is_err());
    both
}

/// Inserts `a` into the sorted set `v` (no-op if present).
pub(super) fn insert_sorted(v: &mut Vec<Asn>, a: Asn) {
    if let Err(pos) = v.binary_search(&a) {
        v.insert(pos, a);
    }
}

/// Removes `a` from the sorted set `v` (no-op if absent).
fn remove_sorted(v: &mut Vec<Asn>, a: Asn) {
    if let Ok(pos) = v.binary_search(&a) {
        v.remove(pos);
    }
}

impl<'g> DynamicsEngine<'g> {
    /// Applies one same-timestamp batch, recomputes, and — when drains
    /// escalated under configured capacities — runs the post-stage
    /// load check, rolling the whole escalation back into a
    /// `drain-abort` record if any announced site would exceed its
    /// limit. Follow-up drain events are scheduled only on commit.
    /// With a controller attached, its decision rounds then run at the
    /// same `SimTime` against the committed state, each appending one
    /// more record — so an epoch yields one record plus zero or more
    /// `ctrl[…]` rounds.
    pub(super) fn epoch(&mut self, batch: &[RoutingEvent], queue: &mut EventQueue) -> Vec<EpochRecord> {
        let BatchOutcome { labels, mut notes, escalated, followups } = self.apply_batch(batch);
        let label = labels.join(" + ");
        // Snapshot the assignment state and the stored catchment only
        // when an abort is possible.
        let snap = (!escalated.is_empty() && self.capacities.is_some())
            .then(|| (self.states.clone(), self.catchment.clone()));
        let mut rec = self.reassign(&label, false);
        let mut committed = true;
        if let Some((states, catchment)) = snap {
            let violation = {
                let caps = self.capacities.as_ref().expect("snapshot implies capacities");
                let loads = self.site_loads();
                caps.first_overloaded(&loads, self.announced_sites())
                    .map(|(site, load)| (site, load, caps.capacity(site)))
            };
            if let Some((site, load, cap)) = violation {
                // Roll back: restore the pre-epoch assignment state,
                // cancel every drain that escalated this epoch — the
                // whole drain, not just this stage — and recompute.
                // The routing inputs then equal those of a run in
                // which the drain never started, so the
                // (deterministic) recompute reproduces the pre-drain
                // assignment byte-for-byte. Users an earlier committed
                // stage moved move back, and the abort record's
                // `shifted` counts them.
                self.states = states;
                self.catchment = catchment;
                for &s in &escalated {
                    self.abort_drain(s);
                }
                obs::counter_add("dynamics.drain.aborted", escalated.len() as u64);
                let aborts = escalated
                    .iter()
                    .map(|s| format!("drain-abort {s}"))
                    .collect::<Vec<_>>()
                    .join(" + ");
                rec = self.reassign(&format!("{label} => {aborts}"), false);
                notes.push(format!(
                    "drain aborted: {site} load {load:.3} exceeds cap {cap:.3}"
                ));
                committed = false;
            }
        }
        if committed {
            if !escalated.is_empty() {
                obs::counter_add("dynamics.drain.escalations", escalated.len() as u64);
            }
            for (at, ev) in followups {
                queue.push(at, ev);
            }
        }
        rec.headroom_frac = self.current_headroom();
        rec.note = notes.join("; ");
        let mut records = vec![rec];
        if self.controller.is_some() {
            self.controller_rounds(&mut records);
        }
        records
    }

    /// Mutates announcement and drain state for one batched epoch.
    ///
    /// Precedence inside a batch (each category sorted, duplicates
    /// collapsed): opposing same-target pairs cancel first (recorded
    /// no-op), then site downs, site ups, peering downs, peering ups,
    /// drain ends, drain stages, drain starts, and finally deployment
    /// swaps (demotions, then promotions; when several survive, the
    /// last wins and the rest are recorded as superseded). Site events
    /// co-batched with a swap therefore use *pre-swap* ids. A
    /// `SiteDown` on a draining site aborts its drain (the site failed
    /// mid-maintenance); a `SiteUp` on one completes it early. Stale
    /// generation-stamped drain follow-ups are recorded no-ops — and
    /// follow-ups are matched by generation stamp *alone*, because a
    /// swap may have removed the site id a queued follow-up was
    /// scheduled under.
    fn apply_batch(&mut self, batch: &[RoutingEvent]) -> BatchOutcome {
        let n_sites = self.deployment().sites.len();
        let check = |s: SiteId| {
            assert!((s.0 as usize) < n_sites, "event targets {s} outside the deployment");
            s
        };
        let n_swaps = self.swap_set.len();
        let check_swap = |t: u32| {
            assert!(
                (t as usize) < n_swaps,
                "swap event targets entry {t} but the swap set has {n_swaps} entries \
                 (register one with with_swap_set)"
            );
            t
        };
        let mut downs: Vec<SiteId> = Vec::new();
        let mut ups: Vec<SiteId> = Vec::new();
        let mut pdowns: Vec<Asn> = Vec::new();
        let mut pups: Vec<Asn> = Vec::new();
        let mut ends: Vec<(u64, SiteId)> = Vec::new();
        let mut stage_evs: Vec<(u64, SiteId)> = Vec::new();
        let mut starts: Vec<(SiteId, f64, u32, f64)> = Vec::new();
        let mut promotes: Vec<u32> = Vec::new();
        let mut demotes: Vec<u32> = Vec::new();
        let mut surges: Vec<(GeoPoint, f64, f64)> = Vec::new();
        let mut capscales: Vec<(SiteId, f64)> = Vec::new();
        let mut ticks = 0usize;
        for ev in batch {
            match *ev {
                RoutingEvent::SiteDown(s) => downs.push(check(s)),
                RoutingEvent::SiteUp(s) => ups.push(check(s)),
                RoutingEvent::PeeringDown(a) => pdowns.push(a),
                RoutingEvent::PeeringUp(a) => pups.push(a),
                // Drain follow-ups are keyed by generation, not site:
                // the carried site id predates any swap and is kept
                // only for labeling stale no-ops.
                RoutingEvent::DrainEnd { site, gen } => ends.push((gen, site)),
                RoutingEvent::DrainStage { site, gen } => stage_evs.push((gen, site)),
                RoutingEvent::DrainStart { site, stage_ms, stages, hold_ms } => {
                    starts.push((check(site), stage_ms, stages, hold_ms));
                }
                RoutingEvent::RingPromote { to } => promotes.push(check_swap(to)),
                RoutingEvent::RingDemote { to } => demotes.push(check_swap(to)),
                RoutingEvent::DemandScale { center, radius_km, factor } => {
                    assert!(
                        factor.is_finite() && factor > 0.0,
                        "demand factor must be positive and finite, got {factor}"
                    );
                    assert!(radius_km >= 0.0, "demand radius must be non-negative");
                    surges.push((center, radius_km, factor));
                }
                RoutingEvent::CapacityScale { site, factor } => {
                    assert!(
                        factor.is_finite() && factor > 0.0,
                        "capacity factor must be positive and finite, got {factor}"
                    );
                    capscales.push((check(site), factor));
                }
                RoutingEvent::LoadTick => ticks += 1,
            }
        }
        for v in [&mut downs, &mut ups] {
            v.sort_unstable();
            v.dedup();
        }
        for v in [&mut pdowns, &mut pups] {
            v.sort_unstable();
            v.dedup();
        }
        ends.sort_unstable();
        ends.dedup_by_key(|e| e.0);
        stage_evs.sort_unstable();
        stage_evs.dedup_by_key(|e| e.0);
        starts.sort_by_key(|s| s.0);
        starts.dedup_by_key(|s| s.0);
        for v in [&mut promotes, &mut demotes] {
            v.sort_unstable();
            v.dedup();
        }

        let mut out = BatchOutcome {
            labels: Vec::new(),
            notes: Vec::new(),
            escalated: Vec::new(),
            followups: Vec::new(),
        };
        for s in cancel_pairs(&mut downs, &mut ups) {
            out.labels.push(format!("flap {s}"));
            out.notes.push(format!("down and up of {s} cancel (no-op)"));
        }
        for a in cancel_pairs(&mut pdowns, &mut pups) {
            out.labels.push(format!("peering-flap {a}"));
            out.notes.push(format!("peering down and up of {a} cancel (no-op)"));
        }

        // Demand changes first: they move no announcements (the
        // routing precedence below is untouched), only cohort weights
        // and query volumes. Per-user query volumes follow lazily
        // through `demand_mult`, so a million-user surge writes
        // O(cohorts) here and O(members) only when
        // `queries_per_day` is next read.
        for &(center, radius_km, factor) in &surges {
            let mut hit = 0u64;
            let mut delta = 0.0;
            for (ci, c) in self.cohorts.iter_mut().enumerate() {
                if c.location.distance_km(&center) <= radius_km {
                    delta += c.weight * (factor - 1.0);
                    c.weight *= factor;
                    c.queries_per_day *= factor;
                    self.demand_mult[ci] *= factor;
                    hit += 1;
                }
            }
            out.labels.push(format!("surge x{factor:.2}"));
            out.notes.push(format!(
                "demand x{factor:.3} within {radius_km:.0} km of ({:.1} {:.1}) hit {hit} cohorts ({delta:+.1} users)",
                center.lat(),
                center.lon(),
            ));
        }
        // Capacity changes are the supply-side twin of surges: no
        // announcement moves, only the headroom ledger. Applied in
        // batch order (same-site factors compose multiplicatively); on
        // an engine without capacities the event is a recorded no-op —
        // there is no table to scale.
        for &(site, factor) in &capscales {
            out.labels.push(format!("cap {site} x{factor:.2}"));
            match self.capacities.as_mut() {
                Some(caps) => {
                    caps.scale(site, factor);
                    out.notes.push(format!(
                        "capacity of {site} x{factor:.3} -> {:.1}",
                        caps.capacity(site)
                    ));
                }
                None => out.notes.push(format!(
                    "capacity scale on {site} ignored: engine tracks no capacities"
                )),
            }
        }
        if ticks > 0 {
            out.labels.push("tick".to_string());
        }

        for &s in &downs {
            if self.drains[s.0 as usize].take().is_some() {
                obs::counter_add("dynamics.drain.aborted", 1);
                out.notes.push(format!("drain on {s} aborted: site failed"));
            }
            self.alive[s.0 as usize] = false;
            out.labels.push(format!("down {s}"));
        }
        for &s in &ups {
            if self.drains[s.0 as usize].take().is_some() {
                obs::counter_add("dynamics.drain.completed", 1);
                out.notes.push(format!("drain on {s} closed by site-up"));
            }
            self.alive[s.0 as usize] = true;
            out.labels.push(format!("up {s}"));
        }
        for &a in &pdowns {
            insert_sorted(&mut self.lost_peerings, a);
            out.labels.push(format!("peering-down {a}"));
        }
        for &a in &pups {
            remove_sorted(&mut self.lost_peerings, a);
            out.labels.push(format!("peering-up {a}"));
        }
        for &(gen, carried) in &ends {
            match self.drain_site(gen, true) {
                Some(s) => {
                    out.labels.push(format!("drain-end {s}"));
                    self.drains[s.0 as usize] = None;
                    self.alive[s.0 as usize] = true;
                    obs::counter_add("dynamics.drain.completed", 1);
                }
                None => {
                    out.labels.push(format!("drain-end {carried}"));
                    out.notes.push(format!("stale drain-end for {carried} ignored"));
                }
            }
        }
        for &(gen, carried) in &stage_evs {
            match self.drain_site(gen, false) {
                Some(s) => {
                    out.labels.push(format!("drain-stage {s}"));
                    let f = self.escalate(s);
                    out.escalated.push(s);
                    out.followups.push(f);
                }
                None => {
                    out.labels.push(format!("drain-stage {carried}"));
                    out.notes.push(format!("stale drain-stage for {carried} ignored"));
                }
            }
        }
        for &(s, stage_ms, stages, hold_ms) in &starts {
            out.labels.push(format!("drain-start {s}"));
            if !self.alive[s.0 as usize] {
                out.notes.push(format!("drain-start on down {s} ignored"));
            } else if self.drains[s.0 as usize].is_some() {
                out.notes.push(format!("drain-start on already-draining {s} ignored"));
            } else {
                assert!(stages >= 1, "a drain needs at least one stage");
                assert!(stage_ms > 0.0 && hold_ms > 0.0, "drain timings must be positive");
                let gen = self.next_gen;
                self.next_gen += 1;
                let plan = self.drain_plan(s);
                self.drains[s.0 as usize] =
                    Some(DrainState { gen, plan, stages, stage: 0, stage_ms, hold_ms });
                obs::counter_add("dynamics.drain.started", 1);
                let f = self.escalate(s);
                out.escalated.push(s);
                out.followups.push(f);
            }
        }

        // Deployment swaps apply last, so every site event above was
        // interpreted against pre-swap ids. A same-timestamp
        // promote+demote pair targeting one entry cancels into a
        // recorded no-op; among several survivors the last (demotes,
        // then promotes, each ascending) wins.
        for t in cancel_pairs(&mut promotes, &mut demotes) {
            let name = self.swap_name(t);
            out.labels.push(format!("ring-flap {name}"));
            out.notes.push(format!("promote and demote to {name} cancel (no-op)"));
        }
        let survivors: Vec<(&str, u32)> = demotes
            .iter()
            .map(|&t| ("demote", t))
            .chain(promotes.iter().map(|&t| ("promote", t)))
            .collect();
        for (i, &(verb, t)) in survivors.iter().enumerate() {
            let name = self.swap_name(t);
            out.labels.push(format!("{verb} {name}"));
            if i + 1 < survivors.len() {
                out.notes
                    .push(format!("{verb} to {name} superseded by a later swap in this epoch"));
            }
        }
        if let Some(&(_, t)) = survivors.last() {
            if t as usize == self.current_swap {
                obs::counter_add("dynamics.swap.noop", 1);
                out.notes.push(format!(
                    "swap to the current ring {} (ledgered no-op)",
                    self.swap_name(t)
                ));
            } else {
                self.apply_swap(t as usize, &mut out);
            }
        }
        out
    }

    /// The site whose running drain carries generation stamp `gen` and
    /// is (or is not) `holding`: the only drain a follow-up stamped
    /// `gen` may act on.
    fn drain_site(&self, gen: u64, holding: bool) -> Option<SiteId> {
        self.drains
            .iter()
            .position(|d| d.as_ref().is_some_and(|d| d.gen == gen && d.holding() == holding))
            .map(|i| SiteId(i as u32))
    }
}
