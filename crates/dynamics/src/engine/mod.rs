//! The dynamics engine: apply a batched epoch of routing events,
//! recompute only what the epoch could have moved.
//!
//! [`DynamicsEngine`] drives one deployment through a [`Scenario`] on
//! `netsim`'s simulated clock. Every event sharing one `SimTime` is
//! applied as a *single epoch* (with defined precedence and
//! cancellation of opposing same-timestamp pairs — see
//! `docs/DYNAMICS.md` for the full table), then the engine rebuilds
//! the catchment over the *effective* deployment (surviving sites,
//! peering withholds, and per-site drain withhold sets) — cheap
//! thanks to [`RouteCache`] memoization — and decides, per expansion
//! *cohort* (the contiguous user-id range fanned out from one weighted
//! source — see [`crate::columnar`]), whether the epoch could
//! possibly have changed its BGP choice.
//! Candidate cohorts come from one pass over the cohort table, which
//! reads each cohort's group from its stored key; only challenged
//! cohorts are re-ranked, and the result is stored once, in the
//! cohort's state row. Everybody else reuses their stored assignment
//! verbatim.
//!
//! This module holds the engine and every type it uses, its
//! constructors, builders and accessors, and [`DynamicsEngine::run`].
//! Each child module adds one part of the `impl`:
//!
//! * `stepper` — [`EpochStepper`], the resumable epoch loop `run` drives;
//! * `apply` — one batched epoch: precedence, cancellation, and the
//!   commit-or-abort decision;
//! * `drain` — the staged-drain state machine;
//! * `swap` — deployment swaps between nested rings;
//! * `control` — closed-loop controller rounds and the overload and
//!   headroom readings;
//! * `reassign` — the effective deployment and the
//!   `plan → rank → commit` recompute, with its full-recompute oracle;
//! * `convergence` — the stylized BGP convergence model.

mod apply;
mod control;
mod convergence;
mod drain;
mod reassign;
mod stepper;
mod swap;
#[cfg(test)]
mod tests;

pub use stepper::EpochStepper;

use crate::columnar::Cohort;
use crate::event::RoutingEvent;
use crate::scenario::Scenario;
use crate::timeline::{EpochRecord, Timeline};
use analysis::SiteCapacities;
use geo::GeoPoint;
use loadmgmt::LoadController;
use netsim::{LatencyModel, SimClock, SimTime};
use par::DetHashMap;
use std::sync::Arc;
use topology::{
    AnycastDeployment, AnycastSite, AsGraph, Asn, CandidateKey, Catchment, RouteCache, SiteId,
};

/// How the engine reacts to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeMode {
    /// Re-rank only users whose stored choice the event could have
    /// invalidated (the production path).
    Incremental,
    /// Re-rank every user at every event — the reference oracle the
    /// incremental path must match record-for-record.
    Full,
}

/// One weighted traffic source driven through a scenario.
#[derive(Debug, Clone, Copy)]
pub struct DynUser {
    /// Source AS.
    pub asn: Asn,
    /// Source location.
    pub location: GeoPoint,
    /// Population weight (user count).
    pub weight: f64,
    /// Query volume this source sends per day (for the degraded-query
    /// accounting during convergence windows).
    pub queries_per_day: f64,
}

/// A served cohort's assignment — the rank-result type the re-rank
/// step produces and the engine stores once per cohort (every member
/// of an expansion cohort shares one `(source AS, location)` pair and
/// therefore one assignment). An unserved cohort has no row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Served {
    site: SiteId,
    key: CandidateKey,
    /// The entry session: the AS right before the serving site's host
    /// on the AS path, i.e. the neighbor a withhold or a `PeeringDown`
    /// against it would sever. `None` when no AS precedes the host on
    /// the path: users inside the host AS carry no session, and neither
    /// do users on the origin-AS group's paths unless the site's host
    /// happens to be on the path.
    via: Option<Asn>,
    /// Entry point of the current path into the origin AS — the anchor
    /// of `Catchment::pick_site`'s nearest-site tie-break, stored so the
    /// site-diff rule can test whether an added site would beat the
    /// stored one without re-materializing the path.
    entry: GeoPoint,
    latency_ms: f64,
    path_km: f64,
}

/// Exact equality of two cohort rows, floats compared bit for bit.
fn same_bits(a: &Option<Served>, b: &Option<Served>) -> bool {
    let bits = |st: &Option<Served>| {
        st.map(|s| (s.site, s.key, s.via, s.entry, s.latency_ms.to_bits(), s.path_km.to_bits()))
    };
    bits(a) == bits(b)
}

/// What a [`DynamicsEngine::verify_full_recompute`] disagreement is
/// about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchKind {
    /// A cohort's stored assignment differs from a fresh re-rank.
    State,
    /// An aggregate of the last epoch record differs from the value
    /// the fresh assignments give.
    Record,
}

/// One disagreement found by [`DynamicsEngine::verify_full_recompute`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecomputeMismatch {
    /// Stored state or record aggregate.
    pub kind: MismatchKind,
    /// Human-readable evidence.
    pub detail: String,
}

/// A running load-aware drain, in its site's slot of `drains`: the
/// *staged → holding* half of the drain state machine (aborted and
/// completed drains leave no state behind). See `docs/DYNAMICS.md` for
/// the full diagram.
#[derive(Debug, Clone)]
struct DrainState {
    /// Generation stamp carried by this drain's scheduled follow-up
    /// events; a follow-up with a stale stamp is a recorded no-op.
    gen: u64,
    /// Host-adjacent neighbor ASes in escalation order, lightest
    /// current traffic first.
    plan: Vec<Asn>,
    /// Total stages; the last one withdraws the site.
    stages: u32,
    /// Stages applied so far.
    stage: u32,
    /// Simulated time between stage escalations.
    stage_ms: f64,
    /// How long the fully-drained site stays down.
    hold_ms: f64,
}

impl DrainState {
    /// The final stage has run: the site is down for its maintenance
    /// hold, awaiting its generation-stamped `DrainEnd`.
    fn holding(&self) -> bool {
        self.stage >= self.stages
    }

    /// The sessions withheld now, sorted. Partial stage k of n withholds
    /// the lightest ⌈k·|plan|/(n−1)⌉ plan entries, so the last partial
    /// stage covers the whole plan; a holding drain withholds nothing,
    /// because its site is withdrawn outright.
    fn withheld(&self) -> Vec<Asn> {
        if self.stage == 0 || self.holding() {
            return Vec::new();
        }
        let len = self.plan.len();
        let cut = (self.stage as usize * len).div_ceil((self.stages - 1) as usize);
        let mut w = self.plan[..cut.min(len)].to_vec();
        w.sort_unstable();
        w
    }
}

/// Everything one batched epoch's apply step produced besides the
/// state mutation itself: display labels, annotation notes, the sites
/// whose drains escalated (the capacity-check candidates), and the
/// follow-up events to schedule *only if the epoch commits*.
struct BatchOutcome {
    labels: Vec<String>,
    notes: Vec<String>,
    escalated: Vec<SiteId>,
    followups: Vec<(SimTime, RoutingEvent)>,
}

/// The planning half of one recompute: the new catchment and the
/// affected-cohort selection its group diff against the stored
/// catchment produced. Everything here is decided before any
/// assignment state is written — the seam between the
/// `plan → rank → commit` phases of [`DynamicsEngine::reassign`].
struct ReassignPlan<'g> {
    catchment: Arc<Catchment<'g>>,
    affected: Vec<u32>,
    slice_users: u64,
}

/// Drives one deployment through scripted routing events, maintaining
/// every user's assignment incrementally.
///
/// An engine is single-shot: construct, optionally inspect the initial
/// steady state ([`DynamicsEngine::site_loads`]), then
/// [`DynamicsEngine::run`] one scenario.
#[derive(Debug)]
pub struct DynamicsEngine<'g> {
    graph: &'g AsGraph,
    /// The deployment routed over, every site included (`alive` says
    /// which announce): the engine's own, or the widest swap-set entry
    /// once a swap set is registered.
    base: Arc<AnycastDeployment>,
    model: LatencyModel,
    mode: RecomputeMode,
    /// Expansion cohorts in user-id order: cohort `c` owns the
    /// contiguous user-id range `cohorts[c].range()`, and its `weight`
    /// and `queries_per_day` are the live per-cohort demand.
    cohorts: Vec<Cohort>,
    /// Query volume per user per day, indexed by user id — the only
    /// per-user data the engine keeps, because replay draws each
    /// member's query count from it. Lags pending `demand_mult`
    /// factors until [`DynamicsEngine::queries_per_day`] folds them.
    queries_per_day: Vec<f64>,
    /// The assignment, one row per cohort: every member of cohort `c`
    /// is served exactly as `states[c]` says, or unserved when it is
    /// `None`. This table is the only copy; invalidation, apply,
    /// aggregates, load accumulation and the oracle all read and
    /// compare it, so an epoch's cost scales with cohorts, never with
    /// the expanded population.
    states: Vec<Option<Served>>,
    /// Running totals behind `dynamics.invalidation.*`: users in the
    /// cohorts whose group (or the unkeyed bucket) the invalidation
    /// rules opened for a check, vs the population a per-user scan
    /// would have walked.
    slice_users_total: u64,
    population_total: u64,
    cache: RouteCache,
    clock: SimClock,
    /// Announcement state per site of `base` (`false` = down, drained,
    /// or outside the current swap-set entry).
    alive: Vec<bool>,
    /// Neighbor ASes the deployment currently has no sessions toward
    /// (merged into the effective withhold list). Sorted.
    lost_peerings: Vec<Asn>,
    /// The last committed catchment, whose origin groups and drain
    /// footprints the next recompute diffs against (`None` only until
    /// the init commit).
    catchment: Option<Arc<Catchment<'g>>>,
    /// The `"init"` record, whose median is the inflation baseline.
    init_record: Option<EpochRecord>,
    /// Per-site load limits. `None` (the default) runs drains
    /// unguarded and leaves `headroom_frac` empty.
    capacities: Option<SiteCapacities>,
    /// The running drain per site of `base`, indexed by site id.
    drains: Vec<Option<DrainState>>,
    /// Generation stamp handed to the next drain, so stage and end
    /// events of dead drains are recognizably stale.
    next_gen: u64,
    /// Deployments the engine may swap between mid-scenario, nested
    /// prefixes of one site list. Empty (the default) makes any swap
    /// event a hard error.
    swap_set: Vec<Arc<AnycastDeployment>>,
    /// Index of the currently effective swap-set entry.
    current_swap: usize,
    /// Attached closed-loop load controller (`None` — the default —
    /// reproduces today's behavior byte-for-byte).
    controller: Option<Box<dyn LoadController>>,
    /// Controller-withheld sessions per site id, each sorted
    /// by ASN and carrying the user weight the session had when
    /// withheld (the release-projection estimate).
    ctrl_withheld: Vec<Vec<(Asn, f64)>>,
    /// Per-cohort demand multipliers not yet folded into the per-user
    /// `queries_per_day` — the lazy half of
    /// [`RoutingEvent::DemandScale`], drained by
    /// [`DynamicsEngine::queries_per_day`] so a surge epoch costs
    /// O(cohorts), not O(population).
    demand_mult: Vec<f64>,
    /// The `dynamics.load.*` ledger accumulators.
    load_ledger: LoadLedger,
}

/// The closed-loop load-management ledger of one engine run — what the
/// `dynamics.load.*` obs counters report, kept in float precision for
/// experiment tables.
///
/// Identities: `released_users ≤ shed_users` (a release gives back
/// weight a withhold recorded earlier, never more), and
/// `controller_rounds` counts only rounds that emitted at least one
/// effective action, so it is bounded by epochs × the controller's
/// `max_rounds`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadLedger {
    /// Total user weight carried by sessions at the moment the
    /// controller withheld them.
    pub shed_users: f64,
    /// Total recorded weight of withheld sessions the controller
    /// released again.
    pub released_users: f64,
    /// Controller decision rounds that applied at least one action.
    pub controller_rounds: u64,
    /// Overloaded-site time, summed as (announced sites over capacity)
    /// × (interval length) over the run, in site-milliseconds. Accrued
    /// whenever capacities are configured, controller or not — the
    /// do-nothing baseline of the `dynload` comparisons.
    pub overload_site_ms: f64,
    /// Unserved-demand exposure: Σ over intervals of (total user
    /// weight above capacity, summed across announced sites) ×
    /// (interval length), in user-milliseconds. The site count above
    /// is blind to magnitude — a policy that trades one overloaded
    /// site for another breaks even there no matter how much load it
    /// dumped; this integral is what that churn actually costs users.
    pub overload_user_ms: f64,
}

impl LoadLedger {
    /// Overloaded-site time in site-seconds.
    pub fn overload_site_s(&self) -> f64 {
        self.overload_site_ms / 1000.0
    }

    /// Unserved-demand exposure in user-seconds.
    pub fn overload_user_s(&self) -> f64 {
        self.overload_user_ms / 1000.0
    }
}

/// One cohort's current serving state, summarized for streaming
/// consumers (the `anycast-replay` driver): the member id range plus
/// the site and latency every member shares. O(cohorts) to snapshot,
/// however large the expanded population — the same cost contract as
/// the epoch loop itself.
#[derive(Debug, Clone, Copy)]
pub struct ServingCohort {
    /// First member's user id.
    pub start: u32,
    /// One past the last member's user id.
    pub end: u32,
    /// Serving site, or `None` while unserved.
    pub site: Option<SiteId>,
    /// Anycast RTT every member currently pays, ms (0 while unserved).
    pub latency_ms: f64,
}

impl<'g> DynamicsEngine<'g> {
    /// Builds an engine over the weighted sources as-is — one user row
    /// per source, weights and query volumes copied verbatim — and
    /// computes the initial steady-state assignment (the `"init"`
    /// epoch).
    pub fn new(
        graph: &'g AsGraph,
        deployment: Arc<AnycastDeployment>,
        model: LatencyModel,
        users: Vec<DynUser>,
        mode: RecomputeMode,
    ) -> Self {
        let counts = vec![1u32; users.len()];
        Self::new_expanded(graph, deployment, model, &users, &counts, 0, mode)
    }

    /// Builds an engine over an *expanded* population: source `i` of
    /// `base` fans out to `counts[i]` per-user rows occupying one
    /// contiguous user-id range (an expansion cohort). Each member
    /// carries an equal share of the source's weight; query volume is
    /// shared likewise but jittered ±25% per member from `seed`'s
    /// [`par::seed_for`] stream, so degraded-query accounting is not
    /// artificially uniform. A count of 1 copies the source verbatim,
    /// making [`DynamicsEngine::new`] the all-ones special case —
    /// byte-identical to the pre-columnar engine. The expansion is a
    /// pure function of `(base, counts, seed)`, identical at any
    /// `--threads` value; pair it with
    /// [`crate::columnar::expand_counts`] to apportion a target
    /// population across weighted sources.
    ///
    /// # Panics
    ///
    /// Panics when `counts` does not cover `base`, any count is zero, or
    /// a source's weight or query volume is negative or not finite.
    pub fn new_expanded(
        graph: &'g AsGraph,
        deployment: Arc<AnycastDeployment>,
        model: LatencyModel,
        base: &[DynUser],
        counts: &[u32],
        seed: u64,
        mode: RecomputeMode,
    ) -> Self {
        assert_eq!(base.len(), counts.len(), "one expansion count per source");
        let n_sites = deployment.sites.len();
        let population: usize = counts.iter().map(|&c| c as usize).sum();
        let mut qpd = Vec::with_capacity(population);
        let mut cohorts = Vec::with_capacity(base.len());
        for (u, &k) in base.iter().zip(counts) {
            assert!(k >= 1, "every source expands to at least one user");
            assert!(
                u.weight >= 0.0 && u.weight.is_finite(),
                "user weight must be non-negative and finite, got {}",
                u.weight
            );
            assert!(
                u.queries_per_day >= 0.0 && u.queries_per_day.is_finite(),
                "query volume must be non-negative and finite, got {}",
                u.queries_per_day
            );
            let start = qpd.len() as u32;
            let share_w = u.weight / k as f64;
            if k == 1 {
                qpd.push(u.queries_per_day);
            } else {
                let share_q = u.queries_per_day / k as f64;
                for _ in 0..k {
                    let r = par::unit_f64(par::seed_for(seed, qpd.len() as u64));
                    qpd.push(share_q * (0.75 + 0.5 * r));
                }
            }
            // Member-order sums (the weight one sums the k equal shares,
            // not `share_w * k`, whose bits can differ), so the cohort
            // totals are deterministic and exactly the source values in
            // the count-1 case.
            let range = start as usize..qpd.len();
            cohorts.push(Cohort {
                asn: u.asn,
                src_idx: graph.idx(u.asn) as u32,
                location: u.location,
                start,
                end: qpd.len() as u32,
                weight: std::iter::repeat_n(share_w, k as usize).sum(),
                queries_per_day: qpd[range].iter().sum(),
            });
        }
        let n_cohorts = cohorts.len();
        let mut eng = Self {
            graph,
            base: deployment,
            model,
            mode,
            cohorts,
            queries_per_day: qpd,
            states: vec![None; n_cohorts],
            slice_users_total: 0,
            population_total: 0,
            cache: RouteCache::new(),
            clock: SimClock::new(),
            alive: vec![true; n_sites],
            lost_peerings: Vec::new(),
            catchment: None,
            init_record: None,
            capacities: None,
            drains: vec![None; n_sites],
            next_gen: 0,
            swap_set: Vec::new(),
            current_swap: 0,
            controller: None,
            ctrl_withheld: vec![Vec::new(); n_sites],
            demand_mult: vec![1.0; n_cohorts],
            load_ledger: LoadLedger::default(),
        };
        let mut rec = eng.reassign("init", true);
        rec.inflation_ms = rec.median_ms.map(|_| 0.0);
        eng.init_record = Some(rec);
        eng
    }

    /// Query volume per user per day, indexed by user id, with every
    /// pending [`RoutingEvent::DemandScale`] factor folded in first
    /// (cohort order, then member order). A surge epoch only scales
    /// the cohort rows; readers of per-user demand pay the O(members)
    /// fold here, exactly when they ask for it.
    pub fn queries_per_day(&mut self) -> &[f64] {
        for ci in 0..self.demand_mult.len() {
            let m = self.demand_mult[ci];
            if m != 1.0 {
                for q in &mut self.queries_per_day[self.cohorts[ci].range()] {
                    *q *= m;
                }
                self.demand_mult[ci] = 1.0;
            }
        }
        &self.queries_per_day
    }

    /// Attaches per-site load limits, turning every drain stage into a
    /// guarded step: a stage whose recompute would push any announced
    /// site past its capacity aborts the drain and rolls the
    /// escalation back instead of committing (the `drain-abort`
    /// epoch). Also populates `headroom_frac` on every epoch record,
    /// starting with the `"init"` one.
    ///
    /// # Panics
    ///
    /// Panics when `caps` does not cover every site of the deployment,
    /// or when a swap set is registered (swaps and capacities are
    /// mutually exclusive: the site count changes with the ring).
    pub fn with_capacities(mut self, caps: SiteCapacities) -> Self {
        assert!(
            self.swap_set.is_empty(),
            "deployment swaps do not support per-site capacities"
        );
        assert_eq!(
            caps.len(),
            self.base.sites.len(),
            "capacity table must cover every site"
        );
        self.capacities = Some(caps);
        let h = self.current_headroom();
        if let Some(rec) = self.init_record.as_mut() {
            rec.headroom_frac = h;
        }
        self
    }

    /// Registers the deployments this engine may swap between via
    /// [`RoutingEvent::RingPromote`] / [`RoutingEvent::RingDemote`]
    /// events. `current` indexes the entry the engine was constructed
    /// over. The entries are nested prefixes of one site list, as the
    /// CDN's rings are: site `i` is the same front-end in every entry
    /// that has it. From here on the engine routes over the widest
    /// entry, with the sites beyond the current ring not announcing, so
    /// a swap only changes which sites announce.
    ///
    /// # Panics
    ///
    /// Panics when `current` is out of range, when entry `current` is
    /// not the engine's own deployment handle, when an entry disagrees
    /// with the widest one on the host, scope or location (bit for
    /// bit) of a site id they share or on the withhold list, origin AS
    /// or direct hosts, or when per-site capacities are configured
    /// (swaps and capacities are mutually exclusive: the site count
    /// changes with the ring).
    pub fn with_swap_set(mut self, set: Vec<Arc<AnycastDeployment>>, current: usize) -> Self {
        assert!(current < set.len(), "current swap index {current} out of range");
        assert!(
            Arc::ptr_eq(&set[current], &self.base),
            "swap set entry {current} must be the engine's own deployment"
        );
        assert!(
            self.capacities.is_none(),
            "deployment swaps do not support per-site capacities"
        );
        let widest = set.iter().max_by_key(|d| d.sites.len()).expect("current is in range");
        let bits = |s: &AnycastSite| {
            (s.host, s.scope, s.location.lat().to_bits(), s.location.lon().to_bits())
        };
        fn announcement(d: &AnycastDeployment) -> (&[Asn], Option<Asn>, &[Asn]) {
            (&d.withhold, d.origin_as, &d.direct_hosts)
        }
        for (i, d) in set.iter().enumerate() {
            for (a, b) in d.sites.iter().zip(&widest.sites) {
                assert!(
                    bits(a) == bits(b),
                    "swap entries must be nested prefixes: entry {i} and {} disagree on {}",
                    widest.name,
                    a.id
                );
            }
            assert!(
                announcement(d) == announcement(widest),
                "swap entries must share one announcement: entry {i} and {} differ in \
                 withhold, origin AS or direct hosts",
                widest.name
            );
        }
        let n_sites = widest.sites.len();
        self.base = Arc::clone(widest);
        self.alive.resize(n_sites, false);
        self.drains.resize(n_sites, None);
        self.ctrl_withheld.resize(n_sites, Vec::new());
        self.swap_set = set;
        self.current_swap = current;
        self
    }

    /// Index of the currently effective swap-set entry (0 when no swap
    /// set is registered).
    pub fn current_swap(&self) -> usize {
        self.current_swap
    }

    /// Attaches a closed-loop load controller. After every epoch's
    /// routing events settle (and any drain-abort check has run — the
    /// controller always observes committed state), the engine runs up
    /// to [`LoadController::max_rounds`] observe → decide → apply
    /// rounds at the same `SimTime`: each round's shed/release actions
    /// land as per-neighbor session withholds merged with the drain
    /// withhold sets, followed by one incremental recompute recorded
    /// as its own timeline row. A round with no actions ends the loop.
    /// The `dynamics.load.*` counters ledger the run.
    ///
    /// [`loadmgmt::NullController`] never acts, so attaching it leaves
    /// every record byte-identical to no controller at all.
    ///
    /// # Panics
    ///
    /// Panics when no capacities are configured: a controller without
    /// [`DynamicsEngine::with_capacities`] has no overload signal
    /// (this also keeps controllers and deployment swaps mutually
    /// exclusive, since capacities already exclude swap sets).
    pub fn with_controller(mut self, controller: Box<dyn LoadController>) -> Self {
        assert!(
            self.capacities.is_some(),
            "a load controller needs with_capacities first (no overload signal without limits)"
        );
        self.controller = Some(controller);
        self
    }

    /// Swaps (or detaches) the load-control policy mid-run — the
    /// controller-churn primitive chaos storms exercise: operators do
    /// change shedding policy under fire, and the engine must stay
    /// consistent across the handover. The withhold sets a previous
    /// controller installed stay in force (the new policy observes and
    /// may release them); the `dynamics.load.*` ledger keeps accruing
    /// across the swap. Takes effect from the next epoch's controller
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics when attaching `Some` controller without capacities,
    /// exactly as [`DynamicsEngine::with_controller`] does.
    pub fn set_controller(&mut self, controller: Option<Box<dyn LoadController>>) {
        if controller.is_some() {
            assert!(
                self.capacities.is_some(),
                "a load controller needs with_capacities first (no overload signal without limits)"
            );
        }
        self.controller = controller;
    }

    /// The `dynamics.load.*` ledger of this run so far: weight shed
    /// and released by the attached controller, effective controller
    /// rounds, and overloaded-site time (accrued whenever capacities
    /// are configured, controller or not).
    pub fn load_ledger(&self) -> &LoadLedger {
        &self.load_ledger
    }

    /// The current per-user assignment — serving site, latency, and
    /// geographic path length, in user index order. The rollback
    /// oracle of the drain-abort tests: an aborted drain must leave
    /// this byte-identical to the pre-drain snapshot.
    pub fn user_snapshot(&self) -> Vec<(Option<SiteId>, f64, f64)> {
        let mut out = Vec::with_capacity(self.queries_per_day.len());
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            let row = st.map_or((None, 0.0, 0.0), |s| (Some(s.site), s.latency_ms, s.path_km));
            out.extend(std::iter::repeat_n(row, c.len() as usize));
        }
        out
    }

    /// The current serving state of every expansion cohort — member id
    /// range plus the shared site and RTT — as one owned vector.
    /// O(cohorts) regardless of the expanded population, and borrow-free,
    /// so streaming consumers can snapshot it before taking the
    /// [`DynamicsEngine::queries_per_day`] borrow for per-user demand.
    pub fn serving_cohorts(&self) -> Vec<ServingCohort> {
        self.cohorts
            .iter()
            .zip(&self.states)
            .map(|(c, st)| ServingCohort {
                start: c.range().start as u32,
                end: c.range().end as u32,
                site: st.map(|s| s.site),
                latency_ms: st.map_or(0.0, |s| s.latency_ms),
            })
            .collect()
    }

    /// Expanded population size (number of per-user rows).
    pub fn population(&self) -> usize {
        self.queries_per_day.len()
    }

    /// Number of expansion cohorts (distinct weighted sources).
    pub fn cohort_count(&self) -> usize {
        self.cohorts.len()
    }

    /// Running invalidation ledger: `(slice_users, population)` summed
    /// over every non-init recompute — how many users sat in cohorts
    /// whose stored group (or the unkeyed bucket) the invalidation
    /// rules opened for a check, vs how many a per-user scan would
    /// have walked. `slice_users < population` shows that groups the
    /// epoch did not touch were skipped.
    pub fn invalidation_ledger(&self) -> (u64, u64) {
        (self.slice_users_total, self.population_total)
    }

    /// The `"init"` steady-state epoch computed at construction.
    pub(crate) fn init_record(&self) -> &EpochRecord {
        self.init_record.as_ref().expect("set in new()")
    }

    /// Total user weight, summed in cohort order: the same bits as a
    /// fresh engine built at the current demand.
    fn total_weight(&self) -> f64 {
        self.cohorts.iter().map(|c| c.weight).sum()
    }

    /// The currently effective deployment: the swap-set entry last
    /// swapped to, or the deployment the engine was built over when no
    /// swap set is registered.
    pub fn deployment(&self) -> &AnycastDeployment {
        self.swap_set.get(self.current_swap).unwrap_or(&self.base)
    }

    /// Current user weight landing on each site, indexed by site id.
    /// Scenario builders use this to aim events at the hottest (or
    /// coldest) site deterministically.
    pub fn site_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.deployment().sites.len()];
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            if let Some(st) = st {
                loads[st.site.0 as usize] += c.weight;
            }
        }
        loads
    }

    /// Current user weight entering the deployment through each
    /// host-adjacent neighbor AS (the last interdomain session before
    /// the serving site), heaviest first, ties broken by ASN. A user
    /// counts only when its AS path enters the serving site's host from
    /// another AS: users inside a host AS carry no session, and neither
    /// do users on the origin-AS group's paths unless the site's host
    /// happens to be on the path. Scenario builders use this to aim
    /// peering events at sessions that actually carry traffic —
    /// withholding is per host neighbor, so only host-adjacent ASes are
    /// meaningful targets.
    pub fn transit_loads(&self) -> Vec<(Asn, f64)> {
        let mut loads: DetHashMap<Asn, f64> = DetHashMap::default();
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            if let Some(Served { via: Some(via), .. }) = st {
                *loads.entry(*via).or_default() += c.weight;
            }
        }
        let mut out: Vec<(Asn, f64)> = loads.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Entry-session loads per site in one cohort pass: element `s`
    /// lists the `(neighbor, weight)` sessions of the users site `s`
    /// currently serves, lightest first (ties by ASN). Load
    /// controllers, drain plans and scenario builders all shed in
    /// units of these sessions; users whose path does not enter the
    /// site's host from another AS (inside the host AS, or on an
    /// origin-AS group's path that misses it) carry none. Each site's
    /// sums accumulate in cohort order, and each served cohort has
    /// exactly one serving site, so the per-site lists partition
    /// [`DynamicsEngine::transit_loads`]. Cost is O(cohorts),
    /// independent of the expanded population.
    pub fn entry_sessions(&self) -> Vec<Vec<(Asn, f64)>> {
        let mut maps: Vec<DetHashMap<Asn, f64>> =
            vec![DetHashMap::default(); self.deployment().sites.len()];
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            if let Some(Served { site, via: Some(via), .. }) = st {
                *maps[site.0 as usize].entry(*via).or_default() += c.weight;
            }
        }
        maps.into_iter()
            .map(|m| {
                let mut v: Vec<(Asn, f64)> = m.into_iter().collect();
                v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                v
            })
            .collect()
    }

    /// Runs `scenario` to completion and returns the per-epoch time
    /// series, led by the `"init"` epoch. Every event sharing one
    /// `SimTime` lands in the same epoch: one batched apply, one
    /// incremental recompute, one record.
    ///
    /// Equivalent to driving an [`EpochStepper`] to exhaustion with no
    /// work between epochs — which is exactly how it is implemented, so
    /// a stepped run with an idle consumer is byte-identical to this.
    pub fn run(&mut self, scenario: &Scenario) -> Timeline {
        let span = obs::span!("dynamics.scenario", name = scenario.name.as_str());
        let mut stepper = EpochStepper::new(self, scenario);
        while stepper.step(self) {}
        let processed = stepper.events_processed();
        let timeline = stepper.finish(self);
        span.add_items(processed);
        timeline
    }
}
