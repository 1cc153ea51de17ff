//! The dynamics engine: apply a batched epoch of routing events,
//! recompute only what the epoch could have moved.
//!
//! [`DynamicsEngine`] drives one deployment through a [`Scenario`] on
//! `netsim`'s simulated clock. Every event sharing one `SimTime` is
//! applied as a *single epoch* (with defined precedence and
//! cancellation of opposing same-timestamp pairs — see
//! `docs/DYNAMICS.md` for the full table), then the engine rebuilds
//! the catchment over the *effective* deployment (surviving sites,
//! current prefix announcements, peering withholds, and per-site
//! drain withhold sets) — cheap thanks to [`RouteCache`] memoization —
//! and decides, per expansion *cohort* (the contiguous user-id range
//! fanned out from one weighted source — see [`crate::columnar`]),
//! whether the epoch could possibly have changed its BGP choice.
//! Candidate cohorts come from the inverted group index, not a
//! population scan; only challenged cohorts are re-ranked, and the
//! result is stored once, in the cohort's state row. Everybody else
//! reuses their stored assignment verbatim.
//!
//! # Why the reuse rule is sound
//!
//! Catchments are built from *origin groups* keyed `(host AS, scope)`;
//! each group's routes live behind an `Arc` memoized by the route
//! cache, so an unchanged group is recognizable by pointer identity
//! plus an identical hosted-site list plus an identical drain
//! footprint. Peering and withhold changes reach a group only through
//! that `Arc`: the cache keys a withhold list by its intersection with
//! the origin's own adjacency (`W ∩ adj(o)`, the only part
//! `routes_from_origin` can see), so a lost session hands new routes
//! only to the origins adjacent to it. The engine diffs successive
//! group sets and recomputes a user when, and only when:
//!
//! 1. the user's *winning* group was removed or changed — its routes,
//!    its hosted sites, or its sites' drain withhold sets are
//!    different, so anything about the stored assignment may be
//!    stale; or
//! 2. some added or changed group's new route at the user's source AS
//!    satisfies [`CandidateKey::challenged_by`] against the stored
//!    winning key — i.e. it beats or ties the winner on the
//!    geography-blind prefix of the BGP decision (class, path length)
//!    and could therefore take over once the early-exit tie-break
//!    runs; or
//! 3. the user was unserved and an added or changed group now has any
//!    route at their source.
//!
//! Everything else is provably unaffected: removing or weakening a
//! group the user did not choose cannot improve it, an unchanged
//! group ranks and materializes exactly as before, and a challenger
//! that loses on (class, length) loses outright because the early-exit
//! distance is only consulted on ties. Draining a site only *shrinks*
//! eligibility inside its own group, so it cannot attract users from
//! other groups; removing a drain re-attracts exactly the users whose
//! stored key the restored group challenges (it won against them
//! before, so it beats-or-ties them now).
//!
//! One refinement sharpens rule 1: a group whose *only* change is its
//! hosted-site list (routes `Arc` and drain footprint identical — the
//! shape of site up/down events and of deployment swaps between
//! nested rings) is diffed site-by-site instead of invalidated
//! wholesale. Its own users re-rank only when their stored site was
//! removed or an added site beats it on `materialize`'s
//! nearest-to-entry tie-break (each assignment stores its path's entry
//! point for exactly this comparison); removals never challenge other
//! groups (shrinking a group cannot improve it), additions challenge
//! through rule 2 as usual. Deployment swaps
//! ([`RoutingEvent::RingPromote`] and friends) re-key all per-site
//! state across a stable site-id remap before this diff runs, so a
//! nested-ring promotion reuses every assignment the new sites do not
//! beat. The extended argument, with the drain state machine, the
//! swap remap soundness proof, and worked examples, lives in
//! `docs/DYNAMICS.md`.

use crate::columnar::{Cohort, GroupIndex};
use crate::event::{EventQueue, RoutingEvent};
use crate::scenario::Scenario;
use crate::timeline::{weighted_median, EpochRecord, Timeline};
use analysis::SiteCapacities;
use geo::GeoPoint;
use loadmgmt::{LoadAction, LoadController, LoadObservation};
use netsim::{LastMile, LatencyModel, PathProfile, SimClock, SimTime};
use par::{DetHashMap, DetHashSet};
use std::sync::Arc;
use topology::{
    AnycastDeployment, AnycastSite, AsGraph, Asn, CandidateKey, Catchment, ExportScope,
    OriginRoutes, RouteCache, SiteDrain, SiteId,
};

/// Floor of the stylized BGP convergence model: even a tiny change
/// takes a couple of seconds to propagate.
const BASE_CONVERGENCE_MS: f64 = 2_000.0;
/// Slope of the convergence model: shifting the entire user base costs
/// an extra ~28 s of path exploration (order of the classic BGP
/// convergence measurements).
const SHIFT_CONVERGENCE_MS: f64 = 28_000.0;
const MS_PER_DAY: f64 = 86_400_000.0;

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

/// A cohort's current assignment, in *original* deployment site ids —
/// the rank-result type the re-rank step produces and the engine
/// stores once per cohort (every member of an expansion cohort shares
/// one `(source AS, location)` pair and therefore one assignment).
#[derive(Debug, Clone, Copy, PartialEq)]
struct UserState {
    site: Option<SiteId>,
    key: Option<CandidateKey>,
    /// The AS adjacent to the serving site's host on the current path —
    /// the neighbor that heard the host's announcement, i.e. the
    /// session a `PeeringDown` against that neighbor would sever.
    via: Option<Asn>,
    /// Entry point of the current path into the origin AS — the anchor
    /// of `materialize`'s nearest-site tie-break, stored so the
    /// site-diff rule can test whether an added site would beat the
    /// stored one without re-materializing the path.
    entry: Option<GeoPoint>,
    latency_ms: f64,
    path_km: f64,
}

const UNSERVED: UserState =
    UserState { site: None, key: None, via: None, entry: None, latency_ms: 0.0, path_km: 0.0 };

impl UserState {
    /// Exact equality, floats compared bit for bit.
    fn same_bits(&self, o: &UserState) -> bool {
        self.site == o.site
            && self.key == o.key
            && self.via == o.via
            && self.entry == o.entry
            && self.latency_ms.to_bits() == o.latency_ms.to_bits()
            && self.path_km.to_bits() == o.path_km.to_bits()
    }
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

/// One entry of the engine's deployment swap set: an alternative
/// deployment the engine may switch to mid-scenario via
/// [`RoutingEvent::RingPromote`] / [`RoutingEvent::RingDemote`] /
/// [`RoutingEvent::DeploymentSwap`], plus a stable *universe id* per
/// site. Universe ids identify one physical site across the whole set
/// (for nested CDN rings: the site's index in the largest ring, see
/// `cdn::Cdn::ring_universe`); a swap re-keys every piece of per-site
/// state through them.
#[derive(Debug, Clone)]
pub struct SwapDeployment {
    /// The deployment this entry swaps in.
    pub deployment: Arc<AnycastDeployment>,
    /// Universe id of each site, indexed by the deployment's site ids.
    /// Must be unique within the entry; ids shared across entries mark
    /// the same physical site.
    pub universe: Vec<u32>,
}

/// Snapshot of one origin group of the current catchment: the shared
/// route table and the hosted sites in original ids, sorted.
#[derive(Debug, Clone)]
struct GroupSnap {
    routes: Arc<OriginRoutes>,
    sites: Vec<SiteId>,
    /// Active drain footprint of the group's sites (original ids and
    /// withheld sessions, sorted by site): per-session eligibility
    /// state the routes `Arc` cannot see, so it must take part in the
    /// group diff.
    drains: Vec<(SiteId, Vec<Asn>)>,
}

/// A running load-aware drain: the *staged → holding* half of the
/// drain state machine (aborted and completed drains leave no state
/// behind). See `docs/DYNAMICS.md` for the full diagram.
#[derive(Debug, Clone)]
struct DrainState {
    site: SiteId,
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
    /// Currently withheld sessions (sorted; always a reordering of a
    /// prefix of `plan`).
    withheld: Vec<Asn>,
    /// The final stage has run: the site is down for its maintenance
    /// hold, awaiting its generation-stamped `DrainEnd`.
    holding: bool,
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

/// The planning half of one recompute: the new catchment, its origin
/// groups snapshotted in original site ids, and the affected-cohort
/// selection the group diff produced. Everything here is decided
/// before any assignment state is written — the seam between the
/// `plan → rank → commit` phases of [`DynamicsEngine::reassign`].
struct ReassignPlan<'g> {
    catchment: Option<Catchment<'g>>,
    dense_to_orig: Vec<SiteId>,
    new_groups: DetHashMap<(Asn, ExportScope), GroupSnap>,
    affected: Vec<u32>,
    slice_users: u64,
}

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
fn insert_sorted(v: &mut Vec<Asn>, a: Asn) {
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

/// Drives one deployment through scripted routing events, maintaining
/// every user's assignment incrementally.
///
/// An engine is single-shot: construct, optionally inspect the initial
/// steady state ([`DynamicsEngine::init_record`],
/// [`DynamicsEngine::site_loads`]), then [`DynamicsEngine::run`] one
/// scenario.
#[derive(Debug)]
pub struct DynamicsEngine<'g> {
    graph: &'g AsGraph,
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
    /// is served exactly as `states[c]` says. This table is the only
    /// copy; invalidation, apply, aggregates, load accumulation and
    /// the oracle all read and compare it, so an epoch's cost scales
    /// with cohorts, never with the expanded population.
    states: Vec<UserState>,
    /// Inverted index `(host, scope) → cohort ids` over the *stored*
    /// winning keys, maintained incrementally so epoch invalidation is
    /// slice iteration, not a full-population scan.
    index: GroupIndex,
    /// Cohorts whose site a deployment swap removed while their stored
    /// key survived — the rule-0 set, re-ranked unconditionally at the
    /// next recompute. Sorted; always cleared by `reassign`.
    orphans: Vec<u32>,
    /// Running totals behind `dynamics.invalidation.*`: users covered
    /// by index slices the invalidation actually visited, vs the
    /// population a per-user scan would have walked.
    slice_users_total: u64,
    population_total: u64,
    total_weight: f64,
    cache: RouteCache,
    clock: SimClock,
    /// Announcement state per original site id (`false` = down/drained).
    alive: Vec<bool>,
    /// Host ASes that currently withdraw the prefix entirely. Sorted.
    withdrawn_hosts: Vec<Asn>,
    /// Neighbor ASes the deployment currently has no sessions toward
    /// (merged into the effective withhold list). Sorted.
    lost_peerings: Vec<Asn>,
    /// Origin-group snapshot of the current catchment.
    groups: DetHashMap<(Asn, ExportScope), GroupSnap>,
    baseline_median_ms: Option<f64>,
    init_record: Option<EpochRecord>,
    /// Per-site load limits. `None` (the default) runs drains
    /// unguarded and leaves `headroom_frac` empty.
    capacities: Option<SiteCapacities>,
    /// Active drains, kept sorted by site id.
    drains: Vec<DrainState>,
    /// Generation stamp handed to the next drain, so stage and end
    /// events of dead drains are recognizably stale.
    next_gen: u64,
    /// Deployments the engine may swap between mid-scenario. Empty
    /// (the default) makes any swap event a hard error.
    swap_set: Vec<SwapDeployment>,
    /// Index of the currently effective swap-set entry.
    current_swap: usize,
    /// Attached closed-loop load controller (`None` — the default —
    /// reproduces today's behavior byte-for-byte).
    controller: Option<Box<dyn LoadController>>,
    /// Controller-withheld sessions per original site id, each sorted
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
    /// Serving site (original deployment id), or `None` while unserved.
    pub site: Option<SiteId>,
    /// Anycast RTT every member currently pays, ms (0 while unserved).
    pub latency_ms: f64,
}

/// A resumable run of one scenario: the exact epoch loop of
/// [`DynamicsEngine::run`], surrendered one epoch at a time so a
/// streaming consumer can interleave its own work — serving replayed
/// queries, say — between epochs while the engine's clock, overload
/// accrual, and controller rounds behave byte-identically to a plain
/// run.
///
/// Usage: [`EpochStepper::new`], then [`EpochStepper::step`] until it
/// returns `false` (peeking [`EpochStepper::next_time`] to schedule
/// work before each epoch applies), then [`EpochStepper::finish`] for
/// the [`Timeline`]. `run` itself is implemented as a stepper driven
/// with no between-epoch work, which is what pins the equivalence.
#[derive(Debug)]
pub struct EpochStepper {
    queue: EventQueue,
    timeline: Timeline,
    processed: u64,
}

impl EpochStepper {
    /// Starts a stepped run of `scenario` over `eng`. The timeline
    /// opens with the engine's `"init"` record, exactly as
    /// [`DynamicsEngine::run`] does.
    pub fn new(eng: &DynamicsEngine<'_>, scenario: &Scenario) -> Self {
        let mut timeline = Timeline::new(scenario.name.clone());
        timeline.records.push(eng.init_record().clone());
        Self {
            queue: EventQueue::from_events(scenario.events.iter().copied()),
            timeline,
            processed: 0,
        }
    }

    /// When the next epoch will fire, or `None` when the scenario (and
    /// every engine-scheduled follow-up) is exhausted. Between-epoch
    /// work scheduled strictly before this instant observes the state
    /// the epoch is about to change.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Applies the next epoch — every pending event at the next
    /// instant, as one batch — and appends its records to the
    /// timeline. Overloaded-site time accrues for the interval ending
    /// now (loads were constant since the last epoch closed) before
    /// the clock advances. Returns `false` (doing nothing) once the
    /// queue is exhausted.
    pub fn step(&mut self, eng: &mut DynamicsEngine<'_>) -> bool {
        let Some(first) = self.queue.pop() else { return false };
        // One epoch = every pending event at this exact instant.
        let mut batch = vec![first.event];
        while self
            .queue
            .next_time()
            .is_some_and(|t| t.as_ms().total_cmp(&first.at.as_ms()).is_eq())
        {
            batch.push(self.queue.pop().expect("peeked").event);
        }
        if eng.capacities.is_some() {
            let dt = first.at.as_ms() - eng.clock.now().as_ms();
            if dt > 0.0 {
                let (over, excess) = eng.overload_snapshot();
                if over > 0 {
                    eng.load_ledger.overload_site_ms += dt * over as f64;
                    eng.load_ledger.overload_user_ms += dt * excess;
                }
            }
        }
        eng.clock.advance_to(first.at);
        obs::counter_add("dynamics.events_processed", batch.len() as u64);
        self.processed += batch.len() as u64;
        self.timeline.records.extend(eng.epoch(&batch, &mut self.queue));
        obs::counter_add("dynamics.epochs", 1);
        true
    }

    /// Events applied so far (the scenario's plus engine-scheduled
    /// follow-ups).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Timeline records accumulated so far — the `"init"` record plus
    /// one or more per stepped epoch.
    pub fn records(&self) -> &[EpochRecord] {
        &self.timeline.records
    }

    /// Closes the run's ledgers (staged-drain and `dynamics.load.*`
    /// counters, exactly as [`DynamicsEngine::run`] emits them) and
    /// returns the timeline.
    pub fn finish(self, eng: &mut DynamicsEngine<'_>) -> Timeline {
        // Close the drain ledger: whatever is still draining when the
        // script runs out stays staged, so
        // `started = staged + aborted + completed` always balances.
        if !eng.drains.is_empty() {
            obs::counter_add("dynamics.drain.staged", eng.drains.len() as u64);
        }
        // Close the load ledger. Overload left standing after the last
        // event accrues nothing (there is no later instant to measure
        // to), which is why controller scenarios end with a restore
        // plus a trailing tick. Emitted only when a controller is
        // attached, so controller-less runs leave metrics untouched.
        if eng.controller.is_some() {
            obs::counter_add(
                "dynamics.load.shed_users",
                eng.load_ledger.shed_users.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.released_users",
                eng.load_ledger.released_users.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.overload_ms",
                eng.load_ledger.overload_site_ms.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.overload_user_ms",
                eng.load_ledger.overload_user_ms.round() as u64,
            );
            obs::counter_add(
                "dynamics.load.controller_rounds",
                eng.load_ledger.controller_rounds,
            );
        }
        self.timeline
    }
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
    /// Panics when `counts` does not cover `base` or any count is zero.
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
            let start = qpd.len() as u32;
            let share_w = u.weight / k as f64;
            if k == 1 {
                qpd.push(u.queries_per_day);
            } else {
                let share_q = u.queries_per_day / k as f64;
                for _ in 0..k {
                    let r =
                        (par::seed_for(seed, qpd.len() as u64) >> 11) as f64 / (1u64 << 53) as f64;
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
        let total_weight = cohorts.iter().map(|c| c.weight).sum();
        let n_cohorts = cohorts.len();
        let mut eng = Self {
            graph,
            base: deployment,
            model,
            mode,
            cohorts,
            queries_per_day: qpd,
            states: vec![UNSERVED; n_cohorts],
            index: GroupIndex::all_unkeyed(n_cohorts),
            orphans: Vec::new(),
            slice_users_total: 0,
            population_total: 0,
            total_weight,
            cache: RouteCache::new(),
            clock: SimClock::new(),
            alive: vec![true; n_sites],
            withdrawn_hosts: Vec::new(),
            lost_peerings: Vec::new(),
            groups: DetHashMap::default(),
            baseline_median_ms: None,
            init_record: None,
            capacities: None,
            drains: Vec::new(),
            next_gen: 0,
            swap_set: Vec::new(),
            current_swap: 0,
            controller: None,
            ctrl_withheld: vec![Vec::new(); n_sites],
            demand_mult: vec![1.0; n_cohorts],
            load_ledger: LoadLedger::default(),
        };
        let mut rec = eng.reassign("init", true);
        eng.baseline_median_ms = rec.median_ms;
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
    /// or when a swap set is registered (the capacity table is keyed
    /// by site id, which a deployment swap redefines).
    pub fn with_capacities(mut self, caps: SiteCapacities) -> Self {
        assert_eq!(
            caps.len(),
            self.base.sites.len(),
            "capacity table must cover every site"
        );
        assert!(
            self.swap_set.is_empty(),
            "deployment swaps do not support per-site capacities"
        );
        self.capacities = Some(caps);
        let h = self.current_headroom();
        if let Some(rec) = self.init_record.as_mut() {
            rec.headroom_frac = h;
        }
        self
    }

    /// Registers the deployments this engine may swap between via
    /// [`RoutingEvent::RingPromote`] / [`RoutingEvent::RingDemote`] /
    /// [`RoutingEvent::DeploymentSwap`] events. `current` indexes the
    /// entry the engine was constructed over. When a swap fires, every
    /// piece of per-site state — announcement flags, active drains,
    /// per-user assignments, the group snapshot — is re-keyed through
    /// the entries' shared universe ids (see [`SwapDeployment`]).
    ///
    /// # Panics
    ///
    /// Panics when `current` is out of range, when entry `current`'s
    /// deployment is not the engine's own handle, when a universe list
    /// does not cover its deployment's sites or repeats an id, or when
    /// per-site capacities are configured (swaps and capacities are
    /// mutually exclusive: the capacity table is keyed by site id).
    pub fn with_swap_set(mut self, set: Vec<SwapDeployment>, current: usize) -> Self {
        assert!(current < set.len(), "current swap index {current} out of range");
        assert!(
            Arc::ptr_eq(&set[current].deployment, &self.base),
            "swap set entry {current} must be the engine's own deployment"
        );
        assert!(
            self.capacities.is_none(),
            "deployment swaps do not support per-site capacities"
        );
        for (i, e) in set.iter().enumerate() {
            assert_eq!(
                e.universe.len(),
                e.deployment.sites.len(),
                "universe of swap entry {i} must cover its sites"
            );
            let mut uni = e.universe.clone();
            uni.sort_unstable();
            uni.dedup();
            assert_eq!(uni.len(), e.universe.len(), "universe ids of swap entry {i} must be unique");
        }
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

    /// The current per-user assignment — serving site (original id),
    /// latency, and geographic path length, in user index order. The
    /// rollback oracle of the drain-abort tests: an aborted drain must
    /// leave this byte-identical to the pre-drain snapshot.
    pub fn user_snapshot(&self) -> Vec<(Option<SiteId>, f64, f64)> {
        let mut out = Vec::with_capacity(self.queries_per_day.len());
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            for _ in c.range() {
                out.push((st.site, st.latency_ms, st.path_km));
            }
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
                site: st.site,
                latency_ms: st.latency_ms,
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
    /// over every non-init recompute — how many users sat in index
    /// slices the invalidation actually visited, vs how many a
    /// per-user scan would have walked. `slice_users < population`
    /// is the engine's proof of sub-linear epoch work.
    pub fn invalidation_ledger(&self) -> (u64, u64) {
        (self.slice_users_total, self.population_total)
    }

    /// The `"init"` steady-state epoch computed at construction.
    pub fn init_record(&self) -> &EpochRecord {
        self.init_record.as_ref().expect("set in new()")
    }

    /// Weighted median RTT of the initial steady state, ms.
    pub fn baseline_median_ms(&self) -> Option<f64> {
        self.baseline_median_ms
    }

    /// The base deployment the engine was built over.
    pub fn deployment(&self) -> &AnycastDeployment {
        &self.base
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Current user weight landing on each site, indexed by original
    /// site id. Scenario builders use this to aim events at the
    /// hottest (or coldest) site deterministically.
    pub fn site_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.base.sites.len()];
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            if let Some(s) = st.site {
                loads[s.0 as usize] += c.weight;
            }
        }
        loads
    }

    /// Current user weight entering the deployment through each
    /// host-adjacent neighbor AS (the last interdomain session before
    /// the serving site), heaviest first, ties broken by ASN. Users
    /// inside a host AS cross no such session and are not counted.
    /// Scenario builders use this to aim peering events at sessions
    /// that actually carry traffic — withholding is per host neighbor,
    /// so only host-adjacent ASes are meaningful targets.
    pub fn transit_loads(&self) -> Vec<(Asn, f64)> {
        let mut loads: DetHashMap<Asn, f64> = DetHashMap::default();
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            if let (Some(_), Some(via)) = (st.site, st.via) {
                *loads.entry(via).or_default() += c.weight;
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
    /// units of these sessions. Each site's sums accumulate in cohort
    /// order, and each served cohort has exactly one serving site, so
    /// the per-site lists partition [`DynamicsEngine::transit_loads`].
    /// Cost is O(cohorts), independent of the expanded population.
    pub fn entry_sessions(&self) -> Vec<Vec<(Asn, f64)>> {
        let mut maps: Vec<DetHashMap<Asn, f64>> =
            vec![DetHashMap::default(); self.base.sites.len()];
        for (c, st) in self.cohorts.iter().zip(&self.states) {
            if let (Some(s), Some(via)) = (st.site, st.via) {
                *maps[s.0 as usize].entry(via).or_default() += c.weight;
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

    /// Announced sites currently loaded past their capacity, and their
    /// total user weight above it.
    fn overload_snapshot(&self) -> (usize, f64) {
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

    /// Applies one same-timestamp batch, recomputes, and — when drains
    /// escalated under configured capacities — runs the post-stage
    /// load check, rolling the whole escalation back into a
    /// `drain-abort` record if any announced site would exceed its
    /// limit. Follow-up drain events are scheduled only on commit.
    /// With a controller attached, its decision rounds then run at the
    /// same `SimTime` against the committed state, each appending one
    /// more record — so an epoch yields one record plus zero or more
    /// `ctrl[…]` rounds.
    fn epoch(&mut self, batch: &[RoutingEvent], queue: &mut EventQueue) -> Vec<EpochRecord> {
        let BatchOutcome { labels, mut notes, escalated, followups } = self.apply_batch(batch);
        let label = labels.join(" + ");
        // Snapshot the assignment state only when an abort is
        // possible.
        let snap = (!escalated.is_empty() && self.capacities.is_some()).then(|| {
            (
                self.states.clone(),
                self.groups.clone(),
                self.index.clone(),
                self.orphans.clone(),
            )
        });
        let mut rec = self.reassign(&label, false);
        let mut committed = true;
        if let Some((states, groups, index, orphans)) = snap {
            let violation = {
                let caps = self.capacities.as_ref().expect("snapshot implies capacities");
                let loads = self.site_loads();
                caps.first_overloaded(&loads, self.announced_sites())
                    .map(|(site, load)| (site, load, caps.capacity(site)))
            };
            if let Some((site, load, cap)) = violation {
                // Roll back: restore the assignment state, cancel
                // every drain that escalated this epoch, and
                // recompute. The restored routing inputs equal the
                // pre-epoch ones, so the (deterministic) recompute
                // provably reproduces the pre-epoch assignment
                // byte-for-byte.
                self.states = states;
                self.groups = groups;
                self.index = index;
                self.orphans = orphans;
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

    /// Runs the attached controller's observe → decide → apply rounds
    /// for the epoch that just closed, appending one record per
    /// effective round. Decisions read only per-cohort aggregates
    /// (loads, entry sessions), so a round's cost is independent of
    /// the expanded population.
    fn controller_rounds(&mut self, records: &mut Vec<EpochRecord>) {
        let mut ctrl = self.controller.take().expect("caller checked");
        for _ in 0..ctrl.max_rounds().max(1) {
            let loads = self.site_loads();
            let sessions = self.entry_sessions();
            let mut announced = vec![false; self.base.sites.len()];
            for s in self.announced_sites() {
                announced[s.0 as usize] = true;
            }
            let actions = {
                let caps = self.capacities.as_ref().expect("with_controller requires capacities");
                ctrl.decide(&LoadObservation {
                    loads: &loads,
                    caps,
                    sessions: &sessions,
                    withheld: &self.ctrl_withheld,
                    announced: &announced,
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

    /// Mutates announcement and drain state for one batched epoch.
    ///
    /// Precedence inside a batch (each category sorted, duplicates
    /// collapsed): opposing same-target pairs cancel first (recorded
    /// no-op), then site downs, site ups, prefix withdrawals, prefix
    /// restores, peering downs, peering ups, drain ends, drain stages,
    /// drain starts, and finally deployment swaps (demotions, then
    /// promotions, then general swaps; when several survive, the last
    /// wins and the rest are recorded as superseded). Site events
    /// co-batched with a swap therefore use *pre-swap* ids. A
    /// `SiteDown` on a draining site aborts its drain (the site failed
    /// mid-maintenance); a `SiteUp` on one completes it early. Stale
    /// generation-stamped drain follow-ups are recorded no-ops — and
    /// follow-ups are matched by generation stamp *alone*, because a
    /// swap may have re-keyed (or removed) the site id a queued
    /// follow-up was scheduled under.
    fn apply_batch(&mut self, batch: &[RoutingEvent]) -> BatchOutcome {
        let n_sites = self.base.sites.len();
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
        let mut withdraws: Vec<Asn> = Vec::new();
        let mut restores: Vec<Asn> = Vec::new();
        let mut pdowns: Vec<Asn> = Vec::new();
        let mut pups: Vec<Asn> = Vec::new();
        let mut ends: Vec<(u64, SiteId)> = Vec::new();
        let mut stage_evs: Vec<(u64, SiteId)> = Vec::new();
        let mut starts: Vec<(SiteId, f64, u32, f64)> = Vec::new();
        let mut promotes: Vec<u32> = Vec::new();
        let mut demotes: Vec<u32> = Vec::new();
        let mut gswaps: Vec<u32> = Vec::new();
        let mut surges: Vec<(GeoPoint, f64, f64)> = Vec::new();
        let mut capscales: Vec<(SiteId, f64)> = Vec::new();
        let mut ticks = 0usize;
        for ev in batch {
            match *ev {
                RoutingEvent::SiteDown(s) => downs.push(check(s)),
                RoutingEvent::SiteUp(s) => ups.push(check(s)),
                RoutingEvent::PrefixWithdraw(a) => withdraws.push(a),
                RoutingEvent::PrefixRestore(a) => restores.push(a),
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
                RoutingEvent::DeploymentSwap { to } => gswaps.push(check_swap(to)),
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
        for v in [&mut withdraws, &mut restores, &mut pdowns, &mut pups] {
            v.sort_unstable();
            v.dedup();
        }
        ends.sort_unstable();
        ends.dedup_by_key(|e| e.0);
        stage_evs.sort_unstable();
        stage_evs.dedup_by_key(|e| e.0);
        starts.sort_by_key(|s| s.0);
        starts.dedup_by_key(|s| s.0);
        for v in [&mut promotes, &mut demotes, &mut gswaps] {
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
        for a in cancel_pairs(&mut withdraws, &mut restores) {
            out.labels.push(format!("prefix-flap {a}"));
            out.notes.push(format!("withdraw and restore of {a} cancel (no-op)"));
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
            // Full member-order resum, not `+= delta`: keeps the total
            // bit-identical to a fresh engine built at the new demand.
            self.total_weight = self.cohorts.iter().map(|c| c.weight).sum();
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
            if let Some(pos) = self.drains.iter().position(|d| d.site == s) {
                self.drains.remove(pos);
                obs::counter_add("dynamics.drain.aborted", 1);
                out.notes.push(format!("drain on {s} aborted: site failed"));
            }
            self.alive[s.0 as usize] = false;
            out.labels.push(format!("down {s}"));
        }
        for &s in &ups {
            if let Some(pos) = self.drains.iter().position(|d| d.site == s) {
                self.drains.remove(pos);
                obs::counter_add("dynamics.drain.completed", 1);
                out.notes.push(format!("drain on {s} closed by site-up"));
            }
            self.alive[s.0 as usize] = true;
            out.labels.push(format!("up {s}"));
        }
        for &a in &withdraws {
            insert_sorted(&mut self.withdrawn_hosts, a);
            out.labels.push(format!("withdraw {a}"));
        }
        for &a in &restores {
            remove_sorted(&mut self.withdrawn_hosts, a);
            out.labels.push(format!("restore {a}"));
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
            match self.drains.iter().position(|d| d.gen == gen && d.holding) {
                Some(pos) => {
                    let s = self.drains[pos].site;
                    out.labels.push(format!("drain-end {s}"));
                    self.drains.remove(pos);
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
            match self.drains.iter().position(|d| d.gen == gen && !d.holding) {
                Some(pos) => {
                    let s = self.drains[pos].site;
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
            } else if self.drains.iter().any(|d| d.site == s) {
                out.notes.push(format!("drain-start on already-draining {s} ignored"));
            } else {
                assert!(stages >= 1, "a drain needs at least one stage");
                assert!(stage_ms > 0.0 && hold_ms > 0.0, "drain timings must be positive");
                let gen = self.next_gen;
                self.next_gen += 1;
                let plan = self.drain_plan(s);
                let pos = self.drains.partition_point(|d| d.site < s);
                self.drains.insert(
                    pos,
                    DrainState {
                        site: s,
                        gen,
                        plan,
                        stages,
                        stage: 0,
                        stage_ms,
                        hold_ms,
                        withheld: Vec::new(),
                        holding: false,
                    },
                );
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
        // then promotes, then general swaps, each ascending) wins.
        for t in cancel_pairs(&mut promotes, &mut demotes) {
            let name = self.swap_name(t);
            out.labels.push(format!("ring-flap {name}"));
            out.notes.push(format!("promote and demote to {name} cancel (no-op)"));
        }
        let survivors: Vec<(&str, u32)> = demotes
            .iter()
            .map(|&t| ("demote", t))
            .chain(promotes.iter().map(|&t| ("promote", t)))
            .chain(gswaps.iter().map(|&t| ("swap", t)))
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

    /// Display name of swap-set entry `t`.
    fn swap_name(&self, t: u32) -> String {
        self.swap_set[t as usize].deployment.name.clone()
    }

    /// Replaces the effective deployment with swap-set entry `to`,
    /// re-keying every piece of per-site state — announcement flags,
    /// active drains, per-user assignments, and the group snapshot —
    /// across the universe-id site remap. A drain of a site that
    /// leaves the deployment is cancelled and ledgered as aborted; a
    /// user whose site leaves keeps the stored candidate key with
    /// `site: None`, the marker the group diff's rule 0 re-ranks.
    fn apply_swap(&mut self, to: usize, out: &mut BatchOutcome) {
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
        // site count — robust to mislabeled events and general swaps —
        // so `promotions + demotions = swap epochs` always balances.
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

    /// Advances `site`'s drain by one stage and returns the follow-up
    /// to schedule *if the epoch commits*: the next generation-stamped
    /// [`RoutingEvent::DrainStage`] for a partial stage, or the
    /// [`RoutingEvent::DrainEnd`] once the final stage withdraws the
    /// site for its maintenance hold.
    fn escalate(&mut self, site: SiteId) -> (SimTime, RoutingEvent) {
        let now = self.clock.now();
        let idx = self
            .drains
            .iter()
            .position(|d| d.site == site)
            .expect("escalating a live drain");
        let d = &mut self.drains[idx];
        d.stage += 1;
        if d.stage < d.stages {
            // Partial stage k of n: withhold the lightest
            // ceil(k·len/(n−1)) neighbor sessions, so the last partial
            // stage covers the whole plan and the final stage only
            // removes the remaining intra-host traffic.
            let len = d.plan.len();
            let div = (d.stages - 1) as usize;
            let cut = ((d.stage as usize * len) + div - 1) / div;
            d.withheld = d.plan[..cut.min(len)].to_vec();
            d.withheld.sort_unstable();
            (now.plus_ms(d.stage_ms), RoutingEvent::DrainStage { site, gen: d.gen })
        } else {
            d.withheld.clear();
            d.holding = true;
            let (gen, hold) = (d.gen, d.hold_ms);
            self.alive[site.0 as usize] = false;
            (now.plus_ms(hold), RoutingEvent::DrainEnd { site, gen })
        }
    }

    /// Cancels `site`'s drain outright: the withholds disappear and,
    /// if the final stage had already withdrawn the site, it
    /// re-announces.
    fn abort_drain(&mut self, site: SiteId) {
        if let Some(pos) = self.drains.iter().position(|d| d.site == site) {
            let d = self.drains.remove(pos);
            if d.holding {
                self.alive[site.0 as usize] = true;
            }
        }
    }

    /// The per-neighbor withhold plan for draining `site`: every AS
    /// adjacent to the site's host, ordered lightest current traffic
    /// first (ties by ASN) so early stages shift the smallest
    /// catchment slices. Load is measured at plan time from the users
    /// `site` currently serves through each entry session.
    fn drain_plan(&self, site: SiteId) -> Vec<Asn> {
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

    /// Sessions currently withheld at `site`: the drain withhold set
    /// and the controller withhold set merged (sorted, deduplicated).
    /// Both the effective deployment and the group-snapshot drain
    /// footprint go through this, so a controller withhold is as
    /// visible to the group-diff soundness argument as a drain stage.
    fn withheld_sessions(&self, site: SiteId) -> Vec<Asn> {
        let mut w: Vec<Asn> = self
            .drains
            .iter()
            .find(|d| d.site == site)
            .map(|d| d.withheld.clone())
            .unwrap_or_default();
        for &(a, _) in &self.ctrl_withheld[site.0 as usize] {
            insert_sorted(&mut w, a);
        }
        w
    }

    /// Original ids of the sites currently announced (alive and host
    /// not withdrawn) — the survivors a drain's load check protects.
    fn announced_sites(&self) -> Vec<SiteId> {
        self.base
            .sites
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                self.alive[*i] && self.withdrawn_hosts.binary_search(&s.host).is_err()
            })
            .map(|(_, s)| s.id)
            .collect()
    }

    /// Worst relative headroom across announced sites under the
    /// current loads, when capacities are configured.
    fn current_headroom(&self) -> Option<f64> {
        let caps = self.capacities.as_ref()?;
        caps.min_headroom_frac(&self.site_loads(), self.announced_sites())
    }

    /// The deployment as currently announced: alive sites of
    /// non-withdrawn hosts, re-id'd densely, with lost peerings merged
    /// into the withhold list. `None` when nothing is announced. The
    /// second element maps dense ids back to original ids.
    fn effective_deployment(&self) -> Option<(Arc<AnycastDeployment>, Vec<SiteId>)> {
        let mut sites: Vec<AnycastSite> = Vec::new();
        let mut orig: Vec<SiteId> = Vec::new();
        for (i, s) in self.base.sites.iter().enumerate() {
            if self.alive[i] && self.withdrawn_hosts.binary_search(&s.host).is_err() {
                orig.push(s.id);
                let mut s = s.clone();
                s.id = SiteId(sites.len() as u32);
                sites.push(s);
            }
        }
        if sites.is_empty() {
            return None;
        }
        let mut withhold = self.base.withhold.clone();
        withhold.extend(self.lost_peerings.iter().copied());
        withhold.sort_unstable();
        withhold.dedup();
        let mut dep = AnycastDeployment::new(self.base.name.clone(), sites, withhold);
        dep.origin_as = self.base.origin_as;
        dep.direct_hosts = self.base.direct_hosts.clone();
        // Active withhold sets — partial drains merged with controller
        // sheds — translated to dense ids (`orig` is ascending).
        // Holding drains have no withheld set: their site is simply
        // absent.
        for (dense, &s) in orig.iter().enumerate() {
            let withheld = self.withheld_sessions(s);
            if withheld.is_empty() {
                continue;
            }
            dep.site_drains.push(SiteDrain { site: SiteId(dense as u32), withheld });
        }
        Some((Arc::new(dep), orig))
    }

    /// Recomputes the catchment over the effective deployment, re-ranks
    /// the affected users (all of them under [`RecomputeMode::Full`] or
    /// at init), and closes the epoch. Composed from the three phases —
    /// [`DynamicsEngine::plan_reassign`] (catchment + group diff +
    /// invalidation selection), [`DynamicsEngine::rank_plan`] (the
    /// parallel re-rank), and [`DynamicsEngine::commit_plan`] (state
    /// writes, counters, and the record) — run back to back.
    fn reassign(&mut self, label: &str, is_init: bool) -> EpochRecord {
        let plan = self.plan_reassign(is_init);
        let results = self.rank_plan(&plan);
        self.commit_plan(plan, &results, label, is_init)
    }

    /// Phase 1 of a recompute: the new catchment over the effective
    /// deployment, its origin-group snapshot in original site ids, and
    /// the affected-cohort selection (the group diff and invalidation
    /// rules 0–3). Mutates only the route cache; every assignment
    /// write waits for [`DynamicsEngine::commit_plan`].
    fn plan_reassign(&mut self, is_init: bool) -> ReassignPlan<'g> {
        let population = self.queries_per_day.len();
        // New catchment over whatever is still announced.
        let (catchment, dense_to_orig) = match self.effective_deployment() {
            Some((dep, orig)) => {
                (Some(Catchment::compute_shared(self.graph, dep, &mut self.cache)), orig)
            }
            None => (None, Vec::new()),
        };
        // Snapshot its origin groups in original site ids.
        let mut new_groups: DetHashMap<(Asn, ExportScope), GroupSnap> = DetHashMap::default();
        if let Some(c) = &catchment {
            for (host, scope) in c.group_keys() {
                let routes = c.group_routes(host, scope).expect("listed group");
                let mut sites: Vec<SiteId> = c
                    .group_sites(host, scope)
                    .expect("listed group")
                    .iter()
                    .map(|s| dense_to_orig[s.0 as usize])
                    .collect();
                sites.sort_unstable();
                let drains: Vec<(SiteId, Vec<Asn>)> = sites
                    .iter()
                    .filter_map(|s| {
                        let w = self.withheld_sessions(*s);
                        (!w.is_empty()).then_some((*s, w))
                    })
                    .collect();
                new_groups.insert((host, scope), GroupSnap { routes, sites, drains });
            }
        }

        // Who must be re-ranked? Selection walks the *group index*,
        // not the population: cohorts of a group the epoch provably
        // did not touch are skipped without visiting their slices, so
        // `slice_users` — the user count under slices actually
        // visited — is the honest measure of invalidation work.
        let n_cohorts = self.cohorts.len();
        let mut slice_users = 0u64;
        let affected: Vec<u32> = if is_init || self.mode == RecomputeMode::Full {
            slice_users = population as u64;
            (0..n_cohorts as u32).collect()
        } else {
            // Diff the group sets. A group whose routes Arc, hosted
            // sites, and drain footprint all survived unchanged ranks
            // and materializes exactly as before. A group whose ONLY
            // change is its hosted-site list (the site up/down and
            // deployment-swap shape) is diffed site-by-site: its own
            // users re-rank only when their stored site was removed or
            // an added site beats it on `materialize`'s
            // nearest-to-entry tie-break, and it challenges other
            // groups' users only when sites were added (shrinking a
            // group cannot improve it). Everything else invalidates
            // its own users wholesale and may challenge others.
            let mut invalidated: DetHashSet<(Asn, ExportScope)> = DetHashSet::default();
            let mut site_diffed: DetHashMap<(Asn, ExportScope), (Vec<SiteId>, Vec<SiteId>)> =
                DetHashMap::default();
            let mut challengers: Vec<((Asn, ExportScope), Arc<OriginRoutes>)> = Vec::new();
            for (k, old) in &self.groups {
                match new_groups.get(k) {
                    None => {
                        invalidated.insert(*k);
                    }
                    Some(new) => {
                        if Arc::ptr_eq(&old.routes, &new.routes) && old.drains == new.drains {
                            if old.sites != new.sites {
                                let added: Vec<SiteId> = new
                                    .sites
                                    .iter()
                                    .copied()
                                    .filter(|s| old.sites.binary_search(s).is_err())
                                    .collect();
                                let removed: Vec<SiteId> = old
                                    .sites
                                    .iter()
                                    .copied()
                                    .filter(|s| new.sites.binary_search(s).is_err())
                                    .collect();
                                if !added.is_empty() {
                                    challengers.push((*k, Arc::clone(&new.routes)));
                                }
                                site_diffed.insert(*k, (added, removed));
                            }
                        } else {
                            invalidated.insert(*k);
                            challengers.push((*k, Arc::clone(&new.routes)));
                        }
                    }
                }
            }
            for (k, new) in &new_groups {
                if !self.groups.contains_key(k) {
                    challengers.push((*k, Arc::clone(&new.routes)));
                }
            }
            let base = &self.base;
            let mut out: Vec<u32> = Vec::new();
            // Rule 0: a stored key with no site only arises when a
            // swap removed the cohort's site — nothing else would
            // re-rank them. The swap recorded exactly those cohorts.
            for &c in &self.orphans {
                slice_users += u64::from(self.cohorts[c as usize].len());
                out.push(c);
            }
            // Rule 3: unserved cohorts re-rank when an added or
            // changed group now has any route at their source. With no
            // challengers the bucket is provably untouched and its
            // slices are never visited.
            if !challengers.is_empty() {
                for &c in &self.index.unkeyed {
                    let cohort = &self.cohorts[c as usize];
                    slice_users += u64::from(cohort.len());
                    let src = cohort.src_idx as usize;
                    if challengers.iter().any(|(_, r)| r.route_at(src).is_some()) {
                        out.push(c);
                    }
                }
            }
            // Rules 1 and 2, per *stored-key group slice*: a group
            // that is not invalidated, not site-diffed, and challenged
            // by nobody else is skipped wholesale — this is where
            // epoch cost decouples from population.
            for (gk, members) in &self.index.groups {
                let inv = invalidated.contains(gk);
                let sd = site_diffed.get(gk);
                let challenged = challengers.iter().any(|(ck, _)| ck != gk);
                if !inv && sd.is_none() && !challenged {
                    continue;
                }
                for &c in members {
                    // A swap-orphaned cohort keeps its stored key, so
                    // it still sits in this slice; rule 0 already
                    // collected (and counted) it.
                    if self.orphans.binary_search(&c).is_ok() {
                        continue;
                    }
                    let cohort = &self.cohorts[c as usize];
                    slice_users += u64::from(cohort.len());
                    let st = &self.states[c as usize];
                    let key = st.key.expect("keyed slice member");
                    let Some(s) = st.site.filter(|_| !inv) else {
                        out.push(c);
                        continue;
                    };
                    if let Some((added, removed)) = sd {
                        if removed.binary_search(&s).is_ok() {
                            out.push(c);
                            continue;
                        }
                        // An added site takes over exactly when it
                        // beats the stored one on (distance to the
                        // stored entry point, site id) —
                        // `materialize`'s tie-break. Comparing
                        // original ids is order-isomorphic to the
                        // dense comparison because dense re-ids
                        // preserve ascending order.
                        let e = st.entry.expect("served member has an entry");
                        let ds = base.sites[s.0 as usize].location.distance_km(&e);
                        if added.iter().any(|&a| {
                            let da = base.sites[a.0 as usize].location.distance_km(&e);
                            da < ds || (da == ds && a < s)
                        }) {
                            out.push(c);
                            continue;
                        }
                    }
                    // The cohort's own group never challenges its own
                    // members here: the site-diff rule above already
                    // decided for them.
                    let src = cohort.src_idx as usize;
                    if challengers.iter().any(|(ck, r)| {
                        *ck != *gk
                            && r.route_at(src)
                                .is_some_and(|nr| key.challenged_by(nr.class, nr.path_len))
                    }) {
                        out.push(c);
                    }
                }
            }
            // The three sources are disjoint; the sort restores the
            // ascending cohort order every downstream accumulation
            // (and therefore byte-level determinism) depends on.
            out.sort_unstable();
            out.dedup();
            out
        };
        ReassignPlan { catchment, dense_to_orig, new_groups, affected, slice_users }
    }

    /// Phase 2 of a recompute: re-rank the planned cohorts on the
    /// deterministic parallel layer; index order of `plan.affected`
    /// fixes the merge order. One BGP decision per cohort serves every
    /// member: the decision sees only `(source AS, location)`, which
    /// members share. Reads the engine immutably.
    fn rank_plan(&self, plan: &ReassignPlan<'_>) -> Vec<Option<UserState>> {
        let cohorts = &self.cohorts;
        let model = &self.model;
        let dense_to_orig = &plan.dense_to_orig;
        let affected = &plan.affected;
        match &plan.catchment {
            Some(c) => par::ordered_map(affected, |_, &ci| {
                let u = &cohorts[ci as usize];
                c.assign_with_key(u.asn, &u.location).map(|(a, key)| {
                    let ms = model
                        .median_rtt_ms(&PathProfile::from_assignment(&a, LastMile::Broadband));
                    // The withhold-relevant session: the AS the host
                    // announced to on this path (the hop right before
                    // the host; None when the user sits inside it).
                    let host = c.deployment().site(a.site).host;
                    let via = a
                        .as_path
                        .iter()
                        .position(|&n| n == host)
                        .and_then(|p| p.checked_sub(1))
                        .map(|p| a.as_path[p]);
                    UserState {
                        site: Some(dense_to_orig[a.site.0 as usize]),
                        key: Some(key),
                        via,
                        entry: Some(a.entry),
                        latency_ms: ms,
                        path_km: a.path_km,
                    }
                })
            }),
            None => vec![None; affected.len()],
        }
    }

    /// Phase 3 of a recompute: store each rank result in the per-cohort
    /// state table, re-home each cohort in the group index, adopt the
    /// new group snapshot, emit the recompute counters, and build the
    /// epoch's record from the committed state.
    fn commit_plan(
        &mut self,
        plan: ReassignPlan<'_>,
        results: &[Option<UserState>],
        label: &str,
        is_init: bool,
    ) -> EpochRecord {
        let ReassignPlan { new_groups, affected, slice_users, .. } = plan;
        let population = self.queries_per_day.len();
        let mut shifted = 0.0;
        let mut shifted_qpd = 0.0;
        for (&ci, &res) in affected.iter().zip(results) {
            let cohort = self.cohorts[ci as usize];
            let old = self.states[ci as usize];
            let new = res.unwrap_or(UNSERVED);
            if !is_init && new.site != old.site {
                shifted += cohort.weight;
                shifted_qpd += cohort.queries_per_day;
            }
            self.index.move_cohort(ci, old.key.map(|k| k.group()), new.key.map(|k| k.group()));
            self.states[ci as usize] = new;
        }
        self.groups = new_groups;
        self.orphans.clear();

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
        states: &[UserState],
        label: &str,
        shifted: f64,
        shifted_qpd: f64,
        recomputed: u64,
    ) -> EpochRecord {
        let mut latency_pts = Vec::new();
        let mut served_w = 0.0;
        let mut path_sum = 0.0;
        for (c, st) in self.cohorts.iter().zip(states) {
            if st.site.is_some() {
                served_w += c.weight;
                path_sum += st.path_km * c.weight;
                latency_pts.push((st.latency_ms, c.weight));
            }
        }
        let median_ms = weighted_median(&mut latency_pts);
        let frac = |w: f64| if self.total_weight > 0.0 { w / self.total_weight } else { 0.0 };
        let shifted_frac = frac(shifted);
        let convergence_ms = if shifted > 0.0 {
            BASE_CONVERGENCE_MS + SHIFT_CONVERGENCE_MS * shifted_frac
        } else {
            0.0
        };
        EpochRecord {
            t_ms: self.clock.now().as_ms(),
            event: label.to_string(),
            shifted,
            shifted_frac,
            unserved_frac: (1.0 - frac(served_w)).max(0.0),
            median_ms,
            inflation_ms: match (median_ms, self.baseline_median_ms) {
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
        let fresh: Vec<UserState> =
            self.rank_plan(&plan).into_iter().map(|r| r.unwrap_or(UNSERVED)).collect();
        let mut out = Vec::new();
        // One cohort is evidence enough; don't flood.
        if let Some(c) = (0..fresh.len()).find(|&c| !self.states[c].same_bits(&fresh[c])) {
            let (a, b) = (&self.states[c], &fresh[c]);
            let cohort = &self.cohorts[c];
            out.push(RecomputeMismatch {
                kind: MismatchKind::State,
                detail: format!(
                    "cohort [{}, {}) stores {:?}@{} ms via {:?} but a full re-rank gives \
                     {:?}@{} ms via {:?}",
                    cohort.start, cohort.end, a.site, a.latency_ms, a.via, b.site,
                    b.latency_ms, b.via
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
    #[doc(hidden)]
    pub fn corrupt_cohort_state_for_test(&mut self, cohort: usize) {
        let st = &mut self.states[cohort];
        st.latency_ms = f64::from_bits(st.latency_ms.to_bits() ^ 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{InternetGenerator, SiteScope, TopologyConfig};

    fn world(n_sites: usize) -> (topology::gen::Internet, Arc<AnycastDeployment>, Vec<DynUser>) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(111));
        let hosts = net.sample_hosters(n_sites);
        let sites: Vec<AnycastSite> = hosts
            .iter()
            .enumerate()
            .map(|(i, h)| AnycastSite {
                id: SiteId(i as u32),
                name: format!("s{i}"),
                host: *h,
                location: net.graph.node(*h).pops[0],
                scope: SiteScope::Global,
            })
            .collect();
        let dep = AnycastDeployment::new("dyn-test", sites, vec![]);
        let users: Vec<DynUser> = net
            .user_locations()
            .iter()
            .map(|l| DynUser {
                asn: l.asn,
                location: net.world.region(l.region).center,
                weight: 1.0,
                queries_per_day: 1_000.0,
            })
            .collect();
        (net, Arc::new(dep), users)
    }

    fn engine<'g>(
        net: &'g topology::gen::Internet,
        dep: &Arc<AnycastDeployment>,
        users: &[DynUser],
        mode: RecomputeMode,
    ) -> DynamicsEngine<'g> {
        DynamicsEngine::new(
            &net.graph,
            Arc::clone(dep),
            LatencyModel::default(),
            users.to_vec(),
            mode,
        )
    }

    fn hottest_site(e: &DynamicsEngine<'_>) -> SiteId {
        let loads = e.site_loads();
        let i = loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        SiteId(i as u32)
    }

    /// The incremental path must match the full-recompute oracle on
    /// every metric of every epoch, while provably reusing work.
    #[test]
    fn incremental_matches_full_recompute() {
        let (net, dep, users) = world(4);
        let mut inc = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let mut full = engine(&net, &dep, &users, RecomputeMode::Full);
        let target = hottest_site(&inc);
        let scenario =
            Scenario::site_flap("flap", target, SimTime::from_secs(60.0), 600_000.0, 3, 30_000.0, 7);
        let ti = inc.run(&scenario);
        let tf = full.run(&scenario);
        assert_eq!(ti.records.len(), tf.records.len());
        for (a, b) in ti.records.iter().zip(&tf.records) {
            assert_eq!(a.t_ms, b.t_ms);
            assert_eq!(a.event, b.event);
            assert_eq!(a.shifted, b.shifted, "at {}", a.event);
            assert_eq!(a.unserved_frac, b.unserved_frac, "at {}", a.event);
            assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
            assert_eq!(a.mean_path_km, b.mean_path_km, "at {}", a.event);
            assert_eq!(a.convergence_ms, b.convergence_ms, "at {}", a.event);
            assert_eq!(a.degraded_queries, b.degraded_queries, "at {}", a.event);
            assert_eq!(a.note, b.note, "at {}", a.event);
        }
        let (inc_rc, inc_ru) = ti.recompute_totals();
        let (full_rc, full_ru) = tf.recompute_totals();
        assert_eq!(full_ru, 0, "the oracle reuses nothing");
        assert!(inc_ru > 0, "the incremental path must reuse some assignments");
        assert!(inc_rc < full_rc, "incremental {inc_rc} must beat full {full_rc}");
        // The flap moved somebody, both ways.
        assert!(ti.max_shifted_frac() > 0.0);
    }

    /// A capacity dip moves no users (announcements are untouched) but
    /// must show up in the headroom ledger, and the reciprocal restore
    /// must land headroom back where it started.
    #[test]
    fn capacity_scale_changes_headroom_not_assignments() {
        let (net, dep, users) = world(4);
        let total: f64 = users.iter().map(|u| u.weight).sum();
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(SiteCapacities::uniform(dep.sites.len(), total));
        let target = hottest_site(&e);
        let before = e.user_snapshot();
        let init_headroom = e.init_record().headroom_frac.unwrap();
        let s = Scenario::capacity_dip("dip", target, SimTime::from_secs(10.0), 0.25, 60_000.0);
        let t = e.run(&s);
        assert_eq!(t.records.len(), 3);
        let dip = &t.records[1];
        assert_eq!(dip.event, format!("cap {target} x0.25"));
        assert_eq!(dip.shifted, 0.0, "capacity moves no announcements");
        assert!(
            dip.headroom_frac.unwrap() < init_headroom,
            "shrinking the hottest site's capacity must shrink worst headroom"
        );
        let back = t.records.last().unwrap();
        assert!(
            (back.headroom_frac.unwrap() - init_headroom).abs() < 1e-9,
            "reciprocal restore lands headroom back"
        );
        assert_eq!(e.user_snapshot(), before, "assignments untouched throughout");
    }

    /// Without a capacity table the event has nothing to scale: it must
    /// be a recorded no-op, not a panic or a silent drop.
    #[test]
    fn capacity_scale_without_capacities_is_recorded_noop() {
        let (net, dep, users) = world(3);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let before = e.user_snapshot();
        let s = Scenario::new("nocaps").at(
            SimTime::from_secs(5.0),
            RoutingEvent::CapacityScale { site: SiteId(0), factor: 0.5 },
        );
        let t = e.run(&s);
        let r = &t.records[1];
        assert_eq!(r.event, "cap site-0 x0.50");
        assert!(r.note.contains("ignored"), "the no-op must be recorded: {}", r.note);
        assert_eq!(e.user_snapshot(), before);
    }

    /// Swapping the policy mid-run keeps the run consistent: the second
    /// half runs under the new controller and the ledger keeps
    /// accruing. Swapping NullController in must leave decisions off.
    #[test]
    fn set_controller_swaps_policy_mid_run() {
        let (net, dep, users) = world(4);
        let total: f64 = users.iter().map(|u| u.weight).sum();
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(SiteCapacities::uniform(dep.sites.len(), total * 0.40))
            .with_controller(Box::new(loadmgmt::NullController));
        let target = hottest_site(&e);
        let scenario = Scenario::site_flap(
            "ctl-swap",
            target,
            SimTime::from_secs(30.0),
            120_000.0,
            1,
            0.0,
            3,
        )
        .ticks(SimTime::from_secs(200.0), 30_000.0, 4);
        let mut stepper = EpochStepper::new(&e, &scenario);
        // Run the flap under Null, then hand over to the distributed
        // policy for the tick tail.
        let mut stepped = 0;
        while stepper.next_time().is_some_and(|t| t.as_secs() < 200.0) {
            assert!(stepper.step(&mut e));
            stepped += 1;
        }
        assert!(stepped >= 2, "the flap must have applied under Null");
        let rounds_before = e.load_ledger().controller_rounds;
        assert_eq!(rounds_before, 0, "NullController never acts");
        e.set_controller(Some(Box::new(loadmgmt::HysteresisController::new(0.8))));
        while stepper.step(&mut e) {}
        let t = stepper.finish(&mut e);
        assert!(t.records.len() >= 7);
        // The handover itself must not corrupt determinism: a second
        // identical run produces identical rows.
        let mut e2 = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(SiteCapacities::uniform(dep.sites.len(), total * 0.40))
            .with_controller(Box::new(loadmgmt::NullController));
        let mut st2 = EpochStepper::new(&e2, &scenario);
        while st2.next_time().is_some_and(|t| t.as_secs() < 200.0) {
            st2.step(&mut e2);
        }
        e2.set_controller(Some(Box::new(loadmgmt::HysteresisController::new(0.8))));
        while st2.step(&mut e2) {}
        assert_eq!(st2.finish(&mut e2).rows(), t.rows());
    }

    #[test]
    #[should_panic(expected = "with_capacities")]
    fn set_controller_without_capacities_panics() {
        let (net, dep, users) = world(3);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        e.set_controller(Some(Box::new(loadmgmt::NullController)));
    }

    #[test]
    fn flap_recovers_to_initial_state() {
        let (net, dep, users) = world(4);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let target = hottest_site(&e);
        let init_median = e.init_record().median_ms;
        let scenario =
            Scenario::site_flap("flap", target, SimTime::from_secs(10.0), 120_000.0, 1, 0.0, 3);
        let t = e.run(&scenario);
        // init, down, up.
        assert_eq!(t.records.len(), 3);
        let down = &t.records[1];
        assert!(down.shifted > 0.0, "the hottest site's users must move");
        let up = &t.records[2];
        assert_eq!(up.median_ms, init_median, "recovery restores the steady state");
        assert_eq!(up.unserved_frac, t.records[0].unserved_frac);
    }

    #[test]
    fn drain_schedules_its_own_end() {
        // stages = 1 degenerates to the old binary drain: start downs
        // the site immediately, end restores it hold_ms later.
        let (net, dep, users) = world(3);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let sites: Vec<SiteId> = (0..3).map(SiteId).collect();
        let scenario = Scenario::rolling_drain(
            "mnt",
            &sites,
            SimTime::from_secs(5.0),
            10_000.0,
            1,
            60_000.0,
            90_000.0,
        );
        let t = e.run(&scenario);
        // init + 3 starts + 3 ends.
        assert_eq!(t.records.len(), 7);
        assert_eq!(t.records.iter().filter(|r| r.event.starts_with("drain-end")).count(), 3);
        let last = t.records.last().unwrap();
        assert_eq!(last.unserved_frac, t.records[0].unserved_frac, "drains all end");
        // Staggered one-at-a-time: never more than one site down, so
        // nothing is ever unserved beyond the steady state.
        assert!(t.records.iter().all(|r| r.unserved_frac <= t.records[0].unserved_frac + 1e-12));
    }

    #[test]
    fn killing_every_site_unserves_everyone_then_recovers() {
        // Three simultaneous failures form exactly ONE batched epoch.
        let (net, dep, users) = world(3);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let mut s = Scenario::new("blackout");
        for i in 0..3 {
            s = s.at(SimTime::from_secs(1.0), RoutingEvent::SiteDown(SiteId(i)));
        }
        s = s.at(SimTime::from_secs(2.0), RoutingEvent::SiteUp(SiteId(0)));
        let t = e.run(&s);
        // init + one batched blackout epoch + recovery.
        assert_eq!(t.records.len(), 3);
        let dark = &t.records[1];
        assert_eq!(dark.unserved_frac, 1.0);
        assert_eq!(dark.median_ms, None);
        assert_eq!(dark.event, "down site-0 + down site-1 + down site-2");
        let back = t.records.last().unwrap();
        assert!(back.unserved_frac < 1.0, "one site back must serve somebody");
        assert!(back.median_ms.is_some());
    }

    #[test]
    fn prefix_withdraw_matches_site_down_for_same_host() {
        let (net, dep, users) = world(4);
        // Withdrawing a host's prefix must equal downing all its sites.
        let host = dep.sites[0].host;
        let hosted: Vec<SiteId> =
            dep.sites.iter().filter(|s| s.host == host).map(|s| s.id).collect();
        let mut by_withdraw = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let mut by_down = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let t1 = by_withdraw.run(
            &Scenario::new("w").at(SimTime::from_secs(1.0), RoutingEvent::PrefixWithdraw(host)),
        );
        let mut s = Scenario::new("d");
        for &site in &hosted {
            s = s.at(SimTime::from_secs(1.0), RoutingEvent::SiteDown(site));
        }
        let t2 = by_down.run(&s);
        let a = t1.records.last().unwrap();
        let b = t2.records.last().unwrap();
        assert_eq!(a.median_ms, b.median_ms);
        assert_eq!(a.unserved_frac, b.unserved_frac);
        assert_eq!(a.mean_path_km, b.mean_path_km);
    }

    #[test]
    fn peering_loss_is_applied_and_restored() {
        let (net, dep, users) = world(4);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let init_median = e.init_record().median_ms;
        // Losing sessions toward a heavy transit AS must not corrupt
        // state: after restore we are exactly at the steady state.
        let neighbor = net.graph.node_at(0).asn;
        let t = e.run(&Scenario::peering_flap("pf", neighbor, SimTime::from_secs(1.0), 60_000.0));
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.records[2].median_ms, init_median);
    }

    /// Losing the session toward a neighbor of one host changes only
    /// that host's routes (the route cache keys withholds by the
    /// origin's own adjacency), so the epoch re-ranks a slice of the
    /// population — and still matches the full-recompute oracle.
    #[test]
    fn peering_loss_reuses_groups_not_adjacent_to_the_neighbor() {
        let (net, dep, users) = world(4);
        let g = &net.graph;
        let hosts: Vec<usize> = dep.sites.iter().map(|s| g.idx(s.host)).collect();
        let neighbor = g
            .adjacency(hosts[0])
            .iter()
            .map(|a| a.neighbor)
            .find(|&n| {
                !hosts.contains(&n)
                    && hosts[1..].iter().all(|&h| g.adjacency(h).iter().all(|a| a.neighbor != n))
            })
            .map(|n| g.node_at(n).asn)
            .expect("site 0's host has a neighbor no other host touches");
        let scenario = Scenario::peering_flap("pf", neighbor, SimTime::from_secs(1.0), 60_000.0);
        let mut inc = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let mut full = engine(&net, &dep, &users, RecomputeMode::Full);
        let population = inc.population() as u64;
        let (ti, tf) = (inc.run(&scenario), full.run(&scenario));
        assert_eq!(ti.records.len(), tf.records.len());
        for (a, b) in ti.records.iter().zip(&tf.records) {
            assert_eq!(a.event, b.event);
            assert_eq!(a.shifted, b.shifted, "at {}", a.event);
            assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
            assert_eq!(a.mean_path_km, b.mean_path_km, "at {}", a.event);
            if a.event != "init" {
                assert!(a.recomputed < population, "{} re-ranked everyone", a.event);
            }
        }
        assert_eq!(inc.user_snapshot(), full.user_snapshot());
        let last = ti.records.last().unwrap();
        assert!(inc.verify_full_recompute(last).is_empty());
    }

    #[test]
    fn same_timestamp_flap_is_a_recorded_noop() {
        let (net, dep, users) = world(3);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let target = hottest_site(&e);
        let init_median = e.init_record().median_ms;
        let before = e.user_snapshot();
        // Insertion order must not matter: the up is scheduled BEFORE
        // the down, yet the pair still nets out.
        let t_ev = SimTime::from_secs(30.0);
        let s = Scenario::new("flap0")
            .at(t_ev, RoutingEvent::SiteUp(target))
            .at(t_ev, RoutingEvent::SiteDown(target));
        let t = e.run(&s);
        assert_eq!(t.records.len(), 2, "one batched epoch, not two");
        let r = &t.records[1];
        assert_eq!(r.event, format!("flap {target}"));
        assert!(r.note.contains("cancel"), "the no-op must be recorded: {}", r.note);
        assert_eq!(r.shifted, 0.0);
        assert_eq!(r.recomputed, 0, "a cancelled pair challenges nobody");
        assert_eq!(r.median_ms, init_median);
        assert_eq!(e.user_snapshot(), before, "state is untouched");
    }

    #[test]
    fn gradual_drain_completes_in_staged_epochs_and_recovers() {
        let (net, dep, users) = world(4);
        let total: f64 = users.iter().map(|u| u.weight).sum();
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(SiteCapacities::uniform(dep.sites.len(), total));
        let target = hottest_site(&e);
        let before = e.user_snapshot();
        let init_median = e.init_record().median_ms;
        assert!(e.init_record().headroom_frac.is_some(), "capacities fill headroom");
        let s = Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 3, 120_000.0);
        let t = e.run(&s);
        // init, start (stage 1), stage 2, stage 3 (final down), end.
        assert_eq!(t.records.len(), 5);
        assert_eq!(t.records[1].event, format!("drain-start {target}"));
        assert_eq!(t.records[2].event, format!("drain-stage {target}"));
        assert_eq!(t.records[3].event, format!("drain-stage {target}"));
        assert_eq!(t.records[4].event, format!("drain-end {target}"));
        assert!(
            t.records.iter().all(|r| !r.note.contains("abort")),
            "generous capacity must not abort"
        );
        assert!(
            t.records[1..4].iter().map(|r| r.shifted).sum::<f64>() > 0.0,
            "draining the hottest site must move somebody"
        );
        assert!(t.records.iter().all(|r| r.headroom_frac.is_some()));
        let last = t.records.last().unwrap();
        assert_eq!(last.median_ms, init_median, "the drain ends where it began");
        assert_eq!(e.user_snapshot(), before);

        // A binary drain (stages = 1) downs the site in one epoch: fewer
        // records than the staged run, same generous capacity, no abort.
        let s1 = Scenario::gradual_drain("gd1", target, SimTime::from_secs(10.0), 30_000.0, 1, 120_000.0);
        let t1 = e.run(&s1);
        assert!(
            t1.records.len() < t.records.len(),
            "a binary drain must emit fewer records ({} vs {})",
            t1.records.len(),
            t.records.len()
        );
        assert!(t1.records.iter().all(|r| !r.note.contains("abort")));
        assert_eq!(t1.records.last().unwrap().median_ms, init_median);
        assert_eq!(e.user_snapshot(), before);
    }

    #[test]
    fn overloading_drain_aborts_and_rolls_back_byte_identically() {
        let (net, dep, users) = world(4);
        let probe = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let target = hottest_site(&probe);
        let init_loads = probe.site_loads();
        // Capacities hugging the steady-state loads: any user shifted
        // onto a survivor overloads it, so the drain cannot proceed.
        let caps =
            SiteCapacities::from_per_site(init_loads.iter().map(|l| l.max(0.5) * 1.0001).collect());
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental).with_capacities(caps);
        let before = e.user_snapshot();
        let s = Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 3, 120_000.0);
        let t = e.run(&s);
        let abort = t
            .records
            .iter()
            .find(|r| r.event.contains("drain-abort"))
            .expect("tight capacities must abort the drain");
        assert!(abort.note.contains("drain aborted"), "note: {}", abort.note);
        assert_eq!(abort.shifted, 0.0, "the abort epoch nets out to no shift");
        assert_eq!(
            e.user_snapshot(),
            before,
            "an aborted drain leaves assignments byte-identical to pre-drain"
        );
        assert_eq!(
            t.records.last().unwrap().event,
            abort.event,
            "follow-ups of the aborted drain are dropped, so the abort closes the run"
        );
    }

    #[test]
    fn capacity_edge_exact_fit_completes_and_one_user_less_aborts() {
        let (net, dep, users) = world(4);
        let probe = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let target = hottest_site(&probe);
        let init_loads = probe.site_loads();
        // The per-site peak during a drain equals the load with the
        // target fully down (stages only ever add users to survivors),
        // so measure that directly.
        let mut down_probe = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let _ = down_probe
            .run(&Scenario::new("p").at(SimTime::from_secs(1.0), RoutingEvent::SiteDown(target)));
        let down_loads = down_probe.site_loads();
        let exact: Vec<f64> = init_loads
            .iter()
            .zip(&down_loads)
            .map(|(a, b)| a.max(*b).max(0.5))
            .collect();
        let scenario =
            Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 3, 120_000.0);

        // Exact fit: the strict `load > cap` check lets it through.
        let mut fits = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(SiteCapacities::from_per_site(exact.clone()));
        let t = fits.run(&scenario);
        assert_eq!(t.records.len(), 5, "exact-fit capacity completes all 3 stages + end");
        assert!(t.records.iter().all(|r| !r.event.contains("drain-abort")));

        // One user less of room on the heaviest receiver: abort.
        let receiver = init_loads
            .iter()
            .zip(&down_loads)
            .enumerate()
            .max_by(|a, b| (a.1 .1 - a.1 .0).total_cmp(&(b.1 .1 - b.1 .0)))
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            down_loads[receiver] > init_loads[receiver],
            "the hottest site's users must land somewhere"
        );
        let mut tight = exact;
        tight[receiver] = down_loads[receiver] - 0.5;
        let mut aborts = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(SiteCapacities::from_per_site(tight));
        let t = aborts.run(&scenario);
        assert!(
            t.records.iter().any(|r| r.event.contains("drain-abort")),
            "one user over capacity must abort: {:?}",
            t.records.iter().map(|r| r.event.clone()).collect::<Vec<_>>()
        );
    }

    /// The per-site entry sessions partition the global view: summed
    /// per neighbor across sites they equal `transit_loads` (each
    /// served cohort has exactly one serving site), and every site's
    /// list is lightest first, ties by ASN.
    #[test]
    fn entry_sessions_partition_transit_loads_lightest_first() {
        let (net, dep, users) = world(4);
        let e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let global = e.transit_loads();
        assert!(!global.is_empty(), "somebody must enter through a neighbor");
        let by_site = e.entry_sessions();
        assert_eq!(by_site.len(), dep.sites.len());
        let mut merged: DetHashMap<Asn, f64> = DetHashMap::default();
        for (i, sessions) in by_site.iter().enumerate() {
            for pair in sessions.windows(2) {
                assert!(
                    pair[0].1.total_cmp(&pair[1].1).then(pair[0].0.cmp(&pair[1].0)).is_lt(),
                    "sessions must be lightest first at site {i}: {pair:?}"
                );
            }
            for &(a, w) in sessions {
                *merged.entry(a).or_default() += w;
            }
        }
        assert_eq!(merged.len(), global.len());
        for (a, w) in &global {
            let m = merged.get(a).copied().unwrap_or(0.0);
            assert!((m - w).abs() < 1e-9, "session {a} splits exactly across sites");
        }
    }

    /// An expanded engine must agree with the unexpanded one on every
    /// population-independent metric (medians, fractions, site sets),
    /// carry ~population rows, and prove sub-linear invalidation work
    /// on single-site events.
    #[test]
    fn expanded_population_preserves_metrics_and_invalidates_sublinearly() {
        let (net, dep, users) = world(4);
        let target_pop = 10 * users.len();
        let counts = crate::columnar::expand_counts(
            &users.iter().map(|u| u.weight).collect::<Vec<_>>(),
            target_pop,
            42,
        );
        let mut small = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let mut big = DynamicsEngine::new_expanded(
            &net.graph,
            Arc::clone(&dep),
            LatencyModel::default(),
            &users,
            &counts,
            42,
            RecomputeMode::Incremental,
        );
        assert_eq!(big.population(), target_pop);
        assert_eq!(big.cohort_count(), users.len());
        // Equal per-source weights split evenly, so weighted medians
        // and served fractions must match the unexpanded engine.
        assert_eq!(big.init_record().median_ms, small.init_record().median_ms);
        assert_eq!(big.init_record().unserved_frac, small.init_record().unserved_frac);
        let target = hottest_site(&small);
        let scenario =
            Scenario::site_flap("flap", target, SimTime::from_secs(60.0), 600_000.0, 3, 30_000.0, 7);
        let ts = small.run(&scenario);
        let tb = big.run(&scenario);
        for (a, b) in ts.records.iter().zip(&tb.records) {
            assert_eq!(a.event, b.event);
            assert!((a.shifted_frac - b.shifted_frac).abs() < 1e-9, "at {}", a.event);
            assert_eq!(a.median_ms, b.median_ms, "at {}", a.event);
        }
        // Ledger identity at the expanded population...
        for r in &tb.records {
            assert_eq!(r.recomputed + r.reused, target_pop as u64, "at {}", r.event);
        }
        // ...and the slice walk never visited the whole population on
        // these single-site flaps.
        let (slice, pop) = big.invalidation_ledger();
        assert_eq!(pop, (target_pop * (tb.records.len() - 1)) as u64);
        assert!(slice < pop, "slice {slice} must undercut population {pop}");
        assert!(slice > 0, "the flapped site's own slices are visited");
    }

    #[test]
    fn site_failure_mid_drain_aborts_it_and_stale_stages_are_ignored() {
        let (net, dep, users) = world(4);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let target = hottest_site(&e);
        let init_median = e.init_record().median_ms;
        let s = Scenario::gradual_drain("gd", target, SimTime::from_secs(10.0), 30_000.0, 4, 120_000.0)
            .at(SimTime::from_secs(25.0), RoutingEvent::SiteDown(target))
            .at(SimTime::from_secs(200.0), RoutingEvent::SiteUp(target));
        let t = e.run(&s);
        // init, drain-start@10, down@25 (kills the drain), stale
        // drain-stage@40, up@200.
        assert_eq!(t.records.len(), 5);
        assert!(t.records[2].note.contains("aborted"), "note: {}", t.records[2].note);
        assert!(t.records[3].note.contains("stale"), "note: {}", t.records[3].note);
        assert_eq!(t.records[3].shifted, 0.0, "a stale stage moves nobody");
        assert_eq!(t.records.last().unwrap().median_ms, init_median);
    }

    fn crowd(e: &DynamicsEngine<'_>, factor: f64) -> Scenario {
        let hot = hottest_site(e);
        let center = e.base.sites[hot.0 as usize].location;
        Scenario::flash_crowd(
            "crowd",
            center,
            6_000.0,
            factor,
            SimTime::from_secs(60.0),
            300_000.0,
            60_000.0,
        )
    }

    /// A demand surge scales cohort weights lazily: the epoch touches
    /// only cohorts, ticks recompute nobody, and the reciprocal scale
    /// restores both the scalar totals and the per-user query volumes.
    #[test]
    fn demand_scale_is_lazy_and_the_reciprocal_restores_it() {
        let (net, dep, users) = world(4);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let w0 = e.total_weight;
        let q0: f64 = e.queries_per_day().iter().sum();
        let s = crowd(&e, 2.0);
        let t = e.run(&s);
        for r in &t.records {
            if r.event.starts_with("surge") {
                assert_eq!(r.shifted, 0.0, "a demand scale moves nobody: {}", r.event);
                assert!(r.note.contains("demand x"), "note: {}", r.note);
            }
            if r.event == "tick" {
                assert_eq!(r.recomputed, 0, "a bare tick re-ranks nobody");
                assert_eq!(r.shifted, 0.0);
            }
        }
        assert!(t.records.iter().any(|r| r.event.starts_with("surge x2.00")));
        assert!(t.records.iter().any(|r| r.event.starts_with("surge x0.50")));
        assert!((e.total_weight - w0).abs() < 1e-6 * w0, "reciprocal restores total weight");
        assert!(e.demand_mult.iter().all(|m| (m - 1.0).abs() < 1e-9 || *m != 1.0));
        let q1: f64 = e.queries_per_day().iter().sum();
        assert!((q1 - q0).abs() < 1e-6 * q0, "the fold restores per-user query volumes");
        assert!(e.demand_mult.iter().all(|&m| m == 1.0), "the fold drains every multiplier");
    }

    /// On an expanded engine, a ×2 surge reaches per-user query volumes
    /// only through the fold, and reaches them exactly: ×2 is exact in
    /// f64, so every member of a cohort inside the radius reads twice
    /// its pre-surge value and every member outside keeps its bits.
    #[test]
    fn demand_fold_doubles_exactly_the_members_inside_the_radius() {
        let (net, dep, users) = world(4);
        let counts = crate::columnar::expand_counts(
            &users.iter().map(|u| u.weight).collect::<Vec<_>>(),
            10 * users.len(),
            42,
        );
        let mut e = DynamicsEngine::new_expanded(
            &net.graph,
            Arc::clone(&dep),
            LatencyModel::default(),
            &users,
            &counts,
            42,
            RecomputeMode::Incremental,
        );
        let hot = hottest_site(&e);
        let center = e.base.sites[hot.0 as usize].location;
        let radius_km = 3_000.0;
        let s = Scenario::new("surge").at(
            SimTime::from_secs(10.0),
            RoutingEvent::DemandScale { center, radius_km, factor: 2.0 },
        );
        let before = e.queries_per_day().to_vec();
        let mut stepper = EpochStepper::new(&e, &s);
        assert!(stepper.step(&mut e), "the surge epoch applies");
        assert!(e.demand_mult.contains(&2.0), "the epoch only marks cohorts");
        let cohorts = e.cohorts.clone();
        let after = e.queries_per_day().to_vec();
        let inside = |c: &Cohort| c.location.distance_km(&center) <= radius_km;
        assert!(cohorts.iter().any(|c| inside(c) && c.len() > 1), "a surged cohort has members");
        assert!(cohorts.iter().any(|c| !inside(c)), "some cohort sits outside the radius");
        for c in &cohorts {
            for i in c.range() {
                if inside(c) {
                    assert_eq!(after[i], 2.0 * before[i], "member {i} inside the radius");
                } else {
                    assert_eq!(after[i].to_bits(), before[i].to_bits(), "member {i} outside");
                }
            }
        }
        assert!(e.demand_mult.iter().all(|&m| m == 1.0), "the fold drains every multiplier");
    }

    /// The surge itself must grow demand while it holds.
    #[test]
    fn demand_scale_grows_weight_while_the_crowd_holds() {
        let (net, dep, users) = world(4);
        let mut e = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let w0 = e.total_weight;
        let hot = hottest_site(&e);
        let center = e.base.sites[hot.0 as usize].location;
        let s = Scenario::new("half").at(
            SimTime::from_secs(10.0),
            RoutingEvent::DemandScale { center, radius_km: 6_000.0, factor: 2.0 },
        );
        e.run(&s);
        assert!(e.total_weight > w0, "somebody inside the radius scaled up");
        assert!(e.demand_mult.iter().any(|m| (*m - 2.0).abs() < 1e-12));
    }

    /// A `NullController` attached to a capacity-aware engine must
    /// leave every timeline byte exactly as a controller-less run
    /// produces it — the ledger accrues overload either way.
    #[test]
    fn null_controller_preserves_timeline_byte_identity() {
        let (net, dep, users) = world(4);
        let plain = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let caps = SiteCapacities::from_headroom(&plain.site_loads(), 1.15, 1.0);
        let mut plain = plain.with_capacities(caps.clone());
        let mut nulled = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(caps)
            .with_controller(Box::new(loadmgmt::NullController));
        let target = hottest_site(&plain);
        let s = crowd(&plain, 2.0)
            .at(SimTime::from_secs(130.0), RoutingEvent::SiteDown(target))
            .at(SimTime::from_secs(250.0), RoutingEvent::SiteUp(target));
        let tp = plain.run(&s);
        let tn = nulled.run(&s);
        assert_eq!(tp.rows(), tn.rows(), "a null controller must not perturb a single byte");
        assert_eq!(plain.load_ledger().overload_site_ms, nulled.load_ledger().overload_site_ms);
        assert_eq!(nulled.load_ledger().shed_users, 0.0);
        assert_eq!(nulled.load_ledger().controller_rounds, 0);
    }

    /// The distributed controller must actually shed under a flash
    /// crowd and strictly reduce accrued overload versus doing nothing.
    #[test]
    fn distributed_controller_sheds_and_reduces_overload() {
        let (net, dep, users) = world(4);
        let none = engine(&net, &dep, &users, RecomputeMode::Incremental);
        // A tight cap on the hottest site and slack everywhere else:
        // the crowd overloads exactly one site while the rest of the
        // deployment has genuine room for whatever a controller sheds.
        let hot = hottest_site(&none);
        let caps = SiteCapacities::from_per_site(
            none.site_loads()
                .iter()
                .enumerate()
                .map(|(i, l)| if i == hot.0 as usize { l * 1.1 } else { l * 10.0 })
                .collect(),
        );
        let mut none = none.with_capacities(caps.clone());
        let mut dist = engine(&net, &dep, &users, RecomputeMode::Incremental)
            .with_capacities(caps)
            .with_controller(Box::new(loadmgmt::DistributedController::default()));
        let s = crowd(&none, 2.0);
        none.run(&s);
        let td = dist.run(&s);
        let ln = none.load_ledger();
        let ld = dist.load_ledger();
        assert!(ln.overload_site_ms > 0.0, "the crowd must overload the baseline");
        assert!(
            ld.overload_site_ms < ln.overload_site_ms,
            "controller {} must beat baseline {}",
            ld.overload_site_ms,
            ln.overload_site_ms
        );
        assert!(ld.shed_users > 0.0, "clearing overload requires shedding someone");
        assert!(ld.released_users <= ld.shed_users + 1e-9, "ledger identity");
        assert!(ld.controller_rounds >= 1);
        assert!(
            td.records.iter().any(|r| r.event.starts_with("ctrl[distributed]")),
            "controller rounds appear as timeline rows"
        );
        // Controller rows are same-SimTime epochs after their trigger.
        for w in td.records.windows(2) {
            if w[1].event.starts_with("ctrl[") {
                assert_eq!(w[0].t_ms, w[1].t_ms, "ctrl rounds share the trigger's timestamp");
            }
        }
    }

    /// Withholds emitted by a controller survive an unrelated routing
    /// epoch: the shed sessions stay away until released, because the
    /// withhold joins the drain footprint every recompute sees.
    #[test]
    fn controller_withholds_persist_across_routing_epochs() {
        let (net, dep, users) = world(4);
        let base = engine(&net, &dep, &users, RecomputeMode::Incremental);
        let caps = SiteCapacities::from_headroom(&base.site_loads(), 1.15, 1.0);
        let mut e = base
            .with_capacities(caps)
            .with_controller(Box::new(loadmgmt::ThresholdController));
        let hot = hottest_site(&e);
        let center = e.base.sites[hot.0 as usize].location;
        let cold = SiteId((0..e.base.sites.len() as u32).find(|i| SiteId(*i) != hot).unwrap());
        let s = Scenario::new("persist")
            .at(
                SimTime::from_secs(10.0),
                RoutingEvent::DemandScale { center, radius_km: 6_000.0, factor: 2.0 },
            )
            .at(SimTime::from_secs(60.0), RoutingEvent::SiteDown(cold))
            .at(SimTime::from_secs(120.0), RoutingEvent::SiteUp(cold))
            .ticks(SimTime::from_secs(180.0), 60_000.0, 1);
        e.run(&s);
        let ledger = e.load_ledger().clone();
        assert!(ledger.shed_users > 0.0, "the surge must trip the threshold");
        // Withheld neighbors cannot appear among their shed site's
        // entry sessions while the withhold stands.
        let sessions = e.entry_sessions();
        for (site, withheld) in e.ctrl_withheld.iter().enumerate() {
            for (asn, _) in withheld {
                assert!(
                    sessions[site].iter().all(|(a, _)| a != asn),
                    "withheld {asn:?} still lands on site {site}"
                );
            }
        }
    }

}
