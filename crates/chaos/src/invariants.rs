//! The invariant catalogue: what must hold after *every* epoch of a
//! storm, however long, plus the full-recompute oracle comparison run
//! every Nth epoch.
//!
//! Cheap checks (every epoch, O(cohorts) or O(1)):
//!
//! 1. **User conservation** — the population never changes, and the
//!    serving cohorts partition `[0, population)` exactly.
//! 2. **Recompute identity** — every epoch record satisfies
//!    `recomputed + reused = population` (the per-record form of the
//!    global `assign_recomputed + assign_reused = full_equiv` ledger).
//! 3. **Assign ledger** — the global counters satisfy
//!    `Δassign_recomputed + Δassign_reused = Δfull_equiv` since the
//!    storm's baseline.
//! 4. **Invalidation ledger** — `slice_users ≤ population` cumulative:
//!    epoch invalidation never visits more users than a full scan.
//! 5. **Drain ledger** — mid-run, `Δaborted + Δcompleted ≤ Δstarted`;
//!    at finish the identity closes:
//!    `Δstarted = Δstaged + Δaborted + Δcompleted`.
//! 6. **Load ledger** — a controller can never release more user
//!    weight than it shed: `released_users ≤ shed_users`.
//! 7. **Record sanity** — shares in `[0, 1]`, non-negative convergence
//!    and degraded-query mass.
//!
//! The oracle spot-check ([`check_full_recompute`]) builds no second
//! engine: every Nth epoch the live engine re-ranks every cohort
//! against its own current effective deployment
//! ([`DynamicsEngine::verify_full_recompute`]), and the stored
//! per-cohort state and the epoch record's aggregates must equal the
//! fresh result **exactly** (f64 bits, not tolerance — the repo's
//! determinism contract is byte-identity). [`compare_oracle`] is the
//! lockstep form kept for reference tests: it compares an incremental
//! engine record by record and cohort by cohort against a
//! [`dynamics::RecomputeMode::Full`] engine stepped alongside.

use dynamics::{DynamicsEngine, EpochRecord, MismatchKind};
use std::fmt;

/// Floating-point slack for *accumulated* weight comparisons.
/// Identities over counters use exact equality. Sums of expanded-user
/// weight reach ~1e10 at full scale, where one f64 ulp is ~2e-6, so
/// comparisons between two independently-accumulated weight sums use a
/// slack relative to the sum's magnitude (see `weight_eps`); `W_EPS`
/// alone covers quantities that are O(1) by construction (shares).
const W_EPS: f64 = 1e-6;

/// Tolerance for comparing two weight sums of magnitude `m`: absolute
/// `W_EPS` for small sums, plus a relative term far above accumulated
/// rounding error (≲ n·2⁻⁵³·m) but far below any real bookkeeping bug
/// (a whole session's weight).
fn weight_eps(m: f64) -> f64 {
    W_EPS + 1e-9 * m.abs()
}

/// One invariant violation, attributed to the epoch that exposed it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// 1-based epoch index within the storm (0 = post-run check).
    pub epoch: u64,
    /// Simulated time of the offending epoch, ms.
    pub(crate) t_ms: f64,
    /// Which invariant broke (stable short name).
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub(crate) detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} (t={:.0} ms): {} — {}",
            self.epoch, self.t_ms, self.invariant, self.detail
        )
    }
}

/// Snapshot of the global `obs` counters the ledger identities are
/// checked against, taken at storm start so concurrent-history noise
/// (earlier runs in the same process) cancels out of every delta.
#[derive(Debug, Clone, Copy)]
pub struct CounterBaseline {
    recomputed: u64,
    reused: u64,
    full_equiv: u64,
    drain_started: u64,
    drain_staged: u64,
    drain_aborted: u64,
    drain_completed: u64,
}

impl CounterBaseline {
    /// Captures the current counter values.
    pub(crate) fn capture() -> Self {
        Self {
            recomputed: obs::counter_value("dynamics.assign_recomputed"),
            reused: obs::counter_value("dynamics.assign_reused"),
            full_equiv: obs::counter_value("dynamics.full_equiv"),
            drain_started: obs::counter_value("dynamics.drain.started"),
            drain_staged: obs::counter_value("dynamics.drain.staged"),
            drain_aborted: obs::counter_value("dynamics.drain.aborted"),
            drain_completed: obs::counter_value("dynamics.drain.completed"),
        }
    }
}

fn push(
    out: &mut Vec<Violation>,
    epoch: u64,
    t_ms: f64,
    invariant: &'static str,
    detail: String,
) {
    out.push(Violation { epoch, t_ms, invariant, detail });
}

/// Runs the cheap per-epoch checks (catalogue items 1–4, 6–7, and the
/// mid-run half of 5) over the engine state and the records the epoch
/// just appended. `population` is the invariant population captured at
/// storm start; `baseline` enables the global-counter identities.
pub fn check_epoch(
    eng: &DynamicsEngine<'_>,
    new_records: &[EpochRecord],
    population: usize,
    baseline: Option<&CounterBaseline>,
    epoch: u64,
    out: &mut Vec<Violation>,
) {
    let t_ms = new_records.last().map_or(0.0, |r| r.t_ms);

    // 1. Conservation: population fixed, cohorts partition it.
    if eng.population() != population {
        push(
            out,
            epoch,
            t_ms,
            "conservation",
            format!("population changed: {} -> {}", population, eng.population()),
        );
    }
    let mut prev_end = 0u32;
    for c in eng.serving_cohorts() {
        if c.start != prev_end {
            push(
                out,
                epoch,
                t_ms,
                "conservation",
                format!("cohort gap: [{}, {}) after end {}", c.start, c.end, prev_end),
            );
            break;
        }
        prev_end = c.end;
    }
    if prev_end as usize != population {
        push(
            out,
            epoch,
            t_ms,
            "conservation",
            format!("cohorts cover {prev_end} of {population} users"),
        );
    }

    // 2 + 7. Per-record identities and sanity ranges.
    for r in new_records {
        if r.recomputed + r.reused != population as u64 {
            push(
                out,
                epoch,
                r.t_ms,
                "recompute-identity",
                format!(
                    "'{}': recomputed {} + reused {} != population {}",
                    r.event, r.recomputed, r.reused, population
                ),
            );
        }
        let bad_share = |v: f64| !(-W_EPS..=1.0 + W_EPS).contains(&v) || v.is_nan();
        if bad_share(r.shifted_frac) || bad_share(r.unserved_frac) {
            push(
                out,
                epoch,
                r.t_ms,
                "record-sanity",
                format!(
                    "'{}': shifted_frac {} / unserved_frac {} outside [0, 1]",
                    r.event, r.shifted_frac, r.unserved_frac
                ),
            );
        }
        if r.shifted < -W_EPS || r.convergence_ms < 0.0 || r.degraded_queries < 0.0 {
            push(
                out,
                epoch,
                r.t_ms,
                "record-sanity",
                format!(
                    "'{}': negative shifted {} / convergence {} / degraded {}",
                    r.event, r.shifted, r.convergence_ms, r.degraded_queries
                ),
            );
        }
    }

    // 4. Invalidation never exceeds a full scan.
    let (slice, scan) = eng.invalidation_ledger();
    if slice > scan {
        push(
            out,
            epoch,
            t_ms,
            "invalidation-ledger",
            format!("slice_users {slice} > population-scan equivalent {scan}"),
        );
    }

    // 6. Shedding is conservative. The two sides accumulate the same
    // per-session weights in different orders, so allow magnitude-
    // relative rounding slack.
    let ll = eng.load_ledger();
    if ll.released_users > ll.shed_users + weight_eps(ll.shed_users) {
        push(
            out,
            epoch,
            t_ms,
            "load-ledger",
            format!("released {} > shed {}", ll.released_users, ll.shed_users),
        );
    }

    // 3 + mid-run 5. Global counter identities against the baseline.
    if let Some(b) = baseline {
        let d_rec = obs::counter_value("dynamics.assign_recomputed") - b.recomputed;
        let d_reu = obs::counter_value("dynamics.assign_reused") - b.reused;
        let d_full = obs::counter_value("dynamics.full_equiv") - b.full_equiv;
        if d_rec + d_reu != d_full {
            push(
                out,
                epoch,
                t_ms,
                "assign-ledger",
                format!("Δrecomputed {d_rec} + Δreused {d_reu} != Δfull_equiv {d_full}"),
            );
        }
        let d_started = obs::counter_value("dynamics.drain.started") - b.drain_started;
        let d_aborted = obs::counter_value("dynamics.drain.aborted") - b.drain_aborted;
        let d_completed = obs::counter_value("dynamics.drain.completed") - b.drain_completed;
        if d_aborted + d_completed > d_started {
            push(
                out,
                epoch,
                t_ms,
                "drain-ledger",
                format!(
                    "Δaborted {d_aborted} + Δcompleted {d_completed} > Δstarted {d_started}"
                ),
            );
        }
    }
}

/// Post-`finish` check: the drain identity closes —
/// `Δstarted = Δstaged + Δaborted + Δcompleted` once the run's staged
/// remainder is ledgered.
pub(crate) fn check_final(baseline: Option<&CounterBaseline>, out: &mut Vec<Violation>) {
    if let Some(b) = baseline {
        let d_started = obs::counter_value("dynamics.drain.started") - b.drain_started;
        let d_staged = obs::counter_value("dynamics.drain.staged") - b.drain_staged;
        let d_aborted = obs::counter_value("dynamics.drain.aborted") - b.drain_aborted;
        let d_completed = obs::counter_value("dynamics.drain.completed") - b.drain_completed;
        if d_started != d_staged + d_aborted + d_completed {
            push(
                out,
                0,
                0.0,
                "drain-ledger",
                format!(
                    "at finish: Δstarted {d_started} != Δstaged {d_staged} + Δaborted \
                     {d_aborted} + Δcompleted {d_completed}"
                ),
            );
        }
    }
}

/// The on-demand oracle: re-ranks every cohort of the live engine and
/// reports any disagreement with its stored state (`oracle-state`) or
/// with the aggregates of the epoch's last record (`oracle-records`).
/// `new_records` are the records the epoch just appended.
pub fn check_full_recompute(
    eng: &mut DynamicsEngine<'_>,
    new_records: &[EpochRecord],
    epoch: u64,
    out: &mut Vec<Violation>,
) {
    let Some(last) = new_records.last() else { return };
    for m in eng.verify_full_recompute(last) {
        let invariant = match m.kind {
            MismatchKind::State => "oracle-state",
            MismatchKind::Record => "oracle-records",
        };
        push(out, epoch, last.t_ms, invariant, m.detail);
    }
}

/// Exact-equality comparison of one epoch's records across the
/// incremental engine and the full-recompute oracle (both must have
/// appended the same records), plus the cohort-level serving state.
pub fn compare_oracle(
    eng: &DynamicsEngine<'_>,
    oracle: &DynamicsEngine<'_>,
    inc_records: &[EpochRecord],
    full_records: &[EpochRecord],
    epoch: u64,
    out: &mut Vec<Violation>,
) {
    let t_ms = inc_records.last().map_or(0.0, |r| r.t_ms);
    if inc_records.len() != full_records.len() {
        push(
            out,
            epoch,
            t_ms,
            "oracle-records",
            format!(
                "incremental emitted {} records, oracle {}",
                inc_records.len(),
                full_records.len()
            ),
        );
        return;
    }
    for (a, b) in inc_records.iter().zip(full_records) {
        // recomputed/reused intentionally differ (that is the point of
        // the incremental engine); everything observable must not.
        let same = a.t_ms == b.t_ms
            && a.event == b.event
            && a.shifted == b.shifted
            && a.shifted_frac == b.shifted_frac
            && a.unserved_frac == b.unserved_frac
            && a.median_ms == b.median_ms
            && a.inflation_ms == b.inflation_ms
            && a.mean_path_km == b.mean_path_km
            && a.convergence_ms == b.convergence_ms
            && a.degraded_queries == b.degraded_queries
            && a.headroom_frac == b.headroom_frac
            && a.note == b.note;
        if !same {
            push(
                out,
                epoch,
                a.t_ms,
                "oracle-records",
                format!("'{}' diverges from oracle record '{}'", a.event, b.event),
            );
        }
    }
    let ic = eng.serving_cohorts();
    let oc = oracle.serving_cohorts();
    if ic.len() != oc.len() {
        push(
            out,
            epoch,
            t_ms,
            "oracle-state",
            format!("cohort count {} vs oracle {}", ic.len(), oc.len()),
        );
        return;
    }
    for (a, b) in ic.iter().zip(&oc) {
        if a.start != b.start
            || a.end != b.end
            || a.site != b.site
            || a.latency_ms.to_bits() != b.latency_ms.to_bits()
        {
            push(
                out,
                epoch,
                t_ms,
                "oracle-state",
                format!(
                    "cohort [{}, {}) serves {:?}@{} but oracle has [{}, {}) {:?}@{}",
                    a.start, a.end, a.site, a.latency_ms, b.start, b.end, b.site, b.latency_ms
                ),
            );
            return; // one cohort is evidence enough; don't flood
        }
    }
}
