//! Outside-in probes: a timing decorator for the public
//! `LoadController` trait and the per-epoch log of a stepped storm.

use crate::trace::Trace;
use loadmgmt::{LoadAction, LoadController, LoadObservation};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Decision calls and time spent deciding, shared by every controller a
/// traced pass attaches.
#[derive(Debug, Default)]
pub struct DecideStats {
    calls: Cell<u64>,
    busy: Cell<Duration>,
}

impl DecideStats {
    /// Records the totals into `trace`.
    pub fn record(&self, trace: &mut Trace) {
        trace.add("loadmgmt.decide_calls", self.calls.get() as f64);
        trace.add("loadmgmt.decide_s", self.busy.get().as_secs_f64());
    }
}

/// Times every `decide` of the controller it wraps; otherwise
/// transparent, so a traced run's outputs equal an untraced run's.
#[derive(Debug)]
pub struct TimedController {
    inner: Box<dyn LoadController>,
    stats: Rc<DecideStats>,
}

impl TimedController {
    /// Wraps `inner` when `stats` is given; returns it as-is otherwise.
    pub fn wrap(
        inner: Box<dyn LoadController>,
        stats: Option<&Rc<DecideStats>>,
    ) -> Box<dyn LoadController> {
        match stats {
            Some(stats) => Box::new(Self {
                inner,
                stats: Rc::clone(stats),
            }),
            None => inner,
        }
    }
}

impl LoadController for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_rounds(&self) -> u32 {
        self.inner.max_rounds()
    }

    fn decide(&mut self, obs: &LoadObservation<'_>) -> Vec<LoadAction> {
        let t = Instant::now();
        let actions = self.inner.decide(obs);
        self.stats.calls.set(self.stats.calls.get() + 1);
        self.stats.busy.set(self.stats.busy.get() + t.elapsed());
        actions
    }
}

/// Epoch kinds, by the first word of an epoch's first record label.
const KINDS: [(&str, &str, &str); 6] = [
    ("flap", "dynamics.epoch_ms.flap", "dynamics.epochs.flap"),
    ("drain", "dynamics.epoch_ms.drain", "dynamics.epochs.drain"),
    (
        "peering",
        "dynamics.epoch_ms.peering",
        "dynamics.epochs.peering",
    ),
    ("surge", "dynamics.epoch_ms.surge", "dynamics.epochs.surge"),
    ("cap", "dynamics.epoch_ms.cap", "dynamics.epochs.cap"),
    ("tick", "dynamics.epoch_ms.tick", "dynamics.epochs.tick"),
];

fn kind_of(label: &str) -> Option<usize> {
    let word = label.split_whitespace().next().unwrap_or("");
    let kind = match word {
        "down" | "up" => "flap",
        w if w.starts_with("drain") => "drain",
        w if w.starts_with("peering") => "peering",
        other => other,
    };
    KINDS.iter().position(|(k, _, _)| *k == kind)
}

/// Wall time of every stepped epoch, with its kind.
#[derive(Debug, Default)]
pub struct EpochLog {
    samples: Vec<(Option<usize>, f64)>,
}

impl EpochLog {
    /// Logs one epoch whose first record is labelled `label`.
    pub fn push(&mut self, label: &str, secs: f64) {
        self.samples.push((kind_of(label), secs));
    }

    /// Records busy time, p50/p95 and the per-kind mean cost and count.
    pub fn record(&self, trace: &mut Trace) {
        let mut ms: Vec<f64> = self.samples.iter().map(|s| s.1 * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let pct = |q: f64| {
            if ms.is_empty() {
                0.0
            } else {
                ms[((q * ms.len() as f64).ceil() as usize).clamp(1, ms.len()) - 1]
            }
        };
        trace.set("dynamics.epoch_busy_s", ms.iter().sum::<f64>() / 1e3);
        trace.set("dynamics.epoch_p50_ms", pct(0.50));
        trace.set("dynamics.epoch_p95_ms", pct(0.95));
        trace.set("dynamics.epoch_samples", ms.len() as f64);
        for (i, (_, ms_name, n_name)) in KINDS.iter().enumerate() {
            let of_kind: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| s.0 == Some(i))
                .map(|s| s.1 * 1e3)
                .collect();
            let mean = if of_kind.is_empty() {
                0.0
            } else {
                of_kind.iter().sum::<f64>() / of_kind.len() as f64
            };
            trace.set(ms_name, mean);
            trace.set(n_name, of_kind.len() as f64);
        }
    }
}
