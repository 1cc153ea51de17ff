//! Replayable reproducer files.
//!
//! The vendored `serde` is an API-subset marker with no real
//! serialization, so reproducers use a hand-rolled line format —
//! stable, diffable, and parseable with nothing but `str::parse`.
//! Floats are written with Rust's shortest-roundtrip `Display`, so a
//! parsed reproducer replays **bit-identically**.
//!
//! ```text
//! # anycast-chaos reproducer v1
//! # epoch 12 (t=540000 ms): synthetic — injected fault ...
//! name storm-load
//! seed 2021
//! oracle-every 16
//! synthetic cap site-3
//! incident 60000 flap 2 45000
//! incident 125000 surge 12.5 -33 4000 1.75 60000
//! incident 180000 policy hysteresis
//! ```
//!
//! Lines starting `#` are comments (the writer records the violations
//! there); unknown keys are an error, not a warning — a reproducer
//! that cannot be fully understood must not half-replay.

use crate::harness::ChaosOptions;
use crate::storm::{Incident, IncidentKind, PolicyName};
use geo::GeoPoint;
use netsim::SimTime;
use std::fmt::Write as _;
use std::path::Path;
use topology::{Asn, SiteId};

/// Magic first line of every reproducer file.
pub(crate) const HEADER: &str = "# anycast-chaos reproducer v1";

/// A parsed (or about-to-be-written) reproducer: the minimal incident
/// list plus everything needed to re-run it under the same checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Storm name.
    pub name: String,
    /// Campaign seed the world/engine factory must be built with.
    pub seed: u64,
    /// Oracle cadence of the original run.
    pub oracle_every: u64,
    /// Synthetic fault label, when the violation was injected.
    pub synthetic: Option<String>,
    /// The minimized incidents.
    pub incidents: Vec<Incident>,
    /// Free-text context written as comments (violation summaries).
    pub notes: Vec<String>,
}

impl Reproducer {
    /// The harness options that replay this reproducer under the
    /// original checks.
    pub fn options(&self) -> ChaosOptions {
        ChaosOptions {
            name: self.name.clone(),
            oracle_every: self.oracle_every,
            counter_checks: true,
            synthetic_violation_label: self.synthetic.clone(),
            stop_on_violation: true,
        }
    }

    /// Renders the file content.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{HEADER}");
        for note in &self.notes {
            let _ = writeln!(s, "# {note}");
        }
        let _ = writeln!(s, "name {}", self.name);
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "oracle-every {}", self.oracle_every);
        if let Some(label) = &self.synthetic {
            let _ = writeln!(s, "synthetic {label}");
        }
        for inc in &self.incidents {
            let at = inc.at.as_ms();
            let line = match inc.kind {
                IncidentKind::Flap { site, outage_ms } => {
                    format!("incident {at} flap {} {outage_ms}", site.0)
                }
                IncidentKind::Drain { site, stage_ms, stages, hold_ms } => {
                    format!("incident {at} drain {} {stage_ms} {stages} {hold_ms}", site.0)
                }
                IncidentKind::PeeringFlap { neighbor, outage_ms } => {
                    format!("incident {at} peering {} {outage_ms}", neighbor.0)
                }
                IncidentKind::SwapCycle { to, hold_ms } => {
                    format!("incident {at} swap {to} {hold_ms}")
                }
                IncidentKind::Surge { center, radius_km, factor, hold_ms } => format!(
                    "incident {at} surge {} {} {radius_km} {factor} {hold_ms}",
                    center.lat(),
                    center.lon()
                ),
                IncidentKind::CapacityDip { site, factor, hold_ms } => {
                    format!("incident {at} cap {} {factor} {hold_ms}", site.0)
                }
                IncidentKind::PolicySwitch { policy } => {
                    format!("incident {at} policy {}", policy.as_str())
                }
                IncidentKind::Tick => format!("incident {at} tick"),
            };
            let _ = writeln!(s, "{line}");
        }
        s
    }

    /// Writes the rendered file to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Parses a rendered reproducer back. Returns a message naming the
    /// offending line on any malformed input — a truncated or
    /// over-long line, a non-finite float, a non-integer id, an
    /// unknown key or incident kind, or a header key given twice —
    /// and never panics.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == HEADER => {}
            _ => return Err(format!("missing header line '{HEADER}'")),
        }
        let mut out = Reproducer {
            name: String::new(),
            seed: 0,
            oracle_every: 0,
            synthetic: None,
            incidents: Vec::new(),
            notes: Vec::new(),
        };
        let mut seen: Vec<&str> = Vec::new();
        for (ln, raw) in lines {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(note) = line.strip_prefix('#') {
                out.notes.push(note.trim().to_string());
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let err = |what: &str| format!("line {}: {what}: '{raw}'", ln + 1);
            if key != "incident" {
                if seen.contains(&key) {
                    return Err(err("duplicate key"));
                }
                seen.push(key);
            }
            match key {
                "name" => out.name = rest.to_string(),
                "seed" => out.seed = rest.parse().map_err(|_| err("bad seed"))?,
                "oracle-every" => {
                    out.oracle_every = rest.parse().map_err(|_| err("bad oracle-every"))?;
                }
                "synthetic" => out.synthetic = Some(rest.to_string()),
                "incident" => out.incidents.push(parse_incident(rest).map_err(err)?),
                _ => return Err(err("unknown key")),
            }
        }
        if out.name.is_empty() {
            return Err("missing 'name' line".into());
        }
        Ok(out)
    }
}

/// Parses the fields after `incident`: time, kind, then exactly the
/// kind's arguments.
fn parse_incident(rest: &str) -> Result<Incident, &'static str> {
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let (Some(at), Some(kind)) = (fields.first(), fields.get(1)) else {
        return Err("missing time or kind");
    };
    let args = &fields[2..];
    let arity = match *kind {
        "tick" => 0,
        "policy" => 1,
        "flap" | "peering" | "swap" => 2,
        "cap" => 3,
        "drain" => 4,
        "surge" => 5,
        _ => return Err("unknown incident kind"),
    };
    if args.len() != arity {
        return Err("wrong number of fields");
    }
    let float = |s: &str, lo: f64, hi: f64| match s.parse::<f64>() {
        Ok(v) if (lo..=hi).contains(&v) => Ok(v),
        _ => Err("bad or out-of-range number"),
    };
    // Times and durations are non-negative, factors positive, and
    // coordinates inside their ranges: anything else is not a storm
    // the generator could have drawn.
    let nonneg = |s: &str| float(s, 0.0, f64::MAX);
    let factor = |s: &str| float(s, f64::MIN_POSITIVE, f64::MAX);
    let int = |s: &str| s.parse::<u32>().map_err(|_| "bad integer");
    let kind = match *kind {
        "flap" => IncidentKind::Flap { site: SiteId(int(args[0])?), outage_ms: nonneg(args[1])? },
        "drain" => IncidentKind::Drain {
            site: SiteId(int(args[0])?),
            stage_ms: nonneg(args[1])?,
            stages: int(args[2])?,
            hold_ms: nonneg(args[3])?,
        },
        "peering" => {
            IncidentKind::PeeringFlap { neighbor: Asn(int(args[0])?), outage_ms: nonneg(args[1])? }
        }
        "swap" => IncidentKind::SwapCycle { to: int(args[0])?, hold_ms: nonneg(args[1])? },
        "surge" => IncidentKind::Surge {
            center: GeoPoint::new(float(args[0], -90.0, 90.0)?, float(args[1], -180.0, 180.0)?),
            radius_km: nonneg(args[2])?,
            factor: factor(args[3])?,
            hold_ms: nonneg(args[4])?,
        },
        "cap" => IncidentKind::CapacityDip {
            site: SiteId(int(args[0])?),
            factor: factor(args[1])?,
            hold_ms: nonneg(args[2])?,
        },
        "policy" => IncidentKind::PolicySwitch {
            policy: PolicyName::parse(args[0]).ok_or("bad policy")?,
        },
        _ => IncidentKind::Tick,
    };
    Ok(Incident { at: SimTime(nonneg(at)?), kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storm::{generate, StormConfig, StormRegime};
    use proptest::prelude::*;

    fn sample() -> Reproducer {
        let incidents = generate(&StormConfig {
            seed: 7,
            incidents: 40,
            start: SimTime::from_secs(30.0),
            mean_gap_ms: 50_000.0,
            sites: 4,
            neighbors: vec![Asn(5)],
            centers: vec![GeoPoint::new(48.8, 2.3)],
            rings: 3,
            regime: StormRegime::Load,
        });
        Reproducer {
            name: "unit-storm".into(),
            seed: 7,
            oracle_every: 8,
            synthetic: Some("cap site-1".into()),
            incidents,
            notes: vec!["epoch 3: synthetic — example".into()],
        }
    }

    #[test]
    fn render_parse_round_trips_bit_identically() {
        let r = sample();
        let parsed = Reproducer::parse(&r.render()).expect("parses");
        assert_eq!(parsed.name, r.name);
        assert_eq!(parsed.seed, r.seed);
        assert_eq!(parsed.oracle_every, r.oracle_every);
        assert_eq!(parsed.synthetic, r.synthetic);
        assert_eq!(parsed.incidents, r.incidents, "f64 Display must round-trip exactly");
        assert_eq!(parsed.notes, r.notes);
        // Idempotent: render(parse(render(x))) == render(x).
        assert_eq!(parsed.render(), r.render());
    }

    #[test]
    fn swap_regime_round_trips_too() {
        let incidents = generate(&StormConfig {
            seed: 9,
            incidents: 30,
            start: SimTime::from_secs(10.0),
            mean_gap_ms: 40_000.0,
            sites: 6,
            neighbors: vec![],
            centers: vec![],
            rings: 4,
            regime: StormRegime::Swap,
        });
        let r = Reproducer {
            name: "swap-storm".into(),
            seed: 9,
            oracle_every: 4,
            synthetic: None,
            incidents,
            notes: vec![],
        };
        let parsed = Reproducer::parse(&r.render()).expect("parses");
        assert_eq!(parsed.incidents, r.incidents);
        assert_eq!(parsed.synthetic, None);
    }

    /// A reproducer holding every incident kind.
    fn every_kind() -> String {
        let mut r = sample();
        r.incidents.extend(
            generate(&StormConfig {
                seed: 3,
                incidents: 12,
                start: SimTime::from_secs(10.0),
                mean_gap_ms: 40_000.0,
                sites: 6,
                neighbors: vec![],
                centers: vec![],
                rings: 4,
                regime: StormRegime::Swap,
            }),
        );
        r.render()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Cutting a valid file anywhere never panics, and whatever
        /// still parses renders back to a file that parses again.
        #[test]
        fn truncated_input_never_panics(cut in 0usize..1_000_000) {
            let text = every_kind();
            let mut at = cut % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            if let Ok(r) = Reproducer::parse(&text[..at]) {
                prop_assert!(Reproducer::parse(&r.render()).is_ok());
            }
        }

        /// One malformed line — a non-finite, overflowing or garbage
        /// number, a truncated or over-long incident, an unknown kind,
        /// or a header key given twice — is an `Err`, never a panic.
        #[test]
        fn malformed_lines_are_errors(
            pick in 0usize..10_000,
            field in 0usize..16,
            how in 0u8..5,
            poison in 0usize..6,
        ) {
            let text = every_kind();
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            let incidents: Vec<usize> =
                (0..lines.len()).filter(|&i| lines[i].starts_with("incident ")).collect();
            let target = incidents[pick % incidents.len()];
            let mut fields: Vec<String> = lines[target].split(' ').map(String::from).collect();
            match how {
                0 => {
                    // Field 1 (the time) is always numeric; kind is field 2.
                    let numeric: Vec<usize> = (1..fields.len())
                        .filter(|&i| i != 2 && fields[i].parse::<f64>().is_ok())
                        .collect();
                    let i = numeric[field % numeric.len()];
                    fields[i] = ["NaN", "inf", "-inf", "1e400", "x", "1.5.2"][poison].into();
                }
                1 => {
                    fields.pop();
                }
                2 => fields[2] = "frobnicate".into(),
                3 => fields.push("7".into()),
                _ => {
                    let key = ["name x", "seed 4", "oracle-every 2", "synthetic y"][field % 4];
                    lines.insert(1, key.into());
                    lines.insert(target + 1, key.into());
                }
            }
            if how < 4 {
                lines[target] = fields.join(" ");
            }
            let bad = lines.join("\n");
            prop_assert!(Reproducer::parse(&bad).is_err(), "accepted:\n{}", bad);
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_location() {
        assert!(Reproducer::parse("no header").is_err());
        let bad = format!("{HEADER}\nname x\nincident 5 flap notanumber 2\n");
        let e = Reproducer::parse(&bad).unwrap_err();
        assert!(e.contains("line 3"), "error names the line: {e}");
        let unknown = format!("{HEADER}\nname x\nfrobnicate 7\n");
        assert!(Reproducer::parse(&unknown).is_err());
        let nameless = format!("{HEADER}\nseed 3\n");
        assert!(Reproducer::parse(&nameless).is_err());
    }
}
