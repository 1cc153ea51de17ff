//! Experiment registry: every table and figure, by id.

pub mod cdn_exp;
pub mod chaos_exp;
pub mod dynamics_exp;
pub mod extensions;
pub mod local;
pub mod paths_exp;
pub mod roots;
pub mod tables;

use crate::artifact::Artifact;
use crate::world::World;

/// One registry row: the id, the one-line description `repro --list`
/// prints, and the function that runs the experiment.
pub type Experiment = (&'static str, &'static str, fn(&World) -> Vec<Artifact>);

/// Every experiment, in paper order (extensions and dynamics last).
pub const EXPERIMENTS: [Experiment; 35] = [
    ("fig2", "Geographic and latency inflation per root query (CDFs of users)", roots::fig2),
    ("fig3", "Root queries per user per day, amortization across letters", roots::fig3),
    ("fig4", "CDN latency per page load and per RTT, by ring (CDFs of probes)", cdn_exp::fig4),
    ("fig5", "CDN vs root DNS inflation overlay (the tale of two systems)", cdn_exp::fig5),
    ("fig6", "AS path lengths and geographic inflation vs path length", paths_exp::fig6),
    ("fig7", "Latency, efficiency, and coverage vs number of global sites", paths_exp::fig7),
    ("tab1", "Operator survey: why root letters grow", tables::tab1),
    ("tab2", "Dataset inventory and strengths/weaknesses (Tables 2 and 3)", tables::tab23),
    ("tab4", "DITL∩CDN overlap, exact-IP vs /24 join", roots::tab4),
    ("tab5", "Redundant root queries after an authoritative timeout", local::tab5),
    ("fig8", "Amortization with vs without invalid-TLD filtering (App. B.1)", roots::fig8),
    ("fig9", "Amortization joined by exact IP vs /24 (App. B.2)", roots::fig9),
    ("fig10", "Fraction of /24 queries not hitting the favorite site (Eq. 3)", roots::fig10),
    ("fig11", "Letter inflation, 2018 vs 2020 site censuses", roots::fig11),
    ("fig12", "User DNS query latency and root wait at a shared recursive", local::fig12_13),
    ("appc", "RTTs per page load over synthetic pages (App. C)", cdn_exp::appc),
    ("fig14", "Relative latency to the largest ring, by region (App. F map)", cdn_exp::fig14),
    ("extunicast", "Anycast vs the best unicast alternative (the metric §3 declines)", extensions::extunicast),
    ("extlocals", "What local (NO_EXPORT) sites buy their neighborhoods", extensions::extlocals),
    ("extddos", "DDoS failure cascades vs deployment size", extensions::extddos),
    ("extte", "Selective-announcement traffic engineering loop (§7.1)", extensions::extte),
    ("exttld", "A tale of three systems: adding the TLD layer", extensions::exttld),
    ("extinfer", "Gao relationship inference vs ground truth", extensions::extinfer),
    ("dynflap", "Dynamics: hottest root-letter site flapping (incremental engine)", dynamics_exp::dynflap),
    ("dyndrain", "Dynamics: staged rolling maintenance drain across the largest CDN ring", dynamics_exp::dyndrain),
    ("dyndrain-load", "Dynamics: capacity-coupled drain abort vs exact-fit completion", dynamics_exp::dyndrain_load),
    ("dynoutage", "Dynamics: correlated regional outage of nearby root sites", dynamics_exp::dynoutage),
    ("dynpeer", "Dynamics: peering loss toward the heaviest host-adjacent AS", dynamics_exp::dynpeer),
    ("dynring", "Dynamics: CDN ring promotion R74 → R95 and demotion back (deployment swaps)", dynamics_exp::dynring),
    ("dynscale", "Dynamics: hottest-site flap at an expanded per-user population (columnar core)", dynamics_exp::dynscale),
    ("dynload", "Dynamics: flash crowd under four load-management policies (closed loop)", dynamics_exp::dynload),
    ("dynload-surge", "Dynamics: sharp regional surge under four load-management policies", dynamics_exp::dynload_surge),
    ("dynload-cascade", "Dynamics: cascading overload — a crowd, then the crowded site fails", dynamics_exp::dynload_cascade),
    ("dynreplay", "Dynamics: live query-stream replay through a crowd + flap, null vs distributed", dynamics_exp::dynreplay),
    ("dynchaos", "Dynamics: long-horizon chaos campaign — mixed incident storms under invariant checking", chaos_exp::dynchaos),
];

/// All experiment ids, in [`EXPERIMENTS`] order.
pub const ALL_IDS: [&str; 35] = {
    let mut ids = [""; 35];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Runs one experiment by id.
///
/// Each run executes under an `obs` span named `exp{id=…}` whose item
/// count is the total [`Artifact::item_count`] produced, so the metrics
/// sink records one span row per experiment. The span opens *inside*
/// whichever thread runs the experiment (inline at `--threads 1`, a
/// worker otherwise), so the recorded path is identical either way.
///
/// # Panics
///
/// Panics on unknown ids (the CLI validates first).
pub fn run(id: &str, world: &World) -> Vec<Artifact> {
    let span = obs::span!("exp", id = id);
    let artifacts = dispatch(id, world);
    span.add_items(artifacts.iter().map(Artifact::item_count).sum());
    obs::counter_add("exp.artifacts", artifacts.len() as u64);
    artifacts
}

fn dispatch(id: &str, world: &World) -> Vec<Artifact> {
    let (_, _, runner) = EXPERIMENTS
        .iter()
        .find(|(known, ..)| *known == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
    runner(world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_every_experiment_is_described() {
        for (i, (id, description, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(!ALL_IDS[..i].contains(id), "duplicate id {id:?}");
            assert!(!description.is_empty(), "{id} has no description");
        }
    }
}
