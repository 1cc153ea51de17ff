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

/// All experiment ids, in paper order (extensions and dynamics last).
pub const ALL_IDS: [&str; 35] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "tab1", "tab2", "tab4", "tab5", "fig8",
    "fig9", "fig10", "fig11", "fig12", "appc", "fig14", "extunicast", "extlocals", "extddos",
    "extte", "exttld", "extinfer", "dynflap", "dyndrain", "dyndrain-load", "dynoutage", "dynpeer",
    "dynring", "dynscale", "dynload", "dynload-surge", "dynload-cascade", "dynreplay", "dynchaos",
];

/// One-line description per experiment id, in [`ALL_IDS`] order — the
/// catalogue behind `repro --list`.
pub const DESCRIPTIONS: [(&str, &str); 35] = [
    ("fig2", "Geographic and latency inflation per root query (CDFs of users)"),
    ("fig3", "Root queries per user per day, amortization across letters"),
    ("fig4", "CDN latency per page load and per RTT, by ring (CDFs of probes)"),
    ("fig5", "CDN vs root DNS inflation overlay (the tale of two systems)"),
    ("fig6", "AS path lengths and geographic inflation vs path length"),
    ("fig7", "Latency, efficiency, and coverage vs number of global sites"),
    ("tab1", "Operator survey: why root letters grow"),
    ("tab2", "Dataset inventory and strengths/weaknesses (Tables 2 and 3)"),
    ("tab4", "DITL∩CDN overlap, exact-IP vs /24 join"),
    ("tab5", "Redundant root queries after an authoritative timeout"),
    ("fig8", "Amortization with vs without invalid-TLD filtering (App. B.1)"),
    ("fig9", "Amortization joined by exact IP vs /24 (App. B.2)"),
    ("fig10", "Fraction of /24 queries not hitting the favorite site (Eq. 3)"),
    ("fig11", "Letter inflation, 2018 vs 2020 site censuses"),
    ("fig12", "User DNS query latency and root wait at a shared recursive"),
    ("appc", "RTTs per page load over synthetic pages (App. C)"),
    ("fig14", "Relative latency to the largest ring, by region (App. F map)"),
    ("extunicast", "Anycast vs the best unicast alternative (the metric §3 declines)"),
    ("extlocals", "What local (NO_EXPORT) sites buy their neighborhoods"),
    ("extddos", "DDoS failure cascades vs deployment size"),
    ("extte", "Selective-announcement traffic engineering loop (§7.1)"),
    ("exttld", "A tale of three systems: adding the TLD layer"),
    ("extinfer", "Gao relationship inference vs ground truth"),
    ("dynflap", "Dynamics: hottest root-letter site flapping (incremental engine)"),
    ("dyndrain", "Dynamics: staged rolling maintenance drain across the largest CDN ring"),
    ("dyndrain-load", "Dynamics: capacity-coupled drain abort vs exact-fit completion"),
    ("dynoutage", "Dynamics: correlated regional outage of nearby root sites"),
    ("dynpeer", "Dynamics: peering loss toward the heaviest host-adjacent AS"),
    ("dynring", "Dynamics: CDN ring promotion R74 → R95 and demotion back (deployment swaps)"),
    ("dynscale", "Dynamics: hottest-site flap at an expanded per-user population (columnar core)"),
    ("dynload", "Dynamics: flash crowd under four load-management policies (closed loop)"),
    ("dynload-surge", "Dynamics: sharp regional surge under four load-management policies"),
    ("dynload-cascade", "Dynamics: cascading overload — a crowd, then the crowded site fails"),
    ("dynreplay", "Dynamics: live query-stream replay through a crowd + flap, null vs distributed"),
    ("dynchaos", "Dynamics: long-horizon chaos campaign — mixed incident storms under invariant checking"),
];

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
    match id {
        "fig2" => roots::fig2(world),
        "fig3" => roots::fig3(world),
        "fig4" => {
            let mut a = cdn_exp::fig4a(world);
            a.extend(cdn_exp::fig4b(world));
            a
        }
        "fig5" => cdn_exp::fig5(world),
        "fig6" => paths_exp::fig6(world),
        "fig7" => paths_exp::fig7(world),
        "tab1" => tables::tab1(world),
        "tab2" => tables::tab23(world),
        "tab4" => roots::tab4(world),
        "tab5" => local::tab5(world),
        "fig8" => roots::fig8(world),
        "fig9" => roots::fig9(world),
        "fig10" => roots::fig10(world),
        "fig11" => roots::fig11(world),
        "fig12" => local::fig12_13(world),
        "appc" => cdn_exp::appc(world),
        "fig14" => cdn_exp::fig14(world),
        "extunicast" => extensions::extunicast(world),
        "extlocals" => extensions::extlocals(world),
        "extddos" => extensions::extddos(world),
        "extte" => extensions::extte(world),
        "exttld" => extensions::exttld(world),
        "extinfer" => extensions::extinfer(world),
        "dynflap" => dynamics_exp::dynflap(world),
        "dyndrain" => dynamics_exp::dyndrain(world),
        "dyndrain-load" => dynamics_exp::dyndrain_load(world),
        "dynoutage" => dynamics_exp::dynoutage(world),
        "dynpeer" => dynamics_exp::dynpeer(world),
        "dynring" => dynamics_exp::dynring(world),
        "dynscale" => dynamics_exp::dynscale(world),
        "dynload" => dynamics_exp::dynload(world),
        "dynload-surge" => dynamics_exp::dynload_surge(world),
        "dynload-cascade" => dynamics_exp::dynload_cascade(world),
        "dynreplay" => dynamics_exp::dynreplay(world),
        "dynchaos" => chaos_exp::dynchaos(world),
        other => panic!("unknown experiment id {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_every_id_in_order() {
        assert_eq!(ALL_IDS.len(), DESCRIPTIONS.len());
        for (id, (did, desc)) in ALL_IDS.iter().zip(DESCRIPTIONS) {
            assert_eq!(*id, did, "catalogue order must match ALL_IDS");
            assert!(!desc.is_empty());
        }
    }
}
