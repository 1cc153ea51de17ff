//! Shape targets for the extension studies (beyond the paper's
//! artifacts): the declined unicast metric, local sites, DDoS cascades,
//! and traffic engineering.

use anycast_context::analysis::resilience::{simulate_attack, AttackSpec, TrafficSource};
use anycast_context::analysis::te::optimize_withholds;
use anycast_context::analysis::{local_site_study, unicast_study};
use anycast_context::dns::Letter;
use anycast_context::netsim::LastMile;
use anycast_context::{World, WorldConfig};

fn world() -> World {
    World::build(&WorldConfig { scale: 0.2, ..WorldConfig::paper(2021) })
}

fn user_sources(w: &World) -> Vec<TrafficSource> {
    w.population
        .locations
        .iter()
        .map(|l| TrafficSource {
            asn: l.asn,
            location: w.internet.world.region(l.region).center,
            load: l.users,
        })
        .collect()
}

#[test]
fn cdn_has_near_zero_unicast_inflation_letters_do_not() {
    let w = world();
    let users = user_sources(&w);
    let ring = w.cdn.largest_ring();
    let cdn = unicast_study(&w.internet.graph, &ring.deployment, &w.model, &users, LastMile::Broadband);
    // The CDN's anycast choice is already the best unicast choice for
    // nearly everyone — Li-et-al inflation ~0.
    assert!(
        cdn.unicast_inflation.intercept(1.0) > 0.9,
        "CDN unicast-inflation intercept {}",
        cdn.unicast_inflation.intercept(1.0)
    );
    // An open-hosting letter shows real unicast-alternative inflation.
    let k = unicast_study(
        &w.internet.graph,
        &w.letters.get(Letter::K).deployment,
        &w.model,
        &users,
        LastMile::Broadband,
    );
    assert!(
        k.unicast_inflation.quantile(0.9) > 10.0,
        "K-root p90 unicast inflation {}",
        k.unicast_inflation.quantile(0.9)
    );
    // §3's caveat, demonstrated: even the best unicast baseline carries
    // residual inflation above the geometric bound.
    assert!(k.baseline_residual.median() > 0.0);
}

#[test]
fn local_sites_serve_someone_and_never_hurt() {
    let w = world();
    let users = user_sources(&w);
    let mut any_served = false;
    for letter in [Letter::D, Letter::E, Letter::J] {
        let entry = w.letters.get(letter);
        if entry.meta.local_sites == 0 {
            continue;
        }
        let study = local_site_study(&w.internet.graph, &entry.deployment, &w.model, &users);
        if study.locally_served_fraction > 0.0 {
            any_served = true;
            // Users on local sites would not be better off without them.
            assert!(
                study.median_saving_ms() > -1.0,
                "{letter}: local sites hurt by {} ms",
                -study.median_saving_ms()
            );
        }
    }
    assert!(any_served, "some letter must serve users from local sites");
}

#[test]
fn ddos_outcome_scales_with_deployment_size() {
    let w = world();
    let users = user_sources(&w);
    let total: f64 = users.iter().map(|u| u.load).sum();
    // A distributed botnet: 25 sources, 1.5× the legitimate volume in
    // total (per-source small enough that a many-site deployment can
    // spread it, like the extddos experiment).
    let attack = AttackSpec {
        sources: users
            .iter()
            .step_by((users.len() / 25).max(1))
            .take(25)
            .map(|u| TrafficSource { load: total * 1.5 / 25.0, ..*u })
            .collect(),
    };
    let b = simulate_attack(
        &w.internet.graph,
        &w.letters.get(Letter::B).deployment,
        &w.model,
        &users,
        &attack,
        total * 0.6,
    );
    let f = simulate_attack(
        &w.internet.graph,
        &w.letters.get(Letter::F).deployment,
        &w.model,
        &users,
        &attack,
        total * 0.6,
    );
    // B root (2 census sites) cannot absorb 1.5× its entire legitimate
    // load; the CDN-partnered letter spreads it across many sites.
    assert!(b.unserved_user_fraction > f.unserved_user_fraction - 1e-9);
    assert!(
        f.withdrawn_sites.len() <= b.withdrawn_sites.len() + f.withdrawn_sites.len(),
        "sanity"
    );
    assert!(
        f.unserved_user_fraction < 0.6,
        "F root should mostly absorb: {}",
        f.unserved_user_fraction
    );
}

#[test]
fn te_optimizer_is_safe_and_bounded() {
    let w = world();
    let users = user_sources(&w);
    let ring = &w.cdn.rings[0];
    let result = optimize_withholds(
        &w.internet.graph,
        &ring.deployment,
        &w.model,
        &users,
        &w.internet.transits,
        3,
        0.05,
    );
    assert!(result.after.mean() <= result.before.mean() + 1e-9);
    assert!(result.withheld.len() <= 3);
    assert!(result.after.total_weight() + 1e-9 >= result.before.total_weight());
    assert!(result.evaluations <= w.internet.transits.len() * 4);
}
