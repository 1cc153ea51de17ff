//! Quickstart: build a small world, route one user to both systems, and
//! regenerate one paper figure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use anycast_context::topology::{Catchment, RouteCache};
use anycast_context::{experiments, World, WorldConfig};
use std::sync::Arc;

fn main() {
    // 1. Build a deterministic world: synthetic Internet, 13 root
    //    letters, a 5-ring CDN, users, and every measurement dataset.
    let world = World::build(&WorldConfig::small(42));
    println!(
        "world: {} ASes, {} regions, {:.1e} users, {} root sites, {} CDN front-ends",
        world.internet.graph.len(),
        world.internet.world.regions().len(),
        world.population.total_users(),
        world.letters.total_sites(),
        world.cdn.largest_ring().size,
    );

    // 2. Route one user location to C root and to the largest CDN ring.
    let loc = world.internet.user_locations()[0];
    let user_point = world.internet.world.region(loc.region).center;
    let mut cache = RouteCache::new();

    let c_root = &world.letters.get(anycast_context::dns::Letter::C).deployment;
    let c = Catchment::compute(&world.internet.graph, Arc::clone(c_root), &mut cache);
    if let Some(a) = c.assign(loc.asn, &user_point) {
        println!(
            "\n{} from {} → site {} via {} ASes, {:.0} km routed \
             (nearest site {:.0} km away)",
            c_root.name,
            loc.asn,
            a.site,
            a.as_path.len(),
            a.path_km,
            c_root.nearest_global_site_km(&user_point),
        );
    }

    let ring = world.cdn.largest_ring();
    let r = Catchment::compute(&world.internet.graph, Arc::clone(&ring.deployment), &mut cache);
    if let Some(a) = r.assign(loc.asn, &user_point) {
        println!(
            "{} from {} → front-end {} via {} ASes, {:.0} km routed \
             (nearest front-end {:.0} km away)",
            ring.name,
            loc.asn,
            a.site,
            a.as_path.len(),
            a.path_km,
            ring.deployment.nearest_global_site_km(&user_point),
        );
    }

    // 3. Regenerate Fig. 3: root queries per user per day.
    println!();
    for artifact in experiments::run("fig3", &world) {
        println!("{}", artifact.render_text());
    }
}
