//! Shared world builders for the dynamics integration suites.
//!
//! Each integration-test binary compiles this module privately (via
//! `mod common;`), so any `OnceLock` caching a caller wraps around
//! these constructors stays per-binary — the module dedupes the
//! *source* of the builders, not the built worlds.

#![allow(dead_code)] // each test binary uses the subset it needs

use anycast_dynamics::DynUser;
use cdn::{Cdn, CdnConfig};
use std::sync::{Arc, Mutex, MutexGuard};
use topology::gen::Internet;
use topology::{
    AnycastDeployment, AnycastSite, ExportScope, InternetGenerator, SiteId, TopologyConfig,
};

/// `par::set_threads` is process-global; tests that flip it must not
/// overlap within a binary.
pub fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Uniform-weight dynamic users at every user location of `net`.
pub fn uniform_users(net: &Internet) -> Vec<DynUser> {
    net.user_locations()
        .iter()
        .map(|l| DynUser {
            asn: l.asn,
            location: net.world.region(l.region).center,
            weight: 1.0,
            queries_per_day: 1_000.0,
        })
        .collect()
}

/// A small internet with `n_sites` global anycast sites on sampled
/// hoster ASes — the flat (single-deployment) test world.
pub fn flat_world(
    seed: u64,
    n_sites: usize,
    name: &str,
) -> (Internet, Arc<AnycastDeployment>, Vec<DynUser>) {
    let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
    let hosts = net.sample_hosters(n_sites);
    let sites: Vec<AnycastSite> = hosts
        .iter()
        .enumerate()
        .map(|(i, h)| AnycastSite {
            id: SiteId(i as u32),
            name: format!("s{i}"),
            host: *h,
            location: net.graph.node(*h).pops[0],
            scope: ExportScope::Global,
        })
        .collect();
    let dep = AnycastDeployment::new(name, sites, vec![]);
    let users = uniform_users(&net);
    (net, Arc::new(dep), users)
}

/// A small internet with the five nested CDN rings at scale 0.12
/// (ring sizes 3/6/9/11/13) — the swap/columnar test world.
pub fn cdn_world(seed: u64) -> (Internet, Cdn, Vec<DynUser>) {
    let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
    let cdn = Cdn::build(&mut net, &CdnConfig { scale: 0.12, ..CdnConfig::small() });
    let users = uniform_users(&net);
    (net, cdn, users)
}

/// One swap slot per ring of `cdn`, in ring order.
pub fn swap_set(cdn: &Cdn) -> Vec<Arc<AnycastDeployment>> {
    cdn.rings.iter().map(|r| Arc::clone(&r.deployment)).collect()
}
