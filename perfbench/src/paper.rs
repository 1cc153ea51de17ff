//! `paper`: every static table and figure, id by id, through
//! `experiments::run` — what a reader regenerates. Exercises topology,
//! BGP and the route cache, DNS, the CDN and the analysis pipeline, and
//! touches no dynamics code.

use crate::trace::{Counters, Digest, Trace};
use crate::{Pass, Workload};
use anycast_core::experiments::{self, ALL_IDS};
use anycast_core::World;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The per-layer time bucket of an id: its `experiments/*.rs` module.
fn module_metric(id: &str) -> &'static str {
    match id {
        "fig2" | "fig3" | "tab4" | "fig8" | "fig9" | "fig10" | "fig11" => "core.exp.roots_s",
        "fig4" | "fig5" | "appc" | "fig14" => "core.exp.cdn_s",
        "fig6" | "fig7" => "core.exp.paths_s",
        "tab5" | "fig12" => "core.exp.local_s",
        "tab1" | "tab2" => "core.exp.tables_s",
        _ => "core.exp.extensions_s",
    }
}

/// The paper workload over one world.
pub struct Paper<'w> {
    world: &'w World,
    /// Indices into `ALL_IDS`, in the order they run.
    order: Vec<usize>,
}

impl<'w> Paper<'w> {
    /// Selects the ids that are not dynamics experiments, in an order
    /// shuffled by `seed`: the outputs must not depend on it.
    pub fn new(world: &'w World, seed: u64) -> Self {
        let mut order: Vec<usize> = (0..ALL_IDS.len())
            .filter(|&i| !ALL_IDS[i].starts_with("dyn"))
            .collect();
        for i in (1..order.len()).rev() {
            let j = (par::seed_for(seed, i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Self { world, order }
    }
}

impl Workload for Paper<'_> {
    /// Work unit: artifact items. An id fails when it panics or yields
    /// no artifact or an empty one.
    fn pass(&mut self, mut trace: Option<&mut Trace>) -> Pass {
        let counters = Counters::read();
        let mut pass = Pass::default();
        let mut digests = vec![0; ALL_IDS.len()];
        for &i in &self.order {
            let id = ALL_IDS[i];
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| experiments::run(id, self.world)));
            let secs = t.elapsed().as_secs_f64();
            pass.units.push(secs);
            pass.attempted += 1;
            if let Some(trace) = trace.as_deref_mut() {
                trace.add(module_metric(id), secs);
            }
            let mut digest = Digest::default();
            digest.str(id);
            match out {
                Ok(arts) if !arts.is_empty() && arts.iter().all(|a| a.item_count() > 0) => {
                    for a in &arts {
                        pass.work += a.item_count();
                        digest.str(&a.render_csv());
                    }
                }
                _ => pass.failed += 1,
            }
            digests[i] = digest.value();
        }
        if let Some(trace) = trace {
            counters.record_layers(trace);
        }
        // Folded in registry order, so every seed's digest is the same.
        let mut digest = Digest::default();
        for d in digests {
            digest.bytes(&d.to_le_bytes());
        }
        pass.digest = digest.value();
        pass
    }
}
