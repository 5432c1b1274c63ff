//! The measurement-based load-balancing story of §3.2, made visible.
//!
//! A deliberately heterogeneous system (a dense lipid slab through a water
//! box) is run on 64 virtual PEs. The demo prints what each stage of the
//! pipeline does: the initial static (RCB + upstream) placement, the greedy
//! remap, and the refinement pass — step time, max/avg imbalance, migrations
//! and proxy counts at every stage, plus a comparison with the ablation
//! strategies.
//!
//! ```sh
//! cargo run --release --example load_balance_demo
//! ```

use namd_repro::mdcore::prelude::Vec3;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

/// Phase `k` of three 3-step phases through the phase driver; its
/// boundary applies the next stage's placement.
fn phase(engine: &mut Engine, k: usize) -> PhaseResult {
    match advance(engine, 3 * k, 3, Some(9), false).expect("no fault plan") {
        Advanced::Phase { phase, .. } => phase,
        Advanced::RolledBack { .. } => unreachable!("no rollback point is kept"),
    }
}

fn main() {
    // A slab system: the middle third of the box is ~30% denser than the
    // surrounding water, so spatial patches have very uneven loads.
    let system = namd_repro::molgen::SystemBuilder::new(namd_repro::molgen::SystemSpec {
        name: "slab-demo",
        box_lengths: Vec3::new(52.0, 52.0, 52.0),
        target_atoms: 12_000,
        protein_chains: 2,
        protein_chain_len: 80,
        lipid_slab: Some((18.0, 32.0)),
        cutoff: 10.0,
        seed: 7,
    })
    .build();
    let machine = namd_repro::machine::presets::asci_red();
    let n_pes = 64;

    let cfg = SimConfig::builder(n_pes, machine).build().unwrap();
    let mut engine = Engine::new(system.clone(), cfg);
    // The audit log records every balancing decision with its migrations.
    engine.set_metrics(Some(MetricsRegistry::in_memory()));
    println!(
        "{} atoms in {} patches, {} compute objects, {n_pes} PEs\n",
        system.n_atoms(),
        engine.decomp().grid.n_patches(),
        engine.decomp().computes.len()
    );

    println!("stage                       ms/step   max/avg   proxies  migrated");
    let stage = |name: &str, r: &PhaseResult, proxies: usize, moved: usize| {
        let loads = &r.stats.pe_busy;
        let avg: f64 = loads.iter().sum::<f64>() / loads.len() as f64;
        let max = loads.iter().copied().fold(0.0, f64::max);
        println!(
            "{name:<27} {:>7.2} {:>9.2} {proxies:>9} {moved:>9}",
            r.time_per_step * 1e3,
            if avg > 0.0 { max / avg } else { 1.0 },
        );
    };

    // The initial static placement is measured; the first boundary applies
    // greedy on those loads, the second refines on re-measured ones.
    let mut moved = 0;
    for (k, name) in
        [(1, "initial static (RCB)"), (2, "greedy (measured loads)"), (3, "refine (re-measured)")]
    {
        let proxies = engine.proxy_count();
        let r = phase(&mut engine, k);
        stage(name, &r, proxies, moved);
        let audits = &engine.metrics.as_ref().expect("registry attached").lb_audits;
        moved = audits.last().map_or(0, |a| a.migrations.len());
    }

    println!("\nfor contrast, the ablation strategies:");
    for (name, strat) in [
        ("random", LbStrategy::Random),
        ("round-robin", LbStrategy::RoundRobin),
        ("greedy, proxy-unaware", LbStrategy::GreedyNoProxy),
    ] {
        let cfg = SimConfig::builder(n_pes, machine).lb(strat).build().unwrap();
        let mut e = Engine::new(system.clone(), cfg);
        let r = (1..=3).map(|k| phase(&mut e, k)).last().unwrap();
        stage(name, &r, e.proxy_count(), 0);
    }
}
