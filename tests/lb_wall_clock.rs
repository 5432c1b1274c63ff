//! The wall-clock half of the measured-load balancing claim: on the threads
//! backend, a placement that piles every migratable compute onto PE 0 is
//! repaired by the balancer `advance` runs at migration boundaries, and the
//! repaired placement steps faster than the piled one.
//!
//! A step time is a measurement only when nothing else competes for the
//! cores, so this claim lives alone in its own test binary (cargo runs test
//! binaries one at a time) and measures phases long enough that a phase's
//! fixed cost does not decide the comparison. The imbalance and bit-identity
//! halves stay in `tests/backend_equivalence.rs`.

use namd_repro::molgen;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

#[test]
fn balanced_placement_steps_faster_than_the_piled_one_on_threads() {
    // With one core the two placements tie; the claim needs a second.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        return;
    }
    const EVERY: usize = 8;
    let bench = molgen::apoa1_like().scaled(0.04);
    let mut sys = molgen::SystemBuilder::new(bench.spec().clone()).build_restrained();
    sys.thermalize(300.0, 11);
    let cfg = SimConfig::builder(2, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(Backend::Threads)
        .build()
        .expect("valid test config");
    let mut engine = Engine::new(sys, cfg);
    let piled: Vec<usize> = (0..engine.decomp().computes.len())
        .filter(|&j| engine.decomp().computes[j].migratable)
        .collect();
    for &j in &piled {
        engine.placement[j] = 0;
    }

    // Three phases, two migration boundaries: the first phase runs piled,
    // the third on the placement the balancer chose from measured loads.
    let mut phases = Vec::new();
    while engine.steps_done < 3 * EVERY {
        match advance(&mut engine, 3 * EVERY, EVERY, None, false).expect("no fault plan") {
            Advanced::Phase { phase, .. } => phases.push(phase),
            Advanced::RolledBack { crash, .. } => panic!("unexpected crash: {crash}"),
        }
    }
    assert_eq!(phases.len(), 3);
    assert!(piled.iter().any(|&j| engine.placement[j] == 1), "no migratable compute left PE 0");
    assert!(
        phases[2].time_per_step < phases[0].time_per_step,
        "balanced step time {:.6}s should beat imbalanced {:.6}s",
        phases[2].time_per_step,
        phases[0].time_per_step
    );
}
