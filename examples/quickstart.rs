//! Quickstart: build a small solvated system, run real sequential MD, then
//! run the same system through the parallel engine on 8 virtual processors.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use namd_repro::mdcore::prelude::*;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

fn main() {
    // 1. A 3,000-atom water box with one protein-like chain.
    let mut system = namd_repro::molgen::SystemBuilder::new(namd_repro::molgen::SystemSpec {
        name: "quickstart",
        box_lengths: Vec3::new(34.0, 34.0, 34.0),
        target_atoms: 3_000,
        protein_chains: 1,
        protein_chain_len: 48,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 42,
    })
    .build();
    system.thermalize(300.0, 42);
    println!(
        "built {} atoms, {} bonds, {} angles, {} dihedrals",
        system.n_atoms(),
        system.topology.bonds.len(),
        system.topology.angles.len(),
        system.topology.dihedrals.len()
    );

    // 2. Sequential NVE dynamics: velocity Verlet at 1 fs.
    let mut sim = Simulator::new(&system, 1.0);
    println!("\nsequential MD (10 steps):");
    println!("step   potential       kinetic         total        temp(K)");
    for step in 0..10 {
        let e = sim.step(&mut system);
        println!(
            "{step:>4} {:>12.2} {:>12.2} {:>12.2} {:>10.1}",
            e.potential(),
            e.kinetic,
            e.total(),
            system.temperature()
        );
    }

    // 3. The same system on the parallel engine: 8 virtual PEs of an
    //    ASCI-Red-class machine, full measurement-based load balancing.
    let machine = namd_repro::machine::presets::asci_red();
    let config = SimConfig::new(8, machine);
    let mut engine = Engine::new(system, config);
    println!(
        "\nparallel decomposition: {} patches, {} compute objects",
        engine.decomp().grid.n_patches(),
        engine.decomp().computes.len()
    );
    // Three 3-step phases: the static placement is measured, the greedy
    // strategy runs at step 3 and refinement at step 6.
    println!("load-balancing pipeline:");
    let mut time_per_step = 0.0;
    for k in 1..=3 {
        let Advanced::Phase { phase, .. } = advance(&mut engine, 3 * k, 3, Some(9), false)
            .expect("no fault plan")
        else {
            unreachable!("no rollback point is kept")
        };
        println!(
            "  phase {}: {:.2} ms/step (imbalance max-avg {:.2} ms)",
            k - 1,
            phase.time_per_step * 1e3,
            phase.stats.imbalance() / phase.n_steps as f64 * 1e3
        );
        time_per_step = phase.time_per_step;
    }
    println!(
        "speedup on 8 virtual PEs: {:.1}x",
        engine.decomp().ideal_step_time(&machine) / time_per_step
    );
}
