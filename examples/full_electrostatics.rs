//! Full electrostatics with real physics: Ewald + from-scratch FFT-based
//! particle-mesh Ewald, plus r-RESPA multiple timestepping.
//!
//! 1. Reproduces the Madelung constant of rock salt with the direct Ewald
//!    sum (the textbook correctness check).
//! 2. Runs NVE dynamics on a solvated system on the parallel engine
//!    (`Engine` + `recovery::advance`, 2 PEs), whose PME slab objects
//!    evaluate the reciprocal sum: every step, against r-RESPA with the
//!    reciprocal sum every 4th step applied 4-fold.
//!
//! ```sh
//! cargo run --release --example full_electrostatics
//! ```

use namd_repro::mdcore::prelude::*;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};
use namd_repro::pme::ewald::{ewald_direct, EwaldParams};

fn madelung() {
    // 2×2×2 unit cells of NaCl.
    let a = 5.64_f64;
    let cell = Cell::cube(2.0 * a);
    let mut pos = Vec::new();
    let mut q = Vec::new();
    for ix in 0..4 {
        for iy in 0..4 {
            for iz in 0..4 {
                pos.push(Vec3::new(ix as f64, iy as f64, iz as f64) * (a / 2.0));
                q.push(if (ix + iy + iz) % 2 == 0 { 1.0 } else { -1.0 });
            }
        }
    }
    let ex = Exclusions::none(pos.len());
    let params = EwaldParams::auto(&cell, 5.6, 1e-8);
    let mut f = vec![Vec3::ZERO; pos.len()];
    let e = ewald_direct(&cell, &pos, &q, &ex, &params, &mut f);
    let per_ion = e.total() / pos.len() as f64;
    // E/ion = −M·C/(2·r_nn)
    let m = -per_ion * 2.0 * (a / 2.0) / units::COULOMB;
    println!("NaCl Madelung constant: computed {m:.6}, literature 1.747565");
}

fn dynamics() {
    // A small water box in Ewald mode.
    let beta = 0.35;
    let mut system = namd_repro::molgen::SystemBuilder::new(namd_repro::molgen::SystemSpec {
        name: "pme-demo",
        box_lengths: Vec3::new(24.0, 24.0, 24.0),
        target_atoms: 1_200,
        protein_chains: 0,
        protein_chain_len: 0,
        lipid_slab: None,
        cutoff: 9.0,
        seed: 4,
    })
    .build();
    system.forcefield = system.forcefield.clone().with_ewald(beta);
    system.thermalize(300.0, 4);

    let mesh = namd_repro::pme::mesh::PmeParams::for_cell(&system.cell, beta, 1.0).mesh;
    println!("\n{} atoms, Ewald β = {beta}, cutoff 9 Å, mesh {mesh:?}", system.n_atoms());
    const OUTER: usize = 20;
    for (label, k) in [("velocity Verlet (PME every step)", 1), ("r-RESPA (PME every 4th)", 4)] {
        let pme = PmeSimConfig { mesh_spacing: 1.0, every: k, slabs: 4 };
        let cfg = SimConfig::builder(2, namd_repro::machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .dt_fs(0.5)
            .pme(Some(pme))
            .build()
            .expect("a valid engine configuration");
        let mut engine = Engine::new(system.clone(), cfg);
        // One record per outer step: those at multiples of k carry the
        // reciprocal energy.
        let mut outer = Vec::new();
        let start = std::time::Instant::now();
        while engine.steps_done < OUTER * k {
            let done = engine.steps_done;
            match advance(&mut engine, OUTER * k, 20, Some(OUTER * k), false).expect("no faults") {
                Advanced::Phase { phase, updates } => {
                    let at_outer = (1..=updates).filter(|j| (done + j).is_multiple_of(k));
                    outer.extend(at_outer.map(|j| phase.energies[j]));
                }
                Advanced::RolledBack { .. } => unreachable!("no kills in the plan"),
            }
        }
        let wall = start.elapsed();
        let (e0, e1) = (outer[1].total(), outer[OUTER - 1].total());
        let last = &outer[OUTER - 1];
        let bonded = last.e_bond + last.e_angle + last.e_dihedral + last.e_improper;
        println!("\n{label}:");
        println!(
            "  E components: bonded {bonded:.1}  LJ {:.1}  elec (real + recip + corr) {:.1}",
            last.e_lj, last.e_elec
        );
        println!(
            "  drift over {OUTER} outer steps: {:.2e} relative   ({wall:.2?} wall)",
            (e1 - e0).abs() / e0.abs()
        );
    }
}

fn main() {
    madelung();
    dynamics();
}
