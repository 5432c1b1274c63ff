//! The reproduction's central correctness invariant: the sequential
//! simulator, the DES engine in Real force mode, and the real-threads
//! backend all compute the same physics.

use namd_repro::machine::presets;
use namd_repro::mdcore::prelude::*;
use namd_repro::molgen::{SystemBuilder, SystemSpec};
use namd_repro::namd_core::parallel::ParallelSim;
use namd_repro::namd_core::prelude::*;

fn test_system() -> System {
    let mut sys = SystemBuilder::new(SystemSpec {
        name: "equiv",
        box_lengths: Vec3::new(30.0, 30.0, 30.0),
        target_atoms: 2_400,
        protein_chains: 1,
        protein_chain_len: 50,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 77,
    })
    .build();
    sys.thermalize(200.0, 77);
    sys
}

#[test]
fn three_backends_agree_on_forces() {
    let sys = test_system();

    // Backend 1: sequential cell-list reference.
    let mut f_seq = vec![Vec3::ZERO; sys.n_atoms()];
    let e_seq = namd_repro::mdcore::sim::compute_forces(&sys, &mut f_seq);

    // Backend 2: worker threads over compute objects.
    let mut par = ParallelSim::new(sys.clone(), 2, 1.0).unwrap();
    let acc_par = par.compute_forces();

    // Backend 3: the DES in Real mode. Forces are zeroed after integration,
    // so compare via the step-0 potential energy instead.
    let cfg = SimConfig::builder(3, presets::ideal())
        .force_mode(ForceMode::Real)
        .build()
        .unwrap();
    let mut engine = Engine::new(sys.clone(), cfg);
    let r = engine.run_phase(1);

    let tol = 1e-8 * e_seq.potential().abs().max(1.0);
    assert!(
        (acc_par.potential() - e_seq.potential()).abs() < tol,
        "threads potential {} vs sequential {}",
        acc_par.potential(),
        e_seq.potential()
    );
    assert!(
        (r.energies[0].potential() - e_seq.potential()).abs() < tol,
        "DES potential {} vs sequential {}",
        r.energies[0].potential(),
        e_seq.potential()
    );
    // Pair counts identical (same cutoff semantics everywhere).
    assert_eq!(acc_par.pairs, e_seq.nonbonded.pairs);
    assert_eq!(r.energies[0].pairs, e_seq.nonbonded.pairs);

    // Per-atom forces: threads vs sequential.
    for (i, (fp, fs)) in par.forces().iter().zip(&f_seq).enumerate() {
        let d = (*fp - *fs).norm();
        assert!(d < 1e-9 * (1.0 + fs.norm()), "atom {i} differs by {d}");
    }
}

#[test]
fn trajectories_track_for_several_steps() {
    let sys = test_system();

    // Sequential trajectory, 4 updates.
    let mut seq = sys.clone();
    let mut sim = Simulator::new(&seq, 0.5);
    for _ in 0..4 {
        sim.step(&mut seq);
    }

    // DES-Real trajectory: 5 force evaluations = 4 position updates.
    let cfg = SimConfig::builder(4, presets::ideal())
        .force_mode(ForceMode::Real)
        .dt_fs(0.5)
        .build()
        .unwrap();
    let mut engine = Engine::new(sys.clone(), cfg);
    engine.run_phase(5);
    let des_pos = engine.system().positions.clone();

    // Threads trajectory.
    let mut par = ParallelSim::new(sys, 2, 0.5).unwrap();
    par.migrate_every = 1000; // keep the decomposition fixed, like the DES
    par.run(4);

    for i in (0..seq.positions.len()).step_by(37) {
        let d_des = (des_pos[i] - seq.positions[i]).norm();
        let d_par = (par.system().positions[i] - seq.positions[i]).norm();
        assert!(d_des < 1e-6, "DES atom {i} diverged by {d_des}");
        assert!(d_par < 1e-6, "threads atom {i} diverged by {d_par}");
    }
}

#[test]
fn all_backends_conserve_energy() {
    let sys = test_system();
    let drift = |energies: &[f64]| -> f64 {
        let e0 = energies[1];
        let e1 = *energies.last().unwrap();
        (e1 - e0).abs() / e0.abs().max(1.0)
    };

    // Sequential.
    let mut seq = sys.clone();
    let mut sim = Simulator::new(&seq, 0.5);
    let es: Vec<f64> = (0..25).map(|_| sim.step(&mut seq).total()).collect();
    assert!(drift(&es) < 1e-2, "sequential drift {}", drift(&es));

    // DES Real mode.
    let cfg = SimConfig::builder(4, presets::ideal())
        .force_mode(ForceMode::Real)
        .dt_fs(0.5)
        .build()
        .unwrap();
    let mut engine = Engine::new(sys.clone(), cfg);
    let r = engine.run_phase(25);
    let ed: Vec<f64> = r.energies.iter().map(|e| e.total()).collect();
    assert!(drift(&ed) < 1e-2, "DES drift {}", drift(&ed));

    // Threads backend with live atom migration.
    let mut par = ParallelSim::new(sys, 2, 0.5).unwrap();
    par.migrate_every = 8;
    let ep: Vec<f64> = par.run(25).iter().map(|e| e.total()).collect();
    assert!(drift(&ep) < 1e-2, "threads drift {}", drift(&ep));
}
