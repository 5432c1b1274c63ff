//! Backend-equivalence satellites for the unified Runtime layer:
//!
//! * the real-threads backend reproduces the sequential reference on an
//!   apoa1-like system with positional restraints and under both
//!   thermostats, which the engine's home patches run themselves: Berendsen
//!   to the bit of rescaling between one-step phases, Langevin within the
//!   force tolerance of the sequential integrator drawing the same noise;
//! * the DES and threads backends build identical compute-object sets and
//!   each yields a valid greedy load-balancing assignment from its own
//!   (modeled vs measured) loads;
//! * on the threads backend, the balancer `advance` runs at migration
//!   boundaries repairs a deliberately imbalanced placement using *measured
//!   wall-clock* loads, without moving a bit of the trajectory (the
//!   wall-clock speedup it buys is `tests/lb_wall_clock.rs`).

use namd_repro::lb;
use namd_repro::mdcore::prelude::*;
use namd_repro::mdcore::thermostat::{Berendsen, Langevin};
use namd_repro::molgen;
use namd_repro::namd_core::parallel::ParallelSim;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

/// A small apoa1-like membrane+protein system with protein restraints,
/// evolved a few steps so the restraints are strained (at the build
/// configuration their energy is exactly zero).
fn restrained_apoa1_small() -> System {
    let bench = molgen::apoa1_like().scaled(0.04);
    let mut sys = molgen::SystemBuilder::new(bench.spec().clone()).build_restrained();
    sys.thermalize(300.0, 11);
    let mut sim = Simulator::new(&sys, 1.0);
    for _ in 0..5 {
        sim.step(&mut sys);
    }
    sys
}

#[test]
fn threads_forces_match_sequential_with_restraints() {
    let sys = restrained_apoa1_small();
    assert!(
        !sys.topology.restraints.is_empty(),
        "system must carry restraints"
    );

    let mut f_seq = vec![Vec3::ZERO; sys.n_atoms()];
    let e_seq = namd_repro::mdcore::sim::compute_forces(&sys, &mut f_seq);

    let mut par = ParallelSim::new(sys, 2, 1.0).unwrap();
    let acc = par.compute_forces();

    let tol = 1e-8 * e_seq.potential().abs().max(1.0);
    assert!(
        (acc.potential() - e_seq.potential()).abs() < tol,
        "potential: threads {} vs sequential {}",
        acc.potential(),
        e_seq.potential()
    );
    assert!(
        (acc.e_restraint - e_seq.bonded.restraint).abs()
            < 1e-8 * e_seq.bonded.restraint.abs().max(1.0),
        "restraint energy: threads {} vs sequential {}",
        acc.e_restraint,
        e_seq.bonded.restraint
    );
    assert!(
        acc.e_restraint > 0.0,
        "thermalized system should strain its restraints"
    );
    for (i, (fp, fs)) in par.forces().iter().zip(&f_seq).enumerate() {
        let d = (*fp - *fs).norm();
        assert!(
            d < 1e-9 * (1.0 + fs.norm()),
            "atom {i} force differs by {d}"
        );
    }
}

#[test]
fn threads_trajectory_matches_sequential_under_berendsen() {
    let sys = restrained_apoa1_small();
    let berendsen = Berendsen {
        target_k: 300.0,
        tau_fs: 100.0,
    };

    let mut seq = sys.clone();
    let mut sim = Simulator::new(&seq, 0.5);
    let mut par = ParallelSim::new(sys, 2, 0.5).unwrap();
    par.migrate_every = 1000; // keep the decomposition fixed, like the reference

    for step in 0..6 {
        let e_seq = sim.step(&mut seq);
        berendsen.apply(&mut seq, 0.5);
        let e_par = par.step();
        berendsen.apply(&mut par.system_mut(), 0.5);
        let tol = 1e-7 * e_seq.total().abs().max(1.0);
        assert!(
            (e_par.total() - e_seq.total()).abs() < tol,
            "step {step} energy: threads {} vs sequential {}",
            e_par.total(),
            e_seq.total()
        );
    }
    let par_sys = par.system();
    for i in (0..seq.positions.len()).step_by(23) {
        let d = (par_sys.positions[i] - seq.positions[i]).norm();
        assert!(d < 1e-6, "atom {i} diverged by {d} under Berendsen");
    }
}

#[test]
fn engine_berendsen_is_the_rescale_between_one_step_phases_bit_for_bit() {
    // The barrier takes the temperature in atom order, as
    // `System::temperature` does, and the patches rescale before the second
    // half-kick: the same bits as rescaling the between-phase system after
    // every one-step phase, at the same migration cadence.
    const STEPS: usize = 8;
    const EVERY: usize = 4;
    let sys = restrained_apoa1_small();
    let berendsen = Berendsen {
        target_k: 300.0,
        tau_fs: 100.0,
    };
    let thermostat = Thermostat::Berendsen {
        target_k: 300.0,
        tau_fs: 100.0,
    };
    for pes in [1, 2] {
        let mut par = ParallelSim::new(sys.clone(), pes, 0.5).unwrap();
        par.migrate_every = EVERY;
        let mut by_hand = Vec::new();
        for _ in 0..STEPS {
            by_hand.push(par.step());
            berendsen.apply(&mut par.system_mut(), 0.5);
        }
        let config = thermostat_config(pes, Backend::Threads, thermostat);
        let mut engine = Engine::new(
            sys.clone(),
            SimConfig {
                dt_fs: 0.5,
                ..config
            },
        );
        let phases = advance_to(&mut engine, STEPS, EVERY);
        let records: Vec<StepAcc> = phases
            .iter()
            .flat_map(|p| p.energies[1..].to_vec())
            .collect();
        assert_eq!(records, by_hand, "{pes} PEs: step records differ");
        assert_eq!(
            state_crc(&engine),
            state_crc(par.engine()),
            "{pes} PEs: state differs"
        );
    }
}

#[test]
fn threads_forces_match_along_a_langevin_trajectory() {
    // The home patches run BAOAB with the noise the sequential integrator
    // draws, keyed by (seed, atom, step), so the two co-step: every 4 steps
    // the engine's trajectory matches the sequential one, and the forces it
    // evaluated match the sequential kernels' at its own configuration.
    let sys = restrained_apoa1_small();
    let mut seq = sys.clone();
    let mut langevin = Langevin::new(&seq, 300.0, 0.05, 1.0, 7);
    let thermostat = Thermostat::Langevin {
        target_k: 300.0,
        gamma: 0.05,
        seed: 7,
    };
    let mut engine = Engine::new(
        sys.clone(),
        thermostat_config(2, Backend::Threads, thermostat),
    );

    for sample in 1..=3 {
        let e_seq = *langevin.run(&mut seq, 4).last().unwrap();
        let phases = advance_to(&mut engine, 4 * sample, 20);
        let e_par = *phases.last().unwrap().energies.last().unwrap();
        let tol = 1e-7 * e_seq.total().abs().max(1.0);
        assert!(
            (e_par.total() - e_seq.total()).abs() < tol,
            "sample {sample}: threads {} vs sequential {}",
            e_par.total(),
            e_seq.total()
        );
        let par = engine.system().clone();
        for i in (0..seq.positions.len()).step_by(23) {
            let d = (par.positions[i] - seq.positions[i]).norm();
            assert!(
                d < 1e-6,
                "sample {sample}: atom {i} diverged by {d} under Langevin"
            );
        }
        let mut f_seq = vec![Vec3::ZERO; par.n_atoms()];
        namd_repro::mdcore::sim::compute_forces(&par, &mut f_seq);
        for (i, (fp, fs)) in engine.forces().iter().zip(&f_seq).enumerate() {
            let d = (*fp - *fs).norm();
            assert!(
                d < 1e-9 * (1.0 + fs.norm()),
                "sample {sample} atom {i} differs by {d}"
            );
        }
    }

    // From rest, the noise heats the deck toward the target.
    let mut cold = sys;
    cold.velocities.fill(Vec3::ZERO);
    let mut engine = Engine::new(cold, thermostat_config(2, Backend::Threads, thermostat));
    advance_to(&mut engine, 10, 20);
    let t = engine.system().temperature();
    assert!(t > 100.0, "Langevin failed to heat a cold deck: {t} K");
}

fn real_mode_config(n_pes: usize, backend: Backend) -> SimConfig {
    thermostat_config(n_pes, backend, Thermostat::None)
}

fn thermostat_config(n_pes: usize, backend: Backend, thermostat: Thermostat) -> SimConfig {
    SimConfig::builder(n_pes, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(backend)
        .thermostat(thermostat)
        .build()
        .expect("valid test config")
}

#[test]
fn des_and_threads_build_identical_compute_sets_and_valid_assignments() {
    let sys = restrained_apoa1_small();
    let mut des = Engine::new(sys.clone(), real_mode_config(4, Backend::Des));
    let mut thr = Engine::new(sys, real_mode_config(4, Backend::Threads));

    // Identical compute-object sets: same kinds, patch lists, split ranges,
    // and migratability, in the same order.
    let dc = &des.decomp().computes;
    let tc = &thr.decomp().computes;
    assert_eq!(dc.len(), tc.len(), "compute-object counts differ");
    for (j, (a, b)) in dc.iter().zip(tc.iter()).enumerate() {
        assert_eq!(a.kind, b.kind, "compute {j} kind differs");
        assert_eq!(a.patches, b.patches, "compute {j} patches differ");
        assert_eq!(a.outer, b.outer, "compute {j} split range differs");
        assert_eq!(
            a.migratable, b.migratable,
            "compute {j} migratability differs"
        );
    }
    assert_eq!(des.placement, thr.placement, "static placements differ");

    // Each backend measures its own loads (modeled vs wall-clock) and the
    // greedy strategy produces a complete, in-range assignment from both.
    for (name, engine) in [("des", &mut des), ("threads", &mut thr)] {
        let r = engine.run_phase(2);
        let (problem, map) = engine.lb_problem(&r);
        assert_eq!(problem.computes.len(), map.len());
        assert!(
            problem.computes.iter().map(|c| c.load).sum::<f64>() > 0.0,
            "{name}: measured migratable load must be positive"
        );
        let assignment = lb::greedy(&problem, lb::GreedyParams::default());
        assert_eq!(assignment.len(), map.len(), "{name}: assignment incomplete");
        assert!(
            assignment.iter().all(|&pe| pe < engine.config.n_pes),
            "{name}: assignment out of PE range"
        );
        let moved = engine.apply_assignment(&map, &assignment);
        assert!(moved <= map.len());
    }
}

#[test]
fn per_step_energies_are_bit_identical_across_backends() {
    // Energies ride the force messages and are summed as integers, so every
    // backend must report the same bits — `Debug` prints each f64 in its
    // shortest round-trip form: equal strings, equal bits.
    let sys = restrained_apoa1_small();
    let energies_on = |backend| {
        let r = Engine::new(sys.clone(), real_mode_config(2, backend)).run_phase(4);
        assert_eq!(r.energies.len(), 4);
        format!("{:?}", r.energies)
    };
    let des = energies_on(Backend::Des);
    assert!(
        energies_on(Backend::Threads) == des,
        "threads energies differ from des"
    );
    assert!(
        energies_on(Backend::Proc) == des,
        "proc energies differ from des"
    );
}

#[test]
fn des_makespan_and_message_count_ignore_payloads() {
    // Modeled time is charged from declared work and modeled bytes, never
    // from what a payload carries: these are the values this deck produced
    // when co-located ready messages and done signals were still empty.
    let r = Engine::new(restrained_apoa1_small(), real_mode_config(2, Backend::Des)).run_phase(4);
    assert_eq!(
        (r.total_time.to_bits(), r.stats.msgs_sent),
        (4595382563603875143, 1264)
    );
}

/// CRC-64 over the bit patterns of a run of vectors and scalars.
fn bits_crc(vectors: &[&[Vec3]], scalars: &[f64]) -> u64 {
    let mut bytes = Vec::new();
    for v in vectors.iter().flat_map(|vs| vs.iter()) {
        for c in [v.x, v.y, v.z] {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    for s in scalars {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    namd_repro::ckpt::crc64(&bytes)
}

/// Chain `advance` to global step `target` the way `ParallelSim::run` does,
/// rebuilding — and so rebalancing — every `migrate_every` steps; returns
/// the phases.
fn advance_to(engine: &mut Engine, target: usize, migrate_every: usize) -> Vec<PhaseResult> {
    let mut phases = Vec::new();
    while engine.steps_done < target {
        match advance(engine, target, migrate_every, None, false).expect("no fault plan") {
            Advanced::Phase { phase, .. } => phases.push(phase),
            Advanced::RolledBack { crash, .. } => panic!("unexpected crash: {crash}"),
        }
    }
    phases
}

fn state_crc(engine: &Engine) -> u64 {
    let sys = engine.system();
    bits_crc(&[&sys.positions, &sys.velocities], &[])
}

#[test]
fn forces_and_trajectory_bits_match_the_divide_and_round_minimum_image() {
    // The minimum-image fast path and the binned candidate builders claim to
    // change no bit of any output: the CRC of one full force evaluation
    // (force bits, then e_lj and e_elec) and the CRC of positions ++
    // velocities after one 20-step run. The constants were produced at one
    // PE when forces and energies became fixed-point integer sums, the one
    // change meant to move these bits (the `c − L·round(c/L)` distance test
    // and the plain double-loop lists gave the previous pair). The sums are
    // exact whatever the order or grouping, so every PE count, backend and
    // placement — here a scrambled one, which a timing-driven balancer could
    // produce — lands on the 1-PE bits.
    let witness = |backend, pes: usize, scramble: bool| {
        let mut engine = Engine::new(restrained_apoa1_small(), real_mode_config(pes, backend));
        if scramble {
            for (j, pe) in engine.placement.iter_mut().enumerate() {
                *pe = (j * 7919 + 3) % pes;
            }
        }
        let acc = engine.run_phase(1).energies[0];
        let eval = bits_crc(&[&engine.forces()], &[acc.e_lj, acc.e_elec]);
        advance_to(&mut engine, 20, 20);
        (eval, state_crc(&engine))
    };
    let one_pe = (2680125768025256344, 1329983407366604354);
    assert_eq!(witness(Backend::Threads, 1, false), one_pe, "1 PE");
    assert_eq!(witness(Backend::Threads, 2, false), one_pe, "2 PEs");
    assert_eq!(
        witness(Backend::Des, 3, true),
        one_pe,
        "DES, 3 PEs, scrambled"
    );
    assert_eq!(
        witness(Backend::Proc, 2, true),
        one_pe,
        "proc, 2 PEs, scrambled"
    );
}

#[test]
fn measured_loads_repair_an_imbalanced_placement_on_threads() {
    const EVERY: usize = 3;
    let sys = restrained_apoa1_small();
    let mut engine = Engine::new(sys.clone(), real_mode_config(2, Backend::Threads));

    // Deliberately pile every migratable compute onto PE 0.
    let migratable: Vec<usize> = engine
        .decomp()
        .computes
        .iter()
        .enumerate()
        .filter_map(|(j, c)| c.migratable.then_some(j))
        .collect();
    for &j in &migratable {
        engine.placement[j] = 0;
    }
    let piled = engine.placement.clone();

    // Three phases, two migration boundaries: the balancer runs inside
    // `advance`, on the wall-clock loads each phase measured.
    let phases = advance_to(&mut engine, 3 * EVERY, EVERY);
    assert_eq!(phases.len(), 3);
    assert_ne!(
        piled, engine.placement,
        "the balancer should move computes off PE 0"
    );
    assert!(
        migratable.iter().any(|&j| engine.placement[j] == 1),
        "no migratable compute left PE 0"
    );

    let imbalance = |stats: &namd_repro::charmrt::SummaryStats| {
        let max = stats.pe_busy.iter().cloned().fold(0.0f64, f64::max);
        let avg = stats.pe_busy.iter().sum::<f64>() / stats.pe_busy.len() as f64;
        max / avg.max(1e-12)
    };
    let before = imbalance(&phases[0].stats);
    let after = imbalance(&phases[2].stats);
    assert!(
        after < before,
        "measured imbalance should drop: {before:.3} -> {after:.3}"
    );
    // That the balanced placement is also faster in wall-clock terms is
    // `tests/lb_wall_clock.rs`'s claim: a step time is only a measurement
    // in a binary whose one test has the cores to itself.

    // Moving computes moved no bit.
    let mut one_pe = Engine::new(sys, real_mode_config(1, Backend::Threads));
    advance_to(&mut one_pe, 3 * EVERY, EVERY);
    assert_eq!(
        state_crc(&engine),
        state_crc(&one_pe),
        "rebalanced state differs from 1 PE"
    );
}
