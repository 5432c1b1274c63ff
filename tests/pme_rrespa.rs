//! Real-mode PME at a cadence on the engine: `PmeSimConfig::every = k`
//! evaluates the reciprocal sum on the global steps that are multiples of k
//! and applies its force k-fold there (r-RESPA's impulse); bonded, LJ and
//! real-space forces run every step. This is what `namd-rs run` with
//! `pme on` and `mtsFrequency k` executes.
//!
//! * energy conservation at k = 1 and k = 4, and k = 2 tracking k = 1 at a
//!   small timestep;
//! * equality, to rounding, with a co-stepped sequential impulse integrator
//!   built from `pme::md::FullElectrostatics`;
//! * bit-identity across target slicing, backends and PE counts (the
//!   cadence is keyed on the global step), and under both thermostats.

use namd_repro::mdcore::prelude::*;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};
use namd_repro::pme::md::FullElectrostatics;

/// A neutral lattice of waters in Ewald mode.
fn ewald_water(n_side: usize, beta: f64) -> System {
    let mut topo = Topology::default();
    let mut pos = Vec::new();
    let spacing = 3.2;
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let base = Vec3::new(
                    ix as f64 * spacing + 0.6,
                    iy as f64 * spacing + 0.6,
                    iz as f64 * spacing + 0.6,
                );
                push_water(&mut topo, 0, 1);
                pos.push(base);
                pos.push(base + Vec3::new(0.9572, 0.0, 0.0));
                pos.push(base + Vec3::new(-0.2399, 0.9266, 0.0));
            }
        }
    }
    let l = n_side as f64 * spacing;
    let ff = ForceField::biomolecular((l / 2.0 - 0.1).min(9.0)).with_ewald(beta);
    System::new(topo, ff, Cell::cube(l), pos)
}

/// A Real-mode engine with PME every `every` steps.
fn rrespa_engine(
    sys: &System,
    n_pes: usize,
    backend: Backend,
    dt_fs: f64,
    mesh_spacing: f64,
    every: usize,
    thermostat: Thermostat,
) -> Engine {
    let cfg = SimConfig::builder(n_pes, namd_repro::machine::presets::ideal())
        .force_mode(ForceMode::Real)
        .backend(backend)
        .dt_fs(dt_fs)
        .thermostat(thermostat)
        .pme(Some(PmeSimConfig {
            every,
            slabs: 2,
            mesh_spacing,
        }))
        .build()
        .unwrap();
    Engine::new(sys.clone(), cfg)
}

/// Drive `engine` through `recovery::advance` to each of `targets` in turn,
/// rebuilding every `migrate_every` steps; returns every update's energy
/// record (record `n` is the state after `n + 1` updates).
fn drive(engine: &mut Engine, targets: &[usize], migrate_every: usize) -> Vec<StepAcc> {
    let last = *targets.last().unwrap();
    let mut records = Vec::new();
    for &target in targets {
        while engine.steps_done < target {
            match advance(engine, target, migrate_every, Some(last), false).unwrap() {
                Advanced::Phase { phase, updates } => {
                    records.extend_from_slice(&phase.energies[1..=updates])
                }
                Advanced::RolledBack { .. } => unreachable!("no kills in the plan"),
            }
        }
    }
    records
}

/// Positions and velocities as bits.
fn state_bits(engine: &Engine) -> Vec<u64> {
    let sys = engine.system();
    let vectors = sys.positions.iter().chain(&sys.velocities);
    vectors
        .flat_map(|v| [v.x, v.y, v.z])
        .map(f64::to_bits)
        .collect()
}

/// Relative total-energy drift between the second and the last outer step:
/// the records at multiples of `every` updates, the ones with a PME round.
fn outer_drift(records: &[StepAcc], every: usize) -> (f64, f64, f64) {
    let outer: Vec<f64> = records
        .iter()
        .skip(every - 1)
        .step_by(every)
        .map(|e| e.total())
        .collect();
    let (e0, e1) = (outer[1], *outer.last().unwrap());
    ((e1 - e0).abs() / e0.abs().max(1.0), e0, e1)
}

#[test]
fn rrespa_every_1_conserves_energy() {
    let mut sys = ewald_water(3, 0.6);
    sys.thermalize(100.0, 3);
    let none = Thermostat::None;
    let mut engine = rrespa_engine(&sys, 1, Backend::Des, 0.5, 0.7, 1, none);
    let (drift, e0, e1) = outer_drift(&drive(&mut engine, &[30], 20), 1);
    assert!(drift < 1e-2, "every=1 drift {drift}: {e0} -> {e1}");
}

#[test]
fn rrespa_every_4_conserves_energy() {
    let mut sys = ewald_water(3, 0.6);
    sys.thermalize(100.0, 7);
    let none = Thermostat::None;
    let mut engine = rrespa_engine(&sys, 1, Backend::Des, 0.25, 0.7, 4, none);
    // 30 outer steps of 4 timesteps each.
    let (drift, e0, e1) = outer_drift(&drive(&mut engine, &[120], 20), 4);
    assert!(drift < 2e-2, "every=4 drift {drift}: {e0} -> {e1}");
}

#[test]
fn rrespa_every_2_tracks_every_1_at_a_small_timestep() {
    let mut sys = ewald_water(2, 0.7);
    sys.thermalize(50.0, 9);
    let none = Thermostat::None;
    let run = |every| {
        let des = Backend::Des;
        let mut engine = rrespa_engine(&sys, 1, des, 0.25, 0.5, every, none);
        drive(&mut engine, &[8], 20);
        let positions = engine.system().positions.clone();
        positions
    };
    let (a, b) = (run(1), run(2));
    let max_d = a
        .iter()
        .zip(&b)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0, f64::max);
    assert!(max_d < 5e-3, "every=2 deviates {max_d} Å from every=1");
}

/// The engine's r-RESPA against a co-stepped sequential impulse integrator
/// built from `pme::md::FullElectrostatics`: velocity Verlet on the
/// short-range force plus, on steps that are multiples of k, k times the
/// long-range one. Equal to rounding (the engine sums per-compute forces in
/// fixed point).
#[test]
fn rrespa_matches_a_sequential_impulse_reference() {
    const K: usize = 2;
    const UPDATES: usize = 10;
    let mut sys = ewald_water(3, 0.6);
    sys.thermalize(150.0, 11);
    let (dt, spacing) = (0.5, 0.7);
    let none = Thermostat::None;
    let mut engine = rrespa_engine(&sys, 2, Backend::Des, dt, spacing, K, none);
    drive(&mut engine, &[UPDATES], 4);

    let mut full = FullElectrostatics::new(&sys, spacing);
    let masses = sys.masses();
    let n = sys.n_atoms();
    let mut force = |sys: &System, step: usize| {
        let mut f = vec![Vec3::ZERO; n];
        full.short_range(sys, &mut f);
        if step.is_multiple_of(K) {
            let mut long = vec![Vec3::ZERO; n];
            full.long_range(sys, &mut long);
            for (f, l) in f.iter_mut().zip(&long) {
                *f += *l * K as f64;
            }
        }
        f
    };
    let mut f = force(&sys, 0);
    for step in 0..UPDATES {
        for i in 0..n {
            sys.velocities[i] += f[i] * (units::ACCEL / masses[i]) * (0.5 * dt);
            sys.positions[i] = sys.cell.wrap(sys.positions[i] + sys.velocities[i] * dt);
        }
        f = force(&sys, step + 1);
        for i in 0..n {
            sys.velocities[i] += f[i] * (units::ACCEL / masses[i]) * (0.5 * dt);
        }
    }

    let got = engine.system();
    for i in 0..n {
        let dx = sys
            .cell
            .min_image(got.positions[i], sys.positions[i])
            .norm();
        let dv = (got.velocities[i] - sys.velocities[i]).norm();
        assert!(dx < 1e-8 && dv < 1e-8, "atom {i}: |dx| {dx} Å, |dv| {dv}");
    }
}

/// The PME cadence is keyed on the global step: a phase's bootstrap
/// evaluation repeats its predecessor's final one, so how a run is sliced
/// into targets and phases — and the backend and PE count — moves no bit.
/// Keyed on the phase-local step, every phase's bootstrap would run PME.
#[test]
fn rrespa_cadence_ignores_slicing_backend_and_pe_count() {
    let mut sys = ewald_water(3, 0.6);
    sys.thermalize(150.0, 5);
    let none = Thermostat::None;
    let run = |n_pes, backend, targets: &[usize]| {
        let mut engine = rrespa_engine(&sys, n_pes, backend, 0.5, 0.7, 3, none);
        let records: Vec<u64> = drive(&mut engine, targets, 4)
            .iter()
            .map(|e| e.total().to_bits())
            .collect();
        (records, state_bits(&engine))
    };
    let per_step: Vec<usize> = (1..=13).collect();
    let reference = run(1, Backend::Des, &[13]);
    for (n_pes, backend, targets) in [
        (1, Backend::Des, &per_step[..]),
        (1, Backend::Des, &[5, 7, 13][..]),
        (2, Backend::Des, &[13][..]),
        (2, Backend::Des, &[5, 7, 13][..]),
        (2, Backend::Threads, &per_step[..]),
        (1, Backend::Threads, &[5, 7, 13][..]),
    ] {
        let got = run(n_pes, backend, targets);
        assert!(
            got.0 == reference.0,
            "energies: {n_pes} PE(s), {backend:?}, targets {targets:?}"
        );
        assert!(
            got.1 == reference.1,
            "state: {n_pes} PE(s), {backend:?}, targets {targets:?}"
        );
    }
}

/// Both thermostats run under Real-mode PME at a cadence, bit-identically
/// on every backend and PE count.
#[test]
fn rrespa_thermostats_are_bit_identical_across_backends_and_pe_counts() {
    let mut sys = ewald_water(3, 0.6);
    sys.thermalize(150.0, 13);
    for thermostat in [
        Thermostat::Berendsen {
            target_k: 300.0,
            tau_fs: 50.0,
        },
        Thermostat::Langevin {
            target_k: 300.0,
            gamma: 0.05,
            seed: 3,
        },
    ] {
        let run = |n_pes, backend| {
            let mut engine = rrespa_engine(&sys, n_pes, backend, 0.5, 0.7, 2, thermostat);
            drive(&mut engine, &[10], 4);
            state_bits(&engine)
        };
        let reference = run(1, Backend::Des);
        for (n_pes, backend) in [
            (3, Backend::Des),
            (2, Backend::Threads),
            (1, Backend::Threads),
        ] {
            assert!(
                run(n_pes, backend) == reference,
                "{thermostat:?}: {n_pes} PE(s), {backend:?}"
            );
        }
    }
}
