//! Sequential reference simulator: velocity-Verlet NVE dynamics with
//! cell-list non-bonded evaluation.
//!
//! This is the single-processor baseline the paper measures speedups against
//! ("the actual speed of the program ... is comparable or better than other
//! production-quality programs"). The parallel engine in `namd-core` must
//! produce identical forces — an invariant checked by integration tests.

use crate::bonded::{compute_bonded, BondedEnergy};
use crate::celllist::CellList;
use crate::forcefield::units;
use crate::nonbonded::{nb_pairlist, NbResult};
use crate::pairlist::PairList;
use crate::system::System;
use crate::vec3::Vec3;

/// Energy report for one step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepEnergy {
    pub bonded: BondedEnergy,
    pub nonbonded: NbResult,
    pub kinetic: f64,
}

impl StepEnergy {
    /// Total potential energy, kcal/mol.
    pub fn potential(&self) -> f64 {
        self.bonded.total() + self.nonbonded.energy()
    }

    /// Total (conserved) energy, kcal/mol.
    pub fn total(&self) -> f64 {
        self.potential() + self.kinetic
    }
}

/// Compute all forces for the current positions. Returns the energies and
/// fills `forces` (overwritten, not accumulated).
pub fn compute_forces(system: &System, forces: &mut [Vec3]) -> StepEnergy {
    let cutoff = system.forcefield.cutoff;
    let cl = CellList::build(&system.cell, &system.positions, cutoff);
    forces_on_pairs(system, &cl.neighbor_pairs(&system.positions, cutoff), forces)
}

/// The non-bonded forces over `pairs` plus every bonded term, into `forces`
/// (overwritten).
fn forces_on_pairs(system: &System, pairs: &[(u32, u32)], forces: &mut [Vec3]) -> StepEnergy {
    assert_eq!(forces.len(), system.n_atoms());
    forces.fill(Vec3::ZERO);
    let lj = system.lj_types();
    let q = system.charges();
    let nonbonded = nb_pairlist(
        &system.forcefield,
        &system.exclusions,
        &system.positions,
        &lj,
        &q,
        pairs,
        &system.cell,
        forces,
    );
    let bonded = compute_bonded(&system.topology, &system.cell, &system.positions, forces);
    StepEnergy { bonded, nonbonded, kinetic: 0.0 }
}

/// A velocity-Verlet integrator with persistent force buffers and a Verlet
/// pair list.
pub struct Simulator {
    /// Timestep, fs.
    pub dt: f64,
    forces: Vec<Vec3>,
    /// Set when forces correspond to current positions.
    forces_valid: bool,
    /// Energies from the most recent force evaluation.
    pub last_energy: StepEnergy,
    /// The pair list every force evaluation reads (margin 0 for
    /// [`Simulator::new`]: rebuilt whenever any atom moved).
    pairlist: PairList,
}

impl Simulator {
    /// Create a simulator with timestep `dt` femtoseconds. Its pair list has
    /// no margin, so every step reads a fresh cutoff-radius list — the
    /// pairs and order of [`compute_forces`], hence its bits.
    pub fn new(system: &System, dt: f64) -> Self {
        Simulator::with_pairlist(system, dt, 0.0)
    }

    /// Create a simulator that reuses a Verlet pair list with the given
    /// margin (Å) instead of rebuilding the neighbour structure every step —
    /// the sequential analogue of NAMD's `pairlistdist`. Results are
    /// identical to [`Simulator::new`]; only the rebuild frequency changes.
    pub fn with_pairlist(system: &System, dt: f64, margin: f64) -> Self {
        assert!(dt > 0.0, "timestep must be positive");
        assert!(margin >= 0.0, "margin must be non-negative");
        Simulator {
            dt,
            forces: vec![Vec3::ZERO; system.n_atoms()],
            forces_valid: false,
            last_energy: StepEnergy::default(),
            pairlist: PairList::build(
                &system.cell,
                &system.positions,
                system.forcefield.cutoff,
                margin,
            ),
        }
    }

    /// Pair-list builds so far (diagnostics).
    pub fn pairlist_rebuilds(&self) -> usize {
        self.pairlist.rebuilds
    }

    /// Force evaluation on the pair list, refreshed first if stale.
    fn eval_forces(&mut self, system: &System) -> StepEnergy {
        self.pairlist.refresh(&system.cell, &system.positions);
        forces_on_pairs(system, self.pairlist.pairs(), &mut self.forces)
    }

    /// Current force buffer (valid after the first step or `prime`).
    pub fn forces(&self) -> &[Vec3] {
        &self.forces
    }

    /// Evaluate forces for the system's current positions.
    pub fn prime(&mut self, system: &System) {
        self.last_energy = self.eval_forces(system);
        self.forces_valid = true;
    }

    /// Advance one velocity-Verlet step. Returns the step's energies
    /// (potential from the new positions, kinetic from the new velocities).
    pub fn step(&mut self, system: &mut System) -> StepEnergy {
        if !self.forces_valid {
            self.prime(system);
        }
        let dt = self.dt;
        let n = system.n_atoms();

        // Half-kick + drift.
        for i in 0..n {
            let m = system.topology.atoms[i].mass;
            let a = self.forces[i] * (units::ACCEL / m);
            system.velocities[i] += a * (0.5 * dt);
            system.positions[i] += system.velocities[i] * dt;
            system.positions[i] = system.cell.wrap(system.positions[i]);
        }

        // New forces, second half-kick.
        let mut e = self.eval_forces(system);
        for i in 0..n {
            let m = system.topology.atoms[i].mass;
            let a = self.forces[i] * (units::ACCEL / m);
            system.velocities[i] += a * (0.5 * dt);
        }
        e.kinetic = system.kinetic_energy();
        self.last_energy = e;
        self.forces_valid = true;
        e
    }

    /// Run `n` steps, returning the energy after each.
    pub fn run(&mut self, system: &mut System, n: usize) -> Vec<StepEnergy> {
        (0..n).map(|_| self.step(system)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::ForceField;
    use crate::pbc::Cell;
    use crate::topology::{push_water, Topology};

    /// A small periodic water box at moderate density.
    fn water_system(n_side: usize, spacing: f64) -> System {
        let mut topo = Topology::default();
        let mut pos = Vec::new();
        for ix in 0..n_side {
            for iy in 0..n_side {
                for iz in 0..n_side {
                    let base = Vec3::new(
                        ix as f64 * spacing + 0.5,
                        iy as f64 * spacing + 0.5,
                        iz as f64 * spacing + 0.5,
                    );
                    push_water(&mut topo, 0, 1);
                    pos.push(base);
                    pos.push(base + Vec3::new(0.9572, 0.0, 0.0));
                    pos.push(base + Vec3::new(-0.2399, 0.9266, 0.0));
                }
            }
        }
        let l = n_side as f64 * spacing;
        let ff = ForceField::biomolecular((l / 2.0 - 0.1).min(8.0));
        System::new(topo, ff, Cell::cube(l), pos)
    }

    #[test]
    fn forces_are_finite_and_momentum_free() {
        let s = water_system(3, 3.2);
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        compute_forces(&s, &mut f);
        let net: Vec3 = f.iter().copied().sum();
        assert!(net.norm() < 1e-8, "net force {net:?}");
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn energy_conservation_nve() {
        let mut s = water_system(3, 3.2);
        s.thermalize(100.0, 11);
        let mut sim = Simulator::new(&s, 0.5);
        // Short equilibration to let the integrator settle.
        sim.run(&mut s, 5);
        let e0 = sim.last_energy.total();
        let energies = sim.run(&mut s, 100);
        let e_end = energies.last().unwrap().total();
        let scale = e0.abs().max(1.0);
        let drift = (e_end - e0).abs() / scale;
        assert!(drift < 5e-3, "energy drift {drift}: {e0} -> {e_end}");
        // Also check the max excursion, not just the endpoints.
        for (i, e) in energies.iter().enumerate() {
            let d = (e.total() - e0).abs() / scale;
            assert!(d < 1e-2, "step {i}: excursion {d}");
        }
    }

    #[test]
    fn momentum_conserved_during_dynamics() {
        let mut s = water_system(3, 3.2);
        s.thermalize(200.0, 5);
        let mut sim = Simulator::new(&s, 0.5);
        sim.run(&mut s, 50);
        assert!(s.net_momentum().norm() < 1e-8);
    }

    #[test]
    fn positions_stay_wrapped() {
        let mut s = water_system(2, 3.4);
        s.thermalize(400.0, 9);
        let mut sim = Simulator::new(&s, 1.0);
        sim.run(&mut s, 30);
        for &p in &s.positions {
            assert!(s.cell.contains(p), "position escaped cell: {p:?}");
        }
    }

    #[test]
    fn cold_start_is_stable() {
        // Zero velocities, relaxed lattice: nothing should blow up.
        let mut s = water_system(2, 4.0);
        let mut sim = Simulator::new(&s, 1.0);
        let energies = sim.run(&mut s, 20);
        assert!(energies.iter().all(|e| e.total().is_finite()));
    }

    #[test]
    fn pairlist_simulator_matches_plain_simulator() {
        let mut a = water_system(3, 3.2);
        a.thermalize(200.0, 13);
        let mut b = a.clone();
        let mut sim_a = Simulator::new(&a, 0.5);
        let mut sim_b = Simulator::with_pairlist(&b, 0.5, 1.5);
        for step in 0..40 {
            let ea = sim_a.step(&mut a);
            let eb = sim_b.step(&mut b);
            assert!(
                (ea.total() - eb.total()).abs() < 1e-9 * ea.total().abs().max(1.0),
                "step {step}: {} vs {}",
                ea.total(),
                eb.total()
            );
        }
        for i in 0..a.n_atoms() {
            assert!((a.positions[i] - b.positions[i]).norm() < 1e-9, "atom {i}");
        }
        // The list was reused: far fewer rebuilds than steps.
        assert!(
            sim_b.pairlist_rebuilds() < 20,
            "{} rebuilds over 40 steps",
            sim_b.pairlist_rebuilds()
        );
    }

    #[test]
    fn step_energy_totals_add_up() {
        let mut s = water_system(2, 3.4);
        s.thermalize(150.0, 2);
        let mut sim = Simulator::new(&s, 0.5);
        let e = sim.step(&mut s);
        assert!(
            (e.total() - (e.bonded.total() + e.nonbonded.energy() + e.kinetic)).abs() < 1e-12
        );
        assert!(e.kinetic > 0.0);
    }
}
