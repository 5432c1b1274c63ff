//! The complete dynamic state of a molecular system: topology + force field
//! + simulation cell + positions/velocities.

use crate::forcefield::{units, ForceField};
use crate::pbc::Cell;
use crate::topology::{Atom, Exclusions, Topology};
use crate::vec3::Vec3;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A molecular system ready to simulate.
#[derive(Debug, Clone)]
pub struct System {
    pub topology: Topology,
    pub exclusions: Exclusions,
    pub forcefield: ForceField,
    pub cell: Cell,
    /// Positions, Å (kept wrapped into the primary cell by the integrator).
    pub positions: Vec<Vec3>,
    /// Velocities, Å/fs.
    pub velocities: Vec<Vec3>,
}

impl System {
    /// Assemble a system; validates the topology and sizes.
    pub fn new(
        topology: Topology,
        forcefield: ForceField,
        cell: Cell,
        positions: Vec<Vec3>,
    ) -> Self {
        topology.validate().expect("invalid topology");
        assert_eq!(
            positions.len(),
            topology.n_atoms(),
            "positions length must equal atom count"
        );
        let exclusions = Exclusions::from_topology(&topology);
        let n = topology.n_atoms();
        System {
            topology,
            exclusions,
            forcefield,
            cell,
            positions,
            velocities: vec![Vec3::ZERO; n],
        }
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.topology.n_atoms()
    }

    /// Per-atom LJ type array (borrowed view for kernels).
    pub fn lj_types(&self) -> Vec<u16> {
        self.topology.atoms.iter().map(|a| a.lj_type).collect()
    }

    /// Per-atom charge array.
    pub fn charges(&self) -> Vec<f64> {
        self.topology.atoms.iter().map(|a| a.charge).collect()
    }

    /// Per-atom mass array.
    pub fn masses(&self) -> Vec<f64> {
        self.topology.atoms.iter().map(|a| a.mass).collect()
    }

    /// Draw velocities from a Maxwell-Boltzmann distribution at temperature
    /// `t_kelvin`, then remove net momentum. Deterministic for a given seed.
    pub fn thermalize(&mut self, t_kelvin: f64, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = self.n_atoms();
        for i in 0..n {
            let m = self.topology.atoms[i].mass;
            // σ² = kB T / m in kcal/mol units, converted to (Å/fs)².
            let sigma = (units::K_B * t_kelvin / m * units::ACCEL).sqrt();
            self.velocities[i] = Vec3::new(
                gaussian(&mut rng) * sigma,
                gaussian(&mut rng) * sigma,
                gaussian(&mut rng) * sigma,
            );
        }
        self.remove_net_momentum();
    }

    /// Subtract the centre-of-mass velocity so the system doesn't drift.
    pub fn remove_net_momentum(&mut self) {
        let mut p = Vec3::ZERO;
        let mut m_tot = 0.0;
        for (v, a) in self.velocities.iter().zip(&self.topology.atoms) {
            p += *v * a.mass;
            m_tot += a.mass;
        }
        let v_com = p / m_tot;
        for v in &mut self.velocities {
            *v -= v_com;
        }
    }

    /// Kinetic energy, kcal/mol.
    pub fn kinetic_energy(&self) -> f64 {
        kinetic_energy(&self.topology.atoms, &self.velocities)
    }

    /// Instantaneous temperature, K.
    pub fn temperature(&self) -> f64 {
        temperature(self.kinetic_energy(), self.n_atoms())
    }

    /// Total momentum (amu·Å/fs) — should stay ~0 during NVE dynamics.
    pub fn net_momentum(&self) -> Vec3 {
        self.velocities
            .iter()
            .zip(&self.topology.atoms)
            .map(|(v, a)| *v * a.mass)
            .sum()
    }
}

/// Kinetic energy, kcal/mol, of `velocities` for `atoms`, summed in atom
/// order — the order every temperature a thermostat acts on is taken in.
pub fn kinetic_energy(atoms: &[Atom], velocities: &[Vec3]) -> f64 {
    velocities.iter().zip(atoms).map(|(v, a)| 0.5 * a.mass * v.norm2() * units::KE).sum()
}

/// Instantaneous temperature, K, of `n_atoms` atoms carrying `kinetic`
/// kcal/mol, over 3N − 3 degrees of freedom (net momentum removed).
pub fn temperature(kinetic: f64, n_atoms: usize) -> f64 {
    let dof = (3 * n_atoms) as f64 - 3.0;
    2.0 * kinetic / (dof * units::K_B)
}

/// Standard normal variate via Box-Muller (avoids needing rand_distr).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{push_water, Topology};

    fn water_box() -> System {
        let mut topo = Topology::default();
        let mut pos = Vec::new();
        for i in 0..27 {
            let x = (i % 3) as f64 * 3.1 + 1.0;
            let y = ((i / 3) % 3) as f64 * 3.1 + 1.0;
            let z = (i / 9) as f64 * 3.1 + 1.0;
            push_water(&mut topo, 0, 1);
            pos.push(Vec3::new(x, y, z));
            pos.push(Vec3::new(x + 0.9572, y, z));
            pos.push(Vec3::new(x - 0.24, y + 0.93, z));
        }
        System::new(topo, ForceField::biomolecular(4.5), Cell::cube(9.3), pos)
    }

    #[test]
    fn thermalize_hits_target_temperature() {
        let mut s = water_box();
        s.thermalize(300.0, 42);
        let t = s.temperature();
        // 81 atoms — loose statistical check.
        assert!((t - 300.0).abs() < 90.0, "temperature {t}");
    }

    #[test]
    fn thermalize_is_deterministic() {
        let mut a = water_box();
        let mut b = water_box();
        a.thermalize(300.0, 7);
        b.thermalize(300.0, 7);
        assert_eq!(a.velocities, b.velocities);
        let mut c = water_box();
        c.thermalize(300.0, 8);
        assert_ne!(a.velocities, c.velocities);
    }

    #[test]
    fn no_net_momentum_after_thermalize() {
        let mut s = water_box();
        s.thermalize(310.0, 1);
        assert!(s.net_momentum().norm() < 1e-9);
    }

    #[test]
    fn kinetic_energy_matches_temperature_definition() {
        let mut s = water_box();
        s.thermalize(250.0, 3);
        let dof = (3 * s.n_atoms()) as f64 - 3.0;
        let t = 2.0 * s.kinetic_energy() / (dof * units::K_B);
        assert!((t - s.temperature()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positions length")]
    fn mismatched_positions_rejected() {
        let mut topo = Topology::default();
        push_water(&mut topo, 0, 1);
        System::new(
            topo,
            ForceField::biomolecular(12.0),
            Cell::cube(20.0),
            vec![Vec3::ZERO],
        );
    }
}
