//! Thermostats: temperature control for equilibration and NVT sampling.
//!
//! Production biomolecular simulations (the paper's benchmarks derive from
//! real published studies) equilibrate with temperature control before NVE
//! data collection. Two standard schemes:
//!
//! * [`Berendsen`] — weak-coupling velocity rescaling toward a target
//!   temperature; fast and robust for equilibration (not canonical).
//! * [`Langevin`] — stochastic dynamics via the BAOAB splitting; samples
//!   the canonical (NVT) ensemble and is what NAMD uses by default.
//!
//! Both are also what the parallel engine's home patches apply; the pieces
//! they share with it — [`Berendsen::lambda`] and [`OuRefresh`] with its
//! counter-based [`normal`] noise — are written here once.

use crate::forcefield::units;
use crate::sim::{compute_forces, StepEnergy};
use crate::system::System;
use crate::vec3::Vec3;

/// Berendsen weak-coupling thermostat: velocities are rescaled each step by
/// `λ = √(1 + dt/τ·(T₀/T − 1))`.
#[derive(Debug, Clone, Copy)]
pub struct Berendsen {
    /// Target temperature, K.
    pub target_k: f64,
    /// Coupling time constant τ, fs (larger = gentler).
    pub tau_fs: f64,
}

impl Berendsen {
    /// The rescale factor λ for instantaneous temperature `t` (K) and
    /// timestep `dt_fs`; 1 when `t` is not positive.
    pub fn lambda(&self, t: f64, dt_fs: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        let lambda2 = 1.0 + dt_fs / self.tau_fs * (self.target_k / t - 1.0);
        lambda2.clamp(0.64, 1.56).sqrt() // clamp like CHARMM
    }

    /// Apply one rescaling for timestep `dt_fs`.
    pub fn apply(&self, system: &mut System, dt_fs: f64) {
        let lambda = self.lambda(system.temperature(), dt_fs);
        for v in &mut system.velocities {
            *v *= lambda;
        }
    }
}

/// SplitMix64's output mix: a bijection on `u64` with full avalanche.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A standard normal variate that is a pure function of its key: `seed`,
/// the global `atom` index, the global `step` of the update, and the
/// `axis`. Counter-based — there is no generator state — so whoever draws
/// an atom's noise, in whatever order, after whatever checkpoint or
/// rollback, draws the same bits. Box-Muller over two 53-bit uniforms
/// hashed from the key.
pub fn normal(seed: u64, atom: u64, step: u64, axis: u64) -> f64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = seed;
    for word in [atom, step, axis] {
        h = mix(h.wrapping_add(GOLDEN) ^ word);
    }
    let unit = 1.0 / (1u64 << 53) as f64;
    let u1 = ((mix(h.wrapping_add(GOLDEN)) >> 11) + 1) as f64 * unit; // (0, 1]
    let u2 = (mix(h.wrapping_add(GOLDEN.wrapping_mul(2))) >> 11) as f64 * unit; // [0, 1)
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// BAOAB's O step: the Ornstein-Uhlenbeck velocity refresh
/// `v ← c₁·v + √(kT/m·(1 − c₁²))·ξ`, `c₁ = e^(−γ·dt)`, with ξ from
/// [`normal`].
#[derive(Debug, Clone, Copy)]
pub struct OuRefresh {
    c1: f64,
    kt: f64,
    seed: u64,
}

impl OuRefresh {
    /// The refresh toward `target_k` (K) at friction `gamma` (fs⁻¹) over a
    /// timestep of `dt` fs, drawing its noise under `seed`.
    pub fn new(target_k: f64, gamma: f64, dt: f64, seed: u64) -> Self {
        OuRefresh { c1: (-gamma * dt).exp(), kt: units::K_B * target_k, seed }
    }

    /// The refreshed velocity of global atom `atom` (mass `m`) in the
    /// update out of global step `step`.
    pub fn apply(&self, v: Vec3, m: f64, atom: u64, step: u64) -> Vec3 {
        // OU noise amplitude per unit mass in velocity units; kT/m converts
        // via ACCEL like thermalize().
        let sigma = (self.kt / m * units::ACCEL * (1.0 - self.c1 * self.c1)).sqrt();
        let xi = |axis| normal(self.seed, atom, step, axis);
        v * self.c1 + Vec3::new(xi(0), xi(1), xi(2)) * sigma
    }
}

/// Langevin (BAOAB) integrator: velocity-Verlet kicks and drifts with an
/// Ornstein-Uhlenbeck velocity refresh in the middle.
pub struct Langevin {
    /// Timestep, fs.
    pub dt: f64,
    refresh: OuRefresh,
    /// Updates taken so far: the step key of the next refresh's noise.
    step: u64,
    forces: Vec<Vec3>,
    primed: bool,
}

impl Langevin {
    /// Create a Langevin integrator drawing its noise under `seed`.
    pub fn new(system: &System, target_k: f64, gamma: f64, dt: f64, seed: u64) -> Self {
        assert!(target_k > 0.0 && gamma > 0.0 && dt > 0.0);
        Langevin {
            dt,
            refresh: OuRefresh::new(target_k, gamma, dt, seed),
            step: 0,
            forces: vec![Vec3::ZERO; system.n_atoms()],
            primed: false,
        }
    }

    /// One BAOAB step: B (half kick), A (half drift), O (OU refresh),
    /// A (half drift), B (half kick with new forces).
    pub fn step(&mut self, system: &mut System) -> StepEnergy {
        if !self.primed {
            compute_forces(system, &mut self.forces);
            self.primed = true;
        }
        let dt = self.dt;
        let n = system.n_atoms();

        // B + A.
        for i in 0..n {
            let m = system.topology.atoms[i].mass;
            system.velocities[i] += self.forces[i] * (units::ACCEL / m) * (0.5 * dt);
            system.positions[i] =
                system.cell.wrap(system.positions[i] + system.velocities[i] * (0.5 * dt));
        }
        // O.
        for i in 0..n {
            let m = system.topology.atoms[i].mass;
            system.velocities[i] = self.refresh.apply(system.velocities[i], m, i as u64, self.step);
        }
        self.step += 1;
        // A.
        for i in 0..n {
            system.positions[i] =
                system.cell.wrap(system.positions[i] + system.velocities[i] * (0.5 * dt));
        }
        // New forces + B.
        let mut e = compute_forces(system, &mut self.forces);
        for i in 0..n {
            let m = system.topology.atoms[i].mass;
            system.velocities[i] += self.forces[i] * (units::ACCEL / m) * (0.5 * dt);
        }
        e.kinetic = system.kinetic_energy();
        e
    }

    /// Run `n` steps, returning per-step energies.
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

    fn water_system() -> System {
        let mut topo = Topology::default();
        let mut pos = Vec::new();
        for i in 0..64 {
            let x = (i % 4) as f64 * 3.2 + 0.8;
            let y = ((i / 4) % 4) as f64 * 3.2 + 0.8;
            let z = (i / 16) as f64 * 3.2 + 0.8;
            push_water(&mut topo, 0, 1);
            pos.push(Vec3::new(x, y, z));
            pos.push(Vec3::new(x + 0.9572, y, z));
            pos.push(Vec3::new(x - 0.24, y + 0.93, z));
        }
        System::new(topo, ForceField::biomolecular(6.0), Cell::cube(12.8), pos)
    }

    #[test]
    fn berendsen_pulls_temperature_toward_target() {
        let mut sys = water_system();
        sys.thermalize(150.0, 1);
        let thermo = Berendsen { target_k: 300.0, tau_fs: 20.0 };
        let mut sim = crate::sim::Simulator::new(&sys, 0.5);
        for _ in 0..200 {
            sim.step(&mut sys);
            thermo.apply(&mut sys, 0.5);
        }
        let t = sys.temperature();
        assert!((t - 300.0).abs() < 80.0, "temperature {t} not near 300 K");
    }

    #[test]
    fn berendsen_cools_too() {
        let mut sys = water_system();
        sys.thermalize(600.0, 2);
        let thermo = Berendsen { target_k: 200.0, tau_fs: 10.0 };
        let mut sim = crate::sim::Simulator::new(&sys, 0.5);
        for _ in 0..200 {
            sim.step(&mut sys);
            thermo.apply(&mut sys, 0.5);
        }
        let t = sys.temperature();
        assert!(t < 400.0, "failed to cool: {t}");
    }

    #[test]
    fn langevin_thermalizes_from_cold_start() {
        let mut sys = water_system();
        // Zero initial velocities: the thermostat must inject heat.
        let mut lang = Langevin::new(&sys, 300.0, 0.01, 1.0, 7);
        lang.run(&mut sys, 300);
        // Average over a window to beat fluctuation noise.
        let mut t_acc = 0.0;
        for _ in 0..100 {
            lang.step(&mut sys);
            t_acc += sys.temperature();
        }
        let t_avg = t_acc / 100.0;
        assert!(
            (t_avg - 300.0).abs() < 75.0,
            "Langevin average temperature {t_avg} not near 300 K"
        );
    }

    #[test]
    fn langevin_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sys = water_system();
            let mut lang = Langevin::new(&sys, 250.0, 0.005, 1.0, seed);
            lang.run(&mut sys, 20);
            sys.positions[10]
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn counter_noise_is_standard_normal_and_keyed() {
        let draws: Vec<f64> = (0..20_000u64).map(|i| normal(5, i / 3, 7, i % 3)).collect();
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.03 && (var - 1.0).abs() < 0.05, "mean {mean}, variance {var}");
        // Every key component matters; equal keys draw equal bits.
        let base = normal(5, 10, 7, 1);
        assert_eq!(base.to_bits(), normal(5, 10, 7, 1).to_bits());
        let others = [(6, 10, 7, 1), (5, 11, 7, 1), (5, 10, 8, 1), (5, 10, 7, 2)];
        for other in others.map(|(s, a, t, x)| normal(s, a, t, x)) {
            assert_ne!(base.to_bits(), other.to_bits());
        }
    }

    #[test]
    fn langevin_zero_friction_limit_is_stable() {
        // γ→small behaves like NVE over short runs (energy roughly constant).
        let mut sys = water_system();
        sys.thermalize(200.0, 5);
        let mut lang = Langevin::new(&sys, 200.0, 1e-6, 0.5, 9);
        let energies = lang.run(&mut sys, 50);
        let e0 = energies[1].total();
        let e1 = energies.last().unwrap().total();
        assert!(
            (e1 - e0).abs() / e0.abs().max(1.0) < 2e-2,
            "small-γ limit drifted: {e0} -> {e1}"
        );
    }
}
