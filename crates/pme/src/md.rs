//! Full-electrostatics forces: cutoff LJ + Ewald real space (via mdcore's
//! kernels in Ewald mode) + PME reciprocal space, sequentially.
//!
//! The paper notes that "even when full, long-range electrostatic
//! interactions are included in a simulation, these forces may be calculated
//! via an efficient combination of global grid-based and cutoff atom-based
//! components", and that the grid part's cost shrinks further "when combined
//! with multiple timestepping methods". This module is that combination as
//! a force provider: the reference the parallel engine's Real-mode PME (and
//! its r-RESPA, `namd_core::PmeSimConfig::every`) is tested against.

use crate::ewald::{exclusion_correction, self_energy, EwaldParams};
use crate::mesh::{Pme, PmeParams};
use mdcore::prelude::*;

/// Energy breakdown of a full-electrostatics evaluation, kcal/mol.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullEnergy {
    pub bonded: f64,
    pub lj: f64,
    /// Real-space Ewald electrostatics (erfc-screened, inside the cutoff).
    pub elec_real: f64,
    /// Reciprocal-space (PME) electrostatics.
    pub elec_recip: f64,
    /// Self + exclusion corrections.
    pub elec_corr: f64,
    pub kinetic: f64,
}

impl FullEnergy {
    /// Total electrostatic energy.
    pub fn electrostatic(&self) -> f64 {
        self.elec_real + self.elec_recip + self.elec_corr
    }

    /// Total potential energy.
    pub fn potential(&self) -> f64 {
        self.bonded + self.lj + self.electrostatic()
    }

    /// Total energy.
    pub fn total(&self) -> f64 {
        self.potential() + self.kinetic
    }
}

/// A full-electrostatics force provider bound to one system geometry.
pub struct FullElectrostatics {
    pme: Pme,
    ewald: EwaldParams,
    charges: Vec<f64>,
}

impl FullElectrostatics {
    /// Set up PME for a system whose force field is in Ewald mode
    /// (`ForceField::with_ewald`). `mesh_spacing` is the maximum PME mesh
    /// spacing in Å (≈1.0-1.2 is typical).
    pub fn new(system: &System, mesh_spacing: f64) -> Self {
        let beta = system
            .forcefield
            .ewald_beta
            .expect("force field must be in Ewald mode (ForceField::with_ewald)");
        let params = PmeParams::for_cell(&system.cell, beta, mesh_spacing);
        FullElectrostatics {
            pme: Pme::new(&system.cell, params),
            ewald: EwaldParams { beta, r_cut: system.forcefield.cutoff, kmax: 0 },
            charges: system.charges(),
        }
    }

    /// The PME mesh in use.
    pub fn mesh(&self) -> [usize; 3] {
        self.pme.params.mesh
    }

    /// Short-range forces only (bonded + LJ + Ewald real space): the part
    /// evaluated every step under multiple timestepping. Overwrites
    /// `forces`.
    pub fn short_range(&self, system: &System, forces: &mut [Vec3]) -> FullEnergy {
        let e = mdcore::sim::compute_forces(system, forces);
        FullEnergy {
            bonded: e.bonded.total(),
            lj: e.nonbonded.e_lj,
            elec_real: e.nonbonded.e_elec,
            ..Default::default()
        }
    }

    /// Long-range (reciprocal + corrections) forces, *accumulated* into
    /// `forces`.
    pub fn long_range(&mut self, system: &System, forces: &mut [Vec3]) -> FullEnergy {
        let recip = self
            .pme
            .reciprocal(&system.positions, &self.charges, forces)
            .reciprocal;
        let corr_ex = exclusion_correction(
            &system.cell,
            &system.positions,
            &self.charges,
            &system.exclusions,
            &self.ewald,
            forces,
        );
        let corr_self = self_energy(&self.charges, &self.ewald);
        FullEnergy {
            elec_recip: recip,
            elec_corr: corr_ex + corr_self,
            ..Default::default()
        }
    }

    /// Complete force evaluation (short + long range). Overwrites `forces`.
    pub fn compute_forces(&mut self, system: &System, forces: &mut [Vec3]) -> FullEnergy {
        let mut e = self.short_range(system, forces);
        let l = self.long_range(system, forces);
        e.elec_recip = l.elec_recip;
        e.elec_corr = l.elec_corr;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::ewald_direct;

    /// A small neutral water box in Ewald mode.
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

    #[test]
    fn full_forces_match_direct_ewald_reference() {
        // The production path (mdcore Ewald-mode kernels + PME) must agree
        // with the exact direct Ewald sum on the electrostatic part.
        let sys = ewald_water(3, 0.6);
        let q = sys.charges();

        let mut full = FullElectrostatics::new(&sys, 0.6);
        let mut f_full = vec![Vec3::ZERO; sys.n_atoms()];
        let e_full = full.compute_forces(&sys, &mut f_full);

        let params = EwaldParams { beta: 0.6, r_cut: sys.forcefield.cutoff, kmax: 14 };
        let mut f_ref = vec![Vec3::ZERO; sys.n_atoms()];
        let e_ref = ewald_direct(&sys.cell, &sys.positions, &q, &sys.exclusions, &params, &mut f_ref);

        let got = e_full.electrostatic();
        let want = e_ref.total();
        assert!(
            (got / want - 1.0).abs() < 5e-3,
            "electrostatics: full {got} vs direct {want}"
        );
    }

    #[test]
    fn full_forces_are_minus_gradient() {
        let sys = ewald_water(2, 0.7);
        let mut full = FullElectrostatics::new(&sys, 0.5);
        let mut f = vec![Vec3::ZERO; sys.n_atoms()];
        full.compute_forces(&sys, &mut f);

        let h = 1e-5;
        for atom in [0usize, 4, 10] {
            for axis in 0..3 {
                let mut plus = sys.clone();
                *plus.positions[atom].axis_mut(axis) += h;
                let mut minus = sys.clone();
                *minus.positions[atom].axis_mut(axis) -= h;
                let mut tmp = vec![Vec3::ZERO; sys.n_atoms()];
                let ep = full.compute_forces(&plus, &mut tmp).potential();
                let em = full.compute_forces(&minus, &mut tmp).potential();
                let fd = -(ep - em) / (2.0 * h);
                let an = f[atom].axis(axis);
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "atom {atom} axis {axis}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn mesh_spacing_controls_mesh_size() {
        let sys = ewald_water(3, 0.6);
        let coarse = FullElectrostatics::new(&sys, 1.5);
        let fine = FullElectrostatics::new(&sys, 0.5);
        assert!(fine.mesh()[0] > coarse.mesh()[0]);
    }
}
