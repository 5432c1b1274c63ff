//! What an engine's chares share, and the between-phase store.
//!
//! During a phase every datum has one owner: a home patch holds its atoms'
//! positions, velocities and forces, computes see only the coordinate
//! payloads they are sent, and forces and energy records travel back in
//! messages; a non-bonded compute owns its pair list. [`Shared`] is what
//! is left to share: the immutable [`Frame`] and decomposition and the PME
//! force buffer. [`Shared::state`] is the store *between* phases: the
//! engine hands each home patch its atoms from it before the phase and
//! scatters what the patches hand back into it after — no handler touches
//! it, so a crashed phase leaves it at the phase-start state.

use crate::decomp::Decomposition;
use mdcore::prelude::*;
use std::sync::{Mutex, RwLock};

/// Per-step energy accumulator (Real force mode only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepAcc {
    pub e_lj: f64,
    pub e_elec: f64,
    pub e_bond: f64,
    pub e_angle: f64,
    pub e_dihedral: f64,
    pub e_improper: f64,
    pub e_restraint: f64,
    pub kinetic: f64,
    pub pairs: u64,
}

impl StepAcc {
    /// Total potential energy.
    pub fn potential(&self) -> f64 {
        self.e_lj
            + self.e_elec
            + self.e_bond
            + self.e_angle
            + self.e_dihedral
            + self.e_improper
            + self.e_restraint
    }

    /// Total energy.
    pub fn total(&self) -> f64 {
        self.potential() + self.kinetic
    }
}

/// The simulation state between phases: current after every completed
/// phase, after [`crate::engine::Engine::restore`], and after edits
/// through [`crate::engine::Engine::system_mut`].
#[derive(Debug)]
pub struct SimState {
    pub system: System,
    /// The total force per atom at the last evaluated step, gathered from
    /// the home patches at phase end.
    pub forces: Vec<Vec3>,
}

/// Everything a kernel needs besides coordinates, immutable for the life of
/// an engine (atom migration and restore change neither).
#[derive(Debug)]
pub struct Frame {
    pub topology: Topology,
    pub exclusions: Exclusions,
    pub forcefield: ForceField,
    pub cell: Cell,
}

impl Frame {
    pub fn of(system: &System) -> Frame {
        Frame {
            topology: system.topology.clone(),
            exclusions: system.exclusions.clone(),
            forcefield: system.forcefield.clone(),
            cell: system.cell,
        }
    }
}

/// Real-physics PME solver shared by the slab chares (Real force mode with
/// full electrostatics): the actual reciprocal-space evaluation runs once
/// per PME step, triggered by the first slab to finish its transposes.
pub struct PmeReal {
    pub solver: pme::mesh::Pme,
    pub ewald: pme::ewald::EwaldParams,
    pub charges: Vec<f64>,
    /// Reciprocal-space force accumulator, zeroed and refilled once per PME
    /// round. Home patches add their atoms' entries at integration on PME
    /// steps (impulse multiple-timestepping).
    pub forces: Vec<Vec3>,
    /// PME rounds whose physics has been computed.
    pub rounds_done: usize,
    /// Reciprocal-space energy plus Ewald corrections of the latest round.
    pub energy: f64,
}

/// Everything an engine's chares share. See the module docs.
pub struct Shared {
    /// The between-phase store; no handler locks it.
    pub state: RwLock<SimState>,
    pub frame: Frame,
    pub decomp: Decomposition,
    /// Present only in Real mode with full electrostatics.
    pub pme_real: Option<Mutex<PmeReal>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_acc_totals() {
        let acc = StepAcc {
            e_lj: 1.0,
            e_elec: 2.0,
            e_bond: 3.0,
            e_angle: 4.0,
            e_dihedral: 5.0,
            e_improper: 6.0,
            e_restraint: 1.5,
            kinetic: 7.0,
            pairs: 9,
        };
        assert_eq!(acc.potential(), 22.5);
        assert_eq!(acc.total(), 29.5);
    }
}
