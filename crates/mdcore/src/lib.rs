//! # mdcore — sequential molecular dynamics substrate
//!
//! The real physics underneath the NAMD SC2000 reproduction: topology,
//! CHARMM-style force field with switched LJ / shifted Coulomb cutoffs,
//! bonded 2-/3-/4-body kernels, cell-list neighbour search, and a
//! velocity-Verlet NVE integrator.
//!
//! The parallel engine (`namd-core`) reuses these kernels inside its compute
//! objects, so "parallel forces == sequential forces" is a testable
//! invariant rather than an article of faith.
//!
//! ## Quick example
//!
//! ```
//! use mdcore::prelude::*;
//!
//! // Three waters in a periodic box.
//! let mut topo = Topology::default();
//! let mut pos = Vec::new();
//! for i in 0..3 {
//!     push_water(&mut topo, 0, 1);
//!     let base = Vec3::new(2.0 + 3.0 * i as f64, 2.0, 2.0);
//!     pos.push(base);
//!     pos.push(base + Vec3::new(0.9572, 0.0, 0.0));
//!     pos.push(base + Vec3::new(-0.2399, 0.9266, 0.0));
//! }
//! let mut system = System::new(
//!     topo,
//!     ForceField::biomolecular(5.0),
//!     Cell::cube(12.0),
//!     pos,
//! );
//! system.thermalize(300.0, 42);
//! let mut sim = Simulator::new(&system, 1.0);
//! let e = sim.step(&mut system);
//! assert!(e.total().is_finite());
//! ```

// No kernel in this crate needs it.
#![forbid(unsafe_code)]
// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod bonded;
pub mod cluster;
pub mod erf;
pub mod celllist;
pub mod forcefield;
pub mod minimize;
pub mod nonbonded;
pub mod pairlist;
pub mod pbc;
pub mod sim;
pub mod system;
pub mod thermostat;
pub mod topology;
pub mod trajectory;
pub mod vec3;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bonded::{compute_bonded, BondedEnergy};
    pub use crate::celllist::CellList;
    pub use crate::cluster::{
        nb_pair_clusters, nb_self_clusters, pair_cluster_pairs_into, prune_into,
        self_cluster_pairs_into, ClusterGrid, ClusterPair, SimdWidth, CLUSTER,
    };
    pub use crate::forcefield::{units, ForceField, LjType};
    pub use crate::nonbonded::{
        count_pairs, count_self_pairs, nb_pair_listed, nb_self_listed, pair_candidates_into,
        self_candidates_into, AtomGroup, NbResult, FLOPS_PER_PAIR,
    };
    pub use crate::minimize::{minimize, MinimizeResult};
    pub use crate::pairlist::PairList;
    pub use crate::pbc::Cell;
    pub use crate::thermostat::{Berendsen, Langevin};
    pub use crate::trajectory::{
        diffusion_coefficient, mass_labels, mean_squared_displacement, radial_distribution,
        Trajectory, TrajectoryWriter, XyzWriter,
    };
    pub use crate::sim::{compute_forces, Simulator, StepEnergy};
    pub use crate::system::System;
    pub use crate::topology::{
        push_water, Angle, Atom, AtomId, Bond, Dihedral, ExclusionKind, ExclusionRow, Exclusions,
        Improper, Restraint, Topology,
    };
    pub use crate::vec3::Vec3;
}
