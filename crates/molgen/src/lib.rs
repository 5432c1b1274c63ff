//! # molgen — synthetic biomolecular benchmark systems
//!
//! The paper's three benchmarks are real simulation decks we cannot obtain:
//!
//! * **ApoA-I** — 92,224-atom high-density lipoprotein particle
//!   (protein + lipid + water), 245 patches (7×7×5) at a 12 Å cutoff;
//! * **BC1** — 206,617 atoms, 378 patches;
//! * **bR** — bacteriorhodopsin, 3,762 atoms, 36 patches.
//!
//! What the parallel engine and load balancer *see* of a deck is: the atom
//! count, the box shape (⇒ patch grid), the spatial density distribution
//! (⇒ per-compute work, load imbalance), and the bonded topology volume.
//! These generators reproduce those observables: a protein-like polymer core
//! and an optional lipid slab create the density heterogeneity, and the box
//! is filled with TIP3P-like water. Everything is deterministic for a given
//! seed. See DESIGN.md §2 for the substitution argument.

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod builders;
pub mod benchmarks;
pub mod zoo;

pub use benchmarks::{apoa1_like, bc1_like, br_like, BenchmarkSystem};
pub use builders::{SystemBuilder, SystemSpec};
pub use zoo::{ImbalanceBudget, ImbalanceProfile, Scenario};

use mdcore::prelude::{System, Vec3};

/// The deck a run configuration or a job spec names, as its atom count and
/// the function that builds it — the one place the `water | apoa1 | bc1 |
/// br | <zoo scenario>` vocabulary is spelled, so the CLI and the service
/// build bit-identical systems from the same words and a front-end can
/// refuse a deck by size without building it. `None` for an unknown name.
///
/// `water` is `atoms` (rounded down to whole molecules) in a cube of edge
/// `box_size` at `cutoff` and ignores `scale`; the paper decks carry their
/// own size, box and cutoff and take `scale` as a size fraction
/// ([`BenchmarkSystem::scaled`]); a [`zoo`] scenario is generated at `atoms`
/// and then scaled the same way. `restrained` pins protein atoms to their
/// generated positions ([`SystemBuilder::build_restrained`]); zoo scenarios
/// are never restrained.
pub fn named_deck(
    name: &str,
    atoms: usize,
    box_size: f64,
    cutoff: f64,
    seed: u64,
    scale: f64,
    restrained: bool,
) -> Option<(usize, impl FnOnce() -> System)> {
    enum Plan {
        Spec(SystemSpec),
        Zoo(Scenario),
    }
    let (n_atoms, plan) = match name {
        "water" => {
            let target_atoms = atoms - atoms % 3;
            let spec = SystemSpec {
                name: "water",
                box_lengths: Vec3::splat(box_size),
                target_atoms,
                protein_chains: 0,
                protein_chain_len: 0,
                lipid_slab: None,
                cutoff,
                seed,
            };
            (target_atoms, Plan::Spec(spec))
        }
        "apoa1" | "bc1" | "br" => {
            let bench = match name {
                "apoa1" => apoa1_like(),
                "bc1" => bc1_like(),
                _ => br_like(),
            };
            let bench = if scale != 1.0 { bench.scaled(scale) } else { bench };
            (bench.n_atoms, Plan::Spec(bench.spec().clone()))
        }
        scenario => {
            let scenario = zoo::by_name(scenario, atoms, seed)?;
            (scenario.atoms_at(scale), Plan::Zoo(scenario))
        }
    };
    Some((n_atoms, move || match plan {
        Plan::Spec(spec) if restrained => SystemBuilder::new(spec).build_restrained(),
        Plan::Spec(spec) => SystemBuilder::new(spec).build(),
        Plan::Zoo(scenario) => scenario.build_scaled(scale),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_spec_builds_valid_system() {
        let spec = SystemSpec {
            name: "tiny",
            box_lengths: Vec3::new(24.0, 24.0, 24.0),
            target_atoms: 600,
            protein_chains: 1,
            protein_chain_len: 30,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 1,
        };
        let sys = SystemBuilder::new(spec).build();
        assert_eq!(sys.n_atoms(), 600);
        assert!(sys.topology.validate().is_ok());
        // Water + one polymer: bonds exist.
        assert!(!sys.topology.bonds.is_empty());
        assert!(!sys.topology.angles.is_empty());
        assert!(!sys.topology.dihedrals.is_empty());
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = SystemSpec {
            name: "det",
            box_lengths: Vec3::splat(20.0),
            target_atoms: 300,
            protein_chains: 1,
            protein_chain_len: 20,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 99,
        };
        let a = SystemBuilder::new(spec.clone()).build();
        let b = SystemBuilder::new(spec).build();
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.velocities, b.velocities);
        assert_eq!(a.topology.bonds.len(), b.topology.bonds.len());
    }

    #[test]
    fn all_positions_inside_cell() {
        let sys = SystemBuilder::new(SystemSpec {
            name: "inside",
            box_lengths: Vec3::new(30.0, 25.0, 20.0),
            target_atoms: 900,
            protein_chains: 2,
            protein_chain_len: 25,
            lipid_slab: Some((8.0, 14.0)),
            seed: 3,
            cutoff: 8.0,
        })
        .build();
        for &p in &sys.positions {
            assert!(sys.cell.contains(p), "position {p:?} outside cell");
        }
    }

    #[test]
    fn lipid_slab_raises_local_density() {
        let sys = SystemBuilder::new(SystemSpec {
            name: "slab",
            box_lengths: Vec3::new(40.0, 40.0, 40.0),
            target_atoms: 4000,
            protein_chains: 0,
            protein_chain_len: 0,
            lipid_slab: Some((15.0, 25.0)),
            seed: 7,
            cutoff: 12.0,
        })
        .build();
        // Count atoms in the slab third vs an off-slab third of equal height.
        let in_slab = sys.positions.iter().filter(|p| p.z >= 15.0 && p.z < 25.0).count();
        let off_slab = sys.positions.iter().filter(|p| p.z >= 0.0 && p.z < 10.0).count();
        assert!(
            in_slab as f64 > 1.15 * off_slab as f64,
            "slab {in_slab} vs off-slab {off_slab}: expected denser slab"
        );
    }

    #[test]
    fn benchmark_metadata_matches_paper() {
        // Patch-grid shape checks at the paper's 12 Å cutoff (cheap: do not
        // build the big systems here, just check the specs).
        let a = apoa1_like();
        assert_eq!(a.n_atoms, 92_224);
        assert_eq!(a.patch_grid, [7, 7, 5]);
        let b = bc1_like();
        assert_eq!(b.n_atoms, 206_617);
        assert_eq!(b.patch_grid.iter().product::<usize>(), 378);
        let r = br_like();
        assert_eq!(r.n_atoms, 3_762);
        assert_eq!(r.patch_grid.iter().product::<usize>(), 36);
    }

    #[test]
    fn br_like_builds_fully() {
        let sys = br_like().build();
        assert_eq!(sys.n_atoms(), 3_762);
        assert!(sys.topology.validate().is_ok());
        // Forces must be finite on the generated geometry.
        let mut f = vec![Vec3::ZERO; sys.n_atoms()];
        let e = mdcore::sim::compute_forces(&sys, &mut f);
        assert!(e.potential().is_finite());
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
