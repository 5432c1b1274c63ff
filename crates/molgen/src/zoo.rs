//! # Scenario zoo — inhomogeneous, dynamic stress systems
//!
//! The paper's three benchmark decks are near-uniform solvated boxes, so
//! they barely stress the measurement-based load balancer: per-patch work
//! varies by tens of percent, not factors. The zoo generates the systems
//! the LB strategies were actually *built* for — membrane slabs, vacuum
//! droplets, dense hot-spots, polymer melts, and systems that grow or
//! shrink between measurement phases (the CM-5 weak-scaling and GROMACS
//! heterogeneous-load validation styles, see PAPERS.md).
//!
//! Every scenario is a pure function of `(target_atoms, seed)` and carries
//! a **declared expected-imbalance profile**: the qualitative shape
//! ([`ImbalanceProfile`]), plus a quantitative [`ImbalanceBudget`] — the
//! max/avg per-PE predicted-load ratio the static RCB placement and the
//! measurement-based strategies are allowed to leave behind, as read from
//! the engine's `LbAudit` log. `tests/scenario_stress.rs` enforces the
//! budgets.
//!
//! Budgets are calibrated from measurements over the stress operating
//! envelope (2-8 PEs, 1-16k atoms, DES backend in Counted mode, default
//! grainsize knobs) with ~20% headroom over the observed worst case; they
//! are pass/fail bars for regressions, not universal constants. To
//! recalibrate after a generator or strategy change, run
//! `cargo test --test scenario_stress -- --ignored --nocapture probe`.
//! Note that at stress sizes (27-ish patches on 8 PEs) the *static* RCB
//! imbalance is dominated by patch granularity, so even the uniform
//! control scenario declares a static budget near 2.

use crate::benchmarks::BenchmarkSystem;
use crate::builders::SystemSpec;
use mdcore::prelude::*;

/// Cutoff used by every zoo scenario, Å. Smaller than the paper's 12 Å so
/// stress-sized boxes (a few thousand atoms) still decompose into enough
/// patches (side = cutoff + margin = 11.5 Å) to give the balancer choices.
pub const ZOO_CUTOFF: f64 = 8.0;

/// Bulk water atom density the generators target, atoms/Å³.
const WATER_DENSITY: f64 = 0.10;

/// Largest per-atom force a built scenario starts with, kcal/mol/Å. The
/// builders can lay atoms on top of one another (`polymer-melt` and the
/// growing/shrinking ramps start at up to 10^10), which blows a deck up in
/// its first steps; a short steepest descent brings such a deck under this
/// bound and leaves every other deck as built.
const MAX_START_FORCE: f64 = 1e5;

/// Qualitative shape of a scenario's spatial load distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImbalanceProfile {
    /// Near-uniform density (pure water): the control scenario.
    Uniform,
    /// A dense lipid plane through an elongated box (membrane).
    Slab,
    /// A compact dense core (lipid band + protein globule intersection).
    ClusteredCore,
    /// A dense blob surrounded by vacuum: most patches are empty.
    Sparse,
    /// Many polymer chains — bonded-work heavy, clumpy density.
    BondedMelt,
    /// The system changes size across stages (growing/shrinking).
    Dynamic,
}

impl ImbalanceProfile {
    /// Stable lowercase tag used in JSON output and failure messages.
    pub fn as_str(&self) -> &'static str {
        match self {
            ImbalanceProfile::Uniform => "uniform",
            ImbalanceProfile::Slab => "slab",
            ImbalanceProfile::ClusteredCore => "clustered-core",
            ImbalanceProfile::Sparse => "sparse",
            ImbalanceProfile::BondedMelt => "bonded-melt",
            ImbalanceProfile::Dynamic => "dynamic",
        }
    }
}

/// Declared pass/fail imbalance budget for one scenario. All three numbers
/// are max/avg per-PE predicted-load ratios as recorded in `LbAudit`
/// entries (1.0 = perfectly balanced).
#[derive(Debug, Clone, Copy)]
pub struct ImbalanceBudget {
    /// The initial RCB/static placement may not exceed this.
    pub static_max: f64,
    /// Any measurement-based strategy (greedy, greedy+refine)
    /// may not leave more than this behind after its final decision.
    pub lb_max: f64,
    /// The static placement is *expected* to show at least this much
    /// imbalance — the scenario's reason to exist. 1.0 for uniform
    /// scenarios (no expectation).
    pub expected_static_min: f64,
}

/// One zoo scenario: a deterministic `BenchmarkSystem`-compatible spec plus
/// its declared imbalance profile, budget, and growth schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable scenario name (used in JSON, CLI, and failure messages).
    pub name: &'static str,
    pub profile: ImbalanceProfile,
    pub budget: ImbalanceBudget,
    /// Size multipliers the scenario steps through, applied via
    /// [`BenchmarkSystem::scaled`]: `[1.0]` for static scenarios, a ramp
    /// for growing/shrinking systems.
    pub stages: Vec<f64>,
    /// Cell expansion factor applied after building: > 1 embeds the dense
    /// inner box centered in a larger vacuum cell (the droplet scenario).
    vacuum_expand: f64,
    inner: BenchmarkSystem,
}

impl Scenario {
    /// The underlying `BenchmarkSystem` spec (full size, no vacuum
    /// expansion applied — droplet cells grow in [`Scenario::build`]).
    pub fn benchmark(&self) -> &BenchmarkSystem {
        &self.inner
    }

    /// RNG seed the scenario was generated with.
    pub fn seed(&self) -> u64 {
        self.inner.spec().seed
    }

    /// Number of growth stages (1 for static scenarios).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Atom count of the full-size (fraction 1.0) system.
    pub fn n_atoms(&self) -> usize {
        self.inner.n_atoms
    }

    /// Atom count at an arbitrary size fraction.
    pub fn atoms_at(&self, frac: f64) -> usize {
        if frac == 1.0 {
            self.inner.n_atoms
        } else {
            self.inner.scaled(frac).n_atoms
        }
    }

    /// Build the full-size system (stage fraction 1.0).
    pub fn build(&self) -> System {
        self.build_scaled(1.0)
    }

    /// Build growth-stage `k` (`0..n_stages`).
    pub fn build_stage(&self, k: usize) -> System {
        self.build_scaled(self.stages[k])
    }

    /// Build the system at an arbitrary size fraction — the weak-scaling
    /// knob: fraction `p` holds atoms-per-PE fixed across `p` PEs.
    pub fn build_scaled(&self, frac: f64) -> System {
        let bench = if frac == 1.0 {
            self.inner.clone()
        } else {
            self.inner.scaled(frac)
        };
        let mut sys = bench.build();
        if self.vacuum_expand > 1.0 {
            sys = embed_in_vacuum(sys, self.vacuum_expand);
        }
        mdcore::minimize::minimize(&mut sys, 50, MAX_START_FORCE);
        sys
    }
}

/// Re-home a dense system in the centre of a cell `expand`× larger per
/// axis: everything outside the original box is vacuum. Positions shift,
/// velocities and topology are untouched, so the result is exactly as
/// deterministic as the input.
fn embed_in_vacuum(sys: System, expand: f64) -> System {
    assert!(expand > 1.0);
    let l0 = sys.cell.lengths;
    let l1 = l0 * expand;
    let shift = (l1 - l0) * 0.5;
    let cell = Cell::periodic(Vec3::ZERO, l1);
    let positions = sys.positions.iter().map(|&p| p + shift).collect();
    let velocities = sys.velocities.clone();
    let mut out = System::new(sys.topology, sys.forcefield, cell, positions);
    out.velocities = velocities;
    out
}

/// Cube edge holding `atoms` at `density` atoms/Å³.
fn cube_side(atoms: usize, density: f64) -> f64 {
    (atoms as f64 / density).cbrt()
}

/// Uniform solvated box: pure water, the control scenario — the balancer
/// should find almost nothing to fix.
pub fn solvated_box(atoms: usize, seed: u64) -> Scenario {
    let l = cube_side(atoms, WATER_DENSITY);
    Scenario {
        name: "solvated-box",
        profile: ImbalanceProfile::Uniform,
        budget: ImbalanceBudget {
            static_max: 2.4,
            lb_max: 1.30,
            expected_static_min: 1.0,
        },
        stages: vec![1.0],
        vacuum_expand: 1.0,
        inner: BenchmarkSystem::from_spec(
            "solvated-box",
            SystemSpec {
                name: "zoo-solvated-box",
                box_lengths: Vec3::splat(l),
                target_atoms: atoms,
                protein_chains: 0,
                protein_chain_len: 0,
                lipid_slab: None,
                cutoff: ZOO_CUTOFF,
                seed,
            },
        ),
    }
}

/// Membrane slab: a dense lipid plane through ~30% of an elongated box.
/// Patches intersecting the slab carry ~1.3× the pair density of bulk
/// water — ApoA-I's hot-spot, isolated.
pub fn membrane_slab(atoms: usize, seed: u64) -> Scenario {
    // Elongate z so the slab is a genuine plane, not most of the box.
    let lx = (atoms as f64 / (WATER_DENSITY * 1.4)).cbrt();
    let lz = 1.4 * lx;
    let (z0, z1) = (0.38 * lz, 0.62 * lz);
    Scenario {
        name: "membrane-slab",
        profile: ImbalanceProfile::Slab,
        budget: ImbalanceBudget {
            static_max: 2.4,
            lb_max: 1.30,
            expected_static_min: 1.0,
        },
        stages: vec![1.0],
        vacuum_expand: 1.0,
        inner: BenchmarkSystem::from_spec(
            "membrane-slab",
            SystemSpec {
                name: "zoo-membrane-slab",
                box_lengths: Vec3::new(lx, lx, lz),
                target_atoms: atoms,
                protein_chains: 0,
                protein_chain_len: 0,
                lipid_slab: Some((z0, z1)),
                cutoff: ZOO_CUTOFF,
                seed,
            },
        ),
    }
}

/// Polymer melt: many protein-like chains holding ~55% of the atom budget,
/// water filling the rest. Bonded-work heavy and clumpy — the bonded
/// migratability optimization's target.
pub fn polymer_melt(atoms: usize, seed: u64) -> Scenario {
    let chains = (atoms / 500).max(4);
    let chain_len = (atoms / 2) / chains;
    // Slightly dilate the box: half the budget is solute, and the water
    // fill needs lattice headroom outside the chains' clearance shells.
    let l = cube_side(atoms, WATER_DENSITY * 0.85);
    Scenario {
        name: "polymer-melt",
        profile: ImbalanceProfile::BondedMelt,
        budget: ImbalanceBudget {
            static_max: 2.75,
            lb_max: 1.30,
            expected_static_min: 1.0,
        },
        stages: vec![1.0],
        vacuum_expand: 1.0,
        inner: BenchmarkSystem::from_spec(
            "polymer-melt",
            SystemSpec {
                name: "zoo-polymer-melt",
                box_lengths: Vec3::splat(l),
                target_atoms: atoms,
                protein_chains: chains,
                protein_chain_len: chain_len,
                lipid_slab: None,
                cutoff: ZOO_CUTOFF,
                seed,
            },
        ),
    }
}

/// Vacuum droplet: a dense solvated cube (with a small protein core) in
/// the middle of a cell ~6× its volume. Most patches are empty — the
/// worst case for any placement that assumes uniform density.
pub fn vacuum_droplet(atoms: usize, seed: u64) -> Scenario {
    let l = cube_side(atoms, WATER_DENSITY);
    let core = atoms / 10;
    Scenario {
        name: "vacuum-droplet",
        profile: ImbalanceProfile::Sparse,
        budget: ImbalanceBudget {
            static_max: 2.7,
            lb_max: 1.35,
            expected_static_min: 1.3,
        },
        stages: vec![1.0],
        vacuum_expand: 1.8,
        inner: BenchmarkSystem::from_spec(
            "vacuum-droplet",
            SystemSpec {
                name: "zoo-vacuum-droplet",
                box_lengths: Vec3::splat(l),
                target_atoms: atoms,
                protein_chains: 1,
                protein_chain_len: core,
                lipid_slab: None,
                cutoff: ZOO_CUTOFF,
                seed,
            },
        ),
    }
}

/// Density hot-spot: a thin, very dense lipid band with a protein globule
/// threading it, centred in a cubic water box. The band∩globule region is
/// a compact clump of work.
pub fn density_hotspot(atoms: usize, seed: u64) -> Scenario {
    let l = cube_side(atoms, WATER_DENSITY);
    // Band thickness scales with the box (20% of the height) so small
    // stress sizes keep a sane lipid bead spacing. The protein core is kept
    // small: at the builder's 0.055 atoms/Å³ globule density a large core
    // would *dilute* the band (water is excluded from its clearance shell)
    // instead of concentrating it.
    let (z0, z1) = (0.4 * l, 0.6 * l);
    let core = atoms / 30;
    Scenario {
        name: "density-hotspot",
        profile: ImbalanceProfile::ClusteredCore,
        budget: ImbalanceBudget {
            static_max: 2.5,
            lb_max: 1.35,
            expected_static_min: 1.25,
        },
        stages: vec![1.0],
        vacuum_expand: 1.0,
        inner: BenchmarkSystem::from_spec(
            "density-hotspot",
            SystemSpec {
                name: "zoo-density-hotspot",
                box_lengths: Vec3::splat(l),
                target_atoms: atoms,
                protein_chains: 1,
                protein_chain_len: core,
                lipid_slab: Some((z0, z1)),
                cutoff: ZOO_CUTOFF,
                seed,
            },
        ),
    }
}

/// Growing system: a solvated box with a small solute that steps through
/// 55% → 75% → 100% of its final size, one measurement window per stage —
/// the load balancer must keep up with a system that changes under it.
pub fn growing_system(atoms: usize, seed: u64) -> Scenario {
    let mut s = dynamic_base(atoms, seed, "growing-system", "zoo-growing-system");
    s.stages = vec![0.55, 0.75, 1.0];
    s
}

/// Shrinking system: the growing scenario's ramp, reversed.
pub fn shrinking_system(atoms: usize, seed: u64) -> Scenario {
    let mut s = dynamic_base(atoms, seed, "shrinking-system", "zoo-shrinking-system");
    s.stages = vec![1.0, 0.75, 0.55];
    s
}

fn dynamic_base(atoms: usize, seed: u64, name: &'static str, spec_name: &'static str) -> Scenario {
    let l = cube_side(atoms, WATER_DENSITY);
    Scenario {
        name,
        profile: ImbalanceProfile::Dynamic,
        budget: ImbalanceBudget {
            static_max: 2.35,
            lb_max: 1.45,
            expected_static_min: 1.0,
        },
        stages: vec![1.0],
        vacuum_expand: 1.0,
        inner: BenchmarkSystem::from_spec(
            name,
            SystemSpec {
                name: spec_name,
                box_lengths: Vec3::splat(l),
                target_atoms: atoms,
                protein_chains: 1,
                protein_chain_len: atoms / 20,
                lipid_slab: None,
                cutoff: ZOO_CUTOFF,
                seed,
            },
        ),
    }
}

/// Every zoo scenario at the given size and seed, in stable order —
/// roughly most to least load-stressing, so a case-limited run
/// (`SCENARIO_STRESS_CASES`) keeps the scenarios with declared static
/// imbalance and drops the uniform control last.
pub fn all(atoms: usize, seed: u64) -> Vec<Scenario> {
    vec![
        density_hotspot(atoms, seed),
        vacuum_droplet(atoms, seed),
        membrane_slab(atoms, seed),
        polymer_melt(atoms, seed),
        growing_system(atoms, seed),
        shrinking_system(atoms, seed),
        solvated_box(atoms, seed),
    ]
}

/// Stable scenario names, matching [`all`]'s order.
pub fn names() -> Vec<&'static str> {
    all(1000, 0).into_iter().map(|s| s.name).collect()
}

/// Look a scenario up by name.
pub fn by_name(name: &str, atoms: usize, seed: u64) -> Option<Scenario> {
    all(atoms, seed).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_ATOMS: usize = 900;

    /// Bitwise system equality: positions, velocities, and topology sizes.
    fn same_system(a: &System, b: &System) -> bool {
        a.positions == b.positions
            && a.velocities == b.velocities
            && a.topology.atoms.len() == b.topology.atoms.len()
            && a.topology.bonds.len() == b.topology.bonds.len()
            && a.cell.lengths == b.cell.lengths
    }

    #[test]
    fn every_generator_is_deterministic() {
        for sc in all(TEST_ATOMS, 11) {
            let x = sc.build();
            let y = by_name(sc.name, TEST_ATOMS, 11).unwrap().build();
            assert!(
                same_system(&x, &y),
                "{}: same seed must be bit-identical",
                sc.name
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        for sc in all(TEST_ATOMS, 11) {
            let other = by_name(sc.name, TEST_ATOMS, 12).unwrap();
            let x = sc.build();
            let y = other.build();
            assert_eq!(x.n_atoms(), y.n_atoms(), "{}", sc.name);
            assert_ne!(
                x.positions, y.positions,
                "{}: seeds 11/12 identical",
                sc.name
            );
        }
    }

    #[test]
    fn every_stage_builds_to_spec() {
        for sc in all(TEST_ATOMS, 3) {
            for k in 0..sc.n_stages() {
                let sys = sc.build_stage(k);
                assert!(sys.topology.validate().is_ok(), "{} stage {k}", sc.name);
                assert_eq!(
                    sys.n_atoms(),
                    sc.atoms_at(sc.stages[k]),
                    "{} stage {k}",
                    sc.name
                );
            }
        }
    }

    #[test]
    fn droplet_cell_is_mostly_vacuum() {
        let sc = vacuum_droplet(TEST_ATOMS, 5);
        let sys = sc.build();
        let density = sys.n_atoms() as f64 / sys.cell.volume();
        // 1.8³ ≈ 5.8× the inner volume: mean density far below liquid.
        assert!(density < 0.4 * 0.10, "droplet mean density {density}");
        // All atoms sit in the central core, none near the cell faces.
        let l = sys.cell.lengths;
        for &p in &sys.positions {
            assert!(
                p.x > 0.15 * l.x && p.x < 0.85 * l.x,
                "atom at {p:?} outside core"
            );
        }
    }

    #[test]
    fn hotspot_band_is_denser_than_bulk() {
        let sc = density_hotspot(4000, 9);
        let sys = sc.build();
        let l = sys.cell.lengths.z;
        let band = sys
            .positions
            .iter()
            .filter(|p| p.z >= 0.4 * l && p.z < 0.6 * l)
            .count();
        let bulk = sys.positions.iter().filter(|p| p.z < 0.2 * l).count();
        assert!(
            band as f64 > 1.15 * bulk as f64,
            "hot band {band} vs bulk slice {bulk}: expected denser band"
        );
    }

    #[test]
    fn names_are_unique_and_lookup_works() {
        let names = names();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(by_name("vacuum-droplet", 600, 1).is_some());
        assert!(by_name("no-such-scenario", 600, 1).is_none());
    }

    #[test]
    fn growth_stages_actually_grow() {
        let sc = growing_system(1500, 4);
        let sizes: Vec<usize> = sc.stages.iter().map(|&f| sc.atoms_at(f)).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
        let sh = shrinking_system(1500, 4);
        let sizes: Vec<usize> = sh.stages.iter().map(|&f| sh.atoms_at(f)).collect();
        assert!(sizes.windows(2).all(|w| w[0] > w[1]), "{sizes:?}");
    }
}
