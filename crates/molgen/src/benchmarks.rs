//! The paper's three benchmark systems, reproduced as synthetic equivalents.
//!
//! Exact atom counts and patch-grid shapes match the paper; geometry is
//! synthetic (see DESIGN.md §2). The patch side used throughout the
//! reproduction is `cutoff + PATCH_MARGIN` — NAMD patches are "slightly
//! larger than the cutoff radius" so that atoms do not migrate between
//! patches every step; 12 + 3.5 = 15.5 Å reproduces ApoA-I's published
//! 7×7×5 = 245-patch grid.

use crate::builders::{SystemBuilder, SystemSpec};
use mdcore::prelude::*;

/// Patch side = cutoff + this margin, Å.
pub const PATCH_MARGIN: f64 = 3.5;

/// The paper's cutoff for all three benchmarks, Å.
pub const PAPER_CUTOFF: f64 = 12.0;

/// A named benchmark: spec plus the paper-derived metadata that tests and
/// benchmark harnesses check against.
#[derive(Debug, Clone)]
pub struct BenchmarkSystem {
    /// Benchmark name as used in the paper ("ApoA-I", "BC1", "bR").
    pub name: &'static str,
    /// Exact atom count (paper value).
    pub n_atoms: usize,
    /// Patch grid at the paper's 12 Å cutoff (paper value).
    pub patch_grid: [usize; 3],
    /// Single-processor seconds per step on ASCI-Red (paper value; used to
    /// cross-check the cost model's calibration).
    pub paper_sec_per_step_asci_red: Option<f64>,
    spec: SystemSpec,
}

impl BenchmarkSystem {
    /// Build the full molecular system (expensive for BC1: ~200k atoms).
    pub fn build(&self) -> System {
        let sys = SystemBuilder::new(self.spec.clone()).build();
        debug_assert_eq!(sys.n_atoms(), self.n_atoms);
        sys
    }

    /// The spec driving the builder (exposed for scaled-down variants).
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Patch side length for the paper cutoff.
    pub fn patch_side(&self) -> f64 {
        self.spec.cutoff + PATCH_MARGIN
    }

    /// Wrap a raw [`SystemSpec`] as a benchmark entry. Atom count and the
    /// patch grid are derived from the spec (the grid matches what the
    /// engine's `PatchGrid::build` computes: `floor(len / side)` per axis,
    /// at least 1); there is no paper-measured metadata. This is how the
    /// scenario zoo ([`crate::zoo`]) produces `BenchmarkSystem`-compatible
    /// specs.
    pub fn from_spec(name: &'static str, spec: SystemSpec) -> BenchmarkSystem {
        let side = spec.cutoff + PATCH_MARGIN;
        let dim = |len: f64| ((len / side).floor() as usize).max(1);
        BenchmarkSystem {
            name,
            n_atoms: spec.target_atoms,
            patch_grid: [
                dim(spec.box_lengths.x),
                dim(spec.box_lengths.y),
                dim(spec.box_lengths.z),
            ],
            paper_sec_per_step_asci_red: None,
            spec,
        }
    }

    /// A scaled version of this benchmark: `frac` of the atoms in a box
    /// scaled to preserve the original atom density. `frac < 1` shrinks
    /// (cheap tests); `frac > 1` grows (weak-scaling sweeps
    /// that hold atoms-per-PE fixed while the PE count rises). Two
    /// invariants hold at any fraction:
    ///
    /// * **density** — `target_atoms` follows the *actual* scaled volume,
    ///   so when a tiny fraction clamps against the minimum box below the
    ///   system stays liquid-like instead of over-packing;
    /// * **patch grid** — every axis stays at least one patch side
    ///   (`cutoff + PATCH_MARGIN`) long, and `patch_grid` is recomputed
    ///   from the scaled box instead of left degenerate.
    ///
    /// The lipid slab is dropped when shrinking (at smoke-test scale its
    /// clearance shell would consume most of the water lattice) and kept —
    /// rescaled along z — when growing.
    pub fn scaled(&self, frac: f64) -> BenchmarkSystem {
        assert!(
            frac > 0.0 && frac.is_finite(),
            "scale fraction must be positive and finite, got {frac}"
        );
        let spec0 = &self.spec;
        let vol0 = spec0.box_lengths.x * spec0.box_lengths.y * spec0.box_lengths.z;
        let density = spec0.target_atoms as f64 / vol0;
        let s = frac.cbrt();
        let mut spec = spec0.clone();
        spec.box_lengths *= s;
        let min_len = spec.cutoff + PATCH_MARGIN;
        spec.box_lengths.x = spec.box_lengths.x.max(min_len);
        spec.box_lengths.y = spec.box_lengths.y.max(min_len);
        spec.box_lengths.z = spec.box_lengths.z.max(min_len);
        let vol = spec.box_lengths.x * spec.box_lengths.y * spec.box_lengths.z;
        // 33 atoms = 11 waters, the smallest box that still exercises the
        // water-fill path meaningfully.
        spec.target_atoms = ((density * vol).round() as usize).max(33);
        if spec0.protein_chains > 0 && spec0.protein_chain_len > 0 {
            spec.protein_chains = ((spec0.protein_chains as f64 * frac).ceil() as usize).max(1);
            // Total solute scales with `frac` (not the linear factor `s`),
            // capped at 60% of the budget so the water fill stays
            // satisfiable even when the box is clamped at tiny fractions.
            let solute0 = (spec0.protein_chains * spec0.protein_chain_len) as f64;
            let cap = spec.target_atoms * 3 / 5;
            let total = ((solute0 * frac).round() as usize).min(cap);
            spec.protein_chain_len = total / spec.protein_chains;
        }
        spec.lipid_slab = if frac >= 1.0 {
            spec0.lipid_slab.map(|(z0, z1)| (z0 * s, z1 * s))
        } else {
            None
        };
        BenchmarkSystem::from_spec(self.name, spec)
    }
}

/// ApoA-I: 92,224-atom protein+lipid+water assembly, 7×7×5 = 245 patches,
/// 12 Å cutoff, 57.1 s/step on one ASCI-Red PE (Table 2).
pub fn apoa1_like() -> BenchmarkSystem {
    BenchmarkSystem {
        name: "ApoA-I",
        n_atoms: 92_224,
        patch_grid: [7, 7, 5],
        paper_sec_per_step_asci_red: Some(57.1),
        spec: SystemSpec {
            name: "ApoA-I-like",
            box_lengths: Vec3::new(112.0, 112.0, 84.0),
            target_atoms: 92_224,
            protein_chains: 4,
            protein_chain_len: 550,
            // Lipid disc through the box centre — the density hot-spot.
            lipid_slab: Some((32.0, 52.0)),
            cutoff: PAPER_CUTOFF,
            seed: 0xA_90A1,
        },
    }
}

/// BC1: 206,617 atoms in 378 patches (we use a 9×7×6 grid), 12 Å cutoff.
/// The paper's Table 3 scales it to a 1252× speedup on 2048 PEs.
pub fn bc1_like() -> BenchmarkSystem {
    BenchmarkSystem {
        name: "BC1",
        n_atoms: 206_617,
        patch_grid: [9, 7, 6],
        paper_sec_per_step_asci_red: Some(74.2 * 2.0), // 2-PE time × 2 (Table 3 baseline)
        spec: SystemSpec {
            name: "BC1-like",
            box_lengths: Vec3::new(154.0, 123.0, 107.0),
            target_atoms: 206_617,
            protein_chains: 8,
            protein_chain_len: 800,
            lipid_slab: Some((43.5, 63.5)),
            cutoff: PAPER_CUTOFF,
            seed: 0xBC1,
        },
    }
}

/// bR (bacteriorhodopsin): 3,762 atoms in 36 patches (4×3×3), 12 Å cutoff —
/// the paper's small system, which stops scaling past 64 PEs (Table 4).
pub fn br_like() -> BenchmarkSystem {
    BenchmarkSystem {
        name: "bR",
        n_atoms: 3_762,
        patch_grid: [4, 3, 3],
        paper_sec_per_step_asci_red: Some(1.47),
        spec: SystemSpec {
            name: "bR-like",
            box_lengths: Vec3::new(65.0, 50.0, 50.0),
            target_atoms: 3_762,
            // One compact 2,400-atom protein globule (bacteriorhodopsin is a
            // single chain) plus a thin hydration shell — four separate
            // blobs would overlap in a box this small.
            protein_chains: 1,
            protein_chain_len: 2_400,
            lipid_slab: None,
            cutoff: PAPER_CUTOFF,
            seed: 0xB7,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_grids_follow_from_box_and_margin() {
        for b in [apoa1_like(), bc1_like(), br_like()] {
            let side = b.patch_side();
            let dims = [
                (b.spec().box_lengths.x / side).floor() as usize,
                (b.spec().box_lengths.y / side).floor() as usize,
                (b.spec().box_lengths.z / side).floor() as usize,
            ];
            assert_eq!(dims, b.patch_grid, "{}: box/side mismatch", b.name);
        }
    }

    #[test]
    fn scaled_benchmark_is_buildable() {
        let small = apoa1_like().scaled(0.01);
        let sys = small.build();
        assert_eq!(sys.n_atoms(), small.n_atoms);
        assert!(sys.n_atoms() > 500);
        assert!(sys.topology.validate().is_ok());
    }

    /// Mean atom density of a benchmark spec (atoms/Å³ over the full box).
    fn density(b: &BenchmarkSystem) -> f64 {
        let v = b.spec().box_lengths.x * b.spec().box_lengths.y * b.spec().box_lengths.z;
        b.n_atoms as f64 / v
    }

    #[test]
    fn scaled_preserves_density_at_extreme_fractions() {
        for base in [apoa1_like(), bc1_like(), br_like()] {
            let d0 = density(&base);
            for frac in [1e-4, 0.01, 0.5, 1.0, 2.0, 4.0] {
                let b = base.scaled(frac);
                let d = density(&b);
                assert!(
                    (0.6..=1.4).contains(&(d / d0)),
                    "{} scaled({frac}): density {d} vs base {d0}",
                    base.name
                );
            }
        }
    }

    #[test]
    fn scaled_patch_grid_is_valid_and_derived() {
        for base in [apoa1_like(), br_like()] {
            for frac in [1e-4, 0.05, 1.0, 3.0] {
                let b = base.scaled(frac);
                let side = b.patch_side();
                for a in 0..3 {
                    let len = [b.spec().box_lengths.x, b.spec().box_lengths.y, b.spec().box_lengths.z][a];
                    // Box never shrinks below one patch side...
                    assert!(
                        len >= side - 1e-9,
                        "{} scaled({frac}) axis {a}: {len} < {side}",
                        base.name
                    );
                    // ...and the grid matches the engine's derivation.
                    let dim = ((len / side).floor() as usize).max(1);
                    assert_eq!(b.patch_grid[a], dim, "{} scaled({frac}) axis {a}", base.name);
                }
                assert!(b.patch_grid.iter().all(|&d| d >= 1));
            }
        }
    }

    #[test]
    fn scaled_tiny_fraction_builds() {
        // The clamp means even absurdly small fractions produce a buildable,
        // liquid-like minimum box.
        for base in [apoa1_like(), br_like()] {
            let b = base.scaled(1e-6);
            let sys = b.build();
            assert_eq!(sys.n_atoms(), b.n_atoms);
            assert!(sys.topology.validate().is_ok(), "{}", base.name);
        }
    }

    #[test]
    fn scaled_huge_fraction_grows_system() {
        let base = br_like();
        let b = base.scaled(4.0);
        assert!(
            (b.n_atoms as f64) > 3.2 * base.n_atoms as f64
                && (b.n_atoms as f64) < 4.8 * base.n_atoms as f64,
            "4x bR: {} atoms from {}",
            b.n_atoms,
            base.n_atoms
        );
        assert!(b.patch_grid.iter().product::<usize>() > base.patch_grid.iter().product::<usize>());
        let sys = b.build();
        assert_eq!(sys.n_atoms(), b.n_atoms);
        assert!(sys.topology.validate().is_ok());
    }

    #[test]
    fn scaled_identity_fraction_keeps_spec() {
        let base = apoa1_like();
        let b = base.scaled(1.0);
        assert_eq!(b.n_atoms, base.n_atoms);
        assert_eq!(b.patch_grid, base.patch_grid);
        assert!((b.spec().box_lengths.x - base.spec().box_lengths.x).abs() < 1e-9);
        // Growing keeps (and rescales) the lipid slab; frac == 1 keeps it
        // exactly.
        assert_eq!(b.spec().lipid_slab, base.spec().lipid_slab);
        let up = base.scaled(2.0);
        let (z0, z1) = up.spec().lipid_slab.expect("slab kept when growing");
        let s = 2.0f64.cbrt();
        assert!((z0 - 32.0 * s).abs() < 1e-9 && (z1 - 52.0 * s).abs() < 1e-9);
        let down = base.scaled(0.5);
        assert_eq!(down.spec().lipid_slab, None, "slab dropped when shrinking");
    }

    #[test]
    fn scaled_atom_count_is_monotone_in_fraction() {
        let base = apoa1_like();
        let mut last = 0usize;
        for frac in [1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0] {
            let n = base.scaled(frac).n_atoms;
            assert!(n >= last, "scaled({frac}): {n} < {last}");
            last = n;
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn scaled_rejects_zero_fraction() {
        let _ = apoa1_like().scaled(0.0);
    }

    #[test]
    fn apoa1_density_is_biomolecular() {
        let b = apoa1_like();
        let v = b.spec().box_lengths.x * b.spec().box_lengths.y * b.spec().box_lengths.z;
        let d = b.n_atoms as f64 / v;
        assert!((0.08..0.13).contains(&d), "ApoA-I-like density {d}");
    }
}
