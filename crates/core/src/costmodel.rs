//! Work-unit accounting: converts what a compute object did into the
//! abstract work units the runtime's machine model prices.
//!
//! One work unit ≡ one non-bonded pair interaction inside the cutoff
//! (`mdcore::nonbonded::FLOPS_PER_PAIR` FLOPs). Bonded terms and integration
//! are expressed in pair-equivalents, calibrated against the paper's Table 1
//! single-processor breakdown for ApoA-I (non-bonded 52.44 s, bonds 3.16 s,
//! integration 1.44 s per step), which fixes the ratios between the three
//! classes of work.

/// Work units per evaluated non-bonded pair.
pub const WORK_PER_PAIR: f64 = 1.0;

/// Work units charged per candidate pair that had to be distance-tested but
/// fell outside the cutoff. NAMD amortizes the miss cost through pairlists,
/// so a miss is far cheaper than a hit; 0.05 calibrates the ApoA-I-like
/// single-processor step time to the paper's 57 s on the ASCI-Red model.
pub const WORK_PER_CANDIDATE: f64 = 0.05;

/// Work units per stored candidate walked on a pair-list cache *hit*. A hit
/// step skips the O(n²) candidate sweep entirely and only touches the pairs
/// the cached list kept, so the per-miss bookkeeping (one min-image + compare
/// against a compact list entry) is cheaper than the build-step
/// [`WORK_PER_CANDIDATE`] sweep cost.
pub const WORK_PER_LISTED_CANDIDATE: f64 = 0.02;

/// Work units per 2-body bond term.
pub const WORK_PER_BOND: f64 = 15.0;

/// Work units per 3-body angle term.
pub const WORK_PER_ANGLE: f64 = 40.0;

/// Work units per 4-body dihedral/improper term.
pub const WORK_PER_DIHEDRAL: f64 = 60.0;

/// Work units per single-atom positional restraint.
pub const WORK_PER_RESTRAINT: f64 = 6.0;

/// Work units per atom for one integration (velocity-Verlet update, force
/// accumulation bookkeeping, coordinate publication).
pub const WORK_PER_ATOM_INTEGRATION: f64 = 17.0;

/// Bytes on the wire per atom in a coordinate or force message
/// (three doubles plus an id).
pub const BYTES_PER_ATOM: usize = 28;

/// Work units per atom for PME charge spreading plus force gathering
/// (order-4 B-splines: 2 × 4³ mesh points × ~15 FLOPs each).
pub const WORK_PME_PER_ATOM: f64 = 42.0;

/// Bytes per complex mesh point in PME transpose messages.
pub const BYTES_PER_MESH_POINT: usize = 16;

/// Work units for the FFT stages of one PME evaluation over `mesh_points`
/// total grid points (forward + inverse 3-D FFT, 5·M·log₂M FLOPs each, plus
/// the influence-function multiply).
pub fn fft_work(mesh_points: usize) -> f64 {
    let m = mesh_points as f64;
    let fft_flops = 2.0 * 5.0 * m * m.log2().max(1.0);
    let influence_flops = 6.0 * m;
    (fft_flops + influence_flops) / mdcore::nonbonded::FLOPS_PER_PAIR
}

/// Work for a bonded compute holding the given term counts.
pub fn bonded_work(bonds: usize, angles: usize, dihedrals: usize, impropers: usize) -> f64 {
    bonds as f64 * WORK_PER_BOND
        + angles as f64 * WORK_PER_ANGLE
        + (dihedrals + impropers) as f64 * WORK_PER_DIHEDRAL
}

/// Work for a non-bonded compute that evaluated `pairs` interactions out of
/// `candidates` candidate pairs. This is the *rebuild* cost: every candidate
/// was distance-tested from scratch.
pub fn nonbonded_work(pairs: u64, candidates: u64) -> f64 {
    pairs as f64 * WORK_PER_PAIR + candidates.saturating_sub(pairs) as f64 * WORK_PER_CANDIDATE
}

/// Work for a non-bonded compute on a pair-list cache *hit*: it evaluated
/// `pairs` interactions while walking `listed` cached candidates, skipping
/// the full candidate sweep. Strictly cheaper than [`nonbonded_work`] for
/// the same step, which keeps LB measurements honest — a compute that mostly
/// hits its cache really is lighter than one that rebuilds every step.
pub fn nonbonded_work_cached(pairs: u64, listed: u64) -> f64 {
    pairs as f64 * WORK_PER_PAIR
        + listed.saturating_sub(pairs) as f64 * WORK_PER_LISTED_CANDIDATE
}

/// FLOPs corresponding to `work` work units — used for the tables' GFLOPS
/// column, rated the same conservative way the paper does (single-processor
/// op count divided by parallel time).
pub fn flops(work: f64) -> f64 {
    work * mdcore::nonbonded::FLOPS_PER_PAIR
}

/// Work per min-image pair distance in a trajectory-analysis frame sweep
/// (RDF binning + contact-map test share one sweep; no force evaluation, so
/// far cheaper than [`WORK_PER_PAIR`]).
pub const WORK_PER_ANALYSIS_PAIR: f64 = 0.3;

/// Per-atom work for the RMSD alignment pass over one frame (centroid,
/// cross-covariance accumulation, rotation application).
pub const WORK_PER_ANALYSIS_ATOM: f64 = 9.0;

/// Work per atom-frame sample in the MSD unwrapping scan (one min-image
/// step plus displacement accumulation).
pub const WORK_PER_MSD_SAMPLE: f64 = 2.0;

/// Work per f64/u64 slot merged at an analysis reduce-tree node.
pub const WORK_PER_REDUCE_SLOT: f64 = 0.01;

/// Work to analyze one frame (RDF + contacts pair sweep over all unordered
/// pairs, plus the linear RMSD alignment pass).
pub fn analysis_frame_work(n_atoms: usize) -> f64 {
    let pairs = n_atoms as u64 * n_atoms.saturating_sub(1) as u64 / 2;
    pairs as f64 * WORK_PER_ANALYSIS_PAIR + n_atoms as f64 * WORK_PER_ANALYSIS_ATOM
}

/// Work for one MSD atom-block task: every atom in the block is unwrapped
/// through every stored frame.
pub fn analysis_msd_work(block_atoms: usize, n_frames: usize) -> f64 {
    (block_atoms as u64 * n_frames as u64) as f64 * WORK_PER_MSD_SAMPLE
}

/// Work to fold one packed partial-observable payload into a reduce-tree
/// node (`slots` = total f64/u64 slots in the partial).
pub fn analysis_reduce_work(slots: usize) -> f64 {
    slots as f64 * WORK_PER_REDUCE_SLOT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonded_work_combines_terms() {
        let w = bonded_work(2, 1, 1, 1);
        assert_eq!(w, 2.0 * WORK_PER_BOND + WORK_PER_ANGLE + 2.0 * WORK_PER_DIHEDRAL);
    }

    #[test]
    fn nonbonded_work_charges_misses_less() {
        let hit_only = nonbonded_work(100, 100);
        let with_misses = nonbonded_work(100, 200);
        assert!(with_misses > hit_only);
        assert!(with_misses < 2.0 * hit_only);
    }

    #[test]
    fn cache_hit_work_is_below_rebuild_work() {
        // A hit walks only the stored candidates (a subset of the sweep's
        // candidates) at a lower per-miss rate; same evaluated pairs.
        let pairs = 10_000;
        let candidates = 60_000; // full O(n²) sweep on a rebuild step
        let listed = 18_000; // cached list at cutoff + margin
        let rebuild = nonbonded_work(pairs, candidates);
        let hit = nonbonded_work_cached(pairs, listed);
        assert!(hit < rebuild, "hit {hit} must be cheaper than rebuild {rebuild}");
        // Both still dominated by the real pair interactions.
        assert!(hit >= pairs as f64 * WORK_PER_PAIR);
        // Degenerate case: a list with only true pairs costs exactly the pairs.
        assert_eq!(nonbonded_work_cached(pairs, pairs), pairs as f64 * WORK_PER_PAIR);
    }

    #[test]
    fn analysis_work_scales_and_stays_below_force_work() {
        // The frame sweep is quadratic in atoms once the pair term has
        // outgrown the linear RMSD pass…
        let w1 = analysis_frame_work(1_000);
        let w2 = analysis_frame_work(2_000);
        assert!(w2 > 3.5 * w1, "pair sweep should dominate: {w1} -> {w2}");
        // …but an analysis pair is far cheaper than a force pair, so a
        // frame of analysis costs less than a step of nonbonded forces on
        // the same pair count.
        let pairs = 100u64 * 99 / 2;
        assert!(analysis_frame_work(100) < nonbonded_work(pairs, pairs));
        // MSD is linear in block size × frames; the reduce is cheap
        // relative to either compute.
        assert_eq!(analysis_msd_work(10, 8), 2.0 * analysis_msd_work(10, 4));
        assert!(analysis_reduce_work(200) < analysis_msd_work(10, 8));
    }

    #[test]
    fn table1_ratio_calibration() {
        // ApoA-I-like: ~61M pairs/step. Bonds should come out near
        // 3.16/52.44 of the non-bonded work; integration near 1.44/52.44.
        // Term counts from the generated system (71k bonds, ~46k angles,
        // ~2k dihedrals+impropers).
        let nb = 61.0e6;
        let bonded = bonded_work(71_278, 46_000, 2_200, 500);
        let integ = 92_224.0 * WORK_PER_ATOM_INTEGRATION;
        let bond_ratio = bonded / nb;
        let integ_ratio = integ / nb;
        assert!(
            (bond_ratio - 3.16 / 52.44).abs() < 0.03,
            "bond ratio {bond_ratio} vs paper {}",
            3.16 / 52.44
        );
        assert!(
            (integ_ratio - 1.44 / 52.44).abs() < 0.01,
            "integration ratio {integ_ratio} vs paper {}",
            1.44 / 52.44
        );
    }
}
