//! Hybrid force/spatial decomposition: building the compute-object set.
//!
//! "For each pair of neighboring cubes, we assign a non-bonded force
//! computation object, which can be independently mapped to any processor.
//! The number of such objects is therefore 14 times (26/2 + 1
//! self-interaction) the number of cubes." Plus grainsize control (§4.2.1):
//! self computes are split by atom count, and face-adjacent pair computes —
//! the culprits behind the bimodal grainsize distribution of Figure 1 — are
//! optionally split into several pieces. Bonded work is split into
//! migratable intra-cube computes and non-migratable inter-cube computes
//! (§4.2.2).

use crate::config::SimConfig;
use crate::costmodel;
use crate::patchgrid::{PatchGrid, PatchId};
use mdcore::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// What a compute object computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ComputeKind {
    /// Non-bonded pairs within one patch (piece of the triangle).
    SelfNb { patch: PatchId },
    /// Non-bonded cross pairs between two neighbouring patches.
    PairNb { a: PatchId, b: PatchId },
    /// Bonded terms entirely inside one patch (migratable after §4.2.2).
    BondedIntra { patch: PatchId },
    /// Bonded terms spanning patches, based at `patch` (non-migratable).
    BondedInter { patch: PatchId },
}

/// Indices into the topology's term arrays owned by one bonded compute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BondedTerms {
    pub bonds: Vec<u32>,
    pub angles: Vec<u32>,
    pub dihedrals: Vec<u32>,
    pub impropers: Vec<u32>,
    pub restraints: Vec<u32>,
}

impl BondedTerms {
    /// Total number of terms.
    pub fn len(&self) -> usize {
        self.bonds.len()
            + self.angles.len()
            + self.dihedrals.len()
            + self.impropers.len()
            + self.restraints.len()
    }

    /// True when no terms are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Modeled work units for these terms.
    pub fn work(&self) -> f64 {
        costmodel::bonded_work(
            self.bonds.len(),
            self.angles.len(),
            self.dihedrals.len(),
            self.impropers.len(),
        ) + self.restraints.len() as f64 * costmodel::WORK_PER_RESTRAINT
    }
}

/// One schedulable compute object.
#[derive(Debug, Clone)]
pub struct ComputeSpec {
    pub kind: ComputeKind,
    /// Patches whose coordinate data this compute requires.
    pub patches: Vec<PatchId>,
    /// For split non-bonded computes: the outer-loop index range within the
    /// first patch's atom list. Full range when unsplit.
    pub outer: Range<usize>,
    /// Whether the load balancer may move this object.
    pub migratable: bool,
    /// Counted work units (used directly in Counted mode; Real mode declares
    /// measured work instead).
    pub work: f64,
    /// Pairs inside the cutoff (non-bonded computes).
    pub pairs: u64,
    /// Candidate pairs tested (non-bonded computes).
    pub candidates: u64,
    /// Bonded terms (bonded computes only).
    pub terms: Option<BondedTerms>,
}

/// The full decomposition of a system.
#[derive(Debug, Clone)]
pub struct Decomposition {
    pub grid: PatchGrid,
    pub computes: Vec<ComputeSpec>,
}

/// Split the triangle of `n(n-1)/2` self pairs into `pieces` outer-index
/// ranges of approximately equal pair count: boundaries at
/// `n·(1 − √(1 − k/pieces))`.
pub fn triangle_ranges(n: usize, pieces: usize) -> Vec<Range<usize>> {
    assert!(pieces > 0);
    if pieces == 1 || n == 0 {
        // One piece covering everything (not a range-expanded vec).
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..n];
    }
    let nf = n as f64;
    let mut out = Vec::with_capacity(pieces);
    let mut prev = 0usize;
    for k in 1..=pieces {
        let frac = k as f64 / pieces as f64;
        let mut hi = (nf * (1.0 - (1.0 - frac).sqrt())).round() as usize;
        if k == pieces {
            hi = n;
        }
        let hi = hi.clamp(prev, n);
        out.push(prev..hi);
        prev = hi;
    }
    out
}

/// Evenly split `0..n` into `pieces` ranges (pair computes: uniform outer
/// cost).
pub fn even_ranges(n: usize, pieces: usize) -> Vec<Range<usize>> {
    assert!(pieces > 0);
    let mut out = Vec::with_capacity(pieces);
    let mut prev = 0usize;
    for k in 1..=pieces {
        let hi = (n * k) / pieces;
        out.push(prev..hi);
        prev = hi;
    }
    out
}

/// An owned struct-of-arrays copy of a patch's atoms. Built once per compute
/// (or per cost-model probe); ids/lj/charge never change between
/// migrations, so on later steps only `pos` is replaced.
#[derive(Debug, Clone, Default)]
pub(crate) struct PatchArrays {
    pub pos: Vec<Vec3>,
    pub ids: Vec<AtomId>,
    pub lj: Vec<u16>,
    pub charge: Vec<f64>,
}

impl PatchArrays {
    /// The arrays of the patch holding `atoms`, at positions `pos` (one per
    /// atom, in the same order; the non-bonded cache fills them in after).
    pub(crate) fn new(topology: &Topology, atoms: &[u32], pos: Vec<Vec3>) -> Self {
        let at = |&a: &u32| &topology.atoms[a as usize];
        PatchArrays {
            pos,
            ids: atoms.to_vec(),
            lj: atoms.iter().map(|a| at(a).lj_type).collect(),
            charge: atoms.iter().map(|a| at(a).charge).collect(),
        }
    }

    pub(crate) fn gather(system: &System, atoms: &[u32]) -> Self {
        let pos = atoms.iter().map(|&a| system.positions[a as usize]).collect();
        Self::new(&system.topology, atoms, pos)
    }

    pub(crate) fn group(&self) -> AtomGroup<'_> {
        AtomGroup::new(&self.pos, &self.ids, &self.lj, &self.charge)
    }
}

/// Per-outer-atom (pairs, candidates) for a self compute.
fn count_self_per_atom(g: &PatchArrays, cell: &Cell, cutoff: f64) -> Vec<(u64, u64)> {
    let c2 = cutoff * cutoff;
    let n = g.pos.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut pairs = 0u64;
        for j in (i + 1)..n {
            if cell.dist2(g.pos[i], g.pos[j]) < c2 {
                pairs += 1;
            }
        }
        out.push((pairs, (n - i - 1) as u64));
    }
    out
}

/// Per-outer-atom (pairs, candidates) for a pair compute.
fn count_pair_per_atom(a: &PatchArrays, b: &PatchArrays, cell: &Cell, cutoff: f64) -> Vec<(u64, u64)> {
    let c2 = cutoff * cutoff;
    let nb = b.pos.len();
    a.pos
        .iter()
        .map(|&pa| {
            let pairs = b.pos.iter().filter(|&&pb| cell.dist2(pa, pb) < c2).count() as u64;
            (pairs, nb as u64)
        })
        .collect()
}

/// Split `0..weights.len()` into `pieces` contiguous ranges of approximately
/// equal total weight (prefix-sum cuts). Dense patches have very non-uniform
/// per-atom work (solute atoms first, water after), so equal-*atom* ranges
/// would leave grossly unequal pieces.
pub fn balanced_ranges(weights: &[f64], pieces: usize) -> Vec<Range<usize>> {
    assert!(pieces > 0);
    let n = weights.len();
    if pieces == 1 || n == 0 {
        // One piece covering everything (not a range-expanded vec).
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..n];
    }
    let total: f64 = weights.iter().sum();
    let mut out = Vec::with_capacity(pieces);
    let mut prev = 0usize;
    let mut acc = 0.0;
    let mut idx = 0usize;
    for k in 1..=pieces {
        let target = total * k as f64 / pieces as f64;
        if k == pieces {
            out.push(prev..n);
            break;
        }
        while idx < n && acc + weights[idx] <= target {
            acc += weights[idx];
            idx += 1;
        }
        let hi = idx.clamp(prev, n);
        out.push(prev..hi);
        prev = hi;
    }
    out
}

/// Build the complete decomposition for a system under a configuration.
pub fn build(system: &System, config: &SimConfig) -> Decomposition {
    let grid = PatchGrid::build(
        &system.cell,
        &system.positions,
        system.forcefield.cutoff,
        config.patch_margin,
    );
    let cell = system.cell;
    let cutoff = system.forcefield.cutoff;

    // Gather per-patch atom arrays once.
    let arrays: Vec<PatchArrays> =
        grid.atoms.iter().map(|a| PatchArrays::gather(system, a)).collect();

    // Pair counting (for Counted-mode work replay) costs O(atoms²) per patch
    // pair; Real mode measures work from the actual kernels instead, so the
    // distance pass is skipped and only analytic candidate counts are kept.
    let count = config.force_mode == crate::config::ForceMode::Counted;

    let mut computes = Vec::new();

    // Self computes, split by atom count (grainsize control for within-cube
    // pairs — "we modified the generation of compute objects to potentially
    // create several compute objects to calculate the within-cube non-bonded
    // atom pairs ... determined by the number of atoms initially assigned to
    // the cube").
    for p in 0..grid.n_patches() {
        let n = arrays[p].pos.len();
        let atom_pieces = n.div_ceil(config.self_split_atoms).max(1);
        if count {
            // Work-targeted grainsize control with work-balanced cuts:
            // dense patches (e.g. the lipid slab) get extra pieces, and
            // piece boundaries equalize counted work, not atom counts.
            let per_atom = count_self_per_atom(&arrays[p], &cell, cutoff);
            let weights: Vec<f64> = per_atom
                .iter()
                .map(|&(pr, ca)| costmodel::nonbonded_work(pr, ca))
                .collect();
            let total: f64 = weights.iter().sum();
            let pieces = atom_pieces
                .max((total / config.target_grain_work).ceil() as usize)
                .max(1);
            for outer in balanced_ranges(&weights, pieces) {
                let pairs: u64 = per_atom[outer.clone()].iter().map(|&(pr, _)| pr).sum();
                let candidates: u64 = per_atom[outer.clone()].iter().map(|&(_, ca)| ca).sum();
                computes.push(ComputeSpec {
                    kind: ComputeKind::SelfNb { patch: p },
                    patches: vec![p],
                    outer,
                    migratable: true,
                    work: costmodel::nonbonded_work(pairs, candidates),
                    pairs,
                    candidates,
                    terms: None,
                });
            }
        } else {
            for outer in triangle_ranges(n, atom_pieces) {
                let cands: u64 = outer.clone().map(|i| (n - i - 1) as u64).sum();
                computes.push(ComputeSpec {
                    kind: ComputeKind::SelfNb { patch: p },
                    patches: vec![p],
                    outer,
                    migratable: true,
                    work: costmodel::nonbonded_work(0, cands),
                    pairs: 0,
                    candidates: cands,
                    terms: None,
                });
            }
        }
    }

    // Pair computes; face-adjacent ones optionally split (§4.2.1). Face
    // pairs are split by atom count; on top of that, *any* pair compute
    // exceeding the grain target is split — with a dense lipid slab, edge
    // pairs inside the slab can carry face-pair-sized work too.
    for (a, b) in grid.neighbor_pairs() {
        let na = arrays[a].pos.len();
        let atom_pieces = if config.split_face_pairs && grid.face_adjacent(a, b) {
            na.div_ceil(config.pair_split_atoms).max(1)
        } else {
            1
        };
        if count {
            let per_atom = count_pair_per_atom(&arrays[a], &arrays[b], &cell, cutoff);
            let weights: Vec<f64> = per_atom
                .iter()
                .map(|&(pr, ca)| costmodel::nonbonded_work(pr, ca))
                .collect();
            let total: f64 = weights.iter().sum();
            let pieces = if config.split_face_pairs {
                atom_pieces
                    .max((total / config.target_grain_work).ceil() as usize)
                    .max(1)
            } else {
                atom_pieces
            };
            for outer in balanced_ranges(&weights, pieces) {
                let pairs: u64 = per_atom[outer.clone()].iter().map(|&(pr, _)| pr).sum();
                let candidates: u64 = per_atom[outer.clone()].iter().map(|&(_, ca)| ca).sum();
                computes.push(ComputeSpec {
                    kind: ComputeKind::PairNb { a, b },
                    patches: vec![a, b],
                    outer,
                    migratable: true,
                    work: costmodel::nonbonded_work(pairs, candidates),
                    pairs,
                    candidates,
                    terms: None,
                });
            }
        } else {
            for outer in even_ranges(na, atom_pieces) {
                let cands = (outer.len() * arrays[b].pos.len()) as u64;
                computes.push(ComputeSpec {
                    kind: ComputeKind::PairNb { a, b },
                    patches: vec![a, b],
                    outer,
                    migratable: true,
                    work: costmodel::nonbonded_work(0, cands),
                    pairs: 0,
                    candidates: cands,
                    terms: None,
                });
            }
        }
    }

    // Bonded terms, grouped by base patch and intra/inter (§4.2.2).
    let topo = &system.topology;
    let atom_patch: Vec<PatchId> = {
        let mut v = vec![0usize; topo.n_atoms()];
        for (p, atoms) in grid.atoms.iter().enumerate() {
            for &a in atoms {
                v[a as usize] = p;
            }
        }
        v
    };
    let n_patches = grid.n_patches();
    let mut intra: Vec<BondedTerms> = vec![BondedTerms::default(); n_patches];
    let mut inter: Vec<BondedTerms> = vec![BondedTerms::default(); n_patches];
    let mut inter_patches: Vec<std::collections::BTreeSet<PatchId>> =
        vec![Default::default(); n_patches];

    let mut place = |atoms: &[AtomId], idx: u32, pick: fn(&mut BondedTerms) -> &mut Vec<u32>| {
        let base = atom_patch[atoms[0] as usize];
        let all_same = atoms.iter().all(|&a| atom_patch[a as usize] == base);
        if all_same {
            pick(&mut intra[base]).push(idx);
        } else {
            pick(&mut inter[base]).push(idx);
            for &a in atoms {
                inter_patches[base].insert(atom_patch[a as usize]);
            }
        }
    };
    for (i, t) in topo.bonds.iter().enumerate() {
        place(&[t.a, t.b], i as u32, |b| &mut b.bonds);
    }
    for (i, t) in topo.angles.iter().enumerate() {
        place(&[t.a, t.b, t.c], i as u32, |b| &mut b.angles);
    }
    for (i, t) in topo.dihedrals.iter().enumerate() {
        place(&[t.a, t.b, t.c, t.d], i as u32, |b| &mut b.dihedrals);
    }
    for (i, t) in topo.impropers.iter().enumerate() {
        place(&[t.a, t.b, t.c, t.d], i as u32, |b| &mut b.impropers);
    }
    for (i, r) in topo.restraints.iter().enumerate() {
        // Single-atom terms are intra by construction.
        place(&[r.atom], i as u32, |b| &mut b.restraints);
    }

    for p in 0..n_patches {
        if !intra[p].is_empty() {
            let terms = std::mem::take(&mut intra[p]);
            computes.push(ComputeSpec {
                kind: ComputeKind::BondedIntra { patch: p },
                patches: vec![p],
                outer: 0..0,
                migratable: config.migratable_bonded,
                work: terms.work(),
                pairs: 0,
                candidates: 0,
                terms: Some(terms),
            });
        }
        if !inter[p].is_empty() {
            let terms = std::mem::take(&mut inter[p]);
            let patches: Vec<PatchId> = inter_patches[p].iter().copied().collect();
            computes.push(ComputeSpec {
                kind: ComputeKind::BondedInter { patch: p },
                patches,
                outer: 0..0,
                migratable: false,
                work: terms.work(),
                pairs: 0,
                candidates: 0,
                terms: Some(terms),
            });
        }
    }

    Decomposition { grid, computes }
}

/// What a compute is called across a migration, which renumbers computes:
/// its kind, which names its patches, and its ordinal among the computes of
/// that kind — the piece number of a grainsize-split compute.
fn identity(computes: &[ComputeSpec]) -> impl Iterator<Item = (ComputeKind, usize)> + '_ {
    let mut pieces: BTreeMap<ComputeKind, usize> = BTreeMap::new();
    computes.iter().map(move |c| {
        let next = pieces.entry(c.kind).or_insert(0);
        let piece = *next;
        *next += 1;
        (c.kind, piece)
    })
}

/// For each compute of `new`, the index in `old` of the compute with the
/// same identity — its kind and its piece number — if there is one: the
/// compute it succeeds across a migration. A compute after a migration is,
/// give or take a few atoms, its predecessor, so it inherits what was
/// learned about that one: its PE, its measured load, its pair-list
/// buffers.
pub fn predecessors(old: &[ComputeSpec], new: &[ComputeSpec]) -> Vec<Option<usize>> {
    let index: BTreeMap<_, usize> = identity(old).enumerate().map(|(i, id)| (id, i)).collect();
    identity(new).map(|id| index.get(&id).copied()).collect()
}

impl Decomposition {
    /// Total modeled work per step (the single-processor step cost, minus
    /// integration).
    pub fn total_compute_work(&self) -> f64 {
        self.computes.iter().map(|c| c.work).sum()
    }

    /// Total integration work per step.
    pub fn total_integration_work(&self) -> f64 {
        self.grid
            .atoms
            .iter()
            .map(|a| a.len() as f64 * costmodel::WORK_PER_ATOM_INTEGRATION)
            .sum()
    }

    /// Modeled single-processor seconds per step on `machine`.
    pub fn ideal_step_time(&self, machine: &machine::MachineModel) -> f64 {
        machine.task_time(self.total_compute_work() + self.total_integration_work())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use machine::presets;

    fn tiny_system() -> System {
        molgen::SystemBuilder::new(molgen::SystemSpec {
            name: "decomp-test",
            box_lengths: Vec3::new(34.0, 34.0, 34.0),
            target_atoms: 3600,
            protein_chains: 1,
            protein_chain_len: 60,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 4,
        })
        .build()
    }

    #[test]
    fn triangle_ranges_cover_and_balance() {
        for (n, pieces) in [(100, 3), (7, 2), (50, 5), (3, 4)] {
            let ranges = triangle_ranges(n, pieces);
            assert_eq!(ranges.len(), pieces);
            // Coverage: concatenation is exactly 0..n.
            let mut prev = 0;
            for r in &ranges {
                assert_eq!(r.start, prev);
                prev = r.end;
            }
            assert_eq!(prev, n);
        }
        // Balance: pair counts per piece within 2x of each other for large n.
        let n = 1000;
        let ranges = triangle_ranges(n, 4);
        let pair_count =
            |r: &Range<usize>| -> usize { r.clone().map(|i| n - i - 1).sum::<usize>() };
        let counts: Vec<usize> = ranges.iter().map(pair_count).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 2 * min, "triangle split unbalanced: {counts:?}");
    }

    #[test]
    fn even_ranges_cover() {
        let ranges = even_ranges(10, 3);
        assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
        assert_eq!(even_ranges(0, 2), vec![0..0, 0..0]);
    }

    #[test]
    fn fourteen_computes_per_patch_before_splitting() {
        let sys = tiny_system();
        // No self splitting, no face-pair splitting.
        let cfg = SimConfig::builder(4, presets::ideal())
            .grainsize(usize::MAX, false, 112)
            .build()
            .unwrap();
        let d = build(&sys, &cfg);
        let n_patches = d.grid.n_patches();
        let nb = d
            .computes
            .iter()
            .filter(|c| matches!(c.kind, ComputeKind::SelfNb { .. } | ComputeKind::PairNb { .. }))
            .count();
        // On a fully periodic grid with ≥3 patches per axis: exactly 14/patch.
        if d.grid.dims.iter().all(|&d| d >= 3) {
            assert_eq!(nb, 14 * n_patches);
        } else {
            assert!(nb >= n_patches); // degenerate small grids dedup pairs
        }
    }

    #[test]
    fn splitting_multiplies_compute_count() {
        let sys = tiny_system();
        let cfg = SimConfig::builder(4, presets::ideal())
            .grainsize(usize::MAX, false, 112)
            .build()
            .unwrap();
        let before = build(&sys, &cfg).computes.len();
        let cfg2 = SimConfig::new(4, presets::ideal()); // defaults split
        let after = build(&sys, &cfg2).computes.len();
        assert!(after > before, "{after} vs {before}");
    }

    #[test]
    fn split_pieces_conserve_pair_counts() {
        let sys = tiny_system();
        let cfg = SimConfig::builder(4, presets::ideal())
            .grainsize(usize::MAX, false, 112)
            .build()
            .unwrap();
        let unsplit = build(&sys, &cfg);
        let cfg2 = SimConfig::new(4, presets::ideal());
        let split = build(&sys, &cfg2);
        let pairs = |d: &Decomposition| -> u64 { d.computes.iter().map(|c| c.pairs).sum() };
        assert_eq!(pairs(&unsplit), pairs(&split));
    }

    #[test]
    fn splitting_reduces_max_grainsize() {
        let sys = tiny_system();
        let cfg = SimConfig::builder(4, presets::ideal())
            .grainsize(usize::MAX, false, 112)
            .build()
            .unwrap();
        let unsplit = build(&sys, &cfg);
        let cfg2 = SimConfig::new(4, presets::ideal());
        let split = build(&sys, &cfg2);
        let max_work = |d: &Decomposition| -> f64 {
            d.computes.iter().map(|c| c.work).fold(0.0, f64::max)
        };
        assert!(max_work(&split) < max_work(&unsplit));
    }

    #[test]
    fn bonded_terms_partition_exactly_once() {
        let sys = tiny_system();
        let cfg = SimConfig::new(4, presets::ideal());
        let d = build(&sys, &cfg);
        let mut bonds = 0usize;
        let mut angles = 0usize;
        let mut dihedrals = 0usize;
        let mut impropers = 0usize;
        let mut seen_bonds = std::collections::BTreeSet::new();
        for c in &d.computes {
            if let Some(t) = &c.terms {
                bonds += t.bonds.len();
                angles += t.angles.len();
                dihedrals += t.dihedrals.len();
                impropers += t.impropers.len();
                for &b in &t.bonds {
                    assert!(seen_bonds.insert(b), "bond {b} assigned twice");
                }
            }
        }
        assert_eq!(bonds, sys.topology.bonds.len());
        assert_eq!(angles, sys.topology.angles.len());
        assert_eq!(dihedrals, sys.topology.dihedrals.len());
        assert_eq!(impropers, sys.topology.impropers.len());
    }

    #[test]
    fn inter_bonded_is_nonmigratable_and_lists_patches() {
        let sys = tiny_system();
        let cfg = SimConfig::new(4, presets::ideal());
        let d = build(&sys, &cfg);
        let mut saw_inter = false;
        for c in &d.computes {
            match c.kind {
                ComputeKind::BondedInter { patch } => {
                    saw_inter = true;
                    assert!(!c.migratable);
                    assert!(c.patches.contains(&patch));
                    assert!(c.patches.len() >= 2, "inter compute spans ≥2 patches");
                }
                ComputeKind::BondedIntra { .. } => {
                    assert!(c.migratable); // default config: §4.2.2 on
                    assert_eq!(c.patches.len(), 1);
                }
                _ => {}
            }
        }
        assert!(saw_inter, "test system should have inter-patch bonds");
    }

    #[test]
    fn migratable_bonded_flag_respected() {
        let sys = tiny_system();
        let cfg = SimConfig::builder(4, presets::ideal())
            .migratable_bonded(false)
            .build()
            .unwrap();
        let d = build(&sys, &cfg);
        for c in &d.computes {
            if matches!(c.kind, ComputeKind::BondedIntra { .. }) {
                assert!(!c.migratable);
            }
        }
    }

    #[test]
    fn work_totals_are_positive_and_consistent() {
        let sys = tiny_system();
        let cfg = SimConfig::new(4, presets::ideal());
        let d = build(&sys, &cfg);
        assert!(d.total_compute_work() > 0.0);
        assert!(d.total_integration_work() > 0.0);
        let t = d.ideal_step_time(&presets::asci_red());
        assert!(t > 0.0 && t.is_finite());
    }
}
