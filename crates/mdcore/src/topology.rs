//! Molecular topology: atoms, covalent bonded terms, and non-bonded
//! exclusions.
//!
//! Forces due to covalent bonds are represented, exactly as in the paper, via
//! a sum of 2-body (bond), 3-body (angle), and 4-body (dihedral and improper)
//! terms that follow the connectivity of the molecule. Atoms connected by
//! one or two bonds are *excluded* from the non-bonded sum, and 1-4 pairs
//! (three bonds apart) have their non-bonded interaction scaled down —
//! the standard CHARMM-style exclusion policy NAMD implements.

use crate::vec3::Vec3;
use std::collections::BTreeSet;

/// Index of an atom within a [`Topology`] / system.
pub type AtomId = u32;

/// Static per-atom properties. Positions/velocities live in the dynamic
/// state ([`crate::system::System`]), not here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Mass in amu.
    pub mass: f64,
    /// Partial charge in elementary charge units.
    pub charge: f64,
    /// Index into the force field's Lennard-Jones type table.
    pub lj_type: u16,
}

/// Harmonic 2-body bond: `E = k (r - r0)^2` (CHARMM convention, no 1/2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    pub a: AtomId,
    pub b: AtomId,
    /// Force constant, kcal/mol/Å².
    pub k: f64,
    /// Equilibrium length, Å.
    pub r0: f64,
}

/// Harmonic 3-body angle: `E = k (θ - θ0)^2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    pub a: AtomId,
    /// Central atom.
    pub b: AtomId,
    pub c: AtomId,
    /// Force constant, kcal/mol/rad².
    pub k: f64,
    /// Equilibrium angle, radians.
    pub theta0: f64,
}

/// Periodic 4-body dihedral: `E = k (1 + cos(n φ - δ))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dihedral {
    pub a: AtomId,
    pub b: AtomId,
    pub c: AtomId,
    pub d: AtomId,
    /// Barrier height, kcal/mol.
    pub k: f64,
    /// Multiplicity (number of minima per full rotation).
    pub n: u8,
    /// Phase δ, radians.
    pub delta: f64,
}

/// Harmonic 4-body improper: `E = k (ψ - ψ0)^2`, keeps planar centers planar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Improper {
    pub a: AtomId,
    pub b: AtomId,
    pub c: AtomId,
    pub d: AtomId,
    /// Force constant, kcal/mol/rad².
    pub k: f64,
    /// Equilibrium improper angle, radians.
    pub psi0: f64,
}

/// Harmonic positional restraint: `E = k·|r − r₀|²` — the "constraint"
/// compute-object variety the paper lists alongside bond and electrostatic
/// computes. Used to pin heavy atoms during equilibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Restraint {
    pub atom: AtomId,
    /// Force constant, kcal/mol/Å².
    pub k: f64,
    /// Anchor position, Å.
    pub target: Vec3,
}

/// How a given atom pair participates in the non-bonded sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionKind {
    /// Normal pair: full non-bonded interaction.
    None,
    /// Fully excluded (1-2 or 1-3 neighbours).
    Full,
    /// 1-4 pair: interaction retained but scaled.
    Scaled14,
}

/// Complete covalent topology of a system.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub atoms: Vec<Atom>,
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
    pub dihedrals: Vec<Dihedral>,
    pub impropers: Vec<Improper>,
    pub restraints: Vec<Restraint>,
}

impl Topology {
    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Append another topology, offsetting all atom indices. Returns the
    /// atom-index offset at which `other`'s atoms begin.
    pub fn merge(&mut self, other: &Topology) -> AtomId {
        let off = self.atoms.len() as AtomId;
        self.atoms.extend_from_slice(&other.atoms);
        self.bonds.extend(other.bonds.iter().map(|b| Bond { a: b.a + off, b: b.b + off, ..*b }));
        self.angles.extend(
            other.angles.iter().map(|t| Angle { a: t.a + off, b: t.b + off, c: t.c + off, ..*t }),
        );
        self.dihedrals.extend(other.dihedrals.iter().map(|d| Dihedral {
            a: d.a + off,
            b: d.b + off,
            c: d.c + off,
            d: d.d + off,
            ..*d
        }));
        self.impropers.extend(other.impropers.iter().map(|d| Improper {
            a: d.a + off,
            b: d.b + off,
            c: d.c + off,
            d: d.d + off,
            ..*d
        }));
        self.restraints
            .extend(other.restraints.iter().map(|r| Restraint { atom: r.atom + off, ..*r }));
        off
    }

    /// Validate that every bonded term references existing atoms and that no
    /// term repeats an atom. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.atoms.len() as AtomId;
        let chk = |id: AtomId, what: &str, i: usize| {
            if id >= n {
                Err(format!("{what} #{i} references atom {id} but only {n} atoms exist"))
            } else {
                Ok(())
            }
        };
        for (i, b) in self.bonds.iter().enumerate() {
            chk(b.a, "bond", i)?;
            chk(b.b, "bond", i)?;
            if b.a == b.b {
                return Err(format!("bond #{i} connects atom {} to itself", b.a));
            }
        }
        for (i, t) in self.angles.iter().enumerate() {
            chk(t.a, "angle", i)?;
            chk(t.b, "angle", i)?;
            chk(t.c, "angle", i)?;
            if t.a == t.b || t.b == t.c || t.a == t.c {
                return Err(format!("angle #{i} repeats an atom"));
            }
        }
        for (i, d) in self.dihedrals.iter().enumerate() {
            for id in [d.a, d.b, d.c, d.d] {
                chk(id, "dihedral", i)?;
            }
            let set: BTreeSet<_> = [d.a, d.b, d.c, d.d].into_iter().collect();
            if set.len() != 4 {
                return Err(format!("dihedral #{i} repeats an atom"));
            }
        }
        for (i, d) in self.impropers.iter().enumerate() {
            for id in [d.a, d.b, d.c, d.d] {
                chk(id, "improper", i)?;
            }
            let set: BTreeSet<_> = [d.a, d.b, d.c, d.d].into_iter().collect();
            if set.len() != 4 {
                return Err(format!("improper #{i} repeats an atom"));
            }
        }
        for (i, r) in self.restraints.iter().enumerate() {
            chk(r.atom, "restraint", i)?;
            if !(r.k.is_finite() && r.k >= 0.0) {
                return Err(format!("restraint #{i} has invalid k {}", r.k));
            }
        }
        Ok(())
    }
}

/// Per-atom sorted exclusion lists, answering "how does pair (i, j) enter the
/// non-bonded sum?" in O(log k).
///
/// The paper notes that excluded pairs *must* be detected during the normal
/// pairwise force computation (the excluded terms would be orders of
/// magnitude larger than real forces) and that an "efficient method of
/// conducting such checks" replaced an earlier radius-limited scheme. This
/// structure is that method: exclusions are stored per-atom, sorted, and
/// probed with binary search inside the kernel loop.
#[derive(Debug, Clone, Default)]
pub struct Exclusions {
    /// For each atom, sorted list of fully-excluded partners.
    full: Vec<Vec<AtomId>>,
    /// For each atom, sorted list of scaled 1-4 partners.
    scaled14: Vec<Vec<AtomId>>,
}

impl Exclusions {
    /// Build exclusions from bond connectivity: direct bonds (1-2) and
    /// two-bond neighbours (1-3) are fully excluded; three-bond neighbours
    /// (1-4) are scaled. If a pair qualifies as both (rings), full exclusion
    /// wins.
    pub fn from_topology(topo: &Topology) -> Self {
        let n = topo.n_atoms();
        let mut adj: Vec<Vec<AtomId>> = vec![Vec::new(); n];
        for b in &topo.bonds {
            adj[b.a as usize].push(b.b);
            adj[b.b as usize].push(b.a);
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }

        let mut full: Vec<BTreeSet<AtomId>> = vec![BTreeSet::new(); n];
        let mut scaled: Vec<BTreeSet<AtomId>> = vec![BTreeSet::new(); n];

        for i in 0..n as AtomId {
            // 1-2
            for &j in &adj[i as usize] {
                if j != i {
                    full[i as usize].insert(j);
                }
            }
            // 1-3 and 1-4 via breadth over two / three bonds.
            for &j in &adj[i as usize] {
                for &k in &adj[j as usize] {
                    if k != i {
                        full[i as usize].insert(k);
                    }
                    for &l in &adj[k as usize] {
                        if l != i && l != j && !full[i as usize].contains(&l) {
                            scaled[i as usize].insert(l);
                        }
                    }
                }
            }
        }
        // A pair reachable by both a 3-bond path and a shorter path must stay
        // fully excluded; purge such entries from the scaled sets.
        for i in 0..n {
            let f = &full[i];
            scaled[i].retain(|j| !f.contains(j));
            scaled[i].remove(&(i as AtomId));
        }

        Exclusions {
            full: full.into_iter().map(|s| s.into_iter().collect()).collect(),
            scaled14: scaled.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// An empty exclusion table for `n` atoms (no bonds).
    pub fn none(n: usize) -> Self {
        Exclusions { full: vec![Vec::new(); n], scaled14: vec![Vec::new(); n] }
    }

    /// Atom `i`'s two exclusion rows, fetched once — what a kernel row asks
    /// for before classifying every partner of `i`.
    #[inline]
    pub fn row(&self, i: AtomId) -> ExclusionRow<'_> {
        let full = &self.full[i as usize][..];
        let scaled14 = &self.scaled14[i as usize][..];
        // An empty row takes no part in the range: `MAX..=0` holds nothing.
        let ends = |r: &[AtomId]| {
            (r.first().copied().unwrap_or(AtomId::MAX), r.last().copied().unwrap_or(0))
        };
        let ((f_lo, f_hi), (s_lo, s_hi)) = (ends(full), ends(scaled14));
        ExclusionRow { full, scaled14, lo: f_lo.min(s_lo), hi: f_hi.max(s_hi) }
    }

    /// Classify the pair `(i, j)`.
    #[inline]
    pub fn kind(&self, i: AtomId, j: AtomId) -> ExclusionKind {
        self.row(i).kind(j)
    }

    /// Number of atoms covered.
    pub fn n_atoms(&self) -> usize {
        self.full.len()
    }

    /// Total number of (ordered) full exclusions — used in tests/statistics.
    pub fn n_full(&self) -> usize {
        self.full.iter().map(Vec::len).sum()
    }

    /// Total number of (ordered) scaled 1-4 pairs.
    pub fn n_scaled14(&self) -> usize {
        self.scaled14.iter().map(Vec::len).sum()
    }
}

/// One atom's sorted exclusion rows with the id range they span. Bonded
/// partners are neighbours in id space, so nearly every non-bonded partner
/// falls outside that range and is classified by two compares, without a
/// search.
#[derive(Debug, Clone, Copy)]
pub struct ExclusionRow<'a> {
    full: &'a [AtomId],
    scaled14: &'a [AtomId],
    /// Smallest and largest id in either row; `lo > hi` when both are empty.
    lo: AtomId,
    hi: AtomId,
}

impl<'a> ExclusionRow<'a> {
    /// How the row's atom and `j` enter the non-bonded sum.
    #[inline]
    pub fn kind(&self, j: AtomId) -> ExclusionKind {
        if j < self.lo || j > self.hi {
            ExclusionKind::None
        } else if self.full.binary_search(&j).is_ok() {
            ExclusionKind::Full
        } else if self.scaled14.binary_search(&j).is_ok() {
            ExclusionKind::Scaled14
        } else {
            ExclusionKind::None
        }
    }

    /// The fully-excluded partners, ascending.
    pub fn full(&self) -> &'a [AtomId] {
        self.full
    }

    /// The scaled 1-4 partners, ascending.
    pub fn scaled14(&self) -> &'a [AtomId] {
        self.scaled14
    }
}

/// Convenience: a water molecule (3 atoms: O, H, H) appended to `topo`.
/// Returns the oxygen's atom id. Uses TIP3P-like parameters.
pub fn push_water(topo: &mut Topology, o_lj: u16, h_lj: u16) -> AtomId {
    let o = topo.atoms.len() as AtomId;
    topo.atoms.push(Atom { mass: 15.9994, charge: -0.834, lj_type: o_lj });
    topo.atoms.push(Atom { mass: 1.008, charge: 0.417, lj_type: h_lj });
    topo.atoms.push(Atom { mass: 1.008, charge: 0.417, lj_type: h_lj });
    topo.bonds.push(Bond { a: o, b: o + 1, k: 450.0, r0: 0.9572 });
    topo.bonds.push(Bond { a: o, b: o + 2, k: 450.0, r0: 0.9572 });
    topo.angles.push(Angle {
        a: o + 1,
        b: o,
        c: o + 2,
        k: 55.0,
        theta0: 104.52_f64.to_radians(),
    });
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom() -> Atom {
        Atom { mass: 12.0, charge: 0.0, lj_type: 0 }
    }

    /// Linear chain 0-1-2-3-4.
    fn chain(n: usize) -> Topology {
        let mut t = Topology::default();
        t.atoms = vec![atom(); n];
        for i in 0..n - 1 {
            t.bonds.push(Bond { a: i as AtomId, b: (i + 1) as AtomId, k: 300.0, r0: 1.5 });
        }
        t
    }

    #[test]
    fn chain_exclusions() {
        let t = chain(6);
        let ex = Exclusions::from_topology(&t);
        // 0-1 bonded, 0-2 two bonds, both fully excluded.
        assert_eq!(ex.kind(0, 1), ExclusionKind::Full);
        assert_eq!(ex.kind(0, 2), ExclusionKind::Full);
        // 0-3 is 1-4: scaled.
        assert_eq!(ex.kind(0, 3), ExclusionKind::Scaled14);
        // 0-4 is beyond: normal.
        assert_eq!(ex.kind(0, 4), ExclusionKind::None);
        assert_eq!(ex.kind(0, 5), ExclusionKind::None);
    }

    #[test]
    fn exclusions_are_symmetric() {
        let t = chain(8);
        let ex = Exclusions::from_topology(&t);
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    assert_eq!(ex.kind(i, j), ex.kind(j, i), "asymmetry at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn ring_prefers_full_exclusion() {
        // Triangle 0-1-2-0: every pair is 1-2, and also reachable by a
        // 3-bond path (0-1-2-0 ... ), must remain fully excluded.
        let mut t = Topology::default();
        t.atoms = vec![atom(); 3];
        t.bonds.push(Bond { a: 0, b: 1, k: 1.0, r0: 1.0 });
        t.bonds.push(Bond { a: 1, b: 2, k: 1.0, r0: 1.0 });
        t.bonds.push(Bond { a: 2, b: 0, k: 1.0, r0: 1.0 });
        let ex = Exclusions::from_topology(&t);
        assert_eq!(ex.kind(0, 1), ExclusionKind::Full);
        assert_eq!(ex.kind(1, 2), ExclusionKind::Full);
        assert_eq!(ex.kind(0, 2), ExclusionKind::Full);
        assert_eq!(ex.n_scaled14(), 0);
    }

    #[test]
    fn four_ring_has_no_scaled_pairs() {
        // Square 0-1-2-3-0: the 1-4 path 0-1-2-3 ends at atom 3, which is
        // also a direct bond partner of 0; full exclusion must win.
        let mut t = Topology::default();
        t.atoms = vec![atom(); 4];
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            t.bonds.push(Bond { a, b, k: 1.0, r0: 1.0 });
        }
        let ex = Exclusions::from_topology(&t);
        assert_eq!(ex.kind(0, 3), ExclusionKind::Full);
        assert_eq!(ex.kind(0, 2), ExclusionKind::Full); // 1-3 via either path
        assert_eq!(ex.n_scaled14(), 0);
    }

    #[test]
    fn water_exclusions() {
        let mut t = Topology::default();
        let o = push_water(&mut t, 0, 1);
        let ex = Exclusions::from_topology(&t);
        assert_eq!(ex.kind(o, o + 1), ExclusionKind::Full);
        assert_eq!(ex.kind(o, o + 2), ExclusionKind::Full);
        assert_eq!(ex.kind(o + 1, o + 2), ExclusionKind::Full); // 1-3 via O
    }

    #[test]
    fn merge_offsets_indices() {
        let mut a = chain(3);
        let b = chain(4);
        let off = a.merge(&b);
        assert_eq!(off, 3);
        assert_eq!(a.n_atoms(), 7);
        assert_eq!(a.bonds.len(), 2 + 3);
        assert_eq!(a.bonds[2].a, 3);
        assert_eq!(a.bonds[2].b, 4);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_indices() {
        let mut t = chain(3);
        t.bonds.push(Bond { a: 0, b: 99, k: 1.0, r0: 1.0 });
        assert!(t.validate().is_err());

        let mut t2 = chain(3);
        t2.bonds.push(Bond { a: 1, b: 1, k: 1.0, r0: 1.0 });
        assert!(t2.validate().unwrap_err().contains("itself"));
    }

    #[test]
    fn validate_catches_repeated_dihedral_atom() {
        let mut t = chain(4);
        t.dihedrals.push(Dihedral { a: 0, b: 1, c: 2, d: 0, k: 1.0, n: 2, delta: 0.0 });
        assert!(t.validate().is_err());
    }

    #[test]
    fn empty_exclusions() {
        let ex = Exclusions::none(5);
        assert_eq!(ex.kind(0, 4), ExclusionKind::None);
        assert_eq!(ex.n_full(), 0);
    }

    #[test]
    fn kind_agrees_with_a_linear_scan_of_the_rows() {
        // A branched molecule whose bonded neighbours are far apart in id, so
        // its rows have holes; atoms 0, 1, 6, 8, 10, 14 and 15 are unbonded.
        let mut t = Topology::default();
        t.atoms = vec![atom(); 16];
        // Hub 7 with arms 7-2-11, 7-13-4-9 and 7-5; 3-12 is a separate bond.
        for (a, b) in [(7u32, 2u32), (2, 11), (7, 13), (13, 4), (4, 9), (7, 5), (3, 12)] {
            t.bonds.push(Bond { a, b, k: 1.0, r0: 1.0 });
        }
        let ex = Exclusions::from_topology(&t);
        let n = t.n_atoms() as AtomId;
        let (mut below, mut inside_absent, mut above, mut empty) = (0, 0, 0, 0);
        for i in 0..n {
            let row = ex.row(i);
            let ids = || row.full().iter().chain(row.scaled14());
            let (lo, hi) = (ids().min().copied(), ids().max().copied());
            for j in 0..n {
                let want = if row.full().contains(&j) {
                    ExclusionKind::Full
                } else if row.scaled14().contains(&j) {
                    ExclusionKind::Scaled14
                } else {
                    ExclusionKind::None
                };
                assert_eq!(row.kind(j), want, "pair ({i},{j})");
                assert_eq!(ex.kind(i, j), want, "pair ({i},{j})");
                match (lo, hi) {
                    (Some(lo), _) if j < lo => below += 1,
                    (_, Some(hi)) if j > hi => above += 1,
                    (Some(_), Some(_)) if want == ExclusionKind::None => inside_absent += 1,
                    (None, _) => empty += 1,
                    _ => {}
                }
            }
        }
        assert!(below > 0 && inside_absent > 0 && above > 0 && empty == 7 * 16);
        // The hub sees every kind: 1-2, 1-3 and 1-4 partners.
        assert_eq!(ex.row(7).full(), [2, 4, 5, 11, 13]);
        assert_eq!(ex.row(7).scaled14(), [9]);
        assert_eq!(ex.kind(7, 9), ExclusionKind::Scaled14);
        assert_eq!(ex.kind(0, 7), ExclusionKind::None);
    }

    #[test]
    fn exclusion_counts_for_chain() {
        // Chain of 5: full (ordered) pairs = 2*(4 bonds) + 2*(3 one-three) = 14;
        // scaled = 2*(2 one-four) = 4.
        let ex = Exclusions::from_topology(&chain(5));
        assert_eq!(ex.n_full(), 14);
        assert_eq!(ex.n_scaled14(), 4);
    }
}
