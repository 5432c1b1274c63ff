//! Non-bonded (Lennard-Jones + electrostatic) pairwise force kernels.
//!
//! These kernels are the computational heart of the simulation — the paper
//! reports that non-bonded work makes up eighty percent or more of the total
//! computation. They are written to be callable both by the sequential
//! reference simulator and by the parallel engine's *compute objects*:
//! a *self* kernel for all pairs within one group of atoms, and a *pair*
//! kernel for all cross pairs between two groups (two neighbouring patches).
//!
//! Exclusion checking happens inside the kernel, exactly as the paper
//! describes ("these pairs must be detected as a part of the normal pairwise
//! force computation"), via sorted per-atom exclusion lists.

use crate::erf::{erfc, TWO_OVER_SQRT_PI};
use crate::forcefield::{units, ForceField};
use crate::pbc::Cell;
use crate::topology::{AtomId, ExclusionKind, Exclusions};
use crate::vec3::Vec3;

/// Approximate floating-point operations per evaluated atom pair inside the
/// cutoff. Used to produce GFLOPS ratings the same way the paper does
/// (hardware-counter op count per step / time per step); counted from the
/// kernel arithmetic below (distance 8, LJ 10, Coulomb+shift 12, switching 9,
/// force accumulation ~6).
pub const FLOPS_PER_PAIR: f64 = 45.0;

/// A borrowed, struct-of-arrays view of one group of atoms, as a patch hands
/// it to a compute object. Construct via [`AtomGroup::new`], which validates
/// that the parallel arrays agree in length — in every build profile, so a
/// release build can't silently index mismatched slices.
#[derive(Debug, Clone, Copy)]
pub struct AtomGroup<'a> {
    /// Positions, Å.
    pos: &'a [Vec3],
    /// Global atom ids (for exclusion lookup).
    ids: &'a [AtomId],
    /// LJ type per atom.
    lj: &'a [u16],
    /// Charge per atom, e.
    charge: &'a [f64],
}

impl<'a> AtomGroup<'a> {
    /// Package parallel per-atom arrays into a group. Panics if the slices
    /// disagree in length.
    pub fn new(pos: &'a [Vec3], ids: &'a [AtomId], lj: &'a [u16], charge: &'a [f64]) -> Self {
        assert_eq!(pos.len(), ids.len(), "AtomGroup: ids length mismatch");
        assert_eq!(pos.len(), lj.len(), "AtomGroup: lj length mismatch");
        assert_eq!(pos.len(), charge.len(), "AtomGroup: charge length mismatch");
        AtomGroup { pos, ids, lj, charge }
    }

    /// Number of atoms in the group.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when the group has no atoms.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Positions, Å.
    pub fn positions(&self) -> &'a [Vec3] {
        self.pos
    }

    /// Global atom ids.
    pub fn atom_ids(&self) -> &'a [AtomId] {
        self.ids
    }

    /// LJ type per atom.
    pub fn lj_types(&self) -> &'a [u16] {
        self.lj
    }

    /// Charge per atom, e.
    pub fn charges(&self) -> &'a [f64] {
        self.charge
    }
}

/// Result of a non-bonded kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NbResult {
    /// Lennard-Jones energy, kcal/mol.
    pub e_lj: f64,
    /// Electrostatic energy, kcal/mol.
    pub e_elec: f64,
    /// Number of pairs evaluated inside the cutoff (excluded pairs are
    /// detected but not counted — they do no force arithmetic).
    pub pairs: u64,
}

impl NbResult {
    /// Total non-bonded energy.
    pub fn energy(&self) -> f64 {
        self.e_lj + self.e_elec
    }

    /// Accumulate another result.
    pub fn add(&mut self, o: NbResult) {
        self.e_lj += o.e_lj;
        self.e_elec += o.e_elec;
        self.pairs += o.pairs;
    }
}

/// Evaluate one atom pair at squared distance `r2` (already known to be
/// inside the cutoff). Returns `(e_lj, e_elec, f_over_r)` where the force on
/// atom *i* is `f_over_r * (r_i - r_j)`.
#[inline]
pub(crate) fn eval_pair(
    ff: &ForceField,
    lj_a: f64,
    lj_b: f64,
    qq: f64,
    r2: f64,
    scale: f64,
) -> (f64, f64, f64) {
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let inv_r12 = inv_r6 * inv_r6;

    // Raw LJ energy and its derivative w.r.t. r².
    let e_lj_raw = lj_a * inv_r12 - lj_b * inv_r6;
    let de_lj_dr2 = (-6.0 * lj_a * inv_r12 + 3.0 * lj_b * inv_r6) * inv_r2;

    // Switching applied to LJ.
    let (sw, dsw_dr2) = ff.switching(r2);
    let e_lj = scale * sw * e_lj_raw;
    let de_lj = scale * (dsw_dr2 * e_lj_raw + sw * de_lj_dr2);

    let inv_r = inv_r2.sqrt();
    let (e_elec, de_elec) = match ff.ewald_beta {
        None => {
            // Coulomb with shifting (cutoff simulation).
            let e_c_raw = units::COULOMB * qq * inv_r;
            let de_c_dr2 = -0.5 * e_c_raw * inv_r2;
            let (sh, dsh_dr2) = ff.shifting(r2);
            (scale * sh * e_c_raw, scale * (dsh_dr2 * e_c_raw + sh * de_c_dr2))
        }
        Some(beta) => {
            // Ewald real-space: E = C·qq·erfc(βr)/r; 1-4 pairs keep full
            // electrostatics under Ewald (the scale applies to LJ above).
            let r = r2.sqrt();
            let c = units::COULOMB * qq;
            let e = c * erfc(beta * r) * inv_r;
            // dE/d(r²) = −½ [ erfc(βr)/r² + 2β/√π·e^{−β²r²}/r ] · C·qq / r ·r ...
            // derived: dE/dr = −C·qq·[erfc(βr)/r² + 2β/√π·e^{−β²r²}/r];
            // dE/d(r²) = dE/dr / (2r).
            let de_dr = -c * (erfc(beta * r) * inv_r2
                + beta * TWO_OVER_SQRT_PI * (-beta * beta * r2).exp() * inv_r);
            (e, de_dr / (2.0 * r))
        }
    };

    // F_i = -dE/dr · r̂ = -2 dE/d(r²) · (r_i - r_j).
    let f_over_r = -2.0 * (de_lj + de_elec);
    (e_lj, e_elec, f_over_r)
}

/// All-pairs non-bonded interactions *within* one atom group (the work of a
/// "self" compute object). `forces` must be the same length as the group and
/// is accumulated into. Pairs are ranged `lo..hi` over the outer index so
/// that a self compute can be *split* into several objects for grainsize
/// control (§4.2.1 of the paper): the union of `(0..k), (k..n)` ranges covers
/// exactly the full triangle.
pub fn nb_self_ranged(
    ff: &ForceField,
    ex: &Exclusions,
    g: AtomGroup,
    cell: &Cell,
    outer: std::ops::Range<usize>,
    forces: &mut [Vec3],
) -> NbResult {
    assert_eq!(forces.len(), g.len(), "forces buffer must match group size");
    let cutoff2 = ff.cutoff2();
    let mut res = NbResult::default();
    for i in outer {
        let pi = g.pos[i];
        let idi = g.ids[i];
        let qi = g.charge[i];
        let ti = g.lj[i];
        let mut fi = Vec3::ZERO;
        for j in (i + 1)..g.len() {
            let d = cell.min_image(pi, g.pos[j]);
            let r2 = d.norm2();
            if r2 >= cutoff2 {
                continue;
            }
            let scale = match ex.kind(idi, g.ids[j]) {
                ExclusionKind::Full => continue,
                ExclusionKind::Scaled14 => ff.scale14,
                ExclusionKind::None => 1.0,
            };
            let lj = ff.lj(ti, g.lj[j]);
            let (e_lj, e_el, fr) = eval_pair(ff, lj.a, lj.b, qi * g.charge[j], r2, scale);
            res.e_lj += e_lj;
            res.e_elec += e_el;
            res.pairs += 1;
            let f = d * fr;
            fi += f;
            forces[j] -= f;
        }
        forces[i] += fi;
    }
    res
}

/// All cross-pair interactions between two disjoint atom groups (the work of
/// a "pair" compute object between two neighbouring patches). `fa`/`fb`
/// accumulate forces on groups `a`/`b` respectively. The outer loop over `a`
/// is ranged for grainsize splitting of face pairs.
pub fn nb_pair_ranged(
    ff: &ForceField,
    ex: &Exclusions,
    a: AtomGroup,
    b: AtomGroup,
    cell: &Cell,
    outer: std::ops::Range<usize>,
    fa: &mut [Vec3],
    fb: &mut [Vec3],
) -> NbResult {
    assert_eq!(fa.len(), a.len(), "fa buffer must match group a");
    assert_eq!(fb.len(), b.len(), "fb buffer must match group b");
    let cutoff2 = ff.cutoff2();
    let mut res = NbResult::default();
    for i in outer {
        let pi = a.pos[i];
        let idi = a.ids[i];
        let qi = a.charge[i];
        let ti = a.lj[i];
        let mut fi = Vec3::ZERO;
        for j in 0..b.len() {
            let d = cell.min_image(pi, b.pos[j]);
            let r2 = d.norm2();
            if r2 >= cutoff2 {
                continue;
            }
            let scale = match ex.kind(idi, b.ids[j]) {
                ExclusionKind::Full => continue,
                ExclusionKind::Scaled14 => ff.scale14,
                ExclusionKind::None => 1.0,
            };
            let lj = ff.lj(ti, b.lj[j]);
            let (e_lj, e_el, fr) = eval_pair(ff, lj.a, lj.b, qi * b.charge[j], r2, scale);
            res.e_lj += e_lj;
            res.e_elec += e_el;
            res.pairs += 1;
            let f = d * fr;
            fi += f;
            fb[j] -= f;
        }
        fa[i] += fi;
    }
    res
}

/// Build the candidate list for a *self* compute: every unique pair inside
/// `radius` (normally `cutoff + margin`), as `(i, j)` slot indices with
/// `i < j`, outer index restricted to `outer` for grainsize-split computes.
/// Pairs are emitted in the exact order [`nb_self_ranged`] visits them, so
/// [`nb_self_listed`] over a fresh list reproduces the ranged kernel's
/// floating-point summation order bit for bit. `out` is cleared and reused —
/// it only grows, to the exact size, when the new list does not fit.
///
/// The list is the one the plain double loop with `cell.dist2(..) < radius²`
/// would write, element for element; `candidates_into` below says how most
/// of that loop's distance tests are skipped without changing its output.
pub fn self_candidates_into(
    g: AtomGroup,
    cell: &Cell,
    outer: std::ops::Range<usize>,
    radius: f64,
    out: &mut Vec<(u32, u32)>,
) {
    candidates_into(g.pos, g.pos, true, cell, outer, radius, out);
}

/// Build the candidate list for a *pair* compute: every cross pair between
/// groups `a` and `b` inside `radius`, as `(i in a, j in b)` slot indices,
/// in [`nb_pair_ranged`] visit order. See [`self_candidates_into`].
pub fn pair_candidates_into(
    a: AtomGroup,
    b: AtomGroup,
    cell: &Cell,
    outer: std::ops::Range<usize>,
    radius: f64,
    out: &mut Vec<(u32, u32)>,
) {
    candidates_into(a.pos, b.pos, false, cell, outer, radius, out);
}

/// Most bins per axis of a [`Bins`] grid (bounds its tables whatever the
/// group's extent).
const MAX_BINS: usize = 32;

/// Bins are cut this many to a list radius. Finer bins hug the sphere more
/// closely but cost more bin visits per row.
const BINS_PER_RADIUS: f64 = 3.0;

/// Relative slack of the bin rejection test: 2⁻⁴⁰ of the largest magnitude
/// involved, against the ~2⁻⁵⁰ a chain of a dozen f64 operations can lose.
const BIN_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Row bitmaps are filled this many words at a time, so the builders' scratch
/// stays at 64 KiB however large the groups are.
const ROW_BLOCK_WORDS: usize = 1 << 13;

/// The j group of a candidate build, sorted into a grid of bins laid over its
/// bounding box in the frame of one of its atoms (minimum-image displacements
/// from the anchor, so a group straddling a periodic face is still compact).
/// It only decides which atoms a row *skips*; which of the others are listed
/// is still decided by the exact test.
///
/// Why not [`crate::celllist::CellList`]: that grid spans the whole cell in
/// bins no smaller than the cutoff and pairs whole neighbouring bins, which
/// inside one patch (itself about a cutoff across) is one or two bins and
/// rejects nothing, keeps a `Vec` per bin, and enumerates unordered pairs.
/// Here the grid covers one group's bounding box in bins of a third of the
/// radius, is queried with a point from *another* group, keeps one flat
/// table, and must let the caller restore slot order.
struct Bins {
    anchor: Vec3,
    lo: [f64; 3],
    width: [f64; 3],
    n: [usize; 3],
    /// Entries of bin `b` are `start[b]..start[b + 1]`; x varies fastest.
    start: Vec<u32>,
    /// Per entry, in bin order: the atom's slot and a copy of its position.
    slot: Vec<u32>,
    pos: Vec<Vec3>,
    /// Largest coordinate magnitude in the group (scales the slack).
    mag: f64,
}

impl Bins {
    fn new(pos: &[Vec3], cell: &Cell, radius: f64) -> Bins {
        let anchor = pos[0];
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        let mut mag = 0.0f64;
        for &p in pos {
            let q = cell.min_image(p, anchor);
            for ax in 0..3 {
                lo[ax] = lo[ax].min(q.axis(ax));
                hi[ax] = hi[ax].max(q.axis(ax));
                mag = mag.max(p.axis(ax).abs());
            }
        }
        let mut n = [1usize; 3];
        let mut width = [0.0f64; 3];
        let mut inv_width = [0.0f64; 3];
        for ax in 0..3 {
            let extent = hi[ax] - lo[ax];
            // A NaN or empty extent casts to 0 bins and clamps to one.
            n[ax] = ((extent * BINS_PER_RADIUS / radius) as usize).clamp(1, MAX_BINS);
            width[ax] = extent / n[ax] as f64;
            if width[ax] > 0.0 {
                inv_width[ax] = 1.0 / width[ax];
            }
        }
        // Out-of-range and NaN coordinates saturate into an end bin; that is
        // harmless, since a misfiled atom can only fail the exact test.
        let bin_of = |p: Vec3| {
            let q = cell.min_image(p, anchor);
            let t = |ax: usize| (((q.axis(ax) - lo[ax]) * inv_width[ax]) as usize).min(n[ax] - 1);
            (t(2) * n[1] + t(1)) * n[0] + t(0)
        };
        // Counting sort with the table as its own cursor: counts go in two
        // places up, so after the prefix sum `start[b + 1]` is where bin `b`
        // begins, and filling bin `b` walks it to where bin `b + 1` begins.
        let mut start = vec![0u32; n[0] * n[1] * n[2] + 2];
        for &p in pos {
            start[bin_of(p) + 2] += 1;
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        let mut slot = vec![0u32; pos.len()];
        let mut sorted = vec![Vec3::ZERO; pos.len()];
        for (j, &p) in pos.iter().enumerate() {
            let e = &mut start[bin_of(p) + 1];
            slot[*e as usize] = j as u32;
            sorted[*e as usize] = p;
            *e += 1;
        }
        Bins { anchor, lo, width, n, start, slot, pos: sorted, mag }
    }

    /// Call `visit` with runs of entries that between them hold every atom
    /// whose exact test against `p` can pass at `radius`.
    ///
    /// A bin is skipped only when the distance from `p` to the bin's box,
    /// taken per axis over the periodic images and combined by Pythagoras,
    /// exceeds `radius` by more than the slack. That distance is a lower
    /// bound on the minimum-image distance to every atom filed in the bin, so
    /// a skipped atom is one the exact test rejects; the slack covers the
    /// rounding in the anchor-frame coordinates and in the exact test itself.
    /// Every comparison is written so that a NaN keeps the bin.
    fn near(
        &self,
        cell: &Cell,
        p: Vec3,
        radius: f64,
        mut visit: impl FnMut(std::ops::Range<usize>),
    ) {
        let u = cell.min_image(p, self.anchor);
        let mut scale = radius + self.mag;
        for ax in 0..3 {
            scale += p.axis(ax).abs();
            if cell.periodic[ax] {
                scale += cell.lengths.axis(ax).abs();
            }
        }
        let reach = radius + BIN_SLACK * scale;
        let reach2 = reach * reach;
        let mut gap2 = [[0.0f64; MAX_BINS]; 3];
        for ax in 0..3 {
            let x = u.axis(ax);
            let l = cell.lengths.axis(ax);
            for t in 0..self.n[ax] {
                let s = self.lo[ax] + t as f64 * self.width[ax];
                let e = s + self.width[ax];
                let gap = |x: f64| (s - x).max(x - e).max(0.0);
                let g =
                    if cell.periodic[ax] { gap(x).min(gap(x - l)).min(gap(x + l)) } else { gap(x) };
                gap2[ax][t] = g * g;
            }
        }
        for tz in 0..self.n[2] {
            if gap2[2][tz] > reach2 {
                continue;
            }
            for ty in 0..self.n[1] {
                let gyz = gap2[2][tz] + gap2[1][ty];
                if gyz > reach2 {
                    continue;
                }
                // Bins adjacent in x hold adjacent entries: visit them as
                // one run.
                let row = (tz * self.n[1] + ty) * self.n[0];
                let mut run: Option<usize> = None;
                for tx in 0..self.n[0] {
                    if gyz + gap2[0][tx] > reach2 {
                        if let Some(first) = run.take() {
                            visit(self.start[first] as usize..self.start[row + tx] as usize);
                        }
                    } else if run.is_none() {
                        run = Some(row + tx);
                    }
                }
                if let Some(first) = run {
                    visit(self.start[first] as usize..self.start[row + self.n[0]] as usize);
                }
            }
        }
    }
}

/// The candidate builders' one body: rows `outer` of `pos_i` against all of
/// `pos_j` (for a self build the same slice, keeping `j > i` only).
///
/// For each row, the atoms of the j group that can be near are taken from
/// [`Bins`], put to the same `cell.dist2(pi, pj) < radius²` test the plain
/// double loop applies, and the hits recorded in a bitmap over j slots — so
/// whatever order the bins were walked in, the row is written out with j
/// ascending. Rows are taken a block at a time and the list is given exactly
/// the block's popcount before any of its rows is written; grown by bare
/// `push` (doubling) the same lists cost the large benchmark deck ~8 % more
/// resident memory (DESIGN §3.3 has the numbers).
fn candidates_into(
    pos_i: &[Vec3],
    pos_j: &[Vec3],
    upper_triangle: bool,
    cell: &Cell,
    outer: std::ops::Range<usize>,
    radius: f64,
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    if outer.is_empty() || pos_j.is_empty() {
        return;
    }
    let r2max = radius * radius;
    let radius = radius.abs();
    let bins = Bins::new(pos_j, cell, radius);
    let words = pos_j.len().div_ceil(64);
    let block_rows = (ROW_BLOCK_WORDS / words).max(1);
    let mut bits = vec![0u64; words * block_rows.min(outer.len())];
    let mut block = outer.start;
    while block < outer.end {
        let rows = block..outer.end.min(block + block_rows);
        let bits = &mut bits[..words * rows.len()];
        bits.fill(0);
        for (i, row) in rows.clone().zip(bits.chunks_exact_mut(words)) {
            let pi = pos_i[i];
            bins.near(cell, pi, radius, |run| {
                for e in run {
                    let j = bins.slot[e] as usize;
                    let hit = (!upper_triangle || j > i) && cell.dist2(pi, bins.pos[e]) < r2max;
                    row[j / 64] |= u64::from(hit) << (j % 64);
                }
            });
        }
        out.reserve_exact(bits.iter().map(|w| w.count_ones() as usize).sum());
        for (i, row) in rows.clone().zip(bits.chunks_exact(words)) {
            for (w, &word) in row.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    out.push((i as u32, (w * 64) as u32 + m.trailing_zeros()));
                    m &= m - 1;
                }
            }
        }
        block = rows.end;
    }
}

/// Self-interaction kernel over a cached candidate list (slot-index pairs
/// from [`self_candidates_into`], grouped by ascending outer index). Each
/// pair still gets the exact `r² < cutoff²` test, so as long as the list
/// *covers* every within-cutoff pair — the margin guarantee — the result is
/// identical to [`nb_self_ranged`]: same pairs, same order, same per-atom
/// `fi` accumulator flush.
pub fn nb_self_listed(
    ff: &ForceField,
    ex: &Exclusions,
    g: AtomGroup,
    cell: &Cell,
    list: &[(u32, u32)],
    forces: &mut [Vec3],
) -> NbResult {
    assert_eq!(forces.len(), g.len(), "forces buffer must match group size");
    let cutoff2 = ff.cutoff2();
    let mut res = NbResult::default();
    let mut k = 0;
    while k < list.len() {
        let i = list[k].0 as usize;
        let pi = g.pos[i];
        let idi = g.ids[i];
        let qi = g.charge[i];
        let ti = g.lj[i];
        let mut fi = Vec3::ZERO;
        while k < list.len() && list[k].0 as usize == i {
            let j = list[k].1 as usize;
            k += 1;
            let d = cell.min_image(pi, g.pos[j]);
            let r2 = d.norm2();
            if r2 >= cutoff2 {
                continue;
            }
            let scale = match ex.kind(idi, g.ids[j]) {
                ExclusionKind::Full => continue,
                ExclusionKind::Scaled14 => ff.scale14,
                ExclusionKind::None => 1.0,
            };
            let lj = ff.lj(ti, g.lj[j]);
            let (e_lj, e_el, fr) = eval_pair(ff, lj.a, lj.b, qi * g.charge[j], r2, scale);
            res.e_lj += e_lj;
            res.e_elec += e_el;
            res.pairs += 1;
            let f = d * fr;
            fi += f;
            forces[j] -= f;
        }
        forces[i] += fi;
    }
    res
}

/// Cross-pair kernel over a cached candidate list (slot-index pairs from
/// [`pair_candidates_into`]). Identical to [`nb_pair_ranged`] whenever the
/// list covers every within-cutoff cross pair; see [`nb_self_listed`].
#[allow(clippy::too_many_arguments)]
pub fn nb_pair_listed(
    ff: &ForceField,
    ex: &Exclusions,
    a: AtomGroup,
    b: AtomGroup,
    cell: &Cell,
    list: &[(u32, u32)],
    fa: &mut [Vec3],
    fb: &mut [Vec3],
) -> NbResult {
    assert_eq!(fa.len(), a.len(), "fa buffer must match group a");
    assert_eq!(fb.len(), b.len(), "fb buffer must match group b");
    let cutoff2 = ff.cutoff2();
    let mut res = NbResult::default();
    let mut k = 0;
    while k < list.len() {
        let i = list[k].0 as usize;
        let pi = a.pos[i];
        let idi = a.ids[i];
        let qi = a.charge[i];
        let ti = a.lj[i];
        let mut fi = Vec3::ZERO;
        while k < list.len() && list[k].0 as usize == i {
            let j = list[k].1 as usize;
            k += 1;
            let d = cell.min_image(pi, b.pos[j]);
            let r2 = d.norm2();
            if r2 >= cutoff2 {
                continue;
            }
            let scale = match ex.kind(idi, b.ids[j]) {
                ExclusionKind::Full => continue,
                ExclusionKind::Scaled14 => ff.scale14,
                ExclusionKind::None => 1.0,
            };
            let lj = ff.lj(ti, b.lj[j]);
            let (e_lj, e_el, fr) = eval_pair(ff, lj.a, lj.b, qi * b.charge[j], r2, scale);
            res.e_lj += e_lj;
            res.e_elec += e_el;
            res.pairs += 1;
            let f = d * fr;
            fi += f;
            fb[j] -= f;
        }
        fa[i] += fi;
    }
    res
}

/// Evaluate non-bonded interactions over an explicit pair list (as produced
/// by [`crate::celllist::CellList::neighbor_pairs`]). Atom arrays are indexed
/// by global atom id. Used by the sequential reference simulator.
pub fn nb_pairlist(
    ff: &ForceField,
    ex: &Exclusions,
    pos: &[Vec3],
    lj: &[u16],
    charge: &[f64],
    pairs: &[(u32, u32)],
    cell: &Cell,
    forces: &mut [Vec3],
) -> NbResult {
    let cutoff2 = ff.cutoff2();
    let mut res = NbResult::default();
    for &(i, j) in pairs {
        let (i, j) = (i as usize, j as usize);
        let d = cell.min_image(pos[i], pos[j]);
        let r2 = d.norm2();
        if r2 >= cutoff2 {
            continue;
        }
        let scale = match ex.kind(i as AtomId, j as AtomId) {
            ExclusionKind::Full => continue,
            ExclusionKind::Scaled14 => ff.scale14,
            ExclusionKind::None => 1.0,
        };
        let ljp = ff.lj(lj[i], lj[j]);
        let (e_lj, e_el, fr) = eval_pair(ff, ljp.a, ljp.b, charge[i] * charge[j], r2, scale);
        res.e_lj += e_lj;
        res.e_elec += e_el;
        res.pairs += 1;
        let f = d * fr;
        forces[i] += f;
        forces[j] -= f;
    }
    res
}

/// Count cross pairs inside the cutoff between two groups without computing
/// forces — used by the parallel engine's cost model to size compute objects.
pub fn count_pairs(a: AtomGroup, b: AtomGroup, cell: &Cell, cutoff: f64) -> u64 {
    let cutoff2 = cutoff * cutoff;
    let mut n = 0;
    for i in 0..a.len() {
        for j in 0..b.len() {
            if cell.dist2(a.pos[i], b.pos[j]) < cutoff2 {
                n += 1;
            }
        }
    }
    n
}

/// Count unique pairs inside the cutoff within one group.
pub fn count_self_pairs(g: AtomGroup, cell: &Cell, cutoff: f64) -> u64 {
    let cutoff2 = cutoff * cutoff;
    let mut n = 0;
    for i in 0..g.len() {
        for j in (i + 1)..g.len() {
            if cell.dist2(g.pos[i], g.pos[j]) < cutoff2 {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Atom, Bond, Topology};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn two_atom_setup(r: f64) -> (ForceField, Exclusions, Vec<Vec3>, Vec<AtomId>, Vec<u16>, Vec<f64>) {
        let ff = ForceField::biomolecular(12.0);
        let ex = Exclusions::none(2);
        let pos = vec![Vec3::ZERO, Vec3::new(r, 0.0, 0.0)];
        (ff, ex, pos, vec![0, 1], vec![0, 0], vec![-0.5, 0.5])
    }

    fn group<'a>(
        pos: &'a [Vec3],
        ids: &'a [AtomId],
        lj: &'a [u16],
        q: &'a [f64],
    ) -> AtomGroup<'a> {
        AtomGroup::new(pos, ids, lj, q)
    }

    /// Deterministic scatter of `n` atoms with mixed charges in a box of the
    /// given side, plus ids/lj/charge arrays.
    fn scatter(n: usize, side: f64) -> (Vec<Vec3>, Vec<AtomId>, Vec<u16>, Vec<f64>) {
        let pos: Vec<Vec3> = (0..n)
            .map(|i| {
                let x = (i as f64 * 7.13 + 0.31) % side;
                let y = (i as f64 * 3.77 + 1.07) % side;
                let z = (i as f64 * 5.41 + 2.03) % side;
                Vec3::new(x, y, z)
            })
            .collect();
        let ids: Vec<AtomId> = (0..n as u32).collect();
        let lj = vec![0u16; n];
        let q: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.3 } else { -0.3 }).collect();
        (pos, ids, lj, q)
    }

    #[test]
    fn newtons_third_law_self() {
        let (ff, ex, pos, ids, lj, q) = two_atom_setup(3.1);
        let cell = Cell::cube(50.0);
        let mut f = vec![Vec3::ZERO; 2];
        let r = nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..f.len(), &mut f);
        assert_eq!(r.pairs, 1);
        assert!((f[0] + f[1]).norm() < 1e-12, "forces must cancel: {f:?}");
        assert!(f[0].norm() > 0.0);
    }

    #[test]
    fn force_is_minus_gradient() {
        // Finite-difference check across representative separations,
        // including inside the switching region.
        let cell = Cell::cube(100.0);
        for r in [2.8, 3.5, 5.0, 9.0, 10.5, 11.5] {
            let (ff, ex, _, ids, lj, q) = two_atom_setup(r);
            let energy = |x: f64| {
                let pos = vec![Vec3::ZERO, Vec3::new(x, 0.0, 0.0)];
                let mut f = vec![Vec3::ZERO; 2];
                nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..2, &mut f).energy()
            };
            let h = 1e-6;
            let fd = -(energy(r + h) - energy(r - h)) / (2.0 * h); // force on atom1 along +x
            let pos = vec![Vec3::ZERO, Vec3::new(r, 0.0, 0.0)];
            let mut f = vec![Vec3::ZERO; 2];
            nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..f.len(), &mut f);
            let analytic = f[1].x;
            let tol = 1e-5 * (1.0 + fd.abs());
            assert!(
                (fd - analytic).abs() < tol,
                "r={r}: finite-diff {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn energy_and_force_vanish_at_cutoff() {
        let (ff, ex, _, ids, lj, q) = two_atom_setup(0.0);
        let cell = Cell::cube(100.0);
        let pos = vec![Vec3::ZERO, Vec3::new(11.999999, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let r = nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..f.len(), &mut f);
        assert!(r.energy().abs() < 1e-6, "energy at cutoff: {}", r.energy());
        assert!(f[1].norm() < 1e-4, "force at cutoff: {:?}", f[1]);

        let pos2 = vec![Vec3::ZERO, Vec3::new(12.000001, 0.0, 0.0)];
        let mut f2 = vec![Vec3::ZERO; 2];
        let r2 = nb_self_ranged(&ff, &ex, group(&pos2, &ids, &lj, &q), &cell, 0..f2.len(), &mut f2);
        assert_eq!(r2.pairs, 0);
        assert_eq!(r2.energy(), 0.0);
    }

    #[test]
    fn excluded_pair_contributes_nothing() {
        let mut topo = Topology::default();
        topo.atoms = vec![
            Atom { mass: 12.0, charge: -0.5, lj_type: 0 },
            Atom { mass: 12.0, charge: 0.5, lj_type: 0 },
        ];
        topo.bonds.push(Bond { a: 0, b: 1, k: 300.0, r0: 1.5 });
        let ex = Exclusions::from_topology(&topo);
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(50.0);
        let pos = vec![Vec3::ZERO, Vec3::new(1.5, 0.0, 0.0)];
        let ids = vec![0, 1];
        let lj = vec![0, 0];
        let q = vec![-0.5, 0.5];
        let mut f = vec![Vec3::ZERO; 2];
        let r = nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..f.len(), &mut f);
        assert_eq!(r.pairs, 0);
        assert_eq!(r.energy(), 0.0);
        assert_eq!(f[0], Vec3::ZERO);
    }

    #[test]
    fn scaled14_is_scaled() {
        // Chain 0-1-2-3: pair (0,3) is 1-4.
        let mut topo = Topology::default();
        topo.atoms = vec![Atom { mass: 12.0, charge: 0.3, lj_type: 0 }; 4];
        for i in 0..3u32 {
            topo.bonds.push(Bond { a: i, b: i + 1, k: 300.0, r0: 1.5 });
        }
        let ex = Exclusions::from_topology(&topo);
        let mut ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(100.0);
        // Place only atoms 0 and 3 near each other; 1,2 far away on open axis.
        let pos = vec![
            Vec3::ZERO,
            Vec3::new(30.0, 0.0, 0.0),
            Vec3::new(30.0, 30.0, 0.0),
            Vec3::new(4.0, 0.0, 0.0),
        ];
        let ids: Vec<AtomId> = (0..4).collect();
        let lj = vec![0u16; 4];
        let q = vec![0.3; 4];
        let mut f = vec![Vec3::ZERO; 4];
        let scaled = nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..4, &mut f);
        assert_eq!(scaled.pairs, 1);

        // With scale14 = 1.0 the energy should be 1/scale14 times larger.
        ff.scale14 = 1.0;
        let mut f1 = vec![Vec3::ZERO; 4];
        let unscaled = nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..4, &mut f1);
        assert!(
            (scaled.energy() - 0.5 * unscaled.energy()).abs() < 1e-12,
            "scaled {} vs unscaled {}",
            scaled.energy(),
            unscaled.energy()
        );
    }

    #[test]
    fn pair_kernel_matches_self_kernel_decomposition() {
        // Self interaction of a combined group == self(A) + self(B) + pair(A,B).
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(40.0);
        let n = 20;
        // Deterministic pseudo-random positions.
        let pos: Vec<Vec3> = (0..n)
            .map(|i| {
                let x = (i as f64 * 7.13) % 20.0;
                let y = (i as f64 * 3.77 + 1.0) % 20.0;
                let z = (i as f64 * 5.41 + 2.0) % 20.0;
                Vec3::new(x, y, z)
            })
            .collect();
        let ids: Vec<AtomId> = (0..n as u32).collect();
        let lj = vec![0u16; n];
        let q: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.3 } else { -0.3 }).collect();
        let ex = Exclusions::none(n);

        let mut f_all = vec![Vec3::ZERO; n];
        let all = nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..n, &mut f_all);

        let k = 8;
        let (pa, pb) = pos.split_at(k);
        let (ia, ib) = ids.split_at(k);
        let (la, lbt) = lj.split_at(k);
        let (qa, qb) = q.split_at(k);
        let ga = group(pa, ia, la, qa);
        let gb = group(pb, ib, lbt, qb);
        let mut fa = vec![Vec3::ZERO; k];
        let mut fb = vec![Vec3::ZERO; n - k];
        let mut total = NbResult::default();
        total.add(nb_self_ranged(&ff, &ex, ga, &cell, 0..fa.len(), &mut fa));
        total.add(nb_self_ranged(&ff, &ex, gb, &cell, 0..fb.len(), &mut fb));
        total.add(nb_pair_ranged(&ff, &ex, ga, gb, &cell, 0..k, &mut fa, &mut fb));

        assert_eq!(total.pairs, all.pairs);
        assert!((total.energy() - all.energy()).abs() < 1e-9);
        for i in 0..k {
            assert!((fa[i] - f_all[i]).norm() < 1e-9);
        }
        for j in 0..n - k {
            assert!((fb[j] - f_all[k + j]).norm() < 1e-9);
        }
    }

    #[test]
    fn ranged_self_partitions_cover_triangle() {
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(30.0);
        let n = 15;
        let pos: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((i as f64 * 2.3) % 15.0, (i as f64 * 1.7) % 15.0, 0.0))
            .collect();
        let ids: Vec<AtomId> = (0..n as u32).collect();
        let lj = vec![0u16; n];
        let q = vec![0.1; n];
        let ex = Exclusions::none(n);
        let g = group(&pos, &ids, &lj, &q);

        let mut f_full = vec![Vec3::ZERO; n];
        let full = nb_self_ranged(&ff, &ex, g, &cell, 0..f_full.len(), &mut f_full);

        let mut f_split = vec![Vec3::ZERO; n];
        let mut acc = NbResult::default();
        for range in [0..5, 5..11, 11..n] {
            acc.add(nb_self_ranged(&ff, &ex, g, &cell, range, &mut f_split));
        }
        assert_eq!(acc.pairs, full.pairs);
        assert!((acc.energy() - full.energy()).abs() < 1e-10);
        for i in 0..n {
            assert!((f_split[i] - f_full[i]).norm() < 1e-10);
        }
    }

    #[test]
    fn pair_counting_matches_kernel() {
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(30.0);
        let n = 12;
        let pos: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((i as f64 * 4.1) % 25.0, (i as f64 * 2.9) % 25.0, 1.0))
            .collect();
        let ids: Vec<AtomId> = (0..n as u32).collect();
        let lj = vec![0u16; n];
        let q = vec![0.0; n];
        let ex = Exclusions::none(n);
        let g = group(&pos, &ids, &lj, &q);
        let mut f = vec![Vec3::ZERO; n];
        let r = nb_self_ranged(&ff, &ex, g, &cell, 0..f.len(), &mut f);
        assert_eq!(r.pairs, count_self_pairs(g, &cell, ff.cutoff));
    }

    #[test]
    fn minimum_image_interaction_across_boundary() {
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(20.0);
        // Atoms at opposite faces, 4 Å apart through the boundary — past the
        // LJ minimum (~3.5 Å for type 0), so opposite charges attract.
        let pos = vec![Vec3::new(0.5, 0.0, 0.0), Vec3::new(16.5, 0.0, 0.0)];
        let ids = vec![0, 1];
        let lj = vec![0u16, 0];
        let q = vec![0.2, -0.2];
        let ex = Exclusions::none(2);
        let mut f = vec![Vec3::ZERO; 2];
        let r = nb_self_ranged(&ff, &ex, group(&pos, &ids, &lj, &q), &cell, 0..f.len(), &mut f);
        assert_eq!(r.pairs, 1);
        // Opposite charges 2 Å apart attract: force on atom0 points toward
        // the boundary (negative x).
        assert!(f[0].x < 0.0, "expected attraction across boundary, f0={:?}", f[0]);
    }

    #[test]
    fn listed_self_kernel_is_bit_identical_to_ranged_on_fresh_list() {
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(26.0);
        let n = 40;
        let (pos, ids, lj, q) = scatter(n, 26.0);
        let ex = Exclusions::none(n);
        let g = group(&pos, &ids, &lj, &q);

        for margin in [0.0, 2.0] {
            let mut list = Vec::new();
            self_candidates_into(g, &cell, 0..n, ff.cutoff + margin, &mut list);
            let mut f_ranged = vec![Vec3::ZERO; n];
            let r_ranged = nb_self_ranged(&ff, &ex, g, &cell, 0..n, &mut f_ranged);
            let mut f_listed = vec![Vec3::ZERO; n];
            let r_listed = nb_self_listed(&ff, &ex, g, &cell, &list, &mut f_listed);
            // Same pairs in the same order: bit-identical, not just close.
            assert_eq!(r_listed.pairs, r_ranged.pairs);
            assert_eq!(r_listed.e_lj.to_bits(), r_ranged.e_lj.to_bits(), "margin {margin}");
            assert_eq!(r_listed.e_elec.to_bits(), r_ranged.e_elec.to_bits());
            for i in 0..n {
                assert_eq!(f_listed[i], f_ranged[i], "atom {i}, margin {margin}");
            }
        }
    }

    #[test]
    fn listed_pair_kernel_is_bit_identical_to_ranged_on_fresh_list() {
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(26.0);
        let n = 36;
        let (pos, ids, lj, q) = scatter(n, 26.0);
        let ex = Exclusions::none(n);
        let k = 15;
        let ga = group(&pos[..k], &ids[..k], &lj[..k], &q[..k]);
        let gb = group(&pos[k..], &ids[k..], &lj[k..], &q[k..]);

        let mut list = Vec::new();
        pair_candidates_into(ga, gb, &cell, 0..k, ff.cutoff + 2.0, &mut list);
        let mut fa_r = vec![Vec3::ZERO; k];
        let mut fb_r = vec![Vec3::ZERO; n - k];
        let r_ranged = nb_pair_ranged(&ff, &ex, ga, gb, &cell, 0..k, &mut fa_r, &mut fb_r);
        let mut fa_l = vec![Vec3::ZERO; k];
        let mut fb_l = vec![Vec3::ZERO; n - k];
        let r_listed = nb_pair_listed(&ff, &ex, ga, gb, &cell, &list, &mut fa_l, &mut fb_l);
        assert_eq!(r_listed.pairs, r_ranged.pairs);
        assert_eq!(r_listed.e_lj.to_bits(), r_ranged.e_lj.to_bits());
        assert_eq!(r_listed.e_elec.to_bits(), r_ranged.e_elec.to_bits());
        for i in 0..k {
            assert_eq!(fa_l[i], fa_r[i], "group a atom {i}");
        }
        for j in 0..n - k {
            assert_eq!(fb_l[j], fb_r[j], "group b atom {j}");
        }
    }

    #[test]
    fn listed_kernel_stays_exact_while_displacements_fit_in_margin() {
        // Build a list at cutoff + margin, then move every atom by less than
        // margin/2 — the stale list must still cover every within-cutoff pair,
        // so the listed kernel keeps matching a fresh ranged evaluation.
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(26.0);
        let n = 40;
        let margin = 2.0;
        let (mut pos, ids, lj, q) = scatter(n, 26.0);
        let ex = Exclusions::none(n);
        let mut list = Vec::new();
        self_candidates_into(group(&pos, &ids, &lj, &q), &cell, 0..n, ff.cutoff + margin, &mut list);

        for (i, p) in pos.iter_mut().enumerate() {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            // |Δ| = √(0.36+0.16+0.09) ≈ 0.78 Å < margin/2 = 1.0 Å.
            *p += Vec3::new(0.6 * s, -0.4 * s, 0.3 * s);
        }
        let g = group(&pos, &ids, &lj, &q);
        let mut f_ranged = vec![Vec3::ZERO; n];
        let r_ranged = nb_self_ranged(&ff, &ex, g, &cell, 0..n, &mut f_ranged);
        let mut f_listed = vec![Vec3::ZERO; n];
        let r_listed = nb_self_listed(&ff, &ex, g, &cell, &list, &mut f_listed);
        assert_eq!(r_listed.pairs, r_ranged.pairs);
        assert!((r_listed.energy() - r_ranged.energy()).abs() < 1e-12);
        for i in 0..n {
            assert!((f_listed[i] - f_ranged[i]).norm() < 1e-12, "atom {i}");
        }
    }

    /// The plain double loops the builders must reproduce element for
    /// element (what they were before the bins).
    fn self_candidates_reference(
        pos: &[Vec3],
        cell: &Cell,
        outer: std::ops::Range<usize>,
        radius: f64,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in outer {
            for j in (i + 1)..pos.len() {
                if cell.dist2(pos[i], pos[j]) < radius * radius {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn pair_candidates_reference(
        pa: &[Vec3],
        pb: &[Vec3],
        cell: &Cell,
        outer: std::ops::Range<usize>,
        radius: f64,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in outer {
            for j in 0..pb.len() {
                if cell.dist2(pa[i], pb[j]) < radius * radius {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Both builders against the double loops on two point sets, over whole
    /// and split outer ranges (the splits must tile the whole list).
    fn assert_builders_match_reference(
        pa: &[Vec3],
        pb: &[Vec3],
        cell: &Cell,
        radius: f64,
        what: &str,
    ) {
        let attrs =
            |n: usize| ((0..n as u32).collect::<Vec<AtomId>>(), vec![0u16; n], vec![0.0; n]);
        let (ia, la, qa) = attrs(pa.len());
        let (ib, lb, qb) = attrs(pb.len());
        let ga = group(pa, &ia, &la, &qa);
        let gb = group(pb, &ib, &lb, &qb);
        let na = pa.len();
        // A stale, oversized buffer must be cleared, not appended to.
        let mut got = vec![(7, 7); 3];
        for outer in [0..na, 0..na / 3, na / 3..na, na / 2..na / 2] {
            self_candidates_into(ga, cell, outer.clone(), radius, &mut got);
            assert_eq!(
                got,
                self_candidates_reference(pa, cell, outer.clone(), radius),
                "{what}: self list, outer {outer:?}, radius {radius}"
            );
            pair_candidates_into(ga, gb, cell, outer.clone(), radius, &mut got);
            assert_eq!(
                got,
                pair_candidates_reference(pa, pb, cell, outer.clone(), radius),
                "{what}: pair list, outer {outer:?}, radius {radius}"
            );
        }
    }

    #[test]
    fn candidate_builders_write_exactly_the_double_loop_list() {
        // The small benchmark deck's cell: 2×2×1 patches, so a patch spans
        // L/2 in x and y and the whole of z.
        let lengths = Vec3::new(38.303461205558015, 38.303461205558015, 28.72759590416851);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut rng = || rng.gen::<f64>();
        let mut cloud = |n: usize, lo: Vec3, span: Vec3| -> Vec<Vec3> {
            (0..n).map(|_| lo + Vec3::new(rng() * span.x, rng() * span.y, rng() * span.z)).collect()
        };
        let half = Vec3::new(lengths.x / 2.0, lengths.y / 2.0, lengths.z);
        let periodic = Cell::periodic(Vec3::ZERO, lengths);
        let offset = Cell::periodic(Vec3::new(-1.0e4, 2.5e3, -7.0), lengths);
        let open = Cell::open(Vec3::ZERO, lengths);
        let slab = Cell { origin: Vec3::ZERO, lengths, periodic: [true, true, false] };

        // Two face-sharing half-box patches, also neighbours through the
        // periodic face.
        let pa = cloud(230, Vec3::ZERO, half);
        let pb = cloud(190, Vec3::new(half.x, 0.0, 0.0), half);
        // A patch whose atoms drifted over the periodic face and were wrapped
        // to the far side of the box.
        let straddle: Vec<Vec3> = cloud(210, Vec3::new(-4.0, -3.0, -5.0), half)
            .into_iter()
            .map(|p| periodic.wrap(p))
            .collect();
        // Unwrapped coordinates several boxes away (the general branch).
        let far: Vec<Vec3> = pb
            .iter()
            .map(|&p| p + Vec3::new(3.0 * lengths.x, -2.0 * lengths.y, lengths.z))
            .collect();
        let shifted = |ps: &[Vec3]| ps.iter().map(|&p| p + offset.origin).collect::<Vec<_>>();

        // 0 lists nothing; 14.5 is cutoff + margin; 20 and 45 exceed L/2 and L.
        for radius in [0.0, 3.0, 12.0, 14.5, 20.0, 45.0] {
            assert_builders_match_reference(&pa, &pb, &periodic, radius, "half-box patches");
            assert_builders_match_reference(&straddle, &pa, &periodic, radius, "straddling patch");
            assert_builders_match_reference(
                &pa,
                &straddle,
                &periodic,
                radius,
                "straddling j group",
            );
            assert_builders_match_reference(&pa, &far, &periodic, radius, "unwrapped j group");
            assert_builders_match_reference(&pa, &pb, &open, radius, "open cell");
            assert_builders_match_reference(&straddle, &pb, &slab, radius, "slab cell");
            assert_builders_match_reference(
                &shifted(&pa),
                &shifted(&straddle),
                &offset,
                radius,
                "offset origin",
            );
        }

        // Degenerate groups: empty, one atom, all atoms on one point.
        let one = [Vec3::new(1.0, 2.0, 3.0)];
        let pile = vec![Vec3::new(5.0, 5.0, 5.0); 70];
        for (a, b) in [
            (&pa[..], &pa[..0]),
            (&pa[..0], &pb[..]),
            (&one[..], &one[..]),
            (&pile[..], &one[..]),
            (&pa[..], &pile[..]),
        ] {
            assert_builders_match_reference(a, b, &periodic, 14.5, "degenerate groups");
        }

        // Hostile coordinates never list and never hide a real neighbour.
        let mut bad = pb.clone();
        bad[0] = Vec3::new(f64::NAN, 1.0, 1.0);
        bad[7] = Vec3::new(1.0, f64::INFINITY, 1.0);
        bad[40] = Vec3::new(1.0e200, -1.0e200, 0.0);
        assert_builders_match_reference(&bad, &pa, &periodic, 14.5, "hostile i group");
        assert_builders_match_reference(&pa, &bad, &periodic, 14.5, "hostile j group");
        assert_builders_match_reference(&pa, &bad, &open, 14.5, "hostile j group, open cell");
        assert_builders_match_reference(&pa, &pb, &periodic, -14.5, "negative radius");
        assert_builders_match_reference(&pa, &pb, &periodic, f64::NAN, "NaN radius");
    }

    #[test]
    fn candidate_builders_size_the_list_exactly_and_skip_far_bins() {
        // Two groups filling a 60 Å box (many blocks of row bitmaps): a
        // rebuild must not test every pair, and the list must come out in a
        // buffer of its own length. The distance tests a build makes are the
        // entries `near` hands it.
        let cell = Cell::cube(60.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut rng = || rng.gen::<f64>();
        let mut cloud = |n| {
            (0..n).map(|_| Vec3::new(rng() * 60.0, rng() * 60.0, rng() * 60.0)).collect::<Vec<_>>()
        };
        let (pa, pb) = (cloud(3000), cloud(3000));
        let mut list = Vec::new();
        candidates_into(&pa, &pb, false, &cell, 0..pa.len(), 14.5, &mut list);
        assert_eq!(list, pair_candidates_reference(&pa, &pb, &cell, 0..pa.len(), 14.5));
        assert_eq!(list.capacity(), list.len());
        let bins = Bins::new(&pb, &cell, 14.5);
        let mut visited = 0;
        for &p in &pa {
            bins.near(&cell, p, 14.5, |run| visited += run.len());
        }
        let all = pa.len() * pb.len();
        assert!(
            visited < 3 * list.len() && visited < all / 3,
            "{visited} distance tests for {} candidates of {all} pairs",
            list.len()
        );
    }

    #[test]
    fn candidate_builders_respect_outer_ranges() {
        // Split outer ranges must tile the same candidate set as one full
        // range, in the same global order when concatenated.
        let cell = Cell::cube(26.0);
        let n = 30;
        let (pos, ids, lj, q) = scatter(n, 26.0);
        let g = group(&pos, &ids, &lj, &q);
        let mut full = Vec::new();
        self_candidates_into(g, &cell, 0..n, 14.0, &mut full);
        let mut tiled = Vec::new();
        let mut part = Vec::new();
        for range in [0..9, 9..21, 21..n] {
            self_candidates_into(g, &cell, range, 14.0, &mut part);
            tiled.extend_from_slice(&part);
        }
        assert_eq!(tiled, full);
    }
}
