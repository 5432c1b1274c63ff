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
//!
//! Three kernel families share one pair arithmetic (`eval_pair`):
//!
//! * the *ranged* kernels ([`nb_self_ranged`], [`nb_pair_ranged`]) are the
//!   plain double loop, one pair at a time — the reference every other
//!   kernel is held to, bit for bit;
//! * the *listed* kernels ([`nb_self_listed`], [`nb_pair_listed`]) walk a
//!   cached candidate list and are what a run spends its time in. They take
//!   the list a row at a time through four passes over a small batch —
//!   filter by distance without branching, classify against the exclusion
//!   rows, evaluate the arithmetic in lanes, accumulate in list order (see
//!   `ListedRows`) — and return the ranged kernels' bits;
//! * [`nb_pairlist`] serves the sequential simulator's unordered Verlet
//!   list with the same lanes and its own summation order.

use crate::erf::{erfc, TWO_OVER_SQRT_PI};
use crate::forcefield::{units, ForceField, LjPair};
use crate::pbc::Cell;
use crate::topology::{AtomId, ExclusionKind, Exclusions};
use crate::vec3::Vec3;

/// Approximate floating-point operations per evaluated atom pair inside the
/// cutoff. Used to produce GFLOPS ratings the same way the paper does
/// (hardware-counter op count per step / time per step); counted from the
/// kernel arithmetic below (distance 8, LJ 10, Coulomb+shift 12, switching 9,
/// force accumulation ~6). Every operation counts as one, though five of
/// them are divides (1/r², two in the switching function, two in the shifting
/// function) and one a square root (1/r), and those six keep the divider
/// busy for about as long as all the others take together.
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

/// What the pair arithmetic needs of the force field besides the per-pair
/// coefficients, worked out once per kernel call.
#[derive(Clone, Copy)]
struct PairConsts {
    /// r_c² and r_s².
    rc2: f64,
    rs2: f64,
    /// `(r_c² − r_s²)³`, the switching function's denominator.
    sw_denom: f64,
}

impl PairConsts {
    #[inline]
    fn new(ff: &ForceField) -> Self {
        let rc2 = ff.cutoff * ff.cutoff;
        let rs2 = ff.switch_dist * ff.switch_dist;
        PairConsts { rc2, rs2, sw_denom: (rc2 - rs2).powi(3) }
    }
}

/// Switched Lennard-Jones energy and its derivative w.r.t. r².
///
/// The switching factor is [`ForceField::switching`] for `r² < r_c²`, its
/// one remaining branch written as a select: both arms are computed and
/// `r² ≤ r_s²` picks `(1, 0)`. The discarded arm costs two divides, and in
/// exchange the whole function is straight-line code a loop over a batch can
/// run two pairs at a time.
#[inline(always)]
fn lj_switched(
    k: &PairConsts,
    lj_a: f64,
    lj_b: f64,
    r2: f64,
    inv_r2: f64,
    scale: f64,
) -> (f64, f64) {
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let inv_r12 = inv_r6 * inv_r6;

    // Raw LJ energy and its derivative w.r.t. r².
    let e_lj_raw = lj_a * inv_r12 - lj_b * inv_r6;
    let de_lj_dr2 = (-6.0 * lj_a * inv_r12 + 3.0 * lj_b * inv_r6) * inv_r2;

    let u = k.rc2 - r2;
    let unswitched = r2 <= k.rs2;
    let sw = u * u * (k.rc2 + 2.0 * r2 - 3.0 * k.rs2) / k.sw_denom;
    let dsw_dr2 = -6.0 * u * (r2 - k.rs2) / k.sw_denom;
    let sw = if unswitched { 1.0 } else { sw };
    let dsw_dr2 = if unswitched { 0.0 } else { dsw_dr2 };
    (scale * sw * e_lj_raw, scale * (dsw_dr2 * e_lj_raw + sw * de_lj_dr2))
}

/// One pair under cutoff electrostatics (Coulomb with shifting): the
/// arithmetic behind [`eval_pair`] and behind every lane of the listed
/// kernels' batch. Straight-line: five divides and one square root.
#[inline(always)]
fn pair_shifted(
    k: &PairConsts,
    lj_a: f64,
    lj_b: f64,
    qq: f64,
    r2: f64,
    scale: f64,
) -> (f64, f64, f64) {
    let inv_r2 = 1.0 / r2;
    let (e_lj, de_lj) = lj_switched(k, lj_a, lj_b, r2, inv_r2, scale);
    let inv_r = inv_r2.sqrt();
    let e_c_raw = units::COULOMB * qq * inv_r;
    let de_c_dr2 = -0.5 * e_c_raw * inv_r2;
    // `ForceField::shifting` for r² < r_c².
    let u = 1.0 - r2 / k.rc2;
    let (sh, dsh_dr2) = (u * u, -2.0 * u / k.rc2);
    let e_elec = scale * sh * e_c_raw;
    let de_elec = scale * (dsh_dr2 * e_c_raw + sh * de_c_dr2);
    // F_i = -dE/dr · r̂ = -2 dE/d(r²) · (r_i - r_j).
    (e_lj, e_elec, -2.0 * (de_lj + de_elec))
}

/// One pair under Ewald real-space electrostatics, `E = C·qq·erfc(βr)/r`;
/// 1-4 pairs keep full electrostatics under Ewald (the scale applies to LJ
/// only). `erfc` is a series or a continued fraction — a loop — so it is
/// evaluated once and this mode runs one pair at a time.
#[inline(always)]
fn pair_ewald(
    k: &PairConsts,
    beta: f64,
    lj_a: f64,
    lj_b: f64,
    qq: f64,
    r2: f64,
    scale: f64,
) -> (f64, f64, f64) {
    let inv_r2 = 1.0 / r2;
    let (e_lj, de_lj) = lj_switched(k, lj_a, lj_b, r2, inv_r2, scale);
    let inv_r = inv_r2.sqrt();
    let r = r2.sqrt();
    let c = units::COULOMB * qq;
    let erfc_br = erfc(beta * r);
    let e_elec = c * erfc_br * inv_r;
    // dE/dr = −C·qq·[erfc(βr)/r² + 2β/√π·e^{−β²r²}/r]; dE/d(r²) = dE/dr / (2r).
    let de_dr =
        -c * (erfc_br * inv_r2 + beta * TWO_OVER_SQRT_PI * (-beta * beta * r2).exp() * inv_r);
    (e_lj, e_elec, -2.0 * (de_lj + de_dr / (2.0 * r)))
}

/// Evaluate one atom pair at squared distance `r2`, which the caller has
/// tested against the cutoff: `r2 ≥ cutoff²` must not reach here (a NaN
/// does, and comes out as NaN). Returns `(e_lj, e_elec, f_over_r)` where the
/// force on atom *i* is `f_over_r * (r_i - r_j)`.
#[inline]
pub(crate) fn eval_pair(
    ff: &ForceField,
    lj_a: f64,
    lj_b: f64,
    qq: f64,
    r2: f64,
    scale: f64,
) -> (f64, f64, f64) {
    let k = PairConsts::new(ff);
    match ff.ewald_beta {
        None => pair_shifted(&k, lj_a, lj_b, qq, r2, scale),
        Some(beta) => pair_ewald(&k, beta, lj_a, lj_b, qq, r2, scale),
    }
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

/// Pairs the listed kernels hold in flight: 12 arrays of 64 lanes, 6 KiB of
/// stack, so a batch never leaves L1.
const BATCH: usize = 64;

/// Struct-of-arrays scratch for up to [`BATCH`] pairs, filled in three
/// steps: geometry for the pairs inside the cutoff, coefficients for those
/// of them that are not excluded, and the results of the pair arithmetic.
struct Batch {
    j: [u32; BATCH],
    dx: [f64; BATCH],
    dy: [f64; BATCH],
    dz: [f64; BATCH],
    r2: [f64; BATCH],
    lj_a: [f64; BATCH],
    lj_b: [f64; BATCH],
    qq: [f64; BATCH],
    scale: [f64; BATCH],
    e_lj: [f64; BATCH],
    e_elec: [f64; BATCH],
    f_over_r: [f64; BATCH],
}

impl Batch {
    fn new() -> Self {
        Batch {
            j: [0; BATCH],
            dx: [0.0; BATCH],
            dy: [0.0; BATCH],
            dz: [0.0; BATCH],
            r2: [0.0; BATCH],
            lj_a: [0.0; BATCH],
            lj_b: [0.0; BATCH],
            qq: [0.0; BATCH],
            scale: [0.0; BATCH],
            e_lj: [0.0; BATCH],
            e_elec: [0.0; BATCH],
            f_over_r: [0.0; BATCH],
        }
    }

    /// Pass (A): the displacement from each candidate partner to `pi`, the
    /// ones inside the cutoff packed into lanes `..n`; returns `n`. Every
    /// candidate is written to the lane after the last survivor whatever it
    /// is, and only a survivor moves that lane on, so a miss is overwritten
    /// and costs no branch. The test is `!(r² ≥ cutoff²)`, as in the ranged
    /// kernels: a NaN distance stays in and poisons the forces it touches.
    ///
    /// Not inlined: on its own the loop keeps the cell and the cutoff in
    /// registers, which the row body around it has none to spare for (the
    /// replay reads ~5 % slower with this inlined).
    #[inline(never)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // not `r2 < cutoff2`: a NaN is kept
    fn filter(
        &mut self,
        cell: &Cell,
        pi: Vec3,
        pos_j: &[Vec3],
        candidates: &[(u32, u32)],
        cutoff2: f64,
    ) -> usize {
        let mut n = 0;
        for &(_, j) in candidates {
            let d = cell.min_image(pi, pos_j[j as usize]);
            let r2 = d.norm2();
            self.set_geometry(n, j, d, r2);
            n += usize::from(!(r2 >= cutoff2));
        }
        n
    }

    #[inline(always)]
    fn set_geometry(&mut self, n: usize, j: u32, d: Vec3, r2: f64) {
        self.j[n] = j;
        self.dx[n] = d.x;
        self.dy[n] = d.y;
        self.dz[n] = d.z;
        self.r2[n] = r2;
    }

    /// Pass (B), a survivor that is not excluded: its geometry moves from
    /// lane `k` down to lane `m` — nothing moves until an excluded pair has
    /// been squeezed out ahead of it.
    #[inline(always)]
    fn squeeze(&mut self, k: usize, m: usize) {
        if m != k {
            self.j[m] = self.j[k];
            self.dx[m] = self.dx[k];
            self.dy[m] = self.dy[k];
            self.dz[m] = self.dz[k];
            self.r2[m] = self.r2[k];
        }
    }

    /// Pass (B): the coefficients of the pair in lane `m`.
    #[inline(always)]
    fn set_coefficients(&mut self, m: usize, lj: LjPair, qq: f64, scale: f64) {
        self.lj_a[m] = lj.a;
        self.lj_b[m] = lj.b;
        self.qq[m] = qq;
        self.scale[m] = scale;
    }

    /// Pass (C): the pair arithmetic over lanes `..m`. Each lane gets exactly
    /// the operations [`eval_pair`] performs, in its order; with cutoff
    /// electrostatics the body is straight-line, so the compiler is free to
    /// run lanes side by side — packed IEEE divides, square roots, products
    /// and sums round lane by lane as the scalar ones do.
    fn evaluate(&mut self, ff: &ForceField, k: &PairConsts, m: usize) {
        let (lj_a, lj_b, qq) = (&self.lj_a[..m], &self.lj_b[..m], &self.qq[..m]);
        let (r2, scale) = (&self.r2[..m], &self.scale[..m]);
        let (e_lj, e_elec) = (&mut self.e_lj[..m], &mut self.e_elec[..m]);
        let f_over_r = &mut self.f_over_r[..m];
        match ff.ewald_beta {
            None => {
                for l in 0..m {
                    (e_lj[l], e_elec[l], f_over_r[l]) =
                        pair_shifted(k, lj_a[l], lj_b[l], qq[l], r2[l], scale[l]);
                }
            }
            Some(beta) => {
                for l in 0..m {
                    (e_lj[l], e_elec[l], f_over_r[l]) =
                        pair_ewald(k, beta, lj_a[l], lj_b[l], qq[l], r2[l], scale[l]);
                }
            }
        }
    }

    /// The force on the first atom of lane `l`'s pair.
    #[inline(always)]
    fn force(&self, l: usize) -> Vec3 {
        Vec3::new(self.dx[l], self.dy[l], self.dz[l]) * self.f_over_r[l]
    }
}

/// The listed kernels' one body: a row of the candidate list — one i atom
/// and its candidate partners — goes through four passes, [`BATCH`]
/// candidates at a time.
///
/// * **(A) filter**: minimum-image displacement and r² of every candidate,
///   the ones inside the cutoff packed to the front of the batch
///   ([`Batch::filter`]). About four candidates in nine miss, so a branch
///   here would be mispredicted constantly.
/// * **(B) classify**: exclusion lookup against the i atom's rows, fetched
///   once per row ([`Exclusions::row`]); fully excluded pairs are squeezed
///   out ([`Batch::squeeze`]), the rest get their LJ coefficients, charge
///   product and 1-4 scale.
/// * **(C) evaluate**: [`Batch::evaluate`].
/// * **(D) accumulate**: energies, the i atom's force and the partners'
///   forces, summed pair by pair in list order.
///
/// Which pairs are evaluated, what is computed for each and the order of
/// every sum are those of the ranged kernels, so the results are theirs bit
/// for bit; only the interleaving of independent operations differs.
struct ListedRows<'a> {
    ff: &'a ForceField,
    ex: &'a Exclusions,
    cell: &'a Cell,
    consts: PairConsts,
    batch: Batch,
    res: NbResult,
}

impl<'a> ListedRows<'a> {
    fn new(ff: &'a ForceField, ex: &'a Exclusions, cell: &'a Cell) -> Self {
        ListedRows {
            ff,
            ex,
            cell,
            consts: PairConsts::new(ff),
            batch: Batch::new(),
            res: NbResult::default(),
        }
    }

    /// Atom `i` of `gi` against the partners `row` names in `gj`: partner
    /// forces go to `fj`, the force on `i` is returned for the caller to add
    /// once.
    fn row(
        &mut self,
        gi: AtomGroup,
        i: usize,
        gj: AtomGroup,
        row: &[(u32, u32)],
        fj: &mut [Vec3],
    ) -> Vec3 {
        let ListedRows { ff, ex, cell, consts, batch, res } = self;
        let pi = gi.pos[i];
        let qi = gi.charge[i];
        let ti = gi.lj[i];
        let ex_row = ex.row(gi.ids[i]);
        let cutoff2 = consts.rc2;
        let mut fi = Vec3::ZERO;
        for candidates in row.chunks(BATCH) {
            let n = batch.filter(cell, pi, gj.pos, candidates, cutoff2);
            let mut m = 0;
            for k in 0..n {
                let j = batch.j[k] as usize;
                let scale = match ex_row.kind(gj.ids[j]) {
                    ExclusionKind::Full => continue,
                    ExclusionKind::Scaled14 => ff.scale14,
                    ExclusionKind::None => 1.0,
                };
                batch.squeeze(k, m);
                batch.set_coefficients(m, ff.lj(ti, gj.lj[j]), qi * gj.charge[j], scale);
                m += 1;
            }
            batch.evaluate(ff, consts, m);
            for l in 0..m {
                res.e_lj += batch.e_lj[l];
                res.e_elec += batch.e_elec[l];
                let f = batch.force(l);
                fi += f;
                fj[batch.j[l] as usize] -= f;
            }
            res.pairs += m as u64;
        }
        fi
    }
}

/// The rows of a candidate list: runs of entries with the same outer index.
fn rows(list: &[(u32, u32)]) -> impl Iterator<Item = &[(u32, u32)]> {
    list.chunk_by(|p, q| p.0 == q.0)
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
    let mut kernel = ListedRows::new(ff, ex, cell);
    for row in rows(list) {
        let i = row[0].0 as usize;
        let fi = kernel.row(g, i, g, row, forces);
        forces[i] += fi;
    }
    kernel.res
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
    let mut kernel = ListedRows::new(ff, ex, cell);
    for row in rows(list) {
        let i = row[0].0 as usize;
        fa[i] += kernel.row(a, i, b, row, fb);
    }
    kernel.res
}

/// Evaluate non-bonded interactions over an explicit pair list (as produced
/// by [`crate::celllist::CellList::neighbor_pairs`]). Atom arrays are indexed
/// by global atom id. Used by the sequential reference simulator.
///
/// The list is in no particular order, so there are no rows: pairs are
/// tested and classified one by one, `BATCH` at a time go through
/// `Batch::evaluate` — the listed kernels' arithmetic — and each pair's
/// force is added to both atoms in list order.
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
    let consts = PairConsts::new(ff);
    let cutoff2 = consts.rc2;
    let mut batch = Batch::new();
    let mut first = [0u32; BATCH];
    let mut res = NbResult::default();
    for chunk in pairs.chunks(BATCH) {
        let mut m = 0;
        for &(i, j) in chunk {
            let (iu, ju) = (i as usize, j as usize);
            let d = cell.min_image(pos[iu], pos[ju]);
            let r2 = d.norm2();
            if r2 >= cutoff2 {
                continue;
            }
            let scale = match ex.kind(i, j) {
                ExclusionKind::Full => continue,
                ExclusionKind::Scaled14 => ff.scale14,
                ExclusionKind::None => 1.0,
            };
            first[m] = i;
            batch.set_geometry(m, j, d, r2);
            batch.set_coefficients(m, ff.lj(lj[iu], lj[ju]), charge[iu] * charge[ju], scale);
            m += 1;
        }
        batch.evaluate(ff, &consts, m);
        for l in 0..m {
            res.e_lj += batch.e_lj[l];
            res.e_elec += batch.e_elec[l];
            let f = batch.force(l);
            forces[first[l] as usize] += f;
            forces[batch.j[l] as usize] -= f;
        }
        res.pairs += m as u64;
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

    /// `g` cut in two at slot `k`.
    fn split_at(g: AtomGroup<'_>, k: usize) -> (AtomGroup<'_>, AtomGroup<'_>) {
        (
            group(&g.pos[..k], &g.ids[..k], &g.lj[..k], &g.charge[..k]),
            group(&g.pos[k..], &g.ids[k..], &g.lj[k..], &g.charge[k..]),
        )
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

    /// The pair arithmetic as it was written before the listed kernels ran
    /// it in lanes — the switching and shifting functions' own branches, and
    /// `erfc(β·r)` taken twice: the reference [`eval_pair`] must reproduce.
    fn eval_pair_reference(
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
        let e_lj_raw = lj_a * inv_r12 - lj_b * inv_r6;
        let de_lj_dr2 = (-6.0 * lj_a * inv_r12 + 3.0 * lj_b * inv_r6) * inv_r2;
        let (sw, dsw_dr2) = ff.switching(r2);
        let e_lj = scale * sw * e_lj_raw;
        let de_lj = scale * (dsw_dr2 * e_lj_raw + sw * de_lj_dr2);
        let inv_r = inv_r2.sqrt();
        let (e_elec, de_elec) = match ff.ewald_beta {
            None => {
                let e_c_raw = units::COULOMB * qq * inv_r;
                let de_c_dr2 = -0.5 * e_c_raw * inv_r2;
                let (sh, dsh_dr2) = ff.shifting(r2);
                (scale * sh * e_c_raw, scale * (dsh_dr2 * e_c_raw + sh * de_c_dr2))
            }
            Some(beta) => {
                let r = r2.sqrt();
                let c = units::COULOMB * qq;
                let e = c * erfc(beta * r) * inv_r;
                let de_dr = -c
                    * (erfc(beta * r) * inv_r2
                        + beta * TWO_OVER_SQRT_PI * (-beta * beta * r2).exp() * inv_r);
                (e, de_dr / (2.0 * r))
            }
        };
        (e_lj, e_elec, -2.0 * (de_lj + de_elec))
    }

    /// `to_bits` equality, with any NaN equal to any other (which NaN an
    /// operation on two NaNs returns is not specified).
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_same_forces(got: &[Vec3], want: &[Vec3], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                same_bits(g.x, w.x) && same_bits(g.y, w.y) && same_bits(g.z, w.z),
                "{what}: atom {i}: got {g:?}, want {w:?}"
            );
        }
    }

    fn assert_same_result(got: NbResult, want: NbResult, what: &str) {
        assert_eq!(got.pairs, want.pairs, "{what}: pairs");
        assert!(same_bits(got.e_lj, want.e_lj), "{what}: e_lj {} vs {}", got.e_lj, want.e_lj);
        assert!(
            same_bits(got.e_elec, want.e_elec),
            "{what}: e_elec {} vs {}",
            got.e_elec,
            want.e_elec
        );
    }

    #[test]
    fn select_form_pair_arithmetic_is_the_branching_form_bit_for_bit() {
        // r from 0.5 Å to the cutoff in steps no grid aligns with, plus both
        // sides of the switching radius and the last float below the cutoff.
        let cutoff = 12.0f64;
        let mut r2s: Vec<f64> = (0..)
            .map(|k| 0.5 + 0.0137 * k as f64)
            .take_while(|&r| r < cutoff)
            .map(|r| r * r)
            .collect();
        let (rs2, rc2) = (100.0f64, cutoff * cutoff);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        r2s.extend([rs2, above(rs2), below(rs2), below(rc2), f64::NAN]);
        let cutoff_ff = ForceField::biomolecular(cutoff);
        let fields = [
            cutoff_ff.clone(),
            cutoff_ff.clone().with_ewald(0.25),
            cutoff_ff.clone().with_ewald(0.34),
        ];
        for ff in &fields {
            for &r2 in &r2s {
                for (ti, tj, qq, scale) in
                    [(0, 0, 0.695556, 1.0), (0, 1, -0.347778, 1.0), (2, 3, 0.06, 0.5)]
                {
                    let lj = ff.lj(ti, tj);
                    let got = eval_pair(ff, lj.a, lj.b, qq, r2, scale);
                    let want = eval_pair_reference(ff, lj.a, lj.b, qq, r2, scale);
                    assert!(
                        same_bits(got.0, want.0)
                            && same_bits(got.1, want.1)
                            && same_bits(got.2, want.2),
                        "beta {:?}, r2 {r2}, types ({ti},{tj}): got {got:?}, want {want:?}",
                        ff.ewald_beta
                    );
                }
            }
        }
    }

    /// `nb_pairlist` as it was before it borrowed the listed kernels' lanes.
    #[allow(clippy::too_many_arguments)]
    fn nb_pairlist_reference(
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
            let (e_lj, e_el, fr) =
                eval_pair_reference(ff, ljp.a, ljp.b, charge[i] * charge[j], r2, scale);
            res.e_lj += e_lj;
            res.e_elec += e_el;
            res.pairs += 1;
            let f = d * fr;
            forces[i] += f;
            forces[j] -= f;
        }
        res
    }

    #[test]
    fn pairlist_kernel_keeps_its_bits_and_its_summation_order() {
        // 200 waters, jittered, in a periodic box; the cell list's pair order.
        let (nx, ny, nz, spacing) = (5, 5, 8, 3.1);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut jitter = || (rng.gen::<f64>() - 0.5) * 0.8;
        let mut topo = Topology::default();
        let mut pos = Vec::new();
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let base = Vec3::new(ix as f64 + 0.3, iy as f64 + 0.3, iz as f64 + 0.3)
                        * spacing
                        + Vec3::new(jitter(), jitter(), jitter());
                    crate::topology::push_water(&mut topo, 0, 1);
                    pos.push(base);
                    pos.push(base + Vec3::new(0.9572, 0.0, 0.0));
                    pos.push(base + Vec3::new(-0.2399, 0.9266, 0.0));
                }
            }
        }
        assert_eq!(pos.len(), 600);
        let cell = Cell::periodic(Vec3::ZERO, Vec3::new(nx as f64, ny as f64, nz as f64) * spacing);
        let ex = Exclusions::from_topology(&topo);
        let lj: Vec<u16> = topo.atoms.iter().map(|a| a.lj_type).collect();
        let q: Vec<f64> = topo.atoms.iter().map(|a| a.charge).collect();
        let cutoff_ff = ForceField::biomolecular(7.0);
        for ff in [cutoff_ff.clone(), cutoff_ff.with_ewald(0.4)] {
            let list = crate::pairlist::PairList::build(&cell, &pos, ff.cutoff, 1.5);
            let mut f_got = vec![Vec3::ZERO; pos.len()];
            let mut f_want = f_got.clone();
            let got = nb_pairlist(&ff, &ex, &pos, &lj, &q, list.pairs(), &cell, &mut f_got);
            let want =
                nb_pairlist_reference(&ff, &ex, &pos, &lj, &q, list.pairs(), &cell, &mut f_want);
            let what = format!("beta {:?}", ff.ewald_beta);
            assert!(want.pairs > 20_000 && (want.pairs as usize) < list.pairs().len(), "{what}");
            assert_same_result(got, want, &what);
            assert_same_forces(&f_got, &f_want, &what);
        }
    }

    /// Listed against ranged over the same outer ranges, the lists built fresh
    /// at `radius` from `built_from` (the groups themselves unless a test
    /// moves an atom after the build): forces, energies and pair count must
    /// agree bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn assert_self_listed_is_ranged(
        what: &str,
        ff: &ForceField,
        ex: &Exclusions,
        built_from: AtomGroup,
        g: AtomGroup,
        cell: &Cell,
        radius: f64,
        outers: &[std::ops::Range<usize>],
    ) -> (Vec<usize>, Vec<Vec3>) {
        let mut f_listed = vec![Vec3::ZERO; g.len()];
        let mut f_ranged = f_listed.clone();
        let (mut listed, mut ranged) = (NbResult::default(), NbResult::default());
        let mut list = Vec::new();
        let mut row_lengths = Vec::new();
        for outer in outers {
            self_candidates_into(built_from, cell, outer.clone(), radius, &mut list);
            row_lengths.extend(rows(&list).map(<[_]>::len));
            listed.add(nb_self_listed(ff, ex, g, cell, &list, &mut f_listed));
            ranged.add(nb_self_ranged(ff, ex, g, cell, outer.clone(), &mut f_ranged));
        }
        assert_same_result(listed, ranged, what);
        assert_same_forces(&f_listed, &f_ranged, what);
        (row_lengths, f_listed)
    }

    #[allow(clippy::too_many_arguments)]
    fn assert_pair_listed_is_ranged(
        what: &str,
        ff: &ForceField,
        ex: &Exclusions,
        built_from: (AtomGroup, AtomGroup),
        (a, b): (AtomGroup, AtomGroup),
        cell: &Cell,
        radius: f64,
        outers: &[std::ops::Range<usize>],
    ) -> Vec<usize> {
        let (mut fa_listed, mut fb_listed) = (vec![Vec3::ZERO; a.len()], vec![Vec3::ZERO; b.len()]);
        let (mut fa_ranged, mut fb_ranged) = (fa_listed.clone(), fb_listed.clone());
        let (mut listed, mut ranged) = (NbResult::default(), NbResult::default());
        let mut list = Vec::new();
        let mut row_lengths = Vec::new();
        for outer in outers {
            pair_candidates_into(
                built_from.0,
                built_from.1,
                cell,
                outer.clone(),
                radius,
                &mut list,
            );
            row_lengths.extend(rows(&list).map(<[_]>::len));
            listed.add(nb_pair_listed(ff, ex, a, b, cell, &list, &mut fa_listed, &mut fb_listed));
            let outer = outer.clone();
            ranged.add(nb_pair_ranged(ff, ex, a, b, cell, outer, &mut fa_ranged, &mut fb_ranged));
        }
        assert_same_result(listed, ranged, what);
        assert_same_forces(&fa_listed, &fa_ranged, what);
        assert_same_forces(&fb_listed, &fb_ranged, what);
        row_lengths
    }

    /// Atoms in the ball of [`seam_scene`]: its first self row is 3·BATCH + 2
    /// candidates long.
    const CLUSTER: usize = 3 * BATCH + 3;

    /// The atoms the batch-seam tests run on.
    ///
    /// * `0..CLUSTER`: a ball 13.8 Å across, sorted by distance from its
    ///   centre, so listed at 14.5 Å the self rows are 3·BATCH + 2,
    ///   3·BATCH + 1, …, 1 candidates long and atoms 0 and 1 are within 9 Å
    ///   of every other. Bonds put a fully excluded partner and a 1-4 partner
    ///   of atom 0 at candidates BATCH − 1 and BATCH of its row (the last
    ///   lane of one batch and the first of the next), and a 1-4 and a fully
    ///   excluded partner of atom 1 at the same seam of its row.
    /// * a water on its own: three rows whose every candidate is excluded;
    /// * two atoms 13 Å apart: a row entirely between cutoff and list radius;
    /// * one atom with nothing near: no row at all.
    ///
    /// The ball sits on the corner of a 60 Å cell, so wrapped into a periodic
    /// or slab cell its pairs fold across every face.
    fn seam_scene() -> (Topology, Vec<Vec3>) {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let mut ball: Vec<Vec3> = Vec::new();
        while ball.len() < CLUSTER {
            let mut c = || (rng.gen::<f64>() * 2.0 - 1.0) * 6.9;
            let p = Vec3::new(c(), c(), c());
            if p.norm() <= 6.9 && ball.iter().all(|&q| (p - q).norm() >= 1.5) {
                ball.push(p);
            }
        }
        ball.sort_by(|p, q| p.norm2().total_cmp(&q.norm2()));
        let mut pos = ball;
        let mut topo = Topology::default();
        topo.atoms = (0..CLUSTER)
            .map(|i| Atom {
                mass: 12.0,
                charge: if i % 2 == 0 { 0.4 } else { -0.4 },
                lj_type: (i % 5) as u16,
            })
            .collect();
        let seam = BATCH as AtomId;
        let bond = |a: AtomId, b: AtomId| Bond { a, b, k: 300.0, r0: 1.5 };
        // Atom 0's row is candidates 1, 2, …: candidate BATCH − 1 is atom
        // `seam`, candidate BATCH is atom `seam + 1`.
        topo.bonds.extend([bond(0, seam), bond(seam, 100), bond(100, seam + 1)]);
        // Atom 1's row starts at 2: the same seam is atoms seam + 1, seam + 2.
        topo.bonds.extend([bond(1, seam + 2), bond(seam + 2, 101), bond(101, seam + 1)]);
        let water = crate::topology::push_water(&mut topo, 0, 1) as usize;
        assert_eq!(water, pos.len());
        let o = Vec3::new(30.0, 30.0, 30.0);
        pos.extend([o, o + Vec3::new(0.9572, 0.0, 0.0), o + Vec3::new(-0.2399, 0.9266, 0.0)]);
        for p in
            [Vec3::new(30.0, 10.0, 30.0), Vec3::new(43.0, 10.0, 30.0), Vec3::new(10.0, 30.0, 30.0)]
        {
            topo.atoms.push(Atom { mass: 12.0, charge: 0.3, lj_type: 2 });
            pos.push(p);
        }
        (topo, pos)
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // one outer range is a case like any other
    fn listed_kernels_match_ranged_across_every_batch_seam() {
        let (topo, open_pos) = seam_scene();
        let n = open_pos.len();
        let ex = Exclusions::from_topology(&topo);
        let seam = BATCH as AtomId;
        assert_eq!(ex.kind(0, seam), ExclusionKind::Full);
        assert_eq!(ex.kind(0, seam + 1), ExclusionKind::Scaled14);
        assert_eq!(ex.kind(1, seam + 1), ExclusionKind::Scaled14);
        assert_eq!(ex.kind(1, seam + 2), ExclusionKind::Full);
        let ids: Vec<AtomId> = (0..n as AtomId).collect();
        let lj: Vec<u16> = topo.atoms.iter().map(|a| a.lj_type).collect();
        let q: Vec<f64> = topo.atoms.iter().map(|a| a.charge).collect();
        let lengths = Vec3::splat(60.0);
        let cells = [
            ("open", Cell::open(Vec3::ZERO, lengths)),
            ("slab", Cell { origin: Vec3::ZERO, lengths, periodic: [true, true, false] }),
            ("periodic", Cell::periodic(Vec3::ZERO, lengths)),
        ];
        let cutoff_ff = ForceField::biomolecular(9.0);
        let radius = 14.5;
        for (cell_name, cell) in &cells {
            let pos: Vec<Vec3> = open_pos.iter().map(|&p| cell.wrap(p)).collect();
            if cell.periodic[0] {
                let folded = cell.min_image(pos[0], pos[1]) != pos[0] - pos[1]
                    || (2..CLUSTER).any(|j| cell.min_image(pos[0], pos[j]) != pos[0] - pos[j]);
                assert!(folded, "{cell_name}: no pair of the ball folds across a face");
            }
            let all = group(&pos, &ids, &lj, &q);
            for ff in [cutoff_ff.clone(), cutoff_ff.clone().with_ewald(0.3)] {
                let what = format!("{cell_name} cell, beta {:?}", ff.ewald_beta);
                // The seam partners must pass the cutoff test to reach the
                // exclusion lookup.
                for (i, j) in [(0, BATCH), (0, BATCH + 1), (1, BATCH + 1), (1, BATCH + 2)] {
                    assert!(cell.dist2(pos[i], pos[j]) < ff.cutoff2(), "{what}: pair ({i},{j})");
                }

                // Self kernel, whole and split outer ranges.
                let (rows_seen, _) =
                    assert_self_listed_is_ranged(&what, &ff, &ex, all, all, cell, radius, &[0..n]);
                for len in [1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 2] {
                    assert!(rows_seen.contains(&len), "{what}: no self row of {len} candidates");
                }
                // The water's rows (2 and 1 candidates, all excluded) and the
                // far pair's (1 candidate, beyond the cutoff) evaluate nothing.
                let tail = CLUSTER..n;
                let (tail_rows, _) = assert_self_listed_is_ranged(
                    &what,
                    &ff,
                    &ex,
                    all,
                    all,
                    cell,
                    radius,
                    std::slice::from_ref(&tail),
                );
                assert_eq!(tail_rows, [2, 1, 1], "{what}");
                let mut f = vec![Vec3::ZERO; n];
                let mut list = Vec::new();
                self_candidates_into(all, cell, tail, radius, &mut list);
                assert_eq!(nb_self_listed(&ff, &ex, all, cell, &list, &mut f).pairs, 0, "{what}");
                assert_self_listed_is_ranged(
                    &what,
                    &ff,
                    &ex,
                    all,
                    all,
                    cell,
                    radius,
                    &[0..1, 1..BATCH + 7, BATCH + 7..BATCH + 7, BATCH + 7..n],
                );

                // Pair kernel: atom 0 against the next k atoms is one row of
                // exactly k candidates.
                let a = group(&pos[..1], &ids[..1], &lj[..1], &q[..1]);
                for k in [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 2] {
                    let b = group(&pos[1..1 + k], &ids[1..1 + k], &lj[1..1 + k], &q[1..1 + k]);
                    let rows_seen = assert_pair_listed_is_ranged(
                        &format!("{what}, one row of {k}"),
                        &ff,
                        &ex,
                        (a, b),
                        (a, b),
                        cell,
                        radius,
                        &[0..1],
                    );
                    assert_eq!(rows_seen, if k == 0 { vec![] } else { vec![k] }, "{what}");
                }
                // Many rows, split: the first 40 atoms against everything else.
                let k = 40;
                let ab = split_at(all, k);
                assert_pair_listed_is_ranged(&what, &ff, &ex, ab, ab, cell, radius, &[0..k]);
                assert_pair_listed_is_ranged(&what, &ff, &ex, ab, ab, cell, radius, &[0..2, 2..k]);
            }
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn a_nan_or_infinite_coordinate_poisons_the_listed_kernels_as_it_does_the_ranged() {
        // The ball alone, listed while every coordinate was finite: all pairs
        // are candidates, so the list hides nothing the ranged kernel sees.
        let (topo, pos) = seam_scene();
        let n = CLUSTER;
        let clean = &pos[..n];
        let ids: Vec<AtomId> = (0..n as AtomId).collect();
        let lj: Vec<u16> = topo.atoms[..n].iter().map(|a| a.lj_type).collect();
        let q: Vec<f64> = topo.atoms[..n].iter().map(|a| a.charge).collect();
        let ex = Exclusions::from_topology(&topo);
        let cutoff_ff = ForceField::biomolecular(9.0);
        let lengths = Vec3::splat(60.0);
        for cell in [Cell::open(Vec3::ZERO, lengths), Cell::periodic(Vec3::ZERO, lengths)] {
            let clean: Vec<Vec3> = clean.iter().map(|&p| cell.wrap(p)).collect();
            let built_from = group(&clean, &ids, &lj, &q);
            for (victim, value) in
                [(5, f64::NAN), (BATCH + 3, f64::INFINITY), (2 * BATCH, f64::NEG_INFINITY)]
            {
                let mut bad = clean.clone();
                bad[victim].y = value;
                let g = group(&bad, &ids, &lj, &q);
                for ff in [cutoff_ff.clone(), cutoff_ff.clone().with_ewald(0.3)] {
                    let what = format!(
                        "periodic {:?}, atom {victim} at y = {value}, beta {:?}",
                        cell.periodic, ff.ewald_beta
                    );
                    let (rows_seen, f) = assert_self_listed_is_ranged(
                        &what,
                        &ff,
                        &ex,
                        built_from,
                        g,
                        &cell,
                        14.5,
                        &[0..n],
                    );
                    assert_eq!(rows_seen.iter().sum::<usize>(), n * (n - 1) / 2, "{what}");
                    // An infinite displacement along an open axis is a miss;
                    // folded it is a NaN, and a NaN is never dropped.
                    let poisoned = value.is_nan() || cell.periodic[1];
                    assert_eq!(f[victim].y.is_nan(), poisoned, "{what}");
                    let k = BATCH + 10;
                    let rows_seen = assert_pair_listed_is_ranged(
                        &what,
                        &ff,
                        &ex,
                        split_at(built_from, k),
                        split_at(g, k),
                        &cell,
                        14.5,
                        &[0..k],
                    );
                    assert_eq!(rows_seen.iter().sum::<usize>(), k * (n - k), "{what}");
                }
            }
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
