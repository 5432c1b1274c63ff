//! Cluster-pair nonbonded kernels with dual-list dynamic pruning support.
//!
//! **Nothing in the engine calls this module.** The listed kernels won every
//! deck by 1.4–2.4× end to end (DESIGN.md §3.8), so `namd_core::nbcache`
//! keeps one list format and the kernel choice is gone. The module is held
//! only because `benchmark/src/md_ledger.rs` replays it to report
//! `mdcore.nb_cluster_x4_ns_per_pair` and
//! `mdcore.cluster_refresh_prune_ms_per_eval` (and `crates/bench` times it);
//! it goes when a `benchmark/`-only change drops that replay (ROADMAP item 1).
//!
//! This module implements the GROMACS exascale scheme (Páll et al.): atoms
//! are packed into fixed-size clusters of [`CLUSTER`] = 4 consecutive slots,
//! neighbour search produces i-cluster × j-cluster pairs instead of atom
//! pairs, and the force kernels walk the 4×4 lane block of every cluster
//! pair with branch-light arithmetic that the compiler can vectorize
//! (`f64x4`-shaped with `SimdWidth::X4`).
//!
//! **Packing is identity packing**: cluster `c` covers atom slots
//! `[4c, min(4c+4, n))` with *no* spatial reordering. A permutation would
//! give tighter bounding spheres but change floating-point accumulation
//! order, destroying the bit-compatibility guarantee below. Patch-local slot
//! order is already spatially coherent for generated systems (molecules are
//! laid out consecutively by the builders), so identity clusters still prune
//! well.
//!
//! **Bit-compatibility.** The [`SimdWidth::Scalar`] kernels visit exactly the
//! within-cutoff, non-excluded pairs in the same order as
//! [`crate::nonbonded::nb_self_listed`]/[`crate::nonbonded::nb_pair_listed`]
//! (outer index ascending, inner ascending, per-atom `fi` accumulator flushed
//! once), using the same `eval_pair` arithmetic — so energies and forces
//! are bit-identical to the listed kernels whenever the cluster list covers
//! every within-cutoff pair (the margin guarantee). The only theoretical
//! exception is the `-0.0 + 0.0` normalisation edge for an atom whose force
//! is exactly negative zero and whose candidates are all excluded — the same
//! measure-zero edge the listed-vs-ranged pairing already accepts.
//!
//! **Exclusion masks.** Each [`ClusterPair`] carries a precomputed 16-bit
//! lane mask (`mask`) and 1-4 scaling mask (`s14`) built once per outer-list
//! rebuild, so the per-step kernels never do exclusion binary searches —
//! that lookup was a large share of the listed kernels' per-pair cost.
//!
//! **Conservative bounds.** Every cluster gets a bounding sphere (center =
//! anchor atom plus mean minimum-image displacement, radius = max torus
//! distance to the center). Because the torus metric satisfies the triangle
//! inequality, `d(i, j) ≥ d(c_i, c_j) − r_i − r_j` for any atoms `i ∈ C_i`,
//! `j ∈ C_j`, so dropping a cluster pair when
//! `d(c_i, c_j) ≥ R + r_i + r_j` can never drop a pair inside radius `R`.
//! The same test with `R = cutoff` and *current* positions is the per-step
//! prune pass ([`prune_into`]).

use crate::forcefield::{units, ForceField};
use crate::nonbonded::{eval_pair, AtomGroup, NbResult};
use crate::pbc::{image_shift, Cell};
use crate::topology::{ExclusionKind, Exclusions};
use crate::vec3::Vec3;
use std::ops::Range;

/// Atoms per cluster. Fixed at 4: the X4 kernel maps one cluster row onto
/// one `f64x4` vector.
pub const CLUSTER: usize = 4;

/// Kernel precision/width selector for the cluster kernels.
///
/// * `Scalar` — bit-identical to the listed kernels (reference path).
/// * `X4` — double-precision lanes, branchless selects, hoisted reciprocals
///   in the switching/shifting functions; ≤ 1e-12 relative deviation from
///   `Scalar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdWidth {
    /// Bit-identical scalar lane walk.
    #[default]
    Scalar,
    /// `f64x4`-shaped lanes.
    X4,
}

impl SimdWidth {
    /// Short name, as the criterion bench ids spell it.
    pub fn as_str(&self) -> &'static str {
        match self {
            SimdWidth::Scalar => "scalar",
            SimdWidth::X4 => "x4",
        }
    }
}

/// One i-cluster × j-cluster block of the cluster pair list.
///
/// Lane `(ii, jj)` (bit `ii*CLUSTER + jj`) couples atom slot
/// `ci*CLUSTER + ii` to slot `cj*CLUSTER + jj`. A set `mask` bit means the
/// lane is live: both slots are real atoms, the i slot lies in the compute's
/// outer range, `j > i` on the self diagonal, and the pair is not fully
/// excluded. A set `s14` bit (always a subset of `mask`) means the pair is a
/// 1-4 neighbour evaluated at `scale14`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterPair {
    /// i-side cluster index.
    pub ci: u32,
    /// j-side cluster index.
    pub cj: u32,
    /// Live-lane bitmask (see type docs).
    pub mask: u16,
    /// 1-4 scaled lanes, subset of `mask`.
    pub s14: u16,
}

/// Per-group cluster geometry: bounding spheres plus padded SoA mirrors of
/// the atom data so lane kernels can load `CLUSTER` lanes unconditionally.
/// Pad lanes repeat the cluster's last real atom (finite arithmetic, masked
/// out of every accumulation). Refresh with [`ClusterGrid::refresh`] each
/// step — O(n) — before building, pruning, or running lane kernels.
#[derive(Debug, Default, Clone)]
pub struct ClusterGrid {
    n: usize,
    /// Bounding-sphere centers, one per cluster.
    centers: Vec<Vec3>,
    /// Bounding-sphere radii, one per cluster.
    radii: Vec<f64>,
    /// Max per-axis deviation of *raw* (unwrapped) lane coordinates from the
    /// center. Equals `radii` for compact clusters but grows to ~box length
    /// for clusters straddling a wrap seam, where the sphere is tight in
    /// min-image space but raw coordinates are not. The per-block image
    /// shift gate must use this bound, not the min-image radius.
    raw_radii: Vec<f64>,
    // Padded f64 SoA mirrors, length n_clusters()*CLUSTER.
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
    q: Vec<f64>,
    lj: Vec<u16>,
}

impl ClusterGrid {
    /// Empty grid; call [`refresh`](Self::refresh) before use.
    pub fn new() -> ClusterGrid {
        ClusterGrid::default()
    }

    /// Number of clusters covering the group.
    pub fn n_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Number of atoms covered at the last refresh.
    pub fn n_atoms(&self) -> usize {
        self.n
    }

    /// Bounding-sphere radius of cluster `c`.
    pub fn radius(&self, c: usize) -> f64 {
        self.radii[c]
    }

    /// Bounding-sphere center of cluster `c`.
    pub fn center(&self, c: usize) -> Vec3 {
        self.centers[c]
    }

    /// Recompute bounding spheres and SoA mirrors from current positions.
    /// Every kernel width reads the same f64 mirrors.
    pub fn refresh(&mut self, g: AtomGroup, cell: &Cell, _width: SimdWidth) {
        let n = g.len();
        let pos = g.positions();
        let charge = g.charges();
        let lj = g.lj_types();
        self.n = n;
        let nc = n.div_ceil(CLUSTER);
        self.centers.clear();
        self.radii.clear();
        self.raw_radii.clear();
        self.centers.reserve(nc);
        self.radii.reserve(nc);
        self.raw_radii.reserve(nc);
        let np = nc * CLUSTER;
        self.px.resize(np, 0.0);
        self.py.resize(np, 0.0);
        self.pz.resize(np, 0.0);
        self.q.resize(np, 0.0);
        self.lj.resize(np, 0);
        for c in 0..nc {
            let base = c * CLUSTER;
            let cnt = CLUSTER.min(n - base);
            // Center: anchor atom plus the mean minimum-image displacement of
            // the cluster's atoms from the anchor. Using displacements (not
            // raw coordinates) keeps boundary-straddling clusters tight.
            let anchor = pos[base];
            let mut mean = Vec3::ZERO;
            for k in 1..cnt {
                mean += cell.min_image(pos[base + k], anchor);
            }
            let center = anchor + mean * (1.0 / cnt as f64);
            let mut r2max = 0.0f64;
            let mut raw = 0.0f64;
            for k in 0..cnt {
                let p = pos[base + k];
                r2max = r2max.max(cell.dist2(p, center));
                let d = p - center;
                raw = raw.max(d.x.abs()).max(d.y.abs()).max(d.z.abs());
            }
            self.centers.push(center);
            self.radii.push(r2max.sqrt());
            self.raw_radii.push(raw);
            for k in 0..CLUSTER {
                let src = base + k.min(cnt - 1);
                self.px[base + k] = pos[src].x;
                self.py[base + k] = pos[src].y;
                self.pz[base + k] = pos[src].z;
                self.q[base + k] = charge[src];
                self.lj[base + k] = lj[src];
            }
        }
    }
}

/// Build the lane masks for one (ci, cj) block of a self compute. Lanes
/// beyond `r2max` (the squared outer-list radius, cutoff + margin) at build
/// time are masked out — the standard Verlet-list safety argument bounds
/// how far a pair can drift before the displacement trigger forces a
/// rebuild, exactly as for the listed kernel's candidate list. Without this
/// filter nearly every lane of a sphere-passing block stays live and the
/// lane kernels drown in dead work. The cheap distance test also runs
/// before the exclusion lookup so far lanes skip the binary search.
fn self_masks(
    g: AtomGroup,
    ex: &Exclusions,
    cell: &Cell,
    r2max: f64,
    outer: &Range<usize>,
    ci: usize,
    cj: usize,
) -> (u16, u16) {
    let n = g.len();
    let ids = g.atom_ids();
    let pos = g.positions();
    let mut mask = 0u16;
    let mut s14 = 0u16;
    for ii in 0..CLUSTER {
        let i = ci * CLUSTER + ii;
        if i >= n || !outer.contains(&i) {
            continue;
        }
        for jj in 0..CLUSTER {
            let j = cj * CLUSTER + jj;
            if j >= n || (ci == cj && j <= i) {
                continue;
            }
            if cell.dist2(pos[i], pos[j]) >= r2max {
                continue;
            }
            let bit = 1u16 << (ii * CLUSTER + jj);
            match ex.kind(ids[i], ids[j]) {
                ExclusionKind::Full => {}
                ExclusionKind::Scaled14 => {
                    mask |= bit;
                    s14 |= bit;
                }
                ExclusionKind::None => mask |= bit,
            }
        }
    }
    (mask, s14)
}

/// Build the lane masks for one (ci, cj) block of a pair compute; lanes are
/// distance-filtered at build exactly as in [`self_masks`].
#[allow(clippy::too_many_arguments)]
fn pair_masks(
    a: AtomGroup,
    b: AtomGroup,
    ex: &Exclusions,
    cell: &Cell,
    r2max: f64,
    outer: &Range<usize>,
    ci: usize,
    cj: usize,
) -> (u16, u16) {
    let ids_a = a.atom_ids();
    let ids_b = b.atom_ids();
    let pos_a = a.positions();
    let pos_b = b.positions();
    let mut mask = 0u16;
    let mut s14 = 0u16;
    for ii in 0..CLUSTER {
        let i = ci * CLUSTER + ii;
        if i >= a.len() || !outer.contains(&i) {
            continue;
        }
        for jj in 0..CLUSTER {
            let j = cj * CLUSTER + jj;
            if j >= b.len() {
                continue;
            }
            if cell.dist2(pos_a[i], pos_b[j]) >= r2max {
                continue;
            }
            let bit = 1u16 << (ii * CLUSTER + jj);
            match ex.kind(ids_a[i], ids_b[j]) {
                ExclusionKind::Full => {}
                ExclusionKind::Scaled14 => {
                    mask |= bit;
                    s14 |= bit;
                }
                ExclusionKind::None => mask |= bit,
            }
        }
    }
    (mask, s14)
}

/// Build the outer cluster-pair list for a *self* compute: every (ci, cj)
/// block, `ci ≤ cj`, whose bounding spheres approach within `radius`
/// (normally cutoff + margin), with the i-side restricted to `outer`.
/// Blocks whose lane mask is empty are dropped. Emitted in ascending
/// (ci, cj) order so each ci's blocks are contiguous — the kernels and the
/// listed-kernel bit-identity guarantee rely on this. `grid` must be fresh.
pub fn self_cluster_pairs_into(
    g: AtomGroup,
    grid: &ClusterGrid,
    ex: &Exclusions,
    cell: &Cell,
    outer: Range<usize>,
    radius: f64,
    out: &mut Vec<ClusterPair>,
) {
    out.clear();
    if outer.is_empty() || g.is_empty() {
        return;
    }
    let nc = grid.n_clusters();
    let r2max = radius * radius;
    let c_lo = outer.start / CLUSTER;
    let c_hi = (outer.end - 1) / CLUSTER;
    for ci in c_lo..=c_hi.min(nc - 1) {
        let ri = grid.radii[ci];
        let pi = grid.centers[ci];
        for cj in ci..nc {
            if cj > ci {
                let rr = radius + ri + grid.radii[cj];
                if cell.dist2(pi, grid.centers[cj]) >= rr * rr {
                    continue;
                }
            }
            let (mask, s14) = self_masks(g, ex, cell, r2max, &outer, ci, cj);
            if mask != 0 {
                out.push(ClusterPair { ci: ci as u32, cj: cj as u32, mask, s14 });
            }
        }
    }
}

/// Build the outer cluster-pair list for a *pair* compute (cross blocks
/// between groups `a` and `b`); see [`self_cluster_pairs_into`].
#[allow(clippy::too_many_arguments)]
pub fn pair_cluster_pairs_into(
    a: AtomGroup,
    ga: &ClusterGrid,
    b: AtomGroup,
    gb: &ClusterGrid,
    ex: &Exclusions,
    cell: &Cell,
    outer: Range<usize>,
    radius: f64,
    out: &mut Vec<ClusterPair>,
) {
    out.clear();
    if outer.is_empty() || a.is_empty() || b.is_empty() {
        return;
    }
    let r2max = radius * radius;
    let c_lo = outer.start / CLUSTER;
    let c_hi = (outer.end - 1) / CLUSTER;
    for ci in c_lo..=c_hi.min(ga.n_clusters() - 1) {
        let ri = ga.radii[ci];
        let pi = ga.centers[ci];
        for cj in 0..gb.n_clusters() {
            let rr = radius + ri + gb.radii[cj];
            if cell.dist2(pi, gb.centers[cj]) >= rr * rr {
                continue;
            }
            let (mask, s14) = pair_masks(a, b, ex, cell, r2max, &outer, ci, cj);
            if mask != 0 {
                out.push(ClusterPair { ci: ci as u32, cj: cj as u32, mask, s14 });
            }
        }
    }
}

/// Per-step prune pass: keep outer-list entry `k` in `inner` when the
/// bounding spheres (at *current* positions — refresh the grids first)
/// approach within `cutoff`. Conservative for the same triangle-inequality
/// reason as the build test, so pruning never drops a within-cutoff pair.
/// For a self compute pass the same grid twice. Preserves order, so the
/// inner list keeps blocks grouped by ascending ci.
pub fn prune_into(
    pairs: &[ClusterPair],
    gi: &ClusterGrid,
    gj: &ClusterGrid,
    cell: &Cell,
    cutoff: f64,
    inner: &mut Vec<u32>,
) {
    inner.clear();
    for (k, p) in pairs.iter().enumerate() {
        let ci = p.ci as usize;
        let cj = p.cj as usize;
        let rr = cutoff + gi.radii[ci] + gj.radii[cj];
        if cell.dist2(gi.centers[ci], gj.centers[cj]) < rr * rr {
            inner.push(k as u32);
        }
    }
}

/// Self-compute cluster kernel over a pruned inner list. Dispatches on
/// `width`; the `Scalar` path is bit-identical to
/// [`crate::nonbonded::nb_self_listed`] (see module docs). `grid` must be
/// refreshed at current positions (the lane kernels read its SoA mirrors).
#[allow(clippy::too_many_arguments)]
pub fn nb_self_clusters(
    ff: &ForceField,
    g: AtomGroup,
    cell: &Cell,
    grid: &ClusterGrid,
    pairs: &[ClusterPair],
    inner: &[u32],
    width: SimdWidth,
    forces: &mut [Vec3],
) -> NbResult {
    assert_eq!(forces.len(), g.len(), "forces buffer must match group size");
    match width {
        SimdWidth::Scalar => self_clusters_scalar(ff, g, cell, pairs, inner, forces),
        SimdWidth::X4 => {
            clusters_x4(ff, g.len(), cell, grid, grid, pairs, inner, SelfOrPair::SelfNb(forces))
        }
    }
}

/// Pair-compute cluster kernel over a pruned inner list; `Scalar` is
/// bit-identical to [`crate::nonbonded::nb_pair_listed`]. Both grids must be
/// refreshed at current positions.
#[allow(clippy::too_many_arguments)]
pub fn nb_pair_clusters(
    ff: &ForceField,
    a: AtomGroup,
    b: AtomGroup,
    cell: &Cell,
    ga: &ClusterGrid,
    gb: &ClusterGrid,
    pairs: &[ClusterPair],
    inner: &[u32],
    width: SimdWidth,
    fa: &mut [Vec3],
    fb: &mut [Vec3],
) -> NbResult {
    assert_eq!(fa.len(), a.len(), "fa buffer must match group a");
    assert_eq!(fb.len(), b.len(), "fb buffer must match group b");
    match width {
        SimdWidth::Scalar => pair_clusters_scalar(ff, a, b, cell, pairs, inner, fa, fb),
        SimdWidth::X4 => {
            clusters_x4(ff, a.len(), cell, ga, gb, pairs, inner, SelfOrPair::PairNb(fa, fb))
        }
    }
}

/// Scalar (bit-identical) self kernel: group the inner list by ci, and for
/// each live i lane replay the listed kernel's walk — masked lanes in
/// ascending j order, same `min_image`/`eval_pair` arithmetic, one `fi`
/// flush per i.
fn self_clusters_scalar(
    ff: &ForceField,
    g: AtomGroup,
    cell: &Cell,
    pairs: &[ClusterPair],
    inner: &[u32],
    forces: &mut [Vec3],
) -> NbResult {
    let pos = g.positions();
    let charge = g.charges();
    let lj_t = g.lj_types();
    let cutoff2 = ff.cutoff2();
    let mut res = NbResult::default();
    let mut k = 0;
    while k < inner.len() {
        let ci = pairs[inner[k] as usize].ci;
        let mut end = k;
        while end < inner.len() && pairs[inner[end] as usize].ci == ci {
            end += 1;
        }
        let i0 = ci as usize * CLUSTER;
        // One pass over the group's blocks gives per-row occupancy for all
        // four rows at once (pad rows and out-of-range rows have no bits).
        let mut union_mask = 0u16;
        for &pk in &inner[k..end] {
            union_mask |= pairs[pk as usize].mask;
        }
        for ii in 0..CLUSTER {
            let row_shift = ii * CLUSTER;
            if (union_mask >> row_shift) & 0xF == 0 {
                continue;
            }
            let i = i0 + ii;
            let pi = pos[i];
            let qi = charge[i];
            let ti = lj_t[i];
            let mut fi = Vec3::ZERO;
            for &pk in &inner[k..end] {
                let p = pairs[pk as usize];
                let bits = (p.mask >> row_shift) & 0xF;
                if bits == 0 {
                    continue;
                }
                let s14 = (p.s14 >> row_shift) & 0xF;
                let j0 = p.cj as usize * CLUSTER;
                // Bit-clearing loop visits lanes in the same ascending-j
                // order as a 0..CLUSTER scan — bit-identity preserved.
                let mut m = bits;
                while m != 0 {
                    let jj = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let j = j0 + jj;
                    let d = cell.min_image(pi, pos[j]);
                    let r2 = d.norm2();
                    if r2 >= cutoff2 {
                        continue;
                    }
                    let scale = if s14 & (1 << jj) != 0 { ff.scale14 } else { 1.0 };
                    let lj = ff.lj(ti, lj_t[j]);
                    let (e_lj, e_el, fr) = eval_pair(ff, lj.a, lj.b, qi * charge[j], r2, scale);
                    res.e_lj += e_lj;
                    res.e_elec += e_el;
                    res.pairs += 1;
                    let f = d * fr;
                    fi += f;
                    forces[j] -= f;
                }
            }
            forces[i] += fi;
        }
        k = end;
    }
    res
}

/// Scalar (bit-identical) pair kernel; see [`self_clusters_scalar`].
#[allow(clippy::too_many_arguments)]
fn pair_clusters_scalar(
    ff: &ForceField,
    a: AtomGroup,
    b: AtomGroup,
    cell: &Cell,
    pairs: &[ClusterPair],
    inner: &[u32],
    fa: &mut [Vec3],
    fb: &mut [Vec3],
) -> NbResult {
    let pos_a = a.positions();
    let q_a = a.charges();
    let lj_a = a.lj_types();
    let pos_b = b.positions();
    let q_b = b.charges();
    let lj_b = b.lj_types();
    let cutoff2 = ff.cutoff2();
    let mut res = NbResult::default();
    let mut k = 0;
    while k < inner.len() {
        let ci = pairs[inner[k] as usize].ci;
        let mut end = k;
        while end < inner.len() && pairs[inner[end] as usize].ci == ci {
            end += 1;
        }
        let i0 = ci as usize * CLUSTER;
        let mut union_mask = 0u16;
        for &pk in &inner[k..end] {
            union_mask |= pairs[pk as usize].mask;
        }
        for ii in 0..CLUSTER {
            let row_shift = ii * CLUSTER;
            if (union_mask >> row_shift) & 0xF == 0 {
                continue;
            }
            let i = i0 + ii;
            let pi = pos_a[i];
            let qi = q_a[i];
            let ti = lj_a[i];
            let mut fi = Vec3::ZERO;
            for &pk in &inner[k..end] {
                let p = pairs[pk as usize];
                let bits = (p.mask >> row_shift) & 0xF;
                if bits == 0 {
                    continue;
                }
                let s14 = (p.s14 >> row_shift) & 0xF;
                let j0 = p.cj as usize * CLUSTER;
                let mut m = bits;
                while m != 0 {
                    let jj = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let j = j0 + jj;
                    let d = cell.min_image(pi, pos_b[j]);
                    let r2 = d.norm2();
                    if r2 >= cutoff2 {
                        continue;
                    }
                    let scale = if s14 & (1 << jj) != 0 { ff.scale14 } else { 1.0 };
                    let lj = ff.lj(ti, lj_b[j]);
                    let (e_lj, e_el, fr) = eval_pair(ff, lj.a, lj.b, qi * q_b[j], r2, scale);
                    res.e_lj += e_lj;
                    res.e_elec += e_el;
                    res.pairs += 1;
                    let f = d * fr;
                    fi += f;
                    fb[j] -= f;
                }
            }
            fa[i] += fi;
        }
        k = end;
    }
    res
}

/// Force-output routing for the shared lane-kernel bodies.
enum SelfOrPair<'a> {
    SelfNb(&'a mut [Vec3]),
    PairNb(&'a mut [Vec3], &'a mut [Vec3]),
}

/// Precomputed per-call constants for the lane kernels (reciprocals hoisted
/// so the inner loop multiplies instead of divides).
struct LaneConsts {
    cutoff2: f64,
    rc2: f64,
    rs2: f64,
    inv_denom: f64,
    inv_rc2: f64,
    scale14: f64,
    beta: Option<f64>,
    lens: [f64; 3],
    periodic: [bool; 3],
}

impl LaneConsts {
    fn new(ff: &ForceField, cell: &Cell) -> LaneConsts {
        let rc2 = ff.cutoff * ff.cutoff;
        let rs2 = ff.switch_dist * ff.switch_dist;
        LaneConsts {
            cutoff2: ff.cutoff2(),
            rc2,
            rs2,
            inv_denom: 1.0 / (rc2 - rs2).powi(3),
            inv_rc2: 1.0 / rc2,
            scale14: ff.scale14,
            beta: ff.ewald_beta,
            lens: [cell.lengths.x, cell.lengths.y, cell.lengths.z],
            periodic: cell.periodic,
        }
    }
}

/// Evaluate one i-row against one j-cluster in f64 lanes. Returns the force
/// on the i atom from the 4 lanes; subtracts lane forces into `fj*`.
/// The geometry phase is straight-line across all 4 lanes on interior blocks
/// (one hoisted shift) and calls `pbc::image_shift` per lane on the rest;
/// the expensive phase (divide, sqrt, erfc) runs only on live lanes —
/// typical occupancy is ~3 live lanes per 16-lane block, so skipping dead
/// lanes there is what makes the cluster kernel competitive.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn x4_row(
    kc: &LaneConsts,
    ff: &ForceField,
    xi: f64,
    yi: f64,
    zi: f64,
    qi: f64,
    ti: u16,
    xj: &[f64; CLUSTER],
    yj: &[f64; CLUSTER],
    zj: &[f64; CLUSTER],
    qj: &[f64; CLUSTER],
    tj: &[u16; CLUSTER],
    bits: u16,
    s14: u16,
    shift: &[f64; 3],
    interior: bool,
    res: &mut NbResult,
    fj: &mut [Vec3],
    j0: usize,
) -> (f64, f64, f64, u16) {
    let mut dx = [0.0f64; CLUSTER];
    let mut dy = [0.0f64; CLUSTER];
    let mut dz = [0.0f64; CLUSTER];
    if interior {
        // Interior block: every lane shares the block's periodic image, so
        // the per-lane minimum image collapses to one subtraction of the
        // block's precomputed lattice shift. Bit-identical to the per-lane
        // path: both compute `(xi - xj) - L·k` with the same `L·k` and the
        // same lane `k` (the interior test guarantees no lane straddles a
        // half-box boundary).
        for l in 0..CLUSTER {
            dx[l] = (xi - xj[l]) - shift[0];
            dy[l] = (yi - yj[l]) - shift[1];
            dz[l] = (zi - zj[l]) - shift[2];
        }
    } else {
        for l in 0..CLUSTER {
            dx[l] = xi - xj[l];
            dy[l] = yi - yj[l];
            dz[l] = zi - zj[l];
        }
        for (d, ax) in [&mut dx, &mut dy, &mut dz].into_iter().zip(0..3) {
            if kc.periodic[ax] {
                for c in d.iter_mut() {
                    *c -= image_shift(*c, kc.lens[ax]);
                }
            }
        }
    }
    let mut r2 = [0.0f64; CLUSTER];
    for l in 0..CLUSTER {
        r2[l] = dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l];
    }
    // Live = masked-in AND within cutoff. Dead lanes contributed an exact
    // 0.0 under the old weight-multiply scheme, so skipping them is
    // value-preserving for every live lane.
    let mut live = 0u16;
    for l in 0..CLUSTER {
        live |= (((bits >> l) & 1 == 1 && r2[l] < kc.cutoff2) as u16) << l;
    }
    let mut fix = 0.0;
    let mut fiy = 0.0;
    let mut fiz = 0.0;
    // Iterate live lanes with a bit-clearing loop: one well-predicted branch
    // per live lane instead of four data-dependent ones (live bits are
    // effectively random, so per-lane `if` tests mispredict constantly).
    // `trailing_zeros` walks lanes in ascending order, preserving the
    // accumulation order of the previous per-lane loop exactly.
    let mut m = live;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        let lj = ff.lj(ti, tj[l]);
        let scale = if (s14 >> l) & 1 == 1 { kc.scale14 } else { 1.0 };
        let r2l = r2[l];
        let inv_r2 = 1.0 / r2l;
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        let inv_r12 = inv_r6 * inv_r6;
        let e_lj_raw = lj.a * inv_r12 - lj.b * inv_r6;
        let de_lj_dr2 = (-6.0 * lj.a * inv_r12 + 3.0 * lj.b * inv_r6) * inv_r2;
        // CHARMM switching (live lanes are always < rc2).
        let u = kc.rc2 - r2l;
        let in_sw = r2l > kc.rs2 && r2l < kc.rc2;
        let sw = if r2l <= kc.rs2 {
            1.0
        } else if in_sw {
            u * u * (kc.rc2 + 2.0 * r2l - 3.0 * kc.rs2) * kc.inv_denom
        } else {
            0.0
        };
        let dsw = if in_sw { -6.0 * u * (r2l - kc.rs2) * kc.inv_denom } else { 0.0 };
        let e_lj = scale * sw * e_lj_raw;
        let de_lj = scale * (dsw * e_lj_raw + sw * de_lj_dr2);
        let inv_r = inv_r2.sqrt();
        let (e_el, de_el) = match kc.beta {
            None => {
                let e_c_raw = units::COULOMB * qi * qj[l] * inv_r;
                let de_c_dr2 = -0.5 * e_c_raw * inv_r2;
                let ush = 1.0 - r2l * kc.inv_rc2;
                let inside = r2l < kc.rc2;
                let sh = if inside { ush * ush } else { 0.0 };
                let dsh = if inside { -2.0 * ush * kc.inv_rc2 } else { 0.0 };
                (scale * sh * e_c_raw, scale * (dsh * e_c_raw + sh * de_c_dr2))
            }
            Some(beta) => {
                let r = r2l.sqrt();
                let c = units::COULOMB * qi * qj[l];
                let erfc_br = crate::erf::erfc(beta * r);
                let e = c * erfc_br * inv_r;
                let de_dr = -c
                    * (erfc_br * inv_r2
                        + beta
                            * crate::erf::TWO_OVER_SQRT_PI
                            * (-beta * beta * r2l).exp()
                            * inv_r);
                (e, de_dr / (2.0 * r))
            }
        };
        res.e_lj += e_lj;
        res.e_elec += e_el;
        res.pairs += 1;
        let fr = -2.0 * (de_lj + de_el);
        let fx = dx[l] * fr;
        let fy = dy[l] * fr;
        let fz = dz[l] * fr;
        fix += fx;
        fiy += fy;
        fiz += fz;
        fj[j0 + l] -= Vec3::new(fx, fy, fz);
    }
    (fix, fiy, fiz, live)
}

/// f64-lane kernel body shared by self and pair computes. The i side reads
/// the grid's padded mirrors (exact copies of the positions) and the
/// minimum image is the scalar path's, so only the hoisted reciprocals and
/// the lane summation order differ from it — ≤ 1e-12 relative.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn clusters_x4(
    ff: &ForceField,
    n_i: usize,
    cell: &Cell,
    gi: &ClusterGrid,
    gj: &ClusterGrid,
    pairs: &[ClusterPair],
    inner: &[u32],
    mut out: SelfOrPair<'_>,
) -> NbResult {
    let kc = LaneConsts::new(ff, cell);

    let mut res = NbResult::default();
    let mut k = 0;
    while k < inner.len() {
        let ci = pairs[inner[k] as usize].ci;
        let mut end = k;
        while end < inner.len() && pairs[inner[end] as usize].ci == ci {
            end += 1;
        }
        let i0 = ci as usize * CLUSTER;
        let ca = gi.centers[ci as usize];
        let ra = gi.raw_radii[ci as usize];
        let mut fi = [[0.0f64; CLUSTER]; 3];
        let mut row_any = [false; CLUSTER];
        for &pk in &inner[k..end] {
            let p = pairs[pk as usize];
            let j0 = p.cj as usize * CLUSTER;
            // Per-block periodic image: if every lane of this 4x4 block is
            // provably on the same image as the cluster centers (no lane can
            // reach a half-box boundary), hoist the minimum image out of the
            // rows into one shift per block.
            let cb = gj.centers[p.cj as usize];
            let rr = ra + gj.raw_radii[p.cj as usize];
            let dc = [ca.x - cb.x, ca.y - cb.y, ca.z - cb.z];
            let mut shift = [0.0f64; 3];
            let mut interior = true;
            for ax in 0..3 {
                if kc.periodic[ax] {
                    shift[ax] = image_shift(dc[ax], kc.lens[ax]);
                    interior &= (dc[ax] - shift[ax]).abs() + rr < 0.5 * kc.lens[ax];
                }
            }
            let xj: [f64; CLUSTER] = gj.px[j0..j0 + CLUSTER].try_into().unwrap();
            let yj: [f64; CLUSTER] = gj.py[j0..j0 + CLUSTER].try_into().unwrap();
            let zj: [f64; CLUSTER] = gj.pz[j0..j0 + CLUSTER].try_into().unwrap();
            let qj: [f64; CLUSTER] = gj.q[j0..j0 + CLUSTER].try_into().unwrap();
            let tj: [u16; CLUSTER] = gj.lj[j0..j0 + CLUSTER].try_into().unwrap();
            let fj_out: &mut [Vec3] = match &mut out {
                SelfOrPair::SelfNb(f) => f,
                SelfOrPair::PairNb(_, fb) => fb,
            };
            for ii in 0..CLUSTER {
                let bits = (p.mask >> (ii * CLUSTER)) & 0xF;
                if bits == 0 {
                    continue;
                }
                let i = i0 + ii;
                let (fx, fy, fz, live) = x4_row(
                    &kc,
                    ff,
                    gi.px[i],
                    gi.py[i],
                    gi.pz[i],
                    gi.q[i],
                    gi.lj[i],
                    &xj,
                    &yj,
                    &zj,
                    &qj,
                    &tj,
                    bits,
                    (p.s14 >> (ii * CLUSTER)) & 0xF,
                    &shift,
                    interior,
                    &mut res,
                    fj_out,
                    j0,
                );
                if live == 0 {
                    continue;
                }
                row_any[ii] = true;
                fi[0][ii] += fx;
                fi[1][ii] += fy;
                fi[2][ii] += fz;
            }
        }
        let fi_out: &mut [Vec3] = match &mut out {
            SelfOrPair::SelfNb(f) => f,
            SelfOrPair::PairNb(fa, _) => fa,
        };
        for ii in 0..CLUSTER {
            if row_any[ii] && i0 + ii < n_i {
                fi_out[i0 + ii] += Vec3::new(fi[0][ii], fi[1][ii], fi[2][ii]);
            }
        }
        k = end;
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonbonded::{
        nb_pair_ranged, nb_self_listed, nb_self_ranged, self_candidates_into,
    };
    use crate::topology::{Atom, AtomId, Bond, Topology};

    /// Deterministic scatter (same recipe as the nonbonded tests).
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
        let lj: Vec<u16> = (0..n).map(|i| (i % 3) as u16).collect();
        let q: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.3 } else { -0.3 }).collect();
        (pos, ids, lj, q)
    }

    /// Bonded chain topology over every 5 consecutive atoms → Full and 1-4
    /// exclusions to exercise the mask construction.
    fn chained_exclusions(n: usize, q: &[f64], lj: &[u16]) -> Exclusions {
        let mut topo = Topology::default();
        for i in 0..n {
            topo.atoms.push(Atom { mass: 12.0, charge: q[i], lj_type: lj[i] });
        }
        for i in 0..n - 1 {
            if i % 5 != 4 {
                topo.bonds.push(Bond { a: i as u32, b: i as u32 + 1, k: 300.0, r0: 1.5 });
            }
        }
        Exclusions::from_topology(&topo)
    }

    fn build_self(
        g: AtomGroup,
        ex: &Exclusions,
        cell: &Cell,
        outer: Range<usize>,
        radius: f64,
        width: SimdWidth,
    ) -> (ClusterGrid, Vec<ClusterPair>, Vec<u32>) {
        let mut grid = ClusterGrid::new();
        grid.refresh(g, cell, width);
        let mut pairs = Vec::new();
        self_cluster_pairs_into(g, &grid, ex, cell, outer, radius, &mut pairs);
        let inner: Vec<u32> = (0..pairs.len() as u32).collect();
        (grid, pairs, inner)
    }

    #[test]
    fn scalar_self_kernel_is_bit_identical_to_ranged() {
        for ff in [
            ForceField::biomolecular(12.0),
            ForceField::biomolecular(12.0).with_ewald(0.32),
        ] {
            let cell = Cell::cube(26.0);
            let n = 43; // deliberately not a multiple of CLUSTER
            let (pos, ids, lj, q) = scatter(n, 26.0);
            let ex = chained_exclusions(n, &q, &lj);
            let g = AtomGroup::new(&pos, &ids, &lj, &q);
            for margin in [0.0, 2.0] {
                let (grid, pairs, inner) =
                    build_self(g, &ex, &cell, 0..n, ff.cutoff + margin, SimdWidth::Scalar);
                let mut f_ranged = vec![Vec3::ZERO; n];
                let r_ranged = nb_self_ranged(&ff, &ex, g, &cell, 0..n, &mut f_ranged);
                let mut f_cl = vec![Vec3::ZERO; n];
                let r_cl = nb_self_clusters(
                    &ff, g, &cell, &grid, &pairs, &inner, SimdWidth::Scalar, &mut f_cl,
                );
                assert_eq!(r_cl.pairs, r_ranged.pairs, "margin {margin}");
                assert_eq!(r_cl.e_lj.to_bits(), r_ranged.e_lj.to_bits(), "margin {margin}");
                assert_eq!(r_cl.e_elec.to_bits(), r_ranged.e_elec.to_bits());
                for i in 0..n {
                    assert_eq!(f_cl[i], f_ranged[i], "atom {i}, margin {margin}");
                }
            }
        }
    }

    #[test]
    fn scalar_pair_kernel_is_bit_identical_to_ranged() {
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(26.0);
        let n = 38;
        let (pos, ids, lj, q) = scatter(n, 26.0);
        let ex = chained_exclusions(n, &q, &lj);
        let k = 17; // group split off a cluster boundary
        let ga = AtomGroup::new(&pos[..k], &ids[..k], &lj[..k], &q[..k]);
        let gb = AtomGroup::new(&pos[k..], &ids[k..], &lj[k..], &q[k..]);
        let mut grid_a = ClusterGrid::new();
        let mut grid_b = ClusterGrid::new();
        grid_a.refresh(ga, &cell, SimdWidth::Scalar);
        grid_b.refresh(gb, &cell, SimdWidth::Scalar);
        let mut pairs = Vec::new();
        pair_cluster_pairs_into(
            ga, &grid_a, gb, &grid_b, &ex, &cell, 0..k, ff.cutoff + 2.0, &mut pairs,
        );
        let inner: Vec<u32> = (0..pairs.len() as u32).collect();

        let mut fa_r = vec![Vec3::ZERO; k];
        let mut fb_r = vec![Vec3::ZERO; n - k];
        let r_ranged = nb_pair_ranged(&ff, &ex, ga, gb, &cell, 0..k, &mut fa_r, &mut fb_r);
        let mut fa_c = vec![Vec3::ZERO; k];
        let mut fb_c = vec![Vec3::ZERO; n - k];
        let r_cl = nb_pair_clusters(
            &ff, ga, gb, &cell, &grid_a, &grid_b, &pairs, &inner, SimdWidth::Scalar,
            &mut fa_c, &mut fb_c,
        );
        assert_eq!(r_cl.pairs, r_ranged.pairs);
        assert_eq!(r_cl.e_lj.to_bits(), r_ranged.e_lj.to_bits());
        assert_eq!(r_cl.e_elec.to_bits(), r_ranged.e_elec.to_bits());
        for i in 0..k {
            assert_eq!(fa_c[i], fa_r[i], "group a atom {i}");
        }
        for j in 0..n - k {
            assert_eq!(fb_c[j], fb_r[j], "group b atom {j}");
        }
    }

    #[test]
    fn outer_range_tiling_covers_triangle_bitwise() {
        // Split self computes over ranged outer windows must reproduce the
        // full listed evaluation bit for bit when summed in range order.
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(26.0);
        let n = 41;
        let (pos, ids, lj, q) = scatter(n, 26.0);
        let ex = chained_exclusions(n, &q, &lj);
        let g = AtomGroup::new(&pos, &ids, &lj, &q);

        // Reference: the listed kernel tiled over the *same* outer windows,
        // accumulated the same way (per-range results summed in range
        // order) — exactly how the engine's split self computes combine.
        let mut list = Vec::new();
        let mut f_listed = vec![Vec3::ZERO; n];
        let mut r_listed = NbResult::default();
        for outer in [0..13, 13..30, 30..n] {
            self_candidates_into(g, &cell, outer, ff.cutoff + 2.0, &mut list);
            r_listed.add(nb_self_listed(&ff, &ex, g, &cell, &list, &mut f_listed));
        }

        let mut f_cl = vec![Vec3::ZERO; n];
        let mut acc = NbResult::default();
        for outer in [0..13, 13..30, 30..n] {
            let (grid, pairs, inner) =
                build_self(g, &ex, &cell, outer, ff.cutoff + 2.0, SimdWidth::Scalar);
            acc.add(nb_self_clusters(
                &ff, g, &cell, &grid, &pairs, &inner, SimdWidth::Scalar, &mut f_cl,
            ));
        }
        assert_eq!(acc.pairs, r_listed.pairs);
        assert_eq!(acc.e_lj.to_bits(), r_listed.e_lj.to_bits());
        assert_eq!(acc.e_elec.to_bits(), r_listed.e_elec.to_bits());
        for i in 0..n {
            assert_eq!(f_cl[i], f_listed[i], "atom {i}");
        }
    }

    #[test]
    fn prune_never_drops_within_cutoff_pairs() {
        // Build at cutoff+margin, displace atoms by < margin/2, prune at the
        // bare cutoff with refreshed spheres: the pruned kernel must match
        // the unpruned kernel bit for bit (dropped blocks contribute no
        // arithmetic), and on this sparse system it must actually prune.
        let ff = ForceField::biomolecular(9.0);
        let cell = Cell::cube(48.0);
        // Spatially coherent blobs: 4 consecutive atoms per lattice site, so
        // identity clusters get tight bounding spheres (the layout molecule
        // generators produce). 4×4×4 sites, 12 Å apart.
        let n = 256;
        let mut pos = Vec::with_capacity(n);
        for s in 0..64 {
            let c = Vec3::new(
                (s % 4) as f64 * 12.0 + 2.0,
                (s / 4 % 4) as f64 * 12.0 + 2.0,
                (s / 16) as f64 * 12.0 + 2.0,
            );
            for k in 0..4 {
                pos.push(c + Vec3::new(0.4 * k as f64, 0.3 * (k % 2) as f64, 0.2));
            }
        }
        let ids: Vec<AtomId> = (0..n as u32).collect();
        let lj = vec![0u16; n];
        let q: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.3 } else { -0.3 }).collect();
        let ex = Exclusions::none(n);
        let margin = 2.0;
        let (_, pairs, _) = build_self(
            AtomGroup::new(&pos, &ids, &lj, &q),
            &ex,
            &cell,
            0..n,
            ff.cutoff + margin,
            SimdWidth::Scalar,
        );
        // Displace within the margin guarantee.
        for (i, p) in pos.iter_mut().enumerate() {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            *p += Vec3::new(0.5 * s, -0.4 * s, 0.3 * s);
        }
        let g = AtomGroup::new(&pos, &ids, &lj, &q);
        let mut grid = ClusterGrid::new();
        grid.refresh(g, &cell, SimdWidth::Scalar);
        let all: Vec<u32> = (0..pairs.len() as u32).collect();
        let mut inner = Vec::new();
        prune_into(&pairs, &grid, &grid, &cell, ff.cutoff, &mut inner);
        assert!(
            inner.len() < all.len(),
            "expected pruning on a sparse box: {} of {}",
            inner.len(),
            all.len()
        );
        let mut f_all = vec![Vec3::ZERO; n];
        let r_all =
            nb_self_clusters(&ff, g, &cell, &grid, &pairs, &all, SimdWidth::Scalar, &mut f_all);
        let mut f_pruned = vec![Vec3::ZERO; n];
        let r_pruned = nb_self_clusters(
            &ff, g, &cell, &grid, &pairs, &inner, SimdWidth::Scalar, &mut f_pruned,
        );
        assert_eq!(r_pruned.pairs, r_all.pairs);
        assert_eq!(r_pruned.e_lj.to_bits(), r_all.e_lj.to_bits());
        assert_eq!(r_pruned.e_elec.to_bits(), r_all.e_elec.to_bits());
        for i in 0..n {
            assert_eq!(f_pruned[i], f_all[i], "atom {i}");
        }
    }

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-30)
    }

    #[test]
    fn x4_matches_scalar_within_1e12() {
        for ff in [
            ForceField::biomolecular(12.0),
            ForceField::biomolecular(12.0).with_ewald(0.32),
        ] {
            let cell = Cell::cube(26.0);
            let n = 43;
            let (pos, ids, lj, q) = scatter(n, 26.0);
            let ex = chained_exclusions(n, &q, &lj);
            let g = AtomGroup::new(&pos, &ids, &lj, &q);
            let (grid, pairs, inner) =
                build_self(g, &ex, &cell, 0..n, ff.cutoff + 2.0, SimdWidth::X4);
            let mut f_s = vec![Vec3::ZERO; n];
            let r_s = nb_self_clusters(
                &ff, g, &cell, &grid, &pairs, &inner, SimdWidth::Scalar, &mut f_s,
            );
            let mut f_4 = vec![Vec3::ZERO; n];
            let r_4 =
                nb_self_clusters(&ff, g, &cell, &grid, &pairs, &inner, SimdWidth::X4, &mut f_4);
            assert_eq!(r_4.pairs, r_s.pairs);
            assert!(rel(r_4.e_lj, r_s.e_lj) < 1e-12, "{} vs {}", r_4.e_lj, r_s.e_lj);
            assert!(rel(r_4.e_elec, r_s.e_elec) < 1e-12);
            let fmax = f_s.iter().map(|f| f.norm()).fold(1e-30, f64::max);
            for i in 0..n {
                assert!(
                    (f_4[i] - f_s[i]).norm() < 1e-12 * fmax,
                    "atom {i}: {:?} vs {:?}",
                    f_4[i],
                    f_s[i]
                );
            }
        }
    }

    #[test]
    fn pair_lane_kernels_match_scalar() {
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(26.0);
        let n = 38;
        let (pos, ids, lj, q) = scatter(n, 26.0);
        let ex = Exclusions::none(n);
        let k = 17;
        let ga = AtomGroup::new(&pos[..k], &ids[..k], &lj[..k], &q[..k]);
        let gb = AtomGroup::new(&pos[k..], &ids[k..], &lj[k..], &q[k..]);
        let mut grid_a = ClusterGrid::new();
        let mut grid_b = ClusterGrid::new();
        grid_a.refresh(ga, &cell, SimdWidth::X4);
        grid_b.refresh(gb, &cell, SimdWidth::X4);
        let mut pairs = Vec::new();
        pair_cluster_pairs_into(
            ga, &grid_a, gb, &grid_b, &ex, &cell, 0..k, ff.cutoff + 2.0, &mut pairs,
        );
        let inner: Vec<u32> = (0..pairs.len() as u32).collect();
        let run = |width: SimdWidth| {
            let mut fa = vec![Vec3::ZERO; k];
            let mut fb = vec![Vec3::ZERO; n - k];
            let r = nb_pair_clusters(
                &ff, ga, gb, &cell, &grid_a, &grid_b, &pairs, &inner, width, &mut fa, &mut fb,
            );
            (r, fa, fb)
        };
        let (r_s, fa_s, fb_s) = run(SimdWidth::Scalar);
        let (r_4, fa_4, fb_4) = run(SimdWidth::X4);
        assert_eq!(r_4.pairs, r_s.pairs);
        assert!(rel(r_4.energy(), r_s.energy()) < 1e-12);
        let fmax = fa_s
            .iter()
            .chain(fb_s.iter())
            .map(|f| f.norm())
            .fold(1e-30, f64::max);
        for i in 0..k {
            assert!((fa_4[i] - fa_s[i]).norm() < 1e-12 * fmax);
        }
        for j in 0..n - k {
            assert!((fb_4[j] - fb_s[j]).norm() < 1e-12 * fmax);
        }
    }

    #[test]
    fn cluster_build_covers_every_candidate_pair() {
        // Every atom-level candidate within the build radius must map to a
        // live lane of some emitted cluster pair.
        let ff = ForceField::biomolecular(12.0);
        let cell = Cell::cube(26.0);
        let n = 43;
        let (pos, ids, lj, q) = scatter(n, 26.0);
        let ex = chained_exclusions(n, &q, &lj);
        let g = AtomGroup::new(&pos, &ids, &lj, &q);
        let radius = ff.cutoff + 2.0;
        let (_, pairs, _) = build_self(g, &ex, &cell, 0..n, radius, SimdWidth::Scalar);
        let mut list = Vec::new();
        self_candidates_into(g, &cell, 0..n, radius, &mut list);
        use std::collections::HashSet;
        let mut covered: HashSet<(u32, u32)> = HashSet::new();
        for p in &pairs {
            for ii in 0..CLUSTER {
                for jj in 0..CLUSTER {
                    if p.mask & (1 << (ii * CLUSTER + jj)) != 0 {
                        covered
                            .insert((p.ci * CLUSTER as u32 + ii as u32, p.cj * CLUSTER as u32 + jj as u32));
                    }
                }
            }
        }
        for &(i, j) in &list {
            if ex.kind(i, j) == ExclusionKind::Full {
                continue;
            }
            assert!(covered.contains(&(i, j)), "candidate ({i},{j}) not covered");
        }
    }
}
