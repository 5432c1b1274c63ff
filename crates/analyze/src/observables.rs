//! Per-frame observables and their mergeable partial sums.
//!
//! Analysis follows the same map/reduce discipline as a force phase: each
//! *task* (one frame, or one MSD atom block) produces a [`Partial`];
//! partials fold together with [`Partial::merge`] in a fixed pairwise-tree
//! order, and [`finalize`] turns the fully merged partial into physical
//! observables. Determinism discipline:
//!
//! * task decomposition depends only on the trajectory shape (frame count,
//!   atom count), never on the PE count or backend;
//! * every accumulation inside a task iterates atoms/pairs in index order;
//! * merges happen in ascending child-task order at every tree node;
//!
//! so the reduced observable bytes are bit-identical on des/threads/proc
//! and for any PE count — the `obs_crc` over the packed partial is the
//! witness tests compare.

use charmrt::wire::{get_u64s, put_u64s, Dec, Enc, WireCodec, WireError};
use charmrt::Payload;
use mdcore::prelude::*;

/// Analysis knobs. All fields shape the *physics* of the result, so every
/// one is covered by the serve-layer cache-key canonicalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzeParams {
    /// RDF histogram range (Å); capped at half the smallest box edge by
    /// the driver.
    pub r_max: f64,
    /// RDF histogram bins.
    pub rdf_bins: usize,
    /// Contact-map distance cutoff (Å).
    pub contact_cutoff: f64,
    /// Contact-map groups: atoms are striped into this many contiguous
    /// index blocks (a stand-in for residues, which the generated systems
    /// don't label).
    pub contact_groups: usize,
    /// Time between stored frames (fs), for the diffusion fit.
    pub frame_dt: f64,
    /// MSD atom-block task count. Fixed by the caller, *not* by the PE
    /// count — it is part of the deterministic task decomposition.
    pub msd_tasks: usize,
}

impl Default for AnalyzeParams {
    fn default() -> Self {
        AnalyzeParams {
            r_max: 8.0,
            rdf_bins: 32,
            contact_cutoff: 4.5,
            contact_groups: 8,
            frame_dt: 10.0,
            msd_tasks: 4,
        }
    }
}

impl AnalyzeParams {
    /// Flattened upper-triangle length of the contact map.
    pub fn contact_slots(&self) -> usize {
        self.contact_groups * (self.contact_groups + 1) / 2
    }

    /// Flattened index of unordered group pair `(g1, g2)`.
    pub fn contact_index(&self, g1: usize, g2: usize) -> usize {
        let (a, b) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        a * self.contact_groups - a * (a + 1) / 2 + b
    }

    /// Contact group of atom `i` out of `n_atoms` (contiguous stripes).
    pub fn group_of(&self, i: usize, n_atoms: usize) -> usize {
        (i * self.contact_groups / n_atoms.max(1)).min(self.contact_groups - 1)
    }
}

/// The mergeable partial sum one analysis task produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    pub n_frames: u32,
    pub n_atoms: u32,
    /// RDF pair-distance histogram (2 counts per unordered pair, matching
    /// `mdcore::radial_distribution`'s same-selection convention).
    pub rdf_hist: Vec<u64>,
    /// Flattened upper-triangle group-pair contact counts, summed over
    /// frames.
    pub contact_hist: Vec<u64>,
    /// Per-frame RMSD vs frame 0 after Kabsch alignment. Keyed placement:
    /// the frame task for frame `k` writes slot `k`, every other partial
    /// holds NaN there, and merge moves values into empty (NaN) slots.
    pub rmsd: Vec<f64>,
    /// Per-frame sums of squared unwrapped displacement over this
    /// partial's atoms (divide by `msd_atoms` at finalize).
    pub msd_sum: Vec<f64>,
    /// Atoms contributing to `msd_sum`.
    pub msd_atoms: u64,
    /// Frame tasks folded into this partial.
    pub frames_seen: u64,
}

impl Partial {
    /// An empty partial for a trajectory of the given shape.
    pub fn empty(n_frames: usize, n_atoms: usize, params: &AnalyzeParams) -> Partial {
        Partial {
            n_frames: n_frames as u32,
            n_atoms: n_atoms as u32,
            rdf_hist: vec![0; params.rdf_bins],
            contact_hist: vec![0; params.contact_slots()],
            rmsd: vec![f64::NAN; n_frames],
            msd_sum: vec![0.0; n_frames],
            msd_atoms: 0,
            frames_seen: 0,
        }
    }

    /// Fold `other` into `self`. Callers fix the call order (ascending
    /// child-task index at every tree node) so the f64 additions happen in
    /// one global order regardless of backend or PE count.
    pub fn merge(&mut self, other: &Partial) {
        assert_eq!(self.n_frames, other.n_frames, "partial shape mismatch");
        assert_eq!(self.n_atoms, other.n_atoms, "partial shape mismatch");
        assert_eq!(self.rdf_hist.len(), other.rdf_hist.len());
        assert_eq!(self.contact_hist.len(), other.contact_hist.len());
        for (d, s) in self.rdf_hist.iter_mut().zip(&other.rdf_hist) {
            *d += s;
        }
        for (d, s) in self.contact_hist.iter_mut().zip(&other.contact_hist) {
            *d += s;
        }
        for (d, s) in self.rmsd.iter_mut().zip(&other.rmsd) {
            if !s.is_nan() {
                debug_assert!(d.is_nan(), "two partials computed the same RMSD slot");
                *d = *s;
            }
        }
        for (d, s) in self.msd_sum.iter_mut().zip(&other.msd_sum) {
            *d += s;
        }
        self.msd_atoms += other.msd_atoms;
        self.frames_seen += other.frames_seen;
    }

    /// Total f64/u64 slots — the reduce cost model's size measure.
    pub fn slots(&self) -> usize {
        self.rdf_hist.len() + self.contact_hist.len() + self.rmsd.len() + self.msd_sum.len() + 2
    }
}

impl WireCodec for Partial {
    fn pack(&self) -> Payload {
        let mut e = Enc::with_capacity(32 + self.slots() * 8);
        e.u32(self.n_frames);
        e.u32(self.n_atoms);
        e.u64(self.msd_atoms);
        e.u64(self.frames_seen);
        put_u64s(&mut e, &self.rdf_hist);
        put_u64s(&mut e, &self.contact_hist);
        e.f64s(&self.rmsd);
        e.f64s(&self.msd_sum);
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Partial, WireError> {
        let mut d = Dec::new(bytes);
        let p = Partial {
            n_frames: d.u32("n_frames")?,
            n_atoms: d.u32("n_atoms")?,
            msd_atoms: d.u64("msd_atoms")?,
            frames_seen: d.u64("frames_seen")?,
            rdf_hist: get_u64s(&mut d, "rdf_hist")?,
            contact_hist: get_u64s(&mut d, "contact_hist")?,
            rmsd: d.f64s("rmsd")?,
            msd_sum: d.f64s("msd_sum")?,
        };
        if d.remaining() != 0 {
            return Err(WireError(format!("{} trailing bytes after Partial", d.remaining())));
        }
        Ok(p)
    }
}

/// Analyze one frame: RDF + contact-map pair sweep plus the Kabsch RMSD
/// against the reference frame. Writes RMSD slot `frame_idx` only.
pub fn frame_partial(
    frame_idx: usize,
    positions: &[Vec3],
    reference: &[Vec3],
    cell: &Cell,
    n_frames: usize,
    params: &AnalyzeParams,
) -> Partial {
    let n = positions.len();
    let mut p = Partial::empty(n_frames, n, params);
    let dr = params.r_max / params.rdf_bins as f64;
    let contact2 = params.contact_cutoff * params.contact_cutoff;
    for i in 0..n {
        for j in (i + 1)..n {
            let d2 = cell.dist2(positions[i], positions[j]);
            if d2 < params.r_max * params.r_max {
                let bin = (d2.sqrt() / dr) as usize;
                // Each unordered pair counts both directions.
                p.rdf_hist[bin.min(params.rdf_bins - 1)] += 2;
            }
            if d2 < contact2 {
                let idx = params.contact_index(params.group_of(i, n), params.group_of(j, n));
                p.contact_hist[idx] += 1;
            }
        }
    }
    p.rmsd[frame_idx] = kabsch_rmsd(reference, positions);
    p.frames_seen = 1;
    p
}

/// Analyze one MSD atom block: unwrap the block's atoms through every
/// frame (consecutive-frame minimum images, as
/// `mdcore::mean_squared_displacement` does) and accumulate per-frame sums
/// of squared displacement.
///
/// `coords` is frame-major: `coords[t * block_len + a]` is block-atom `a`
/// at frame `t`.
pub fn msd_partial(
    coords: &[Vec3],
    block_len: usize,
    cell: &Cell,
    n_frames: usize,
    n_atoms: usize,
    params: &AnalyzeParams,
) -> Partial {
    assert_eq!(coords.len(), block_len * n_frames, "MSD block shape mismatch");
    let mut p = Partial::empty(n_frames, n_atoms, params);
    let mut unwrapped: Vec<Vec3> = coords[..block_len].to_vec();
    let origin = unwrapped.clone();
    for t in 1..n_frames {
        let prev = &coords[(t - 1) * block_len..t * block_len];
        let next = &coords[t * block_len..(t + 1) * block_len];
        let mut acc = 0.0;
        for a in 0..block_len {
            let step = cell.min_image(next[a], prev[a]);
            unwrapped[a] += step;
            acc += (unwrapped[a] - origin[a]).norm2();
        }
        p.msd_sum[t] = acc;
    }
    p.msd_atoms = block_len as u64;
    p
}

/// RMSD between `b` and `a` after optimal superposition (Kabsch), computed
/// with Horn's quaternion method: the largest eigenvalue of the 4×4 key
/// matrix gives the residual directly, with a fixed-sweep Jacobi
/// eigensolver so the float operation sequence is identical everywhere.
pub fn kabsch_rmsd(a: &[Vec3], b: &[Vec3]) -> f64 {
    assert_eq!(a.len(), b.len(), "RMSD frames differ in length");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let inv = 1.0 / n as f64;
    let mut ca = Vec3::ZERO;
    let mut cb = Vec3::ZERO;
    for i in 0..n {
        ca += a[i];
        cb += b[i];
    }
    ca *= inv;
    cb *= inv;
    // Cross-covariance R and the two Gram traces.
    let mut r = [[0.0f64; 3]; 3];
    let (mut ga, mut gb) = (0.0, 0.0);
    for i in 0..n {
        let p = a[i] - ca;
        let q = b[i] - cb;
        ga += p.norm2();
        gb += q.norm2();
        let pv = [p.x, p.y, p.z];
        let qv = [q.x, q.y, q.z];
        for (x, pvx) in pv.iter().enumerate() {
            for (y, qvy) in qv.iter().enumerate() {
                r[x][y] += pvx * qvy;
            }
        }
    }
    // Horn's symmetric 4×4 key matrix.
    let k = [
        [
            r[0][0] + r[1][1] + r[2][2],
            r[1][2] - r[2][1],
            r[2][0] - r[0][2],
            r[0][1] - r[1][0],
        ],
        [
            r[1][2] - r[2][1],
            r[0][0] - r[1][1] - r[2][2],
            r[0][1] + r[1][0],
            r[2][0] + r[0][2],
        ],
        [
            r[2][0] - r[0][2],
            r[0][1] + r[1][0],
            -r[0][0] + r[1][1] - r[2][2],
            r[1][2] + r[2][1],
        ],
        [
            r[0][1] - r[1][0],
            r[2][0] + r[0][2],
            r[1][2] + r[2][1],
            -r[0][0] - r[1][1] + r[2][2],
        ],
    ];
    let lambda = largest_eigenvalue_sym4(k);
    let resid = (ga + gb - 2.0 * lambda).max(0.0);
    (resid * inv).sqrt()
}

/// Largest eigenvalue of a symmetric 4×4 matrix by cyclic Jacobi rotations
/// with a fixed sweep budget — fully deterministic, no data-dependent
/// pivot choice.
fn largest_eigenvalue_sym4(mut m: [[f64; 4]; 4]) -> f64 {
    for _sweep in 0..30 {
        let mut off = 0.0;
        for (p, row) in m.iter().enumerate() {
            for x in &row[p + 1..] {
                off += x * x;
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..4 {
            for q in (p + 1)..4 {
                if m[p][q] == 0.0 {
                    continue;
                }
                let theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in m.iter_mut() {
                    let (mip, miq) = (row[p], row[q]);
                    row[p] = c * mip - s * miq;
                    row[q] = s * mip + c * miq;
                }
                let (upper, lower) = m.split_at_mut(q);
                for (mp, mq) in upper[p].iter_mut().zip(lower[0].iter_mut()) {
                    let (mpi, mqi) = (*mp, *mq);
                    *mp = c * mpi - s * mqi;
                    *mq = s * mpi + c * mqi;
                }
            }
        }
    }
    let mut best = m[0][0];
    for (i, row) in m.iter().enumerate().skip(1) {
        best = best.max(row[i]);
    }
    best
}

/// Fully reduced observables in physical form.
#[derive(Debug, Clone, PartialEq)]
pub struct Observables {
    pub n_frames: usize,
    pub n_atoms: usize,
    /// RDF bin centers (Å).
    pub rdf_r: Vec<f64>,
    /// g(r) per bin, ideal-gas normalized.
    pub rdf_g: Vec<f64>,
    /// Per-frame Kabsch RMSD vs frame 0 (Å).
    pub rmsd: Vec<f64>,
    /// Mean contacts per frame for each flattened group pair.
    pub contact_occupancy: Vec<f64>,
    pub contact_groups: usize,
    /// Per-frame mean squared displacement (Å²).
    pub msd: Vec<f64>,
    /// Self-diffusion coefficient (Å²/fs) from the MSD slope; 0 when the
    /// trajectory is too short to fit.
    pub diffusion: f64,
    /// CRC-64 over the packed fully-merged [`Partial`] — the bit-identity
    /// witness compared across backends and PE counts.
    pub obs_crc: u64,
}

impl Observables {
    /// Location and height of the first RDF maximum.
    pub fn rdf_peak(&self) -> (f64, f64) {
        let mut best = (0.0, 0.0);
        for (r, g) in self.rdf_r.iter().zip(&self.rdf_g) {
            if *g > best.1 {
                best = (*r, *g);
            }
        }
        best
    }

    /// Mean contact occupancy over all group pairs.
    pub fn mean_contact_occupancy(&self) -> f64 {
        if self.contact_occupancy.is_empty() {
            0.0
        } else {
            self.contact_occupancy.iter().sum::<f64>() / self.contact_occupancy.len() as f64
        }
    }
}

/// Turn the fully merged partial into physical observables. Pure
/// deterministic post-processing of the reduced bytes.
pub fn finalize(partial: &Partial, cell: &Cell, params: &AnalyzeParams) -> Observables {
    let n_frames = partial.n_frames as usize;
    let n_atoms = partial.n_atoms as usize;
    assert_eq!(partial.frames_seen as usize, n_frames, "missing frame partials");
    let obs_crc = charmrt::wire::crc64(&partial.pack());
    let dr = params.r_max / params.rdf_bins.max(1) as f64;
    let rho_pairs = n_atoms as f64 * n_atoms as f64 / cell.volume();
    let mut rdf_r = Vec::with_capacity(params.rdf_bins);
    let mut rdf_g = Vec::with_capacity(params.rdf_bins);
    for k in 0..params.rdf_bins {
        let r0 = k as f64 * dr;
        let r1 = r0 + dr;
        let shell = 4.0 / 3.0 * std::f64::consts::PI * (r1.powi(3) - r0.powi(3));
        let ideal = rho_pairs * shell * n_frames as f64;
        rdf_r.push(r0 + 0.5 * dr);
        rdf_g.push(if ideal > 0.0 { partial.rdf_hist[k] as f64 / ideal } else { 0.0 });
    }
    let contact_occupancy: Vec<f64> = partial
        .contact_hist
        .iter()
        .map(|c| *c as f64 / n_frames.max(1) as f64)
        .collect();
    let atoms = partial.msd_atoms.max(1) as f64;
    let msd: Vec<f64> = partial.msd_sum.iter().map(|s| s / atoms).collect();
    let diffusion = if msd.len() >= 4 && params.frame_dt > 0.0 {
        mdcore::prelude::diffusion_coefficient(&msd, params.frame_dt)
    } else {
        0.0
    };
    Observables {
        n_frames,
        n_atoms,
        rdf_r,
        rdf_g,
        rmsd: partial.rmsd.clone(),
        contact_occupancy,
        contact_groups: params.contact_groups,
        msd,
        diffusion,
        obs_crc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_roundtrips_bit_exactly() {
        let params = AnalyzeParams::default();
        let mut p = Partial::empty(3, 5, &params);
        p.rdf_hist[0] = 7;
        p.rmsd[1] = 0.25;
        p.msd_sum[2] = 1.5e-3;
        p.msd_atoms = 5;
        p.frames_seen = 1;
        let bytes = p.pack();
        let q = Partial::unpack(&bytes).unwrap();
        // NaN slots break PartialEq; compare the packed bytes instead.
        assert_eq!(bytes, q.pack());
        let mut long = bytes.clone();
        long.push(0);
        assert!(Partial::unpack(&long).is_err());
        assert!(Partial::unpack(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn rmsd_is_zero_under_rigid_translation() {
        let a: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(i as f64 * 0.7, (i * i % 11) as f64 * 0.3, -(i as f64) * 0.2))
            .collect();
        let shift = Vec3::new(3.5, -1.25, 10.0);
        let b: Vec<Vec3> = a.iter().map(|p| *p + shift).collect();
        assert!(kabsch_rmsd(&a, &b) < 1e-6, "rmsd {}", kabsch_rmsd(&a, &b));
    }

    #[test]
    fn rmsd_is_zero_under_rigid_rotation() {
        // 90° rotation about z is a rigid transform: Kabsch must align it out.
        let a: Vec<Vec3> = (0..15)
            .map(|i| Vec3::new(i as f64, (i % 4) as f64 * 1.3, (i % 3) as f64 * 0.8))
            .collect();
        let b: Vec<Vec3> = a.iter().map(|p| Vec3::new(-p.y, p.x, p.z)).collect();
        assert!(kabsch_rmsd(&a, &b) < 1e-6, "rmsd {}", kabsch_rmsd(&a, &b));
    }

    #[test]
    fn rmsd_detects_an_actual_deformation() {
        let a: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let mut b = a.clone();
        b[0].y += 2.0; // bend one atom out of line
        let r = kabsch_rmsd(&a, &b);
        assert!(r > 0.1, "rmsd {r} too small for a real deformation");
    }

    #[test]
    fn frame_partial_matches_mdcore_rdf() {
        // The parallel per-frame histogram, merged and normalized, must
        // reproduce mdcore's sequential radial_distribution.
        let cell = Cell::cube(12.0);
        let frames: Vec<Vec<Vec3>> = (0..3)
            .map(|t| {
                (0..24)
                    .map(|i| {
                        Vec3::new(
                            (i % 4) as f64 * 3.0 + t as f64 * 0.1,
                            ((i / 4) % 3) as f64 * 4.0,
                            (i / 12) as f64 * 5.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let params = AnalyzeParams { r_max: 5.0, rdf_bins: 10, ..Default::default() };
        let mut merged = Partial::empty(frames.len(), 24, &params);
        for (k, f) in frames.iter().enumerate() {
            merged.merge(&frame_partial(k, f, &frames[0], &cell, frames.len(), &params));
        }
        let obs = finalize(&merged, &cell, &params);
        let ids: Vec<u32> = (0..24).collect();
        let (r_ref, g_ref) = radial_distribution(&cell, &frames, &ids, &ids, 5.0, 10);
        for k in 0..10 {
            assert!((obs.rdf_r[k] - r_ref[k]).abs() < 1e-12);
            assert!((obs.rdf_g[k] - g_ref[k]).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn msd_partials_match_mdcore_msd() {
        // Block-decomposed MSD, merged over blocks, equals the sequential
        // whole-system MSD.
        let cell = Cell::cube(10.0);
        let n = 7;
        let frames: Vec<Vec<Vec3>> = (0..9)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        cell.wrap(Vec3::new(
                            i as f64 + 0.8 * t as f64,
                            (i * 2) as f64 * 0.5,
                            1.0 + 0.3 * t as f64 * (i % 2) as f64,
                        ))
                    })
                    .collect()
            })
            .collect();
        let params = AnalyzeParams::default();
        let mut merged = Partial::empty(frames.len(), n, &params);
        // Two uneven blocks: atoms [0,4) and [4,7).
        for (a0, a1) in [(0usize, 4usize), (4, 7)] {
            let block = a1 - a0;
            let coords: Vec<Vec3> = frames
                .iter()
                .flat_map(|f| f[a0..a1].iter().copied())
                .collect();
            merged.merge(&msd_partial(&coords, block, &cell, frames.len(), n, &params));
        }
        // Frame partials must also be present for finalize's sanity check.
        for (k, f) in frames.iter().enumerate() {
            merged.merge(&frame_partial(k, f, &frames[0], &cell, frames.len(), &params));
        }
        let obs = finalize(&merged, &cell, &params);
        let msd_ref = mean_squared_displacement(&cell, &frames);
        for (t, (got, want)) in obs.msd.iter().zip(&msd_ref).enumerate() {
            assert!((got - want).abs() < 1e-9, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn contact_groups_index_is_a_bijection() {
        let params = AnalyzeParams { contact_groups: 5, ..Default::default() };
        let mut seen = vec![false; params.contact_slots()];
        for g1 in 0..5 {
            for g2 in g1..5 {
                let idx = params.contact_index(g1, g2);
                assert_eq!(idx, params.contact_index(g2, g1), "symmetric");
                assert!(!seen[idx], "collision at ({g1},{g2})");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
    }
}
