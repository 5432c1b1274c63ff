//! Classical Ewald summation: the exact reference for periodic
//! electrostatics.
//!
//! The Coulomb energy of a neutral periodic system is split with a Gaussian
//! screening parameter β into
//!
//! * a short-range **real-space** sum `Σ q_i q_j erfc(β r)/r` evaluated
//!   inside a cutoff (this is the "cutoff atom-based component" the paper
//!   says its results apply to directly),
//! * a smooth **reciprocal-space** sum over k-vectors (the "grid-based
//!   component" whose parallelization the paper defers to [14, 16] — the
//!   `mesh` module provides the PME version),
//! * the **self-energy** correction `-β/√π Σ q_i²`, and
//! * **exclusion corrections** removing the reciprocal-space interaction of
//!   bonded (1-2/1-3) pairs.
//!
//! This module computes the reciprocal part by direct k-summation — O(N·K³),
//! exact, the gold standard the FFT-based mesh solver is validated against.

use crate::erf::{erfc, TWO_OVER_SQRT_PI};
use mdcore::forcefield::units;
use mdcore::prelude::*;

/// Ewald parameters.
#[derive(Debug, Clone, Copy)]
pub struct EwaldParams {
    /// Gaussian screening parameter β, Å⁻¹.
    pub beta: f64,
    /// Real-space cutoff, Å.
    pub r_cut: f64,
    /// Reciprocal-space cutoff: include k with |n| ≤ kmax per axis.
    pub kmax: usize,
}

impl EwaldParams {
    /// Standard accuracy heuristic: β chosen so erfc(β·r_cut)/r_cut ≤ tol,
    /// kmax so the Gaussian factor at the k-cutoff ≤ tol.
    pub fn auto(cell: &Cell, r_cut: f64, tol: f64) -> EwaldParams {
        assert!(tol > 0.0 && tol < 1.0);
        // Solve erfc(x) = tol approximately: x ≈ sqrt(ln(1/tol)).
        let x = (1.0 / tol).ln().sqrt();
        let beta = x / r_cut;
        let lmin = cell.lengths.x.min(cell.lengths.y).min(cell.lengths.z);
        // exp(-(πn/(βL))²)·stuff ≤ tol ⇒ n ≥ βLx/π.
        let kmax = ((beta * lmin * x) / std::f64::consts::PI).ceil() as usize;
        EwaldParams { beta, r_cut, kmax: kmax.max(1) }
    }
}

/// Energy breakdown of an Ewald evaluation, kcal/mol.
#[derive(Debug, Clone, Copy, Default)]
pub struct EwaldEnergy {
    pub real: f64,
    pub reciprocal: f64,
    pub self_energy: f64,
    pub exclusion: f64,
}

impl EwaldEnergy {
    /// Total electrostatic energy.
    pub fn total(&self) -> f64 {
        self.real + self.reciprocal + self.self_energy + self.exclusion
    }
}

/// Real-space Ewald part over all pairs within the cutoff, honouring
/// exclusions (fully excluded pairs contribute nothing here; their
/// reciprocal-space image is removed by [`exclusion_correction`]).
/// Accumulates forces and returns the energy.
pub fn real_space(
    cell: &Cell,
    pos: &[Vec3],
    q: &[f64],
    ex: &Exclusions,
    params: &EwaldParams,
    forces: &mut [Vec3],
) -> f64 {
    let cl = CellList::build(cell, pos, params.r_cut);
    let pairs = cl.neighbor_pairs(pos, params.r_cut);
    let beta = params.beta;
    let mut energy = 0.0;
    for (i, j) in pairs {
        let (i, j) = (i as usize, j as usize);
        if ex.kind(i as u32, j as u32) == ExclusionKind::Full {
            continue;
        }
        let d = cell.min_image(pos[i], pos[j]);
        let r2 = d.norm2();
        let r = r2.sqrt();
        let qq = units::COULOMB * q[i] * q[j];
        let e = qq * erfc(beta * r) / r;
        energy += e;
        // F_i = qq [ erfc(βr)/r² + 2β/√π e^{-β²r²}/r ] r̂
        let fmag = qq * (erfc(beta * r) / r2 + beta * TWO_OVER_SQRT_PI * (-beta * beta * r2).exp() / r);
        let f = d * (fmag / r);
        forces[i] += f;
        forces[j] -= f;
    }
    energy
}

/// Direct (non-mesh) reciprocal-space sum. Returns the energy and
/// accumulates forces. O(N·(2kmax+1)³) — reference quality, test sizes only.
pub fn reciprocal_direct(
    cell: &Cell,
    pos: &[Vec3],
    q: &[f64],
    params: &EwaldParams,
    forces: &mut [Vec3],
) -> f64 {
    assert!(cell.periodic.iter().all(|&p| p), "Ewald requires full periodicity");
    let v = cell.volume();
    let beta2 = params.beta * params.beta;
    let kmax = params.kmax as isize;
    let two_pi = 2.0 * std::f64::consts::PI;
    let kx0 = two_pi / cell.lengths.x;
    let ky0 = two_pi / cell.lengths.y;
    let kz0 = two_pi / cell.lengths.z;
    let n = pos.len();

    let mut energy = 0.0;
    for nx in -kmax..=kmax {
        for ny in -kmax..=kmax {
            for nz in -kmax..=kmax {
                if (nx, ny, nz) == (0, 0, 0) {
                    continue;
                }
                let k = Vec3::new(nx as f64 * kx0, ny as f64 * ky0, nz as f64 * kz0);
                let k2 = k.norm2();
                let g = 4.0 * std::f64::consts::PI * (-k2 / (4.0 * beta2)).exp() / k2;
                // Structure factor S(k) = Σ q e^{ik·r}.
                let mut s_re = 0.0;
                let mut s_im = 0.0;
                for i in 0..n {
                    let phase = k.dot(pos[i]);
                    s_re += q[i] * phase.cos();
                    s_im += q[i] * phase.sin();
                }
                let s2 = s_re * s_re + s_im * s_im;
                energy += g * s2;
                // F_i = (C/V)·g·q_i·k·[sin(k·r_i)·S_re − cos(k·r_i)·S_im]
                for i in 0..n {
                    let phase = k.dot(pos[i]);
                    let coeff = units::COULOMB / v
                        * g
                        * q[i]
                        * (phase.sin() * s_re - phase.cos() * s_im);
                    forces[i] += k * coeff;
                }
            }
        }
    }
    units::COULOMB / (2.0 * v) * energy
}

/// Self-energy correction: `−C·β/√π·Σ q_i²`.
pub fn self_energy(q: &[f64], params: &EwaldParams) -> f64 {
    let sum_q2: f64 = q.iter().map(|&x| x * x).sum();
    -units::COULOMB * params.beta / std::f64::consts::PI.sqrt() * sum_q2
}

/// Exclusion correction: fully excluded pairs are present in the reciprocal
/// sum (which knows nothing of exclusions); remove their screened
/// interaction `C q_i q_j erf(β r)/r` and its force.
pub fn exclusion_correction(
    cell: &Cell,
    pos: &[Vec3],
    q: &[f64],
    ex: &Exclusions,
    params: &EwaldParams,
    forces: &mut [Vec3],
) -> f64 {
    let beta = params.beta;
    let mut energy = 0.0;
    for i in 0..pos.len() {
        for &j in ex.row(i as u32).full() {
            let j = j as usize;
            if j <= i {
                continue; // each unordered pair once
            }
            let d = cell.min_image(pos[i], pos[j]);
            let r2 = d.norm2();
            let r = r2.sqrt();
            if r < 1e-9 {
                continue;
            }
            let qq = units::COULOMB * q[i] * q[j];
            let erf_br = 1.0 - erfc(beta * r);
            energy -= qq * erf_br / r;
            // E_corr = −qq·erf(βr)/r ⇒ F_i = −dE/dr·r̂ = +qq·f'(r)·r̂ with
            // f'(r) = 2β/√π·e^{−β²r²}/r − erf(βr)/r².
            let fmag =
                qq * (beta * TWO_OVER_SQRT_PI * (-beta * beta * r2).exp() / r - erf_br / r2);
            let f = d * (fmag / r);
            forces[i] += f;
            forces[j] -= f;
        }
    }
    energy
}

/// Full direct Ewald evaluation: energy breakdown + forces (accumulated
/// into `forces`).
pub fn ewald_direct(
    cell: &Cell,
    pos: &[Vec3],
    q: &[f64],
    ex: &Exclusions,
    params: &EwaldParams,
    forces: &mut [Vec3],
) -> EwaldEnergy {
    assert_eq!(pos.len(), q.len());
    assert_eq!(pos.len(), forces.len());
    EwaldEnergy {
        real: real_space(cell, pos, q, ex, params, forces),
        reciprocal: reciprocal_direct(cell, pos, q, params, forces),
        self_energy: self_energy(q, params),
        exclusion: exclusion_correction(cell, pos, q, ex, params, forces),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rock-salt (NaCl) lattice of 2×2×2 unit cells: the Madelung test.
    fn nacl(a: f64) -> (Cell, Vec<Vec3>, Vec<f64>) {
        let n_cells = 2;
        let l = a * n_cells as f64;
        let cell = Cell::cube(l);
        let mut pos = Vec::new();
        let mut q = Vec::new();
        let half = a / 2.0;
        for ix in 0..n_cells * 2 {
            for iy in 0..n_cells * 2 {
                for iz in 0..n_cells * 2 {
                    pos.push(Vec3::new(
                        ix as f64 * half,
                        iy as f64 * half,
                        iz as f64 * half,
                    ));
                    q.push(if (ix + iy + iz) % 2 == 0 { 1.0 } else { -1.0 });
                }
            }
        }
        (cell, pos, q)
    }

    #[test]
    fn madelung_constant_of_nacl() {
        let a = 5.64; // NaCl lattice constant, Å
        let (cell, pos, q) = nacl(a);
        let ex = Exclusions::none(pos.len());
        let params = EwaldParams::auto(&cell, 5.6, 1e-8);
        let mut f = vec![Vec3::ZERO; pos.len()];
        let e = ewald_direct(&cell, &pos, &q, &ex, &params, &mut f);
        // Potential at an ion site is −M·q/r_nn (M = 1.747565, r_nn = a/2);
        // the energy per ion is half of q·V (each pair shared by two ions).
        let per_ion = e.total() / pos.len() as f64;
        let expect = -1.747_565 * units::COULOMB / (a / 2.0) / 2.0;
        assert!(
            (per_ion / expect - 1.0).abs() < 1e-4,
            "Madelung: {per_ion} vs {expect}"
        );
        // Perfect lattice: zero force on every ion.
        for (i, fi) in f.iter().enumerate() {
            assert!(fi.norm() < 1e-6, "ion {i} force {fi:?}");
        }
    }

    #[test]
    fn total_energy_independent_of_beta() {
        // The β-split is an identity: different β, same total.
        let (cell, pos, q) = nacl(6.0);
        let ex = Exclusions::none(pos.len());
        // β must be large enough that erfc(β·r_cut) is negligible at the
        // half-box real-space cutoff, and kmax large enough for the bigger β.
        let mut totals = Vec::new();
        for beta in [0.55, 0.72] {
            let params = EwaldParams { beta, r_cut: 5.9, kmax: 14 };
            let mut f = vec![Vec3::ZERO; pos.len()];
            let e = ewald_direct(&cell, &pos, &q, &ex, &params, &mut f);
            totals.push(e.total());
        }
        assert!(
            (totals[0] / totals[1] - 1.0).abs() < 5e-4,
            "β-dependence: {totals:?}"
        );
    }

    #[test]
    fn forces_match_finite_differences() {
        // A small random-ish charged system (net neutral).
        let cell = Cell::cube(10.0);
        let pos = vec![
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.5, 6.0, 2.0),
            Vec3::new(7.0, 1.5, 8.0),
            Vec3::new(3.0, 8.0, 6.5),
        ];
        let q = vec![0.5, -0.8, 0.6, -0.3];
        let ex = Exclusions::none(4);
        let params = EwaldParams { beta: 0.5, r_cut: 4.9, kmax: 8 };

        let energy_at = |pos: &[Vec3]| {
            let mut f = vec![Vec3::ZERO; 4];
            ewald_direct(&cell, pos, &q, &ex, &params, &mut f).total()
        };
        let mut f = vec![Vec3::ZERO; 4];
        ewald_direct(&cell, &pos, &q, &ex, &params, &mut f);

        let h = 1e-5;
        for atom in 0..4 {
            for axis in 0..3 {
                let mut p_plus = pos.clone();
                *p_plus[atom].axis_mut(axis) += h;
                let mut p_minus = pos.clone();
                *p_minus[atom].axis_mut(axis) -= h;
                let fd = -(energy_at(&p_plus) - energy_at(&p_minus)) / (2.0 * h);
                let an = f[atom].axis(axis);
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "atom {atom} axis {axis}: fd {fd} vs analytic {an}"
                );
            }
        }
        // Momentum conservation.
        let net: Vec3 = f.iter().copied().sum();
        assert!(net.norm() < 1e-8, "net force {net:?}");
    }

    #[test]
    fn excluded_pair_is_fully_removed() {
        // Two bonded opposite charges: with the exclusion correction the
        // total must equal the energy of the same system with the pair's
        // direct interaction absent — check consistency across β (the
        // correction must cancel the reciprocal image exactly, leaving a
        // β-independent total).
        let cell = Cell::cube(12.0);
        let pos = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(6.2, 5.0, 5.0)];
        let q = vec![0.4, -0.4];
        let mut topo = Topology::default();
        topo.atoms = vec![Atom { mass: 1.0, charge: 0.4, lj_type: 0 }; 2];
        topo.bonds.push(Bond { a: 0, b: 1, k: 1.0, r0: 1.2 });
        let ex = Exclusions::from_topology(&topo);
        let mut totals = Vec::new();
        for beta in [0.4, 0.55] {
            let mut f = vec![Vec3::ZERO; 2];
            let params = EwaldParams { beta, r_cut: 5.9, kmax: 12 };
            let e = ewald_direct(&cell, &pos, &q, &ex, &params, &mut f);
            totals.push(e.total());
        }
        assert!(
            (totals[0] - totals[1]).abs() < 1e-4 * totals[0].abs().max(1.0),
            "exclusion correction leaks β-dependence: {totals:?}"
        );
    }

    #[test]
    fn exclusion_correction_force_matches_fd() {
        // Three charges, pair (0,1) excluded — exercises the correction's
        // force path, which the no-exclusion FD test cannot reach.
        let cell = Cell::cube(10.0);
        let pos = vec![
            Vec3::new(4.0, 5.0, 5.0),
            Vec3::new(5.1, 5.0, 5.0),
            Vec3::new(7.5, 6.0, 5.0),
        ];
        let q = vec![0.5, -0.4, 0.3];
        let mut topo = Topology::default();
        topo.atoms = vec![Atom { mass: 1.0, charge: 0.0, lj_type: 0 }; 3];
        topo.bonds.push(Bond { a: 0, b: 1, k: 1.0, r0: 1.1 });
        let ex = Exclusions::from_topology(&topo);
        let params = EwaldParams { beta: 0.6, r_cut: 4.9, kmax: 10 };

        let energy_at = |pos: &[Vec3]| {
            let mut f = vec![Vec3::ZERO; 3];
            ewald_direct(&cell, pos, &q, &ex, &params, &mut f).total()
        };
        let mut f = vec![Vec3::ZERO; 3];
        ewald_direct(&cell, &pos, &q, &ex, &params, &mut f);
        let h = 1e-5;
        for atom in 0..3 {
            for axis in 0..3 {
                let mut p = pos.clone();
                *p[atom].axis_mut(axis) += h;
                let ep = energy_at(&p);
                *p[atom].axis_mut(axis) -= 2.0 * h;
                let em = energy_at(&p);
                let fd = -(ep - em) / (2.0 * h);
                let an = f[atom].axis(axis);
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "atom {atom} axis {axis}: fd {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn auto_params_are_sane() {
        let cell = Cell::cube(40.0);
        let p = EwaldParams::auto(&cell, 10.0, 1e-7);
        assert!(p.beta > 0.2 && p.beta < 1.0, "beta {}", p.beta);
        assert!(p.kmax >= 4 && p.kmax < 64, "kmax {}", p.kmax);
        // erfc at the cutoff is at or below the tolerance scale.
        assert!(erfc(p.beta * p.r_cut) < 1e-6);
    }

    #[test]
    fn neutral_uniform_system_has_small_energy() {
        // +q and −q arranged symmetrically: reciprocal + self + real must
        // largely cancel the bare Coulomb attraction handled in real space.
        let cell = Cell::cube(20.0);
        let pos = vec![Vec3::new(5.0, 10.0, 10.0), Vec3::new(15.0, 10.0, 10.0)];
        let q = vec![1.0, -1.0];
        let ex = Exclusions::none(2);
        let params = EwaldParams::auto(&cell, 9.0, 1e-7);
        let mut f = vec![Vec3::ZERO; 2];
        let e = ewald_direct(&cell, &pos, &q, &ex, &params, &mut f);
        // Energy of ±1 e at 10 Å with images: near −C/10·(Wigner-ish) —
        // just require it be negative (attractive) and of sane magnitude.
        assert!(e.total() < 0.0 && e.total() > -2.0 * units::COULOMB / 10.0 * 2.0);
    }
}
