//! A from-scratch complex FFT (iterative radix-2 Cooley-Tukey) and a 3-D
//! transform built on it.
//!
//! The particle-mesh Ewald solver needs forward/inverse 3-D FFTs over the
//! charge mesh. Mesh dimensions are restricted to powers of two — the PME
//! grid chooser rounds up, which only sharpens the interpolation.

/// A complex number; deliberately minimal (no external dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// e^{iθ}.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// In-place radix-2 decimation-in-time FFT. `data.len()` must be a power of
/// two. `inverse` applies the conjugate transform *without* the 1/N
/// normalization (callers normalize once, where convenient).
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// A 3-D complex grid with FFT support, stored row-major as
/// `x + nx*(y + ny*z)`.
#[derive(Debug, Clone)]
pub struct Grid3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub data: Vec<Complex>,
}

impl Grid3 {
    /// Zeroed grid; all dimensions must be powers of two.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            nx.is_power_of_two() && ny.is_power_of_two() && nz.is_power_of_two(),
            "grid dims must be powers of two: {nx}x{ny}x{nz}"
        );
        Grid3 { nx, ny, nz, data: vec![Complex::ZERO; nx * ny * nz] }
    }

    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Zero all cells.
    pub fn clear(&mut self) {
        self.data.fill(Complex::ZERO);
    }

    /// 3-D FFT via three passes of 1-D transforms. `inverse` is
    /// unnormalized; [`Grid3::normalize_inverse`] divides by N.
    pub fn fft(&mut self, inverse: bool) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        // X lines are contiguous.
        for z in 0..nz {
            for y in 0..ny {
                let start = self.idx(0, y, z);
                fft_in_place(&mut self.data[start..start + nx], inverse);
            }
        }
        // Y lines: gather/scatter through a scratch buffer.
        let mut line = vec![Complex::ZERO; ny];
        for z in 0..nz {
            for x in 0..nx {
                for (y, l) in line.iter_mut().enumerate() {
                    *l = self.data[self.idx(x, y, z)];
                }
                fft_in_place(&mut line, inverse);
                for (y, l) in line.iter().enumerate() {
                    let i = self.idx(x, y, z);
                    self.data[i] = *l;
                }
            }
        }
        // Z lines.
        let mut line = vec![Complex::ZERO; nz];
        for y in 0..ny {
            for x in 0..nx {
                for (z, l) in line.iter_mut().enumerate() {
                    *l = self.data[self.idx(x, y, z)];
                }
                fft_in_place(&mut line, inverse);
                for (z, l) in line.iter().enumerate() {
                    let i = self.idx(x, y, z);
                    self.data[i] = *l;
                }
            }
        }
    }

    /// Apply the 1/N factor after an inverse FFT.
    pub fn normalize_inverse(&mut self) {
        let s = 1.0 / (self.nx * self.ny * self.nz) as f64;
        for c in &mut self.data {
            *c = c.scale(s);
        }
    }
}

/// Next power of two ≥ `n`.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut d = vec![Complex::ZERO; 8];
        d[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut d, false);
        for c in &d {
            assert!(approx(c.re, 1.0, 1e-12) && approx(c.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_of_single_mode_is_a_peak() {
        // x_j = e^{2πi·3j/16} → X_k = 16·δ(k-3) under the e^{-} convention.
        let n = 16;
        let mut d: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64))
            .collect();
        fft_in_place(&mut d, false);
        for (k, c) in d.iter().enumerate() {
            let expect = if k == 3 { n as f64 } else { 0.0 };
            assert!(
                approx(c.re, expect, 1e-9) && approx(c.im, 0.0, 1e-9),
                "bin {k}: {c:?}"
            );
        }
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let n = 64;
        let orig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let mut d = orig.clone();
        fft_in_place(&mut d, false);
        fft_in_place(&mut d, true);
        for (a, b) in d.iter().zip(&orig) {
            assert!(approx(a.re / n as f64, b.re, 1e-10));
            assert!(approx(a.im / n as f64, b.im, 1e-10));
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 32;
        let d: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 2.0).cos() * 0.5))
            .collect();
        let time_energy: f64 = d.iter().map(|c| c.norm2()).sum();
        let mut f = d.clone();
        fft_in_place(&mut f, false);
        let freq_energy: f64 = f.iter().map(|c| c.norm2()).sum::<f64>() / n as f64;
        assert!(approx(time_energy, freq_energy, 1e-9));
    }

    #[test]
    fn matches_naive_dft() {
        let n = 16;
        let d: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 1.3).cos(), (i as f64 * 0.7).sin()))
            .collect();
        let mut fast = d.clone();
        fft_in_place(&mut fast, false);
        for k in 0..n {
            let mut sum = Complex::ZERO;
            for (j, x) in d.iter().enumerate() {
                sum = sum
                    + *x * Complex::cis(
                        -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64,
                    );
            }
            assert!(approx(fast[k].re, sum.re, 1e-9), "bin {k}");
            assert!(approx(fast[k].im, sum.im, 1e-9), "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let mut d = vec![Complex::ZERO; 12];
        fft_in_place(&mut d, false);
    }

    #[test]
    fn grid3_roundtrip() {
        let mut g = Grid3::new(4, 8, 4);
        for (i, c) in g.data.iter_mut().enumerate() {
            *c = Complex::new((i as f64 * 0.11).sin(), 0.0);
        }
        let orig = g.data.clone();
        g.fft(false);
        g.fft(true);
        g.normalize_inverse();
        for (a, b) in g.data.iter().zip(&orig) {
            assert!(approx(a.re, b.re, 1e-10) && approx(a.im, b.im, 1e-10));
        }
    }

    #[test]
    fn grid3_impulse_flat_spectrum() {
        let mut g = Grid3::new(4, 4, 4);
        let i0 = g.idx(0, 0, 0);
        g.data[i0] = Complex::new(1.0, 0.0);
        g.fft(false);
        for c in &g.data {
            assert!(approx(c.re, 1.0, 1e-12));
        }
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(64), 64);
    }
}
