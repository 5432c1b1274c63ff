//! Orthorhombic periodic boundary conditions.
//!
//! Biomolecular benchmark systems (ApoA-I, BC1, bR) are simulated in
//! rectangular solvent boxes; NAMD's patch grid is laid over exactly such a
//! cell. We support orthorhombic cells only — sufficient for every system the
//! paper evaluates — plus a non-periodic mode used by isolated test systems.

use crate::vec3::Vec3;

/// An orthorhombic simulation cell with origin at `origin` and edge lengths
/// `lengths`; optionally periodic per-axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Lower corner of the cell (Å).
    pub origin: Vec3,
    /// Edge lengths along x, y, z (Å).
    pub lengths: Vec3,
    /// Whether each axis wraps periodically.
    pub periodic: [bool; 3],
}

impl Cell {
    /// A fully periodic cell with the given origin and edge lengths.
    pub fn periodic(origin: Vec3, lengths: Vec3) -> Self {
        assert!(
            lengths.x > 0.0 && lengths.y > 0.0 && lengths.z > 0.0,
            "cell edge lengths must be positive, got {lengths:?}"
        );
        Cell { origin, lengths, periodic: [true; 3] }
    }

    /// A fully periodic cube of edge `l` with origin at zero.
    pub fn cube(l: f64) -> Self {
        Cell::periodic(Vec3::ZERO, Vec3::splat(l))
    }

    /// A non-periodic (open boundary) cell. `origin`/`lengths` still define
    /// the bounding region used for spatial decomposition.
    pub fn open(origin: Vec3, lengths: Vec3) -> Self {
        assert!(
            lengths.x > 0.0 && lengths.y > 0.0 && lengths.z > 0.0,
            "cell edge lengths must be positive, got {lengths:?}"
        );
        Cell { origin, lengths, periodic: [false; 3] }
    }

    /// Volume of the cell in Å³.
    pub fn volume(&self) -> f64 {
        self.lengths.x * self.lengths.y * self.lengths.z
    }

    /// Minimum-image displacement `a - b`.
    ///
    /// For periodic axes the component is folded to the nearest image with
    /// `image_shift`, so it lands in `[-L/2, L/2]`; for open axes it is the
    /// plain difference. Both ends of that interval are reachable and neither
    /// maps to itself: `round` is half-away-from-zero, so a component of
    /// exactly `+L/2` folds to `-L/2` *and* `-L/2` folds to `+L/2`.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        for ax in 0..3 {
            if self.periodic[ax] {
                let c = d.axis_mut(ax);
                *c -= image_shift(*c, self.lengths.axis(ax));
            }
        }
        d
    }

    /// Squared minimum-image distance between `a` and `b`.
    #[inline]
    pub fn dist2(&self, a: Vec3, b: Vec3) -> f64 {
        self.min_image(a, b).norm2()
    }

    /// Wrap a position into the primary cell `[origin, origin + lengths)`
    /// along periodic axes; open axes are left untouched.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        let mut q = p;
        for ax in 0..3 {
            if self.periodic[ax] {
                let l = self.lengths.axis(ax);
                let o = self.origin.axis(ax);
                let c = q.axis_mut(ax);
                let w = o + (*c - o).rem_euclid(l);
                // `rem_euclid` rounds a tiny negative offset up to `l`
                // itself, and `o + r` can round up to the face too; both
                // belong at the lower face of the half-open cell.
                *c = if w >= o + l { o } else { w };
            }
        }
        q
    }

    /// True when `p` lies inside the primary cell (half-open on the upper
    /// faces, matching `wrap`).
    pub fn contains(&self, p: Vec3) -> bool {
        (0..3).all(|ax| {
            let c = p.axis(ax);
            let o = self.origin.axis(ax);
            c >= o && c < o + self.lengths.axis(ax)
        })
    }

    /// Fractional coordinates of `p` relative to the cell (0..1 inside).
    #[inline]
    pub fn fractional(&self, p: Vec3) -> Vec3 {
        let d = p - self.origin;
        Vec3::new(d.x / self.lengths.x, d.y / self.lengths.y, d.z / self.lengths.z)
    }
}

/// The lattice shift `L·k`, `k = round(c/L)`, that takes a displacement
/// component `c` along a periodic axis of length `l` to its nearest image:
/// the folded component is `c - image_shift(c, l)`. This is the workspace's
/// one minimum-image routine; it returns, bit for bit, what the expression
/// `l * round(c / l)` returns, without the divide and the `round` (a libm
/// call on x86-64 without SSE4.1) for every displacement shorter than `l` —
/// and positions are wrapped every step, so the general branch is cold.
///
/// Why the two fast branches are exact (`a = |c|`, any finite `l > 0`):
/// * `a + a < l` (the sum is exact) ⇒ `2a` is at most the float below `l`,
///   so `a/l ≤ 1/2 − 2⁻⁵⁴` in the reals; that bound is itself a float and
///   rounding is monotone, so the rounded quotient never reaches `1/2`:
///   `round` gives `±0` with the sign of `c`, and `l·(±0) = ±0`. Subtracting
///   a zero of `c`'s own sign returns `c`, and `+0.0` for `c = −0.0` — as
///   the old expression did.
/// * otherwise `a < l` ⇒ `1/2 ≤ |c/l| < 1`; the rounded quotient stays in
///   `[1/2, 1]`, `round` gives `±1`, `l·(±1) = ±l` exactly, and `c ∓ l` is
///   the same single rounded subtraction as before.
///
/// Everything else (`a ≥ l`, NaN, `c = ±∞`, `l ≤ 0`) fails both guards and
/// takes the original expression. The one input on which the two differ is
/// `l = +∞`, which no cell has: the old expression made NaN out of `∞·0`
/// there, this returns `c` unfolded.
#[inline]
pub(crate) fn image_shift(c: f64, l: f64) -> f64 {
    let a = c.abs();
    if a + a < l {
        0.0f64.copysign(c)
    } else if a < l {
        l.copysign(c)
    } else {
        l * (c / l).round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn volume_of_cube() {
        assert_eq!(Cell::cube(10.0).volume(), 1000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_lengths() {
        Cell::periodic(Vec3::ZERO, Vec3::new(10.0, 0.0, 10.0));
    }

    #[test]
    fn min_image_within_half_box() {
        let cell = Cell::cube(10.0);
        let a = Vec3::new(9.5, 0.0, 0.0);
        let b = Vec3::new(0.5, 0.0, 0.0);
        let d = cell.min_image(a, b);
        assert!((d.x - (-1.0)).abs() < 1e-12, "expected -1, got {}", d.x);
        assert!((cell.dist2(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_image_identity_for_close_points() {
        let cell = Cell::cube(20.0);
        let a = Vec3::new(3.0, 4.0, 5.0);
        let b = Vec3::new(2.0, 4.5, 5.5);
        assert_eq!(cell.min_image(a, b), a - b);
    }

    #[test]
    fn open_cell_never_wraps() {
        let cell = Cell::open(Vec3::ZERO, Vec3::splat(10.0));
        let a = Vec3::new(9.5, 0.0, 0.0);
        let b = Vec3::new(0.5, 0.0, 0.0);
        assert_eq!(cell.min_image(a, b), Vec3::new(9.0, 0.0, 0.0));
        assert_eq!(cell.wrap(Vec3::new(15.0, -3.0, 2.0)), Vec3::new(15.0, -3.0, 2.0));
    }

    #[test]
    fn wrap_into_primary_cell() {
        let cell = Cell::periodic(Vec3::new(-5.0, -5.0, -5.0), Vec3::splat(10.0));
        let p = cell.wrap(Vec3::new(6.0, -7.0, 123.0));
        assert!(cell.contains(p), "wrapped point {p:?} not inside cell");
        // x: 6 -> -4; y: -7 -> 3; z: 123 -> 3.
        assert!((p.x - (-4.0)).abs() < 1e-9);
        assert!((p.y - 3.0).abs() < 1e-9);
        assert!((p.z - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wrap_preserves_min_image_distances() {
        let cell = Cell::cube(12.0);
        let a = Vec3::new(100.2, -55.1, 7.3);
        let b = Vec3::new(98.9, -54.0, 8.0);
        let before = cell.dist2(a, b);
        let after = cell.dist2(cell.wrap(a), cell.wrap(b));
        assert!((before - after).abs() < 1e-9);
    }

    /// The expression `min_image` used before [`image_shift`] existed, kept
    /// as the reference the routine must reproduce bit for bit.
    fn fold_reference(c: f64, l: f64) -> f64 {
        c - l * (c / l).round()
    }

    /// `to_bits` equality of the folded component; NaN must stay NaN.
    fn assert_fold_exact(c: f64, l: f64) {
        let want = fold_reference(c, l);
        let got = c - image_shift(c, l);
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "c = {c:e} ({:#x}), l = {l:e}: got {got:e} ({:#x}), reference {want:e} ({:#x})",
            c.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }

    /// Box lengths the exactness tests sweep: dyadic, non-dyadic, the
    /// benchmark decks' own (apoa1-like × 0.04 and × 0.25), a power of two,
    /// tiny and huge.
    const LENGTHS: [f64; 11] = [
        10.0,
        36.3,
        108.86,
        38.303461205558015,
        28.72759590416851,
        70.5555787941129,
        52.91668409558467,
        64.0,
        1.0e-3,
        f64::MIN_POSITIVE,
        3.0e300,
    ];

    #[test]
    fn image_shift_matches_the_old_expression_on_random_displacements() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut next = || rng.gen::<f64>();
        for l in LENGTHS {
            for _ in 0..120_000 {
                assert_fold_exact((next() * 8.0 - 4.0) * l, l);
            }
        }
    }

    #[test]
    fn image_shift_matches_the_old_expression_at_every_branch_boundary() {
        for l in LENGTHS {
            for k in [0.5, 1.0, 1.5, 2.0, 2.5] {
                let b = k * l;
                let mut c = b;
                for _ in 0..4 {
                    c = c.next_down();
                }
                for _ in 0..9 {
                    assert_fold_exact(c, l);
                    assert_fold_exact(-c, l);
                    c = c.next_up();
                }
            }
        }
        // `round` is half-away-from-zero: both half-box faces change sign.
        assert_eq!(10.0 - image_shift(10.0, 20.0), -10.0);
        assert_eq!(-10.0 - image_shift(-10.0, 20.0), 10.0);
        let cell = Cell::cube(20.0);
        assert_eq!(
            cell.min_image(Vec3::new(10.0, -10.0, 0.0), Vec3::ZERO),
            Vec3::new(-10.0, 10.0, 0.0)
        );
    }

    #[test]
    fn image_shift_matches_the_old_expression_on_special_values() {
        let specials = [
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::from_bits(3),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        // Odd subnormal lengths are where `0.5 * l` would not be exact.
        let odd_subnormals = [f64::from_bits(1), f64::from_bits(3), f64::from_bits(0x7_0001)];
        for l in LENGTHS.into_iter().chain(odd_subnormals) {
            for c in specials {
                assert_fold_exact(c, l);
                assert_fold_exact(-c, l);
            }
            for bits in 0..64u64 {
                assert_fold_exact(f64::from_bits(bits), l);
                assert_fold_exact(-f64::from_bits(bits), l);
            }
        }
        // −0.0 comes out as +0.0, as it always has.
        assert_eq!((-0.0f64 - image_shift(-0.0, 36.3)).to_bits(), 0.0f64.to_bits());
        // Lengths the constructors refuse still take the old expression.
        for l in [0.0, -36.3, f64::NAN, f64::NEG_INFINITY] {
            for c in [0.0, -0.0, 1.0, -20.0, 40.0, f64::NAN, f64::INFINITY] {
                assert_fold_exact(c, l);
            }
        }
        // The documented exception: an infinite length no longer makes NaN.
        assert_eq!(5.0 - image_shift(5.0, f64::INFINITY), 5.0);
    }

    #[test]
    fn min_image_matches_the_old_expression_in_open_and_mixed_cells() {
        let lengths = Vec3::new(36.3, 108.86, 28.72759590416851);
        let origin = Vec3::new(-3.0, 0.5, 100.0);
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let mut next = || rng.gen::<f64>();
        for periodic in [[true; 3], [false; 3], [true, false, true], [false, true, false]] {
            let cell = Cell { origin, lengths, periodic };
            for _ in 0..20_000 {
                let mut p =
                    || Vec3::new(next() * 3.0 - 1.0, next() * 3.0 - 1.0, next() * 3.0 - 1.0);
                let (a, b) = (p(), p());
                let a = Vec3::new(a.x * lengths.x, a.y * lengths.y, a.z * lengths.z);
                let b = Vec3::new(b.x * lengths.x, b.y * lengths.y, b.z * lengths.z);
                let got = cell.min_image(a, b);
                let raw = a - b;
                for ax in 0..3 {
                    let want = if periodic[ax] {
                        fold_reference(raw.axis(ax), lengths.axis(ax))
                    } else {
                        raw.axis(ax)
                    };
                    assert_eq!(got.axis(ax).to_bits(), want.to_bits(), "axis {ax}, {periodic:?}");
                }
            }
        }
    }

    #[test]
    fn wrap_never_returns_the_excluded_upper_face() {
        // (-1e-17).rem_euclid(36.0) rounds to 36.0 itself.
        let cell = Cell::cube(36.0);
        let p = cell.wrap(Vec3::new(-1e-17, 36.0, -36.0));
        assert_eq!(p, Vec3::ZERO);
        assert!(cell.contains(p));
        // With an offset origin the sum `o + r` can round up to the face too.
        let cell = Cell::periodic(Vec3::splat(-5.0), Vec3::splat(10.0));
        for x in [-5.0 - 1e-17, 5.0f64.next_down(), 5.0, 15.0f64.next_down(), -15.0 - 1e-15] {
            let w = cell.wrap(Vec3::splat(x));
            assert!(cell.contains(w), "wrap({x:e}) = {w:?} left the half-open cell");
        }
        // A NaN coordinate stays visible instead of being folded to the origin.
        assert!(cell.wrap(Vec3::new(f64::NAN, 0.0, 0.0)).x.is_nan());
    }

    #[test]
    fn fractional_coordinates() {
        let cell = Cell::periodic(Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 4.0, 8.0));
        let f = cell.fractional(Vec3::new(2.0, 3.0, 5.0));
        assert!((f.x - 0.5).abs() < 1e-12);
        assert!((f.y - 0.5).abs() < 1e-12);
        assert!((f.z - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_half_open() {
        let cell = Cell::cube(10.0);
        assert!(cell.contains(Vec3::ZERO));
        assert!(!cell.contains(Vec3::new(10.0, 0.0, 0.0)));
        assert!(cell.contains(Vec3::new(9.999999, 0.0, 0.0)));
    }
}
