//! Wire message types exchanged between chares.
//!
//! Every payload that crosses an entry-method boundary is packed through one
//! of these types via [`charmrt::WireCodec`], so the exact same byte layout
//! travels through the DES scheduler, the in-process threads backend, and the
//! Unix-socket frames of the `proc` backend. The codecs are built on the
//! little-endian primitives shared with the checkpoint format
//! ([`charmrt::wire::Enc`] / [`charmrt::wire::Dec`]), which keeps the
//! serialization rules in one place: what a chare packs here is bit-for-bit
//! what a checkpoint or a socket frame would carry.
//!
//! Conventions:
//! - `Vec<Vec3>` fields are packed as a `u64` count followed by three `f64`
//!   components per element, in order; fixed-point forces likewise, as
//!   three `i64` [`Fixed`] values per force.
//! - Every `unpack` rejects trailing bytes, so a framing bug upstream fails
//!   loudly instead of silently truncating.
//! - An *empty* payload (zero bytes) is the "no data" signal throughout the
//!   engine; every packed message below is non-empty by construction, so the
//!   two cases cannot collide.

use charmrt::wire::{Dec, Enc};
use charmrt::{Payload, WireCodec, WireError};
use mdcore::vec3::Vec3;

use crate::state::StepAcc;

fn finish(d: &Dec, what: &str) -> Result<(), WireError> {
    if d.remaining() != 0 {
        return Err(WireError(format!(
            "{} trailing bytes after {what}",
            d.remaining()
        )));
    }
    Ok(())
}

fn put_vecs(e: &mut Enc, vs: &[Vec3]) {
    e.u64(vs.len() as u64);
    for v in vs {
        e.f64(v.x);
        e.f64(v.y);
        e.f64(v.z);
    }
}

/// Decode a vector list into `out`, reusing its allocation.
fn take_vecs_into(d: &mut Dec, label: &'static str, out: &mut Vec<Vec3>) -> Result<(), WireError> {
    let n = d.u64(label)? as usize;
    let bytes = d.take(n.saturating_mul(24), label)?;
    let f = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
    out.clear();
    out.extend(
        bytes
            .chunks_exact(24)
            .map(|c| Vec3::new(f(&c[..8]), f(&c[8..16]), f(&c[16..]))),
    );
    Ok(())
}

fn take_vecs(d: &mut Dec, label: &'static str) -> Result<Vec<Vec3>, WireError> {
    let mut out = Vec::new();
    take_vecs_into(d, label, &mut out)?;
    Ok(out)
}

/// Fixed-point units per kcal/mol/Å of force, 2^40: a resolution of
/// 9.1·10^-13 kcal/mol/Å over a range of ±8.4·10^6.
pub const FORCE_SCALE: f64 = (1u64 << 40) as f64;

/// Fixed-point units per kcal/mol of energy, 2^30: a resolution of
/// 9.3·10^-10 kcal/mol over a range of ±8.6·10^9.
pub const ENERGY_SCALE: f64 = (1u64 << 30) as f64;

/// A fixed-point value, in units of `1/scale` (SPFP's accumulation: Le
/// Grand, Götz & Walker, CPC 184:374, 2013). Sums are integer sums, exact
/// and associative: the same bits in every order and grouping. A NaN,
/// infinite or out-of-range value is [`Fixed::NON_FINITE`], and so is any
/// sum it enters or that leaves the range: nothing wraps, saturates or
/// becomes 0. (Only there can grouping matter: a partial sum past the
/// range is non-finite even if the rest would bring it back.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fixed(pub i64);

impl Fixed {
    /// `i64::MIN`, which no in-range value takes: the range is symmetric.
    pub const NON_FINITE: Fixed = Fixed(i64::MIN);

    /// `x` rounded to the nearest unit; checked, since `as` maps NaN to 0
    /// and saturates (2^63 is exact in f64, and NaN fails every
    /// comparison). Below 2^51 units, adding 1.5·2^52 leaves the rounded
    /// value (ties to even) in the low mantissa bits, which subtracting the
    /// constant's bits reads off with no float-to-integer instruction:
    /// `round`, a library call on x86-64, cost ~3× as much per value, and
    /// a compute converts every force it sends. From 2^51 on, a value is a
    /// multiple of one half, and truncating it is within half a unit.
    pub fn from_f64(x: f64, scale: f64) -> Fixed {
        const MAGIC: f64 = 6_755_399_441_055_744.0;
        let t = x * scale;
        if t.abs() < 2f64.powi(51) {
            Fixed((t + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i64)
        } else if t.abs() < 2f64.powi(63) {
            Fixed(t as i64)
        } else {
            Fixed::NON_FINITE
        }
    }

    pub fn to_f64(self, scale: f64) -> f64 {
        if self == Fixed::NON_FINITE {
            f64::NAN
        } else {
            self.0 as f64 / scale
        }
    }
}

impl std::ops::AddAssign for Fixed {
    fn add_assign(&mut self, other: Fixed) {
        *self = match self.0.checked_add(other.0) {
            Some(sum) if *self != Fixed::NON_FINITE && other != Fixed::NON_FINITE => Fixed(sum),
            _ => Fixed::NON_FINITE,
        };
    }
}

/// A fixed-point force back in kcal/mol/Å (NaN where non-finite).
pub fn force_f64(q: [Fixed; 3]) -> Vec3 {
    let [x, y, z] = q.map(|c| c.to_f64(FORCE_SCALE));
    Vec3::new(x, y, z)
}

/// A [`StepAcc`] in fixed point: its eight energies, in field order, at
/// [`ENERGY_SCALE`], and its pair count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedAcc {
    pub energies: [Fixed; 8],
    pub pairs: u64,
}

impl FixedAcc {
    pub fn from_f64(s: &StepAcc) -> FixedAcc {
        let energies = [
            s.e_lj,
            s.e_elec,
            s.e_bond,
            s.e_angle,
            s.e_dihedral,
            s.e_improper,
            s.e_restraint,
            s.kinetic,
        ];
        FixedAcc {
            energies: energies.map(|e| Fixed::from_f64(e, ENERGY_SCALE)),
            pairs: s.pairs,
        }
    }

    pub fn to_f64(&self) -> StepAcc {
        let [e_lj, e_elec, e_bond, e_angle, e_dihedral, e_improper, e_restraint, kinetic] =
            self.energies.map(|q| q.to_f64(ENERGY_SCALE));
        StepAcc {
            e_lj,
            e_elec,
            e_bond,
            e_angle,
            e_dihedral,
            e_improper,
            e_restraint,
            kinetic,
            pairs: self.pairs,
        }
    }

    fn put(&self, e: &mut Enc) {
        self.energies.iter().for_each(|q| e.i64(q.0));
        e.u64(self.pairs);
    }

    fn take(d: &mut Dec, label: &'static str) -> Result<FixedAcc, WireError> {
        let mut acc = FixedAcc::default();
        for q in &mut acc.energies {
            *q = Fixed(d.i64(label)?);
        }
        acc.pairs = d.u64(label)?;
        Ok(acc)
    }
}

impl std::ops::AddAssign for FixedAcc {
    fn add_assign(&mut self, other: FixedAcc) {
        self.energies
            .iter_mut()
            .zip(other.energies)
            .for_each(|(a, b)| *a += b);
        self.pairs += other.pairs;
    }
}

/// What travels on a force message to a home patch, and what a proxy and a
/// home patch add those messages into: a fixed-point force per atom of the
/// patch, in `decomp.grid.atoms[patch]` order (none on a PME slab's
/// energy-only message), and the energies riding with them. A compute
/// converts its f64 totals once, a proxy adds its PE's messages for the
/// patch into one, and the home patch adds whatever arrives — integer sums,
/// so the force, and the trajectory, depends neither on arrival order nor
/// on where the computes ran nor on which of them a proxy summed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForceMsg {
    pub block: Vec<[Fixed; 3]>,
    pub energy: FixedAcc,
}

impl WireCodec for ForceMsg {
    fn pack(&self) -> Payload {
        let mut e = Enc::with_capacity(8 + 24 * self.block.len() + 72);
        e.u64(self.block.len() as u64);
        self.block.iter().flatten().for_each(|q| e.i64(q.0));
        self.energy.put(&mut e);
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = ForceMsg::default();
        m.add_packed(bytes)?;
        Ok(m)
    }
}

impl ForceMsg {
    /// A compute's packed message: its f64 force block and energies, each
    /// value converted once. A force that does not convert makes the
    /// energies non-finite too, as a non-finite force makes the step's
    /// energies in f64.
    pub fn pack_f64(block: &[Vec3], energy: &StepAcc) -> Payload {
        let mut e = Enc::with_capacity(8 + 24 * block.len() + 72);
        e.u64(block.len() as u64);
        let mut finite = true;
        for c in block.iter().flat_map(|f| [f.x, f.y, f.z]) {
            let q = Fixed::from_f64(c, FORCE_SCALE);
            finite &= q != Fixed::NON_FINITE;
            e.i64(q.0);
        }
        let mut acc = FixedAcc::from_f64(energy);
        if !finite {
            acc.energies = [Fixed::NON_FINITE; 8];
        }
        acc.put(&mut e);
        e.into_bytes()
    }

    /// Add a packed message into this one straight from its bytes; an
    /// empty `block` takes the incoming length, and an incoming empty block
    /// adds energies only. A malformed message changes nothing.
    pub fn add_packed(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut d = Dec::new(bytes);
        let n = d.u64("ForceMsg.len")? as usize;
        let forces = d.take(n.saturating_mul(24), "ForceMsg.block")?;
        let energy = FixedAcc::take(&mut d, "ForceMsg.energy")?;
        finish(&d, "ForceMsg")?;
        if self.block.is_empty() {
            self.block.resize(n, Default::default());
        } else if n != 0 && n != self.block.len() {
            let have = self.block.len();
            return Err(WireError(format!(
                "a {n}-atom force block added to {have} atoms"
            )));
        }
        for (acc, q) in self.block.iter_mut().flatten().zip(forces.chunks_exact(8)) {
            *acc += Fixed(i64::from_le_bytes(q.try_into().expect("8-byte chunk")));
        }
        self.energy += energy;
        Ok(())
    }
}

/// Atom coordinates published by a home patch at the start of a step: to its
/// proxies and to the computes on its own PE, and forwarded by each proxy to
/// the computes on its PE. These bytes are the only positions a compute sees.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordMsg {
    /// Owning patch's raw id (patch index, not ObjId).
    pub patch: u32,
    /// Positions of the patch's atoms, in patch-local order.
    pub positions: Vec<Vec3>,
}

impl WireCodec for CoordMsg {
    fn pack(&self) -> Payload {
        let mut e = Enc::with_capacity(4 + 8 + 24 * self.positions.len());
        e.u32(self.patch);
        put_vecs(&mut e, &self.positions);
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Self, WireError> {
        let mut positions = Vec::new();
        let patch = CoordMsg::unpack_into(bytes, &mut positions)?;
        Ok(CoordMsg { patch, positions })
    }
}

impl CoordMsg {
    /// The `patch` of a packed message, without decoding its positions.
    pub fn peek_patch(bytes: &[u8]) -> Result<u32, WireError> {
        Ok(Dec::new(bytes).u32("CoordMsg.patch")?)
    }

    /// [`WireCodec::unpack`] that decodes the positions into `positions`,
    /// reusing its allocation, and returns the patch.
    pub fn unpack_into(bytes: &[u8], positions: &mut Vec<Vec3>) -> Result<u32, WireError> {
        let mut d = Dec::new(bytes);
        let patch = d.u32("CoordMsg.patch")?;
        take_vecs_into(&mut d, "CoordMsg.positions", positions)?;
        finish(&d, "CoordMsg")?;
        Ok(patch)
    }
}

/// One patch's contribution to the Berendsen barrier: the velocities of
/// its atoms. Sent from each [`crate::chares::HomePatch`] to the barrier
/// chare, which assembles the full-system temperature from these messages
/// alone — no shared-memory reads, so the same path works on every backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierMsg {
    /// Patch index.
    pub patch: u32,
    /// Velocities of the patch's atoms, in patch-local order.
    pub velocities: Vec<Vec3>,
}

impl WireCodec for BarrierMsg {
    fn pack(&self) -> Payload {
        let mut e = Enc::with_capacity(4 + 8 + 24 * self.velocities.len());
        e.u32(self.patch);
        put_vecs(&mut e, &self.velocities);
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        let patch = d.u32("BarrierMsg.patch")?;
        let velocities = take_vecs(&mut d, "BarrierMsg.velocities")?;
        finish(&d, "BarrierMsg")?;
        Ok(BarrierMsg { patch, velocities })
    }
}

/// What a home patch owns for the length of a phase — positions, velocities
/// and last total forces of its atoms — and what it hands back at phase end
/// through `harvest_state` for the engine to scatter into
/// [`crate::state::Shared::state`].
#[derive(Debug, Clone, PartialEq)]
pub struct PatchStateMsg {
    /// Patch index.
    pub patch: u32,
    pub positions: Vec<Vec3>,
    pub velocities: Vec<Vec3>,
    pub forces: Vec<Vec3>,
}

impl WireCodec for PatchStateMsg {
    fn pack(&self) -> Payload {
        let n = self.positions.len() + self.velocities.len() + self.forces.len();
        let mut e = Enc::with_capacity(4 + 24 + 24 * n);
        e.u32(self.patch);
        put_vecs(&mut e, &self.positions);
        put_vecs(&mut e, &self.velocities);
        put_vecs(&mut e, &self.forces);
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        let patch = d.u32("PatchStateMsg.patch")?;
        let positions = take_vecs(&mut d, "PatchStateMsg.positions")?;
        let velocities = take_vecs(&mut d, "PatchStateMsg.velocities")?;
        let forces = take_vecs(&mut d, "PatchStateMsg.forces")?;
        finish(&d, "PatchStateMsg")?;
        Ok(PatchStateMsg {
            patch,
            positions,
            velocities,
            forces,
        })
    }
}

/// Per-step energy records in fixed point: each home patch's, shipped to
/// the reducer on its `done` message, and the reducer's sum of them, which
/// the engine reads back through `harvest_state`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergiesMsg {
    pub steps: Vec<FixedAcc>,
}

impl WireCodec for EnergiesMsg {
    fn pack(&self) -> Payload {
        let mut e = Enc::with_capacity(8 + 72 * self.steps.len());
        e.u64(self.steps.len() as u64);
        self.steps.iter().for_each(|s| s.put(&mut e));
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        let n = d.u64("EnergiesMsg.len")? as usize;
        let steps = (0..n).map(|_| FixedAcc::take(&mut d, "EnergiesMsg.steps"));
        let steps = steps.collect::<Result<_, _>>()?;
        finish(&d, "EnergiesMsg")?;
        Ok(EnergiesMsg { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(seed: u64, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let b = (seed as f64) * 0.25 + i as f64;
                Vec3::new(b + 0.125, -b * 3.5, b * b)
            })
            .collect()
    }

    /// A few compute messages for one 6-atom patch: random forces spanning
    /// six decades, random energies; one message carries energies only.
    fn random_messages() -> Vec<Payload> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            mantissa * 10f64.powi((x % 7) as i32 - 2)
        };
        let mut msgs: Vec<Payload> = (0..9)
            .map(|k| {
                let block: Vec<Vec3> = (0..6).map(|_| Vec3::new(next(), next(), next())).collect();
                let energy = StepAcc {
                    e_lj: next(),
                    e_bond: next(),
                    pairs: k,
                    ..Default::default()
                };
                ForceMsg::pack_f64(&block, &energy)
            })
            .collect();
        let reciprocal = StepAcc {
            e_elec: next(),
            ..Default::default()
        };
        msgs.push(ForceMsg::pack_f64(&[], &reciprocal));
        msgs
    }

    fn sum(msgs: &[&Payload]) -> ForceMsg {
        let mut acc = ForceMsg::default();
        for m in msgs {
            acc.add_packed(m).unwrap();
        }
        acc
    }

    #[test]
    fn force_sums_have_the_same_bits_in_every_order_and_grouping() {
        let msgs = random_messages();
        let in_order: Vec<&Payload> = msgs.iter().collect();
        let reference = sum(&in_order);
        assert_eq!(reference.block.len(), 6);
        let mut order = in_order.clone();
        for rotate in 1..msgs.len() {
            order.rotate_left(rotate);
            order.swap(0, rotate % 3);
            assert_eq!(sum(&order), reference, "permutation {rotate}");
            order.reverse();
            assert_eq!(sum(&order), reference, "reversed permutation {rotate}");
        }
        // Two proxies, each adding its PE's messages into one before the
        // home patch adds theirs: the split changes no bit either.
        for split in 1..msgs.len() {
            let (a, b) = in_order.split_at(split);
            let proxies = [sum(a).pack(), sum(b).pack()];
            assert_eq!(
                sum(&[&proxies[1], &proxies[0]]),
                reference,
                "split at {split}"
            );
        }
    }

    #[test]
    fn non_finite_and_out_of_range_values_never_convert_silently() {
        // 2^63 units of 2^-40 kcal/mol/Å is 2^23 = 8,388,608 kcal/mol/Å.
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e30,
            -1e30,
            8388608.0,
            -8388608.0,
        ] {
            assert_eq!(Fixed::from_f64(x, FORCE_SCALE), Fixed::NON_FINITE, "{x}");
            assert!(Fixed::from_f64(x, FORCE_SCALE).to_f64(FORCE_SCALE).is_nan());
        }
        for x in [0.0, -0.0, 1.5, -8.3e6, 8388607.0, 1e-13, -2.5e-12] {
            let q = Fixed::from_f64(x, FORCE_SCALE);
            assert_ne!(q, Fixed::NON_FINITE, "{x}");
            assert!(
                (q.to_f64(FORCE_SCALE) - x).abs() <= 0.5 / FORCE_SCALE,
                "{x}"
            );
        }
        // A non-finite operand, or a sum leaving the range, is non-finite.
        let mut q = Fixed(5);
        q += Fixed::NON_FINITE;
        assert_eq!(q, Fixed::NON_FINITE);
        let mut q = Fixed::NON_FINITE;
        q += Fixed(5);
        assert_eq!(q, Fixed::NON_FINITE);
        let mut q = Fixed(i64::MAX - 1);
        q += Fixed(2);
        assert_eq!(q, Fixed::NON_FINITE);
        let mut q = Fixed(-i64::MAX);
        q += Fixed(-1);
        assert_eq!(
            q,
            Fixed::NON_FINITE,
            "the sentinel is not a value a sum may land on"
        );

        // A bad force poisons its message's forces and energies, and the
        // patch total and the step's energies it is added into.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e30] {
            let block = [Vec3::new(1.0, bad, 2.0), Vec3::new(3.0, 4.0, 5.0)];
            let e_lj = StepAcc {
                e_lj: 1.0,
                ..Default::default()
            };
            let mut home = sum(&[&ForceMsg::pack_f64(&vecs(1, 2), &StepAcc::default())]);
            home.add_packed(&ForceMsg::pack_f64(&block, &e_lj)).unwrap();
            assert!(force_f64(home.block[0]).y.is_nan(), "{bad}");
            assert!(
                force_f64(home.block[1]).is_finite(),
                "{bad}: the other atoms stay finite"
            );
            let e = home.energy.to_f64();
            assert!(
                e.e_lj.is_nan() && e.kinetic.is_nan() && e.total().is_nan(),
                "{bad}"
            );
            let mut step = FixedAcc::from_f64(&StepAcc {
                kinetic: 3.0,
                ..Default::default()
            });
            step += home.energy;
            assert!(step.to_f64().total().is_nan(), "{bad}");
        }
        // A non-finite energy alone poisons that term.
        let e = FixedAcc::from_f64(&StepAcc {
            e_bond: f64::NAN,
            e_lj: 2.0,
            ..Default::default()
        });
        assert!(e.to_f64().e_bond.is_nan());
        assert_eq!(e.to_f64().e_lj, 2.0);
    }

    #[test]
    fn conversion_rounds_to_the_nearest_unit() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for k in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = f64::from_bits(x) % 9.2e18;
            let t = match k % 3 {
                0 => t,
                1 => t % 1e6,
                _ => t.trunc() % 4e15 + 0.5,
            };
            if t.is_finite() {
                let q = Fixed::from_f64(t, 1.0).0;
                assert!((q as f64 - t).abs() <= 0.5, "{t:e} -> {q}");
                if t.abs() < 2f64.powi(51) {
                    assert_eq!(q, t.round_ties_even() as i64, "{t:e}");
                }
            }
        }
    }

    #[test]
    fn force_msg_round_trips_bit_exactly() {
        let energy = StepAcc {
            e_lj: -1.5,
            pairs: 9,
            ..Default::default()
        };
        for block in [vecs(3, 5), Vec::new()] {
            let bytes = ForceMsg::pack_f64(&block, &energy);
            assert_eq!(bytes.len(), 8 + 24 * block.len() + 72);
            let m = ForceMsg::unpack(&bytes).unwrap();
            assert_eq!(m.pack(), bytes);
            assert_eq!(
                m.energy.to_f64(),
                energy,
                "energies in range come back exactly"
            );
            let forces: Vec<Vec3> = m.block.iter().map(|&q| force_f64(q)).collect();
            assert_eq!(forces, block);
        }
    }

    #[test]
    fn mismatched_blocks_are_rejected_and_change_nothing() {
        let mut acc = sum(&[&ForceMsg::pack_f64(&vecs(1, 3), &StepAcc::default())]);
        let before = acc.clone();
        let e_lj = StepAcc {
            e_lj: 1.0,
            ..Default::default()
        };
        let four = ForceMsg::pack_f64(&vecs(2, 4), &e_lj);
        assert!(acc.add_packed(&four).is_err());
        assert_eq!(acc, before);
    }

    #[test]
    fn coord_msg_round_trips_bit_exactly() {
        let m = CoordMsg {
            patch: 2,
            positions: vecs(9, 7),
        };
        assert_eq!(CoordMsg::unpack(&m.pack()).unwrap(), m);
    }

    #[test]
    fn barrier_msg_round_trips_bit_exactly() {
        let m = BarrierMsg {
            patch: 4,
            velocities: vecs(2, 3),
        };
        assert_eq!(BarrierMsg::unpack(&m.pack()).unwrap(), m);
    }

    #[test]
    fn patch_state_msg_round_trips_bit_exactly() {
        let m = PatchStateMsg {
            patch: 8,
            positions: vecs(5, 4),
            velocities: vecs(6, 4),
            forces: vecs(7, 4),
        };
        assert_eq!(PatchStateMsg::unpack(&m.pack()).unwrap(), m);
    }

    #[test]
    fn energies_msg_round_trips_bit_exactly() {
        let steps = vec![
            FixedAcc::from_f64(&StepAcc {
                e_lj: 1.5,
                e_elec: -2.25,
                e_bond: 3.0,
                e_angle: 0.0,
                e_dihedral: -0.5,
                e_improper: 0.125,
                e_restraint: 9.75,
                kinetic: 4.5,
                pairs: 1234,
            }),
            FixedAcc {
                energies: [Fixed::NON_FINITE; 8],
                pairs: 0,
            },
            FixedAcc::default(),
        ];
        let m = EnergiesMsg { steps };
        assert_eq!(EnergiesMsg::unpack(&m.pack()).unwrap(), m);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = ForceMsg::pack_f64(&vecs(0, 2), &StepAcc::default());
        bytes.push(0);
        assert!(ForceMsg::unpack(&bytes).is_err());
        let mut bytes = BarrierMsg {
            patch: 0,
            velocities: vec![],
        }
        .pack();
        bytes.push(0);
        assert!(BarrierMsg::unpack(&bytes).is_err());
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = CoordMsg {
            patch: 1,
            positions: vecs(0, 2),
        }
        .pack();
        assert!(CoordMsg::unpack(&bytes[..bytes.len() - 1]).is_err());
        assert!(CoordMsg::unpack(&[]).is_err());
    }
}
