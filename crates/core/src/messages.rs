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
//!   components per element, in order.
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
        return Err(WireError(format!("{} trailing bytes after {what}", d.remaining())));
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
    out.extend(bytes.chunks_exact(24).map(|c| Vec3::new(f(&c[..8]), f(&c[8..16]), f(&c[16..]))));
    Ok(())
}

fn take_vecs(d: &mut Dec, label: &'static str) -> Result<Vec<Vec3>, WireError> {
    let mut out = Vec::new();
    take_vecs_into(d, label, &mut out)?;
    Ok(out)
}

fn put_acc(e: &mut Enc, s: &StepAcc) {
    for x in [
        s.e_lj,
        s.e_elec,
        s.e_bond,
        s.e_angle,
        s.e_dihedral,
        s.e_improper,
        s.e_restraint,
        s.kinetic,
    ] {
        e.f64(x);
    }
    e.u64(s.pairs);
}

fn take_acc(d: &mut Dec, label: &'static str) -> Result<StepAcc, WireError> {
    Ok(StepAcc {
        e_lj: d.f64(label)?,
        e_elec: d.f64(label)?,
        e_bond: d.f64(label)?,
        e_angle: d.f64(label)?,
        e_dihedral: d.f64(label)?,
        e_improper: d.f64(label)?,
        e_restraint: d.f64(label)?,
        kinetic: d.f64(label)?,
        pairs: d.u64(label)?,
    })
}

/// One compute's contribution to one home patch: a force per atom of the
/// patch and the energies riding with it.
#[derive(Debug, Clone, PartialEq)]
pub struct ForcePart {
    /// The fold key: the contributing compute's index in
    /// `decomp.computes` ([`RECIPROCAL`] for a PME slab's energy). An
    /// `ObjId` would not do — object numbering shifts with the proxy count.
    pub compute: u32,
    /// One force vector per atom of the destination patch; empty when the
    /// part carries only energy (a PME slab's reciprocal sum).
    pub block: Vec<Vec3>,
    /// The energies the compute evaluated this step: a compute attaches its
    /// record to its first patch's part and zeros to the rest.
    pub energy: StepAcc,
}

/// The fold key of the reciprocal-space energy: it folds after every
/// compute's part, as it does on one PE.
pub const RECIPROCAL: u32 = u32::MAX;

/// What travels on a force message to a home patch: the parts of the
/// computes it carries — one from a compute sent straight home, every local
/// compute's from a proxy, which forwards them as they came, adding
/// nothing. The home patch folds all of a step's parts in `compute` order,
/// which is the order one PE folds them in, so the force sums — and the
/// trajectory — do not depend on where the computes ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ForceMsg {
    pub parts: Vec<ForcePart>,
}

impl WireCodec for ForceMsg {
    fn pack(&self) -> Payload {
        let bytes = self.parts.iter().map(|p| 4 + 8 + 24 * p.block.len() + 72).sum::<usize>();
        let mut e = Enc::with_capacity(8 + bytes);
        e.u64(self.parts.len() as u64);
        for p in &self.parts {
            e.u32(p.compute);
            put_vecs(&mut e, &p.block);
            put_acc(&mut e, &p.energy);
        }
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        let n = d.u64("ForceMsg.len")? as usize;
        let mut parts = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            parts.push(ForcePart {
                compute: d.u32("ForceMsg.compute")?,
                block: take_vecs(&mut d, "ForceMsg.block")?,
                energy: take_acc(&mut d, "ForceMsg.energy")?,
            });
        }
        finish(&d, "ForceMsg")?;
        Ok(ForceMsg { parts })
    }
}

impl ForceMsg {
    /// One packed message carrying every part of the packed messages
    /// `msgs`, in order — what unpacking them, concatenating their parts and
    /// packing again gives, without decoding a block.
    pub fn concat(msgs: &[Payload]) -> Result<Payload, WireError> {
        let mut n = 0u64;
        for m in msgs {
            n += Dec::new(m).u64("ForceMsg.len")?;
        }
        let mut e = Enc::with_capacity(8 + msgs.iter().map(|m| m.len() - 8).sum::<usize>());
        e.u64(n);
        for m in msgs {
            e.0.extend_from_slice(&m[8..]);
        }
        Ok(e.into_bytes())
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
        Ok(PatchStateMsg { patch, positions, velocities, forces })
    }
}

/// Per-step energy records: each home patch's, shipped to the reducer on its
/// `done` message, and the reducer's fold of them, which the engine reads
/// back through `harvest_state`.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergiesMsg {
    /// Sending object's raw id (`ObjId.0`), used for deterministic folding.
    pub from: u32,
    pub steps: Vec<StepAcc>,
}

impl WireCodec for EnergiesMsg {
    fn pack(&self) -> Payload {
        let mut e = Enc::with_capacity(4 + 8 + 72 * self.steps.len());
        e.u32(self.from);
        e.u64(self.steps.len() as u64);
        for s in &self.steps {
            put_acc(&mut e, s);
        }
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        let from = d.u32("EnergiesMsg.from")?;
        let n = d.u64("EnergiesMsg.len")? as usize;
        let mut steps = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            steps.push(take_acc(&mut d, "EnergiesMsg.steps")?);
        }
        finish(&d, "EnergiesMsg")?;
        Ok(EnergiesMsg { from, steps })
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

    #[test]
    fn force_msg_round_trips_bit_exactly() {
        let energy = StepAcc { e_lj: -1.5, pairs: 9, ..Default::default() };
        let m = ForceMsg {
            parts: vec![
                ForcePart { compute: 17, block: vecs(3, 5), energy },
                ForcePart { compute: RECIPROCAL, block: Vec::new(), energy: StepAcc::default() },
            ],
        };
        let bytes = m.pack();
        assert!(!bytes.is_empty());
        assert_eq!(ForceMsg::unpack(&bytes).unwrap(), m);
    }

    #[test]
    fn concat_is_the_concatenation_of_the_parts() {
        let part = |compute, seed| ForcePart {
            compute,
            block: vecs(seed, 3),
            energy: StepAcc { e_bond: seed as f64, ..Default::default() },
        };
        let a = ForceMsg { parts: vec![part(4, 1)] };
        let b = ForceMsg { parts: vec![part(9, 2), part(2, 3)] };
        let joined = ForceMsg::concat(&[a.pack(), b.pack()]).unwrap();
        let all = ForceMsg { parts: vec![part(4, 1), part(9, 2), part(2, 3)] };
        assert_eq!(joined, all.pack());
        assert!(ForceMsg::concat(&[vec![1, 2]]).is_err());
    }

    #[test]
    fn coord_msg_round_trips_bit_exactly() {
        let m = CoordMsg { patch: 2, positions: vecs(9, 7) };
        assert_eq!(CoordMsg::unpack(&m.pack()).unwrap(), m);
    }

    #[test]
    fn barrier_msg_round_trips_bit_exactly() {
        let m = BarrierMsg { patch: 4, velocities: vecs(2, 3) };
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
            StepAcc {
                e_lj: 1.5,
                e_elec: -2.25,
                e_bond: 3.0,
                e_angle: 0.0,
                e_dihedral: -0.5,
                e_improper: 0.125,
                e_restraint: 9.75,
                kinetic: 4.5,
                pairs: 1234,
            },
            StepAcc::default(),
        ];
        let m = EnergiesMsg { from: 3, steps };
        assert_eq!(EnergiesMsg::unpack(&m.pack()).unwrap(), m);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let part = ForcePart { compute: 1, block: vecs(0, 2), energy: StepAcc::default() };
        let mut bytes = ForceMsg { parts: vec![part] }.pack();
        bytes.push(0);
        assert!(ForceMsg::unpack(&bytes).is_err());
        let mut bytes = BarrierMsg { patch: 0, velocities: vec![] }.pack();
        bytes.push(0);
        assert!(BarrierMsg::unpack(&bytes).is_err());
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = CoordMsg { patch: 1, positions: vecs(0, 2) }.pack();
        assert!(CoordMsg::unpack(&bytes[..bytes.len() - 1]).is_err());
        assert!(CoordMsg::unpack(&[]).is_err());
    }
}
