//! The chare implementations: home patches, proxy patches, compute objects,
//! and the completion reducer (§3.1). Backend-agnostic: the same objects run
//! on the DES and on real worker threads (see `charmrt::Runtime`).
//!
//! Per-step protocol (all message-driven, no barriers):
//!
//! 1. A home patch *publishes* its coordinates, packed once: one multicast
//!    to its proxy patches (§4.2.3's costed naive/optimized multicast) and a
//!    ready message to each co-located compute.
//! 2. A proxy receives the coordinates and forwards them on a ready message
//!    to each compute on its processor.
//! 3. A compute that has heard from all of its (1 or 2+) patches self-enqueues
//!    an execute message; the execution runs the force kernels on the
//!    coordinates it was sent (or replays counted work), then sends one force
//!    message per involved patch — the payload carries that patch's force
//!    contributions in fixed point, in the patch's atom order, and the first
//!    one the compute's energies — to the patch's local representative (home
//!    patch or proxy).
//! 4. A proxy adds its local force contributions into one block as they
//!    arrive and, once it has them all, sends that on one force message to
//!    the home patch.
//! 5. A home patch adds each force message into its integer sum as it
//!    arrives; once it has them all it self-enqueues *integrate*: convert
//!    the sum to f64 once, velocity-Verlet update of the atoms it owns from
//!    those forces (BAOAB under the Langevin thermostat), then
//!    publish the next step's coordinates (this is the entry method the
//!    multicast optimization halves), or report completion and its per-step
//!    energies to the reducer after the final step. Under the Berendsen
//!    thermostat the update pauses halfway at every step s ≥ 1 at the
//!    barrier ([`BarrierChare`]), the one per-step global sum. Nothing in a
//!    phase touches the filesystem: checkpoints are written between phases
//!    by `recovery::advance`.
//!
//! Thread safety: one owner per datum. A home patch is the only reader and
//! writer of its atoms' positions, velocities and forces for the length of a
//! phase, and a non-bonded compute of its pair list; everything else sees
//! copies that arrived in messages, so handlers never race and none takes
//! the between-phase `Shared::state` lock.

use crate::config::{ForceMode, Thermostat};
use crate::costmodel;
use crate::decomp::ComputeKind;
use crate::messages::{
    force_f64, BarrierMsg, CoordMsg, EnergiesMsg, FixedAcc, ForceMsg, PatchStateMsg,
};
use crate::nbcache::ComputeCacheEntry;
use crate::patchgrid::PatchId;
use crate::state::{Shared, StepAcc};
use charmrt::wire::{Dec, Enc};
use charmrt::{
    Chare, Ctx, EntryId, MulticastMode, ObjId, Payload, Runtime, WireCodec, WireError, PRIO_HIGH,
    PRIO_NORMAL,
};
use mdcore::bonded::{angle_force, bond_force, dihedral_force, improper_force, restraint_force};
use mdcore::forcefield::units;
use mdcore::thermostat::{Berendsen, OuRefresh};
use mdcore::vec3::Vec3;
use profile::PairlistCounters;
use std::collections::HashMap;
use std::sync::Arc;

// Forces and energies travel as packed [`ForceMsg`] payloads in fixed
// point: a compute converts its f64 totals once, and every sum after
// that — a proxy's over its PE's computes, a home patch's over what
// arrives, the reducer's over the patches — is an integer sum, exact and
// associative. The force a home patch integrates, and the energies, are
// therefore a pure function of the positions and the decomposition: not of
// message arrival order, not of the placement, and not of which computes a
// proxy summed. That makes every backend's and every PE count's trajectory
// bitwise reproducible, which is what lets a checkpoint-resumed run (or a
// multi-process run, or a rebalanced one) reproduce an uninterrupted 1-PE
// run bit for bit.

/// Modeled size of a header-only message — what `Ctx::signal` charges.
const SIGNAL_BYTES: usize = 32;

/// Tell `computes` a patch is ready, handing each its packed coordinates.
/// Costed as separate header-only sends (`Naive` packs per destination);
/// the last compute takes the buffer itself, the others copies.
fn ready_all(ctx: &mut Ctx, computes: &[ObjId], ready: EntryId, coords: Payload) {
    ctx.multicast(
        computes,
        ready,
        SIGNAL_BYTES,
        PRIO_NORMAL,
        MulticastMode::Naive,
        coords,
    );
}

/// Entry-method ids shared by all chares, registered once per engine run.
#[derive(Debug, Clone, Copy)]
pub struct Entries {
    /// Home patch: bootstrap / begin step 0.
    pub start: EntryId,
    /// Home patch: a force contribution arrived.
    pub patch_forces: EntryId,
    /// Home patch: integrate + publish (self-enqueued).
    pub integrate: EntryId,
    /// Proxy: coordinates arrived from home.
    pub proxy_coords: EntryId,
    /// Proxy: a local force contribution arrived.
    pub proxy_forces: EntryId,
    /// Compute: one of my patches is ready.
    pub ready: EntryId,
    /// Compute: execute (self-enqueued once all patches are ready).
    pub exec_self: EntryId,
    /// Compute: execute for pair computes.
    pub exec_pair: EntryId,
    /// Compute: execute for intra-patch bonded computes.
    pub exec_bonded: EntryId,
    /// Compute: execute for inter-patch bonded computes.
    pub exec_bonded_inter: EntryId,
    /// Reducer: one patch finished all steps.
    pub done: EntryId,
    /// PME slab: a patch's charge contribution arrived.
    pub slab_charge: EntryId,
    /// PME slab: a transpose block arrived from another slab.
    pub slab_transpose: EntryId,
    /// Barrier chare: a patch reached the Berendsen barrier.
    pub barrier_ready: EntryId,
    /// Home patch: the barrier completed, carrying the Berendsen rescale
    /// factor; finish the step.
    pub barrier_resume: EntryId,
}

impl Entries {
    /// Register all entry methods on any runtime backend.
    pub fn register(rt: &mut dyn Runtime) -> Entries {
        Entries {
            start: rt.register_entry("PatchStart"),
            patch_forces: rt.register_entry("PatchRecvForces"),
            integrate: rt.register_entry("Integrate"),
            proxy_coords: rt.register_entry("ProxyRecvCoords"),
            proxy_forces: rt.register_entry("ProxyRecvForces"),
            ready: rt.register_entry("ComputeReady"),
            exec_self: rt.register_entry("NonbondedSelf"),
            exec_pair: rt.register_entry("NonbondedPair"),
            exec_bonded: rt.register_entry("BondedIntra"),
            exec_bonded_inter: rt.register_entry("BondedInter"),
            done: rt.register_entry("Done"),
            slab_charge: rt.register_entry("PmeSlabCharges"),
            slab_transpose: rt.register_entry("PmeSlabFft"),
            // Appended after the pre-existing entries so their ids (and any
            // fault-plan/trace references to them) stay stable.
            barrier_ready: rt.register_entry("BarrierReady"),
            barrier_resume: rt.register_entry("BarrierResume"),
        }
    }

    /// The entry ids that represent non-bonded work (for Figures 1-2).
    pub fn nonbonded(&self) -> [EntryId; 2] {
        [self.exec_self, self.exec_pair]
    }
}

/// Static per-run parameters shared by the patch/compute chares.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    pub n_steps: usize,
    pub dt_fs: f64,
    pub force_mode: ForceMode,
    pub multicast: MulticastMode,
    /// PME cadence: reciprocal space evaluated on the global steps
    /// (`step_offset + step`) that are multiples of `pme_every`, and its
    /// force applied `pme_every`-fold as an impulse (r-RESPA); 0 disables
    /// PME.
    pub pme_every: usize,
    /// Pair-list margin beyond the cutoff, Å (NAMD's `pairlistdist` minus
    /// the cutoff); each non-bonded compute reuses its list until an atom
    /// has moved half of it.
    pub pairlist_margin: f64,
    /// Global position updates completed before this phase started, so the
    /// Langevin noise keys and the PME cadence survive phase chaining and
    /// resume.
    pub step_offset: usize,
    /// Temperature control (Real mode).
    pub thermostat: Thermostat,
}

/// A home patch: owns a cube of space and its atoms; integrates them.
pub struct HomePatch {
    pub patch: PatchId,
    shared: Arc<Shared>,
    entries: Entries,
    params: RunParams,
    /// Proxy patch objects to multicast coordinates to.
    proxies: Vec<ObjId>,
    /// Co-located computes to ready-signal on publish.
    local_computes: Vec<ObjId>,
    /// Force messages expected per step (co-located computes needing this
    /// patch + one gathered message per proxy).
    expected: usize,
    received: usize,
    /// This patch's atoms in `decomp.grid.atoms[patch]` order: positions,
    /// velocities and the current step's total force. The patch is their
    /// only reader and writer for the phase; `harvest_state` hands them
    /// back.
    atoms: PatchStateMsg,
    masses: Vec<f64>,
    /// This step's force messages, added up as they arrive (see
    /// [`ForceMsg`]); converted into `atoms.forces` at integration.
    sum: ForceMsg,
    /// Per-step energies of this patch: what its force messages carried
    /// plus its atoms' kinetic energy (Real mode; all zero otherwise).
    energies: Vec<FixedAcc>,
    step: usize,
    reducer: ObjId,
    /// Whether the velocity half-kick from the previous step is pending.
    started: bool,
    /// PME: the slab object this patch contributes charges to.
    slab: Option<ObjId>,
    /// The barrier chare, registered under the Berendsen thermostat.
    barrier: Option<ObjId>,
    /// Langevin: BAOAB's velocity refresh.
    refresh: Option<OuRefresh>,
}

impl HomePatch {
    /// `system` is the between-phase state the patch takes its atoms from.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        patch: PatchId,
        shared: Arc<Shared>,
        system: &mdcore::system::System,
        entries: Entries,
        params: RunParams,
        proxies: Vec<ObjId>,
        local_computes: Vec<ObjId>,
        expected: usize,
        reducer: ObjId,
        slab: Option<ObjId>,
        barrier: Option<ObjId>,
    ) -> Self {
        let ids = &shared.decomp.grid.atoms[patch];
        let of = |all: &[Vec3]| ids.iter().map(|&a| all[a as usize]).collect();
        let atoms = PatchStateMsg {
            patch: patch as u32,
            positions: of(&system.positions),
            velocities: of(&system.velocities),
            forces: vec![Vec3::ZERO; ids.len()],
        };
        let masses = ids
            .iter()
            .map(|&a| shared.frame.topology.atoms[a as usize].mass)
            .collect();
        let sum = ForceMsg {
            block: vec![Default::default(); ids.len()],
            ..Default::default()
        };
        let refresh = match params.thermostat {
            Thermostat::Langevin {
                target_k,
                gamma,
                seed,
            } => Some(OuRefresh::new(target_k, gamma, params.dt_fs, seed)),
            _ => None,
        };
        HomePatch {
            patch,
            shared,
            entries,
            params,
            proxies,
            local_computes,
            expected,
            received: 0,
            atoms,
            masses,
            sum,
            energies: vec![FixedAcc::default(); params.n_steps],
            step: 0,
            reducer,
            started: false,
            slab,
            barrier,
            refresh,
        }
    }

    /// Is PME evaluated on the *current* step? Keyed on the global step, so
    /// a phase's bootstrap evaluation repeats its predecessor's final one
    /// and the cadence does not depend on how a run is sliced into phases.
    fn pme_step(&self) -> bool {
        self.slab.is_some()
            && self.params.pme_every > 0
            && (self.params.step_offset + self.step).is_multiple_of(self.params.pme_every)
    }

    /// Force/potential messages expected for the current step.
    fn expected_now(&self) -> usize {
        self.expected + usize::from(self.pme_step())
    }

    fn n_atoms(&self) -> usize {
        self.masses.len()
    }

    /// Send this step's coordinates, packed once, to proxies and co-located
    /// computes — the only positions any other object sees; on PME steps,
    /// also spread charges and ship them to this patch's slab.
    fn publish(&self, ctx: &mut Ctx) {
        let bytes = self.n_atoms() * costmodel::BYTES_PER_ATOM;
        let coords = match self.params.force_mode {
            ForceMode::Real => CoordMsg {
                patch: self.atoms.patch,
                positions: self.atoms.positions.clone(),
            }
            .pack(),
            // Counted mode has no live state to ship.
            ForceMode::Counted => Vec::new(),
        };
        ctx.multicast(
            &self.proxies,
            self.entries.proxy_coords,
            bytes,
            PRIO_HIGH,
            self.params.multicast,
            coords.clone(),
        );
        let for_slab = self.pme_step().then(|| coords.clone());
        ready_all(ctx, &self.local_computes, self.entries.ready, coords);
        if let Some(coords) = for_slab {
            // Charge spreading (half of WORK_PME_PER_ATOM; gathering happens
            // at integration) and the charge-grid message to the slab.
            ctx.add_work(self.n_atoms() as f64 * costmodel::WORK_PME_PER_ATOM * 0.5);
            ctx.send(
                self.slab.expect("pme_step implies slab"),
                self.entries.slab_charge,
                bytes,
                PRIO_NORMAL,
                coords,
            );
        }
    }

    /// First half of the step's velocity-Verlet update (Real mode): convert
    /// the step's force sum to f64 once (and reset it), complete the
    /// previous step's second half-kick, and record kinetic energy. Leaves
    /// the step's total force in `atoms.forces` so
    /// [`HomePatch::integrate_second_half`] re-derives the bitwise-identical
    /// acceleration — which is what lets the Berendsen barrier split the
    /// step without changing any bits.
    fn integrate_first_half(&mut self) {
        for (f, q) in self.atoms.forces.iter_mut().zip(&mut self.sum.block) {
            *f = force_f64(std::mem::take(q));
        }
        let mut energy = std::mem::take(&mut self.sum.energy);
        // Reciprocal-space forces are added only on PME steps, weighted
        // by the cadence (r-RESPA's impulse; ×1.0 at every step is exact).
        let pme = if self.pme_step() {
            self.shared.pme_real.as_ref().map(|m| m.lock().unwrap())
        } else {
            None
        };
        let weight = self.params.pme_every as f64;
        let ids = &self.shared.decomp.grid.atoms[self.patch];
        let dt = self.params.dt_fs;

        let mut kinetic = 0.0;
        for slot in 0..self.masses.len() {
            if let Some(pr) = &pme {
                self.atoms.forces[slot] += pr.forces[ids[slot] as usize] * weight;
            }
            let m = self.masses[slot];
            let acc = self.atoms.forces[slot] * (units::ACCEL / m);
            // Complete the previous step's second half-kick.
            if self.started {
                self.atoms.velocities[slot] += acc * (0.5 * dt);
            }
            let v = self.atoms.velocities[slot];
            kinetic += 0.5 * m * v.norm2() * units::KE;
        }
        energy += FixedAcc::from_f64(&StepAcc {
            kinetic,
            ..Default::default()
        });
        self.energies[self.step] = energy;
    }

    /// Second half of the step (Real mode): first half-kick and drift into
    /// the next configuration — under Langevin, BAOAB's half drift, velocity
    /// refresh and half drift, keyed by the global step of the update. The
    /// acceleration is recomputed from the force saved by the first half —
    /// an exact f64 round trip, so the split step is bitwise identical to
    /// the unsplit one. The phase's final step evaluates forces but does not
    /// move, exactly as before.
    fn integrate_second_half(&mut self) {
        if self.step + 1 == self.params.n_steps {
            return;
        }
        let cell = &self.shared.frame.cell;
        let ids = &self.shared.decomp.grid.atoms[self.patch];
        let dt = self.params.dt_fs;
        let step = (self.params.step_offset + self.step) as u64;
        for slot in 0..self.masses.len() {
            let m = self.masses[slot];
            let acc = self.atoms.forces[slot] * (units::ACCEL / m);
            self.atoms.velocities[slot] += acc * (0.5 * dt);
            let x = self.atoms.positions[slot];
            let v = self.atoms.velocities[slot];
            self.atoms.positions[slot] = match &self.refresh {
                Some(ou) => {
                    let half = cell.wrap(x + v * (0.5 * dt));
                    let v = ou.apply(v, m, ids[slot] as u64, step);
                    self.atoms.velocities[slot] = v;
                    cell.wrap(half + v * (0.5 * dt))
                }
                None => cell.wrap(x + v * dt),
            };
        }
    }

    /// Does the *current* step pause at the barrier after its first
    /// integration half? Every step under Berendsen but step 0: chained
    /// phases repeat the boundary force evaluation, and the previous
    /// phase's final step already paused on this state.
    fn barrier_now(&self) -> bool {
        self.barrier.is_some() && self.step > 0
    }

    /// Complete the current step after the (possible) Berendsen barrier:
    /// drift into the next configuration, advance the step counter, and
    /// publish the next coordinates or report completion to the reducer.
    fn finish_step(&mut self, ctx: &mut Ctx) {
        if self.params.force_mode == ForceMode::Real {
            self.integrate_second_half();
        }
        self.started = true;
        self.step += 1;
        if self.step < self.params.n_steps {
            self.publish(ctx);
        } else {
            let energies = match self.params.force_mode {
                ForceMode::Real => EnergiesMsg {
                    steps: std::mem::take(&mut self.energies),
                }
                .pack(),
                ForceMode::Counted => Vec::new(),
            };
            ctx.send(
                self.reducer,
                self.entries.done,
                SIGNAL_BYTES,
                PRIO_NORMAL,
                energies,
            );
        }
    }

    /// This patch's post-half-kick velocities v_k for the barrier chare,
    /// which may live in a different OS process.
    fn pack_barrier(&self) -> Payload {
        BarrierMsg {
            patch: self.atoms.patch,
            velocities: self.atoms.velocities.clone(),
        }
        .pack()
    }
}

impl Chare for HomePatch {
    fn receive(&mut self, entry: EntryId, payload: Payload, ctx: &mut Ctx) {
        if entry == self.entries.start {
            // Bootstrap: publish step-0 coordinates.
            self.publish(ctx);
        } else if entry == self.entries.patch_forces {
            // Signal-only messages (Counted mode, most PME potential blocks)
            // are empty, and every packed `ForceMsg` is not.
            if !payload.is_empty() {
                self.sum
                    .add_packed(&payload)
                    .expect("malformed ForceMsg payload");
            }
            self.received += 1;
            debug_assert!(self.received <= self.expected_now());
            if self.received == self.expected_now() {
                self.received = 0;
                // Integration is its own entry method so the trace and the
                // audit see it separately from cheap force receives.
                ctx.signal(ctx.this(), self.entries.integrate, PRIO_HIGH);
            }
        } else if entry == self.entries.integrate {
            ctx.add_work(self.n_atoms() as f64 * costmodel::WORK_PER_ATOM_INTEGRATION);
            if self.pme_step() {
                // Gather reciprocal-space forces from the potential grid.
                ctx.add_work(self.n_atoms() as f64 * costmodel::WORK_PME_PER_ATOM * 0.5);
            }
            if self.params.force_mode == ForceMode::Real {
                self.integrate_first_half();
                if self.barrier_now() {
                    // Berendsen barrier: pause at the post-half-kick
                    // velocities and ship them to the barrier chare, which
                    // resumes every patch with the rescale factor.
                    let barrier = self.barrier.expect("barrier_now implies a barrier chare");
                    let state = self.pack_barrier();
                    ctx.send(
                        barrier,
                        self.entries.barrier_ready,
                        SIGNAL_BYTES,
                        PRIO_HIGH,
                        state,
                    );
                    return;
                }
            }
            self.finish_step(ctx);
        } else if entry == self.entries.barrier_resume {
            let lambda = <[u8; 8]>::try_from(&payload[..]).expect("an 8-byte rescale factor");
            let lambda = f64::from_le_bytes(lambda);
            for v in &mut self.atoms.velocities {
                *v *= lambda;
            }
            self.finish_step(ctx);
        } else {
            unreachable!("HomePatch got unexpected entry {entry:?}");
        }
    }

    /// This patch's end-of-phase atoms (positions, velocities, last forces),
    /// which the engine scatters into the between-phase state. Real mode
    /// only — Counted mode never touches the atom arrays.
    fn harvest_state(&self) -> Payload {
        if self.params.force_mode != ForceMode::Real {
            return Vec::new();
        }
        self.atoms.pack()
    }

    /// `proc` backend: take over the atoms a worker process's copy of this
    /// patch harvested.
    fn merge_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let msg = PatchStateMsg::unpack(bytes)?;
        if msg.patch != self.atoms.patch {
            return Err(WireError(format!(
                "patch state for patch {} merged into patch {}",
                msg.patch, self.patch
            )));
        }
        let n = self.n_atoms();
        if msg.positions.len() != n || msg.velocities.len() != n || msg.forces.len() != n {
            return Err(WireError(format!(
                "patch {} state carries {} atoms, expected {n}",
                self.patch,
                msg.positions.len(),
            )));
        }
        self.atoms = msg;
        Ok(())
    }
}

/// A proxy patch: stands in for a remote home patch on this processor,
/// forwarding its coordinates to the local computes and the sum of their
/// force contributions, on one message, to the home patch.
pub struct ProxyPatch {
    entries: Entries,
    home: ObjId,
    /// Computes on this PE that need this patch.
    local_computes: Vec<ObjId>,
    /// Force contributions expected per step (= local_computes needing it).
    expected: usize,
    received: usize,
    /// This step's force messages added into one; `None` until the first
    /// arrives (Counted mode sends none).
    sum: Option<ForceMsg>,
    n_atoms: usize,
    /// Unpacking cost per coordinate message, work units.
    unpack_work: f64,
}

impl ProxyPatch {
    pub fn new(
        entries: Entries,
        home: ObjId,
        local_computes: Vec<ObjId>,
        expected: usize,
        n_atoms: usize,
    ) -> Self {
        ProxyPatch {
            entries,
            home,
            local_computes,
            expected,
            received: 0,
            sum: None,
            n_atoms,
            unpack_work: n_atoms as f64 * 0.3,
        }
    }
}

impl Chare for ProxyPatch {
    fn receive(&mut self, entry: EntryId, payload: Payload, ctx: &mut Ctx) {
        if entry == self.entries.proxy_coords {
            ctx.add_work(self.unpack_work);
            ready_all(ctx, &self.local_computes, self.entries.ready, payload);
        } else if entry == self.entries.proxy_forces {
            if !payload.is_empty() {
                let sum = self.sum.get_or_insert_with(ForceMsg::default);
                sum.add_packed(&payload)
                    .expect("malformed ForceMsg payload");
            }
            self.received += 1;
            debug_assert!(self.received <= self.expected);
            if self.received == self.expected {
                self.received = 0;
                ctx.add_work(self.unpack_work);
                let payload = self.sum.take().map(|sum| sum.pack()).unwrap_or_default();
                let bytes = self.n_atoms * costmodel::BYTES_PER_ATOM;
                ctx.send(
                    self.home,
                    self.entries.patch_forces,
                    bytes,
                    PRIO_HIGH,
                    payload,
                );
            }
        } else {
            unreachable!("ProxyPatch got unexpected entry {entry:?}");
        }
    }
}

/// A compute object: non-bonded self/pair piece or bonded intra/inter.
pub struct ComputeChare {
    /// Index into `decomp.computes`.
    pub index: usize,
    shared: Arc<Shared>,
    entries: Entries,
    params: RunParams,
    /// Per required patch (aligned with `spec.patches`): the representative
    /// object on this PE to send the force contribution to (home patch if
    /// co-located, else proxy), the entry to invoke on it (`patch_forces`
    /// vs `proxy_forces`), and the byte size of that contribution.
    targets: Vec<(ObjId, EntryId, usize)>,
    /// Bonded computes: for every atom of every term, in the order
    /// `execute_real` walks them, its (index into `spec.patches`, slot
    /// within that patch's atom list). Resolved once; bonded terms read
    /// their atoms' coordinates and scatter their forces through it.
    term_slots: Vec<(usize, usize)>,
    /// The packed [`CoordMsg`] each patch sent for the step about to
    /// execute, parallel to `spec.patches`; decoded (and dropped) when the
    /// compute executes.
    coords: Vec<Payload>,
    received: usize,
    /// Multiplier on the counted work (slow load drift, §3.2).
    work_scale: f64,
    /// Scheduler priority of this compute's execution (remote-feeding
    /// computes run first when `SimConfig::prioritize_remote` is on).
    exec_priority: charmrt::Priority,
    /// Non-bonded computes: the pair list, SoA buffers and this phase's
    /// list counters, lent by the engine for the phase and taken back at
    /// harvest (empty and unused on a bonded compute).
    pub(crate) pairlist: ComputeCacheEntry,
}

impl ComputeChare {
    pub fn new(
        index: usize,
        shared: Arc<Shared>,
        entries: Entries,
        params: RunParams,
        targets: Vec<(ObjId, EntryId, usize)>,
        work_scale: f64,
        exec_priority: charmrt::Priority,
        pairlist: ComputeCacheEntry,
    ) -> Self {
        let spec = &shared.decomp.computes[index];
        let expected = spec.patches.len();
        debug_assert_eq!(targets.len(), expected, "one force target per patch");
        let mut term_slots = Vec::new();
        if let Some(terms) = &spec.terms {
            let mut slot_of = HashMap::new();
            for (pi, &p) in spec.patches.iter().enumerate() {
                for (slot, &a) in shared.decomp.grid.atoms[p].iter().enumerate() {
                    slot_of.insert(a, (pi, slot));
                }
            }
            let topo = &shared.frame.topology;
            // Indexing panics on a term atom outside the compute's patches.
            let mut resolve = |atoms: &[u32]| term_slots.extend(atoms.iter().map(|a| slot_of[a]));
            for &i in &terms.bonds {
                let t = &topo.bonds[i as usize];
                resolve(&[t.a, t.b]);
            }
            for &i in &terms.angles {
                let t = &topo.angles[i as usize];
                resolve(&[t.a, t.b, t.c]);
            }
            for &i in &terms.dihedrals {
                let t = &topo.dihedrals[i as usize];
                resolve(&[t.a, t.b, t.c, t.d]);
            }
            for &i in &terms.impropers {
                let t = &topo.impropers[i as usize];
                resolve(&[t.a, t.b, t.c, t.d]);
            }
            for &i in &terms.restraints {
                resolve(&[topo.restraints[i as usize].atom]);
            }
        }
        ComputeChare {
            index,
            shared,
            entries,
            params,
            targets,
            term_slots,
            coords: vec![Vec::new(); expected],
            received: 0,
            work_scale,
            exec_priority,
            pairlist,
        }
    }

    /// The execute entry for this compute's kind.
    fn exec_entry(&self) -> EntryId {
        match self.shared.decomp.computes[self.index].kind {
            ComputeKind::SelfNb { .. } => self.entries.exec_self,
            ComputeKind::PairNb { .. } => self.entries.exec_pair,
            ComputeKind::BondedIntra { .. } => self.entries.exec_bonded,
            ComputeKind::BondedInter { .. } => self.entries.exec_bonded_inter,
        }
    }

    /// Run the real force kernels on the coordinates this compute was sent.
    /// Returns one f64 force block per patch in `spec.patches` order, one
    /// force per atom of the patch in `decomp.grid.atoms[patch]` order, and
    /// the energies evaluated.
    fn execute_real(&mut self, ctx: &mut Ctx) -> (Vec<Vec<Vec3>>, StepAcc) {
        let shared = &self.shared;
        let spec = &shared.decomp.computes[self.index];
        let cell = &shared.frame.cell;
        let mut acc = StepAcc::default();
        let mut blocks: Vec<Vec<Vec3>> = spec
            .patches
            .iter()
            .map(|&p| vec![Vec3::ZERO; shared.decomp.grid.atoms[p].len()])
            .collect();

        match &spec.kind {
            // The list format and the kernel that reads it are the cache
            // entry's business; self and pair computes differ only in how
            // many force blocks they fill.
            ComputeKind::SelfNb { .. } | ComputeKind::PairNb { .. } => {
                let (res, work) = self.pairlist.evaluate(
                    spec,
                    &shared.frame,
                    &shared.decomp.grid,
                    &mut self.coords,
                    self.params.pairlist_margin,
                    &mut blocks,
                );
                acc.e_lj += res.e_lj;
                acc.e_elec += res.e_elec;
                acc.pairs += res.pairs;
                ctx.add_work(work);
            }
            ComputeKind::BondedIntra { .. } | ComputeKind::BondedInter { .. } => {
                let terms = spec.terms.as_ref().expect("bonded compute without terms");
                let topo = &shared.frame.topology;
                let coords: Vec<Vec<Vec3>> = self
                    .coords
                    .iter_mut()
                    .map(|c| {
                        let msg = CoordMsg::unpack(&std::mem::take(c));
                        msg.expect("malformed CoordMsg payload").positions
                    })
                    .collect();
                let mut slots = self.term_slots.iter().copied();
                let mut next = || slots.next().expect("one resolved slot per term atom");
                let pos = |(pi, slot): (usize, usize)| coords[pi][slot];
                let mut add = |(pi, slot): (usize, usize), f: Vec3| blocks[pi][slot] += f;
                for &bi in &terms.bonds {
                    let b = &topo.bonds[bi as usize];
                    let (ia, ib) = (next(), next());
                    let (e, fa, fb) = bond_force(cell, pos(ia), pos(ib), b.k, b.r0);
                    acc.e_bond += e;
                    add(ia, fa);
                    add(ib, fb);
                }
                for &ai in &terms.angles {
                    let t = &topo.angles[ai as usize];
                    let (ia, ib, ic) = (next(), next(), next());
                    let (e, fa, fb, fc) =
                        angle_force(cell, pos(ia), pos(ib), pos(ic), t.k, t.theta0);
                    acc.e_angle += e;
                    add(ia, fa);
                    add(ib, fb);
                    add(ic, fc);
                }
                for &di in &terms.dihedrals {
                    let d = &topo.dihedrals[di as usize];
                    let at = [next(), next(), next(), next()];
                    let (e, f) = dihedral_force(
                        cell,
                        pos(at[0]),
                        pos(at[1]),
                        pos(at[2]),
                        pos(at[3]),
                        d.k,
                        d.n,
                        d.delta,
                    );
                    acc.e_dihedral += e;
                    at.into_iter().zip(f).for_each(|(a, f)| add(a, f));
                }
                for &ii in &terms.impropers {
                    let d = &topo.impropers[ii as usize];
                    let at = [next(), next(), next(), next()];
                    let (e, f) = improper_force(
                        cell,
                        pos(at[0]),
                        pos(at[1]),
                        pos(at[2]),
                        pos(at[3]),
                        d.k,
                        d.psi0,
                    );
                    acc.e_improper += e;
                    at.into_iter().zip(f).for_each(|(a, f)| add(a, f));
                }
                for &ri in &terms.restraints {
                    let r = &topo.restraints[ri as usize];
                    let ia = next();
                    let (e, f) = restraint_force(cell, pos(ia), r.target, r.k);
                    acc.e_restraint += e;
                    add(ia, f);
                }
                ctx.add_work(terms.work());
            }
        }
        (blocks, acc)
    }
}

impl Chare for ComputeChare {
    fn receive(&mut self, entry: EntryId, payload: Payload, ctx: &mut Ctx) {
        if entry == self.entries.ready {
            if !payload.is_empty() {
                let patch = CoordMsg::peek_patch(&payload).expect("malformed CoordMsg payload");
                let k = self.shared.decomp.computes[self.index]
                    .patches
                    .iter()
                    .position(|&p| p == patch as usize)
                    .expect("coordinates from a patch this compute does not read");
                self.coords[k] = payload;
            }
            self.received += 1;
            debug_assert!(self.received <= self.coords.len());
            if self.received == self.coords.len() {
                self.received = 0;
                ctx.signal(ctx.this(), self.exec_entry(), self.exec_priority);
            }
        } else if entry == self.exec_entry() {
            let mut real = match self.params.force_mode {
                ForceMode::Real => Some(self.execute_real(ctx)),
                ForceMode::Counted => {
                    ctx.add_work(self.shared.decomp.computes[self.index].work * self.work_scale);
                    None
                }
            };
            for (k, &(target, entry, bytes)) in self.targets.iter().enumerate() {
                let payload: Payload = match &mut real {
                    // The energies ride the first block, zeros the rest.
                    Some((blocks, energy)) => {
                        ForceMsg::pack_f64(&blocks[k], &std::mem::take(energy))
                    }
                    None => Vec::new(),
                };
                ctx.send(target, entry, bytes, PRIO_HIGH, payload);
            }
        } else {
            unreachable!("ComputeChare got unexpected entry {entry:?}");
        }
    }

    /// The phase's list builds and hits; nothing when the compute used no
    /// list (a bonded compute, Counted mode).
    fn harvest_state(&self) -> Payload {
        let counts = self.pairlist.counts;
        let mut e = Enc::new();
        if counts.executions() > 0 {
            e.u64(counts.builds);
            e.u64(counts.hits);
        }
        e.into_bytes()
    }

    /// `proc` backend: take over the counters a worker process's copy of
    /// this compute harvested.
    fn merge_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut d = Dec::new(bytes);
        if !bytes.is_empty() {
            let (builds, hits) = (d.u64("builds")?, d.u64("hits")?);
            self.pairlist.counts = PairlistCounters { builds, hits };
        }
        match d.remaining() {
            0 => Ok(()),
            n => Err(WireError(format!("{n} trailing bytes after list counters"))),
        }
    }
}

/// A PME slab object: owns a contiguous block of the reciprocal-space mesh
/// (§1's "grid-based component"). Per PME step it collects charge-grid
/// contributions from its patches, exchanges transpose blocks with every
/// other slab (the all-to-all that limits FFT scalability), performs its
/// share of the 3-D FFT + influence multiply, and returns potential blocks
/// to its patches. Non-migratable — its placement is fixed like NAMD's
/// other grid infrastructure.
///
/// In Real force mode the charge messages carry the patches' coordinates
/// and the transposes pass them on, so after the all-to-all every slab
/// holds every atom's position for the round.
pub struct SlabChare {
    shared: Arc<Shared>,
    entries: Entries,
    /// All other slab objects (transpose partners).
    peers: Vec<ObjId>,
    /// Patches assigned to this slab: (home patch object, potential bytes).
    patches: Vec<(ObjId, usize)>,
    /// Work units for this slab's share of the FFT pipeline per evaluation.
    fft_work: f64,
    /// Bytes per transpose message.
    transpose_bytes: usize,
    charges_received: usize,
    transposes_received: usize,
    /// PME rounds this slab has completed.
    rounds: usize,
    /// Real mode: every atom's position this round, by global atom id.
    positions: Vec<Vec3>,
    /// Real mode: this round's packed [`CoordMsg`]s from this slab's own
    /// patches, length-framed back to back — the transpose payload, after
    /// the round number.
    collected: Enc,
    /// Transposes from peers already a round ahead, absorbed when this
    /// slab finishes its round. A peer gets at most one round ahead (its
    /// next transpose needs this slab's), but a perturbed schedule may
    /// deliver that transpose before the one it follows.
    early: Vec<Payload>,
}

impl SlabChare {
    pub fn new(
        shared: Arc<Shared>,
        entries: Entries,
        peers: Vec<ObjId>,
        patches: Vec<(ObjId, usize)>,
        fft_work: f64,
        transpose_bytes: usize,
    ) -> Self {
        let n_atoms = if shared.pme_real.is_some() {
            shared.frame.topology.n_atoms()
        } else {
            0
        };
        SlabChare {
            shared,
            entries,
            peers,
            patches,
            fft_work,
            transpose_bytes,
            charges_received: 0,
            transposes_received: 0,
            rounds: 0,
            positions: vec![Vec3::ZERO; n_atoms],
            collected: Enc::new(),
            early: Vec::new(),
        }
    }

    /// Scatter one patch's packed coordinates into `positions`.
    fn collect(&mut self, coords: &[u8]) {
        let msg = CoordMsg::unpack(coords).expect("malformed CoordMsg payload");
        let ids = &self.shared.decomp.grid.atoms[msg.patch as usize];
        for (&a, &p) in ids.iter().zip(&msg.positions) {
            self.positions[a as usize] = p;
        }
    }
}

impl Chare for SlabChare {
    fn receive(&mut self, entry: EntryId, payload: Payload, ctx: &mut Ctx) {
        if entry == self.entries.slab_charge {
            if !payload.is_empty() {
                self.collect(&payload);
                self.collected.bytes(&payload);
            }
            self.charges_received += 1;
            debug_assert!(self.charges_received <= self.patches.len());
            if self.charges_received == self.patches.len() {
                // First FFT stage over the slab's planes, then the
                // transpose all-to-all.
                ctx.add_work(self.fft_work * 0.5);
                let mut transpose = (self.rounds as u64).to_le_bytes().to_vec();
                transpose.extend(std::mem::take(&mut self.collected).into_bytes());
                for &p in &self.peers {
                    ctx.send(
                        p,
                        self.entries.slab_transpose,
                        self.transpose_bytes,
                        PRIO_NORMAL,
                        transpose.clone(),
                    );
                }
                self.try_finish(ctx);
            }
        } else if entry == self.entries.slab_transpose {
            let round = Dec::new(&payload)
                .u64("transpose round")
                .expect("malformed transpose");
            if round == self.rounds as u64 {
                self.absorb_transpose(&payload);
                self.try_finish(ctx);
            } else {
                debug_assert_eq!(round, self.rounds as u64 + 1, "a peer two rounds ahead");
                self.early.push(payload);
            }
        } else {
            unreachable!("SlabChare got unexpected entry {entry:?}");
        }
    }
}

impl SlabChare {
    /// Collect a peer's transpose for the current round.
    fn absorb_transpose(&mut self, payload: &[u8]) {
        let mut d = Dec::new(payload);
        d.u64("transpose round").expect("malformed transpose");
        while d.remaining() > 0 {
            self.collect(
                &d.bytes("transposed CoordMsg")
                    .expect("malformed transpose payload"),
            );
        }
        self.transposes_received += 1;
        debug_assert!(self.transposes_received <= self.peers.len());
    }

    /// Finish the round once both halves of it are in: this slab's own
    /// patches' charges and every peer's transpose. Either may complete
    /// last — a peer whose patches run ahead sends its transpose before
    /// this slab's patches have all published — and finishing on the
    /// transposes alone would hand this slab's patches a potential for a
    /// step some of them have not reached.
    fn try_finish(&mut self, ctx: &mut Ctx) {
        if self.charges_received == self.patches.len()
            && self.transposes_received == self.peers.len()
        {
            self.charges_received = 0;
            self.transposes_received = 0;
            self.finish(ctx);
        }
    }

    /// Remaining FFT stages + influence multiply, then return the potential
    /// blocks to this slab's patches. In Real force mode, the *first* slab
    /// to finish a PME round evaluates the actual reciprocal-space physics
    /// into the PME force buffer — safe, because the transposes it waited
    /// for carried every patch's coordinates for this step, and no patch
    /// can integrate before this slab's potential message arrives. The
    /// round's energy leaves once, on the lowest-numbered slab's first
    /// potential message, whichever slab evaluated it.
    fn finish(&mut self, ctx: &mut Ctx) {
        ctx.add_work(self.fft_work * 0.5);
        let mut energy = None;
        if let Some(pme) = &self.shared.pme_real {
            let mut pr = pme.lock().unwrap();
            if pr.rounds_done == self.rounds {
                pr.rounds_done += 1;
                let frame = &self.shared.frame;
                let crate::state::PmeReal {
                    solver,
                    ewald,
                    charges,
                    forces,
                    ..
                } = &mut *pr;
                forces.fill(Vec3::ZERO);
                let recip = solver.reciprocal(&self.positions, charges, forces);
                let corr_ex = pme::ewald::exclusion_correction(
                    &frame.cell,
                    &self.positions,
                    charges,
                    &frame.exclusions,
                    ewald,
                    forces,
                );
                let corr_self = pme::ewald::self_energy(charges, ewald);
                pr.energy = recip.reciprocal + corr_ex + corr_self;
            }
            if self.peers.iter().all(|p| ctx.this() < *p) {
                energy = Some(StepAcc {
                    e_elec: pr.energy,
                    ..Default::default()
                });
            }
        }
        self.rounds += 1;
        for early in std::mem::take(&mut self.early) {
            self.absorb_transpose(&early);
        }
        for &(patch, bytes) in &self.patches {
            let payload = match energy.take() {
                Some(energy) => ForceMsg::pack_f64(&[], &energy),
                None => Vec::new(),
            };
            ctx.send(patch, self.entries.patch_forces, bytes, PRIO_HIGH, payload);
        }
    }
}

/// Counts patch completions and adds the patches' per-step energies, as
/// integers, in arrival order; stops the engine when all patches finish.
/// The engine reads the sums back through `harvest_state`.
pub struct Reducer {
    expected: usize,
    received: usize,
    total: EnergiesMsg,
}

impl Reducer {
    pub fn new(expected: usize) -> Self {
        Reducer {
            expected,
            received: 0,
            total: EnergiesMsg::default(),
        }
    }
}

impl Chare for Reducer {
    fn receive(&mut self, _entry: EntryId, payload: Payload, ctx: &mut Ctx) {
        if !payload.is_empty() {
            let msg = EnergiesMsg::unpack(&payload).expect("malformed EnergiesMsg payload");
            self.total
                .steps
                .resize(msg.steps.len(), FixedAcc::default());
            for (acc, s) in self.total.steps.iter_mut().zip(msg.steps) {
                *acc += s;
            }
        }
        self.received += 1;
        if self.received == self.expected {
            ctx.stop();
        }
    }

    fn harvest_state(&self) -> Payload {
        if self.total.steps.is_empty() {
            return Vec::new();
        }
        self.total.pack()
    }

    fn merge_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if !bytes.is_empty() {
            self.total = EnergiesMsg::unpack(bytes)?;
        }
        Ok(())
    }
}

/// Coordinates the Berendsen barrier, registered only under that
/// thermostat. At every step s ≥ 1 each home patch pauses after its first
/// integration half and sends `barrier_ready` carrying its velocities; once
/// all patches are paused this chare gathers them into atom order *from
/// those payloads alone* — never from shared memory, so the same code path
/// gives the same bits on the DES, the threads backend, and separate OS
/// processes. It takes the temperature in atom order, as
/// `System::temperature` does, computes the rescale factor λ with
/// `Berendsen::lambda`, and resumes every patch, handing each λ.
pub struct BarrierChare {
    shared: Arc<Shared>,
    entries: Entries,
    /// All home patch objects — the barrier membership and the resume
    /// multicast.
    patches: Vec<ObjId>,
    received: usize,
    /// Patch velocities received for the current barrier.
    pending: Vec<BarrierMsg>,
    /// The Berendsen coupling and the timestep.
    berendsen: (Berendsen, f64),
}

impl BarrierChare {
    pub fn new(
        shared: Arc<Shared>,
        entries: Entries,
        patches: Vec<ObjId>,
        berendsen: (Berendsen, f64),
    ) -> Self {
        BarrierChare {
            shared,
            entries,
            patches,
            received: 0,
            pending: Vec::new(),
            berendsen,
        }
    }
}

impl Chare for BarrierChare {
    fn receive(&mut self, entry: EntryId, payload: Payload, ctx: &mut Ctx) {
        if entry != self.entries.barrier_ready {
            unreachable!("BarrierChare got unexpected entry {entry:?}");
        }
        self.pending
            .push(BarrierMsg::unpack(&payload).expect("malformed BarrierMsg payload"));
        self.received += 1;
        debug_assert!(self.received <= self.patches.len());
        if self.received < self.patches.len() {
            return;
        }
        self.received = 0;
        // Scatter each patch's block through the grid's atom lists.
        let atoms = &self.shared.frame.topology.atoms;
        let mut velocities = vec![Vec3::ZERO; atoms.len()];
        for msg in self.pending.drain(..) {
            let ids = &self.shared.decomp.grid.atoms[msg.patch as usize];
            debug_assert_eq!(msg.velocities.len(), ids.len());
            for (slot, &a) in ids.iter().enumerate() {
                velocities[a as usize] = msg.velocities[slot];
            }
        }
        let (berendsen, dt) = self.berendsen;
        let kinetic = mdcore::system::kinetic_energy(atoms, &velocities);
        let lambda = berendsen.lambda(mdcore::system::temperature(kinetic, atoms.len()), dt);
        // The gather touches every atom once — model it like an
        // integration pass so the DES timeline charges the barrier.
        ctx.add_work(atoms.len() as f64 * costmodel::WORK_PER_ATOM_INTEGRATION);
        let resume = self.entries.barrier_resume;
        for &p in &self.patches {
            ctx.send(
                p,
                resume,
                SIGNAL_BYTES,
                PRIO_HIGH,
                lambda.to_le_bytes().to_vec(),
            );
        }
    }
}
