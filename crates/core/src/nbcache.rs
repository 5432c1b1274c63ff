//! Per-compute pair-list caching for the parallel engine's non-bonded hot
//! path.
//!
//! The paper sizes patches "slightly larger than the cutoff radius" so that
//! neighbour structures can be *reused* across steps (NAMD's `pairlistdist`);
//! this module is the parallel-engine analogue of `mdcore::pairlist` for the
//! sequential simulator. Each `SelfNb`/`PairNb` compute object owns one
//! [`ComputeCacheEntry`] holding:
//!
//! - **Persistent SoA buffers** (one `PatchArrays` per patch the compute
//!   reads): gathered once, then only the *positions* are replaced each
//!   step, by the ones the compute was sent.
//! - A **candidate list** at `cutoff + margin`, in the exact order the ranged
//!   kernels visit pairs, reused until displacement-based invalidation fires:
//!   any atom of the compute's patches moving more than `margin/2` from its
//!   build-time reference position may let a new pair enter the cutoff, so
//!   the list rebuilds (in place — buffers are reused). A margin of 0
//!   therefore rebuilds on every evaluation: the list is then exactly the
//!   ranged kernels' candidate sweep, and the tests hold every other
//!   margin to that run's state bit for bit.
//!
//! `ComputeCacheEntry::evaluate` is the one entry point: the list format
//! and the kernel that reads it (`mdcore::nonbonded`'s listed kernels) are
//! known here only, so the compute chare knows neither.
//!
//! `Engine::migrate_atoms` changes patch membership, so it resets the
//! entries via [`recycled`] — entries are cleared but their heap buffers
//! (candidate lists, reference positions) follow their compute to its
//! successor in the new decomposition, so steady-state migration does not
//! re-grow the big allocations from zero.
//!
//! Ownership: the engine keeps one entry per compute between phases and
//! moves entry `j` into compute `j` when it registers the phase's chares;
//! the compute evaluates on it without a lock and hands it back at
//! harvest. On `proc` the children build on copies of the entry that die
//! with them, so every proc phase starts from empty lists.

use crate::costmodel;
use crate::decomp::{ComputeKind, ComputeSpec, PatchArrays};
use crate::messages::CoordMsg;
use crate::patchgrid::PatchGrid;
use crate::state::Frame;
use charmrt::Payload;
use mdcore::nonbonded::{
    nb_pair_listed, nb_self_listed, pair_candidates_into, self_candidates_into, NbResult,
};
use mdcore::prelude::*;
use profile::PairlistCounters;

/// Pair-list cache state for one non-bonded compute object.
#[derive(Debug, Default)]
pub struct ComputeCacheEntry {
    /// Persistent SoA buffers, parallel to the compute's `spec.patches`.
    arrays: Vec<PatchArrays>,
    /// Cached candidate pairs at `cutoff + margin`: slot indices into
    /// `arrays[0]` (self) or `arrays[0]`/`arrays[1]` (pair), in ranged-kernel
    /// visit order.
    list: Vec<(u32, u32)>,
    /// Per-patch positions at list-build time, for displacement tracking.
    ref_pos: Vec<Vec<Vec3>>,
    /// `cutoff + margin` the current candidate list was built at; 0.0 = no
    /// list yet (also forces a rebuild if the margin is reconfigured
    /// mid-run).
    built_radius: f64,
    /// `margin / 2` at build time — the displacement bound under which the
    /// list is guaranteed complete.
    half_margin: f64,
    /// List builds and hits since the engine last took them (every harvest).
    pub(crate) counts: PairlistCounters,
}

impl ComputeCacheEntry {
    /// Evaluate one non-bonded compute at `coords`, the packed `CoordMsg`
    /// each of its patches sent for this step (in `spec.patches` order;
    /// decoded into the SoA buffers and dropped): make the candidate list
    /// valid (a rebuild when the margin/2 guarantee has lapsed), run the
    /// listed kernel into `blocks` — one force block for a self compute, two
    /// for a pair compute, in `spec.patches` order — and return the result
    /// with the work units to declare. A hit is charged less than a rebuild,
    /// so LB sees the real cost difference between the two kinds of step.
    pub(crate) fn evaluate(
        &mut self,
        spec: &ComputeSpec,
        frame: &Frame,
        grid: &PatchGrid,
        coords: &mut [Payload],
        margin: f64,
        blocks: &mut [Vec<Vec3>],
    ) -> (NbResult, f64) {
        self.refresh_arrays(frame, grid, &spec.patches, coords);
        let ff = &frame.forcefield;
        let ex = &frame.exclusions;
        let cell = &frame.cell;
        let radius = ff.cutoff + margin;
        let rebuilt = self.ensure_list(spec, cell, radius, margin);
        let res = match blocks {
            [f] => nb_self_listed(ff, ex, self.arrays[0].group(), cell, &self.list, f),
            [fa, fb] => nb_pair_listed(
                ff,
                ex,
                self.arrays[0].group(),
                self.arrays[1].group(),
                cell,
                &self.list,
                fa,
                fb,
            ),
            _ => unreachable!("a non-bonded compute reads one or two patches"),
        };
        let work = if rebuilt {
            costmodel::nonbonded_work(res.pairs, spec.candidates)
        } else {
            costmodel::nonbonded_work_cached(res.pairs, self.list.len() as u64)
        };
        (res, work)
    }

    /// Decode this step's coordinates into the persistent SoA buffers: full
    /// gather on first use (or after a cache reset), positions only — in
    /// place — afterwards.
    fn refresh_arrays(
        &mut self,
        frame: &Frame,
        grid: &PatchGrid,
        patches: &[usize],
        coords: &mut [Payload],
    ) {
        if self.arrays.len() != patches.len() {
            self.arrays = patches
                .iter()
                .map(|&p| PatchArrays::new(&frame.topology, &grid.atoms[p], Vec::new()))
                .collect();
        }
        for (arr, packed) in self.arrays.iter_mut().zip(coords) {
            CoordMsg::unpack_into(&std::mem::take(packed), &mut arr.pos)
                .expect("malformed CoordMsg payload");
            debug_assert_eq!(arr.pos.len(), arr.ids.len());
        }
    }

    /// Make sure the candidate list covers every within-cutoff pair for the
    /// compute's current positions, rebuilding in place when the displacement
    /// guarantee has lapsed (or no list exists / the margin was reconfigured
    /// mid-run). `radius` is `cutoff + margin`. Returns `true` when the list
    /// was (re)built this step.
    fn ensure_list(
        &mut self,
        spec: &ComputeSpec,
        cell: &Cell,
        radius: f64,
        margin: f64,
    ) -> bool {
        if self.built_radius == radius && self.displacements_ok(cell) {
            self.counts.hits += 1;
            return false;
        }
        match spec.kind {
            ComputeKind::SelfNb { .. } => self_candidates_into(
                self.arrays[0].group(),
                cell,
                spec.outer.clone(),
                radius,
                &mut self.list,
            ),
            ComputeKind::PairNb { .. } => pair_candidates_into(
                self.arrays[0].group(),
                self.arrays[1].group(),
                cell,
                spec.outer.clone(),
                radius,
                &mut self.list,
            ),
            _ => unreachable!("pair-list cache only serves non-bonded computes"),
        }
        self.snapshot_ref_pos();
        self.built_radius = radius;
        self.half_margin = margin / 2.0;
        self.counts.builds += 1;
        true
    }

    fn snapshot_ref_pos(&mut self) {
        if self.ref_pos.len() != self.arrays.len() {
            self.ref_pos = vec![Vec::new(); self.arrays.len()];
        }
        for (r, a) in self.ref_pos.iter_mut().zip(&self.arrays) {
            r.clear();
            r.extend_from_slice(&a.pos);
        }
    }

    /// The margin guarantee: the list stays complete while every atom of the
    /// compute's patches is within `margin/2` of its build-time position.
    fn displacements_ok(&self, cell: &Cell) -> bool {
        let limit2 = self.half_margin * self.half_margin;
        self.arrays.iter().zip(&self.ref_pos).all(|(a, r)| {
            a.pos.len() == r.len()
                && a.pos.iter().zip(r.iter()).all(|(&p, &q)| cell.dist2(p, q) <= limit2)
        })
    }

    /// Clear the entry for reuse by a different compute (after migration),
    /// keeping every heap buffer's capacity: candidate list and
    /// reference-position vectors.
    fn reset_for_reuse(&mut self) {
        self.arrays.clear();
        self.list.clear();
        for r in &mut self.ref_pos {
            r.clear();
        }
        self.built_radius = 0.0;
        self.half_margin = 0.0;
    }
}

/// Entries for a new compute decomposition, recycling the old entries'
/// buffers: each new compute takes over the allocations (cleared) of its
/// predecessor (`predecessors[j]`, from [`crate::decomp::predecessors`]) —
/// the same piece of the same patch or patch pair — instead of growing its
/// candidate vectors from zero again. Old entries nothing claims are
/// dropped; computes with no predecessor (or whose predecessor's entry a
/// crashed phase took with it) start empty.
///
/// A compute after a migration is, give or take a few atoms, the compute
/// of the same patches before it, with a list of about the same length.
/// Any other pairing hands computes a buffer some other compute filled;
/// each buffer is then written up to the longest list it ever held and
/// the resident set climbs with every migration. Largest-buffer-first
/// cost the small benchmark deck 41 → 61 MB over 30 migrations; pairing
/// by index holds there, but on the large deck a grainsize split comes
/// or goes at most migrations (1454 → 1460 → 1459 → … computes), every
/// later index shifts, and the lists crept ~15 MB per migration.
pub fn recycled(
    old: Vec<ComputeCacheEntry>,
    predecessors: &[Option<usize>],
) -> Vec<ComputeCacheEntry> {
    let mut pool: Vec<Option<ComputeCacheEntry>> = old
        .into_iter()
        .map(|mut e| {
            e.reset_for_reuse();
            Some(e)
        })
        .collect();
    predecessors
        .iter()
        .map(|p| p.and_then(|i| pool.get_mut(i)?.take()).unwrap_or_default())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: ComputeKind) -> ComputeSpec {
        let patches = match kind {
            ComputeKind::PairNb { a, b } => vec![a, b],
            ComputeKind::SelfNb { patch }
            | ComputeKind::BondedIntra { patch }
            | ComputeKind::BondedInter { patch } => vec![patch],
        };
        ComputeSpec {
            kind,
            patches,
            outer: 0..0,
            migratable: true,
            work: 0.0,
            pairs: 0,
            candidates: 0,
            terms: None,
        }
    }

    #[test]
    fn recycled_entries_follow_their_patch_pair_and_keep_their_buffers() {
        let self0 = spec(ComputeKind::SelfNb { patch: 0 });
        let pair01 = spec(ComputeKind::PairNb { a: 0, b: 1 });
        let pair02 = spec(ComputeKind::PairNb { a: 0, b: 2 });
        let bonded0 = spec(ComputeKind::BondedIntra { patch: 0 });
        let caps = |c: &[ComputeCacheEntry]| -> Vec<usize> {
            c.iter().map(|e| e.list.capacity()).collect()
        };

        // self(0) in two pieces, one pair compute, a bonded compute.
        let before = [self0.clone(), self0.clone(), pair01.clone(), bonded0.clone()];
        let mut old: Vec<ComputeCacheEntry> = before.iter().map(|_| Default::default()).collect();
        for (j, cap) in [(0, 10), (1, 1000), (2, 100)] {
            old[j].list.reserve_exact(cap);
        }
        let recycled = |old, from: &[ComputeSpec], to: &[ComputeSpec]| {
            recycled(old, &crate::decomp::predecessors(from, to))
        };
        let same = recycled(old, &before, &before);
        assert_eq!(caps(&same), [10, 1000, 100, 0]);

        // A third piece of self(0) and a new pair compute arrive in the
        // middle: every later index shifts, no buffer changes hands.
        let grown = [
            self0.clone(),
            self0.clone(),
            self0.clone(),
            pair02.clone(),
            pair01.clone(),
            bonded0.clone(),
        ];
        let mut cache = recycled(same, &before, &grown);
        assert_eq!(caps(&cache), [10, 1000, 0, 0, 100, 0]);
        cache[3].list.reserve_exact(50);

        // The first self piece's twin goes and pair(0,2) moves to the end:
        // piece 1's buffer is dropped with it, the rest follow their pairs.
        let shrunk = [self0.clone(), pair01.clone(), bonded0.clone(), pair02.clone()];
        let cache = recycled(cache, &grown, &shrunk);
        assert_eq!(caps(&cache), [10, 100, 0, 50]);
    }
}
