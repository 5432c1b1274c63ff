//! Multicore MD: a thin sequential-looking facade over the engine's
//! real-threads backend.
//!
//! Historically this module carried its own fork of the timestep loop (a
//! thread-pool fold over compute objects plus data-parallel integration).
//! That duplicate is gone: [`ParallelSim`] now drives [`Engine`] with
//! `Backend::Threads`, so the message protocol, proxy wiring, grainsize
//! splitting, and measurement machinery are the single implementation in
//! [`crate::engine`] — the exact code path the load balancer measures.
//! Every self/pair/bonded compute object is a chare executed on a worker
//! thread; coordinates and force contributions travel as messages and the
//! home patches integrate the atoms they own, just as on the DES backend
//! but in wall-clock time. What [`ParallelSim::system`] shows is the
//! engine's between-phase state, gathered from the patches whenever a
//! phase ends.
//!
//! The facade's step/run calls map onto engine *phases*: a phase of
//! `n + 1` timesteps performs one bootstrap force evaluation (no motion —
//! the first step of a phase only completes when integration is `started`)
//! followed by `n` full velocity-Verlet updates. Chaining phases repeats
//! the boundary force evaluation, so the trajectory is step-for-step
//! identical to a sequential simulator. The chaining itself — phase
//! lengths, the migration cadence, crash rollback — is
//! [`crate::recovery::advance`]; this module only collects the per-step
//! records it hands back.

use crate::config::{Backend, ForceMode, SimConfig};
use crate::decomp::Decomposition;
use crate::engine::Engine;
use crate::recovery::{advance, Advanced, RecoveryError};
use crate::state::{SimState, StepAcc};
use mdcore::prelude::*;
use std::ops::{Deref, DerefMut};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Why a [`ParallelSim`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParallelSimError {
    /// `n_threads` was zero.
    NoThreads,
    /// The timestep was not a positive finite number.
    BadTimestep(f64),
    /// The system has no atoms to decompose.
    EmptySystem,
}

impl std::fmt::Display for ParallelSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelSimError::NoThreads => write!(f, "n_threads must be at least 1"),
            ParallelSimError::BadTimestep(dt) => {
                write!(f, "timestep must be positive and finite, got {dt}")
            }
            ParallelSimError::EmptySystem => write!(f, "system has no atoms"),
        }
    }
}

impl std::error::Error for ParallelSimError {}

/// Shared read access to the simulated [`System`] between steps.
///
/// Dereferences to [`System`]; it borrows the simulator, so it cannot be
/// held across a `step`/`run` call.
pub struct SystemRef<'a>(RwLockReadGuard<'a, SimState>);

impl Deref for SystemRef<'_> {
    type Target = System;
    fn deref(&self) -> &System {
        &self.0.system
    }
}

/// What [`ParallelSim::forces`] hands out: [`SystemRef`]'s guard, seen as
/// the force array.
struct ForcesRef<'a>(RwLockReadGuard<'a, SimState>);

impl Deref for ForcesRef<'_> {
    type Target = [Vec3];
    fn deref(&self) -> &[Vec3] {
        &self.0.forces
    }
}

/// Exclusive write access to the simulated [`System`] — thermostats rescale
/// velocities through this between steps.
pub struct SystemMut<'a>(RwLockWriteGuard<'a, SimState>);

impl Deref for SystemMut<'_> {
    type Target = System;
    fn deref(&self) -> &System {
        &self.0.system
    }
}

impl DerefMut for SystemMut<'_> {
    fn deref_mut(&mut self) -> &mut System {
        &mut self.0.system
    }
}

/// A multicore MD simulator: the paper's decomposition executed by the
/// engine's real-threads backend, one OS thread per PE.
pub struct ParallelSim {
    engine: Engine,
    /// Timestep, fs. May be changed between steps.
    pub dt: f64,
    /// Rebuild the patch assignment every this many steps (atom migration).
    /// Migration fires when the *global* step counter reaches a multiple,
    /// so the cadence is a property of the trajectory, not of how the run
    /// was sliced into `step`/`run` calls — and it survives checkpoint
    /// restore (the counter is part of the snapshot).
    pub migrate_every: usize,
}

impl ParallelSim {
    /// Create a simulator using `n_threads` OS threads.
    pub fn new(system: System, n_threads: usize, dt: f64) -> Result<Self, ParallelSimError> {
        Self::with_backend(system, n_threads, dt, Backend::Threads)
    }

    /// Create a simulator on an explicit runtime backend: `Backend::Threads`
    /// (one OS thread per PE), `Backend::Proc` (one OS *process* per PE),
    /// or `Backend::Des` (deterministic virtual-time execution of the same
    /// protocol). All backends produce bit-identical trajectories.
    pub fn with_backend(
        system: System,
        n_pes: usize,
        dt: f64,
        backend: Backend,
    ) -> Result<Self, ParallelSimError> {
        if n_pes == 0 {
            return Err(ParallelSimError::NoThreads);
        }
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(ParallelSimError::BadTimestep(dt));
        }
        if system.n_atoms() == 0 {
            return Err(ParallelSimError::EmptySystem);
        }
        let cfg = SimConfig::builder(n_pes, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(backend)
            .dt_fs(dt)
            .build()
            .expect("facade arguments validated above");
        Ok(ParallelSim { engine: Engine::new(system, cfg), dt, migrate_every: 20 })
    }

    /// Proc-backend knobs: worker-process count (0 = one per PE; any other
    /// value must equal the PE count) and the directory for the Unix socket
    /// mesh (`None` = a fresh directory under the system temp dir).
    pub fn set_proc_options(&mut self, procs: usize, socket_dir: Option<std::path::PathBuf>) {
        assert!(
            procs == 0 || procs == self.engine.config.n_pes,
            "procs must be 0 or equal the PE count ({}), got {procs}",
            self.engine.config.n_pes
        );
        self.engine.config.procs = procs;
        self.engine.config.socket_dir = socket_dir;
    }

    /// Number of compute objects (parallel tasks per force evaluation).
    pub fn n_computes(&self) -> usize {
        self.engine.decomp().computes.len()
    }

    /// Read access to the system (positions, velocities, temperature, …).
    pub fn system(&self) -> SystemRef<'_> {
        SystemRef(self.engine.shared.state.read().expect("state lock poisoned"))
    }

    /// Write access to the system, e.g. for thermostats between steps.
    pub fn system_mut(&mut self) -> SystemMut<'_> {
        SystemMut(self.engine.shared.state.write().expect("state lock poisoned"))
    }

    /// The current spatial decomposition.
    pub fn decomp(&self) -> &Decomposition {
        self.engine.decomp()
    }

    /// The underlying engine (placement, measured loads, load balancing).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Set the non-bonded pair-list margin, Å (0 = rebuild every
    /// evaluation). Takes effect from the next step; changing the margin
    /// mid-run forces the caches to rebuild (the stored build radius no
    /// longer matches).
    pub fn set_pairlist(&mut self, margin: f64) {
        assert!(
            margin >= 0.0 && margin.is_finite(),
            "pairlist margin must be non-negative and finite, got {margin}"
        );
        self.engine.config.pairlist_margin = margin;
    }

    /// Cumulative pair-list cache counters (builds/hits) since construction
    /// or the last atom migration (migration resets the cache).
    pub fn pairlist_stats(&self) -> crate::nbcache::PairlistStats {
        self.engine.shared.nb_cache.totals()
    }

    /// Attach an observability registry: every engine phase driven by this
    /// simulator records a profile (and streams Perfetto trace files when
    /// the registry has a directory). Pass `None` to turn profiling off.
    pub fn set_metrics(&mut self, metrics: Option<profile::MetricsRegistry>) {
        self.engine.set_metrics(metrics);
    }

    /// The attached observability registry, if any.
    pub fn metrics(&self) -> Option<&profile::MetricsRegistry> {
        self.engine.metrics.as_ref()
    }

    /// Evaluate all forces on the worker threads without moving any atom.
    /// Returns the energy accumulator for the current configuration
    /// (including the kinetic energy of the current velocities);
    /// [`ParallelSim::forces`] holds the per-atom result.
    pub fn compute_forces(&mut self) -> StepAcc {
        self.engine.config.dt_fs = self.dt;
        self.engine.run_phase(1).energies[0]
    }

    /// One velocity-Verlet step; returns the step's energies.
    pub fn step(&mut self) -> StepAcc {
        self.run(1).pop().expect("one step requested")
    }

    /// Run `n` steps; returns per-step energies. Panics if a PE is killed —
    /// a caller that installs a fault plan drives
    /// [`ParallelSim::try_advance`] and handles the rollback.
    pub fn run(&mut self, n: usize) -> Vec<StepAcc> {
        let target = self.engine.steps_done + n;
        let mut out = Vec::with_capacity(n);
        while self.engine.steps_done < target {
            match self.try_advance(target) {
                Ok(Advanced::Phase { phase, updates }) => {
                    out.extend_from_slice(&phase.energies[1..=updates])
                }
                Ok(Advanced::RolledBack { crash, .. }) => panic!("unrecovered PE crash: {crash}"),
                Err(e) => panic!("unrecovered PE crash: {e}"),
            }
        }
        out
    }

    /// One [`advance`] call toward global step `target` at this simulator's
    /// `dt` and `migrate_every`: one completed phase (which ends rebuilt
    /// when it lands on a multiple of `migrate_every`), or one rollback to
    /// the newest checkpoint of [`ParallelSim::set_checkpointing`].
    pub fn try_advance(&mut self, target: usize) -> Result<Advanced, RecoveryError> {
        self.engine.config.dt_fs = self.dt;
        advance(&mut self.engine, target, self.migrate_every, None, false)
    }

    /// Re-bin atoms into patches and rebuild the compute set — the analogue
    /// of NAMD's atom migration at pairlist updates.
    pub fn migrate_atoms(&mut self) {
        self.engine.migrate_atoms();
    }

    /// Completed velocity-Verlet updates since construction (or since the
    /// state restored by [`ParallelSim::restore`]).
    pub fn steps_done(&self) -> usize {
        self.engine.steps_done
    }

    /// Enable periodic in-phase checkpoints and crash recovery from them: a
    /// snapshot is written into `dir` every `interval` global steps, and a
    /// killed PE rolls the run back to the newest one, giving up after
    /// `max_recoveries` consecutive crashes (`backoff_ms` base sleep,
    /// doubled per consecutive crash). The interval must be a multiple of
    /// `migrate_every` — checked when a step runs — so that every
    /// checkpoint lands on a phase-final step at an atom-migration
    /// boundary, the alignment that makes a restored run bit-identical to
    /// an uninterrupted one.
    pub fn set_checkpointing(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
        interval: usize,
        max_recoveries: u32,
        backoff_ms: u64,
    ) {
        assert!(interval > 0, "checkpoint interval must be positive");
        self.engine.config.checkpoint_interval = interval;
        self.engine.config.checkpoint_dir = Some(dir.into());
        self.engine.config.max_recoveries = max_recoveries;
        self.engine.config.recovery_backoff_ms = backoff_ms;
    }

    /// Take a snapshot of the current state (between steps).
    pub fn snapshot(&self) -> ckpt::Snapshot {
        self.engine.snapshot()
    }

    /// Opaque application payload carried inside every snapshot this
    /// simulator writes (e.g. thermostat or output-file state).
    pub fn set_ckpt_extra(&mut self, extra: Vec<u8>) {
        self.engine.ckpt_extra = extra;
    }

    /// Restore positions, velocities, the step counter, and the RNG/load
    /// state from `snap`, rebuilding the decomposition. Refuses snapshots
    /// from a different topology or configuration.
    pub fn restore(&mut self, snap: &ckpt::Snapshot) -> Result<(), ckpt::CkptError> {
        self.engine.restore(snap)
    }

    /// Opaque payload restored by the last [`ParallelSim::restore`] (or set
    /// by [`ParallelSim::set_ckpt_extra`]).
    pub fn ckpt_extra(&self) -> &[u8] {
        &self.engine.ckpt_extra
    }

    /// Install a fault plan (exercised fresh each phase).
    pub fn set_fault_plan(&mut self, plan: Option<charmrt::FaultPlan>) {
        self.engine.config.fault_plan = plan;
    }

    /// Install a message dequeue-order policy (exercised fresh each phase).
    pub fn set_schedule(&mut self, policy: charmrt::SchedulePolicy) {
        self.engine.config.schedule = policy;
    }

    /// The most recently evaluated force on each atom (zero after a
    /// restore, until the next evaluation).
    pub fn forces(&self) -> impl Deref<Target = [Vec3]> + '_ {
        ForcesRef(self.engine.shared.state.read().expect("state lock poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system(seed: u64) -> System {
        let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
            name: "par-test",
            box_lengths: Vec3::new(30.0, 30.0, 30.0),
            target_atoms: 2400,
            protein_chains: 1,
            protein_chain_len: 40,
            lipid_slab: None,
            cutoff: 8.0,
            seed,
        })
        .build();
        sys.thermalize(120.0, seed);
        sys
    }

    #[test]
    fn new_rejects_bad_arguments() {
        let sys = small_system(9);
        assert_eq!(
            ParallelSim::new(sys.clone(), 0, 1.0).err(),
            Some(ParallelSimError::NoThreads)
        );
        assert_eq!(
            ParallelSim::new(sys.clone(), 2, 0.0).err(),
            Some(ParallelSimError::BadTimestep(0.0))
        );
        assert!(matches!(
            ParallelSim::new(sys, 2, f64::NAN).err(),
            Some(ParallelSimError::BadTimestep(dt)) if dt.is_nan()
        ));
    }

    #[test]
    fn parallel_forces_match_sequential() {
        let sys = small_system(1);
        let mut f_seq = vec![Vec3::ZERO; sys.n_atoms()];
        let e_seq = mdcore::sim::compute_forces(&sys, &mut f_seq);

        let mut par = ParallelSim::new(sys, 2, 1.0).unwrap();
        let acc = par.compute_forces();

        let e_par = acc.potential();
        let tol = 1e-8 * e_seq.potential().abs().max(1.0);
        assert!(
            (e_par - e_seq.potential()).abs() < tol,
            "potential: parallel {e_par} vs sequential {}",
            e_seq.potential()
        );
        for i in 0..f_seq.len() {
            let d = (par.forces()[i] - f_seq[i]).norm();
            let tol = 1e-9 * (1.0 + f_seq[i].norm());
            assert!(d < tol, "atom {i} force differs by {d} (|f| = {})", f_seq[i].norm());
        }
        assert_eq!(acc.pairs, e_seq.nonbonded.pairs);
    }

    #[test]
    fn thread_counts_agree() {
        let e1 = {
            let mut p = ParallelSim::new(small_system(2), 1, 1.0).unwrap();
            p.compute_forces().potential()
        };
        let e2 = {
            let mut p = ParallelSim::new(small_system(2), 2, 1.0).unwrap();
            p.compute_forces().potential()
        };
        assert!((e1 - e2).abs() < 1e-7 * e1.abs().max(1.0), "{e1} vs {e2}");
    }

    #[test]
    fn parallel_nve_conserves_energy() {
        let mut p = ParallelSim::new(small_system(3), 2, 0.5).unwrap();
        p.migrate_every = 10;
        let energies = p.run(40);
        let e0 = energies[2].total();
        let e1 = energies[39].total();
        let drift = (e1 - e0).abs() / e0.abs().max(1.0);
        assert!(drift < 1e-2, "drift {drift}: {e0} -> {e1}");
    }

    /// `run` cuts phases at multiples of `migrate_every` and — not knowing
    /// whether more steps follow — ends on a multiple rebuilt. A phase on
    /// freshly rebuilt lists builds every one of them in its first
    /// evaluation (1 of `n_steps` executions per list); a phase on live
    /// lists would build next to none.
    #[test]
    fn run_rebuilds_at_every_multiple_including_the_last() {
        let mut p = ParallelSim::new(small_system(5), 2, 0.5).unwrap();
        p.set_metrics(Some(profile::MetricsRegistry::in_memory()));
        p.run(60);
        let phases = &p.metrics().unwrap().phases;
        assert_eq!(phases.iter().map(|ph| ph.n_steps).collect::<Vec<_>>(), [21, 21, 21]);
        for ph in phases {
            let lists = &ph.metrics.pairlist;
            assert!(
                lists.builds * 21 >= lists.builds + lists.hits,
                "phase {} ran on lists an earlier phase built: {lists:?}",
                ph.index
            );
        }
        assert_eq!(p.pairlist_stats().executions(), 0, "step 60 must end rebuilt (emptied cache)");
        assert_eq!(p.steps_done(), 60);
    }

    #[test]
    #[should_panic(expected = "migrate_every (0) must be at least 1")]
    fn zero_migrate_every_is_refused_by_name() {
        let mut p = ParallelSim::new(small_system(6), 1, 1.0).unwrap();
        p.migrate_every = 0;
        p.step();
    }

    #[test]
    #[should_panic(expected = "migrate_every (8) must be at least 1 and divide the checkpoint interval (20)")]
    fn cadence_changed_after_set_checkpointing_is_refused_by_name() {
        let mut p = ParallelSim::new(small_system(6), 1, 1.0).unwrap();
        p.set_checkpointing(std::env::temp_dir().join("namd-par-misaligned"), 20, 3, 10);
        p.migrate_every = 8;
        p.step();
    }

    #[test]
    fn migration_preserves_atom_count_and_energy() {
        let mut p = ParallelSim::new(small_system(4), 2, 1.0).unwrap();
        let before = p.compute_forces().potential();
        p.migrate_atoms();
        let total_atoms: usize = p.decomp().grid.atoms.iter().map(Vec::len).sum();
        assert_eq!(total_atoms, p.system().n_atoms());
        let after = p.compute_forces().potential();
        assert!(
            (before - after).abs() < 1e-7 * before.abs().max(1.0),
            "migration changed the physics: {before} vs {after}"
        );
    }
}
