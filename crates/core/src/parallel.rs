//! A sequential-looking facade over [`Engine`] for the benchmark and the
//! tests: `run(n)` steps a Real-mode engine on any runtime backend
//! (`threads`, one OS thread per PE — the default; `proc`, one OS process
//! per PE; `des`, deterministic virtual time) and hands back per-step
//! energies.
//!
//! There is no second timestep loop here: every self/pair/bonded compute
//! object is a chare of [`crate::engine`]'s message protocol, and the
//! chaining of phases — lengths, the migration cadence, crash rollback — is
//! [`crate::recovery::advance`]; this module only collects the per-step
//! records it hands back. A phase of `n + 1` timesteps performs one
//! bootstrap force evaluation followed by `n` velocity-Verlet updates;
//! chaining phases repeats the boundary evaluation, so the trajectory is
//! step-for-step identical to a sequential simulator.
//!
//! Everything configurable is a [`SimConfig`] field, set through
//! [`ParallelSim::from_config`]. Front-ends (the CLI, `serve`) drive
//! [`Engine`] and [`crate::recovery::advance`] directly.

use crate::config::{Backend, ConfigError, ForceMode, SimConfig};
use crate::engine::{Engine, SystemMut, SystemRef};
use crate::recovery::{advance, Advanced};
use crate::state::StepAcc;
use mdcore::prelude::*;
use std::ops::Deref;

/// Why a [`ParallelSim`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParallelSimError {
    /// The configuration failed [`SimConfig::validate`].
    Config(ConfigError),
    /// The system has no atoms to decompose.
    EmptySystem,
}

impl std::fmt::Display for ParallelSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelSimError::Config(e) => e.fmt(f),
            ParallelSimError::EmptySystem => write!(f, "system has no atoms"),
        }
    }
}

impl std::error::Error for ParallelSimError {}

/// A multicore MD simulator: the paper's decomposition executed by the
/// engine on a runtime backend.
pub struct ParallelSim {
    engine: Engine,
    /// Rebuild the patch assignment every this many steps (atom migration).
    /// Migration fires when the *global* step counter reaches a multiple,
    /// so the cadence is a property of the trajectory, not of how the run
    /// was sliced into `step`/`run` calls.
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
        let cfg = SimConfig::builder(n_pes, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(backend)
            .dt_fs(dt)
            .build();
        Self::from_config(system, cfg.map_err(ParallelSimError::Config)?)
    }

    /// Create a simulator from a Real-mode configuration — every knob
    /// (pair-list margin, schedule, fault plan, checkpointing) is a
    /// [`SimConfig`] field.
    pub fn from_config(system: System, config: SimConfig) -> Result<Self, ParallelSimError> {
        config.validate().map_err(ParallelSimError::Config)?;
        if system.n_atoms() == 0 {
            return Err(ParallelSimError::EmptySystem);
        }
        Ok(ParallelSim { engine: Engine::new(system, config), migrate_every: 20 })
    }

    /// The directory for the proc backend's Unix socket mesh (`None` = a
    /// fresh directory under the system temp dir). The proc backend runs one
    /// worker process per PE, so `procs` can only be 0 or the PE count; it
    /// configures nothing.
    pub fn set_proc_options(&mut self, procs: usize, socket_dir: Option<std::path::PathBuf>) {
        assert!(
            procs == 0 || procs == self.engine.config.n_pes,
            "procs must be 0 or equal the PE count ({}), got {procs}",
            self.engine.config.n_pes
        );
        self.engine.config.socket_dir = socket_dir;
    }

    /// Read access to the system (positions, velocities, temperature, …).
    pub fn system(&self) -> SystemRef<'_> {
        self.engine.system()
    }

    /// Write access to the system between steps.
    pub fn system_mut(&mut self) -> SystemMut<'_> {
        self.engine.system_mut()
    }

    /// The underlying engine (placement, measured loads, load balancing).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Cumulative pair-list cache counters (builds/hits) since construction
    /// or the last atom migration (migration resets the cache).
    pub fn pairlist_stats(&self) -> profile::PairlistCounters {
        self.engine.pairlist_counts()
    }

    /// Attach an observability registry: every engine phase driven by this
    /// simulator records a profile (and streams Perfetto trace files when
    /// the registry has a directory). Pass `None` to turn profiling off.
    pub fn set_metrics(&mut self, metrics: Option<profile::MetricsRegistry>) {
        self.engine.set_metrics(metrics);
    }

    /// Evaluate all forces on the worker threads without moving any atom.
    /// Returns the energy accumulator for the current configuration
    /// (including the kinetic energy of the current velocities);
    /// [`ParallelSim::forces`] holds the per-atom result.
    pub fn compute_forces(&mut self) -> StepAcc {
        self.engine.run_phase(1).energies[0]
    }

    /// One velocity-Verlet step; returns the step's energies.
    pub fn step(&mut self) -> StepAcc {
        self.run(1).pop().expect("one step requested")
    }

    /// Run `n` steps through [`advance`]; returns per-step energies. Panics
    /// if a PE is killed — a caller that recovers drives [`Engine`] and
    /// [`advance`] itself.
    pub fn run(&mut self, n: usize) -> Vec<StepAcc> {
        let target = self.engine.steps_done + n;
        let mut out = Vec::with_capacity(n);
        while self.engine.steps_done < target {
            match advance(&mut self.engine, target, self.migrate_every, None, false) {
                Ok(Advanced::Phase { phase, updates }) => {
                    out.extend_from_slice(&phase.energies[1..=updates])
                }
                Ok(Advanced::RolledBack { crash, .. }) => panic!("unrecovered PE crash: {crash}"),
                Err(e) => panic!("unrecovered PE crash: {e}"),
            }
        }
        out
    }

    /// The most recently evaluated force on each atom.
    pub fn forces(&self) -> impl Deref<Target = [Vec3]> + '_ {
        self.engine.forces()
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
            Some(ParallelSimError::Config(ConfigError::NoPes))
        );
        assert_eq!(
            ParallelSim::new(sys.clone(), 2, 0.0).err(),
            Some(ParallelSimError::Config(ConfigError::BadTimestep(0.0)))
        );
        assert!(matches!(
            ParallelSim::new(sys, 2, f64::NAN).err(),
            Some(ParallelSimError::Config(ConfigError::BadTimestep(dt))) if dt.is_nan()
        ));
        let mut empty = small_system(9);
        empty.topology.atoms.clear();
        let cfg = SimConfig::builder(2, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .build()
            .unwrap();
        assert_eq!(
            ParallelSim::from_config(empty, cfg).err(),
            Some(ParallelSimError::EmptySystem)
        );
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
        let phases = &p.engine().metrics.as_ref().unwrap().phases;
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
        assert_eq!(p.engine().steps_done, 60);
    }

    #[test]
    #[should_panic(expected = "migrate_every (0) must be at least 1")]
    fn zero_migrate_every_is_refused_by_name() {
        let mut p = ParallelSim::new(small_system(6), 1, 1.0).unwrap();
        p.migrate_every = 0;
        p.step();
    }

    #[test]
    fn migration_preserves_atom_count_and_energy() {
        let cfg = SimConfig::builder(2, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(Backend::Threads)
            .build()
            .unwrap();
        let mut engine = Engine::new(small_system(4), cfg);
        let before = engine.run_phase(1).energies[0].potential();
        engine.migrate_atoms();
        let total_atoms: usize = engine.decomp().grid.atoms.iter().map(Vec::len).sum();
        assert_eq!(total_atoms, engine.system().n_atoms());
        let after = engine.run_phase(1).energies[0].potential();
        assert!(
            (before - after).abs() < 1e-7 * before.abs().max(1.0),
            "migration changed the physics: {before} vs {after}"
        );
    }
}
