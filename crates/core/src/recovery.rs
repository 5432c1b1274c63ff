//! The phase-chaining driver: [`advance`] is the one place that turns a
//! global-step target into engine phases, and therefore the one place that
//! knows the atom-migration cadence, when the load balancer runs and what
//! a crashed phase triggers. The CLI's run loop (at every thread count),
//! the job scheduler in `crates/serve`, [`crate::parallel::ParallelSim`],
//! and [`steady_phase`] (`namd-rs bench` and the paper-table bins of
//! `crates/bench`) are `while done < target` loops around it, in both force
//! modes.
//!
//! **Cadence.** A phase never crosses a multiple of `migrate_every` on the
//! *global* step counter. Whenever the counter lands on one, a Real-mode
//! run rebuilds the decomposition from the moved atoms, and both modes
//! then apply §3.2's balancing policy (`Engine::balance`): the
//! configured strategy at the first boundary, refinement after that. So
//! the rebuild and balancing pattern is a property of the trajectory, not
//! of how a caller sliced it into targets. That alignment is what makes
//! recovery
//! *bit-identical*: [`Engine::restore`] rebuilds the decomposition from the
//! snapshot positions, producing exactly the pair-term partition (and
//! therefore exactly the floating-point summation grouping) the
//! uninterrupted run builds at the same step.
//!
//! **Checkpoints.** Every rollback point is one [`Engine::snapshot`] taken
//! here, between phases, after the rebuild at a boundary — so it carries
//! the successors' measured loads and a restore refines on them at once.
//! It is written to `config.checkpoint_dir` when the boundary is a
//! multiple of `checkpoint_interval` (itself a multiple of
//! `migrate_every`), or kept in memory for a caller that asked for it.
//! Nothing inside a phase touches the filesystem.
//!
//! **Recovery.** A [`PhaseCrash`] leaves the engine at the phase-start
//! state. The driver strips the (one-shot) kill rules, backs off
//! exponentially, and restores the newest rollback point: the newest valid
//! file in `config.checkpoint_dir` when one is set, else the rebuild-
//! boundary snapshot it keeps in memory for a caller that asked for one,
//! else nothing — the crash is surfaced. Snapshots hold the post-rescale
//! state of a thermostatted run, so nothing is re-applied. It then
//! *returns* before replaying, because only the caller knows what else the
//! rollback undid (the CLI rewinds its step counter, the scheduler counts
//! the recovery). `config.max_recoveries` bounds *consecutive* crashes: a
//! completed phase resets the count.

use crate::config::ForceMode;
use crate::engine::{Engine, PhaseCrash, PhaseResult};
use charmrt::Pe;
use std::path::PathBuf;
use std::time::Duration;

/// Why [`advance`] gave up.
#[derive(Debug)]
pub enum RecoveryError {
    /// Checkpoint I/O or validation failed during recovery.
    Ckpt(ckpt::CkptError),
    /// Crashed more than `config.max_recoveries` times in a row.
    TooManyCrashes {
        /// Consecutive crashes observed.
        crashes: u32,
        /// The PE killed by the final crash.
        last_pe: Pe,
    },
    /// A phase crashed with neither a checkpoint directory nor a kept
    /// boundary snapshot to roll back to.
    Unrecoverable(PhaseCrash),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Ckpt(e) => write!(f, "recovery failed: {e}"),
            RecoveryError::TooManyCrashes { crashes, last_pe } => write!(
                f,
                "giving up after {crashes} consecutive crashes \
                 (last killed PE {last_pe})"
            ),
            RecoveryError::Unrecoverable(crash) => {
                write!(f, "{crash}; no checkpoint or boundary snapshot to roll back to")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Ckpt(e) => Some(e),
            RecoveryError::TooManyCrashes { .. } => None,
            RecoveryError::Unrecoverable(crash) => Some(crash),
        }
    }
}

impl From<ckpt::CkptError> for RecoveryError {
    fn from(e: ckpt::CkptError) -> Self {
        RecoveryError::Ckpt(e)
    }
}

/// What one [`advance`] call did.
// Returned by value once per phase; a boxed `PhaseResult` would be the
// per-phase allocation the `ParallelSim::run` path does not make.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Advanced {
    /// A phase completed `updates` steps. In Real mode they are
    /// velocity-Verlet updates, `phase.energies[1..=updates]` are their
    /// per-step records and `energies[0]` is the phase's bootstrap force
    /// evaluation; a Counted phase runs exactly `updates` counted steps
    /// and carries no energies.
    Phase { phase: PhaseResult, updates: usize },
    /// A PE was killed mid-phase and the engine was rolled back to global
    /// step `step`; nothing has been replayed yet.
    RolledBack {
        crash: PhaseCrash,
        /// Consecutive crashes so far, this one included.
        attempt: u32,
        step: usize,
        /// The checkpoint file restored, `None` for the in-memory boundary
        /// snapshot.
        from: Option<PathBuf>,
    },
}

/// Run one phase of `engine` toward global step `target` (which must lie
/// ahead of `engine.steps_done`): at most up to the next multiple of
/// `migrate_every`, followed by the boundary — a Real-mode decomposition
/// rebuild, then `Engine::balance` and one step of the load drift — when
/// the counter lands on one. `last_step` is the job's final step when the
/// caller knows it — the boundary after it is skipped; with `None` a run
/// that ends on a multiple ends on a boundary. A crashed phase is rolled
/// back as the module docs describe; `keep_snapshot` asks for the
/// in-memory rollback point (one [`Engine::snapshot`] on entry and per
/// boundary), which a configured `checkpoint_dir` makes unnecessary. With
/// a `checkpoint_dir`, a step-0 file is written on entry if the directory
/// holds none, so a crash before the first checkpoint is recoverable too;
/// failing to write it is an error, while a failed periodic write is
/// reported on stderr and the run goes on with one fewer recovery point. A
/// snapshot taken where `last_step` skips the boundary carries no loads:
/// they would index the computes a restore replaces.
///
/// Panics unless `migrate_every >= 1` divides `config.checkpoint_interval`
/// (checked on every call: both are public fields of their owners).
///
/// A run through this driver is bit-identical to the same run with no
/// kills in the fault plan, whatever sequence of targets slices it.
pub fn advance(
    engine: &mut Engine,
    target: usize,
    migrate_every: usize,
    last_step: Option<usize>,
    keep_snapshot: bool,
) -> Result<Advanced, RecoveryError> {
    let interval = engine.config.checkpoint_interval;
    assert!(
        migrate_every >= 1 && interval.is_multiple_of(migrate_every),
        "migrate_every ({migrate_every}) must be at least 1 and divide the checkpoint \
         interval ({interval}): restores are bit-identical only at rebuild boundaries"
    );
    let done = engine.steps_done;
    assert!(done < target, "target step {target} is not ahead of step {done}");

    let keep_snapshot = keep_snapshot && engine.config.checkpoint_dir.is_none();
    if let (0, Some(path)) = (done, &engine.config.checkpoint_dir) {
        let dir = ckpt::CheckpointDir::create(path)?;
        if !dir.file_for_step(0).exists() {
            dir.write(&engine.snapshot())?;
        }
    }
    if keep_snapshot && engine.boundary.is_none() {
        engine.boundary = Some(engine.snapshot());
    }

    let updates = (target - done).min(migrate_every - done % migrate_every);
    // A Real phase's extra step 0 is its bootstrap force evaluation; a
    // Counted phase has none and runs exactly `updates` steps.
    let real = engine.config.force_mode == ForceMode::Real;
    match engine.try_run_phase(updates + usize::from(real)) {
        Ok(phase) => {
            engine.crashes = 0;
            let done = engine.steps_done;
            let boundary =
                done.is_multiple_of(migrate_every) && last_step.is_none_or(|last| done < last);
            if boundary {
                if real {
                    engine.rebuild();
                }
                engine.balance(done == migrate_every);
                engine.advance_load_drift();
            }
            // One snapshot per boundary, taken after the rebuild so its
            // loads index the computes a restore rebuilds.
            let dir =
                engine.config.checkpoint_dir.as_ref().filter(|_| done.is_multiple_of(interval));
            if dir.is_some() || keep_snapshot && boundary {
                let mut snap = engine.snapshot();
                if !boundary {
                    // They index the computes a restore replaces.
                    snap.loads.clear();
                }
                if let Some(path) = dir {
                    // A failed write costs one recovery point, not the run.
                    if let Err(e) = ckpt::CheckpointDir::create(path).and_then(|d| d.write(&snap)) {
                        eprintln!("checkpoint write failed at step {done}: {e}");
                    }
                }
                if keep_snapshot {
                    engine.boundary = Some(snap);
                }
            }
            Ok(Advanced::Phase { phase, updates })
        }
        Err(crash) => {
            let disk = engine.config.checkpoint_dir.clone();
            if disk.is_none() && engine.boundary.is_none() {
                return Err(RecoveryError::Unrecoverable(crash));
            }
            engine.crashes += 1;
            let attempt = engine.crashes;
            if attempt > engine.config.max_recoveries {
                return Err(RecoveryError::TooManyCrashes { crashes: attempt, last_pe: crash.pe });
            }
            // The kill already fired; replaying it verbatim would crash the
            // same phase forever. Keep the message-level faults.
            engine.config.fault_plan =
                engine.config.fault_plan.take().and_then(|p| p.without_kills());
            std::thread::sleep(
                Duration::from_millis(engine.config.recovery_backoff_ms)
                    * 2u32.saturating_pow(attempt - 1),
            );
            let from = match disk {
                Some(path) => {
                    let (snap, file) = ckpt::CheckpointDir::create(path)?.latest_valid()?;
                    engine.restore(&snap)?;
                    Some(file)
                }
                None => {
                    let snap = engine.boundary.take().expect("checked above");
                    engine.restore(&snap)?;
                    engine.boundary = Some(snap);
                    None
                }
            };
            Ok(Advanced::RolledBack { crash, attempt, step: engine.steps_done, from })
        }
    }
}

/// §3.2's protocol from step 0 through [`advance`]: three `steps`-step
/// phases — the static placement measured, the configured strategy applied
/// at the first boundary, refinement at the second — returning the third,
/// the steady state `namd-rs bench` and every paper artifact report. A
/// rolled-back phase is replayed.
pub fn steady_phase(engine: &mut Engine, steps: usize) -> Result<PhaseResult, RecoveryError> {
    let end = 3 * steps;
    let mut last = None;
    while engine.steps_done < end {
        if let Advanced::Phase { phase, .. } = advance(engine, end, steps, Some(end), false)? {
            last = Some(phase);
        }
    }
    Ok(last.expect("steady_phase starts at step 0"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{Backend, LbStrategy, PmeSimConfig, SimConfig};
    use crate::engine::PhaseResult;
    use crate::state::StepAcc;
    use mdcore::prelude::{System, Vec3};

    const KILL: &str = "kill:entry=PatchRecvForces:dst=1:skip=6";

    const STRATEGIES: [LbStrategy; 6] = [
        LbStrategy::None,
        LbStrategy::Random,
        LbStrategy::RoundRobin,
        LbStrategy::GreedyNoProxy,
        LbStrategy::Greedy,
        LbStrategy::GreedyRefine,
    ];

    fn small_system() -> System {
        let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
            name: "recovery-test",
            box_lengths: Vec3::new(28.0, 28.0, 28.0),
            target_atoms: 1200,
            protein_chains: 1,
            protein_chain_len: 24,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 7,
        })
        .build();
        sys.thermalize(150.0, 7);
        sys
    }

    /// A 2-PE engine; with `dir`, checkpointing into it every 4 steps.
    fn small_engine(dir: Option<&std::path::Path>, backend: Backend) -> Engine {
        let mut cfg = SimConfig::builder(2, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(backend);
        if let Some(dir) = dir {
            cfg = cfg.checkpoint(dir, 4);
        }
        Engine::new(small_system(), cfg.build().expect("valid test config"))
    }

    /// Chain `n` phases of `len` steps through [`advance`] from step 0, the
    /// last one named as the job's final step; returns every phase.
    pub(crate) fn phases(engine: &mut Engine, len: usize, n: usize) -> Vec<PhaseResult> {
        (1..=n)
            .map(|k| match advance(engine, k * len, len, Some(n * len), false).unwrap() {
                Advanced::Phase { phase, .. } => phase,
                Advanced::RolledBack { .. } => unreachable!("no kill in the fault plan"),
            })
            .collect()
    }

    fn audit_names(engine: &Engine) -> Vec<&str> {
        let audits = &engine.metrics.as_ref().expect("registry attached").lb_audits;
        audits.iter().map(|a| a.strategy.as_str()).collect()
    }

    /// §3.2's one policy in both force modes: the first boundary audits the
    /// static placement and applies the configured strategy (`GreedyRefine`
    /// means greedy there); every later boundary refines under
    /// `GreedyRefine` only. Counted DES phases run exactly their length.
    #[test]
    fn boundary_policy_is_strategy_first_then_refine_in_both_modes() {
        let sys = small_system();
        for mode in [ForceMode::Counted, ForceMode::Real] {
            for lb in STRATEGIES {
                let cfg = SimConfig::builder(2, machine::presets::generic_cluster())
                    .force_mode(mode)
                    .lb(lb)
                    .build()
                    .unwrap();
                let mut engine = Engine::new(sys.clone(), cfg);
                engine.set_metrics(Some(profile::MetricsRegistry::in_memory()));
                let run = phases(&mut engine, 3, 4);
                assert_eq!(engine.steps_done, 12, "{mode:?} {lb:?}");
                let evaluations = 3 + usize::from(mode == ForceMode::Real);
                assert!(run.iter().all(|p| p.n_steps == evaluations), "{mode:?} {lb:?}");
                let first = match lb {
                    LbStrategy::None => None,
                    LbStrategy::Random => Some("random"),
                    LbStrategy::RoundRobin => Some("round-robin"),
                    LbStrategy::GreedyNoProxy => Some("greedy-no-proxy"),
                    LbStrategy::Greedy | LbStrategy::GreedyRefine => Some("greedy"),
                };
                let mut expected: Vec<&str> = ["rcb-static"].into_iter().chain(first).collect();
                if lb == LbStrategy::GreedyRefine {
                    expected.extend(["refine", "refine"]);
                }
                assert_eq!(audit_names(&engine), expected, "{mode:?} {lb:?}");
            }
        }
    }

    /// The global step counter keys the PME cadence in Counted mode too:
    /// with `every 4`, 2-step phases carry the reciprocal round on
    /// alternate phases.
    #[test]
    fn counted_phases_advance_the_step_counter_that_keys_pme() {
        let cfg = SimConfig::builder(2, machine::presets::generic_cluster())
            .pme(Some(PmeSimConfig { every: 4, slabs: 2, ..Default::default() }))
            .build()
            .unwrap();
        let mut engine = Engine::new(small_system(), cfg);
        let n_patches = engine.decomp().grid.n_patches() as u64;
        let charges: Vec<u64> = phases(&mut engine, 2, 4)
            .iter()
            .map(|p| p.stats.entry_count[p.entries.slab_charge.idx()])
            .collect();
        assert_eq!(engine.steps_done, 8);
        assert_eq!(charges, [n_patches, 0, n_patches, 0]);
    }

    fn kill_plan() -> Option<charmrt::FaultPlan> {
        Some(charmrt::FaultPlan::parse(KILL).unwrap())
    }

    /// Chain [`advance`] calls through `targets` (the last one is the job's
    /// final step) the way every caller does; returns the recoveries and
    /// the per-step records.
    fn drive(
        engine: &mut Engine,
        targets: &[usize],
        migrate_every: usize,
        keep_snapshot: bool,
    ) -> Result<(u32, Vec<StepAcc>), RecoveryError> {
        let (start, last) = (engine.steps_done, *targets.last().unwrap());
        let (mut recoveries, mut records) = (0, Vec::new());
        for &target in targets {
            while engine.steps_done < target {
                match advance(engine, target, migrate_every, Some(last), keep_snapshot)? {
                    Advanced::Phase { phase, updates } => {
                        records.extend_from_slice(&phase.energies[1..=updates])
                    }
                    Advanced::RolledBack { step, .. } => {
                        recoveries += 1;
                        records.truncate(step - start);
                    }
                }
            }
        }
        Ok((recoveries, records))
    }

    fn state_bits(engine: &Engine) -> Vec<u64> {
        let sys = engine.system();
        let all = [&sys.positions, &sys.velocities];
        all.iter().flat_map(|v| v.iter()).flat_map(|v| [v.x, v.y, v.z]).map(f64::to_bits).collect()
    }

    #[test]
    fn uninterrupted_run_completes_and_checkpoints() {
        let tmp = tempdir("recovery-clean");
        let mut engine = small_engine(Some(&tmp), Backend::Des);
        let (recoveries, records) = drive(&mut engine, &[8], 4, false).unwrap();
        assert_eq!(engine.steps_done, 8);
        assert_eq!(records.len(), 8);
        assert_eq!(recoveries, 0);
        let dir = ckpt::CheckpointDir::create(&tmp).unwrap();
        let files = dir.list().unwrap();
        let names: Vec<String> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "ckpt_000000000000.ckpt",
                "ckpt_000000000004.ckpt",
                "ckpt_000000000008.ckpt"
            ]
        );
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// A checkpoint file is the boundary snapshot: it carries the measured
    /// loads of the computes a restore rebuilds, so a restore from disk
    /// refines the placement on them at once instead of running a phase at
    /// the carried placement first. A restore is never a first boundary:
    /// from the step-4 checkpoint, written after the greedy pass, it
    /// refines, and under a single-pass strategy it moves nothing.
    #[test]
    fn disk_checkpoints_carry_the_loads_a_restore_refines_on() {
        let tmp = tempdir("recovery-loads");
        let mut engine = small_engine(Some(&tmp), Backend::Des);
        engine.set_metrics(Some(profile::MetricsRegistry::in_memory()));
        while engine.steps_done < 4 {
            advance(&mut engine, 4, 4, Some(8), false).unwrap();
        }
        assert_eq!(audit_names(&engine), ["rcb-static", "greedy"]);
        let (snap, file) = ckpt::CheckpointDir::create(&tmp).unwrap().latest_valid().unwrap();
        assert!(file.ends_with("ckpt_000000000004.ckpt"), "{}", file.display());
        assert_eq!(snap.loads.len(), engine.decomp().computes.len());
        assert!(snap.loads.iter().any(|&l| l > 0.0), "no measured load");
        assert_eq!(snap.loads, engine.snapshot().loads);

        let mut restored = small_engine(None, Backend::Des);
        restored.set_metrics(Some(profile::MetricsRegistry::in_memory()));
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot().loads, snap.loads);
        let audits = &restored.metrics.as_ref().unwrap().lb_audits;
        assert_eq!(audits.len(), 1, "the restore did not refine");
        assert_eq!(audits[0].strategy, "refine");
        let on_pes: f64 = audits[0].before.iter().sum();
        let measured: f64 = snap.loads.iter().chain(&snap.background).sum();
        assert!((on_pes - measured).abs() <= 1e-12 * measured, "{on_pes} vs {measured}");

        let mut single_pass = small_engine(None, Backend::Des);
        single_pass.config.lb = LbStrategy::Greedy;
        single_pass.set_metrics(Some(profile::MetricsRegistry::in_memory()));
        single_pass.restore(&snap).unwrap();
        assert!(audit_names(&single_pass).is_empty());
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// Both rollback sources — the checkpoint directory and the kept
    /// boundary snapshot — resume onto the clean run's trajectory.
    #[test]
    fn killed_run_recovers_bit_identically() {
        let tmp_a = tempdir("recovery-ref");
        let mut reference = small_engine(Some(&tmp_a), Backend::Des);
        let (_, ref_records) = drive(&mut reference, &[8], 4, false).unwrap();
        let ref_bits = state_bits(&reference);

        let tmp_b = tempdir("recovery-killed");
        let mut from_disk = small_engine(Some(&tmp_b), Backend::Des);
        let mut from_memory = small_engine(None, Backend::Des);
        for (killed, keep_snapshot) in [(&mut from_disk, false), (&mut from_memory, true)] {
            killed.config.fault_plan = kill_plan();
            let (recoveries, records) = drive(killed, &[8], 4, keep_snapshot).unwrap();
            assert!(recoveries >= 1, "the kill must have fired");
            assert!(state_bits(killed) == ref_bits, "keep_snapshot {keep_snapshot}: state differs");
            assert_eq!(records, ref_records, "keep_snapshot {keep_snapshot}");
        }
        std::fs::remove_dir_all(&tmp_a).ok();
        std::fs::remove_dir_all(&tmp_b).ok();
    }

    #[test]
    fn crashed_phase_leaves_the_state_at_phase_start() {
        let tmp = tempdir("recovery-untouched");
        let mut engine = small_engine(Some(&tmp), Backend::Des);
        // Late enough that every patch has integrated several steps.
        engine.config.fault_plan = Some(
            charmrt::FaultPlan::parse("kill:entry=PatchRecvForces:dst=1:skip=150").unwrap(),
        );
        let bits = |engine: &Engine| -> Vec<u64> {
            let forces = engine.forces().to_vec();
            let sys = engine.system();
            let all = [&sys.positions, &sys.velocities, &forces];
            all.iter().flat_map(|v| v.iter()).flat_map(|v| [v.x, v.y, v.z]).map(f64::to_bits).collect()
        };
        let before = bits(&engine);
        engine.try_run_phase(9).expect_err("the kill must fire");
        assert!(bits(&engine) == before, "a crashed phase wrote to the between-phase state");
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn persistent_crashes_give_up() {
        let tmp = tempdir("recovery-giveup");
        let mut engine = small_engine(Some(&tmp), Backend::Des);
        // The driver strips the kill after the first crash, so set
        // max_recoveries = 0 to observe the give-up path directly.
        engine.config.fault_plan = kill_plan();
        engine.config.max_recoveries = 0;
        match drive(&mut engine, &[8], 4, false) {
            Err(RecoveryError::TooManyCrashes { crashes, last_pe }) => {
                assert_eq!(crashes, 1);
                assert_eq!(last_pe, 1);
            }
            other => panic!("expected TooManyCrashes, got {other:?}"),
        }
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// `max_recoveries` bounds crashes *in a row*: two crashes with a
    /// completed phase between them fit a budget of one.
    #[test]
    fn progress_resets_the_crash_count() {
        let mut engine = small_engine(None, Backend::Des);
        engine.config.fault_plan = kill_plan();
        engine.config.max_recoveries = 1;
        let mut attempts = Vec::new();
        while engine.steps_done < 8 {
            match advance(&mut engine, 8, 4, Some(8), true).unwrap() {
                Advanced::Phase { .. } if attempts.len() == 1 => {
                    // Lose a second worker after the first loss was repaired.
                    engine.config.fault_plan = kill_plan();
                }
                Advanced::Phase { .. } => {}
                Advanced::RolledBack { attempt, .. } => attempts.push(attempt),
            }
        }
        assert_eq!(attempts, [1, 1]);
    }

    #[test]
    fn crash_without_a_rollback_point_is_surfaced() {
        let mut engine = small_engine(None, Backend::Des);
        engine.config.fault_plan = kill_plan();
        let err = drive(&mut engine, &[8], 4, false).unwrap_err();
        assert!(matches!(err, RecoveryError::Unrecoverable(crash) if crash.pe == 1), "{err}");
    }

    /// The trajectory and its per-step records are a function of the
    /// final target alone, not of the intermediate targets that slice it.
    #[test]
    fn slicing_into_targets_changes_no_bit() {
        for backend in [Backend::Des, Backend::Threads] {
            let per_step: Vec<usize> = (1..=13).collect();
            let mut seed = 0x9E37_79B9_7F4A_7C15u64;
            let mut random = Vec::new();
            while random.last() != Some(&13) {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let from = random.last().copied().unwrap_or(0);
                random.push((from + 1 + (seed >> 33) as usize % 5).min(13));
            }
            let mut runs = [&[13][..], &per_step, &random].map(|targets| {
                let mut engine = small_engine(None, backend);
                let (_, records) = drive(&mut engine, targets, 4, false).unwrap();
                assert_eq!(records.len(), 13);
                (state_bits(&engine), records)
            });
            let whole = runs[0].clone();
            for (i, run) in runs.iter_mut().enumerate().skip(1) {
                assert!(run.0 == whole.0, "{backend:?}: slicing {i} moved the state");
                assert_eq!(run.1, whole.1, "{backend:?}: slicing {i} changed a step record");
            }
        }
    }

    /// A caller that names the job's last step gets no rebuild after it;
    /// one that does not (`ParallelSim`) ends on a multiple rebuilt. The
    /// pair-list cache is emptied by a rebuild and filled by any phase, so
    /// an empty cache after a call means the call ended with a rebuild.
    #[test]
    fn rebuilds_follow_the_cadence_and_skip_a_known_last_step() {
        for (last_step, expected) in [(Some(40), 3), (None, 4)] {
            let mut engine = small_engine(None, Backend::Des);
            let mut rebuilds = 0;
            while engine.steps_done < 40 {
                advance(&mut engine, 40, 10, last_step, false).unwrap();
                assert_eq!(engine.steps_done % 10, 0, "phases are cut at multiples");
                rebuilds += (engine.pairlist_counts().executions() == 0) as u32;
            }
            assert_eq!(rebuilds, expected, "last_step {last_step:?}");
        }
    }

    #[test]
    #[should_panic(expected = "migrate_every (0) must be at least 1")]
    fn zero_cadence_is_refused_by_name() {
        let mut engine = small_engine(None, Backend::Des);
        let _ = advance(&mut engine, 1, 0, None, false);
    }

    #[test]
    #[should_panic(expected = "migrate_every (3) must be at least 1 and divide the checkpoint interval (4)")]
    fn checkpoint_interval_off_the_cadence_is_refused_by_name() {
        let tmp = tempdir("recovery-misaligned");
        let mut engine = small_engine(Some(&tmp), Backend::Des);
        let _ = advance(&mut engine, 1, 3, None, false);
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        let path = std::env::temp_dir().join(format!("namd-{tag}-{pid}"));
        std::fs::remove_dir_all(&path).ok();
        path
    }
}
