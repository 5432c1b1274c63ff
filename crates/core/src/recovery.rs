//! Crash-recovery driver: run a simulation to a target step count,
//! automatically rolling back to the newest valid checkpoint whenever the
//! fault plan kills a PE mid-phase.
//!
//! The driver slices the trajectory into checkpoint-interval-sized phases
//! and migrates atoms after each one, so every in-phase checkpoint barrier
//! lands on a phase-final step at a decomposition-rebuild boundary. That
//! alignment is what makes recovery *bit-identical*: [`Engine::restore`]
//! rebuilds the decomposition from the snapshot positions, producing
//! exactly the pair-term partition (and therefore exactly the
//! floating-point summation grouping) the uninterrupted run builds at the
//! same step. A checkpoint taken mid-phase away from a rebuild point is
//! still a *valid* restart state, but resuming from it changes how force
//! terms are grouped and the trajectories diverge in the last bits.

use crate::config::ForceMode;
use crate::engine::Engine;
use charmrt::Pe;
use std::time::Duration;

/// Retry/backoff policy for [`run_with_recovery`].
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Give up after this many crash-recoveries without forward progress
    /// between them.
    pub max_recoveries: u32,
    /// Base sleep before resuming after a crash; doubles per consecutive
    /// crash (exponential backoff).
    pub backoff: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::from_config(&crate::config::SimConfig::new(
            1,
            machine::presets::generic_cluster(),
        ))
    }
}

impl RecoveryPolicy {
    /// The policy a configuration asks for (`max_recoveries` /
    /// `recovery_backoff_ms`, CLI keys `maxRecoveries` /
    /// `recoveryBackoffMs`). The service layer sets these per job; the
    /// defaults reproduce the historical hard-coded 3 attempts / 10 ms.
    pub fn from_config(cfg: &crate::config::SimConfig) -> RecoveryPolicy {
        RecoveryPolicy {
            max_recoveries: cfg.max_recoveries,
            backoff: Duration::from_millis(cfg.recovery_backoff_ms),
        }
    }
}

/// Why [`run_with_recovery`] gave up.
#[derive(Debug)]
pub enum RecoveryError {
    /// Checkpoint I/O or validation failed during recovery.
    Ckpt(ckpt::CkptError),
    /// Crashed more than [`RecoveryPolicy::max_recoveries`] times in a row.
    TooManyCrashes {
        /// Consecutive crashes observed.
        crashes: u32,
        /// The PE killed by the final crash.
        last_pe: Pe,
    },
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
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Ckpt(e) => Some(e),
            RecoveryError::TooManyCrashes { .. } => None,
        }
    }
}

impl From<ckpt::CkptError> for RecoveryError {
    fn from(e: ckpt::CkptError) -> Self {
        RecoveryError::Ckpt(e)
    }
}

/// What happened during a recovered run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Velocity-Verlet updates completed (== the requested total on `Ok`).
    pub updates: usize,
    /// Crash-recoveries performed.
    pub recoveries: u32,
    /// The snapshot step each recovery resumed from, in order.
    pub resumed_from: Vec<u64>,
}

/// Drive `engine` until it has completed `total_updates` velocity-Verlet
/// updates, checkpointing every `config.checkpoint_interval` steps and
/// recovering from PE-kill crashes by restoring the newest valid
/// checkpoint from `config.checkpoint_dir`.
///
/// Requirements (asserted): `ForceMode::Real`, a positive
/// `checkpoint_interval`, and a `checkpoint_dir`. A step-0 snapshot is
/// written first if the engine has not advanced yet, so a crash in the
/// very first interval is recoverable too.
///
/// On success the produced trajectory is bit-identical to an uninterrupted
/// run through this same driver (same seed, schedule policy, and interval)
/// with no kills in the fault plan.
pub fn run_with_recovery(
    engine: &mut Engine,
    total_updates: usize,
    policy: &RecoveryPolicy,
) -> Result<RecoveryReport, RecoveryError> {
    assert_eq!(
        engine.config.force_mode,
        ForceMode::Real,
        "run_with_recovery requires real force kernels"
    );
    let interval = engine.config.checkpoint_interval;
    assert!(interval > 0, "run_with_recovery requires a checkpoint interval");
    let dir_path = engine
        .config
        .checkpoint_dir
        .clone()
        .expect("run_with_recovery requires a checkpoint directory");
    let dir = ckpt::CheckpointDir::create(&dir_path)?;

    let mut report = RecoveryReport::default();
    if engine.steps_done == 0 {
        // Baseline snapshot: without it, a crash before the first barrier
        // would leave nothing to roll back to.
        dir.write(&engine.snapshot())?;
    }

    let mut consecutive = 0u32;
    while engine.steps_done < total_updates {
        let updates = interval.min(total_updates - engine.steps_done);
        match engine.try_run_phase(updates + 1) {
            Ok(_) => {
                consecutive = 0;
                report.updates = engine.steps_done;
                if engine.steps_done < total_updates {
                    // Phase-final steps are decomposition-rebuild points;
                    // see the module docs for why this keeps restores
                    // bit-identical.
                    engine.migrate_atoms();
                }
            }
            Err(crash) => {
                report.recoveries += 1;
                consecutive += 1;
                if consecutive > policy.max_recoveries {
                    return Err(RecoveryError::TooManyCrashes {
                        crashes: consecutive,
                        last_pe: crash.pe,
                    });
                }
                // The kill already fired; replaying it verbatim would crash
                // the same phase forever. Keep the message-level faults.
                engine.config.fault_plan =
                    engine.config.fault_plan.take().and_then(|p| p.without_kills());
                std::thread::sleep(policy.backoff * 2u32.saturating_pow(consecutive - 1));
                let (snap, _path) = dir.latest_valid()?;
                engine.restore(&snap)?;
                report.resumed_from.push(snap.step);
            }
        }
    }
    report.updates = engine.steps_done;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, SimConfig};
    use mdcore::prelude::Vec3;

    fn small_engine(dir: &std::path::Path, backend: Backend) -> Engine {
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
        let cfg = SimConfig::builder(2, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(backend)
            .checkpoint(dir, 4)
            .build()
            .expect("valid test config");
        Engine::new(sys, cfg)
    }

    fn final_state(engine: &Engine) -> (Vec<Vec3>, Vec<Vec3>) {
        let st = engine.shared.state.read().unwrap();
        (st.system.positions.clone(), st.system.velocities.clone())
    }

    #[test]
    fn uninterrupted_run_completes_and_checkpoints() {
        let tmp = tempdir("recovery-clean");
        let mut engine = small_engine(&tmp, Backend::Des);
        let report =
            run_with_recovery(&mut engine, 8, &RecoveryPolicy::default()).unwrap();
        assert_eq!(report.updates, 8);
        assert_eq!(report.recoveries, 0);
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

    #[test]
    fn killed_run_recovers_bit_identically() {
        let tmp_a = tempdir("recovery-ref");
        let mut reference = small_engine(&tmp_a, Backend::Des);
        run_with_recovery(&mut reference, 8, &RecoveryPolicy::default()).unwrap();
        let (ref_x, ref_v) = final_state(&reference);

        let tmp_b = tempdir("recovery-killed");
        let mut killed = small_engine(&tmp_b, Backend::Des);
        killed.config.fault_plan = Some(
            charmrt::FaultPlan::parse("kill:entry=PatchRecvForces:dst=1:skip=6").unwrap(),
        );
        let report = run_with_recovery(&mut killed, 8, &RecoveryPolicy::default()).unwrap();
        assert!(report.recoveries >= 1, "the kill must have fired");
        let (x, v) = final_state(&killed);

        for i in 0..ref_x.len() {
            assert_eq!(ref_x[i].x.to_bits(), x[i].x.to_bits(), "atom {i} x");
            assert_eq!(ref_v[i].x.to_bits(), v[i].x.to_bits(), "atom {i} vx");
        }
        std::fs::remove_dir_all(&tmp_a).ok();
        std::fs::remove_dir_all(&tmp_b).ok();
    }

    #[test]
    fn crashed_phase_leaves_the_state_at_phase_start() {
        let tmp = tempdir("recovery-untouched");
        let mut engine = small_engine(&tmp, Backend::Des);
        // Late enough that every patch has integrated several steps.
        engine.config.fault_plan = Some(
            charmrt::FaultPlan::parse("kill:entry=PatchRecvForces:dst=1:skip=150").unwrap(),
        );
        let bits = |engine: &Engine| -> Vec<u64> {
            let st = engine.shared.state.read().unwrap();
            let all = [&st.system.positions, &st.system.velocities, &st.forces];
            all.iter().flat_map(|v| v.iter()).flat_map(|v| [v.x, v.y, v.z]).map(f64::to_bits).collect()
        };
        let before = bits(&engine);
        engine.try_run_phase(9).expect_err("the kill must fire");
        assert!(bits(&engine) == before, "a crashed phase wrote to the between-phase state");
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn policy_is_configurable_through_sim_config() {
        let cfg = SimConfig::builder(2, machine::presets::generic_cluster())
            .recovery(5, 40)
            .build()
            .unwrap();
        let p = RecoveryPolicy::from_config(&cfg);
        assert_eq!(p.max_recoveries, 5);
        assert_eq!(p.backoff, Duration::from_millis(40));
        let d = RecoveryPolicy::default();
        assert_eq!((d.max_recoveries, d.backoff), (3, Duration::from_millis(10)));
    }

    #[test]
    fn persistent_crashes_give_up() {
        let tmp = tempdir("recovery-giveup");
        let mut engine = small_engine(&tmp, Backend::Des);
        // without_kills() strips the kill after the first crash, so set
        // max_recoveries = 0 to observe the give-up path directly.
        engine.config.fault_plan = Some(
            charmrt::FaultPlan::parse("kill:entry=PatchRecvForces:dst=1:skip=6").unwrap(),
        );
        let policy = RecoveryPolicy { max_recoveries: 0, ..Default::default() };
        match run_with_recovery(&mut engine, 8, &policy) {
            Err(RecoveryError::TooManyCrashes { crashes, last_pe }) => {
                assert_eq!(crashes, 1);
                assert_eq!(last_pe, 1);
            }
            other => panic!("expected TooManyCrashes, got {other:?}"),
        }
        std::fs::remove_dir_all(&tmp).ok();
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        let path = std::env::temp_dir().join(format!("namd-{tag}-{pid}"));
        std::fs::remove_dir_all(&path).ok();
        path
    }
}
