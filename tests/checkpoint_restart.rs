//! Checkpoint/restart acceptance tests (ISSUE 4):
//!
//! * crash-recovery round trip: a PE-kill fault at a fuzzed message
//!   occurrence, under each `SchedulePolicy`, on both backends — the
//!   recovered run's positions *and* velocities must be bit-identical to
//!   an uninterrupted run at the same seed and schedule policy;
//! * the same trajectory is bit-identical across the DES and threads
//!   backends (the sorted force fold makes per-step forces pure functions
//!   of positions + decomposition, independent of delivery order);
//! * mismatched-topology and mismatched-config snapshots are refused with
//!   descriptive errors, as are corrupted snapshot files.
//!
//! Case count for the fuzz group comes from `SCHEDULE_FUZZ_CASES`
//! (default 6; CI's soak job runs 25).

use namd_repro::charmrt::{FaultPlan, SchedulePolicy};
use namd_repro::ckpt;
use namd_repro::mdcore::prelude::*;
use namd_repro::molgen;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};
use proptest::prelude::*;
use std::sync::OnceLock;

fn fuzz_cases() -> u32 {
    std::env::var("SCHEDULE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

const TOTAL_UPDATES: usize = 8;
const INTERVAL: usize = 4;

fn small_system() -> System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| {
        let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
            name: "ckpt-test",
            box_lengths: Vec3::new(28.0, 28.0, 28.0),
            target_atoms: 900,
            protein_chains: 1,
            protein_chain_len: 24,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 13,
        })
        .build();
        sys.thermalize(200.0, 13);
        sys
    })
    .clone()
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "namd-ckpt-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn make_engine(backend: Backend, policy: SchedulePolicy, dir: &std::path::Path) -> Engine {
    let cfg = SimConfig::builder(2, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(backend)
        .dt_fs(1.0)
        .schedule(policy)
        .checkpoint(dir, INTERVAL)
        .build()
        .expect("valid test config");
    Engine::new(small_system(), cfg)
}

fn final_bits(engine: &Engine) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    let sys = engine.system();
    sys.positions
        .iter()
        .zip(&sys.velocities)
        .map(|(x, v)| {
            (x.x.to_bits(), x.y.to_bits(), x.z.to_bits(), v.x.to_bits(), v.y.to_bits(), v.z.to_bits())
        })
        .collect()
}

/// Chain the production driver to `total` updates, rebuilding the
/// decomposition at every checkpoint barrier; returns the recoveries.
fn drive(engine: &mut Engine, total: usize) -> u32 {
    let mut recoveries = 0;
    while engine.steps_done < total {
        let outcome = advance(engine, total, INTERVAL, Some(total), false).expect("driver gave up");
        recoveries += matches!(outcome, Advanced::RolledBack { .. }) as u32;
    }
    recoveries
}

/// Run to [`TOTAL_UPDATES`] through the driver — with or without
/// a kill in the fault plan — and return the final state bits plus the
/// number of recoveries performed.
fn run_to_end(
    backend: Backend,
    policy: SchedulePolicy,
    kill: Option<FaultPlan>,
    tag: &str,
) -> (Vec<(u64, u64, u64, u64, u64, u64)>, u32) {
    let dir = tempdir(tag);
    let mut engine = make_engine(backend, policy, &dir);
    engine.config.fault_plan = kill;
    let recoveries = drive(&mut engine, TOTAL_UPDATES);
    assert_eq!(engine.steps_done, TOTAL_UPDATES);
    let bits = final_bits(&engine);
    let _ = std::fs::remove_dir_all(&dir);
    (bits, recoveries)
}

fn check_killed_run_matches_reference(
    backend: Backend,
    policy: SchedulePolicy,
    kill_skip: u64,
) -> Result<(), String> {
    let label = format!("{backend:?}-{:?}-{}-{kill_skip}", policy.kind, policy.seed);
    let (reference, r0) = run_to_end(backend, policy, None, &format!("ref-{label}"));
    if r0 != 0 {
        return Err(format!("[{label}] clean run reported {r0} recoveries"));
    }
    let plan = FaultPlan::parse(&format!(
        "kill:entry=PatchRecvForces:dst=1:skip={kill_skip}"
    ))
    .expect("valid plan");
    let (killed, recoveries) =
        run_to_end(backend, policy, Some(plan), &format!("kill-{label}"));
    if recoveries == 0 {
        return Err(format!(
            "[{label}] the kill never fired — widen the skip range"
        ));
    }
    if reference != killed {
        let first = reference
            .iter()
            .zip(&killed)
            .position(|(a, b)| a != b)
            .unwrap();
        return Err(format!(
            "[{label}] recovered trajectory diverged from the uninterrupted \
             one (first differing atom: {first})"
        ));
    }
    Ok(())
}

fn arb_case() -> impl Strategy<Value = (SchedulePolicy, u64, bool)> {
    // (schedule policy, kill occurrence, backend) — the vendored proptest
    // has no prop_oneof, so the policy is picked by index.
    (0usize..4, 0u64..u64::MAX, 0u64..60, 0u8..2).prop_map(
        |(which, seed, skip, threads)| {
            let name = ["fifo", "shuffle", "lifo", "jitter"][which];
            (SchedulePolicy::parse(name, seed).expect("known policy"), skip, threads == 1)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn killed_runs_recover_bit_identically(case in arb_case()) {
        let (policy, skip, threads) = case;
        let backend = if threads { Backend::Threads } else { Backend::Des };
        if let Err(msg) = check_killed_run_matches_reference(backend, policy, skip) {
            prop_assert!(false, "{}", msg);
        }
    }
}

#[test]
fn backends_agree_bit_for_bit() {
    let fifo = SchedulePolicy::default();
    let (des, _) = run_to_end(Backend::Des, fifo, None, "xbackend-des");
    let (thr, _) = run_to_end(Backend::Threads, fifo, None, "xbackend-thr");
    assert_eq!(des, thr, "DES and threads trajectories differ at the bit level");
}

#[test]
fn mismatched_snapshots_are_refused() {
    let dir = tempdir("refuse");
    let mut engine = make_engine(Backend::Des, SchedulePolicy::default(), &dir);
    drive(&mut engine, INTERVAL);
    let ckdir = ckpt::CheckpointDir::create(&dir).unwrap();
    let (snap, _) = ckdir.latest_valid().unwrap();

    // Different topology: same shape of config, different molecular system.
    let mut other_sys = molgen::SystemBuilder::new(molgen::SystemSpec {
        name: "ckpt-other",
        box_lengths: Vec3::new(28.0, 28.0, 28.0),
        target_atoms: 900,
        protein_chains: 2,
        protein_chain_len: 12,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 14,
    })
    .build();
    other_sys.thermalize(200.0, 14);
    let cfg = SimConfig::builder(2, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .dt_fs(1.0)
        .build()
        .unwrap();
    let mut other = Engine::new(other_sys, cfg);
    let err = other.restore(&snap).unwrap_err();
    assert!(
        matches!(err, ckpt::CkptError::TopologyMismatch { .. }),
        "expected TopologyMismatch, got {err}"
    );
    assert!(err.to_string().contains("topology hash"), "{err}");

    // Same topology, different run configuration (PE count, timestep).
    let cfg = SimConfig::builder(3, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .dt_fs(1.0)
        .build()
        .unwrap();
    let mut wrong_pes = Engine::new(small_system(), cfg);
    let err = wrong_pes.restore(&snap).unwrap_err();
    assert!(
        matches!(err, ckpt::CkptError::ConfigMismatch(_)),
        "expected ConfigMismatch for n_pes, got {err}"
    );

    let cfg = SimConfig::builder(2, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .dt_fs(0.5)
        .build()
        .unwrap();
    let mut wrong_dt = Engine::new(small_system(), cfg);
    let err = wrong_dt.restore(&snap).unwrap_err();
    assert!(
        matches!(err, ckpt::CkptError::ConfigMismatch(_)),
        "expected ConfigMismatch for dt, got {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoints_are_skipped_then_refused() {
    let dir = tempdir("corrupt");
    let mut engine = make_engine(Backend::Des, SchedulePolicy::default(), &dir);
    drive(&mut engine, TOTAL_UPDATES);
    let ckdir = ckpt::CheckpointDir::create(&dir).unwrap();

    // Corrupt the newest snapshot: latest_valid must fall back to the next
    // one instead of resuming from garbage.
    let newest = ckdir.file_for_step(TOTAL_UPDATES as u64);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&newest, &bytes).unwrap();
    let (snap, path) = ckdir.latest_valid().unwrap();
    assert_eq!(snap.step, (TOTAL_UPDATES - INTERVAL) as u64);
    assert_ne!(path, newest);

    // With every snapshot corrupted (truncated to half its length),
    // recovery reports a descriptive error.
    for p in ckdir.list().unwrap() {
        let b = std::fs::read(&p).unwrap();
        std::fs::write(&p, &b[..b.len() / 2]).unwrap();
    }
    let err = ckdir.latest_valid().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("truncated") || msg.contains("corrupt"),
        "undescriptive error: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
