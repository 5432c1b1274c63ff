//! Checkpoint/restart acceptance tests (ISSUE 4):
//!
//! * crash-recovery round trip: a PE-kill fault at a fuzzed message
//!   occurrence, under each `SchedulePolicy`, on both backends, and under
//!   each thermostat — the recovered run's positions *and* velocities must
//!   be bit-identical to an uninterrupted run at the same seed and schedule
//!   policy;
//! * the same trajectory is bit-identical across the DES and threads
//!   backends (fixed-point integer force sums make per-step forces pure
//!   functions of positions + decomposition, independent of delivery order);
//! * a checkpoint resumes at any PE count;
//! * Real-mode PME runs checkpoint and recover like cutoff runs;
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
    thermostatted_engine(2, backend, policy, Thermostat::None, Some(dir))
}

fn thermostatted_engine(
    n_pes: usize,
    backend: Backend,
    policy: SchedulePolicy,
    thermostat: Thermostat,
    dir: Option<&std::path::Path>,
) -> Engine {
    let mut cfg = SimConfig::builder(n_pes, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(backend)
        .dt_fs(1.0)
        .schedule(policy)
        .thermostat(thermostat);
    if let Some(dir) = dir {
        cfg = cfg.checkpoint(dir, INTERVAL);
    }
    Engine::new(small_system(), cfg.build().expect("valid test config"))
}

const BERENDSEN: Thermostat = Thermostat::Berendsen {
    target_k: 300.0,
    tau_fs: 50.0,
};
const LANGEVIN: Thermostat = Thermostat::Langevin {
    target_k: 300.0,
    gamma: 0.05,
    seed: 3,
};

/// Per atom, the bits of its position and velocity components.
type StateBits = Vec<(u64, u64, u64, u64, u64, u64)>;

fn final_bits(engine: &Engine) -> StateBits {
    let sys = engine.system();
    sys.positions
        .iter()
        .zip(&sys.velocities)
        .map(|(x, v)| {
            (
                x.x.to_bits(),
                x.y.to_bits(),
                x.z.to_bits(),
                v.x.to_bits(),
                v.y.to_bits(),
                v.z.to_bits(),
            )
        })
        .collect()
}

/// Chain the production driver to `total` updates, rebuilding the
/// decomposition at every checkpoint; returns the recoveries.
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
    thermostat: Thermostat,
    kill: Option<FaultPlan>,
    tag: &str,
) -> (StateBits, u32) {
    let dir = tempdir(tag);
    let mut engine = thermostatted_engine(2, backend, policy, thermostat, Some(&dir));
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
    thermostat: Thermostat,
    kill_skip: u64,
) -> Result<(), String> {
    let kind = match thermostat {
        Thermostat::None => "nve",
        Thermostat::Berendsen { .. } => "berendsen",
        Thermostat::Langevin { .. } => "langevin",
    };
    let label = format!(
        "{backend:?}-{:?}-{}-{kind}-{kill_skip}",
        policy.kind, policy.seed
    );
    let (reference, r0) = run_to_end(backend, policy, thermostat, None, &format!("ref-{label}"));
    if r0 != 0 {
        return Err(format!("[{label}] clean run reported {r0} recoveries"));
    }
    let plan = FaultPlan::parse(&format!(
        "kill:entry=PatchRecvForces:dst=1:skip={kill_skip}"
    ))
    .expect("valid plan");
    let (killed, recoveries) = run_to_end(
        backend,
        policy,
        thermostat,
        Some(plan),
        &format!("kill-{label}"),
    );
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
    (0usize..4, 0u64..u64::MAX, 0u64..60, 0u8..2).prop_map(|(which, seed, skip, threads)| {
        let name = ["fifo", "shuffle", "lifo", "jitter"][which];
        (
            SchedulePolicy::parse(name, seed).expect("known policy"),
            skip,
            threads == 1,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn killed_runs_recover_bit_identically(case in arb_case()) {
        let (policy, skip, threads) = case;
        let backend = if threads { Backend::Threads } else { Backend::Des };
        let checked = check_killed_run_matches_reference(backend, policy, Thermostat::None, skip);
        if let Err(msg) = checked {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Snapshots hold Berendsen's post-rescale velocities and
/// Langevin's noise is keyed by the global step, so a rollback replays a
/// thermostatted run onto its clean twin's bits with nothing re-applied.
#[test]
fn thermostatted_killed_runs_recover_bit_identically() {
    for thermostat in [BERENDSEN, LANGEVIN] {
        for backend in [Backend::Des, Backend::Threads] {
            let fifo = SchedulePolicy::default();
            if let Err(msg) = check_killed_run_matches_reference(backend, fifo, thermostat, 20) {
                panic!("{msg}");
            }
        }
    }
}

/// Real-mode PME keeps nothing across a phase boundary — its cadence is
/// keyed on the global step — so its checkpoints restore like any other: a
/// killed run recovers onto its clean twin's bits, at `every: 1` and at
/// `every: 3`, whose PME steps straddle the checkpoint interval.
#[test]
fn real_mode_pme_killed_runs_recover_bit_identically() {
    let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
        name: "ckpt-pme",
        box_lengths: Vec3::new(24.0, 24.0, 24.0),
        target_atoms: 900,
        protein_chains: 0,
        protein_chain_len: 0,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 8,
    })
    .build();
    sys.forcefield = sys.forcefield.clone().with_ewald(0.45);
    sys.thermalize(200.0, 8);
    let legs = [1, 3]
        .into_iter()
        .flat_map(|e| [(e, Backend::Des), (e, Backend::Threads)]);
    for (every, backend) in legs {
        let pme = PmeSimConfig {
            every,
            slabs: 2,
            mesh_spacing: 1.0,
        };
        let run = |kill: Option<FaultPlan>, tag: &str| {
            let dir = tempdir(&format!("pme-{tag}-{every}-{backend:?}"));
            let cfg = SimConfig::builder(2, namd_repro::machine::presets::generic_cluster())
                .force_mode(ForceMode::Real)
                .backend(backend)
                .dt_fs(1.0)
                .pme(Some(pme))
                .checkpoint(&dir, INTERVAL)
                .fault_plan(kill)
                .build()
                .expect("Real-mode PME checkpoints");
            let mut engine = Engine::new(sys.clone(), cfg);
            let recoveries = drive(&mut engine, TOTAL_UPDATES);
            let _ = std::fs::remove_dir_all(&dir);
            (final_bits(&engine), recoveries)
        };
        let (clean, r0) = run(None, "ref");
        assert_eq!(r0, 0, "every {every}, {backend:?}: the clean run recovered");
        let plan = FaultPlan::parse("kill:entry=PatchRecvForces:dst=1:skip=20").unwrap();
        let (killed, recoveries) = run(Some(plan), "kill");
        assert!(
            recoveries >= 1,
            "every {every}, {backend:?}: the kill never fired"
        );
        assert!(
            killed == clean,
            "every {every}, {backend:?}: the recovered PME run diverged"
        );
    }
}

#[test]
fn backends_agree_bit_for_bit() {
    let fifo = SchedulePolicy::default();
    let (des, _) = run_to_end(Backend::Des, fifo, Thermostat::None, None, "xbackend-des");
    let (thr, _) = run_to_end(
        Backend::Threads,
        fifo,
        Thermostat::None,
        None,
        "xbackend-thr",
    );
    assert_eq!(
        des, thr,
        "DES and threads trajectories differ at the bit level"
    );
}

/// Placement changes no bit, so a snapshot taken on 2 PEs resumes on 1 —
/// under Berendsen too, whose snapshots hold post-rescale velocities.
#[test]
fn checkpoints_restore_at_any_pe_count() {
    let fifo = SchedulePolicy::default();
    for thermostat in [Thermostat::None, BERENDSEN] {
        let dir = tempdir("pe-count");
        let mut two = thermostatted_engine(2, Backend::Threads, fifo, thermostat, Some(&dir));
        drive(&mut two, TOTAL_UPDATES);
        let file = ckpt::CheckpointDir::create(&dir)
            .unwrap()
            .file_for_step(INTERVAL as u64);
        let snap = ckpt::Snapshot::decode(&std::fs::read(file).unwrap()).unwrap();
        assert_eq!(snap.n_pes, 2);

        let mut one = thermostatted_engine(1, Backend::Threads, fifo, thermostat, None);
        one.restore(&snap)
            .expect("a snapshot restores at any PE count");
        assert_eq!(one.steps_done, INTERVAL);
        drive(&mut one, TOTAL_UPDATES);
        assert!(
            final_bits(&one) == final_bits(&two),
            "{thermostat:?}: 1-PE resume differs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
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

    // Same topology, different run configuration (timestep).
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
