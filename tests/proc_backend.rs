//! Multi-process backend satellites: the `proc` backend runs the same
//! chare protocol with one OS *process* per PE, exchanging packed wire
//! messages over Unix domain sockets.
//!
//! * apoa1-small runs to completion on real processes, with forces,
//!   velocities, and energies harvested back into the parent;
//! * the DES, threads, and proc backends produce bit-identical
//!   trajectories from the same seed — fixed-point integer force sums make
//!   the trajectory independent of which substrate scheduled the messages;
//! * a SIGKILLed worker process surfaces as a phase crash, and
//!   checkpoint-based recovery reproduces the uninterrupted trajectory
//!   bit for bit;
//! * under either thermostat, every backend and PE count gives one
//!   trajectory;
//! * proc's phase metrics count the pair lists its workers built and
//!   reused, as threads' do.

use namd_repro::mdcore::prelude::*;
use namd_repro::molgen;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

/// A small apoa1-like membrane+protein system with protein restraints,
/// matching the backend-equivalence suite's workload.
fn restrained_apoa1_small() -> System {
    let bench = molgen::apoa1_like().scaled(0.04);
    let mut sys = molgen::SystemBuilder::new(bench.spec().clone()).build_restrained();
    sys.thermalize(300.0, 11);
    let mut sim = Simulator::new(&sys, 1.0);
    for _ in 0..5 {
        sim.step(&mut sys);
    }
    sys
}

fn real_mode_config(n_pes: usize, backend: Backend) -> SimConfig {
    SimConfig::builder(n_pes, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(backend)
        .build()
        .expect("valid test config")
}

fn final_state(engine: &Engine) -> (Vec<Vec3>, Vec<Vec3>, Vec<Vec3>) {
    let forces = engine.forces().to_vec();
    let sys = engine.system();
    (sys.positions.clone(), sys.velocities.clone(), forces)
}

#[test]
fn proc_backend_runs_apoa1_small_on_real_processes() {
    let sys = restrained_apoa1_small();
    let before: Vec<Vec3> = sys.positions.clone();
    let mut engine = Engine::new(sys, real_mode_config(3, Backend::Proc));
    let r = engine.run_phase(3);

    // Energies were harvested from the worker processes.
    assert_eq!(r.energies.len(), 3);
    assert!(
        r.energies[0].potential() != 0.0,
        "workers must report energies"
    );
    assert!(
        r.energies[0].kinetic > 0.0,
        "thermalized system has kinetic energy"
    );

    // Real wire traffic crossed the socket mesh, attributed per entry.
    assert!(r.stats.msgs_sent > 0, "cross-process messages must flow");
    assert!(r.stats.bytes_sent > 0);
    assert!(
        r.stats.entry_wire_bytes.iter().sum::<u64>() > 0,
        "packed payload bytes must be attributed to entries"
    );
    assert_eq!(r.stats.pes_killed, 0);

    // Positions moved and were merged back into the parent process.
    let (x, _, f) = final_state(&engine);
    let moved = x.iter().zip(&before).filter(|(a, b)| *a != *b).count();
    assert!(moved > x.len() / 2, "only {moved}/{} atoms moved", x.len());
    assert!(f.iter().any(|v| v.norm() > 0.0), "forces must be harvested");
}

#[test]
fn des_threads_and_proc_trajectories_are_bit_identical() {
    let sys = restrained_apoa1_small();
    let mut des = Engine::new(sys.clone(), real_mode_config(3, Backend::Des));
    let mut thr = Engine::new(sys.clone(), real_mode_config(3, Backend::Threads));
    let mut prc = Engine::new(sys, real_mode_config(3, Backend::Proc));

    let r_des = des.run_phase(3);
    let r_thr = thr.run_phase(3);
    let r_prc = prc.run_phase(3);

    let (dx, dv, df) = final_state(&des);
    for (name, engine) in [("threads", &thr), ("proc", &prc)] {
        let (x, v, f) = final_state(engine);
        for i in 0..dx.len() {
            assert_eq!(dx[i].x.to_bits(), x[i].x.to_bits(), "{name} atom {i} x");
            assert_eq!(dx[i].y.to_bits(), x[i].y.to_bits(), "{name} atom {i} y");
            assert_eq!(dx[i].z.to_bits(), x[i].z.to_bits(), "{name} atom {i} z");
            assert_eq!(dv[i].x.to_bits(), v[i].x.to_bits(), "{name} atom {i} vx");
            assert_eq!(df[i].x.to_bits(), f[i].x.to_bits(), "{name} atom {i} fx");
        }
    }

    // Energies are order-dependent observables: equal to rounding, not bits.
    for (r, name) in [(&r_thr, "threads"), (&r_prc, "proc")] {
        for (s, (a, b)) in r_des.energies.iter().zip(r.energies.iter()).enumerate() {
            let tol = 1e-8 * a.total().abs().max(1.0);
            assert!(
                (a.total() - b.total()).abs() < tol,
                "step {s} energy: des {} vs {name} {}",
                a.total(),
                b.total()
            );
        }
    }
}

/// Every backend evaluates each non-bonded compute once per step, so proc
/// and threads agree on builds + hits phase by phase; a proc worker builds
/// on a copy of the list that dies with it, so every proc phase starts by
/// building each compute's list.
#[test]
fn proc_reports_the_pair_lists_its_workers_built() {
    let sys = restrained_apoa1_small();
    let counts = |backend| {
        let mut engine = Engine::new(sys.clone(), real_mode_config(2, backend));
        let n_nb = engine
            .decomp()
            .computes
            .iter()
            .filter(|c| matches!(c.kind, ComputeKind::SelfNb { .. } | ComputeKind::PairNb { .. }))
            .count() as u64;
        let phases: Vec<PairlistCounters> =
            (0..3).map(|_| engine.run_phase(4).metrics.pairlist).collect();
        (n_nb, phases)
    };
    let (n_nb, threads) = counts(Backend::Threads);
    let (_, proc) = counts(Backend::Proc);
    for (k, (t, p)) in threads.iter().zip(&proc).enumerate() {
        assert_eq!(t.executions(), 4 * n_nb, "phase {k}: threads {t:?}");
        assert_eq!(p.executions(), t.executions(), "phase {k}: proc {p:?}, threads {t:?}");
        assert!(p.builds >= n_nb, "phase {k}: proc built {} lists for {n_nb} computes", p.builds);
    }
}

fn recovery_engine(dir: &std::path::Path, backend: Backend) -> Engine {
    let cfg = SimConfig::builder(2, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(backend)
        .checkpoint(dir, 4)
        .build()
        .expect("valid test config");
    Engine::new(recovery_deck(), cfg)
}

fn recovery_deck() -> System {
    let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
        name: "proc-recovery-test",
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

/// Chain the production driver to `total` updates at the checkpoint
/// interval's cadence; returns the recoveries.
fn drive(engine: &mut Engine, total: usize) -> u32 {
    let mut recoveries = 0;
    while engine.steps_done < total {
        let outcome = advance(engine, total, 4, Some(total), false).expect("driver gave up");
        recoveries += matches!(outcome, Advanced::RolledBack { .. }) as u32;
    }
    recoveries
}

#[test]
fn sigkilled_worker_process_recovers_bit_identically() {
    // Reference: uninterrupted run on the deterministic DES.
    let tmp_a = tempdir("proc-recovery-ref");
    let mut reference = recovery_engine(&tmp_a, Backend::Des);
    drive(&mut reference, 8);
    let (ref_x, ref_v, _) = final_state(&reference);

    // Killed run: the fault plan SIGKILLs PE 1's real OS process mid-phase;
    // the parent detects the death, rolls back to the newest checkpoint,
    // and resumes.
    let tmp_b = tempdir("proc-recovery-killed");
    let mut killed = recovery_engine(&tmp_b, Backend::Proc);
    killed.config.fault_plan = Some(
        namd_repro::charmrt::FaultPlan::parse("kill:entry=PatchRecvForces:dst=1:skip=6").unwrap(),
    );
    let recoveries = drive(&mut killed, 8);
    assert!(recoveries >= 1, "the kill must have fired");
    assert_eq!(killed.steps_done, 8);
    let (x, v, _) = final_state(&killed);

    for i in 0..ref_x.len() {
        assert_eq!(ref_x[i].x.to_bits(), x[i].x.to_bits(), "atom {i} x");
        assert_eq!(ref_x[i].y.to_bits(), x[i].y.to_bits(), "atom {i} y");
        assert_eq!(ref_x[i].z.to_bits(), x[i].z.to_bits(), "atom {i} z");
        assert_eq!(ref_v[i].x.to_bits(), v[i].x.to_bits(), "atom {i} vx");
    }
    std::fs::remove_dir_all(&tmp_a).ok();
    std::fs::remove_dir_all(&tmp_b).ok();
}

/// The home patches thermostat their own atoms: Berendsen's λ comes from
/// the temperature the barrier takes in atom order, Langevin's noise from a
/// counter keyed by (seed, atom, step). Neither depends on where an atom's
/// patch runs, so every backend and PE count lands on one state, across
/// two migration boundaries.
#[test]
fn thermostatted_trajectories_match_across_backends_and_pe_counts() {
    for thermostat in [
        Thermostat::Berendsen {
            target_k: 300.0,
            tau_fs: 50.0,
        },
        Thermostat::Langevin {
            target_k: 300.0,
            gamma: 0.05,
            seed: 11,
        },
    ] {
        let mut states = Vec::new();
        for backend in [Backend::Des, Backend::Threads, Backend::Proc] {
            for n_pes in 1..=3 {
                let cfg =
                    SimConfig::builder(n_pes, namd_repro::machine::presets::generic_cluster())
                        .force_mode(ForceMode::Real)
                        .backend(backend)
                        .thermostat(thermostat)
                        .build()
                        .expect("valid test config");
                let mut engine = Engine::new(recovery_deck(), cfg);
                while engine.steps_done < 6 {
                    advance(&mut engine, 6, 2, Some(6), false).expect("no fault plan");
                }
                let (x, v, _) = final_state(&engine);
                let bits: Vec<u64> = x
                    .iter()
                    .chain(&v)
                    .flat_map(|p| [p.x, p.y, p.z])
                    .map(f64::to_bits)
                    .collect();
                states.push((format!("{backend:?}, {n_pes} PEs"), bits));
            }
        }
        let (first, reference) = &states[0];
        for (run, bits) in &states[1..] {
            assert!(
                bits == reference,
                "{thermostat:?}: {run} differs from {first}"
            );
        }
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let pid = std::process::id();
    let path = std::env::temp_dir().join(format!("namd-{tag}-{pid}"));
    std::fs::remove_dir_all(&path).ok();
    path
}

/// Case count for the fuzz group below, from the same knob the schedule
/// fuzzer uses (`SCHEDULE_FUZZ_CASES`, default 4; CI's soak job runs 25).
fn fuzz_cases() -> u64 {
    std::env::var("SCHEDULE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Deterministic equivalence fuzz: across systems (seeds) and PE counts,
/// the proc backend's trajectory must match the DES bit for bit. Each case
/// forks a fresh worker mesh, so this also soaks process setup/teardown.
#[test]
fn proc_fuzz_matches_des_across_seeds_and_pe_counts() {
    for case in 0..fuzz_cases() {
        let seed = 100 + case;
        let n_pes = 2 + (case % 3) as usize;
        let build = || {
            let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
                name: "proc-fuzz",
                box_lengths: Vec3::new(28.0, 28.0, 28.0),
                target_atoms: 1200,
                protein_chains: 1,
                protein_chain_len: 24,
                lipid_slab: None,
                cutoff: 8.0,
                seed,
            })
            .build();
            sys.thermalize(150.0, seed);
            sys
        };
        let mut des = Engine::new(build(), real_mode_config(n_pes, Backend::Des));
        let mut prc = Engine::new(build(), real_mode_config(n_pes, Backend::Proc));
        des.run_phase(3);
        prc.run_phase(3);
        let (dx, dv, _) = final_state(&des);
        let (px, pv, _) = final_state(&prc);
        for i in 0..dx.len() {
            assert_eq!(
                dx[i].x.to_bits(),
                px[i].x.to_bits(),
                "case {case} (seed {seed}, {n_pes} PEs): atom {i} x diverged"
            );
            assert_eq!(
                dv[i].x.to_bits(),
                pv[i].x.to_bits(),
                "case {case} (seed {seed}, {n_pes} PEs): atom {i} vx diverged"
            );
        }
    }
}
