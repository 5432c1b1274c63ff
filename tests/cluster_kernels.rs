//! Cluster-kernel satellites (ISSUE 3), mirroring `tests/pairlist_cache.rs`
//! for the cluster-pair path:
//!
//! * proptest over zoo scenarios × schedule policies × PE counts: a Real-mode
//!   DES phase run with `nbKernel cluster` / `simdWidth scalar` is
//!   **bit-identical** (`to_bits`) to the listed-kernel phase — energies,
//!   pair counts, and every trajectory coordinate — and the prune counters
//!   flow into `PhaseResult::metrics`;
//! * the `x4` (f64-lane) path agrees with listed to ≤1e-12 relative;
//! * both thermostats: a Berendsen-co-stepped ParallelSim trajectory is
//!   bit-identical between kernels, and forces sampled along a sequential
//!   Langevin trajectory match bitwise (scalar) / ≤1e-12 (x4);
//! * forced mid-phase prune-list invalidation: a tiny margin trips the
//!   displacement bound inside a phase, the outer lists rebuild, and the
//!   trajectory still matches listed bitwise;
//! * `migrate_every` boundary: migrations reset the cluster cache and the
//!   cluster trajectory still tracks the listed and sequential ones.
//!
//! Case count comes from `SCHEDULE_FUZZ_CASES` (default 6; CI soak 25).

use namd_repro::charmrt::SchedulePolicy;
use namd_repro::mdcore::prelude::*;
use namd_repro::mdcore::thermostat::{Berendsen, Langevin};
use namd_repro::molgen::{self, zoo};
use namd_repro::namd_core::parallel::ParallelSim;
use namd_repro::namd_core::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

fn fuzz_cases() -> u32 {
    std::env::var("SCHEDULE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

const PHASE_STEPS: usize = 3;
const ZOO_ATOMS: usize = 1_500;
const ZOO_SEED: u64 = 2024;

/// The restrained apoa1-like system the other equivalence suites use.
fn restrained_apoa1_small() -> System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| {
        let bench = molgen::apoa1_like().scaled(0.04);
        let mut sys = molgen::SystemBuilder::new(bench.spec().clone()).build_restrained();
        sys.thermalize(300.0, 11);
        let mut sim = Simulator::new(&sys, 1.0);
        for _ in 0..5 {
            sim.step(&mut sys);
        }
        sys
    })
    .clone()
}

/// Zoo scenarios prepared for Real-mode physics: thermalized and pre-stepped
/// so the configurations are relaxed. Built once; tests index into the set.
fn zoo_systems() -> &'static Vec<(String, System)> {
    static SYSTEMS: OnceLock<Vec<(String, System)>> = OnceLock::new();
    SYSTEMS.get_or_init(|| {
        zoo::all(ZOO_ATOMS, ZOO_SEED)
            .into_iter()
            .map(|sc| {
                let mut sys = sc.build();
                // Zoo generators optimize for load shape, not for relaxed
                // geometry; minimize before dynamics so Real-mode phases
                // hold the oracle's energy-drift bound.
                namd_repro::mdcore::minimize::minimize(&mut sys, 200, 1.0);
                sys.thermalize(300.0, 17);
                let mut sim = Simulator::new(&sys, 1.0);
                for _ in 0..3 {
                    sim.step(&mut sys);
                }
                (sc.name.to_string(), sys)
            })
            .collect()
    })
}

fn real_des_cfg(n_pes: usize) -> SimConfigBuilder {
    SimConfig::builder(n_pes, namd_repro::machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(Backend::Des)
        .dt_fs(1.0)
}

fn arb_policy() -> impl Strategy<Value = SchedulePolicy> {
    // The vendored proptest has no `prop_oneof`; pick the policy by index.
    (0u64..u64::MAX, 0usize..4).prop_map(|(seed, which)| {
        let name = ["fifo", "shuffle", "lifo", "jitter"][which];
        SchedulePolicy::parse(name, seed).expect("known policy name")
    })
}

/// Run one Real-mode DES phase with the given kernel selection.
fn run_phase_with(
    sys: &System,
    n_pes: usize,
    policy: SchedulePolicy,
    kernel: NbKernel,
    width: SimdWidth,
    margin: f64,
    steps: usize,
) -> (PhaseResult, Vec<Vec3>, OracleReport) {
    let cfg = real_des_cfg(n_pes)
        .schedule(policy)
        .pairlist(margin)
        .nb_kernel(kernel)
        .simd_width(width)
        .build()
        .expect("valid test config");
    let mut engine = Engine::new(sys.clone(), cfg);
    let r = engine.run_phase(steps);
    let pos = engine.shared.state.read().unwrap().system.positions.clone();
    let report = check_phase(&engine, &r);
    (r, pos, report)
}

fn assert_bit_identical(
    listed: &(PhaseResult, Vec<Vec3>, OracleReport),
    cluster: &(PhaseResult, Vec<Vec3>, OracleReport),
    ctx: &str,
) -> Result<(), String> {
    let (rl, pl, listed_report) = listed;
    let (rc, pc, report) = cluster;
    // Zoo systems can legitimately trip physics oracles (e.g. the drift
    // bound during the post-thermalize transient); since the trajectories
    // are bitwise identical, listed trips them identically. What the
    // cluster path must guarantee is that it introduces no NEW violations.
    if !report.ok() && listed_report.ok() {
        return Err(format!("cluster-only oracle violations ({ctx}):\n{}", report.render()));
    }
    for (k, (el, ec)) in rl.energies.iter().zip(&rc.energies).enumerate() {
        if el.pairs != ec.pairs {
            return Err(format!(
                "step {k} pair count ({ctx}): listed {} vs cluster {}",
                el.pairs, ec.pairs
            ));
        }
        // Per-compute contributions are bit-identical, but the engine sums
        // reported energies in completion order, which shifts with the cost
        // model — allow ulp-level reassociation there. Forces combine in
        // ascending-sender order, so the trajectory itself must be exact.
        for (name, a, b) in [
            ("e_lj", el.e_lj, ec.e_lj),
            ("e_elec", el.e_elec, ec.e_elec),
            ("potential", el.potential(), ec.potential()),
        ] {
            let d = (a - b).abs();
            if d >= 1e-13 * a.abs().max(1.0) {
                return Err(format!(
                    "step {k} {name} beyond reassociation ulps ({ctx}): {a:?} vs {b:?}"
                ));
            }
        }
    }
    for (i, (a, b)) in pl.iter().zip(pc.iter()).enumerate() {
        if a.x.to_bits() != b.x.to_bits()
            || a.y.to_bits() != b.y.to_bits()
            || a.z.to_bits() != b.z.to_bits()
        {
            return Err(format!(
                "atom {i} position not bit-identical ({ctx}): {a:?} vs {b:?}"
            ));
        }
    }
    Ok(())
}

fn assert_close(
    listed: &(PhaseResult, Vec<Vec3>, OracleReport),
    other: &(PhaseResult, Vec<Vec3>, OracleReport),
    rel_e: f64,
    pos_tol: f64,
    ctx: &str,
) -> Result<(), String> {
    let (rl, pl, listed_report) = listed;
    let (ro, po, report) = other;
    if !report.ok() && listed_report.ok() {
        return Err(format!("kernel-specific oracle violations ({ctx}):\n{}", report.render()));
    }
    for (k, (el, eo)) in rl.energies.iter().zip(&ro.energies).enumerate() {
        let tol = rel_e * el.potential().abs().max(1.0);
        let d = (el.potential() - eo.potential()).abs();
        if d >= tol {
            return Err(format!(
                "step {k} potential ({ctx}): listed {} vs {} (|diff| {d} >= {tol})",
                el.potential(),
                eo.potential()
            ));
        }
    }
    for (i, (a, b)) in pl.iter().zip(po.iter()).enumerate() {
        let d = (*a - *b).norm();
        if d >= pos_tol {
            return Err(format!("atom {i} diverged by {d} >= {pos_tol} ({ctx})"));
        }
    }
    Ok(())
}

/// Prune counters must actually flow: every cluster execution runs exactly
/// one prune pass, and the inner list never exceeds the outer list.
fn check_prune_counters(rc: &PhaseResult, ctx: &str) -> Result<(), String> {
    let pl = &rc.metrics.pairlist;
    if pl.builds == 0 {
        return Err(format!("no cluster-list builds recorded ({ctx})"));
    }
    if pl.prunes != pl.executions() {
        return Err(format!(
            "prune passes ({ctx}): {} but {} executions (one prune per cluster step)",
            pl.prunes,
            pl.executions()
        ));
    }
    if pl.inner_pairs > pl.outer_pairs {
        return Err(format!(
            "inner list exceeds outer list ({ctx}): {} > {}",
            pl.inner_pairs, pl.outer_pairs
        ));
    }
    if pl.outer_pairs == 0 {
        return Err(format!("no outer cluster pairs recorded ({ctx})"));
    }
    let rate = pl.prune_rate();
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("prune rate {rate} out of range ({ctx})"));
    }
    Ok(())
}

fn check_scenario(
    name: &str,
    sys: &System,
    policy: SchedulePolicy,
    n_pes: usize,
) -> Result<(), String> {
    let ctx = format!("scenario {name}, {:?} seed {} pes {n_pes}", policy.kind, policy.seed);
    let listed = run_phase_with(sys, n_pes, policy, NbKernel::Listed, SimdWidth::Scalar, 2.5, PHASE_STEPS);
    let scalar = run_phase_with(sys, n_pes, policy, NbKernel::Cluster, SimdWidth::Scalar, 2.5, PHASE_STEPS);
    assert_bit_identical(&listed, &scalar, &format!("{ctx}, scalar"))?;
    check_prune_counters(&scalar.0, &ctx)?;
    // Listed runs never touch the prune counters.
    if listed.0.metrics.pairlist.prunes != 0 || listed.0.metrics.pairlist.outer_pairs != 0 {
        return Err(format!("listed run recorded cluster prunes ({ctx})"));
    }

    // f64 lanes: same math, different association — ≤1e-12 relative.
    let x4 = run_phase_with(sys, n_pes, policy, NbKernel::Cluster, SimdWidth::X4, 2.5, PHASE_STEPS);
    assert_close(&listed, &x4, 1e-12, 1e-8, &format!("{ctx}, x4"))?;
    check_prune_counters(&x4.0, &format!("{ctx}, x4"))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn cluster_scalar_is_bit_identical_to_listed_across_zoo_and_schedules(
        policy in arb_policy(),
        n_pes in 2usize..5,
        which in 0usize..64,
    ) {
        let systems = zoo_systems();
        let (name, sys) = &systems[which % systems.len()];
        if let Err(msg) = check_scenario(name, sys, policy, n_pes) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// The benchmark deck the acceptance criteria are phrased against: scalar
/// bit-identical, the f64-lane path at its documented tolerance (DESIGN.md
/// §3.8).
#[test]
fn apoa1_cluster_paths_match_listed_at_their_tolerances() {
    let sys = restrained_apoa1_small();
    let policy = SchedulePolicy::parse("fifo", 0).unwrap();
    let listed =
        run_phase_with(&sys, 2, policy, NbKernel::Listed, SimdWidth::Scalar, 2.5, PHASE_STEPS);
    let scalar =
        run_phase_with(&sys, 2, policy, NbKernel::Cluster, SimdWidth::Scalar, 2.5, PHASE_STEPS);
    assert_bit_identical(&listed, &scalar, "apoa1-small scalar").unwrap();
    check_prune_counters(&scalar.0, "apoa1-small scalar").unwrap();

    let x4 = run_phase_with(&sys, 2, policy, NbKernel::Cluster, SimdWidth::X4, 2.5, PHASE_STEPS);
    assert_close(&listed, &x4, 1e-12, 1e-8, "apoa1-small x4").unwrap();
    check_prune_counters(&x4.0, "apoa1-small x4").unwrap();
}

/// Berendsen co-stepping is deterministic, so the cluster-scalar ParallelSim
/// trajectory must stay bit-identical to the listed one across a run that
/// includes velocity rescales.
#[test]
fn berendsen_costep_is_bit_identical_between_kernels() {
    let sys = restrained_apoa1_small();
    let berendsen = Berendsen { target_k: 300.0, tau_fs: 100.0 };
    let run = |kernel: NbKernel| {
        let mut par = ParallelSim::new(sys.clone(), 2, 0.5).unwrap();
        par.migrate_every = 1000;
        par.set_pairlist(2.5);
        par.set_nb_kernel(kernel, SimdWidth::Scalar);
        let mut energies = Vec::new();
        for _ in 0..6 {
            energies.push(par.step());
            berendsen.apply(&mut par.system_mut(), 0.5);
        }
        let stats = par.pairlist_stats();
        let pos = par.system().positions.clone();
        (energies, stats, pos)
    };
    let (el, _, pl) = run(NbKernel::Listed);
    let (ec, stats, pc) = run(NbKernel::Cluster);
    assert!(stats.prunes > 0, "cluster run must prune every step");
    assert!(stats.inner_pairs <= stats.outer_pairs);
    for (k, (a, b)) in el.iter().zip(&ec).enumerate() {
        // Reported energies may reassociate across computes (see
        // `assert_bit_identical`); the trajectory below must be exact.
        let tol = 1e-13 * a.potential().abs().max(1.0);
        assert!(
            (a.potential() - b.potential()).abs() < tol,
            "step {k}: listed {} vs cluster {}",
            a.potential(),
            b.potential()
        );
        assert_eq!(a.pairs, b.pairs, "step {k} pair counts");
    }
    for (i, (a, b)) in pl.iter().zip(&pc).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "atom {i} x");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "atom {i} y");
        assert_eq!(a.z.to_bits(), b.z.to_bits(), "atom {i} z");
    }
}

/// Langevin owns its RNG so kernels cannot be co-stepped through it; sample
/// configurations along a sequential Langevin trajectory and compare the
/// force evaluations: bitwise for scalar clusters, ≤1e-12 for x4 lanes.
#[test]
fn langevin_sampled_forces_match_between_kernels() {
    let mut sys = restrained_apoa1_small();
    let mut langevin = Langevin::new(&sys, 300.0, 0.05, 1.0, 7);
    for sample in 0..3 {
        for _ in 0..4 {
            langevin.step(&mut sys);
        }
        let eval = |kernel: NbKernel, width: SimdWidth| {
            let mut par = ParallelSim::new(sys.clone(), 2, 1.0).unwrap();
            par.set_pairlist(2.5);
            par.set_nb_kernel(kernel, width);
            let acc = par.compute_forces();
            let forces = par.forces().to_vec();
            (acc, forces)
        };
        let (al, fl) = eval(NbKernel::Listed, SimdWidth::Scalar);
        let (ac, fc) = eval(NbKernel::Cluster, SimdWidth::Scalar);
        // Reported energies sum in compute *completion* order on the threads
        // backend, so they may reassociate between kernels (timing-, even
        // build-profile-dependent); the per-atom forces below are combined
        // in ascending-sender order and must be exact.
        let etol = 1e-13 * al.potential().abs().max(1.0);
        assert!(
            (al.potential() - ac.potential()).abs() < etol,
            "sample {sample}: listed {} vs cluster {}",
            al.potential(),
            ac.potential()
        );
        assert_eq!(al.pairs, ac.pairs, "sample {sample} pair counts");
        for (i, (a, b)) in fl.iter().zip(&fc).enumerate() {
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "sample {sample} atom {i} fx");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "sample {sample} atom {i} fy");
            assert_eq!(a.z.to_bits(), b.z.to_bits(), "sample {sample} atom {i} fz");
        }
        let (a4, f4) = eval(NbKernel::Cluster, SimdWidth::X4);
        let tol = 1e-12 * al.potential().abs().max(1.0);
        assert!(
            (al.potential() - a4.potential()).abs() < tol,
            "sample {sample} x4 potential: {} vs {}",
            al.potential(),
            a4.potential()
        );
        for (i, (a, b)) in fl.iter().zip(&f4).enumerate() {
            let d = (*a - *b).norm();
            assert!(d < 1e-9 * (1.0 + a.norm()), "sample {sample} atom {i} x4 force differs by {d}");
        }
    }
}

/// A margin small enough that thermal motion trips the displacement bound
/// *inside* a phase: the outer cluster lists must rebuild mid-phase (more
/// builds than one per compute) and the trajectory must still match listed
/// bitwise — the dual-list state machine survives invalidation mid-flight.
#[test]
fn mid_phase_prune_invalidation_rebuilds_and_stays_bit_identical() {
    let sys = restrained_apoa1_small();
    let steps = 7;
    let policy = SchedulePolicy::parse("fifo", 0).unwrap();
    let listed =
        run_phase_with(&sys, 2, policy, NbKernel::Listed, SimdWidth::Scalar, 0.25, steps);
    let cluster =
        run_phase_with(&sys, 2, policy, NbKernel::Cluster, SimdWidth::Scalar, 0.25, steps);
    assert_bit_identical(&listed, &cluster, "margin 0.25").unwrap();

    let pl = &cluster.0.metrics.pairlist;
    let n_nb = {
        let cfg = real_des_cfg(2).build().expect("valid test config");
        let engine = Engine::new(sys.clone(), cfg);
        engine
            .decomp()
            .computes
            .iter()
            .filter(|c| matches!(c.kind, ComputeKind::SelfNb { .. } | ComputeKind::PairNb { .. }))
            .count() as u64
    };
    assert!(
        pl.builds > n_nb,
        "margin 0.25 over {steps} evaluations must force mid-phase outer rebuilds: \
         {} builds for {n_nb} non-bonded computes",
        pl.builds
    );
    assert!(pl.hits > 0, "even a tiny margin serves the no-motion bootstrap step");
    assert_eq!(pl.prunes, pl.executions(), "every cluster step prunes, rebuilt or not");
}

/// Atom migration re-bins patches, so cached cluster grids and lists go
/// stale; the engine invalidates (and capacity-recycles) the cache at the
/// boundary. Crossing several migrations, the cluster trajectory must still
/// track the listed and sequential ones.
#[test]
fn migration_boundary_resets_cluster_cache_and_preserves_trajectory() {
    let sys = restrained_apoa1_small();
    let steps = 8;
    let run = |kernel: NbKernel| {
        let mut p = ParallelSim::new(sys.clone(), 2, 1.0).unwrap();
        p.migrate_every = 3; // two migrations inside the run
        p.set_pairlist(2.5);
        p.set_nb_kernel(kernel, SimdWidth::Scalar);
        let energies = p.run(steps);
        let stats = p.pairlist_stats();
        let pos = p.system().positions.clone();
        (energies, stats, pos)
    };
    let (ec, stats, pos_c) = run(NbKernel::Cluster);
    // Counters reset at each migration; the post-reset phase re-primes.
    assert!(stats.builds > 0, "cluster cache must re-prime after migration");
    assert!(stats.prunes > 0, "cluster steps keep pruning after migration");

    let (el, _, pos_l) = run(NbKernel::Listed);
    for (k, (a, b)) in el.iter().zip(&ec).enumerate() {
        // Reported energies may reassociate across computes (see
        // `assert_bit_identical`); the trajectory below must be exact.
        let tol = 1e-13 * a.potential().abs().max(1.0);
        assert!(
            (a.potential() - b.potential()).abs() < tol,
            "step {k}: listed {} vs cluster {}",
            a.potential(),
            b.potential()
        );
    }
    for (i, (a, b)) in pos_l.iter().zip(&pos_c).enumerate() {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "atom {i} x");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "atom {i} y");
        assert_eq!(a.z.to_bits(), b.z.to_bits(), "atom {i} z");
    }

    let mut seq = sys.clone();
    let mut sim = Simulator::new(&seq, 1.0);
    for (k, e) in ec.iter().enumerate().take(steps) {
        let es = sim.step(&mut seq).potential();
        let tol = 1e-8 * es.abs().max(1.0);
        assert!(
            (e.potential() - es).abs() < tol,
            "step {k}: cluster {} vs sequential {es}",
            e.potential()
        );
    }
    for (i, (pc, ps)) in pos_c.iter().zip(&seq.positions).enumerate() {
        let d = (*pc - *ps).norm();
        assert!(d < 1e-6, "atom {i} diverged from sequential by {d}");
    }
}

/// On the DES, cluster hit steps are charged `nonbonded_work_clusters`,
/// which undercuts the listed hit cost — the modeled makespan of a cluster
/// phase must beat the listed one for the same trajectory.
#[test]
fn des_virtual_time_rewards_cluster_kernels() {
    let sys = restrained_apoa1_small();
    let policy = SchedulePolicy::parse("fifo", 0).unwrap();
    let listed =
        run_phase_with(&sys, 2, policy, NbKernel::Listed, SimdWidth::Scalar, 2.5, PHASE_STEPS);
    let cluster =
        run_phase_with(&sys, 2, policy, NbKernel::Cluster, SimdWidth::Scalar, 2.5, PHASE_STEPS);
    assert!(
        cluster.0.total_time < listed.0.total_time,
        "cluster virtual makespan {} must beat listed {}",
        cluster.0.total_time,
        listed.0.total_time
    );
}
