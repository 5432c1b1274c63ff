//! Pair-list cache satellites (ISSUE 3), built on the schedule-fuzz
//! machinery:
//!
//! * proptest over schedule policies × PE counts × margins: a cached DES
//!   phase reproduces the sequential mdcore physics at the
//!   `backend_equivalence.rs` tolerances, lands bit for bit on the state of
//!   the margin-0 engine (which rebuilds every list on every evaluation, so
//!   no list is ever reused), and passes every invariant oracle;
//! * forced mid-phase invalidation: a tiny margin trips the displacement
//!   guarantee inside a phase, the lists rebuild, and the state is
//!   unchanged to the bit;
//! * `migrate_atoms` boundary: the facade's migration resets the cache and
//!   the cached trajectory still equals the margin-0 one and tracks the
//!   sequential one;
//! * DES virtual time: cache hits are charged `nonbonded_work_cached`,
//!   which is strictly cheaper than the rebuild cost;
//! * `lb::greedy` / `lb::refine` stay valid when compute loads are a mix
//!   of cached-step and rebuild-step work numbers.
//!
//! Case count comes from `SCHEDULE_FUZZ_CASES` (default 6; CI soak 25).

use namd_repro::charmrt::SchedulePolicy;
use namd_repro::lb;
use namd_repro::machine::presets;
use namd_repro::mdcore::prelude::*;
use namd_repro::molgen;
use namd_repro::namd_core::costmodel;
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

/// The same restrained apoa1-like system the equivalence and fuzz suites
/// use: thermalized and pre-stepped so the protein restraints are strained.
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

const PHASE_STEPS: usize = 3;

/// Sequential mdcore reference for a [`PHASE_STEPS`]-evaluation phase.
struct SeqRef {
    potential0: f64,
    pairs0: u64,
    final_positions: Vec<Vec3>,
}

fn seq_ref() -> &'static SeqRef {
    static REF: OnceLock<SeqRef> = OnceLock::new();
    REF.get_or_init(|| {
        let mut sys = restrained_apoa1_small();
        let mut f = vec![Vec3::ZERO; sys.n_atoms()];
        let e0 = namd_repro::mdcore::sim::compute_forces(&sys, &mut f);
        let mut sim = Simulator::new(&sys, 1.0);
        for _ in 0..PHASE_STEPS - 1 {
            sim.step(&mut sys);
        }
        SeqRef {
            potential0: e0.potential(),
            pairs0: e0.nonbonded.pairs,
            final_positions: sys.positions,
        }
    })
}

fn real_des_cfg(n_pes: usize) -> SimConfigBuilder {
    SimConfig::builder(n_pes, presets::generic_cluster())
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

fn n_nonbonded_computes(engine: &Engine) -> u64 {
    engine
        .decomp()
        .computes
        .iter()
        .filter(|c| matches!(c.kind, ComputeKind::SelfNb { .. } | ComputeKind::PairNb { .. }))
        .count() as u64
}

/// First atom whose position differs in any bit between two runs.
fn first_bit_difference(a: &[Vec3], b: &[Vec3]) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    a.iter().zip(b).position(|(p, q)| bits(p) != bits(q))
}

/// Run one Real-mode DES phase at `margin` and check it against the
/// sequential reference, the engine that never reuses a list (margin 0),
/// and the invariant oracles.
fn check_cached_phase(policy: SchedulePolicy, n_pes: usize, margin: f64) -> Result<(), String> {
    let reference = seq_ref();
    let run = |margin: f64| {
        let cfg = real_des_cfg(n_pes)
            .schedule(policy)
            .pairlist(margin)
            .build()
            .expect("valid test config");
        let mut engine = Engine::new(restrained_apoa1_small(), cfg);
        let r = engine.run_phase(PHASE_STEPS);
        let pos = engine.system().positions.clone();
        let report = check_phase(&engine, &r);
        (r, pos, report)
    };
    let (rc, pos_c, report) = run(margin);
    let ctx = format!("{:?} seed {} pes {n_pes} margin {margin}", policy.kind, policy.seed);

    // Step-0 energy and exact pair count against the sequential reference.
    let tol = 1e-8 * reference.potential0.abs().max(1.0);
    let diff = (rc.energies[0].potential() - reference.potential0).abs();
    if diff >= tol {
        return Err(format!(
            "cached step-0 potential ({ctx}): {} vs sequential {} (|diff| {diff} >= {tol})",
            rc.energies[0].potential(),
            reference.potential0
        ));
    }
    if rc.energies[0].pairs != reference.pairs0 {
        return Err(format!(
            "cached pair count ({ctx}): {} vs sequential {}",
            rc.energies[0].pairs, reference.pairs0
        ));
    }
    for (i, (pe, ps)) in pos_c.iter().zip(&reference.final_positions).enumerate() {
        let d = (*pe - *ps).norm();
        if d >= 1e-6 {
            return Err(format!("cached atom {i} diverged from sequential by {d} ({ctx})"));
        }
    }
    if !report.ok() {
        return Err(format!("oracle violations ({ctx}):\n{}", report.render()));
    }

    // Cache accounting: every non-bonded compute executed each evaluation.
    let expect = {
        let cfg = real_des_cfg(n_pes).build().expect("valid test config");
        let engine = Engine::new(restrained_apoa1_small(), cfg);
        n_nonbonded_computes(&engine) * PHASE_STEPS as u64
    };
    if rc.metrics.pairlist.executions() != expect {
        return Err(format!(
            "cached executions ({ctx}): builds {} + hits {} != {expect}",
            rc.metrics.pairlist.builds, rc.metrics.pairlist.hits
        ));
    }
    if rc.metrics.pairlist.builds == 0 {
        return Err(format!("no list builds recorded ({ctx})"));
    }

    // The engine that rebuilds every list on every evaluation must land on
    // the same state, bit for bit: a reused list loses no pair.
    let (r0, pos_0, _) = run(0.0);
    if (r0.metrics.pairlist.builds, r0.metrics.pairlist.hits) != (expect, 0) {
        return Err(format!(
            "margin 0 must rebuild on every evaluation ({ctx}): {:?}",
            r0.metrics.pairlist
        ));
    }
    let dp = (rc.energies[0].potential() - r0.energies[0].potential()).abs();
    if dp >= tol {
        return Err(format!("margin {margin} vs margin 0 step-0 potential differs by {dp} ({ctx})"));
    }
    if let Some(i) = first_bit_difference(&pos_c, &pos_0) {
        return Err(format!(
            "atom {i}: margin {margin} {:?} vs margin 0 {:?} ({ctx})",
            pos_c[i], pos_0[i]
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn cached_phases_preserve_physics_across_schedules(
        policy in arb_policy(),
        n_pes in 2usize..5,
        which_margin in 0usize..3,
    ) {
        // 0.0 = rebuild on any motion; 2.5 = the default; 6.0 = oversized.
        let margin = [0.0, 2.5, 6.0][which_margin];
        if let Err(msg) = check_cached_phase(policy, n_pes, margin) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// A margin small enough that thermal motion trips the displacement bound
/// *inside* a phase: the lists must rebuild mid-phase (more builds than
/// one per compute) and the state must still equal the margin-0 run's.
#[test]
fn mid_phase_invalidation_rebuilds_and_stays_exact() {
    let steps = 7;
    let run = |margin: f64| {
        let cfg = real_des_cfg(2)
            .pairlist(margin)
            .build()
            .expect("valid test config");
        let mut engine = Engine::new(restrained_apoa1_small(), cfg);
        let r = engine.run_phase(steps);
        let n_nb = n_nonbonded_computes(&engine);
        let pos = engine.system().positions.clone();
        (r, n_nb, pos)
    };
    let (rc, n_nb, pos_c) = run(0.25);
    assert!(
        rc.metrics.pairlist.builds > n_nb,
        "margin 0.25 over {steps} evaluations must force mid-phase rebuilds: \
         {} builds for {n_nb} non-bonded computes",
        rc.metrics.pairlist.builds
    );
    assert!(rc.metrics.pairlist.hits > 0, "even a tiny margin serves the no-motion bootstrap step");
    assert_eq!(rc.metrics.pairlist.executions(), n_nb * steps as u64);

    let (r0, _, pos_0) = run(0.0);
    assert_eq!(
        (r0.metrics.pairlist.builds, r0.metrics.pairlist.hits),
        (n_nb * steps as u64, 0),
        "margin 0 must rebuild on every evaluation"
    );
    let tol = 1e-8 * r0.energies[0].potential().abs().max(1.0);
    for (ec, e0) in rc.energies.iter().zip(&r0.energies) {
        assert!(
            (ec.potential() - e0.potential()).abs() < tol,
            "margin 0.25 {} vs margin 0 {}",
            ec.potential(),
            e0.potential()
        );
        assert_eq!(ec.pairs, e0.pairs, "within-cutoff pair counts must agree");
    }
    assert_eq!(
        first_bit_difference(&pos_c, &pos_0),
        None,
        "state differs from the margin-0 run after forced invalidation"
    );
}

/// Atom migration re-bins patches, so cached slot indices go stale; the
/// engine drops the cache at the boundary. Crossing several migrations,
/// the cached facade must still equal the margin-0 facade bit for bit and
/// track the sequential simulator.
#[test]
fn migration_boundary_resets_cache_and_preserves_trajectory() {
    let sys = restrained_apoa1_small();
    let steps = 8;
    let run = |margin: f64| {
        let cfg = SimConfig::builder(2, presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(Backend::Threads)
            .dt_fs(1.0)
            .pairlist(margin)
            .build()
            .expect("valid test config");
        let mut p = ParallelSim::from_config(sys.clone(), cfg).unwrap();
        p.migrate_every = 3; // two migrations inside the run
        let energies = p.run(steps);
        let stats = p.pairlist_stats();
        let pos = p.system().positions.clone();
        (energies, stats, pos)
    };
    let (ec, stats, pos_c) = run(2.5);
    // Counters reset at each migration, so these are the post-reset phase:
    // a rebuild for every compute, then hits.
    assert!(stats.builds > 0, "cache must re-prime after migration");
    assert!(stats.hits > 0, "margin 2.5 must serve hits between migrations");

    let (e0, stats0, pos_0) = run(0.0);
    assert!(stats0.builds > stats.builds, "margin 0 must rebuild where margin 2.5 hit");

    let mut seq = sys.clone();
    let mut sim = Simulator::new(&seq, 1.0);
    let es: Vec<f64> = (0..steps).map(|_| sim.step(&mut seq).potential()).collect();

    for i in 0..steps {
        let tol = 1e-8 * es[i].abs().max(1.0);
        assert!(
            (ec[i].potential() - es[i]).abs() < tol,
            "step {i}: cached {} vs sequential {}",
            ec[i].potential(),
            es[i]
        );
        assert!(
            (ec[i].potential() - e0[i].potential()).abs() < tol,
            "step {i}: margin 2.5 {} vs margin 0 {}",
            ec[i].potential(),
            e0[i].potential()
        );
    }
    for (i, (pc, ps)) in pos_c.iter().zip(&seq.positions).enumerate() {
        let d = (*pc - *ps).norm();
        assert!(d < 1e-6, "atom {i} diverged from sequential by {d}");
    }
    assert_eq!(
        first_bit_difference(&pos_c, &pos_0),
        None,
        "margin 2.5 vs margin 0 state differs across migrations"
    );
}

/// On the DES, cache hits are charged `costmodel::nonbonded_work_cached`
/// instead of the full rebuild cost, so the modeled makespan of a phase
/// that reuses its lists must be strictly below one that rebuilds them on
/// every evaluation.
#[test]
fn des_virtual_time_rewards_cache_hits() {
    let total_time = |margin: f64| {
        let cfg = real_des_cfg(2)
            .pairlist(margin)
            .build()
            .expect("valid test config");
        let mut engine = Engine::new(restrained_apoa1_small(), cfg);
        engine.run_phase(PHASE_STEPS).total_time
    };
    let (t_cached, t_rebuild) = (total_time(2.5), total_time(0.0));
    assert!(
        t_cached < t_rebuild,
        "virtual makespan at margin 2.5 ({t_cached}) must beat margin 0 ({t_rebuild})"
    );
}

// ---------------------------------------------------------------------------
// Load balancing with mixed cached/rebuild work numbers (satellite of the
// costmodel split): greedy must stay valid and refine must not regress.
// ---------------------------------------------------------------------------

fn arb_mixed_work_problem() -> impl Strategy<Value = lb::LbProblem> {
    // Each compute: within-cutoff pairs, a candidate factor, and whether
    // the measured step was a cache hit or a rebuild.
    let raw_compute = (1u64..20_000, 1.2..3.0f64, 0u8..2, 0usize..4096, 0usize..4096);
    (
        2usize..8,
        1usize..16,
        proptest::collection::vec(0usize..4096, 16..17),
        proptest::collection::vec(raw_compute, 1..80),
    )
        .prop_map(|(n_pes, n_patches, homes, raw)| {
            let computes = raw
                .into_iter()
                .map(|(pairs, factor, hit, ra, rb)| {
                    let candidates = (pairs as f64 * factor) as u64;
                    let load = if hit == 1 {
                        costmodel::nonbonded_work_cached(pairs, candidates)
                    } else {
                        costmodel::nonbonded_work(pairs, candidates)
                    };
                    let (a, b) = (ra % n_patches, rb % n_patches);
                    let patches = if a == b { vec![a] } else { vec![a, b] };
                    lb::ComputeSpec { load, patches }
                })
                .collect();
            lb::LbProblem {
                n_pes,
                background: vec![0.0; n_pes],
                patch_home: homes[..n_patches].iter().map(|h| h % n_pes).collect(),
                computes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases().max(32)))]

    #[test]
    fn lb_handles_mixed_cached_and_rebuild_loads(problem in arb_mixed_work_problem()) {
        problem.validate().expect("generator produced a valid problem");
        let assignment = lb::greedy(&problem, lb::GreedyParams::default());
        prop_assert_eq!(assignment.len(), problem.computes.len());
        for &pe in &assignment {
            prop_assert!(pe < problem.n_pes);
        }
        let max_before =
            lb::pe_loads(&problem, &assignment).into_iter().fold(0.0f64, f64::max);
        let (after, _moves) = lb::refine(&problem, &assignment, lb::RefineParams::default());
        prop_assert_eq!(after.len(), problem.computes.len());
        let max_after = lb::pe_loads(&problem, &after).into_iter().fold(0.0f64, f64::max);
        prop_assert!(
            max_after <= max_before + 1e-9 * max_before.max(1.0),
            "refine made the bottleneck worse: {} -> {}",
            max_before,
            max_after
        );
    }
}
