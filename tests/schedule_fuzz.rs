//! Deterministic schedule fuzzing and fault injection over the Runtime
//! layer (ISSUE 2):
//!
//! * proptest over seeds × schedule policies: a DES phase whose dequeue
//!   order is shuffled / LIFO-inverted / latency-jittered still reproduces
//!   the sequential mdcore physics on a restrained apoa1-like system, at
//!   the tolerances asserted in `backend_equivalence.rs`, and passes every
//!   invariant oracle;
//! * replay determinism: the same `--schedule-seed` on the DES produces
//!   bit-identical trace streams and energies;
//! * fault injection: a plan that drops one force message per phase still
//!   completes — the engine's delivery-repair loop re-sends the dead
//!   letter — with a zero message-conservation residual, on both backends;
//! * `lb::greedy` / `lb::refine` invariants under adversarial load
//!   distributions.
//!
//! Case count for the fuzz groups comes from `SCHEDULE_FUZZ_CASES`
//! (default 6; CI's soak job runs 25).

use namd_repro::charmrt::{FaultPlan, SchedulePolicy};
use namd_repro::lb;
use namd_repro::machine::presets;
use namd_repro::mdcore::prelude::*;
use namd_repro::molgen;
use namd_repro::namd_core::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

fn fuzz_cases() -> u32 {
    std::env::var("SCHEDULE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// The same restrained apoa1-like system `backend_equivalence.rs` uses:
/// thermalized and pre-stepped so the protein restraints are strained.
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

/// Sequential mdcore reference for a [`PHASE_STEPS`]-evaluation phase:
/// potential and pair count at the initial configuration, and the
/// positions after the corresponding `PHASE_STEPS - 1` position updates.
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

/// Run one Real-mode phase under `policy` and assert it reproduces the
/// sequential reference and passes every oracle. Returns the phase result
/// for any extra assertions the caller wants.
fn check_policy_preserves_physics(policy: SchedulePolicy, n_pes: usize) -> Result<(), String> {
    let reference = seq_ref();
    let cfg = real_des_cfg(n_pes)
        .schedule(policy)
        .build()
        .expect("valid test config");
    let mut engine = Engine::new(restrained_apoa1_small(), cfg);
    let r = engine.run_phase(PHASE_STEPS);

    // Energies at the tolerances of `backend_equivalence.rs`: the shuffled
    // schedule permutes force-accumulation order, so equality is to within
    // summation-reordering error, not bit-exact.
    let tol = 1e-8 * reference.potential0.abs().max(1.0);
    let diff = (r.energies[0].potential() - reference.potential0).abs();
    if diff >= tol {
        return Err(format!(
            "step-0 potential under {:?} seed {}: {} vs sequential {} (|diff| {diff} >= {tol})",
            policy.kind,
            policy.seed,
            r.energies[0].potential(),
            reference.potential0
        ));
    }
    if r.energies[0].pairs != reference.pairs0 {
        return Err(format!(
            "pair count under {:?} seed {}: {} vs sequential {}",
            policy.kind, policy.seed, r.energies[0].pairs, reference.pairs0
        ));
    }

    // Final per-atom positions: any per-atom force error would integrate
    // into a visible position error, so this bounds the forces too.
    let pos = engine.system().positions.clone();
    for (i, (pe, ps)) in pos.iter().zip(&reference.final_positions).enumerate() {
        let d = (*pe - *ps).norm();
        if d >= 1e-6 {
            return Err(format!(
                "atom {i} diverged by {d} under {:?} seed {}",
                policy.kind, policy.seed
            ));
        }
    }

    // Invariant oracles: quiescence, message conservation, Newton's third
    // law, energy drift. A failure names the seed and first violating step.
    let report = check_phase(&engine, &r);
    if !report.ok() {
        return Err(report.render());
    }
    if r.stats.conservation_residual() != 0 {
        return Err(format!(
            "healthy run leaked messages: residual {} under {:?} seed {}",
            r.stats.conservation_residual(),
            policy.kind,
            policy.seed
        ));
    }
    Ok(())
}

fn arb_policy() -> impl Strategy<Value = SchedulePolicy> {
    // The vendored proptest has no `prop_oneof`; pick the policy by index.
    (0u64..u64::MAX, 0usize..3).prop_map(|(seed, which)| {
        let name = ["shuffle", "lifo", "jitter"][which];
        SchedulePolicy::parse(name, seed).expect("known policy name")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn perturbed_schedules_preserve_physics(
        policy in arb_policy(),
        n_pes in 2usize..5,
    ) {
        if let Err(msg) = check_policy_preserves_physics(policy, n_pes) {
            prop_assert!(false, "{}", msg);
        }
    }
}

#[test]
fn same_seed_replays_bit_identical_traces() {
    let run = || {
        let cfg = real_des_cfg(3)
            .schedule(SchedulePolicy::random_shuffle(0xDEAD_BEEF))
            .build()
            .expect("valid test config");
        let mut engine = Engine::new(restrained_apoa1_small(), cfg);
        engine.set_metrics(Some(MetricsRegistry::in_memory()));
        engine.run_phase(PHASE_STEPS)
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.total_time.to_bits(),
        b.total_time.to_bits(),
        "makespan not replayed"
    );
    let bits = |r: &PhaseResult| -> Vec<(u64, u64)> {
        r.energies
            .iter()
            .map(|e| (e.potential().to_bits(), e.total().to_bits()))
            .collect()
    };
    assert_eq!(
        bits(&a),
        bits(&b),
        "energies not bit-identical across replays"
    );
    let (ta, tb) = (a.trace.expect("tracing on"), b.trace.expect("tracing on"));
    assert_eq!(ta, tb, "trace streams differ for the same schedule seed");
}

#[test]
fn different_seeds_change_the_interleaving() {
    // The fuzzer is only exploring schedules if distinct seeds actually
    // produce distinct interleavings.
    let trace_for = |seed: u64| {
        let cfg = real_des_cfg(3)
            .schedule(SchedulePolicy::random_shuffle(seed))
            .build()
            .expect("valid test config");
        let mut engine = Engine::new(restrained_apoa1_small(), cfg);
        engine.set_metrics(Some(MetricsRegistry::in_memory()));
        engine.run_phase(PHASE_STEPS).trace.expect("tracing on")
    };
    assert_ne!(
        trace_for(1),
        trace_for(2),
        "seeds 1 and 2 gave the same interleaving"
    );
}

#[test]
fn energies_are_bit_identical_across_schedule_seeds_on_threads() {
    // Energies ride the force messages and are summed as integers, so — like
    // the trajectory — they must not notice how the worker threads and a
    // shuffled dequeue order interleave the computes. `Debug` prints each
    // f64 in its shortest round-trip form: equal strings, equal bits.
    let energies_for = |seed: u64| -> String {
        let cfg = real_des_cfg(2)
            .backend(Backend::Threads)
            .schedule(SchedulePolicy::random_shuffle(seed))
            .build()
            .expect("valid test config");
        let r = Engine::new(restrained_apoa1_small(), cfg).run_phase(PHASE_STEPS);
        assert_eq!(r.energies.len(), PHASE_STEPS);
        format!("{:?}", r.energies)
    };
    let first = energies_for(1);
    for seed in [2, 3] {
        assert_eq!(
            energies_for(seed),
            first,
            "seed {seed} changed the energies' bits"
        );
    }
}

/// The ISSUE acceptance scenario: a fault plan that drops one force
/// message per phase must not wedge quiescence — the engine detects the
/// incomplete phase and re-sends the dead letter — and the oracles must
/// all stay green.
fn check_drop_repair(backend: Backend) {
    let cfg = real_des_cfg(2)
        .backend(backend)
        .schedule(SchedulePolicy::random_shuffle(7))
        .fault_plan(Some(
            FaultPlan::parse("drop:entry=PatchRecvForces:limit=1").expect("valid plan"),
        ))
        .build()
        .expect("valid test config");
    let mut engine = Engine::new(restrained_apoa1_small(), cfg);
    let r = engine.run_phase(2);

    assert_eq!(
        r.stats.msgs_dropped, 1,
        "exactly one drop should have fired"
    );
    assert!(
        r.stats.msgs_redelivered >= 1,
        "the dropped message must come back via the repair loop"
    );
    let report = check_phase(&engine, &r);
    assert!(
        report.ok(),
        "oracle violations after fault repair:\n{}",
        report.render()
    );
    assert_eq!(
        r.stats.conservation_residual(),
        0,
        "repair must balance the ledger"
    );
}

#[test]
fn dropped_force_message_is_repaired_on_des() {
    check_drop_repair(Backend::Des);
}

#[test]
fn dropped_force_message_is_repaired_on_threads() {
    // On real threads the drop manifests as a genuine lost packet: the
    // no-progress watchdog reports the stall and the engine re-sends.
    check_drop_repair(Backend::Threads);
}

// ---------------------------------------------------------------------------
// Load-balancer invariants under adversarial load distributions.
// ---------------------------------------------------------------------------

fn arb_lb_problem() -> impl Strategy<Value = lb::LbProblem> {
    // No `prop_flat_map` in the vendored proptest: draw oversized raw
    // material and fold it down to a consistent problem in one map.
    let raw_compute = (0u8..5, 0.0..1.0f64, 0usize..4096, 0usize..4096);
    (
        2usize..8,
        1usize..16,
        proptest::collection::vec(0.0..0.5f64, 8..9),
        proptest::collection::vec(0usize..4096, 16..17),
        proptest::collection::vec(raw_compute, 1..120),
    )
        .prop_map(|(n_pes, n_patches, background, homes, raw)| {
            let computes = raw
                .into_iter()
                .map(|(sel, u, ra, rb)| {
                    // Adversarial loads: mostly tiny objects, with ~1 in 5
                    // two to three orders of magnitude heavier.
                    let load = if sel == 4 {
                        1.0 + 49.0 * u
                    } else {
                        0.001 + 0.049 * u
                    };
                    let (a, b) = (ra % n_patches, rb % n_patches);
                    let patches = if a == b { vec![a] } else { vec![a, b] };
                    lb::ComputeSpec { load, patches }
                })
                .collect();
            lb::LbProblem {
                n_pes,
                background: background[..n_pes].to_vec(),
                patch_home: homes[..n_patches].iter().map(|h| h % n_pes).collect(),
                computes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases().max(32)))]

    /// Every compute is assigned exactly once, to a valid PE, and no load
    /// is created or destroyed: the per-PE loads sum to background plus
    /// the total compute load.
    #[test]
    fn greedy_assigns_every_compute_exactly_once(problem in arb_lb_problem()) {
        problem.validate().expect("generator produced a valid problem");
        let assignment = lb::greedy(&problem, lb::GreedyParams::default());
        prop_assert_eq!(assignment.len(), problem.computes.len());
        for (i, &pe) in assignment.iter().enumerate() {
            prop_assert!(pe < problem.n_pes, "compute {} on invalid PE {}", i, pe);
        }
        let loads = lb::pe_loads(&problem, &assignment);
        let total: f64 = problem.background.iter().sum::<f64>()
            + problem.computes.iter().map(|c| c.load).sum::<f64>();
        let assigned: f64 = loads.iter().sum();
        prop_assert!(
            (assigned - total).abs() < 1e-9 * total.max(1.0),
            "load mass changed: assigned {} vs total {}",
            assigned,
            total
        );
    }

    /// Refinement never makes the bottleneck worse, and preserves the
    /// exactly-once property.
    #[test]
    fn refine_never_increases_the_max_pe_load(problem in arb_lb_problem()) {
        let before = lb::greedy(&problem, lb::GreedyParams::default());
        let max_before =
            lb::pe_loads(&problem, &before).into_iter().fold(0.0f64, f64::max);
        let (after, _moves) = lb::refine(&problem, &before, lb::RefineParams::default());
        prop_assert_eq!(after.len(), problem.computes.len());
        for &pe in &after {
            prop_assert!(pe < problem.n_pes);
        }
        let max_after =
            lb::pe_loads(&problem, &after).into_iter().fold(0.0f64, f64::max);
        prop_assert!(
            max_after <= max_before + 1e-9 * max_before.max(1.0),
            "refine made the bottleneck worse: {} -> {}",
            max_before,
            max_after
        );
    }
}
