//! Scenario-zoo stress harness: every zoo generator runs through the
//! engine's measurement → balance → re-measure loop under every LB
//! strategy, and each scenario's **declared imbalance budget** is enforced
//! from the `LbAudit` stream — pass/fail coverage for `lb::greedy`,
//! `lb::refine` and the static `lb::rcb` placement on
//! genuinely non-uniform load, which the paper's near-uniform benchmark
//! decks never produce.
//!
//! Budgets are asserted on the DES backend in Counted mode: loads are
//! modeled and deterministic, so budget assertions are exact, and failures
//! name the scenario, seed, strategy, and first bad phase for replay. The
//! matrix also runs every deck on the threads backend in Real mode, where
//! only the message-driven oracle is asserted (see [`THREADS`]).
//!
//! `SCENARIO_STRESS_CASES=n` limits the sweep to the first `n` zoo
//! scenarios (the tier-1 script runs a reduced count; the full matrix runs
//! in CI's stress lane).

use mdcore::prelude::System;
use molgen::zoo::{self, Scenario};
use namd_core::prelude::*;
use namd_core::recovery::{advance, Advanced};

/// Stress operating point: big enough for 27 patches (3×3×3 at the zoo
/// cutoff), small enough that the full matrix stays in test-suite time.
const STRESS_ATOMS: usize = 4_000;
const N_PES: usize = 8;
const SEED: u64 = 2024;

/// The three LB configurations under test. `rcb-static` keeps the initial
/// RCB placement (`LbStrategy::None`) — its audit record is the static
/// baseline every other strategy must beat.
const STRATEGIES: [(LbStrategy, &str); 3] = [
    (LbStrategy::None, "rcb-static"),
    (LbStrategy::Greedy, "greedy"),
    (LbStrategy::GreedyRefine, "greedy-refine"),
];

/// The backend inputs to the matrix. DES replays counted loads, so the
/// imbalance it reports is exact and budgets are enforced there.
const DES: (Backend, ForceMode, &str) = (Backend::Des, ForceMode::Counted, "des");
/// Threads runs the real kernels and balances on wall-clock loads, which
/// are noise: there the matrix asserts the message-driven contract only
/// (quiescence, message conservation, Newton's third law, momentum).
const THREADS: (Backend, ForceMode, &str) = (Backend::Threads, ForceMode::Real, "threads");

fn stress_scenarios() -> Vec<Scenario> {
    let all = zoo::all(STRESS_ATOMS, SEED);
    let cases = std::env::var("SCENARIO_STRESS_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(all.len())
        .clamp(1, all.len());
    all.into_iter().take(cases).collect()
}

/// Run one (system, strategy, backend) through three phases of the phase
/// driver — static placement, strategy, refinement — with an
/// in-memory registry; returns the engine (for oracle re-checks) and the
/// phases.
fn run_stress(
    sys: &System,
    strategy: LbStrategy,
    (backend, force_mode, _): (Backend, ForceMode, &str),
) -> (Engine, Vec<PhaseResult>) {
    let mut builder = SimConfig::builder(N_PES, machine::presets::generic_cluster())
        .backend(backend)
        .force_mode(force_mode)
        .lb(strategy);
    if force_mode == ForceMode::Real {
        // Zoo decks are dense, unminimized lattices: step them gently.
        builder = builder.dt_fs(0.25);
    }
    let cfg = builder.build().expect("valid stress config");
    let mut engine = Engine::new(sys.clone(), cfg);
    engine.set_metrics(Some(MetricsRegistry::in_memory()));
    // A Real phase of 2 updates evaluates forces 3 times, as a Counted
    // phase of 3 steps does.
    let len = if force_mode == ForceMode::Real { 2 } else { 3 };
    let phases = (1..=3)
        .map(|k| match advance(&mut engine, len * k, len, Some(3 * len), false).unwrap() {
            Advanced::Phase { phase, .. } => phase,
            Advanced::RolledBack { .. } => unreachable!("no rollback point is kept"),
        })
        .collect();
    (engine, phases)
}

/// Context string every assertion leads with, so a failure names what the
/// issue asks for: scenario, seed, strategy (and the caller appends the
/// phase).
fn ctx(sc: &Scenario, strategy_tag: &str, stage: usize, backend_tag: &str) -> String {
    format!(
        "scenario {} (seed {}, stage {}/{}), strategy {}, backend {}",
        sc.name,
        sc.seed(),
        stage + 1,
        sc.n_stages(),
        strategy_tag,
        backend_tag
    )
}

#[test]
fn every_scenario_passes_oracle_and_imbalance_budget_under_every_strategy() {
    for sc in stress_scenarios() {
        for stage in 0..sc.n_stages() {
            let sys = sc.build_stage(stage);
            for (backend, (strategy, tag)) in [DES, THREADS]
                .into_iter()
                .flat_map(|b| STRATEGIES.map(|s| (b, s)))
            {
                let (engine, run) = run_stress(&sys, strategy, backend);
                let who = ctx(&sc, tag, stage, backend.2);

                // Every phase satisfies the message-driven invariants;
                // a failure names the first bad phase. Real-mode points
                // exclude energy drift: several decks start from clashing
                // lattices whose relaxation burst measures the deck, not
                // the runtime.
                let params = if backend == THREADS {
                    OracleParams {
                        energy_drift_rel: f64::INFINITY,
                        ..OracleParams::default()
                    }
                } else {
                    OracleParams::default()
                };
                for (k, phase) in run.iter().enumerate() {
                    let report = check_phase_with(&engine, phase, params);
                    assert!(
                        report.ok(),
                        "{who}: oracle failed at phase {k} (first bad phase): {}",
                        report.render()
                    );
                }

                let audits = &engine.metrics.as_ref().unwrap().lb_audits;
                assert!(!audits.is_empty(), "{who}: no LbAudit records");

                // The first audit is always the static RCB placement.
                let first = &audits[0];
                assert_eq!(first.strategy, "rcb-static", "{who}");
                if backend == THREADS {
                    continue;
                }
                assert!(
                    first.imbalance_after() <= sc.budget.static_max,
                    "{who}: static placement imbalance {:.3} blows the \
                     static budget {:.3} (phase {})",
                    first.imbalance_after(),
                    sc.budget.static_max,
                    first.phase
                );

                // The strategy's final decision must land within the
                // scenario's LB budget (the static baseline for
                // rcb-static *is* the final decision).
                let last = audits.last().unwrap();
                let bar = if strategy == LbStrategy::None {
                    sc.budget.static_max
                } else {
                    sc.budget.lb_max
                };
                assert!(
                    last.imbalance_after() <= bar,
                    "{who}: final imbalance {:.3} ({}) blows the budget {:.3} \
                     (phase {})",
                    last.imbalance_after(),
                    last.strategy,
                    bar,
                    last.phase
                );
            }
        }
    }
}

#[test]
fn nonuniform_scenarios_actually_stress_the_static_placement() {
    // A scenario that declares `expected_static_min > 1` must deliver that
    // imbalance to the balancer — otherwise the zoo has stopped generating
    // the stress it documents and the budget assertions above test nothing.
    for sc in stress_scenarios() {
        if sc.budget.expected_static_min <= 1.0 {
            continue;
        }
        let sys = sc.build();
        let (engine, _run) = run_stress(&sys, LbStrategy::None, DES);
        let audits = &engine.metrics.as_ref().unwrap().lb_audits;
        let imb = audits[0].imbalance_after();
        assert!(
            imb >= sc.budget.expected_static_min,
            "scenario {} (seed {}): static imbalance {:.3} below the declared \
             minimum {:.3} — the generator no longer produces its profile '{}'",
            sc.name,
            sc.seed(),
            imb,
            sc.budget.expected_static_min,
            sc.profile.as_str()
        );
    }
}

#[test]
fn balancing_strategies_improve_on_static_for_nonuniform_scenarios() {
    // On every scenario that promises static imbalance, each measurement-
    // based strategy must leave the system strictly better than the static
    // placement it started from.
    for sc in stress_scenarios() {
        if sc.budget.expected_static_min <= 1.0 {
            continue;
        }
        let sys = sc.build();
        for (strategy, tag) in STRATEGIES {
            if strategy == LbStrategy::None {
                continue;
            }
            let (engine, _run) = run_stress(&sys, strategy, DES);
            let audits = &engine.metrics.as_ref().unwrap().lb_audits;
            let static_imb = audits[0].imbalance_after();
            let final_imb = audits.last().unwrap().imbalance_after();
            assert!(
                final_imb < static_imb,
                "{}: left imbalance {:.3}, no better than static {:.3}",
                ctx(&sc, tag, 0, DES.2),
                final_imb,
                static_imb
            );
        }
    }
}

#[test]
fn growing_and_shrinking_systems_hold_budgets_at_every_stage() {
    // The dynamic scenarios are the LB-keeps-up story: each stage is a
    // different system size, and the budget must hold at each one. (The
    // full strategy matrix above already covers each stage; this test
    // additionally checks the stages really change the problem size.)
    for sc in [
        zoo::growing_system(STRESS_ATOMS, SEED),
        zoo::shrinking_system(STRESS_ATOMS, SEED),
    ] {
        assert!(sc.n_stages() > 1, "{} should be multi-stage", sc.name);
        let mut patch_counts = Vec::new();
        for stage in 0..sc.n_stages() {
            let sys = sc.build_stage(stage);
            let (engine, _run) = run_stress(&sys, LbStrategy::GreedyRefine, DES);
            patch_counts.push(engine.decomp().grid.n_patches());
            let audits = &engine.metrics.as_ref().unwrap().lb_audits;
            let final_imb = audits.last().unwrap().imbalance_after();
            assert!(
                final_imb <= sc.budget.lb_max,
                "{}: final imbalance {:.3} over budget {:.3}",
                ctx(&sc, "greedy-refine", stage, DES.2),
                final_imb,
                sc.budget.lb_max
            );
        }
        let sizes: Vec<usize> =
            sc.stages.iter().map(|&f| sc.atoms_at(f)).collect();
        assert!(
            sizes.windows(2).all(|w| w[0] != w[1]),
            "{}: stages {sizes:?} did not change the system size",
            sc.name
        );
    }
}

/// Calibration probe, not a test: prints the measured static/strategy
/// imbalances per scenario at the stress operating point so budget numbers
/// in `crates/molgen/src/zoo.rs` can be re-derived after generator or LB
/// changes. Run with:
/// `cargo test --test scenario_stress -- --ignored --nocapture probe`
#[test]
#[ignore = "calibration probe; prints measurements, asserts nothing"]
fn probe_imbalances() {
    for sc in zoo::all(STRESS_ATOMS, SEED) {
        for stage in 0..sc.n_stages() {
            let sys = sc.build_stage(stage);
            for (strategy, tag) in STRATEGIES {
                let (engine, _run) = run_stress(&sys, strategy, DES);
                let audits = &engine.metrics.as_ref().unwrap().lb_audits;
                let first = audits[0].imbalance_after();
                let last = audits.last().unwrap().imbalance_after();
                println!(
                    "{:>17} stage {} atoms {:>5} {:>13}: static {:.3} final {:.3}",
                    sc.name,
                    stage,
                    sys.n_atoms(),
                    tag,
                    first,
                    last
                );
            }
        }
    }
}
