//! Observability-layer integration tests (PR 5):
//!
//! * cross-backend trace discipline: a DES phase replays an identical
//!   trace across schedule seeds at a fixed policy, and a threads phase
//!   satisfies the per-PE utilization-sum invariant;
//! * the trace rule: a phase records a trace exactly when the attached
//!   registry wants one;
//! * critical-path analysis: the modeled critical path never exceeds the
//!   makespan and is monotone under an injected straggler PE;
//! * the `MetricsRegistry` end to end on both backends: Perfetto-loadable
//!   Chrome-trace JSON plus `phases.jsonl` summaries, with the DES
//!   utilization decomposition enforced by `oracle::check_phase`.

use namd_repro::charmrt::SchedulePolicy;
use namd_repro::machine::presets;
use namd_repro::mdcore::prelude::*;
use namd_repro::molgen::{SystemBuilder, SystemSpec};
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::advance;

fn test_system(seed: u64) -> System {
    SystemBuilder::new(SystemSpec {
        name: "profiling",
        box_lengths: Vec3::new(36.0, 36.0, 36.0),
        target_atoms: 3_000,
        protein_chains: 1,
        protein_chain_len: 40,
        lipid_slab: None,
        cutoff: 8.0,
        seed,
    })
    .build()
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "namd_profiling_test_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// At a fixed policy (FIFO here), the schedule seed is inert: the DES must
/// replay a bit-identical trace, so profiles are comparable across runs.
#[test]
fn des_trace_is_identical_across_schedule_seeds_at_fixed_policy() {
    let sys = test_system(3);
    let trace_for = |seed: u64| {
        let cfg = SimConfig::builder(6, presets::asci_red())
            .schedule(SchedulePolicy::parse("fifo", seed).unwrap())
            .build()
            .unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        engine.set_metrics(Some(MetricsRegistry::in_memory()));
        let r = engine.run_phase(3);
        (r.trace.expect("tracing on"), r.total_time.to_bits())
    };
    let (ta, ma) = trace_for(1);
    let (tb, mb) = trace_for(0xDEAD_BEEF);
    assert_eq!(ma, mb, "makespan depends on an inert seed");
    assert_eq!(ta, tb, "trace depends on an inert seed under FIFO");
}

/// Threads-backend utilization sums: per PE, the trace's summed event
/// durations must reproduce the measured busy time, and the mean busy
/// fraction (`phases.jsonl`'s `avg_utilization`) lies in [0, 1].
#[test]
fn threads_trace_satisfies_utilization_sum_invariant() {
    let cfg = SimConfig::builder(3, presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(Backend::Threads)
        .dt_fs(1.0)
        .build()
        .unwrap();
    let mut engine = Engine::new(test_system(4), cfg);
    engine.set_metrics(Some(MetricsRegistry::in_memory()));
    let r = engine.run_phase(3);
    let trace = r.trace.as_ref().expect("tracing on");
    let span = r.total_time;
    assert!(span > 0.0);

    let n_pes = r.stats.pe_busy.len();
    let mut traced = vec![0.0f64; n_pes];
    for e in &trace.events {
        assert!(e.duration() >= 0.0, "negative event duration");
        traced[e.pe] += e.duration();
    }
    for (pe, (&busy, &sum)) in r.stats.pe_busy.iter().zip(&traced).enumerate() {
        let tol = 1e-9 * busy.max(1e-12) * (1.0 + trace.events.len() as f64);
        assert!(
            (sum - busy).abs() <= tol,
            "PE {pe}: trace sums to {sum} but measured busy is {busy}"
        );
    }

    let u = r.stats.pe_busy.iter().map(|b| b / span).sum::<f64>() / n_pes as f64;
    assert!((0.0..=1.0 + 1e-9).contains(&u), "average utilization {u} out of range");
}

/// The modeled critical path is a lower bound on the makespan, and slowing
/// one PE (an injected straggler) can only lengthen it.
#[test]
fn critical_path_is_bounded_and_monotone_under_straggler() {
    let sys = test_system(5);
    let run_with = |speeds: Vec<f64>| {
        let cfg = SimConfig::builder(4, presets::asci_red())
            .pe_speeds(speeds)
            .build()
            .unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        let r = engine.run_phase(3);
        assert!(
            r.metrics.critical_path > 0.0,
            "critical path not accumulated: {:?}",
            r.metrics
        );
        assert!(
            r.metrics.critical_path <= r.total_time * (1.0 + 1e-9),
            "critical path {} exceeds makespan {}",
            r.metrics.critical_path,
            r.total_time
        );
        r.metrics.critical_path
    };
    let uniform = run_with(vec![1.0; 4]);
    let straggler = run_with(vec![1.0, 1.0, 1.0, 0.25]);
    assert!(
        straggler >= uniform * (1.0 - 1e-12),
        "slowing PE 3 shortened the critical path: {uniform} -> {straggler}"
    );
}

/// End to end on both backends: the registry streams Perfetto-loadable
/// Chrome-trace JSON and per-phase JSONL summaries, and on the DES the
/// utilization decomposition is enforced by the phase oracle.
#[test]
fn metrics_registry_writes_perfetto_traces_on_both_backends() {
    let sys = test_system(6);
    for (backend, name) in [(Backend::Des, "des"), (Backend::Threads, "threads")] {
        let dir = tmp(name);
        let cfg = SimConfig::builder(3, presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(backend)
            .dt_fs(1.0)
            .build()
            .unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        engine.set_metrics(Some(MetricsRegistry::with_dir(&dir, 1).unwrap()));
        let r = engine.run_phase(2);

        if backend == Backend::Des {
            let report = check_phase(&engine, &r);
            assert!(report.ok(), "oracle violations on DES:\n{}", report.render());
            assert!(
                report.checks_run.contains(&"utilization"),
                "utilization oracle did not run: {:?}",
                report.checks_run
            );
        }

        let reg = engine.metrics.as_ref().unwrap();
        assert_eq!(reg.phases.len(), 1);
        let profile = &reg.phases[0];
        assert_eq!(profile.backend, name);

        let trace_path = dir.join(format!("trace_phase000_{name}.json"));
        let body = std::fs::read_to_string(&trace_path).unwrap();
        assert!(body.starts_with("[\n"), "{name}: not a trace-event array");
        assert!(body.trim_end().ends_with("]"), "{name}: unterminated JSON");
        assert!(body.contains("\"ph\":\"X\""), "{name}: no complete events");
        assert!(body.contains("\"thread_name\""), "{name}: no PE track metadata");
        assert!(body.contains("\"cat\":\"nonbonded\""), "{name}: no nonbonded category");
        let summaries = std::fs::read_to_string(dir.join("phases.jsonl")).unwrap();
        assert_eq!(summaries.lines().count(), 1);
        assert!(summaries.contains(&format!("\"backend\":\"{name}\"")), "{summaries}");

        // The registry decides which phases trace: at interval 2, phases 0
        // and 2 record one and phase 1 does not; with no registry none does.
        let every2 = MetricsRegistry::with_dir(dir.join("every2"), 2).unwrap();
        engine.set_metrics(Some(every2));
        let traced: Vec<bool> = (0..3)
            .map(|_| engine.run_phase(2).trace.is_some())
            .collect();
        assert_eq!(traced, [true, false, true], "{name}: traces at interval 2");
        engine.set_metrics(None);
        let untraced = engine.run_phase(2);
        assert!(untraced.trace.is_none(), "{name}: traced with no registry");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// LB decisions are audited: the greedy pass at the first phase boundary
/// must record before/after loads and a migration list that matches the
/// load delta it claims.
#[test]
fn lb_audit_records_migrations_and_load_deltas() {
    let cfg = SimConfig::builder(8, presets::asci_red()).build().unwrap();
    let mut engine = Engine::new(test_system(7), cfg);
    engine.set_metrics(Some(MetricsRegistry::in_memory()));
    for k in 1..=3 {
        advance(&mut engine, 2 * k, 2, Some(6), false).unwrap();
    }
    let reg = engine.metrics.as_ref().unwrap();
    assert!(
        !reg.lb_audits.is_empty(),
        "greedy+refine phases produced no LB audits"
    );
    for audit in &reg.lb_audits {
        assert_eq!(audit.before.len(), 8);
        assert_eq!(audit.after.len(), 8);
        for m in &audit.migrations {
            assert!(m.from < 8 && m.to < 8 && m.from != m.to);
        }
        let line = audit.to_json_line();
        assert!(line.contains(&format!("\"strategy\":\"{}\"", audit.strategy)), "{line}");
    }
    // The greedy pass on a fresh placement must actually move something.
    assert!(reg.lb_audits.iter().any(|a| !a.migrations.is_empty()));
}

/// `PhaseResult::metrics` is the one per-phase counter surface (the PR 5
/// deprecated shims are gone): the consolidated ledger must agree exactly
/// with the stats-level view it summarizes.
#[test]
fn phase_metrics_is_the_one_counter_surface() {
    let cfg = SimConfig::builder(2, presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .dt_fs(1.0)
        .pairlist(2.5)
        .build()
        .unwrap();
    let mut engine = Engine::new(test_system(9), cfg);
    let r = engine.run_phase(3);
    assert!(r.metrics.pairlist.builds > 0, "cached phase must build lists");
    assert_eq!(
        (r.metrics.wire_msgs, r.metrics.wire_bytes),
        (r.stats.wire_msgs(), r.stats.wire_bytes()),
        "PhaseMetrics wire totals diverge from SummaryStats"
    );
    assert_eq!(r.metrics.messages.sent, r.stats.msgs_sent);
    assert_eq!(r.metrics.messages.received, r.stats.msgs_received);
}

/// Struct-literal configuration stays supported for downstream code that
/// has not migrated to the builder: the engine re-validates per phase.
#[test]
fn struct_literal_config_path_still_works() {
    let run = |speeds: Vec<f64>| {
        let mut cfg = SimConfig::new(2, presets::generic_cluster());
        cfg.pe_speeds = speeds;
        Engine::new(test_system(9), cfg).run_phase(2)
    };
    let r = run(Vec::new());
    assert!(r.time_per_step > 0.0 && r.time_per_step.is_finite());
    let slowed = run(vec![1.0, 0.25]);
    assert!(
        slowed.total_time > r.total_time,
        "the struct-literal field did not reach the phase"
    );
}
