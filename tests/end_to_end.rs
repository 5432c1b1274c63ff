//! End-to-end integration tests: generator → decomposition → runtime →
//! load balancer → measurements, across crate boundaries.

use namd_repro::machine::presets;
use namd_repro::mdcore::prelude::*;
use namd_repro::molgen::{SystemBuilder, SystemSpec};
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

fn test_system(seed: u64) -> System {
    SystemBuilder::new(SystemSpec {
        name: "e2e",
        box_lengths: Vec3::new(42.0, 42.0, 42.0),
        target_atoms: 6_000,
        protein_chains: 1,
        protein_chain_len: 80,
        lipid_slab: Some((14.0, 24.0)),
        cutoff: 9.0,
        seed,
    })
    .build()
}

/// §3.2's protocol through the phase driver: three 2-step phases (the
/// static placement, the strategy's, the refined one).
fn three_phases(engine: &mut Engine) -> Vec<PhaseResult> {
    (1..=3)
        .map(|k| match advance(engine, 2 * k, 2, Some(6), false).unwrap() {
            Advanced::Phase { phase, .. } => phase,
            Advanced::RolledBack { .. } => unreachable!("no rollback point is kept"),
        })
        .collect()
}

#[test]
fn full_pipeline_improves_with_lb_and_scale() {
    let sys = test_system(1);
    let machine = presets::asci_red();
    let decomp = build_decomposition(&sys, &SimConfig::new(1, machine));

    let mut last = f64::INFINITY;
    for pes in [1usize, 8, 32] {
        let cfg = SimConfig::builder(pes, machine).build().unwrap();
        let mut engine = Engine::with_decomposition(sys.clone(), decomp.clone(), cfg);
        let run = three_phases(&mut engine);
        let (initial, t) = (run[0].time_per_step, run[2].time_per_step);
        assert!(t < last, "{pes} PEs not faster: {t} vs {last}");
        // LB never hurts the slab-imbalanced system.
        assert!(t <= initial * 1.02, "{pes} PEs: LB regressed {initial} -> {t}");
        last = t;
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run_once = || {
        let sys = test_system(7);
        let cfg = SimConfig::builder(16, presets::t3e_900()).build().unwrap();
        let mut engine = Engine::new(sys, cfg);
        engine.set_metrics(Some(MetricsRegistry::in_memory()));
        let t = three_phases(&mut engine)[2].time_per_step;
        let audits = &engine.metrics.as_ref().unwrap().lb_audits;
        let migrations: Vec<usize> = audits.iter().map(|a| a.migrations.len()).collect();
        (t.to_bits(), migrations, engine.proxy_count())
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn machine_models_order_single_pe_times() {
    // Origin (112 MFLOPS) < T3E (64) < ASCI-Red (48) in step time.
    let sys = test_system(3);
    let time_on = |m: machine::MachineModel| {
        let cfg = SimConfig::builder(1, m).build().unwrap();
        let mut e = Engine::new(sys.clone(), cfg);
        e.run_phase(1).time_per_step
    };
    let asci = time_on(presets::asci_red());
    let t3e = time_on(presets::t3e_900());
    let origin = time_on(presets::origin2000());
    assert!(origin < t3e, "origin {origin} vs t3e {t3e}");
    assert!(t3e < asci, "t3e {t3e} vs asci {asci}");
}

#[test]
fn counted_and_real_modes_agree_on_structure() {
    // Same decomposition object counts; Real mode measures loads close to
    // what Counted mode models (the cost model is calibrated, not exact —
    // allow a factor of 2).
    let sys = test_system(5);
    let machine = presets::ideal();

    let cfg_counted = SimConfig::builder(4, machine).build().unwrap();
    let mut eng_counted = Engine::new(sys.clone(), cfg_counted);
    let rc = eng_counted.run_phase(2);

    let cfg_real = SimConfig::builder(4, machine)
        .force_mode(ForceMode::Real)
        .build()
        .unwrap();
    let mut eng_real = Engine::new(sys, cfg_real);
    let rr = eng_real.run_phase(2);

    assert_eq!(rc.compute_loads.len(), rr.compute_loads.len());
    let sum_c: f64 = rc.compute_loads.iter().sum();
    let sum_r: f64 = rr.compute_loads.iter().sum();
    let ratio = sum_c / sum_r;
    assert!(
        (0.5..2.0).contains(&ratio),
        "counted {sum_c} vs real-measured {sum_r} loads diverge (ratio {ratio})"
    );
}

#[test]
fn audit_identity_holds_across_machines_and_scales() {
    let sys = test_system(9);
    for (machine, pes) in [
        (presets::asci_red(), 16),
        (presets::t3e_900(), 8),
        (presets::origin2000(), 32),
    ] {
        let cfg = SimConfig::builder(pes, machine).build().unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        let r = engine.run_phase(2);
        let a = audit(engine.decomp(), &machine, &r, pes);
        let gap = (a.actual.component_sum() - a.actual.total).abs();
        assert!(
            gap <= 0.03 * a.actual.total,
            "{} @ {pes}: audit gap {gap} vs total {}",
            machine.name,
            a.actual.total
        );
        assert!(a.ideal.total <= a.actual.total * 1.001);
    }
}

#[test]
fn benchmark_systems_have_sane_initial_forces() {
    // The clash-avoiding generator must produce configurations whose maximum
    // force is integrable — no r⁻¹² blowups. (bR is small enough to check
    // exhaustively in a test.)
    let sys = namd_repro::molgen::br_like().build();
    let mut f = vec![Vec3::ZERO; sys.n_atoms()];
    let e = namd_repro::mdcore::sim::compute_forces(&sys, &mut f);
    assert!(e.potential().is_finite());
    let fmax = f.iter().map(|v| v.norm()).fold(0.0, f64::max);
    // The clash-avoider guarantees ≳1.9 Å separations; the worst-case LJ
    // force there is ~10⁴ kcal/mol/Å, which integrates stably at 0.5 fs.
    // A real r⁻¹² clash would be orders of magnitude beyond this bound.
    assert!(
        fmax < 2.0e4,
        "max force {fmax} kcal/mol/Å — generator produced a clash"
    );
    // Potential per atom in a physically plausible band.
    let per_atom = e.potential() / sys.n_atoms() as f64;
    assert!(per_atom.abs() < 100.0, "potential/atom {per_atom}");
}

#[test]
fn grainsize_rule_of_thumb() {
    // The conclusion's rule: aim at average grains well above the message
    // overhead. Check our default decomposition obeys it on ASCI-Red.
    let sys = test_system(11);
    let machine = presets::asci_red();
    let decomp = build_decomposition(&sys, &SimConfig::new(1, machine));
    let works: Vec<f64> = decomp.computes.iter().map(|c| c.work).collect();
    let avg = works.iter().sum::<f64>() / works.len() as f64;
    let avg_time = machine.task_time(avg);
    // 10-50× the message overhead (~25 µs round trip).
    assert!(
        avg_time > 10.0 * 25e-6,
        "average grainsize {avg_time}s too small vs message overhead"
    );
}

#[test]
fn restraints_pin_the_protein_during_hot_dynamics() {
    use namd_repro::mdcore::thermostat::Langevin;
    let sys = SystemBuilder::new(SystemSpec {
        name: "restrained",
        box_lengths: Vec3::new(30.0, 30.0, 30.0),
        target_atoms: 2_200,
        protein_chains: 1,
        protein_chain_len: 40,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 31,
    })
    .build_restrained();
    assert_eq!(sys.topology.restraints.len(), 40);
    let anchors: Vec<Vec3> = sys.topology.restraints.iter().map(|r| r.target).collect();

    let mut hot = sys.clone();
    let mut lang = Langevin::new(&hot, 400.0, 0.01, 1.0, 3);
    lang.run(&mut hot, 150);

    // Restrained protein atoms stay near their anchors.
    let mut max_protein = 0.0f64;
    for (i, &a) in anchors.iter().enumerate() {
        max_protein = max_protein.max(hot.cell.dist2(hot.positions[i], a).sqrt());
    }
    assert!(max_protein < 3.5, "restrained atom wandered {max_protein} Å");

    // For contrast: without restraints the same protein drifts further.
    let unrestrained = SystemBuilder::new(SystemSpec {
        name: "unrestrained",
        box_lengths: Vec3::new(30.0, 30.0, 30.0),
        target_atoms: 2_200,
        protein_chains: 1,
        protein_chain_len: 40,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 31,
    })
    .build();
    let start: Vec<Vec3> = unrestrained.positions[..40].to_vec();
    let mut free = unrestrained;
    let mut lang = Langevin::new(&free, 400.0, 0.01, 1.0, 3);
    lang.run(&mut free, 150);
    let mut max_free = 0.0f64;
    for (i, &a) in start.iter().enumerate() {
        max_free = max_free.max(free.cell.dist2(free.positions[i], a).sqrt());
    }
    assert!(
        max_free > max_protein,
        "unrestrained ({max_free} Å) should drift more than restrained ({max_protein} Å)"
    );
}
