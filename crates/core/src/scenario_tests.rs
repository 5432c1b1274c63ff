//! Engine scenario tests: the modeled full-electrostatics (PME) pipeline
//! and heterogeneous processors (workstation-cluster adaptation, paper ref [3]).

use crate::config::{PmeSimConfig, SimConfig};
use crate::engine::Engine;
use crate::recovery::tests::phases;
use machine::presets;
use mdcore::prelude::*;

fn system() -> System {
    molgen::SystemBuilder::new(molgen::SystemSpec {
        name: "pme-engine",
        box_lengths: Vec3::new(36.0, 36.0, 36.0),
        target_atoms: 4_200,
        protein_chains: 1,
        protein_chain_len: 60,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 17,
    })
    .build()
}

#[test]
fn pme_protocol_completes_and_costs_time() {
    let sys = system();
    let machine = presets::asci_red();
    let time_with = |pme: Option<PmeSimConfig>| {
        let cfg = SimConfig::builder(16, machine).pme(pme).build().unwrap();
        let mut e = Engine::new(sys.clone(), cfg);
        e.run_phase(4).time_per_step
    };
    let without = time_with(None);
    let every_step = time_with(Some(PmeSimConfig { every: 1, ..Default::default() }));
    let mts = time_with(Some(PmeSimConfig { every: 4, ..Default::default() }));
    assert!(every_step > without, "PME must cost time: {without} vs {every_step}");
    assert!(
        mts < every_step,
        "multiple timestepping must amortize the grid cost: {mts} vs {every_step}"
    );
    // The grid component is a small fraction of the step, as the paper says.
    assert!(
        every_step < 1.6 * without,
        "PME should be a modest fraction: {without} -> {every_step}"
    );
}

#[test]
fn pme_entries_show_up_in_the_profile() {
    let sys = system();
    let cfg = SimConfig::builder(8, presets::asci_red())
        .pme(Some(PmeSimConfig { every: 2, slabs: 8, ..Default::default() }))
        .build()
        .unwrap();
    let mut e = Engine::new(sys, cfg);
    let r = e.run_phase(4);
    // 4 steps at every=2 → PME fired on steps 0 and 2: slabs got charges
    // from every patch twice.
    let n_patches = e.decomp().grid.n_patches();
    let charges = r.stats.entry_count[r.entries.slab_charge.idx()];
    assert_eq!(charges, 2 * n_patches as u64);
    let fft_time = r.stats.entry_time[r.entries.slab_transpose.idx()];
    assert!(fft_time > 0.0);
}

#[test]
fn pme_run_is_deterministic_and_lb_compatible() {
    let run = || {
        let cfg = SimConfig::builder(12, presets::t3e_900())
            .pme(Some(PmeSimConfig::default()))
            .build()
            .unwrap();
        phases(&mut Engine::new(system(), cfg), 4, 3)[2].time_per_step.to_bits()
    };
    assert_eq!(run(), run());
}

#[test]
fn single_slab_degenerate_case_works() {
    let cfg = SimConfig::builder(4, presets::ideal())
        .pme(Some(PmeSimConfig { slabs: 1, every: 1, ..Default::default() }))
        .build()
        .unwrap();
    let mut e = Engine::new(system(), cfg);
    let r = e.run_phase(2);
    assert!(r.time_per_step.is_finite() && r.time_per_step > 0.0);
}

#[test]
fn lb_adapts_to_straggler_pes() {
    // Workstation-cluster scenario (paper ref [3]): a quarter of the PEs
    // run at half speed. The measurement-based balancer observes the
    // inflated object times on slow PEs and sheds work from them.
    use crate::config::LbStrategy;
    let sys = system();
    let machine = presets::asci_red();
    let n_pes = 16;
    let mut speeds = vec![1.0; n_pes];
    for s in speeds.iter_mut().take(4) {
        *s = 0.5;
    }
    let run_with = |lb: LbStrategy| {
        let cfg = SimConfig::builder(n_pes, machine)
            .pe_speeds(speeds.clone())
            .lb(lb)
            .build()
            .unwrap();
        phases(&mut Engine::new(sys.clone(), cfg), 3, 3)[2].time_per_step
    };
    let static_t = run_with(LbStrategy::None);
    let greedy_t = run_with(LbStrategy::GreedyRefine);
    assert!(
        greedy_t < 0.9 * static_t,
        "LB should adapt to stragglers: static {static_t} vs greedy {greedy_t}"
    );
}

#[test]
fn atom_migration_between_phases_preserves_physics() {
    use crate::config::ForceMode;
    // Real-mode dynamics hot enough that atoms cross patch boundaries, an
    // atom migration, then more dynamics: the partition must stay exact and
    // the energy continuous across the migration.
    let mut sys = system();
    sys.thermalize(300.0, 23);
    let cfg = SimConfig::builder(6, presets::ideal())
        .force_mode(ForceMode::Real)
        .dt_fs(1.0)
        .build()
        .unwrap();
    let mut engine = Engine::new(sys, cfg);

    let r1 = engine.run_phase(10);
    let e_before = r1.energies.last().unwrap().total();

    engine.migrate_atoms();
    // Partition invariant after migration.
    let total: usize = engine.decomp().grid.atoms.iter().map(Vec::len).sum();
    assert_eq!(total, engine.system().n_atoms());

    let r2 = engine.run_phase(10);
    let e_after = r2.energies.first().unwrap().total();
    let rel = (e_after - e_before).abs() / e_before.abs().max(1.0);
    assert!(rel < 2e-2, "energy jumped across migration: {e_before} -> {e_after}");
}

#[test]
fn periodic_refinement_tracks_slow_load_drift() {
    // §3.2's last paragraph: "Periodically thereafter, the refinement
    // procedure is repeated to account for the slow changes of the
    // simulation." Under a drifting load, `GreedyRefine` refines at every
    // boundary after the greedy pass and must hold the step time near its
    // post-LB level, while `Greedy` freezes its one placement and degrades.
    use crate::config::LbStrategy;
    let sys = system();
    let run_with = |lb: LbStrategy| {
        let cfg = SimConfig::builder(16, presets::asci_red())
            .lb(lb)
            .load_drift(0.25)
            .build()
            .unwrap();
        let run = phases(&mut Engine::new(sys.clone(), cfg), 2, 9);
        run.iter().map(|p| p.time_per_step).collect::<Vec<f64>>()
    };
    let refined = run_with(LbStrategy::GreedyRefine);
    let frozen = run_with(LbStrategy::Greedy);
    // Same drift sequence (deterministic RNG), so the comparison is paired.
    let (last_refined, last_frozen) = (refined[8], frozen[8]);
    assert!(
        last_refined < last_frozen,
        "periodic refinement should track drift: {last_refined} vs frozen {last_frozen}"
    );
    // And the refined trajectory stays within a modest band of its first
    // refined phase.
    let start = refined[2];
    assert!(
        last_refined < 1.6 * start,
        "refined run degraded too much: {start} -> {last_refined}"
    );
}

#[test]
fn load_drift_is_deterministic_and_bounded() {
    let sys = system();
    let cfg = SimConfig::builder(4, presets::ideal()).load_drift(0.5).build().unwrap();
    let mut a = Engine::new(sys.clone(), cfg.clone());
    let mut b = Engine::new(sys, cfg);
    for _ in 0..20 {
        a.advance_load_drift();
        b.advance_load_drift();
    }
    assert_eq!(a.drift, b.drift);
    assert!(a.drift.iter().all(|&d| (0.25..=4.0).contains(&d)));
    // The walk actually moved.
    assert!(a.drift.iter().any(|&d| (d - 1.0).abs() > 0.05));
}

#[test]
fn remote_priority_helps_at_scale() {
    // NAMD runs computes that feed remote patches first, so force messages
    // overlap local-only work. At communication-bound PE counts the
    // prioritization should not hurt and typically helps.
    let sys = system();
    let time_with = |on: bool| {
        let cfg = SimConfig::builder(48, presets::asci_red())
            .prioritize_remote(on)
            .build()
            .unwrap();
        phases(&mut Engine::new(sys.clone(), cfg), 3, 3)[2].time_per_step
    };
    let with = time_with(true);
    let without = time_with(false);
    assert!(
        with <= without * 1.05,
        "remote prioritization should not hurt: {with} vs {without}"
    );
}

#[test]
fn real_mode_pme_matches_sequential_full_electrostatics() {
    use crate::config::ForceMode;
    // The DES engine in Real mode with full electrostatics must compute the
    // same step-0 potential as the sequential pme::md path on the same
    // Ewald-mode system.
    let beta = 0.45;
    let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
        name: "pme-real",
        box_lengths: Vec3::new(24.0, 24.0, 24.0),
        target_atoms: 900,
        protein_chains: 0,
        protein_chain_len: 0,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 8,
    })
    .build();
    sys.forcefield = sys.forcefield.clone().with_ewald(beta);
    sys.thermalize(100.0, 8);

    // Sequential reference.
    let mut full = pme::md::FullElectrostatics::new(&sys, 1.0);
    let mut f = vec![Vec3::ZERO; sys.n_atoms()];
    let e_ref = full.compute_forces(&sys, &mut f);

    // DES engine, Real mode, PME every step, 4 slabs.
    let cfg = SimConfig::builder(4, presets::ideal())
        .force_mode(ForceMode::Real)
        .pme(Some(crate::config::PmeSimConfig { every: 1, slabs: 4, mesh_spacing: 1.0 }))
        .build()
        .unwrap();
    let mut engine = Engine::new(sys, cfg);
    let r = engine.run_phase(2);

    let got = r.energies[0].potential();
    let want = e_ref.potential();
    let tol = 2e-2 * want.abs().max(1.0);
    assert!(
        (got - want).abs() < tol,
        "step-0 potential: DES {got} vs sequential {want}"
    );
    // Dynamics with PME forces conserve energy decently over a short run.
    let e1 = r.energies[0].total();
    let e2 = r.energies[1].total();
    assert!(
        (e2 - e1).abs() < 0.05 * e1.abs().max(1.0),
        "one-step energy jump: {e1} -> {e2}"
    );
}

/// A PME slab finishes a round only with its own patches' charges and
/// every peer's transpose for that round in hand. Under a perturbed
/// schedule a peer's transpose can arrive before this slab's charges, or a
/// peer's next-round transpose before the one it follows; a slab that
/// finished on either would hand its patches a potential for a step they
/// have not reached, or sum the wrong positions. Every slab sees every
/// atom's position, so any slab count and message order give the one-slab
/// trajectory.
#[test]
fn real_mode_pme_slab_count_and_schedule_change_no_bit() {
    use crate::config::ForceMode;
    let mut sys = molgen::SystemBuilder::new(molgen::SystemSpec {
        name: "pme-slabs",
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
    let run = |slabs: usize, schedule: charmrt::SchedulePolicy| {
        let cfg = SimConfig::builder(4, presets::ideal())
            .force_mode(ForceMode::Real)
            .pme(Some(PmeSimConfig { every: 1, slabs, mesh_spacing: 1.0 }))
            .schedule(schedule)
            .build()
            .unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        let energies: Vec<u64> =
            engine.run_phase(9).energies.iter().map(|e| e.total().to_bits()).collect();
        let sys = engine.system();
        let state: Vec<u64> = sys
            .positions
            .iter()
            .chain(&sys.velocities)
            .flat_map(|v| [v.x, v.y, v.z])
            .map(f64::to_bits)
            .collect();
        (energies, state)
    };
    let reference = run(1, charmrt::SchedulePolicy::default());
    for (name, seed) in [("fifo", 0), ("shuffle", 0), ("shuffle", 2), ("lifo", 0), ("jitter", 1)] {
        let got = run(4, charmrt::SchedulePolicy::parse(name, seed).unwrap());
        assert_eq!(got.0, reference.0, "energies, 4 slabs, schedule {name}/{seed}");
        assert!(got.1 == reference.1, "state, 4 slabs, schedule {name}/{seed}");
    }
}
