//! The paper's qualitative claims, asserted as tests. These are the "shape"
//! checks of DESIGN.md §4 at test-friendly scale; the full-scale numbers
//! live in EXPERIMENTS.md and the `namd-bench` binaries.

use charmrt::MulticastMode;
use namd_repro::machine::presets;
use namd_repro::mdcore::prelude::*;
use namd_repro::molgen::{SystemBuilder, SystemSpec};
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery;

/// §3.2's protocol: three 2-step phases (the static placement measured, the
/// strategy's placement, the refined one); returns the last.
fn steady_phase(engine: &mut Engine) -> PhaseResult {
    recovery::steady_phase(engine, 2).unwrap()
}

fn slab_system() -> System {
    SystemBuilder::new(SystemSpec {
        name: "claims",
        box_lengths: Vec3::new(44.0, 44.0, 44.0),
        target_atoms: 8_000,
        protein_chains: 1,
        protein_chain_len: 90,
        lipid_slab: Some((16.0, 28.0)),
        cutoff: 9.0,
        seed: 13,
    })
    .build()
}

/// §3: the hybrid decomposition provides ~14 non-bonded objects per patch
/// before splitting — many more schedulable objects than spatial
/// decomposition alone.
#[test]
fn hybrid_decomposition_multiplies_parallelism() {
    let sys = slab_system();
    let cfg = SimConfig::builder(8, presets::ideal())
        .grainsize(usize::MAX, false, 112)
        .build()
        .unwrap();
    let d = build_decomposition(&sys, &cfg);
    let n_patches = d.grid.n_patches();
    let nonbonded = d
        .computes
        .iter()
        .filter(|c| c.terms.is_none())
        .count();
    assert!(
        nonbonded >= 10 * n_patches,
        "{nonbonded} non-bonded computes for {n_patches} patches"
    );
}

/// §4.2.1: splitting removes the grainsize tail (the Figures 1→2 transition)
/// and thereby raises the achievable speedup ceiling.
#[test]
fn splitting_cuts_the_largest_task() {
    let sys = slab_system();
    let machine = presets::asci_red();
    let unsplit_cfg = SimConfig::builder(8, machine)
        .grainsize(usize::MAX, false, 112)
        .build()
        .unwrap();
    let unsplit = build_decomposition(&sys, &unsplit_cfg);
    let split = build_decomposition(&sys, &SimConfig::new(8, machine));

    // §4.2.1 is about the non-bonded grains (Figures 1-2 plot "the critical
    // method ... that computes non-bonded forces"); bonded computes are made
    // migratable (§4.2.2) but never split.
    let max_work = |d: &Decomposition| {
        d.computes
            .iter()
            .filter(|c| c.terms.is_none())
            .map(|c| c.work)
            .fold(0.0, f64::max)
    };
    let (mu, ms) = (max_work(&unsplit), max_work(&split));
    let cfg = SimConfig::new(8, machine);
    assert!(ms < mu, "splitting should cut the largest task: {mu} -> {ms}");
    assert!(
        ms <= cfg.target_grain_work * 1.1,
        "largest split task {ms} exceeds the grain target {}",
        cfg.target_grain_work
    );
    // Total work is conserved, only regrouped.
    let total = |d: &Decomposition| d.computes.iter().map(|c| c.pairs).sum::<u64>();
    assert_eq!(total(&unsplit), total(&split));
}

/// §4.2.3: the naive multicast lengthens the integration entry method; the
/// optimized single-pack version shortens it (Figures 3→4).
#[test]
fn optimized_multicast_shortens_integration() {
    let sys = slab_system();
    let machine = presets::asci_red();
    let integrate_time = |mode: MulticastMode| {
        let cfg = SimConfig::builder(16, machine)
            .multicast(mode)
            .build()
            .unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        let last = steady_phase(&mut engine);
        let e = last.entries.integrate;
        last.stats.entry_time[e.idx()] / last.stats.entry_count[e.idx()] as f64
    };
    let naive = integrate_time(MulticastMode::Naive);
    let optimized = integrate_time(MulticastMode::Optimized);
    assert!(
        optimized < 0.9 * naive,
        "optimized multicast should shorten Integrate: {naive} -> {optimized}"
    );
}

/// §3.2: measurement-based greedy LB beats the initial static placement on
/// a density-imbalanced system, and refinement moves only a few objects.
#[test]
fn measurement_based_lb_beats_static() {
    let sys = slab_system();
    let machine = presets::asci_red();

    let with_lb = |lb: LbStrategy| {
        let cfg = SimConfig::builder(24, machine).lb(lb).build().unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        engine.set_metrics(Some(MetricsRegistry::in_memory()));
        let t = steady_phase(&mut engine).time_per_step;
        let audits = engine.metrics.take().unwrap().lb_audits;
        let moves: Vec<(String, usize)> =
            audits.into_iter().map(|a| (a.strategy, a.migrations.len())).collect();
        (t, moves)
    };
    let (static_t, _) = with_lb(LbStrategy::None);
    let (greedy_t, moves) = with_lb(LbStrategy::GreedyRefine);
    assert!(
        greedy_t < 0.8 * static_t,
        "LB should clearly beat static: {greedy_t} vs {static_t}"
    );
    // "This time, only the refinement procedure is used, resulting in only a
    // few additional object migrations."
    let names: Vec<&str> = moves.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(names, ["rcb-static", "greedy", "refine"]);
    let (greedy, refine) = (moves[1].1, moves[2].1);
    assert!(refine <= greedy / 2, "refinement moved {refine} vs greedy's {greedy}");
}

/// §3.2: proxy-aware placement needs fewer proxies than proxy-blind
/// placement at comparable balance.
#[test]
fn proxy_awareness_reduces_communication() {
    let sys = slab_system();
    let machine = presets::asci_red();
    let proxies_with = |lb: LbStrategy| {
        let cfg = SimConfig::builder(24, machine).lb(lb).build().unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        steady_phase(&mut engine);
        engine.proxy_count()
    };
    let aware = proxies_with(LbStrategy::Greedy);
    let blind = proxies_with(LbStrategy::GreedyNoProxy);
    assert!(
        aware < blind,
        "proxy-aware should need fewer proxies: {aware} vs {blind}"
    );
}

/// Table 4's signature: a small system stops scaling once there are many
/// more processors than patches.
#[test]
fn small_systems_saturate() {
    let sys = SystemBuilder::new(SystemSpec {
        name: "small-sat",
        box_lengths: Vec3::new(26.0, 26.0, 26.0),
        target_atoms: 1_500,
        protein_chains: 0,
        protein_chain_len: 0,
        lipid_slab: None,
        cutoff: 8.0,
        seed: 2,
    })
    .build();
    let machine = presets::asci_red();
    let decomp = build_decomposition(&sys, &SimConfig::new(1, machine));
    let time_at = |pes: usize| {
        let cfg = SimConfig::builder(pes, machine).build().unwrap();
        let mut e = Engine::with_decomposition(sys.clone(), decomp.clone(), cfg);
        steady_phase(&mut e).time_per_step
    };
    let t8 = time_at(8);
    let t64 = time_at(64);
    let t128 = time_at(128);
    assert!(t64 < t8, "should still scale 8 -> 64");
    // Flat from 64 to 128 — the Table 4 plateau.
    assert!(
        t128 > 0.7 * t64,
        "tiny system should saturate: t64 {t64} t128 {t128}"
    );
}

/// §2.1, the principle of persistence: object loads measured in one phase
/// predict the next phase's loads.
#[test]
fn object_loads_persist_across_phases() {
    let sys = slab_system();
    let cfg = SimConfig::builder(12, presets::asci_red()).build().unwrap();
    let mut engine = Engine::new(sys, cfg);
    let r1 = engine.run_phase(2);
    let r2 = engine.run_phase(2);
    // Correlation of per-object loads between phases should be ~1.
    let (a, b) = (&r1.compute_loads, &r2.compute_loads);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..a.len() {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma).powi(2);
        vb += (b[i] - mb).powi(2);
    }
    let corr = cov / (va.sqrt() * vb.sqrt()).max(1e-30);
    assert!(corr > 0.99, "load persistence correlation {corr}");
}
