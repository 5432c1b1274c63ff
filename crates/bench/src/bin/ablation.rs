//! Ablations of the design choices DESIGN.md calls out:
//!
//! * load-balancing strategy (none / random / round-robin / proxy-unaware
//!   greedy / greedy / greedy+refine);
//! * grainsize splitting of face pairs;
//! * multicast optimization;
//! * §4.2.2 migratable bonded computes.
//!
//! All on ApoA-I / ASCI-Red at 256 and 1024 PEs.
use charmrt::MulticastMode;
use namd_core::prelude::*;
use namd_core::recovery::steady_phase;

fn bench_with(
    cfg: SimConfig,
    sys: &mdcore::system::System,
    decomp: &Decomposition,
) -> (f64, usize) {
    let mut engine = Engine::with_decomposition(sys.clone(), decomp.clone(), cfg);
    let t = steady_phase(&mut engine, 3).expect("no PE is killed").time_per_step;
    (t, engine.proxy_count())
}

fn main() {
    let sys = molgen::apoa1_like().build();
    let machine = machine::presets::asci_red();
    let base_decomp = build_decomposition(&sys, &SimConfig::new(1, machine));

    for pes in [256usize, 1024, 2048] {
        println!("=== ApoA-I on ASCI-Red, {pes} PEs ===");
        println!("--- load-balancing strategy (everything else optimized) ---");
        for (name, lb) in [
            ("static (no LB)", LbStrategy::None),
            ("random", LbStrategy::Random),
            ("round-robin", LbStrategy::RoundRobin),
            ("greedy, proxy-unaware", LbStrategy::GreedyNoProxy),
            ("greedy (paper)", LbStrategy::Greedy),
            ("greedy + refine (paper)", LbStrategy::GreedyRefine),
        ] {
            let cfg = SimConfig::builder(pes, machine).lb(lb).build().unwrap();
            let (t, proxies) = bench_with(cfg, &sys, &base_decomp);
            println!("{name:<26} {:>9.2} ms/step   {proxies:>6} proxies", t * 1e3);
        }

        println!("--- single-feature ablations (greedy+refine LB) ---");
        type Tweak = Box<dyn Fn(&mut SimConfig)>;
        let features: [(&str, Tweak); 4] = [
            ("all optimizations on", Box::new(|_c: &mut SimConfig| {})),
            ("no face-pair splitting", Box::new(|c| c.split_face_pairs = false)),
            ("naive multicast", Box::new(|c| c.multicast = MulticastMode::Naive)),
            ("non-migratable bonded", Box::new(|c| c.migratable_bonded = false)),
        ];
        for (name, tweak) in features {
            // Tweaks mutate the built config directly: the struct-literal
            // path stays supported, and the engine re-validates per phase.
            let mut cfg = SimConfig::builder(pes, machine).build().unwrap();
            tweak(&mut cfg);
            // Splitting and bonded migratability change the decomposition.
            let decomp = build_decomposition(&sys, &cfg);
            let (t, _) = bench_with(cfg, &sys, &decomp);
            println!("{name:<26} {:>9.2} ms/step", t * 1e3);
        }
        println!();
    }
}
