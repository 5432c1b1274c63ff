//! Adaptation scenarios beyond the paper's tables:
//!
//! 1. **Stragglers** (the workstation-cluster scenario of the paper's
//!    ref [3]): a quarter of the processors run at half speed; the
//!    measurement-based balancer observes the inflated object times and
//!    sheds load from the slow machines.
//! 2. **Slow load drift** (§3.2's closing loop): object loads drift over
//!    time, and the periodic refinement of `GreedyRefine` keeps the step
//!    time pinned while `Greedy`'s one placement degrades.
//!
//! ```sh
//! cargo run --release --example cluster_adaptation
//! ```

use namd_repro::mdcore::prelude::Vec3;
use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

/// Step times of `n` 3-step phases through the phase driver, which
/// balances at every boundary.
fn step_times(engine: &mut Engine, n: usize) -> Vec<f64> {
    let mut times = Vec::new();
    for k in 1..=n {
        if let Advanced::Phase { phase, .. } =
            advance(engine, 3 * k, 3, Some(3 * n), false).expect("no fault plan")
        {
            times.push(phase.time_per_step);
        }
    }
    times
}

fn test_system() -> namd_repro::mdcore::system::System {
    namd_repro::molgen::SystemBuilder::new(namd_repro::molgen::SystemSpec {
        name: "adaptation",
        box_lengths: Vec3::new(46.0, 46.0, 46.0),
        target_atoms: 9_000,
        protein_chains: 1,
        protein_chain_len: 90,
        lipid_slab: Some((16.0, 28.0)),
        cutoff: 9.0,
        seed: 5,
    })
    .build()
}

fn main() {
    let sys = test_system();
    let machine = namd_repro::machine::presets::asci_red();
    let n_pes = 32;

    // --- Scenario 1: stragglers -----------------------------------------
    println!("=== stragglers: 8 of {n_pes} PEs at half speed ===");
    let mut speeds = vec![1.0; n_pes];
    for s in speeds.iter_mut().take(8) {
        *s = 0.5;
    }
    for (label, lb) in [("static placement", LbStrategy::None), ("greedy + refine", LbStrategy::GreedyRefine)] {
        let cfg = SimConfig::builder(n_pes, machine).pe_speeds(speeds.clone()).lb(lb).build().unwrap();
        let mut engine = Engine::new(sys.clone(), cfg);
        println!("{label:<22} {:.2} ms/step", step_times(&mut engine, 3)[2] * 1e3);
    }

    // --- Scenario 2: slow load drift ------------------------------------
    println!("\n=== slow load drift (σ = 20% per phase, 10 phases) ===");
    let run_with = |lb: LbStrategy| {
        let cfg = SimConfig::builder(n_pes, machine).lb(lb).load_drift(0.20).build().unwrap();
        step_times(&mut Engine::new(sys.clone(), cfg), 10)
    };
    let refined = run_with(LbStrategy::GreedyRefine);
    let frozen = run_with(LbStrategy::Greedy);
    println!("phase   greedy once(ms)   greedy + refine(ms)");
    for (i, (f, r)) in frozen.iter().zip(&refined).enumerate() {
        println!("{i:>5} {:>17.2} {:>20.2}", f * 1e3, r * 1e3);
    }
    println!(
        "\nafter 10 phases: greedy once {:.2} ms vs refined {:.2} ms",
        frozen.last().unwrap() * 1e3,
        refined.last().unwrap() * 1e3
    );
}
