//! Extension experiment: the scalability contribution of the grid-based
//! full-electrostatics component (PME), which the paper defers to ongoing
//! work \[14, 16\] while noting it "consume\[s\] a small fraction of the total
//! computation time, particularly when combined with multiple timestepping".
//!
//! ApoA-I on the ASCI-Red model: cutoff-only vs PME every step vs PME with
//! 4-step multiple timestepping, across processor counts. The FFT
//! all-to-all transpose is what erodes scalability at high PE counts.
use namd_core::prelude::*;
use namd_core::recovery::steady_phase;

fn main() {
    let bench = molgen::apoa1_like();
    let sys = bench.build();
    let machine = machine::presets::asci_red();
    let decomp = build_decomposition(&sys, &SimConfig::new(1, machine));

    println!("ApoA-I + full electrostatics (modeled PME, 128^3 mesh, 64 slabs)");
    println!("PEs      cutoff-only     PME every step    PME + MTS(4)   (s/step)");
    let variants: [Option<PmeSimConfig>; 3] = [
        None,
        Some(PmeSimConfig { every: 1, ..Default::default() }),
        Some(PmeSimConfig { every: 4, ..Default::default() }),
    ];
    for pes in [1usize, 64, 256, 1024, 2048] {
        let mut row = format!("{pes:>4}");
        for pme in variants {
            let cfg = SimConfig::builder(pes, machine).pme(pme).build().unwrap();
            let mut engine = Engine::with_decomposition(sys.clone(), decomp.clone(), cfg);
            let t = steady_phase(&mut engine, 4).expect("no PE is killed").time_per_step;
            row.push_str(&format!("  {t:>14.4}"));
        }
        println!("{row}");
    }
    println!("\nspeedup relative to each variant's own 1-PE time:");
    let mut t1 = [0.0f64; 3];
    println!("PEs      cutoff-only     PME every step    PME + MTS(4)");
    for pes in [1usize, 64, 256, 1024, 2048] {
        let mut row = format!("{pes:>4}");
        for (v, pme) in variants.iter().enumerate() {
            let cfg = SimConfig::builder(pes, machine).pme(*pme).build().unwrap();
            let mut engine = Engine::with_decomposition(sys.clone(), decomp.clone(), cfg);
            let t = steady_phase(&mut engine, 4).expect("no PE is killed").time_per_step;
            if pes == 1 {
                t1[v] = t;
            }
            row.push_str(&format!("  {:>14.1}", t1[v] / t));
        }
        println!("{row}");
    }
}
