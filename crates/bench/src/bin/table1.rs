//! Table 1: the performance audit for ApoA-I on 1024 processors.
//!
//! The paper's snapshot was taken at an intermediate optimization stage
//! (step time ≈ 86 ms): grainsize splitting and migratable bonded computes
//! were already in, but the multicast was still naive. We reproduce exactly
//! that configuration, then print the fully-optimized audit for contrast.
use charmrt::MulticastMode;
use namd_bench::paper::{TABLE1_ACTUAL_MS, TABLE1_IDEAL_MS};
use namd_core::prelude::*;
use namd_core::recovery::steady_phase;

fn run(multicast: MulticastMode, label: &str, sys: &mdcore::system::System) {
    let machine = machine::presets::asci_red();
    let cfg = SimConfig::builder(1024, machine).multicast(multicast).build().unwrap();
    let mut engine = Engine::new(sys.clone(), cfg);
    let last = steady_phase(&mut engine, 3).expect("no PE is killed");
    let a = audit(engine.decomp(), &machine, &last, 1024);
    println!("--- {label} (measured after greedy+refine load balancing) ---");
    print!("{}", a.render());
    println!();
}

fn main() {
    let sys = molgen::apoa1_like().build();
    println!("Paper Table 1 (ms/step/PE):");
    println!(
        "Ideal : total {:.2}  nonbond {:.2}  bonds {:.2}  integ {:.2}",
        TABLE1_IDEAL_MS[0], TABLE1_IDEAL_MS[1], TABLE1_IDEAL_MS[2], TABLE1_IDEAL_MS[3]
    );
    println!(
        "Actual: total {:.2}  nonbond {:.2}  bonds {:.2}  integ {:.2}  ovh {:.2}  imbal {:.2}  idle {:.2}  recv {:.2}",
        TABLE1_ACTUAL_MS[0], TABLE1_ACTUAL_MS[1], TABLE1_ACTUAL_MS[2], TABLE1_ACTUAL_MS[3],
        TABLE1_ACTUAL_MS[4], TABLE1_ACTUAL_MS[5], TABLE1_ACTUAL_MS[6], TABLE1_ACTUAL_MS[7]
    );
    println!();
    run(MulticastMode::Naive, "Audit at the paper's intermediate stage (naive multicast)", &sys);
    run(MulticastMode::Optimized, "Audit with the optimized multicast", &sys);
}
