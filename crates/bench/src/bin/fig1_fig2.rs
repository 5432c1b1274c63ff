//! Figures 1 and 2: the grainsize distribution of non-bonded compute tasks
//! before and after splitting the face-adjacent pair computes (§4.2.1).
//!
//! Each bar counts the task instances of that grainsize during an average
//! timestep on 1024 PEs of the ASCI-Red model, exactly like the figures.
use namd_bench::paper::{FIG1_MAX_GRAINSIZE_S, FIG2_MAX_GRAINSIZE_S};
use namd_core::prelude::*;
use namd_core::recovery::steady_phase;

fn histogram(split: bool, sys: &mdcore::system::System) {
    let machine = machine::presets::asci_red();
    let cfg = SimConfig::builder(1024, machine)
        .grainsize(160, split, 112)
        .build()
        .unwrap();
    let mut engine = Engine::new(sys.clone(), cfg);
    engine.set_metrics(Some(MetricsRegistry::in_memory()));
    let last = steady_phase(&mut engine, 3).expect("no PE is killed");
    let trace = last.trace.as_ref().expect("registry traces");
    let h = trace.grainsize_histogram(
        &last.entries.nonbonded(),
        0.0,
        last.total_time,
        0.002, // 2 ms bins, like the figures
        last.n_steps as f64,
    );
    let (title, paper_max) = if split {
        ("Figure 2 — grainsize after splitting face pairs", FIG2_MAX_GRAINSIZE_S)
    } else {
        ("Figure 1 — grainsize before splitting face pairs", FIG1_MAX_GRAINSIZE_S)
    };
    println!("{title}");
    println!("(paper: largest task ≈ {:.0} ms)", paper_max * 1e3);
    print!("{}", h.render(60));
    println!(
        "largest measured task: {:.1} ms over {} tasks/step\n",
        h.max_duration() * 1e3,
        h.total()
    );
}

fn main() {
    let sys = molgen::apoa1_like().build();
    histogram(false, &sys);
    histogram(true, &sys);
}
