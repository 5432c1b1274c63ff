//! Tour of the three instrumentation levels of §4.1:
//!
//! 1. per-step wall time,
//! 2. summary profiles (per-entry-method times),
//! 3. full Projections-style traces (grainsize histograms, timelines,
//!    per-PE utilization).
//!
//! ```sh
//! cargo run --release --example trace_explorer
//! ```

use namd_repro::namd_core::prelude::*;
use namd_repro::namd_core::recovery::{advance, Advanced};

fn main() {
    let bench = namd_repro::molgen::apoa1_like().scaled(0.05);
    let system = bench.build();
    let machine = namd_repro::machine::presets::asci_red();
    let n_pes = 64;

    let cfg = SimConfig::builder(n_pes, machine).tracing(true).build().unwrap();
    let mut engine = Engine::new(system, cfg);
    // Three 4-step phases (static placement, greedy, refined); the last one
    // is explored.
    let mut last = None;
    for k in 1..=3 {
        if let Advanced::Phase { phase, .. } =
            advance(&mut engine, 4 * k, 4, Some(12), false).expect("no fault plan")
        {
            last = Some(phase);
        }
    }
    let phase = last.expect("three phases ran");

    // Level 1: step times.
    println!("level 1 — step time: {:.2} ms/step on {n_pes} PEs\n", phase.time_per_step * 1e3);

    // Level 2: summary profile.
    println!("level 2 — summary profile:");
    print!("{}", phase.stats.entry_table());

    // Level 3: the full trace.
    let trace = phase.trace.as_ref().expect("tracing enabled");
    let e = phase.entries;

    println!("\nlevel 3a — non-bonded grainsize histogram (per average step):");
    let h = trace.grainsize_histogram(
        &e.nonbonded(),
        0.0,
        phase.total_time,
        0.001,
        phase.n_steps as f64,
    );
    print!("{}", h.render(50));

    println!("\nlevel 3b — timeline of one step on PEs 0-7:");
    println!("glyphs: I=integrate N=nonbonded b=bonded p=proxy/receive .=idle");
    let t0 = phase.total_time * 0.3;
    let classify = move |entry: charmrt::EntryId| -> char {
        if entry == e.integrate {
            'I'
        } else if entry == e.exec_self || entry == e.exec_pair {
            'N'
        } else if entry == e.exec_bonded || entry == e.exec_bonded_inter {
            'b'
        } else {
            'p'
        }
    };
    let pes: Vec<usize> = (0..8).collect();
    print!("{}", trace.render_timeline(&pes, t0, t0 + phase.time_per_step, 90, classify));

    // Projections-style export for external tooling.
    let out = std::env::temp_dir().join("namd_trace.jsonl");
    let mut file = std::fs::File::create(&out).expect("create trace file");
    trace
        .export_jsonl(&phase.stats.entry_names, &mut file)
        .expect("write trace");
    println!("\n(full trace exported to {} — {} events)", out.display(), trace.events.len());

    println!("\nlevel 3c — per-PE utilization over the phase:");
    for pe in 0..8 {
        let u = trace.pe_utilization(pe, 0.0, phase.total_time);
        let bar = "#".repeat((u * 40.0).round() as usize);
        println!("PE {pe}: {bar} {:.0}%", u * 100.0);
    }
}
