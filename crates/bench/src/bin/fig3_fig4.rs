//! Figures 3 and 4: Projections-style timelines of two timesteps on ApoA-I /
//! 1024 PEs, before (naive) and after (optimized) the multicast optimization
//! of §4.2.3. Integration appears as 'I'; shortening it shrinks the idle
//! gaps on the processors that own no patches.
use charmrt::MulticastMode;
use namd_core::prelude::*;
use namd_core::recovery::steady_phase;

fn timeline(mode: MulticastMode, sys: &mdcore::system::System) {
    let machine = machine::presets::asci_red();
    let cfg = SimConfig::builder(1024, machine)
        .multicast(mode)
        .build()
        .unwrap();
    let mut engine = Engine::new(sys.clone(), cfg);
    engine.set_metrics(Some(MetricsRegistry::in_memory()));
    let last = steady_phase(&mut engine, 4).expect("no PE is killed");
    let trace = last.trace.as_ref().expect("registry traces");
    let e = last.entries;

    let label = match mode {
        MulticastMode::Naive => "Figure 3 — before optimizing the multicast (naive)",
        MulticastMode::Optimized => "Figure 4 — after optimizing the multicast",
    };
    println!("{label}");
    println!("glyphs: I=integrate N=nonbonded b=bonded p=proxy/receive .=idle");
    // Two steps out of the middle of the phase.
    let t0 = last.total_time * 0.25;
    let t1 = t0 + 2.0 * last.time_per_step;
    // A band of PEs around the patch-count boundary: some with patches
    // (integration bars) and some without (idle gaps).
    let pes: Vec<usize> = (240..252).collect();
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
    print!("{}", trace.render_timeline(&pes, t0, t1, 100, classify));

    // The quantitative claim: average Integrate entry duration.
    let integ_ms =
        last.stats.entry_time[e.integrate.idx()] / last.stats.entry_count[e.integrate.idx()] as f64;
    println!(
        "avg Integrate entry: {:.3} ms   step time: {:.2} ms\n",
        integ_ms * 1e3,
        last.time_per_step * 1e3
    );
}

fn main() {
    let sys = molgen::apoa1_like().build();
    timeline(MulticastMode::Naive, &sys);
    timeline(MulticastMode::Optimized, &sys);
}
