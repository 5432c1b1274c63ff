//! The three MD workloads: deck generation, the cycle protocol shared by
//! the untraced and the traced run, and the output checks.

use crate::report::{peak_rss_mb, Report};
use crate::stats::median;
use crate::Limits;
use mdcore::prelude::*;
use namd_core::prelude::*;
use std::time::Instant;

/// Timestep of every MD workload, fs.
pub const DT_FS: f64 = 1.0;
/// Thermalization temperature, K.
pub const TEMPERATURE: f64 = 300.0;
/// Steps the sequential-reference check integrates.
pub const SEQ_CHECK_STEPS: usize = 5;
/// Pair-list margin of the default kernel path and of the sequential
/// baseline, Å.
pub const MARGIN: f64 = 2.5;

/// Which deck a workload steps and how.
#[derive(Debug, Clone, Copy)]
pub struct MdWorkload {
    pub name: &'static str,
    /// Fraction of the apoa1-like deck.
    pub scale: f64,
    pub pes: usize,
    /// Set-up repeats whose median is `setup_s`. One repeat of the large
    /// deck is already a 20-step measurement.
    pub setups: usize,
    /// Cycles per leg of the traced run.
    pub traced_cycles: usize,
}

pub const MD_WORKLOADS: [MdWorkload; 3] = [
    MdWorkload {
        name: "md-small-1pe",
        scale: 0.04,
        pes: 1,
        setups: 3,
        traced_cycles: 3,
    },
    MdWorkload {
        name: "md-small-2pe",
        scale: 0.04,
        pes: 2,
        setups: 3,
        traced_cycles: 3,
    },
    MdWorkload {
        name: "md-large-2pe",
        scale: 0.25,
        pes: 2,
        setups: 1,
        traced_cycles: 1,
    },
];

impl MdWorkload {
    /// The deck's scale: its own when measuring; the smoke test steps a
    /// deck small enough to finish in seconds.
    pub fn deck_scale(&self, limits: &Limits) -> f64 {
        if limits.quick {
            self.scale.min(0.08)
        } else {
            self.scale
        }
    }
}

/// The apoa1-like deck at `scale`: protein restrained, thermalized at 300 K
/// from `seed`. The geometry is the same for every seed; the seed feeds the
/// velocities, and through them everything that follows.
pub fn apoa1_deck(scale: f64, seed: u64) -> System {
    let bench = molgen::apoa1_like().scaled(scale);
    let mut sys = molgen::SystemBuilder::new(bench.spec().clone()).build_restrained();
    sys.thermalize(TEMPERATURE, seed);
    sys
}

/// CRC-64 over the bit patterns of positions ++ velocities: the state
/// witness runs are compared by.
pub fn state_crc(sys: &System) -> u64 {
    let mut bytes = Vec::with_capacity(sys.n_atoms() * 48);
    for v in sys.positions.iter().chain(sys.velocities.iter()) {
        bytes.extend_from_slice(&v.x.to_le_bytes());
        bytes.extend_from_slice(&v.y.to_le_bytes());
        bytes.extend_from_slice(&v.z.to_le_bytes());
    }
    ckpt::crc64(&bytes)
}

/// A simulator on the default kernel path (listed kernel, pair-list cache,
/// margin 2.5 Å) of the threads backend, migrating once per cycle.
pub fn new_sim(sys: System, pes: usize, dt_fs: f64, cycle_steps: usize) -> ParallelSim {
    let mut sim = ParallelSim::with_backend(sys, pes, dt_fs, Backend::Threads)
        .expect("workload parameters are valid");
    sim.migrate_every = cycle_steps;
    sim
}

/// One cycle: `cycle_steps` updates ending in one atom migration. Returns
/// ms per step, or `None` when an energy came out non-finite.
pub fn timed_cycle(sim: &mut ParallelSim, cycle_steps: usize) -> Option<f64> {
    let t = Instant::now();
    let energies = sim.run(cycle_steps);
    let ms = t.elapsed().as_secs_f64() * 1e3 / cycle_steps as f64;
    energies.iter().all(|e| e.total().is_finite()).then_some(ms)
}

/// The parallel engine against the plain sequential `Simulator` (pair list,
/// same margin) from the same deck: both integrate [`SEQ_CHECK_STEPS`]
/// steps and must agree to 1e-6 Å. Records the check; returns the
/// sequential ms-per-step samples, the single-threaded baseline.
pub fn check_against_sequential(
    report: &mut Report,
    deck: System,
    pes: usize,
    dt_fs: f64,
    cycle_steps: usize,
) -> Vec<f64> {
    let mut seq_sys = deck.clone();
    let mut seq = Simulator::with_pairlist(&seq_sys, dt_fs, MARGIN);
    seq.prime(&seq_sys);
    let step_ms: Vec<f64> = (0..SEQ_CHECK_STEPS)
        .map(|_| {
            let t = Instant::now();
            seq.step(&mut seq_sys);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut par = new_sim(deck, pes, dt_fs, cycle_steps);
    par.run(SEQ_CHECK_STEPS);
    let sys = par.system();
    let worst = sys
        .positions
        .iter()
        .zip(&seq_sys.positions)
        .map(|(&p, &q)| sys.cell.dist2(p, q).sqrt())
        .fold(0.0, f64::max);
    report.check(
        "positions-vs-sequential",
        worst < 1e-6,
        format!("max |Δx| after {SEQ_CHECK_STEPS} steps = {worst:.3e} Å (limit 1e-6)"),
    );
    step_ms
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(w: &MdWorkload, seed: u64, limits: &Limits, report: &mut Report) {
    let cycle_steps = limits.cycle_steps();
    let scale = w.deck_scale(limits);
    // Set-up — deck, simulator, one untimed warm-up cycle — repeated; every
    // repeat must land on the same state.
    let mut setup_s = Vec::new();
    let mut warm_crcs = Vec::new();
    let mut sim = None;
    for _ in 0..limits.pick(w.setups, 1) {
        let t = Instant::now();
        let mut s = new_sim(apoa1_deck(scale, seed), w.pes, DT_FS, cycle_steps);
        s.run(cycle_steps);
        setup_s.push(t.elapsed().as_secs_f64());
        warm_crcs.push(state_crc(&s.system()));
        sim = Some(s);
    }
    let mut sim = sim.expect("at least one set-up");
    report.crc("after_warmup", warm_crcs[0]);
    report.check(
        "setup-deterministic",
        warm_crcs.iter().all(|&c| c == warm_crcs[0]),
        format!(
            "{} set-ups, state CRC {:016x}",
            warm_crcs.len(),
            warm_crcs[0]
        ),
    );

    let stop = limits.stop(2);
    let mut step_ms = Vec::new();
    let t0 = Instant::now();
    loop {
        report.attempted += 1;
        match timed_cycle(&mut sim, cycle_steps) {
            Some(ms) => step_ms.push(ms),
            None => report.failed += 1,
        }
        if report.attempted == 1 {
            report.crc("common_step", state_crc(&sim.system()));
        }
        if stop.done(t0.elapsed().as_secs_f64(), report.attempted as usize) {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    report.crc("end", state_crc(&sim.system()));
    drop(sim);

    check_against_sequential(report, apoa1_deck(scale, seed), w.pes, DT_FS, cycle_steps);

    let cycles = step_ms.len();
    report.metric("setup_s", median(&setup_s), setup_s.len());
    report.metric(
        "steps_per_s",
        (cycles * cycle_steps) as f64 / wall_s,
        cycles,
    );
    report.metric("step_ms_p50", median(&step_ms), cycles);
    // On an MD workload a job is one `run(cycle_steps)` call: the steps of
    // one cycle and the migration that ends it.
    report.metric("jobs_per_s", cycles as f64 / wall_s, cycles);
    report.metric("peak_rss_mb", peak_rss_mb(), 1);
    report.samples.insert("setup_s".into(), setup_s);
    report.samples.insert("step_ms".into(), step_ms);
}
