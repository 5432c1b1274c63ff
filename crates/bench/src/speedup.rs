//! Shared speedup-sweep harness used by the `table2`..`table6` binaries.

use crate::paper::{lookup, PaperRow};
use machine::MachineModel;
use molgen::BenchmarkSystem;
use namd_core::prelude::*;
use namd_core::recovery::steady_phase;

/// One measured row of a speedup table.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupRow {
    pub pes: usize,
    pub sec_per_step: f64,
    pub speedup: f64,
    pub gflops: f64,
}

/// Run the benchmark system across `pe_counts` on `machine`, computing
/// speedups relative to `baseline` (e.g. `(2, 2.0)` for Table 3's
/// "2 processors = 2.0" convention: the measured time at PE count `2` maps
/// to speedup `2.0`).
pub fn run_speedup_table(
    bench: &BenchmarkSystem,
    machine: MachineModel,
    pe_counts: &[usize],
    baseline: (usize, f64),
    steps: usize,
) -> Vec<SpeedupRow> {
    let system = bench.build();
    let cfg0 = SimConfig::new(1, machine);
    let decomp = build_decomposition(&system, &cfg0);

    let mut rows = Vec::new();
    for &pes in pe_counts {
        let cfg = SimConfig::builder(pes, machine).build().expect("valid sweep config");
        let mut engine = Engine::with_decomposition(system.clone(), decomp.clone(), cfg);
        let t = steady_phase(&mut engine, steps).expect("no PE is killed").time_per_step;
        rows.push(SpeedupRow {
            pes,
            sec_per_step: t,
            speedup: 0.0, // filled below once the baseline row is known
            gflops: engine.gflops(t),
        });
    }
    let base_time = rows
        .iter()
        .find(|r| r.pes == baseline.0)
        .unwrap_or_else(|| panic!("baseline PE count {} not in sweep", baseline.0))
        .sec_per_step;
    for r in &mut rows {
        r.speedup = baseline.1 * base_time / r.sec_per_step;
    }
    rows
}

/// Render a measured-vs-paper table in the paper's column format.
pub fn render_table(title: &str, rows: &[SpeedupRow], paper: &[PaperRow]) -> String {
    let mut s = format!("{title}\n");
    s.push_str(
        "Procs |   s/step  speedup   GFLOPS |  paper s/step  paper speedup  paper GFLOPS\n",
    );
    s.push_str(
        "------+-----------------------------+--------------------------------------------\n",
    );
    for r in rows {
        let p = lookup(paper, r.pes);
        let (ps, psp, pg) = match p {
            Some(p) => (
                format!("{:>13.4}", p.sec_per_step),
                format!("{:>14.1}", p.speedup),
                p.gflops.map_or("             -".into(), |g| format!("{g:>14.3}")),
            ),
            None => ("            -".into(), "             -".into(), "             -".into()),
        };
        s.push_str(&format!(
            "{:>5} | {:>9.4} {:>8.1} {:>8.3} |{ps}{psp}{pg}\n",
            r.pes, r.sec_per_step, r.speedup, r.gflops
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::TABLE4;

    #[test]
    fn br_sweep_reproduces_table4_shape() {
        // The full bR system is small enough to sweep in a test: it must
        // scale to ~32 PEs and flatten by 128-256 (Table 4's signature).
        let rows = run_speedup_table(
            &molgen::br_like(),
            machine::presets::asci_red(),
            &[1, 8, 32, 128, 256],
            (1, 1.0),
            2,
        );
        let by_pe = |p: usize| rows.iter().find(|r| r.pes == p).unwrap();
        assert!(by_pe(8).speedup > 5.0, "8 PEs: {}", by_pe(8).speedup);
        assert!(by_pe(32).speedup > 14.0, "32 PEs: {}", by_pe(32).speedup);
        // Saturation: 256 PEs barely better (or worse) than 128.
        let s128 = by_pe(128).speedup;
        let s256 = by_pe(256).speedup;
        assert!(
            (s256 - s128).abs() < 0.5 * s128,
            "no saturation: 128 -> {s128}, 256 -> {s256}"
        );
        // And far below linear, like the paper's 49x.
        assert!(s256 < 120.0, "bR should saturate well below 256x: {s256}");
    }

    #[test]
    fn render_includes_paper_columns() {
        let rows = vec![SpeedupRow { pes: 1, sec_per_step: 1.5, speedup: 1.0, gflops: 0.05 }];
        let s = render_table("t", &rows, TABLE4);
        assert!(s.contains("1.47")); // paper value for 1 PE
    }
}
