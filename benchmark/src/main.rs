//! The repo's one benchmark. `run.sh` builds this binary and runs it once
//! per workload and mode; see README.md for the glossary.
//!
//! ```text
//! namd-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! namd-benchmark compare A B
//! ```
//!
//! A run prints every metric by name with its unit, writes the full result
//! document under `--out`, and ends its standard output with one JSON line:
//! `{"attempted":…,"correct":…,"failed":…,"metrics":{…}}`.

mod compare;
mod md;
mod md_ledger;
mod probes;
mod report;
mod serve_mix;
mod stats;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};

/// How long the untraced run measures unless told otherwise; `run_seconds`
/// in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 16.0;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["md-small-1pe", "md-small-2pe", "md-large-2pe", "serve-mix"];

/// When a measurement loop stops: after `seconds`, or after `max_units`
/// cycles or jobs, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub seconds: f64,
    pub max_units: Option<usize>,
}

impl Stop {
    pub fn after_units(n: usize) -> Stop {
        Stop {
            seconds: f64::INFINITY,
            max_units: Some(n),
        }
    }

    pub fn done(&self, elapsed_s: f64, units: usize) -> bool {
        elapsed_s >= self.seconds || self.max_units.is_some_and(|m| units >= m)
    }
}

/// How big a run is: a full run measures for `seconds` in 20-step cycles;
/// `--quick` is the CI smoke size (2 four-step cycles, 24 jobs), which
/// exercises every workload, check and metric name in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub seconds: f64,
    pub quick: bool,
}

impl Limits {
    /// Steps per MD cycle (each cycle ends in one atom migration).
    pub fn cycle_steps(&self) -> usize {
        if self.quick {
            4
        } else {
            20
        }
    }

    /// The untraced run's stop rule: by time, or by count when quick.
    pub fn stop(&self, quick_units: usize) -> Stop {
        if self.quick {
            Stop::after_units(quick_units)
        } else {
            Stop {
                seconds: self.seconds,
                max_units: None,
            }
        }
    }

    /// `full` when measuring, `quick` when smoke-testing.
    pub fn pick(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: namd-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--out DIR]\n       namd-benchmark compare A B",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--out" => a.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) || a.seconds.is_nan() || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Run one workload in one mode and fill its report.
pub fn run_workload(
    workload: &str,
    traced: bool,
    seed: u64,
    limits: &Limits,
    out: &Path,
) -> Report {
    let mut report = Report::new(workload, traced, limits.quick, seed, limits.seconds);
    match md::MD_WORKLOADS.iter().find(|w| w.name == workload) {
        Some(w) if traced => md_ledger::run_traced(w, seed, limits, out, &mut report),
        Some(w) => md::run_untraced(w, seed, limits, &mut report),
        None if traced => serve_mix::run_traced(seed, limits, out, &mut report),
        None => serve_mix::run_untraced(seed, limits, &mut report),
    }
    report.finish();
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        if argv.len() != 3 {
            usage();
        }
        std::process::exit(compare::run(
            &PathBuf::from(&argv[1]),
            &PathBuf::from(&argv[2]),
        ));
    }
    let args = parse_args(&argv);
    let limits = Limits {
        seconds: args.seconds,
        quick: args.quick,
    };
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let report = run_workload(&args.workload, args.traced, args.seed, &limits, &args.out);

    let file = args.out.join(format!(
        "{}-seed{}-{}.json",
        report.workload,
        report.seed,
        if report.traced { "traced" } else { "untraced" }
    ));
    std::fs::write(&file, report.to_json() + "\n").expect("write the result document");
    print!("{}", report.render());
    println!("   result: {}", file.display());
    println!("{}", report.contract_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ledger_gap, PER_LAYER};

    /// The ledger identity on a `--quick` traced run: every catalogue metric
    /// is filled, every check passes, and under every parent the children
    /// and the residual row sum to the parent.
    #[test]
    fn quick_traced_run_closes_its_ledger() {
        let out = std::env::temp_dir().join(format!("namd-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let limits = Limits {
            seconds: 1.0,
            quick: true,
        };
        let report = run_workload("md-small-1pe", true, 3, &limits, &out);
        let _ = std::fs::remove_dir_all(&out);

        let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
        assert!(report.correct(), "failed checks: {failed:?}");
        for def in PER_LAYER {
            assert!(
                report.value(def.name).is_some_and(f64::is_finite),
                "{} missing",
                def.name
            );
        }
        let parents: std::collections::BTreeSet<&str> = report
            .ledger
            .iter()
            .filter_map(|r| r.parent.as_deref())
            .collect();
        assert!(parents.contains("step") && parents.contains("core.phase"));
        for parent in parents {
            let total = report
                .ledger
                .iter()
                .find(|r| r.name == parent)
                .expect("parent row")
                .ms;
            let gap = ledger_gap(&report.ledger, parent);
            assert!(
                gap.abs() <= 1e-9 * total.abs().max(1.0),
                "{parent}: children − parent = {gap}"
            );
            let residual = report
                .ledger
                .iter()
                .any(|r| r.parent.as_deref() == Some(parent) && r.name.ends_with(".residual"));
            assert!(residual, "{parent} states no residual");
        }
        assert!(!report.spans.is_empty());
    }
}
