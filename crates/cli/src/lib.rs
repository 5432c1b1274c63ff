//! # namd-cli — the `namd-rs` command-line front end
//!
//! NAMD is driven by plain-text configuration files; this crate provides
//! the same experience for the reproduction: [`config`] parses a NAMD-style
//! `key value` config, [`runner`] executes it on the parallel engine at any
//! PE count — cutoff or full electrostatics (PME with r-RESPA), with the
//! thermostat inside the engine — with XYZ trajectory output. The `namd-rs`
//! binary adds `run`, `info`, `bench` (DES scaling sweeps), and
//! `sample-config` subcommands, plus `serve` (the many-tenant simulation
//! service; see the `serve` crate) and `analyze` (parallel trajectory
//! analysis over the `analyze` crate).

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod analyze_cmd;
pub mod config;
pub mod runner;
pub mod serve_cmd;

/// `bench`'s fault-plan header: the engine's retries repair dropped and
/// corrupted deliveries, but `bench` keeps no checkpoint, so a kill ends
/// the run.
pub fn fault_plan_line(plan: &charmrt::FaultPlan) -> String {
    use charmrt::FaultAction::{Corrupt, Drop};
    let mut line = format!("fault plan: {} rule(s)", plan.rules.len());
    if plan
        .rules
        .iter()
        .any(|r| matches!(r.action, Drop | Corrupt(_)))
    {
        line += ", engine retries repair dropped deliveries";
    }
    if plan.has_kills() {
        line += ", bench keeps no checkpoint, so a killed PE ends the run";
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fault_plan_line_promises_repair_only_for_what_retries_repair() {
        let line = |spec| fault_plan_line(&charmrt::FaultPlan::parse(spec).unwrap());
        let kill = "kill:entry=PatchRecvForces:dst=1:skip=0";
        let drop = "drop:entry=PatchRecvForces:limit=2";
        let ends = ", bench keeps no checkpoint, so a killed PE ends the run";
        let repairs = ", engine retries repair dropped deliveries";
        assert_eq!(line(kill), format!("fault plan: 1 rule(s){ends}"));
        assert_eq!(line(drop), format!("fault plan: 1 rule(s){repairs}"));
        assert_eq!(
            line("corrupt:limit=1"),
            format!("fault plan: 1 rule(s){repairs}")
        );
        assert_eq!(line("delay:secs=1e-4"), "fault plan: 1 rule(s)");
        assert_eq!(
            line(&format!("{drop};{kill}")),
            format!("fault plan: 2 rule(s){repairs}{ends}")
        );
    }
}
