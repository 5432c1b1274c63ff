//! Invariant oracles for schedule-fuzzed and fault-injected phases.
//!
//! The paper's correctness claim (§2.2, §3) is that message-driven
//! execution tolerates *arbitrary* message order: whatever interleaving the
//! runtime picks, the physics must come out right. The oracles make that
//! claim falsifiable: after a phase runs under a perturbed schedule or a
//! fault plan, [`check_phase`] verifies invariants that any correct
//! execution satisfies, and a failing report names the schedule seed and
//! the first violating step so the exact interleaving can be replayed on
//! the DES backend.
//!
//! Checks (each skipped when its preconditions don't hold):
//!
//! * **quiescence sanity** — the phase's entry counts match the protocol:
//!   every patch reported `Done` exactly once and integrated exactly
//!   `n_steps` times. A scheduler that loses or double-runs work fails
//!   here first.
//! * **message conservation** — the [`charmrt::SummaryStats`] ledger
//!   balances: sends + injections + duplicates + redeliveries − drops =
//!   receives + discards-at-stop ([`charmrt::SummaryStats::conservation_residual`]).
//! * **Newton's third law** — per nonbonded compute (self and pair), the
//!   force kernel evaluated at the final positions produces blocks whose
//!   net force vanishes: action equals reaction within a patch pair.
//! * **energy drift** — Real mode: per-step total energies stay finite and
//!   within a drift bound of step 0; reports the first violating step.
//! * **momentum (net force)** — Real mode on an unrestrained topology:
//!   the integrated total force over all atoms vanishes.

use crate::config::{Backend, ForceMode};
use crate::decomp::{ComputeKind, PatchArrays};
use crate::engine::{Engine, PhaseResult};
use mdcore::nonbonded::{nb_pair_ranged, nb_self_ranged};
use mdcore::prelude::*;

/// Oracle tuning knobs; [`Default`] is what [`check_phase`] uses.
#[derive(Debug, Clone, Copy)]
pub struct OracleParams {
    /// Allowed relative drift of per-step total energy from step 0.
    pub energy_drift_rel: f64,
    /// Newton-check sample cap per compute kind (checks are exact kernel
    /// re-executions; capping keeps the oracle cheap on big systems).
    pub max_newton_samples: usize,
}

impl Default for OracleParams {
    fn default() -> Self {
        OracleParams { energy_drift_rel: 0.05, max_newton_samples: 32 }
    }
}

/// One failed invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle fired (`"quiescence"`, `"conservation"`, `"newton"`,
    /// `"energy-drift"`, `"momentum"`, or the analysis map's `"coverage"`).
    pub check: &'static str,
    /// First violating step, when the check is per-step.
    pub step: Option<usize>,
    pub detail: String,
}

/// The oracle verdict for one phase. A failing report names the schedule
/// seed so the interleaving can be replayed bit-exactly on the DES.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The schedule policy the phase ran under (seed included).
    pub schedule: charmrt::SchedulePolicy,
    /// Whether a fault plan was installed.
    pub faults_injected: bool,
    pub n_steps: usize,
    /// Names of the checks that actually ran.
    pub checks_run: Vec<&'static str>,
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// True when every check that ran passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable verdict naming the seed and first violating step.
    pub fn render(&self) -> String {
        let mut s = format!(
            "oracle[{:?} seed={}{}]: {} check(s) run, {} violation(s)",
            self.schedule.kind,
            self.schedule.seed,
            if self.faults_injected { ", faults" } else { "" },
            self.checks_run.len(),
            self.violations.len(),
        );
        for v in &self.violations {
            s.push_str(&format!(
                "\n  {} FAILED{}: {}",
                v.check,
                v.step.map(|t| format!(" at step {t}")).unwrap_or_default(),
                v.detail
            ));
        }
        s
    }
}

/// Run every applicable invariant oracle against a completed phase.
/// Expects the phase to have run on a fresh runtime (as
/// [`Engine::run_phase`] does), so the phase's stats are self-contained.
pub fn check_phase(engine: &Engine, r: &PhaseResult) -> OracleReport {
    check_phase_with(engine, r, OracleParams::default())
}

/// [`check_phase`] with explicit tuning knobs.
pub fn check_phase_with(engine: &Engine, r: &PhaseResult, params: OracleParams) -> OracleReport {
    let mut report = OracleReport {
        schedule: engine.config.schedule,
        faults_injected: engine.config.fault_plan.is_some(),
        n_steps: r.n_steps,
        checks_run: Vec::new(),
        violations: Vec::new(),
    };

    check_quiescence(engine, r, &mut report);
    check_crash_free(r, &mut report);
    check_conservation(r, &mut report);
    if engine.config.backend == Backend::Des {
        check_utilization(r, &mut report);
    }
    if engine.config.force_mode == ForceMode::Real {
        check_newton(engine, params, &mut report);
        check_energy_drift(r, params, &mut report);
        check_momentum(engine, &mut report);
    }
    report
}

fn check_quiescence(engine: &Engine, r: &PhaseResult, report: &mut OracleReport) {
    report.checks_run.push("quiescence");
    let n_patches = engine.decomp().grid.n_patches() as u64;
    let done = r.stats.entry_count[r.entries.done.idx()];
    if done != n_patches {
        report.violations.push(Violation {
            check: "quiescence",
            step: None,
            detail: format!("{done} Done reports for {n_patches} patches"),
        });
    }
    let integrations = r.stats.entry_count[r.entries.integrate.idx()];
    let expected = n_patches * r.n_steps as u64;
    if integrations != expected {
        report.violations.push(Violation {
            check: "quiescence",
            step: Some((integrations / n_patches.max(1)) as usize),
            detail: format!(
                "{integrations} integrations, expected {expected} ({n_patches} patches x {} steps)",
                r.n_steps
            ),
        });
    }
}

/// A *completed* phase must not have lost a PE: crashes surface as
/// [`crate::engine::PhaseCrash`] errors, never as a phase that quietly
/// finished with a dead worker (which would mean its chares' work was
/// silently skipped).
fn check_crash_free(r: &PhaseResult, report: &mut OracleReport) {
    report.checks_run.push("crash-free");
    if r.stats.pes_killed != 0 {
        report.violations.push(Violation {
            check: "crash-free",
            step: None,
            detail: format!(
                "phase completed with {} PE(s) killed — a crashed phase must \
                 surface as PhaseCrash, not finish",
                r.stats.pes_killed
            ),
        });
    }
}

/// The DES utilization decomposition must tile the phase span on every
/// PE: work + overhead + idle == makespan, with overhead a subset of
/// busy and idle never negative. On a virtual-time backend these hold to
/// roundoff; an accounting bug (double-counted handler, overhead
/// attributed past the span, busy time beyond the makespan) breaks one
/// of them. When a trace was captured, the per-PE busy time derived from
/// trace events must also agree with the summary counters.
fn check_utilization(r: &PhaseResult, report: &mut OracleReport) {
    report.checks_run.push("utilization");
    let span = r.total_time;
    let tol = 1e-9 * span.max(1e-12) * (1.0 + r.stats.msgs_received as f64);
    for (pe, &busy) in r.stats.pe_busy.iter().enumerate() {
        let overhead = r.stats.pe_overhead.get(pe).copied().unwrap_or(0.0);
        let idle = span - busy;
        let residual = (busy - overhead) + overhead + idle - span;
        let mut fail = |detail: String| {
            report.violations.push(Violation { check: "utilization", step: None, detail });
        };
        if !(busy.is_finite() && overhead.is_finite()) {
            fail(format!("PE {pe}: non-finite busy {busy} / overhead {overhead}"));
            continue;
        }
        if overhead < -tol || overhead > busy + tol {
            fail(format!(
                "PE {pe}: overhead {overhead:.6e}s outside [0, busy {busy:.6e}s]"
            ));
        }
        if idle < -tol {
            fail(format!(
                "PE {pe}: busy {busy:.6e}s exceeds phase span {span:.6e}s"
            ));
        }
        if residual.abs() > tol {
            fail(format!(
                "PE {pe}: work+overhead+idle misses span by {residual:.3e}s"
            ));
        }
        if let Some(trace) = &r.trace {
            let traced: f64 =
                trace.events.iter().filter(|e| e.pe == pe).map(|e| e.duration()).sum();
            if (traced - busy).abs() > tol {
                fail(format!(
                    "PE {pe}: traced busy {traced:.6e}s disagrees with summary \
                     busy {busy:.6e}s"
                ));
            }
        }
    }
}

fn check_conservation(r: &PhaseResult, report: &mut OracleReport) {
    report.checks_run.push("conservation");
    let residual = r.stats.conservation_residual();
    if residual != 0 {
        report.violations.push(Violation {
            check: "conservation",
            step: None,
            detail: format!(
                "residual {residual}: sent={} injected={} dup={} redelivered={} \
                 dropped={} received={} discarded={}",
                r.stats.msgs_sent,
                r.stats.msgs_injected,
                r.stats.msgs_duplicated,
                r.stats.msgs_redelivered,
                r.stats.msgs_dropped,
                r.stats.msgs_received,
                r.stats.msgs_discarded
            ),
        });
    }
}

/// Newton's third law per nonbonded compute: re-run the exact kernel the
/// compute ran (same split range) at the final positions; the produced
/// force blocks must have zero net force — every action paired with its
/// reaction inside the block(s).
fn check_newton(engine: &Engine, params: OracleParams, report: &mut OracleReport) {
    report.checks_run.push("newton");
    let decomp = engine.decomp();
    let sys = engine.system();
    let cell = sys.cell;
    let (mut self_seen, mut pair_seen) = (0usize, 0usize);

    for (j, spec) in decomp.computes.iter().enumerate() {
        let (net, gross) = match &spec.kind {
            ComputeKind::SelfNb { patch } if self_seen < params.max_newton_samples => {
                self_seen += 1;
                let g = PatchArrays::gather(&sys, &decomp.grid.atoms[*patch]);
                let mut f = vec![Vec3::ZERO; g.pos.len()];
                nb_self_ranged(
                    &sys.forcefield,
                    &sys.exclusions,
                    g.group(),
                    &cell,
                    spec.outer.clone(),
                    &mut f,
                );
                sum_net_gross(&[&f])
            }
            ComputeKind::PairNb { a, b } if pair_seen < params.max_newton_samples => {
                pair_seen += 1;
                let ga = PatchArrays::gather(&sys, &decomp.grid.atoms[*a]);
                let gb = PatchArrays::gather(&sys, &decomp.grid.atoms[*b]);
                let mut fa = vec![Vec3::ZERO; ga.pos.len()];
                let mut fb = vec![Vec3::ZERO; gb.pos.len()];
                nb_pair_ranged(
                    &sys.forcefield,
                    &sys.exclusions,
                    ga.group(),
                    gb.group(),
                    &cell,
                    spec.outer.clone(),
                    &mut fa,
                    &mut fb,
                );
                sum_net_gross(&[&fa, &fb])
            }
            _ => continue,
        };
        let tol = 1e-9 * (1.0 + gross);
        if !net.norm().is_finite() || net.norm() > tol {
            report.violations.push(Violation {
                check: "newton",
                step: None,
                detail: format!(
                    "compute {j} ({:?}): net force {:.3e} exceeds {tol:.3e}",
                    spec.kind,
                    net.norm()
                ),
            });
        }
    }
}

fn sum_net_gross(blocks: &[&[Vec3]]) -> (Vec3, f64) {
    let mut net = Vec3::ZERO;
    let mut gross = 0.0;
    for block in blocks {
        for f in block.iter() {
            net += *f;
            gross += f.norm();
        }
    }
    (net, gross)
}

fn check_energy_drift(r: &PhaseResult, params: OracleParams, report: &mut OracleReport) {
    if r.energies.is_empty() {
        return;
    }
    report.checks_run.push("energy-drift");
    let e0 = r.energies[0].total();
    let bound = params.energy_drift_rel * e0.abs().max(1.0);
    for (step, acc) in r.energies.iter().enumerate() {
        let e = acc.total();
        if !e.is_finite() {
            report.violations.push(Violation {
                check: "energy-drift",
                step: Some(step),
                detail: format!("non-finite total energy {e}"),
            });
            return;
        }
        if (e - e0).abs() > bound {
            report.violations.push(Violation {
                check: "energy-drift",
                step: Some(step),
                detail: format!("total energy {e:.6} drifted from {e0:.6} (bound {bound:.3e})"),
            });
            return;
        }
    }
}

/// Net integrated force over all atoms vanishes for an unrestrained,
/// cutoff-only system (restraints and mesh electrostatics both exert
/// external forces, so the check only runs without them).
fn check_momentum(engine: &Engine, report: &mut OracleReport) {
    if !engine.system().topology.restraints.is_empty() || engine.config.pme.is_some() {
        return;
    }
    report.checks_run.push("momentum");
    let (net, gross) = sum_net_gross(&[&*engine.forces()]);
    let tol = 1e-9 * (1.0 + gross);
    if !net.norm().is_finite() || net.norm() > tol {
        report.violations.push(Violation {
            check: "momentum",
            step: None,
            detail: format!("net integrated force {:.3e} exceeds {tol:.3e}", net.norm()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, SimConfig};
    use machine::presets;

    fn tiny_system() -> System {
        molgen::SystemBuilder::new(molgen::SystemSpec {
            name: "oracle-test",
            box_lengths: Vec3::new(30.0, 30.0, 30.0),
            target_atoms: 2400,
            protein_chains: 1,
            protein_chain_len: 40,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 3,
        })
        .build()
    }

    fn real_cfg(n_pes: usize) -> SimConfig {
        SimConfig::builder(n_pes, presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(Backend::Des)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn clean_phase_passes_every_oracle() {
        let mut engine = Engine::new(tiny_system(), real_cfg(2));
        let r = engine.run_phase(2);
        let report = check_phase(&engine, &r);
        assert!(report.ok(), "{}", report.render());
        assert!(report.checks_run.contains(&"quiescence"));
        assert!(report.checks_run.contains(&"conservation"));
        assert!(report.checks_run.contains(&"newton"));
        assert!(report.checks_run.contains(&"energy-drift"));
    }

    #[test]
    fn report_names_seed_and_first_violating_step() {
        let mut engine = Engine::new(tiny_system(), real_cfg(2));
        engine.config.schedule = charmrt::SchedulePolicy::random_shuffle(42);
        let r = engine.run_phase(2);
        let mut report = check_phase(&engine, &r);
        report.violations.push(Violation {
            check: "energy-drift",
            step: Some(1),
            detail: "synthetic".into(),
        });
        let text = report.render();
        assert!(text.contains("seed=42"), "{text}");
        assert!(text.contains("at step 1"), "{text}");
        assert!(!report.ok());
    }

    #[test]
    fn doctored_stats_fail_conservation() {
        let mut engine = Engine::new(tiny_system(), real_cfg(2));
        let mut r = engine.run_phase(1);
        r.stats.msgs_received -= 1; // simulate a silently lost message
        let report = check_phase(&engine, &r);
        assert!(!report.ok());
        assert!(report.violations.iter().any(|v| v.check == "conservation"));
    }
}
