//! The performance audit of §4.2.3 (Table 1): decompose a parallel run's
//! per-step time into ideal-vs-actual components.
//!
//! Columns follow the paper exactly: Total, Non-bonded, Bonds, Integration,
//! Overhead, Imbalance, Idle, Receives — all per-processor averages in
//! milliseconds per step, with the Ideal row computed from single-processor
//! times under perfect scaling. The identity
//! `Total = Non-bonded + Bonds + Integration + Overhead + Receives
//!          + Imbalance + Idle`
//! holds by construction (the last two absorb max-vs-avg skew and end-of-
//! step idleness).

use crate::decomp::Decomposition;
use crate::engine::PhaseResult;
use machine::MachineModel;

/// One audit row, all values seconds per step per PE.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditRow {
    pub total: f64,
    pub nonbonded: f64,
    pub bonds: f64,
    pub integration: f64,
    pub overhead: f64,
    pub imbalance: f64,
    pub idle: f64,
    pub receives: f64,
}

impl AuditRow {
    /// Sum of the component columns (should equal `total`).
    pub fn component_sum(&self) -> f64 {
        self.nonbonded
            + self.bonds
            + self.integration
            + self.overhead
            + self.imbalance
            + self.idle
            + self.receives
    }
}

/// The Table-1 style audit: ideal vs actual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Audit {
    pub ideal: AuditRow,
    pub actual: AuditRow,
    pub n_pes: usize,
}

/// Compute the audit for a measured phase.
pub fn audit(decomp: &Decomposition, machine: &MachineModel, r: &PhaseResult, n_pes: usize) -> Audit {
    let e = &r.entries;
    let steps = r.n_steps as f64;
    let pes = n_pes as f64;
    let per = |t: f64| t / steps / pes;
    let entry = |id: charmrt::EntryId| per(r.stats.entry_time[id.idx()]);

    let nonbonded = entry(e.exec_self) + entry(e.exec_pair);
    let bonds = entry(e.exec_bonded) + entry(e.exec_bonded_inter);
    let integration = entry(e.integrate);
    let receives = entry(e.patch_forces) + entry(e.proxy_forces);
    let overhead = entry(e.proxy_coords)
        + entry(e.ready)
        + entry(e.start)
        + entry(e.done)
        + entry(e.slab_charge)
        + entry(e.slab_transpose);

    let avg_busy = per(r.stats.pe_busy.iter().sum::<f64>());
    let max_busy = r.stats.max_busy() / steps;
    let imbalance = max_busy - avg_busy;
    let total = r.time_per_step;
    let idle = (total - max_busy).max(0.0);

    let actual = AuditRow {
        total,
        nonbonded,
        bonds,
        integration,
        overhead,
        imbalance,
        idle,
        receives,
    };

    // Ideal: single-processor times scaled perfectly across PEs.
    let nb_work: f64 = decomp
        .computes
        .iter()
        .filter(|c| c.terms.is_none())
        .map(|c| c.work)
        .sum();
    let bond_work: f64 = decomp
        .computes
        .iter()
        .filter(|c| c.terms.is_some())
        .map(|c| c.work)
        .sum();
    let ideal = AuditRow {
        total: machine.task_time(nb_work + bond_work + decomp.total_integration_work()) / pes,
        nonbonded: machine.task_time(nb_work) / pes,
        bonds: machine.task_time(bond_work) / pes,
        integration: machine.task_time(decomp.total_integration_work()) / pes,
        ..Default::default()
    };

    Audit { ideal, actual, n_pes }
}

impl Audit {
    /// Render the audit as the paper's Table 1 (milliseconds).
    pub fn render(&self) -> String {
        let ms = |v: f64| format!("{:>9.2}", v * 1e3);
        let row = |name: &str, r: &AuditRow| {
            format!(
                "{name:<7}{}{}{}{}{}{}{}{}\n",
                ms(r.total),
                ms(r.nonbonded),
                ms(r.bonds),
                ms(r.integration),
                ms(r.overhead),
                ms(r.imbalance),
                ms(r.idle),
                ms(r.receives)
            )
        };
        let mut s = String::from(
            "         Total  Non-bond    Bonds   Integr. Overhead  Imbal.     Idle  Receives  (ms/step/PE)\n",
        );
        s.push_str(&row("Ideal", &self.ideal));
        s.push_str(&row("Actual", &self.actual));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Engine;
    use machine::presets;
    use mdcore::prelude::*;

    fn run_audit(n_pes: usize) -> (Audit, f64) {
        let sys = molgen::SystemBuilder::new(molgen::SystemSpec {
            name: "audit-test",
            box_lengths: Vec3::new(36.0, 36.0, 36.0),
            target_atoms: 4200,
            protein_chains: 1,
            protein_chain_len: 60,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 21,
        })
        .build();
        let cfg = SimConfig::builder(n_pes, presets::asci_red())
            .build()
            .unwrap();
        let mut eng = Engine::new(sys, cfg);
        let r = eng.run_phase(2);
        (audit(eng.decomp(), &presets::asci_red(), &r, n_pes), r.time_per_step)
    }

    #[test]
    fn actual_components_sum_to_total() {
        let (a, total) = run_audit(8);
        assert!((a.actual.total - total).abs() < 1e-12);
        let gap = (a.actual.component_sum() - a.actual.total).abs();
        assert!(
            gap < 0.02 * a.actual.total,
            "audit identity broken: sum {} vs total {}",
            a.actual.component_sum(),
            a.actual.total
        );
    }

    #[test]
    fn ideal_is_a_lower_bound() {
        let (a, _) = run_audit(8);
        assert!(a.ideal.total <= a.actual.total * 1.0001);
        assert!(a.ideal.overhead == 0.0 && a.ideal.idle == 0.0);
    }

    #[test]
    fn nonbonded_dominates() {
        // "The non-bonded computation can make up eighty percent or more of
        // the total computation."
        let (a, _) = run_audit(4);
        assert!(
            a.ideal.nonbonded > 0.7 * a.ideal.total,
            "non-bonded share {} of {}",
            a.ideal.nonbonded,
            a.ideal.total
        );
    }

    #[test]
    fn render_contains_both_rows() {
        let (a, _) = run_audit(4);
        let s = a.render();
        assert!(s.contains("Ideal"));
        assert!(s.contains("Actual"));
        assert_eq!(s.lines().count(), 3);
    }
}
