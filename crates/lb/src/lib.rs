//! # lb — load-balancing strategies
//!
//! Implements the measurement-based load-balancing strategies of §3.2:
//!
//! * [`rcb()`] — recursive coordinate bisection for the *initial* (static)
//!   distribution of patches, degenerating to round-robin when there are
//!   more processors than patches;
//! * [`greedy()`] — the paper's centralized strategy: take the
//!   longest-executing compute object first, choose a destination that is
//!   not overloaded much, uses as many home patches as possible, creates as
//!   few new proxies as possible, and is least loaded among the candidates;
//! * [`refine()`] — the follow-up refinement pass: only computes on overloaded
//!   processors move, only to underloaded processors, with a tighter
//!   overload threshold;
//! * [`alt`] — ablation baselines (random, round-robin, proxy-unaware
//!   greedy) used by the benchmark harness to quantify what each ingredient
//!   of the paper's strategy buys.
//!
//! The crate is deliberately free of runtime dependencies: strategies
//! consume a plain [`LbProblem`] (measured loads + patch homes) and produce
//! an assignment, so they are unit-testable in isolation — mirroring the
//! paper's point that "strategies themselves are independent of the
//! framework and can be plugged in and out easily".

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod alt;
pub mod greedy;
pub mod metrics;
pub mod rcb;
pub mod refine;

pub use alt::{greedy_no_proxy, random_assign, round_robin};
pub use greedy::{greedy, GreedyParams};
pub use metrics::{comm_cost, imbalance_ratio, pe_loads, proxy_count};
pub use rcb::rcb;
pub use refine::{refine, RefineParams};

/// One migratable compute object, as measured by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeSpec {
    /// Measured load (seconds of CPU per step window).
    pub load: f64,
    /// The patches whose data this compute needs (1 for self computes,
    /// 2 for pair computes).
    pub patches: Vec<usize>,
}

/// The input to a strategy: everything the paper's algorithm consults.
#[derive(Debug, Clone, Default)]
pub struct LbProblem {
    /// Number of processors.
    pub n_pes: usize,
    /// Non-migratable background load per PE (patch integration,
    /// inter-patch bond computes, ...).
    pub background: Vec<f64>,
    /// Home PE of every patch.
    pub patch_home: Vec<usize>,
    /// The migratable compute objects.
    pub computes: Vec<ComputeSpec>,
}

impl LbProblem {
    /// Average total load per PE — the balance target.
    pub fn avg_load(&self) -> f64 {
        let total: f64 = self.background.iter().sum::<f64>()
            + self.computes.iter().map(|c| c.load).sum::<f64>();
        total / self.n_pes.max(1) as f64
    }

    /// Sanity-check internal consistency (patch ids in range, PEs valid).
    pub fn validate(&self) -> Result<(), String> {
        if self.background.len() != self.n_pes {
            return Err(format!(
                "background has {} entries for {} PEs",
                self.background.len(),
                self.n_pes
            ));
        }
        for (i, &pe) in self.patch_home.iter().enumerate() {
            if pe >= self.n_pes {
                return Err(format!("patch {i} homed on invalid PE {pe}"));
            }
        }
        for (i, c) in self.computes.iter().enumerate() {
            if !(c.load.is_finite() && c.load >= 0.0) {
                return Err(format!("compute {i} has invalid load {}", c.load));
            }
            for &p in &c.patches {
                if p >= self.patch_home.len() {
                    return Err(format!("compute {i} references invalid patch {p}"));
                }
            }
        }
        Ok(())
    }
}

/// A strategy's output: `assignment[i]` is the PE of compute `i`.
pub type Assignment = Vec<usize>;

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A deterministic synthetic problem: `n_patches` patches round-robined
    /// over PEs, one self compute per patch plus pair computes between
    /// consecutive patches, with loads drawn from a simple pattern.
    pub fn synthetic(n_pes: usize, n_patches: usize) -> LbProblem {
        let patch_home: Vec<usize> = (0..n_patches).map(|p| p % n_pes).collect();
        let mut computes = Vec::new();
        for p in 0..n_patches {
            computes.push(ComputeSpec {
                load: 1.0 + (p % 7) as f64 * 0.35,
                patches: vec![p],
            });
            if p + 1 < n_patches {
                computes.push(ComputeSpec {
                    load: 0.5 + (p % 5) as f64 * 0.45,
                    patches: vec![p, p + 1],
                });
            }
        }
        LbProblem {
            n_pes,
            background: (0..n_pes).map(|pe| 0.1 * (pe % 3) as f64).collect(),
            patch_home,
            computes,
        }
    }

}

#[cfg(test)]
mod tests {
    use super::testutil::synthetic;

    #[test]
    fn synthetic_problem_is_valid() {
        let p = synthetic(8, 24);
        assert!(p.validate().is_ok());
        assert!(p.avg_load() > 0.0);
    }

    #[test]
    fn validation_catches_bad_patch_home() {
        let mut p = synthetic(4, 8);
        p.patch_home[0] = 99;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_compute() {
        let mut p = synthetic(4, 8);
        p.computes[0].patches.push(1000);
        assert!(p.validate().is_err());
        let mut p2 = synthetic(4, 8);
        p2.computes[0].load = f64::NAN;
        assert!(p2.validate().is_err());
    }
}
