//! The analysis driver: maps a trajectory's tasks over scoped threads and
//! folds their partials in one fixed tree order.
//!
//! Task `i < n_frames` analyzes frame `i` against frame 0; the tasks after
//! them are the MSD atom blocks of [`msd_blocks`]. Every task reads the
//! caller's frames in place. Workers take tasks in any order, but each
//! partial lands in the slot of its task index, and `fold` merges the
//! slots in heap-tree order: node `i` is its own partial, then the fold of
//! `2i + 1`, then the fold of `2i + 2`. The thread count and the schedule
//! therefore cannot move a bit of the merged partial or of `obs_crc`.

use std::sync::atomic::{AtomicUsize, Ordering};

use mdcore::prelude::{Cell, Vec3};
use namd_core::config::Backend;
use namd_core::oracle::{OracleReport, Violation};
use profile::MetricsRegistry;

use crate::observables::{
    finalize, frame_partial, msd_partial, AnalyzeParams, Observables, Partial,
};

/// Largest RDF histogram a caller may ask for. Every task allocates one
/// histogram, so the CLI's `--bins` and serve's `rdfBins` are both held to
/// this bound.
pub const MAX_RDF_BINS: usize = 4096;

/// How to run an analysis.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Ignored: the map runs on scoped threads whatever this says. It stays
    /// only because the benchmark harness still sets it.
    pub backend: Backend,
    /// Most worker threads to start; the map also caps them at the task
    /// count and the host's available parallelism.
    pub n_pes: usize,
    pub params: AnalyzeParams,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig { backend: Backend::Des, n_pes: 4, params: AnalyzeParams::default() }
    }
}

/// A completed analysis.
#[derive(Debug, Clone)]
pub struct AnalysisRun {
    pub observables: Observables,
    /// The map's coverage check: every frame and every atom was folded in
    /// once and no RMSD slot is left empty. The benchmark harness reads it.
    pub oracle: OracleReport,
}

/// Deterministic MSD atom-block boundaries: `msd_tasks` contiguous blocks
/// covering `0..n_atoms`.
pub fn msd_blocks(n_atoms: usize, msd_tasks: usize) -> Vec<(usize, usize)> {
    let m = msd_tasks.clamp(1, n_atoms.max(1));
    (0..m).map(|b| (b * n_atoms / m, (b + 1) * n_atoms / m)).collect()
}

/// Analyze a trajectory already in memory. Returns an error for malformed
/// input: no frames, inconsistent atom counts, or parameters out of range.
///
/// `_metrics` is ignored and every program caller passes `None`; the
/// parameter stays only because the benchmark harness still passes it.
pub fn analyze_frames(
    frames: &[Vec<Vec3>],
    cell: &Cell,
    cfg: &AnalyzeConfig,
    _metrics: Option<&mut MetricsRegistry>,
) -> Result<AnalysisRun, String> {
    let n_frames = frames.len();
    if n_frames == 0 {
        return Err("trajectory has no frames".into());
    }
    let n_atoms = frames[0].len();
    if n_atoms == 0 {
        return Err("trajectory frames are empty".into());
    }
    for (k, f) in frames.iter().enumerate() {
        if f.len() != n_atoms {
            return Err(format!("frame {k} has {} atoms, frame 0 has {n_atoms}", f.len()));
        }
    }
    if cfg.n_pes == 0 {
        return Err("n_pes must be at least 1".into());
    }
    let mut params = cfg.params;
    if params.rdf_bins == 0 || params.contact_groups == 0 {
        return Err("rdf_bins and contact_groups must be positive".into());
    }
    if params.rdf_bins > MAX_RDF_BINS {
        return Err(format!("rdf_bins must be at most {MAX_RDF_BINS}, got {}", params.rdf_bins));
    }
    for (name, v) in [("r_max", params.r_max), ("contact_cutoff", params.contact_cutoff)] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("{name} must be positive and finite, got {v}"));
        }
    }
    // Min-image binning is only meaningful to half the smallest edge.
    let min_edge = cell.lengths.x.min(cell.lengths.y).min(cell.lengths.z);
    params.r_max = params.r_max.min(0.5 * min_edge);
    if params.r_max <= 0.0 {
        return Err("r_max must be positive".into());
    }
    params.contact_groups = params.contact_groups.min(n_atoms);

    let blocks = msd_blocks(n_atoms, params.msd_tasks);
    let n_tasks = n_frames + blocks.len();
    let task = |i: usize| match i.checked_sub(n_frames) {
        None => frame_partial(i, &frames[i], &frames[0], cell, n_frames, &params),
        Some(b) => msd_partial(frames, blocks[b].0..blocks[b].1, cell, &params),
    };

    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cfg.n_pes.min(n_tasks).min(parallelism);
    let mut slots: Vec<Option<Partial>> = vec![None; n_tasks];
    if workers == 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(task(i));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_tasks {
                                return done;
                            }
                            done.push((i, task(i)));
                        }
                    })
                })
                .collect();
            for h in handles {
                let done = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                for (i, p) in done {
                    slots[i] = Some(p);
                }
            }
        });
    }

    let merged = fold(&mut slots, 0);
    let oracle = check_coverage(&merged);
    let observables = finalize(&merged, cell, &params);
    Ok(AnalysisRun { observables, oracle })
}

/// Merge the subtree rooted at task `i`: its own partial, then the subtree
/// of `2i + 1`, then that of `2i + 2`.
fn fold(slots: &mut [Option<Partial>], i: usize) -> Partial {
    let mut merged = slots[i].take().expect("every task fills its slot");
    for child in [2 * i + 1, 2 * i + 2] {
        if child < slots.len() {
            merged.merge(&fold(slots, child));
        }
    }
    merged
}

/// The map's coverage check on the merged partial.
fn check_coverage(merged: &Partial) -> OracleReport {
    let mut violations = Vec::new();
    let mut fail = |detail: String| {
        violations.push(Violation { check: "coverage", step: None, detail })
    };
    if merged.frames_seen != merged.n_frames as u64 {
        fail(format!("{} frame tasks folded for {} frames", merged.frames_seen, merged.n_frames));
    }
    if merged.msd_atoms != merged.n_atoms as u64 {
        fail(format!("{} MSD atoms folded for {} atoms", merged.msd_atoms, merged.n_atoms));
    }
    if let Some(k) = merged.rmsd.iter().position(|r| r.is_nan()) {
        fail(format!("RMSD slot {k} is empty"));
    }
    OracleReport {
        schedule: Default::default(),
        faults_injected: false,
        n_steps: 0,
        checks_run: vec!["coverage"],
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(n_frames: usize, n_atoms: usize) -> Vec<Vec<Vec3>> {
        (0..n_frames)
            .map(|t| {
                (0..n_atoms)
                    .map(|i| {
                        let s = (i * 7 + t * 3) as f64;
                        Vec3::new((s * 0.37) % 9.0, (s * 0.59) % 9.0, (s * 0.83) % 9.0)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fold_takes_every_slot_once() {
        // Five tasks: 0 <- (1 <- (3, 4), 2). Each partial carries a
        // distinct frames_seen bit, so the sum shows every slot was merged
        // exactly once. The merge order itself is pinned by obs_crc in
        // tests/analyze_correctness.rs.
        let params = AnalyzeParams::default();
        let mut slots: Vec<Option<Partial>> = (0..5)
            .map(|i| {
                let mut p = Partial::empty(1, 1, &params);
                p.frames_seen = 1 << i;
                Some(p)
            })
            .collect();
        let merged = fold(&mut slots, 0);
        assert_eq!(merged.frames_seen, 0b11111);
        assert!(slots.iter().all(Option::is_none));
    }

    #[test]
    fn coverage_passes_on_a_full_map_and_names_a_missing_frame() {
        let cell = Cell::cube(9.0);
        let frames = walk(3, 12);
        let cfg = AnalyzeConfig { n_pes: 2, ..AnalyzeConfig::default() };
        let run = analyze_frames(&frames, &cell, &cfg, None).unwrap();
        assert!(run.oracle.ok(), "{}", run.oracle.render());
        assert_eq!(run.oracle.checks_run, vec!["coverage"]);

        let mut short = Partial::empty(3, 12, &cfg.params);
        short.frames_seen = 2;
        short.msd_atoms = 12;
        short.rmsd = vec![0.0, 0.0, f64::NAN];
        let report = check_coverage(&short);
        assert_eq!(report.violations.len(), 2, "{}", report.render());
    }
}
