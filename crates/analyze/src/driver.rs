//! The analysis driver: fans a trajectory's frames out over a `charmrt`
//! runtime as task chares, runs the scatter → pairwise-reduce phase to
//! quiescence, and finalizes the merged partial into observables.
//!
//! The driver builds the same runtime the simulation engine uses (DES
//! under the machine model, real threads, or real processes over Unix
//! sockets) and follows the engine's phase discipline: entries registered
//! first, chares registered in dense `ObjId` order, bootstrap messages
//! injected, then one run to quiescence with the scatter/reduce oracle
//! checked on the resulting stats. PE count affects chare *placement*
//! only (task `i` lives on PE `i % n_pes`); the task decomposition and
//! reduce-tree shape are functions of the trajectory alone.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use charmrt::{ObjId, WireCodec, PRIO_NORMAL};
use machine::MachineModel;
use mdcore::prelude::{Cell, Vec3};
use namd_core::config::Backend;
use namd_core::oracle::{self, OracleReport};
use profile::MetricsRegistry;

use crate::chares::{AnalyzeEntries, TaskChare};
use crate::messages::{to_triples, TaskMsg};
use crate::observables::{finalize, AnalyzeParams, Observables, Partial};

/// How to run an analysis phase.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    pub backend: Backend,
    pub n_pes: usize,
    /// Machine model for the DES backend (ignored by real backends).
    pub machine: MachineModel,
    pub params: AnalyzeParams,
    /// Socket directory for the proc backend (default: system temp).
    pub socket_dir: Option<PathBuf>,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            backend: Backend::Des,
            n_pes: 4,
            machine: machine::presets::generic_cluster(),
            params: AnalyzeParams::default(),
            socket_dir: None,
        }
    }
}

/// A completed analysis phase.
#[derive(Debug, Clone)]
pub struct AnalysisRun {
    pub observables: Observables,
    /// Phase makespan: virtual seconds on DES, wall seconds on real
    /// backends.
    pub makespan: f64,
    pub n_tasks: usize,
    pub stats: charmrt::SummaryStats,
    /// Scatter/reduce invariant verdict for the phase.
    pub oracle: OracleReport,
}

/// Deterministic MSD atom-block boundaries: `msd_tasks` contiguous blocks
/// covering `0..n_atoms`.
pub fn msd_blocks(n_atoms: usize, msd_tasks: usize) -> Vec<(usize, usize)> {
    let m = msd_tasks.clamp(1, n_atoms.max(1));
    (0..m).map(|b| (b * n_atoms / m, (b + 1) * n_atoms / m)).collect()
}

/// Analyze a trajectory already in memory. Returns an error for malformed
/// input (no frames, inconsistent atom counts) or a wedged runtime.
pub fn analyze_frames(
    frames: &[Vec<Vec3>],
    cell: &Cell,
    cfg: &AnalyzeConfig,
    metrics: Option<&mut MetricsRegistry>,
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
    // Min-image binning is only meaningful to half the smallest edge.
    let min_edge = cell.lengths.x.min(cell.lengths.y).min(cell.lengths.z);
    params.r_max = params.r_max.min(0.5 * min_edge);
    if params.r_max <= 0.0 {
        return Err("r_max must be positive".into());
    }
    params.contact_groups = params.contact_groups.min(n_atoms);

    let blocks = msd_blocks(n_atoms, params.msd_tasks);
    let n_tasks = n_frames + blocks.len();

    let mut rt = cfg.backend.runtime(cfg.n_pes, cfg.machine, cfg.socket_dir.as_deref());
    let want_trace = metrics.as_ref().is_some_and(|r| r.wants_trace());
    rt.set_tracing(want_trace);

    let entries = AnalyzeEntries::register(rt.as_mut());
    let result: Arc<Mutex<Option<Partial>>> = Arc::new(Mutex::new(None));
    for i in 0..n_tasks {
        let obj = TaskChare::new(
            i,
            n_tasks,
            entries,
            *cell,
            params,
            n_frames,
            n_atoms,
            result.clone(),
        );
        let id = rt.register(Box::new(obj), i % cfg.n_pes, true);
        assert_eq!(id, ObjId(i as u32), "task ids must be dense");
    }

    // Scatter: frame tasks first (task == frame index), then MSD blocks.
    let reference = to_triples(&frames[0]);
    for (k, f) in frames.iter().enumerate() {
        let msg = TaskMsg::Frame {
            task: k as u32,
            frame: k as u32,
            positions: to_triples(f),
            reference: reference.clone(),
        };
        let payload = msg.pack();
        let bytes = payload.len();
        rt.inject(ObjId(k as u32), entries.task, bytes, PRIO_NORMAL, payload);
    }
    for (b, &(a0, a1)) in blocks.iter().enumerate() {
        let block_len = a1 - a0;
        let mut coords = Vec::with_capacity(block_len * n_frames);
        for f in frames {
            coords.extend(f[a0..a1].iter().copied());
        }
        let msg = TaskMsg::Msd {
            task: (n_frames + b) as u32,
            atom0: a0 as u32,
            block_len: block_len as u32,
            n_frames: n_frames as u32,
            coords: to_triples(&coords),
        };
        let payload = msg.pack();
        let bytes = payload.len();
        rt.inject(ObjId((n_frames + b) as u32), entries.task, bytes, PRIO_NORMAL, payload);
    }

    let makespan = rt.try_run().map_err(|stall| format!("analysis phase stalled: {stall}"))?;

    let stats = rt.stats().clone();
    let oracle = oracle::check_scatter_reduce(
        &stats,
        charmrt::SchedulePolicy::default(),
        entries.task,
        entries.reduce,
        n_tasks,
    );
    if let Some(reg) = metrics {
        let pm = profile::PhaseMetrics::of(&stats, profile::PairlistCounters::default());
        let trace = if want_trace { Some(rt.trace()) } else { None };
        if let Err(e) = reg.record_phase(cfg.backend.as_str(), &stats, trace, makespan, 1, pm) {
            eprintln!("profile: failed to stream analysis phase: {e}");
        }
        // The analysis placement is static round-robin; audit it so analyze
        // phases show up in lb_audit.jsonl next to simulation decisions.
        let snapshot = rt.ldb().snapshot(rt.placement());
        let mut loads = vec![0.0; cfg.n_pes];
        for (i, obj) in snapshot.objects.iter().enumerate() {
            loads[rt.placement()[i]] += obj.load;
        }
        let audit = profile::LbAudit {
            phase: reg.phases.len().saturating_sub(1),
            strategy: "analyze-static".to_string(),
            before: loads.clone(),
            after: loads,
            migrations: Vec::new(),
        };
        if let Err(e) = reg.record_lb(audit) {
            eprintln!("profile: failed to stream analysis LB audit: {e}");
        }
    }

    let merged = result
        .lock()
        .unwrap()
        .take()
        .ok_or_else(|| "analysis phase completed without a reduced result".to_string())?;
    let observables = finalize(&merged, cell, &params);
    Ok(AnalysisRun { observables, makespan, n_tasks, stats, oracle })
}

