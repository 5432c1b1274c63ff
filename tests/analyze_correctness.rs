//! Closed-form and equivalence tests for the parallel trajectory-analysis
//! subsystem, end to end through the chare-array driver:
//!
//! * an ideal gas (uniform random positions) must give a flat RDF,
//!   g(r) ≈ 1, through the parallel reduce tree;
//! * a rigidly translated trajectory has Kabsch RMSD exactly ~0 vs the
//!   reference frame;
//! * a √t-scaled displacement field has an exactly linear MSD, so the
//!   diffusion fit must recover the closed-form slope;
//! * all three runtime backends (DES, threads, real processes) and every
//!   PE count reduce to *bit-identical* observables — the same guarantee
//!   the MD engine makes, extended to analysis; and
//! * the same analyze job submitted to service pools of different sizes
//!   (and different service backends) reduces to the same `obs_crc`.

use namd_repro::analyze::{analyze_frames, AnalyzeConfig, AnalyzeParams};
use namd_repro::mdcore::prelude::{Cell, Vec3};
use namd_repro::namd_core::config::Backend;
use namd_repro::serve::{JobSpec, Scheduler, SchedulerConfig};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// SplitMix64 — deterministic test randomness without pulling `rand` into
/// the integration-test dep graph.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn uniform_frame(state: &mut u64, n_atoms: usize, edge: f64) -> Vec<Vec3> {
    (0..n_atoms)
        .map(|_| {
            Vec3::new(
                unit_f64(state) * edge,
                unit_f64(state) * edge,
                unit_f64(state) * edge,
            )
        })
        .collect()
}

/// A deterministic random-walk trajectory (used by the bit-identity
/// tests, where the physics doesn't matter — only the reduced bits do).
fn walk_trajectory(seed: u64, n_frames: usize, n_atoms: usize, edge: f64) -> Vec<Vec<Vec3>> {
    let mut state = seed;
    let mut frames = vec![uniform_frame(&mut state, n_atoms, edge)];
    for _ in 1..n_frames {
        let prev = frames.last().unwrap();
        let next: Vec<Vec3> = prev
            .iter()
            .map(|p| {
                *p + Vec3::new(
                    (unit_f64(&mut state) - 0.5) * 0.6,
                    (unit_f64(&mut state) - 0.5) * 0.6,
                    (unit_f64(&mut state) - 0.5) * 0.6,
                )
            })
            .collect();
        frames.push(next);
    }
    frames
}

fn cfg(backend: Backend, n_pes: usize, params: AnalyzeParams) -> AnalyzeConfig {
    AnalyzeConfig { backend, n_pes, params, ..AnalyzeConfig::default() }
}

#[test]
fn ideal_gas_rdf_is_flat_through_the_parallel_driver() {
    // Uniform independent positions in a periodic cube are an ideal gas:
    // the pair-correlation function is g(r) = 1 at every r. Dense enough
    // (400 atoms × 8 frames) that each bin's counting noise is small.
    let edge = 20.0;
    let cell = Cell::periodic(Vec3::splat(0.0), Vec3::splat(edge));
    let mut state = 0x1dea_19a5u64;
    let frames: Vec<Vec<Vec3>> =
        (0..8).map(|_| uniform_frame(&mut state, 400, edge)).collect();
    let params = AnalyzeParams { r_max: 8.0, rdf_bins: 16, ..AnalyzeParams::default() };
    let run = analyze_frames(&frames, &cell, &cfg(Backend::Des, 4, params), None).unwrap();
    assert!(run.oracle.ok(), "oracle: {}", run.oracle.render());

    let obs = &run.observables;
    assert_eq!(obs.rdf_g.len(), 16);
    for (r, g) in obs.rdf_r.iter().zip(&obs.rdf_g) {
        assert!(
            (g - 1.0).abs() < 0.35,
            "ideal-gas RDF must be flat: g({r:.2}) = {g:.3}"
        );
    }
    // Pair-count-weighted over all bins the noise averages out much tighter.
    let mean: f64 = obs.rdf_g.iter().sum::<f64>() / obs.rdf_g.len() as f64;
    assert!((mean - 1.0).abs() < 0.05, "mean g(r) = {mean:.4}");
}

#[test]
fn rigid_translation_has_zero_rmsd_through_the_driver() {
    // Each frame is frame 0 rigidly translated; Kabsch superposition must
    // erase the motion entirely, so every per-frame RMSD is ~0.
    let edge = 25.0;
    let cell = Cell::periodic(Vec3::splat(0.0), Vec3::splat(edge));
    let mut state = 0x0f5e_7713u64;
    let base = uniform_frame(&mut state, 60, 10.0);
    let frames: Vec<Vec<Vec3>> = (0..6)
        .map(|k| {
            let shift = Vec3::new(0.3 * k as f64, -0.2 * k as f64, 0.15 * k as f64);
            base.iter().map(|p| *p + shift).collect()
        })
        .collect();
    let run =
        analyze_frames(&frames, &cell, &cfg(Backend::Threads, 3, AnalyzeParams::default()), None)
            .unwrap();
    assert!(run.oracle.ok(), "oracle: {}", run.oracle.render());
    for (k, rmsd) in run.observables.rmsd.iter().enumerate() {
        assert!(rmsd.abs() < 1e-6, "frame {k}: rigid translation gave RMSD {rmsd:e}");
    }
}

#[test]
fn msd_and_diffusion_recover_the_closed_form_slope() {
    // Positions x_i(k) = x_i(0) + sqrt(k)·u_i with |u_i|² = s for every
    // atom give MSD(k) = k·s exactly, so the least-squares diffusion fit
    // must return s / (6·frame_dt).
    let edge = 40.0;
    let cell = Cell::periodic(Vec3::splat(0.0), Vec3::splat(edge));
    let mut state = 0xd1ff_0513u64;
    let n_atoms = 24;
    let n_frames = 10;
    let base = uniform_frame(&mut state, n_atoms, 8.0);
    // Random directions, common squared length s.
    let s: f64 = 0.49;
    let dirs: Vec<Vec3> = (0..n_atoms)
        .map(|_| {
            let v = Vec3::new(
                unit_f64(&mut state) - 0.5,
                unit_f64(&mut state) - 0.5,
                unit_f64(&mut state) - 0.5,
            );
            let norm = (v.x * v.x + v.y * v.y + v.z * v.z).sqrt();
            Vec3::new(v.x / norm, v.y / norm, v.z / norm) * s.sqrt()
        })
        .collect();
    let frames: Vec<Vec<Vec3>> = (0..n_frames)
        .map(|k| {
            let f = (k as f64).sqrt();
            base.iter().zip(&dirs).map(|(p, u)| *p + *u * f).collect()
        })
        .collect();
    let frame_dt = 10.0;
    let params = AnalyzeParams { frame_dt, msd_tasks: 3, ..AnalyzeParams::default() };
    let run = analyze_frames(&frames, &cell, &cfg(Backend::Des, 2, params), None).unwrap();
    assert!(run.oracle.ok(), "oracle: {}", run.oracle.render());

    let obs = &run.observables;
    for (k, msd) in obs.msd.iter().enumerate() {
        let expect = k as f64 * s;
        assert!(
            (msd - expect).abs() < 1e-9 * expect.max(1.0),
            "MSD({k}) = {msd}, closed form {expect}"
        );
    }
    let d_expect = s / (6.0 * frame_dt);
    assert!(
        (obs.diffusion - d_expect).abs() < 1e-9 * d_expect,
        "diffusion {} vs closed form {d_expect}",
        obs.diffusion
    );
}

#[test]
fn backends_and_pe_counts_reduce_bit_identically() {
    // The tentpole guarantee: observables reduced over the DES, threads,
    // and multi-process backends, at any PE count, are bit-identical —
    // full struct equality, not approximate agreement.
    let edge = 16.0;
    let cell = Cell::periodic(Vec3::splat(0.0), Vec3::splat(edge));
    let frames = walk_trajectory(0xb17_1de1u64, 6, 60, edge);
    let params = AnalyzeParams { rdf_bins: 24, msd_tasks: 3, ..AnalyzeParams::default() };

    let reference =
        analyze_frames(&frames, &cell, &cfg(Backend::Des, 1, params), None).unwrap();
    assert!(reference.oracle.ok(), "oracle: {}", reference.oracle.render());
    assert_ne!(reference.observables.obs_crc, 0);

    for (backend, pes) in [
        (Backend::Des, 4),
        (Backend::Des, 7),
        (Backend::Threads, 1),
        (Backend::Threads, 3),
        (Backend::Proc, 2),
    ] {
        let run = analyze_frames(&frames, &cell, &cfg(backend, pes, params), None).unwrap();
        assert!(run.oracle.ok(), "{backend:?}/p{pes} oracle: {}", run.oracle.render());
        assert_eq!(
            run.observables.obs_crc, reference.observables.obs_crc,
            "{backend:?}/p{pes}: obs_crc diverged from des/p1"
        );
        assert_eq!(
            run.observables, reference.observables,
            "{backend:?}/p{pes}: observables diverged from des/p1"
        );
    }
}

#[test]
fn serve_analyze_jobs_agree_across_pool_sizes_and_service_backends() {
    // The same analyze spec through service pools of different sizes and
    // different *service-level* backends must reduce to the same
    // observables — the property that lets the cache key exclude them.
    let spec = JobSpec::parse(
        r#"{"kind": "analyze", "steps": 8, "frameEvery": 2, "atoms": 90,
            "boxSize": 14, "cutoff": 6, "migrateEvery": 4, "pes": 2}"#,
    )
    .unwrap();

    let mut seen = Vec::new();
    for (pool, backend) in [(2usize, "des"), (4, "threads")] {
        let mut s = spec.clone();
        s.backend = backend.parse().unwrap();
        let sched = Scheduler::new(SchedulerConfig { pool_pes: pool, ..Default::default() });
        let (id, _) = sched.submit(s).unwrap();
        let out = sched.wait(id, WAIT).expect("finished").expect("succeeded");
        sched.shutdown();
        let summary = out.analysis.expect("analyze job must carry a summary");
        assert_eq!(summary.frames, 5, "steps 8 / frameEvery 2 + frame 0");
        assert_ne!(summary.obs_crc, 0);
        seen.push((out.state_crc, summary.obs_crc));
    }
    assert_eq!(seen[0], seen[1], "pool size / service backend changed the observables");
}
