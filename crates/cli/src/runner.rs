//! Turns a parsed [`RunConfig`] into an actual simulation run: every run,
//! cutoff or `pme on`, is `Engine` + `recovery::advance` at any thread
//! count, with the thermostat inside the engine.

use crate::config::{RunConfig, ThermostatKind};
use mdcore::prelude::*;
use namd_core::prelude::{Backend, Engine, MetricsRegistry};
use namd_core::recovery::{advance, Advanced};
use std::io::{Error, ErrorKind, Write};
use std::path::Path;

/// Opaque per-snapshot payload the runner stores in `Snapshot::extra`.
#[derive(Debug, Clone, Copy)]
struct Extra {
    /// The first recorded total energy (for the final report).
    e_first: f64,
    /// Trajectory frames already on disk, so a restart neither duplicates
    /// nor re-truncates them.
    frames: u64,
    /// The migration cadence, so a restarted run reproduces the original
    /// run's decomposition-rebuild pattern.
    migrate_every: u64,
    /// `mtsFrequency` of a `pme on` run, 0 for a cutoff run: a restart into
    /// another integrator is refused. A 24-byte payload, written before
    /// this field existed, is a cutoff run's.
    mts: u64,
}

impl Extra {
    fn encode(&self) -> Vec<u8> {
        [self.e_first.to_bits(), self.frames, self.migrate_every, self.mts]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    fn decode(bytes: &[u8]) -> Option<Extra> {
        if bytes.len() != 24 && bytes.len() != 32 {
            return None;
        }
        let w = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        Some(Extra {
            e_first: f64::from_bits(w(0)),
            frames: w(1),
            migrate_every: w(2),
            mts: if bytes.len() == 32 { w(3) } else { 0 },
        })
    }
}

/// Refuse a restart from a checkpoint another integrator wrote (`written`
/// and `this` as in [`Extra::mts`]): the topology hash covers neither
/// Ewald β nor PME, so nothing else would.
fn check_integrator(written: u64, this: u64, from: &str) -> std::io::Result<()> {
    if written == this {
        return Ok(());
    }
    let describe = |k| match k {
        0 => "pme off".to_string(),
        k => format!("pme on and mtsFrequency {k}"),
    };
    let key = if written > 0 && this > 0 { "mtsFrequency" } else { "pme" };
    Err(Error::new(
        ErrorKind::InvalidInput,
        format!(
            "{key}: {from} was written with {}; this config has {}",
            describe(written),
            describe(this)
        ),
    ))
}

/// Largest atom-migration cadence ≤ 20 steps that divides the checkpoint
/// interval, so every checkpoint lands on a migration boundary
/// (the alignment bit-identical restarts need).
fn migrate_cadence(interval: usize) -> usize {
    (1..=20.min(interval)).rev().find(|&d| interval.is_multiple_of(d)).unwrap_or(1)
}

fn ckpt_io_err(e: ckpt::CkptError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Load a restart snapshot from a checkpoint file, or from the newest
/// valid checkpoint when `path` is a directory.
fn load_snapshot(path: &str) -> std::io::Result<(ckpt::Snapshot, String)> {
    let p = Path::new(path);
    if p.is_dir() {
        let dir = ckpt::CheckpointDir::create(p).map_err(ckpt_io_err)?;
        let (snap, file) = dir.latest_valid().map_err(ckpt_io_err)?;
        Ok((snap, file.display().to_string()))
    } else {
        let bytes = std::fs::read(p)?;
        let snap = ckpt::Snapshot::decode(&bytes).map_err(ckpt_io_err)?;
        Ok((snap, path.to_string()))
    }
}

/// Summary of a finished run (also printed step-by-step as it goes).
#[derive(Debug, Clone)]
pub struct RunReport {
    pub n_atoms: usize,
    pub steps: usize,
    /// Total energy at the first and last recorded step.
    pub e_first: f64,
    pub e_last: f64,
    pub final_temperature: f64,
    pub wall_seconds: f64,
    pub trajectory_frames: usize,
}

/// Build the molecular system a config describes.
pub fn build_system(cfg: &RunConfig) -> System {
    let (_, build) = cfg.deck();
    let mut system = build();
    if cfg.pme {
        let beta = if cfg.ewald_beta > 0.0 {
            cfg.ewald_beta
        } else {
            // erfc(β·r_cut) ≈ 1e-6 heuristic.
            (1e6f64).ln().sqrt() / cfg.cutoff
        };
        system.forcefield = system.forcefield.clone().with_ewald(beta);
    }
    system.thermalize(cfg.temperature, cfg.seed);
    system
}

/// Execute the run, streaming a one-line-per-step energy log to `log`.
pub fn run(cfg: &RunConfig, log: &mut dyn Write) -> std::io::Result<RunReport> {
    let mut system = build_system(cfg);
    if cfg.minimize > 0 {
        let r = mdcore::minimize::minimize(&mut system, cfg.minimize, 5.0);
        writeln!(
            log,
            "minimized: {:.1} -> {:.1} kcal/mol over {} evaluations (max force {:.1})",
            r.e_initial, r.e_final, r.evaluations, r.max_force
        )?;
    }
    writeln!(
        log,
        "namd-rs: {} atoms, cutoff {} Å, dt {} fs, {} steps, {} threads{}",
        system.n_atoms(),
        cfg.cutoff,
        cfg.timestep,
        cfg.steps,
        cfg.threads,
        if cfg.pme { ", PME on" } else { "" }
    )?;

    // `advance` is asked for whole phases, stopping only where this loop
    // needs the state — a trajectory frame and the run's end — besides the
    // migration and checkpoint boundaries it stops at itself. Every step
    // number this loop prints or reads counts logged steps, each `k` engine
    // timesteps long (`k` = 1 without pme).
    let k = cfg.mts_k();
    let mts = if cfg.pme { k as u64 } else { 0 };
    let config = cfg.engine_config().map_err(|e| Error::new(ErrorKind::InvalidInput, e))?;
    let n_atoms = system.n_atoms();
    let mut engine = Engine::new(system, config);
    if cfg.backend == Backend::Proc {
        writeln!(log, "backend proc: one worker process per PE ({})", cfg.threads)?;
    } else if cfg.backend == Backend::Des {
        writeln!(log, "backend des: deterministic virtual-time execution")?;
    }
    if !cfg.profile_dir.is_empty() {
        let reg = MetricsRegistry::with_dir(cfg.profile_dir.clone(), cfg.profile_interval)?;
        engine.set_metrics(Some(reg));
    }

    let checkpointing = !cfg.checkpoint_dir.is_empty();
    // With checkpoints, a migration cadence that divides their interval; on
    // a restart without, the one recorded.
    let mut migrate_every =
        if checkpointing { migrate_cadence(engine.config.checkpoint_interval) } else { 20 };
    let mut resumed = None;
    if !cfg.restart_from.is_empty() {
        let (snap, from) = load_snapshot(&cfg.restart_from)?;
        let extra = Extra::decode(&snap.extra);
        check_integrator(extra.map_or(0, |x| x.mts), mts, &from)?;
        if let Some(x) = extra.filter(|x| !checkpointing && x.migrate_every > 0) {
            migrate_every = x.migrate_every as usize;
        }
        engine.restore(&snap).map_err(ckpt_io_err)?;
        writeln!(log, "restarted from {from} at step {}", snap.step as usize / k)?;
        resumed = Some(extra.map_or((f64::NAN, 0), |x| (x.e_first, x.frames as usize)));
    }
    let mut out = Output::new(cfg, &engine.system(), resumed, log)?;
    let extra = |e_first: f64, frames: usize| {
        let (frames, migrate_every) = (frames as u64, migrate_every as u64);
        Extra { e_first, frames, migrate_every, mts }.encode()
    };

    // Baseline snapshot: a crash before the first periodic checkpoint must
    // still have something to roll back to.
    if checkpointing && engine.steps_done == 0 {
        engine.ckpt_extra = extra(out.e_first, out.frames);
        let dir = ckpt::CheckpointDir::create(&cfg.checkpoint_dir).map_err(ckpt_io_err)?;
        dir.write(&engine.snapshot()).map_err(ckpt_io_err)?;
    }

    let berendsen = (cfg.thermostat == ThermostatKind::Berendsen)
        .then_some(Berendsen { target_k: cfg.temperature, tau_fs: cfg.berendsen_tau });
    // The logged kinetic energy predates the step's Berendsen rescale; the
    // temperature column is after it: λ²·T.
    let temperature = |kinetic: f64| {
        let t = mdcore::system::temperature(kinetic, n_atoms);
        berendsen.map_or(t, |b| t * b.lambda(t, cfg.timestep).powi(2))
    };
    let last = cfg.steps.saturating_mul(k);
    while engine.steps_done < last {
        let done = engine.steps_done;
        // Log step `s` reports the state after `(s + 1)·k` updates.
        let next = out.next_frame(done / k).map_or(cfg.steps, |s| cfg.steps.min(s + 1));
        let mut target = next.saturating_mul(k);
        if checkpointing {
            // Snapshots carry the first step's energy: learn it first.
            if done == 0 && out.e_first.is_nan() {
                target = k;
            }
            // A checkpoint is written only after a whole phase, so a restart
            // from it resumes after every frame the phase writes.
            let end = target.min((done / migrate_every + 1) * migrate_every);
            engine.ckpt_extra = extra(out.e_first, out.frames_after(end / k));
        }
        match advance(&mut engine, target, migrate_every, Some(last), false)
            .map_err(Error::other)?
        {
            Advanced::Phase { phase, updates } => {
                for (j, e) in phase.energies[1..=updates].iter().enumerate() {
                    let n = done + j + 1;
                    if n.is_multiple_of(k) {
                        out.step(n / k - 1, e.potential(), e.kinetic, temperature(e.kinetic))?;
                    }
                }
                if engine.steps_done.is_multiple_of(k) {
                    out.frame(engine.steps_done / k - 1, &engine.system().positions)?;
                }
            }
            Advanced::RolledBack { crash, attempt, step, from } => {
                writeln!(out.log, "{crash}; recovering (attempt {attempt})")?;
                let from = from.map_or("memory".into(), |p| p.display().to_string());
                writeln!(out.log, "resumed from {from} at step {}", step / k)?;
            }
        }
    }
    let report = out.finish(cfg, n_atoms, engine.system().temperature())?;
    if let Some(reg) = &engine.metrics {
        if let Some(dir) = reg.dir() {
            writeln!(
                out.log,
                "profiles: {} phase record(s) under {} (open trace_*.json in ui.perfetto.dev)",
                reg.phases.len(),
                dir.display()
            )?;
        }
    }
    Ok(report)
}

/// What a run writes: the per-step energy table and the trajectory.
struct Output<'a> {
    log: &'a mut dyn Write,
    xyz: Option<TrajectoryWriter>,
    every: usize,
    /// Trajectory frames on disk.
    frames: usize,
    /// Total energy at the first and at the latest logged step.
    e_first: f64,
    e_last: f64,
    start: std::time::Instant,
}

impl<'a> Output<'a> {
    /// Open the trajectory and print the table header. A restart passes
    /// the snapshot's energy baseline and frame high-water mark: it must
    /// not re-truncate or duplicate what the interrupted run already wrote;
    /// anything past the mark (including a torn trailing frame) is dropped
    /// and re-produced bit-identically by the resumed run.
    fn new(
        cfg: &RunConfig,
        system: &System,
        resumed: Option<(f64, usize)>,
        log: &'a mut dyn Write,
    ) -> std::io::Result<Self> {
        let (e_first, mut frames) = resumed.unwrap_or((f64::NAN, 0));
        let path = format!("{}.xyz", cfg.output_name);
        let xyz = if cfg.output_name.is_empty() {
            None
        } else if resumed.is_some() && Path::new(&path).exists() {
            let (w, kept) = TrajectoryWriter::resume_for_system(&path, system, frames)?;
            frames = kept;
            Some(w)
        } else {
            frames = 0;
            Some(TrajectoryWriter::create_for_system(&path, system)?)
        };
        writeln!(log, "step      potential        kinetic          total     temp(K)")?;
        Ok(Output {
            log,
            xyz,
            every: cfg.trajectory_every.max(1),
            frames,
            e_first,
            e_last: f64::NAN,
            start: std::time::Instant::now(),
        })
    }

    fn step(&mut self, step: usize, potential: f64, kinetic: f64, temp: f64) -> std::io::Result<()>
    {
        let total = potential + kinetic;
        if step == 0 {
            self.e_first = total;
        }
        self.e_last = total;
        writeln!(self.log, "{step:>4} {potential:>14.2} {kinetic:>14.2} {total:>14.2} {temp:>10.1}")
    }

    /// The first log step at or after `step` whose frame is not on disk.
    fn next_frame(&self, step: usize) -> Option<usize> {
        self.xyz.as_ref().map(|_| step.div_ceil(self.every).max(self.frames) * self.every)
    }

    /// Frames on disk once the first `logged` log steps are recorded.
    fn frames_after(&self, logged: usize) -> usize {
        match self.xyz {
            Some(_) => self.frames.max(logged.div_ceil(self.every)),
            None => self.frames,
        }
    }

    /// Write log step `step`'s frame if it is a frame step. The index guard
    /// makes this idempotent across crash-recovery rewinds and restarts: a
    /// frame already on disk (it is bit-identical) is never written twice.
    fn frame(&mut self, step: usize, positions: &[Vec3]) -> std::io::Result<()> {
        if let Some(w) = &mut self.xyz {
            if step.is_multiple_of(self.every) && step / self.every >= self.frames {
                w.write_frame(positions, &format!("step {step}"))?;
                self.frames += 1;
            }
        }
        Ok(())
    }

    fn finish(
        &mut self,
        cfg: &RunConfig,
        n_atoms: usize,
        final_temperature: f64,
    ) -> std::io::Result<RunReport> {
        let wall = self.start.elapsed().as_secs_f64();
        let frames = self.frames;
        writeln!(
            self.log,
            "done: {:.2} s wall ({:.1} ms/step){}",
            wall,
            wall / cfg.steps.max(1) as f64 * 1e3,
            if frames > 0 { format!(", {frames} trajectory frames") } else { String::new() }
        )?;
        Ok(RunReport {
            n_atoms,
            steps: cfg.steps,
            e_first: self.e_first,
            e_last: self.e_last,
            final_temperature,
            wall_seconds: wall,
            trajectory_frames: frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse;

    #[test]
    fn water_run_executes_and_conserves() {
        let cfg = parse(
            "system water\natoms 600\nboxSize 20\ncutoff 6\ntimestep 0.5\nsteps 30\n",
        )
        .unwrap();
        let mut log = Vec::new();
        let report = run(&cfg, &mut log).unwrap();
        assert_eq!(report.n_atoms, 600);
        let drift = (report.e_last - report.e_first).abs() / report.e_first.abs().max(1.0);
        assert!(drift < 2e-2, "NVE drift {drift}");
        let text = String::from_utf8(log).unwrap();
        assert!(text.lines().count() > 30);
    }

    #[test]
    fn config_file_and_job_spec_name_the_same_deck() {
        // One vocabulary, one builder (`molgen::named_deck`): the same
        // system, size and seed through either front-end is the same deck.
        for (conf, json) in [
            (
                "system water\natoms 301\nboxSize 20\ncutoff 6\nseed 5\n",
                r#"{"system":"water","atoms":301,"boxSize":20,"cutoff":6,"seed":5}"#,
            ),
            ("system br\nscale 0.1\nseed 5\n", r#"{"system":"br","scale":0.1,"seed":5}"#),
            (
                "system vacuum-droplet\natoms 600\nscale 0.5\nseed 5\n",
                r#"{"system":"vacuum-droplet","atoms":600,"scale":0.5,"seed":5}"#,
            ),
        ] {
            let from_conf = build_system(&parse(conf).unwrap());
            let from_json = serve::JobSpec::parse(json).unwrap().build_system();
            assert_eq!(
                namd_core::engine::topology_hash(&from_conf),
                namd_core::engine::topology_hash(&from_json),
                "{conf}"
            );
            let bits = |s: &System| -> Vec<[u64; 3]> {
                s.positions.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
            };
            assert_eq!(bits(&from_conf), bits(&from_json), "{conf}");
        }
    }

    #[test]
    fn langevin_run_heats_a_cold_system() {
        let cfg = parse(
            "system water\natoms 300\nboxSize 20\ncutoff 6\ntimestep 1.0\nsteps 120\n\
             temperature 250\nthermostat langevin\nlangevinGamma 0.02\n",
        )
        .unwrap();
        // Zero the velocities by building cold, then let the thermostat heat.
        let mut log = Vec::new();
        let report = run(&cfg, &mut log).unwrap();
        assert!(
            report.final_temperature > 100.0,
            "thermostat failed to heat: {}",
            report.final_temperature
        );
    }

    #[test]
    fn minimization_precedes_dynamics() {
        let cfg = parse(
            "system water\natoms 300\nboxSize 20\ncutoff 6\nsteps 10\nminimize 50\n",
        )
        .unwrap();
        let mut log = Vec::new();
        let report = run(&cfg, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("minimized:"), "{text}");
        assert!(report.e_last.is_finite());
    }

    #[test]
    fn multicore_run_works() {
        let cfg = parse(
            "system br\nscale 0.3\ntimestep 0.5\nsteps 5\nthreads 2\n",
        )
        .unwrap();
        let mut log = Vec::new();
        let report = run(&cfg, &mut log).unwrap();
        assert!(report.n_atoms > 500);
        assert!(report.e_last.is_finite());
    }

    #[test]
    fn proc_backend_run_works() {
        let cfg = parse(
            "system water\natoms 300\nboxSize 20\ncutoff 6\ntimestep 0.5\nsteps 4\n\
             threads 2\nbackend proc\n",
        )
        .unwrap();
        let mut log = Vec::new();
        let report = run(&cfg, &mut log).unwrap();
        assert!(report.e_last.is_finite());
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("backend proc"), "{text}");

        // Same config on threads: energies are sum-order-dependent
        // observables, so equal to rounding (positions are bit-identical;
        // tests/proc_backend.rs checks that at the engine level).
        let cfg2 = parse(
            "system water\natoms 300\nboxSize 20\ncutoff 6\ntimestep 0.5\nsteps 4\n\
             threads 2\n",
        )
        .unwrap();
        let report2 = run(&cfg2, &mut Vec::new()).unwrap();
        let tol = 1e-8 * report2.e_last.abs().max(1.0);
        assert!(
            (report.e_last - report2.e_last).abs() < tol,
            "proc {} vs threads {}",
            report.e_last,
            report2.e_last
        );
    }

    #[test]
    fn pme_run_works() {
        let cfg = parse(
            "system water\natoms 450\nboxSize 20\ncutoff 7\ntimestep 0.5\nsteps 8\n\
             pme on\nmtsFrequency 2\n",
        )
        .unwrap();
        let mut log = Vec::new();
        let report = run(&cfg, &mut log).unwrap();
        assert!(report.e_last.is_finite());
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("PME on"));
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("namd_rs_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CKPT_BASE: &str = "system water\natoms 300\nboxSize 20\ncutoff 6\ntimestep 0.5\n\
                             steps 12\nthreads 2\nthermostat berendsen\ntrajectoryEvery 2\n";

    /// The checkpoint drills run cutoff and `pme on` at `mtsFrequency 2`,
    /// whose logged steps, frames and checkpoint interval count outer steps.
    const PME_K2: &str = "pme on\nmtsFrequency 2\n";

    #[test]
    fn killed_checkpointed_run_recovers_bit_identically() {
        for (tag, extra) in [("cutoff", ""), ("pme", PME_K2)] {
            let dir = tmp(&format!("kill_{tag}"));
            let ref_cfg = parse(&format!(
                "{CKPT_BASE}{extra}checkpointDir {}\ncheckpointInterval 4\noutputName {}\n",
                dir.join("ck_ref").display(),
                dir.join("ref").display()
            ))
            .unwrap();
            let mut log = Vec::new();
            run(&ref_cfg, &mut log).unwrap();

            let kill_cfg = parse(&format!(
                "{CKPT_BASE}{extra}checkpointDir {}\ncheckpointInterval 4\noutputName {}\n\
                 faultPlan kill:entry=PatchRecvForces:dst=1:skip=30\n",
                dir.join("ck_kill").display(),
                dir.join("kill").display()
            ))
            .unwrap();
            let mut log = Vec::new();
            run(&kill_cfg, &mut log).unwrap();
            let text = String::from_utf8(log).unwrap();
            assert!(text.contains("recovering"), "{tag}: kill never fired:\n{text}");
            assert!(text.contains("resumed from"), "{tag}: {text}");

            let a = std::fs::read(dir.join("ref.xyz")).unwrap();
            let b = std::fs::read(dir.join("kill.xyz")).unwrap();
            assert!(!a.is_empty());
            assert_eq!(a, b, "{tag}: recovered trajectory differs from uninterrupted one");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn restart_resumes_bit_identically() {
        for (tag, extra) in [("cutoff", ""), ("pme", PME_K2)] {
            let dir = tmp(&format!("restart_{tag}"));
            let ref_cfg = parse(&format!(
                "{CKPT_BASE}{extra}checkpointDir {}\ncheckpointInterval 4\noutputName {}\n",
                dir.join("ck_ref").display(),
                dir.join("ref").display()
            ))
            .unwrap();
            let mut log = Vec::new();
            run(&ref_cfg, &mut log).unwrap();

            // "Interrupted" run: stop exactly at a checkpoint step, then
            // resume from the directory's newest snapshot and finish.
            let ck = dir.join("ck_part");
            let part_cfg = parse(&format!(
                "{CKPT_BASE}{extra}checkpointDir {}\ncheckpointInterval 4\noutputName {}\n\
                 steps 8\n",
                ck.display(),
                dir.join("part").display()
            ))
            .unwrap();
            let mut log = Vec::new();
            run(&part_cfg, &mut log).unwrap();

            let resume_cfg = parse(&format!(
                "{CKPT_BASE}{extra}checkpointDir {}\ncheckpointInterval 4\noutputName {}\n\
                 restartFrom {}\n",
                ck.display(),
                dir.join("part").display(),
                ck.display()
            ))
            .unwrap();
            let mut log = Vec::new();
            run(&resume_cfg, &mut log).unwrap();
            let text = String::from_utf8(log).unwrap();
            assert!(text.contains("restarted from") && text.contains("at step 8\n"), "{text}");
            assert!(text.contains("\n   8 "), "{tag}: resume should log step 8 first:\n{text}");

            let a = std::fs::read(dir.join("ref.xyz")).unwrap();
            let b = std::fs::read(dir.join("part.xyz")).unwrap();
            assert_eq!(a, b, "{tag}: restarted trajectory differs from uninterrupted one");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The topology hash covers neither Ewald β nor PME: a restart into
    /// another integrator is refused by the runner, naming the key. A
    /// 24-byte payload, written before the field existed, is a cutoff run's.
    #[test]
    fn restart_refuses_another_integrator() {
        let dir = tmp("integrator");
        for (name, extra) in [("cutoff", ""), ("pme", PME_K2)] {
            let cfg = parse(&format!(
                "{CKPT_BASE}{extra}steps 4\ncheckpointDir {}\ncheckpointInterval 4\n",
                dir.join(name).display()
            ))
            .unwrap();
            run(&cfg, &mut Vec::new()).unwrap();
        }
        for (from, extra, key) in [
            ("cutoff", PME_K2, "pme: "),
            ("pme", "", "pme: "),
            ("pme", "pme on\n", "mtsFrequency: "),
            ("pme", "pme on\nmtsFrequency 3\n", "mtsFrequency: "),
        ] {
            let cfg = parse(&format!(
                "{CKPT_BASE}{extra}restartFrom {}\n",
                dir.join(from).display()
            ))
            .unwrap();
            let err = run(&cfg, &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{from} -> {extra:?}");
            assert!(err.to_string().starts_with(key), "{from} -> {extra:?}: {err}");
        }
        let old = Extra { e_first: -1.5, frames: 3, migrate_every: 4, mts: 0 }.encode();
        let x = Extra::decode(&old[..24]).unwrap();
        assert_eq!((x.e_first, x.frames, x.migrate_every, x.mts), (-1.5, 3, 4, 0));
        let x = Extra::decode(&Extra { mts: 2, ..x }.encode()).unwrap();
        assert_eq!(x.mts, 2);
        assert!(Extra::decode(&old[..16]).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_refuses_mismatched_and_corrupt_snapshots() {
        let dir = tmp("refuse");
        let ck = dir.join("ck");
        let cfg = parse(&format!(
            "{CKPT_BASE}checkpointDir {}\ncheckpointInterval 4\n",
            ck.display()
        ))
        .unwrap();
        let mut log = Vec::new();
        run(&cfg, &mut log).unwrap();

        // Different topology (atom count) must be refused with a clear error.
        let other = parse(&format!(
            "system water\natoms 600\nboxSize 20\ncutoff 6\ntimestep 0.5\nsteps 4\n\
             threads 2\nthermostat berendsen\nrestartFrom {}\n",
            ck.display()
        ))
        .unwrap();
        let err = run(&other, &mut Vec::new()).unwrap_err().to_string();
        assert!(
            err.contains("different system") || err.contains("mismatch"),
            "unexpected refusal message: {err}"
        );

        // A corrupted snapshot file named directly must be refused too.
        let file = ckpt::CheckpointDir::create(&ck).unwrap().file_for_step(4);
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&file, &bytes).unwrap();
        let broken = parse(&format!(
            "{CKPT_BASE}restartFrom {}\nsteps 12\n",
            file.display()
        ))
        .unwrap();
        let err = run(&broken, &mut Vec::new()).unwrap_err().to_string();
        assert!(
            err.contains("checksum") || err.contains("truncated") || err.contains("corrupt"),
            "unexpected refusal message: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiled_run_writes_perfetto_trace_and_summaries() {
        let dir = tmp("profile");
        let prof = dir.join("prof");
        let cfg = parse(&format!(
            "system water\natoms 300\nboxSize 20\ncutoff 6\ntimestep 0.5\nsteps 6\n\
             threads 2\nprofileDir {}\nprofileInterval 3\noutputName {}\n\
             trajectoryEvery 2\n",
            prof.display(),
            dir.join("t").display()
        ))
        .unwrap();
        let mut log = Vec::new();
        run(&cfg, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("profiles:"), "{text}");

        // Phases end at the frames of log steps 0, 2 and 4 and at step 6.
        let summaries = std::fs::read_to_string(prof.join("phases.jsonl")).unwrap();
        assert_eq!(summaries.lines().count(), 4, "one summary line per phase");
        // Interval 3 over 4 phases captures phases 0 and 3.
        let traces: Vec<_> = std::fs::read_dir(&prof)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().into_string().unwrap())
            .filter(|n| n.starts_with("trace_") && n.ends_with(".json"))
            .collect();
        assert_eq!(traces.len(), 2, "{traces:?}");
        let body = std::fs::read_to_string(prof.join(&traces[0])).unwrap();
        assert!(body.starts_with("[\n"), "not a trace-event array: {body:.40}");
        assert!(body.contains("\"ph\":\"X\""), "no complete events");
        assert!(body.trim_end().ends_with("]"), "unterminated JSON");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trajectory_output_writes_frames() {
        let dir = std::env::temp_dir().join("namd_rs_test_traj");
        let _ = std::fs::create_dir_all(&dir);
        let name = dir.join("t1");
        let cfg = parse(&format!(
            "system water\natoms 90\nboxSize 16\ncutoff 5\nsteps 10\n\
             outputName {}\ntrajectoryEvery 2\n",
            name.display()
        ))
        .unwrap();
        let mut log = Vec::new();
        let report = run(&cfg, &mut log).unwrap();
        assert_eq!(report.trajectory_frames, 5);
        let xyz = std::fs::read_to_string(format!("{}.xyz", name.display())).unwrap();
        assert!(xyz.starts_with("90\n"));
        let _ = std::fs::remove_file(format!("{}.xyz", name.display()));
    }
}
