//! `namd-rs analyze` — parallel trajectory analysis from the command
//! line.
//!
//! `analyze` reads an XYZ trajectory through the typed
//! [`mdcore::trajectory::Trajectory`] reader (frame-indexed, torn tails
//! ignored), maps the frames over up to `--pes` threads with
//! [`analyze::analyze_frames`], and prints the reduced observables: RDF
//! peak, per-frame RMSD envelope, contact occupancy, and the MSD-slope
//! diffusion coefficient. The box must be given on the command line —
//! XYZ files carry no cell.

use std::time::Instant;

use analyze::{analyze_frames, AnalyzeConfig, Observables};
use mdcore::prelude::{Cell, Trajectory, Vec3};

const ANALYZE_USAGE: &str = "usage: namd-rs analyze <trajectory.xyz> --box L[,LY,LZ] [opts]\n\
    --box L | LX,LY,LZ  periodic cell edges, Å (required; XYZ has no cell)\n\
    --pes N             most threads to map frames over (default 4)\n\
    --bins N            RDF histogram bins (default 32)\n\
    --r-max F           RDF range, Å (default 8, capped at half min edge)\n\
    --contact-cutoff F  contact-map distance, Å (default 4.5)\n\
    --frame-dt F        time between frames, fs (default 10)\n\
    --msd-tasks N       MSD atom-block tasks (default 4)";

fn parse_box(v: &str) -> Result<Cell, String> {
    let parts: Vec<f64> = v
        .split(',')
        .map(|s| s.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad --box '{v}' (want L or LX,LY,LZ)"))?;
    let lengths = match parts.as_slice() {
        [l] => Vec3::splat(*l),
        [x, y, z] => Vec3::new(*x, *y, *z),
        _ => return Err(format!("bad --box '{v}' (want 1 or 3 numbers)")),
    };
    if !(lengths.x > 0.0 && lengths.y > 0.0 && lengths.z > 0.0) {
        return Err("box edges must be positive".into());
    }
    Ok(Cell::periodic(Vec3::splat(0.0), lengths))
}

/// Entry point for `namd-rs analyze ...`.
pub fn cmd_analyze(args: &[String]) -> i32 {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{ANALYZE_USAGE}");
        return if args.is_empty() { 2 } else { 0 };
    }
    let path = &args[0];
    let mut cell: Option<Cell> = None;
    let mut cfg = AnalyzeConfig::default();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut value = || -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{a} needs a value"))
        };
        let r = (|| -> Result<(), String> {
            match a.as_str() {
                "--box" => cell = Some(parse_box(&value()?)?),
                "--pes" => {
                    cfg.n_pes = value()?.parse().map_err(|_| "bad --pes".to_string())?
                }
                "--bins" => {
                    cfg.params.rdf_bins =
                        value()?.parse().map_err(|_| "bad --bins".to_string())?
                }
                "--r-max" => {
                    cfg.params.r_max =
                        value()?.parse().map_err(|_| "bad --r-max".to_string())?
                }
                "--contact-cutoff" => {
                    cfg.params.contact_cutoff =
                        value()?.parse().map_err(|_| "bad --contact-cutoff".to_string())?
                }
                "--frame-dt" => {
                    cfg.params.frame_dt =
                        value()?.parse().map_err(|_| "bad --frame-dt".to_string())?
                }
                "--msd-tasks" => {
                    cfg.params.msd_tasks =
                        value()?.parse().map_err(|_| "bad --msd-tasks".to_string())?
                }
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("{e}\n{ANALYZE_USAGE}");
            return 2;
        }
    }
    let Some(cell) = cell else {
        eprintln!("--box is required (XYZ files carry no cell)\n{ANALYZE_USAGE}");
        return 2;
    };

    let mut traj = match Trajectory::open(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot open trajectory {path}: {e}");
            return 1;
        }
    };
    let frames = match traj.read_all() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot read trajectory {path}: {e}");
            return 1;
        }
    };
    println!(
        "analyze {path}: {} frame(s) x {} atom(s), up to {} thread(s)",
        frames.len(),
        traj.n_atoms(),
        cfg.n_pes
    );

    let t0 = Instant::now();
    let run = match analyze_frames(&frames, &cell, &cfg, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            return 1;
        }
    };
    println!("time:      {:.4} s", t0.elapsed().as_secs_f64());
    print_report(&run.observables);
    if !run.oracle.ok() {
        eprintln!("{}", run.oracle.render());
        return 1;
    }
    0
}

fn print_report(obs: &Observables) {
    let (peak_r, peak_g) = obs.rdf_peak();
    let n = obs.rmsd.len().max(1) as f64;
    let rmsd_mean = obs.rmsd.iter().sum::<f64>() / n;
    let rmsd_max = obs.rmsd.iter().fold(0.0f64, |m, &x| m.max(x));
    println!("rdf:       peak g(r) = {peak_g:.3} at r = {peak_r:.3} A");
    println!("rmsd:      mean {rmsd_mean:.4} A, max {rmsd_max:.4} A (vs frame 0)");
    println!(
        "contacts:  mean occupancy {:.3} over {} group pair(s)",
        obs.mean_contact_occupancy(),
        obs.contact_occupancy.len()
    );
    println!(
        "msd:       final {:.4} A^2, diffusion {:.4e} A^2/fs",
        obs.msd.last().copied().unwrap_or(0.0),
        obs.diffusion
    );
    println!("obs_crc:   {:016x}", obs.obs_crc);
}
