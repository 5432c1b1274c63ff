//! `namd-rs` — command-line front end for the NAMD SC2000 reproduction.
//!
//! ```text
//! namd-rs run <config-file> [opts] run an MD simulation from a config file
//!     --checkpoint-dir DIR         periodic checkpoints (overrides config)
//!     --restart-from PATH          resume from a checkpoint file/directory
//!     --profile-dir DIR            Perfetto traces + phase/LB summaries
//!     --profile-interval N         phases between full trace captures
//! namd-rs info <config-file>       parse + describe a config without running
//! namd-rs bench <system> [opts]    DES scaling benchmark (virtual PEs)
//!     --machine asci_red|t3e|origin|cluster
//!     --pes 1,8,64,256
//!     --steps N
//!     --schedule fifo|shuffle|lifo|jitter   dequeue-order perturbation
//!     --schedule-seed N                     seed for the perturbation
//!     --fault-plan "drop:entry=PatchRecvForces;..."  message faults
//!     --profile-dir DIR            per-PE-count Perfetto traces + summaries
//! namd-rs sample-config            print an annotated example config
//! namd-rs serve [opts]             many-tenant simulation service
//!     --listen unix:<path>|tcp:<host>:<port>
//!     --pool N --slice N           engine-pool PEs, preemption slice
//! namd-rs analyze <traj.xyz> [opts] parallel trajectory analysis
//!     --box L[,LY,LZ] --pes N --backend des|threads|proc
//!     --bins N --r-max F --contact-cutoff F --frame-dt F
//! ```

use namd_cli::config::parse;
use namd_cli::runner;
use namd_core::prelude::*;
use namd_core::recovery::steady_phase;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("serve") => namd_cli::serve_cmd::cmd_serve(&args[1..]),
        Some("analyze") => namd_cli::analyze_cmd::cmd_analyze(&args[1..]),
        Some("sample-config") => {
            print!("{}", SAMPLE);
            0
        }
        _ => {
            eprintln!(
                "usage: namd-rs <run|info|bench|serve|analyze|sample-config> ...\n\
                 try `namd-rs sample-config > demo.conf && namd-rs run demo.conf`"
            );
            2
        }
    };
    std::process::exit(code);
}

const SAMPLE: &str = "\
# namd-rs sample configuration
system        water      # water | apoa1 | bc1 | br | a zoo scenario
#                        # (solvated-box, membrane-slab, polymer-melt,
#                        #  vacuum-droplet, density-hotspot, ...)
atoms         1500       # water and zoo scenarios
boxSize       26.0       # water only, Å
#scale        0.1        # benchmark systems: fraction of full size
cutoff        8.0
timestep      1.0        # fs
steps         100
temperature   300
minimize      0          # steepest-descent steps before dynamics
thermostat    berendsen  # none | berendsen | langevin
berendsenTau  100
threads       2
pairlistMargin 2.5       # pair lists are built at cutoff + margin (Å) and
#                        #  reused until an atom moves margin/2; 0 = rebuild
#                        #  every step
outputName    demo       # writes demo.xyz
trajectoryEvery 10
pme           off        # full electrostatics (particle-mesh Ewald)
#pmeSpacing   1.2
#mtsFrequency 4          # r-RESPA: the reciprocal sum every 4 timesteps,
#                        #  applied 4-fold; bonded, LJ and real space every
#                        #  timestep; a logged step spans all 4
seed          42
#checkpointDir  ckpts    # periodic checkpoints (atomic write-rename)
#checkpointInterval 10   # steps between checkpoints
#restartFrom  ckpts      # resume from newest valid checkpoint in a dir
#                        # (or a specific .ckpt file); bit-identical resume
#faultPlan    kill:entry=PatchRecvForces:dst=1:skip=40  # crash drill
#maxRecoveries 3         # crash-recovery attempts before giving up
#recoveryBackoffMs 10    # base retry backoff, doubled per attempt
#schedule     shuffle    # fifo | shuffle | lifo | jitter
#scheduleSeed 1
#profileDir   prof       # Perfetto-loadable traces + phase/LB summaries
#profileInterval 10      # phases between full trace captures
";

fn load(path: &str) -> Result<namd_cli::config::RunConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text)
}

fn cmd_run(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!(
            "usage: namd-rs run <config-file> [--checkpoint-dir DIR] [--restart-from PATH] \
             [--profile-dir DIR] [--profile-interval N]"
        );
        return 2;
    };
    let mut cfg = match load(path) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("config error: {e}");
            return 1;
        }
    };
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--checkpoint-dir" => match it.next() {
                Some(d) => cfg.checkpoint_dir = d.clone(),
                None => {
                    eprintln!("--checkpoint-dir needs a directory");
                    return 2;
                }
            },
            "--restart-from" => match it.next() {
                Some(p) => cfg.restart_from = p.clone(),
                None => {
                    eprintln!("--restart-from needs a checkpoint file or directory");
                    return 2;
                }
            },
            "--profile-dir" => match it.next() {
                Some(d) => cfg.profile_dir = d.clone(),
                None => {
                    eprintln!("--profile-dir needs a directory");
                    return 2;
                }
            },
            "--profile-interval" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.profile_interval = n,
                None => {
                    eprintln!("--profile-interval needs a phase count");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown option {other}");
                return 2;
            }
        }
    }
    if let Err(e) = namd_cli::config::validate(&cfg) {
        eprintln!("config error: {e}");
        return 1;
    }
    match runner::run(&cfg, &mut std::io::stdout()) {
        Ok(_) => 0,
        // A config error only the run can see: a restart from a checkpoint
        // another integrator wrote.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            eprintln!("config error: {e}");
            1
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            1
        }
    }
}

fn cmd_info(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: namd-rs info <config-file>");
        return 2;
    };
    match load(path) {
        Ok(cfg) => {
            let sys = runner::build_system(&cfg);
            println!("config: {cfg:#?}");
            println!(
                "system: {} atoms, {} bonds, {} angles, {} dihedrals, {} impropers, {} restraints",
                sys.n_atoms(),
                sys.topology.bonds.len(),
                sys.topology.angles.len(),
                sys.topology.dihedrals.len(),
                sys.topology.impropers.len(),
                sys.topology.restraints.len(),
            );
            let decomp = build_decomposition(
                &sys,
                &SimConfig::new(1, machine::presets::generic_cluster()),
            );
            println!(
                "decomposition: {} patches ({}x{}x{}), {} compute objects",
                decomp.grid.n_patches(),
                decomp.grid.dims[0],
                decomp.grid.dims[1],
                decomp.grid.dims[2],
                decomp.computes.len()
            );
            0
        }
        Err(e) => {
            eprintln!("config error: {e}");
            1
        }
    }
}

fn cmd_bench(args: &[String]) -> i32 {
    // The system is resolved before any option so that an unknown name
    // (including the retired sweep names) gets the usage text, not an
    // "unknown option" for the first flag that followed it.
    let bench = match args.first().map(String::as_str) {
        Some("apoa1") => molgen::apoa1_like(),
        Some("bc1") => molgen::bc1_like(),
        Some("br") => molgen::br_like(),
        other => {
            if let Some(name) = other {
                eprintln!("unknown benchmark system '{name}'");
            }
            eprintln!(
                "usage: namd-rs bench <apoa1|bc1|br> [--machine M] [--pes LIST] [--steps N] \
                 [--scale F] [--schedule fifo|shuffle|lifo|jitter] [--schedule-seed N] \
                 [--fault-plan SPEC] [--profile-dir DIR]\n\
                 (the paper's DES scaling sweep on virtual PEs; for performance numbers \
                 of this code on this host run `bash benchmark/run.sh`)"
            );
            return 2;
        }
    };
    let mut machine = machine::presets::asci_red();
    let mut pes: Vec<usize> = vec![1, 8, 64, 256];
    let mut steps = 3usize;
    let mut scale = 1.0f64;
    let mut schedule_name = String::from("fifo");
    let mut schedule_seed = 0u64;
    let mut fault_plan: Option<charmrt::FaultPlan> = None;
    let mut profile_dir: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        match a.as_str() {
            "--machine" => match value(&mut it).as_deref() {
                Some("asci_red") => machine = machine::presets::asci_red(),
                Some("t3e") => machine = machine::presets::t3e_900(),
                Some("origin") => machine = machine::presets::origin2000(),
                Some("cluster") => machine = machine::presets::generic_cluster(),
                other => {
                    eprintln!("unknown machine {other:?}");
                    return 2;
                }
            },
            "--pes" => {
                let Some(v) = value(&mut it) else {
                    eprintln!("--pes needs a list");
                    return 2;
                };
                match v.split(',').map(|s| s.trim().parse::<usize>()).collect() {
                    Ok(list) => pes = list,
                    Err(_) => {
                        eprintln!("bad --pes list '{v}'");
                        return 2;
                    }
                }
            }
            "--steps" => match value(&mut it)
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
            {
                Some(n) => steps = n,
                None => {
                    eprintln!("bad --steps");
                    return 2;
                }
            },
            "--scale" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(f) => scale = f,
                None => {
                    eprintln!("bad --scale");
                    return 2;
                }
            },
            "--schedule" => match value(&mut it) {
                Some(name) => schedule_name = name,
                None => {
                    eprintln!("--schedule needs a policy name");
                    return 2;
                }
            },
            "--schedule-seed" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(s) => schedule_seed = s,
                None => {
                    eprintln!("bad --schedule-seed");
                    return 2;
                }
            },
            "--fault-plan" => match value(&mut it).map(|v| charmrt::FaultPlan::parse(&v)) {
                Some(Ok(plan)) => fault_plan = Some(plan),
                Some(Err(e)) => {
                    eprintln!("bad --fault-plan: {e}");
                    return 2;
                }
                None => {
                    eprintln!("--fault-plan needs a spec (e.g. drop:entry=PatchRecvForces)");
                    return 2;
                }
            },
            "--profile-dir" => match value(&mut it) {
                Some(d) => profile_dir = Some(d),
                None => {
                    eprintln!("--profile-dir needs a directory");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown option {other}");
                return 2;
            }
        }
    }
    let schedule = match charmrt::SchedulePolicy::parse(&schedule_name, schedule_seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bad --schedule: {e}");
            return 2;
        }
    };
    // `scaled` preserves density in both directions, so --scale can also
    // grow a deck (e.g. --scale 4 for a weak-scaling point).
    let bench = if scale != 1.0 {
        bench.scaled(scale)
    } else {
        bench
    };
    println!(
        "benchmark {} ({} atoms) on {}",
        bench.name, bench.n_atoms, machine.name
    );
    if schedule.kind != charmrt::SchedulePolicyKind::Fifo {
        println!(
            "schedule policy {:?}, seed {}",
            schedule.kind, schedule.seed
        );
    }
    if let Some(plan) = &fault_plan {
        println!("{}", namd_cli::fault_plan_line(plan));
    }
    let sys = bench.build();
    let decomp = build_decomposition(&sys, &SimConfig::new(1, machine));
    println!(
        "{} patches, {} computes, ideal 1-PE step {:.3} s",
        decomp.grid.n_patches(),
        decomp.computes.len(),
        decomp.ideal_step_time(&machine)
    );
    // Speedup scaled relative to the first PE count in the sweep (the
    // paper's own convention for systems too large to run on one node).
    println!("PEs      s/step   speedup");
    let mut base: Option<f64> = None;
    for &p in &pes {
        let cfg = match SimConfig::builder(p, machine)
            .schedule(schedule)
            .fault_plan(fault_plan.clone())
            .build()
        {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("bad configuration for {p} PEs: {e}");
                return 1;
            }
        };
        let mut e = Engine::with_decomposition(sys.clone(), decomp.clone(), cfg);
        if let Some(dir) = &profile_dir {
            // One registry per PE count: phase indices restart for each
            // engine, so each sweep point gets its own subdirectory.
            match MetricsRegistry::with_dir(format!("{dir}/pes{p:03}"), 1) {
                Ok(reg) => e.set_metrics(Some(reg)),
                Err(err) => {
                    eprintln!("cannot open profile dir {dir}: {err}");
                    return 1;
                }
            }
        }
        let t = match steady_phase(&mut e, steps) {
            Ok(phase) => phase.time_per_step,
            Err(err) => {
                eprintln!("error: {p} PEs: {err}");
                return 1;
            }
        };
        let b = *base.get_or_insert(t * pes[0] as f64);
        println!("{p:>4} {t:>11.4} {:>9.1}", b / t);
    }
    if let Some(dir) = &profile_dir {
        println!("profiles written under {dir}/ (load trace_*.json in ui.perfetto.dev)");
    }
    0
}
