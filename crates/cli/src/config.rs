//! NAMD-style configuration-file parser.
//!
//! NAMD is driven by plain-text `key value` configuration files; `namd-rs`
//! accepts the same shape:
//!
//! ```text
//! # quick water box
//! system        water
//! atoms         3000
//! boxSize       34.0
//! cutoff        8.0
//! timestep      1.0
//! steps         100
//! temperature   300
//! thermostat    langevin
//! langevinGamma 0.01
//! threads       4
//! outputName    run1
//! trajectoryEvery 10
//! seed          42
//! ```
//!
//! Keys are case-insensitive; `#` starts a comment; later keys override
//! earlier ones. Unknown keys are errors (typos should not silently
//! de-configure a simulation).

use mdcore::prelude::System;
use namd_core::prelude::{Backend, ForceMode, PmeSimConfig, SimConfig, Thermostat};
use std::collections::BTreeMap;

/// Which molecular system to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Pure water box (`atoms`, `boxSize`).
    Water,
    /// The ApoA-I-like benchmark (optionally scaled).
    Apoa1,
    /// The BC1-like benchmark (optionally scaled).
    Bc1,
    /// The bR-like benchmark (optionally scaled).
    Br,
    /// A scenario-zoo stress system (`atoms`, `seed`, optionally scaled);
    /// the name is one of [`molgen::zoo::names`], e.g. `vacuum-droplet`.
    Zoo(&'static str),
}

/// Thermostat selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermostatKind {
    None,
    Berendsen,
    Langevin,
}

/// A parsed and validated run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub system: SystemKind,
    /// Benchmark scale factor (fraction of full size), for apoa1/bc1/br.
    pub scale: f64,
    /// Atom count for `system water`.
    pub atoms: usize,
    /// Cubic box edge for `system water`, Å.
    pub box_size: f64,
    pub cutoff: f64,
    /// Timestep, fs.
    pub timestep: f64,
    pub steps: usize,
    /// Initial/target temperature, K.
    pub temperature: f64,
    pub thermostat: ThermostatKind,
    pub langevin_gamma: f64,
    pub berendsen_tau: f64,
    /// PEs the engine runs on; every count gives the same trajectory.
    pub threads: usize,
    /// Runtime backend the engine runs on: `threads` (one OS thread per
    /// PE, the default), `proc` (one OS *process* per PE, exchanging packed
    /// wire messages over Unix sockets), or `des` (deterministic
    /// virtual-time execution). All three give the same bits.
    pub backend: Backend,
    /// Directory for the proc backend's Unix socket mesh (empty = a fresh
    /// directory under the system temp dir).
    pub socket_dir: String,
    /// Pair-list margin beyond the cutoff, Å: non-bonded pair lists are
    /// built at `cutoff + margin` and reused until an atom has moved half
    /// the margin (NAMD's `pairlistdist` reuse); 0 rebuilds every step.
    /// Every margin gives the same bits.
    pub pairlist_margin: f64,
    /// Basename for outputs (`<name>.xyz`, `<name>.energies`); empty = none.
    pub output_name: String,
    pub trajectory_every: usize,
    /// Full electrostatics via PME.
    pub pme: bool,
    pub pme_spacing: f64,
    /// Ewald screening parameter β (0 = auto from cutoff).
    pub ewald_beta: f64,
    /// r-RESPA outer/inner ratio k when PME is on (1 = off): the
    /// reciprocal sum runs on the global timesteps that are multiples of k
    /// and its force is applied k-fold as an impulse; bonded, LJ and
    /// real-space forces run every timestep. One logged step is one outer
    /// step, k timesteps long: `steps`, `trajectoryEvery` and
    /// `checkpointInterval` count outer steps.
    pub mts_frequency: usize,
    /// Restrain protein atoms to their initial positions.
    pub restrain_protein: bool,
    /// Steepest-descent minimization steps before dynamics (0 = none).
    pub minimize: usize,
    pub seed: u64,
    /// Directory for periodic checkpoints (empty = checkpointing off).
    pub checkpoint_dir: String,
    /// Steps between checkpoints (active only with `checkpointDir`).
    pub checkpoint_interval: usize,
    /// Resume from this checkpoint file, or from the newest valid
    /// checkpoint when the path is a directory (empty = fresh start).
    pub restart_from: String,
    /// Fault-injection plan (see `charmrt::FaultPlan::parse`); empty = none.
    /// `kill:...` rules exercise the crash-recovery loop, which needs
    /// `checkpointDir` to recover from.
    pub fault_plan: String,
    /// Give up after this many consecutive crash-recoveries (kill-rule
    /// fault plans with a `checkpointDir`).
    pub max_recoveries: u32,
    /// Base sleep before resuming after a crash, ms (doubles per
    /// consecutive crash).
    pub recovery_backoff_ms: u64,
    /// Message dequeue-order policy: fifo | shuffle | lifo | jitter.
    pub schedule: String,
    pub schedule_seed: u64,
    /// Directory for profiling output (empty = profiling off): Chrome-trace
    /// JSON files loadable in Perfetto plus `phases.jsonl` /
    /// `lb_audit.jsonl` summaries.
    pub profile_dir: String,
    /// Engine phases between full trace captures; summary lines are
    /// written every phase regardless. A phase runs up to the next
    /// trajectory frame, migration boundary or the run's end.
    pub profile_interval: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            system: SystemKind::Water,
            scale: 1.0,
            atoms: 3_000,
            box_size: 34.0,
            cutoff: 9.0,
            timestep: 1.0,
            steps: 50,
            temperature: 300.0,
            thermostat: ThermostatKind::None,
            langevin_gamma: 0.005,
            berendsen_tau: 100.0,
            threads: 1,
            backend: Backend::Threads,
            socket_dir: String::new(),
            pairlist_margin: 2.5,
            output_name: String::new(),
            trajectory_every: 10,
            pme: false,
            pme_spacing: 1.2,
            ewald_beta: 0.0,
            mts_frequency: 1,
            restrain_protein: false,
            minimize: 0,
            seed: 7,
            checkpoint_dir: String::new(),
            checkpoint_interval: 10,
            restart_from: String::new(),
            fault_plan: String::new(),
            max_recoveries: 3,
            recovery_backoff_ms: 10,
            schedule: String::from("fifo"),
            schedule_seed: 0,
            profile_dir: String::new(),
            profile_interval: 10,
        }
    }
}

impl RunConfig {
    /// Engine timesteps per logged step: `mtsFrequency` with `pme on`, else 1.
    pub fn mts_k(&self) -> usize {
        if self.pme {
            self.mts_frequency
        } else {
            1
        }
    }

    /// The engine configuration a run runs under — the twin of
    /// `serve::JobSpec::engine_config`: every engine key goes through
    /// [`SimConfig::builder`], so [`SimConfig::validate`] is the one check
    /// of threads, timestep, backend, pair-list margin, thermostat, fault
    /// plan, schedule, checkpointing, PME and the recovery policy. The
    /// checkpoint interval is in engine timesteps: `checkpointInterval`
    /// outer steps.
    pub fn engine_config(&self) -> Result<SimConfig, String> {
        let schedule = charmrt::SchedulePolicy::parse(&self.schedule, self.schedule_seed)
            .map_err(|e| format!("schedule: {e}"))?;
        let thermostat = match self.thermostat {
            ThermostatKind::None => Thermostat::None,
            ThermostatKind::Berendsen => {
                Thermostat::Berendsen { target_k: self.temperature, tau_fs: self.berendsen_tau }
            }
            ThermostatKind::Langevin => Thermostat::Langevin {
                target_k: self.temperature,
                gamma: self.langevin_gamma,
                seed: self.seed,
            },
        };
        let mut b = SimConfig::builder(self.threads, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(self.backend)
            .dt_fs(self.timestep)
            .pairlist(self.pairlist_margin)
            .thermostat(thermostat)
            .schedule(schedule)
            .recovery(self.max_recoveries, self.recovery_backoff_ms);
        if !self.socket_dir.is_empty() {
            b = b.socket_dir(&self.socket_dir);
        }
        if !self.fault_plan.is_empty() {
            let plan = charmrt::FaultPlan::parse(&self.fault_plan)
                .map_err(|e| format!("faultPlan: {e}"))?;
            b = b.fault_plan(Some(plan));
        }
        if !self.checkpoint_dir.is_empty() {
            let interval = self.checkpoint_interval.saturating_mul(self.mts_k());
            b = b.checkpoint(&self.checkpoint_dir, interval);
        }
        if self.pme {
            b = b.pme(Some(PmeSimConfig {
                mesh_spacing: self.pme_spacing,
                every: self.mts_frequency,
                ..PmeSimConfig::default()
            }));
        }
        b.build().map_err(|e| e.to_string())
    }

    /// The deck this config names: its atom count and its builder, from the
    /// one [`molgen::named_deck`] `serve` also calls.
    pub fn deck(&self) -> (usize, impl FnOnce() -> System) {
        let name = match self.system {
            SystemKind::Water => "water",
            SystemKind::Apoa1 => "apoa1",
            SystemKind::Bc1 => "bc1",
            SystemKind::Br => "br",
            SystemKind::Zoo(name) => name,
        };
        molgen::named_deck(
            name,
            self.atoms,
            self.box_size,
            self.cutoff,
            self.seed,
            self.scale,
            self.restrain_protein,
        )
        .expect("config parsing accepts known system names only")
    }
}

/// Parse a configuration file's text. Returns the config or a message
/// naming the offending line.
pub fn parse(text: &str) -> Result<RunConfig, String> {
    let mut kv: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let key = it.next().unwrap().to_ascii_lowercase();
        let value: String = it.collect::<Vec<_>>().join(" ");
        if value.is_empty() {
            return Err(format!("line {}: key '{key}' has no value", lineno + 1));
        }
        kv.insert(key, (value, lineno + 1));
    }

    let mut cfg = RunConfig::default();
    for (key, (value, lineno)) in kv {
        let err = |what: &str| format!("line {lineno}: {what}");
        let parse_f64 = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("line {lineno}: '{v}' is not a number"))
        };
        let parse_usize = |v: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("line {lineno}: '{v}' is not an integer"))
        };
        let parse_bool = |v: &str| match v.to_ascii_lowercase().as_str() {
            "on" | "yes" | "true" | "1" => Ok(true),
            "off" | "no" | "false" | "0" => Ok(false),
            other => Err(format!("line {lineno}: '{other}' is not on/off")),
        };
        match key.as_str() {
            "system" => {
                cfg.system = match value.to_ascii_lowercase().as_str() {
                    "water" => SystemKind::Water,
                    "apoa1" | "apoa-i" => SystemKind::Apoa1,
                    "bc1" => SystemKind::Bc1,
                    "br" | "bacteriorhodopsin" => SystemKind::Br,
                    other => match molgen::zoo::names().iter().find(|n| **n == other) {
                        Some(name) => SystemKind::Zoo(name),
                        None => {
                            return Err(err(&format!(
                                "unknown system '{other}' (water, apoa1, bc1, br, or a \
                                 zoo scenario: {})",
                                molgen::zoo::names().join(", ")
                            )))
                        }
                    },
                }
            }
            "scale" => cfg.scale = parse_f64(&value)?,
            "atoms" => cfg.atoms = parse_usize(&value)?,
            "boxsize" => cfg.box_size = parse_f64(&value)?,
            "cutoff" => cfg.cutoff = parse_f64(&value)?,
            "timestep" => cfg.timestep = parse_f64(&value)?,
            "steps" => cfg.steps = parse_usize(&value)?,
            "temperature" => cfg.temperature = parse_f64(&value)?,
            "thermostat" => {
                cfg.thermostat = match value.to_ascii_lowercase().as_str() {
                    "none" | "off" => ThermostatKind::None,
                    "berendsen" => ThermostatKind::Berendsen,
                    "langevin" => ThermostatKind::Langevin,
                    other => return Err(err(&format!("unknown thermostat '{other}'"))),
                }
            }
            "langevingamma" => cfg.langevin_gamma = parse_f64(&value)?,
            "berendsentau" => cfg.berendsen_tau = parse_f64(&value)?,
            "threads" => cfg.threads = parse_usize(&value)?,
            "backend" => cfg.backend = value.parse().map_err(|e: String| err(&e))?,
            "socketdir" => cfg.socket_dir = value,
            "pairlistmargin" => cfg.pairlist_margin = parse_f64(&value)?,
            "outputname" => cfg.output_name = value,
            "trajectoryevery" => cfg.trajectory_every = parse_usize(&value)?,
            "pme" => cfg.pme = parse_bool(&value)?,
            "pmespacing" => cfg.pme_spacing = parse_f64(&value)?,
            "ewaldbeta" => cfg.ewald_beta = parse_f64(&value)?,
            "mtsfrequency" => cfg.mts_frequency = parse_usize(&value)?,
            "restrainprotein" => cfg.restrain_protein = parse_bool(&value)?,
            "minimize" => cfg.minimize = parse_usize(&value)?,
            "seed" => cfg.seed = parse_usize(&value)? as u64,
            "checkpointdir" => cfg.checkpoint_dir = value,
            "checkpointinterval" => cfg.checkpoint_interval = parse_usize(&value)?,
            "restartfrom" => cfg.restart_from = value,
            "faultplan" => cfg.fault_plan = value,
            "maxrecoveries" => cfg.max_recoveries = parse_usize(&value)? as u32,
            "recoverybackoffms" => cfg.recovery_backoff_ms = parse_usize(&value)? as u64,
            "schedule" => cfg.schedule = value.to_ascii_lowercase(),
            "scheduleseed" => cfg.schedule_seed = parse_usize(&value)? as u64,
            "profiledir" => cfg.profile_dir = value,
            "profileinterval" => cfg.profile_interval = parse_usize(&value)?,
            other => return Err(err(&format!("unknown key '{other}'"))),
        }
    }
    validate(&cfg)?;
    Ok(cfg)
}

/// Check every value and cross-key consistency. `parse` runs this; callers
/// that mutate a parsed config afterwards (e.g. CLI flag overrides) should
/// re-run it. The engine keys are checked once, by [`SimConfig::validate`]
/// through [`RunConfig::engine_config`].
pub fn validate(cfg: &RunConfig) -> Result<(), String> {
    if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
        return Err(format!("scale must be in (0, 1], got {}", cfg.scale));
    }
    for (key, value) in [
        ("cutoff", cfg.cutoff),
        ("boxSize", cfg.box_size),
        ("langevinGamma", cfg.langevin_gamma),
        ("berendsenTau", cfg.berendsen_tau),
        ("pmeSpacing", cfg.pme_spacing),
    ] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(format!("{key} must be positive and finite, got {value}"));
        }
    }
    for (key, value) in [("temperature", cfg.temperature), ("ewaldBeta", cfg.ewald_beta)] {
        if !(value >= 0.0 && value.is_finite()) {
            return Err(format!("{key} must be non-negative and finite, got {value}"));
        }
    }
    let engine = cfg.engine_config()?;
    if matches!(cfg.system, SystemKind::Zoo(_)) && cfg.restrain_protein {
        return Err(
            "restrainProtein applies to the benchmark decks (apoa1/bc1/br), \
             not zoo scenarios"
                .into(),
        );
    }
    if cfg.system == SystemKind::Water && cfg.box_size < 2.0 * cfg.cutoff {
        return Err(format!(
            "boxSize {} too small for cutoff {} (need ≥ 2×cutoff)",
            cfg.box_size, cfg.cutoff
        ));
    }
    let (deck_atoms, _) = cfg.deck();
    if deck_atoms < 3 {
        return Err(format!(
            "atoms: the deck would hold {deck_atoms} atoms; a run needs at least 3"
        ));
    }
    if cfg.mts_frequency == 0 {
        return Err("mtsFrequency must be at least 1".into());
    }
    if cfg.pme && cfg.mts_frequency > 8 {
        return Err("mtsFrequency above 8 is unstable; choose 1-8".into());
    }
    if cfg.backend != Backend::Proc && !cfg.socket_dir.is_empty() {
        return Err("socketDir applies to backend proc only".into());
    }
    if engine.fault_plan.as_ref().is_some_and(|p| p.has_kills()) && engine.checkpoint_dir.is_none()
    {
        return Err("faultPlan has kill rules but no checkpointDir to recover from".into());
    }
    if !cfg.profile_dir.is_empty() && cfg.profile_interval == 0 {
        return Err("profileInterval must be at least 1".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_config() {
        let cfg = parse(
            "# demo\n\
             system apoa1\n\
             scale 0.25   # quarter size\n\
             cutoff 12\n\
             timestep 0.5\n\
             steps 20\n\
             thermostat berendsen\n\
             pme on\n\
             mtsFrequency 4\n",
        )
        .unwrap();
        assert_eq!(cfg.system, SystemKind::Apoa1);
        assert_eq!(cfg.scale, 0.25);
        assert_eq!(cfg.thermostat, ThermostatKind::Berendsen);
        assert!(cfg.pme);
        assert_eq!(cfg.mts_frequency, 4);
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let cfg = parse("system water\n").unwrap();
        assert_eq!(cfg.atoms, 3_000);
        assert_eq!(cfg.thermostat, ThermostatKind::None);
        assert!(!cfg.pme);
    }

    #[test]
    fn unknown_key_is_an_error_with_line_number() {
        // A typo, the two kernel-selection keys that were removed with the
        // cluster path, and `procs`, which only ever restated the PE count:
        // named in the error, never silently ignored.
        for (line, key) in [
            ("cutoof 12", "cutoof"),
            ("nbKernel listed", "nbkernel"),
            ("simdWidth x4", "simdwidth"),
            ("procs 2", "procs"),
        ] {
            let e = parse(&format!("system water\n{line}\n")).unwrap_err();
            assert!(e.contains("line 2") && e.contains(&format!("unknown key '{key}'")), "{e}");
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse("steps many\n").unwrap_err().contains("not an integer"));
        assert!(parse("pme maybe\n").unwrap_err().contains("on/off"));
        assert!(parse("system unobtainium\n").unwrap_err().contains("unknown system"));
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert!(parse("scale 1.5\n").unwrap_err().contains("scale"));
        // Engine keys fail with `ConfigError`'s text, the text serve returns.
        assert!(parse("threads 0\n").unwrap_err().contains("n_pes must be at least 1"));
        assert!(parse("system water\nboxSize 10\ncutoff 9\n")
            .unwrap_err()
            .contains("too small"));
        // Every run is the engine's, so Langevin, faults, schedules,
        // profiling and checkpoints run at any thread count, with or
        // without pme.
        for pme in ["", "pme on\nmtsFrequency 2\n"] {
            for keys in [
                "thermostat langevin\nthreads 2\n",
                "thermostat berendsen\nbackend des\nthreads 3\n",
                "faultPlan drop:entry=PatchRecvForces:limit=1\n",
                "schedule shuffle\n",
                "profileDir prof\n",
                "checkpointDir ck\nrestartFrom ck\n",
            ] {
                parse(&format!("{pme}{keys}")).unwrap_or_else(|e| panic!("{pme}{keys:?}: {e}"));
            }
        }
        parse("thermostat langevin\ncheckpointDir ck\nbackend proc\nthreads 2\n").unwrap();
        assert!(parse("pme on\nmtsFrequency 9\n").unwrap_err().contains("mtsFrequency"));
        assert!(parse("mtsFrequency 0\n").unwrap_err().contains("mtsFrequency"));
    }

    #[test]
    fn pairlist_keys_parse_and_validate() {
        let cfg = parse("pairlistMargin 1.5\n").unwrap();
        assert_eq!(cfg.pairlist_margin, 1.5);
        // Margin 0 rebuilds every list on every step.
        assert_eq!(parse("pairlistMargin 0\n").unwrap().pairlist_margin, 0.0);
        let defaults = parse("system water\n").unwrap();
        assert_eq!(defaults.pairlist_margin, 2.5);
        assert!(parse("pairlistMargin -1\n").unwrap_err().contains("pairlist_margin"));
        let e = parse("system water\npairlistCache off\n").unwrap_err();
        assert!(e.contains("line 2") && e.contains("unknown key 'pairlistcache'"), "{e}");
    }

    #[test]
    fn case_insensitive_keys_and_comments() {
        let cfg = parse("SYSTEM BR\nTimeStep 2.0 # big\n").unwrap();
        assert_eq!(cfg.system, SystemKind::Br);
        assert_eq!(cfg.timestep, 2.0);
    }

    #[test]
    fn profile_keys_parse_and_validate() {
        let cfg = parse("threads 2\nprofileDir prof\nprofileInterval 5\n").unwrap();
        assert_eq!(cfg.profile_dir, "prof");
        assert_eq!(cfg.profile_interval, 5);
        assert!(parse("threads 2\nprofileDir prof\nprofileInterval 0\n")
            .unwrap_err()
            .contains("profileInterval"));
    }

    #[test]
    fn backend_keys_parse_and_validate() {
        let cfg = parse("threads 3\nbackend proc\nsocketDir /tmp/mesh\n").unwrap();
        assert_eq!(cfg.backend, Backend::Proc);
        assert_eq!(cfg.socket_dir, "/tmp/mesh");
        // `backend des` needs no extra knobs.
        assert_eq!(parse("backend DES\n").unwrap().backend, Backend::Des);
        assert!(parse("backend qemu\n").unwrap_err().contains("unknown backend"));
        assert!(parse("threads 2\nsocketDir /tmp/mesh\n").unwrap_err().contains("backend proc"));
        // PME's reciprocal-space state is shared memory.
        assert!(parse("backend proc\npme on\n").unwrap_err().contains("PME"));
        // Proc workers exchange packed messages; queue-level faults other
        // than kills cannot reach them.
        assert!(parse(
            "threads 2\nbackend proc\nfaultPlan drop:entry=PatchRecvForces:limit=1\n"
        )
        .unwrap_err()
        .contains("only kill fault rules"));
    }

    #[test]
    fn zoo_scenarios_are_valid_systems() {
        let cfg = parse("system vacuum-droplet\natoms 1200\nseed 9\n").unwrap();
        assert_eq!(cfg.system, SystemKind::Zoo("vacuum-droplet"));
        assert_eq!(cfg.atoms, 1200);
        let cfg = parse("system MEMBRANE-SLAB\n").unwrap();
        assert_eq!(cfg.system, SystemKind::Zoo("membrane-slab"));
        // The unknown-system error now lists the zoo.
        let e = parse("system no-such-zoo\n").unwrap_err();
        assert!(e.contains("density-hotspot"), "{e}");
        // Restraints only make sense on the benchmark decks.
        assert!(parse("system polymer-melt\nrestrainProtein on\n")
            .unwrap_err()
            .contains("zoo"));
    }

    #[test]
    fn later_keys_override_earlier() {
        let cfg = parse("steps 10\nsteps 99\n").unwrap();
        assert_eq!(cfg.steps, 99);
    }

    #[test]
    fn recovery_keys_parse_with_defaults() {
        let cfg = parse("maxRecoveries 7\nrecoveryBackoffMs 25\n").unwrap();
        assert_eq!(cfg.max_recoveries, 7);
        assert_eq!(cfg.recovery_backoff_ms, 25);
        let defaults = parse("").unwrap();
        assert_eq!(defaults.max_recoveries, 3);
        assert_eq!(defaults.recovery_backoff_ms, 10);
        assert!(parse("maxRecoveries lots\n").unwrap_err().contains("integer"));
    }

    /// Values that panicked (exit 101) or ran garbage to exit 0 at the
    /// parent commit: each is now a config error naming its key (the
    /// timestep through `ConfigError`'s `dt_fs`).
    #[test]
    fn hostile_numbers_are_config_errors_naming_the_key() {
        for (text, key) in [
            ("timestep nan\n", "dt_fs"),
            ("timestep nan\nthreads 2\n", "dt_fs"),
            ("timestep inf\n", "dt_fs"),
            ("cutoff nan\n", "cutoff"),
            ("boxSize nan\n", "boxSize"),
            ("thermostat langevin\nlangevinGamma 0\n", "langevinGamma"),
            ("thermostat langevin\ntemperature 0\n", "target_k"),
            ("thermostat berendsen\ntemperature 0\n", "target_k"),
            ("pme on\npmeSpacing 0\n", "pmeSpacing"),
            ("temperature -5\n", "temperature"),
            ("temperature nan\n", "temperature"),
            ("atoms 2\n", "atoms"),
            ("atoms 0\nthreads 2\n", "atoms"),
            ("system vacuum-droplet\natoms 0\n", "atoms"),
            ("berendsenTau 0\n", "berendsenTau"),
            ("thermostat berendsen\nberendsenTau -10\n", "berendsenTau"),
            ("ewaldBeta -1\n", "ewaldBeta"),
        ] {
            let e = parse(&format!("system water\n{text}")).unwrap_err();
            assert!(e.contains(key), "{text:?}: {e}");
        }
    }

    /// Every engine key reaches its `SimConfig` field: the mirrors that
    /// used to copy them onto the driver are gone, so a key dropped here
    /// would silently de-configure a run.
    #[test]
    fn engine_config_carries_every_engine_key() {
        type Check = fn(&SimConfig) -> bool;
        let rows: [(&str, &str, Check); 13] = [
            ("threads", "threads 3", |c| c.n_pes == 3),
            ("timestep", "timestep 0.25", |c| c.dt_fs == 0.25),
            ("backend", "backend des", |c| c.backend == Backend::Des),
            (
                "thermostat berendsen + temperature + berendsenTau",
                "thermostat berendsen\ntemperature 250\nberendsenTau 50",
                |c| c.thermostat == Thermostat::Berendsen { target_k: 250.0, tau_fs: 50.0 },
            ),
            (
                "thermostat langevin + temperature + langevinGamma + seed",
                "thermostat langevin\ntemperature 250\nlangevinGamma 0.02\nseed 9",
                |c| c.thermostat == Thermostat::Langevin { target_k: 250.0, gamma: 0.02, seed: 9 },
            ),
            ("socketDir", "threads 2\nbackend proc\nsocketDir /tmp/mesh", |c| {
                c.socket_dir.as_deref() == Some(std::path::Path::new("/tmp/mesh"))
            }),
            ("pairlistMargin", "pairlistMargin 1.5", |c| c.pairlist_margin == 1.5),
            ("faultPlan", "threads 2\nfaultPlan drop:entry=PatchRecvForces:limit=3", |c| {
                c.fault_plan.as_ref().is_some_and(|p| p.rules.len() == 1)
            }),
            ("schedule + scheduleSeed", "threads 2\nschedule shuffle\nscheduleSeed 3", |c| {
                c.schedule == charmrt::SchedulePolicy::random_shuffle(3)
            }),
            ("checkpointDir + checkpointInterval", "checkpointDir ck\ncheckpointInterval 4", |c| {
                c.checkpoint_dir.as_deref() == Some(std::path::Path::new("ck"))
                    && c.checkpoint_interval == 4
            }),
            ("maxRecoveries", "maxRecoveries 7", |c| c.max_recoveries == 7),
            ("recoveryBackoffMs", "recoveryBackoffMs 25", |c| c.recovery_backoff_ms == 25),
            (
                "pme + pmeSpacing + mtsFrequency + checkpointInterval",
                "pme on\npmeSpacing 0.9\nmtsFrequency 3\ncheckpointDir ck\ncheckpointInterval 4",
                |c| {
                    c.pme.is_some_and(|p| p.mesh_spacing == 0.9 && p.every == 3)
                        && c.checkpoint_interval == 12
                },
            ),
        ];
        let default = parse("").unwrap().engine_config().unwrap();
        assert_eq!(default.force_mode, ForceMode::Real);
        for (key, text, carried) in rows {
            assert!(!carried(&default), "{key}: the row must not hold by default");
            let cfg = parse(&format!("{text}\n")).unwrap().engine_config().unwrap();
            assert!(carried(&cfg), "{key} did not reach the engine config: {cfg:?}");
        }
    }
}
