//! Simulation configuration for the parallel engine.
//!
//! [`SimConfig`] remains a plain struct (struct-literal construction keeps
//! compiling), but the supported construction path is
//! [`SimConfig::builder`]: the builder validates at [`build`] time and
//! returns a typed [`ConfigError`] instead of the asserts that used to be
//! scattered through the engine.
//!
//! [`build`]: SimConfigBuilder::build

pub use charmrt::Backend;
use charmrt::MulticastMode;
use machine::MachineModel;

/// How compute objects obtain the work they declare to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceMode {
    /// Execute the real mdcore force kernels every step (positions evolve,
    /// energies are exact). Used for validation and small systems.
    Real,
    /// Count each compute's cutoff pairs once at decomposition time and
    /// replay the counts as declared work (the principle of persistence:
    /// object loads change only slowly, so a few-step timing window sees
    /// constant loads). Positions do not evolve. Used for the paper-scale
    /// benchmark tables, where recomputing 60M pair interactions per
    /// simulated step per PE-count would dominate wall time without
    /// changing any scheduling behaviour.
    Counted,
}

/// Which load-balancing pipeline the engine runs (§3.2 / ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbStrategy {
    /// Keep the initial static (upstream-rule) placement.
    None,
    /// Pseudo-random placement of migratable computes.
    Random,
    /// Round-robin placement of migratable computes.
    RoundRobin,
    /// Paper's greedy, but blind to patch/proxy locations.
    GreedyNoProxy,
    /// The paper's measurement-based greedy strategy.
    Greedy,
    /// Greedy followed by a refinement pass — the full §3.2 pipeline.
    GreedyRefine,
}

/// Modeled full-electrostatics (PME) configuration for the DES engine.
/// The physics lives in the `pme` crate; the engine models its parallel
/// cost: per-patch spread/gather work, slab-decomposed FFT objects, the
/// charge/potential messages, and the slab-transpose all-to-all.
#[derive(Debug, Clone, Copy)]
pub struct PmeSimConfig {
    /// Maximum mesh spacing, Å (the mesh per axis is the next power of two
    /// of box/spacing — matching `pme::mesh::PmeParams::for_cell`).
    pub mesh_spacing: f64,
    /// Evaluate the reciprocal sum on the global steps that are multiples
    /// of this (multiple timestepping; 1 = every step). In Real mode its
    /// force is applied `every`-fold on those steps (r-RESPA's impulse);
    /// bonded, LJ and real-space forces run every step.
    pub every: usize,
    /// Number of slab objects the mesh is decomposed into.
    pub slabs: usize,
}

impl Default for PmeSimConfig {
    fn default() -> Self {
        PmeSimConfig { mesh_spacing: 1.2, every: 4, slabs: 64 }
    }
}

/// Temperature control the home patches apply to the atoms they own
/// (Real mode). Either way the trajectory is the same bits on every
/// backend, PE count and placement, across checkpoints and rollbacks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Thermostat {
    /// Plain velocity Verlet (NVE).
    #[default]
    None,
    /// Berendsen weak coupling: after every update the velocities are
    /// rescaled by `mdcore::thermostat::Berendsen::lambda` of the system's
    /// temperature, taken in atom order at an in-phase barrier.
    Berendsen {
        /// Target temperature, K.
        target_k: f64,
        /// Coupling time constant, fs.
        tau_fs: f64,
    },
    /// Langevin dynamics by BAOAB, with noise keyed by (seed, atom, step)
    /// (`mdcore::thermostat::normal`), so no generator state exists.
    Langevin {
        /// Target temperature, K.
        target_k: f64,
        /// Friction coefficient γ, fs⁻¹.
        gamma: f64,
        /// Noise seed.
        seed: u64,
    },
}

/// Tunables for one parallel simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of (virtual) processors.
    pub n_pes: usize,
    /// Machine performance model (used by the DES backend only).
    pub machine: MachineModel,
    /// Execution substrate: modeled DES or real worker threads.
    pub backend: Backend,
    /// Patch side margin beyond the cutoff, Å (NAMD's "slightly larger than
    /// the cutoff radius").
    pub patch_margin: f64,
    /// Real kernels vs counted-work replay.
    pub force_mode: ForceMode,
    /// Timestep for Real mode, fs.
    pub dt_fs: f64,
    /// Margin beyond the cutoff, Å (`pairlistdist − cutoff`), at which each
    /// non-bonded compute (Real mode) builds the pair list it reuses across
    /// steps until an atom has moved `margin/2` — the parallel analogue of
    /// NAMD's `pairlistdist` reuse. Larger margins survive more motion
    /// between rebuilds but walk more candidates per step; 0 rebuilds every
    /// evaluation. Every margin gives the same bits.
    pub pairlist_margin: f64,
    /// Split self computes into pieces of at most this many atoms
    /// (grainsize control for within-cube work; always on in NAMD).
    pub self_split_atoms: usize,
    /// Split face-adjacent pair computes (§4.2.1's fix for the bimodal
    /// grainsize distribution). When false, Figure 1's 40+ ms tasks appear.
    pub split_face_pairs: bool,
    /// Atom budget per face-pair piece when splitting.
    pub pair_split_atoms: usize,
    /// Counted-mode grainsize target, work units per piece: splitting also
    /// ensures no self or face-pair piece exceeds this much counted work
    /// (≈11 ms on the ASCI-Red model at the 12,000 default — the "divide
    /// work into pieces ... around 5-15 ms" rule of the paper's conclusion).
    pub target_grain_work: f64,
    /// Coordinate multicast costing (§4.2.3).
    pub multicast: MulticastMode,
    /// Execute computes that feed *remote* patches at higher priority, so
    /// their force messages enter the network while local-only work still
    /// overlaps the wait — NAMD's prioritized execution of remote work
    /// (the "adaptive overlap" §2.2 credits to data-driven execution).
    pub prioritize_remote: bool,
    /// Make intra-cube bonded computes migratable (§4.2.2's optimization).
    pub migratable_bonded: bool,
    /// Load-balancing pipeline.
    pub lb: LbStrategy,
    /// Model full electrostatics (PME) on top of the cutoff computation.
    pub pme: Option<PmeSimConfig>,
    /// Per-PE speed factors (1.0 = nominal) — heterogeneous or externally
    /// loaded processors, the workstation-cluster scenario of the paper's
    /// ref \[3\]. Empty = homogeneous.
    pub pe_speeds: Vec<f64>,
    /// Slow load drift per phase (Counted mode): each compute's work
    /// performs a multiplicative random walk with this relative step,
    /// modeling "the slow large-scale movements of atoms in the
    /// simulation" (§3.2). 0 disables drift.
    pub load_drift: f64,
    /// Seeded dequeue-order perturbation, installed into each phase's
    /// runtime before injection. The default FIFO policy is bit-identical
    /// to the runtime's native ordering; shuffle/lifo/jitter exercise the
    /// paper's claim that correctness survives arbitrary message order.
    pub schedule: charmrt::SchedulePolicy,
    /// Fault plan (drop/duplicate/delay by predicate), installed fresh
    /// into each phase's runtime. Dropped messages are repaired by the
    /// engine's retry loop (timeout re-send) instead of wedging quiescence.
    pub fault_plan: Option<charmrt::FaultPlan>,
    /// Write a checkpoint every this many velocity-Verlet updates (Real
    /// mode only; 0 = off). The interval is counted on the *global* step
    /// counter (`Engine::steps_done`), so it survives phase boundaries.
    /// Checkpoints are `recovery::advance`'s: it writes `Engine::snapshot`
    /// between phases, at the rebuild boundaries the interval falls on.
    /// `Engine::try_run_phase` writes none.
    pub checkpoint_interval: usize,
    /// Directory checkpoints are written into (atomic write-then-rename).
    /// `None` disables checkpointing even when the interval is set.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Crash-recovery retry budget: give up after this many consecutive
    /// crash-recoveries without forward progress (read by
    /// `recovery::advance`; file key `maxRecoveries`).
    pub max_recoveries: u32,
    /// Base sleep before resuming after a crash, milliseconds; doubles per
    /// consecutive crash (file key `recoveryBackoffMs`).
    pub recovery_backoff_ms: u64,
    /// `proc` backend: directory for the per-run Unix domain sockets.
    /// `None` uses a fresh directory under the system temp dir.
    pub socket_dir: Option<std::path::PathBuf>,
    /// Temperature control (Real mode; `Thermostat::None` = NVE).
    pub thermostat: Thermostat,
}

impl SimConfig {
    /// A sensible default configuration for `n_pes` PEs on `machine`,
    /// with every paper optimization enabled.
    pub fn new(n_pes: usize, machine: MachineModel) -> Self {
        SimConfig {
            n_pes,
            machine,
            backend: Backend::Des,
            patch_margin: 3.5,
            force_mode: ForceMode::Counted,
            dt_fs: 1.0,
            pairlist_margin: 2.5,
            self_split_atoms: 160,
            split_face_pairs: true,
            pair_split_atoms: 112,
            target_grain_work: 12_000.0,
            multicast: MulticastMode::Optimized,
            prioritize_remote: true,
            migratable_bonded: true,
            lb: LbStrategy::GreedyRefine,
            pme: None,
            pe_speeds: Vec::new(),
            load_drift: 0.0,
            schedule: charmrt::SchedulePolicy::default(),
            fault_plan: None,
            checkpoint_interval: 0,
            checkpoint_dir: None,
            max_recoveries: 3,
            recovery_backoff_ms: 10,
            socket_dir: None,
            thermostat: Thermostat::None,
        }
    }

    /// The configuration NAMD had *before* the §4.2 optimizations: no
    /// face-pair splitting, naive multicast, non-migratable bonded work.
    pub fn unoptimized(n_pes: usize, machine: MachineModel) -> Self {
        SimConfig {
            split_face_pairs: false,
            multicast: MulticastMode::Naive,
            migratable_bonded: false,
            ..SimConfig::new(n_pes, machine)
        }
    }

    /// Start a validated configuration: `SimConfig::builder(n, m)...build()?`.
    pub fn builder(n_pes: usize, machine: MachineModel) -> SimConfigBuilder {
        SimConfigBuilder { cfg: SimConfig::new(n_pes, machine) }
    }

    /// Check every invariant the engine relies on. The builder calls this
    /// at [`SimConfigBuilder::build`]; the engine also re-checks before
    /// each phase so struct-literal (or post-hoc mutated) configurations
    /// fail with the same typed message instead of a scattered assert.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_pes == 0 {
            return Err(ConfigError::NoPes);
        }
        if !(self.dt_fs > 0.0 && self.dt_fs.is_finite()) {
            return Err(ConfigError::BadTimestep(self.dt_fs));
        }
        if !(self.patch_margin >= 0.0 && self.patch_margin.is_finite()) {
            return Err(ConfigError::BadMargin { which: "patch_margin", value: self.patch_margin });
        }
        if !(self.pairlist_margin >= 0.0 && self.pairlist_margin.is_finite()) {
            return Err(ConfigError::BadMargin {
                which: "pairlist_margin",
                value: self.pairlist_margin,
            });
        }
        if self.self_split_atoms == 0 {
            return Err(ConfigError::BadSplit { which: "self_split_atoms", value: 0 });
        }
        if self.pair_split_atoms == 0 {
            return Err(ConfigError::BadSplit { which: "pair_split_atoms", value: 0 });
        }
        if !(self.target_grain_work > 0.0 && self.target_grain_work.is_finite()) {
            return Err(ConfigError::BadGrainTarget(self.target_grain_work));
        }
        if !(self.load_drift >= 0.0 && self.load_drift.is_finite()) {
            return Err(ConfigError::BadLoadDrift(self.load_drift));
        }
        if !self.pe_speeds.is_empty() {
            if self.pe_speeds.len() != self.n_pes {
                return Err(ConfigError::BadPeSpeeds(format!(
                    "{} speeds for {} PEs",
                    self.pe_speeds.len(),
                    self.n_pes
                )));
            }
            if let Some(s) = self.pe_speeds.iter().find(|s| !(**s > 0.0 && s.is_finite())) {
                return Err(ConfigError::BadPeSpeeds(format!("speed {s} is not positive")));
            }
        }
        if let Some(p) = &self.pme {
            if !(p.mesh_spacing > 0.0 && p.mesh_spacing.is_finite()) {
                return Err(ConfigError::BadPme(format!("mesh_spacing {}", p.mesh_spacing)));
            }
            if p.slabs == 0 {
                return Err(ConfigError::BadPme("slabs must be at least 1".into()));
            }
        }
        match self.thermostat {
            Thermostat::None => {}
            _ if self.force_mode != ForceMode::Real => {
                return Err(ConfigError::BadThermostat(
                    "Counted mode moves no atom to thermostat; use force_mode Real".into(),
                ));
            }
            Thermostat::Berendsen { target_k, tau_fs } => {
                positive("target_k", target_k)?;
                positive("tau_fs", tau_fs)?;
            }
            Thermostat::Langevin { target_k, gamma, .. } => {
                positive("target_k", target_k)?;
                positive("gamma", gamma)?;
            }
        }
        if self.backend == Backend::Proc {
            if self.pme.is_some() {
                return Err(ConfigError::BadProc(
                    "PME, modeled or real, shares reciprocal-space state across PEs and \
                     cannot run with PEs in separate processes"
                        .into(),
                ));
            }
            if let Some(plan) = &self.fault_plan {
                if plan.rules.iter().any(|r| r.action != charmrt::FaultAction::Kill) {
                    return Err(ConfigError::BadProc(
                        "only kill fault rules map to real process termination; drop/dup/\
                         delay/corrupt rules need the in-process backends"
                            .into(),
                    ));
                }
            }
        }
        if self.checkpoint_dir.is_some() && self.checkpoint_interval == 0 {
            return Err(ConfigError::BadCheckpoint(
                "checkpoint_dir set but checkpoint_interval is 0".into(),
            ));
        }
        Ok(())
    }
}

/// A thermostat parameter must be positive and finite.
fn positive(which: &str, value: f64) -> Result<(), ConfigError> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::BadThermostat(format!(
            "{which} must be positive and finite, got {value}"
        )))
    }
}

/// Why a [`SimConfigBuilder::build`] (or the engine's own re-validation)
/// rejected a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `n_pes` was zero.
    NoPes,
    /// `dt_fs` was not a positive finite number.
    BadTimestep(f64),
    /// A margin (`patch_margin`/`pairlist_margin`) was negative or non-finite.
    BadMargin { which: &'static str, value: f64 },
    /// A split budget (`self_split_atoms`/`pair_split_atoms`) was zero.
    BadSplit { which: &'static str, value: usize },
    /// `target_grain_work` was not a positive finite number.
    BadGrainTarget(f64),
    /// `load_drift` was negative or non-finite.
    BadLoadDrift(f64),
    /// `pe_speeds` was non-empty but mismatched `n_pes` or held a
    /// non-positive speed.
    BadPeSpeeds(String),
    /// An invalid PME configuration.
    BadPme(String),
    /// An inconsistent checkpoint configuration.
    BadCheckpoint(String),
    /// An inconsistent multi-process (`backend=proc`) configuration.
    BadProc(String),
    /// A thermostat the engine cannot run, or a bad thermostat parameter.
    BadThermostat(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoPes => write!(f, "n_pes must be at least 1"),
            ConfigError::BadTimestep(dt) => {
                write!(f, "dt_fs must be positive and finite, got {dt}")
            }
            ConfigError::BadMargin { which, value } => {
                write!(f, "{which} must be non-negative and finite, got {value}")
            }
            ConfigError::BadSplit { which, value } => {
                write!(f, "{which} must be at least 1, got {value}")
            }
            ConfigError::BadGrainTarget(v) => {
                write!(f, "target_grain_work must be positive and finite, got {v}")
            }
            ConfigError::BadLoadDrift(v) => {
                write!(f, "load_drift must be non-negative and finite, got {v}")
            }
            ConfigError::BadPeSpeeds(msg) => write!(f, "pe_speeds: {msg}"),
            ConfigError::BadPme(msg) => write!(f, "pme: {msg}"),
            ConfigError::BadCheckpoint(msg) => write!(f, "checkpointing: {msg}"),
            ConfigError::BadProc(msg) => write!(f, "proc backend: {msg}"),
            ConfigError::BadThermostat(msg) => write!(f, "thermostat: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`SimConfig`] with build-time validation. Starts from
/// [`SimConfig::new`]'s defaults (every paper optimization on); each
/// setter overrides one knob; [`build`](SimConfigBuilder::build) validates
/// the whole configuration and returns a typed [`ConfigError`] on any
/// inconsistency.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Switch to the pre-§4.2 "unoptimized" baseline (no face-pair
    /// splitting, naive multicast, non-migratable bonded work).
    pub fn unoptimized(mut self) -> Self {
        self.cfg.split_face_pairs = false;
        self.cfg.multicast = MulticastMode::Naive;
        self.cfg.migratable_bonded = false;
        self
    }

    pub fn backend(mut self, backend: Backend) -> Self {
        self.cfg.backend = backend;
        self
    }

    pub fn force_mode(mut self, mode: ForceMode) -> Self {
        self.cfg.force_mode = mode;
        self
    }

    /// Timestep for Real mode, fs.
    pub fn dt_fs(mut self, dt: f64) -> Self {
        self.cfg.dt_fs = dt;
        self
    }

    /// Patch side margin beyond the cutoff, Å.
    pub fn patch_margin(mut self, margin: f64) -> Self {
        self.cfg.patch_margin = margin;
        self
    }

    /// Pair-list margin beyond the cutoff, Å (0 = rebuild every evaluation).
    pub fn pairlist(mut self, margin: f64) -> Self {
        self.cfg.pairlist_margin = margin;
        self
    }

    /// Grainsize control: self piece budget, face-pair splitting, pair
    /// piece budget.
    pub fn grainsize(mut self, self_atoms: usize, split_faces: bool, pair_atoms: usize) -> Self {
        self.cfg.self_split_atoms = self_atoms;
        self.cfg.split_face_pairs = split_faces;
        self.cfg.pair_split_atoms = pair_atoms;
        self
    }

    /// Counted-mode grainsize target (work units per piece).
    pub fn target_grain_work(mut self, work: f64) -> Self {
        self.cfg.target_grain_work = work;
        self
    }

    pub fn multicast(mut self, mode: MulticastMode) -> Self {
        self.cfg.multicast = mode;
        self
    }

    pub fn prioritize_remote(mut self, on: bool) -> Self {
        self.cfg.prioritize_remote = on;
        self
    }

    pub fn migratable_bonded(mut self, on: bool) -> Self {
        self.cfg.migratable_bonded = on;
        self
    }

    pub fn lb(mut self, strategy: LbStrategy) -> Self {
        self.cfg.lb = strategy;
        self
    }

    pub fn pme(mut self, pme: Option<PmeSimConfig>) -> Self {
        self.cfg.pme = pme;
        self
    }

    /// Per-PE speed factors (must match `n_pes` in length when non-empty).
    pub fn pe_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.cfg.pe_speeds = speeds;
        self
    }

    /// Slow load drift per phase (Counted mode).
    pub fn load_drift(mut self, sigma: f64) -> Self {
        self.cfg.load_drift = sigma;
        self
    }

    pub fn schedule(mut self, policy: charmrt::SchedulePolicy) -> Self {
        self.cfg.schedule = policy;
        self
    }

    pub fn fault_plan(mut self, plan: Option<charmrt::FaultPlan>) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Periodic checkpoints into `dir` every `interval` global steps, written
    /// by `recovery::advance` between phases (Real mode).
    pub fn checkpoint(mut self, dir: impl Into<std::path::PathBuf>, interval: usize) -> Self {
        self.cfg.checkpoint_dir = Some(dir.into());
        self.cfg.checkpoint_interval = interval;
        self
    }

    /// Crash-recovery retry policy: consecutive-crash budget and base
    /// backoff in milliseconds (doubles per consecutive crash).
    pub fn recovery(mut self, max_recoveries: u32, backoff_ms: u64) -> Self {
        self.cfg.max_recoveries = max_recoveries;
        self.cfg.recovery_backoff_ms = backoff_ms;
        self
    }

    /// Temperature control the home patches apply (Real mode).
    pub fn thermostat(mut self, thermostat: Thermostat) -> Self {
        self.cfg.thermostat = thermostat;
        self
    }

    /// `proc` backend: directory for the per-run Unix domain sockets.
    pub fn socket_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.socket_dir = Some(dir.into());
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::presets;

    #[test]
    fn default_config_enables_all_optimizations() {
        let c = SimConfig::new(64, presets::asci_red());
        assert!(c.split_face_pairs);
        assert_eq!(c.multicast, MulticastMode::Optimized);
        assert!(c.migratable_bonded);
        assert_eq!(c.lb, LbStrategy::GreedyRefine);
    }

    #[test]
    fn unoptimized_disables_them() {
        let c = SimConfig::unoptimized(64, presets::asci_red());
        assert!(!c.split_face_pairs);
        assert_eq!(c.multicast, MulticastMode::Naive);
        assert!(!c.migratable_bonded);
    }

    #[test]
    fn builder_matches_struct_construction() {
        let b = SimConfig::builder(16, presets::asci_red())
            .lb(LbStrategy::Greedy)
            .build()
            .unwrap();
        let mut s = SimConfig::new(16, presets::asci_red());
        s.lb = LbStrategy::Greedy;
        assert_eq!(format!("{b:?}"), format!("{s:?}"));
        let u = SimConfig::builder(8, presets::asci_red()).unoptimized().build().unwrap();
        let v = SimConfig::unoptimized(8, presets::asci_red());
        assert_eq!(format!("{u:?}"), format!("{v:?}"));
    }

    #[test]
    fn builder_rejects_invalid_configurations() {
        let m = presets::asci_red();
        assert_eq!(SimConfig::builder(0, m).build().unwrap_err(), ConfigError::NoPes);
        assert_eq!(
            SimConfig::builder(4, m).dt_fs(0.0).build().unwrap_err(),
            ConfigError::BadTimestep(0.0)
        );
        assert_eq!(
            SimConfig::builder(4, m).pairlist(-1.0).build().unwrap_err(),
            ConfigError::BadMargin { which: "pairlist_margin", value: -1.0 }
        );
        assert!(matches!(
            SimConfig::builder(4, m).pe_speeds(vec![1.0, 1.0]).build(),
            Err(ConfigError::BadPeSpeeds(_))
        ));
        assert!(matches!(
            SimConfig::builder(4, m).checkpoint("/tmp/x", 0).build(),
            Err(ConfigError::BadCheckpoint(_))
        ));
        // Real mode runs PME at any cadence (r-RESPA).
        for every in [1, 4] {
            let pme = Some(PmeSimConfig { every, ..PmeSimConfig::default() });
            SimConfig::builder(4, m).force_mode(ForceMode::Real).pme(pme).build().unwrap();
        }
        // Errors render a actionable message.
        let e = SimConfig::builder(0, m).build().unwrap_err();
        assert!(e.to_string().contains("n_pes"));
    }

    #[test]
    fn proc_backend_validations() {
        let m = presets::asci_red();
        // PME needs a shared address space.
        assert!(matches!(
            SimConfig::builder(4, m)
                .backend(Backend::Proc)
                .pme(Some(PmeSimConfig::default()))
                .build(),
            Err(ConfigError::BadProc(_))
        ));
        // Only kill rules map to real process termination.
        assert!(matches!(
            SimConfig::builder(4, m)
                .backend(Backend::Proc)
                .fault_plan(Some(charmrt::FaultPlan::parse("drop:entry=Done:limit=1").unwrap()))
                .build(),
            Err(ConfigError::BadProc(_))
        ));
        SimConfig::builder(4, m)
            .backend(Backend::Proc)
            .fault_plan(Some(charmrt::FaultPlan::parse("kill:entry=Done:dst=1").unwrap()))
            .build()
            .unwrap();
    }

    #[test]
    fn thermostat_validations() {
        let m = presets::asci_red();
        let real = || SimConfig::builder(4, m).force_mode(ForceMode::Real);
        let berendsen = Thermostat::Berendsen { target_k: 300.0, tau_fs: 100.0 };
        let langevin = Thermostat::Langevin { target_k: 300.0, gamma: 0.01, seed: 7 };
        for t in [berendsen, langevin] {
            assert_eq!(real().thermostat(t).build().unwrap().thermostat, t);
            // Counted mode has no atoms to thermostat; Real-mode PME takes
            // either thermostat.
            let counted = SimConfig::builder(4, m).thermostat(t).build().unwrap_err();
            assert!(counted.to_string().contains("Counted"), "{counted}");
            let pme = Some(PmeSimConfig { every: 2, ..PmeSimConfig::default() });
            assert_eq!(real().pme(pme).thermostat(t).build().unwrap().thermostat, t);
        }
        for (t, which) in [
            (Thermostat::Berendsen { target_k: 0.0, tau_fs: 100.0 }, "target_k"),
            (Thermostat::Berendsen { target_k: 300.0, tau_fs: -1.0 }, "tau_fs"),
            (Thermostat::Langevin { target_k: f64::NAN, gamma: 0.01, seed: 0 }, "target_k"),
            (Thermostat::Langevin { target_k: 300.0, gamma: 0.0, seed: 0 }, "gamma"),
            (Thermostat::Langevin { target_k: 300.0, gamma: f64::INFINITY, seed: 0 }, "gamma"),
        ] {
            let e = real().thermostat(t).build().unwrap_err();
            assert!(matches!(&e, ConfigError::BadThermostat(msg) if msg.contains(which)), "{e}");
        }
    }

    #[test]
    fn backend_display_fromstr_round_trip() {
        for b in [Backend::Des, Backend::Threads, Backend::Proc] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
            // Case-insensitive, like every other config value.
            assert_eq!(b.to_string().to_uppercase().parse::<Backend>().unwrap(), b);
        }
        assert!("qemu".parse::<Backend>().unwrap_err().contains("qemu"));
    }

    #[test]
    fn recovery_policy_knobs_flow_through_the_builder() {
        let c = SimConfig::builder(4, presets::asci_red()).recovery(7, 250).build().unwrap();
        assert_eq!(c.max_recoveries, 7);
        assert_eq!(c.recovery_backoff_ms, 250);
        let d = SimConfig::new(4, presets::asci_red());
        assert_eq!((d.max_recoveries, d.recovery_backoff_ms), (3, 10));
    }

    #[test]
    fn validate_accepts_every_preset_shape() {
        SimConfig::new(64, presets::asci_red()).validate().unwrap();
        SimConfig::unoptimized(64, presets::asci_red()).validate().unwrap();
        SimConfig::builder(4, presets::asci_red())
            .pe_speeds(vec![1.0, 0.5, 1.0, 2.0])
            .pme(Some(PmeSimConfig::default()))
            .load_drift(0.05)
            .build()
            .unwrap();
    }
}
