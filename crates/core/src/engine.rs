//! The parallel simulation engine: builds the decomposition, places objects,
//! runs measurement phases on a `charmrt::Runtime` backend, and holds the
//! load-balancing policy of §3.2 that `recovery::advance` applies at every
//! phase boundary.
//!
//! A *phase* is a fresh runtime instantiation (reducer + home patches +
//! proxies + computes for the current placement) run for a fixed number of
//! timesteps. Between phases the load balancer consumes the measured object
//! loads and produces a new placement; proxies are rebuilt for the new
//! placement exactly as NAMD "moves the objects, constructs new proxies as
//! necessary, and resumes the simulation".
//!
//! The timestep protocol, proxy/multicast wiring, grainsize control, and the
//! measure → strategy → refine policy are written once against the [`Runtime`]
//! trait: `SimConfig::backend` selects whether a phase executes on the
//! deterministic DES (modeled loads) or on real worker threads (measured
//! wall-clock loads).

use crate::chares::{
    BarrierChare, ComputeChare, Entries, HomePatch, ProxyPatch, Reducer, RunParams,
};
use crate::config::{ForceMode, LbStrategy, SimConfig, Thermostat};
use crate::costmodel;
use crate::decomp::{self, Decomposition};
use crate::messages::{EnergiesMsg, FixedAcc, PatchStateMsg};
use crate::nbcache::{self, ComputeCacheEntry};
use crate::state::{Frame, Shared, SimState, StepAcc};
use charmrt::{ObjId, Pe, Runtime, SummaryStats, Trace, WireCodec, PRIO_NORMAL};
use mdcore::prelude::*;
use profile::PairlistCounters;
use std::any::Any;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};

/// Shared read access to the engine's between-phase [`System`].
///
/// Dereferences to [`System`]; it borrows the engine, so it cannot be held
/// across a phase.
pub struct SystemRef<'a>(RwLockReadGuard<'a, SimState>);

impl Deref for SystemRef<'_> {
    type Target = System;
    fn deref(&self) -> &System {
        &self.0.system
    }
}

/// What [`Engine::forces`] hands out: [`SystemRef`]'s guard, seen as the
/// force array.
struct ForcesRef<'a>(RwLockReadGuard<'a, SimState>);

impl Deref for ForcesRef<'_> {
    type Target = [Vec3];
    fn deref(&self) -> &[Vec3] {
        &self.0.forces
    }
}

/// Exclusive write access to the between-phase [`System`], e.g. to edit
/// positions or velocities between phases.
pub struct SystemMut<'a>(RwLockWriteGuard<'a, SimState>);

impl Deref for SystemMut<'_> {
    type Target = System;
    fn deref(&self) -> &System {
        &self.0.system
    }
}

impl DerefMut for SystemMut<'_> {
    fn deref_mut(&mut self) -> &mut System {
        &mut self.0.system
    }
}

/// A phase ended by a kill fault instead of completing: a PE died, the
/// protocol can never reach quiescence, and — unlike a dropped message —
/// redelivery cannot repair it. [`crate::recovery::advance`] rolls back to
/// a snapshot instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCrash {
    /// The PE the fault plan killed.
    pub pe: Pe,
    /// Makespan up to crash detection, seconds.
    pub makespan: f64,
}

impl std::fmt::Display for PhaseCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase crashed: PE {} was killed by the fault plan after {:.6}s",
            self.pe, self.makespan
        )
    }
}

impl std::error::Error for PhaseCrash {}

/// A stable structural fingerprint of a system: FNV-1a over the topology's
/// term parameters (bit patterns), counts, and the box geometry.
/// Checkpoint compatibility checks use it to refuse restarting into a
/// different molecular system. Deliberately not `DefaultHasher`, whose
/// output is not stable across Rust releases — this hash is persisted.
pub fn topology_hash(system: &System) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn eat(&mut self, x: u64) {
            for b in x.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn eat_f(&mut self, x: f64) {
            self.eat(x.to_bits());
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let topo = &system.topology;
    h.eat(topo.atoms.len() as u64);
    for a in &topo.atoms {
        h.eat_f(a.mass);
        h.eat_f(a.charge);
        h.eat(a.lj_type as u64);
    }
    h.eat(topo.bonds.len() as u64);
    for b in &topo.bonds {
        h.eat(b.a as u64);
        h.eat(b.b as u64);
        h.eat_f(b.k);
        h.eat_f(b.r0);
    }
    h.eat(topo.angles.len() as u64);
    for t in &topo.angles {
        h.eat(t.a as u64);
        h.eat(t.b as u64);
        h.eat(t.c as u64);
        h.eat_f(t.k);
        h.eat_f(t.theta0);
    }
    h.eat(topo.dihedrals.len() as u64);
    for d in &topo.dihedrals {
        h.eat(d.a as u64);
        h.eat(d.b as u64);
        h.eat(d.c as u64);
        h.eat(d.d as u64);
        h.eat_f(d.k);
        h.eat(d.n as u64);
        h.eat_f(d.delta);
    }
    h.eat(topo.impropers.len() as u64);
    for d in &topo.impropers {
        h.eat(d.a as u64);
        h.eat(d.b as u64);
        h.eat(d.c as u64);
        h.eat(d.d as u64);
        h.eat_f(d.k);
        h.eat_f(d.psi0);
    }
    h.eat(topo.restraints.len() as u64);
    for r in &topo.restraints {
        h.eat(r.atom as u64);
        h.eat_f(r.k);
        h.eat_f(r.target.x);
        h.eat_f(r.target.y);
        h.eat_f(r.target.z);
    }
    h.eat_f(system.cell.lengths.x);
    h.eat_f(system.cell.lengths.y);
    h.eat_f(system.cell.lengths.z);
    h.0
}

/// Measurements from one phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Virtual seconds per timestep (makespan / steps).
    pub time_per_step: f64,
    /// Phase makespan, virtual seconds.
    pub total_time: f64,
    pub n_steps: usize,
    /// Summary profile for the phase.
    pub stats: SummaryStats,
    /// Full trace, when the attached registry wanted one for this phase.
    pub trace: Option<Trace>,
    /// Measured load per compute (seconds over the phase), indexed like
    /// `decomp.computes`. Non-migratable computes report 0 here (their time
    /// is in `background`).
    pub compute_loads: Vec<f64>,
    /// Per-PE background load over the phase.
    pub background: Vec<f64>,
    /// Per-step energies (Real mode only; empty in Counted mode). With PME
    /// at a cadence above 1, a record on a step without a PME round
    /// carries no reciprocal energy.
    pub energies: Vec<StepAcc>,
    /// Every per-phase counter in one place: pair-list cache activity,
    /// the message-conservation ledger, the critical path and wire
    /// traffic. The one consolidated surface — the deprecated per-field
    /// shims it replaced are gone.
    pub metrics: profile::PhaseMetrics,
    /// Entry ids for interpreting `stats`/`trace`.
    pub entries: Entries,
}

/// The parallel MD engine.
pub struct Engine {
    pub config: SimConfig,
    pub shared: Arc<Shared>,
    /// Home PE of each patch (static for a run; from RCB).
    pub patch_pe: Vec<Pe>,
    /// Current PE of each compute.
    pub placement: Vec<Pe>,
    /// Per-compute load-drift multipliers (Counted mode; all 1.0 without
    /// drift).
    pub drift: Vec<f64>,
    /// Deterministic RNG state for the drift random walk.
    drift_rng: u64,
    /// The global step counter: completed position updates in Real mode
    /// (a phase of `n` timesteps completes `n - 1`), counted steps in
    /// Counted mode (a phase of `n` timesteps counts `n`). Checkpoints
    /// capture it; the checkpoint, migration and PME cadences key on it.
    pub steps_done: usize,
    /// Measured per-compute loads from the last phase harvest, indexed like
    /// `decomp.computes` (a migration carries them to the successors);
    /// what [`Engine::migrate_atoms`] balances on. Every rollback snapshot
    /// `recovery::advance` takes at a rebuild boundary stores them, on disk
    /// or in memory, so a restore refines on measured loads at once.
    last_loads: Vec<f64>,
    /// Measured per-PE background loads from the last phase harvest.
    last_background: Vec<f64>,
    /// Opaque caller payload carried in snapshots (the CLI stores its
    /// energy baseline, frame high-water mark and migration cadence here).
    pub ckpt_extra: Vec<u8>,
    /// Observability registry (`None` = profiling off, the default). When
    /// attached, every phase records a [`profile::PhaseProfile`] (and a
    /// trace on the phases it wants one) and every load-balancer
    /// decision an [`profile::LbAudit`]; with a directory attached the
    /// registry streams Perfetto-loadable trace files and JSONL reports.
    pub metrics: Option<profile::MetricsRegistry>,
    /// Crashed phases since the last completed one — what
    /// [`crate::recovery::advance`] holds against `config.max_recoveries`.
    pub(crate) crashes: u32,
    /// The rebuild-boundary snapshot [`crate::recovery::advance`] keeps for
    /// a caller that asked for memory-source recovery.
    pub(crate) boundary: Option<ckpt::Snapshot>,
    /// One pair list per compute, indexed like `decomp.computes`: lent to
    /// compute `j` for a phase and taken back at harvest (a crashed phase
    /// drops them; empty entries stand in).
    pairlists: Vec<ComputeCacheEntry>,
    /// List builds and hits since construction or the last rebuild.
    pairlist_counts: PairlistCounters,
}

impl Engine {
    /// Build the decomposition and the initial static placement:
    /// patches via recursive coordinate bisection (weights = atom counts),
    /// computes on the home PE of their first patch — "distributed to a
    /// processor owning at least one home patch".
    pub fn new(system: System, config: SimConfig) -> Engine {
        let decomp = decomp::build(&system, &config);
        Engine::with_decomposition(system, decomp, config)
    }

    /// Like [`Engine::new`] but reusing a prebuilt decomposition — the
    /// decomposition (and its pair counting) is independent of the PE count,
    /// so scaling sweeps build it once and share it across configurations.
    pub fn with_decomposition(system: System, decomp: Decomposition, config: SimConfig) -> Engine {
        assert!(
            decomp.grid.n_patches() > 0,
            "decomposition must cover the system"
        );
        // Struct-literal configurations get the same typed diagnostics as
        // the builder, just as a panic instead of a Result.
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"));
        let (patch_pe, placement) = Self::static_placement(&decomp, config.n_pes);
        let n = system.n_atoms();
        // Real force mode + full electrostatics: the slab chares evaluate
        // the actual PME reciprocal sum (requires an Ewald-mode force field
        // so the real-space kernels use erfc screening).
        let pme_real = match (&config.force_mode, config.pme) {
            (ForceMode::Real, Some(p)) => {
                let beta = system
                    .forcefield
                    .ewald_beta
                    .expect("Real-mode PME needs ForceField::with_ewald (erfc real space)");
                let params = pme::mesh::PmeParams::for_cell(&system.cell, beta, p.mesh_spacing);
                Some(std::sync::Mutex::new(crate::state::PmeReal {
                    solver: pme::mesh::Pme::new(&system.cell, params),
                    ewald: pme::ewald::EwaldParams {
                        beta,
                        r_cut: system.forcefield.cutoff,
                        kmax: 0,
                    },
                    charges: system.charges(),
                    forces: vec![Vec3::ZERO; n],
                    rounds_done: 0,
                    energy: 0.0,
                }))
            }
            _ => None,
        };
        let n_computes = decomp.computes.len();
        let shared = Arc::new(Shared {
            frame: Frame::of(&system),
            state: std::sync::RwLock::new(SimState {
                system,
                forces: vec![Vec3::ZERO; n],
            }),
            decomp,
            pme_real,
        });
        Engine {
            config,
            shared,
            patch_pe,
            placement,
            drift: vec![1.0; n_computes],
            drift_rng: 0x5EED_5EED,
            steps_done: 0,
            last_loads: Vec::new(),
            last_background: Vec::new(),
            ckpt_extra: Vec::new(),
            metrics: None,
            crashes: 0,
            boundary: None,
            pairlists: Vec::new(),
            pairlist_counts: PairlistCounters::default(),
        }
    }

    /// Attach (or detach) the observability registry. See
    /// [`Engine::metrics`].
    pub fn set_metrics(&mut self, metrics: Option<profile::MetricsRegistry>) {
        self.metrics = metrics;
    }

    /// Advance the slow load drift by one phase: every compute's work
    /// multiplier takes a step of a multiplicative random walk with relative
    /// standard deviation `config.load_drift`, clamped to [0.25, 4].
    /// `recovery::advance` calls it at every boundary; the multipliers
    /// scale counted work only.
    pub(crate) fn advance_load_drift(&mut self) {
        let sigma = self.config.load_drift;
        if sigma <= 0.0 {
            return;
        }
        for d in &mut self.drift {
            // SplitMix64 → approximately N(0,1) via sum of uniforms.
            let mut g = 0.0;
            for _ in 0..4 {
                self.drift_rng = self.drift_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.drift_rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                g += (z as f64 / u64::MAX as f64) - 0.5;
            }
            let noise = g * (12.0f64 / 4.0).sqrt(); // var(U-½)=1/12, 4 summed
            *d = (*d * (1.0 + sigma * noise)).clamp(0.25, 4.0);
        }
    }

    /// The initial static placement: patches via RCB (atom-count weights),
    /// computes on the home PE of their first patch.
    fn static_placement(decomp: &Decomposition, n_pes: usize) -> (Vec<Pe>, Vec<Pe>) {
        let centers: Vec<[f64; 3]> = (0..decomp.grid.n_patches())
            .map(|p| {
                let c = decomp.grid.center(p);
                [c.x, c.y, c.z]
            })
            .collect();
        let weights = decomp.grid.patch_weights();
        let patch_pe = lb::rcb(&centers, &weights, n_pes);
        let placement: Vec<Pe> = decomp
            .computes
            .iter()
            .map(|c| patch_pe[c.patches[0]])
            .collect();
        (patch_pe, placement)
    }

    /// Atom migration between measurement phases, then a balancing step:
    /// re-bin every atom into its current patch and rebuild the compute
    /// objects (NAMD performs the same migration at pairlist updates, where
    /// the patch margin has been consumed by atomic motion), then the
    /// periodic refinement of `Engine::balance`.
    ///
    /// Patches keep their home PEs. Each compute takes over the PE and the
    /// last measured load of its predecessor ([`decomp::predecessors`]); a
    /// compute with none starts on the static rule's PE, unmeasured. Force
    /// sums do not depend on placement, so neither step changes a
    /// trajectory bit.
    pub fn migrate_atoms(&mut self) {
        self.rebuild();
        self.balance(false);
    }

    /// Rebuild the decomposition from the current positions, carrying each
    /// compute's PE, drift multiplier, measured load and pair-list buffers
    /// to its successor.
    pub(crate) fn rebuild(&mut self) {
        let shared = Arc::get_mut(&mut self.shared)
            .expect("migrate_atoms must run between phases (no live engine objects)");
        let decomp = decomp::build(
            &shared.state.get_mut().expect("state lock poisoned").system,
            &self.config,
        );
        debug_assert_eq!(
            decomp.grid.n_patches(),
            self.patch_pe.len(),
            "the grid is the cell's"
        );
        let old = std::mem::replace(&mut shared.decomp, decomp);
        let pred = decomp::predecessors(&old.computes, &shared.decomp.computes);
        // Patch membership changed: every cached candidate list and SoA
        // buffer is indexed by stale atom slots, so invalidate every entry.
        // Buffer capacity is recycled — entries re-prime (gather + list
        // build) on the next step without reallocating their Vec storage.
        self.pairlists = nbcache::recycled(std::mem::take(&mut self.pairlists), &pred);
        self.pairlist_counts = PairlistCounters::default();
        let computes = &shared.decomp.computes;
        self.placement = pred
            .iter()
            .zip(computes)
            .map(|(p, c)| p.map_or(self.patch_pe[c.patches[0]], |i| self.placement[i]))
            .collect();
        self.drift = pred
            .iter()
            .map(|p| p.map_or(1.0, |i| self.drift[i]))
            .collect();
        self.last_loads = if self.last_loads.len() == old.computes.len() {
            pred.iter()
                .map(|p| p.map_or(0.0, |i| self.last_loads[i]))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// The load-balancing policy of §3.2, on the last measured loads: at
    /// the `first` boundary, whose loads are the static placement's, audit
    /// that placement as `rcb-static` and apply the configured
    /// [`LbStrategy`]'s assignment; at every later boundary, and on a
    /// restore, refine from the carried placement — "to account for the
    /// slow changes of the simulation" — under `LbStrategy::GreedyRefine`
    /// only. The other strategies are single-pass, and `None` never moves
    /// anything. Does nothing without loads for the current computes.
    /// Returns the number of computes that moved.
    pub(crate) fn balance(&mut self, first: bool) -> usize {
        let n_computes = self.shared.decomp.computes.len();
        if (!first && self.config.lb != LbStrategy::GreedyRefine)
            || self.last_loads.len() != n_computes
            || self.last_background.len() != self.config.n_pes
        {
            return 0;
        }
        let (problem, map) = self.lb_problem_on(&self.last_loads, &self.last_background);
        let current: Vec<Pe> = map.iter().map(|&j| self.placement[j]).collect();
        let (strategy, assignment) = if first {
            self.audit_lb("rcb-static", &problem, &map, &current, &current);
            match self.strategy_assignment(&problem) {
                Some(decision) => decision,
                None => return 0,
            }
        } else {
            (
                "refine",
                lb::refine(&problem, &current, lb::RefineParams::default()).0,
            )
        };
        self.audit_lb(strategy, &problem, &map, &current, &assignment);
        self.apply_assignment(&map, &assignment)
    }

    /// Capture the engine's complete resumable state as a checkpoint
    /// snapshot: live positions/velocities (read under the state lock), the
    /// global step counter, the drift RNG stream, the last measured loads,
    /// and the caller's extra payload. The loads index the current computes,
    /// which are the ones [`Engine::restore`] rebuilds when the snapshot is
    /// taken at a rebuild boundary.
    pub fn snapshot(&self) -> ckpt::Snapshot {
        let sys = self.system();
        ckpt::Snapshot {
            step: self.steps_done as u64,
            topo_hash: topology_hash(&sys),
            cutoff: sys.forcefield.cutoff,
            dt_fs: self.config.dt_fs,
            n_pes: self.config.n_pes as u64,
            box_lengths: [sys.cell.lengths.x, sys.cell.lengths.y, sys.cell.lengths.z],
            positions: sys.positions.iter().map(|p| [p.x, p.y, p.z]).collect(),
            velocities: sys.velocities.iter().map(|v| [v.x, v.y, v.z]).collect(),
            drift_rng: self.drift_rng,
            drift: self.drift.clone(),
            loads: self.last_loads.clone(),
            background: self.last_background.clone(),
            extra: self.ckpt_extra.clone(),
        }
    }

    /// Restore the engine to a snapshot's state. Refuses (with a named
    /// error) a snapshot taken of a different system or run configuration;
    /// the PE count may differ, since placement changes no bit.
    /// Rebuilds the decomposition and pair-list caches from the restored
    /// positions — checkpoints are taken at atom-migration boundaries, so
    /// this rebuild reproduces exactly the decomposition the uninterrupted
    /// run built at the same global step, which is what makes the resumed
    /// trajectory bit-identical — then balances on the snapshot's loads as
    /// at a later boundary (a snapshot with loads is never taken before the
    /// first one), which refines under `LbStrategy::GreedyRefine`. Must run
    /// between phases (no live runtime).
    pub fn restore(&mut self, snap: &ckpt::Snapshot) -> Result<(), ckpt::CkptError> {
        {
            let sys = self.system();
            snap.check_compatible(
                topology_hash(&sys),
                sys.forcefield.cutoff,
                self.config.dt_fs,
                [sys.cell.lengths.x, sys.cell.lengths.y, sys.cell.lengths.z],
            )?;
            if snap.positions.len() != sys.n_atoms() || snap.velocities.len() != sys.n_atoms() {
                return Err(ckpt::CkptError::ConfigMismatch(format!(
                    "atom count: snapshot has {} positions / {} velocities, system has {}",
                    snap.positions.len(),
                    snap.velocities.len(),
                    sys.n_atoms()
                )));
            }
        }
        {
            let mut st = self.shared.state.write().expect("state lock poisoned");
            for (p, s) in st.system.positions.iter_mut().zip(&snap.positions) {
                *p = Vec3::new(s[0], s[1], s[2]);
            }
            for (v, s) in st.system.velocities.iter_mut().zip(&snap.velocities) {
                *v = Vec3::new(s[0], s[1], s[2]);
            }
            // Forces are re-evaluated by the next phase's bootstrap step.
            st.forces.fill(Vec3::ZERO);
        }
        // The same rebuild the uninterrupted run performed at this step.
        self.rebuild();
        self.drift_rng = snap.drift_rng;
        self.drift = snap.drift.clone();
        self.drift.resize(self.shared.decomp.computes.len(), 1.0);
        self.steps_done = snap.step as usize;
        self.last_loads = snap.loads.clone();
        self.last_background = snap.background.clone();
        self.ckpt_extra = snap.extra.clone();
        // A kept rollback point belongs to the trajectory this call left;
        // the driver puts its own back after restoring from it.
        self.boundary = None;
        self.balance(false);
        Ok(())
    }

    /// The decomposition (read-only).
    pub fn decomp(&self) -> &Decomposition {
        &self.shared.decomp
    }

    /// Pair-list builds and hits summed over the phases since construction
    /// or the last decomposition rebuild (which empties every list).
    pub fn pairlist_counts(&self) -> PairlistCounters {
        self.pairlist_counts
    }

    /// Read access to the between-phase system (positions, velocities,
    /// temperature, …): current after every completed phase and restore.
    pub fn system(&self) -> SystemRef<'_> {
        SystemRef(self.shared.state.read().expect("state lock poisoned"))
    }

    /// Write access to the between-phase system (positions, velocities).
    pub fn system_mut(&mut self) -> SystemMut<'_> {
        SystemMut(self.shared.state.write().expect("state lock poisoned"))
    }

    /// The total force on each atom at the last evaluated step (zero after
    /// a restore, until the next phase).
    pub fn forces(&self) -> impl Deref<Target = [Vec3]> + '_ {
        ForcesRef(self.shared.state.read().expect("state lock poisoned"))
    }

    /// Run one phase of `n_steps` timesteps under the current placement, on
    /// the backend selected by [`SimConfig::backend`]. Panics if a kill
    /// fault crashes the phase — use [`Engine::try_run_phase`] to recover.
    pub fn run_phase(&mut self, n_steps: usize) -> PhaseResult {
        self.try_run_phase(n_steps)
            .unwrap_or_else(|crash| panic!("unrecovered crash: {crash}"))
    }

    /// Like [`Engine::run_phase`], but a kill fault surfaces as
    /// [`PhaseCrash`] instead of panicking. The crashed runtime is
    /// abandoned with everything its patches integrated, so the state is
    /// still the phase-start one — recover with [`Engine::restore`]. A
    /// phase writes no checkpoint: `recovery::advance` writes them between
    /// phases.
    pub fn try_run_phase(&mut self, n_steps: usize) -> Result<PhaseResult, PhaseCrash> {
        let cfg = &self.config;
        let mut rt = cfg
            .backend
            .runtime(cfg.n_pes, cfg.machine, cfg.socket_dir.as_deref());
        self.try_run_phase_on(rt.as_mut(), n_steps)
    }

    /// Run one phase on a fresh runtime backend. The whole protocol —
    /// registration at the current placement, the timestep messages,
    /// measurement harvest — is backend-agnostic; only the meaning of a
    /// second (virtual vs wall-clock) differs.
    fn try_run_phase_on(
        &mut self,
        rt: &mut dyn Runtime,
        n_steps: usize,
    ) -> Result<PhaseResult, PhaseCrash> {
        assert!(n_steps > 0);
        // Re-validate each phase: the config is a public field, so a
        // caller may have mutated it since construction.
        self.config
            .validate()
            .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"));
        // A phase records a trace exactly when the registry wants one.
        let tracing = self.metrics.as_ref().is_some_and(|m| m.wants_trace());
        let cfg = &self.config;
        let decomp = &self.shared.decomp;
        let n_patches = decomp.grid.n_patches();
        let n_computes = decomp.computes.len();

        if let Some(pme) = &self.shared.pme_real {
            // Fresh slab chares restart their round counters each phase.
            pme.lock().unwrap().rounds_done = 0;
        }

        let entries = Entries::register(rt);
        rt.set_tracing(tracing);
        if !cfg.pe_speeds.is_empty() {
            rt.set_pe_speeds(cfg.pe_speeds.clone());
        }
        rt.set_schedule_policy(cfg.schedule);
        if let Some(plan) = &cfg.fault_plan {
            rt.set_fault_plan(plan.clone());
        }

        // The Berendsen barrier, at every step s ≥ 1 of the phase (s = 0 is
        // the previous phase's final step, which already paused there).
        let berendsen = match cfg.thermostat {
            Thermostat::Berendsen { target_k, tau_fs } => Some((
                mdcore::thermostat::Berendsen { target_k, tau_fs },
                cfg.dt_fs,
            )),
            _ => None,
        };
        let params = RunParams {
            n_steps,
            dt_fs: cfg.dt_fs,
            force_mode: cfg.force_mode,
            multicast: cfg.multicast,
            pme_every: cfg.pme.map_or(0, |p| p.every.max(1)),
            pairlist_margin: cfg.pairlist_margin,
            step_offset: self.steps_done,
            thermostat: cfg.thermostat,
        };

        // ---- Deterministic object-id layout -------------------------------
        // reducer = 0; patch p = 1+p; proxy k = 1+P+k; compute j = 1+P+NP+j.
        let mut proxy_keys: std::collections::BTreeSet<(usize, Pe)> = Default::default();
        for (j, c) in decomp.computes.iter().enumerate() {
            let pe = self.placement[j];
            for &p in &c.patches {
                if self.patch_pe[p] != pe {
                    proxy_keys.insert((p, pe));
                }
            }
        }
        // Number proxies in sorted key order so ids match registration order.
        let proxy_index: BTreeMap<(usize, Pe), usize> = proxy_keys
            .into_iter()
            .enumerate()
            .map(|(k, key)| (key, k))
            .collect();
        let n_proxies = proxy_index.len();
        let reducer_id = ObjId(0);
        let patch_id = |p: usize| ObjId(1 + p as u32);
        let proxy_id = |k: usize| ObjId(1 + n_patches as u32 + k as u32);
        let compute_id = |j: usize| ObjId(1 + (n_patches + n_proxies) as u32 + j as u32);

        // Local compute lists per (patch, pe).
        let mut local: BTreeMap<(usize, Pe), Vec<ObjId>> = BTreeMap::new();
        for (j, c) in decomp.computes.iter().enumerate() {
            let pe = self.placement[j];
            for &p in &c.patches {
                local.entry((p, pe)).or_default().push(compute_id(j));
            }
        }
        // Proxies per patch (sorted by PE via BTreeMap ordering).
        let mut patch_proxies: Vec<Vec<ObjId>> = vec![Vec::new(); n_patches];
        for (&(p, _pe), &k) in &proxy_index {
            patch_proxies[p].push(proxy_id(k));
        }

        // ---- PME slab plan (ids follow the computes) -----------------------
        // Patches need their slab's ObjId at construction time, so the slab
        // layout is computed here and the objects registered after the
        // computes.
        struct SlabPlan {
            n_slabs: usize,
            fft_per_slab: f64,
            transpose_bytes: usize,
            id_base: usize,
        }
        let slab_plan = cfg.pme.map(|pme| {
            let n_slabs = pme.slabs.clamp(1, n_patches);
            let mesh_dim = |l: f64| {
                ((l / pme.mesh_spacing).ceil() as usize)
                    .next_power_of_two()
                    .max(4)
            };
            let cell = decomp.grid.cell;
            let mesh_points =
                mesh_dim(cell.lengths.x) * mesh_dim(cell.lengths.y) * mesh_dim(cell.lengths.z);
            SlabPlan {
                n_slabs,
                fft_per_slab: costmodel::fft_work(mesh_points) / n_slabs as f64,
                transpose_bytes: (mesh_points / (n_slabs * n_slabs).max(1))
                    * costmodel::BYTES_PER_MESH_POINT,
                id_base: 1 + n_patches + n_proxies + n_computes,
            }
        });
        let slab_of_patch = |p: usize| {
            slab_plan
                .as_ref()
                .map(|sp| ObjId((sp.id_base + p % sp.n_slabs) as u32))
        };
        // The barrier chare takes the next dense id after the slabs.
        let n_slabs = slab_plan.as_ref().map_or(0, |sp| sp.n_slabs);
        let barrier_id =
            berendsen.map(|_| ObjId((1 + n_patches + n_proxies + n_computes + n_slabs) as u32));

        // ---- Register objects in id order ---------------------------------
        let reg = rt.register(Box::new(Reducer::new(n_patches)), 0, false);
        assert_eq!(reg, reducer_id);

        // Each home patch takes its atoms out of the between-phase state.
        let state = self.shared.state.read().expect("state lock poisoned");
        for p in 0..n_patches {
            let home_pe = self.patch_pe[p];
            let locals = local.get(&(p, home_pe)).cloned().unwrap_or_default();
            let expected = locals.len() + patch_proxies[p].len();
            let obj = HomePatch::new(
                p,
                self.shared.clone(),
                &state.system,
                entries,
                params,
                patch_proxies[p].clone(),
                locals,
                expected,
                reducer_id,
                slab_of_patch(p),
                barrier_id,
            );
            let id = rt.register(Box::new(obj), home_pe, false);
            assert_eq!(id, patch_id(p));
        }
        drop(state);

        for (&(p, pe), &k) in &proxy_index {
            let locals = local.get(&(p, pe)).cloned().unwrap_or_default();
            let expected = locals.len();
            debug_assert!(expected > 0, "proxy with no local computes");
            let obj = ProxyPatch::new(
                entries,
                patch_id(p),
                locals,
                expected,
                decomp.grid.atoms[p].len(),
            );
            let id = rt.register(Box::new(obj), pe, false);
            assert_eq!(id, proxy_id(k));
        }

        let mut pairlists = std::mem::take(&mut self.pairlists).into_iter();
        for (j, c) in decomp.computes.iter().enumerate() {
            let pe = self.placement[j];
            let targets: Vec<(ObjId, charmrt::EntryId, usize)> = c
                .patches
                .iter()
                .map(|&p| {
                    let bytes = decomp.grid.atoms[p].len() * costmodel::BYTES_PER_ATOM;
                    if self.patch_pe[p] == pe {
                        (patch_id(p), entries.patch_forces, bytes)
                    } else {
                        let k = proxy_index[&(p, pe)];
                        (proxy_id(k), entries.proxy_forces, bytes)
                    }
                })
                .collect();
            // A compute "feeds remote patches" when any force target is a
            // proxy (its results must cross the network before some patch
            // can integrate).
            let feeds_remote = targets.iter().any(|&(_, e, _)| e == entries.proxy_forces)
                || c.patches.iter().any(|&p| self.patch_pe[p] != pe);
            let exec_priority = if cfg.prioritize_remote && feeds_remote {
                charmrt::PRIO_HIGH
            } else {
                charmrt::PRIO_NORMAL
            };
            let obj = ComputeChare::new(
                j,
                self.shared.clone(),
                entries,
                params,
                targets,
                self.drift[j],
                exec_priority,
                pairlists.next().unwrap_or_default(),
            );
            let id = rt.register(Box::new(obj), pe, c.migratable);
            assert_eq!(id, compute_id(j));
        }

        // ---- PME slab objects (full electrostatics, modeled) --------------
        if let Some(sp) = &slab_plan {
            let slab_id = |k: usize| ObjId((sp.id_base + k) as u32);
            for k in 0..sp.n_slabs {
                let peers: Vec<ObjId> = (0..sp.n_slabs).filter(|&j| j != k).map(slab_id).collect();
                let patches: Vec<(ObjId, usize)> = (0..n_patches)
                    .filter(|p| p % sp.n_slabs == k)
                    .map(|p| {
                        (
                            patch_id(p),
                            decomp.grid.atoms[p].len() * costmodel::BYTES_PER_ATOM,
                        )
                    })
                    .collect();
                debug_assert!(!patches.is_empty());
                let obj = crate::chares::SlabChare::new(
                    self.shared.clone(),
                    entries,
                    peers,
                    patches,
                    sp.fft_per_slab,
                    sp.transpose_bytes,
                );
                let id = rt.register(Box::new(obj), k % cfg.n_pes, false);
                assert_eq!(id, slab_id(k));
            }
        }

        // ---- Barrier chare (after the slabs) ------------------------------
        if let Some(berendsen) = berendsen {
            let obj = BarrierChare::new(
                self.shared.clone(),
                entries,
                (0..n_patches).map(patch_id).collect(),
                berendsen,
            );
            let id = rt.register(Box::new(obj), 0, false);
            assert_eq!(Some(id), barrier_id);
        }

        // ---- Bootstrap and run --------------------------------------------
        for p in 0..n_patches {
            rt.inject(patch_id(p), entries.start, 0, PRIO_NORMAL, Vec::new());
        }
        // Delivery-guarantee repair loop: a run may fall short of protocol
        // completion when the fault plan loses messages (the DES drains its
        // event queue with work missing; the threads watchdog reports a
        // stall). Completion is exactly "every patch reported Done this
        // phase" — counts accumulate across repair attempts, so the target
        // is cumulative. Each retry models the senders' timeout re-sends.
        let done_target = rt.stats().entry_count[entries.done.idx()] + n_patches as u64;
        let mut total_time: f64 = 0.0;
        let mut attempts = 0u32;
        loop {
            let t = match rt.try_run() {
                Ok(t) => t,
                Err(stall) => stall.makespan,
            };
            total_time = total_time.max(t);
            if let Some(pe) = rt.crashed() {
                // A PE kill is not a delivery fault: no amount of re-sending
                // heals it. Surface the crash so a recovery driver can roll
                // back to the latest checkpoint.
                return Err(PhaseCrash {
                    pe,
                    makespan: total_time,
                });
            }
            if rt.stats().entry_count[entries.done.idx()] >= done_target {
                break;
            }
            attempts += 1;
            assert!(
                attempts < 16,
                "phase incomplete after {attempts} delivery-repair attempts \
                 (fault plan drops more than retries can heal)"
            );
            let resent = rt.redeliver_dead_letters();
            assert!(
                resent > 0,
                "phase incomplete but no dead letters to redeliver: \
                 protocol wedged without message loss"
            );
        }

        // ---- Harvest measurements -----------------------------------------
        let snapshot = rt.ldb().snapshot(rt.placement());
        let compute_loads: Vec<f64> = (0..n_computes)
            .map(|j| snapshot.objects[compute_id(j).idx()].load)
            .collect();
        // Real mode: the patches hand their atoms back and the reducer the
        // energies it summed — on every backend through the objects' own
        // `harvest_state`, the path that also crosses `proc`'s process
        // boundary.
        let mut energies = Vec::new();
        if cfg.force_mode == ForceMode::Real {
            let mut state = self.shared.state.write().expect("state lock poisoned");
            let state = &mut *state;
            for (p, ids) in decomp.grid.atoms.iter().enumerate() {
                let atoms = PatchStateMsg::unpack(&rt.object(patch_id(p)).harvest_state())
                    .expect("a home patch harvests its PatchStateMsg");
                for (slot, &a) in ids.iter().enumerate() {
                    state.system.positions[a as usize] = atoms.positions[slot];
                    state.system.velocities[a as usize] = atoms.velocities[slot];
                    state.forces[a as usize] = atoms.forces[slot];
                }
            }
            energies = EnergiesMsg::unpack(&rt.object(reducer_id).harvest_state())
                .expect("the reducer harvests its EnergiesMsg")
                .steps
                .iter()
                .map(FixedAcc::to_f64)
                .collect();
        }

        // Remember harvest + progress for checkpoint snapshots: a snapshot
        // taken after this phase must carry the measured loads the LB would
        // have seen, and the global step counter advances by the number of
        // velocity-Verlet updates completed (n_steps evaluations chain with
        // the next phase's boundary evaluation, hence n_steps - 1 updates);
        // a Counted phase has no bootstrap evaluation to chain.
        self.last_loads = compute_loads.clone();
        self.last_background = snapshot.background.clone();
        self.steps_done += match cfg.force_mode {
            ForceMode::Real => n_steps - 1,
            ForceMode::Counted => n_steps,
        };

        // Every compute hands back its list and the phase's counters — on
        // `proc` the parent's never-run copy: the list it was lent and the
        // counters its worker harvested.
        let mut lists = PairlistCounters::default();
        for j in 0..n_computes {
            let obj: &mut dyn Any = rt.object_mut(compute_id(j));
            let compute: &mut ComputeChare = obj.downcast_mut().expect("compute ids hold computes");
            let mut list = std::mem::take(&mut compute.pairlist);
            lists.builds += list.counts.builds;
            lists.hits += list.counts.hits;
            list.counts = PairlistCounters::default();
            self.pairlists.push(list);
        }
        self.pairlist_counts.builds += lists.builds;
        self.pairlist_counts.hits += lists.hits;
        let stats = rt.stats().clone();
        let metrics = profile::PhaseMetrics::of(&stats, lists);
        let result = PhaseResult {
            time_per_step: total_time / n_steps as f64,
            total_time,
            n_steps,
            trace: tracing.then(|| rt.trace().clone()),
            stats,
            compute_loads,
            background: snapshot.background,
            energies,
            metrics,
            entries,
        };
        if let Some(reg) = self.metrics.as_mut() {
            if let Err(e) = reg.record_phase(
                self.config.backend.as_str(),
                &result.stats,
                result.trace.as_ref(),
                total_time,
                n_steps,
                result.metrics,
            ) {
                // A full disk must not kill the simulation; the in-memory
                // profile is still intact.
                eprintln!("profile: failed to stream phase records: {e}");
            }
        }
        Ok(result)
    }

    /// Build the LB problem from a phase's measurements. Returns the problem
    /// and the mapping from problem compute index to engine compute index.
    pub fn lb_problem(&self, measured: &PhaseResult) -> (lb::LbProblem, Vec<usize>) {
        self.lb_problem_on(&measured.compute_loads, &measured.background)
    }

    /// [`Engine::lb_problem`] on per-compute `loads` (indexed like
    /// `decomp.computes`) and per-PE `background` loads.
    fn lb_problem_on(&self, loads: &[f64], background: &[f64]) -> (lb::LbProblem, Vec<usize>) {
        let decomp = &self.shared.decomp;
        let mut computes = Vec::new();
        let mut map = Vec::new();
        for (j, c) in decomp.computes.iter().enumerate() {
            if c.migratable {
                computes.push(lb::ComputeSpec {
                    load: loads[j],
                    patches: c.patches.clone(),
                });
                map.push(j);
            }
        }
        (
            lb::LbProblem {
                n_pes: self.config.n_pes,
                background: background.to_vec(),
                patch_home: self.patch_pe.clone(),
                computes,
            },
            map,
        )
    }

    /// Apply an assignment produced for [`Engine::lb_problem`]'s problem.
    /// Returns the number of computes that moved.
    pub fn apply_assignment(&mut self, map: &[usize], assignment: &[Pe]) -> usize {
        assert_eq!(map.len(), assignment.len());
        let mut moved = 0;
        for (k, &j) in map.iter().enumerate() {
            if self.placement[j] != assignment[k] {
                self.placement[j] = assignment[k];
                moved += 1;
            }
        }
        moved
    }

    /// Record a load-balancer decision into the attached registry (no-op
    /// without one): predicted per-PE loads under the old and new
    /// placement, plus the exact migration list.
    fn audit_lb(
        &mut self,
        strategy: &str,
        problem: &lb::LbProblem,
        map: &[usize],
        current: &[Pe],
        assignment: &[Pe],
    ) {
        let Some(reg) = self.metrics.as_mut() else {
            return;
        };
        let predicted = |asg: &[Pe]| {
            let mut loads = problem.background.clone();
            for (k, c) in problem.computes.iter().enumerate() {
                loads[asg[k]] += c.load;
            }
            loads
        };
        let migrations = current
            .iter()
            .zip(assignment)
            .enumerate()
            .filter(|(_, (from, to))| from != to)
            .map(|(k, (&from, &to))| profile::Migration {
                compute: map[k],
                from,
                to,
            })
            .collect();
        let audit = profile::LbAudit {
            phase: reg.phases.len().saturating_sub(1),
            strategy: strategy.to_string(),
            before: predicted(current),
            after: predicted(assignment),
            migrations,
        };
        if let Err(e) = reg.record_lb(audit) {
            eprintln!("profile: failed to stream LB audit: {e}");
        }
    }

    /// The configured [`LbStrategy`]'s assignment for the measured loads,
    /// with its audit-log name; `None` for `LbStrategy::None`.
    fn strategy_assignment(
        &self,
        problem: &lb::LbProblem,
    ) -> Option<(&'static str, Vec<Pe>)> {
        Some(match self.config.lb {
            LbStrategy::None => return None,
            LbStrategy::Random => ("random", lb::random_assign(problem, 0xC0FFEE)),
            LbStrategy::RoundRobin => ("round-robin", lb::round_robin(problem)),
            LbStrategy::GreedyNoProxy => ("greedy-no-proxy", lb::greedy_no_proxy(problem)),
            LbStrategy::Greedy | LbStrategy::GreedyRefine => {
                ("greedy", lb::greedy(problem, lb::GreedyParams::default()))
            }
        })
    }

    /// Number of proxy patches the current placement requires — one per
    /// (patch, PE) pair where a compute on that PE needs a remote patch.
    /// The quantity the greedy strategy's proxy-awareness minimizes.
    pub fn proxy_count(&self) -> usize {
        let mut proxies = std::collections::BTreeSet::new();
        for (j, c) in self.shared.decomp.computes.iter().enumerate() {
            let pe = self.placement[j];
            for &p in &c.patches {
                if self.patch_pe[p] != pe {
                    proxies.insert((p, pe));
                }
            }
        }
        proxies.len()
    }

    /// Modeled GFLOPS at a given per-step time, rated the paper's way:
    /// single-processor FLOP count per step divided by parallel step time.
    pub fn gflops(&self, time_per_step: f64) -> f64 {
        let work = self.decomp().total_compute_work() + self.decomp().total_integration_work();
        costmodel::flops(work) / time_per_step / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::recovery::tests::phases;
    use machine::presets;

    fn small_system() -> System {
        molgen::SystemBuilder::new(molgen::SystemSpec {
            name: "engine-test",
            box_lengths: Vec3::new(36.0, 36.0, 36.0),
            target_atoms: 4200,
            protein_chains: 1,
            protein_chain_len: 60,
            lipid_slab: None,
            cutoff: 8.0,
            seed: 11,
        })
        .build()
    }

    #[test]
    fn phase_runs_and_measures() {
        let cfg = SimConfig::builder(8, presets::asci_red()).build().unwrap();
        let mut eng = Engine::new(small_system(), cfg);
        let r = eng.run_phase(2);
        assert!(r.time_per_step > 0.0 && r.time_per_step.is_finite());
        // Integration ran once per patch per step.
        let n_patches = eng.decomp().grid.n_patches();
        assert_eq!(
            r.stats.entry_count[r.entries.integrate.idx()],
            (n_patches * 2) as u64
        );
        // Every migratable compute accumulated some load.
        for (j, c) in eng.decomp().computes.iter().enumerate() {
            if c.migratable && c.work > 0.0 {
                assert!(r.compute_loads[j] > 0.0, "compute {j} has zero load");
            }
        }
    }

    #[test]
    fn single_pe_time_matches_ideal_plus_overhead() {
        let cfg = SimConfig::builder(1, presets::asci_red()).build().unwrap();
        let mut eng = Engine::new(small_system(), cfg);
        let ideal = eng.decomp().ideal_step_time(&presets::asci_red());
        let r = eng.run_phase(1);
        assert!(r.time_per_step >= ideal, "cannot beat ideal");
        // The test system is tiny (4,200 atoms at an 8 Å cutoff), so local
        // messaging overhead is a visible fraction of the step; on ApoA-I
        // scale the 1-PE overhead is ~7%.
        assert!(
            r.time_per_step < 1.35 * ideal,
            "1-PE overhead too big: {} vs ideal {ideal}",
            r.time_per_step
        );
    }

    #[test]
    fn more_pes_is_faster() {
        let sys = small_system();
        let mut times = Vec::new();
        for n_pes in [1usize, 4, 16] {
            let cfg = SimConfig::builder(n_pes, presets::asci_red())
                .build()
                .unwrap();
            let mut eng = Engine::new(sys.clone(), cfg);
            times.push(phases(&mut eng, 2, 3)[2].time_per_step);
        }
        assert!(times[1] < times[0], "4 PEs not faster than 1: {times:?}");
        assert!(times[2] < times[1], "16 PEs not faster than 4: {times:?}");
    }

    #[test]
    fn load_balancing_improves_step_time() {
        let cfg = SimConfig::builder(12, presets::asci_red()).build().unwrap();
        let mut eng = Engine::new(small_system(), cfg);
        // Static placement, greedy, refined.
        let run = phases(&mut eng, 2, 3);
        let (initial, last) = (run[0].time_per_step, run[2].time_per_step);
        assert!(
            last <= initial * 1.02,
            "LB should not hurt: {initial} -> {last}"
        );
    }

    #[test]
    fn deterministic_benchmark() {
        let run = |seed_sys: System| {
            let cfg = SimConfig::builder(6, presets::asci_red()).build().unwrap();
            phases(&mut Engine::new(seed_sys, cfg), 2, 3)[2].time_per_step
        };
        let a = run(small_system());
        let b = run(small_system());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn real_mode_conserves_energy() {
        let mut sys = small_system();
        sys.thermalize(100.0, 3);
        let cfg = SimConfig::builder(4, presets::ideal())
            .force_mode(ForceMode::Real)
            .dt_fs(0.5)
            .build()
            .unwrap();
        let mut eng = Engine::new(sys, cfg);
        let r = eng.run_phase(40);
        assert_eq!(r.energies.len(), 40);
        let e0 = r.energies[2].total();
        let e1 = r.energies[39].total();
        let drift = (e1 - e0).abs() / e0.abs().max(1.0);
        assert!(drift < 1e-2, "parallel NVE drift {drift}: {e0} -> {e1}");
    }

    #[test]
    fn real_mode_matches_sequential_trajectory() {
        let mut sys = small_system();
        sys.thermalize(150.0, 5);
        let seq_sys = sys.clone();

        // Parallel: 3 steps of velocity Verlet on the DES.
        let cfg = SimConfig::builder(5, presets::ideal())
            .force_mode(ForceMode::Real)
            .dt_fs(1.0)
            .build()
            .unwrap();
        let mut eng = Engine::new(sys, cfg);
        let r = eng.run_phase(3);

        // Sequential reference. A 3-step parallel phase performs 3 force
        // evaluations but only 2 position updates (the final integrate does
        // not drift), so run the sequential simulator for 2 steps.
        let mut seq = seq_sys;
        let mut sim = mdcore::sim::Simulator::new(&seq, 1.0);
        let seq_energies: Vec<_> = (0..2).map(|_| sim.step(&mut seq)).collect();

        // Parallel step s evaluates the configuration after s position
        // updates, i.e. sequential step s's potential (parallel step 0 is
        // the initial configuration, which the Simulator never reports).
        for s in 1..3 {
            let par = r.energies[s].potential();
            let seq_e = seq_energies[s - 1].potential();
            let tol = 1e-6 * seq_e.abs().max(1.0);
            assert!(
                (par - seq_e).abs() < tol,
                "step {s}: parallel {par} vs sequential {seq_e}"
            );
        }

        // Positions after the phase match the sequential trajectory after
        // 2 updates; verify a sample of atoms.
        let sys = eng.system();
        for i in (0..sys.n_atoms()).step_by(97) {
            let d = (sys.positions[i] - seq.positions[i]).norm();
            assert!(d < 1e-6, "atom {i} diverged by {d}");
        }
    }

    #[test]
    fn loads_follow_their_computes_through_a_migration_and_a_restore() {
        let sys = small_system();
        let cfg = SimConfig::builder(2, presets::ideal())
            .force_mode(ForceMode::Real)
            .build()
            .unwrap();
        let mut eng = Engine::new(sys.clone(), cfg.clone());
        let r = eng.run_phase(2);
        // Crowd patch 0 so its computes split into more pieces and every
        // later compute index shifts at the migration.
        {
            let centre = eng.decomp().grid.center(0);
            let mut sys = eng.system_mut();
            for (k, p) in sys.positions.iter_mut().take(80).enumerate() {
                *p = centre + Vec3::new(0.05 * k as f64 - 2.0, 0.5, -0.5);
            }
        }
        let before = eng.decomp().computes.clone();
        eng.migrate_atoms();
        let pred = decomp::predecessors(&before, &eng.decomp().computes);
        assert!(
            pred.iter().enumerate().any(|(j, &p)| p != Some(j)),
            "no index shifted"
        );
        let expected: Vec<f64> = pred
            .iter()
            .map(|p| p.map_or(0.0, |i| r.compute_loads[i]))
            .collect();
        let snap = eng.snapshot();
        assert_eq!(
            snap.loads, expected,
            "the boundary snapshot's loads are not carried"
        );

        let mut restored = Engine::new(sys, cfg);
        restored.restore(&snap).unwrap();
        let computes = &restored.decomp().computes;
        assert_eq!(computes.len(), expected.len());
        let (problem, map) =
            restored.lb_problem_on(&restored.last_loads, &restored.last_background);
        for (k, &j) in map.iter().enumerate() {
            assert_eq!(problem.computes[k].patches, computes[j].patches);
            assert_eq!(problem.computes[k].load, expected[j], "compute {j}");
        }
    }

    #[test]
    fn gflops_is_sane() {
        let cfg = SimConfig::builder(4, presets::asci_red()).build().unwrap();
        let mut eng = Engine::new(small_system(), cfg);
        let r = eng.run_phase(1);
        let g = eng.gflops(r.time_per_step);
        // 4 PEs at 48 MFLOPS each ⇒ at most ~0.19 GFLOPS.
        assert!(g > 0.0 && g < 0.2, "gflops {g}");
    }
}
