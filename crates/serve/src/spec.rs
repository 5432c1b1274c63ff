//! Job specifications: the JSON documents clients submit, their validation
//! (reusing [`SimConfig`] validation and the shared `FromStr` parser for
//! `Backend`), and the *canonical* physics encoding whose hash is the
//! content-addressed cache key.
//!
//! Two requests are "the same job" iff every **physics-affecting** field
//! matches after defaults are filled in: system, size, seed, timestep,
//! step count, migration cadence, and the ensemble clause. Key order,
//! number spelling, and explicitly-spelled defaults do not matter (the
//! canonical encoding normalizes them away). Service
//! fields — tenant, priority, backend, fault plan, retry policy — are
//! deliberately *excluded*: the runtime's cross-backend bit-identity and
//! fault-repair guarantees (PRs 1–6) mean they cannot change the
//! trajectory, so requests differing only there dedup onto one execution.

use crate::json::Json;
use mdcore::prelude::*;
use namd_core::config::{Backend, ForceMode, SimConfig};
use std::collections::BTreeMap;

/// 128-bit content address of a canonicalized job spec: CRC-64/ECMA and
/// FNV-1a 64 over the same canonical bytes (two independent hash
/// families, so a collision needs to defeat both at once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64, pub u64);

impl CacheKey {
    pub fn of(bytes: &[u8]) -> CacheKey {
        CacheKey(ckpt::crc64(bytes), ckpt::fnv1a64(bytes))
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// What kind of work a job asks the pool to do. Simulation integrates a
/// trajectory; analysis additionally captures frames every `frameEvery`
/// steps and, after the integration finishes, maps them over the job's
/// `pes` threads with [`analyze::analyze_frames`] (RDF, RMSD, contacts,
/// MSD → diffusion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobKind {
    #[default]
    Simulate,
    Analyze,
}

impl JobKind {
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Simulate => "simulate",
            JobKind::Analyze => "analyze",
        }
    }
}

impl std::str::FromStr for JobKind {
    type Err = String;
    fn from_str(s: &str) -> Result<JobKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "simulate" => Ok(JobKind::Simulate),
            "analyze" => Ok(JobKind::Analyze),
            other => Err(format!("unknown job kind \"{other}\" (simulate or analyze)")),
        }
    }
}

/// Ensemble clause: fan one submitted spec into `count` child jobs that
/// differ only in seed (`base_seed + i`), with a tree-reduced summary as
/// the parent's result — the PFA embarrassingly-parallel pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ensemble {
    pub count: usize,
    pub base_seed: u64,
}

/// Largest deck, in atoms, a job may make a worker build.
const MAX_ATOMS: usize = 100_000;

/// A validated simulation job. Construct with [`JobSpec::parse`]; fields
/// are normalized (defaults filled) so equality of canonical encodings is
/// equality of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    // -- physics-affecting (all participate in the cache key) -------------
    /// `water`, `apoa1`, `bc1`, `br`, or a `molgen::zoo` scenario name.
    pub system: String,
    /// Atom count (water and zoo systems).
    pub atoms: usize,
    /// Cubic box edge for `water`, Å.
    pub box_size: f64,
    /// Cutoff radius, Å (water; the benchmark decks carry their own).
    pub cutoff: f64,
    /// Thermalization temperature, K (velocities are seeded from this).
    pub temperature: f64,
    /// Timestep, fs.
    pub dt: f64,
    /// Velocity-Verlet updates to run.
    pub steps: usize,
    /// Build/thermalization seed.
    pub seed: u64,
    /// Benchmark/zoo scale factor.
    pub scale: f64,
    /// PEs the engine models/uses for this job (pool slots consumed).
    pub pes: usize,
    /// Decomposition-rebuild cadence, steps. Part of the trajectory (and
    /// of the key): preemption parks only on multiples of it.
    pub migrate_every: usize,
    /// Ensemble fan-out clause (parent jobs only).
    pub ensemble: Option<Ensemble>,
    /// What the job computes. Analysis jobs run the same integration and
    /// then a parallel observable pass over captured frames, so the kind
    /// is physics-affecting and participates in the key (simulate specs
    /// canonicalize exactly as before the kind existed).
    pub kind: JobKind,
    /// Analysis frame-capture cadence, steps (analyze jobs only).
    pub frame_every: usize,
    /// RDF histogram bins (analyze jobs only).
    pub rdf_bins: usize,

    // -- service-level (excluded from the key) ----------------------------
    /// Execution substrate: `des` or `threads` (bit-identical, so not in
    /// the key). `proc` is rejected for service jobs.
    pub backend: Backend,
    /// Larger runs first; ties broken by tenant fair share, then FIFO.
    pub priority: i32,
    /// Fair-share accounting bucket.
    pub tenant: String,
    /// Optional fault-injection plan (crash drills; repaired/recovered
    /// runs stay bit-identical, hence not in the key).
    pub fault_plan: Option<String>,
    /// Per-job crash-recovery retry budget (None = server default).
    pub max_recoveries: Option<u32>,
    /// Per-job recovery backoff base, ms (None = server default).
    pub recovery_backoff_ms: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            system: "water".into(),
            atoms: 300,
            box_size: 20.0,
            cutoff: 6.0,
            temperature: 120.0,
            dt: 0.5,
            steps: 16,
            seed: 1,
            scale: 1.0,
            pes: 1,
            migrate_every: 10,
            ensemble: None,
            kind: JobKind::Simulate,
            frame_every: 4,
            rdf_bins: 32,
            backend: Backend::Des,
            priority: 0,
            tenant: "default".into(),
            fault_plan: None,
            max_recoveries: None,
            recovery_backoff_ms: None,
        }
    }
}

impl JobSpec {
    /// Parse and validate a job-spec JSON document. Unknown keys are
    /// errors (a typo must not silently de-configure a job), defaults fill
    /// everything else, and the result is checked against the same
    /// [`SimConfig`] validation the engine applies.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let doc = Json::parse(text)?;
        Self::from_json(&doc)
    }

    /// Build a spec from a parsed JSON value (must be an object).
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let obj = doc.as_obj().ok_or("job spec must be a JSON object")?;
        let mut spec = JobSpec::default();
        let mut saw_analysis_key: Option<&str> = None;
        for (key, value) in obj {
            let bad = |what: &str| format!("key \"{key}\": {what}");
            match key.as_str() {
                "system" => {
                    spec.system = value
                        .as_str()
                        .ok_or_else(|| bad("expected a string"))?
                        .to_ascii_lowercase()
                }
                "atoms" => {
                    spec.atoms = value
                        .as_usize()
                        .ok_or_else(|| bad("expected a non-negative integer"))?
                }
                "boxsize" | "boxSize" => {
                    spec.box_size = value.as_f64().ok_or_else(|| bad("expected a number"))?
                }
                "cutoff" => spec.cutoff = value.as_f64().ok_or_else(|| bad("expected a number"))?,
                "temperature" => {
                    spec.temperature = value.as_f64().ok_or_else(|| bad("expected a number"))?
                }
                "timestep" => spec.dt = value.as_f64().ok_or_else(|| bad("expected a number"))?,
                "steps" => {
                    spec.steps = value
                        .as_usize()
                        .ok_or_else(|| bad("expected a non-negative integer"))?
                }
                "seed" => {
                    spec.seed = value
                        .as_u64()
                        .ok_or_else(|| bad("expected a non-negative integer"))?
                }
                "scale" => spec.scale = value.as_f64().ok_or_else(|| bad("expected a number"))?,
                "pes" => {
                    spec.pes = value
                        .as_usize()
                        .ok_or_else(|| bad("expected a non-negative integer"))?
                }
                "migrateevery" | "migrateEvery" => {
                    spec.migrate_every = value
                        .as_usize()
                        .ok_or_else(|| bad("expected a non-negative integer"))?
                }
                "ensemble" => {
                    let e = value.as_obj().ok_or_else(|| bad("expected an object"))?;
                    let mut count = None;
                    let mut base_seed = 1u64;
                    for (k, v) in e {
                        match k.as_str() {
                            "count" => {
                                count = Some(
                                    v.as_usize().ok_or("ensemble.count: expected an integer")?,
                                )
                            }
                            "baseseed" | "baseSeed" => {
                                base_seed =
                                    v.as_u64().ok_or("ensemble.baseSeed: expected an integer")?
                            }
                            other => return Err(format!("ensemble: unknown key \"{other}\"")),
                        }
                    }
                    spec.ensemble = Some(Ensemble {
                        count: count.ok_or("ensemble: missing \"count\"")?,
                        base_seed,
                    });
                }
                "kind" => {
                    spec.kind = value
                        .as_str()
                        .ok_or_else(|| bad("expected a string"))?
                        .parse()?
                }
                "frameevery" | "frameEvery" => {
                    saw_analysis_key = Some("frameEvery");
                    spec.frame_every = value
                        .as_usize()
                        .ok_or_else(|| bad("expected a non-negative integer"))?
                }
                "rdfbins" | "rdfBins" => {
                    saw_analysis_key = Some("rdfBins");
                    spec.rdf_bins = value
                        .as_usize()
                        .ok_or_else(|| bad("expected a non-negative integer"))?
                }
                "backend" => {
                    spec.backend = value
                        .as_str()
                        .ok_or_else(|| bad("expected a string"))?
                        .parse()?
                }
                "priority" => {
                    spec.priority = value
                        .as_i64()
                        .and_then(|v| i32::try_from(v).ok())
                        .ok_or_else(|| bad("expected a small integer"))?
                }
                "tenant" => {
                    spec.tenant = value
                        .as_str()
                        .ok_or_else(|| bad("expected a string"))?
                        .to_string()
                }
                "faultplan" | "faultPlan" => {
                    spec.fault_plan = Some(
                        value
                            .as_str()
                            .ok_or_else(|| bad("expected a string"))?
                            .to_string(),
                    )
                }
                "maxrecoveries" | "maxRecoveries" => {
                    spec.max_recoveries = Some(
                        value
                            .as_u64()
                            .and_then(|v| u32::try_from(v).ok())
                            .ok_or_else(|| bad("expected a small integer"))?,
                    )
                }
                "recoverybackoffms" | "recoveryBackoffMs" => {
                    spec.recovery_backoff_ms =
                        Some(value.as_u64().ok_or_else(|| bad("expected an integer"))?)
                }
                other => return Err(format!("unknown job-spec key \"{other}\"")),
            }
        }
        if spec.kind != JobKind::Analyze {
            if let Some(k) = saw_analysis_key {
                // A typo'd or forgotten `"kind": "analyze"` must not
                // silently run a plain simulation.
                return Err(format!("key \"{k}\" requires \"kind\": \"analyze\""));
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Validate every invariant the service relies on, ending with the
    /// engine's own [`SimConfig`] validation (one source of truth for
    /// backend consistency).
    pub fn validate(&self) -> Result<(), String> {
        if !(3..=MAX_ATOMS).contains(&self.atoms) {
            return Err(format!("atoms must be in [3, {MAX_ATOMS}], got {}", self.atoms));
        }
        if !(1..=1_000_000).contains(&self.steps) {
            return Err(format!("steps must be in [1, 1000000], got {}", self.steps));
        }
        if !(1..=64).contains(&self.pes) {
            return Err(format!("pes must be in [1, 64], got {}", self.pes));
        }
        if self.migrate_every == 0 {
            return Err("migrateEvery must be at least 1".into());
        }
        if !(self.cutoff > 0.0 && self.cutoff.is_finite()) {
            return Err(format!("cutoff must be positive, got {}", self.cutoff));
        }
        if !(self.temperature >= 0.0 && self.temperature.is_finite()) {
            return Err(format!(
                "temperature must be non-negative, got {}",
                self.temperature
            ));
        }
        if !(self.scale > 0.0 && self.scale.is_finite() && self.scale <= 8.0) {
            return Err(format!("scale must be in (0, 8], got {}", self.scale));
        }
        // `atoms` is not the size of the deck a worker builds: the paper
        // decks carry their own count and `scale` multiplies both them and
        // the zoo scenarios.
        let (deck_atoms, _) = self.deck().ok_or_else(|| {
            format!(
                "unknown system '{}' (water, apoa1, bc1, br, or a zoo scenario: {})",
                self.system,
                molgen::zoo::names().join(", ")
            )
        })?;
        if deck_atoms > MAX_ATOMS {
            return Err(format!(
                "system '{}' at scale {} is a {deck_atoms}-atom deck; the service builds at \
                 most {MAX_ATOMS} atoms",
                self.system, self.scale
            ));
        }
        if self.system == "water" && self.box_size < 2.0 * self.cutoff {
            return Err(format!(
                "boxSize {} too small for cutoff {} (need ≥ 2×cutoff)",
                self.box_size, self.cutoff
            ));
        }
        if self.backend == Backend::Proc {
            return Err(
                "service jobs run on backend des or threads (proc forks one OS \
                        process per PE per job — not a multiplexable substrate)"
                    .into(),
            );
        }
        if let Some(e) = self.ensemble {
            if !(1..=4096).contains(&e.count) {
                return Err(format!(
                    "ensemble.count must be in [1, 4096], got {}",
                    e.count
                ));
            }
            if self.kind == JobKind::Analyze {
                return Err("ensemble jobs cannot have kind analyze (sweep the \
                            seed over plain analyze jobs instead)"
                    .into());
            }
        }
        if self.kind == JobKind::Analyze {
            if self.frame_every == 0 {
                return Err("frameEvery must be at least 1".into());
            }
            if self.frame_every > self.steps {
                return Err(format!(
                    "frameEvery {} exceeds steps {} (the trajectory would hold a \
                     single frame)",
                    self.frame_every, self.steps
                ));
            }
            if !(1..=analyze::MAX_RDF_BINS).contains(&self.rdf_bins) {
                return Err(format!(
                    "rdfBins must be in [1, {}], got {}",
                    analyze::MAX_RDF_BINS,
                    self.rdf_bins
                ));
            }
        }
        // The engine's own validation: fault plan, timestep, margins,
        // backend rules — identical to a CLI run.
        self.engine_config().map(|_| ())
    }

    /// The [`SimConfig`] a worker executes this job under. Shares the
    /// engine's validation; the returned config is ready for `Engine::new`
    /// once the scheduler has written the recovery policy into it (the
    /// job's value, else the server's — only the scheduler knows both).
    pub fn engine_config(&self) -> Result<SimConfig, String> {
        let mut b = SimConfig::builder(self.pes, machine::presets::generic_cluster())
            .force_mode(ForceMode::Real)
            .backend(self.backend)
            .dt_fs(self.dt);
        if let Some(plan) = &self.fault_plan {
            let plan = charmrt::FaultPlan::parse(plan).map_err(|e| format!("faultPlan: {e}"))?;
            b = b.fault_plan(Some(plan));
        }
        b.build().map_err(|e| e.to_string())
    }

    /// Canonical encoding of the physics-affecting fields, defaults
    /// filled, keys sorted. [`CacheKey::of`] these bytes is the job's
    /// content address.
    pub fn canonical_physics_json(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("system".to_string(), Json::Str(self.system.clone()));
        m.insert("atoms".to_string(), Json::Num(self.atoms as f64));
        m.insert("boxSize".to_string(), Json::Num(self.box_size));
        m.insert("cutoff".to_string(), Json::Num(self.cutoff));
        m.insert("temperature".to_string(), Json::Num(self.temperature));
        m.insert("timestep".to_string(), Json::Num(self.dt));
        m.insert("steps".to_string(), Json::Num(self.steps as f64));
        m.insert("seed".to_string(), Json::Num(self.seed as f64));
        m.insert("scale".to_string(), Json::Num(self.scale));
        m.insert("pes".to_string(), Json::Num(self.pes as f64));
        m.insert(
            "migrateEvery".to_string(),
            Json::Num(self.migrate_every as f64),
        );
        if let Some(e) = self.ensemble {
            let mut em = BTreeMap::new();
            em.insert("count".to_string(), Json::Num(e.count as f64));
            em.insert("baseSeed".to_string(), Json::Num(e.base_seed as f64));
            m.insert("ensemble".to_string(), Json::Obj(em));
        }
        // The kind and its analysis knobs enter the encoding only for
        // analyze jobs, so every simulate spec canonicalizes to exactly
        // the bytes it did before kinds existed (cache keys survive).
        if self.kind == JobKind::Analyze {
            m.insert("kind".to_string(), Json::Str("analyze".into()));
            m.insert("frameEvery".to_string(), Json::Num(self.frame_every as f64));
            m.insert("rdfBins".to_string(), Json::Num(self.rdf_bins as f64));
        }
        Json::Obj(m).canonical()
    }

    /// The content-addressed cache key (hash of the canonical physics
    /// encoding).
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::of(self.canonical_physics_json().as_bytes())
    }

    /// Expand an ensemble parent into its child specs (seed sweep; the
    /// ensemble clause itself is removed so children are plain jobs).
    /// Empty for non-ensemble specs.
    pub fn child_specs(&self) -> Vec<JobSpec> {
        let Some(e) = self.ensemble else {
            return Vec::new();
        };
        (0..e.count)
            .map(|i| {
                let mut child = self.clone();
                child.ensemble = None;
                child.seed = e.base_seed.wrapping_add(i as u64);
                child
            })
            .collect()
    }

    /// The deck this spec names: its atom count and its builder, from the
    /// one [`molgen::named_deck`] the CLI runner also calls, so a spec and a
    /// config file describing the same system produce bit-identical decks.
    fn deck(&self) -> Option<(usize, impl FnOnce() -> System)> {
        molgen::named_deck(
            &self.system,
            self.atoms,
            self.box_size,
            self.cutoff,
            self.seed,
            self.scale,
            false,
        )
    }

    /// Deterministically build the molecular system this spec describes.
    pub fn build_system(&self) -> System {
        let (_, build) = self.deck().expect("validated system name");
        let mut sys = build();
        sys.thermalize(self.temperature, self.seed);
        sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_and_validate() {
        let spec = JobSpec::parse("{}").unwrap();
        assert_eq!(spec, JobSpec::default());
        assert_eq!(spec.cache_key(), JobSpec::default().cache_key());
    }

    #[test]
    fn default_cache_key_is_pinned() {
        // Cached results outlive a build: the key of the default spec must
        // not move when its hashes are refactored.
        assert_eq!(
            JobSpec::default().cache_key(),
            CacheKey(0xe530_adda_cac7_749e, 0xdea0_0650_b654_139f)
        );
    }

    #[test]
    fn key_order_and_spelled_defaults_hash_identically() {
        let a = JobSpec::parse(r#"{"steps": 16, "seed": 1, "system": "water"}"#).unwrap();
        let b = JobSpec::parse(r#"{"system": "water"}"#).unwrap();
        let c = JobSpec::parse(r#"{"atoms": 300.0, "timestep": 0.5}"#).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn physics_fields_change_the_key_service_fields_do_not() {
        let base = JobSpec::default();
        let mut seeded = base.clone();
        seeded.seed = 2;
        assert_ne!(base.cache_key(), seeded.cache_key());

        let mut tenant = base.clone();
        tenant.tenant = "other".into();
        tenant.priority = 9;
        tenant.backend = Backend::Threads;
        tenant.max_recoveries = Some(9);
        assert_eq!(base.cache_key(), tenant.cache_key());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(JobSpec::parse(r#"{"stepz": 4}"#)
            .unwrap_err()
            .contains("stepz"));
        assert!(JobSpec::parse(r#"{"steps": 0}"#).is_err());
        assert!(JobSpec::parse(r#"{"system": "plasma"}"#)
            .unwrap_err()
            .contains("plasma"));
        assert!(JobSpec::parse(r#"{"backend": "proc"}"#)
            .unwrap_err()
            .contains("proc"));
        assert!(JobSpec::parse(r#"{"boxSize": 8, "cutoff": 6}"#)
            .unwrap_err()
            .contains("2×cutoff"));
        // The kernel-selection keys went with the cluster path: named in
        // the error, never silently ignored.
        for (text, key) in [
            (r#"{"nbKernel":"listed"}"#, "nbKernel"),
            (r#"{"simdWidth":"x4"}"#, "simdWidth"),
        ] {
            let e = JobSpec::parse(text).unwrap_err();
            assert!(e.contains("unknown job-spec key") && e.contains(key), "{e}");
        }
        assert!(JobSpec::parse(r#"{"ensemble": {"count": 0}}"#).is_err());
        assert!(JobSpec::parse(r#"{"ensemble": {"seeds": 3}}"#).is_err());
    }

    #[test]
    fn ensemble_expands_into_seeded_children() {
        let spec =
            JobSpec::parse(r#"{"ensemble": {"count": 3, "baseSeed": 40}, "steps": 8}"#).unwrap();
        let children = spec.child_specs();
        assert_eq!(children.len(), 3);
        assert_eq!(
            children.iter().map(|c| c.seed).collect::<Vec<_>>(),
            vec![40, 41, 42]
        );
        assert!(children
            .iter()
            .all(|c| c.ensemble.is_none() && c.steps == 8));
        // Parent and child keys all differ.
        let mut keys: Vec<_> = children.iter().map(|c| c.cache_key()).collect();
        keys.push(spec.cache_key());
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn job_kinds_parse_default_and_gate_the_key() {
        // Missing kind defaults to simulate and hashes exactly as before
        // the field existed (spelling it changes nothing).
        let implied = JobSpec::parse(r#"{"steps": 8}"#).unwrap();
        let spelled = JobSpec::parse(r#"{"steps": 8, "kind": "simulate"}"#).unwrap();
        assert_eq!(implied.kind, JobKind::Simulate);
        assert_eq!(implied.cache_key(), spelled.cache_key());
        assert!(!implied.canonical_physics_json().contains("kind"));

        // Analyze is a different job: kind and its knobs are in the key.
        let analyze = JobSpec::parse(r#"{"steps": 8, "kind": "analyze"}"#).unwrap();
        assert_eq!(analyze.kind, JobKind::Analyze);
        assert_ne!(implied.cache_key(), analyze.cache_key());
        let finer =
            JobSpec::parse(r#"{"steps": 8, "kind": "analyze", "frameEvery": 2}"#).unwrap();
        assert_ne!(analyze.cache_key(), finer.cache_key());
        let rebinned =
            JobSpec::parse(r#"{"steps": 8, "kind": "analyze", "rdfBins": 64}"#).unwrap();
        assert_ne!(analyze.cache_key(), rebinned.cache_key());

        // Unknown kinds and analysis knobs without the kind are rejected.
        assert!(JobSpec::parse(r#"{"kind": "minimize"}"#)
            .unwrap_err()
            .contains("minimize"));
        assert!(JobSpec::parse(r#"{"frameEvery": 2}"#)
            .unwrap_err()
            .contains("analyze"));
        assert!(JobSpec::parse(r#"{"rdfbins": 16}"#).is_err());
        // Analysis invariants.
        assert!(JobSpec::parse(r#"{"kind": "analyze", "frameEvery": 0}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind": "analyze", "steps": 4, "frameEvery": 9}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind": "analyze", "rdfBins": 0}"#).is_err());
        assert!(
            JobSpec::parse(r#"{"kind": "analyze", "ensemble": {"count": 2}}"#).is_err(),
            "ensemble fan-out is a simulate-only clause"
        );
    }

    #[test]
    fn zoo_and_benchmark_systems_build() {
        let spec = JobSpec::parse(r#"{"system": "vacuum-droplet", "atoms": 120}"#).unwrap();
        assert!(spec.build_system().n_atoms() > 0);
        let spec = JobSpec::parse(r#"{"system": "br", "scale": 0.05}"#).unwrap();
        assert!(spec.build_system().n_atoms() > 0);
    }

    #[test]
    fn the_deck_a_worker_would_build_is_bounded_not_just_atoms() {
        // The paper decks ignore `atoms`, and `scale` multiplies them and
        // the zoo scenarios: bc1 × 8 is ~1.65M atoms.
        let e = JobSpec::parse(r#"{"system": "bc1", "scale": 8}"#).unwrap_err();
        assert!(e.contains("-atom deck") && e.contains("100000"), "{e}");
        let e = JobSpec::parse(r#"{"system": "solvated-box", "atoms": 100000, "scale": 2}"#)
            .unwrap_err();
        assert!(e.contains("200000-atom deck"), "{e}");
        // Full-size ApoA-I (92,224) fits; water never reads `scale`.
        JobSpec::parse(r#"{"system": "apoa1"}"#).unwrap();
        JobSpec::parse(r#"{"scale": 5}"#).unwrap();
    }

    #[test]
    fn engine_config_reuses_sim_config_validation() {
        // A nonsense timestep is caught by the shared validation.
        assert!(JobSpec::parse(r#"{"timestep": 0}"#)
            .unwrap_err()
            .contains("dt_fs"));
        let cfg = JobSpec::default().engine_config().unwrap();
        assert_eq!(cfg.force_mode, ForceMode::Real);
        assert_eq!(cfg.backend, Backend::Des);
    }
}
