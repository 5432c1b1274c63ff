//! Property-based tests for the simulation service's content-addressed
//! cache key: the key must be invariant under JSON key order, number
//! spelling, and explicitly-spelled defaults, sensitive to *every*
//! physics-affecting field, and blind to every service-level field.

use namd_repro::namd_core::config::Backend;
use namd_repro::serve::spec::Ensemble;
use namd_repro::serve::{JobKind, JobSpec};
use proptest::prelude::*;

/// Render `(key, already-JSON-encoded value)` pairs as an object literal.
fn to_json(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn base_fields(
    steps: usize,
    seed: u64,
    atoms: usize,
    temp: u32,
    migrate: usize,
    pes: usize,
) -> Vec<(String, String)> {
    vec![
        ("steps".into(), steps.to_string()),
        ("seed".into(), seed.to_string()),
        ("atoms".into(), atoms.to_string()),
        ("temperature".into(), temp.to_string()),
        ("migrateEvery".into(), migrate.to_string()),
        ("pes".into(), pes.to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reordering keys, spelling numbers differently (`20` vs `20.0`) and
    /// writing out defaulted fields explicitly must all hash identically —
    /// they describe the same job.
    #[test]
    fn key_order_and_spelled_defaults_hash_identically(
        steps in 1usize..200,
        seed in 0u64..1000,
        atoms in 3usize..2000,
        temp in 0u32..400,
        migrate in 1usize..40,
        pes in 1usize..8,
    ) {
        let rot = (seed as usize).wrapping_mul(7) % 6;
        let fields = base_fields(steps, seed, atoms, temp, migrate, pes);
        let terse = JobSpec::parse(&to_json(&fields)).unwrap();

        // Same fields, rotated order, defaults spelled out, numbers
        // written with explicit fractional parts.
        let mut verbose = fields.clone();
        let n = verbose.len();
        verbose.rotate_left(rot % n);
        verbose.push(("system".into(), "\"water\"".into()));
        verbose.push(("boxSize".into(), "20.0".into()));
        verbose.push(("cutoff".into(), "6".into()));
        verbose.push(("timestep".into(), "0.5".into()));
        verbose.push(("scale".into(), "1.0".into()));
        verbose.push(("temperature".into(), format!("{}.0", temp)));
        // (duplicate keys are rejected by the JSON parser, so replace the
        // integer-spelled temperature with the fractional spelling)
        verbose.retain(|(k, v)| k != "temperature" || v.contains('.'));
        let spelled = JobSpec::parse(&to_json(&verbose)).unwrap();

        prop_assert_eq!(terse.cache_key(), spelled.cache_key());
        prop_assert_eq!(terse.canonical_physics_json(), spelled.canonical_physics_json());
    }

    /// Changing any physics-affecting field must change the key: two specs
    /// with the same key are served one engine execution, so a collision
    /// here would silently return the wrong trajectory.
    #[test]
    fn every_physics_field_perturbation_changes_the_key(
        which in 0usize..13,
        bump in 1u64..50,
    ) {
        let base = JobSpec::parse("{}").unwrap();
        let mut cand = base.clone();
        match which {
            0 => cand.steps += bump as usize,
            1 => cand.seed += bump,
            2 => cand.atoms += 3 * bump as usize,
            3 => cand.temperature += bump as f64,
            4 => cand.migrate_every += bump as usize,
            5 => cand.dt += bump as f64 * 0.01,
            6 => cand.box_size += bump as f64,
            7 => cand.cutoff += bump as f64 * 0.05,
            8 => cand.pes = base.pes + 1 + (bump as usize % 4),
            9 => cand.scale = 1.0 + bump as f64 * 0.1,
            10 => cand.system = "apoa1".into(),
            11 => cand.ensemble = Some(Ensemble { count: 2, base_seed: bump }),
            12 => cand.kind = JobKind::Analyze,
            _ => unreachable!(),
        }
        cand.validate().unwrap();
        prop_assert_ne!(base.cache_key(), cand.cache_key());
    }

    /// Service-level fields (tenant, priority, backend, retry policy) are
    /// excluded from the key by design: the runtime's cross-backend
    /// bit-identity guarantee means they cannot change the trajectory, so
    /// requests differing only there dedup onto one execution.
    #[test]
    fn service_fields_never_change_the_key(
        prio in -100i32..100,
        tenant_id in 0u32..10_000,
        threads in 0u8..2,
        maxrec in 0u32..11,
        backoff in 0u64..101,
    ) {
        let base = JobSpec::parse("{}").unwrap();
        let mut cand = base.clone();
        cand.priority = prio;
        cand.tenant = format!("tenant-{tenant_id}");
        cand.backend = if threads == 1 { Backend::Threads } else { Backend::Des };
        cand.max_recoveries = if maxrec == 0 { None } else { Some(maxrec - 1) };
        cand.recovery_backoff_ms = if backoff == 0 { None } else { Some(backoff) };
        prop_assert_eq!(base.cache_key(), cand.cache_key());
    }

    /// Job kinds: a spelled-out `"kind": "simulate"` is the default and
    /// must hash byte-identically to a spec that omits it (simulate keys
    /// survive the API redesign unchanged), while analyze specs fold the
    /// kind *and* both analysis knobs into the key — two analyze requests
    /// that sample frames differently are different jobs. The knobs are
    /// gated: they are parse errors on a simulate spec, never silently
    /// inert key material.
    #[test]
    fn job_kind_and_analysis_knobs_are_key_material_only_for_analyze(
        steps in 4usize..200,
        seed in 0u64..1000,
        every in 1usize..4,
        bins in 1usize..4096,
    ) {
        let implied = JobSpec::parse(
            &format!("{{\"steps\": {steps}, \"seed\": {seed}}}")).unwrap();
        let spelled = JobSpec::parse(
            &format!("{{\"steps\": {steps}, \"seed\": {seed}, \"kind\": \"simulate\"}}"),
        ).unwrap();
        prop_assert_eq!(implied.cache_key(), spelled.cache_key());
        prop_assert_eq!(
            implied.canonical_physics_json(), spelled.canonical_physics_json());

        let ana = JobSpec::parse(&format!(
            "{{\"steps\": {steps}, \"seed\": {seed}, \"kind\": \"analyze\"}}"
        )).unwrap();
        prop_assert_ne!(implied.cache_key(), ana.cache_key());

        // Each analysis knob perturbs the analyze key...
        let mut cand = ana.clone();
        cand.frame_every = every; // default is 4, `every` < 4 differs or equals
        cand.validate().unwrap();
        prop_assert_eq!(
            ana.cache_key() == cand.cache_key(), every == ana.frame_every);
        let mut cand = ana.clone();
        cand.rdf_bins = bins;
        cand.validate().unwrap();
        prop_assert_eq!(ana.cache_key() == cand.cache_key(), bins == ana.rdf_bins);

        // ...and is rejected outright when the spec is (implicitly or
        // explicitly) a simulate job.
        let gated = JobSpec::parse(&format!(
            "{{\"steps\": {steps}, \"frameEvery\": {every}}}"));
        prop_assert!(gated.is_err());
        let gated = JobSpec::parse(&format!(
            "{{\"steps\": {steps}, \"kind\": \"simulate\", \"rdfBins\": {bins}}}"));
        prop_assert!(gated.is_err());
    }

    /// The shared `Display`/`FromStr` round-trip that lets job JSON and
    /// CLI configs use one parser (spot-checked here through the spec
    /// path; the exhaustive per-enum round-trips live in namd-core).
    #[test]
    fn enum_fields_round_trip_through_json(idx in 0usize..2) {
        let backend = ["des", "threads"][idx];
        let spec =
            JobSpec::parse(&format!("{{\"backend\": \"{backend}\"}}")).unwrap();
        prop_assert_eq!(spec.backend.to_string(), backend);
        let reparsed: Backend = spec.backend.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, spec.backend);
    }
}
