//! Preemption bit-exactness, end to end through the service scheduler: a
//! job that is parked and resumed (checkpoint → PEs returned → restore)
//! must produce exactly the same final state and energy series as an
//! uninterrupted run — on both the DES and threads backends — and the two
//! backends must agree with each other (the guarantee that lets the cache
//! key exclude `backend`).

use namd_repro::serve::sched::JobOutcome;
use namd_repro::serve::{JobSpec, Scheduler, SchedulerConfig};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn spec(backend: &str) -> JobSpec {
    JobSpec::parse(&format!(
        r#"{{"steps": 12, "migrateEvery": 4, "atoms": 150, "boxSize": 16,
            "cutoff": 6, "backend": "{backend}"}}"#
    ))
    .unwrap()
}

fn run_one(cfg: SchedulerConfig, spec: JobSpec) -> Arc<JobOutcome> {
    let sched = Scheduler::new(cfg);
    let (id, _) = sched.submit(spec).unwrap();
    let out = sched
        .wait(id, WAIT)
        .expect("job must finish")
        .expect("job must succeed");
    sched.shutdown();
    out
}

#[test]
fn parked_and_resumed_job_is_bit_identical_on_both_backends() {
    let mut outcomes = Vec::new();
    for backend in ["des", "threads"] {
        // Preempted: slice 1 rounds up to each migrate boundary (step 4,
        // 8, 12), always_park forces a full checkpoint/park/resume cycle
        // at each — 2 parks before the final slice finishes the job.
        let parked = run_one(
            SchedulerConfig {
                pool_pes: 1,
                slice_steps: 1,
                always_park: true,
                ..Default::default()
            },
            spec(backend),
        );
        // Uninterrupted: one slice covers all 12 steps.
        let straight = run_one(
            SchedulerConfig {
                pool_pes: 1,
                slice_steps: 1000,
                ..Default::default()
            },
            spec(backend),
        );

        assert!(
            parked.preemptions >= 2,
            "{backend}: expected >= 2 preemptions, got {}",
            parked.preemptions
        );
        assert_eq!(
            straight.preemptions, 0,
            "{backend}: uninterrupted run must not park"
        );
        assert_eq!(
            parked.state_crc, straight.state_crc,
            "{backend}: parked/resumed final state differs from uninterrupted"
        );
        assert_eq!(
            parked.energy, straight.energy,
            "{backend}: parked/resumed energy summary differs from uninterrupted"
        );
        assert_eq!(parked.steps, 12);
        assert_eq!(straight.steps, 12);
        outcomes.push(straight);
    }

    // Cross-backend bit-identity — the invariant that justifies leaving
    // `backend` out of the cache key.
    assert_eq!(
        outcomes[0].state_crc, outcomes[1].state_crc,
        "des and threads backends disagree on the final state"
    );
    assert_eq!(outcomes[0].energy, outcomes[1].energy);
}

/// A job that loses a PE mid-slice is rolled back to its last rebuild
/// boundary and replayed onto exactly the clean job's result — the
/// guarantee that lets the cache key exclude `faultPlan`. The analyze job
/// cuts its phases at frame boundaries too (3 does not divide 4), so its
/// rollback crosses frames already captured.
#[test]
fn killed_job_recovers_onto_the_clean_jobs_result() {
    for kind in [r#""kind": "simulate""#, r#""kind": "analyze", "frameEvery": 3"#] {
        let run = |fault: &str| {
            let spec = JobSpec::parse(&format!(
                r#"{{"steps": 12, "migrateEvery": 4, "atoms": 600, "boxSize": 26,
                    "cutoff": 6, "pes": 2, {kind}{fault}}}"#
            ))
            .unwrap();
            run_one(SchedulerConfig { pool_pes: 2, ..Default::default() }, spec)
        };
        let clean = run("");
        let killed = run(r#", "faultPlan": "kill:dst=1:skip=50""#);
        assert_eq!(clean.recoveries, 0, "{kind}");
        assert_eq!(killed.recoveries, 1, "{kind}: the kill must fire exactly once");
        assert_eq!(killed.state_crc, clean.state_crc, "{kind}: final state differs");
        assert_eq!(killed.energy, clean.energy, "{kind}: energy summary differs");
        assert_eq!(killed.analysis, clean.analysis, "{kind}: analysis summary differs");
        assert_eq!(killed.steps, 12);
    }
}
