//! The `serve-mix` workload: a seeded job mix driven closed-loop through
//! the in-process `serve::Scheduler` by one generator thread, and the
//! serve layer's ledger.

use crate::report::{peak_rss_mb, LedgerRow, Report};
use crate::stats::{max, mean, median, median_secs, percentile};
use crate::trace::Tracer;
use crate::{Limits, Stop};
use namd_core::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serve::sched::Disposition;
use serve::spec::Ensemble;
use serve::{
    CacheKey, JobId, JobKind, JobOutcome, JobSpec, Scheduler, SchedulerConfig, ServeStats,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Logical tenants, each with one job outstanding at a time.
pub const TENANTS: usize = 6;
/// Sized for `nproc` = 2.
pub const POOL_PES: usize = 2;
pub const SLICE_STEPS: usize = 20;
/// Generator poll period.
const TICK: Duration = Duration::from_millis(1);
/// A job not terminal this long after submission stopped is wedged.
const WEDGE_TIMEOUT: Duration = Duration::from_secs(120);
/// Set-up repeats whose median is `setup_s`.
const SETUPS: usize = 3;
/// Jobs per tenant planned for a time-limited run: more than any host
/// finishes in a minute.
const PLAN_PER_TENANT: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Short,
    Medium,
    Long,
    Ensemble,
    Analyze,
}

/// One stratum of the mix: 55 % short, 25 % medium, 5 % long, 5 % 4-way
/// ensembles, 10 % analyze — exact in every block of 20 of a tenant's draws,
/// so the seed moves the order and the sizes but not the amount of work
/// offered.
const BLOCK: [Class; 20] = {
    use Class::*;
    [
        Short, Short, Short, Short, Short, Short, Short, Short, Short, Short, Short, Medium,
        Medium, Medium, Medium, Medium, Long, Ensemble, Analyze, Analyze,
    ]
};
/// Draws per block replaced by a duplicate of an earlier spec (a quarter).
const DUPLICATES_PER_BLOCK: usize = 5;

#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub class: Class,
    pub spec: JobSpec,
    /// A copy of an earlier draw's spec under another tenant.
    pub duplicate: bool,
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// A fresh spec of `class`. `job_seed` makes it unique; `rng` draws the
/// sizes that vary within the class.
pub fn class_spec(class: Class, job_seed: u64, rng: &mut impl Rng) -> JobSpec {
    match class {
        Class::Short => JobSpec {
            atoms: 3 * rng.gen_range(50..=100usize),
            steps: rng.gen_range(20..=40usize),
            seed: job_seed,
            backend: Backend::Des,
            ..JobSpec::default()
        },
        Class::Medium => JobSpec {
            atoms: 900,
            box_size: 30.0,
            steps: 80,
            seed: job_seed,
            backend: Backend::Threads,
            ..JobSpec::default()
        },
        Class::Long => JobSpec {
            atoms: 2400,
            box_size: 40.0,
            steps: 80,
            seed: job_seed,
            pes: 2,
            backend: Backend::Threads,
            ..JobSpec::default()
        },
        Class::Ensemble => JobSpec {
            atoms: 96,
            box_size: 14.0,
            steps: 12,
            migrate_every: 4,
            seed: 0,
            ensemble: Some(Ensemble {
                count: 4,
                base_seed: job_seed,
            }),
            ..JobSpec::default()
        },
        Class::Analyze => JobSpec {
            atoms: 300,
            steps: 40,
            seed: job_seed,
            kind: JobKind::Analyze,
            frame_every: 4,
            ..JobSpec::default()
        },
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The job schedule of `seed`: one queue per tenant, `per_tenant` jobs
/// each. Every tenant's queue is its own sequence of shuffled blocks, so
/// each tenant is offered the same amount of work whatever the seed.
pub fn plan(seed: u64, per_tenant: usize) -> Vec<Vec<Planned>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut queues: Vec<Vec<Planned>> = vec![Vec::new(); TENANTS];
    // Earlier fresh draws, with the tenant that owns each.
    let mut fresh: Vec<(usize, Class, JobSpec)> = Vec::new();
    for _ in 0..per_tenant.div_ceil(BLOCK.len()) {
        for (tenant, queue) in queues.iter_mut().enumerate() {
            let mut classes = BLOCK;
            shuffle(&mut classes, &mut rng);
            // Duplicates replace short, medium and analyze draws only, so
            // every block offers a fresh long job and a fresh ensemble.
            let mut replaceable: Vec<usize> = (0..BLOCK.len())
                .filter(|&k| !matches!(classes[k], Class::Long | Class::Ensemble))
                .collect();
            shuffle(&mut replaceable, &mut rng);
            let dup_slots = &replaceable[..DUPLICATES_PER_BLOCK];
            for (k, class) in classes.into_iter().enumerate() {
                if queue.len() == per_tenant {
                    break;
                }
                let job_seed = 1 + rng.gen::<u32>() as u64;
                let others: Vec<usize> =
                    (0..fresh.len()).filter(|&i| fresh[i].0 != tenant).collect();
                let mut planned = if dup_slots.contains(&k) && !others.is_empty() {
                    let (_, class, spec) = &fresh[others[rng.gen_range(0..others.len())]];
                    Planned {
                        class: *class,
                        spec: spec.clone(),
                        duplicate: true,
                    }
                } else {
                    let spec = class_spec(class, job_seed, &mut rng);
                    fresh.push((tenant, class, spec.clone()));
                    Planned {
                        class,
                        spec,
                        duplicate: false,
                    }
                };
                planned.spec.tenant = tenant_name(tenant);
                queue.push(planned);
            }
        }
    }
    queues
}

/// Every cache key a set of specs can cause an execution for: each spec's
/// own and, for ensembles, its children's.
pub fn key_set<'a>(specs: impl IntoIterator<Item = &'a JobSpec>) -> BTreeSet<CacheKey> {
    let mut keys = BTreeSet::new();
    for s in specs {
        keys.insert(s.cache_key());
        keys.extend(s.child_specs().iter().map(JobSpec::cache_key));
    }
    keys
}

pub fn new_scheduler() -> Scheduler {
    Scheduler::new(SchedulerConfig {
        pool_pes: POOL_PES,
        slice_steps: SLICE_STEPS,
        always_park: false,
        ..Default::default()
    })
}

/// What the generator saw of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub tenant: usize,
    pub class: Class,
    pub disposition: Disposition,
    pub key: CacheKey,
    pub submit_us: f64,
    /// Submit → observed terminal.
    pub latency_ms: f64,
    pub outcome: Option<Arc<JobOutcome>>,
    /// Completed inside the measurement window.
    pub in_window: bool,
}

pub struct MixRun {
    pub jobs: Vec<JobRecord>,
    /// When the generator last saw a job finish.
    pub last_done: Instant,
    /// Jobs refused at submit or never seen terminal.
    pub lost: usize,
    pub window_s: f64,
    pub queue_depth: Vec<f64>,
    pub free_pes: Vec<f64>,
    pub lag_ms_max: f64,
    pub stats: ServeStats,
    /// Keys of every spec submitted.
    pub keys: BTreeSet<CacheKey>,
}

struct InFlight {
    id: JobId,
    submitted: Instant,
    record: JobRecord,
}

/// Drive `queues` closed-loop: a tenant's next job goes in when its
/// previous one is observed terminal, polled on a 1 ms tick. Submission
/// stops at the limit; jobs in flight then are awaited and checked, but
/// those seen to finish after a time limit fall outside the window.
pub fn drive(
    sched: &Scheduler,
    queues: &[Vec<Planned>],
    stop: &Stop,
    tracer: &mut Tracer,
) -> MixRun {
    let mut next = vec![0usize; queues.len()];
    let mut inflight: Vec<Option<InFlight>> = (0..queues.len()).map(|_| None).collect();
    let t0 = Instant::now();
    let mut run = MixRun {
        jobs: Vec::new(),
        last_done: t0,
        lost: 0,
        window_s: 0.0,
        queue_depth: Vec::new(),
        free_pes: Vec::new(),
        lag_ms_max: 0.0,
        stats: ServeStats::default(),
        keys: BTreeSet::new(),
    };
    let mut submitted = 0usize;
    // When the time limit was seen to have passed: the end of the window.
    let mut timed_out: Option<Instant> = None;
    let mut tick_due = t0;
    // Close a job's record at `now`, the moment it was seen terminal.
    let harvest =
        |mut f: InFlight, now: Instant, in_window: bool, run: &mut MixRun, tracer: &mut Tracer| {
            f.record.latency_ms = (now - f.submitted).as_secs_f64() * 1e3;
            f.record.outcome = sched.wait(f.id, Duration::ZERO).and_then(Result::ok);
            f.record.in_window = in_window;
            tracer.record("serve.job", f.submitted, now);
            run.last_done = run.last_done.max(now);
            run.jobs.push(f.record);
        };
    loop {
        let stopped = |submitted: usize| stop.done(t0.elapsed().as_secs_f64(), submitted);
        for t in 0..queues.len() {
            if let Some(f) = &inflight[t] {
                let terminal = sched.status(f.id).is_none_or(|s| s.state.is_terminal());
                // Nothing has finished for this long: give the job up (its
                // record gets no outcome, which counts it lost).
                if terminal || run.last_done.max(f.submitted).elapsed() > WEDGE_TIMEOUT {
                    let f = inflight[t].take().expect("checked above");
                    harvest(f, Instant::now(), timed_out.is_none(), &mut run, tracer);
                }
            }
            while inflight[t].is_none() && next[t] < queues[t].len() && !stopped(submitted) {
                let planned = &queues[t][next[t]];
                next[t] += 1;
                submitted += 1;
                run.keys.extend(key_set([&planned.spec]));
                let t_sub = Instant::now();
                let result = sched.submit(planned.spec.clone());
                let t_ret = Instant::now();
                tracer.record("serve.submit", t_sub, t_ret);
                let Ok((id, disposition)) = result else {
                    run.lost += 1;
                    continue;
                };
                let f = InFlight {
                    id,
                    submitted: t_sub,
                    record: JobRecord {
                        tenant: t,
                        class: planned.class,
                        disposition,
                        key: planned.spec.cache_key(),
                        submit_us: (t_ret - t_sub).as_secs_f64() * 1e6,
                        latency_ms: 0.0,
                        outcome: None,
                        in_window: false,
                    },
                };
                if disposition == Disposition::CacheHit {
                    // Terminal when `submit` returns: the tenant goes
                    // straight on to its next job.
                    harvest(f, t_ret, true, &mut run, tracer);
                } else {
                    inflight[t] = Some(f);
                }
            }
        }
        if timed_out.is_none() && t0.elapsed().as_secs_f64() >= stop.seconds {
            timed_out = Some(Instant::now());
        }
        let exhausted = (0..queues.len()).all(|t| next[t] >= queues[t].len());
        if inflight.iter().all(Option::is_none) && (stopped(submitted) || exhausted) {
            break;
        }
        if !stopped(submitted) {
            let s = sched.stats();
            run.queue_depth.push(s.queue_depth as f64);
            run.free_pes.push(s.free_pes as f64);
        }
        // Sleep to the next tick; how far past it we wake is generator lag.
        tick_due += TICK;
        let now = Instant::now();
        if tick_due > now {
            std::thread::sleep(tick_due - now);
        } else {
            run.lag_ms_max = run.lag_ms_max.max((now - tick_due).as_secs_f64() * 1e3);
            tick_due = now;
        }
    }
    // A time-limited window ends when the limit was seen to pass; a
    // count-limited one when the last job finished.
    run.window_s = (timed_out.unwrap_or(run.last_done) - t0).as_secs_f64();
    run.lost += run.jobs.iter().filter(|j| j.outcome.is_none()).count();
    run.stats = sched.stats();
    run
}

/// The output checks of a mix run. Returns how many jobs failed one.
pub fn check_mix(run: &MixRun, report: &mut Report) -> u64 {
    report.check(
        "serve-no-job-lost",
        run.lost == 0 && run.stats.failed == 0 && run.stats.outstanding == 0,
        format!(
            "{} refused/wedged/failed at the client, {} failed and {} outstanding in the scheduler",
            run.lost, run.stats.failed, run.stats.outstanding
        ),
    );
    report.check(
        "serve-exact-dedup",
        run.stats.cache_misses == run.keys.len() as u64,
        format!(
            "{} engine executions for {} distinct cache keys",
            run.stats.cache_misses,
            run.keys.len()
        ),
    );
    // Every job answering one key must carry one outcome.
    let mut by_key: BTreeMap<CacheKey, (u64, u64)> = BTreeMap::new();
    let mut mismatched = 0u64;
    for j in &run.jobs {
        if let Some(out) = &j.outcome {
            let witness = (out.state_crc, out.steps);
            if *by_key.entry(j.key).or_insert(witness) != witness {
                mismatched += 1;
            }
        }
    }
    report.check(
        "serve-duplicates-equal-leader",
        mismatched == 0,
        format!("{mismatched} duplicate outcomes differ from their leader's"),
    );
    for (key, (crc, _)) in &by_key {
        report
            .crcs
            .insert(format!("job:{key}"), format!("{crc:016x}"));
    }
    run.lost as u64 + mismatched
}

/// Latencies (ms) of the in-window jobs `pick` selects.
fn latencies(run: &MixRun, pick: impl Fn(&JobRecord) -> bool) -> Vec<f64> {
    run.jobs
        .iter()
        .filter(|j| j.in_window && pick(j))
        .map(|j| j.latency_ms)
        .collect()
}

/// One warm-up job per class through a scheduler of its own: everything a
/// process pays before its first timed submit.
fn set_up(seed: u64, per_tenant: usize) -> (Vec<Vec<Planned>>, f64) {
    let t = Instant::now();
    let queues = plan(seed, per_tenant);
    let sched = new_scheduler();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E70);
    for class in [
        Class::Short,
        Class::Medium,
        Class::Long,
        Class::Ensemble,
        Class::Analyze,
    ] {
        // Seeds above the plan's u32 range: never a cache hit for the mix.
        let spec = class_spec(class, (1 << 40) + seed, &mut rng);
        let (id, _) = sched.submit(spec).expect("warm-up spec is valid");
        sched
            .wait(id, WEDGE_TIMEOUT)
            .expect("warm-up job finishes")
            .expect("warm-up job succeeds");
    }
    sched.shutdown();
    (queues, t.elapsed().as_secs_f64())
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(seed: u64, limits: &Limits, report: &mut Report) {
    let stop = limits.stop(24);
    let per_tenant = stop
        .max_units
        .map_or(PLAN_PER_TENANT, |jobs| jobs.div_ceil(TENANTS));
    let mut setup_s = Vec::new();
    let mut queues = Vec::new();
    for _ in 0..limits.pick(SETUPS, 1) {
        let (q, secs) = set_up(seed, per_tenant);
        setup_s.push(secs);
        queues = q;
    }
    let sched = new_scheduler();
    let run = drive(&sched, &queues, &stop, &mut Tracer::new(false));
    sched.drain(WEDGE_TIMEOUT);
    sched.shutdown();

    report.attempted = run.jobs.len() as u64 + run.lost as u64;
    report.failed = check_mix(&run, report).min(report.attempted);

    let lat = latencies(&run, |_| true);
    // On serve-mix a step is one delivered to a client (a cache hit
    // delivers its steps without integrating them), and ms per step is the
    // window over the steps one tenant was delivered — the median tenant's.
    // (The median over jobs of latency ÷ steps sits on the cliff between
    // cache hits and queued jobs and moves by half from seed to seed.)
    let mut delivered = [0.0f64; TENANTS];
    for j in run.jobs.iter().filter(|j| j.in_window) {
        delivered[j.tenant] += j.outcome.as_ref().map_or(0.0, |o| o.steps as f64);
    }
    let steps: f64 = delivered.iter().sum();
    let per_tenant: Vec<f64> = delivered
        .iter()
        .map(|d| run.window_s * 1e3 / d.max(1.0))
        .collect();
    report.metric("setup_s", median(&setup_s), setup_s.len());
    report.metric("steps_per_s", steps / run.window_s, lat.len());
    report.metric("step_ms_p50", median(&per_tenant), per_tenant.len());
    report.metric("jobs_per_s", lat.len() as f64 / run.window_s, lat.len());
    report.metric("peak_rss_mb", peak_rss_mb(), 1);
    report.samples.insert("setup_s".into(), setup_s);
    report.samples.insert("job_latency_ms".into(), lat);
    // Per job, parallel to the latencies: tenant, class (0 short, 1 medium, 2 long,
    // 3 ensemble, 4 analyze), steps delivered, and whether it ran (1) or
    // was answered from the cache or a leader (0).
    let per_job = |f: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> {
        run.jobs.iter().filter(|j| j.in_window).map(f).collect()
    };
    report
        .samples
        .insert("job_tenant".into(), per_job(&|j| j.tenant as f64));
    report
        .samples
        .insert("job_class".into(), per_job(&|j| j.class as usize as f64));
    report.samples.insert(
        "job_steps".into(),
        per_job(&|j| j.outcome.as_ref().map_or(0.0, |o| o.steps as f64)),
    );
    report.samples.insert(
        "job_fresh".into(),
        per_job(&|j| f64::from(j.disposition == Disposition::Enqueued)),
    );
}

/// Repeats of each job timed alone; the median is reported.
const ALONE_REPS: u64 = 2;

/// A representative spec of each class the ledger times alone.
fn isolated_spec(class: Class, seed: u64) -> JobSpec {
    let mut spec = class_spec(
        class,
        (1 << 41) + seed,
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    if class == Class::Short {
        // The middle of the class's ranges, so seeds compare like for like.
        spec.atoms = 225;
        spec.steps = 30;
    }
    spec
}

/// The spec straight through `ParallelSim`, as a caller without the
/// service would run it: build, construct, integrate.
fn direct_job_ms(spec: &JobSpec) -> f64 {
    let t = Instant::now();
    let mut sim = ParallelSim::with_backend(spec.build_system(), spec.pes, spec.dt, spec.backend)
        .expect("class specs are valid");
    sim.migrate_every = spec.migrate_every;
    std::hint::black_box(sim.run(spec.steps));
    t.elapsed().as_secs_f64() * 1e3
}

/// The serve layer's ledger: a `jobs`-job closed-loop mix with spans, each
/// class alone on an idle scheduler, the same specs straight through
/// `ParallelSim`, and the submit-path micro-costs. Fills every `serve.*`
/// metric; returns the jobs that failed a check.
pub fn serve_ledger(seed: u64, jobs: usize, tracer: &mut Tracer, report: &mut Report) -> u64 {
    let stop = Stop::after_units(jobs);
    let queues = plan(seed, jobs.div_ceil(TENANTS));
    let sched = new_scheduler();
    let (mut run, _) = tracer.span("serve.mix", |t| drive(&sched, &queues, &stop, t));
    // One guaranteed cache hit, so its latency is always measured.
    let done = run.jobs.iter().find(|j| j.outcome.is_some()).map(|j| j.key);
    let resubmit = queues
        .iter()
        .flatten()
        .find(|p| Some(p.spec.cache_key()) == done);
    let mut hit_ms = latencies(&run, |j| j.disposition == Disposition::CacheHit);
    if let Some(p) = resubmit {
        let mut spec = p.spec.clone();
        spec.tenant = "tenant-probe".into();
        let t = Instant::now();
        let (_, disposition) = sched.submit(spec).expect("resubmitted spec is valid");
        hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(
            "serve-resubmit-is-cache-hit",
            disposition == Disposition::CacheHit,
            format!(
                "a finished spec resubmitted under another tenant was {}",
                disposition.as_str()
            ),
        );
    }
    sched.drain(WEDGE_TIMEOUT);
    run.stats = sched.stats();
    // The probe's resubmission is one more submit against the same keys.
    sched.shutdown();
    let failed = check_mix(&run, report);

    // Each class alone on an idle scheduler, then without the scheduler.
    // A repeat needs its own seed, or it would be a cache hit.
    let mut isolated = BTreeMap::new();
    let idle = new_scheduler();
    for class in [Class::Short, Class::Medium, Class::Long] {
        let samples: Vec<f64> = (0..ALONE_REPS)
            .map(|rep| {
                let spec = isolated_spec(class, seed + rep);
                tracer
                    .span("serve.isolated_job", |_| {
                        let (id, _) = idle.submit(spec).expect("class spec is valid");
                        idle.wait(id, WEDGE_TIMEOUT)
                            .expect("job finishes")
                            .expect("job succeeds");
                    })
                    .1
            })
            .collect();
        isolated.insert(class, median(&samples));
    }
    idle.shutdown();
    let mut direct = |class: Class| {
        let samples: Vec<f64> = (0..ALONE_REPS)
            .map(|rep| {
                let spec = isolated_spec(class, seed + rep);
                tracer.span("serve.direct_job", |_| direct_job_ms(&spec)).0
            })
            .collect();
        median(&samples)
    };
    let direct_short = direct(Class::Short);
    let direct_medium = direct(Class::Medium);

    let medium = isolated_spec(Class::Medium, seed);
    let text = format!(
        "{{\"system\":\"water\",\"atoms\":{},\"boxSize\":{},\"steps\":{},\"seed\":{},\
         \"backend\":\"threads\",\"tenant\":\"tenant-0\"}}",
        medium.atoms, medium.box_size, medium.steps, medium.seed
    );
    let parsed = JobSpec::parse(&text).expect("the probe spec text parses");
    report.check(
        "serve-spec-text-roundtrip",
        parsed.cache_key() == medium.cache_key(),
        "the JSON text of a spec hashes to the spec's cache key".into(),
    );

    let all = latencies(&run, |_| true);
    let fresh = |class: Class| {
        latencies(&run, move |j| {
            j.class == class && j.disposition == Disposition::Enqueued
        })
    };
    // Queue wait: what a job's latency adds to its class's service time
    // alone, over the fresh jobs of the three timed classes.
    let waits: Vec<f64> = run
        .jobs
        .iter()
        .filter(|j| j.in_window && j.disposition == Disposition::Enqueued)
        .filter_map(|j| isolated.get(&j.class).map(|alone| j.latency_ms - alone))
        .collect();
    let s = run.stats;
    let served = (s.cache_hits + s.coalesced + s.cache_misses).max(1) as f64;
    let submits: Vec<f64> = run.jobs.iter().map(|j| j.submit_us).collect();
    let n = all.len();
    report.metric("serve.job_latency_ms_p50", median(&all), n);
    report.metric("serve.job_latency_ms_p95", percentile(&all, 0.95), n);
    report.metric("serve.job_latency_ms_max", max(&all), n);
    let short = fresh(Class::Short);
    report.metric(
        "serve.short_job_latency_ms_p50",
        median(&short),
        short.len(),
    );
    let long = fresh(Class::Long);
    report.metric("serve.long_job_latency_ms_p50", median(&long), long.len());
    report.metric(
        "serve.cache_hit_latency_ms_p50",
        median(&hit_ms),
        hit_ms.len(),
    );
    report.metric("serve.engine_executions", s.cache_misses as f64, 1);
    report.metric("serve.cache_hits", s.cache_hits as f64, 1);
    report.metric("serve.coalesced", s.coalesced as f64, 1);
    report.metric(
        "serve.dedup_rate",
        (s.cache_hits + s.coalesced) as f64 / served,
        1,
    );
    report.metric(
        "serve.preemptions_per_job",
        s.preemptions as f64 / n.max(1) as f64,
        n,
    );
    report.metric(
        "serve.pool_busy_frac",
        1.0 - mean(&run.free_pes) / POOL_PES as f64,
        run.free_pes.len(),
    );
    report.metric(
        "serve.queue_depth_mean",
        mean(&run.queue_depth),
        run.queue_depth.len(),
    );
    report.metric(
        "serve.queue_depth_peak",
        max(&run.queue_depth),
        run.queue_depth.len(),
    );
    report.metric("serve.submit_us_p50", median(&submits), submits.len());
    report.metric(
        "serve.spec_parse_us",
        median_secs(200, || JobSpec::parse(&text)) * 1e6,
        200,
    );
    report.metric(
        "serve.cache_key_us",
        median_secs(200, || medium.cache_key()) * 1e6,
        200,
    );
    report.metric(
        "serve.isolated_job_ms_short",
        isolated[&Class::Short],
        ALONE_REPS as usize,
    );
    report.metric(
        "serve.isolated_job_ms_medium",
        isolated[&Class::Medium],
        ALONE_REPS as usize,
    );
    report.metric(
        "serve.isolated_job_ms_long",
        isolated[&Class::Long],
        ALONE_REPS as usize,
    );
    report.metric(
        "serve.direct_job_ms_short",
        direct_short,
        ALONE_REPS as usize,
    );
    report.metric(
        "serve.direct_job_ms_medium",
        direct_medium,
        ALONE_REPS as usize,
    );
    report.metric("serve.queue_wait_ms_p50", median(&waits), waits.len());
    report.metric(
        "serve.generator_lag_ms_max",
        run.lag_ms_max,
        run.queue_depth.len(),
    );
    report.samples.insert("serve.job_latency_ms".into(), all);
    report
        .samples
        .insert("serve.queue_wait_ms".into(), waits.clone());

    // Ledger: a fresh job's latency is its class's service time alone plus
    // the wait the loaded pool adds; a job alone is the direct run plus
    // what the scheduler adds.
    let timed: Vec<f64> = run
        .jobs
        .iter()
        .filter(|j| j.in_window && j.disposition == Disposition::Enqueued)
        .filter(|j| isolated.contains_key(&j.class))
        .map(|j| j.latency_ms)
        .collect();
    let row = |name: &str, parent: Option<&str>, ms: f64| LedgerRow {
        name: name.into(),
        parent: parent.map(String::from),
        ms,
    };
    let latency = mean(&timed);
    let wait = mean(&waits);
    report.ledger.extend([
        row("serve.fresh_job_latency_mean", None, latency),
        row(
            "serve.service_alone_mean",
            Some("serve.fresh_job_latency_mean"),
            latency - wait,
        ),
        row(
            "serve.queue_wait_mean.residual",
            Some("serve.fresh_job_latency_mean"),
            wait,
        ),
        row("serve.isolated_job_medium", None, isolated[&Class::Medium]),
        row(
            "serve.direct_job_medium",
            Some("serve.isolated_job_medium"),
            direct_medium,
        ),
        row(
            "serve.scheduler_overhead_medium.residual",
            Some("serve.isolated_job_medium"),
            isolated[&Class::Medium] - direct_medium,
        ),
    ]);
    failed
}

/// Jobs in the traced run's mix: shorter than the untraced window.
const TRACED_JOBS: usize = 72;

/// The traced run: the serve ledger on the workload's own mix, the MD
/// ledger on the long class's deck, and the fixed probes.
pub fn run_traced(seed: u64, limits: &Limits, out: &std::path::Path, report: &mut Report) {
    let mut tracer = Tracer::new(true);
    let jobs = limits.pick(TRACED_JOBS, 24);
    report.attempted = jobs as u64;
    report.failed = serve_ledger(seed, jobs, &mut tracer, report).min(report.attempted);
    let long = isolated_spec(Class::Long, seed);
    crate::md_ledger::md_ledger(
        &crate::md_ledger::LedgerDeck {
            system: &|| long.build_system(),
            pes: long.pes,
            dt_fs: long.dt,
            traced_cycles: 3,
        },
        limits,
        out,
        &mut tracer,
        report,
    );
    crate::probes::run(seed, limits, out, &mut tracer, report);
    report.spans = tracer.spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_keys() {
        let a = plan(7, 40);
        let b = plan(7, 40);
        assert_eq!(a, b);
        assert_eq!(
            key_set(a.iter().flatten().map(|p| &p.spec)),
            key_set(b.iter().flatten().map(|p| &p.spec))
        );
        assert_eq!(a.len(), TENANTS);
        assert!(a.iter().all(|q| q.len() == 40));
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = plan(7, 40);
        let b = plan(8, 40);
        assert_ne!(a, b);
        let keys = |p: &[Vec<Planned>]| key_set(p.iter().flatten().map(|p| &p.spec));
        assert_ne!(keys(&a), keys(&b));
    }

    #[test]
    fn mix_has_the_stated_shares_and_valid_specs() {
        let queues = plan(3, 40);
        let all: Vec<&Planned> = queues.iter().flatten().collect();
        assert_eq!(all.len(), 240);
        let dups = all.iter().filter(|p| p.duplicate).count();
        // A quarter of the draws, less the few that had no earlier spec of
        // another tenant to copy.
        assert!((55..=60).contains(&dups), "{dups} duplicates");
        for p in &all {
            p.spec.validate().unwrap();
        }
        for (t, q) in queues.iter().enumerate() {
            assert!(q.iter().all(|p| p.spec.tenant == tenant_name(t)));
        }
        // Duplicates shrink the key set below one key per draw.
        let keys = key_set(all.iter().map(|p| &p.spec));
        let fresh_ensembles = all
            .iter()
            .filter(|p| !p.duplicate && p.class == Class::Ensemble)
            .count();
        assert_eq!(keys.len(), 240 - dups + 4 * fresh_ensembles);
        // Long jobs ask for both PEs, everything else for one.
        assert!(all
            .iter()
            .all(|p| p.spec.pes == if p.class == Class::Long { 2 } else { 1 }));
    }
}
