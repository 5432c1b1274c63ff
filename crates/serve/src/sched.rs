//! The job scheduler: priority + fair-share queuing of hundreds of
//! concurrent jobs over a bounded PE pool, with bit-exact time-slice
//! preemption, request coalescing through a content-addressed result
//! cache, and ensemble fan-out with tree-reduced summaries.
//!
//! Concurrency model: one detached dispatcher thread owns job selection.
//! Each dispatched slice runs on its own worker thread (at most
//! `pool_pes` workers are alive, since every running job holds ≥ 1 PE).
//! All shared state lives under one mutex; `work_cv` wakes the
//! dispatcher, `done_cv` wakes waiters. Workers run slices outside the
//! lock and re-enter it only to report results.
//!
//! Preemption is bit-exact because slices are cut only at
//! decomposition-rebuild boundaries (multiples of the job's
//! `migrate_every` on the *global* step counter) and parking uses the
//! same [`Engine::snapshot`]/[`Engine::restore`] pair as crash recovery —
//! see `crates/core/src/recovery.rs` for why boundary alignment makes
//! restores exact to the last bit. A worker only picks targets (the slice
//! end, an analyze job's next frame) and reports what comes back: phase
//! lengths, the rebuild cadence and the rollback of a killed PE are
//! [`namd_core::recovery::advance`], the same driver the CLI runs on.

use crate::spec::{CacheKey, JobKind, JobSpec};
use analyze::{AnalyzeConfig, AnalyzeParams};
use mdcore::prelude::Vec3;
use namd_core::engine::Engine;
use namd_core::recovery::{advance, Advanced};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub type JobId = u64;

/// Pool-wide scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Total PEs in the pool; the sum of `pes` over running jobs never
    /// exceeds this.
    pub pool_pes: usize,
    /// Target velocity-Verlet updates per slice. Each slice is rounded up
    /// to the job's next `migrate_every` boundary so parking stays
    /// bit-exact.
    pub slice_steps: usize,
    /// Park at *every* slice boundary, even with an idle queue. Keeps
    /// preemption counts deterministic for tests/benchmarks; production
    /// keeps it off so an uncontended job never pays the park/resume cost.
    pub always_park: bool,
    /// Default crash-recovery retry budget for jobs that do not set one.
    pub max_recoveries: u32,
    /// Default recovery backoff base (ms) for jobs that do not set one.
    pub recovery_backoff_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            pool_pes: 8,
            slice_steps: 50,
            always_park: false,
            max_recoveries: 3,
            recovery_backoff_ms: 10,
        }
    }
}

/// Where a job sits in its lifecycle. See DESIGN.md §3.9 for the full
/// transition diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for PEs (never run, or a coalesced follower waiting on its
    /// leader).
    Queued,
    /// A worker thread holds its PEs and is advancing it.
    Running,
    /// Preempted at a migration boundary; snapshot held, PEs returned.
    Parked,
    /// Ensemble parent waiting on child jobs.
    Fanned,
    /// Finished; outcome available (possibly straight from cache).
    Done,
    /// Gave up (validation raced, too many crashes, or a panic).
    Failed,
}

impl JobState {
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Parked => "parked",
            JobState::Fanned => "fanned",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// How a submit was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// New execution enqueued.
    Enqueued,
    /// Result already cached; job completed instantly.
    CacheHit,
    /// Identical spec already in flight; attached as a follower.
    Coalesced,
}

impl Disposition {
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Enqueued => "enqueued",
            Disposition::CacheHit => "cache-hit",
            Disposition::Coalesced => "coalesced",
        }
    }
}

/// Streaming running summary of per-step total energies (Welford), with
/// an exact pairwise merge so ensemble summaries tree-reduce.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergySummary {
    pub n: u64,
    pub mean: f64,
    pub m2: f64,
    pub min: f64,
    pub max: f64,
}

impl EnergySummary {
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            *self = EnergySummary {
                n: 1,
                mean: x,
                m2: 0.0,
                min: x,
                max: x,
            };
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Chan et al. parallel-variance merge; the reduction operator for
    /// ensemble trees.
    pub fn merge(a: EnergySummary, b: EnergySummary) -> EnergySummary {
        if a.n == 0 {
            return b;
        }
        if b.n == 0 {
            return a;
        }
        let n = a.n + b.n;
        let delta = b.mean - a.mean;
        EnergySummary {
            n,
            mean: a.mean + delta * (b.n as f64 / n as f64),
            m2: a.m2 + b.m2 + delta * delta * (a.n as f64 * b.n as f64 / n as f64),
            min: a.min.min(b.min),
            max: a.max.max(b.max),
        }
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// Pairwise tree reduction (PFA pattern): combine adjacent pairs level by
/// level, so the reduction has ⌈log₂ n⌉ depth and a deterministic shape.
pub fn tree_reduce(mut level: Vec<EnergySummary>) -> EnergySummary {
    if level.is_empty() {
        return EnergySummary::default();
    }
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    EnergySummary::merge(pair[0], pair[1])
                } else {
                    pair[0]
                }
            })
            .collect();
    }
    level[0]
}

/// One streamed metrics frame, emitted per engine phase (≤ one
/// `migrate_every` chunk of steps). Clients `Watch` these live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsFrame {
    /// Global step count after this phase.
    pub step: u64,
    /// Total energy at the phase-final step.
    pub energy_total: f64,
    /// Potential energy at the phase-final step.
    pub energy_potential: f64,
    /// Virtual-time critical path of the phase, seconds.
    pub critical_path: f64,
    /// Runtime messages sent during the phase.
    pub msgs_sent: u64,
    /// Wire frames / bytes (proc-backend transports; 0 on des/threads).
    pub wire_bytes: u64,
}

/// Reduced observables of an analysis job, summarized for the outcome
/// record. `obs_crc` is the bit-identity witness over the fully merged
/// partial — identical across backends and PE counts by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisSummary {
    /// Frames captured and analyzed (including the step-0 frame).
    pub frames: u32,
    /// First RDF maximum: location (Å) and height.
    pub rdf_peak_r: f64,
    pub rdf_peak_g: f64,
    /// Kabsch RMSD vs the step-0 frame, mean and max over frames (Å).
    pub rmsd_mean: f64,
    pub rmsd_max: f64,
    /// Self-diffusion coefficient from the MSD slope (Å²/fs).
    pub diffusion: f64,
    /// Mean contact occupancy over group pairs.
    pub contact_occupancy: f64,
    /// CRC-64 over the packed reduced partial.
    pub obs_crc: u64,
}

impl AnalysisSummary {
    fn from_observables(obs: &analyze::Observables) -> AnalysisSummary {
        let (rdf_peak_r, rdf_peak_g) = obs.rdf_peak();
        let n = obs.rmsd.len().max(1) as f64;
        AnalysisSummary {
            frames: obs.n_frames as u32,
            rdf_peak_r,
            rdf_peak_g,
            rmsd_mean: obs.rmsd.iter().sum::<f64>() / n,
            rmsd_max: obs.rmsd.iter().fold(0.0, |m, &x| m.max(x)),
            diffusion: obs.diffusion,
            contact_occupancy: obs.mean_contact_occupancy(),
            obs_crc: obs.obs_crc,
        }
    }
}

/// The terminal result of a job: final-state fingerprint plus the energy
/// summary. For ensemble parents, the summary is the tree-reduced merge
/// over children and the fingerprint is a CRC over child fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    pub key: CacheKey,
    /// Velocity-Verlet updates integrated (sum over children for parents).
    pub steps: u64,
    /// Per-step total-energy summary (tree-reduced for parents).
    pub energy: EnergySummary,
    /// CRC-64 over the bit patterns of final positions ++ velocities;
    /// *the* bit-identity witness used by preemption/dedup tests.
    pub state_crc: u64,
    /// Times this job was parked and resumed.
    pub preemptions: u32,
    /// Crash-recoveries performed (fault-plan drills).
    pub recoveries: u32,
    /// Ensemble children merged into this outcome (0 for leaf jobs).
    pub children: u32,
    /// Reduced observables (analyze jobs only).
    pub analysis: Option<AnalysisSummary>,
}

/// Point-in-time job status for the `Status` request.
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub id: JobId,
    pub state: JobState,
    pub steps_done: u64,
    pub steps_total: u64,
    pub preemptions: u32,
    pub recoveries: u32,
    pub error: Option<String>,
}

/// Pool-wide counters, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub cache_hits: u64,
    pub coalesced: u64,
    pub cache_misses: u64,
    pub preemptions: u64,
    pub recoveries: u64,
    pub ensemble_children: u64,
    /// Jobs currently waiting for PEs.
    pub queue_depth: u64,
    /// Jobs currently holding PEs.
    pub running: u64,
    /// Currently idle PEs.
    pub free_pes: u64,
    /// Max simultaneous non-terminal jobs observed.
    pub peak_outstanding: u64,
    /// Current non-terminal jobs.
    pub outstanding: u64,
}

struct ParkedRun {
    snapshot: ckpt::Snapshot,
}

struct Job {
    spec: JobSpec,
    key: CacheKey,
    state: JobState,
    /// FIFO tiebreaker (submission order).
    seq: u64,
    parked: Option<ParkedRun>,
    outcome: Option<Arc<JobOutcome>>,
    error: Option<String>,
    /// Jobs coalesced onto this one (resolved when this job finishes).
    followers: Vec<JobId>,
    /// Ensemble parent to notify on completion.
    parent: Option<JobId>,
    /// For parents: children not yet terminal / summaries in child order.
    pending_children: usize,
    child_outcomes: Vec<Option<Arc<JobOutcome>>>,
    /// For children: index into the parent's `child_outcomes`.
    child_index: usize,
    steps_done: u64,
    energy: EnergySummary,
    preemptions: u32,
    recoveries: u32,
    metrics: Vec<MetricsFrame>,
    /// Analyze jobs: frames captured so far (step 0, then every
    /// `frame_every` steps). Lives here, not in the worker, so parked
    /// jobs keep their capture history across preemptions.
    frames: Vec<Vec<Vec3>>,
}

enum CacheEntry {
    InFlight(JobId),
    Done(Arc<JobOutcome>),
}

struct SchedState {
    next_id: JobId,
    next_seq: u64,
    jobs: HashMap<JobId, Job>,
    /// Runnable job ids (Queued or Parked). Order is irrelevant — the
    /// dispatcher rescans with the fair-share comparator each time,
    /// because tenant usage changes between picks.
    queue: Vec<JobId>,
    free_pes: usize,
    cache: HashMap<CacheKey, CacheEntry>,
    /// Tenant → weighted steps consumed (fair-share accounting).
    tenants: HashMap<String, f64>,
    stats: ServeStats,
    draining: bool,
    shutdown: bool,
}

struct Inner {
    cfg: SchedulerConfig,
    state: Mutex<SchedState>,
    /// Wakes the dispatcher (queue or pool changed).
    work_cv: Condvar,
    /// Wakes `wait`/`drain` (job states changed).
    done_cv: Condvar,
}

/// Handle to a running scheduler; clone freely (server threads share it).
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl Scheduler {
    /// Start a scheduler with its dispatcher thread.
    pub fn new(cfg: SchedulerConfig) -> Scheduler {
        assert!(cfg.pool_pes >= 1, "pool needs at least one PE");
        assert!(cfg.slice_steps >= 1, "slices must make progress");
        let inner = Arc::new(Inner {
            state: Mutex::new(SchedState {
                next_id: 1,
                next_seq: 0,
                jobs: HashMap::new(),
                queue: Vec::new(),
                free_pes: cfg.pool_pes,
                cache: HashMap::new(),
                tenants: HashMap::new(),
                stats: ServeStats {
                    free_pes: cfg.pool_pes as u64,
                    ..Default::default()
                },
                draining: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cfg,
        });
        let d = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || dispatcher(d))
            .expect("spawn dispatcher");
        Scheduler { inner }
    }

    /// Submit a validated spec. Returns the job id and how the request
    /// was satisfied (enqueued / cache hit / coalesced onto an identical
    /// in-flight job). Ensemble specs fan out here; the returned id is
    /// the parent's.
    pub fn submit(&self, spec: JobSpec) -> Result<(JobId, Disposition), String> {
        let mut st = self.inner.state.lock().unwrap();
        if st.draining || st.shutdown {
            st.stats.rejected += 1;
            return Err("scheduler is draining; not accepting new jobs".into());
        }
        if spec.pes > self.inner.cfg.pool_pes {
            st.stats.rejected += 1;
            return Err(format!(
                "job wants {} PEs but the pool has {}",
                spec.pes, self.inner.cfg.pool_pes
            ));
        }
        st.stats.submitted += 1;
        let (id, disp) = self.submit_locked(&mut st, spec, None, 0);
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
        Ok((id, disp))
    }

    /// Internal submit; also used for ensemble children (`parent` set).
    fn submit_locked(
        &self,
        st: &mut SchedState,
        spec: JobSpec,
        parent: Option<JobId>,
        child_index: usize,
    ) -> (JobId, Disposition) {
        let key = spec.cache_key();
        let id = st.next_id;
        st.next_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let mut job = Job {
            spec,
            key,
            state: JobState::Queued,
            seq,
            parked: None,
            outcome: None,
            error: None,
            followers: Vec::new(),
            parent,
            pending_children: 0,
            child_outcomes: Vec::new(),
            child_index,
            steps_done: 0,
            energy: EnergySummary::default(),
            preemptions: 0,
            recoveries: 0,
            metrics: Vec::new(),
            frames: Vec::new(),
        };
        st.stats.outstanding += 1;
        st.stats.peak_outstanding = st.stats.peak_outstanding.max(st.stats.outstanding);

        // Ensemble parent: fan out children, then wait on them. The
        // parent itself never touches an engine (and holds no PEs), but
        // its own key is cached too, so a repeated ensemble request is a
        // single cache hit.
        if job.spec.ensemble.is_some() {
            match st.cache.get(&key) {
                Some(CacheEntry::Done(out)) => {
                    let out = Arc::clone(out);
                    st.stats.cache_hits += 1;
                    st.jobs.insert(id, job);
                    self.finish_locked(st, id, Ok(out));
                    return (id, Disposition::CacheHit);
                }
                Some(CacheEntry::InFlight(leader)) => {
                    let leader = *leader;
                    st.stats.coalesced += 1;
                    st.jobs.get_mut(&leader).unwrap().followers.push(id);
                    st.jobs.insert(id, job);
                    return (id, Disposition::Coalesced);
                }
                None => {}
            }
            st.stats.cache_misses += 1;
            st.cache.insert(key, CacheEntry::InFlight(id));
            let children = job.spec.child_specs();
            job.state = JobState::Fanned;
            job.pending_children = children.len();
            job.child_outcomes = vec![None; children.len()];
            st.jobs.insert(id, job);
            st.stats.ensemble_children += children.len() as u64;
            for (i, child) in children.into_iter().enumerate() {
                self.submit_locked(st, child, Some(id), i);
            }
            // All children may have been cache hits, completing the
            // parent synchronously.
            return (id, Disposition::Enqueued);
        }

        match st.cache.get(&key) {
            Some(CacheEntry::Done(out)) => {
                let out = Arc::clone(out);
                st.stats.cache_hits += 1;
                st.jobs.insert(id, job);
                self.finish_locked(st, id, Ok(out));
                (id, Disposition::CacheHit)
            }
            Some(CacheEntry::InFlight(leader)) => {
                let leader = *leader;
                st.stats.coalesced += 1;
                st.jobs.get_mut(&leader).unwrap().followers.push(id);
                st.jobs.insert(id, job);
                (id, Disposition::Coalesced)
            }
            None => {
                st.stats.cache_misses += 1;
                st.cache.insert(key, CacheEntry::InFlight(id));
                st.jobs.insert(id, job);
                st.queue.push(id);
                st.stats.queue_depth = st.queue.len() as u64;
                (id, Disposition::Enqueued)
            }
        }
    }

    /// Move a job to a terminal state, publish/flush the cache entry,
    /// resolve followers, and notify its ensemble parent. Must be called
    /// with the state lock held.
    fn finish_locked(
        &self,
        st: &mut SchedState,
        id: JobId,
        result: Result<Arc<JobOutcome>, String>,
    ) {
        let (followers, parent, child_index, key, was_leader) = {
            let job = st.jobs.get_mut(&id).unwrap();
            match &result {
                Ok(out) => {
                    job.state = JobState::Done;
                    job.steps_done = out.steps;
                    job.outcome = Some(Arc::clone(out));
                }
                Err(e) => {
                    job.state = JobState::Failed;
                    job.error = Some(e.clone());
                }
            }
            let was_leader = matches!(
                st.cache.get(&job.key),
                Some(CacheEntry::InFlight(leader)) if *leader == id
            );
            (
                std::mem::take(&mut job.followers),
                job.parent,
                job.child_index,
                job.key,
                was_leader,
            )
        };
        match (&result, was_leader) {
            (Ok(out), true) => {
                st.cache.insert(key, CacheEntry::Done(Arc::clone(out)));
            }
            (Err(_), true) => {
                // Failures are not cached: the next identical request
                // retries from scratch.
                st.cache.remove(&key);
            }
            _ => {}
        }
        match &result {
            Ok(_) => st.stats.completed += 1,
            Err(_) => st.stats.failed += 1,
        }
        st.stats.outstanding = st.stats.outstanding.saturating_sub(1);

        for f in followers {
            self.finish_locked(st, f, result.clone());
        }
        if let Some(pid) = parent {
            self.child_finished_locked(st, pid, child_index, &result);
        }
        self.inner.done_cv.notify_all();
    }

    /// A child of ensemble parent `pid` reached a terminal state.
    fn child_finished_locked(
        &self,
        st: &mut SchedState,
        pid: JobId,
        child_index: usize,
        result: &Result<Arc<JobOutcome>, String>,
    ) {
        let ready = {
            let parent = st.jobs.get_mut(&pid).unwrap();
            if parent.state.is_terminal() {
                return; // already failed via an earlier child
            }
            match result {
                Ok(out) => {
                    parent.child_outcomes[child_index] = Some(Arc::clone(out));
                    parent.pending_children -= 1;
                    parent.pending_children == 0
                }
                Err(_) => {
                    // Fail fast: one failed child fails the ensemble.
                    let e = result.as_ref().unwrap_err().clone();
                    self.finish_locked(
                        st,
                        pid,
                        Err(format!("ensemble child {child_index} failed: {e}")),
                    );
                    return;
                }
            }
        };
        if !ready {
            return;
        }
        // All children done: pairwise tree-reduce their summaries in
        // child (seed) order — deterministic reduction shape.
        let parent = st.jobs.get(&pid).unwrap();
        let outs: Vec<Arc<JobOutcome>> = parent
            .child_outcomes
            .iter()
            .map(|o| o.clone().unwrap())
            .collect();
        let energy = tree_reduce(outs.iter().map(|o| o.energy).collect());
        let mut crc_bytes = Vec::with_capacity(outs.len() * 8);
        let mut steps = 0u64;
        let mut preemptions = 0u32;
        let mut recoveries = 0u32;
        for o in &outs {
            crc_bytes.extend_from_slice(&o.state_crc.to_le_bytes());
            steps += o.steps;
            preemptions += o.preemptions;
            recoveries += o.recoveries;
        }
        let outcome = Arc::new(JobOutcome {
            key: parent.key,
            steps,
            energy,
            state_crc: ckpt::crc64(&crc_bytes),
            preemptions,
            recoveries,
            children: outs.len() as u32,
            analysis: None,
        });
        self.finish_locked(st, pid, Ok(outcome));
    }

    /// Current status of a job, if it exists.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.state.lock().unwrap();
        let job = st.jobs.get(&id)?;
        Some(JobStatus {
            id,
            state: job.state,
            steps_done: job.steps_done,
            steps_total: if job.spec.ensemble.is_some() {
                job.spec.steps as u64 * job.child_outcomes.len() as u64
            } else {
                job.spec.steps as u64
            },
            preemptions: job.preemptions,
            recoveries: job.recoveries,
            error: job.error.clone(),
        })
    }

    /// Block until the job is terminal (or the timeout passes — `None`).
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<Result<Arc<JobOutcome>, String>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.jobs.get(&id) {
                None => return Some(Err(format!("no such job {id}"))),
                Some(job) if job.state == JobState::Done => {
                    return Some(Ok(Arc::clone(job.outcome.as_ref().unwrap())))
                }
                Some(job) if job.state == JobState::Failed => {
                    return Some(Err(job.error.clone().unwrap_or_else(|| "failed".into())))
                }
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self.inner.done_cv.wait_timeout(st, deadline - now).unwrap();
            st = g;
        }
    }

    /// Metrics frames with index ≥ `from`, plus whether the job is
    /// terminal (stream end).
    pub fn metrics_after(&self, id: JobId, from: usize) -> Option<(Vec<MetricsFrame>, bool)> {
        let st = self.inner.state.lock().unwrap();
        let job = st.jobs.get(&id)?;
        let frames = if from < job.metrics.len() {
            job.metrics[from..].to_vec()
        } else {
            Vec::new()
        };
        Some((frames, job.state.is_terminal()))
    }

    pub fn stats(&self) -> ServeStats {
        self.inner.state.lock().unwrap().stats
    }

    /// Stop accepting jobs and wait for everything in flight to reach a
    /// terminal state. Returns `false` on timeout (jobs still pending).
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        st.draining = true;
        self.inner.work_cv.notify_all();
        loop {
            if st.stats.outstanding == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self.inner.done_cv.wait_timeout(st, deadline - now).unwrap();
            st = g;
        }
    }

    /// Stop the dispatcher. In-flight slices finish and park; queued jobs
    /// stay queued. Call [`Scheduler::drain`] first for a graceful stop.
    pub fn shutdown(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.shutdown = true;
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
    }
}

/// Fair-share comparator: priority class first (higher runs earlier),
/// then the tenant that has consumed the least weighted work, then
/// submission order. Returns true if `a` should run before `b`.
fn runs_before(st: &SchedState, a: &Job, b: &Job) -> bool {
    if a.spec.priority != b.spec.priority {
        return a.spec.priority > b.spec.priority;
    }
    let ua = st.tenants.get(&a.spec.tenant).copied().unwrap_or(0.0);
    let ub = st.tenants.get(&b.spec.tenant).copied().unwrap_or(0.0);
    if ua != ub {
        return ua < ub;
    }
    a.seq < b.seq
}

fn dispatcher(inner: Arc<Inner>) {
    let sched = Scheduler { inner };
    let mut st = sched.inner.state.lock().unwrap();
    loop {
        if st.shutdown {
            return;
        }
        // Backfill pick: the best-ranked runnable job that fits the free
        // pool right now (smaller jobs may overtake a large job waiting
        // for a big block; fair-share ordering bounds how long).
        let mut best: Option<usize> = None;
        for (qi, &id) in st.queue.iter().enumerate() {
            let job = &st.jobs[&id];
            if job.spec.pes > st.free_pes {
                continue;
            }
            match best {
                None => best = Some(qi),
                Some(bi) => {
                    if runs_before(&st, job, &st.jobs[&st.queue[bi]]) {
                        best = Some(qi);
                    }
                }
            }
        }
        let Some(qi) = best else {
            st = sched.inner.work_cv.wait(st).unwrap();
            continue;
        };
        let id = st.queue.swap_remove(qi);
        st.stats.queue_depth = st.queue.len() as u64;
        let job = st.jobs.get_mut(&id).unwrap();
        job.state = JobState::Running;
        let pes = job.spec.pes;
        st.free_pes -= pes;
        st.stats.free_pes = st.free_pes as u64;
        st.stats.running += 1;
        let worker_inner = Arc::clone(&sched.inner);
        std::thread::Builder::new()
            .name(format!("serve-job-{id}"))
            .spawn(move || worker(worker_inner, id, pes))
            .expect("spawn worker");
    }
}

/// Run one scheduling slice (possibly extended while the queue is empty)
/// of job `id`, then either finish it or park it back into the queue.
fn worker(inner: Arc<Inner>, id: JobId, pes: usize) {
    let sched = Scheduler { inner };
    let result = catch_unwind(AssertUnwindSafe(|| run_slices(&sched, id)));
    let mut st = sched.inner.state.lock().unwrap();
    st.free_pes += pes;
    st.stats.free_pes = st.free_pes as u64;
    st.stats.running -= 1;
    match result {
        Ok(SliceEnd::Finished(outcome)) => {
            sched.finish_locked(&mut st, id, Ok(Arc::new(outcome)));
        }
        Ok(SliceEnd::Parked) => {
            let job = st.jobs.get_mut(&id).unwrap();
            job.state = JobState::Parked;
            st.queue.push(id);
            st.stats.queue_depth = st.queue.len() as u64;
        }
        Ok(SliceEnd::Failed(e)) => {
            sched.finish_locked(&mut st, id, Err(e));
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            sched.finish_locked(&mut st, id, Err(format!("job panicked: {msg}")));
        }
    }
    sched.inner.work_cv.notify_all();
    sched.inner.done_cv.notify_all();
}

enum SliceEnd {
    Finished(JobOutcome),
    Parked,
    Failed(String),
}

/// CRC-64 over the bit patterns of the final positions and velocities —
/// the bit-identity witness stored in [`JobOutcome::state_crc`].
fn state_fingerprint(engine: &Engine) -> u64 {
    let sys = engine.system();
    let mut bytes = Vec::with_capacity((sys.positions.len() * 6 + 1) * 8);
    for v in sys.positions.iter().chain(sys.velocities.iter()) {
        bytes.extend_from_slice(&v.x.to_le_bytes());
        bytes.extend_from_slice(&v.y.to_le_bytes());
        bytes.extend_from_slice(&v.z.to_le_bytes());
    }
    ckpt::crc64(&bytes)
}

/// Record the engine's current positions as the next analysis frame.
/// Idempotent across crash-recovery replays and park/resume: the frame
/// index is a pure function of the step count, and a frame is appended
/// only when it is the next one missing (replays after a rollback are
/// bit-identical, so an already-captured frame needs no refresh).
fn capture_frame(sched: &Scheduler, id: JobId, engine: &Engine, frame_every: usize) {
    if !engine.steps_done.is_multiple_of(frame_every) {
        return;
    }
    let idx = engine.steps_done / frame_every;
    let positions = engine.system().positions.clone();
    let mut st = sched.inner.state.lock().unwrap();
    let job = st.jobs.get_mut(&id).unwrap();
    if job.frames.len() == idx {
        job.frames.push(positions);
    }
}

/// Fan the captured frames out over the job's own backend and PE count
/// as analysis chares. The reduced observables are bit-identical across
/// backends and PE counts, so caching the summary under the physics key
/// is sound even though service fields choose the substrate.
fn run_analysis(
    spec: &JobSpec,
    engine: &Engine,
    frames: &[Vec<Vec3>],
) -> Result<AnalysisSummary, String> {
    let cell = engine.system().cell;
    let params = AnalyzeParams {
        r_max: spec.cutoff,
        rdf_bins: spec.rdf_bins,
        contact_cutoff: 0.5 * spec.cutoff,
        frame_dt: spec.dt * spec.frame_every as f64,
        ..AnalyzeParams::default()
    };
    let cfg = AnalyzeConfig {
        backend: spec.backend,
        n_pes: spec.pes,
        params,
        ..AnalyzeConfig::default()
    };
    let run = analyze::analyze_frames(frames, &cell, &cfg, None)
        .map_err(|e| format!("analysis failed: {e}"))?;
    if !run.oracle.ok() {
        return Err(format!("analysis oracle violation: {}", run.oracle.render()));
    }
    Ok(AnalysisSummary::from_observables(&run.observables))
}

/// Execute slices of job `id` until it completes or parks. Runs outside
/// the state lock except for brief progress reports.
fn run_slices(sched: &Scheduler, id: JobId) -> SliceEnd {
    let (spec, parked) = {
        let mut st = sched.inner.state.lock().unwrap();
        let job = st.jobs.get_mut(&id).unwrap();
        (job.spec.clone(), job.parked.take())
    };
    let mut cfg = match spec.engine_config() {
        Ok(c) => c,
        Err(e) => return SliceEnd::Failed(e),
    };
    cfg.max_recoveries = spec.max_recoveries.unwrap_or(sched.inner.cfg.max_recoveries);
    cfg.recovery_backoff_ms =
        spec.recovery_backoff_ms.unwrap_or(sched.inner.cfg.recovery_backoff_ms);

    // Build the deck deterministically and either start fresh or restore
    // the parked snapshot. `Engine::restore` rebuilds the decomposition
    // from snapshot positions — bit-identical at migration boundaries.
    let system = spec.build_system();
    let mut engine = Engine::new(system, cfg);
    if let Some(p) = parked {
        if let Err(e) = engine.restore(&p.snapshot) {
            return SliceEnd::Failed(format!("resume failed: {e}"));
        }
    }

    let total = spec.steps;
    let migrate = spec.migrate_every;
    let frame_every = spec.frame_every.max(1);
    // Analyze jobs include the pre-integration state as frame 0.
    if spec.kind == JobKind::Analyze {
        capture_frame(sched, id, &engine, frame_every);
    }
    let mut slice_recoveries = 0u32;

    loop {
        // One slice: `slice_steps` rounded up to the next migration
        // boundary (so the park point is a decomposition-rebuild step).
        let budget = sched.inner.cfg.slice_steps;
        let slice_target = {
            let done = engine.steps_done;
            let end = (done + budget).min(total);
            if end == total {
                total
            } else {
                // Round up to a multiple of migrate_every ≥ end.
                end.next_multiple_of(migrate).min(total)
            }
        };

        while engine.steps_done < slice_target {
            let mut target = slice_target;
            if spec.kind == JobKind::Analyze {
                // Stop additionally at frame boundaries, so every capture
                // point lands exactly on a multiple of frame_every.
                let done = engine.steps_done;
                target = target.min(done + frame_every - done % frame_every);
            }
            // The driver keeps the boundary snapshot a killed PE rolls
            // back to; replays after a rollback recapture nothing (capture
            // is keyed by step count).
            match advance(&mut engine, target, migrate, Some(total), true) {
                Ok(Advanced::Phase { phase, updates: c }) => {
                    if spec.kind == JobKind::Analyze {
                        capture_frame(sched, id, &engine, frame_every);
                    }
                    let last = phase.energies[c];
                    let frame = MetricsFrame {
                        step: engine.steps_done as u64,
                        energy_total: last.total(),
                        energy_potential: last.potential(),
                        critical_path: phase.metrics.critical_path,
                        msgs_sent: phase.metrics.messages.sent,
                        wire_bytes: phase.metrics.wire_bytes,
                    };
                    let mut st = sched.inner.state.lock().unwrap();
                    let job = st.jobs.get_mut(&id).unwrap();
                    job.steps_done = engine.steps_done as u64;
                    for e in &phase.energies[1..=c] {
                        job.energy.push(e.total());
                    }
                    job.metrics.push(frame);
                    *st.tenants.entry(spec.tenant.clone()).or_insert(0.0) +=
                        c as f64 * spec.pes as f64;
                    sched.inner.done_cv.notify_all();
                }
                Ok(Advanced::RolledBack { .. }) => slice_recoveries += 1,
                Err(e) => return SliceEnd::Failed(e.to_string()),
            }
        }

        // Slice boundary: finish, park, or (uncontended) keep going.
        let mut st = sched.inner.state.lock().unwrap();
        {
            let job = st.jobs.get_mut(&id).unwrap();
            job.recoveries += slice_recoveries;
        }
        st.stats.recoveries += slice_recoveries as u64;
        slice_recoveries = 0;
        if engine.steps_done >= total {
            let (frames, key, energy, preemptions, recoveries) = {
                let job = st.jobs.get_mut(&id).unwrap();
                (
                    std::mem::take(&mut job.frames),
                    job.key,
                    job.energy,
                    job.preemptions,
                    job.recoveries,
                )
            };
            // The analysis phase spins up its own runtime; run it outside
            // the scheduler lock.
            drop(st);
            let analysis = if spec.kind == JobKind::Analyze {
                match run_analysis(&spec, &engine, &frames) {
                    Ok(s) => Some(s),
                    Err(e) => return SliceEnd::Failed(e),
                }
            } else {
                None
            };
            let outcome = JobOutcome {
                key,
                steps: engine.steps_done as u64,
                energy,
                state_crc: state_fingerprint(&engine),
                preemptions,
                recoveries,
                children: 0,
                analysis,
            };
            return SliceEnd::Finished(outcome);
        }
        let contended = sched.inner.cfg.always_park || !st.queue.is_empty() || st.shutdown;
        if !contended {
            // Nobody is waiting for PEs: skip the park/resume round-trip
            // and run another slice in place (identical trajectory either
            // way — that is the whole point of boundary-aligned parking).
            continue;
        }
        let job = st.jobs.get_mut(&id).unwrap();
        job.preemptions += 1;
        st.stats.preemptions += 1;
        let job = st.jobs.get_mut(&id).unwrap();
        job.parked = Some(ParkedRun {
            snapshot: engine.snapshot(),
        });
        return SliceEnd::Parked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(steps: usize, seed: u64) -> JobSpec {
        JobSpec {
            steps,
            seed,
            atoms: 96,
            box_size: 14.0,
            cutoff: 6.0,
            migrate_every: 4,
            ..JobSpec::default()
        }
    }

    #[test]
    fn energy_summary_merge_matches_sequential() {
        let xs: Vec<f64> = (0..17).map(|i| (i as f64) * 0.7 - 3.0).collect();
        let mut whole = EnergySummary::default();
        for &x in &xs {
            whole.push(x);
        }
        let (lo, hi) = xs.split_at(5);
        let mut a = EnergySummary::default();
        let mut b = EnergySummary::default();
        for &x in lo {
            a.push(x);
        }
        for &x in hi {
            b.push(x);
        }
        let merged = EnergySummary::merge(a, b);
        assert_eq!(merged.n, whole.n);
        assert!((merged.mean - whole.mean).abs() < 1e-12);
        assert!((merged.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
    }

    #[test]
    fn tree_reduce_is_order_deterministic() {
        let parts: Vec<EnergySummary> = (0..7)
            .map(|i| {
                let mut s = EnergySummary::default();
                s.push(i as f64);
                s.push(i as f64 * 2.0);
                s
            })
            .collect();
        let a = tree_reduce(parts.clone());
        let b = tree_reduce(parts);
        assert_eq!(a, b);
        assert_eq!(a.n, 14);
    }

    #[test]
    fn single_job_runs_to_completion() {
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 2,
            ..Default::default()
        });
        let (id, disp) = sched.submit(tiny(6, 1)).unwrap();
        assert_eq!(disp, Disposition::Enqueued);
        let out = sched.wait(id, Duration::from_secs(60)).unwrap().unwrap();
        assert_eq!(out.steps, 6);
        assert!(out.energy.n == 6);
        assert_ne!(out.state_crc, 0);
        let (frames, terminal) = sched.metrics_after(id, 0).unwrap();
        assert!(terminal && !frames.is_empty());
        assert_eq!(frames.last().unwrap().step, 6);
        sched.shutdown();
    }

    #[test]
    fn identical_specs_dedup_to_one_execution() {
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 2,
            ..Default::default()
        });
        let (a, _) = sched.submit(tiny(5, 9)).unwrap();
        let mut spec_b = tiny(5, 9);
        spec_b.tenant = "someone-else".into();
        spec_b.priority = 3;
        let (b, disp_b) = sched.submit(spec_b).unwrap();
        assert_ne!(
            disp_b,
            Disposition::Enqueued,
            "identical physics must not re-enqueue"
        );
        let out_a = sched.wait(a, Duration::from_secs(60)).unwrap().unwrap();
        let out_b = sched.wait(b, Duration::from_secs(60)).unwrap().unwrap();
        assert_eq!(out_a.state_crc, out_b.state_crc);
        // And a later identical submit is a straight cache hit.
        let (c, disp_c) = sched.submit(tiny(5, 9)).unwrap();
        assert_eq!(disp_c, Disposition::CacheHit);
        assert!(matches!(sched.wait(c, Duration::from_secs(5)), Some(Ok(_))));
        let stats = sched.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits + stats.coalesced, 2);
        sched.shutdown();
    }

    #[test]
    fn ensemble_fans_out_and_tree_reduces() {
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 4,
            ..Default::default()
        });
        let mut spec = tiny(4, 0);
        spec.ensemble = Some(crate::spec::Ensemble {
            count: 3,
            base_seed: 11,
        });
        let (id, _) = sched.submit(spec).unwrap();
        let out = sched.wait(id, Duration::from_secs(120)).unwrap().unwrap();
        assert_eq!(out.children, 3);
        assert_eq!(out.steps, 12);
        assert_eq!(out.energy.n, 12);

        // Children are cached individually: a plain job at a swept seed
        // is now a cache hit.
        let (leaf, disp) = sched.submit(tiny(4, 12)).unwrap();
        assert_eq!(disp, Disposition::CacheHit);
        assert!(matches!(
            sched.wait(leaf, Duration::from_secs(5)),
            Some(Ok(_))
        ));
        sched.shutdown();
    }

    #[test]
    fn drain_rejects_new_work_and_completes_old() {
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 2,
            ..Default::default()
        });
        let (id, _) = sched.submit(tiny(4, 77)).unwrap();
        assert!(sched.drain(Duration::from_secs(60)));
        assert!(sched.submit(tiny(4, 78)).is_err());
        assert!(matches!(
            sched.wait(id, Duration::from_secs(1)),
            Some(Ok(_))
        ));
        assert_eq!(sched.stats().rejected, 1);
        sched.shutdown();
    }

    #[test]
    fn preemption_under_contention_is_bit_exact() {
        // Uncontended reference.
        let solo = Scheduler::new(SchedulerConfig {
            pool_pes: 1,
            ..Default::default()
        });
        let (rid, _) = solo.submit(tiny(12, 5)).unwrap();
        let reference = solo.wait(rid, Duration::from_secs(120)).unwrap().unwrap();
        assert_eq!(reference.preemptions, 0);
        solo.shutdown();

        // Force parking at every boundary with a minimal slice.
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 1,
            slice_steps: 1,
            always_park: true,
            ..Default::default()
        });
        let (id, _) = sched.submit(tiny(12, 5)).unwrap();
        let out = sched.wait(id, Duration::from_secs(120)).unwrap().unwrap();
        assert!(
            out.preemptions >= 2,
            "expected parking, got {}",
            out.preemptions
        );
        assert_eq!(
            out.state_crc, reference.state_crc,
            "park/resume changed the trajectory"
        );
        assert_eq!(out.energy, reference.energy);
        sched.shutdown();
    }

    #[test]
    fn analyze_jobs_share_the_pool_and_reduce_observables() {
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 4,
            ..Default::default()
        });
        // One job of each kind, same physics otherwise, sharing the pool.
        let sim = tiny(8, 3);
        let mut ana = tiny(8, 3);
        ana.kind = JobKind::Analyze;
        ana.frame_every = 2;
        ana.pes = 2;
        let (sid, _) = sched.submit(sim).unwrap();
        let (aid, disp) = sched.submit(ana.clone()).unwrap();
        assert_eq!(
            disp,
            Disposition::Enqueued,
            "an analyze job must not dedup onto a simulate job"
        );
        let sim_out = sched.wait(sid, Duration::from_secs(120)).unwrap().unwrap();
        let ana_out = sched.wait(aid, Duration::from_secs(120)).unwrap().unwrap();
        assert!(sim_out.analysis.is_none());
        let summary = ana_out.analysis.expect("analyze outcome carries observables");
        // 8 steps at frame_every=2 → frames at steps 0,2,4,6,8.
        assert_eq!(summary.frames, 5);
        assert_ne!(summary.obs_crc, 0);
        assert!(summary.rdf_peak_g > 0.0);
        assert!(summary.rmsd_max >= summary.rmsd_mean && summary.rmsd_mean >= 0.0);
        // Same integration either way: the final-state fingerprint of the
        // analyze job matches the pure simulation's.
        assert_eq!(sim_out.state_crc, ana_out.state_crc);

        // Resubmit: the analysis summary comes straight from the cache.
        let (hit, disp) = sched.submit(ana).unwrap();
        assert_eq!(disp, Disposition::CacheHit);
        let hit_out = sched.wait(hit, Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(hit_out.analysis.unwrap().obs_crc, summary.obs_crc);
        sched.shutdown();
    }

    #[test]
    fn analyze_preemption_keeps_frames_and_observables_bit_exact() {
        let mut spec = tiny(12, 21);
        spec.kind = JobKind::Analyze;
        spec.frame_every = 2;

        // Uncontended reference.
        let solo = Scheduler::new(SchedulerConfig {
            pool_pes: 1,
            ..Default::default()
        });
        let (rid, _) = solo.submit(spec.clone()).unwrap();
        let reference = solo.wait(rid, Duration::from_secs(120)).unwrap().unwrap();
        solo.shutdown();

        // Park at every boundary: frame capture must survive preemption.
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 1,
            slice_steps: 1,
            always_park: true,
            ..Default::default()
        });
        let (id, _) = sched.submit(spec).unwrap();
        let out = sched.wait(id, Duration::from_secs(120)).unwrap().unwrap();
        assert!(out.preemptions >= 2, "expected parking, got {}", out.preemptions);
        assert_eq!(out.state_crc, reference.state_crc);
        assert_eq!(
            out.analysis.unwrap().obs_crc,
            reference.analysis.unwrap().obs_crc,
            "park/resume changed the reduced observables"
        );
        sched.shutdown();
    }

    #[test]
    fn fair_share_prefers_the_lighter_tenant() {
        // Seed usage directly and compare the comparator.
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 1,
            ..Default::default()
        });
        let mut st = sched.inner.state.lock().unwrap();
        st.tenants.insert("heavy".into(), 1000.0);
        st.tenants.insert("light".into(), 1.0);
        let mk = |tenant: &str, seq: u64, priority: i32| Job {
            spec: JobSpec {
                tenant: tenant.into(),
                priority,
                ..tiny(4, seq)
            },
            key: CacheKey(0, seq),
            state: JobState::Queued,
            seq,
            parked: None,
            outcome: None,
            error: None,
            followers: Vec::new(),
            parent: None,
            pending_children: 0,
            child_outcomes: Vec::new(),
            child_index: 0,
            steps_done: 0,
            energy: EnergySummary::default(),
            preemptions: 0,
            recoveries: 0,
            metrics: Vec::new(),
            frames: Vec::new(),
        };
        let heavy_first = mk("heavy", 0, 0);
        let light_later = mk("light", 1, 0);
        assert!(
            runs_before(&st, &light_later, &heavy_first),
            "fair share must win over FIFO"
        );
        let low_pri = mk("light", 2, -1);
        assert!(
            runs_before(&st, &heavy_first, &low_pri),
            "priority beats fair share"
        );
        drop(st);
        sched.shutdown();
    }
}
