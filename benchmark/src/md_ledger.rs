//! The MD time ledger of the traced run: spans around every call into a
//! layer, the counters `PhaseResult` already returns, and a single-thread
//! replay of each layer on the workload's own data — so a step's wall time
//! decomposes level by level with the residual stated.

use crate::md::{self, MdWorkload, MARGIN};
use crate::report::{LedgerRow, Report};
use crate::stats::{intercept, max, median, median_secs};
use crate::trace::{self_time_ms, Tracer};
use crate::Limits;
use mdcore::cluster::{
    nb_pair_clusters, nb_self_clusters, pair_cluster_pairs_into, prune_into,
    self_cluster_pairs_into, ClusterGrid, ClusterPair,
};
use mdcore::nonbonded::{
    nb_pair_listed, nb_self_listed, pair_candidates_into, self_candidates_into, AtomGroup,
};
use mdcore::prelude::*;
use namd_core::decomp::ComputeSpec;
use namd_core::prelude::*;
use std::path::Path;

/// What the ledger is taken on.
pub struct LedgerDeck<'a> {
    /// Builds the thermalized deck; called once per leg, so every leg
    /// starts from the same state.
    pub system: &'a dyn Fn() -> System,
    pub pes: usize,
    pub dt_fs: f64,
    /// Cycles per leg, from a fresh deck.
    pub traced_cycles: usize,
}

/// Counters of the traced phases, summed.
#[derive(Default)]
struct PhaseSums {
    steps: usize,
    evals: usize,
    /// Wall time of the `try_run_phase` spans, s.
    wall_s: f64,
    /// The runtime's own makespan (first to last handler), s.
    makespan_s: f64,
    exec_nb_s: f64,
    exec_bonded_s: f64,
    integrate_s: f64,
    proxy_s: f64,
    other_s: f64,
    pe_busy_s: Vec<f64>,
    critical_s: f64,
    msgs: u64,
    wire_bytes: u64,
    list_builds: u64,
    list_hits: u64,
}

impl PhaseSums {
    fn add(&mut self, r: &PhaseResult, wall_ms: f64) {
        let e = &r.entries;
        let t = |ids: &[charmrt::EntryId]| {
            ids.iter()
                .map(|id| r.stats.entry_time[id.idx()])
                .sum::<f64>()
        };
        let nb = t(&[e.exec_self, e.exec_pair]);
        let bonded = t(&[e.exec_bonded, e.exec_bonded_inter]);
        let integrate = t(&[e.integrate]);
        let proxy = t(&[e.proxy_coords, e.proxy_forces]);
        self.steps += r.n_steps - 1;
        self.evals += r.n_steps;
        self.wall_s += wall_ms / 1e3;
        self.makespan_s += r.total_time;
        self.exec_nb_s += nb;
        self.exec_bonded_s += bonded;
        self.integrate_s += integrate;
        self.proxy_s += proxy;
        self.other_s += r.stats.entry_time.iter().sum::<f64>() - nb - bonded - integrate - proxy;
        self.pe_busy_s.resize(r.stats.pe_busy.len(), 0.0);
        for (acc, b) in self.pe_busy_s.iter_mut().zip(&r.stats.pe_busy) {
            *acc += b;
        }
        self.critical_s += r.metrics.critical_path;
        self.msgs += r.metrics.messages.sent;
        self.wire_bytes += r.metrics.wire_bytes;
        self.list_builds += r.metrics.pairlist.builds;
        self.list_hits += r.metrics.pairlist.hits;
    }
}

/// A patch's atoms as the kernels take them.
struct Gathered {
    pos: Vec<Vec3>,
    ids: Vec<AtomId>,
    lj: Vec<u16>,
    charge: Vec<f64>,
}

impl Gathered {
    fn of(system: &System, atoms: &[u32]) -> Gathered {
        let at = |a: &u32| &system.topology.atoms[*a as usize];
        Gathered {
            pos: atoms
                .iter()
                .map(|&a| system.positions[a as usize])
                .collect(),
            ids: atoms.to_vec(),
            lj: atoms.iter().map(|a| at(a).lj_type).collect(),
            charge: atoms.iter().map(|a| at(a).charge).collect(),
        }
    }

    fn group(&self) -> AtomGroup<'_> {
        AtomGroup::new(&self.pos, &self.ids, &self.lj, &self.charge)
    }
}

/// One non-bonded compute of the decomposition, gathered for replay.
struct NbCompute<'a> {
    spec: &'a ComputeSpec,
    /// One entry per patch the compute reads (1 self, 2 pair).
    arrays: Vec<Gathered>,
    list: Vec<(u32, u32)>,
    grids: Vec<ClusterGrid>,
    cpairs: Vec<ClusterPair>,
    inner: Vec<u32>,
    blocks: Vec<Vec<Vec3>>,
}

/// What the single-thread replay of the mdcore layer measured.
struct Replay {
    pairs: u64,
    cluster_pairs: u64,
    listed_candidates: u64,
    tested_candidates: u64,
    bytes_per_eval: u64,
    list_build_ms: f64,
    listed_ms: f64,
    cluster_refresh_prune_ms: f64,
    cluster_kernel_ms: f64,
    bonded_ms: f64,
}

/// Median ms of `reps` calls of `f`.
fn time_ms(reps: usize, f: impl FnMut()) -> f64 {
    median_secs(reps, f) * 1e3
}

/// Replay the decomposition's own non-bonded computes on one thread:
/// gather each compute's patches from the live system, build its candidate
/// list, and time the public kernels alone.
fn replay(system: &System, decomp: &Decomposition, reps: usize, tracer: &mut Tracer) -> Replay {
    let ff = &system.forcefield;
    let ex = &system.exclusions;
    let cell = &system.cell;
    let radius = ff.cutoff + MARGIN;
    let mut computes: Vec<NbCompute> = decomp
        .computes
        .iter()
        .filter(|c| {
            matches!(
                c.kind,
                ComputeKind::SelfNb { .. } | ComputeKind::PairNb { .. }
            )
        })
        .map(|spec| {
            let arrays: Vec<Gathered> = spec
                .patches
                .iter()
                .map(|&p| Gathered::of(system, &decomp.grid.atoms[p]))
                .collect();
            NbCompute {
                spec,
                blocks: arrays
                    .iter()
                    .map(|a| vec![Vec3::ZERO; a.pos.len()])
                    .collect(),
                grids: arrays.iter().map(|_| ClusterGrid::new()).collect(),
                arrays,
                list: Vec::new(),
                cpairs: Vec::new(),
                inner: Vec::new(),
            }
        })
        .collect();

    let (list_build_ms, _) = tracer.span("mdcore.list_build", |_| {
        time_ms(reps, || {
            for c in &mut computes {
                let outer = c.spec.outer.clone();
                match c.arrays.as_slice() {
                    [a] => self_candidates_into(a.group(), cell, outer, radius, &mut c.list),
                    [a, b] => {
                        pair_candidates_into(a.group(), b.group(), cell, outer, radius, &mut c.list)
                    }
                    _ => unreachable!("non-bonded computes read one or two patches"),
                }
            }
        })
    });

    let mut pairs = 0u64;
    let (listed_ms, _) = tracer.span("mdcore.nb_listed", |_| {
        time_ms(reps, || {
            pairs = 0;
            for c in &mut computes {
                let res = match (c.arrays.as_slice(), c.blocks.as_mut_slice()) {
                    ([a], [fa]) => nb_self_listed(ff, ex, a.group(), cell, &c.list, fa),
                    ([a, b], [fa, fb]) => {
                        nb_pair_listed(ff, ex, a.group(), b.group(), cell, &c.list, fa, fb)
                    }
                    _ => unreachable!(),
                };
                pairs += res.pairs;
            }
        })
    });

    // Cluster path at the same margin: the outer list is built once on
    // fresh grids; refresh + prune run every evaluation, then the kernel.
    let width = SimdWidth::X4;
    for c in &mut computes {
        for (g, a) in c.grids.iter_mut().zip(&c.arrays) {
            g.refresh(a.group(), cell, width);
        }
        let outer = c.spec.outer.clone();
        match (c.arrays.as_slice(), c.grids.as_slice()) {
            ([a], [g]) => {
                self_cluster_pairs_into(a.group(), g, ex, cell, outer, radius, &mut c.cpairs)
            }
            ([a, b], [ga, gb]) => pair_cluster_pairs_into(
                a.group(),
                ga,
                b.group(),
                gb,
                ex,
                cell,
                outer,
                radius,
                &mut c.cpairs,
            ),
            _ => unreachable!(),
        }
    }
    let (cluster_refresh_prune_ms, _) = tracer.span("mdcore.cluster_refresh_prune", |_| {
        time_ms(reps, || {
            for c in &mut computes {
                for (g, a) in c.grids.iter_mut().zip(&c.arrays) {
                    g.refresh(a.group(), cell, width);
                }
                let gj = c.grids.last().expect("at least one grid");
                prune_into(&c.cpairs, &c.grids[0], gj, cell, ff.cutoff, &mut c.inner);
            }
        })
    });
    let mut cluster_pairs = 0u64;
    let (cluster_kernel_ms, _) = tracer.span("mdcore.nb_cluster_x4", |_| {
        time_ms(reps, || {
            cluster_pairs = 0;
            for c in &mut computes {
                let res = match (
                    c.arrays.as_slice(),
                    c.grids.as_slice(),
                    c.blocks.as_mut_slice(),
                ) {
                    ([a], [g], [fa]) => {
                        nb_self_clusters(ff, a.group(), cell, g, &c.cpairs, &c.inner, width, fa)
                    }
                    ([a, b], [ga, gb], [fa, fb]) => nb_pair_clusters(
                        ff,
                        a.group(),
                        b.group(),
                        cell,
                        ga,
                        gb,
                        &c.cpairs,
                        &c.inner,
                        width,
                        fa,
                        fb,
                    ),
                    _ => unreachable!(),
                };
                cluster_pairs += res.pairs;
            }
        })
    });

    let mut forces = vec![Vec3::ZERO; system.n_atoms()];
    let (bonded_ms, _) = tracer.span("mdcore.bonded", |_| {
        time_ms(reps, || {
            std::hint::black_box(compute_bonded(
                &system.topology,
                cell,
                &system.positions,
                &mut forces,
            ));
        })
    });

    // Bytes one listed evaluation touches, from array sizes alone (cache
    // misses not modelled): the candidate list, each patch's position /
    // id / LJ-type / charge arrays, and the force blocks written.
    let bytes_per_eval: u64 = computes
        .iter()
        .map(|c| {
            let atoms: usize = c.arrays.iter().map(|a| a.pos.len()).sum();
            (c.list.len() * 8 + atoms * (24 + 4 + 2 + 8 + 24)) as u64
        })
        .sum();
    Replay {
        pairs,
        cluster_pairs,
        listed_candidates: computes.iter().map(|c| c.list.len() as u64).sum(),
        tested_candidates: computes.iter().map(|c| c.spec.candidates).sum(),
        bytes_per_eval,
        list_build_ms,
        listed_ms,
        cluster_refresh_prune_ms,
        cluster_kernel_ms,
        bonded_ms,
    }
}

fn engine_config(deck: &LedgerDeck) -> SimConfig {
    // What `ParallelSim::with_backend` builds, so both legs run one config.
    SimConfig::builder(deck.pes, machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .backend(Backend::Threads)
        .dt_fs(deck.dt_fs)
        .build()
        .expect("ledger deck parameters are valid")
}

fn engine_state_crc(engine: &Engine) -> u64 {
    md::state_crc(
        &engine
            .shared
            .state
            .read()
            .expect("state lock poisoned")
            .system,
    )
}

fn row(name: &str, parent: Option<&str>, ms: f64) -> LedgerRow {
    LedgerRow {
        name: name.into(),
        parent: parent.map(String::from),
        ms,
    }
}

/// Take the MD ledger on `deck`: an untraced leg through `ParallelSim`
/// (the baseline tracing overhead is measured against), a traced leg that
/// drives `Engine` directly with a span around every call, then the
/// single-thread replays. Both legs start from a fresh deck and run
/// `traced_cycles` cycles, so they pass through the same states: the end
/// of cycle 1 is the untraced run's post-warm-up state, the end of cycle 2
/// its common step. Fills every `molgen.*`, `mdcore.*`, `core.*`, `lb.*`,
/// `ckpt.*` metric, the in-run `charmrt.*` ones and the `bench.*` ones.
/// Returns (cycles attempted, cycles failed).
pub fn md_ledger(
    deck: &LedgerDeck,
    limits: &Limits,
    out: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (u64, u64) {
    let cycle_steps = limits.cycle_steps();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    const CRC_NAMES: [&str; 2] = ["after_warmup", "common_step"];

    // ---- Untraced leg: the protocol of the untraced run -----------------
    let ((mut sim, build_ms), _) = tracer.span("setup", |t| {
        let (sys, build_ms) = t.span("molgen.build", |_| (deck.system)());
        let (sim, _) = t.span("core.sim_new", |_| {
            md::new_sim(sys, deck.pes, deck.dt_fs, cycle_steps)
        });
        (sim, build_ms)
    });
    let n_atoms = sim.system().n_atoms();
    let mut untraced_ms = Vec::new();
    let mut untraced_crcs = Vec::new();
    tracer.span("untraced_leg", |_| {
        for _ in 0..deck.traced_cycles {
            attempted += 1;
            match md::timed_cycle(&mut sim, cycle_steps) {
                Some(ms) => untraced_ms.push(ms),
                None => failed += 1,
            }
            untraced_crcs.push(md::state_crc(&sim.system()));
        }
    });
    for (name, &crc) in CRC_NAMES.iter().zip(&untraced_crcs) {
        report.crc(name, crc);
    }
    drop(sim);

    // ---- Traced leg: Engine driven directly, a span around each call ----
    let (mut engine, decomp_build_ms) = tracer.span("core.engine_new", |_| {
        Engine::new((deck.system)(), engine_config(deck))
    });
    let n_patches = engine.decomp().grid.n_patches();
    let n_computes = engine.decomp().computes.len();
    let mut sums = PhaseSums::default();
    let mut traced_crcs = Vec::new();
    let mut oracle_failures = Vec::new();
    let mut lb_input = None;
    let mut last_pairs = 0;
    tracer.span("traced_leg", |t| {
        for k in 0..deck.traced_cycles {
            attempted += 1;
            t.span("cycle", |t| {
                let (r, phase_ms) = t.span("core.phase", |_| {
                    engine
                        .try_run_phase(cycle_steps + 1)
                        .expect("no fault plan, no crash")
                });
                // The harness's own work between the two calls; a span of
                // its own, so it is neither the engine's time nor residual.
                t.span("bench.checks", |_| {
                    let verdict = check_phase(&engine, &r);
                    if !verdict.ok() {
                        oracle_failures.push(format!("cycle {k}: {}", verdict.render()));
                    }
                    if k + 1 == deck.traced_cycles {
                        lb_input = Some(engine.lb_problem(&r));
                        last_pairs = r.energies.last().map_or(0, |e| e.pairs);
                    }
                });
                t.span("core.migrate", |_| engine.migrate_atoms());
                if r.energies.iter().all(|e| e.total().is_finite()) {
                    sums.add(&r, phase_ms);
                } else {
                    failed += 1;
                }
            });
            traced_crcs.push(engine_state_crc(&engine));
        }
    });
    // A cycle is its span less the harness's own checks inside it; what
    // the span covers that no child does (its self time) is the step's
    // residual.
    let spans = &tracer.spans;
    let cycle_ids: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "cycle")
        .collect();
    let cycle_self_ms: Vec<f64> = cycle_ids.iter().map(|&i| self_time_ms(spans, i)).collect();
    let migrate_ms = tracer.durations_ms("core.migrate");
    let checks_ms = tracer.durations_ms("bench.checks");
    let cycle_ms: Vec<f64> = cycle_ids
        .iter()
        .zip(&checks_ms)
        .map(|(&i, checks)| spans[i].ms() - checks)
        .collect();
    let traced_ms: Vec<f64> = cycle_ms.iter().map(|ms| ms / cycle_steps as f64).collect();
    let cycle_total_ms: f64 = cycle_ms.iter().sum();
    report.check(
        "traced-equals-untraced-every-cycle",
        traced_crcs == untraced_crcs,
        format!(
            "state CRC after each of {} cycles: traced {:016x?}, untraced {:016x?}",
            deck.traced_cycles, traced_crcs, untraced_crcs
        ),
    );
    report.check(
        "oracle-every-traced-phase",
        oracle_failures.is_empty(),
        if oracle_failures.is_empty() {
            format!("check_phase passed on {} phases", deck.traced_cycles)
        } else {
            oracle_failures.join("; ")
        },
    );
    // A deck whose step takes this long gets one repeat of each replay.
    let reps = if limits.quick || median(&traced_ms) > 200.0 {
        1
    } else {
        3
    };

    // ---- Isolated replays on the traced leg's own data -------------------
    let (rp, _) = tracer.span("replay", |t| {
        let st = engine.shared.state.read().expect("state lock poisoned");
        replay(&st.system, engine.decomp(), reps, t)
    });
    report.check(
        "replay-pairs-match-engine",
        rp.pairs == last_pairs && rp.cluster_pairs == last_pairs,
        format!(
            "listed replay {} pairs, cluster replay {}, engine's last evaluation {}",
            rp.pairs, rp.cluster_pairs, last_pairs
        ),
    );

    // Fixed cost of a phase — what a phase that advances zero steps would
    // cost: runtime construction and teardown plus the boundary force
    // evaluation every chained phase repeats. Intercept of phase wall over
    // two lengths, on a primed cache so no list build lands in either.
    let (phase_fixed_ms, _) = tracer.span("core.phase_fixed", |t| {
        engine.run_phase(1);
        let mut wall = |steps: usize| {
            let samples: Vec<f64> = (0..reps)
                .map(|_| t.span("core.phase", |_| engine.run_phase(steps + 1)).1)
                .collect();
            median(&samples)
        };
        let short = wall(1);
        let long = wall(3);
        intercept((1.0, short), (3.0, long))
    });

    let (snapshot, snapshot_ms) = tracer.span("core.snapshot", |_| engine.snapshot());
    let ((), restore_ms) = tracer.span("core.restore", |_| {
        engine.restore(&snapshot).expect("own snapshot restores")
    });

    let (problem, _) = lb_input.expect("the last traced cycle recorded its LB problem");
    let (refined, lb_ms) = tracer.span("lb.greedy_refine", |_| {
        let greedy = lb::greedy(&problem, lb::GreedyParams::default());
        lb::refine(&problem, &greedy, lb::RefineParams::default()).0
    });
    let predicted_imbalance = lb::metrics::imbalance_ratio(&problem, &refined);

    let (bytes, encode_ms) = tracer.span("ckpt.encode", |_| snapshot.encode());
    let (decoded, decode_ms) = tracer.span("ckpt.decode", |_| ckpt::Snapshot::decode(&bytes));
    let dir_path = out.join(format!("ckpt-{}", std::process::id()));
    let dir = ckpt::CheckpointDir::create(&dir_path).expect("create the checkpoint directory");
    let (written, write_ms) = tracer.span("ckpt.write", |_| dir.write(&snapshot));
    let (latest, latest_ms) = tracer.span("ckpt.latest_valid", |_| dir.latest_valid());
    let _ = std::fs::remove_dir_all(&dir_path);
    report.check(
        "ckpt-roundtrip",
        decoded.as_ref() == Ok(&snapshot)
            && written.is_ok()
            && latest.as_ref().map(|(s, _)| s) == Ok(&snapshot),
        format!(
            "{} bytes encode → decode → write → latest_valid",
            bytes.len()
        ),
    );

    let seq_ms =
        md::check_against_sequential(report, (deck.system)(), deck.pes, deck.dt_fs, cycle_steps);

    // ---- Metrics ----------------------------------------------------------
    let p = deck.pes as f64;
    let steps = sums.steps.max(1) as f64;
    let evals_per_step = sums.evals as f64 / steps;
    let per_step_ms = |secs: f64| secs * 1e3 / steps;
    let untraced_p50 = median(&untraced_ms);
    let traced_p50 = median(&traced_ms);
    let seq_step_ms = median(&seq_ms);
    let execs = (sums.list_builds + sums.list_hits).max(1) as f64;
    let rebuild_rate = sums.list_builds as f64 / execs;
    let exec_nb = per_step_ms(sums.exec_nb_s);
    let kernel_per_step = rp.listed_ms * evals_per_step;
    let build_per_step = rp.list_build_ms * rebuild_rate * evals_per_step;
    let glue = exec_nb - kernel_per_step - build_per_step;
    let busy_total: f64 = sums.pe_busy_s.iter().sum();
    let busy_mean = busy_total / p;
    let pairs = rp.pairs.max(1) as f64;

    report.metric("molgen.build_ms", build_ms, 1);
    report.metric("mdcore.pairs_per_eval", rp.pairs as f64, 1);
    report.metric(
        "mdcore.candidates_per_pair",
        rp.listed_candidates as f64 / pairs,
        1,
    );
    report.metric(
        "mdcore.nb_listed_ns_per_pair",
        rp.listed_ms * 1e6 / pairs,
        reps,
    );
    report.metric("mdcore.nb_listed_ms_per_eval", rp.listed_ms, reps);
    report.metric(
        "mdcore.nb_listed_bytes_per_pair_computed",
        rp.bytes_per_eval as f64 / pairs,
        1,
    );
    report.metric(
        "mdcore.nb_cluster_x4_ns_per_pair",
        rp.cluster_kernel_ms * 1e6 / pairs,
        reps,
    );
    report.metric(
        "mdcore.cluster_refresh_prune_ms_per_eval",
        rp.cluster_refresh_prune_ms,
        reps,
    );
    report.metric(
        "mdcore.list_build_ns_per_candidate",
        rp.list_build_ms * 1e6 / rp.tested_candidates.max(1) as f64,
        reps,
    );
    report.metric("mdcore.list_build_ms_per_rebuild", rp.list_build_ms, reps);
    report.metric("mdcore.bonded_ms_per_eval", rp.bonded_ms, reps);
    report.metric("mdcore.seq_step_ms", seq_step_ms, seq_ms.len());
    report.metric("core.decomp_build_ms", decomp_build_ms, 1);
    report.metric("core.n_patches", n_patches as f64, 1);
    report.metric("core.n_computes", n_computes as f64, 1);
    let cycles = traced_ms.len();
    report.metric("core.phase_ms_per_step", per_step_ms(sums.wall_s), cycles);
    report.metric("core.phase_fixed_ms", phase_fixed_ms, reps);
    report.metric("core.migrate_ms", median(&migrate_ms), migrate_ms.len());
    report.metric(
        "core.migrate_share",
        migrate_ms.iter().sum::<f64>() / cycle_total_ms.max(f64::MIN_POSITIVE),
        cycles,
    );
    report.metric("core.exec_nb_ms_per_step", exec_nb, cycles);
    report.metric("core.compute_glue_ms_per_step", glue, cycles);
    report.metric(
        "core.exec_bonded_ms_per_step",
        per_step_ms(sums.exec_bonded_s),
        cycles,
    );
    report.metric(
        "core.integrate_ms_per_step",
        per_step_ms(sums.integrate_s),
        cycles,
    );
    report.metric("core.proxy_ms_per_step", per_step_ms(sums.proxy_s), cycles);
    report.metric("core.list_rebuild_rate", rebuild_rate, cycles);
    report.metric("core.list_hit_rate", sums.list_hits as f64 / execs, cycles);
    report.metric("core.snapshot_ms", snapshot_ms, 1);
    report.metric("core.restore_ms", restore_ms, 1);
    report.metric(
        "core.speedup_vs_seq",
        seq_step_ms / untraced_p50,
        untraced_ms.len(),
    );
    report.metric(
        "core.us_per_atom_step",
        untraced_p50 * 1e3 / n_atoms as f64,
        untraced_ms.len(),
    );
    report.metric(
        "core.step_ms_max",
        max(&untraced_ms).max(max(&traced_ms)),
        untraced_ms.len() + cycles,
    );
    report.metric("charmrt.msgs_per_step", sums.msgs as f64 / steps, cycles);
    report.metric(
        "charmrt.wire_bytes_per_step",
        sums.wire_bytes as f64 / steps,
        cycles,
    );
    report.metric("charmrt.pe_busy_frac", busy_mean / sums.wall_s, cycles);
    report.metric(
        "charmrt.pe_idle_ms_per_step",
        per_step_ms(sums.wall_s - busy_mean),
        cycles,
    );
    report.metric(
        "charmrt.pe_imbalance",
        sums.pe_busy_s.iter().copied().fold(0.0, f64::max) / busy_mean,
        cycles,
    );
    report.metric(
        "charmrt.critical_path_ms_per_step",
        per_step_ms(sums.critical_s),
        cycles,
    );
    report.metric("lb.greedy_refine_ms", lb_ms, 1);
    report.metric("lb.predicted_imbalance_after", predicted_imbalance, 1);
    report.metric("ckpt.snapshot_bytes", bytes.len() as f64, 1);
    report.metric("ckpt.encode_ms", encode_ms, 1);
    report.metric("ckpt.decode_ms", decode_ms, 1);
    report.metric("ckpt.write_ms", write_ms, 1);
    report.metric("ckpt.latest_valid_ms", latest_ms, 1);
    report.metric(
        "bench.trace_overhead_frac",
        traced_p50 / untraced_p50 - 1.0,
        cycles,
    );

    // ---- The ledger: wall ms per step, level by level ----------------------
    // Handler time is summed over PEs, so a PE-second is 1/P of a wall
    // second: each handler row is its PE-time over P. What no handler
    // covers is idle time, split by where the runtime's own clock starts.
    let step = cycle_total_ms / steps;
    let phase = per_step_ms(sums.wall_s);
    let migrate = migrate_ms.iter().sum::<f64>() / steps;
    let nb = exec_nb / p;
    let bonded = per_step_ms(sums.exec_bonded_s) / p;
    let integrate = per_step_ms(sums.integrate_s) / p;
    let proxy = per_step_ms(sums.proxy_s) / p;
    let other = per_step_ms(sums.other_s) / p;
    let idle_in_run = per_step_ms(sums.makespan_s - busy_mean);
    let start_stop = per_step_ms(sums.wall_s - sums.makespan_s);
    let phase_residual =
        phase - (nb + bonded + integrate + proxy + other + idle_in_run + start_stop);
    let step_residual = cycle_self_ms.iter().sum::<f64>() / steps;
    report.ledger.extend([
        row("step", None, step),
        row("core.phase", Some("step"), phase),
        row("core.exec_nb", Some("core.phase"), nb),
        row(
            "mdcore.nb_listed_replay",
            Some("core.exec_nb"),
            kernel_per_step / p,
        ),
        row(
            "mdcore.list_build_amortized",
            Some("core.exec_nb"),
            build_per_step / p,
        ),
        row("core.compute_glue.residual", Some("core.exec_nb"), glue / p),
        row("core.exec_bonded", Some("core.phase"), bonded),
        row("core.integrate", Some("core.phase"), integrate),
        row("core.proxy", Some("core.phase"), proxy),
        row("core.other_entries", Some("core.phase"), other),
        row("charmrt.idle_in_run", Some("core.phase"), idle_in_run),
        row("charmrt.runtime_start_stop", Some("core.phase"), start_stop),
        row("core.phase.residual", Some("core.phase"), phase_residual),
        row("core.migrate", Some("step"), migrate),
        row("step.residual", Some("step"), step_residual),
    ]);
    report.metric(
        "bench.ledger_residual_frac",
        (step_residual.abs() + phase_residual.abs()) / step,
        cycles,
    );
    report
        .samples
        .insert("step_ms_untraced_leg".into(), untraced_ms);
    report
        .samples
        .insert("step_ms_traced_leg".into(), traced_ms);
    report.samples.insert("seq_step_ms".into(), seq_ms);
    (attempted, failed)
}

/// The traced run of an MD workload: the MD ledger on the workload's deck,
/// the serve ledger on a small probe mix, and the fixed probes.
pub fn run_traced(w: &MdWorkload, seed: u64, limits: &Limits, out: &Path, report: &mut Report) {
    let mut tracer = Tracer::new(true);
    let scale = w.deck_scale(limits);
    let deck = LedgerDeck {
        system: &|| md::apoa1_deck(scale, seed),
        pes: w.pes,
        dt_fs: md::DT_FS,
        traced_cycles: limits.pick(w.traced_cycles, 1),
    };
    let (attempted, failed) = md_ledger(&deck, limits, out, &mut tracer, report);
    report.attempted = attempted;
    report.failed = failed;
    crate::serve_mix::serve_ledger(seed, 24, &mut tracer, report);
    crate::probes::run(seed, limits, out, &mut tracer, report);
    report.spans = tracer.spans;
}
