//! Fixed probes: each layer alone on a fixed input, the same in every
//! traced run whatever the workload — runtime dispatch and start-up, wire
//! packing, the DES and proc backends, trajectory analysis, and the cost
//! of the observer itself.

use crate::md;
use crate::report::Report;
use crate::stats::{median, median_secs};
use crate::trace::Tracer;
use crate::Limits;
use analyze::{AnalyzeConfig, AnalyzeParams};
use charmrt::{
    Chare, Ctx, EntryId, ObjId, Payload, Runtime, ThreadRuntime, WireCodec, PRIO_NORMAL,
};
use mdcore::prelude::*;
use namd_core::messages::CoordMsg;
use namd_core::prelude::*;
use std::path::Path;
use std::time::Instant;

/// The deck the backend and observer probes step: the small apoa1-like one.
const PROBE_SCALE: f64 = 0.04;

/// Bounces an empty message to its peer until its budget is spent.
struct Pinger {
    peer: ObjId,
    remaining: u32,
}

impl Chare for Pinger {
    fn receive(&mut self, entry: EntryId, _payload: Payload, ctx: &mut Ctx) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.signal(self.peer, entry, PRIO_NORMAL);
        }
    }
}

/// µs per empty message between two chares, on one PE or across two.
fn ping_pong_us(cross_pe: bool, bounces: u32) -> f64 {
    let mut rt = ThreadRuntime::new(2);
    let entry = rt.register_entry("Ping");
    // Ids are dense in registration order, so each can name the other.
    let a = rt.register(
        Box::new(Pinger {
            peer: ObjId(1),
            remaining: bounces,
        }),
        0,
        false,
    );
    let b = rt.register(
        Box::new(Pinger {
            peer: ObjId(0),
            remaining: bounces,
        }),
        usize::from(cross_pe),
        false,
    );
    assert_eq!((a, b), (ObjId(0), ObjId(1)));
    rt.inject(a, entry, 0, PRIO_NORMAL, Vec::new());
    let t = Instant::now();
    rt.run();
    let delivered = rt.stats().msgs_received.max(1);
    t.elapsed().as_secs_f64() * 1e6 / delivered as f64
}

/// Construct a runtime, register one chare, run it to quiescence, drop it.
fn runtime_start_ms() -> f64 {
    let t = Instant::now();
    let mut rt = ThreadRuntime::new(2);
    let entry = rt.register_entry("Ping");
    let a = rt.register(
        Box::new(Pinger {
            peer: ObjId(0),
            remaining: 0,
        }),
        0,
        false,
    );
    rt.inject(a, entry, 0, PRIO_NORMAL, Vec::new());
    rt.run();
    drop(rt);
    t.elapsed().as_secs_f64() * 1e3
}

/// Median ns per item of `reps` calls of `f`, each covering `items` items.
fn ns_per_item<R>(reps: usize, items: usize, f: impl FnMut() -> R) -> f64 {
    median_secs(reps, f) * 1e9 / items as f64
}

/// `steps` steps of the small deck on `backend`, 2 PEs: ms per step and
/// the final state CRC.
fn backend_leg(backend: Backend, seed: u64, steps: usize, sockets: &Path) -> (f64, u64) {
    let deck = md::apoa1_deck(PROBE_SCALE, seed);
    let mut sim = ParallelSim::with_backend(deck, 2, md::DT_FS, backend).expect("valid probe");
    if backend == Backend::Proc {
        // A relative directory inside the checkout: short enough for a
        // Unix socket path wherever the checkout lives.
        sim.set_proc_options(0, Some(sockets.to_path_buf()));
    }
    let t = Instant::now();
    sim.run(steps);
    let ms = t.elapsed().as_secs_f64() * 1e3 / steps as f64;
    let crc = md::state_crc(&sim.system());
    (ms, crc)
}

/// Frames per second of `analyze_frames` on `pes` threads, and the
/// observables' CRC.
fn analyze_leg(frames: &[Vec<Vec3>], cell: &Cell, pes: usize) -> Result<(f64, u64), String> {
    let cfg = AnalyzeConfig {
        backend: Backend::Threads,
        n_pes: pes,
        params: AnalyzeParams {
            r_max: 6.0,
            contact_cutoff: 3.0,
            frame_dt: 1.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let t = Instant::now();
    let run = analyze::analyze_frames(frames, cell, &cfg, None)?;
    let fps = frames.len() as f64 / t.elapsed().as_secs_f64();
    if !run.oracle.ok() {
        return Err(run.oracle.render());
    }
    Ok((fps, run.observables.obs_crc))
}

/// Run every fixed probe and fill the isolated `charmrt.*`, `analyze.*`
/// and `profile.*` metrics.
pub fn run(seed: u64, limits: &Limits, out: &Path, tracer: &mut Tracer, report: &mut Report) {
    tracer.span("probes", |t| {
        // ---- charmrt: dispatch, start-up, wire packing ---------------------
        let bounces = limits.pick(4000, 200) as u32;
        let (same_pe, _) = t.span("charmrt.ping_pong_same_pe", |_| {
            ping_pong_us(false, bounces)
        });
        let (cross_pe, _) = t.span("charmrt.ping_pong_cross_pe", |_| {
            ping_pong_us(true, bounces)
        });
        report.metric("charmrt.msg_dispatch_us", same_pe, 2 * bounces as usize);
        report.metric(
            "charmrt.msg_dispatch_cross_pe_us",
            cross_pe,
            2 * bounces as usize,
        );
        let starts: Vec<f64> = (0..limits.pick(15, 3))
            .map(|_| t.span("charmrt.runtime_start", |_| runtime_start_ms()).0)
            .collect();
        report.metric("charmrt.runtime_start_ms", median(&starts), starts.len());

        let atoms = 512;
        let msg = CoordMsg {
            patch: 0,
            positions: (0..atoms)
                .map(|i| Vec3::new(i as f64, 0.5 * i as f64, -1.0))
                .collect(),
        };
        let packed = msg.pack();
        let reps = limits.pick(200, 20);
        report.metric(
            "charmrt.coordmsg_pack_ns_per_atom",
            ns_per_item(reps, atoms, || msg.pack()),
            reps,
        );
        report.metric(
            "charmrt.coordmsg_unpack_ns_per_atom",
            ns_per_item(reps, atoms, || CoordMsg::unpack(&packed)),
            reps,
        );
        report.check(
            "wire-roundtrip",
            CoordMsg::unpack(&packed).as_ref() == Ok(&msg),
            format!("CoordMsg of {atoms} atoms, {} packed bytes", packed.len()),
        );
        let body = vec![0xA5u8; 1 << 16];
        report.metric(
            "charmrt.frame_crc_ns_per_byte",
            ns_per_item(reps, body.len(), || charmrt::wire::encode_frame(&body)),
            reps,
        );

        // ---- charmrt: the other two backends on the small deck -------------
        let steps = limits.pick(10, 2);
        let sockets = out.join(format!("sock-{}", std::process::id()));
        let ((des_ms, des_crc), _) = t.span("charmrt.des_leg", |_| {
            backend_leg(Backend::Des, seed, steps, &sockets)
        });
        let ((proc_ms, proc_crc), _) = t.span("charmrt.proc_leg", |_| {
            backend_leg(Backend::Proc, seed, steps, &sockets)
        });
        let _ = std::fs::remove_dir_all(&sockets);
        report.metric("charmrt.des_step_ms", des_ms, steps);
        report.metric("charmrt.proc_step_ms", proc_ms, steps);
        report.check(
            "backends-bit-identical",
            des_crc == proc_crc,
            format!("des {des_crc:016x}, proc {proc_crc:016x} after {steps} steps"),
        );

        // ---- analyze: 24 captured frames of the 900-atom deck --------------
        let n_frames = limits.pick(24, 6);
        let spec = serve::JobSpec {
            atoms: 900,
            box_size: 30.0,
            seed,
            ..Default::default()
        };
        let mut sim = md::new_sim(spec.build_system(), 1, spec.dt, usize::MAX);
        let cell = sim.system().cell;
        let frames: Vec<Vec<Vec3>> = (0..n_frames)
            .map(|_| {
                sim.run(2);
                sim.system().positions.clone()
            })
            .collect();
        let (one, _) = t.span("analyze.frames_1pe", |_| analyze_leg(&frames, &cell, 1));
        let (two, _) = t.span("analyze.frames_2pe", |_| analyze_leg(&frames, &cell, 2));
        match (one, two) {
            (Ok((fps1, crc1)), Ok((fps2, crc2))) => {
                report.metric("analyze.frames_per_s_1pe", fps1, n_frames);
                report.metric("analyze.frames_per_s_2pe", fps2, n_frames);
                report.check(
                    "analyze-pe-count-invariant",
                    crc1 == crc2,
                    format!("obs_crc {crc1:016x} on 1 PE, {crc2:016x} on 2"),
                );
            }
            (a, b) => report.check(
                "analyze-runs",
                false,
                format!("{:?} / {:?}", a.err(), b.err()),
            ),
        }

        // ---- profile: what attaching the observer costs ---------------------
        // Half-cycles of the small deck, registry off and on in turn. On one PE:
        // two PEs step within ±15 % of themselves from cycle to cycle on
        // this deck, which would bury a budget of 1 %; the observer's work
        // per handler is the same on either.
        let cycle_steps = limits.cycle_steps() / 2;
        let mut sim = md::new_sim(md::apoa1_deck(PROBE_SCALE, seed), 1, md::DT_FS, cycle_steps);
        sim.run(cycle_steps);
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..limits.pick(2, 1) {
            sim.set_metrics(None);
            off.extend(
                t.span("profile.cycle_observer_off", |_| {
                    md::timed_cycle(&mut sim, cycle_steps)
                })
                .0,
            );
            sim.set_metrics(Some(MetricsRegistry::in_memory()));
            on.extend(
                t.span("profile.cycle_observer_on", |_| {
                    md::timed_cycle(&mut sim, cycle_steps)
                })
                .0,
            );
        }
        report.metric(
            "profile.observer_overhead_frac",
            median(&on) / median(&off) - 1.0,
            on.len(),
        );
    });
}
