//! Criterion benches for the parallel-structure layer: decomposition
//! construction, patch-grid binning, and one full DES phase.

use criterion::{criterion_group, criterion_main, Criterion};
use namd_core::prelude::*;
use std::hint::black_box;

fn test_system() -> mdcore::system::System {
    molgen::SystemBuilder::new(molgen::SystemSpec {
        name: "bench-decomp",
        box_lengths: mdcore::vec3::Vec3::new(42.0, 42.0, 42.0),
        target_atoms: 6_000,
        protein_chains: 1,
        protein_chain_len: 80,
        lipid_slab: Some((14.0, 24.0)),
        cutoff: 9.0,
        seed: 1,
    })
    .build()
}

fn bench_decomposition_build(c: &mut Criterion) {
    let sys = test_system();
    let machine = machine::presets::asci_red();
    c.bench_function("decomp/build_counted_6k", |b| {
        let cfg = SimConfig::new(16, machine);
        b.iter(|| black_box(build_decomposition(&sys, &cfg).computes.len()));
    });
    c.bench_function("decomp/build_real_6k", |b| {
        let cfg = SimConfig::builder(16, machine)
            .force_mode(ForceMode::Real)
            .build()
            .unwrap();
        b.iter(|| black_box(build_decomposition(&sys, &cfg).computes.len()));
    });
}

fn bench_patch_grid(c: &mut Criterion) {
    let sys = test_system();
    c.bench_function("patchgrid/assign_6k", |b| {
        let mut grid = PatchGrid::build(&sys.cell, &sys.positions, 9.0, 3.5);
        b.iter(|| {
            grid.assign(&sys.positions);
            black_box(grid.atoms.len())
        });
    });
}

fn bench_des_phase(c: &mut Criterion) {
    let sys = test_system();
    let machine = machine::presets::asci_red();
    let decomp = build_decomposition(&sys, &SimConfig::new(1, machine));
    c.bench_function("des/phase_2steps_64pe", |b| {
        b.iter(|| {
            let cfg = SimConfig::builder(64, machine).build().unwrap();
            let mut engine =
                Engine::with_decomposition(sys.clone(), decomp.clone(), cfg);
            black_box(engine.run_phase(2).time_per_step)
        });
    });
}

fn bench_multicore_forces(c: &mut Criterion) {
    let sys = test_system();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let mut group = c.benchmark_group("multicore_forces");
    group.sample_size(10);
    for t in [1usize, threads] {
        group.bench_function(format!("{t}_threads"), |b| {
            let mut sim = namd_core::parallel::ParallelSim::new(sys.clone(), t, 1.0).unwrap();
            b.iter(|| black_box(sim.compute_forces().potential()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decomposition_build,
    bench_patch_grid,
    bench_des_phase,
    bench_multicore_forces
);
criterion_main!(benches);
