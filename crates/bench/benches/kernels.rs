//! Criterion benches for the computational kernels: the non-bonded pair
//! kernels (the 80%+ of MD time), bonded kernels, cell-list construction,
//! and the exclusion check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mdcore::nonbonded::nb_self_ranged;
use mdcore::prelude::*;
use namd_core::decomp::{self, ComputeKind};
use namd_core::prelude::{ForceMode, SimConfig};
use std::hint::black_box;

fn water_system(n_side: usize) -> System {
    let mut topo = Topology::default();
    let mut pos = Vec::new();
    let spacing = 3.1;
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let base = Vec3::new(
                    ix as f64 * spacing + 0.4,
                    iy as f64 * spacing + 0.4,
                    iz as f64 * spacing + 0.4,
                );
                push_water(&mut topo, 0, 1);
                pos.push(base);
                pos.push(base + Vec3::new(0.9572, 0.0, 0.0));
                pos.push(base + Vec3::new(-0.2399, 0.9266, 0.0));
            }
        }
    }
    let l = n_side as f64 * spacing;
    System::new(topo, ForceField::biomolecular((l / 2.2).min(10.0)), Cell::cube(l), pos)
}

fn bench_nonbonded(c: &mut Criterion) {
    let mut g = c.benchmark_group("nonbonded");
    for n_side in [4usize, 6, 8] {
        let sys = water_system(n_side);
        let n = sys.n_atoms();
        let lj = sys.lj_types();
        let q = sys.charges();
        let ids: Vec<u32> = (0..n as u32).collect();
        let group = AtomGroup::new(&sys.positions, &ids, &lj, &q);
        let pairs = count_self_pairs(group, &sys.cell, sys.forcefield.cutoff);
        g.throughput(Throughput::Elements(pairs));
        g.bench_with_input(BenchmarkId::new("nb_self", n), &sys, |b, sys| {
            let mut forces = vec![Vec3::ZERO; n];
            b.iter(|| {
                forces.fill(Vec3::ZERO);
                black_box(nb_self_ranged(
                    &sys.forcefield,
                    &sys.exclusions,
                    group,
                    &sys.cell,
                    0..n,
                    &mut forces,
                ))
            });
        });
    }
    g.finish();
}

fn bench_nonbonded_listed(c: &mut Criterion) {
    let margin = 2.0;
    let mut g = c.benchmark_group("nonbonded_listed");
    for n_side in [4usize, 6, 8] {
        let sys = water_system(n_side);
        let n = sys.n_atoms();
        let lj = sys.lj_types();
        let q = sys.charges();
        let ids: Vec<u32> = (0..n as u32).collect();
        let group = AtomGroup::new(&sys.positions, &ids, &lj, &q);
        let mut list = Vec::new();
        self_candidates_into(group, &sys.cell, 0..n, sys.forcefield.cutoff + margin, &mut list);
        let pairs = count_self_pairs(group, &sys.cell, sys.forcefield.cutoff);
        g.throughput(Throughput::Elements(pairs));
        // Cache hit: walk a pre-built candidate list.
        g.bench_with_input(BenchmarkId::new("hit", n), &sys, |b, sys| {
            let mut forces = vec![Vec3::ZERO; n];
            b.iter(|| {
                forces.fill(Vec3::ZERO);
                black_box(nb_self_listed(
                    &sys.forcefield,
                    &sys.exclusions,
                    group,
                    &sys.cell,
                    &list,
                    &mut forces,
                ))
            });
        });
        // Cache miss: rebuild the candidate list, then walk it.
        g.bench_with_input(BenchmarkId::new("rebuild", n), &sys, |b, sys| {
            let mut forces = vec![Vec3::ZERO; n];
            let mut scratch = Vec::new();
            b.iter(|| {
                self_candidates_into(
                    group,
                    &sys.cell,
                    0..n,
                    sys.forcefield.cutoff + margin,
                    &mut scratch,
                );
                forces.fill(Vec3::ZERO);
                black_box(nb_self_listed(
                    &sys.forcefield,
                    &sys.exclusions,
                    group,
                    &sys.cell,
                    &scratch,
                    &mut forces,
                ))
            });
        });
    }
    g.finish();
}

/// One patch's atoms as a compute object is handed them.
struct Gathered {
    pos: Vec<Vec3>,
    ids: Vec<AtomId>,
    lj: Vec<u16>,
    charge: Vec<f64>,
}

impl Gathered {
    fn of(sys: &System, atoms: &[AtomId]) -> Gathered {
        let at = |a: &AtomId| sys.topology.atoms[*a as usize];
        Gathered {
            pos: atoms.iter().map(|&a| sys.positions[a as usize]).collect(),
            ids: atoms.to_vec(),
            lj: atoms.iter().map(|a| at(a).lj_type).collect(),
            charge: atoms.iter().map(|a| at(a).charge).collect(),
        }
    }

    fn group(&self) -> AtomGroup<'_> {
        AtomGroup::new(&self.pos, &self.ids, &self.lj, &self.charge)
    }
}

/// One non-bonded compute of a decomposition: its patches (one for a self
/// compute, two for a pair compute), its candidate list, a force block per
/// patch.
struct ReplayCompute {
    patches: Vec<Gathered>,
    list: Vec<(u32, u32)>,
    forces: Vec<Vec<Vec3>>,
}

/// The listed kernels over the work they are given in a run: every self and
/// pair compute of the decomposition of apoa1-like × 0.04 (the small
/// benchmark deck), each walking its own candidate list at cutoff + 2.5 Å.
/// Patch-shaped work — shorter rows, pairs folded through the periodic faces,
/// protein exclusions — reads slower per pair than the whole water box of
/// `nonbonded_listed`, and it is what a run's kernel time is made of.
fn bench_nonbonded_listed_replay(c: &mut Criterion) {
    let deck = molgen::apoa1_like().scaled(0.04);
    let mut sys = molgen::SystemBuilder::new(deck.spec().clone()).build_restrained();
    sys.thermalize(300.0, 1);
    let config = SimConfig::builder(1, machine::presets::generic_cluster())
        .force_mode(ForceMode::Real)
        .build()
        .expect("default configuration is valid");
    let decomp = decomp::build(&sys, &config);
    let (ff, ex, cell) = (&sys.forcefield, &sys.exclusions, &sys.cell);
    let radius = ff.cutoff + 2.5;
    let mut computes: Vec<ReplayCompute> = decomp
        .computes
        .iter()
        .filter(|spec| matches!(spec.kind, ComputeKind::SelfNb { .. } | ComputeKind::PairNb { .. }))
        .map(|spec| {
            let patches: Vec<Gathered> =
                spec.patches.iter().map(|&p| Gathered::of(&sys, &decomp.grid.atoms[p])).collect();
            let mut list = Vec::new();
            let outer = spec.outer.clone();
            match patches.as_slice() {
                [a] => self_candidates_into(a.group(), cell, outer, radius, &mut list),
                [a, b] => {
                    pair_candidates_into(a.group(), b.group(), cell, outer, radius, &mut list)
                }
                _ => unreachable!("a non-bonded compute reads one or two patches"),
            }
            let forces = patches.iter().map(|p| vec![Vec3::ZERO; p.pos.len()]).collect();
            ReplayCompute { patches, list, forces }
        })
        .collect();
    let mut walk = || {
        let mut total = NbResult::default();
        for c in &mut computes {
            total.add(match (c.patches.as_slice(), c.forces.as_mut_slice()) {
                ([a], [fa]) => nb_self_listed(ff, ex, a.group(), cell, &c.list, fa),
                ([a, b], [fa, fb]) => {
                    nb_pair_listed(ff, ex, a.group(), b.group(), cell, &c.list, fa, fb)
                }
                _ => unreachable!("one force block per patch"),
            });
        }
        total
    };
    let mut g = c.benchmark_group("nonbonded_listed_replay");
    g.throughput(Throughput::Elements(walk().pairs));
    g.bench_function("apoa1x0.04", |b| b.iter(|| black_box(walk())));
    g.finish();
}

fn bench_nonbonded_clusters(c: &mut Criterion) {
    let margin = 2.0;
    let mut g = c.benchmark_group("nonbonded_clusters");
    for n_side in [4usize, 6, 8] {
        let sys = water_system(n_side);
        let n = sys.n_atoms();
        let lj = sys.lj_types();
        let q = sys.charges();
        let ids: Vec<u32> = (0..n as u32).collect();
        let group = AtomGroup::new(&sys.positions, &ids, &lj, &q);
        let pairs = count_self_pairs(group, &sys.cell, sys.forcefield.cutoff);
        g.throughput(Throughput::Elements(pairs));
        for width in [SimdWidth::Scalar, SimdWidth::X4] {
            let mut grid = ClusterGrid::new();
            grid.refresh(group, &sys.cell, width);
            let mut cpairs = Vec::new();
            self_cluster_pairs_into(
                group,
                &grid,
                &sys.exclusions,
                &sys.cell,
                0..n,
                sys.forcefield.cutoff + margin,
                &mut cpairs,
            );
            let mut inner = Vec::new();
            prune_into(&cpairs, &grid, &grid, &sys.cell, sys.forcefield.cutoff, &mut inner);
            // Dual-list hit step: refresh spheres, prune, run the kernel.
            let id = format!("hit-{}", width.as_str());
            g.bench_with_input(BenchmarkId::new(id, n), &sys, |b, sys| {
                let mut forces = vec![Vec3::ZERO; n];
                b.iter(|| {
                    grid.refresh(group, &sys.cell, width);
                    prune_into(
                        &cpairs,
                        &grid,
                        &grid,
                        &sys.cell,
                        sys.forcefield.cutoff,
                        &mut inner,
                    );
                    forces.fill(Vec3::ZERO);
                    black_box(nb_self_clusters(
                        &sys.forcefield,
                        group,
                        &sys.cell,
                        &grid,
                        &cpairs,
                        &inner,
                        width,
                        &mut forces,
                    ))
                });
            });
        }
        // Outer rebuild: sphere sweep + mask construction.
        let mut grid = ClusterGrid::new();
        grid.refresh(group, &sys.cell, SimdWidth::Scalar);
        g.bench_with_input(BenchmarkId::new("rebuild", n), &sys, |b, sys| {
            let mut scratch = Vec::new();
            b.iter(|| {
                self_cluster_pairs_into(
                    group,
                    &grid,
                    &sys.exclusions,
                    &sys.cell,
                    0..n,
                    sys.forcefield.cutoff + margin,
                    &mut scratch,
                );
                black_box(scratch.len())
            });
        });

        // Pair (two-group) kernel over a half/half split of the box.
        let h = (n / 2 / 3) * 3; // keep whole molecules per side
        let ga_group =
            AtomGroup::new(&sys.positions[..h], &ids[..h], &lj[..h], &q[..h]);
        let gb_group =
            AtomGroup::new(&sys.positions[h..], &ids[h..], &lj[h..], &q[h..]);
        let mut ga = ClusterGrid::new();
        let mut gb = ClusterGrid::new();
        ga.refresh(ga_group, &sys.cell, SimdWidth::Scalar);
        gb.refresh(gb_group, &sys.cell, SimdWidth::Scalar);
        let mut ppairs = Vec::new();
        pair_cluster_pairs_into(
            ga_group,
            &ga,
            gb_group,
            &gb,
            &sys.exclusions,
            &sys.cell,
            0..h,
            sys.forcefield.cutoff + margin,
            &mut ppairs,
        );
        let mut pinner = Vec::new();
        prune_into(&ppairs, &ga, &gb, &sys.cell, sys.forcefield.cutoff, &mut pinner);
        g.bench_with_input(BenchmarkId::new("pair-hit-scalar", n), &sys, |b, sys| {
            let mut fa = vec![Vec3::ZERO; h];
            let mut fb = vec![Vec3::ZERO; n - h];
            b.iter(|| {
                fa.fill(Vec3::ZERO);
                fb.fill(Vec3::ZERO);
                black_box(nb_pair_clusters(
                    &sys.forcefield,
                    ga_group,
                    gb_group,
                    &sys.cell,
                    &ga,
                    &gb,
                    &ppairs,
                    &pinner,
                    SimdWidth::Scalar,
                    &mut fa,
                    &mut fb,
                ))
            });
        });
    }
    g.finish();
}

/// The minimum image alone: one `Cell::dist2` per element, over
/// displacements that stay inside half a box (a patch against itself), that
/// straddle it (two patches of a 2-patch axis), and that sit one box away
/// (neighbours through the periodic face).
fn bench_min_image(c: &mut Criterion) {
    let cell = Cell::cube(38.3);
    // The deterministic scatter the kernel unit tests use.
    let cloud = |lo: f64, span: f64| -> Vec<Vec3> {
        (0..4096)
            .map(|i| {
                let at = |k: f64, o: f64| lo + (i as f64 * k + o) % span;
                Vec3::new(at(7.13, 0.31), at(3.77, 1.07), at(5.41, 2.03))
            })
            .collect()
    };
    let a = cloud(0.0, 12.0);
    let mut g = c.benchmark_group("min_image");
    g.throughput(Throughput::Elements(a.len() as u64));
    for (name, b) in [
        ("inside_half_box", cloud(0.0, 12.0)),
        ("straddling_half_box", cloud(10.0, 20.0)),
        ("through_the_face", cloud(27.0, 11.0)),
    ] {
        g.bench_function(name, |bench| {
            bench.iter(|| {
                let mut acc = 0.0;
                for (&p, &q) in a.iter().zip(&b) {
                    acc += cell.dist2(black_box(p), q);
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

/// One rebuild of a candidate list at cutoff + margin: the whole box as one
/// self compute, and its two halves as a pair compute.
fn bench_list_build(c: &mut Criterion) {
    let margin = 2.5;
    let mut g = c.benchmark_group("list_build");
    for n_side in [6usize, 10] {
        let sys = water_system(n_side);
        let n = sys.n_atoms();
        let lj = sys.lj_types();
        let q = sys.charges();
        let ids: Vec<u32> = (0..n as u32).collect();
        let radius = sys.forcefield.cutoff + margin;
        let group = AtomGroup::new(&sys.positions, &ids, &lj, &q);
        let mut list = Vec::new();
        self_candidates_into(group, &sys.cell, 0..n, radius, &mut list);
        g.throughput(Throughput::Elements(list.len() as u64));
        g.bench_with_input(BenchmarkId::new("self", n), &sys, |b, sys| {
            b.iter(|| {
                self_candidates_into(group, &sys.cell, 0..n, radius, &mut list);
                black_box(list.len())
            });
        });
        let h = n / 2;
        let ga = AtomGroup::new(&sys.positions[..h], &ids[..h], &lj[..h], &q[..h]);
        let gb = AtomGroup::new(&sys.positions[h..], &ids[h..], &lj[h..], &q[h..]);
        pair_candidates_into(ga, gb, &sys.cell, 0..h, radius, &mut list);
        g.throughput(Throughput::Elements(list.len() as u64));
        g.bench_with_input(BenchmarkId::new("pair", n), &sys, |b, sys| {
            b.iter(|| {
                pair_candidates_into(ga, gb, &sys.cell, 0..h, radius, &mut list);
                black_box(list.len())
            });
        });
    }
    g.finish();
}

fn bench_celllist(c: &mut Criterion) {
    let mut g = c.benchmark_group("celllist");
    for n_side in [6usize, 10] {
        let sys = water_system(n_side);
        g.bench_with_input(
            BenchmarkId::new("build+pairs", sys.n_atoms()),
            &sys,
            |b, sys| {
                b.iter(|| {
                    let cl = CellList::build(&sys.cell, &sys.positions, sys.forcefield.cutoff);
                    black_box(cl.neighbor_pairs(&sys.positions, sys.forcefield.cutoff).len())
                });
            },
        );
    }
    g.finish();
}

fn bench_bonded(c: &mut Criterion) {
    let sys = water_system(8);
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    c.bench_function("bonded/water8", |b| {
        b.iter(|| {
            forces.fill(Vec3::ZERO);
            black_box(compute_bonded(&sys.topology, &sys.cell, &sys.positions, &mut forces))
        });
    });
}

fn bench_exclusions(c: &mut Criterion) {
    let sys = water_system(8);
    let ex = &sys.exclusions;
    c.bench_function("exclusions/kind_lookup", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in (0..sys.n_atoms() as u32).step_by(7) {
                for j in (0..sys.n_atoms() as u32).step_by(13) {
                    if ex.kind(i, j) != ExclusionKind::None {
                        acc += 1;
                    }
                }
            }
            black_box(acc)
        });
    });
}

fn bench_full_step(c: &mut Criterion) {
    let mut sys = water_system(6);
    sys.thermalize(300.0, 1);
    let mut sim = Simulator::new(&sys, 1.0);
    c.bench_function("sequential_step/water6", |b| {
        b.iter(|| black_box(sim.step(&mut sys).total()));
    });
}

criterion_group!(
    benches,
    bench_nonbonded,
    bench_nonbonded_listed,
    bench_nonbonded_listed_replay,
    bench_nonbonded_clusters,
    bench_min_image,
    bench_list_build,
    bench_celllist,
    bench_bonded,
    bench_exclusions,
    bench_full_step
);
criterion_main!(benches);
