//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning crates.

use namd_repro::lb;
use namd_repro::mdcore::nonbonded::nb_self_ranged;
use namd_repro::mdcore::prelude::*;
use namd_repro::namd_core::decomp::{even_ranges, triangle_ranges};
use namd_repro::namd_core::patchgrid::PatchGrid;
use proptest::prelude::*;

fn arb_vec3(l: f64) -> impl Strategy<Value = Vec3> {
    (0.0..l, 0.0..l, 0.0..l).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn min_image_is_antisymmetric_and_bounded(
        a in arb_vec3(25.0),
        b in arb_vec3(25.0),
    ) {
        let cell = Cell::cube(25.0);
        let d1 = cell.min_image(a, b);
        let d2 = cell.min_image(b, a);
        prop_assert!((d1 + d2).norm() < 1e-9);
        // Each component within half the box.
        for ax in 0..3 {
            prop_assert!(d1.axis(ax).abs() <= 12.5 + 1e-9);
        }
    }

    #[test]
    fn wrap_is_idempotent_and_preserves_distances(
        a in arb_vec3(100.0),
        b in arb_vec3(100.0),
    ) {
        let cell = Cell::periodic(Vec3::ZERO, Vec3::new(20.0, 30.0, 15.0));
        let wa = cell.wrap(a);
        prop_assert!(cell.contains(wa));
        prop_assert!((cell.wrap(wa) - wa).norm() < 1e-12);
        prop_assert!((cell.dist2(a, b) - cell.dist2(wa, cell.wrap(b))).abs() < 1e-6);
    }

    #[test]
    fn exclusions_symmetric_for_random_chains(
        bonds in proptest::collection::vec((0u32..20, 0u32..20), 0..40)
    ) {
        let mut topo =
            Topology { atoms: vec![Atom { mass: 12.0, charge: 0.0, lj_type: 0 }; 20], ..Default::default() };
        for (a, b) in bonds {
            if a != b {
                topo.bonds.push(Bond { a, b, k: 1.0, r0: 1.5 });
            }
        }
        let ex = Exclusions::from_topology(&topo);
        for i in 0..20u32 {
            for j in 0..20u32 {
                if i != j {
                    prop_assert_eq!(ex.kind(i, j), ex.kind(j, i));
                }
            }
        }
        // 1-2 partners are always fully excluded.
        for b in &topo.bonds {
            prop_assert_eq!(ex.kind(b.a, b.b), ExclusionKind::Full);
        }
    }

    #[test]
    fn cell_list_finds_exactly_the_brute_force_pairs(
        pts in proptest::collection::vec(arb_vec3(22.0), 2..60),
        cutoff in 4.0f64..8.0,
    ) {
        let cell = Cell::cube(22.0);
        let cl = CellList::build(&cell, &pts, cutoff);
        let mut fast: Vec<(u32, u32)> = cl.neighbor_pairs(&pts, cutoff);
        fast.sort_unstable();
        let mut brute = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if cell.dist2(pts[i], pts[j]) < cutoff * cutoff {
                    brute.push((i as u32, j as u32));
                }
            }
        }
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn patch_grid_partitions_atoms(
        pts in proptest::collection::vec(arb_vec3(50.0), 1..120),
    ) {
        let cell = Cell::cube(50.0);
        let grid = PatchGrid::build(&cell, &pts, 10.0, 2.0);
        let mut seen = vec![0u32; pts.len()];
        for atoms in &grid.atoms {
            for &a in atoms {
                seen[a as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "not a partition: {:?}", seen);
    }

    #[test]
    fn range_splitters_cover_exactly(
        n in 0usize..500,
        pieces in 1usize..12,
    ) {
        for ranges in [triangle_ranges(n, pieces), even_ranges(n, pieces)] {
            let mut prev = 0;
            for r in &ranges {
                prop_assert_eq!(r.start, prev);
                prop_assert!(r.end >= r.start);
                prev = r.end;
            }
            prop_assert_eq!(prev, n);
        }
    }

    #[test]
    fn rcb_uses_every_part_and_loses_nothing(
        pts in proptest::collection::vec((0.0f64..30.0, 0.0f64..30.0, 0.0f64..30.0), 1..80),
        n_parts in 1usize..16,
    ) {
        let points: Vec<[f64; 3]> = pts.iter().map(|&(x, y, z)| [x, y, z]).collect();
        let weights = vec![1.0; points.len()];
        let parts = lb::rcb(&points, &weights, n_parts);
        prop_assert_eq!(parts.len(), points.len());
        prop_assert!(parts.iter().all(|&p| p < n_parts));
        // All parts used when there are at least as many points as parts.
        if points.len() >= n_parts {
            let mut used = vec![false; n_parts];
            for &p in &parts {
                used[p] = true;
            }
            prop_assert!(used.iter().all(|&u| u), "unused part: {:?}", parts);
        }
    }

    #[test]
    fn greedy_assigns_every_compute_to_a_valid_pe(
        loads in proptest::collection::vec(0.01f64..5.0, 1..60),
        n_pes in 1usize..12,
    ) {
        let n_patches = loads.len();
        let problem = lb::LbProblem {
            n_pes,
            background: vec![0.0; n_pes],
            patch_home: (0..n_patches).map(|p| p % n_pes).collect(),
            computes: loads
                .iter()
                .enumerate()
                .map(|(i, &l)| lb::ComputeSpec { load: l, patches: vec![i] })
                .collect(),
        };
        let a = lb::greedy(&problem, lb::GreedyParams::default());
        prop_assert_eq!(a.len(), problem.computes.len());
        prop_assert!(a.iter().all(|&pe| pe < n_pes));
        // Refinement never raises the imbalance.
        let before = lb::imbalance_ratio(&problem, &a);
        let (refined, _) = lb::refine(&problem, &a, lb::RefineParams::default());
        let after = lb::imbalance_ratio(&problem, &refined);
        prop_assert!(after <= before + 1e-9, "refine worsened {before} -> {after}");
    }

    #[test]
    fn nonbonded_forces_antisymmetric_for_random_pairs(
        p1 in arb_vec3(20.0),
        p2 in arb_vec3(20.0),
        q1 in -1.0f64..1.0,
        q2 in -1.0f64..1.0,
    ) {
        let cell = Cell::cube(20.0);
        let ff = ForceField::biomolecular(8.0);
        let ex = Exclusions::none(2);
        // Keep away from the r → 0 singularity.
        prop_assume!(cell.dist2(p1, p2) > 0.5);
        let pos = [p1, p2];
        let ids = [0u32, 1];
        let lj = [0u16, 0];
        let q = [q1, q2];
        let g = AtomGroup::new(&pos, &ids, &lj, &q);
        let mut f = vec![Vec3::ZERO; 2];
        let res = nb_self_ranged(&ff, &ex, g, &cell, 0..2, &mut f);
        prop_assert!((f[0] + f[1]).norm() < 1e-9 * (1.0 + f[0].norm()));
        prop_assert!(res.energy().is_finite());
    }

    #[test]
    fn water_box_targets_are_always_hit(
        n_waters in 10usize..120,
        seed in 0u64..50,
    ) {
        let sys = namd_repro::molgen::SystemBuilder::new(namd_repro::molgen::SystemSpec {
            name: "prop-water",
            box_lengths: Vec3::splat(24.0),
            target_atoms: n_waters * 3,
            protein_chains: 0,
            protein_chain_len: 0,
            lipid_slab: None,
            cutoff: 8.0,
            seed,
        })
        .build();
        prop_assert_eq!(sys.n_atoms(), n_waters * 3);
        prop_assert!(sys.topology.validate().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fft_roundtrip_on_random_signals(
        values in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
        log2n in 3u32..9,
    ) {
        use namd_repro::pme::fft::{fft_in_place, Complex};
        let n = 1usize << log2n;
        // Tile the random values across the signal.
        let orig: Vec<Complex> = (0..n)
            .map(|i| {
                let (re, im) = values[i % values.len()];
                Complex::new(re + i as f64 * 0.01, im)
            })
            .collect();
        let mut d = orig.clone();
        fft_in_place(&mut d, false);
        // Parseval.
        let te: f64 = orig.iter().map(|c| c.norm2()).sum();
        let fe: f64 = d.iter().map(|c| c.norm2()).sum::<f64>() / n as f64;
        prop_assert!((te - fe).abs() < 1e-6 * te.max(1.0));
        // Roundtrip.
        fft_in_place(&mut d, true);
        for (a, b) in d.iter().zip(&orig) {
            prop_assert!((a.re / n as f64 - b.re).abs() < 1e-9);
            prop_assert!((a.im / n as f64 - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn erf_is_monotone_odd_and_bounded(x in -6.0f64..6.0, y in -6.0f64..6.0) {
        use namd_repro::pme::erf::{erf, erfc};
        prop_assert!((-1.0..=1.0).contains(&erf(x)));
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        if x < y {
            prop_assert!(erf(x) <= erf(y) + 1e-12);
        }
    }

    #[test]
    fn pairlist_margin_guarantee(
        seed in 0u64..30,
        moves in 0.0f64..0.9,
    ) {
        use namd_repro::mdcore::pairlist::PairList;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let cell = Cell::cube(24.0);
        let mut pos: Vec<Vec3> = (0..60)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * 24.0,
                    rng.gen::<f64>() * 24.0,
                    rng.gen::<f64>() * 24.0,
                )
            })
            .collect();
        let pl = PairList::build(&cell, &pos, 7.0, 2.0);
        // Move every atom by `moves` (< margin/2 = 1.0): list must stay
        // valid AND complete.
        for p in pos.iter_mut() {
            let dir = Vec3::new(
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
            );
            if let Some(d) = dir.normalized() {
                *p = cell.wrap(*p + d * moves);
            }
        }
        prop_assert!(pl.is_valid(&cell, &pos));
        let candidates: std::collections::BTreeSet<(u32, u32)> =
            pl.pairs().iter().copied().collect();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if cell.dist2(pos[i], pos[j]) < 49.0 {
                    prop_assert!(
                        candidates.contains(&(i as u32, j as u32)),
                        "pair ({i},{j}) inside cutoff but not a candidate"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The message-driven protocol must reach completion under *any* valid
    /// placement of the migratable computes — no deadlocks, no lost
    /// messages, and the audit identity intact.
    #[test]
    fn engine_completes_under_arbitrary_placements(seed in 0u64..200) {
        use namd_repro::machine::presets;
        use namd_repro::namd_core::prelude::*;

        let sys = namd_repro::molgen::SystemBuilder::new(namd_repro::molgen::SystemSpec {
            name: "prop-engine",
            box_lengths: Vec3::splat(30.0),
            target_atoms: 1_500,
            protein_chains: 0,
            protein_chain_len: 0,
            lipid_slab: None,
            cutoff: 9.0,
            seed: 1,
        })
        .build();
        let n_pes = 7;
        let cfg = SimConfig::builder(n_pes, presets::asci_red())
            .build()
            .unwrap();
        let mut engine = Engine::new(sys, cfg);

        // Scramble the placement of migratable computes deterministically.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for j in 0..engine.placement.len() {
            if engine.decomp().computes[j].migratable {
                engine.placement[j] = (next() % n_pes as u64) as usize;
            }
        }
        let r = engine.run_phase(2);
        prop_assert!(r.time_per_step.is_finite() && r.time_per_step > 0.0);
        // Every patch integrated exactly twice, every compute executed twice.
        let n_patches = engine.decomp().grid.n_patches();
        prop_assert_eq!(
            r.stats.entry_count[r.entries.integrate.idx()],
            2 * n_patches as u64
        );
        let a = namd_repro::namd_core::audit::audit(
            engine.decomp(),
            &presets::asci_red(),
            &r,
            n_pes,
        );
        let gap = (a.actual.component_sum() - a.actual.total).abs();
        prop_assert!(gap < 0.05 * a.actual.total, "audit identity broken: {gap}");
    }
}

mod wire_roundtrips {
    //! Pack/unpack round-trips for every wire message type: arbitrary field
    //! values survive the serialization boundary bit-exactly, and mutated or
    //! truncated byte streams are rejected rather than misread.

    use super::*;
    use namd_repro::charmrt::wire::{encode_frame, read_frame};
    use namd_repro::charmrt::{EntryId, ObjId, WireCodec, WireMsg};
    use namd_repro::namd_core::messages::{
        BarrierMsg, CoordMsg, EnergiesMsg, Fixed, FixedAcc, ForceMsg, PatchStateMsg,
    };

    /// Finite but otherwise arbitrary coordinates, including negatives,
    /// zeros, and subnormal-adjacent magnitudes.
    fn arb_any_vec3() -> impl Strategy<Value = Vec3> {
        let c = -1e12f64..1e12;
        (c.clone(), c.clone(), c).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_vecs(max: usize) -> impl Strategy<Value = Vec<Vec3>> {
        proptest::collection::vec(arb_any_vec3(), 0..max)
    }

    /// Any fixed-point value, an eighth of them the non-finite sentinel.
    fn arb_fixed() -> impl Strategy<Value = Fixed> {
        (i64::MIN..=i64::MAX, 0u8..8).prop_map(|(v, k)| match k {
            0 => Fixed::NON_FINITE,
            _ => Fixed(v),
        })
    }

    fn arb_fixed_acc() -> impl Strategy<Value = FixedAcc> {
        (
            proptest::collection::vec(arb_fixed(), 8..9),
            0u64..=u64::MAX,
        )
            .prop_map(|(e, pairs)| FixedAcc {
                energies: e.try_into().expect("eight energies"),
                pairs,
            })
    }

    fn arb_force_msg() -> impl Strategy<Value = ForceMsg> {
        let force = (arb_fixed(), arb_fixed(), arb_fixed()).prop_map(|(x, y, z)| [x, y, z]);
        (proptest::collection::vec(force, 0..24), arb_fixed_acc())
            .prop_map(|(block, energy)| ForceMsg { block, energy })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn force_msg_roundtrip(m in arb_force_msg()) {
            let bytes = m.pack();
            prop_assert!(!bytes.is_empty(), "packed messages are never empty");
            prop_assert_eq!(bytes.len(), 8 + 24 * m.block.len() + 72);
            prop_assert_eq!(ForceMsg::unpack(&bytes).unwrap(), m);
        }

        #[test]
        fn coord_msg_roundtrip(patch in 0u32..=u32::MAX, positions in arb_vecs(24)) {
            let m = CoordMsg { patch, positions };
            prop_assert_eq!(CoordMsg::unpack(&m.pack()).unwrap(), m);
        }

        #[test]
        fn barrier_msg_roundtrip(
            patch in 0u32..=u32::MAX,
            velocities in arb_vecs(16),
        ) {
            let m = BarrierMsg { patch, velocities };
            prop_assert_eq!(BarrierMsg::unpack(&m.pack()).unwrap(), m);
        }

        #[test]
        fn patch_state_msg_roundtrip(
            patch in 0u32..=u32::MAX,
            positions in arb_vecs(12),
            velocities in arb_vecs(12),
            forces in arb_vecs(12),
        ) {
            let m = PatchStateMsg { patch, positions, velocities, forces };
            prop_assert_eq!(PatchStateMsg::unpack(&m.pack()).unwrap(), m);
        }

        #[test]
        fn energies_msg_roundtrip(steps in proptest::collection::vec(arb_fixed_acc(), 0..12)) {
            let m = EnergiesMsg { steps };
            prop_assert_eq!(EnergiesMsg::unpack(&m.pack()).unwrap(), m);
        }

        #[test]
        fn wire_msg_roundtrip(
            (to, entry) in (0u32..=u32::MAX, 0u16..=u16::MAX),
            (src, dst) in (0usize..4096, 0usize..4096),
            priority in i32::MIN..=i32::MAX,
            bytes in 0u64..=u64::MAX,
            path in 0.0f64..1e9,
            payload in proptest::collection::vec(0u8..=u8::MAX, 0..256),
        ) {
            let m = WireMsg {
                to: ObjId(to),
                entry: EntryId(entry),
                src,
                dst,
                priority,
                bytes,
                path,
                payload,
            };
            prop_assert_eq!(WireMsg::unpack(&m.pack()).unwrap(), m);
        }

        /// Truncating a packed message at any boundary must error, never
        /// silently yield a different message.
        #[test]
        fn truncation_is_always_rejected(
            positions in arb_vecs(8),
            cut in 0usize..=usize::MAX,
        ) {
            let bytes = CoordMsg { patch: 3, positions }.pack();
            let cut = cut % bytes.len(); // strictly shorter than the message
            prop_assert!(CoordMsg::unpack(&bytes[..cut]).is_err());
        }

        /// A force or energies message cut at every byte boundary is an
        /// error, never a panic — and adding it into a sum changes nothing.
        #[test]
        fn force_and_energies_truncations_are_errors_at_every_byte(
            m in arb_force_msg(),
            steps in proptest::collection::vec(arb_fixed_acc(), 0..4),
        ) {
            let bytes = m.pack();
            for cut in 0..bytes.len() {
                prop_assert!(ForceMsg::unpack(&bytes[..cut]).is_err(), "ForceMsg cut at {}", cut);
                let mut sum = m.clone();
                prop_assert!(sum.add_packed(&bytes[..cut]).is_err());
                prop_assert_eq!(&sum, &m);
            }
            let e = EnergiesMsg { steps };
            let bytes = e.pack();
            for cut in 0..bytes.len() {
                prop_assert!(EnergiesMsg::unpack(&bytes[..cut]).is_err(), "EnergiesMsg cut at {}", cut);
            }
        }

        /// Appending garbage after a packed message must error too.
        #[test]
        fn trailing_garbage_is_always_rejected(
            velocities in arb_vecs(8),
            extra in proptest::collection::vec(0u8..=u8::MAX, 1..16),
        ) {
            let mut bytes = BarrierMsg { patch: 0, velocities }.pack();
            bytes.extend_from_slice(&extra);
            prop_assert!(BarrierMsg::unpack(&bytes).is_err());
        }

        /// The socket framing (`u32 len · u64 crc64 · body`) round-trips any
        /// body and detects any single-byte corruption.
        #[test]
        fn frame_roundtrip_and_crc_detection(
            body in proptest::collection::vec(0u8..=u8::MAX, 0..512),
            flip_at in 0usize..=usize::MAX,
            flip_bits in 1u8..=255,
        ) {
            let frame = encode_frame(&body);
            let back = read_frame(&mut &frame[..]).unwrap().expect("one frame");
            prop_assert_eq!(&back, &body);

            let mut bad = frame.clone();
            let i = flip_at % bad.len();
            bad[i] ^= flip_bits;
            // Any corruption is caught: either the CRC/length check fires, or
            // the frame is cut short / overlong and the reader errors.
            match read_frame(&mut &bad[..]) {
                Err(_) => {}
                Ok(decoded) => {
                    prop_assert!(decoded.as_deref() != Some(&body[..]));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bonded kernels are exact gradients at arbitrary (non-degenerate)
    /// geometries — the fixed-geometry unit tests, generalized.
    #[test]
    fn bonded_kernels_are_gradients_everywhere(
        pts in proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0), 4..5),
        k in 0.5f64..50.0,
    ) {
        use namd_repro::mdcore::bonded::{angle_force, bond_force, dihedral_force};
        let cell = Cell::open(Vec3::splat(-50.0), Vec3::splat(100.0));
        let p: Vec<Vec3> = pts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();

        // Reject near-degenerate geometries where angles/dihedrals are
        // ill-conditioned.
        let b1 = p[1] - p[0];
        let b2 = p[2] - p[1];
        let b3 = p[3] - p[2];
        prop_assume!(b1.norm() > 0.3 && b2.norm() > 0.3 && b3.norm() > 0.3);
        prop_assume!(b1.cross(b2).norm() > 0.1 && b2.cross(b3).norm() > 0.1);

        let h = 1e-6;

        // Bond between p0 and p1.
        let (_, fa, fb) = bond_force(&cell, p[0], p[1], k, 1.4);
        prop_assert!((fa + fb).norm() < 1e-9 * (1.0 + fa.norm()));
        let e_at = |x: Vec3| bond_force(&cell, x, p[1], k, 1.4).0;
        let fd = -(e_at(p[0] + Vec3::new(h, 0.0, 0.0)) - e_at(p[0] - Vec3::new(h, 0.0, 0.0)))
            / (2.0 * h);
        prop_assert!((fd - fa.x).abs() < 1e-4 * (1.0 + fa.x.abs()));

        // Angle p0-p1-p2.
        let (_, aa, ab, ac) = angle_force(&cell, p[0], p[1], p[2], k, 1.9);
        prop_assert!((aa + ab + ac).norm() < 1e-8 * (1.0 + aa.norm()));
        let e_at = |x: Vec3| angle_force(&cell, x, p[1], p[2], k, 1.9).0;
        let fd = -(e_at(p[0] + Vec3::new(0.0, h, 0.0)) - e_at(p[0] - Vec3::new(0.0, h, 0.0)))
            / (2.0 * h);
        prop_assert!((fd - aa.y).abs() < 1e-3 * (1.0 + aa.y.abs()));

        // Dihedral p0-p1-p2-p3: net force zero and FD on the second atom
        // (the middle-atom gradients are the historically bug-prone part).
        let (_, df) = dihedral_force(&cell, p[0], p[1], p[2], p[3], k, 3, 0.4);
        let net: Vec3 = df.iter().copied().sum();
        prop_assert!(net.norm() < 1e-8 * (1.0 + df[0].norm()));
        let e_at = |x: Vec3| dihedral_force(&cell, p[0], x, p[2], p[3], k, 3, 0.4).0;
        let fd = -(e_at(p[1] + Vec3::new(0.0, 0.0, h)) - e_at(p[1] - Vec3::new(0.0, 0.0, h)))
            / (2.0 * h);
        prop_assert!(
            (fd - df[1].z).abs() < 1e-3 * (1.0 + df[1].z.abs()),
            "dihedral middle-atom gradient: fd {} vs analytic {}",
            fd,
            df[1].z
        );
    }
}
