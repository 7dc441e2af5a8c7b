//! Property-based tests of the full algorithm and its key substrates
//! against exact oracles on randomly generated graphs.

use parallel_mincut::baseline::{quadratic_two_respect, stoer_wagner};
use parallel_mincut::core_alg::{
    best_one_respect, minimum_cut, minimum_cut_report, minimum_cut_with, one_respect_cuts,
    two_respect_mincut, MinCutConfig, RespectKind, SolveState, SolverWorkspace,
};
use parallel_mincut::graph::{gen, mincut_certificate, Graph, UnionFind};
use parallel_mincut::packing::{
    kruskal_mst, pack_trees, rooted_tree_from_edges, sample_skeleton, set_bits, PackingConfig,
    RepeatedMst,
};
use parallel_mincut::scenario::{corpus_filtered, Oracle};
use proptest::prelude::*;
use rand::SeedableRng;

/// Arbitrary connected weighted graph: spanning-tree backbone + extras.
fn arb_connected_graph(max_n: usize, extra: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        let backbone: Vec<BoxedStrategy<(u32, u32, u64)>> = (1..n)
            .map(|v| {
                ((0..v as u32), (1u64..10))
                    .prop_map(move |(p, w)| (p, v as u32, w))
                    .boxed()
            })
            .collect();
        let extras = prop::collection::vec(((0..n as u32), (0..n as u32), (1u64..10)), 0..extra);
        (backbone, extras).prop_map(move |(mut edges, extras)| {
            for (u, v, w) in extras {
                if u != v {
                    edges.push((u, v, w));
                }
            }
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

/// Number of graph shapes [`structured_graph`] draws from.
const SHAPES: usize = 7;

/// Appends a cycle through the `k >= 2` vertices `base..base + k` (two
/// parallel edges when `k = 2`) plus up to `chords` random chords.
fn push_block(
    edges: &mut Vec<(u32, u32, u64)>,
    rng: &mut rand::rngs::SmallRng,
    base: u32,
    k: u32,
    chords: usize,
) {
    use rand::Rng;
    for i in 0..k {
        edges.push((base + i, base + (i + 1) % k, 1));
    }
    for _ in 0..chords {
        let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
        if a != b {
            edges.push((base + a, base + b, 1));
        }
    }
}

/// A random graph of one shape the repeated-MST engine reduces
/// differently: 0 a random tree (every edge a bridge), 1 a single cycle,
/// 2 a tree with parallel copies, 3 a cycle with pendant paths, 4 two
/// blocks joined by one bridge, 5 a disconnected union with an isolated
/// vertex, 6 a random multigraph.
fn structured_graph(shape: usize, rng: &mut rand::rngs::SmallRng) -> Graph {
    use rand::Rng;
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    let n = match shape {
        0 | 2 => {
            let n = rng.gen_range(2..40u32);
            for v in 1..n {
                let p = rng.gen_range(0..v);
                let copies = if shape == 2 { rng.gen_range(1..4) } else { 1 };
                for _ in 0..copies {
                    edges.push((p, v, 1));
                }
            }
            n
        }
        1 => {
            let n = rng.gen_range(2..40u32);
            push_block(&mut edges, rng, 0, n, 0);
            n
        }
        3 => {
            let k = rng.gen_range(2..20u32);
            push_block(&mut edges, rng, 0, k, 0);
            let mut n = k;
            for _ in 0..rng.gen_range(1..5) {
                let mut at = rng.gen_range(0..n);
                for _ in 0..rng.gen_range(1..6) {
                    edges.push((at, n, 1));
                    at = n;
                    n += 1;
                }
            }
            n
        }
        4 => {
            let (a, b) = (rng.gen_range(2..20u32), rng.gen_range(2..20u32));
            push_block(&mut edges, rng, 0, a, 4);
            push_block(&mut edges, rng, a, b, 4);
            edges.push((rng.gen_range(0..a), a + rng.gen_range(0..b), 1));
            a + b
        }
        5 => {
            let (a, b) = (rng.gen_range(2..20u32), rng.gen_range(2..20u32));
            push_block(&mut edges, rng, 0, a, 3);
            for v in 1..b {
                edges.push((a + rng.gen_range(0..v), a + v, 1));
            }
            a + b + 1
        }
        _ => {
            let n = rng.gen_range(2..40u32);
            for v in 1..n {
                edges.push((rng.gen_range(0..v), v, 1));
            }
            for _ in 0..rng.gen_range(0..2 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    edges.push((a, b, 1));
                }
            }
            n
        }
    };
    Graph::from_edges(n as usize, &edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minimum_cut_matches_stoer_wagner(g in arb_connected_graph(28, 60), seed in 0u64..1 << 20) {
        let want = stoer_wagner(&g).unwrap().value;
        let cfg = MinCutConfig { seed, ..MinCutConfig::default() };
        let got = minimum_cut(&g, &cfg).unwrap();
        prop_assert_eq!(got.value, want);
        prop_assert!(g.is_proper_cut(&got.side));
        prop_assert_eq!(g.cut_value(&got.side), got.value);
    }

    #[test]
    fn two_respect_engines_agree(g in arb_connected_graph(26, 50), seed in 0u64..1000) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let cost: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..100)).collect();
        let mst = kruskal_mst(&g, &cost);
        let tree = rooted_tree_from_edges(&g, &mst, 0);
        let ours = two_respect_mincut(&g, &tree);
        let base = quadratic_two_respect(&g, &tree).unwrap();
        prop_assert_eq!(ours.value as u64, base.value);
        prop_assert_eq!(g.cut_value(&ours.side), ours.value as u64);
        prop_assert_eq!(g.cut_value(&base.side), base.value);
    }

    #[test]
    fn mst_implementations_agree(seed in 0u64..1 << 20) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        // One engine across every shape: re-preparation must not leak
        // state from the previous graph.
        let mut mst = RepeatedMst::new();
        for shape in 0..SHAPES {
            let g = structured_graph(shape, &mut rng);
            // Several key vectors per preparation, as one greedy run uses
            // the engine: 64-bit keys from many ties to spread costs, then
            // exact u128 keys for costs of 2^32 and beyond.
            for (bound, lows, spans) in [
                (u64::from(u32::MAX), [0u64, 0, 0], [3u64, 8, 1 << 20]),
                (u64::MAX, [1 << 32, 0, 1 << 40], [1 << 40, 8, 3]),
            ] {
                let components = mst.prepare(&g, bound);
                for (lo, span) in lows.into_iter().zip(spans) {
                    let cost: Vec<u64> =
                        (0..g.m()).map(|_| rng.gen_range(lo..lo + span)).collect();
                    let bits = mst.left_out(|e| cost[e as usize]);
                    prop_assert_eq!(bits.len(), g.m().div_ceil(64));
                    let out: Vec<u32> = set_bits(bits.iter().copied()).collect();
                    prop_assert_eq!(out.len() + g.n(), g.m() + components);
                    let tree = kruskal_mst(&g, &cost);
                    let complement: Vec<u32> = (0..g.m() as u32)
                        .filter(|e| tree.binary_search(e).is_err())
                        .collect();
                    prop_assert_eq!(&out, &complement);
                }
            }
        }
    }

    #[test]
    fn min_cut_value_lower_bounds_every_cut(g in arb_connected_graph(20, 40)) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..30 {
            let mut side: Vec<bool> = (0..g.n()).map(|_| rng.gen()).collect();
            if !g.is_proper_cut(&side) {
                side[0] = !side[0];
            }
            if g.is_proper_cut(&side) {
                prop_assert!(g.cut_value(&side) >= cut.value);
            }
        }
    }
}

/// The corpus scenarios matching `filter` (all of them for `None`) at
/// seeds 0–2, named `scenario#seed`, with their exact minimum cuts.
fn corpus_instances(filter: Option<&str>) -> Vec<(String, Graph, u64)> {
    corpus_filtered(filter)
        .iter()
        .flat_map(|s| {
            (0..3).map(move |seed| {
                let inst = s.instantiate(seed);
                let lambda = match inst.oracle {
                    Oracle::Known(v) => v,
                    Oracle::Baseline => stoer_wagner(&inst.graph).unwrap().value,
                };
                (format!("{}#{seed}", s.name()), inst.graph, lambda)
            })
        })
        .collect()
}

#[test]
fn packing_lower_bound_is_sound_on_the_corpus() {
    // With the default (certificate-on) config: instances whose answer
    // meets the bound, trees swept, trees packed.
    let mut counts = (0, 0, 0);
    for (name, g, lambda) in corpus_instances(None) {
        for use_certificate in [true, false] {
            let cfg = MinCutConfig {
                use_certificate,
                ..MinCutConfig::default()
            };
            let (cut, r) = minimum_cut_report(&g, &cfg).unwrap();
            let at = format!("{name}, certificate {use_certificate}");
            assert_eq!(cut.value, lambda, "{at}");
            assert!(r.lower_bound <= lambda, "{at}: bound {}", r.lower_bound);
            // On the full skeleton the bound is ⌈P⌉ of the reported P,
            // wherever f64 rounding cannot blur the ceiling.
            let p = r.packing_value;
            if r.skeleton_p == 1.0 && (p - p.round()).abs() > 1e-9 {
                assert_eq!(r.lower_bound, p.ceil() as u64, "{at}: P = {p}");
            }
            if use_certificate {
                counts.0 += usize::from(cut.value == r.lower_bound);
                counts.1 += r.trees_examined;
                counts.2 += r.trees_selected;
            }
        }
    }
    // The corpus counts EXPERIMENTS.md § E20 reports; they move only when
    // the packing, its certified stop or the early exit does.
    assert_eq!(counts, (60, 699, 699));
}

/// The floor `min(lightest bridge, w₁ + w₂)` from its definition: the
/// lightest edge whose removal disconnects `g`, or the two lightest edges
/// together.
fn floor_by_definition(g: &Graph) -> u64 {
    let mut weights: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
    weights.sort_unstable();
    let pair = weights.get(1).map_or(u64::MAX, |w2| weights[0] + w2);
    let is_bridge = |b: usize| {
        let mut uf = UnionFind::new(g.n());
        for (e, edge) in g.edges().iter().enumerate() {
            if e != b {
                uf.union(edge.u, edge.v);
            }
        }
        uf.components() > 1
    };
    (0..g.m())
        .filter(|&b| is_bridge(b))
        .map(|b| g.edges()[b].w)
        .fold(pair, u64::min)
}

#[test]
fn packing_floor_is_sound_and_certifies_sparse_graphs_at_round_one() {
    let full = PackingConfig {
        force_full_skeleton: true,
        ..PackingConfig::default()
    };
    let heavy = 1u64 << 38;
    // Two triangles of weight `w` on 0..3 and 3..6, joined by `joins`.
    let triangles = |w: u64, joins: &[(u32, u32, u64)]| {
        let mut edges = vec![
            (0, 1, w),
            (1, 2, w),
            (2, 0, w),
            (3, 4, w),
            (4, 5, w),
            (5, 3, w),
        ];
        edges.extend_from_slice(joins);
        Graph::from_edges(6, &edges).unwrap()
    };
    let weighted_cycle: Vec<(u32, u32, u64)> = (0..8u32)
        .map(|i| (i, (i + 1) % 8, [1, 4, 4, 4][i as usize % 4]))
        .collect();
    let leaf = (0u64..)
        .map(|seed| gen::gnm_connected(96, 288, 6, seed))
        .find(|g| g.min_weighted_degree() == 1)
        .unwrap();
    // Each input with the round it certifies at, where that is pinned. A
    // graph with λ ≤ 2 has floor λ, so it certifies at round 1 when its
    // first tree crosses a minimum cut once.
    let mut cases: Vec<(String, Graph, Option<usize>)> = vec![
        // δ = 1: the minimum cut is a bridge every tree holds.
        ("leaf gnm".into(), leaf, Some(1)),
        ("barbell".into(), gen::barbell(8), Some(1)),
        ("bridge".into(), gen::bridge_graph(10, 6, 1, 3).0, Some(1)),
        // The bridge (3) is lighter than w₁ + w₂ (8): a floor without its
        // bridge term is above λ.
        (
            "bridged triangles".into(),
            triangles(5, &[(2, 3, 3)]),
            Some(1),
        ),
        ("light triangles".into(), triangles(1, &[(2, 3, 3)]), None),
        (
            "two joins".into(),
            triangles(5, &[(2, 3, 7), (0, 5, 9)]),
            None,
        ),
        // Parallel unit edges, never bridges, are the minimum cut: a floor
        // of w₂ + w₃ (6) is above λ. So in the weighted cycle, whose two
        // unit edges are its minimum cut.
        (
            "parallel pair".into(),
            triangles(5, &[(2, 3, 1), (3, 2, 1)]),
            Some(1),
        ),
        (
            "weighted cycle".into(),
            Graph::from_edges(8, &weighted_cycle).unwrap(),
            None,
        ),
        // Multiplicities capped at u32::MAX: the floor reads true weights.
        (
            "capped path".into(),
            Graph::from_edges(3, &[(0, 1, heavy), (1, 2, 3)]).unwrap(),
            Some(1),
        ),
        (
            "capped triangle".into(),
            Graph::from_edges(3, &[(0, 1, heavy), (1, 2, heavy), (2, 0, heavy)]).unwrap(),
            Some(1),
        ),
    ];
    for n in [3, 12, 40, 257] {
        cases.push((
            format!("cycle {n}"),
            gen::cycle_with_chords(n, 0, 0),
            Some(1),
        ));
    }
    for (rows, cols) in [(2, 9), (3, 5), (8, 8), (5, 13)] {
        cases.push((
            format!("grid {rows}x{cols}"),
            gen::grid(rows, cols),
            Some(1),
        ));
    }
    // The 6x8 ring's first tree holds all six ring edges, so it crosses
    // every minimum cut twice; the second tree leaves one out.
    for (k, size, seed, rounds) in [(4, 4, 0, 1), (6, 8, 1, 2), (8, 32, 2, 1), (32, 8, 3, 1)] {
        let (ring, _) = gen::community_ring(k, size, 4, seed);
        cases.push((format!("ring {k}x{size}"), ring, Some(rounds)));
    }
    for seed in 0..4 {
        let g = gen::contracted_multigraph(24, 60, 8, seed);
        cases.push((format!("contracted #{seed}"), g, None));
    }
    for (name, g, rounds) in &cases {
        let lambda = stoer_wagner(g).unwrap().value;
        let packing = pack_trees(g, &full);
        let (bound, floor) = (packing.cut_lower_bound, floor_by_definition(g));
        assert!(bound <= lambda, "{name}: bound {bound} above λ = {lambda}");
        assert!(
            bound >= floor,
            "{name}: bound {bound} below the floor {floor}"
        );
        if let Some(cut) = &packing.certified {
            assert_eq!((cut.value, bound), (lambda, lambda), "{name}");
            assert_eq!(g.cut_value(&cut.side), lambda, "{name}");
        }
        if let Some(rounds) = rounds {
            assert!(packing.certified.is_some(), "{name}: not certified");
            assert_eq!(packing.rounds, *rounds, "{name}");
        }
    }
}

/// `count` graphs of serve-mixed's shape (a cycle on 28–43 vertices plus
/// chords up to `m = 1.5 n`, weights 1–6), named `serve#seed`, with their
/// exact minimum cuts.
fn serve_instances(count: u64) -> Vec<(String, Graph, u64)> {
    use rand::Rng;
    (0..count)
        .map(|seed| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5E7E + seed);
            let n = rng.gen_range(28..=43u32);
            let mut edges: Vec<(u32, u32, u64)> = (0..n)
                .map(|i| (i, (i + 1) % n, rng.gen_range(1..=6)))
                .collect();
            while edges.len() < (n + n / 2) as usize {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    edges.push((u, v, rng.gen_range(1..=6)));
                }
            }
            let g = Graph::from_edges(n as usize, &edges).unwrap();
            let lambda = stoer_wagner(&g).unwrap().value;
            (format!("serve#{seed}"), g, lambda)
        })
        .collect()
}

#[test]
fn certified_packings_prove_lambda_on_the_corpus_and_serve_shapes() {
    let mut instances = corpus_instances(None);
    instances.extend(serve_instances(40));
    // Certified solves: corpus and serve shapes, with the certificate on
    // and off.
    let mut certified = [0; 4];
    for (name, g, lambda) in &instances {
        for use_certificate in [true, false] {
            let cfg = MinCutConfig {
                use_certificate,
                ..MinCutConfig::default()
            };
            let (cut, r) = minimum_cut_report(g, &cfg).unwrap();
            let at = format!("{name}, certificate {use_certificate}");
            assert_eq!(cut.value, *lambda, "{at}");
            // The packing the pipeline ran, on the graph it packed.
            let work = match mincut_certificate(g) {
                Some(c) if use_certificate => c.graph,
                _ => g.clone(),
            };
            let mut pcfg = cfg.packing.clone();
            pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
            let packing = pack_trees(&work, &pcfg);
            assert_eq!(packing.certified.is_some(), r.certified, "{at}");
            let Some(handed_out) = &packing.certified else {
                continue;
            };
            certified
                [2 * usize::from(name.starts_with("serve#")) + usize::from(!use_certificate)] += 1;
            // One tree, whose lightest 1-respecting cut is the bound and λ.
            assert_eq!(packing.trees.len(), 1, "{at}");
            let tree = rooted_tree_from_edges(&work, &packing.trees[0], 0);
            let (lightest, _) = best_one_respect(&one_respect_cuts(&work, &tree), &tree).unwrap();
            assert_eq!(lightest as u64, packing.cut_lower_bound, "{at}");
            assert_eq!(packing.cut_lower_bound, *lambda, "{at}");
            assert_eq!(r.lower_bound, *lambda, "{at}");
            // The packing hands out the cut the full search of its tree
            // returns, and the solve answers with it: no Minimum Path
            // operation.
            let full = two_respect_mincut(&work, &tree);
            assert_eq!(full.value as u64, handed_out.value, "{at}");
            assert_eq!(full.side, handed_out.side, "{at}");
            assert_eq!(full.kind, RespectKind::One, "{at}");
            assert_eq!(
                (cut.value, &cut.side),
                (handed_out.value, &handed_out.side),
                "{at}"
            );
            assert_eq!(cut.kind, Some(RespectKind::One), "{at}");
            assert_eq!(cut.tree_index, Some(0), "{at}");
            let swept = (r.trees_selected, r.trees_examined);
            assert_eq!((swept, r.batch_ops_total, r.phases), ((1, 1), 0, 0), "{at}");
        }
    }
    // The corpus counts are E20's: the instances whose answer meets the
    // bound.
    assert_eq!(certified, [60, 60, 40, 40]);
}

#[test]
fn packing_lower_bound_is_sound_on_sampled_skeletons() {
    for seed in 0..3u64 {
        let heavy = [
            gen::gnm_connected(60, 240, 5000, seed),
            gen::planted_bisection(30, 30, 2000, 3, 30, seed).0,
        ];
        for g in &heavy {
            let lambda = stoer_wagner(g).unwrap().value;
            let cfg = PackingConfig {
                seed,
                ..PackingConfig::default()
            };
            let packing = pack_trees(g, &cfg);
            assert!(packing.skeleton_p < 1.0, "seed {seed}: not sampled");
            assert!(
                packing.cut_lower_bound <= lambda,
                "seed {seed}: bound {} above λ = {lambda}",
                packing.cut_lower_bound
            );
        }
        // A sampled multiplicity never exceeds its edge's weight, also
        // when it is capped at u32::MAX.
        let capped =
            Graph::from_edges(3, &[(0, 1, 1 << 36), (1, 2, (1 << 32) + 7), (0, 2, 5)]).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for g in heavy.iter().chain([&capped]) {
            for p in [1.0, 0.999, 0.5, 0.1, 0.01] {
                let sk = sample_skeleton(g, p, &mut rng);
                for (e, &mult) in g.edges().iter().zip(&sk.multiplicity) {
                    assert!(u64::from(mult) <= e.w, "p {p}: {mult} > {}", e.w);
                }
            }
        }
    }
}

#[test]
fn early_exit_matches_a_full_sweep_at_every_width() {
    // The corpus, plus community rings large enough (m >= 256) for the
    // per-tree loop to fan out.
    let mut graphs: Vec<(String, Graph)> = corpus_instances(None)
        .into_iter()
        .map(|(name, g, _)| (name, g))
        .collect();
    for s in 0..3 {
        graphs.push((format!("ring8x32#{s}"), gen::community_ring(8, 32, 4, s).0));
    }
    graphs.extend(
        serve_instances(12)
            .into_iter()
            .map(|(name, g, _)| (name, g)),
    );
    for (name, g) in &graphs {
        let mut counters = None;
        for threads in [1, 2, 8] {
            let cfg = MinCutConfig {
                threads: Some(threads),
                use_certificate: false,
                ..MinCutConfig::default()
            };
            let mut ws = SolverWorkspace::new();
            let got = minimum_cut_with(g, &cfg, &mut ws).unwrap();
            let at = format!("{name}, {threads} threads");
            let mut pcfg = cfg.packing.clone();
            pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
            let packing = pack_trees(g, &pcfg);
            if packing.certified.is_some() {
                // The solve answers from the packing, so the oracle is the
                // full search run directly on the one packed tree.
                let tree = rooted_tree_from_edges(g, &packing.trees[0], 0);
                let want = two_respect_mincut(g, &tree);
                assert_eq!(got.value, want.value as u64, "{at}");
                assert_eq!(got.side, want.side, "{at}");
                assert_eq!(got.kind, Some(want.kind), "{at}");
                assert_eq!(got.tree_index, Some(0), "{at}");
            } else {
                // `SolveState::fresh` sweeps every packed tree.
                let full = SolveState::fresh(g, cfg.seed, &mut ws, cfg.threads).unwrap();
                let want = full.best();
                assert_eq!(got.value, want.value, "{at}");
                assert_eq!(got.side, want.side, "{at}");
                assert_eq!(got.kind, want.kind, "{at}");
                assert_eq!(got.tree_index, want.tree_index, "{at}");
            }
            let (_, r) = minimum_cut_report(g, &cfg).unwrap();
            let now = (r.trees_examined, r.batch_ops_total, r.phases);
            assert_eq!(*counters.get_or_insert(now), now, "{at}");
        }
    }
}

#[test]
fn early_exit_stops_on_rings_and_sweeps_dense_families() {
    // The solve-community ring: the bound (⌈1.03⌉ = 2) is met by the
    // packing's own tree, which certifies it.
    let (ring, _) = gen::community_ring(32, 64, 4, 1);
    for threads in [1, 2] {
        let cfg = MinCutConfig {
            threads: Some(threads),
            ..MinCutConfig::default()
        };
        let (cut, r) = minimum_cut_report(&ring, &cfg).unwrap();
        assert_eq!((cut.value, r.lower_bound), (2, 2), "{threads} threads");
        assert_eq!((r.trees_examined, r.trees_selected), (1, 1));
        assert!(r.certified, "{threads} threads");
    }
    // Complete graphs and tori pack at about λ / 2: the bound never
    // closes, and every packed tree is swept.
    let dense = corpus_instances(Some("complete, torus"));
    assert_eq!(dense.len(), 12, "two complete and two torus scenarios");
    for (name, g, lambda) in dense {
        let (cut, r) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(cut.value, lambda, "{name}");
        assert!(r.lower_bound < lambda, "{name}");
        assert_eq!(r.trees_examined, r.trees_selected, "{name}");
    }
}
