//! End-to-end agreement with the exact oracle on the structured graph
//! families (hypercubes, tori, wheels, community rings, and the
//! adversarial corpus additions) plus structural property tests for every
//! generator: node/edge counts, connectivity, degree invariants, and the
//! exact minimum-cut values derivable from each construction.

use parallel_mincut::baseline::stoer_wagner;
use parallel_mincut::core_alg::{minimum_cut, minimum_cut_report, MinCutConfig};
use parallel_mincut::graph::{gen, is_connected};

#[test]
fn hypercubes_have_cut_d() {
    for d in 2..7u32 {
        let g = gen::hypercube(d);
        let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(cut.value, d as u64, "Q_{d}");
        assert_eq!(g.cut_value(&cut.side), cut.value);
    }
}

#[test]
fn tori_have_cut_four() {
    for (r, c) in [(3usize, 3usize), (4, 6), (5, 5), (3, 10)] {
        let g = gen::torus(r, c);
        let want = stoer_wagner(&g).unwrap().value;
        let got = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, want, "torus {r}x{c}");
        assert_eq!(want, 4);
    }
}

#[test]
fn wheels_have_cut_three() {
    for n in [4usize, 7, 12, 25] {
        let g = gen::wheel(n);
        let want = stoer_wagner(&g).unwrap().value;
        let got = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, want, "wheel {n}");
    }
}

#[test]
fn community_rings_cut_two_bridges() {
    for seed in 0..5 {
        let (g, label) = gen::community_ring(4, 10, 5, seed);
        let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(cut.value, 2, "seed {seed}");
        // The witness splits the community ring into contiguous arcs:
        // check it doesn't split any single community.
        for c in 0..4u32 {
            let sides: std::collections::HashSet<bool> = label
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l == c)
                .map(|(v, _)| cut.side[v])
                .collect();
            assert_eq!(sides.len(), 1, "community {c} split (seed {seed})");
        }
    }
}

#[test]
fn recursive_induced_partitioning() {
    // The clustering pattern: cut, recurse on induced halves; at every
    // level the library must agree with the oracle on the subgraphs.
    let (g, _) = gen::community_ring(4, 8, 6, 9);
    let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
    let (a, b) = cut.partition();
    for part in [a, b] {
        if part.len() < 2 {
            continue;
        }
        let sub = g.induced(&part);
        if !parallel_mincut::graph::is_connected(&sub) {
            continue;
        }
        let want = stoer_wagner(&sub).unwrap().value;
        let got = minimum_cut(&sub, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, want);
    }
}

// ---------------------------------------------------------------------------
// Structural property tests: every generator's counts, connectivity, and
// degree invariants, plus exact minimum cuts where the construction proves
// them (hypercube d, torus 4, wheel 3, barbell 1, community-ring bridges,
// bridge-graph bridge weight, grid corner isolation, cycle 2).
// ---------------------------------------------------------------------------

#[test]
fn generator_counts_and_connectivity() {
    for seed in 0..3u64 {
        let g = gen::gnm_connected(40, 110, 9, seed);
        assert_eq!((g.n(), g.m()), (40, 110));
        assert!(is_connected(&g));

        let g = gen::gnm_heavy_tailed(40, 110, seed);
        assert_eq!((g.n(), g.m()), (40, 110));
        assert!(is_connected(&g));
        assert!(g
            .edges()
            .iter()
            .all(|e| e.w.is_power_of_two() && e.w <= 1024));

        let g = gen::cycle_with_chords(25, 5, seed);
        assert_eq!(g.n(), 25);
        assert!(g.m() <= 30 && g.m() >= 25); // chords skip u == v draws
        assert!(is_connected(&g));

        let g = gen::preferential_attachment(40, 3, seed);
        assert_eq!(g.n(), 40);
        assert_eq!(g.m(), 6 + 3 * 36);
        assert!(is_connected(&g));
    }

    let g = gen::grid(5, 7);
    assert_eq!((g.n(), g.m()), (35, 5 * 6 + 4 * 7));
    assert!(is_connected(&g));

    let g = gen::complete(10, 5, 3);
    assert_eq!((g.n(), g.m()), (10, 45));
    assert!(is_connected(&g));

    let g = gen::barbell(6);
    assert_eq!((g.n(), g.m()), (12, 2 * 15 + 1));

    let g = gen::hypercube(5);
    assert_eq!((g.n(), g.m()), (32, 5 * 16));

    let g = gen::torus(4, 6);
    assert_eq!((g.n(), g.m()), (24, 48));

    let g = gen::wheel(9);
    assert_eq!((g.n(), g.m()), (9, 16));

    let (g, label) = gen::community_ring(5, 6, 3, 1);
    assert_eq!(g.n(), 30);
    assert!(is_connected(&g));
    assert_eq!(label.len(), 30);
}

#[test]
fn regular_generator_degree_invariant() {
    for (n, d, seed) in [(26, 3, 0u64), (30, 5, 1), (40, 4, 2)] {
        let g = gen::random_regular(n, d, seed);
        assert_eq!(g.m(), n * d / 2, "n={n} d={d}");
        for v in 0..n as u32 {
            assert_eq!(g.weighted_degree(v), d as u64, "n={n} d={d} v={v}");
        }
        assert!(is_connected(&g));
    }
}

#[test]
fn torus_and_wheel_degree_invariants() {
    let g = gen::torus(5, 6);
    for v in 0..30u32 {
        assert_eq!(g.weighted_degree(v), 4);
    }
    let g = gen::wheel(10);
    assert_eq!(g.weighted_degree(0), 9); // hub: one spoke per rim vertex
    for v in 1..10u32 {
        assert_eq!(g.weighted_degree(v), 3); // rim: two rim edges + spoke
    }
}

#[test]
fn barbell_min_cut_is_one() {
    for k in [3usize, 5, 9] {
        let g = gen::barbell(k);
        let want = stoer_wagner(&g).unwrap().value;
        assert_eq!(want, 1, "barbell({k})");
        let got = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, 1, "barbell({k})");
    }
}

#[test]
fn grid_min_cut_is_corner_isolation() {
    for (r, c) in [(2usize, 2usize), (3, 5), (6, 4)] {
        let g = gen::grid(r, c);
        assert_eq!(stoer_wagner(&g).unwrap().value, 2, "grid {r}x{c}");
        let got = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, 2, "grid {r}x{c}");
    }
}

#[test]
fn plain_cycle_min_cut_is_two() {
    for n in [5usize, 12, 31] {
        let g = gen::cycle_with_chords(n, 0, 1);
        let got = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, 2, "cycle({n})");
    }
}

#[test]
fn bridge_graphs_cut_the_bridge() {
    for (side, w, seed) in [(5usize, 1u64, 0u64), (10, 3, 1), (20, 7, 2)] {
        let (g, value) = gen::bridge_graph(side, side, w, seed);
        assert_eq!(value, w);
        assert_eq!(stoer_wagner(&g).unwrap().value, w, "bridge side={side}");
        let got = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, w, "bridge side={side}");
    }
}

#[test]
fn adversarial_families_agree_with_oracle() {
    // No closed-form cut for these: differential check against the exact
    // baseline, paper solver on one side.
    let cases: Vec<parallel_mincut::Graph> = vec![
        gen::random_regular(36, 4, 3),
        gen::preferential_attachment(40, 3, 4),
        gen::gnm_heavy_tailed(40, 120, 5),
        gen::contracted_multigraph(60, 150, 18, 6),
    ];
    for (i, g) in cases.iter().enumerate() {
        let want = stoer_wagner(g).unwrap().value;
        let got = minimum_cut(g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, want, "case {i}");
        assert_eq!(g.cut_value(&got.side), got.value, "case {i}");
    }
}

#[test]
fn report_reflects_certificate_on_dense_family() {
    // A dense torus-of-communities style graph with a weak vertex: the
    // report must show the certificate firing. The weak vertex is a leaf
    // of every tree, so the packing certifies λ = 2 on one tree and the
    // search runs no Minimum Path operation.
    let dense = gen::complete(80, 4, 5);
    let mut edges: Vec<(u32, u32, u64)> = dense.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    edges.push((0, 80, 2));
    let g = parallel_mincut::Graph::from_edges(81, &edges).unwrap();
    let (cut, report) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
    assert_eq!(cut.value, 2);
    assert!(report.certificate_applied);
    assert!(report.certificate_kept < 0.2);
    assert!(report.certified);
    assert_eq!((report.trees_examined, report.batch_ops_total), (1, 0));
    // The same clique with a weak 5-cycle through vertex 0 (weight-2
    // edges): λ = 4, but the cycle caps the packing at 5 · 2 / 4 = 2.5, so
    // the bound (3) cannot close, and all stages run.
    let mut edges: Vec<(u32, u32, u64)> = dense.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    edges.extend([
        (0, 80, 2),
        (80, 81, 2),
        (81, 82, 2),
        (82, 83, 2),
        (83, 0, 2),
    ]);
    let g = parallel_mincut::Graph::from_edges(84, &edges).unwrap();
    let (cut, report) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
    assert_eq!(cut.value, 4);
    assert!(report.certificate_applied);
    assert!(report.certificate_kept < 0.2);
    assert!(!report.certified);
    assert!(report.trees_examined > 0);
    assert!(report.batch_ops_total > 0);
}
