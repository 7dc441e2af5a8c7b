//! Large-scale smoke tests. Ignored by default (minutes of runtime);
//! run explicitly with:
//!
//! ```sh
//! cargo test --release --test scale -- --ignored
//! ```

use parallel_mincut::core_alg::{minimum_cut_report, MinCutConfig};
use parallel_mincut::graph::gen;
use parallel_mincut::minpath::{
    decompose::{Decomposition, Strategy},
    run_tree_batch_with, TreeBatchScratch, TreeOp,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
#[ignore = "large: ~1 minute in release"]
fn planted_cut_at_sixty_five_thousand_vertices() {
    let half = 1 << 15;
    let (g, value, side) = gen::planted_bisection(half, half, 60, 6, 2 * half, 3);
    let (cut, report) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
    assert_eq!(cut.value, value);
    let same = cut.side == side;
    let comp = cut.side.iter().zip(&side).all(|(a, b)| a != b);
    assert!(same || comp);
    assert!(report.phases <= 17, "phase count must stay logarithmic");
}

#[test]
#[ignore = "large: ~1 minute in release"]
fn million_op_minpath_batch() {
    let n = 1 << 18;
    let tree = gen::random_tree(n, 4);
    let decomp = Decomposition::new(&tree, Strategy::BoughWalk);
    let init: Vec<i64> = (0..n as i64).map(|i| (i * 11) % 4096).collect();
    let mut rng = SmallRng::seed_from_u64(5);
    let k = 1 << 20;
    let ops: Vec<TreeOp> = (0..k)
        .map(|_| {
            let v = rng.gen_range(0..n) as u32;
            if rng.gen_bool(0.5) {
                TreeOp::Add {
                    v,
                    x: rng.gen_range(-100..100),
                }
            } else {
                TreeOp::Min { v }
            }
        })
        .collect();
    let mut ws = TreeBatchScratch::default();
    let results = run_tree_batch_with(&tree, &decomp, &init, &ops, &mut ws);
    // Spot-check a sample of queries against the naive oracle.
    let mut naive = parallel_mincut::minpath::NaiveMinPath::new(&tree, &init);
    let mut qi = 0usize;
    let mut checked = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            TreeOp::Add { v, x } => naive.add_path(v, x),
            TreeOp::Min { v } => {
                if i % 1013 == 0 {
                    assert_eq!(results[qi], naive.min_path(v).0, "query {qi}");
                    checked += 1;
                }
                qi += 1;
            }
        }
    }
    assert!(checked > 100, "sample too small: {checked}");
}

#[test]
#[ignore = "large: ~30 seconds in release"]
fn deep_path_graph_stress() {
    // A 100k-vertex near-path graph: single bough, maximal-depth lists.
    let n = 100_000;
    let mut edges: Vec<(u32, u32, u64)> = (0..n - 1).map(|i| (i as u32, i as u32 + 1, 5)).collect();
    let mut rng = SmallRng::seed_from_u64(8);
    for _ in 0..n / 10 {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            edges.push((u, v, 1));
        }
    }
    let g = parallel_mincut::Graph::from_edges(n, &edges).unwrap();
    let (cut, _) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
    assert!(g.is_proper_cut(&cut.side));
    assert_eq!(g.cut_value(&cut.side), cut.value);
}
