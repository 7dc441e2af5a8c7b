//! Targeted property tests for the exact operation patterns the
//! two-respect reduction feeds the Minimum Path engine: `±INF` guard
//! masks, point-bumps (`+INF` at `v`, `−INF` at `parent(v)`), paired
//! do/undo walks, and `−2w` accumulations. These patterns stress corners a
//! uniform random op mix rarely hits (huge magnitudes, exact
//! cancellation, queries under active masks). Every case runs the batch
//! engine the solver runs, through one scratch reused across the cases.

use parallel_mincut::graph::{gen, RootedTree};
use parallel_mincut::minpath::{
    decompose::{Decomposition, Strategy},
    run_tree_batch_with, NaiveMinPath, TreeBatchScratch, TreeOp, INF,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn reference(tree: &RootedTree, init: &[i64], ops: &[TreeOp]) -> Vec<i64> {
    let mut naive = NaiveMinPath::new(tree, init);
    let mut out = Vec::new();
    for op in ops {
        match *op {
            TreeOp::Add { v, x } => naive.add_path(v, x),
            TreeOp::Min { v } => out.push(naive.min_path(v).0),
        }
    }
    out
}

/// Generates a gen_ops-shaped batch: per "bough walk", a leaf guard, a
/// stream of −2w adds with interleaved queries, a point-bump pair, and the
/// full undo.
fn mincut_shaped_ops(tree: &RootedTree, rng: &mut SmallRng) -> Vec<TreeOp> {
    let n = tree.n();
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..6) {
        let leaf = rng.gen_range(0..n) as u32;
        ops.push(TreeOp::Add { v: leaf, x: INF });
        let mut undo: Vec<TreeOp> = Vec::new();
        for _ in 0..rng.gen_range(0..20) {
            let x = rng.gen_range(0..n) as u32;
            let w = 2 * rng.gen_range(1..1000i64);
            ops.push(TreeOp::Add { v: x, x: -w });
            undo.push(TreeOp::Add { v: x, x: w });
            if rng.gen_bool(0.7) {
                ops.push(TreeOp::Min {
                    v: rng.gen_range(0..n) as u32,
                });
            }
            if rng.gen_bool(0.3) {
                // point-bump pattern
                let y = rng.gen_range(0..n) as u32;
                let p = {
                    // parent or root fallback
                    let mut cand = y;
                    for v in 0..n as u32 {
                        if tree.children(v).contains(&y) {
                            cand = v;
                            break;
                        }
                    }
                    cand
                };
                ops.push(TreeOp::Add { v: y, x: INF });
                undo.push(TreeOp::Add { v: y, x: -INF });
                if p != y {
                    ops.push(TreeOp::Add { v: p, x: -INF });
                    undo.push(TreeOp::Add { v: p, x: INF });
                }
                ops.push(TreeOp::Min { v: y });
            }
        }
        undo.reverse();
        ops.extend(undo);
        ops.push(TreeOp::Add { v: leaf, x: -INF });
    }
    ops
}

#[test]
fn batch_engine_handles_guard_patterns() {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let mut ws = TreeBatchScratch::default();
    for trial in 0..60 {
        let n = rng.gen_range(2..80);
        let tree = gen::random_tree(n, trial);
        let init: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        let ops = mincut_shaped_ops(&tree, &mut rng);
        let want = reference(&tree, &init, &ops);
        let d = Decomposition::new(&tree, Strategy::BoughWalk);
        let got = run_tree_batch_with(&tree, &d, &init, &ops, &mut ws);
        assert_eq!(got, want, "trial {trial}");
    }
}

#[test]
fn guards_fully_cancel() {
    // After a do/undo round trip the structure must answer exactly like a
    // fresh one: run the shaped batch, then append a probe query per
    // vertex and compare those probes against the un-mutated weights.
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let mut ws = TreeBatchScratch::default();
    for trial in 0..20 {
        let n = rng.gen_range(2..50);
        let tree = gen::random_tree(n, 1000 + trial);
        let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
        let mut ops = mincut_shaped_ops(&tree, &mut rng);
        let probes_start = ops
            .iter()
            .filter(|o| matches!(o, TreeOp::Min { .. }))
            .count();
        for v in 0..n as u32 {
            ops.push(TreeOp::Min { v });
        }
        let d = Decomposition::new(&tree, Strategy::BoughWalk);
        let got = run_tree_batch_with(&tree, &d, &init, &ops, &mut ws);
        let fresh = NaiveMinPath::new(&tree, &init);
        for v in 0..n as u32 {
            assert_eq!(
                got[probes_start + v as usize],
                fresh.min_path(v).0,
                "residue after undo at vertex {v} (trial {trial})"
            );
        }
    }
}

#[test]
fn extreme_magnitudes_do_not_overflow() {
    use parallel_mincut::minpath::MAX_ABS_WEIGHT;
    let tree = gen::path_tree(32);
    let init = vec![MAX_ABS_WEIGHT; 32];
    let mut ops = Vec::new();
    // Stack several guards at once (within the documented budget).
    for v in 0..8u32 {
        ops.push(TreeOp::Add { v, x: INF });
    }
    ops.push(TreeOp::Min { v: 31 });
    for v in 0..8u32 {
        ops.push(TreeOp::Add { v, x: -INF });
    }
    ops.push(TreeOp::Min { v: 31 });
    let d = Decomposition::new(&tree, Strategy::BoughWalk);
    let got = run_tree_batch_with(&tree, &d, &init, &ops, &mut TreeBatchScratch::default());
    assert_eq!(got[1], MAX_ABS_WEIGHT);
    assert!(got[0] >= MAX_ABS_WEIGHT);
}
