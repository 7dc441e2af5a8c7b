//! Property-based tests: the batch engine is extensionally equal to the
//! one-op-at-a-time oracles (a plain array for one list, the naive walk
//! for a tree) on arbitrary trees and op sequences, for both decomposition
//! strategies.

use parallel_mincut::graph::RootedTree;
use parallel_mincut::minpath::{
    decompose::{Decomposition, Strategy as DecompStrategy},
    naive_bough_paths, run_list_batch_with, run_tree_batch_with, ListBatchScratch, NaiveMinPath,
    PrefixOp, SeqMinPath, TreeBatchScratch, TreeOp, INF,
};
use proptest::prelude::*;

/// Arbitrary parent array: vertex v attaches to some earlier vertex.
fn arb_tree(max_n: usize) -> impl Strategy<Value = RootedTree> {
    (1..max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<u32>> = (0..n)
            .map(|v| {
                if v == 0 {
                    Just(u32::MAX).boxed()
                } else {
                    (0..v as u32).boxed()
                }
            })
            .collect();
        parents.prop_map(|p| RootedTree::from_parents(0, p))
    })
}

fn arb_ops(n: usize, max_k: usize) -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        (0..n as u32, -500i64..500, prop::bool::ANY).prop_map(|(v, x, is_add)| {
            if is_add {
                TreeOp::Add { v, x }
            } else {
                TreeOp::Min { v }
            }
        }),
        0..max_k,
    )
}

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

/// One list's oracle: the ops one by one on a plain array.
fn list_reference(init: &[i64], ops: &[PrefixOp]) -> Vec<(u32, i64)> {
    let mut arr = init.to_vec();
    let mut out = Vec::new();
    for op in ops {
        match *op {
            PrefixOp::Add { pos, x, .. } => arr[..=pos as usize].iter_mut().for_each(|w| *w += x),
            PrefixOp::Min { pos, qid, .. } => {
                out.push((qid, *arr[..=pos as usize].iter().min().unwrap()))
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_equals_naive(
        tree in arb_tree(48),
        seed in 0u64..1000,
    ) {
        let n = tree.n();
        let mut r = rand::rngs::mock::StepRng::new(seed, 0x9e3779b97f4a7c15);
        use rand::RngCore;
        let init: Vec<i64> = (0..n).map(|_| (r.next_u32() % 2000) as i64 - 1000).collect();
        let ops: Vec<TreeOp> = (0..80)
            .map(|_| {
                let v = (r.next_u32() as usize % n) as u32;
                if r.next_u32().is_multiple_of(2) {
                    TreeOp::Add { v, x: (r.next_u32() % 600) as i64 - 300 }
                } else {
                    TreeOp::Min { v }
                }
            })
            .collect();
        let want = reference(&tree, &init, &ops);
        let mut ws = TreeBatchScratch::default();
        for strat in [DecompStrategy::BoughWalk, DecompStrategy::HeavyLight] {
            let d = Decomposition::new(&tree, strat);
            let got = run_tree_batch_with(&tree, &d, &init, &ops, &mut ws);
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn seq_structure_equals_naive(
        tree in arb_tree(48),
        ops in arb_ops(48, 120),
    ) {
        let n = tree.n();
        let ops: Vec<TreeOp> = ops.into_iter().map(|op| match op {
            TreeOp::Add { v, x } => TreeOp::Add { v: v % n as u32, x },
            TreeOp::Min { v } => TreeOp::Min { v: v % n as u32 },
        }).collect();
        let init: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 1000 - 500).collect();
        let d = Decomposition::new(&tree, DecompStrategy::BoughWalk);
        let mut seq = SeqMinPath::new(&tree, &d, &init);
        let mut naive = NaiveMinPath::new(&tree, &init);
        for op in &ops {
            match *op {
                TreeOp::Add { v, x } => {
                    seq.add_path(v, x);
                    naive.add_path(v, x);
                }
                TreeOp::Min { v } => {
                    let (gv, ga) = seq.min_path(v);
                    let (wv, _) = naive.min_path(v);
                    prop_assert_eq!(gv, wv);
                    // argmin must achieve the value
                    prop_assert_eq!(naive.weight(ga), gv);
                }
            }
        }
    }

    #[test]
    fn decomposition_invariants(tree in arb_tree(200)) {
        let n = tree.n();
        let log2n = (usize::BITS - n.leading_zeros()) as usize;
        for strat in [DecompStrategy::BoughWalk, DecompStrategy::BoughRandomMate, DecompStrategy::HeavyLight] {
            let d = Decomposition::new(&tree, strat);
            d.validate(&tree);
            for &leaf in &tree.leaves() {
                prop_assert!(d.paths_on_root_path(&tree, leaf) <= log2n.max(1));
            }
        }
    }

    #[test]
    fn bough_strategies_agree(tree in arb_tree(150)) {
        let a = Decomposition::new(&tree, DecompStrategy::BoughWalk);
        let b = Decomposition::new(&tree, DecompStrategy::BoughRandomMate);
        let mut pa: Vec<Vec<u32>> = a.paths_iter().map(|p| p.to_vec()).collect();
        let mut pb: Vec<Vec<u32>> = b.paths_iter().map(|p| p.to_vec()).collect();
        pa.sort();
        pb.sort();
        prop_assert_eq!(pa, pb);
        prop_assert_eq!(a.nphases(), b.nphases());
    }

    #[test]
    fn flat_decomposition_equals_naive_reference(tree in arb_tree(150)) {
        // The flat-arena BoughWalk decomposition must reproduce the naive
        // nested-Vec peel exactly: same paths, same order, same phases.
        let d = Decomposition::new(&tree, DecompStrategy::BoughWalk);
        let want = naive_bough_paths(&tree);
        prop_assert_eq!(d.npaths(), want.len());
        for (pid, (path, phase)) in want.iter().enumerate() {
            prop_assert_eq!(d.path(pid as u32), &path[..]);
            prop_assert_eq!(d.phase_of_path(pid as u32), *phase);
        }
        prop_assert_eq!(
            d.nphases(),
            want.iter().map(|(_, ph)| ph + 1).max().unwrap_or(1)
        );
    }

    #[test]
    fn flat_list_sweep_equals_plain_array(
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        // The flat-arena level sweep returns the plain array's (qid, value)
        // results in time order, through one scratch reused across rounds.
        let mut r = rand::rngs::mock::StepRng::new(seed, 0x9e3779b97f4a7c15);
        use rand::RngCore;
        let mut ws = ListBatchScratch::default();
        for round in 0..3u32 {
            let init: Vec<i64> = (0..n)
                .map(|_| (r.next_u32() % 2000) as i64 - 1000)
                .collect();
            let ops: Vec<PrefixOp> = (0..60u32)
                .map(|time| {
                    let pos = r.next_u32() % n as u32;
                    if r.next_u32().is_multiple_of(2) {
                        PrefixOp::Add { time, pos, x: (r.next_u32() % 600) as i64 - 300 }
                    } else {
                        PrefixOp::Min { time, pos, qid: time }
                    }
                })
                .collect();
            let got = run_list_batch_with(&init, &ops, &mut ws);
            prop_assert_eq!(got, list_reference(&init, &ops), "round {}", round);
        }
    }

    #[test]
    fn flat_tree_sweep_equals_naive(
        trees in prop::collection::vec(arb_tree(60), 2..5),
        seed in 0u64..1000,
    ) {
        // Same equivalence one layer up: the slot-keyed bucketing + flat
        // sweep of run_tree_batch_with against the naive walk. One
        // scratch serves every tree of the case, so per-slot offsets left
        // over from a differently sized tree would show, and the ops carry
        // the two-respect search's ±INF guards: a vertex's root path is
        // masked with +INF and unmasked later, as gen_ops emits them.
        let mut r = rand::rngs::mock::StepRng::new(seed, 0x9e3779b97f4a7c15);
        use rand::RngCore;
        let mut ws = TreeBatchScratch::default();
        for (ti, tree) in trees.iter().enumerate() {
            let n = tree.n();
            let init: Vec<i64> = (0..n).map(|_| (r.next_u32() % 2000) as i64 - 1000).collect();
            let mut ops: Vec<TreeOp> = (0..70)
                .map(|_| {
                    let v = (r.next_u32() as usize % n) as u32;
                    if r.next_u32().is_multiple_of(2) {
                        TreeOp::Add { v, x: (r.next_u32() % 600) as i64 - 300 }
                    } else {
                        TreeOp::Min { v }
                    }
                })
                .collect();
            for _ in 0..2 {
                let guard = (r.next_u32() as usize % n) as u32;
                let (a, b) = (r.next_u32() as usize % ops.len(), r.next_u32() as usize % ops.len());
                ops.insert(a.max(b), TreeOp::Add { v: guard, x: -INF });
                ops.insert(a.min(b), TreeOp::Add { v: guard, x: INF });
            }
            let want = reference(tree, &init, &ops);
            for strat in [DecompStrategy::BoughWalk, DecompStrategy::HeavyLight] {
                let d = Decomposition::new(tree, strat);
                let got = run_tree_batch_with(tree, &d, &init, &ops, &mut ws);
                prop_assert_eq!(got, want, "tree {} strategy {:?}", ti, strat);
            }
        }
    }
}
