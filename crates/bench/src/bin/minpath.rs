//! Experiments E3 and E7 — batched Minimum Path cost.
//!
//! **E3 (Lemmas 5, 6, 9).** The paper claims `O(k log n (log n + log k) +
//! n log n)` work for a batch of `k` tree operations, i.e. roughly
//! constant *per-op* cost once `k ≥ n`, against `O(log² n)` per op for
//! the one-at-a-time sequential structure; the batch's gain is its depth.
//! We sweep `n` and `k` and report per-op times for:
//!
//! * `batch`  — the §3 batch engine as the solver runs it
//!   (`run_tree_batch_with`, one scratch reused across every batch), its
//!   answers checked, untimed, against the Δ-tree's,
//! * `seq`    — the §2.3 sequential Δ-tree (`O(log² n)` per op),
//! * `naive`  — the `O(depth)` walking oracle.
//!
//! **E7 (Theorem 14 proxy).** Cache misses cannot be counted portably;
//! the observable consequence of the cache-oblivious claim is that the
//! batch engine, which sweeps each level of its binary trees once and
//! touches memory monotonically, degrades more gracefully than the per-op
//! Δ-tree, which takes `O(log² n)` scattered reads per operation, once the
//! working set leaves the last-level cache. The second table times both
//! at `k = 2n` from a ~0.5 MB working set (`n = 2^14`) to ~64 MB
//! (`n = 2^20`) and reports each column's growth over its first row.

use pmc_bench::*;
use pmc_graph::{gen, RootedTree};
use pmc_minpath::{
    decompose::{Decomposition, Strategy},
    run_tree_batch_with, NaiveMinPath, SeqMinPath, TreeBatchScratch, TreeOp,
};

/// µs per op of `run_tree_batch_with` on the reused `ws` (best of 3) and
/// of the per-op Δ-tree (best of 2). The batch's answers are first checked
/// against the Δ-tree's, untimed; that first batch run also grows `ws`.
fn batch_and_seq_us(
    tree: &RootedTree,
    decomp: &Decomposition,
    init: &[i64],
    ops: &[TreeOp],
    ws: &mut TreeBatchScratch,
) -> (f64, f64) {
    assert_eq!(
        run_tree_batch_with(tree, decomp, init, ops, ws),
        delta_tree_answers(tree, decomp, init, ops),
        "engines disagree (n={}, k={})",
        tree.n(),
        ops.len()
    );
    let t_batch = time_best(3, || {
        std::hint::black_box(run_tree_batch_with(tree, decomp, init, ops, ws));
    });
    let t_seq = time_best(2, || {
        let mut s = SeqMinPath::new(tree, decomp, init);
        let mut acc = 0i64;
        for op in ops {
            match *op {
                TreeOp::Add { v, x } => s.add_path(v, x),
                TreeOp::Min { v } => acc ^= s.min_path(v).0,
            }
        }
        std::hint::black_box(acc);
    });
    let per = |d: std::time::Duration| d.as_secs_f64() * 1e6 / ops.len() as f64;
    (per(t_batch), per(t_seq))
}

fn main() {
    println!("# E3: batched MinPath/AddPath per-op cost (µs/op)\n");
    header(&["n", "k", "batch", "seq", "naive", "batch speedup vs seq"]);
    let mut ws = TreeBatchScratch::default();
    for &n in &[1 << 12, 1 << 14, 1 << 16] {
        let tree = gen::random_tree(n, 11);
        let decomp = Decomposition::new(&tree, Strategy::BoughWalk);
        let init: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 1000).collect();
        for &k in &[n / 2, 2 * n, 8 * n] {
            let ops = random_tree_ops(n, k, 13);
            let (batch, seq) = batch_and_seq_us(&tree, &decomp, &init, &ops, &mut ws);
            let t_naive = time_best(1, || {
                let mut s = NaiveMinPath::new(&tree, &init);
                let mut acc = 0i64;
                for op in &ops {
                    match *op {
                        TreeOp::Add { v, x } => s.add_path(v, x),
                        TreeOp::Min { v } => acc ^= s.min_path(v).0,
                    }
                }
                std::hint::black_box(acc);
            });
            row(&[
                n.to_string(),
                k.to_string(),
                format!("{batch:.3}"),
                format!("{seq:.3}"),
                format!("{:.3}", t_naive.as_secs_f64() * 1e6 / k as f64),
                format!("{:.2}x", seq / batch),
            ]);
        }
    }
    println!("\nShape check: batch per-op cost stays ~flat as k grows (log² k);");
    println!("the naive oracle degrades with tree depth. The solver's batch runs");
    println!("sequentially, so batch vs seq compares work: expect the same order.");

    println!("\n# E7: per-op cost past the last-level cache, k = 2n (µs/op)\n");
    header(&["n", "k", "batch", "seq", "batch growth", "seq growth"]);
    let mut first: Option<(f64, f64)> = None;
    for &n in &[1 << 14, 1 << 18, 1 << 20] {
        let tree = gen::random_tree(n, 21);
        let decomp = Decomposition::new(&tree, Strategy::BoughWalk);
        let init: Vec<i64> = (0..n as i64).map(|i| (i * 31) % 512).collect();
        let ops = random_tree_ops(n, 2 * n, 23);
        let (batch, seq) = batch_and_seq_us(&tree, &decomp, &init, &ops, &mut ws);
        let (batch0, seq0) = *first.get_or_insert((batch, seq));
        row(&[
            n.to_string(),
            (2 * n).to_string(),
            format!("{batch:.3}"),
            format!("{seq:.3}"),
            format!("{:.2}x", batch / batch0),
            format!("{:.2}x", seq / seq0),
        ]);
    }
    println!("\nShape check: from n = 2^14 to 2^20 the batch's per-op cost grows");
    println!("by a smaller factor than the Δ-tree's (growth is over the first row).");
}
