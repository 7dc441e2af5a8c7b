//! Experiment E3 — Lemmas 5, 6, 9: batched Minimum Path cost.
//!
//! The paper claims `O(k log n (log n + log k) + n log n)` work for a batch
//! of `k` tree operations, i.e. roughly constant *per-op* cost once
//! `k ≥ n`, against `O(log² n)` per op for the one-at-a-time sequential
//! structure; the batch's gain is its depth. We sweep `n` and `k` and
//! report per-op times for:
//!
//! * `batch`  — the §3 batch engine as the solver runs it
//!   (`run_tree_batch_with`, one scratch reused across every batch); the
//!   allocating reference `run_tree_batch` only checks its answers,
//! * `seq`    — the §2.3 sequential Δ-tree (`O(log² n)` per op),
//! * `naive`  — the `O(depth)` walking oracle.

use pmc_bench::*;
use pmc_graph::gen;
use pmc_minpath::{
    decompose::{Decomposition, Strategy},
    run_tree_batch, run_tree_batch_with, NaiveMinPath, SeqMinPath, TreeBatchScratch, TreeOp,
};

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
            assert_eq!(
                run_tree_batch_with(&tree, &decomp, &init, &ops, &mut ws),
                run_tree_batch(&tree, &decomp, &init, &ops),
                "engines disagree (n={n}, k={k})"
            );
            let t_batch = time_best(3, || {
                std::hint::black_box(run_tree_batch_with(&tree, &decomp, &init, &ops, &mut ws));
            });
            let t_seq = time_best(2, || {
                let mut s = SeqMinPath::new(&tree, &decomp, &init);
                let mut acc = 0i64;
                for op in &ops {
                    match *op {
                        TreeOp::Add { v, x } => s.add_path(v, x),
                        TreeOp::Min { v } => acc ^= s.min_path(v).0,
                    }
                }
                std::hint::black_box(acc);
            });
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
            let per = |d: std::time::Duration| d.as_secs_f64() * 1e6 / k as f64;
            row(&[
                n.to_string(),
                k.to_string(),
                format!("{:.3}", per(t_batch)),
                format!("{:.3}", per(t_seq)),
                format!("{:.3}", per(t_naive)),
                format!("{:.2}x", t_seq.as_secs_f64() / t_batch.as_secs_f64()),
            ]);
        }
    }
    println!("\nShape check: batch per-op cost stays ~flat as k grows (log² k);");
    println!("the naive oracle degrades with tree depth. The solver's batch runs");
    println!("sequentially, so batch vs seq compares work: expect the same order.");
}
