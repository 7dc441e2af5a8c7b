//! Experiment E10 — direct validation of Lemma 9's *work formula*.
//!
//! Wall time conflates constants, allocators and caches; the batch engine
//! also counts its own work: every record processed at every binary-tree
//! node. Lemma 9 predicts, for `k` operations on an `n`-vertex tree,
//!
//! ```text
//! work = O(k·log n·(log n + log k) + n·log n)
//! ```
//!
//! so `work / (k·log n·(log n + log k))` should be bounded by a constant as
//! `n` and `k` scale — that constant is printed in the last column and is
//! the experiment's pass/fail signal. The depth estimate (critical path of
//! the level sweeps of the deepest list) is checked against
//! `O(log n (log n + log k))` the same way. The counters come from the
//! batch engine the solver runs (`run_tree_batch_stats`), on one reused
//! scratch.

use pmc_bench::*;
use pmc_graph::{gen, RootedTree};
use pmc_minpath::{
    decompose::{Decomposition, Strategy},
    run_tree_batch_stats, BatchStats, TreeBatchScratch,
};

/// E10's `n`-vertex tree, its bough decomposition and its initial weights.
fn instance(n: usize) -> (RootedTree, Decomposition, Vec<i64>) {
    let tree = gen::random_tree(n, 31);
    let decomp = Decomposition::new(&tree, Strategy::BoughWalk);
    let init = (0..n as i64).map(|i| (i * 13) % 997).collect();
    (tree, decomp, init)
}

/// The record counters of E10's batch of `k` random ops on `instance`.
fn batch_stats(
    (tree, decomp, init): &(RootedTree, Decomposition, Vec<i64>),
    k: usize,
    ws: &mut TreeBatchScratch,
) -> BatchStats {
    let ops = random_tree_ops(tree.n(), k, 37);
    run_tree_batch_stats(tree, decomp, init, &ops, ws).1
}

fn main() {
    println!("# E10: Lemma 9 work/depth formula validation (measured engine counters)\n");
    header(&[
        "n",
        "k",
        "work items",
        "k·logn·(logn+logk)",
        "work ratio",
        "depth est",
        "logn·(logn+logk)",
        "depth ratio",
    ]);
    let mut ws = TreeBatchScratch::default();
    for &n in &[1 << 10, 1 << 13, 1 << 16] {
        let inst = instance(n);
        for &k in &[n, 4 * n, 16 * n] {
            let stats = batch_stats(&inst, k, &mut ws);
            let logn = (n as f64).log2();
            let logk = (k as f64).log2();
            let work_budget = k as f64 * logn * (logn + logk);
            let depth_budget = logn * (logn + logk);
            row(&[
                n.to_string(),
                k.to_string(),
                stats.work_items.to_string(),
                format!("{work_budget:.0}"),
                format!("{:.3}", stats.work_items as f64 / work_budget),
                stats.depth_est.to_string(),
                format!("{depth_budget:.0}"),
                format!("{:.3}", stats.depth_est as f64 / depth_budget),
            ]);
        }
    }
    println!("\nShape check: both ratio columns stay bounded (≲ a small constant)");
    println!("across three orders of magnitude in n and k — the Lemma 9 shape.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_pin_the_n1024_rows() {
        // The table's n = 2^10 rows, as committed in EXPERIMENTS.md § E10.
        let inst = instance(1 << 10);
        let mut ws = TreeBatchScratch::default();
        let got: Vec<(u64, u64)> = [1, 4, 16]
            .iter()
            .map(|&m| {
                let stats = batch_stats(&inst, m << 10, &mut ws);
                (stats.work_items, stats.depth_est)
            })
            .collect();
        assert_eq!(got, [(9_882, 26), (40_601, 32), (163_544, 38)]);
    }
}
