//! Experiment E9 — ablations of the design choices DESIGN.md calls out.
//!
//! (a) **Batch vs. per-op execution** of the 2-respect search: the same
//!     phase cascade and operation streams, executed by the §3 batch
//!     engine as the solver runs it (`two_respect_mincut_reusing`, one
//!     scratch reused across every instance) vs. one-at-a-time on the
//!     sequential `Δ`-tree. This isolates the paper's central
//!     contribution (batching) from the rest of the pipeline.
//! (b) **Decomposition strategy** under the Minimum Path batch engine
//!     (`run_tree_batch_with` on one reused scratch): bough (paper) vs.
//!     heavy-light (classic alternative) on the same op stream — both
//!     satisfy the `≤ log₂ n` crossing bound, so the engine should perform
//!     comparably; this checks nothing in the engine secretly depends on
//!     bough shape.
//!
//! Each timed batch engine first runs untimed, which grows its scratch;
//! its answers are checked against the sequential `Δ`-tree's (E9a's timed
//! per-op column, and an untimed `Δ`-tree run in E9b).

use pmc_bench::*;
use pmc_core::{two_respect_mincut_reusing, two_respect_mincut_sequential};
use pmc_graph::gen;
use pmc_minpath::{
    decompose::{Decomposition, Strategy},
    run_tree_batch_with, TreeBatchScratch,
};

fn main() {
    println!("# E9a: 2-respect execution mode — batch engine vs per-op sequential (ms)\n");
    header(&["n", "m", "batch", "per-op seq", "speedup"]);
    let mut ws = TreeBatchScratch::default();
    for &n in &[512usize, 1024, 2048, 4096] {
        let g = table1_graph(n, 4, 17 + n as u64);
        let tree = arbitrary_spanning_tree(&g, 3);
        let ours = two_respect_mincut_reusing(&g, &tree, &mut ws);
        let (t_batch, v1) = time_once(|| two_respect_mincut_reusing(&g, &tree, &mut ws).value);
        let (t_seq, want) = time_once(|| two_respect_mincut_sequential(&g, &tree));
        assert_eq!(
            (ours.value, &ours.side, ours.kind),
            (want.value, &want.side, want.kind),
            "the batch engine and the Δ-tree disagree (n={n})"
        );
        assert_eq!(v1, want.value);
        row(&[
            n.to_string(),
            g.m().to_string(),
            ms(t_batch),
            ms(t_seq),
            format!("{:.2}x", t_seq.as_secs_f64() / t_batch.as_secs_f64()),
        ]);
    }

    println!("\n# E9b: Minimum Path decomposition strategy under the batch engine (ms)\n");
    header(&["n", "k", "bough", "heavy-light"]);
    for &n in &[1 << 14, 1 << 16] {
        let tree = gen::random_tree(n, 5);
        let init: Vec<i64> = (0..n as i64).map(|i| (i * 17) % 1000).collect();
        let k = 4 * n;
        let ops = random_tree_ops(n, k, 29);
        let d_bough = Decomposition::new(&tree, Strategy::BoughWalk);
        let d_hl = Decomposition::new(&tree, Strategy::HeavyLight);
        // Both must return the Δ-tree's answers.
        let want = delta_tree_answers(&tree, &d_bough, &init, &ops);
        for d in [&d_bough, &d_hl] {
            assert_eq!(run_tree_batch_with(&tree, d, &init, &ops, &mut ws), want);
        }
        let mut time_with = |d: &Decomposition| {
            time_best(3, || {
                std::hint::black_box(run_tree_batch_with(&tree, d, &init, &ops, &mut ws));
            })
        };
        let t_bough = time_with(&d_bough);
        let t_hl = time_with(&d_hl);
        row(&[n.to_string(), k.to_string(), ms(t_bough), ms(t_hl)]);
    }
    println!("\nShape check: both E9a columns run on one thread, so E9a compares work");
    println!("(batching buys depth); E9b columns are comparable (the engine is");
    println!("decomposition-agnostic).");
}
