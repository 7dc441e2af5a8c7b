//! Direct use of the paper's §3 data structure: batched `MinPath` /
//! `AddPath` on a tree, outside the minimum-cut pipeline.
//!
//! Scenario: a file-system quota tree. Every directory has a remaining
//! quota; installing a file of size `s` under directory `v` consumes `s`
//! on the whole `v → root` path (`AddPath(v, -s)`), and an installation is
//! feasible iff the minimum remaining quota on that path stays nonnegative
//! (`MinPath(v)`). A nightly job replays the day's ledger as one batch.
//!
//! ```sh
//! cargo run --release --example minpath_batch
//! ```

use parallel_mincut::graph::gen;
use parallel_mincut::minpath::{
    decompose::{Decomposition, Strategy},
    run_tree_batch_with, TreeBatchScratch, TreeOp,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 1 << 16;
    let tree = gen::random_tree(n, 99);
    let decomp = Decomposition::new(&tree, Strategy::BoughWalk);
    println!(
        "quota tree: {} directories, decomposed into {} paths over {} phases",
        n,
        decomp.npaths(),
        decomp.nphases()
    );

    // Initial quotas: generous near the root, tighter deeper down.
    let init: Vec<i64> = (0..n as u32)
        .map(|v| 1_000_000 - 900 * tree.depth(v) as i64)
        .collect();

    // A day's ledger: interleaved installs and feasibility probes.
    let mut rng = SmallRng::seed_from_u64(1);
    let k = 200_000;
    let ops: Vec<TreeOp> = (0..k)
        .map(|_| {
            let v = rng.gen_range(0..n) as u32;
            if rng.gen_bool(0.7) {
                TreeOp::Add {
                    v,
                    x: -rng.gen_range(1..50i64),
                }
            } else {
                TreeOp::Min { v }
            }
        })
        .collect();
    let nqueries = ops
        .iter()
        .filter(|o| matches!(o, TreeOp::Min { .. }))
        .count();

    let mut ws = TreeBatchScratch::default(); // reusable across batches
    let start = std::time::Instant::now();
    let results = run_tree_batch_with(&tree, &decomp, &init, &ops, &mut ws);
    let elapsed = start.elapsed();

    assert_eq!(results.len(), nqueries);
    let tightest = results.iter().min().unwrap();
    let violated = results.iter().filter(|&&r| r < 0).count();
    println!(
        "replayed {} ops ({} probes) in {:.1} ms  ({:.2} µs/op)",
        k,
        nqueries,
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / k as f64
    );
    println!("tightest remaining quota seen by any probe: {tightest}");
    println!("probes that saw an exhausted path: {violated}");
}
