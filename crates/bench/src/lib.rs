//! Shared harness utilities for the paper-reproduction experiments.
//!
//! Every experiment in EXPERIMENTS.md is a binary in `src/bin` that prints
//! a paper-style table to stdout, built from the workload helpers here.
//! The `*_report` bins also commit a `BENCH_*.json` through [`report`].

pub mod histogram;
pub mod loadgen;
pub mod report;
pub mod workload;

use std::time::{Duration, Instant};

use pmc_graph::{gen, Graph, RootedTree};
use pmc_minpath::{Decomposition, SeqMinPath, TreeOp};
use pmc_packing::{kruskal_mst, rooted_tree_from_edges};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use pmc_core::{
    solver_by_name, solvers, MinCutResult, MinCutSolver, SolverConfig, SolverWorkspace,
};

/// Times one invocation of `f`.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Looks up a solver by registry name, panicking on unknown names — the
/// experiment harness variant of [`solver_by_name`].
pub fn solver(name: &str) -> Box<dyn MinCutSolver> {
    solver_by_name(name).expect("unknown solver name in experiment harness")
}

/// Times one `solve` call of `solver` on `g`. All end-to-end experiment
/// timings go through this helper so every algorithm is measured through
/// the same dispatch seam.
pub fn time_solver(
    solver: &dyn MinCutSolver,
    g: &Graph,
    cfg: &SolverConfig,
) -> (Duration, MinCutResult) {
    time_once(|| {
        solver
            .solve(g, cfg)
            .unwrap_or_else(|e| panic!("solver {} failed: {e}", solver.name()))
    })
}

/// Times `f` `reps` times and returns the minimum (least-noise estimator
/// for compute-bound kernels).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    (0..reps.max(1)).map(|_| time_once(&mut f).0).min().unwrap()
}

/// The standard Table-1 workload family: sparse connected multigraphs with
/// `m = density·n` and weights in `1..=8`.
pub fn table1_graph(n: usize, density: usize, seed: u64) -> Graph {
    gen::gnm_connected(n, density * n, 8, seed)
}

/// A deterministic arbitrary spanning tree of `g` (random edge costs).
pub fn arbitrary_spanning_tree(g: &Graph, seed: u64) -> RootedTree {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cost: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..1 << 20)).collect();
    let mst = kruskal_mst(g, &cost);
    rooted_tree_from_edges(g, &mst, 0)
}

/// Random mixed MinPath/AddPath tree-op batch (E3 workload).
pub fn random_tree_ops(n: usize, k: usize, seed: u64) -> Vec<TreeOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let v = rng.gen_range(0..n) as u32;
            if rng.gen_bool(0.5) {
                TreeOp::Add {
                    v,
                    x: rng.gen_range(-1000..1000),
                }
            } else {
                TreeOp::Min { v }
            }
        })
        .collect()
}

/// The answers to a tree-op batch from the sequential Δ-tree, one op at a
/// time: the oracle the batch-engine experiments check against, untimed.
pub fn delta_tree_answers(
    tree: &RootedTree,
    decomp: &Decomposition,
    init: &[i64],
    ops: &[TreeOp],
) -> Vec<i64> {
    let mut seq = SeqMinPath::new(tree, decomp, init);
    let mut out = Vec::new();
    for op in ops {
        match *op {
            TreeOp::Add { v, x } => seq.add_path(v, x),
            TreeOp::Min { v } => out.push(seq.min_path(v).0),
        }
    }
    out
}

/// Formats a duration in milliseconds with three significant digits.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header (plus separator line).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_smoke() {
        let g = table1_graph(64, 4, 1);
        assert_eq!(g.m(), 256);
        let t = arbitrary_spanning_tree(&g, 2);
        assert_eq!(t.n(), 64);
        let ops = random_tree_ops(64, 100, 3);
        assert_eq!(ops.len(), 100);
        let d = time_best(2, || (0..1000u64).sum::<u64>());
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0);
    }
}
