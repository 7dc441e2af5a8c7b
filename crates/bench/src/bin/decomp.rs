//! Experiment E4 — Lemmas 7, 8: tree decomposition.
//!
//! Checks the structural guarantee (every root-to-leaf path crosses at most
//! `log₂ n` decomposition paths) on adversarial shapes and times the three
//! strategies: the bough walk the solver runs, Lemma 8's random-mate bough
//! contraction (the low-depth reference) and heavy-light (the ablation).

use pmc_bench::*;
use pmc_graph::{gen, RootedTree};
use pmc_minpath::decompose::{Decomposition, Strategy};

fn crossing_stats(tree: &RootedTree, d: &Decomposition) -> (usize, f64) {
    let leaves = tree.leaves();
    let counts: Vec<usize> = leaves
        .iter()
        .map(|&l| d.paths_on_root_path(tree, l))
        .collect();
    let max = counts.iter().copied().max().unwrap_or(0);
    let avg = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    (max, avg)
}

fn main() {
    println!("# E4: bough decomposition — Lemma 7 invariants and strategy timing\n");
    header(&[
        "shape",
        "n",
        "strategy",
        "paths",
        "phases",
        "max-cross",
        "log2(n)",
        "avg-cross",
        "time_ms",
    ]);
    let shapes: Vec<(&str, RootedTree)> = vec![
        ("random", gen::random_tree(1 << 16, 3)),
        ("path", gen::path_tree(1 << 16)),
        ("star", gen::star_tree(1 << 16)),
        ("caterpillar", gen::caterpillar_tree(1 << 14, 3)),
        ("binary", gen::balanced_binary_tree((1 << 16) - 1)),
        ("broom", gen::broom_tree(1 << 15, 1 << 15)),
    ];
    for (name, tree) in &shapes {
        let n = tree.n();
        let log2n = (usize::BITS - n.leading_zeros()) as usize;
        for strat in [
            Strategy::BoughWalk,
            Strategy::BoughRandomMate,
            Strategy::HeavyLight,
        ] {
            let t = time_best(3, || {
                std::hint::black_box(Decomposition::new(tree, strat));
            });
            let d = Decomposition::new(tree, strat);
            d.validate(tree);
            let (max, avg) = crossing_stats(tree, &d);
            assert!(max <= log2n, "Lemma 7 violated: {max} > log2({n})");
            row(&[
                name.to_string(),
                n.to_string(),
                format!("{strat:?}"),
                d.npaths().to_string(),
                d.nphases().to_string(),
                max.to_string(),
                log2n.to_string(),
                format!("{avg:.2}"),
                ms(t),
            ]);
        }
    }
    println!("\nShape check: max-cross ≤ log2(n) everywhere (Lemma 7).");
}
