//! Criterion companion to E4 (Lemmas 7/8): decomposition strategies on
//! adversarial tree shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmc_graph::gen;
use pmc_minpath::decompose::{Decomposition, Strategy};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposition");
    group.sample_size(10);
    let shapes = [
        ("random", gen::random_tree(1 << 15, 3)),
        ("path", gen::path_tree(1 << 15)),
        ("caterpillar", gen::caterpillar_tree(1 << 13, 3)),
        ("binary", gen::balanced_binary_tree((1 << 15) - 1)),
    ];
    for (name, tree) in &shapes {
        for strat in [
            Strategy::BoughWalk,
            Strategy::BoughRandomMate,
            Strategy::HeavyLight,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{strat:?}"), name),
                name,
                |b, _| b.iter(|| Decomposition::new(tree, strat)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
