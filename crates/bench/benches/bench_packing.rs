//! Criterion companion to E6 (Lemma 1): packing cost vs graph size, and
//! one reference Kruskal MST on the same graph for scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmc_bench::table1_graph;
use pmc_packing::{kruskal_mst, pack_trees, PackingConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing");
    group.sample_size(10);
    for &n in &[512usize, 2048] {
        let g = table1_graph(n, 4, 5 + n as u64);
        group.bench_with_input(BenchmarkId::new("pack_trees", n), &n, |b, _| {
            b.iter(|| pack_trees(&g, &PackingConfig::default()).trees.len())
        });
        let cost: Vec<u64> = (0..g.m() as u64).map(|i| (i * 2654435761) % 1000).collect();
        group.bench_with_input(BenchmarkId::new("kruskal", n), &n, |b, _| {
            b.iter(|| kruskal_mst(&g, &cost))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
