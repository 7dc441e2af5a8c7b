//! Experiment E5 — Lemma 13: constrained (2-respecting) minimum cut,
//! ours `O(m log³ n)` vs the quadratic baseline `Θ(n²)`.
//!
//! Sweeps `n` at several densities `m/n`; for each instance both engines
//! process the *same* spanning tree and must return the same value. `ours`
//! times the search as the solver runs it (`two_respect_mincut_reusing`,
//! one batch scratch reused across every instance).
//! Expected: the baseline's column grows ~×4 per doubling of `n`
//! regardless of density; ours tracks `m` (×2 per doubling at fixed
//! density) — so the sparser the graph, the earlier ours wins.

use pmc_baseline::quadratic_two_respect;
use pmc_bench::*;
use pmc_core::two_respect_mincut_reusing;
use pmc_minpath::TreeBatchScratch;

fn main() {
    println!("# E5: 2-respecting min cut, ours vs quadratic baseline (ms)\n");
    header(&["n", "m/n", "m", "ours", "quadratic", "ratio q/ours"]);
    let mut ws = TreeBatchScratch::default();
    for &density in &[2usize, 4, 8] {
        for &n in &[256usize, 512, 1024, 2048, 4096] {
            let g = table1_graph(n, density, 99 + n as u64);
            let tree = arbitrary_spanning_tree(&g, 7);
            // The untimed first run grows the scratch.
            let ours = two_respect_mincut_reusing(&g, &tree, &mut ws);
            assert_eq!(
                g.cut_value(&ours.side),
                ours.value as u64,
                "witness (n={n})"
            );
            let (t_ours, v1) =
                time_once(|| two_respect_mincut_reusing(&g, &tree, &mut ws).value as u64);
            let (t_quad, v2) = time_once(|| quadratic_two_respect(&g, &tree).unwrap().value);
            assert_eq!(v1, v2, "engines disagree (n={n}, density={density})");
            row(&[
                n.to_string(),
                density.to_string(),
                g.m().to_string(),
                ms(t_ours),
                ms(t_quad),
                format!("{:.2}x", t_quad.as_secs_f64() / t_ours.as_secs_f64()),
            ]);
        }
        println!();
    }
    println!("Shape check: 'quadratic' grows ~4x per doubling of n at any density;");
    println!("'ours' grows ~2x (linear in m). The ratio column should rise with n.");
}
