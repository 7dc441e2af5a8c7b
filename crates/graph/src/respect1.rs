//! 1-respecting cut values (paper Lemma 11).
//!
//! For every vertex `v` of a rooted spanning tree `T` of `G`, the value of
//! the cut `v↓` (descendants of `v` on one side) is
//!
//! ```text
//! cut(v↓) = Σ_{u ∈ v↓} deg_w(u) − 2 · Σ_{e : lca(e) ∈ v↓} w(e)
//! ```
//!
//! because an edge with both endpoints in `v↓` (⟺ its LCA is in `v↓`) is
//! counted twice by the degree sum and crosses nothing. Both terms are
//! subtree sums over `T`, computed with Euler-tour prefix sums after a
//! batched LCA pass — `O(m + n log n)` work, polylog depth.
//!
//! The same pass also yields `ρ↓(v)` — the total weight of edges with both
//! endpoints in `v↓` — which Appendix A's ancestor case needs.
//!
//! The module lives beside [`EulerTour`] and [`LcaIndex`] so that both the
//! tree packing (which certifies its own answer with the lightest
//! 1-respecting cut of a packed tree) and the per-tree 2-respect search can
//! call it.

use crate::{EulerTour, Graph, LcaIndex, RootedTree};

/// Per-vertex subtree aggregates of a graph against a spanning tree.
#[derive(Clone, Debug)]
pub struct SubtreeCuts {
    /// `cut1[v]` = value of the cut `v↓` (for the root: 0, not a proper cut).
    pub cut1: Vec<i64>,
    /// `rho[v]` = total weight of edges with both endpoints in `v↓`.
    pub rho: Vec<i64>,
}

/// Computes [`SubtreeCuts`] for `g` against `tree`.
pub fn one_respect_cuts(g: &Graph, tree: &RootedTree) -> SubtreeCuts {
    let n = g.n();
    assert_eq!(n, tree.n());
    let euler = EulerTour::new(tree);

    // Weighted degrees.
    let degs: Vec<i64> = g.weighted_degrees().iter().map(|&d| d as i64).collect();
    let degsum = euler.subtree_sums(&degs);

    // Charge every edge to its LCA, then subtree-sum the charges.
    let mut lca_weight = vec![0i64; n];
    if g.m() > 0 {
        let idx = LcaIndex::new(tree);
        let pairs: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let lcas = idx.lca_batch(&pairs);
        for (e, &l) in g.edges().iter().zip(&lcas) {
            lca_weight[l as usize] += e.w as i64;
        }
    }
    let rho = euler.subtree_sums(&lca_weight);

    let cut1 = degsum.iter().zip(&rho).map(|(&d, &r)| d - 2 * r).collect();
    SubtreeCuts { cut1, rho }
}

/// The best 1-respecting cut: `(value, v)` minimizing `cut(v↓)` over
/// `v ≠ root`. `None` when the tree is a single vertex.
pub fn best_one_respect(cuts: &SubtreeCuts, tree: &RootedTree) -> Option<(i64, u32)> {
    (0..tree.n() as u32)
        .filter(|&v| v != tree.root())
        .map(|v| (cuts.cut1[v as usize], v))
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, UnionFind};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The spanning tree Kruskal picks from `g`'s edges at equal costs
    /// (in edge-id order), rooted at 0.
    fn spanning_tree(g: &Graph) -> RootedTree {
        let mut uf = UnionFind::new(g.n());
        let pairs: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .filter(|e| uf.union(e.u, e.v))
            .map(|e| (e.u, e.v))
            .collect();
        RootedTree::from_undirected_edges(g.n(), &pairs, 0)
    }

    fn naive_cut1(g: &Graph, tree: &RootedTree, v: u32) -> i64 {
        let desc = tree.descendants(v);
        let mut side = vec![false; g.n()];
        for &d in &desc {
            side[d as usize] = true;
        }
        g.cut_value(&side) as i64
    }

    fn naive_rho(g: &Graph, tree: &RootedTree, v: u32) -> i64 {
        let desc: std::collections::HashSet<u32> = tree.descendants(v).into_iter().collect();
        g.edges()
            .iter()
            .filter(|e| desc.contains(&e.u) && desc.contains(&e.v))
            .map(|e| e.w as i64)
            .sum()
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(41);
        for trial in 0..20 {
            let n = rng.gen_range(2..60);
            let m = rng.gen_range(n - 1..4 * n);
            let g = gen::gnm_connected(n, m, 9, trial);
            let tree = spanning_tree(&g);
            let cuts = one_respect_cuts(&g, &tree);
            for v in 0..n as u32 {
                assert_eq!(cuts.cut1[v as usize], naive_cut1(&g, &tree, v), "cut1({v})");
                assert_eq!(cuts.rho[v as usize], naive_rho(&g, &tree, v), "rho({v})");
            }
        }
    }

    #[test]
    fn root_cut_is_zero() {
        let g = gen::gnm_connected(30, 80, 5, 2);
        let tree = spanning_tree(&g);
        let cuts = one_respect_cuts(&g, &tree);
        assert_eq!(cuts.cut1[tree.root() as usize], 0);
        assert_eq!(cuts.rho[tree.root() as usize], g.total_weight() as i64);
    }

    #[test]
    fn best_one_respect_on_path_graph() {
        // Path graph: 0-1-2-3 with weights 5, 1, 7; tree = the path itself.
        let g = Graph::from_edges(4, &[(0, 1, 5), (1, 2, 1), (2, 3, 7)]).unwrap();
        let tree = spanning_tree(&g);
        let cuts = one_respect_cuts(&g, &tree);
        let (val, v) = best_one_respect(&cuts, &tree).unwrap();
        assert_eq!(val, 1);
        assert_eq!(v, 2); // cutting edge (1,2): v↓ = {2,3}
    }
}
