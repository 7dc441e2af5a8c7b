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
//! subtree sums over `T`, and one pass over a DFS post-order of `T` builds
//! both: a finished vertex adds its sums to its parent's. The same pass
//! charges every graph edge to its LCA with Tarjan's offline algorithm
//! (*Applications of path compression on balanced trees*, JACM 1979): the
//! edges of `v` are read from the graph's own adjacency when `v` finishes,
//! and an edge whose other endpoint `u` finished earlier has its LCA at the
//! representative ancestor of `u`'s set — the deepest unfinished vertex
//! above `u`, or `v` itself. Each edge is charged once, by the endpoint
//! that finishes second. Union by size with path halving makes the pass
//! `O(m α(n) + n)` work; its depth is the DFS's, as for the Euler tour.
//!
//! The same pass also yields `ρ↓(v)` — the total weight of edges with both
//! endpoints in `v↓` — which Appendix A's ancestor case needs.
//!
//! The module lives beside [`RootedTree`] so that both the tree packing
//! (which certifies its own answer with the lightest 1-respecting cut of a
//! packed tree) and the per-tree 2-respect search can call it.

use crate::tree::NO_PARENT;
use crate::{Graph, RootedTree, UnionFind};

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
    // A DFS preorder that takes children last-first; reversed, it is a
    // DFS post-order: every subtree contiguous, children before parents.
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![tree.root()];
    while let Some(v) = stack.pop() {
        order.push(v);
        stack.extend_from_slice(tree.children(v));
    }
    // `cut1[v]` holds `v`'s degree sum until `v` finishes.
    let mut cut1: Vec<i64> = g.weighted_degrees().iter().map(|&d| d as i64).collect();
    let mut rho = vec![0i64; n];
    let mut done = vec![false; n];
    // Tarjan's sets: a finished subtree joins its parent's set, whose
    // representative ancestor `anc[find(·)]` is that parent.
    let mut sets = UnionFind::new(n);
    let mut anc: Vec<u32> = (0..n as u32).collect();
    for &v in order.iter().rev() {
        done[v as usize] = true;
        for (u, w, _) in g.neighbors(v) {
            if done[u as usize] {
                let lca = anc[sets.find(u) as usize];
                rho[lca as usize] += w as i64;
            }
        }
        let p = tree.parent(v);
        if p != NO_PARENT {
            cut1[p as usize] += cut1[v as usize];
            rho[p as usize] += rho[v as usize];
            sets.union(v, p);
            anc[sets.find(p) as usize] = p;
        }
        cut1[v as usize] -= 2 * rho[v as usize];
    }
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

    /// Checks `one_respect_cuts` at the tree vertices `at_vertices`.
    fn assert_matches_naive(g: &Graph, tree: &RootedTree, at_vertices: &[u32], at: &str) {
        let cuts = one_respect_cuts(g, tree);
        for &v in at_vertices {
            assert_eq!(
                cuts.cut1[v as usize],
                naive_cut1(g, tree, v),
                "{at}: cut1({v})"
            );
            assert_eq!(
                cuts.rho[v as usize],
                naive_rho(g, tree, v),
                "{at}: rho({v})"
            );
        }
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(41);
        for trial in 0..20 {
            let n = rng.gen_range(2..60);
            let m = rng.gen_range(n - 1..4 * n);
            let g = gen::gnm_connected(n, m, 9, trial);
            let every: Vec<u32> = (0..n as u32).collect();
            assert_matches_naive(&g, &spanning_tree(&g), &every, &format!("gnm {trial}"));
        }
        // Contracted multigraphs, as the bough-phase cascade builds them:
        // every edge is charged once, parallel copies included.
        for trial in 0..10 {
            let k = rng.gen_range(2..24);
            let n_base = rng.gen_range(k..3 * k + 2);
            let g = gen::contracted_multigraph(n_base, 4 * n_base, k, trial);
            let pairs: std::collections::HashSet<(u32, u32)> = g
                .edges()
                .iter()
                .map(|e| (e.u.min(e.v), e.u.max(e.v)))
                .collect();
            assert!(pairs.len() < g.m(), "trial {trial} has no parallel edge");
            let every: Vec<u32> = (0..k as u32).collect();
            let at = format!("contracted {trial}");
            assert_matches_naive(&g, &spanning_tree(&g), &every, &at);
        }
        // A path-shaped tree on 5,000 vertices, whose DFS is as deep as the
        // tree, under a graph of path edges and random chords; checked at
        // every 97th vertex.
        let n = 5000u32;
        let mut edges: Vec<(u32, u32, u64)> =
            (1..n).map(|v| (v - 1, v, 1 + u64::from(v % 9))).collect();
        while edges.len() < 3 * n as usize {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                edges.push((u, v, rng.gen_range(1..=9)));
            }
        }
        let g = Graph::from_edges(n as usize, &edges).unwrap();
        let sampled: Vec<u32> = (0..n).step_by(97).collect();
        assert_matches_naive(&g, &gen::path_tree(n as usize), &sampled, "path");
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
