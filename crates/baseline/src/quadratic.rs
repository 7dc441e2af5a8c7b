//! Quadratic-work, polylog-depth 2-respecting minimum cut.
//!
//! Stands in for Karger's parallel `Θ(n² log n)` algorithm (the "Best
//! Previous Polylog-Depth" row of Table 1): given a spanning tree, it
//! examines **every** pair of tree edges with dense dynamic programming
//! over all vertex pairs — `Θ(n²)` work, and `O(log n)`-ish depth in the
//! PRAM model, where all three sweeps parallelize over rows (here they run
//! on one thread) — versus the paper's `O(m log² n)` work for the same
//! task.
//!
//! For a rooted spanning tree `T` of `G`, define
//! `D[v][t] = Σ_{a ∈ v↓} Σ_{(a,b) ∈ E, b ∈ t↓} w(a,b)`.
//!
//! * incomparable `v, t`: cut value `= cut(v↓) + cut(t↓) − 2·D[v][t]`
//!   (cut = `v↓ ∪ t↓`);
//! * `t` a proper ancestor of `v`: `D[v][t]` counts `w(v↓, t↓∖v↓)` once and
//!   internal edges of `v↓` twice, and `D[v][v] = 2·ρ(v↓)`, so the cut
//!   `t↓ ∖ v↓` has value `cut(t↓) − cut(v↓) + 2·(D[v][t] − D[v][v])`.

use pmc_graph::{EulerTour, Graph, PmcError, RootedTree};

use crate::Cut;

/// Largest vertex count [`quadratic_two_respect`] will accept (Θ(n²)
/// memory).
pub const QUADRATIC_MAX_N: usize = 1 << 13;

/// Smallest cut of `g` crossing at most two edges of `tree`, by dense DP.
/// Returns the best `(value, side)`; the 1-respecting cuts (single tree
/// edge) are included. Fails with [`PmcError::TooSmall`] for `n < 2` and
/// [`PmcError::Unsupported`] beyond [`QUADRATIC_MAX_N`].
pub fn quadratic_two_respect(g: &Graph, tree: &RootedTree) -> Result<Cut, PmcError> {
    let n = g.n();
    if n < 2 {
        return Err(PmcError::TooSmall);
    }
    if n > QUADRATIC_MAX_N {
        return Err(PmcError::Unsupported {
            algorithm: "quadratic",
            reason: format!("n = {n} exceeds the n <= {QUADRATIC_MAX_N} dense-DP bound"),
        });
    }
    let euler = EulerTour::new(tree);
    let root = tree.root();

    // cut1[v] = value of the cut v↓ = Σ_{a∈v↓} deg_w(a) − 2·(edges inside v↓).
    // Edges inside v↓ are exactly those whose LCA is in v↓; reuse D below
    // instead: cut1[v] = degsum(v↓) − D[v][v].
    // D matrix, built in two row sweeps.
    // Pass 1 (A): A[x][t] = Σ_{(x,b) ∈ E, b ∈ t↓} w — DP over t bottom-up:
    //   A[x][t] = Σ_{c child of t} A[x][c] + w(x, t).
    // Pass 2 (D): D[v][t] = Σ_{c child of v} D[c][t] + A[v][t] — bottom-up
    //   over v, done in place on the matrix rows.
    let mut mat: Vec<i64> = vec![0; n * n];
    // Direct contributions w(x, t) for every edge (both orientations).
    for e in g.edges() {
        mat[e.u as usize * n + e.v as usize] += e.w as i64;
        mat[e.v as usize * n + e.u as usize] += e.w as i64;
    }
    // Pass 1: accumulate child columns into parent columns (over t), row by
    // row.
    let order = tree.bfs_order().to_vec();
    {
        let col_order: Vec<u32> = order.iter().rev().copied().collect();
        mat.chunks_mut(n).for_each(|row| {
            for &t in &col_order {
                let t = t as usize;
                for &c in tree.children(t as u32) {
                    row[t] += row[c as usize];
                }
            }
        });
    }
    // Pass 2: accumulate child rows into parent rows (over v). Rows must be
    // combined bottom-up.
    for &v in order.iter().rev() {
        let v = v as usize;
        // Collect child rows (copied) then add — avoids aliasing.
        for &c in tree.children(v as u32) {
            let c = c as usize;
            let (lo, hi) = if c < v { (c, v) } else { (v, c) };
            let (a, b) = mat.split_at_mut(hi * n);
            let (crow, vrow) = if c < v {
                (&a[lo * n..lo * n + n], &mut b[..n])
            } else {
                let vr = &mut a[lo * n..lo * n + n];
                // c > v: child row in b, parent row in a — flip.
                (&b[..n], vr)
            };
            vrow.iter_mut().zip(crow).for_each(|(x, &y)| *x += y);
        }
    }

    // cut1 via degree subtree sums minus internal edges (D[v][v]).
    let degs: Vec<i64> = g.weighted_degrees().iter().map(|&d| d as i64).collect();
    let degsum = tree.subtree_sums(&degs);
    let cut1: Vec<i64> = (0..n).map(|v| degsum[v] - mat[v * n + v]).collect();

    // Best 1-respecting cut (exclude the root: root↓ = V is not a cut).
    let mut best_val = i64::MAX;
    enum BestKind {
        One(u32),
        Incomparable(u32, u32),
        Ancestor(u32, u32), // (descendant v, ancestor t)
    }
    let mut best_kind = BestKind::One(0);
    for v in 0..n as u32 {
        if v != root && cut1[v as usize] < best_val {
            best_val = cut1[v as usize];
            best_kind = BestKind::One(v);
        }
    }

    // All pairs: per-row minima, then a reduce over the rows.
    let row_best: Vec<(i64, u32, u32, bool)> = (0..n as u32)
        .map(|v| {
            let mut bv = i64::MAX;
            let mut bt = v;
            let mut anc = false;
            if v == root {
                return (bv, v, bt, anc);
            }
            let row = &mat[v as usize * n..(v as usize + 1) * n];
            for t in 0..n as u32 {
                if t == v || t == root {
                    continue;
                }
                if euler.is_ancestor(t, v) {
                    // ancestor case: cut = t↓ ∖ v↓
                    let val = cut1[t as usize] - cut1[v as usize]
                        + 2 * (row[t as usize] - row[v as usize]);
                    if val < bv {
                        bv = val;
                        bt = t;
                        anc = true;
                    }
                } else if !euler.is_ancestor(v, t) && v < t {
                    // incomparable, counted once
                    let val = cut1[v as usize] + cut1[t as usize] - 2 * row[t as usize];
                    if val < bv {
                        bv = val;
                        bt = t;
                        anc = false;
                    }
                }
            }
            (bv, v, bt, anc)
        })
        .collect();
    for (val, v, t, anc) in row_best {
        if val < best_val {
            best_val = val;
            best_kind = if anc {
                BestKind::Ancestor(v, t)
            } else {
                BestKind::Incomparable(v, t)
            };
        }
    }

    // Materialize the winning side.
    let side: Vec<bool> = match best_kind {
        BestKind::One(v) => (0..n as u32).map(|x| euler.is_ancestor(v, x)).collect(),
        BestKind::Incomparable(v, t) => (0..n as u32)
            .map(|x| euler.is_ancestor(v, x) || euler.is_ancestor(t, x))
            .collect(),
        BestKind::Ancestor(v, t) => (0..n as u32)
            .map(|x| euler.is_ancestor(t, x) && !euler.is_ancestor(v, x))
            .collect(),
    };
    Ok(Cut {
        value: best_val as u64,
        side,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stoer_wagner::stoer_wagner;
    use pmc_graph::gen;
    use pmc_packing::{kruskal_mst, pack_trees, rooted_tree_from_edges, PackingConfig};

    fn spanning_tree(g: &Graph) -> RootedTree {
        let cost: Vec<u64> = (0..g.m() as u64).collect();
        let edges = kruskal_mst(g, &cost);
        rooted_tree_from_edges(g, &edges, 0)
    }

    #[test]
    fn two_vertices() {
        let g = Graph::from_edges(2, &[(0, 1, 5)]).unwrap();
        let t = spanning_tree(&g);
        let cut = quadratic_two_respect(&g, &t).unwrap().verified(&g);
        assert_eq!(cut.value, 5);
    }

    #[test]
    fn cycle_finds_value_two() {
        let g = gen::cycle_with_chords(12, 0, 0);
        let t = spanning_tree(&g);
        // A cycle's spanning tree is a path; every cut 2-respects it.
        let cut = quadratic_two_respect(&g, &t).unwrap().verified(&g);
        assert_eq!(cut.value, 2);
    }

    #[test]
    fn best_two_respecting_bounds_min_cut() {
        // The 2-respect value for any tree is an upper bound on... rather,
        // a lower-bounded-by-min-cut quantity: it's a valid cut, so it is
        // ≥ min cut; with a packed tree it equals the min cut w.h.p.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        for trial in 0..15 {
            let n = rng.gen_range(6..40);
            let m = rng.gen_range(n..4 * n);
            let g = gen::gnm_connected(n, m, 8, trial);
            let want = stoer_wagner(&g).unwrap().value;
            let packing = pack_trees(&g, &PackingConfig::default());
            let best = packing
                .trees
                .iter()
                .map(|te| {
                    let t = rooted_tree_from_edges(&g, te, 0);
                    quadratic_two_respect(&g, &t).unwrap().verified(&g).value
                })
                .min()
                .unwrap();
            assert_eq!(best, want, "trial {trial}");
        }
    }

    #[test]
    fn planted_cut_two_respects_its_tree() {
        let (g, value, _) = gen::planted_bisection(10, 12, 25, 3, 6, 17);
        let packing = pack_trees(&g, &PackingConfig::default());
        let best = packing
            .trees
            .iter()
            .map(|te| {
                let t = rooted_tree_from_edges(&g, te, 0);
                quadratic_two_respect(&g, &t).unwrap().verified(&g).value
            })
            .min()
            .unwrap();
        assert_eq!(best, value);
    }

    use pmc_graph::Graph;
}
