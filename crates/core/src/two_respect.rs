//! The constrained minimum-cut search (paper §4, Lemma 13): the smallest
//! cut of `G` crossing at most two edges of a given spanning tree `T`.
//!
//! Pipeline: build the phase cascade, generate the incomparable and
//! ancestor batches for every phase, execute every batch with the §3 batch
//! engine, back to back through one reused scratch, and combine:
//!
//! * 1-respecting candidates come directly from Lemma 11 on phase 0;
//! * incomparable candidates pair the *running minimum* of query results
//!   along a bough with `cut(y↓)` of the current scan vertex — the running
//!   minimum is what makes the deepest-edge argument work (the best
//!   response for the pair `(v, t)` may surface at an earlier scan step,
//!   see DESIGN.md §6);
//! * ancestor candidates are `result − cut(y↓) − 4ρ↓(y)` per query.
//!
//! The best candidate's witness partition is reconstructed by replaying the
//! winning phase's batch prefix on the sequential argmin-tracking structure
//! and mapping the discovered pair `(y, t)` back through the contraction
//! cascade.

use pmc_graph::{best_one_respect, one_respect_cuts, EulerTour, Graph, RootedTree};
use pmc_minpath::{run_tree_batch_with, SeqMinPath, TreeBatchScratch, TreeOp, INF};

use crate::gen_ops::{gen_ancestor, gen_incomparable, GenBatch};
use crate::phases::{build_phases_from, Phase};

/// Which structural case produced a cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RespectKind {
    /// The cut crosses one tree edge: side = `v↓`.
    One,
    /// Two tree edges, incomparable endpoints: side = `v↓ ∪ t↓`.
    TwoIncomparable,
    /// Two tree edges, nested: side = `t↓ ∖ v↓`.
    TwoAncestor,
}

/// Outcome of the 2-respecting search for one spanning tree.
#[derive(Clone, Debug)]
pub struct TwoRespectCut {
    /// Cut value.
    pub value: i64,
    /// One side of the bipartition, in *original* vertex ids.
    pub side: Vec<bool>,
    /// Which case produced it.
    pub kind: RespectKind,
    /// Number of bough phases in the contraction cascade.
    pub phases: u32,
    /// Total Minimum Path operations generated across all phase batches
    /// (both cases) — the quantity Lemma 12 bounds by `O(m log n)`.
    pub batch_ops: u64,
}

#[derive(Clone, Copy, Debug)]
enum Winner {
    One {
        v: u32, // phase-0 vertex
    },
    Two {
        phase: usize,
        inc: bool,
        pair_y: u32,
        meta_idx: usize,
    },
}

/// Finds the smallest cut of `g` crossing at most two edges of `tree`
/// (Lemma 13). Deterministic. Panics if `g.n() < 2`.
pub fn two_respect_mincut(g: &Graph, tree: &RootedTree) -> TwoRespectCut {
    two_respect_mincut_reusing(g, tree, &mut TreeBatchScratch::default())
}

/// [`two_respect_mincut`] with the batch-engine working state drawn from a
/// reusable [`TreeBatchScratch`]. Identical results — the path behind
/// `MinCutSolver::solve_with` / `solve_batch`.
pub fn two_respect_mincut_reusing(
    g: &Graph,
    tree: &RootedTree,
    ws: &mut TreeBatchScratch,
) -> TwoRespectCut {
    two_respect_impl(g, tree, |p, b| {
        run_tree_batch_with(&p.tree, &p.decomp, &b.init, &b.ops, ws)
    })
}

/// [`two_respect_mincut`] with every batch executed one operation at a
/// time on the sequential `Δ`-tree: Karger's sequential `O(m log³ n)`
/// execution model (the "Lowest Work" row of Table 1). Identical results;
/// it is the batch engine's ablation partner (E9a) and a test oracle.
pub fn two_respect_mincut_sequential(g: &Graph, tree: &RootedTree) -> TwoRespectCut {
    two_respect_impl(g, tree, run_batch_sequential)
}

/// The search, with `run` executing one non-empty phase batch and
/// returning its `MinPath` results in op order.
fn two_respect_impl(
    g: &Graph,
    tree: &RootedTree,
    mut run: impl FnMut(&Phase, &GenBatch) -> Vec<i64>,
) -> TwoRespectCut {
    assert!(g.n() >= 2, "need at least two vertices");
    // Phase 0's aggregates give every 1-respecting candidate (phase 0
    // covers every original tree edge).
    let cuts0 = one_respect_cuts(g, tree);
    let one = best_one_respect(&cuts0, tree);
    let phases = build_phases_from(g, tree, cuts0);

    // Generate both batches for every phase.
    let batches: Vec<(GenBatch, GenBatch)> = phases
        .iter()
        .map(|p| (gen_incomparable(p), gen_ancestor(p)))
        .collect();

    // Execute every non-empty batch, phase by phase.
    let results: Vec<(Vec<i64>, Vec<i64>)> = phases
        .iter()
        .zip(&batches)
        .map(|(p, (inc, anc))| {
            let mut exec = |b: &GenBatch| {
                if b.ops.is_empty() {
                    Vec::new()
                } else {
                    run(p, b)
                }
            };
            let a = exec(inc);
            (a, exec(anc))
        })
        .collect();

    // --- Combine -------------------------------------------------------------
    let mut best_val = i64::MAX;
    let mut winner = Winner::One { v: u32::MAX };

    if let Some((val, v)) = one {
        best_val = val;
        winner = Winner::One { v };
    }

    for (pi, ((inc, anc), (inc_res, anc_res))) in batches.iter().zip(results.iter()).enumerate() {
        let phase = &phases[pi];
        let root = phase.tree.root();
        // Incomparable: running minimum of results within each bough,
        // paired with cut1 of the current scan vertex.
        debug_assert_eq!(inc.metas.len(), inc_res.len());
        let mut m = 0usize;
        while m < inc.metas.len() {
            let bough = inc.metas[m].bough;
            let mut run_min = i64::MAX;
            let mut run_min_meta = m;
            while m < inc.metas.len() && inc.metas[m].bough == bough {
                let meta = &inc.metas[m];
                if inc_res[m] < run_min {
                    run_min = inc_res[m];
                    run_min_meta = m;
                }
                if meta.y != root && run_min < INF / 2 {
                    let cand = run_min + phase.cuts.cut1[meta.y as usize];
                    if cand < best_val {
                        best_val = cand;
                        winner = Winner::Two {
                            phase: pi,
                            inc: true,
                            pair_y: meta.y,
                            meta_idx: run_min_meta,
                        };
                    }
                }
                m += 1;
            }
        }
        // Ancestor: per-query candidates.
        debug_assert_eq!(anc.metas.len(), anc_res.len());
        for (mi, meta) in anc.metas.iter().enumerate() {
            if anc_res[mi] >= INF / 2 {
                continue;
            }
            let cand = anc_res[mi]
                - phase.cuts.cut1[meta.y as usize]
                - 4 * phase.cuts.rho[meta.y as usize];
            if cand < best_val {
                best_val = cand;
                winner = Winner::Two {
                    phase: pi,
                    inc: false,
                    pair_y: meta.y,
                    meta_idx: mi,
                };
            }
        }
    }

    // --- Witness -------------------------------------------------------------
    let side = match winner {
        Winner::One { v } => {
            assert_ne!(v, u32::MAX, "no candidate found");
            subtree_side(tree, v)
        }
        Winner::Two {
            phase: pi,
            inc,
            pair_y,
            meta_idx,
        } => {
            let phase = &phases[pi];
            let batch = if inc { &batches[pi].0 } else { &batches[pi].1 };
            let meta = batch.metas[meta_idx];
            let t = replay_argmin(phase, batch, meta.op_index, meta.target);
            let euler = EulerTour::new(&phase.tree);
            let side_local = |z: u32| -> bool {
                if inc {
                    euler.is_ancestor(pair_y, z) || euler.is_ancestor(t, z)
                } else {
                    euler.is_ancestor(t, z) && !euler.is_ancestor(pair_y, z)
                }
            };
            (0..g.n())
                .map(|orig| side_local(phase.comp[orig]))
                .collect()
        }
    };

    let kind = match winner {
        Winner::One { .. } => RespectKind::One,
        Winner::Two { inc: true, .. } => RespectKind::TwoIncomparable,
        Winner::Two { inc: false, .. } => RespectKind::TwoAncestor,
    };
    let batch_ops = batches
        .iter()
        .map(|(i, a)| (i.ops.len() + a.ops.len()) as u64)
        .sum();
    TwoRespectCut {
        value: best_val,
        side,
        kind,
        phases: phases.len() as u32,
        batch_ops,
    }
}

/// The side `v↓` of the 1-respecting cut at tree vertex `v`.
fn subtree_side(tree: &RootedTree, v: u32) -> Vec<bool> {
    let euler = EulerTour::new(tree);
    (0..tree.n() as u32)
        .map(|x| euler.is_ancestor(v, x))
        .collect()
}

/// Executes a whole batch one operation at a time on the sequential
/// structure ([`two_respect_mincut_sequential`]).
fn run_batch_sequential(phase: &Phase, batch: &GenBatch) -> Vec<i64> {
    let mut seq = SeqMinPath::new(&phase.tree, &phase.decomp, &batch.init);
    let mut out = Vec::with_capacity(batch.metas.len());
    for op in &batch.ops {
        match *op {
            TreeOp::Add { v, x } => seq.add_path(v, x),
            TreeOp::Min { v } => out.push(seq.min_path(v).0),
        }
    }
    out
}

/// Replays a batch prefix sequentially (argmin-tracking structure) and
/// returns the argmin vertex of the query at `op_index`.
fn replay_argmin(phase: &Phase, batch: &GenBatch, op_index: u32, target: u32) -> u32 {
    let mut seq = SeqMinPath::new(&phase.tree, &phase.decomp, &batch.init);
    for op in &batch.ops[..op_index as usize] {
        if let TreeOp::Add { v, x } = op {
            seq.add_path(*v, *x);
        }
    }
    let (_, arg) = seq.min_path(target);
    arg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::build_phases;
    use pmc_baseline::{quadratic_two_respect, stoer_wagner};
    use pmc_graph::gen;
    use pmc_packing::{kruskal_mst, pack_trees, rooted_tree_from_edges, PackingConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn spanning_tree(g: &Graph, seed: u64) -> RootedTree {
        // A deterministic but arbitrary spanning tree.
        let mut rng = SmallRng::seed_from_u64(seed);
        let cost: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..1000)).collect();
        let mst = kruskal_mst(g, &cost);
        rooted_tree_from_edges(g, &mst, 0)
    }

    #[test]
    fn two_vertices() {
        let g = Graph::from_edges(2, &[(0, 1, 5), (0, 1, 3)]).unwrap();
        let t = spanning_tree(&g, 0);
        let cut = two_respect_mincut(&g, &t);
        assert_eq!(cut.value, 8);
        assert!(g.is_proper_cut(&cut.side));
        assert_eq!(g.cut_value(&cut.side), 8);
    }

    #[test]
    fn sequential_mode_agrees_with_batch_mode() {
        // The Δ-tree answers every query exactly like the batch engine, so
        // the two executions pick the same cut.
        let mut rng = SmallRng::seed_from_u64(53);
        for trial in 0..25 {
            let n = rng.gen_range(2..60);
            let m = rng.gen_range(n - 1..4 * n);
            let g = gen::gnm_connected(n, m, 9, 300 + trial);
            let t = spanning_tree(&g, trial + 5);
            let a = two_respect_mincut(&g, &t);
            let b = two_respect_mincut_sequential(&g, &t);
            assert_eq!(a.value, b.value, "trial {trial}");
            assert_eq!(a.side, b.side, "trial {trial}");
            assert_eq!(a.kind, b.kind, "trial {trial}");
            assert_eq!(g.cut_value(&b.side), b.value as u64);
        }
    }

    #[test]
    fn amortized_mode_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(54);
        let mut ws = TreeBatchScratch::default();
        for trial in 0..25 {
            let n = rng.gen_range(2..60);
            let m = rng.gen_range(n - 1..4 * n);
            let g = gen::gnm_connected(n, m, 9, 700 + trial);
            let t = spanning_tree(&g, trial + 9);
            let a = two_respect_mincut(&g, &t);
            let b = two_respect_mincut_reusing(&g, &t, &mut ws);
            assert_eq!(a.value, b.value, "trial {trial}");
            assert_eq!(a.side, b.side, "trial {trial}");
            assert_eq!(a.kind, b.kind, "trial {trial}");
            assert_eq!(a.batch_ops, b.batch_ops, "trial {trial}");
        }
    }

    #[test]
    fn flat_sweep_matches_reference_on_solver_batches() {
        // The solver's own op shape, including the ±INF guards: every
        // phase's generated batches of every packed tree, through one
        // reused scratch, against the Δ-tree one op at a time. Inputs: a
        // community ring, and a sparse graph with a weight-1 leaf on its
        // certificate (as the solver packs it).
        let (ring, _) = gen::community_ring(4, 12, 4, 3);
        let sparse = (0u64..)
            .map(|k| gen::gnm_connected(120, 480, 8, 40 + k))
            .find(|g| g.min_weighted_degree() == 1)
            .expect("some draw has a weight-1 leaf");
        let cert = pmc_graph::mincut_certificate(&sparse).expect("the certificate applies");
        let mut ws = TreeBatchScratch::default();
        for g in [&ring, &cert.graph] {
            let packing = pack_trees(g, &PackingConfig::default());
            for te in packing.trees.iter() {
                let tree = rooted_tree_from_edges(g, te, 0);
                for phase in build_phases(g, &tree) {
                    for b in [gen_incomparable(&phase), gen_ancestor(&phase)] {
                        if b.ops.is_empty() {
                            continue; // the solver runs only non-empty batches
                        }
                        let (t, d) = (&phase.tree, &phase.decomp);
                        assert_eq!(
                            run_tree_batch_with(t, d, &b.init, &b.ops, &mut ws),
                            run_batch_sequential(&phase, &b)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cycle_graph_value_two() {
        let g = gen::cycle_with_chords(16, 0, 0);
        let t = spanning_tree(&g, 1);
        let cut = two_respect_mincut(&g, &t);
        assert_eq!(cut.value, 2);
        assert_eq!(g.cut_value(&cut.side), 2);
    }

    #[test]
    fn matches_quadratic_baseline_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(51);
        for trial in 0..60 {
            let n = rng.gen_range(2..50);
            let m = rng.gen_range(n - 1..5 * n);
            let g = gen::gnm_connected(n, m, 9, trial);
            let t = spanning_tree(&g, trial * 7 + 1);
            let ours = two_respect_mincut(&g, &t);
            let base = quadratic_two_respect(&g, &t).unwrap();
            assert_eq!(ours.value as u64, base.value, "trial {trial}");
            assert_eq!(
                g.cut_value(&ours.side),
                ours.value as u64,
                "witness mismatch, trial {trial}"
            );
            assert!(g.is_proper_cut(&ours.side));
        }
    }

    #[test]
    fn with_packing_equals_exact_min_cut() {
        let mut rng = SmallRng::seed_from_u64(52);
        for trial in 0..15 {
            let n = rng.gen_range(6..40);
            let m = rng.gen_range(n..4 * n);
            let g = gen::gnm_connected(n, m, 8, 100 + trial);
            let want = stoer_wagner(&g).unwrap().value;
            let packing = pack_trees(&g, &PackingConfig::default());
            let got = packing
                .trees
                .iter()
                .map(|te| {
                    let t = rooted_tree_from_edges(&g, te, 0);
                    two_respect_mincut(&g, &t).value as u64
                })
                .min()
                .unwrap();
            assert_eq!(got, want, "trial {trial}");
        }
        let _ = rng;
    }

    #[test]
    fn adversarial_tree_shapes() {
        // Star-ish graph whose spanning tree is the star: forces the
        // incomparable case heavily.
        let mut edges = vec![];
        for v in 1..12u32 {
            edges.push((0, v, 10));
        }
        edges.push((3, 4, 1)); // light chord: min cut splits {3,4}? no —
                               // min cut isolates a leaf vertex (value 10),
                               // or {3,4} costs 20+1... isolating 5 costs 10.
        let g = Graph::from_edges(12, &edges).unwrap();
        let t = spanning_tree(&g, 3);
        let cut = two_respect_mincut(&g, &t);
        let want = stoer_wagner(&g).unwrap().value;
        // The star tree 2-respects every 2-vertex cut here; must be exact.
        assert_eq!(cut.value as u64, want);
    }

    #[test]
    fn path_graph_ancestor_case() {
        // On a path graph with the path tree, interior cuts are ancestor
        // cuts (contiguous segments). Weights force a segment cut.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1, 10),
                (1, 2, 1),
                (2, 3, 10),
                (3, 4, 1),
                (4, 5, 10),
                (0, 5, 1), // wrap edge so segment {2,3} costs 1+1+... wait:
                           // cut {2,3}: edges (1,2)+(3,4) = 2. cut {1..4}?
            ],
        )
        .unwrap();
        let t = rooted_tree_from_edges(&g, &[0, 1, 2, 3, 4], 0);
        let cut = two_respect_mincut(&g, &t);
        let want = stoer_wagner(&g).unwrap().value;
        assert_eq!(cut.value as u64, want);
        assert_eq!(g.cut_value(&cut.side), want);
    }

    use pmc_graph::Graph;
}
