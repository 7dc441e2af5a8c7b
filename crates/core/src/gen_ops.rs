//! Batch generation for the 2-respecting search (paper §4.2 + Appendix A).
//!
//! For one phase `(G_i, T_i)` and its boughs, two operation batches are
//! produced:
//!
//! * the **incomparable** batch (§4.1, cut = `v↓ ∪ t↓`): weights start at
//!   `cut(x↓)` (root masked with `+INF`); each bough masks its leaf's
//!   ancestors with `AddPath(leaf, +INF)`, then walks leaf→top adding
//!   `AddPath(x, −2w(e))` for every incident edge `e = (y, x)` and querying
//!   `MinPath(x)` for every neighbor; the walk back down undoes everything.
//! * the **ancestor** batch (Appendix A, cut = `t↓ ∖ v↓`): weights start at
//!   `cut(x↓)`; walking up, each incident edge adds `AddPath(x, +2w(e))`,
//!   the scanned vertex `y` is point-masked (`AddPath(y, +INF)` and
//!   `AddPath(parent(y), −INF)`, excluding the degenerate `t = v`), and a
//!   single `MinPath(y)` is queried. Candidates are later corrected by
//!   `− cut(y↓) − 4ρ↓(y)` (see DESIGN.md §6 for the sign derivation).
//!
//! Each graph edge is touched `O(1)` times per endpoint scan, so a phase's
//! batches have `O(m_i + n_i)` operations (§4.2, Lemma 12).

use pmc_minpath::{TreeOp, INF};

use crate::phases::Phase;

/// Metadata for one `Min` query of a generated batch, in query order.
#[derive(Clone, Copy, Debug)]
pub struct QueryMeta {
    /// Index of the bough being scanned.
    pub bough: u32,
    /// Step within the bough (index of `y` in leaf-first order).
    pub step: u32,
    /// The scanned bough vertex `y` (local id).
    pub y: u32,
    /// The query target (`x` = neighbor in the incomparable batch, `y`
    /// itself in the ancestor batch).
    pub target: u32,
    /// Position of the `Min` op within the batch's op vector
    /// (for sequential witness replay).
    pub op_index: u32,
}

/// A generated batch: initial weights, operations, and per-query metadata.
#[derive(Clone, Debug, Default)]
pub struct GenBatch {
    /// Initial Minimum Path weights per local vertex.
    pub init: Vec<i64>,
    /// The operation sequence (times = indices).
    pub ops: Vec<TreeOp>,
    /// Metadata for each `Min` op, in order.
    pub metas: Vec<QueryMeta>,
}

/// Generates the incomparable-case batch for a phase.
pub fn gen_incomparable(phase: &Phase) -> GenBatch {
    let tree = &phase.tree;
    let g = &phase.graph;
    let n = tree.n();
    if n < 2 {
        return GenBatch::default();
    }
    let mut init: Vec<i64> = phase.cuts.cut1.clone();
    // Mask the root: t = root would claim the improper cut root↓ = V.
    init[tree.root() as usize] = INF;

    let mut ops = Vec::new();
    let mut metas = Vec::new();
    for (b_idx, bough) in phase.boughs.iter().enumerate() {
        let leaf = bough[0];
        // Guard: mask the bough and everything above it — exactly the
        // vertices comparable with every scanned y (handled by the
        // ancestor batch instead).
        ops.push(TreeOp::Add { v: leaf, x: INF });
        for (j, &y) in bough.iter().enumerate() {
            for (x, w, _) in g.neighbors(y) {
                ops.push(TreeOp::Add {
                    v: x,
                    x: -2 * w as i64,
                });
            }
            for (x, _, _) in g.neighbors(y) {
                metas.push(QueryMeta {
                    bough: b_idx as u32,
                    step: j as u32,
                    y,
                    target: x,
                    op_index: ops.len() as u32,
                });
                ops.push(TreeOp::Min { v: x });
            }
        }
        // Walk back down, undoing the updates (top-first, signs reversed).
        for &y in bough.iter().rev() {
            for (x, w, _) in g.neighbors(y) {
                ops.push(TreeOp::Add {
                    v: x,
                    x: 2 * w as i64,
                });
            }
        }
        ops.push(TreeOp::Add { v: leaf, x: -INF });
    }
    GenBatch { init, ops, metas }
}

/// Generates the ancestor-case batch for a phase.
pub fn gen_ancestor(phase: &Phase) -> GenBatch {
    let tree = &phase.tree;
    let g = &phase.graph;
    let n = tree.n();
    if n < 2 {
        return GenBatch::default();
    }
    let root = tree.root();
    let init: Vec<i64> = phase.cuts.cut1.clone();

    let mut ops = Vec::new();
    let mut metas = Vec::new();
    for (b_idx, bough) in phase.boughs.iter().enumerate() {
        for (j, &y) in bough.iter().enumerate() {
            for (x, w, _) in g.neighbors(y) {
                ops.push(TreeOp::Add {
                    v: x,
                    x: 2 * w as i64,
                });
            }
            if y == root {
                // No proper ancestor exists; nothing to query.
                continue;
            }
            // Point-mask y (exclude the degenerate t = v candidate): the
            // +INF on y's root path is cancelled above y by the −INF on
            // its parent, leaving only y bumped.
            ops.push(TreeOp::Add { v: y, x: INF });
            ops.push(TreeOp::Add {
                v: tree.parent(y),
                x: -INF,
            });
            metas.push(QueryMeta {
                bough: b_idx as u32,
                step: j as u32,
                y,
                target: y,
                op_index: ops.len() as u32,
            });
            ops.push(TreeOp::Min { v: y });
        }
        // Undo, top-first.
        for &y in bough.iter().rev() {
            if y != root {
                ops.push(TreeOp::Add {
                    v: tree.parent(y),
                    x: INF,
                });
                ops.push(TreeOp::Add { v: y, x: -INF });
            }
            for (x, w, _) in g.neighbors(y) {
                ops.push(TreeOp::Add {
                    v: x,
                    x: -2 * w as i64,
                });
            }
        }
    }
    GenBatch { init, ops, metas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::build_phases;
    use pmc_graph::gen;
    use pmc_packing::{kruskal_mst, rooted_tree_from_edges};

    fn phase0(n: usize, m: usize, seed: u64) -> Phase {
        let g = gen::gnm_connected(n, m, 5, seed);
        let mst = kruskal_mst(&g, &vec![1; g.m()]);
        let tree = rooted_tree_from_edges(&g, &mst, 0);
        build_phases(&g, &tree).remove(0)
    }

    #[test]
    fn op_counts_are_linear() {
        let p = phase0(100, 300, 1);
        let scanned: usize = p.boughs.iter().map(|b| b.len()).sum();
        let scanned_deg: usize = p
            .boughs
            .iter()
            .flatten()
            .map(|&y| p.graph.incident_edge_ids(y).len())
            .sum();
        let inc = gen_incomparable(&p);
        // 2 guards per bough + per scanned vertex: 2 adds + 1 query per
        // incident edge (and the undo adds).
        assert_eq!(inc.ops.len(), 2 * p.boughs.len() + 3 * scanned_deg);
        assert_eq!(inc.metas.len(), scanned_deg);
        let anc = gen_ancestor(&p);
        let non_root_scanned = scanned; // root only scanned in last phase
        assert_eq!(
            anc.ops.len(),
            2 * scanned_deg + 4 * non_root_scanned + non_root_scanned
        );
    }

    #[test]
    fn updates_cancel_out() {
        // Net effect of each batch's Add ops must be zero on every vertex
        // (each bough undoes itself), so weights return to `init`.
        for seed in 0..5 {
            let p = phase0(60, 180, seed);
            for batch in [gen_incomparable(&p), gen_ancestor(&p)] {
                let mut net = vec![0i64; p.tree.n()];
                for op in &batch.ops {
                    if let TreeOp::Add { v, x } = op {
                        // AddPath affects the whole v→root path; net-zero per
                        // deepest vertex implies net-zero on every path.
                        net[*v as usize] += x;
                    }
                }
                assert!(
                    net.iter().all(|&x| x == 0),
                    "adds do not cancel (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn metas_point_at_min_ops() {
        let p = phase0(40, 120, 7);
        for batch in [gen_incomparable(&p), gen_ancestor(&p)] {
            for meta in &batch.metas {
                match batch.ops[meta.op_index as usize] {
                    TreeOp::Min { v } => assert_eq!(v, meta.target),
                    _ => panic!("meta does not point at a Min op"),
                }
            }
        }
    }

    #[test]
    fn single_vertex_phase_is_empty() {
        let g = pmc_graph::Graph::from_edges(1, &[]).unwrap();
        let tree = pmc_graph::RootedTree::from_parents(0, vec![pmc_graph::tree::NO_PARENT]);
        let phases = build_phases(&g, &tree);
        assert!(gen_incomparable(&phases[0]).ops.is_empty());
        assert!(gen_ancestor(&phases[0]).ops.is_empty());
    }
}
