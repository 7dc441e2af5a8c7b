//! Incremental re-solve over a pinned tree packing.
//!
//! The paper's pipeline factors a solve into reusable stages —
//! certificate → tree packing (Lemma 1) → per-tree two-respect sweep
//! (Lemma 13). On the graphs a [`SolveState`] packs (the served graph
//! itself; the certificate is skipped) the packing costs about three to
//! five per-tree sweeps (EXPERIMENTS.md E6). A [`SolveState`] therefore
//! *pins* the packed trees of a solved graph and answers edge mutations by
//! re-sweeping only the trees whose cached per-tree winner the mutation
//! can have changed, taking the min against the untouched trees' cached
//! values.
//!
//! The invalidation rule is exact, not heuristic. The per-tree sweep
//! minimizes over the fixed candidate set of one/two-respecting cuts of
//! that tree, breaking ties toward the earliest candidate in scan order
//! (strict `<` comparisons). An edge mutation changes a candidate's value
//! iff the candidate cut separates the edge's endpoints, and a weight
//! *increase* only raises values. So after an increase on edge `(u, v)`:
//!
//! * if the cached winner does **not** separate `u` from `v`, its value is
//!   unchanged and every other candidate's value is unchanged-or-higher —
//!   the winner (value, side, kind) is exactly what a fresh sweep returns;
//! * if it does, another candidate may have taken over: re-sweep.
//!
//! A weight *decrease* (reweight down, edge removal) can promote any
//! candidate that crosses the edge, in every tree, so all trees re-sweep —
//! that still skips the dominant packing stage. Structural invalidation is
//! separate: removing an edge a pinned tree *uses* breaks that tree's
//! spanning property, and there is no cheap local repair, so the state
//! falls back to a full re-pack. The same fallback triggers once the
//! accumulated delta weight exceeds the staleness budget: Karger's
//! analysis only guarantees that cuts within `3/2` of the minimum are
//! 2-respected w.h.p., so unbounded drift would erode the packing's
//! coverage guarantee.
//!
//! Determinism: re-sweeps run through the same
//! [`fanout_units`](pmc_par::fanout_units) fan-out as the one-shot solver,
//! in stable tree order, so resolved answers are bit-identical at every
//! thread count, and bit-identical to re-sweeping *all* pinned trees
//! (property-tested in `tests/dynamic_props.rs`).

use pmc_graph::{connected_components, Graph};
use pmc_packing::{pack_trees_with, PackedTreeList, PackingConfig};

use crate::two_respect::{two_respect_mincut_reusing, RespectKind};
use crate::workspace::{SolverWorkspace, TreeArena};
use crate::{tree_loop_workers, MinCutResult, PmcError};

/// Default staleness budget: re-pack once the accumulated absolute delta
/// weight exceeds this fraction of the total weight at the last pack.
pub const DEFAULT_STALENESS: f64 = 0.25;

/// Cached outcome of one pinned tree's two-respect sweep. Only the fields
/// a fresh sweep reproduces verbatim under the invalidation rule — the
/// sweep's `phases`/`batch_ops` diagnostics vary with the ambient edge
/// list and are deliberately not cached.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TreeCut {
    value: i64,
    side: Vec<bool>,
    kind: RespectKind,
}

/// How one edge mutation changed the graph, as reported by the `Graph`
/// mutation verbs. Endpoints and weights are needed to classify which
/// pinned trees the change invalidates.
#[derive(Clone, Copy, Debug)]
pub enum GraphDelta {
    /// `Graph::reweight_edge(eid, new_w)` returned `old_w`.
    Reweight {
        /// Mutated edge id.
        eid: u32,
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Weight before the mutation.
        old_w: u64,
        /// Weight after the mutation.
        new_w: u64,
    },
    /// `Graph::add_edge(u, v, w)` appended a new edge.
    Add {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Weight of the new edge.
        w: u64,
    },
    /// `Graph::remove_edge(eid)` deleted an edge of weight `w`; the edge
    /// previously holding id `moved_from` (if any) now holds id `eid`.
    Remove {
        /// Deleted edge id.
        eid: u32,
        /// Weight of the deleted edge.
        w: u64,
        /// The old id of the edge `swap_remove` moved into slot `eid`.
        moved_from: Option<u32>,
    },
}

/// What [`SolveState::resolve`] did to answer the pending mutations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveMode {
    /// Re-swept only the invalidated trees (`reswept` of them; 0 when no
    /// pinned tree was invalidated) against the pinned packing.
    Incremental {
        /// Number of trees re-swept.
        reswept: usize,
    },
    /// Fell back to a full re-pack: a tree edge was deleted, the packing
    /// was a shortcut placeholder, or the staleness budget was exceeded.
    Repack,
}

/// A pinned solve snapshot of one graph: the packed trees, each tree's
/// cached sweep winner, and the solved minimum — everything needed to
/// answer an edge mutation without repeating the packing stage.
///
/// Lifecycle: [`SolveState::fresh`] packs and sweeps from scratch; after
/// each `Graph` mutation the owner reports the delta via
/// [`SolveState::note_mutation`]; [`SolveState::resolve`] then re-sweeps
/// what the deltas invalidated (or re-packs past the staleness budget) and
/// updates [`SolveState::best`]. The graph passed to `resolve` must be the
/// same instance the deltas were applied to.
#[derive(Clone, Debug)]
pub struct SolveState {
    seed: u64,
    staleness: f64,
    /// Pinned packing (empty for the shortcut cases: disconnected, n ≤ 2).
    trees: PackedTreeList,
    per_tree: Vec<TreeCut>,
    invalid: Vec<bool>,
    best: MinCutResult,
    /// Total graph weight at the last pack — the staleness reference.
    packed_weight: u64,
    /// Accumulated absolute delta weight since the last pack.
    stale_weight: u64,
    force_repack: bool,
}

impl SolveState {
    /// Solves `g` from scratch (pack + sweep every tree) and pins the
    /// packing. `seed` feeds the packing exactly like
    /// [`MinCutConfig::seed`](crate::MinCutConfig::seed); `staleness` is
    /// the re-pack budget as a fraction of total weight
    /// ([`DEFAULT_STALENESS`] when in doubt). The certificate stage is
    /// skipped: pinned trees must reference ids of the *served* graph so
    /// mutations can be classified against them.
    pub fn fresh(
        g: &Graph,
        seed: u64,
        staleness: f64,
        ws: &mut SolverWorkspace,
        threads: Option<usize>,
    ) -> Result<Self, PmcError> {
        let mut state = SolveState {
            seed,
            staleness,
            trees: PackedTreeList::empty(),
            per_tree: Vec::new(),
            invalid: Vec::new(),
            best: MinCutResult {
                value: 0,
                side: Vec::new(),
                algorithm: "paper",
                kind: None,
                tree_index: None,
            },
            packed_weight: 0,
            stale_weight: 0,
            force_repack: true,
        };
        state.repack(g, ws, threads)?;
        Ok(state)
    }

    /// The current solved minimum cut of the graph this state tracks.
    pub fn best(&self) -> &MinCutResult {
        &self.best
    }

    /// Number of pinned trees (0 in the shortcut states).
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The packing seed this snapshot was built with. A caller holding a
    /// request for a *different* seed must rebuild rather than resolve:
    /// the pinned packing is seed-specific, and parity is defined against
    /// a from-scratch solve under the snapshot's own seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Accumulated absolute delta weight since the last pack.
    pub fn stale_weight(&self) -> u64 {
        self.stale_weight
    }

    /// The staleness budget fraction this state re-packs at.
    pub fn staleness(&self) -> f64 {
        self.staleness
    }

    /// Bytes of heap memory in active use by the snapshot (`len`-based,
    /// matching the workspace `heap_bytes` chain): the pinned tree arena,
    /// every cached per-tree side, the invalid flags, and the best side.
    pub fn heap_bytes(&self) -> usize {
        self.trees.heap_bytes()
            + self
                .per_tree
                .iter()
                .map(|t| t.side.len() + std::mem::size_of::<TreeCut>())
                .sum::<usize>()
            + self.invalid.len()
            + self.best.side.len()
    }

    /// Records one applied mutation, classifying which pinned trees it
    /// invalidates (see the module docs for the exactness argument). Call
    /// once per mutation, in application order, *after* mutating the
    /// graph; then [`SolveState::resolve`] to re-establish the answer.
    pub fn note_mutation(&mut self, delta: &GraphDelta) {
        let dw = match *delta {
            GraphDelta::Reweight { old_w, new_w, .. } => old_w.abs_diff(new_w),
            GraphDelta::Add { w, .. } | GraphDelta::Remove { w, .. } => w,
        };
        self.stale_weight = self.stale_weight.saturating_add(dw);
        if self.force_repack {
            return; // a re-pack rebuilds everything anyway
        }
        if self.trees.is_empty() {
            // Shortcut state (disconnected or n ≤ 2): no pinned structure
            // to patch; re-solve from scratch (still cheap at that size,
            // and an added edge may reconnect the graph).
            self.force_repack = true;
            return;
        }
        match *delta {
            GraphDelta::Reweight {
                old_w, new_w, u, v, ..
            } => {
                if new_w > old_w {
                    self.invalidate_crossing(u, v);
                } else if new_w < old_w {
                    self.invalidate_all();
                }
            }
            GraphDelta::Add { u, v, .. } => self.invalidate_crossing(u, v),
            GraphDelta::Remove {
                eid, moved_from, ..
            } => {
                if self.trees.any_tree_contains(eid) {
                    // A pinned tree lost one of its own edges: it no
                    // longer spans, and the sweep's candidate set is gone.
                    self.force_repack = true;
                    return;
                }
                if let Some(from) = moved_from {
                    self.trees.remap_edge_id(from, eid);
                }
                self.invalidate_all();
            }
        }
    }

    /// Marks every pinned tree for re-sweep. The differential tests use
    /// this as the reference policy: resolve-after-`mark_all_stale` must
    /// be bit-identical to the selectively invalidated resolve.
    pub fn mark_all_stale(&mut self) {
        if !self.trees.is_empty() {
            self.invalidate_all();
        } else {
            self.force_repack = true;
        }
    }

    fn invalidate_all(&mut self) {
        self.invalid.iter_mut().for_each(|f| *f = true);
    }

    /// Invalidates the trees whose cached winner separates `u` from `v` —
    /// the exact set a weight increase on `(u, v)` can have changed.
    fn invalidate_crossing(&mut self, u: u32, v: u32) {
        for (i, t) in self.per_tree.iter().enumerate() {
            if t.side[u as usize] != t.side[v as usize] {
                self.invalid[i] = true;
            }
        }
    }

    /// Whether the accumulated deltas exceed the staleness budget.
    fn over_budget(&self) -> bool {
        (self.stale_weight as f64) > self.staleness * (self.packed_weight.max(1) as f64)
    }

    /// Re-establishes the solved minimum after the mutations reported
    /// since the last resolve: re-sweeps the invalidated pinned trees (or
    /// re-packs when forced or past the staleness budget) and returns what
    /// it did. `g` must be the mutated graph the deltas described.
    /// Deterministic at every `threads` width.
    pub fn resolve(
        &mut self,
        g: &Graph,
        ws: &mut SolverWorkspace,
        threads: Option<usize>,
    ) -> Result<ResolveMode, PmcError> {
        if self.force_repack || self.over_budget() {
            self.repack(g, ws, threads)?;
            return Ok(ResolveMode::Repack);
        }
        let stale: Vec<usize> = (0..self.invalid.len())
            .filter(|&i| self.invalid[i])
            .collect();
        if !stale.is_empty() {
            let cancel = ws.cancel.clone();
            let workers = tree_loop_workers(stale.len(), g.m(), threads);
            let arenas = ws.tree_arenas(workers);
            let trees = &self.trees;
            let swept = pmc_par::fanout_units(arenas, stale.len(), |arena, k| {
                // Cooperative deadline checkpoint, mirroring the one-shot
                // solver's per-tree granularity.
                if cancel.as_deref().is_some_and(|c| c.expired()) {
                    return None;
                }
                let TreeArena { root, batch } = arena;
                root.rebuild(g, &trees[stale[k]], 0);
                Some(two_respect_mincut_reusing(g, root.tree(), batch))
            });
            // Apply all-or-nothing: a cancelled resolve must not leave a
            // half-updated per-tree cache behind.
            let outcomes = swept
                .into_iter()
                .collect::<Option<Vec<_>>>()
                .ok_or(PmcError::Cancelled)?;
            for (&i, out) in stale.iter().zip(outcomes) {
                self.per_tree[i] = TreeCut {
                    value: out.value,
                    side: out.side,
                    kind: out.kind,
                };
                self.invalid[i] = false;
            }
            self.rebuild_best(g);
        }
        Ok(ResolveMode::Incremental {
            reswept: stale.len(),
        })
    }

    /// Recomputes the global best from the per-tree cache under the same
    /// deterministic `(value, tree_index)` order as the one-shot solver,
    /// and verifies the witness against the graph.
    fn rebuild_best(&mut self, g: &Graph) {
        let (ti, best) = self
            .per_tree
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.value, *i))
            .expect("pinned packing has no trees");
        let value = best.value as u64;
        assert!(g.is_proper_cut(&best.side), "witness is not a proper cut");
        let check = g.cut_value(&best.side);
        assert_eq!(
            check, value,
            "internal error: incremental witness value {check} != reported {value}"
        );
        self.best = MinCutResult {
            value,
            side: best.side.clone(),
            algorithm: "paper",
            kind: Some(best.kind),
            tree_index: Some(ti),
        };
    }

    /// The from-scratch path: mirrors `minimum_cut_with` (shortcuts
    /// included) minus the certificate stage, then pins the new packing
    /// and resets the staleness accounting.
    fn repack(
        &mut self,
        g: &Graph,
        ws: &mut SolverWorkspace,
        threads: Option<usize>,
    ) -> Result<(), PmcError> {
        let n = g.n();
        if n < 2 {
            return Err(PmcError::TooSmall);
        }
        self.trees = PackedTreeList::empty();
        self.per_tree.clear();
        self.invalid.clear();
        self.packed_weight = g.total_weight();
        self.stale_weight = 0;
        self.force_repack = false;

        let (labels, ncomp) = connected_components(g);
        if ncomp > 1 {
            let side: Vec<bool> = labels.iter().map(|&l| l == labels[0]).collect();
            self.best = MinCutResult {
                value: 0,
                side,
                algorithm: "paper",
                kind: Some(RespectKind::One),
                tree_index: None,
            };
            return Ok(());
        }
        if n == 2 {
            self.best = MinCutResult {
                value: g.total_weight(),
                side: vec![true, false],
                algorithm: "paper",
                kind: Some(RespectKind::One),
                tree_index: None,
            };
            return Ok(());
        }

        // Cooperative deadline checkpoint before the packing stage. A
        // cancelled repack leaves the state mid-rebuild; callers (the
        // service) treat any `Err` as "discard this state clone".
        let cancel = ws.cancel.clone();
        if cancel.as_deref().is_some_and(|c| c.expired()) {
            return Err(PmcError::Cancelled);
        }

        let base = PackingConfig::default();
        let pcfg = PackingConfig {
            seed: base.seed.wrapping_add(self.seed),
            ..base
        };
        let packing = pack_trees_with(g, &pcfg, &mut ws.packing);
        self.trees = packing.trees;

        let workers = tree_loop_workers(self.trees.len(), g.m(), threads);
        let arenas = ws.tree_arenas(workers);
        let trees = &self.trees;
        let swept = pmc_par::fanout_units(arenas, trees.len(), |arena, i| {
            if cancel.as_deref().is_some_and(|c| c.expired()) {
                return None;
            }
            let TreeArena { root, batch } = arena;
            root.rebuild(g, &trees[i], 0);
            Some(two_respect_mincut_reusing(g, root.tree(), batch))
        });
        self.per_tree = swept
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(PmcError::Cancelled)?
            .into_iter()
            .map(|out| TreeCut {
                value: out.value,
                side: out.side,
                kind: out.kind,
            })
            .collect();
        self.invalid = vec![false; self.per_tree.len()];
        self.rebuild_best(g);
        Ok(())
    }
}

/// Applies one mutation op to `g`, reporting the [`GraphDelta`] that
/// [`SolveState::note_mutation`] classifies. The single entry point the
/// service's `update` verb drives: mutate, note, then
/// [`SolveState::resolve`] once per batch.
pub fn apply_delta(
    g: &mut Graph,
    state: &mut SolveState,
    op: &MutationOp,
) -> Result<GraphDelta, pmc_graph::GraphError> {
    let delta = match *op {
        MutationOp::Reweight { eid, w } => {
            let e = g.edges().get(eid as usize).copied().ok_or(
                pmc_graph::GraphError::EdgeIdOutOfRange {
                    edge_id: eid as usize,
                },
            )?;
            let old_w = g.reweight_edge(eid as usize, w)?;
            GraphDelta::Reweight {
                eid,
                u: e.u,
                v: e.v,
                old_w,
                new_w: w,
            }
        }
        MutationOp::Add { u, v, w } => {
            g.add_edge(u, v, w)?;
            GraphDelta::Add { u, v, w }
        }
        MutationOp::Remove { eid } => {
            let w = g.edges().get(eid as usize).map(|e| e.w).ok_or(
                pmc_graph::GraphError::EdgeIdOutOfRange {
                    edge_id: eid as usize,
                },
            )?;
            let moved_from = g.remove_edge(eid as usize)?;
            GraphDelta::Remove { eid, w, moved_from }
        }
    };
    state.note_mutation(&delta);
    Ok(delta)
}

/// One edge mutation in solver-level terms (edge ids, 0-based vertices).
/// The service layer resolves its wire-format `(u, v)` pairs to edge ids
/// before building these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOp {
    /// Set edge `eid`'s weight to `w`.
    Reweight {
        /// Edge id to reweight.
        eid: u32,
        /// New weight.
        w: u64,
    },
    /// Append a new edge `(u, v, w)`.
    Add {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Weight of the new edge.
        w: u64,
    },
    /// Remove edge `eid` (`swap_remove` semantics; the state remaps the
    /// moved id automatically).
    Remove {
        /// Edge id to remove.
        eid: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_baseline::stoer_wagner;
    use pmc_graph::gen;

    fn assert_matches_sw(g: &Graph, state: &SolveState) {
        let want = stoer_wagner(g).unwrap().value;
        assert_eq!(state.best().value, want);
        assert_eq!(g.cut_value(&state.best().side), want);
    }

    #[test]
    fn fresh_matches_stoer_wagner() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..4 {
            let g = gen::gnm_connected(32, 96, 8, 100 + seed);
            let state = SolveState::fresh(&g, seed, DEFAULT_STALENESS, &mut ws, None).unwrap();
            assert_matches_sw(&g, &state);
            assert!(state.tree_count() > 0);
            assert!(state.heap_bytes() > 0);
        }
    }

    #[test]
    fn reweight_up_incremental_matches_mark_all_bitwise() {
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(28, 84, 6, 7);
        let mut inc = SolveState::fresh(&g, 1, DEFAULT_STALENESS, &mut ws, None).unwrap();
        let mut all = inc.clone();
        for (step, eid) in [0usize, 11, 23, 40].into_iter().enumerate() {
            let w = g.edges()[eid].w + 3;
            let op = MutationOp::Reweight { eid: eid as u32, w };
            apply_delta(&mut g, &mut inc, &op).unwrap();
            let mode = inc.resolve(&g, &mut ws, Some(1)).unwrap();
            assert!(
                matches!(mode, ResolveMode::Incremental { .. }),
                "step {step}"
            );
            // Reference: same pinned trees, every one re-swept.
            all.mark_all_stale();
            all.resolve(&g, &mut ws, Some(1)).unwrap();
            assert_eq!(inc.per_tree, all.per_tree, "step {step}");
            assert_eq!(inc.best().value, all.best().value, "step {step}");
            assert_eq!(inc.best().side, all.best().side, "step {step}");
            assert_matches_sw(&g, &inc);
        }
    }

    #[test]
    fn decrease_and_removal_resweep_everything_and_stay_exact() {
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(26, 90, 9, 17);
        let mut state = SolveState::fresh(&g, 2, 10.0, &mut ws, None).unwrap();
        // Reweight down: exact again afterwards.
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 5, w: 1 }).unwrap();
        state.resolve(&g, &mut ws, None).unwrap();
        assert_matches_sw(&g, &state);
        // Remove a non-tree edge if one exists; otherwise the repack path
        // covers it — both must stay exact.
        if let Some(eid) = (0..g.m() as u32).find(|&e| !state.trees.any_tree_contains(e)) {
            apply_delta(&mut g, &mut state, &MutationOp::Remove { eid }).unwrap();
            state.resolve(&g, &mut ws, None).unwrap();
            assert_matches_sw(&g, &state);
        }
        // Add an edge.
        apply_delta(&mut g, &mut state, &MutationOp::Add { u: 0, v: 13, w: 4 }).unwrap();
        state.resolve(&g, &mut ws, None).unwrap();
        assert_matches_sw(&g, &state);
    }

    #[test]
    fn tree_edge_removal_forces_repack() {
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(24, 60, 5, 23);
        let mut state = SolveState::fresh(&g, 0, 10.0, &mut ws, None).unwrap();
        let tree_edge = state.trees[0][0];
        apply_delta(&mut g, &mut state, &MutationOp::Remove { eid: tree_edge }).unwrap();
        let mode = state.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(mode, ResolveMode::Repack);
        if pmc_graph::is_connected(&g) {
            assert_matches_sw(&g, &state);
        } else {
            assert_eq!(state.best().value, 0);
        }
    }

    #[test]
    fn staleness_budget_triggers_repack() {
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(24, 60, 5, 31);
        // Budget 0: every delta exceeds it.
        let mut state = SolveState::fresh(&g, 0, 0.0, &mut ws, None).unwrap();
        let w = g.edges()[0].w + 1;
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 0, w }).unwrap();
        assert!(state.stale_weight() > 0);
        let mode = state.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(mode, ResolveMode::Repack);
        assert_eq!(state.stale_weight(), 0, "repack resets the budget");
        assert_matches_sw(&g, &state);
    }

    #[test]
    fn disconnecting_removal_and_reconnection() {
        // A bridge is in every spanning tree, so deleting it forces a
        // repack, which reports the 0-cut; re-adding reconnects.
        let mut ws = SolverWorkspace::new();
        let mut g = Graph::from_edges(
            6,
            &[
                (0, 1, 5),
                (1, 2, 5),
                (2, 0, 5),
                (3, 4, 5),
                (4, 5, 5),
                (5, 3, 5),
                (2, 3, 7), // the bridge (vertex isolation costs 10)
            ],
        )
        .unwrap();
        let mut state = SolveState::fresh(&g, 3, DEFAULT_STALENESS, &mut ws, None).unwrap();
        assert_eq!(state.best().value, 7);
        apply_delta(&mut g, &mut state, &MutationOp::Remove { eid: 6 }).unwrap();
        assert_eq!(
            state.resolve(&g, &mut ws, None).unwrap(),
            ResolveMode::Repack
        );
        assert_eq!(state.best().value, 0);
        assert_eq!(state.tree_count(), 0);
        // Any mutation on a shortcut state re-solves from scratch.
        apply_delta(&mut g, &mut state, &MutationOp::Add { u: 1, v: 4, w: 3 }).unwrap();
        assert_eq!(
            state.resolve(&g, &mut ws, None).unwrap(),
            ResolveMode::Repack
        );
        assert_eq!(state.best().value, 3);
        assert_matches_sw(&g, &state);
    }

    #[test]
    fn two_vertex_graphs_use_the_shortcut() {
        let mut ws = SolverWorkspace::new();
        let mut g = Graph::from_edges(2, &[(0, 1, 9)]).unwrap();
        let mut state = SolveState::fresh(&g, 0, DEFAULT_STALENESS, &mut ws, None).unwrap();
        assert_eq!(state.best().value, 9);
        assert_eq!(state.tree_count(), 0);
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 0, w: 4 }).unwrap();
        state.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(state.best().value, 4);
    }

    #[test]
    fn apply_delta_surfaces_graph_errors_without_corrupting_state() {
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(16, 40, 4, 41);
        let mut state = SolveState::fresh(&g, 0, DEFAULT_STALENESS, &mut ws, None).unwrap();
        let before = state.best().value;
        assert!(apply_delta(&mut g, &mut state, &MutationOp::Remove { eid: 999 }).is_err());
        assert!(apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 999, w: 1 }).is_err());
        assert!(apply_delta(&mut g, &mut state, &MutationOp::Add { u: 0, v: 0, w: 1 }).is_err());
        state.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(state.best().value, before);
    }

    #[test]
    fn thread_width_does_not_change_resolved_state() {
        let mut g1 = gen::gnm_connected(40, 300, 7, 53);
        let mut g8 = g1.clone();
        let mut ws1 = SolverWorkspace::new();
        let mut ws8 = SolverWorkspace::new();
        let mut s1 = SolveState::fresh(&g1, 5, DEFAULT_STALENESS, &mut ws1, Some(1)).unwrap();
        let mut s8 = SolveState::fresh(&g8, 5, DEFAULT_STALENESS, &mut ws8, Some(8)).unwrap();
        for step in 0..6u32 {
            let op = match step % 3 {
                0 => MutationOp::Reweight {
                    eid: step * 7,
                    w: 20 + u64::from(step),
                },
                1 => MutationOp::Add {
                    u: step % 5,
                    v: 10 + step % 7,
                    w: 2,
                },
                _ => MutationOp::Remove { eid: step * 11 },
            };
            apply_delta(&mut g1, &mut s1, &op).unwrap();
            apply_delta(&mut g8, &mut s8, &op).unwrap();
            s1.resolve(&g1, &mut ws1, Some(1)).unwrap();
            s8.resolve(&g8, &mut ws8, Some(8)).unwrap();
            assert_eq!(s1.per_tree, s8.per_tree, "step {step}");
            assert_eq!(s1.best().value, s8.best().value, "step {step}");
            assert_eq!(s1.best().side, s8.best().side, "step {step}");
        }
    }

    use pmc_graph::Graph;
}
