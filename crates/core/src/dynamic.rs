//! Incremental re-solve over a pinned tree packing.
//!
//! A [`SolveState`] runs the crate's one pipeline (see the crate docs)
//! with the certificate stage off — shortcuts, Lemma 1 packing, the
//! Lemma 13 sweep of every packed tree, then the smallest
//! `(value, tree index)` — and keeps what it built: the packed trees, each
//! tree's sweep winner, and the answer. The certificate is skipped so that
//! pinned trees reference edge ids of the *served* graph, against which
//! mutations are classified; apart from the certificate, the state and a
//! one-shot solve run the same pipeline. The packing costs about three to
//! five per-tree sweeps (EXPERIMENTS.md E6), so the state answers edge
//! mutations by re-sweeping, through the pipeline's own per-tree loop,
//! only the trees whose cached winner a mutation can have changed, and
//! reducing the per-tree cache again.
//!
//! A certified packing (see
//! [`TreePacking::certified`](pmc_packing::TreePacking::certified)) keeps
//! one tree and hands out the cut that certified it, which is the cut a
//! full sweep of that tree returns. The pipeline answers with it and
//! sweeps no tree, so that cut is the tree's cached winner, and a fresh
//! snapshot or a re-pack of a certified graph costs exactly a certified
//! one-shot solve.
//!
//! The invalidation rule is exact with respect to the pinned trees. The
//! per-tree sweep minimizes over the fixed candidate set of
//! one/two-respecting cuts of that tree, breaking ties toward the earliest
//! candidate in scan order (strict `<` comparisons). An edge mutation
//! changes a candidate's value iff the candidate cut separates the edge's
//! endpoints, and a weight *increase* only raises values. So after an
//! increase on edge `(u, v)`:
//!
//! * if the cached winner does **not** separate `u` from `v`, its value is
//!   unchanged and every other candidate's value is unchanged-or-higher —
//!   the winner (value, side, kind) is exactly what a fresh sweep returns;
//! * if it does, another candidate may have taken over: re-sweep.
//!
//! A weight *decrease* (reweight down, edge removal) can promote any
//! candidate that crosses the edge, in every tree, so all trees re-sweep —
//! that still skips the dominant packing stage. Removing an edge a pinned
//! tree *uses* breaks that tree's spanning property, and there is no cheap
//! local repair, so the state re-runs the pipeline.
//!
//! Re-sweeping answers for the pinned trees; whether they still cover the
//! minimum cut is a second question, settled by one integer rule. Let
//! `packed` be the answer at the last pack and `decrease` the weight
//! removed since then (reweight-down deltas plus removed edges' weights).
//! A minimum cut of the mutated graph has value at most `best` now, so
//! its value at pack time was at most `best + decrease`. When that is at
//! most `packed`, the cut was already a minimum cut when the trees were
//! packed, and the pinned trees 2-respect it with a fresh solve's
//! probability (Karger, JACM 2000); the re-swept answer stands. Otherwise
//! the state re-runs the pipeline. The rule has no constant to tune: a
//! weight increase off the winner keeps the answer incremental, so does a
//! decrease on a minimum cut (it lowers `best` by what it adds to
//! `decrease`), and a decrease that crosses no minimum cut, or an
//! increase that raises `best`, re-packs.
//!
//! A certified pack (the packing proved `λ = max(⌈P⌉, B)`, for its value
//! `P` and the floor `B = min(lightest bridge, w₁ + w₂)`, and kept one
//! tree) pins that single tree, so an update re-sweeps at most one tree,
//! and every answer the rule admits after it is exact, not only correct
//! w.h.p.:
//! `packed = λ` at the pack; a cut loses at most `decrease` since then, so
//! the mutated graph's minimum cut is at least `λ − decrease`; the rule
//! admits `best` only when `best ≤ λ − decrease`; and `best` is the value
//! of a real cut, so it is the minimum.
//!
//! The pipeline floors each pack's answer at `δ`, the lightest
//! single-vertex cut (see the crate docs). An answer that no pinned tree
//! holds — a shortcut's or the floor's, both with no `tree_index` — has no
//! cached cut a mutation could invalidate, so such a state re-packs on its
//! next mutation. An answer the rule admits after a floored pack needs no
//! floor of its own: it stays at or below the mutated graph's `δ`, since
//! for every vertex `x`,
//! `deg_new(x) ≥ deg_old(x) − decrease ≥ δ_old − decrease ≥ packed −
//! decrease ≥ best`.
//!
//! Determinism: re-sweeps run through the same
//! [`fanout_units`](pmc_par::fanout_units) loop as the one-shot solver, in
//! stable tree order, so resolved answers are bit-identical at every
//! thread count, and bit-identical to re-sweeping *all* pinned trees
//! (property-tested in `tests/dynamic_props.rs`).

use pmc_graph::Graph;
use pmc_packing::PackedTreeList;

use crate::two_respect::{RespectKind, TwoRespectCut};
use crate::workspace::SolverWorkspace;
use crate::{
    best_tree_cut, solve_pipeline, sweep_trees, verify_result, MinCutConfig, MinCutResult, PmcError,
};

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

impl From<TwoRespectCut> for TreeCut {
    fn from(cut: TwoRespectCut) -> Self {
        TreeCut {
            value: cut.value,
            side: cut.side,
            kind: cut.kind,
        }
    }
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
    /// Fell back to a full re-pack: a tree edge was deleted, no pinned tree
    /// held the answer (a shortcut or the single-vertex floor gave it), or
    /// the re-swept answer plus the weight decrease since the last pack
    /// exceeded the answer at that pack.
    Repack,
}

/// A pinned solve snapshot of one graph: the packed trees, each tree's
/// cached sweep winner, and the solved minimum — everything needed to
/// answer an edge mutation without repeating the packing stage.
///
/// Lifecycle: [`SolveState::fresh`] runs the pipeline and pins what it
/// packed; after each `Graph` mutation the owner reports the delta via
/// [`SolveState::note_mutation`]; [`SolveState::resolve`] then re-sweeps
/// what the deltas invalidated (or re-runs the pipeline when a pinned tree
/// lost an edge or the pinned trees may no longer cover the minimum cut)
/// and updates [`SolveState::best`]. The graph passed to `resolve` must be
/// the same instance the deltas were applied to.
#[derive(Clone, Debug)]
pub struct SolveState {
    seed: u64,
    /// Pinned packing (empty for the shortcut cases: disconnected, n ≤ 2).
    trees: PackedTreeList,
    per_tree: Vec<TreeCut>,
    invalid: Vec<bool>,
    best: MinCutResult,
    /// The answer at the last pack.
    packed_value: u64,
    /// Weight removed since the last pack: reweight-down deltas plus
    /// removed edges' weights.
    decrease: u64,
    force_repack: bool,
}

impl SolveState {
    /// Solves `g` from scratch through the crate's pipeline with the
    /// certificate off, and pins the packing. `seed` and `threads` act
    /// exactly like [`MinCutConfig::seed`] and [`MinCutConfig::threads`],
    /// so the answer equals
    /// `minimum_cut_with(g, MinCutConfig { seed, threads, use_certificate:
    /// false, .. })`. The certificate is skipped because pinned trees must
    /// reference ids of the *served* graph so mutations can be classified
    /// against them.
    pub fn fresh(
        g: &Graph,
        seed: u64,
        ws: &mut SolverWorkspace,
        threads: Option<usize>,
    ) -> Result<Self, PmcError> {
        let cfg = MinCutConfig {
            seed,
            threads,
            use_certificate: false,
            ..MinCutConfig::default()
        };
        Self::pin(g, &cfg, ws)
    }

    /// Runs the pipeline under `cfg`, which has the certificate off, and
    /// pins every tree's cut (a certified packing's one cut comes from the
    /// packing itself).
    fn pin(g: &Graph, cfg: &MinCutConfig, ws: &mut SolverWorkspace) -> Result<Self, PmcError> {
        debug_assert!(!cfg.use_certificate, "pinned trees index the served graph");
        let solved = solve_pipeline(g, cfg, ws)?;
        Ok(SolveState {
            seed: cfg.seed,
            trees: solved.trees,
            invalid: vec![false; solved.cuts.len()],
            per_tree: solved.cuts.into_iter().map(TreeCut::from).collect(),
            packed_value: solved.result.value,
            best: solved.result,
            decrease: 0,
            force_repack: false,
        })
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
        let removed = match *delta {
            GraphDelta::Reweight { old_w, new_w, .. } => old_w.saturating_sub(new_w),
            GraphDelta::Remove { w, .. } => w,
            GraphDelta::Add { .. } => 0,
        };
        self.decrease = self.decrease.saturating_add(removed);
        if self.force_repack {
            return; // a re-pack rebuilds everything anyway
        }
        if self.best.tree_index.is_none() {
            // No pinned tree holds the answer (a shortcut, or the
            // single-vertex floor): no cached cut tells what the mutation
            // changed, so re-solve from scratch.
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
        if self.best.tree_index.is_some() {
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

    /// Re-establishes the solved minimum after the mutations reported
    /// since the last resolve: re-sweeps the invalidated pinned trees, and
    /// re-runs the pipeline instead when forced or when the re-swept
    /// answer plus the weight decrease since the last pack exceeds the
    /// answer at that pack (see the module docs). Returns what it did.
    /// `g` must be the mutated graph the deltas described. Deterministic
    /// at every `threads` width.
    ///
    /// All or nothing: on an error (a tripped [`CancelToken`](crate::CancelToken)
    /// answers [`PmcError::Cancelled`]) the state is left as it was, so a
    /// retry redoes the same work.
    pub fn resolve(
        &mut self,
        g: &Graph,
        ws: &mut SolverWorkspace,
        threads: Option<usize>,
    ) -> Result<ResolveMode, PmcError> {
        if !self.force_repack {
            let stale: Vec<usize> = (0..self.invalid.len())
                .filter(|&i| self.invalid[i])
                .collect();
            // Nothing is committed until the rule below keeps the re-swept
            // cuts; until then they stand in for the stale ones.
            let (cuts, best) = if stale.is_empty() {
                (Vec::new(), None)
            } else {
                let cancel = ws.cancel.as_deref();
                let cuts: Vec<TreeCut> =
                    sweep_trees(g, &self.trees, &stale, &mut ws.trees, threads, cancel)?
                        .into_iter()
                        .map(TreeCut::from)
                        .collect();
                let per_tree = self.per_tree.iter().enumerate().map(|(i, c)| {
                    let c = stale.binary_search(&i).map_or(c, |k| &cuts[k]);
                    (c.value, &c.side[..], c.kind)
                });
                let best = best_tree_cut(per_tree);
                verify_result(g, &best)?;
                (cuts, Some(best))
            };
            let value = best.as_ref().map_or(self.best.value, |b| b.value);
            if value.saturating_add(self.decrease) <= self.packed_value {
                for (&i, cut) in stale.iter().zip(cuts) {
                    self.per_tree[i] = cut;
                    self.invalid[i] = false;
                }
                if let Some(best) = best {
                    self.best = best;
                }
                return Ok(ResolveMode::Incremental {
                    reswept: stale.len(),
                });
            }
        }
        *self = Self::fresh(g, self.seed, ws, threads)?;
        Ok(ResolveMode::Repack)
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

    /// The edges of `g` that cross (`crossing`) or do not cross the
    /// state's current winning cut.
    fn edges_by_winner(g: &Graph, state: &SolveState, crossing: bool) -> Vec<u32> {
        let side = &state.best().side;
        (0..g.m() as u32)
            .filter(|&e| {
                let e = g.edges()[e as usize];
                (side[e.u as usize] != side[e.v as usize]) == crossing
            })
            .collect()
    }

    /// The two-triangle graph whose unique minimum cut is the bridge
    /// (edge 6, weight 7); isolating a vertex costs 10.
    fn bridged_triangles() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1, 5),
                (1, 2, 5),
                (2, 0, 5),
                (3, 4, 5),
                (4, 5, 5),
                (5, 3, 5),
                (2, 3, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fresh_matches_stoer_wagner() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..4 {
            let g = gen::gnm_connected(32, 96, 8, 100 + seed);
            let state = SolveState::fresh(&g, seed, &mut ws, None).unwrap();
            assert_matches_sw(&g, &state);
            assert!(state.tree_count() > 0);
            assert!(state.heap_bytes() > 0);
        }
    }

    #[test]
    fn reweight_up_incremental_matches_mark_all_bitwise() {
        // An increase off the winner leaves the answer where it was, so
        // the rule keeps it incremental.
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(28, 84, 6, 7);
        let mut inc = SolveState::fresh(&g, 1, &mut ws, None).unwrap();
        let mut all = inc.clone();
        let off = edges_by_winner(&g, &inc, false);
        for (step, &eid) in off.iter().step_by(11).take(4).enumerate() {
            let w = g.edges()[eid as usize].w + 3;
            apply_delta(&mut g, &mut inc, &MutationOp::Reweight { eid, w }).unwrap();
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
        // A decrease on the minimum cut lowers the answer by exactly what
        // it adds to the decrease, so the rule keeps it incremental; every
        // pinned tree re-sweeps.
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(26, 90, 9, 17);
        let mut state = SolveState::fresh(&g, 2, &mut ws, None).unwrap();
        let mut resolve = |g: &Graph, state: &mut SolveState| {
            let mode = state.resolve(g, &mut ws, None).unwrap();
            let reswept = state.tree_count();
            assert_eq!(mode, ResolveMode::Incremental { reswept });
            assert_matches_sw(g, state);
        };
        let before = state.best().value;
        let eid = edges_by_winner(&g, &state, true)
            .into_iter()
            .find(|&e| g.edges()[e as usize].w > 1)
            .expect("a cut edge heavier than 1");
        let w = g.edges()[eid as usize].w - 1;
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid, w }).unwrap();
        resolve(&g, &mut state);
        assert_eq!(state.best().value, before - 1);
        // Remove a non-tree edge of the cut if one exists.
        let cut = edges_by_winner(&g, &state, true);
        if let Some(eid) = cut.into_iter().find(|&e| !state.trees.any_tree_contains(e)) {
            apply_delta(&mut g, &mut state, &MutationOp::Remove { eid }).unwrap();
            resolve(&g, &mut state);
        }
    }

    #[test]
    fn certified_snapshot_is_the_full_sweep_of_its_tree() {
        // A certified pack pins the packing's cut with no sweep; a full
        // re-sweep of its one tree must reproduce that cut exactly.
        let mut ws = SolverWorkspace::new();
        let mut certified = 0;
        let graphs = (0..6).map(|s| gen::cycle_with_chords(24, 8, s));
        for (i, g) in graphs.chain([bridged_triangles()]).enumerate() {
            let cfg = MinCutConfig {
                use_certificate: false,
                ..MinCutConfig::default()
            };
            if !crate::minimum_cut_report(&g, &cfg).unwrap().1.certified {
                continue;
            }
            certified += 1;
            let state = SolveState::fresh(&g, cfg.seed, &mut ws, None).unwrap();
            assert_eq!(state.tree_count(), 1, "graph {i}");
            let mut swept = state.clone();
            swept.mark_all_stale();
            let mode = swept.resolve(&g, &mut ws, None).unwrap();
            assert_eq!(mode, ResolveMode::Incremental { reswept: 1 }, "graph {i}");
            assert_eq!(swept.per_tree, state.per_tree, "graph {i}");
            assert_eq!(swept.best().side, state.best().side, "graph {i}");
            assert_matches_sw(&g, &state);
        }
        assert!(certified >= 2, "{certified} certified graphs");
    }

    #[test]
    fn a_floored_answer_repacks_on_its_next_mutation() {
        // A starved packing's one tree misses λ = δ, so the pipeline
        // answers a lightest vertex alone, which no pinned tree holds. A
        // heavier edge at that vertex changes the answer without touching
        // any pinned tree's cut: only a re-pack sees it.
        let mut ws = SolverWorkspace::new();
        let mut cfg = MinCutConfig {
            use_certificate: false,
            ..MinCutConfig::default()
        };
        cfg.packing.trees_wanted = 1;
        cfg.packing.packing_rounds = 2;
        cfg.packing.estimation_rounds = 4;
        let (mut g, mut state) = (0..)
            .map(|s| gen::gnm_heavy_tailed(60, 200, s))
            .find_map(|g| {
                let state = SolveState::pin(&g, &cfg, &mut ws).unwrap();
                state.best().kind.is_none().then_some((g, state))
            })
            .expect("some starved search misses");
        assert_eq!(state.best().tree_index, None);
        assert_matches_sw(&g, &state);
        let (x, _) = state.best().partition();
        let eid = g.incident_edge_ids(x[0])[0];
        let w = g.edges()[eid as usize].w + 5;
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid, w }).unwrap();
        let mode = state.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(mode, ResolveMode::Repack);
        assert_matches_sw(&g, &state);
    }

    #[test]
    fn tree_edge_removal_forces_repack() {
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(24, 60, 5, 23);
        let mut state = SolveState::fresh(&g, 0, &mut ws, None).unwrap();
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
    fn decrease_off_the_minimum_cut_repacks() {
        let mut ws = SolverWorkspace::new();
        let mut g = bridged_triangles();
        let mut state = SolveState::fresh(&g, 0, &mut ws, None).unwrap();
        assert_eq!(state.best().value, 7);
        // A triangle edge crosses no minimum cut: the answer stays 7, so 7
        // plus the decrease passes the packed 7.
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 0, w: 4 }).unwrap();
        assert_eq!(state.decrease, 1);
        let mode = state.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(mode, ResolveMode::Repack);
        assert_eq!(state.decrease, 0, "a re-pack resets the decrease");
        assert_eq!(state.packed_value, 7);
        assert_matches_sw(&g, &state);
        // The bridge going down by 2 moves the answer by as much: incremental.
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 6, w: 5 }).unwrap();
        let mode = state.resolve(&g, &mut ws, None).unwrap();
        assert!(matches!(mode, ResolveMode::Incremental { .. }), "{mode:?}");
        assert_eq!(state.best().value, 5);
        assert_matches_sw(&g, &state);
        // An increase on the winner raises the answer past the packed 7
        // minus the decrease: re-pack.
        apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 6, w: 8 }).unwrap();
        let mode = state.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(mode, ResolveMode::Repack);
        assert_eq!(state.best().value, 8);
        assert_matches_sw(&g, &state);
    }

    #[test]
    fn disconnecting_removal_and_reconnection() {
        // A bridge is in every spanning tree, so deleting it forces a
        // repack, which reports the 0-cut; re-adding reconnects.
        let mut ws = SolverWorkspace::new();
        let mut g = bridged_triangles();
        let mut state = SolveState::fresh(&g, 3, &mut ws, None).unwrap();
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
        let mut state = SolveState::fresh(&g, 0, &mut ws, None).unwrap();
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
        let mut state = SolveState::fresh(&g, 0, &mut ws, None).unwrap();
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
        let mut s1 = SolveState::fresh(&g1, 5, &mut ws1, Some(1)).unwrap();
        let mut s8 = SolveState::fresh(&g8, 5, &mut ws8, Some(8)).unwrap();
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

    fn expired_token() -> std::sync::Arc<crate::CancelToken> {
        let token = crate::CancelToken::new();
        token.cancel();
        std::sync::Arc::new(token)
    }

    fn assert_same_state(a: &SolveState, b: &SolveState) {
        assert_eq!(a.trees, b.trees);
        assert_eq!(a.per_tree, b.per_tree);
        assert_eq!(a.invalid, b.invalid);
        assert_eq!(a.best().value, b.best().value);
        assert_eq!(a.best().side, b.best().side);
        assert_eq!(a.best().tree_index, b.best().tree_index);
        assert_eq!(a.packed_value, b.packed_value);
        assert_eq!(a.decrease, b.decrease);
        assert_eq!(a.force_repack, b.force_repack);
    }

    #[test]
    fn cancelled_repack_is_redone_by_the_retry() {
        for s in 0..20u64 {
            let mut ws = SolverWorkspace::new();
            let mut g = gen::gnm_connected(24, 60, 5, 23 + s);
            let mut state = SolveState::fresh(&g, s, &mut ws, None).unwrap();
            if s % 2 == 0 {
                // Lighten edges until the decrease alone passes the packed
                // answer: the next resolve must re-pack.
                for eid in 0..g.m() as u32 {
                    if state.decrease > state.packed_value {
                        break;
                    }
                    if g.edges()[eid as usize].w > 1 {
                        let op = MutationOp::Reweight { eid, w: 1 };
                        apply_delta(&mut g, &mut state, &op).unwrap();
                    }
                }
                assert!(state.decrease > state.packed_value, "seed {s}");
            } else {
                // Remove a pinned tree edge that keeps the graph connected:
                // the cancel then trips inside the pipeline itself.
                let eid = (0..g.m() as u32)
                    .find(|&e| {
                        let mut h = g.clone();
                        h.remove_edge(e as usize).unwrap();
                        state.trees.any_tree_contains(e) && pmc_graph::is_connected(&h)
                    })
                    .expect("a non-bridge tree edge");
                apply_delta(&mut g, &mut state, &MutationOp::Remove { eid }).unwrap();
            }
            let mut twin = state.clone();

            ws.install_cancel(expired_token());
            let cancelled = state.resolve(&g, &mut ws, None);
            assert_eq!(cancelled, Err(PmcError::Cancelled), "seed {s}");
            assert_same_state(&state, &twin);
            ws.clear_cancel();
            let retry = state.resolve(&g, &mut ws, None).unwrap();
            assert_eq!(retry, ResolveMode::Repack, "seed {s}");
            assert_matches_sw(&g, &state);
            assert_eq!(twin.resolve(&g, &mut ws, None), Ok(ResolveMode::Repack));
            assert_same_state(&state, &twin);
        }
    }

    #[test]
    fn expired_token_cancels_fresh_and_resolve_and_the_retry_matches_a_twin() {
        let mut ws = SolverWorkspace::new();
        let mut g = gen::gnm_connected(30, 90, 7, 61);
        ws.install_cancel(expired_token());
        assert_eq!(
            SolveState::fresh(&g, 4, &mut ws, None).err(),
            Some(PmcError::Cancelled)
        );
        ws.clear_cancel();

        let mut state = SolveState::fresh(&g, 4, &mut ws, None).unwrap();
        // A weight decrease invalidates every pinned tree; on the minimum
        // cut it keeps the answer incremental.
        let eid = edges_by_winner(&g, &state, true)
            .into_iter()
            .find(|&e| g.edges()[e as usize].w > 1)
            .unwrap();
        let op = MutationOp::Reweight {
            eid,
            w: g.edges()[eid as usize].w - 1,
        };
        apply_delta(&mut g, &mut state, &op).unwrap();
        let mut twin = state.clone();
        let before = state.best().clone();
        ws.install_cancel(expired_token());
        let cancelled = state.resolve(&g, &mut ws, None);
        assert_eq!(cancelled, Err(PmcError::Cancelled));
        assert_eq!(state.best().value, before.value);
        assert_eq!(state.best().side, before.side);
        assert_eq!(state.best().tree_index, before.tree_index);
        ws.clear_cancel();

        let retry = state.resolve(&g, &mut ws, None).unwrap();
        let want = twin.resolve(&g, &mut ws, None).unwrap();
        assert_eq!(retry, want);
        assert_eq!(
            retry,
            ResolveMode::Incremental {
                reswept: state.tree_count()
            }
        );
        assert_same_state(&state, &twin);
        assert_matches_sw(&g, &state);
    }

    use pmc_graph::Graph;
}
