//! # pmc-core — Parallel Minimum Cuts in Near-linear Work and Low Depth
//!
//! The top-level algorithm of Geissmann & Gianinazzi (SPAA 2018),
//! Theorem 10: a Monte Carlo minimum cut in `O(m log⁴ n)` work and
//! `O(log³ n)` depth.
//!
//! One private pipeline runs every paper solve, in this order:
//! 1. shortcuts: fewer than two vertices is an error, a disconnected graph
//!    answers 0, two vertices answer their one cut;
//! 2. optionally ([`MinCutConfig::use_certificate`]) a Nagamochi–Ibaraki
//!    certificate replaces the graph by an exact sparse subgraph;
//! 3. [`pmc_packing::pack_trees_with`] packs `O(log n)` spanning trees such
//!    that w.h.p. one of them crosses a minimum cut at most twice
//!    (Lemma 1). The packing also proves a lower bound on `λ`
//!    ([`TreePacking::cut_lower_bound`](pmc_packing::TreePacking::cut_lower_bound)):
//!    `⌈P⌉` for its value `P`, and on the full skeleton
//!    `max(⌈P⌉, B)` for the floor `B = min(lightest bridge, w₁ + w₂)`.
//!    On the certificate graph that bounds the input's `λ` too, since the
//!    certificate keeps it. A greedy run on the full skeleton checks at
//!    rounds 1, 2, 4, 8, … and at its last round whether `max(⌈P_r⌉, B)`
//!    equals the lightest 1-respecting cut of the round's tree; when it
//!    does, `λ` is proven and the packing stops with that one tree and
//!    hands out the cut it certified
//!    ([`certified`](pmc_packing::TreePacking::certified)). A graph with
//!    `λ ≤ 2` has `B = λ` and stops at round 1 whenever its first tree
//!    crosses a minimum cut once;
//! 4. a certified packing is answered by that cut, which is the cut the
//!    full search of its tree returns: no tree is rooted or swept again.
//!    Otherwise, tree by tree in index order, the Lemma 13 search
//!    ([`two_respect::two_respect_mincut_reusing`]) finds the smallest cut
//!    crossing at most two of the tree's edges, using the Minimum Path
//!    batch engine of `pmc-minpath` (§3). The trees fan out across OS
//!    workers, and a cancellation token is polled before each. The sweep
//!    stops at the first tree whose cut meets the lower bound: no cut is
//!    below `λ`, so no later tree can beat it, and no later tree starts
//!    once it is found. Each search takes the bound as well: when the
//!    tree's best 1-respecting cut meets it, that cut is the search's
//!    answer and no bough cascade is built;
//! 5. the smallest `(value, tree index)` over the answered trees wins, and
//!    its witness is checked against the input graph. It is the same
//!    winner a sweep of every tree picks, at every worker count.
//!
//! [`minimum_cut_with`] runs it on a reused [`SolverWorkspace`];
//! [`minimum_cut`] and [`minimum_cut_report`] run it on a fresh one; a
//! [`SolveState`] runs it without the certificate and without the early
//! stop (every tree of an uncertified packing gets a full search), and
//! keeps the trees and every tree's cut, so an edge update re-sweeps only
//! the trees it touched. A certified packing leaves it one tree to pin,
//! answered by the packing's cut.
//!
//! ```
//! use pmc_core::{minimum_cut, MinCutConfig};
//! use pmc_graph::gen;
//!
//! let (g, planted_value, _) = gen::planted_bisection(16, 16, 20, 3, 8, 42);
//! let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
//! assert_eq!(cut.value, planted_value);
//! ```

pub mod dynamic;
pub mod gen_ops;
pub mod phases;
pub mod solver;
pub mod two_respect;
pub mod workspace;

use std::time::Instant;

use rayon::prelude::*;

use pmc_graph::{connected_components, Graph};
use pmc_packing::{pack_trees_with, PackedTreeList, PackingConfig};

pub use dynamic::{apply_delta, GraphDelta, MutationOp, ResolveMode, SolveState};
pub use pmc_graph::respect1;
pub use pmc_graph::PmcError;
pub use respect1::{best_one_respect, one_respect_cuts, SubtreeCuts};
pub use solver::{
    solver_by_name, solver_names, solvers, solvers_for, BruteSolver, ContractionSolver,
    MinCutSolver, PaperSolver, QuadraticSolver, SolverConfig, StoerWagnerSolver, ALGORITHM_ALIASES,
};
pub use two_respect::{
    two_respect_mincut, two_respect_mincut_reusing, two_respect_mincut_with, ExecMode, RespectKind,
    TwoRespectCut,
};
pub use workspace::{
    CancelToken, PoolStats, PooledWorkspace, SolverWorkspace, TreeArena, WorkspacePool,
};

/// Minimum edge count of the working graph before the per-tree loop fans
/// out across OS workers; below it, thread spawn/join overhead outweighs
/// the `Θ(log n)` independent two-respect searches. The gate is evaluated
/// on the graph the searches actually run on (the certificate-sparsified
/// graph when the certificate applies).
pub const PAR_TREES_MIN_EDGES: usize = 256;

/// Fan-out width of the per-tree loop: the explicit
/// [`MinCutConfig::threads`] budget when set, otherwise the ambient rayon
/// thread budget (the width of an installed pool, or the machine's
/// parallelism outside any pool), clamped by the tree count and the
/// [`PAR_TREES_MIN_EDGES`] small-input gate.
fn tree_loop_workers(ntrees: usize, m: usize, threads: Option<usize>) -> usize {
    if ntrees < 2 || m < PAR_TREES_MIN_EDGES {
        return 1;
    }
    threads
        .unwrap_or_else(rayon::current_num_threads)
        .clamp(1, ntrees)
}

/// Runs the Lemma 13 two-respect search on `g` over the trees
/// `trees[indices[k]]`, returning the cuts in `indices` order. The loop
/// fans across [`tree_loop_workers`] OS workers, each owning one
/// [`TreeArena`] of `arenas` (grown to that width), so rooting and the
/// batch engine run on recycled buffers; each tree's cut is independent of
/// its arena's history, so results are bit-identical at every width.
/// `cancel` is polled before each tree: once it trips, the remaining trees
/// are skipped and the loop answers [`PmcError::Cancelled`].
///
/// With a `bound` no cut can fall below (a lower bound on `g`'s minimum
/// cut), the loop stops at the first tree whose cut meets it and returns
/// the cuts up to that tree: a prefix that is the same at every width
/// ([`pmc_par::fanout_units_until`]). Each tree's search takes the bound
/// too, and skips its bough cascade when its best 1-respecting cut meets
/// it.
fn sweep_trees(
    g: &Graph,
    trees: &PackedTreeList,
    indices: &[usize],
    arenas: &mut Vec<TreeArena>,
    threads: Option<usize>,
    cancel: Option<&CancelToken>,
    bound: Option<u64>,
) -> Result<Vec<TwoRespectCut>, PmcError> {
    let workers = tree_loop_workers(indices.len(), g.m(), threads);
    if arenas.len() < workers {
        arenas.resize_with(workers, TreeArena::default);
    }
    let bound = bound.map(|b| i64::try_from(b).unwrap_or(i64::MAX));
    let meets_bound = |cut: &Option<TwoRespectCut>| {
        cut.as_ref()
            .zip(bound)
            .is_some_and(|(cut, b)| cut.value <= b)
    };
    pmc_par::fanout_units_until(
        &mut arenas[..workers],
        indices.len(),
        |arena, k| {
            if cancel.is_some_and(|c| c.expired()) {
                return None;
            }
            let TreeArena { root, batch } = arena;
            root.rebuild(g, &trees[indices[k]], 0);
            let cut = two_respect::two_respect_mincut_bounded(g, root.tree(), batch, bound);
            debug_assert!(
                bound.is_none_or(|b| cut.value >= b),
                "tree cut {} is below the packing's lower bound {bound:?}",
                cut.value
            );
            Some(cut)
        },
        meets_bound,
    )
    .into_iter()
    .collect::<Option<Vec<_>>>()
    .ok_or(PmcError::Cancelled)
}

/// The answer from per-tree cuts `(value, side, kind)` given in tree
/// order: the smallest under the deterministic `(value, tree index)`
/// order.
///
/// # Panics
/// Panics if `cuts` is empty, or, with `verify`, if the winner's side is
/// not a proper cut of `g` of the winner's value.
fn best_tree_cut<'a>(
    g: &Graph,
    cuts: impl Iterator<Item = (i64, &'a [bool], RespectKind)>,
    verify: bool,
) -> MinCutResult {
    let (ti, (value, side, kind)) = cuts
        .enumerate()
        .min_by_key(|&(i, (value, _, _))| (value, i))
        .expect("packing returned no trees");
    let value = value as u64;
    if verify {
        assert!(g.is_proper_cut(side), "witness is not a proper cut");
        let check = g.cut_value(side);
        assert_eq!(
            check, value,
            "internal error: witness value {check} != reported {value}"
        );
    }
    MinCutResult {
        value,
        side: side.to_vec(),
        algorithm: "paper",
        kind: Some(kind),
        tree_index: Some(ti),
    }
}

/// Configuration for [`minimum_cut`].
#[derive(Clone, Debug)]
pub struct MinCutConfig {
    /// Seed for all randomness (sampling, packing, tree selection).
    pub seed: u64,
    /// Worker budget of the per-tree fan-out; `None` follows the ambient
    /// rayon thread budget. Never affects results, only scheduling.
    pub threads: Option<usize>,
    /// Tree-packing configuration (Lemma 1 constants).
    pub packing: PackingConfig,
    /// Verify the witness partition against the reported value
    /// (cheap: one parallel pass over the edges) and panic on mismatch.
    pub verify: bool,
    /// Sparsify dense inputs with a Nagamochi–Ibaraki certificate at
    /// `k = min weighted degree + 1` before packing. Exact: with `k` above
    /// the minimum cut, the certificate preserves every minimum cut's value
    /// and its witness sides (see `pmc_graph::mincut_certificate` for why
    /// the `+ 1` matters). Only applied when it actually shrinks the graph.
    pub use_certificate: bool,
}

impl Default for MinCutConfig {
    fn default() -> Self {
        MinCutConfig {
            seed: 0xC0FFEE,
            threads: None,
            packing: PackingConfig::default(),
            verify: true,
            use_certificate: true,
        }
    }
}

/// Result of [`minimum_cut`] and of every [`MinCutSolver`].
#[derive(Clone, Debug)]
pub struct MinCutResult {
    /// The minimum cut value (0 for disconnected graphs).
    pub value: u64,
    /// One side of the witness bipartition (`side[v] == true` for one
    /// part); always a proper cut.
    pub side: Vec<bool>,
    /// Registry name of the algorithm that produced the result.
    pub algorithm: &'static str,
    /// Which structural case produced the winning cut, for the
    /// tree-respecting algorithms ([`None`] for the other baselines).
    pub kind: Option<RespectKind>,
    /// Index (within the packing) of the winning spanning tree, when the
    /// cut came from the 2-respect search.
    pub tree_index: Option<usize>,
}

impl MinCutResult {
    /// The two vertex sets of the partition.
    pub fn partition(&self) -> (Vec<u32>, Vec<u32>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (v, &s) in self.side.iter().enumerate() {
            if s {
                a.push(v as u32);
            } else {
                b.push(v as u32);
            }
        }
        (a, b)
    }

    /// Edge ids of `g` crossing the cut (the minimum "failure set").
    /// Edge lists below the `pmc-par` sequential threshold take a plain
    /// loop — no task spawning for tiny graphs.
    ///
    /// # Panics
    /// Panics if `g` is not the graph this result was computed for
    /// (detected via vertex count).
    pub fn crossing_edges(&self, g: &Graph) -> Vec<u32> {
        assert_eq!(g.n(), self.side.len());
        let crosses = |e: &pmc_graph::Edge| self.side[e.u as usize] != self.side[e.v as usize];
        if g.m() <= pmc_par::SEQ_THRESHOLD {
            return g
                .edges()
                .iter()
                .enumerate()
                .filter_map(|(i, e)| crosses(e).then_some(i as u32))
                .collect();
        }
        g.edges()
            .par_iter()
            .enumerate()
            .filter_map(|(i, e)| crosses(e).then_some(i as u32))
            .collect()
    }
}

/// Diagnostics from a [`minimum_cut_report`] run: what each pipeline stage
/// did and how long it took. All times are wall-clock.
#[derive(Clone, Debug, Default)]
pub struct MinCutReport {
    /// Whether the Nagamochi–Ibaraki certificate preprocessing kicked in.
    pub certificate_applied: bool,
    /// Fraction of the total weight the certificate kept (1.0 if skipped).
    pub certificate_kept: f64,
    /// Sampling rate of the accepted skeleton.
    pub skeleton_p: f64,
    /// Estimated packing value `P` of the skeleton. It is `Θ(log n)` by
    /// design only on a sampled skeleton (`p < 1`); at `p = 1` it is the
    /// packed graph's own packing value after the rounds run: between
    /// `λ / 2` and `λ` for a full run, but a run certified after a few
    /// rounds reports its prefix's value, which can sit far below `λ / 2`
    /// (a run certified at round 1 reports its one tree's lightest
    /// multiplicity).
    pub packing_value: f64,
    /// The packing's proven lower bound on the minimum cut, computed
    /// exactly: `max(⌈P⌉, B)` on the full skeleton, with `B` the floor
    /// `min(lightest bridge, w₁ + w₂)`, and `⌈P⌉` on a sampled one; `λ`
    /// itself when the packing certified (0 when the pipeline shortcut
    /// around the packing).
    pub lower_bound: u64,
    /// Whether the packing certified its answer
    /// ([`TreePacking::certified`](pmc_packing::TreePacking::certified)):
    /// it proved `λ = lower_bound`, kept the one tree whose 1-respecting
    /// cut meets it, and handed out that cut, which is the answer. No tree
    /// is swept again, no bough cascade is built and no Minimum Path
    /// operation runs; the one tree counts as examined.
    pub certified: bool,
    /// Distinct trees in the full greedy packing.
    pub distinct_trees: usize,
    /// Trees the packing selected for the 2-respect search.
    pub trees_selected: usize,
    /// Trees whose cut the answer was chosen from: the certified packing's
    /// one tree, or the selected trees the 2-respect search swept, up to
    /// and including the first whose cut met [`MinCutReport::lower_bound`],
    /// or every selected tree. The same at every worker count.
    pub trees_examined: usize,
    /// Bough phases of the winning tree's cascade (0 when its search
    /// stopped at a 1-respecting cut that met the lower bound).
    pub phases: u32,
    /// Total Minimum Path operations generated across the swept trees and
    /// their phases.
    pub batch_ops_total: u64,
    /// Time spent in certificate preprocessing.
    pub t_certificate: std::time::Duration,
    /// Time spent in tree packing (Lemma 1).
    pub t_packing: std::time::Duration,
    /// Time spent in the per-tree 2-respect searches (Lemma 13).
    pub t_two_respect: std::time::Duration,
}

/// What one run of the pipeline built: the answer, the stage report, the
/// packed trees, and the cuts of the answered trees in tree order (all of
/// them without the early stop; a certified packing's one tree has the
/// packing's cut). Both are empty for the shortcut answers.
struct Solved {
    result: MinCutResult,
    report: MinCutReport,
    trees: PackedTreeList,
    cuts: Vec<TwoRespectCut>,
}

/// The paper's pipeline (Theorem 10), in the stage order of the crate
/// docs, on the arenas of `ws`: the certificate is built into
/// `ws.cert_graph`, the packing runs on `ws.packing`, the per-tree loop on
/// `ws.trees`. The token installed on `ws` is polled before the
/// certificate, before the packing, and before each tree's sweep. A
/// certified packing is answered by its cut. Otherwise, with
/// `stop_at_bound` the per-tree loop stops at the first tree whose cut
/// meets the packing's lower bound; without it every tree is swept.
fn solve_pipeline(
    g: &Graph,
    cfg: &MinCutConfig,
    ws: &mut SolverWorkspace,
    stop_at_bound: bool,
) -> Result<Solved, PmcError> {
    let n = g.n();
    if n < 2 {
        return Err(PmcError::TooSmall);
    }
    let mut report = MinCutReport {
        certificate_kept: 1.0,
        ..MinCutReport::default()
    };

    // A disconnected graph has a 0-valued cut along any component; two
    // vertices have exactly one cut.
    let (labels, ncomp) = connected_components(g);
    let shortcut = if ncomp > 1 {
        Some((0, labels.iter().map(|&l| l == labels[0]).collect()))
    } else {
        (n == 2).then(|| (g.total_weight(), vec![true, false]))
    };
    if let Some((value, side)) = shortcut {
        let result = MinCutResult {
            value,
            side,
            algorithm: "paper",
            kind: Some(RespectKind::One),
            tree_index: None,
        };
        return Ok(Solved {
            result,
            report,
            trees: PackedTreeList::empty(),
            cuts: Vec::new(),
        });
    }

    // Split the borrow: the certificate graph is read while the rest of
    // the workspace keeps feeding the pipeline mutably.
    let SolverWorkspace {
        cert,
        cert_graph,
        packing: pack_ws,
        trees: arenas,
        cancel,
        ..
    } = ws;
    let cancel = cancel.as_deref();
    let expired = || cancel.is_some_and(|c| c.expired());
    // A request whose deadline passed while queued does not start.
    if expired() {
        return Err(PmcError::Cancelled);
    }

    // The certificate at k = min degree + 1 preserves every minimum cut
    // and its witness sides, so the rest of the pipeline runs on it
    // verbatim (sides are vertex sets).
    let t0 = Instant::now();
    let certified = if cfg.use_certificate {
        let out =
            cert_graph.get_or_insert_with(|| Graph::from_edges(1, &[]).expect("placeholder graph"));
        pmc_graph::mincut_certificate_with(g, cert, out)
    } else {
        None
    };
    report.t_certificate = t0.elapsed();
    let work_graph: &Graph = match certified {
        Some((_, kept)) => {
            report.certificate_applied = true;
            report.certificate_kept = kept;
            cert_graph.as_ref().expect("certificate arena initialized")
        }
        None => g,
    };
    if expired() {
        return Err(PmcError::Cancelled);
    }

    // Lemma 1: O(log n) candidate trees.
    let t0 = Instant::now();
    let mut pcfg = cfg.packing.clone();
    pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
    let packing = pack_trees_with(work_graph, &pcfg, pack_ws);
    report.t_packing = t0.elapsed();
    report.skeleton_p = packing.skeleton_p;
    report.packing_value = packing.packing_value;
    report.lower_bound = packing.cut_lower_bound;
    report.certified = packing.certified.is_some();
    report.distinct_trees = packing.distinct_trees;
    report.trees_selected = packing.trees.len();

    // A certified packing's one tree is answered by the cut that certified
    // it, the cut its full search returns. Otherwise Lemma 13 runs tree by
    // tree, up to the first cut that meets the lower bound; the smallest
    // (value, tree index) wins.
    let t0 = Instant::now();
    let cuts = match packing.certified {
        Some(cut) => vec![TwoRespectCut {
            value: i64::try_from(cut.value).expect("a cut fits in i64"),
            side: cut.side,
            kind: RespectKind::One,
            phases: 0,
            batch_ops: 0,
        }],
        None => {
            let every_tree: Vec<usize> = (0..packing.trees.len()).collect();
            sweep_trees(
                work_graph,
                &packing.trees,
                &every_tree,
                arenas,
                cfg.threads,
                cancel,
                stop_at_bound.then_some(packing.cut_lower_bound),
            )?
        }
    };
    report.t_two_respect = t0.elapsed();
    report.trees_examined = cuts.len();
    report.batch_ops_total = cuts.iter().map(|c| c.batch_ops).sum();
    let per_tree = cuts.iter().map(|c| (c.value, &c.side[..], c.kind));
    let result = best_tree_cut(g, per_tree, cfg.verify);
    report.phases = cuts[result.tree_index.expect("a tree cut")].phases;
    Ok(Solved {
        result,
        report,
        trees: packing.trees,
        cuts,
    })
}

/// Computes a minimum cut of `g` (Theorem 10) on a fresh
/// [`SolverWorkspace`]. Monte Carlo: the result is a true minimum cut with
/// high probability; the returned partition always *is* a cut of the
/// returned value (verified when `cfg.verify`).
pub fn minimum_cut(g: &Graph, cfg: &MinCutConfig) -> Result<MinCutResult, PmcError> {
    minimum_cut_with(g, cfg, &mut SolverWorkspace::new())
}

/// Computes a minimum cut of `g` (Theorem 10) with all per-call working
/// memory drawn from a reusable [`SolverWorkspace`]: the certificate sweep
/// and its output graph, the greedy packing buffers, the rooted-tree
/// rebuild arenas and the batch engine's scratch are recycled across
/// calls. Identical results for identical `(g, cfg)`, whatever the
/// workspace served before.
///
/// The stages run in the order of the crate docs: shortcuts, the
/// Nagamochi–Ibaraki certificate (when `cfg.use_certificate` and it
/// shrinks the graph), the Lemma 1 packing and its lower bound, the
/// Lemma 13 search tree by tree in index order, then the smallest
/// `(value, tree index)` wins. The search stops at the first tree whose
/// cut equals the bound: that cut is proven minimum, and no later tree
/// can beat its index, so the answer (value, witness, kind and tree
/// index) is the one a sweep of every tree gives. When the packing
/// certifies `λ` (its bound meets a tree's lightest 1-respecting cut) it
/// stops early, keeps one tree and hands out that tree's lightest
/// 1-respecting cut, which is the answer: no tree is rooted or swept
/// again, no bough cascade, no Minimum Path operation. The per-tree
/// searches fan out across OS workers — one [`TreeArena`] per worker — up to
/// `cfg.threads` or the ambient rayon thread budget; small inputs run the
/// same loop on one worker. Results are bit-identical at every width.
/// A [`CancelToken`] installed on `ws` is polled before the certificate,
/// before the packing and before each swept tree, and answers
/// [`PmcError::Cancelled`] once it trips.
pub fn minimum_cut_with(
    g: &Graph,
    cfg: &MinCutConfig,
    ws: &mut SolverWorkspace,
) -> Result<MinCutResult, PmcError> {
    solve_pipeline(g, cfg, ws, true).map(|s| s.result)
}

/// [`minimum_cut`] plus a stage-by-stage [`MinCutReport`] with timings and
/// pipeline statistics.
pub fn minimum_cut_report(
    g: &Graph,
    cfg: &MinCutConfig,
) -> Result<(MinCutResult, MinCutReport), PmcError> {
    solve_pipeline(g, cfg, &mut SolverWorkspace::new(), true).map(|s| (s.result, s.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_baseline::stoer_wagner;
    use pmc_graph::gen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_single_vertex() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(matches!(
            minimum_cut(&g, &MinCutConfig::default()),
            Err(PmcError::TooSmall)
        ));
    }

    #[test]
    fn disconnected_graph() {
        let g = Graph::from_edges(5, &[(0, 1, 3), (2, 3, 2), (3, 4, 2)]).unwrap();
        let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(cut.value, 0);
        assert!(g.is_proper_cut(&cut.side));
        assert_eq!(g.cut_value(&cut.side), 0);
    }

    #[test]
    fn two_vertices() {
        let g = Graph::from_edges(2, &[(0, 1, 9)]).unwrap();
        assert_eq!(minimum_cut(&g, &MinCutConfig::default()).unwrap().value, 9);
    }

    #[test]
    fn planted_bisection_recovered() {
        for seed in 0..5 {
            let (g, value, side) = gen::planted_bisection(20, 25, 30, 3, 10, seed);
            let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
            assert_eq!(cut.value, value, "seed {seed}");
            let same = cut.side == side;
            let comp = cut.side.iter().zip(&side).all(|(a, b)| a != b);
            assert!(same || comp, "wrong partition, seed {seed}");
        }
    }

    #[test]
    fn matches_stoer_wagner_many_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(61);
        for trial in 0..40 {
            let n = rng.gen_range(3..60);
            let m = rng.gen_range(n - 1..5 * n);
            let g = gen::gnm_connected(n, m, 10, 500 + trial);
            let want = stoer_wagner(&g).unwrap().value;
            let cfg = MinCutConfig {
                seed: trial,
                ..MinCutConfig::default()
            };
            let got = minimum_cut(&g, &cfg).unwrap();
            assert_eq!(got.value, want, "trial {trial} (n={n}, m={m})");
        }
    }

    #[test]
    fn barbell_cut_is_one() {
        let g = gen::barbell(8);
        let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(cut.value, 1);
    }

    #[test]
    fn grid_graph() {
        let g = gen::grid(6, 6);
        let want = stoer_wagner(&g).unwrap().value;
        let got = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        assert_eq!(got.value, want); // corner degree = 2
    }

    #[test]
    fn cycle_min_cut_two() {
        let g = gen::cycle_with_chords(64, 0, 0);
        assert_eq!(minimum_cut(&g, &MinCutConfig::default()).unwrap().value, 2);
    }

    #[test]
    fn partition_accessor() {
        let g = gen::barbell(4);
        let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        let (a, b) = cut.partition();
        assert_eq!(a.len() + b.len(), 8);
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn report_is_coherent() {
        // This graph's packing certifies its answer: one tree, swept by its
        // 1-respecting cuts alone.
        let g = gen::gnm_connected(80, 240, 9, 55);
        let (cut, report) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
        assert!(g.is_proper_cut(&cut.side));
        assert!(report.certified);
        assert_eq!(cut.value, report.lower_bound);
        assert_eq!(cut.kind, Some(RespectKind::One));
        let swept = (report.trees_selected, report.trees_examined);
        assert_eq!(
            (swept, report.phases, report.batch_ops_total),
            ((1, 1), 0, 0)
        );
        // A torus packs at about λ / 2, so its bound does not close and the
        // batch engine runs.
        let g = gen::torus(8, 10);
        let (cut, report) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
        assert!(!report.certified);
        assert!(g.is_proper_cut(&cut.side));
        assert!(report.trees_examined >= 1);
        assert!(report.distinct_trees >= report.trees_examined);
        assert!(report.trees_selected >= report.trees_examined);
        assert!(report.lower_bound >= 1 && report.lower_bound <= cut.value);
        assert!(report.phases >= 1);
        assert!(report.batch_ops_total > 0);
        assert!(report.packing_value > 0.0);
        if report.certificate_applied {
            assert!(report.certificate_kept < 0.75);
        }
        // Lemma 12 budget: O(m log n) ops per tree.
        let log2n = 7u64; // log2(80) ≈ 6.3
        let budget = report.trees_examined as u64 * 8 * g.m() as u64 * log2n;
        assert!(report.batch_ops_total <= budget);
    }

    #[test]
    fn certified_solve_roots_no_tree() {
        // The packing certifies this graph (see `report_is_coherent`), so
        // its cut is the answer and the per-tree loop never runs: no
        // worker arena is made.
        let g = gen::gnm_connected(80, 240, 9, 55);
        let mut ws = SolverWorkspace::new();
        let cut = minimum_cut_with(&g, &MinCutConfig::default(), &mut ws).unwrap();
        assert_eq!(cut.kind, Some(RespectKind::One));
        assert!(ws.trees.is_empty(), "{} tree arenas", ws.trees.len());
    }

    #[test]
    fn certificate_preprocessing_is_exact() {
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..10 {
            // Dense graphs with a weak spot: certificate kicks in.
            let n = rng.gen_range(20..50);
            let dense = gen::complete(n, 4, 800 + trial);
            let mut edges: Vec<(u32, u32, u64)> =
                dense.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
            edges.push((0, n as u32, 2));
            let g = Graph::from_edges(n + 1, &edges).unwrap();
            let with = minimum_cut(&g, &MinCutConfig::default()).unwrap();
            let without = minimum_cut(
                &g,
                &MinCutConfig {
                    use_certificate: false,
                    ..MinCutConfig::default()
                },
            )
            .unwrap();
            assert_eq!(with.value, 2, "trial {trial}");
            assert_eq!(with.value, without.value);
            assert_eq!(g.cut_value(&with.side), with.value);
        }
    }

    #[test]
    fn crossing_edges_sum_to_value() {
        let g = gen::gnm_connected(40, 120, 7, 12);
        let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
        let crossing = cut.crossing_edges(&g);
        let total: u64 = crossing.iter().map(|&i| g.edges()[i as usize].w).sum();
        assert_eq!(total, cut.value);
    }

    use pmc_graph::Graph;
}
