//! # pmc-core — Parallel Minimum Cuts in Near-linear Work and Low Depth
//!
//! The top-level algorithm of Geissmann & Gianinazzi (SPAA 2018),
//! Theorem 10: a Monte Carlo minimum cut in `O(m log⁴ n)` work and
//! `O(log³ n)` depth.
//!
//! Structure (paper §4):
//! 1. [`pmc_packing::pack_trees`] produces `O(log n)` spanning trees such
//!    that w.h.p. one of them crosses a minimum cut at most twice
//!    (Lemma 1).
//! 2. For each tree, [`two_respect::two_respect_mincut`] finds the smallest
//!    cut crossing at most two of its edges (Lemma 13), using the parallel
//!    Minimum Path batch engine of `pmc-minpath` (§3).
//! 3. The smallest result over all trees is a minimum cut w.h.p.
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
pub mod respect1;
pub mod solver;
pub mod two_respect;
pub mod workspace;

use rayon::prelude::*;

use pmc_graph::{connected_components, Graph};
use pmc_packing::{pack_trees, pack_trees_with, PackingConfig};

pub use dynamic::{
    apply_delta, GraphDelta, MutationOp, ResolveMode, SolveState, DEFAULT_STALENESS,
};
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

/// Runs the Lemma 13 two-respect search over every packed tree, fanned
/// across `arenas.len()` OS workers (sequential when there is one arena),
/// returning the per-tree outcomes in tree order. Each worker owns one
/// [`TreeArena`], so tree rooting and the batch engine run against
/// recycled buffers; results are bit-identical regardless of worker count
/// because every per-tree computation is independent of its arena's
/// history and the output order is fixed.
fn two_respect_all_trees(
    work_graph: &Graph,
    trees: &pmc_packing::PackedTreeList,
    arenas: &mut [TreeArena],
) -> Vec<TwoRespectCut> {
    two_respect_all_trees_cancellable(work_graph, trees, arenas, None)
        .expect("solve without a cancel token cannot be cancelled")
}

/// [`two_respect_all_trees`] with a cooperative cancellation checkpoint
/// before each tree's sweep: a tripped token makes every remaining unit
/// skip its work and the whole loop answer [`PmcError::Cancelled`].
/// Checkpoints are per tree — one sweep is the granularity at which a
/// deadline can interrupt a solve.
fn two_respect_all_trees_cancellable(
    work_graph: &Graph,
    trees: &pmc_packing::PackedTreeList,
    arenas: &mut [TreeArena],
    cancel: Option<&CancelToken>,
) -> Result<Vec<TwoRespectCut>, PmcError> {
    let outcomes = pmc_par::fanout_units(arenas, trees.len(), |arena, i| {
        if cancel.is_some_and(|c| c.expired()) {
            return None;
        }
        let TreeArena { root, batch } = arena;
        root.rebuild(work_graph, &trees[i], 0);
        Some(two_respect_mincut_reusing(work_graph, root.tree(), batch))
    });
    outcomes
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(PmcError::Cancelled)
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
    /// Estimated packing value of the skeleton (Θ(log n) by design).
    pub packing_value: f64,
    /// Distinct trees in the full greedy packing.
    pub distinct_trees: usize,
    /// Trees actually examined by the 2-respect search.
    pub trees_examined: usize,
    /// Bough phases of the winning tree's cascade.
    pub phases: u32,
    /// Total Minimum Path operations generated across all trees/phases.
    pub batch_ops_total: u64,
    /// Time spent in certificate preprocessing.
    pub t_certificate: std::time::Duration,
    /// Time spent in tree packing (Lemma 1).
    pub t_packing: std::time::Duration,
    /// Time spent in the per-tree 2-respect searches (Lemma 13).
    pub t_two_respect: std::time::Duration,
}

/// Computes a minimum cut of `g` (Theorem 10). Monte Carlo: the result is
/// a true minimum cut with high probability; the returned partition always
/// *is* a cut of the returned value (verified when `cfg.verify`).
pub fn minimum_cut(g: &Graph, cfg: &MinCutConfig) -> Result<MinCutResult, PmcError> {
    minimum_cut_report(g, cfg).map(|(r, _)| r)
}

/// [`minimum_cut`] with all per-call working memory drawn from a reusable
/// [`SolverWorkspace`]: the certificate sweep and its output graph, the
/// greedy packing buffers, the rooted-tree rebuild arenas, and the batch
/// engine's scratch are recycled across calls. Identical results for
/// identical `(g, cfg)`.
///
/// The per-tree 2-respect searches fan out across OS workers — one
/// [`TreeArena`] per worker — up to the ambient
/// rayon thread budget (install a pool via [`SolverConfig::threads`] to
/// bound it); small inputs and single-thread budgets run the same loop
/// sequentially through `trees[0]`. Results are bit-identical at every
/// width, so this is simultaneously the amortized serving path and the
/// intra-solve parallel path.
pub fn minimum_cut_with(
    g: &Graph,
    cfg: &MinCutConfig,
    ws: &mut SolverWorkspace,
) -> Result<MinCutResult, PmcError> {
    let n = g.n();
    if n < 2 {
        return Err(PmcError::TooSmall);
    }

    // Disconnected graphs have a 0-valued cut along any component.
    let (labels, ncomp) = connected_components(g);
    if ncomp > 1 {
        let side: Vec<bool> = labels.iter().map(|&l| l == labels[0]).collect();
        return Ok(MinCutResult {
            value: 0,
            side,
            algorithm: "paper",
            kind: Some(RespectKind::One),
            tree_index: None,
        });
    }
    if n == 2 {
        return Ok(MinCutResult {
            value: g.total_weight(),
            side: vec![true, false],
            algorithm: "paper",
            kind: Some(RespectKind::One),
            tree_index: None,
        });
    }

    // First cancellation checkpoint: a request whose deadline passed while
    // queued should not start the pipeline at all.
    if ws.cancel.as_ref().is_some_and(|c| c.expired()) {
        return Err(PmcError::Cancelled);
    }

    // Optional exact sparsification into the workspace's certificate arena.
    let use_cert = cfg.use_certificate && {
        let cert_graph = ws
            .cert_graph
            .get_or_insert_with(|| Graph::from_edges(1, &[]).expect("placeholder graph"));
        pmc_graph::mincut_certificate_with(g, &mut ws.cert, cert_graph).is_some()
    };
    // Split the borrow: the certificate graph is read while the rest of
    // the workspace keeps feeding the pipeline mutably.
    let SolverWorkspace {
        cert_graph,
        packing: pack_ws,
        trees: tree_ws,
        cancel,
        ..
    } = ws;
    let cancel = cancel.as_deref();
    let work_graph: &Graph = if use_cert {
        cert_graph.as_ref().expect("certificate arena initialized")
    } else {
        g
    };

    // Checkpoint between the certificate and the packing stage (the two
    // heaviest stages bracket it).
    if cancel.is_some_and(|c| c.expired()) {
        return Err(PmcError::Cancelled);
    }

    // Lemma 1: O(log n) candidate trees, packed through the reusable arena.
    let mut pcfg = cfg.packing.clone();
    pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
    let packing = pack_trees_with(work_graph, &pcfg, pack_ws);

    // Lemma 13 per tree, fanned across per-worker arenas; deterministic
    // (value, tree index) reduction.
    let workers = tree_loop_workers(packing.trees.len(), work_graph.m(), cfg.threads);
    if tree_ws.len() < workers {
        tree_ws.resize_with(workers, TreeArena::default);
    }
    let outcomes = two_respect_all_trees_cancellable(
        work_graph,
        &packing.trees,
        &mut tree_ws[..workers],
        cancel,
    )?;
    let (ti, best) = outcomes
        .into_iter()
        .enumerate()
        .min_by_key(|(i, c)| (c.value, *i))
        .expect("packing returned no trees");

    let value = best.value as u64;
    if cfg.verify {
        assert!(g.is_proper_cut(&best.side), "witness is not a proper cut");
        let check = g.cut_value(&best.side);
        assert_eq!(
            check, value,
            "internal error: witness value {check} != reported {value}"
        );
    }
    Ok(MinCutResult {
        value,
        side: best.side,
        algorithm: "paper",
        kind: Some(best.kind),
        tree_index: Some(ti),
    })
}

/// Incremental re-solve entry point: applies one batch of mutation ops to
/// `g`, classifies what each invalidates against the pinned
/// [`SolveState`], and resolves once at the end — the cheapest sound
/// schedule for a multi-op delta (per-op resolution would re-sweep
/// intermediate states nobody observes). On an op error the graph and
/// state may already reflect the *earlier* ops of the batch; callers
/// wanting transactional batches apply ops to a clone (the service does).
/// Returns what the resolve did.
pub fn resolve_delta(
    g: &mut Graph,
    state: &mut SolveState,
    ops: &[MutationOp],
    ws: &mut SolverWorkspace,
    threads: Option<usize>,
) -> Result<ResolveMode, PmcError> {
    for op in ops {
        dynamic::apply_delta(g, state, op).map_err(PmcError::Graph)?;
    }
    state.resolve(g, ws, threads)
}

/// [`minimum_cut`] plus a stage-by-stage [`MinCutReport`] with timings and
/// pipeline statistics.
pub fn minimum_cut_report(
    g: &Graph,
    cfg: &MinCutConfig,
) -> Result<(MinCutResult, MinCutReport), PmcError> {
    let n = g.n();
    if n < 2 {
        return Err(PmcError::TooSmall);
    }

    let mut report = MinCutReport {
        certificate_kept: 1.0,
        ..MinCutReport::default()
    };

    // Disconnected graphs have a 0-valued cut along any component.
    let (labels, ncomp) = connected_components(g);
    if ncomp > 1 {
        let side: Vec<bool> = labels.iter().map(|&l| l == labels[0]).collect();
        return Ok((
            MinCutResult {
                value: 0,
                side,
                algorithm: "paper",
                kind: Some(RespectKind::One),
                tree_index: None,
            },
            report,
        ));
    }
    if n == 2 {
        let side = vec![true, false];
        return Ok((
            MinCutResult {
                value: g.total_weight(),
                side,
                algorithm: "paper",
                kind: Some(RespectKind::One),
                tree_index: None,
            },
            report,
        ));
    }

    // Optional exact sparsification: the NI certificate (at k = min degree
    // + 1) preserves every minimum cut and its witnesses, so the rest of
    // the pipeline may run on it verbatim (sides are vertex sets).
    let t0 = std::time::Instant::now();
    let certificate = if cfg.use_certificate {
        pmc_graph::certificate::mincut_certificate(g)
    } else {
        None
    };
    report.t_certificate = t0.elapsed();
    if let Some(c) = &certificate {
        report.certificate_applied = true;
        report.certificate_kept = c.kept_fraction;
    }
    let work_graph: &Graph = certificate.as_ref().map_or(g, |c| &c.graph);

    // Lemma 1: O(log n) candidate trees.
    let t0 = std::time::Instant::now();
    let mut pcfg = cfg.packing.clone();
    pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
    let packing = pack_trees(work_graph, &pcfg);
    report.t_packing = t0.elapsed();
    report.skeleton_p = packing.skeleton_p;
    report.packing_value = packing.packing_value;
    report.distinct_trees = packing.distinct_trees;
    report.trees_examined = packing.trees.len();

    // Lemma 13 per tree, fanned across OS workers with per-worker arenas;
    // keep the best under the deterministic (value, tree index) order.
    let t0 = std::time::Instant::now();
    let workers = tree_loop_workers(packing.trees.len(), work_graph.m(), cfg.threads);
    let mut arenas: Vec<TreeArena> = Vec::new();
    arenas.resize_with(workers, TreeArena::default);
    let outcomes = two_respect_all_trees(work_graph, &packing.trees, &mut arenas);
    report.t_two_respect = t0.elapsed();
    report.batch_ops_total = outcomes.iter().map(|c| c.batch_ops).sum();
    let (ti, best) = outcomes
        .into_iter()
        .enumerate()
        .min_by_key(|(i, c)| (c.value, *i))
        .expect("packing returned no trees");
    report.phases = best.phases;

    let value = best.value as u64;
    if cfg.verify {
        assert!(g.is_proper_cut(&best.side), "witness is not a proper cut");
        let check = g.cut_value(&best.side);
        assert_eq!(
            check, value,
            "internal error: witness value {check} != reported {value}"
        );
    }
    Ok((
        MinCutResult {
            value,
            side: best.side,
            algorithm: "paper",
            kind: Some(best.kind),
            tree_index: Some(ti),
        },
        report,
    ))
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
        let g = gen::gnm_connected(80, 240, 9, 55);
        let (cut, report) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
        assert!(g.is_proper_cut(&cut.side));
        assert!(report.trees_examined >= 1);
        assert!(report.distinct_trees >= report.trees_examined);
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
