//! The unified minimum-cut engine layer.
//!
//! Every minimum-cut algorithm in the workspace — the paper's parallel
//! algorithm (Theorem 10) and all four baselines — implements one trait,
//! [`MinCutSolver`], takes one configuration type, [`SolverConfig`], and
//! reports failures through one error enum,
//! [`PmcError`]. Consumers (the `pmc` CLI, the
//! benchmark harness, integration tests) dispatch through this seam and
//! never name a concrete algorithm function.
//!
//! Solvers are looked up by registry name via [`solver_by_name`]:
//!
//! | name        | aliases          | algorithm                                        |
//! |-------------|------------------|--------------------------------------------------|
//! | `paper`     | `gg`, `ours`     | Geissmann–Gianinazzi parallel min-cut (Thm. 10)  |
//! | `sw`        | `stoer-wagner`   | Stoer–Wagner, deterministic `O(n³)` oracle       |
//! | `contract`  | `karger-stein`   | Karger–Stein recursive contraction               |
//! | `quadratic` | `karger-parallel`| dense 2-respect DP over a tree packing           |
//! | `brute`     | —                | exhaustive bipartition enumeration (`n ≤ 24`)    |

use pmc_baseline::{
    brute_force_min_cut, karger_stein, quadratic_two_respect, stoer_wagner, stoer_wagner_ws, Cut,
};
use pmc_graph::{Graph, PmcError};
use pmc_packing::{pack_trees, rooted_tree_from_edges, PackingConfig};

use crate::workspace::{SolverWorkspace, WorkspacePool};
use crate::{minimum_cut, minimum_cut_with, MinCutConfig, MinCutResult};

/// Algorithm-independent solver configuration.
///
/// Each solver interprets the fields it can honor and ignores the rest
/// (documented per implementation): a deterministic solver ignores `seed`,
/// a sequential one ignores `threads`.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Seed for all randomness (sampling, packing, tree selection,
    /// contraction order).
    pub seed: u64,
    /// Number of spanning trees the tree-packing algorithms examine;
    /// `None` = the Lemma 1 default of `Θ(log n)`.
    pub trees: Option<usize>,
    /// Worker budget of the fan-out on [`pmc_par::fanout_units`]: the
    /// paper solver's per-tree loop, and the batch of
    /// [`MinCutSolver::solve_batch_pooled`]. `None` = the machine's
    /// available parallelism. Never affects results, only scheduling.
    pub threads: Option<usize>,
    /// Target failure probability `δ` of the Monte Carlo solvers: the
    /// repetition budget is scaled so the returned cut is minimum with
    /// probability at least `1 − δ`. Deterministic solvers ignore it.
    pub failure_probability: f64,
    /// Check the witness partition against the reported value before
    /// returning (one pass over the edges).
    pub verify: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            seed: 0xC0FFEE,
            trees: None,
            threads: None,
            failure_probability: 1e-3,
            verify: true,
        }
    }
}

impl SolverConfig {
    /// A config differing from the default only in its `seed` — the common
    /// case in tests and experiment sweeps.
    pub fn with_seed(seed: u64) -> Self {
        SolverConfig {
            seed,
            ..SolverConfig::default()
        }
    }

    fn validate(&self) -> Result<(), PmcError> {
        if !(self.failure_probability > 0.0 && self.failure_probability < 1.0) {
            return Err(PmcError::InvalidConfig(format!(
                "failure_probability must be in (0, 1), got {}",
                self.failure_probability
            )));
        }
        if self.threads == Some(0) {
            return Err(PmcError::InvalidConfig("threads must be >= 1".into()));
        }
        if self.trees == Some(0) {
            return Err(PmcError::InvalidConfig("trees must be >= 1".into()));
        }
        Ok(())
    }

    /// Repetitions needed so `reps` independent trials, each succeeding
    /// with probability `>= p_success`, all fail with probability `<= δ`.
    fn repetitions(&self, p_success: f64) -> usize {
        let delta = self.failure_probability;
        ((-delta.ln()) / p_success).ceil().max(1.0) as usize
    }
}

/// A minimum-cut algorithm behind the uniform dispatch seam.
///
/// Implementations must be stateless (all run-to-run variation comes from
/// the [`SolverConfig`]), so a solver value can be shared freely and two
/// calls with equal inputs return equal cut values.
///
/// # Examples
///
/// Dispatch by registry name:
///
/// ```
/// use pmc_core::{solver_by_name, SolverConfig};
/// use pmc_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1, 3), (1, 2, 1), (2, 3, 3), (3, 0, 2)]).unwrap();
/// let solver = solver_by_name("sw").unwrap();
/// let cut = solver.solve(&g, &SolverConfig::default()).unwrap();
/// assert_eq!(cut.value, 3); // cheapest pair of cycle edges: 1 + 2
/// assert_eq!(cut.algorithm, "sw");
/// ```
///
/// Every registered solver agrees on the cut value:
///
/// ```
/// use pmc_core::{solver_by_name, solvers, SolverConfig};
/// use pmc_graph::gen;
///
/// let g = gen::gnm_connected(14, 30, 6, 7);
/// let cfg = SolverConfig::with_seed(1);
/// let want = solver_by_name("sw").unwrap().solve(&g, &cfg).unwrap().value;
/// for solver in solvers() {
///     assert_eq!(solver.solve(&g, &cfg).unwrap().value, want, "{}", solver.name());
/// }
/// ```
pub trait MinCutSolver: Send + Sync {
    /// Registry name (stable, lowercase; used by `pmc mincut --algo`).
    fn name(&self) -> &'static str;

    /// One-line human description for `--help` output and tables.
    fn description(&self) -> &'static str;

    /// Whether this solver can run on `g` at all (structural capability,
    /// not expected success probability). The default is unconditional;
    /// solvers with hard input bounds — brute force's enumeration limit —
    /// override it so corpus sweeps can skip inapplicable cells instead of
    /// tripping over [`PmcError::Unsupported`].
    fn supports(&self, g: &Graph) -> bool {
        let _ = g;
        true
    }

    /// Computes a minimum cut of `g` under `cfg`.
    ///
    /// The returned partition is always a proper cut whose value matches
    /// `value` (enforced when `cfg.verify`); for Monte Carlo solvers it is
    /// a *minimum* cut with probability `>= 1 − cfg.failure_probability`.
    fn solve(&self, g: &Graph, cfg: &SolverConfig) -> Result<MinCutResult, PmcError>;

    /// [`solve`](MinCutSolver::solve) with per-call working memory drawn
    /// from a reusable [`SolverWorkspace`] — the amortized path for
    /// repeated solves. Always returns the same result as `solve` for the
    /// same `(g, cfg)`; the default implementation simply ignores the
    /// workspace, and solvers with a real arena implementation (the paper
    /// algorithm, Stoer–Wagner) override it.
    ///
    /// ```
    /// use pmc_core::{solver_by_name, SolverConfig, SolverWorkspace};
    /// use pmc_graph::gen;
    ///
    /// let solver = solver_by_name("sw").unwrap();
    /// let cfg = SolverConfig::default();
    /// let mut ws = SolverWorkspace::new();
    /// for seed in 0..4 {
    ///     let g = gen::gnm_connected(20, 50, 6, seed);
    ///     let amortized = solver.solve_with(&g, &cfg, &mut ws).unwrap();
    ///     assert_eq!(amortized.value, solver.solve(&g, &cfg).unwrap().value);
    /// }
    /// ```
    fn solve_with(
        &self,
        g: &Graph,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MinCutResult, PmcError> {
        let _ = ws;
        self.solve(g, cfg)
    }

    /// Solves every graph in `graphs`, reusing one workspace across the
    /// whole batch — the serving-loop entry point. Equivalent to calling
    /// [`solve`](MinCutSolver::solve) on each graph in order (results come
    /// back in input order; the first error aborts the batch).
    ///
    /// ```
    /// use pmc_core::{solver_by_name, SolverConfig};
    /// use pmc_graph::gen;
    ///
    /// let solver = solver_by_name("paper").unwrap();
    /// let cfg = SolverConfig::default();
    /// let graphs: Vec<_> = (0..3).map(|s| gen::gnm_connected(18, 40, 5, s)).collect();
    /// let batch = solver.solve_batch(&graphs, &cfg).unwrap();
    /// assert_eq!(batch.len(), 3);
    /// for (g, r) in graphs.iter().zip(&batch) {
    ///     assert_eq!(r.value, solver.solve(g, &cfg).unwrap().value);
    /// }
    /// ```
    fn solve_batch(
        &self,
        graphs: &[Graph],
        cfg: &SolverConfig,
    ) -> Result<Vec<MinCutResult>, PmcError> {
        let mut ws = SolverWorkspace::new();
        graphs
            .iter()
            .map(|g| self.solve_with(g, cfg, &mut ws))
            .collect()
    }

    /// [`solve_batch`](MinCutSolver::solve_batch) with the batch fanned
    /// across OS workers, each holding a workspace checked out of `pool` —
    /// the parallel serving loop. The worker count is `cfg.threads`
    /// (default: the machine's parallelism), capped by the batch size;
    /// workers solve with an inner thread budget of 1, so batch-level
    /// fan-out is the only level of parallelism. Results come back in
    /// input order and are identical to [`solve`](MinCutSolver::solve)
    /// per graph; if any graph fails, the error of the earliest failing
    /// input is returned.
    ///
    /// ```
    /// use pmc_core::{solver_by_name, SolverConfig, WorkspacePool};
    /// use pmc_graph::gen;
    ///
    /// let solver = solver_by_name("paper").unwrap();
    /// let pool = WorkspacePool::new();
    /// let graphs: Vec<_> = (0..3).map(|s| gen::gnm_connected(18, 40, 5, s)).collect();
    /// let batch = solver
    ///     .solve_batch_pooled(&graphs, &SolverConfig::default(), &pool)
    ///     .unwrap();
    /// for (g, r) in graphs.iter().zip(&batch) {
    ///     assert_eq!(r.value, solver.solve(g, &SolverConfig::default()).unwrap().value);
    /// }
    /// ```
    fn solve_batch_pooled(
        &self,
        graphs: &[Graph],
        cfg: &SolverConfig,
        pool: &WorkspacePool,
    ) -> Result<Vec<MinCutResult>, PmcError> {
        cfg.validate()?;
        let workers = cfg
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
            .clamp(1, graphs.len().max(1));
        if workers == 1 {
            // Sequential batch through one pooled workspace; the inner
            // thread budget stays whatever the caller configured.
            let mut ws = pool.checkout();
            return graphs
                .iter()
                .map(|g| self.solve_with(g, cfg, &mut ws))
                .collect();
        }
        // One level of parallelism: the batch. Inner solves run on one
        // thread each (thread count never changes results).
        let inner_cfg = SolverConfig {
            threads: Some(1),
            ..cfg.clone()
        };
        let mut states: Vec<_> = (0..workers).map(|_| pool.checkout()).collect();
        pmc_par::fanout_units(&mut states, graphs.len(), |ws, i| {
            self.solve_with(&graphs[i], &inner_cfg, ws)
        })
        .into_iter()
        .collect()
    }
}

fn result_from_cut(cut: Cut, algorithm: &'static str) -> MinCutResult {
    MinCutResult {
        value: cut.value,
        side: cut.side,
        algorithm,
        kind: None,
        tree_index: None,
    }
}

/// Checks that `r`'s witness is a proper cut of `g` weighing `r.value`; a
/// mismatch answers [`PmcError::Verification`].
pub(crate) fn verify_result(g: &Graph, r: &MinCutResult) -> Result<(), PmcError> {
    if !g.is_proper_cut(&r.side) {
        return Err(PmcError::Verification {
            algorithm: r.algorithm,
            detail: "witness partition is not a proper cut".into(),
        });
    }
    let check = g.cut_value(&r.side);
    if check != r.value {
        return Err(PmcError::Verification {
            algorithm: r.algorithm,
            detail: format!("witness value {check} != reported {}", r.value),
        });
    }
    Ok(())
}

/// Extra spanning trees to examine beyond the Lemma 1 default, honoring an
/// explicit `trees` override or a tightened `failure_probability`.
///
/// Each extra examined tree is an independent chance (Lemma 1) to
/// 2-constrain the minimum cut, so the default `Θ(log n)` selection widens
/// proportionally to the extra nines requested below the stock `δ = 1e-3`.
fn trees_override(g: &Graph, cfg: &SolverConfig) -> Option<usize> {
    if let Some(t) = cfg.trees {
        Some(t)
    } else if cfg.failure_probability < 1e-3 {
        let n = g.n().max(2) as f64;
        let base = 3.0 * n.log2().ceil() + 3.0;
        let extra = (1e-3f64.ln() / cfg.failure_probability.ln()).recip();
        Some((base * extra.max(1.0)).ceil() as usize)
    } else {
        None
    }
}

/// The uniform zero-value cut every solver must return on a disconnected
/// graph: one whole component versus the rest.
fn disconnected_zero_cut(g: &Graph, algorithm: &'static str) -> Option<MinCutResult> {
    if pmc_graph::is_connected(g) {
        return None;
    }
    let (labels, _) = pmc_graph::connected_components(g);
    let side: Vec<bool> = labels.iter().map(|&l| l == labels[0]).collect();
    Some(MinCutResult {
        value: 0,
        side,
        algorithm,
        kind: None,
        tree_index: None,
    })
}

/// The paper algorithm (Theorem 10): tree packing + 2-respect search.
///
/// Honors every [`SolverConfig`] field. `failure_probability` scales the
/// number of packed trees beyond the Lemma 1 default.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperSolver;

/// Maps the algorithm-independent [`SolverConfig`] onto the paper
/// algorithm's [`MinCutConfig`] — the single translation both the one-shot
/// and amortized entry points use, so `solve_with == solve` by
/// construction.
fn paper_config(g: &Graph, cfg: &SolverConfig) -> MinCutConfig {
    let mut mc = MinCutConfig {
        seed: cfg.seed,
        threads: cfg.threads,
        verify: cfg.verify,
        ..MinCutConfig::default()
    };
    if let Some(t) = trees_override(g, cfg) {
        mc.packing.trees_wanted = t;
    }
    mc
}

impl MinCutSolver for PaperSolver {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn description(&self) -> &'static str {
        "Geissmann-Gianinazzi parallel minimum cut (SPAA 2018, Theorem 10)"
    }

    fn solve(&self, g: &Graph, cfg: &SolverConfig) -> Result<MinCutResult, PmcError> {
        cfg.validate()?;
        minimum_cut(g, &paper_config(g, cfg))
    }

    fn solve_with(
        &self,
        g: &Graph,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MinCutResult, PmcError> {
        cfg.validate()?;
        minimum_cut_with(g, &paper_config(g, cfg), ws)
    }
}

/// Stoer–Wagner: deterministic exact `O(n³)` baseline.
///
/// Ignores `seed`, `trees`, `threads` (sequential) and
/// `failure_probability` (exact).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoerWagnerSolver;

impl MinCutSolver for StoerWagnerSolver {
    fn name(&self) -> &'static str {
        "sw"
    }

    fn description(&self) -> &'static str {
        "Stoer-Wagner deterministic O(n^3) exact minimum cut"
    }

    fn solve(&self, g: &Graph, cfg: &SolverConfig) -> Result<MinCutResult, PmcError> {
        cfg.validate()?;
        let r = result_from_cut(stoer_wagner(g)?, self.name());
        if cfg.verify {
            verify_result(g, &r)?;
        }
        Ok(r)
    }

    fn solve_with(
        &self,
        g: &Graph,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MinCutResult, PmcError> {
        cfg.validate()?;
        let r = result_from_cut(stoer_wagner_ws(g, &mut ws.sw)?, self.name());
        if cfg.verify {
            verify_result(g, &r)?;
        }
        Ok(r)
    }
}

/// Karger–Stein recursive contraction.
///
/// Honors `seed` and `failure_probability` (each run succeeds with
/// probability `Ω(1/log n)`; the repetition count is scaled to reach the
/// requested confidence). Ignores `trees` and `threads` — the baseline is
/// deliberately sequential, with repetitions run in seed order so results
/// are reproducible.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContractionSolver;

impl MinCutSolver for ContractionSolver {
    fn name(&self) -> &'static str {
        "contract"
    }

    fn description(&self) -> &'static str {
        "Karger-Stein recursive contraction (Monte Carlo)"
    }

    fn solve(&self, g: &Graph, cfg: &SolverConfig) -> Result<MinCutResult, PmcError> {
        cfg.validate()?;
        if g.n() < 2 {
            return Err(PmcError::TooSmall);
        }
        if let Some(r) = disconnected_zero_cut(g, self.name()) {
            // Contraction runs out of edges before reaching two super-nodes
            // on a disconnected graph; short-circuit to the uniform 0-cut.
            return Ok(r);
        }
        let n = g.n().max(2) as f64;
        // Success probability per Karger–Stein run: c / log n, with c ~ 1.
        let reps = cfg.repetitions(1.0 / n.log2().max(1.0));
        let r = result_from_cut(karger_stein(g, reps, cfg.seed)?, self.name());
        if cfg.verify {
            verify_result(g, &r)?;
        }
        Ok(r)
    }
}

/// The "best previous polylog-depth" baseline: dense `Θ(n²)` 2-respect DP
/// over the same Lemma 1 tree packing the paper algorithm uses.
///
/// Honors every [`SolverConfig`] field but `threads` (its dense DP runs on
/// the calling thread); `trees` bounds the packing size.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuadraticSolver;

impl MinCutSolver for QuadraticSolver {
    fn name(&self) -> &'static str {
        "quadratic"
    }

    fn description(&self) -> &'static str {
        "dense Theta(n^2) two-respect DP over a tree packing (Karger's parallel baseline)"
    }

    fn solve(&self, g: &Graph, cfg: &SolverConfig) -> Result<MinCutResult, PmcError> {
        cfg.validate()?;
        if g.n() < 2 {
            return Err(PmcError::TooSmall);
        }
        if let Some(r) = disconnected_zero_cut(g, self.name()) {
            // The packing needs a connected graph; a disconnected one has a
            // trivial 0-cut along any component.
            return Ok(r);
        }
        let mut pcfg = PackingConfig {
            seed: cfg.seed,
            ..PackingConfig::default()
        };
        if let Some(t) = trees_override(g, cfg) {
            pcfg.trees_wanted = t;
        }
        let packing = pack_trees(g, &pcfg);
        let (ti, best) = packing
            .trees
            .iter()
            .enumerate()
            .map(|(i, te)| {
                let tree = rooted_tree_from_edges(g, te, 0);
                quadratic_two_respect(g, &tree).map(|c| (i, c))
            })
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .min_by_key(|(i, c)| (c.value, *i))
            .ok_or(PmcError::NoCutFound {
                algorithm: "quadratic",
            })?;
        let mut r = result_from_cut(best, self.name());
        r.tree_index = Some(ti);
        if cfg.verify {
            verify_result(g, &r)?;
        }
        Ok(r)
    }
}

/// Exhaustive bipartition enumeration — the oracle of last resort.
///
/// Exact for `n ≤ 24`; refuses larger inputs with
/// [`PmcError::Unsupported`]. Ignores everything but `verify`; the
/// enumeration runs on the calling thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct BruteSolver;

impl MinCutSolver for BruteSolver {
    fn name(&self) -> &'static str {
        "brute"
    }

    fn description(&self) -> &'static str {
        "exhaustive bipartition enumeration (exact, n <= 24)"
    }

    fn supports(&self, g: &Graph) -> bool {
        g.n() <= pmc_baseline::BRUTE_MAX_N
    }

    fn solve(&self, g: &Graph, cfg: &SolverConfig) -> Result<MinCutResult, PmcError> {
        cfg.validate()?;
        let r = result_from_cut(brute_force_min_cut(g)?, self.name());
        if cfg.verify {
            verify_result(g, &r)?;
        }
        Ok(r)
    }
}

/// All registered solvers, paper algorithm first.
pub fn solvers() -> Vec<Box<dyn MinCutSolver>> {
    vec![
        Box::new(PaperSolver),
        Box::new(StoerWagnerSolver),
        Box::new(ContractionSolver),
        Box::new(QuadraticSolver),
        Box::new(BruteSolver),
    ]
}

/// Registry names of all solvers, in [`solvers`] order.
pub fn solver_names() -> Vec<&'static str> {
    solvers().iter().map(|s| s.name()).collect()
}

/// The registered solvers that [`MinCutSolver::supports`] `g` — the
/// corpus-sweep iteration helper: every solver in the returned set can be
/// run on `g` and compared against the others without special-casing
/// input bounds at the call site.
///
/// ```
/// use pmc_core::{solvers, solvers_for};
/// use pmc_graph::gen;
///
/// let small = gen::gnm_connected(12, 24, 4, 1);
/// assert_eq!(solvers_for(&small).len(), solvers().len());
/// let big = gen::gnm_connected(60, 120, 4, 1);
/// // Brute force refuses n > 24, so the applicable set shrinks by one.
/// assert_eq!(solvers_for(&big).len(), solvers().len() - 1);
/// ```
pub fn solvers_for(g: &Graph) -> Vec<Box<dyn MinCutSolver>> {
    solvers().into_iter().filter(|s| s.supports(g)).collect()
}

/// Registry names with their aliases, in [`solvers`] order — the single
/// source the lookup and its error message are both derived from.
pub const ALGORITHM_ALIASES: &[(&str, &[&str])] = &[
    ("paper", &["gg", "ours"]),
    ("sw", &["stoer-wagner", "stoer_wagner"]),
    ("contract", &["karger-stein", "karger_stein", "ks"]),
    ("quadratic", &["karger-parallel"]),
    ("brute", &[]),
];

/// Human-readable listing of every registry name and alias, used in the
/// [`PmcError::UnknownAlgorithm`] message so a typo'd `--algo` is
/// self-correcting.
fn registry_listing() -> String {
    ALGORITHM_ALIASES
        .iter()
        .map(|(name, aliases)| {
            if aliases.is_empty() {
                (*name).to_string()
            } else {
                format!("{name} (aliases: {})", aliases.join(", "))
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Looks up a solver by registry name or alias (case-insensitive). The
/// error for an unknown name lists every valid name and alias.
///
/// ```
/// use pmc_core::solver_by_name;
///
/// assert_eq!(solver_by_name("stoer-wagner").unwrap().name(), "sw");
/// let err = solver_by_name("nope").err().unwrap().to_string();
/// assert!(err.contains("nope") && err.contains("paper") && err.contains("karger-stein"));
/// ```
pub fn solver_by_name(name: &str) -> Result<Box<dyn MinCutSolver>, PmcError> {
    match name.to_ascii_lowercase().as_str() {
        "paper" | "gg" | "ours" => Ok(Box::new(PaperSolver)),
        "sw" | "stoer-wagner" | "stoer_wagner" => Ok(Box::new(StoerWagnerSolver)),
        "contract" | "karger-stein" | "karger_stein" | "ks" => Ok(Box::new(ContractionSolver)),
        "quadratic" | "karger-parallel" => Ok(Box::new(QuadraticSolver)),
        "brute" => Ok(Box::new(BruteSolver)),
        other => Err(PmcError::UnknownAlgorithm(format!(
            "{other}; valid algorithms: {}",
            registry_listing()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::gen;

    fn fixed_graph() -> Graph {
        gen::gnm_connected(18, 45, 9, 0xFEED)
    }

    #[test]
    fn registry_round_trips() {
        for s in solvers() {
            assert_eq!(solver_by_name(s.name()).unwrap().name(), s.name());
        }
        assert!(matches!(
            solver_by_name("does-not-exist"),
            Err(PmcError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn alias_table_matches_lookup() {
        // Every name and alias in the table resolves to its name; the table
        // covers exactly the registry.
        assert_eq!(
            ALGORITHM_ALIASES
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>(),
            solver_names()
        );
        for (name, aliases) in ALGORITHM_ALIASES {
            assert_eq!(solver_by_name(name).unwrap().name(), *name);
            for alias in *aliases {
                assert_eq!(solver_by_name(alias).unwrap().name(), *name, "{alias}");
            }
        }
    }

    #[test]
    fn unknown_algorithm_error_lists_registry() {
        let msg = solver_by_name("nope").err().unwrap().to_string();
        assert!(msg.contains("nope"), "{msg}");
        for (name, aliases) in ALGORITHM_ALIASES {
            assert!(msg.contains(name), "missing {name} in: {msg}");
            for alias in *aliases {
                assert!(msg.contains(alias), "missing alias {alias} in: {msg}");
            }
        }
    }

    #[test]
    fn solve_with_matches_solve_for_every_solver() {
        let g = fixed_graph();
        let cfg = SolverConfig::with_seed(7);
        let mut ws = SolverWorkspace::new();
        // One workspace across all solvers and repeated calls.
        for s in solvers() {
            let want = s.solve(&g, &cfg).unwrap();
            for _ in 0..2 {
                let got = s.solve_with(&g, &cfg, &mut ws).unwrap();
                assert_eq!(got.value, want.value, "solver {}", s.name());
                assert_eq!(got.side, want.side, "solver {}", s.name());
                assert_eq!(got.kind, want.kind, "solver {}", s.name());
                assert_eq!(got.tree_index, want.tree_index, "solver {}", s.name());
            }
        }
    }

    #[test]
    fn solve_batch_matches_sequential_solves() {
        let graphs: Vec<Graph> = (0..4)
            .map(|s| gen::gnm_connected(16, 40, 7, 40 + s))
            .collect();
        let cfg = SolverConfig::with_seed(5);
        for s in solvers() {
            let batch = s.solve_batch(&graphs, &cfg).unwrap();
            assert_eq!(batch.len(), graphs.len());
            for (g, r) in graphs.iter().zip(&batch) {
                let want = s.solve(g, &cfg).unwrap();
                assert_eq!(r.value, want.value, "solver {}", s.name());
                assert_eq!(r.side, want.side, "solver {}", s.name());
            }
        }
    }

    #[test]
    fn solve_batch_propagates_errors() {
        // A too-small graph mid-batch aborts with the solver's error.
        let graphs = vec![
            gen::gnm_connected(10, 20, 4, 1),
            Graph::from_edges(1, &[]).unwrap(),
        ];
        for s in solvers() {
            assert_eq!(
                s.solve_batch(&graphs, &SolverConfig::default())
                    .unwrap_err(),
                PmcError::TooSmall,
                "solver {}",
                s.name()
            );
        }
    }

    #[test]
    fn all_solvers_agree_on_fixed_graph() {
        let g = fixed_graph();
        let want = stoer_wagner(&g).unwrap().value;
        let cfg = SolverConfig::with_seed(3);
        for s in solvers() {
            let got = s.solve(&g, &cfg).unwrap();
            assert_eq!(got.value, want, "solver {}", s.name());
            assert_eq!(got.algorithm, s.name());
            assert!(g.is_proper_cut(&got.side), "solver {}", s.name());
            assert_eq!(g.cut_value(&got.side), got.value, "solver {}", s.name());
        }
    }

    #[test]
    fn solvers_respect_thread_budget() {
        let g = fixed_graph();
        let cfg = SolverConfig {
            threads: Some(2),
            ..SolverConfig::with_seed(4)
        };
        let want = stoer_wagner(&g).unwrap().value;
        for s in solvers() {
            assert_eq!(
                s.solve(&g, &cfg).unwrap().value,
                want,
                "solver {}",
                s.name()
            );
        }
    }

    #[test]
    fn paper_solver_honors_tree_override() {
        let g = fixed_graph();
        let cfg = SolverConfig {
            trees: Some(40),
            ..SolverConfig::with_seed(9)
        };
        let got = PaperSolver.solve(&g, &cfg).unwrap();
        assert_eq!(got.value, stoer_wagner(&g).unwrap().value);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let g = fixed_graph();
        for cfg in [
            SolverConfig {
                failure_probability: 0.0,
                ..SolverConfig::default()
            },
            SolverConfig {
                failure_probability: 1.5,
                ..SolverConfig::default()
            },
            SolverConfig {
                threads: Some(0),
                ..SolverConfig::default()
            },
            SolverConfig {
                trees: Some(0),
                ..SolverConfig::default()
            },
        ] {
            for s in solvers() {
                assert!(
                    matches!(s.solve(&g, &cfg), Err(PmcError::InvalidConfig(_))),
                    "solver {} accepted {cfg:?}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn brute_refuses_large_graphs() {
        let g = gen::gnm_connected(40, 80, 3, 1);
        assert!(matches!(
            BruteSolver.solve(&g, &SolverConfig::default()),
            Err(PmcError::Unsupported {
                algorithm: "brute",
                ..
            })
        ));
    }

    #[test]
    fn too_small_is_uniform_across_solvers() {
        let g = Graph::from_edges(1, &[]).unwrap();
        for s in solvers() {
            assert_eq!(
                s.solve(&g, &SolverConfig::default()).unwrap_err(),
                PmcError::TooSmall,
                "solver {}",
                s.name()
            );
        }
    }

    #[test]
    fn tighter_failure_probability_still_correct() {
        let g = fixed_graph();
        let want = stoer_wagner(&g).unwrap().value;
        let cfg = SolverConfig {
            failure_probability: 1e-9,
            ..SolverConfig::with_seed(2)
        };
        for name in ["paper", "contract"] {
            let s = solver_by_name(name).unwrap();
            assert_eq!(s.solve(&g, &cfg).unwrap().value, want, "solver {name}");
        }
    }

    #[test]
    fn every_solver_handles_disconnected() {
        // Three components — contraction runs out of edges before reaching
        // two super-nodes unless the dispatch layer short-circuits.
        let g = Graph::from_edges(6, &[(0, 1, 3), (2, 3, 2), (4, 5, 2)]).unwrap();
        for s in solvers() {
            let got = s.solve(&g, &SolverConfig::default()).unwrap();
            assert_eq!(got.value, 0, "solver {}", s.name());
            assert!(g.is_proper_cut(&got.side), "solver {}", s.name());
        }
    }
}
