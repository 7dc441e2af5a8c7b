//! # parallel-mincut
//!
//! A Rust reproduction of **"Parallel Minimum Cuts in Near-linear Work and
//! Low Depth"** (Geissmann & Gianinazzi, SPAA 2018): a Monte Carlo parallel
//! minimum-cut algorithm with `O(m log⁴ n)` work and `O(log³ n)` depth,
//! realized on shared memory: its independent per-tree searches fan out
//! across OS threads (`pmc-par`).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`Graph`], generators and spanning-tree machinery from `pmc-graph`;
//! * the Minimum Path structures from `pmc-minpath` (the paper's §3 data
//!   structure): the batch engine the solver runs, and the sequential
//!   `Δ`-tree;
//! * Karger tree packing from `pmc-packing` (Lemma 1);
//! * the top-level [`minimum_cut`] algorithm from `pmc-core` (Theorem 10);
//! * exact and randomized baselines from `pmc-baseline`.
//!
//! All algorithms sit behind one dispatch seam: the [`MinCutSolver`] trait
//! with its [`solver_by_name`] registry and the shared [`SolverConfig`] /
//! [`PmcError`] types.
//!
//! ## Quickstart
//!
//! ```
//! use parallel_mincut::{Graph, MinCutConfig, minimum_cut};
//!
//! // A 6-cycle with one heavy chord: the minimum cut has value 2.
//! let g = Graph::from_edges(
//!     6,
//!     &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1), (0, 3, 5)],
//! )
//! .unwrap();
//! let cut = minimum_cut(&g, &MinCutConfig::default()).unwrap();
//! assert_eq!(cut.value, 2);
//! ```
//!
//! Or pick any algorithm — paper or baseline — through the registry:
//!
//! ```
//! use parallel_mincut::{solver_by_name, Graph, SolverConfig};
//!
//! let g = Graph::from_edges(
//!     6,
//!     &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1), (0, 3, 5)],
//! )
//! .unwrap();
//! for name in ["paper", "sw", "contract", "quadratic", "brute"] {
//!     let solver = solver_by_name(name).unwrap();
//!     assert_eq!(solver.solve(&g, &SolverConfig::default()).unwrap().value, 2);
//! }
//! ```

pub use pmc_baseline as baseline;
pub use pmc_core as core_alg;
pub use pmc_graph as graph;
pub use pmc_minpath as minpath;
pub use pmc_packing as packing;
pub use pmc_par as par;
pub use pmc_scenario as scenario;
pub use pmc_service as service;

pub use pmc_core::{
    minimum_cut, minimum_cut_with, solver_by_name, solver_names, solvers, solvers_for,
    MinCutConfig, MinCutResult, MinCutSolver, SolverConfig, SolverWorkspace, WorkspacePool,
};
pub use pmc_graph::{Graph, PmcError, RootedTree};
