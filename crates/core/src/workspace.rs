//! The solver scratch arena: every reusable buffer of every layer, bundled.
//!
//! A one-shot `minimum_cut` call allocates its working memory on entry and
//! frees it on exit — the Nagamochi–Ibaraki sweep state in `pmc-graph`,
//! the skeleton subgraph and packing counters in `pmc-packing`, the
//! rooted-tree rebuild and the batch engine's leaf and level arenas in
//! `pmc-minpath`, the dense matrix of the Stoer–Wagner oracle. A serving
//! loop that answers thousands of cut queries repeats all of that per
//! request.
//!
//! [`SolverWorkspace`] owns those buffers instead. Thread one through
//! [`MinCutSolver::solve_with`](crate::MinCutSolver::solve_with) (or let
//! [`MinCutSolver::solve_batch`](crate::MinCutSolver::solve_batch) do it
//! for you) and the buffers grow to their high-water sizes once, then get
//! recycled: at steady state the hot path allocates only what it returns.
//! EXPERIMENTS.md § E15 keeps the last reading of these arenas'
//! steady-state size, and § E11 the last one-shot vs reused-workspace
//! throughput reading.
//!
//! Two multi-worker layers sit on top of the single arena:
//!
//! * [`TreeArena`] — the per-*worker* slice of the paper solver's per-tree
//!   loop (one rooted-tree rebuild arena plus one batch-engine scratch).
//!   `SolverWorkspace` holds a vector of them, grown to the fan-out width,
//!   so the `Θ(log n)` two-respect searches of one solve can run on
//!   independent OS workers without sharing mutable state.
//! * [`WorkspacePool`] — a checkout/checkin pool of whole workspaces for
//!   callers that fan *requests* out across workers (the scenario suite,
//!   [`MinCutSolver::solve_batch_pooled`](crate::MinCutSolver::solve_batch_pooled)).
//!   Workspaces returned to the pool keep their high-water buffers, so a
//!   long-running server warms the pool once.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmc_baseline::SwScratch;
use pmc_graph::{CertScratch, Graph};
use pmc_minpath::TreeBatchScratch;
use pmc_packing::{PackScratch, RootScratch};

/// Cooperative cancellation for an in-flight solve: an atomic flag plus an
/// optional wall-clock deadline, polled at the solve loop's checkpoints
/// (between per-tree two-respect sweeps). Install one on a workspace with
/// [`SolverWorkspace::install_cancel`] before dispatching; a tripped token
/// makes the solve return [`pmc_graph::PmcError::Cancelled`] instead of a
/// result, with the workspace left fully reusable.
///
/// The deadline is fixed at construction; [`CancelToken::cancel`] trips the
/// token explicitly from any thread. Checks are wait-free apart from the
/// `Instant::now()` read, and checkpoints are coarse (one per tree sweep),
/// so the overhead on uncancelled solves is unmeasurable.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; only [`CancelToken::cancel`] can trip it.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips once the wall clock passes `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// Trips the token explicitly. Idempotent; visible to all threads.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// `true` once the token has tripped — explicitly or by deadline.
    pub fn expired(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch the deadline so later checks skip the clock read.
                self.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }
}

/// Per-worker scratch for the paper solver's per-tree loop: everything one
/// worker needs to root a packed tree and run the Lemma 13 two-respect
/// search on it, with zero steady-state allocations.
#[derive(Debug, Default)]
pub struct TreeArena {
    /// Rooted-tree rebuild arena (`pmc-packing`): endpoint staging,
    /// adjacency/BFS scratch, and the reusable [`pmc_graph::RootedTree`].
    pub root: RootScratch,
    /// Batched Minimum Path buffers (`pmc-minpath`).
    pub batch: TreeBatchScratch,
}

impl TreeArena {
    /// Bytes of heap memory in active use by this worker arena
    /// (`len`-based).
    pub fn heap_bytes(&self) -> usize {
        self.root.heap_bytes() + self.batch.heap_bytes()
    }
}

/// Reusable working memory for repeated minimum-cut solves.
///
/// One workspace serves any sequence of graphs and any registered solver —
/// each layer's scratch grows to the largest instance it has seen and is
/// reused verbatim afterwards. A workspace is an arena, not a cache: it
/// never carries *results* between solves, so
/// `solve_with(g, cfg, ws) == solve(g, cfg)` for every solver, graph, and
/// configuration (property-tested in `tests/batch_props.rs`).
///
/// # Examples
///
/// ```
/// use pmc_core::{solver_by_name, SolverConfig, SolverWorkspace};
/// use pmc_graph::gen;
///
/// let solver = solver_by_name("paper").unwrap();
/// let cfg = SolverConfig::default();
/// let mut ws = SolverWorkspace::new();
/// for seed in 0..3 {
///     let g = gen::gnm_connected(24, 60, 8, seed);
///     let amortized = solver.solve_with(&g, &cfg, &mut ws).unwrap();
///     let one_shot = solver.solve(&g, &cfg).unwrap();
///     assert_eq!(amortized.value, one_shot.value);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Nagamochi–Ibaraki sweep state (`pmc-graph`).
    pub cert: CertScratch,
    /// Output arena for the certificate graph, rebuilt in place per solve.
    pub cert_graph: Option<Graph>,
    /// Greedy tree-packing buffers (`pmc-packing`).
    pub packing: PackScratch,
    /// Per-worker arenas of the paper solver's per-tree loop, grown to the
    /// fan-out width on first use (`trees[0]` is also the sequential
    /// path's arena).
    pub trees: Vec<TreeArena>,
    /// Dense Stoer–Wagner arena (`pmc-baseline`).
    pub sw: SwScratch,
    /// Cooperative-cancellation token for the next solve dispatched
    /// through this workspace (`None` = uncancellable). Not an arena:
    /// excluded from [`SolverWorkspace::heap_bytes`], cleared whenever a
    /// pooled workspace returns to its pool.
    pub(crate) cancel: Option<Arc<CancelToken>>,
}

impl SolverWorkspace {
    /// A fresh, empty workspace (equivalent to `Default::default()`).
    /// Buffers are grown lazily by the first solves that need them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a cancellation token observed by the next solve dispatched
    /// through this workspace. The solve polls it between per-tree sweeps
    /// and answers [`pmc_graph::PmcError::Cancelled`] once it trips.
    /// Remains installed until [`SolverWorkspace::clear_cancel`] (pooled
    /// workspaces clear it automatically on checkin).
    pub fn install_cancel(&mut self, token: Arc<CancelToken>) {
        self.cancel = Some(token);
    }

    /// Removes any installed cancellation token, making subsequent solves
    /// uncancellable again.
    pub fn clear_cancel(&mut self) {
        self.cancel = None;
    }

    /// The per-tree worker arenas, grown to at least `workers` entries.
    pub fn tree_arenas(&mut self, workers: usize) -> &mut [TreeArena] {
        let want = workers.max(1);
        if self.trees.len() < want {
            self.trees.resize_with(want, TreeArena::default);
        }
        &mut self.trees[..want]
    }

    /// Bytes of heap memory in active use across every layer's arena
    /// (`len`-based, like the per-layer `heap_bytes` methods it sums).
    /// The figure a serving loop would report as its steady-state working
    /// set (EXPERIMENTS.md § E15 keeps its last reading).
    pub fn heap_bytes(&self) -> usize {
        self.cert.heap_bytes()
            + self.cert_graph.as_ref().map_or(0, |g| g.heap_bytes())
            + self.packing.heap_bytes()
            + self.trees.iter().map(|t| t.heap_bytes()).sum::<usize>()
            + self.sw.heap_bytes()
    }
}

/// A checkout/checkin pool of [`SolverWorkspace`] arenas for multi-worker
/// callers: each worker checks one workspace out for the duration of its
/// work and the drop guard returns it, buffers intact. Checking out more
/// workspaces than the pool holds simply creates fresh ones — the pool
/// never blocks.
///
/// # Examples
///
/// ```
/// use pmc_core::{solver_by_name, SolverConfig, WorkspacePool};
/// use pmc_graph::gen;
///
/// let pool = WorkspacePool::new();
/// let solver = solver_by_name("paper").unwrap();
/// let g = gen::gnm_connected(20, 50, 6, 1);
/// {
///     let mut ws = pool.checkout();
///     solver.solve_with(&g, &SolverConfig::default(), &mut ws).unwrap();
/// } // workspace returns to the pool here, buffers kept
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<SolverWorkspace>>,
    created: AtomicU64,
    checkouts: AtomicU64,
}

/// Lifetime counters of a [`WorkspacePool`], for serving-loop telemetry
/// (`pmc serve` exposes them in its `stats` response). A warm pool shows
/// `created` plateauing while `checkouts` keeps growing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Workspaces this pool has ever materialized (checkouts that found
    /// the pool empty).
    pub created: u64,
    /// Total checkouts served over the pool's lifetime.
    pub checkouts: u64,
    /// Workspaces currently checked in and reusable.
    pub available: usize,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created on demand by
    /// [`WorkspacePool::checkout`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool pre-seeded with `n` fresh workspaces.
    pub fn with_capacity(n: usize) -> Self {
        let pool = Self::new();
        {
            let mut free = pool.free.lock().expect("workspace pool poisoned");
            free.resize_with(n, SolverWorkspace::new);
        }
        pool.created.store(n as u64, Ordering::Relaxed);
        pool
    }

    /// Checks a workspace out of the pool (creating a fresh one if the
    /// pool is empty). The returned guard derefs to [`SolverWorkspace`]
    /// and returns it to the pool on drop.
    pub fn checkout(&self) -> PooledWorkspace<'_> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let ws = match self.free.lock().expect("workspace pool poisoned").pop() {
            Some(ws) => ws,
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                SolverWorkspace::new()
            }
        };
        PooledWorkspace {
            ws: Some(ws),
            pool: self,
        }
    }

    /// Lifetime counters: total workspaces created, total checkouts
    /// served, and how many workspaces sit checked in right now.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.created.load(Ordering::Relaxed),
            checkouts: self.checkouts.load(Ordering::Relaxed),
            available: self.len(),
        }
    }

    /// Number of workspaces currently checked in.
    pub fn len(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }

    /// `true` if no workspace is currently checked in.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Checkout guard of a [`WorkspacePool`]: a [`SolverWorkspace`] on loan,
/// returned (with its grown buffers) when the guard drops.
#[derive(Debug)]
pub struct PooledWorkspace<'a> {
    ws: Option<SolverWorkspace>,
    pool: &'a WorkspacePool,
}

impl PooledWorkspace<'_> {
    /// Discards the checked-out workspace instead of ever returning it to
    /// the pool, and installs a fresh (counted-as-created) replacement so
    /// the guard stays usable. Call this after catching a panic out of a
    /// solve: the arenas may hold torn intermediate state, and a poisoned
    /// workspace must never serve another request.
    pub fn discard(&mut self) {
        self.ws = Some(SolverWorkspace::new());
        self.pool.created.fetch_add(1, Ordering::Relaxed);
    }
}

impl Deref for PooledWorkspace<'_> {
    type Target = SolverWorkspace;
    fn deref(&self) -> &SolverWorkspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut SolverWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(mut ws) = self.ws.take() {
            // Never let a request-scoped cancellation token ride along into
            // the pool: a stale token would cancel an unrelated later solve.
            ws.clear_cancel();
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(ws);
            }
            // A poisoned pool just drops the workspace; nothing to unwind.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SolverWorkspace>();
        assert_send::<TreeArena>();
    }

    #[test]
    fn pool_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<WorkspacePool>();
    }

    #[test]
    fn cert_arena_filled_by_dense_paper_solve() {
        use crate::{minimum_cut_with, MinCutConfig};
        let mut ws = SolverWorkspace::new();
        assert!(ws.cert_graph.is_none());
        // A dense graph with a weak vertex makes the certificate kick in,
        // populating the arena.
        let dense = pmc_graph::gen::complete(40, 4, 3);
        let mut edges: Vec<(u32, u32, u64)> =
            dense.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        edges.push((0, 40, 2));
        let g = Graph::from_edges(41, &edges).unwrap();
        let cut = minimum_cut_with(&g, &MinCutConfig::default(), &mut ws).unwrap();
        assert_eq!(cut.value, 2);
        assert!(ws.cert_graph.is_some());
        assert!(ws.cert_graph.as_ref().unwrap().n() == 41);
    }

    #[test]
    fn heap_bytes_tracks_growth() {
        use crate::{minimum_cut_with, MinCutConfig};
        let mut ws = SolverWorkspace::new();
        // A fresh workspace holds only the packing scratch's placeholder
        // subgraph: Graph::from_edges(1, &[]) = 2 u32 offsets + 1 u64
        // degree = 16 bytes exactly.
        assert_eq!(ws.heap_bytes(), 16);
        let g = pmc_graph::gen::gnm_connected(32, 90, 6, 5);
        let cut = minimum_cut_with(&g, &MinCutConfig::default(), &mut ws).unwrap();
        let grown = ws.heap_bytes();
        assert!(grown > 16, "solve must grow the arenas ({grown} bytes)");
        // The total is the sum of the per-layer arenas it aggregates.
        assert_eq!(
            grown,
            ws.cert.heap_bytes()
                + ws.cert_graph.as_ref().map_or(0, |g| g.heap_bytes())
                + ws.packing.heap_bytes()
                + ws.trees.iter().map(|t| t.heap_bytes()).sum::<usize>()
                + ws.sw.heap_bytes()
        );
        let _ = cut;
    }

    #[test]
    fn tree_arenas_grow_monotonically() {
        let mut ws = SolverWorkspace::new();
        assert_eq!(ws.tree_arenas(3).len(), 3);
        assert_eq!(ws.tree_arenas(1).len(), 1); // view shrinks ...
        assert_eq!(ws.trees.len(), 3); // ... storage does not
        assert_eq!(ws.tree_arenas(0).len(), 1); // at least one arena
    }

    #[test]
    fn pool_checkout_roundtrip_keeps_workspaces() {
        let pool = WorkspacePool::with_capacity(2);
        assert_eq!(pool.len(), 2);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            let _c = pool.checkout(); // beyond capacity: fresh, non-blocking
            assert_eq!(pool.len(), 0);
        }
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
    }

    #[test]
    fn pool_stats_track_creation_and_checkouts() {
        let pool = WorkspacePool::with_capacity(1);
        assert_eq!(
            pool.stats(),
            PoolStats {
                created: 1,
                checkouts: 0,
                available: 1
            }
        );
        {
            let _a = pool.checkout(); // reuses the seeded workspace
            let _b = pool.checkout(); // pool empty: materializes a second
        }
        assert_eq!(
            pool.stats(),
            PoolStats {
                created: 2,
                checkouts: 2,
                available: 2
            }
        );
        let _ = pool.checkout();
        assert_eq!(pool.stats().checkouts, 3);
        assert_eq!(pool.stats().created, 2); // warm pool: no new arenas
    }

    #[test]
    fn cancel_token_trips_by_flag_and_deadline() {
        let t = CancelToken::new();
        assert!(!t.expired());
        t.cancel();
        assert!(t.expired());
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert!(CancelToken::with_deadline(past).expired());
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        assert!(!CancelToken::with_deadline(far).expired());
    }

    #[test]
    fn expired_token_cancels_a_solve_and_leaves_the_workspace_reusable() {
        use crate::{minimum_cut_with, MinCutConfig};
        use pmc_graph::PmcError;
        let mut ws = SolverWorkspace::new();
        let g = pmc_graph::gen::gnm_connected(32, 90, 6, 5);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        ws.install_cancel(Arc::new(CancelToken::with_deadline(past)));
        let cancelled = minimum_cut_with(&g, &MinCutConfig::default(), &mut ws);
        assert_eq!(cancelled.err(), Some(PmcError::Cancelled));
        ws.clear_cancel();
        let cut = minimum_cut_with(&g, &MinCutConfig::default(), &mut ws).unwrap();
        let fresh = minimum_cut_with(&g, &MinCutConfig::default(), &mut SolverWorkspace::new());
        assert_eq!(cut.value, fresh.unwrap().value);
    }

    #[test]
    fn cancel_token_does_not_count_toward_heap_bytes() {
        let mut ws = SolverWorkspace::new();
        let before = ws.heap_bytes();
        ws.install_cancel(Arc::new(CancelToken::new()));
        assert_eq!(ws.heap_bytes(), before);
        ws.clear_cancel();
        assert!(ws.cancel.is_none());
    }

    #[test]
    fn pool_checkin_clears_installed_cancel_tokens() {
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.checkout();
            ws.install_cancel(Arc::new(CancelToken::new()));
        }
        let ws = pool.checkout(); // same arena, token must be gone
        assert!(ws.cancel.is_none());
    }

    #[test]
    fn discard_never_returns_the_poisoned_workspace() {
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.checkout();
            ws.cert_graph = Some(pmc_graph::gen::complete(4, 1, 0));
            ws.discard(); // guard stays usable with a fresh arena
            assert!(ws.cert_graph.is_none());
        }
        // The replacement (not the poisoned arena) went back to the pool.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().created, 2);
        assert!(pool.checkout().cert_graph.is_none());
    }

    #[test]
    fn pooled_workspace_derefs() {
        let pool = WorkspacePool::new();
        let mut ws = pool.checkout();
        assert_eq!(ws.tree_arenas(1).len(), 1); // DerefMut into the workspace
        assert!(ws.cert_graph.is_none()); // Deref
    }
}
