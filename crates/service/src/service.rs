//! The request dispatcher behind `pmc serve`.
//!
//! One [`Service`] value owns the sharded graph store, the workspace
//! pool, the admission gate, and the counters; any number of I/O loops
//! (the stdin/stdout pipe, one thread per TCP connection) share it by
//! reference and funnel every frame through [`Service::handle_frame`].
//! Solves compose with the suite's rule: a `solve` request fans its
//! graph batch across up to `threads` OS workers, each holding a pooled
//! [`SolverWorkspace`](pmc_core::SolverWorkspace) with the *inner* solve
//! pinned to one thread — so request-level fan-out is the only
//! coarse-grained parallelism, and the response for a given
//! `(graph, solver, seed)` is identical at every worker count and
//! arrival order. Workspaces return to the pool warm: a long-running
//! service stops allocating once the pool reaches its high-water shape.
//!
//! ## Admission control
//!
//! Solve and update requests pass a bounded in-flight budget
//! (`--max-inflight`, measured in worker slots) before touching the
//! store: a `solve` costs the workers its batch will occupy
//! (`min(threads, batch_len)`), an `update` costs one. When the budget
//! is spent — or a single request alone costs more than the whole
//! budget — the request is answered immediately with a structured
//! [`ErrorKind::Overloaded`] error instead of queueing unbounded work,
//! so a hostile burst degrades into fast rejections rather than memory
//! growth and tail latency. Admission never changes *what* an admitted
//! request answers, only whether it is answered: the determinism
//! invariant (bit-identical responses at every thread count and arrival
//! order) holds for every admitted request.
//!
//! ## Fault tolerance
//!
//! Every admitted request gets exactly one structured response, whatever
//! fails underneath it:
//!
//! * **Deadlines** — `--request-timeout-ms` (or a per-request
//!   `deadline_ms` field) arms a [`CancelToken`] that the solver checks
//!   between per-tree sweeps; an expired solve answers
//!   [`ErrorKind::TimedOut`] and releases its admission slots instead of
//!   running to completion.
//! * **Panic isolation** — worker solves run under `catch_unwind`; a
//!   panicking worker answers [`ErrorKind::Internal`], its (possibly
//!   corrupt) pooled workspace is discarded rather than checked back in,
//!   and `stats.faults.panics` counts the event.
//! * **Journal** — with `--journal`, committed loads and updates are
//!   appended to a write-ahead journal (see [`crate::journal`]) *before*
//!   the acknowledgement is written, and replayed on startup; a failed
//!   append backs the op out of the cache and answers
//!   [`ErrorKind::Internal`], so residency, journal, and
//!   acknowledgements never disagree.
//! * **Fault injection** — `--inject-faults` (see [`crate::faults`])
//!   drives all of the above deterministically from a seed, which is how
//!   the chaos tests and the CI chaos-smoke job exercise these paths.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmc_core::{
    apply_delta, solver_by_name, CancelToken, MutationOp, PmcError, ResolveMode, SolveState,
    SolverConfig, WorkspacePool,
};
use pmc_graph::io::{read_dimacs, read_edge_list, read_path, IoError};
use pmc_graph::Graph;

use crate::cache::{CommitError, GraphCache, DEFAULT_CACHE_SHARDS};
use crate::faults::{splitmix64, FaultInjector, FaultPlan, FaultSite};
use crate::journal::{journal_error, FsyncPolicy, Journal, Record};
use crate::protocol::{
    fnv1a, partition_digest, read_frame, AdmissionCounters, DynamicCounters, ErrorKind,
    FaultCounters, JournalCounters, LatencyCounters, LoadSource, PoolCounters, ProtocolError,
    Request, RequestCounters, Response, SolveOutcome, StatsSnapshot, UpdateMode, UpdateOp,
    VerbLatency, FNV_OFFSET,
};

/// How many times an `update` re-runs after losing a commit race before
/// giving up. Each retry requires another writer to have committed, so
/// the bound only fires under pathological same-id contention.
const MAX_COMMIT_RETRIES: usize = 16;

/// Service construction parameters (the `pmc serve` flags).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Batch fan-out width for `solve` requests; `0` means one worker per
    /// available CPU.
    pub threads: usize,
    /// Graph cache capacity in entries (`--cache-graphs`).
    pub cache_graphs: usize,
    /// Graph cache byte budget (`--cache-bytes`); 0 = unbounded.
    pub cache_bytes: usize,
    /// Graph cache shard count (`--cache-shards`); 0 = the default
    /// [`DEFAULT_CACHE_SHARDS`].
    pub cache_shards: usize,
    /// In-flight solve/update budget in worker slots (`--max-inflight`);
    /// 0 = CPU-scaled default (`4 x` the effective thread width, at
    /// least 8).
    pub max_inflight: usize,
    /// When `false`, all timing fields (`micros`, `uptime_micros`) are
    /// reported as 0, making full sessions byte-identical across runs —
    /// the mode the determinism tests and golden files use.
    pub timing: bool,
    /// Default per-request deadline in milliseconds
    /// (`--request-timeout-ms`); 0 = none. A request's own `deadline_ms`
    /// field overrides it.
    pub request_timeout_ms: u64,
    /// TCP idle timeout in milliseconds (`--idle-timeout-ms`); 0 =
    /// disabled. A silent connection gets a structured `idle_timeout`
    /// frame and a clean close instead of holding a thread forever.
    pub idle_timeout_ms: u64,
    /// Write-ahead journal path (`--journal`); `None` = no journal.
    pub journal: Option<PathBuf>,
    /// Journal durability policy (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Seeded fault-injection plan (`--inject-faults`); `None` in
    /// production.
    pub faults: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 0,
            cache_graphs: 64,
            cache_bytes: 0,
            cache_shards: 0,
            max_inflight: 0,
            timing: true,
            request_timeout_ms: 0,
            idle_timeout_ms: 0,
            journal: None,
            fsync: FsyncPolicy::Always,
            faults: None,
        }
    }
}

/// The bounded in-flight work budget. `try_acquire` either returns a
/// permit (released on drop) or counts a rejection; it never blocks.
struct Admission {
    max: u64,
    inflight: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl Admission {
    fn new(max: u64) -> Self {
        Admission {
            max,
            inflight: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn try_acquire(&self, cost: u64) -> Option<AdmissionPermit<'_>> {
        let admitted = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_add(cost).filter(|&next| next <= self.max)
            })
            .is_ok();
        if admitted {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            Some(AdmissionPermit { gate: self, cost })
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            max_inflight: self.max,
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }
}

/// RAII receipt for admitted work; dropping it frees the worker slots.
struct AdmissionPermit<'a> {
    gate: &'a Admission,
    cost: u64,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(self.cost, Ordering::AcqRel);
    }
}

/// What a serve loop did before returning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Frames answered by this loop (empty lines excluded).
    pub frames: u64,
    /// `true` when the loop ended on a `shutdown` request rather than
    /// EOF.
    pub shutdown: bool,
}

/// One verb's service-side latency accumulator: lock-free counters the
/// dispatcher folds every handled request into, snapshot as
/// [`VerbLatency`] under `stats.latency`. `max_us` uses a CAS loop —
/// contended only when a new maximum lands, which is rare by
/// definition.
#[derive(Default)]
struct VerbTimer {
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl VerbTimer {
    fn record(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        let mut seen = self.max_us.load(Ordering::Relaxed);
        while us > seen {
            match self
                .max_us
                .compare_exchange_weak(seen, us, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    fn counters(&self) -> VerbLatency {
        VerbLatency {
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A persistent min-cut service: sharded graph store + admission gate +
/// workspace pool + counters.
pub struct Service {
    threads: usize,
    timing: bool,
    cache: GraphCache,
    admission: Admission,
    pool: WorkspacePool,
    start: Instant,
    request_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    journal: Option<Journal>,
    injector: Option<FaultInjector>,
    journal_replayed: u64,
    journal_truncated: u64,
    loads: AtomicU64,
    solve_requests: AtomicU64,
    update_requests: AtomicU64,
    stats_requests: AtomicU64,
    errors: AtomicU64,
    solves: AtomicU64,
    incremental_solves: AtomicU64,
    full_solves: AtomicU64,
    answered: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    lat_load: VerbTimer,
    lat_solve: VerbTimer,
    lat_update: VerbTimer,
}

impl Service {
    /// A fresh service; the pool warms up as requests arrive.
    ///
    /// Panics when [`ServiceConfig::journal`] is set and the journal
    /// cannot be opened or replayed — use [`Service::open`] to handle
    /// that error.
    pub fn new(cfg: &ServiceConfig) -> Self {
        Self::open(cfg).expect("service construction failed")
    }

    /// [`Service::new`], but journal open/replay failures come back as
    /// an error instead of a panic (the `pmc serve` entry point).
    pub fn open(cfg: &ServiceConfig) -> Result<Self, String> {
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            cfg.threads
        };
        let shards = if cfg.cache_shards == 0 {
            DEFAULT_CACHE_SHARDS
        } else {
            cfg.cache_shards
        };
        let max_inflight = if cfg.max_inflight == 0 {
            (threads as u64 * 4).max(8)
        } else {
            cfg.max_inflight as u64
        };
        let nonzero_ms = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        let mut service = Service {
            threads,
            timing: cfg.timing,
            cache: GraphCache::with_shards(cfg.cache_graphs, cfg.cache_bytes, shards),
            admission: Admission::new(max_inflight),
            pool: WorkspacePool::new(),
            start: Instant::now(),
            request_timeout: nonzero_ms(cfg.request_timeout_ms),
            idle_timeout: nonzero_ms(cfg.idle_timeout_ms),
            journal: None,
            injector: cfg.faults.clone().map(FaultInjector::new),
            journal_replayed: 0,
            journal_truncated: 0,
            loads: AtomicU64::new(0),
            solve_requests: AtomicU64::new(0),
            update_requests: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            incremental_solves: AtomicU64::new(0),
            full_solves: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            lat_load: VerbTimer::default(),
            lat_solve: VerbTimer::default(),
            lat_update: VerbTimer::default(),
        };
        if let Some(path) = &cfg.journal {
            let (journal, replay) = Journal::open(path, cfg.fsync)
                .map_err(|e| format!("journal {}: {e}", path.display()))?;
            service.journal_replayed = replay.records.len() as u64;
            service.journal_truncated = replay.truncated;
            service.replay(replay.records)?;
            // Installed only after replay: replayed ops must not be
            // re-appended to the journal they came from.
            service.journal = Some(journal);
        }
        Ok(service)
    }

    /// Re-applies a recovered journal record sequence to the empty
    /// store: loads re-insert their graphs (content addressing makes
    /// this idempotent and reproduces the original ids), updates re-run
    /// under their original seeds (reproducing the original re-keyed
    /// ids and snapshots bit-identically), and the last hints record
    /// pre-warms the workspace pool to its previous high-water shape.
    ///
    /// Replay is quiet: it touches no request counters and appends
    /// nothing, so a replayed service's `stats` reflect only post-restart
    /// traffic (plus `journal.replayed`).
    fn replay(&self, records: Vec<Record>) -> Result<(), String> {
        let mut hints = None;
        for (i, record) in records.iter().enumerate() {
            let fail = |detail: String| format!("journal replay: record {i}: {detail}");
            match record {
                Record::Load { n, edges } => {
                    let graph = Graph::from_edges(*n as usize, edges)
                        .map_err(|e| fail(format!("load: {e}")))?;
                    self.cache
                        .insert(graph)
                        .map_err(|e| fail(format!("load: {}", e.detail)))?;
                }
                Record::Update { from, seed, ops } => {
                    // Single-threaded replay cannot lose a commit race.
                    match self.update_once(from, ops, *seed, None, true) {
                        Ok(Some(_)) => {}
                        Ok(None) => return Err(fail(format!("update on {from}: commit conflict"))),
                        Err(e) => return Err(fail(format!("update on {from}: {}", e.detail))),
                    }
                }
                Record::Hints { pool, arenas } => hints = Some((*pool, *arenas)),
            }
        }
        if let Some((pool, arenas)) = hints {
            // Warm start: materialize the previous run's high-water
            // workspace shape now, instead of re-growing it under the
            // first post-restart burst (closes the PR 5 follow-up).
            let mut warmed: Vec<_> = (0..pool.min(64)).map(|_| self.pool.checkout()).collect();
            for ws in &mut warmed {
                ws.tree_arenas((arenas as usize).clamp(1, 256));
            }
        }
        Ok(())
    }

    /// The effective batch fan-out width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Serves one raw frame: parse, dispatch, count. Returns the response
    /// and whether the frame asked the loop to stop.
    pub fn handle_frame(&self, frame: &str) -> (Response, bool) {
        self.answered.fetch_add(1, Ordering::Relaxed);
        match Request::parse_frame(frame) {
            Ok(req) => self.handle(&req),
            Err(e) => (self.error_response(e), false),
        }
    }

    /// Serves one parsed request. Returns the response and whether it was
    /// a shutdown.
    ///
    /// Every `load`/`solve`/`update` dispatch — successful or not — is
    /// timed into the per-verb counters the `stats.latency` block
    /// reports. With timing suppressed the duration is recorded as 0 but
    /// the count still advances, keeping golden sessions deterministic.
    pub fn handle(&self, req: &Request) -> (Response, bool) {
        let started = Instant::now();
        let timed = |timer: &VerbTimer, out: (Response, bool)| {
            timer.record(if self.timing {
                started.elapsed().as_micros() as u64
            } else {
                0
            });
            out
        };
        match req {
            Request::Load(source) => {
                let out = match self.load(source) {
                    Ok(resp) => {
                        self.loads.fetch_add(1, Ordering::Relaxed);
                        (resp, false)
                    }
                    Err(e) => (self.error_response(e), false),
                };
                timed(&self.lat_load, out)
            }
            Request::Solve {
                graphs,
                solver,
                seed,
                deadline_ms,
            } => {
                let out = match self.solve(graphs, solver, *seed, *deadline_ms) {
                    Ok(results) => {
                        self.solve_requests.fetch_add(1, Ordering::Relaxed);
                        (Response::Solved { results }, false)
                    }
                    Err(e) => (self.error_response(e), false),
                };
                timed(&self.lat_solve, out)
            }
            Request::Update {
                graph,
                ops,
                seed,
                deadline_ms,
            } => {
                let out = match self.update(graph, ops, *seed, *deadline_ms) {
                    Ok(resp) => {
                        self.update_requests.fetch_add(1, Ordering::Relaxed);
                        (resp, false)
                    }
                    Err(e) => (self.error_response(e), false),
                };
                timed(&self.lat_update, out)
            }
            Request::Stats => {
                self.stats_requests.fetch_add(1, Ordering::Relaxed);
                (Response::Stats(Box::new(self.stats_snapshot())), false)
            }
            Request::Shutdown => {
                // Graceful exit is the one moment the pool's high-water
                // shape is both final and worth keeping: persist it so
                // the next run starts warm. Best-effort — a full disk
                // must not block shutdown.
                if let Some(journal) = &self.journal {
                    let pool = self.pool.stats();
                    let _ = journal.append(
                        &Record::Hints {
                            pool: (pool.created.min(pool.available as u64)).max(1),
                            arenas: self.threads as u64,
                        },
                        None,
                    );
                }
                (
                    Response::Shutdown {
                        served: self.answered.load(Ordering::Relaxed).max(1),
                    },
                    true,
                )
            }
        }
    }

    /// The cancellation token for a request, if any deadline applies:
    /// the request's own `deadline_ms` wins, else the service default.
    fn cancel_token(&self, deadline_ms: Option<u64>) -> Option<Arc<CancelToken>> {
        let budget = deadline_ms
            .map(Duration::from_millis)
            .or(self.request_timeout)?;
        Some(Arc::new(CancelToken::with_deadline(
            Instant::now() + budget,
        )))
    }

    /// Counts an error response; used for frame-level failures too (the
    /// serve loops answer oversized/non-UTF-8 frames through this).
    pub fn error_response(&self, e: ProtocolError) -> Response {
        self.errors.fetch_add(1, Ordering::Relaxed);
        Response::Error(e)
    }

    fn load(&self, source: &LoadSource) -> Result<Response, ProtocolError> {
        let graph = match source {
            LoadSource::Body(body) => parse_body(body)?,
            LoadSource::Path(path) => read_path(std::path::Path::new(path)).map_err(|e| {
                let kind = match e {
                    IoError::Io(_) => ErrorKind::Io,
                    _ => ErrorKind::Graph,
                };
                ProtocolError::new(kind, format!("{path}: {e}"))
            })?,
        };
        let n = graph.n() as u64;
        let m = graph.m() as u64;
        // Snapshot the edge list — in stored order, not canonicalized:
        // solver tie-breaks among equal-value cuts follow edge ids, so a
        // replayed graph must reproduce the exact edge ordering, not
        // just the same content id. Taken before the graph moves into
        // the cache; journaled only for genuinely new entries below.
        let journal_edges = self
            .journal
            .as_ref()
            .map(|_| graph.edges().iter().map(|e| (e.u, e.v, e.w)).collect());
        let (id, cached) = self.cache.insert(graph)?;
        if !cached {
            if let (Some(journal), Some(edges)) = (&self.journal, journal_edges) {
                if let Err(e) = journal.append(&Record::Load { n, edges }, self.injector.as_ref()) {
                    // Back the insert out before answering: residency
                    // must stay atomic with the journal, or a re-load
                    // would be acknowledged from cache without a record
                    // and silently lost on replay.
                    self.cache.remove(&id);
                    return Err(journal_error(&e));
                }
            }
        }
        Ok(Response::Loaded { id, n, m, cached })
    }

    /// Rejection answered when the admission gate is full (or the
    /// request alone exceeds the whole budget). Carries a
    /// `retry_after_ms` hint scaled to the refused cost: heavier
    /// requests take longer to drain ahead of you.
    fn overloaded(&self, cost: u64) -> ProtocolError {
        ProtocolError::new(
            ErrorKind::Overloaded,
            format!(
                "request needs {cost} of {} in-flight worker slots; back off and retry",
                self.admission.max
            ),
        )
        .with_retry_after((10 * cost).clamp(10, 250))
    }

    fn solve(
        &self,
        ids: &[String],
        solver_name: &str,
        seed: u64,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<SolveOutcome>, ProtocolError> {
        // The wire parser rejects empty batches; guard the public API
        // path too (clamp(1, 0) below would panic).
        if ids.is_empty() {
            return Err(ProtocolError::new(
                ErrorKind::Request,
                "solve batch must be non-empty",
            ));
        }
        let solver = solver_by_name(solver_name)
            .map_err(|e| ProtocolError::new(ErrorKind::Solver, e.to_string()))?;
        // Admission: the batch will occupy `workers` pool slots for its
        // whole duration; acquire them (or reject) before touching the
        // store, so a saturating burst is turned away cheaply.
        let workers = self.threads.clamp(1, ids.len());
        let _permit = self
            .admission
            .try_acquire(workers as u64)
            .ok_or_else(|| self.overloaded(workers as u64))?;
        // Resolve every id up front; the store shards internally, and
        // the Arcs keep the graphs alive even if concurrent loads evict
        // them mid-flight.
        let graphs: Vec<std::sync::Arc<Graph>> = {
            let mut resolved = Vec::with_capacity(ids.len());
            let mut missing: Vec<&str> = Vec::new();
            for id in ids {
                match self.cache.get(id) {
                    Some(g) => resolved.push(g),
                    None => missing.push(id),
                }
            }
            if !missing.is_empty() {
                return Err(ProtocolError::new(
                    ErrorKind::GraphNotLoaded,
                    format!("not in cache (re-load and retry): {}", missing.join(", ")),
                ));
            }
            resolved
        };
        // The suite's composition rule: fan the batch across pooled
        // workspaces, pin each inner solve to one thread. Results are in
        // unit order, so worker count cannot change the response.
        let cfg = SolverConfig {
            seed,
            threads: Some(1),
            ..SolverConfig::default()
        };
        let mut workspaces: Vec<_> = (0..workers).map(|_| self.pool.checkout()).collect();
        let timing = self.timing;
        let token = self.cancel_token(deadline_ms);
        let injector = self.injector.as_ref();
        // Each unit runs under `catch_unwind`: a panicking worker must
        // cost exactly one error response, not the process. `None` marks
        // a panicked unit; its workspace is discarded (never checked
        // back in) and the guard refilled so the worker can keep serving
        // the batch's remaining units. Injected faults fire *inside* the
        // guard so an injected panic is caught like a real one.
        let outcomes = pmc_par::fanout_units(&mut workspaces, ids.len(), |ws, i| {
            if let Some(token) = &token {
                ws.install_cancel(Arc::clone(token));
            }
            let t = Instant::now();
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(inj) = injector {
                    if inj.should(FaultSite::SolveDelay) {
                        std::thread::sleep(Duration::from_millis(inj.delay_ms()));
                    }
                    if inj.should(FaultSite::WorkerPanic) {
                        panic!("injected worker panic");
                    }
                }
                solver.solve_with(&graphs[i], &cfg, ws)
            }));
            let micros = if timing { t.elapsed().as_micros() } else { 0 };
            match result {
                Ok(r) => {
                    ws.clear_cancel();
                    (Some(r), micros)
                }
                Err(_) => {
                    ws.discard();
                    (None, micros)
                }
            }
        });
        drop(workspaces);
        let panicked = outcomes.iter().filter(|(o, _)| o.is_none()).count() as u64;
        if panicked > 0 {
            self.panics.fetch_add(panicked, Ordering::Relaxed);
        }
        // Map in id order so the first failure decides the (single)
        // error frame deterministically, independent of worker count.
        let mut results = Vec::with_capacity(ids.len());
        for (id, (outcome, micros)) in ids.iter().zip(outcomes) {
            let r = match outcome {
                Some(Ok(r)) => r,
                Some(Err(PmcError::Cancelled)) => {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(ProtocolError::new(
                        ErrorKind::TimedOut,
                        format!("graph {id}: {}", PmcError::Cancelled),
                    ));
                }
                Some(Err(e)) => {
                    return Err(ProtocolError::new(
                        ErrorKind::Solve,
                        format!("graph {id}: {e}"),
                    ))
                }
                None => {
                    return Err(ProtocolError::new(
                        ErrorKind::Internal,
                        format!("graph {id}: worker panicked during solve; workspace discarded"),
                    ))
                }
            };
            results.push(SolveOutcome {
                graph: id.clone(),
                solver: r.algorithm.to_string(),
                seed,
                value: r.value,
                digest: partition_digest(&r.side),
                micros,
            });
        }
        // Count only once the whole batch is known good: a batch whose
        // later graph errors is answered as one error frame, and must
        // not leave phantom per-graph solves behind in `stats`.
        self.solves
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        Ok(results)
    }

    /// Applies a mutation batch to a cached graph and re-solves it.
    ///
    /// The mutation is transactional: every op is applied to a *clone*
    /// of the resident graph (and a clone of its snapshot), so a failing
    /// op aborts the whole batch with [`ErrorKind::Update`] and the
    /// cache keeps serving the original. On success the entry is
    /// re-keyed under the mutated graph's content id (ids are
    /// content-addressed — mutating the content moves the id), with the
    /// refreshed snapshot attached for the next `update`.
    ///
    /// The answer is bit-identical to a from-scratch solve of the
    /// mutated graph under the request seed, whatever mode produced it
    /// (`pmc_core::dynamic` holds that invariant); `mode`/`reswept` in
    /// the response only describe how much work was saved.
    ///
    /// The checkout→commit pair is guarded by the entry's shard-level
    /// version stamp: if a racing update commits the same id first, this
    /// one's commit is refused and the whole mutation re-runs against
    /// the fresh resident state — two racing updates serialize instead
    /// of silently interleaving (typically the loser then observes the
    /// re-keyed id gone and answers `graph_not_loaded`, which is the
    /// truthful outcome: the graph it addressed no longer exists under
    /// that id).
    fn update(
        &self,
        id: &str,
        ops: &[UpdateOp],
        seed: u64,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ProtocolError> {
        if ops.is_empty() {
            return Err(ProtocolError::new(
                ErrorKind::Request,
                "update ops must be non-empty",
            ));
        }
        let _permit = self
            .admission
            .try_acquire(1)
            .ok_or_else(|| self.overloaded(1))?;
        let token = self.cancel_token(deadline_ms);
        for attempt in 0..MAX_COMMIT_RETRIES as u64 {
            if attempt > 0 {
                // Losing the race means another writer is hammering the
                // same id: full-jitter exponential backoff (deterministic
                // per (id, seed, attempt)) de-synchronizes the rivals
                // instead of letting them re-collide in lockstep.
                let cap = 1u64 << attempt.min(6); // 2, 4, ..., capped at 64ms
                let jitter = splitmix64(seed ^ fnv1a(FNV_OFFSET, id.as_bytes()) ^ attempt) % cap;
                std::thread::sleep(Duration::from_millis(jitter));
            }
            if token.as_ref().is_some_and(|t| t.expired()) {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(ProtocolError::new(
                    ErrorKind::TimedOut,
                    format!("update on {id}: {}", PmcError::Cancelled),
                ));
            }
            match self.update_once(id, ops, seed, token.as_ref(), false)? {
                Some(resp) => return Ok(resp),
                None => continue, // lost the commit race; re-run
            }
        }
        Err(ProtocolError::new(
            ErrorKind::Overloaded,
            format!("update on {id} lost the commit race {MAX_COMMIT_RETRIES} times; retry"),
        )
        .with_retry_after(64))
    }

    /// One checkout→mutate→re-solve→commit attempt. `Ok(None)` means the
    /// commit lost its version-stamp race and the caller should re-run.
    ///
    /// `quiet` is the journal-replay mode: no counters, no journal
    /// append, no fault injection — replay reconstructs state, it does
    /// not serve traffic.
    fn update_once(
        &self,
        id: &str,
        ops: &[UpdateOp],
        seed: u64,
        cancel: Option<&Arc<CancelToken>>,
        quiet: bool,
    ) -> Result<Option<Response>, ProtocolError> {
        let (resident, cached_state, version) =
            self.cache.checkout_for_update(id, seed).ok_or_else(|| {
                ProtocolError::new(
                    ErrorKind::GraphNotLoaded,
                    format!("not in cache (re-load and retry): {id}"),
                )
            })?;
        let t = Instant::now();
        // `resident` stays alive past the commit: if the journal append
        // fails afterwards, the rollback re-registers this exact graph.
        let mut g = (*resident).clone();
        let mut ws = self.pool.checkout();
        if let Some(token) = cancel {
            ws.install_cancel(Arc::clone(token));
        }
        let threads = Some(self.threads);
        let injector = if quiet { None } else { self.injector.as_ref() };
        // The whole mutate→re-solve runs under `catch_unwind` for the
        // same reason the solve fan-out does: a panic costs one
        // `internal_error` response and one discarded workspace, never
        // the process. Everything here works on clones, so an unwound
        // attempt leaves the resident entry untouched.
        let attempt = panic::catch_unwind(AssertUnwindSafe(
            || -> Result<(SolveState, UpdateMode, u64), ProtocolError> {
                if let Some(inj) = injector {
                    if inj.should(FaultSite::SolveDelay) {
                        std::thread::sleep(Duration::from_millis(inj.delay_ms()));
                    }
                    if inj.should(FaultSite::WorkerPanic) {
                        panic!("injected worker panic");
                    }
                }
                let solve_err = |e: PmcError| match e {
                    PmcError::Cancelled => {
                        ProtocolError::new(ErrorKind::TimedOut, format!("update on {id}: {e}"))
                    }
                    e => ProtocolError::new(ErrorKind::Solve, e.to_string()),
                };
                match cached_state {
                    Some(mut state) => {
                        for op in ops {
                            apply_update_op(&mut g, Some(&mut state), op)?;
                        }
                        match state.resolve(&g, &mut ws, threads).map_err(solve_err)? {
                            ResolveMode::Incremental { reswept } => {
                                Ok((state, UpdateMode::Incremental, reswept as u64))
                            }
                            ResolveMode::Repack => Ok((state, UpdateMode::Repack, 0)),
                        }
                    }
                    None => {
                        for op in ops {
                            apply_update_op(&mut g, None, op)?;
                        }
                        let state =
                            SolveState::fresh(&g, seed, &mut ws, threads).map_err(solve_err)?;
                        Ok((state, UpdateMode::Fresh, 0))
                    }
                }
            },
        ));
        let (state, mode, reswept) = match attempt {
            Ok(result) => {
                ws.clear_cancel();
                drop(ws);
                match result {
                    Ok(v) => v,
                    Err(e) => {
                        if e.kind == ErrorKind::TimedOut && !quiet {
                            self.timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(e);
                    }
                }
            }
            Err(_) => {
                ws.discard();
                drop(ws);
                if !quiet {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                }
                return Err(ProtocolError::new(
                    ErrorKind::Internal,
                    format!("update on {id}: worker panicked during re-solve; workspace discarded"),
                ));
            }
        };
        let best = state.best();
        let (value, digest) = (best.value, partition_digest(&best.side));
        let (n, m) = (g.n() as u64, g.m() as u64);
        let micros = if self.timing {
            t.elapsed().as_micros()
        } else {
            0
        };
        let new_id = match self.cache.commit_update(id, version, g, state) {
            Ok(new_id) => new_id,
            Err(CommitError::Conflict) => return Ok(None),
            Err(CommitError::Protocol(e)) => return Err(e),
        };
        // Journal the committed op before acknowledging it: a client
        // that reads `updated` must find the op on disk after any crash.
        // A failed append rolls the commit back — the mutated graph is
        // evicted and the pre-update graph re-registered — so memory
        // never runs ahead of the journal, and answers `internal_error`;
        // the client retries under the id it already holds.
        if !quiet {
            if let Some(journal) = &self.journal {
                if let Err(e) = journal.append(
                    &Record::Update {
                        from: id.to_string(),
                        seed,
                        ops: ops.to_vec(),
                    },
                    self.injector.as_ref(),
                ) {
                    self.cache.remove(&new_id);
                    let _ = self.cache.insert((*resident).clone());
                    return Err(journal_error(&e));
                }
            }
        }
        // Count the solve mode only for the attempt that committed, so
        // the dynamic counters match the responses clients actually saw
        // (and not at all during replay — replayed traffic was counted
        // in its original run).
        if !quiet {
            match mode {
                UpdateMode::Incremental => self.incremental_solves.fetch_add(1, Ordering::Relaxed),
                UpdateMode::Fresh | UpdateMode::Repack => {
                    self.full_solves.fetch_add(1, Ordering::Relaxed)
                }
            };
        }
        Ok(Some(Response::Updated {
            id: new_id,
            from: id.to_string(),
            n,
            m,
            value,
            digest,
            mode,
            reswept,
            micros,
        }))
    }

    /// The current counters, as served by the `stats` request.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let pool = self.pool.stats();
        StatsSnapshot {
            uptime_micros: if self.timing {
                self.start.elapsed().as_micros()
            } else {
                0
            },
            threads: self.threads as u64,
            requests: RequestCounters {
                load: self.loads.load(Ordering::Relaxed),
                solve: self.solve_requests.load(Ordering::Relaxed),
                update: self.update_requests.load(Ordering::Relaxed),
                stats: self.stats_requests.load(Ordering::Relaxed),
                errors: self.errors.load(Ordering::Relaxed),
            },
            cache: self.cache.counters(),
            admission: self.admission.counters(),
            pool: PoolCounters {
                created: pool.created,
                checkouts: pool.checkouts,
                available: pool.available as u64,
            },
            dynamic: DynamicCounters {
                incremental: self.incremental_solves.load(Ordering::Relaxed),
                full: self.full_solves.load(Ordering::Relaxed),
            },
            latency: LatencyCounters {
                load: self.lat_load.counters(),
                solve: self.lat_solve.counters(),
                update: self.lat_update.counters(),
            },
            faults: FaultCounters {
                panics: self.panics.load(Ordering::Relaxed),
                timeouts: self.timeouts.load(Ordering::Relaxed),
                injected: self.injector.as_ref().map_or(0, |i| i.injected()),
            },
            journal: match &self.journal {
                Some(j) => JournalCounters {
                    enabled: 1,
                    records: j.records(),
                    bytes: j.bytes(),
                    replayed: self.journal_replayed,
                    truncated: self.journal_truncated,
                    errors: j.errors(),
                },
                None => JournalCounters::default(),
            },
            solves: self.solves.load(Ordering::Relaxed),
        }
    }

    /// The pipelined serve loop: one request frame per line in, one
    /// response frame per line out, in order, flushed per frame. Returns
    /// on EOF or after answering a `shutdown`.
    pub fn serve_stream<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
    ) -> io::Result<ServeOutcome> {
        self.serve_stream_guarded(reader, writer, None)
    }

    /// [`Service::serve_stream`] with the TCP front end's two guards:
    ///
    /// * `stop` — once set (another connection answered `shutdown`),
    ///   subsequent frames on this connection get the structured
    ///   `shutting_down` refusal and the loop ends cleanly, instead of
    ///   racing work into a store that is going away.
    /// * A read that fails with `WouldBlock`/`TimedOut` is the socket's
    ///   idle timeout (`--idle-timeout-ms`): the silent client gets one
    ///   structured `idle_timeout` frame and a clean close, so an
    ///   abandoned connection cannot pin its thread — or wedge shutdown
    ///   — forever.
    fn serve_stream_guarded<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
        stop: Option<&AtomicBool>,
    ) -> io::Result<ServeOutcome> {
        let mut frames = 0u64;
        loop {
            let frame = match read_frame(&mut reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => break, // EOF
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    self.answered.fetch_add(1, Ordering::Relaxed);
                    frames += 1;
                    let idle = self.error_response(ProtocolError::new(
                        ErrorKind::IdleTimeout,
                        "connection idle past --idle-timeout-ms; closing",
                    ));
                    let _ = writeln!(writer, "{}", idle.to_frame());
                    let _ = writer.flush();
                    return Ok(ServeOutcome {
                        frames,
                        shutdown: false,
                    });
                }
                Err(e) => return Err(e),
            };
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                self.answered.fetch_add(1, Ordering::Relaxed);
                frames += 1;
                let refusal = self.error_response(ProtocolError::new(
                    ErrorKind::ShuttingDown,
                    "service is shutting down; no requests on this connection will be served",
                ));
                writeln!(writer, "{}", refusal.to_frame())?;
                writer.flush()?;
                return Ok(ServeOutcome {
                    frames,
                    shutdown: false,
                });
            }
            let (response, stop_now) = match frame {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => self.handle_frame(&line),
                Err(e) => {
                    self.answered.fetch_add(1, Ordering::Relaxed);
                    (self.error_response(e), false)
                }
            };
            frames += 1;
            writeln!(writer, "{}", response.to_frame())?;
            writer.flush()?;
            if stop_now {
                return Ok(ServeOutcome {
                    frames,
                    shutdown: true,
                });
            }
        }
        Ok(ServeOutcome {
            frames,
            shutdown: false,
        })
    }

    /// Blocks (bounded) until every admitted request has released its
    /// permits: the shutdown path calls this so in-flight solves finish
    /// and check their workspaces back in before the process exits. The
    /// bound is the request timeout when one is configured (no admitted
    /// request can outlive it), else five seconds.
    fn wait_for_drain(&self) {
        let budget = self.request_timeout.unwrap_or(Duration::from_secs(5));
        let deadline = Instant::now() + budget;
        while self.admission.inflight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The TCP front end: accepts connections and serves each on its own
    /// OS thread over the shared service state, so concurrent clients'
    /// solves interleave across one workspace pool and one graph cache.
    /// A `shutdown` frame on any connection stops the listener (a wake
    /// connection unblocks the accept loop) after in-flight connections
    /// finish.
    pub fn serve_listener(&self, listener: &TcpListener) -> io::Result<()> {
        self.serve_listener_until(listener, &AtomicBool::new(false))
    }

    /// [`Service::serve_listener`] with an externally owned stop flag —
    /// split out so the raced-late-client path (a connection accepted
    /// after `stop` is already set) is deterministically testable.
    pub(crate) fn serve_listener_until(
        &self,
        listener: &TcpListener,
        stop: &AtomicBool,
    ) -> io::Result<()> {
        // The wake connection must actually reach the listener: a
        // wildcard bind address (0.0.0.0 / ::) is not connectable, so
        // rewrite it to the matching loopback.
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        std::thread::scope(|scope| -> io::Result<()> {
            let mut backoff = ACCEPT_BACKOFF_MIN;
            loop {
                let (mut socket, _) = match listener.accept() {
                    Ok(accepted) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        accepted
                    }
                    // A transient failure must not end the listener; the
                    // stop flag is checked first, since a listener out of
                    // descriptors cannot accept the wake connection.
                    Err(e) => match accept_retry(&e) {
                        AcceptRetry::Fatal => return Err(e),
                        _ if stop.load(Ordering::SeqCst) => break,
                        AcceptRetry::Now => continue,
                        AcceptRetry::Backoff => {
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                            continue;
                        }
                    },
                };
                if stop.load(Ordering::SeqCst) {
                    // The wake connection, or a raced late client. The
                    // latter deserves an answer, not a silent close:
                    // tell it the service is going away so it can fail
                    // over instead of diagnosing an empty read. (The
                    // wake connection ignores the frame.)
                    let refusal = Response::Error(ProtocolError::new(
                        ErrorKind::ShuttingDown,
                        "service is shutting down; no requests on this connection will be served",
                    ));
                    let _ = writeln!(socket, "{}", refusal.to_frame());
                    let _ = socket.flush();
                    break;
                }
                // Responses are written as several small writes per
                // frame; with Nagle on, those interact with the peer's
                // delayed ACK into a ~40ms floor per round trip on
                // loopback — disable it, this is a request/response
                // protocol.
                let _ = socket.set_nodelay(true);
                // A configured idle timeout surfaces as WouldBlock /
                // TimedOut reads, which the guarded loop answers with a
                // structured `idle_timeout` frame.
                let _ = socket.set_read_timeout(self.idle_timeout);
                let stop = &stop;
                scope.spawn(move || {
                    let reader = BufReader::new(&socket);
                    let outcome = self.serve_stream_guarded(reader, &socket, Some(stop));
                    if matches!(outcome, Ok(ServeOutcome { shutdown: true, .. })) {
                        stop.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so the listener exits
                        // (bounded so a filtered loopback cannot wedge
                        // the shutdown path forever).
                        let _ = TcpStream::connect_timeout(
                            &wake_addr,
                            std::time::Duration::from_secs(5),
                        );
                    }
                });
            }
            // Shutdown drain: let admitted requests on other connections
            // finish (bounded) before the scope joins, so permits hit
            // zero and every pooled workspace is checked back in.
            self.wait_for_drain();
            Ok(())
        })
    }
}

/// First wait before the accept loop retries after running out of
/// descriptors or memory; the wait doubles per consecutive failure.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
/// Largest wait between such retries.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// What the accept loop does after `accept()` fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AcceptRetry {
    /// The failure belonged to one connection (aborted or reset before it
    /// was accepted) or to the call (interrupted, would block): accept the
    /// next connection right away.
    Now,
    /// The process or the system ran out of descriptors or buffer memory
    /// (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`): retry after a capped
    /// backoff, once connections have closed.
    Backoff,
    /// Anything else ends the listener with the error.
    Fatal,
}

/// Classifies an `accept()` error for the accept loop.
fn accept_retry(e: &io::Error) -> AcceptRetry {
    // Linux errno values of EMFILE, ENFILE, ENOBUFS and ENOMEM.
    const RESOURCE_EXHAUSTED: [i32; 4] = [24, 23, 105, 12];
    match e.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted
        | io::ErrorKind::WouldBlock => AcceptRetry::Now,
        io::ErrorKind::OutOfMemory => AcceptRetry::Backoff,
        _ if e
            .raw_os_error()
            .is_some_and(|code| RESOURCE_EXHAUSTED.contains(&code)) =>
        {
            AcceptRetry::Backoff
        }
        _ => AcceptRetry::Fatal,
    }
}

fn update_err(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorKind::Update, detail)
}

/// Maps a wire vertex (1-based, like DIMACS `e` lines) into the graph's
/// 0-based index space.
fn wire_vertex(g: &Graph, x: u64) -> Result<u32, ProtocolError> {
    let n = g.n() as u64;
    if x == 0 || x > n {
        return Err(update_err(format!("vertex {x} out of range 1..={n}")));
    }
    Ok((x - 1) as u32)
}

/// Applies one wire op to the (cloned) graph, threading it through the
/// snapshot's delta classifier when one is live. `(u, v)` addressing
/// resolves against the graph *as mutated so far* — op k sees the edges
/// left by ops 1..k — picking the smallest edge id when parallel edges
/// connect the pair.
fn apply_update_op(
    g: &mut Graph,
    state: Option<&mut SolveState>,
    op: &UpdateOp,
) -> Result<(), ProtocolError> {
    let edge_between = |g: &Graph, u: u64, v: u64| -> Result<u32, ProtocolError> {
        let (u0, v0) = (wire_vertex(g, u)?, wire_vertex(g, v)?);
        g.find_edge(u0, v0)
            .ok_or_else(|| update_err(format!("{}: no edge between {u} and {v}", op.kind_str())))
    };
    let mop = match *op {
        UpdateOp::AddEdge { u, v, w } => MutationOp::Add {
            u: wire_vertex(g, u)?,
            v: wire_vertex(g, v)?,
            w,
        },
        UpdateOp::RemoveEdge { u, v } => MutationOp::Remove {
            eid: edge_between(g, u, v)?,
        },
        UpdateOp::ReweightEdge { u, v, w } => MutationOp::Reweight {
            eid: edge_between(g, u, v)?,
            w,
        },
    };
    match state {
        Some(s) => apply_delta(g, s, &mop).map(|_| ()),
        None => match mop {
            MutationOp::Add { u, v, w } => g.add_edge(u, v, w).map(|_| ()),
            MutationOp::Remove { eid } => g.remove_edge(eid as usize).map(|_| ()),
            MutationOp::Reweight { eid, w } => g.reweight_edge(eid as usize, w).map(|_| ()),
        },
    }
    .map_err(|e| update_err(format!("{}: {e}", op.kind_str())))
}

/// Parses an inline graph body: DIMACS when it looks like DIMACS (first
/// significant line starts with `p`/`c`), edge list otherwise — with a
/// cross-format fallback so either format succeeds under either guess,
/// but error messages come from the format the body resembles.
fn parse_body(body: &str) -> Result<Graph, ProtocolError> {
    let looks_dimacs = body
        .lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| {
            let t = l.trim_start();
            t.starts_with('p') || t.starts_with('c')
        });
    let parsed = if looks_dimacs {
        // Symmetric to the branch below: a body that merely *looks*
        // DIMACS (e.g. an edge list led by a `c` comment line) must
        // still parse, with the error text from the guessed format.
        read_dimacs(body.as_bytes()).or_else(|e| read_edge_list(body.as_bytes()).map_err(|_| e))
    } else {
        read_edge_list(body.as_bytes()).or_else(|e| read_dimacs(body.as_bytes()).map_err(|_| e))
    };
    parsed.map_err(|e| ProtocolError::new(ErrorKind::Graph, format!("body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::graph_id;
    use std::io::Read as _;

    #[test]
    fn accept_errors_are_classified_transient_or_fatal() {
        use io::ErrorKind as K;
        for kind in [
            K::ConnectionAborted,
            K::ConnectionReset,
            K::Interrupted,
            K::WouldBlock,
        ] {
            assert_eq!(accept_retry(&io::Error::from(kind)), AcceptRetry::Now);
        }
        // EMFILE, ENFILE, ENOBUFS, ENOMEM.
        for errno in [24, 23, 105, 12] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(accept_retry(&e), AcceptRetry::Backoff, "errno {errno}");
        }
        assert_eq!(
            accept_retry(&io::Error::from(K::OutOfMemory)),
            AcceptRetry::Backoff
        );
        // EBADF, EINVAL, and kinds that say the listener itself is broken.
        for e in [
            io::Error::from_raw_os_error(9),
            io::Error::from_raw_os_error(22),
            io::Error::from(K::PermissionDenied),
            io::Error::from(K::InvalidInput),
        ] {
            assert_eq!(accept_retry(&e), AcceptRetry::Fatal, "{e}");
        }
    }

    /// One shard: these tests pin global LRU ordering and exact counter
    /// values, which per-shard budgets would redistribute.
    fn svc(threads: usize, cache: usize) -> Service {
        Service::new(&ServiceConfig {
            threads,
            cache_graphs: cache,
            cache_shards: 1,
            timing: false,
            ..ServiceConfig::default()
        })
    }

    const CYCLE4: &str = "p cut 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 1 1\n";

    fn load_id(service: &Service, body: &str) -> String {
        let (resp, stop) = service.handle(&Request::Load(LoadSource::Body(body.into())));
        assert!(!stop);
        match resp {
            Response::Loaded { id, .. } => id,
            other => panic!("load failed: {other:?}"),
        }
    }

    #[test]
    fn load_solve_stats_shutdown_lifecycle() {
        let service = svc(2, 8);
        let id = load_id(&service, CYCLE4);
        assert_eq!(
            id,
            graph_id(&read_dimacs(CYCLE4.as_bytes()).unwrap()),
            "load must register under the content id"
        );
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![id.clone()],
            solver: "sw".into(),
            seed: 3,
            deadline_ms: None,
        });
        let Response::Solved { results } = resp else {
            panic!("solve failed: {resp:?}");
        };
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].value, 2); // 4-cycle min cut
        assert_eq!(results[0].micros, 0); // timing suppressed
        assert!(results[0].digest.starts_with("p-"));

        let (resp, _) = service.handle(&Request::Stats);
        let Response::Stats(s) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(s.requests.load, 1);
        assert_eq!(s.requests.solve, 1);
        assert_eq!(s.solves, 1);
        assert_eq!(s.cache.graphs, 1);
        assert_eq!(s.uptime_micros, 0);

        let (resp, stop) = service.handle(&Request::Shutdown);
        assert!(stop);
        assert!(matches!(resp, Response::Shutdown { .. }));
    }

    #[test]
    fn empty_solve_batch_is_an_error_not_a_panic() {
        // The wire parser rejects empty batches, but the public Request
        // type can carry one; the dispatcher must answer, not panic.
        let service = svc(2, 4);
        let (resp, stop) = service.handle(&Request::Solve {
            graphs: vec![],
            solver: "paper".into(),
            seed: 0,
            deadline_ms: None,
        });
        assert!(!stop);
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Request);
        assert!(e.detail.contains("non-empty"), "{e}");
    }

    #[test]
    fn solve_of_unknown_id_is_a_structured_miss() {
        let service = svc(1, 4);
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec!["g-feedfacefeedface".into()],
            solver: "paper".into(),
            seed: 1,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::GraphNotLoaded);
        assert!(e.detail.contains("g-feedfacefeedface"), "{e}");
        assert_eq!(service.stats_snapshot().cache.misses, 1);
    }

    #[test]
    fn batch_solve_is_worker_count_invariant() {
        // Distinct cycles with one heavier edge each, then random graphs of
        // serve traffic's size.
        let mut bodies: Vec<String> = (0..6)
            .map(|k| {
                let n = 5 + k;
                let mut s = format!("p cut {n} {n}\n");
                for i in 1..=n {
                    let j = i % n + 1;
                    let w = if i == 1 { 4 } else { 1 };
                    s.push_str(&format!("e {i} {j} {w}\n"));
                }
                s
            })
            .collect();
        bodies.extend((0..6).map(|i| {
            let n = 24 + 8 * i;
            let g = pmc_graph::gen::gnm_connected(n, 3 * n, 8, 0x5E21 + i as u64);
            let mut body = Vec::new();
            pmc_graph::io::write_dimacs(&g, &mut body).unwrap();
            String::from_utf8(body).unwrap()
        }));
        let graphs: Vec<Graph> = bodies
            .iter()
            .map(|b| read_dimacs(b.as_bytes()).unwrap())
            .collect();
        for name in ["paper", "sw"] {
            let mut reference: Option<Vec<SolveOutcome>> = None;
            for threads in [1usize, 4] {
                let service = svc(threads, 16);
                let ids: Vec<String> = bodies.iter().map(|b| load_id(&service, b)).collect();
                let (resp, _) = service.handle(&Request::Solve {
                    graphs: ids,
                    solver: name.into(),
                    seed: 99,
                    deadline_ms: None,
                });
                let Response::Solved { results } = resp else {
                    panic!("{resp:?}")
                };
                match &reference {
                    None => reference = Some(results),
                    Some(want) => assert_eq!(&results, want, "{name} threads={threads}"),
                }
            }
            // The service answers what the solver answers when called
            // directly, witness included.
            let direct = solver_by_name(name).unwrap();
            for (g, got) in graphs.iter().zip(reference.unwrap()) {
                let want = direct.solve(g, &SolverConfig::with_seed(99)).unwrap();
                assert_eq!(
                    (got.value, got.digest),
                    (want.value, partition_digest(&want.side)),
                    "{name} on {}",
                    got.graph
                );
            }
        }
    }

    #[test]
    fn eviction_forces_reload() {
        let service = svc(1, 2);
        let a = load_id(&service, CYCLE4);
        let b = load_id(&service, "p cut 3 3\ne 1 2 1\ne 2 3 1\ne 3 1 1\n");
        let c = load_id(
            &service,
            "p cut 5 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 5 1 1\n",
        );
        assert_ne!(a, b);
        assert_ne!(b, c);
        // Capacity 2: `a` (the least recently used) is gone.
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![a.clone()],
            solver: "sw".into(),
            seed: 0,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::GraphNotLoaded);
        // Re-load restores it under the same id, then the solve works.
        assert_eq!(load_id(&service, CYCLE4), a);
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![a],
            solver: "sw".into(),
            seed: 0,
            deadline_ms: None,
        });
        assert!(matches!(resp, Response::Solved { .. }), "{resp:?}");
        assert_eq!(service.stats_snapshot().cache.evictions, 2);
    }

    #[test]
    fn unknown_solver_and_bad_body_are_structured_errors() {
        let service = svc(1, 4);
        let id = load_id(&service, CYCLE4);
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![id],
            solver: "nope".into(),
            seed: 0,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Solver);
        assert!(e.detail.contains("paper"), "self-describing: {e}");

        let (resp, _) = service.handle(&Request::Load(LoadSource::Body("p cut 0 0\n".into())));
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Graph);

        let (resp, _) = service.handle(&Request::Load(LoadSource::Path(
            "/no/such/file.dimacs".into(),
        )));
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Io);
        assert_eq!(service.stats_snapshot().requests.errors, 3);
    }

    #[test]
    fn update_rekeys_and_matches_a_from_scratch_solve() {
        let service = svc(2, 8);
        let id = load_id(&service, CYCLE4);
        // First update: no snapshot yet → a fresh solve of the mutated
        // graph, re-keyed under the new content id.
        let (resp, stop) = service.handle(&Request::Update {
            graph: id.clone(),
            ops: vec![UpdateOp::ReweightEdge { u: 1, v: 2, w: 5 }],
            seed: 3,
            deadline_ms: None,
        });
        assert!(!stop);
        let Response::Updated {
            id: id2,
            from,
            n,
            m,
            value,
            digest,
            mode,
            micros,
            ..
        } = resp
        else {
            panic!("update failed: {resp:?}")
        };
        assert_eq!(from, id);
        assert_ne!(id2, id, "content changed, so the id must move");
        assert_eq!((n, m), (4, 4));
        assert_eq!(mode, UpdateMode::Fresh);
        assert_eq!(micros, 0); // timing suppressed
                               // Parity: a plain solve of the re-keyed graph under the same seed
                               // must answer identically.
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![id2.clone()],
            solver: "paper".into(),
            seed: 3,
            deadline_ms: None,
        });
        let Response::Solved { results } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(results[0].value, value);
        assert_eq!(results[0].digest, digest);
        assert_eq!(value, 2, "cycle with one heavy edge still cuts two units");
        // Second update hits the snapshot: incremental or repack, never
        // fresh — and the old id is gone.
        let (resp, _) = service.handle(&Request::Update {
            graph: id2.clone(),
            ops: vec![UpdateOp::ReweightEdge { u: 2, v: 3, w: 4 }],
            seed: 3,
            deadline_ms: None,
        });
        let Response::Updated { mode, from, .. } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(from, id2);
        assert_ne!(mode, UpdateMode::Fresh, "snapshot must be reused");
        let s = service.stats_snapshot();
        assert_eq!(s.requests.update, 2);
        assert_eq!(s.cache.snapshot_misses, 1);
        assert_eq!(s.cache.snapshot_hits, 1);
        assert_eq!(s.cache.snapshots, 1);
        assert!(s.cache.bytes > 0);
        assert_eq!(s.dynamic.incremental + s.dynamic.full, 2);
        assert!(service
            .handle(&Request::Solve {
                graphs: vec![id],
                solver: "paper".into(),
                seed: 3,
                deadline_ms: None,
            })
            .0
            .to_frame()
            .contains("graph_not_loaded"));
    }

    #[test]
    fn update_is_transactional_on_op_errors() {
        let service = svc(1, 4);
        let id = load_id(&service, CYCLE4);
        for (ops, wants) in [
            // Second op fails: the first must not stick.
            (
                vec![
                    UpdateOp::AddEdge { u: 1, v: 3, w: 2 },
                    UpdateOp::RemoveEdge { u: 1, v: 3 },
                    UpdateOp::RemoveEdge { u: 1, v: 3 },
                ],
                "no edge",
            ),
            (vec![UpdateOp::AddEdge { u: 0, v: 2, w: 1 }], "out of range"),
            (vec![UpdateOp::AddEdge { u: 1, v: 9, w: 1 }], "out of range"),
            (vec![UpdateOp::AddEdge { u: 1, v: 3, w: 0 }], "weight"),
            (vec![UpdateOp::ReweightEdge { u: 1, v: 3, w: 2 }], "no edge"),
        ] {
            let (resp, _) = service.handle(&Request::Update {
                graph: id.clone(),
                ops,
                seed: 0,
                deadline_ms: None,
            });
            let Response::Error(e) = resp else {
                panic!("{resp:?}")
            };
            assert_eq!(e.kind, ErrorKind::Update, "{e}");
            assert!(e.detail.contains(wants), "{e}");
        }
        // The original graph is still resident and still solves to 2.
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![id],
            solver: "paper".into(),
            seed: 0,
            deadline_ms: None,
        });
        let Response::Solved { results } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(results[0].value, 2);
        assert_eq!(service.stats_snapshot().cache.graphs, 1);
    }

    #[test]
    fn update_of_unknown_id_is_a_structured_miss() {
        let service = svc(1, 4);
        let (resp, _) = service.handle(&Request::Update {
            graph: "g-feedfacefeedface".into(),
            ops: vec![UpdateOp::RemoveEdge { u: 1, v: 2 }],
            seed: 0,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::GraphNotLoaded);
    }

    #[test]
    fn update_answers_are_thread_count_invariant() {
        // Same session at widths 1 and 4: every update answer (value,
        // digest, mode, reswept) must be identical.
        let mut reference: Option<Vec<String>> = None;
        for threads in [1usize, 4] {
            let service = svc(threads, 8);
            let mut id = load_id(
                &service,
                "p cut 8 10\ne 1 2 3\ne 2 3 3\ne 3 4 3\ne 4 5 3\ne 5 6 3\ne 6 7 3\ne 7 8 3\ne 8 1 3\ne 1 5 2\ne 2 6 2\n",
            );
            let mut frames = Vec::new();
            for ops in [
                vec![UpdateOp::ReweightEdge { u: 1, v: 2, w: 9 }],
                vec![UpdateOp::AddEdge { u: 3, v: 7, w: 1 }],
                vec![
                    UpdateOp::RemoveEdge { u: 1, v: 5 },
                    UpdateOp::ReweightEdge { u: 2, v: 6, w: 7 },
                ],
            ] {
                let (resp, _) = service.handle(&Request::Update {
                    graph: id.clone(),
                    ops,
                    seed: 11,
                    deadline_ms: None,
                });
                let Response::Updated { id: next, .. } = &resp else {
                    panic!("{resp:?}")
                };
                id = next.clone();
                frames.push(resp.to_frame());
            }
            match &reference {
                None => reference = Some(frames),
                Some(want) => assert_eq!(&frames, want, "threads={threads}"),
            }
        }
    }

    #[test]
    fn serve_stream_pipelines_and_stops_on_shutdown() {
        let service = svc(2, 8);
        let body_escaped = CYCLE4.replace('\n', "\\n");
        let session = format!(
            "{}\n{}\nnot json\n{}\n{}\n",
            format_args!("{{\"op\":\"load\",\"body\":\"{body_escaped}\"}}"),
            "{\"op\":\"stats\"}",
            "{\"op\":\"shutdown\"}",
            "{\"op\":\"stats\"}", // after shutdown: must never be answered
        );
        let mut out = Vec::new();
        let outcome = service
            .serve_stream(BufReader::new(session.as_bytes()), &mut out)
            .unwrap();
        assert_eq!(
            outcome,
            ServeOutcome {
                frames: 4,
                shutdown: true
            }
        );
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(matches!(
            Response::parse_frame(lines[0]).unwrap(),
            Response::Loaded { .. }
        ));
        assert!(matches!(
            Response::parse_frame(lines[1]).unwrap(),
            Response::Stats(_)
        ));
        let Response::Error(e) = Response::parse_frame(lines[2]).unwrap() else {
            panic!("{}", lines[2]);
        };
        assert_eq!(e.kind, ErrorKind::Json);
        assert!(matches!(
            Response::parse_frame(lines[3]).unwrap(),
            Response::Shutdown { .. }
        ));
    }

    #[test]
    fn parse_body_falls_back_across_formats_in_both_directions() {
        let service = svc(1, 4);
        // An edge list whose first line is a DIMACS-style `c` comment:
        // the body *looks* DIMACS, so the pre-fix parser tried only
        // `read_dimacs`, failed on the missing `p` line, and rejected a
        // perfectly loadable graph.
        let id = load_id(
            &service,
            "c exported by a legacy tool\n0 1 3\n1 2 1\n2 0 2\n",
        );
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![id],
            solver: "sw".into(),
            seed: 0,
            deadline_ms: None,
        });
        let Response::Solved { results } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(results[0].value, 3, "triangle with weights 3/1/2");
        // A body unparseable under both formats reports the error of the
        // format it resembles (here: DIMACS, because of the `c` lead).
        let (resp, _) = service.handle(&Request::Load(LoadSource::Body("c comment\nzzz\n".into())));
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Graph);
        assert!(e.detail.contains("unknown line type"), "{e}");
    }

    #[test]
    fn failing_batch_leaves_no_phantom_solves() {
        let service = svc(2, 8);
        let small = load_id(&service, CYCLE4);
        // 30-cycle: over brute's n <= 24 enumeration bound.
        let mut big = String::from("p cut 30 30\n");
        for i in 1..=30 {
            big.push_str(&format!("e {i} {} 1\n", i % 30 + 1));
        }
        let big = load_id(&service, &big);
        // The small graph solves fine; the big one errors — the batch is
        // answered as one error frame, and the counters must agree that
        // zero solves were delivered (the pre-fix code counted the small
        // graph's phantom solve while iterating).
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![small, big],
            solver: "brute".into(),
            seed: 0,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Solve);
        let s = service.stats_snapshot();
        assert_eq!(s.solves, 0, "no phantom solves from the failed batch");
        assert_eq!(s.requests.solve, 0, "the batch never succeeded");
        assert_eq!(s.requests.errors, 1);
    }

    #[test]
    fn oversized_batch_is_rejected_as_overloaded() {
        // Budget of 2 worker slots; a 4-wide batch at 4 threads costs 4
        // and is deterministically refused — before touching the cache.
        let service = Service::new(&ServiceConfig {
            threads: 4,
            cache_graphs: 8,
            cache_shards: 1,
            max_inflight: 2,
            timing: false,
            ..ServiceConfig::default()
        });
        let ids: Vec<String> = (0..4)
            .map(|k| {
                let n = 5 + k;
                let mut s = format!("p cut {n} {n}\n");
                for i in 1..=n {
                    s.push_str(&format!("e {i} {} 1\n", i % n + 1));
                }
                load_id(&service, &s)
            })
            .collect();
        let (resp, _) = service.handle(&Request::Solve {
            graphs: ids.clone(),
            solver: "sw".into(),
            seed: 0,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Overloaded);
        assert!(e.detail.contains("4 of 2"), "{e}");
        // A 2-wide batch fits and still answers.
        let (resp, _) = service.handle(&Request::Solve {
            graphs: ids[..2].to_vec(),
            solver: "sw".into(),
            seed: 0,
            deadline_ms: None,
        });
        assert!(matches!(resp, Response::Solved { .. }), "{resp:?}");
        let s = service.stats_snapshot();
        assert_eq!(s.admission.max_inflight, 2);
        assert_eq!(s.admission.rejected, 1);
        assert_eq!(s.admission.admitted, 1);
        assert_eq!(s.admission.inflight, 0, "permits released on drop");
        assert_eq!(s.cache.misses, 0, "rejection happened before the store");
    }

    #[test]
    fn late_client_after_stop_gets_a_shutdown_frame() {
        // A connection accepted after `stop` is set used to be closed
        // with no bytes written; it must see a structured refusal.
        let service = svc(1, 4);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = AtomicBool::new(true);
        std::thread::scope(|scope| {
            let service = &service;
            let (listener, stop) = (&listener, &stop);
            let handle = scope.spawn(move || service.serve_listener_until(listener, stop));
            let client = TcpStream::connect(addr).unwrap();
            let mut reply = String::new();
            BufReader::new(&client).read_to_string(&mut reply).unwrap();
            let lines: Vec<&str> = reply.lines().collect();
            assert_eq!(lines.len(), 1, "{reply}");
            let Response::Error(e) = Response::parse_frame(lines[0]).unwrap() else {
                panic!("{}", lines[0]);
            };
            assert_eq!(e.kind, ErrorKind::ShuttingDown);
            assert!(e.detail.contains("shutting down"), "{e}");
            handle.join().unwrap().unwrap();
        });
    }

    #[test]
    fn tcp_listener_serves_and_shuts_down() {
        let service = svc(2, 8);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let service = &service;
            let handle = scope.spawn(move || service.serve_listener(&listener));
            let mut client = TcpStream::connect(addr).unwrap();
            let body_escaped = CYCLE4.replace('\n', "\\n");
            write!(
                client,
                "{{\"op\":\"load\",\"body\":\"{body_escaped}\"}}\n{{\"op\":\"shutdown\"}}\n"
            )
            .unwrap();
            let mut reply = String::new();
            BufReader::new(&client).read_to_string(&mut reply).unwrap();
            let lines: Vec<&str> = reply.lines().collect();
            assert_eq!(lines.len(), 2, "{reply}");
            assert!(matches!(
                Response::parse_frame(lines[0]).unwrap(),
                Response::Loaded { .. }
            ));
            assert!(matches!(
                Response::parse_frame(lines[1]).unwrap(),
                Response::Shutdown { .. }
            ));
            handle.join().unwrap().unwrap();
        });
    }

    fn tmp_journal(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pmc-service-test-{}-{name}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn injected_panic_answers_internal_error_and_leaves_the_service_alive() {
        let service = Service::new(&ServiceConfig {
            threads: 1,
            cache_shards: 1,
            timing: false,
            faults: Some(FaultPlan::parse("1:panic=1").unwrap()),
            ..ServiceConfig::default()
        });
        let id = load_id(&service, CYCLE4);
        for _ in 0..3 {
            let (resp, _) = service.handle(&Request::Solve {
                graphs: vec![id.clone()],
                solver: "paper".into(),
                seed: 0,
                deadline_ms: None,
            });
            let Response::Error(e) = resp else {
                panic!("{resp:?}")
            };
            assert_eq!(e.kind, ErrorKind::Internal);
            assert!(e.detail.contains("panicked"), "{}", e.detail);
        }
        let s = service.stats_snapshot();
        assert_eq!(s.faults.panics, 3);
        assert_eq!(s.faults.injected, 3);
        // Permits fully released; the poisoned workspaces were replaced,
        // not checked back in, so the pool still round-trips cleanly.
        assert_eq!(s.admission.inflight, 0);
        assert_eq!(s.pool.available + s.admission.inflight, s.pool.available);
    }

    #[test]
    fn expired_deadline_answers_timed_out_and_releases_slots() {
        // The injected delay outlasts the 1ms request deadline, so the
        // solver's entry checkpoint trips before any work happens.
        let service = Service::new(&ServiceConfig {
            threads: 1,
            cache_shards: 1,
            timing: false,
            faults: Some(FaultPlan::parse("1:delay=1,delay_ms=30").unwrap()),
            ..ServiceConfig::default()
        });
        let id = load_id(&service, CYCLE4);
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![id.clone()],
            solver: "paper".into(),
            seed: 0,
            deadline_ms: Some(1),
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::TimedOut);
        let s = service.stats_snapshot();
        assert_eq!(s.faults.timeouts, 1);
        assert_eq!(s.admission.inflight, 0);
        // Without a deadline the same service answers normally: the
        // delay alone is harmless, and the cancel token did not leak
        // into the pooled workspace.
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![id],
            solver: "paper".into(),
            seed: 0,
            deadline_ms: None,
        });
        assert!(matches!(resp, Response::Solved { .. }), "{resp:?}");
    }

    #[test]
    fn overloaded_rejections_carry_a_retry_after_hint() {
        let service = Service::new(&ServiceConfig {
            threads: 4,
            cache_shards: 1,
            max_inflight: 2,
            timing: false,
            ..ServiceConfig::default()
        });
        let ids = vec![load_id(&service, CYCLE4); 4];
        let (resp, _) = service.handle(&Request::Solve {
            graphs: ids,
            solver: "sw".into(),
            seed: 0,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Overloaded);
        assert_eq!(e.retry_after_ms, Some(40)); // 10ms per refused slot
    }

    #[test]
    fn journal_replays_acknowledged_ops_bit_identically() {
        let path = tmp_journal("replay");
        let cfg = ServiceConfig {
            threads: 2,
            cache_shards: 1,
            timing: false,
            journal: Some(path.clone()),
            ..ServiceConfig::default()
        };
        let (first_id, updated_id, value, digest) = {
            let service = Service::new(&cfg);
            let id = load_id(&service, CYCLE4);
            let (resp, _) = service.handle(&Request::Update {
                graph: id.clone(),
                ops: vec![UpdateOp::ReweightEdge { u: 1, v: 2, w: 7 }],
                seed: 5,
                deadline_ms: None,
            });
            let Response::Updated { id: new_id, .. } = resp else {
                panic!("{resp:?}")
            };
            // The uninterrupted run's answer for the mutated graph, to
            // compare against the recovered store's.
            let (resp, _) = service.handle(&Request::Solve {
                graphs: vec![new_id.clone()],
                solver: "paper".into(),
                seed: 5,
                deadline_ms: None,
            });
            let Response::Solved { results } = resp else {
                panic!("{resp:?}")
            };
            (id, new_id, results[0].value, results[0].digest.clone())
        };
        // A new service on the same journal rebuilds the store: the
        // re-keyed graph answers bit-identically to the pre-crash one.
        let service = Service::new(&cfg);
        let s = service.stats_snapshot();
        assert_eq!(s.journal.replayed, 2); // the load + the update
        assert_eq!(s.journal.enabled, 1);
        assert_eq!(s.requests.load, 0, "replay must not count as traffic");
        let (resp, _) = service.handle(&Request::Update {
            graph: first_id,
            ops: vec![UpdateOp::ReweightEdge { u: 1, v: 2, w: 7 }],
            seed: 5,
            deadline_ms: None,
        });
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        // The original id was re-keyed by the replayed update, exactly
        // as it was pre-restart.
        assert_eq!(e.kind, ErrorKind::GraphNotLoaded);
        let (resp, _) = service.handle(&Request::Solve {
            graphs: vec![updated_id],
            solver: "paper".into(),
            seed: 5,
            deadline_ms: None,
        });
        let Response::Solved { results } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(results[0].value, value);
        assert_eq!(results[0].digest, digest);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_append_failure_answers_internal_error_without_acknowledging() {
        let path = tmp_journal("fail");
        let service = Service::new(&ServiceConfig {
            threads: 1,
            cache_shards: 1,
            timing: false,
            journal: Some(path.clone()),
            faults: Some(FaultPlan::parse("1:journal=1").unwrap()),
            ..ServiceConfig::default()
        });
        let (resp, _) = service.handle(&Request::Load(LoadSource::Body(CYCLE4.into())));
        let Response::Error(e) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(e.kind, ErrorKind::Internal);
        assert!(e.detail.contains("journal"), "{}", e.detail);
        let s = service.stats_snapshot();
        assert_eq!(s.journal.errors, 1);
        assert_eq!(s.journal.records, 0);
        // The insert was backed out along with the failed append: a
        // re-load must go down the journaled path again (and fail
        // again, with every append faulted), not ack from cache.
        let (resp2, _) = service.handle(&Request::Load(LoadSource::Body(CYCLE4.into())));
        assert!(
            matches!(resp2, Response::Error(_)),
            "backed-out graph must not acknowledge from cache: {resp2:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn guarded_stream_refuses_frames_after_stop() {
        let service = svc(1, 4);
        let stop = AtomicBool::new(true);
        let mut out = Vec::new();
        let outcome = service
            .serve_stream_guarded("{\"op\":\"stats\"}\n".as_bytes(), &mut out, Some(&stop))
            .unwrap();
        assert_eq!(outcome.frames, 1);
        assert!(!outcome.shutdown);
        let reply = String::from_utf8(out).unwrap();
        let Response::Error(e) = Response::parse_frame(reply.trim()).unwrap() else {
            panic!("{reply}")
        };
        assert_eq!(e.kind, ErrorKind::ShuttingDown);
    }

    #[test]
    fn idle_read_timeout_answers_a_structured_frame_and_closes() {
        /// A reader that yields one WouldBlock error, as an idle socket
        /// with a read timeout does.
        struct IdleReader;
        impl io::Read for IdleReader {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "idle"))
            }
        }
        let service = svc(1, 4);
        let mut out = Vec::new();
        let outcome = service
            .serve_stream_guarded(BufReader::new(IdleReader), &mut out, None)
            .unwrap();
        assert_eq!(outcome.frames, 1);
        assert!(!outcome.shutdown);
        let reply = String::from_utf8(out).unwrap();
        let Response::Error(e) = Response::parse_frame(reply.trim()).unwrap() else {
            panic!("{reply}")
        };
        assert_eq!(e.kind, ErrorKind::IdleTimeout);
    }
}
