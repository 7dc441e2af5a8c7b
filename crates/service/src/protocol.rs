//! The `pmc serve` wire protocol: newline-delimited JSON frames.
//!
//! One request per line in, one response per line out, in order — a
//! pipelined client writes any number of frames before reading. The
//! protocol is strict by design: unknown operations, unknown fields,
//! wrong field types, oversized frames, and malformed JSON all produce a
//! structured [`Response::Error`] (never a panic, never an unbounded
//! allocation — frames are length-capped by [`MAX_FRAME_BYTES`] *before*
//! buffering, mirroring the `MAX_PARSED_*` caps in `pmc_graph::io`).
//!
//! ## Requests
//!
//! ```text
//! {"op":"load","body":"p cut 2 1\ne 1 2 3\n"}     register an inline graph
//! {"op":"load","path":"/data/g.dimacs"}           register a graph file
//! {"op":"solve","graph":"g-…","solver":"paper","seed":7}
//! {"op":"solve","graphs":["g-…","g-…"],"solver":"sw","seed":1}
//! {"op":"update","graph":"g-…","ops":[{"kind":"reweight_edge","u":1,"v":2,"w":9}],"seed":7}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Graphs are **content-addressed**: `load` hashes the parsed graph
//! (vertex count + canonical edge list) into an id `g-<16 hex>`, so
//! loading the same graph twice — inline or from a file — yields the same
//! id and one cache slot. `solve` answers with the cut value, a canonical
//! witness-partition digest `p-<16 hex>`, and timing; identical
//! `(graph, solver, seed)` requests get identical value/digest regardless
//! of arrival order or worker count.
//!
//! `update` mutates a cached graph (`add_edge` / `remove_edge` /
//! `reweight_edge`, 1-based vertices like DIMACS `e` lines) and re-solves
//! it incrementally over the cached tree packing. Because ids are
//! content-addressed, the mutated graph gets a **new** id, returned in
//! the response alongside the old one; the answer is bit-identical to a
//! from-scratch solve of the mutated graph.

use std::fmt;
use std::io::{self, BufRead, Read};

use pmc_graph::Graph;

use crate::json::{self, Json};

/// Hard cap on one frame's byte length. Enforced *while reading*: an
/// oversized line is drained (not buffered) and answered with a `frame`
/// error, so a hostile client cannot make the service allocate the line.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Most graph ids one `solve` request may carry.
pub const MAX_SOLVE_BATCH: usize = 1024;

/// Most mutation ops one `update` request may carry.
pub const MAX_UPDATE_OPS: usize = 4096;

/// What went wrong, as a stable machine-readable discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame itself was unusable (too long, not UTF-8).
    Frame,
    /// The frame was not valid JSON.
    Json,
    /// The JSON did not encode a known request.
    Request,
    /// A graph body or file failed to parse into a valid graph.
    Graph,
    /// A `solve` referenced an id the cache does not (or no longer does)
    /// hold; the client should re-`load` and retry.
    GraphNotLoaded,
    /// Unknown solver name.
    Solver,
    /// The solver itself failed.
    Solve,
    /// An `update` op could not be applied (unknown edge, self-loop,
    /// zero weight, overflow); the cached graph is left untouched.
    Update,
    /// An I/O failure while reading a graph file.
    Io,
    /// The admission gate refused the request: the in-flight solve/update
    /// budget (`--max-inflight`) is spent, or the request alone costs
    /// more than the whole budget. Back off and retry.
    Overloaded,
    /// The connection was accepted while the service was shutting down;
    /// no request on it will be served.
    ShuttingDown,
    /// The request's deadline (its `deadline_ms` field, or the service's
    /// `--request-timeout-ms` default) passed before the solve finished;
    /// the work was cancelled cooperatively and its admission slots were
    /// released.
    TimedOut,
    /// A worker panicked while serving the request. The panic was
    /// isolated: the poisoned workspace was discarded and the service
    /// keeps running.
    Internal,
    /// The connection sat idle past `--idle-timeout-ms`; the service
    /// answered this frame and closed the connection cleanly.
    IdleTimeout,
}

impl ErrorKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Frame => "frame",
            ErrorKind::Json => "json",
            ErrorKind::Request => "request",
            ErrorKind::Graph => "graph",
            ErrorKind::GraphNotLoaded => "graph_not_loaded",
            ErrorKind::Solver => "solver",
            ErrorKind::Solve => "solve",
            ErrorKind::Update => "update",
            ErrorKind::Io => "io",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::TimedOut => "timed_out",
            ErrorKind::Internal => "internal_error",
            ErrorKind::IdleTimeout => "idle_timeout",
        }
    }

    /// Every kind, for generators and round-trip tests.
    pub const ALL: [ErrorKind; 14] = [
        ErrorKind::Frame,
        ErrorKind::Json,
        ErrorKind::Request,
        ErrorKind::Graph,
        ErrorKind::GraphNotLoaded,
        ErrorKind::Solver,
        ErrorKind::Solve,
        ErrorKind::Update,
        ErrorKind::Io,
        ErrorKind::Overloaded,
        ErrorKind::ShuttingDown,
        ErrorKind::TimedOut,
        ErrorKind::Internal,
        ErrorKind::IdleTimeout,
    ];

    fn from_str(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// A structured protocol failure: every malformed or unservable frame
/// becomes one of these, serialized as `{"ok":false,…}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable discriminant.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub detail: String,
    /// Backoff hint in milliseconds, attached to `overloaded` rejections.
    /// Serialized only when present, so every error frame that does not
    /// carry one stays byte-identical to earlier protocol versions.
    pub retry_after_ms: Option<u64>,
}

impl ProtocolError {
    /// Constructs an error of `kind` (no retry hint).
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        ProtocolError {
            kind,
            detail: detail.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a `retry_after_ms` backoff hint to the error frame.
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// Where a `load` request's graph comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadSource {
    /// Inline text (DIMACS or edge list), newline-escaped in the frame.
    Body(String),
    /// A path readable by the *server* process.
    Path(String),
}

/// One mutation inside an `update` request. Vertices are 1-based on the
/// wire, mirroring DIMACS `e` lines; `remove_edge` and `reweight_edge`
/// address the **smallest-id** edge connecting `u` and `v` (relevant only
/// for multigraphs with parallel edges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Append a new weighted edge.
    AddEdge {
        /// First endpoint, 1-based.
        u: u64,
        /// Second endpoint, 1-based.
        v: u64,
        /// Positive weight.
        w: u64,
    },
    /// Delete the smallest-id edge connecting `u` and `v`.
    RemoveEdge {
        /// First endpoint, 1-based.
        u: u64,
        /// Second endpoint, 1-based.
        v: u64,
    },
    /// Set the weight of the smallest-id edge connecting `u` and `v`.
    ReweightEdge {
        /// First endpoint, 1-based.
        u: u64,
        /// Second endpoint, 1-based.
        v: u64,
        /// New positive weight.
        w: u64,
    },
}

impl UpdateOp {
    /// The wire spelling of this op's `kind`.
    pub fn kind_str(self) -> &'static str {
        match self {
            UpdateOp::AddEdge { .. } => "add_edge",
            UpdateOp::RemoveEdge { .. } => "remove_edge",
            UpdateOp::ReweightEdge { .. } => "reweight_edge",
        }
    }
}

/// How the service produced an `update` answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMode {
    /// No snapshot was cached for the graph: the mutated graph was solved
    /// from scratch (and its snapshot cached for next time).
    Fresh,
    /// The cached packing was kept; only the invalidated trees were
    /// re-swept.
    Incremental,
    /// The cached snapshot was re-packed: a pinned tree lost an edge, or
    /// the pinned trees may no longer cover the minimum cut.
    Repack,
}

impl UpdateMode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateMode::Fresh => "fresh",
            UpdateMode::Incremental => "incremental",
            UpdateMode::Repack => "repack",
        }
    }

    /// Every mode, for generators and round-trip tests.
    pub const ALL: [UpdateMode; 3] = [
        UpdateMode::Fresh,
        UpdateMode::Incremental,
        UpdateMode::Repack,
    ];

    fn from_str(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.as_str() == s)
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Register a graph under its content-addressed id.
    Load(LoadSource),
    /// Solve one or more cached graphs with one solver and seed.
    Solve {
        /// Content-addressed graph ids, solved in order.
        graphs: Vec<String>,
        /// Registry solver name (`pmc algos`).
        solver: String,
        /// Solver randomness seed.
        seed: u64,
        /// Per-request deadline in milliseconds; overrides the service's
        /// `--request-timeout-ms` default. Past it, the solve is
        /// cancelled cooperatively and answered `timed_out`.
        deadline_ms: Option<u64>,
    },
    /// Mutate a cached graph and re-solve it incrementally.
    Update {
        /// Content-addressed id of the graph to mutate.
        graph: String,
        /// Mutations, applied in order, transactionally: if any op
        /// fails, the cached graph is left untouched.
        ops: Vec<UpdateOp>,
        /// Solver randomness seed (pins the packing when a snapshot has
        /// to be built).
        seed: u64,
        /// Per-request deadline in milliseconds; overrides the service's
        /// `--request-timeout-ms` default.
        deadline_ms: Option<u64>,
    },
    /// Service counters snapshot.
    Stats,
    /// Graceful stop: the service answers, then exits its loop.
    Shutdown,
}

/// Default solver when a `solve` frame names none.
pub const DEFAULT_SOLVER: &str = "paper";

/// Default seed when a `solve` frame names none (the [`pmc_core::SolverConfig`] default).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

fn req_err(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorKind::Request, detail)
}

/// Rejects fields outside `allowed` — strictness makes client typos
/// (`"sovler"`) loud instead of silently defaulted.
fn check_fields(obj: &Json, allowed: &[&str]) -> Result<(), ProtocolError> {
    let Json::Obj(fields) = obj else {
        return Err(req_err("request frame must be a JSON object"));
    };
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(req_err(format!(
                "unknown field {k:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn str_field(obj: &Json, key: &str) -> Result<Option<String>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(req_err(format!("field {key:?} must be a string"))),
    }
}

fn u64_field(obj: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| req_err(format!("field {key:?} must be a u64"))),
    }
}

impl Request {
    /// Parses one frame into a request.
    pub fn parse_frame(frame: &str) -> Result<Request, ProtocolError> {
        let v =
            json::parse(frame).map_err(|e| ProtocolError::new(ErrorKind::Json, e.to_string()))?;
        let op = str_field(&v, "op")?.ok_or_else(|| req_err("missing \"op\" field"))?;
        match op.as_str() {
            "load" => {
                check_fields(&v, &["op", "body", "path"])?;
                let body = str_field(&v, "body")?;
                let path = str_field(&v, "path")?;
                match (body, path) {
                    (Some(b), None) => Ok(Request::Load(LoadSource::Body(b))),
                    (None, Some(p)) => Ok(Request::Load(LoadSource::Path(p))),
                    _ => Err(req_err("load takes exactly one of \"body\" or \"path\"")),
                }
            }
            "solve" => {
                check_fields(
                    &v,
                    &["op", "graph", "graphs", "solver", "seed", "deadline_ms"],
                )?;
                let single = str_field(&v, "graph")?;
                let many = match v.get("graphs") {
                    None => None,
                    Some(Json::Arr(items)) => {
                        if items.len() > MAX_SOLVE_BATCH {
                            return Err(req_err(format!(
                                "solve batch of {} exceeds the limit {MAX_SOLVE_BATCH}",
                                items.len()
                            )));
                        }
                        let mut ids = Vec::with_capacity(items.len());
                        for item in items {
                            match item {
                                Json::Str(s) => ids.push(s.clone()),
                                _ => {
                                    return Err(req_err(
                                        "field \"graphs\" must be an array of id strings",
                                    ))
                                }
                            }
                        }
                        Some(ids)
                    }
                    Some(_) => return Err(req_err("field \"graphs\" must be an array")),
                };
                let graphs = match (single, many) {
                    (Some(id), None) => vec![id],
                    (None, Some(ids)) if !ids.is_empty() => ids,
                    (None, Some(_)) => return Err(req_err("solve batch must be non-empty")),
                    _ => {
                        return Err(req_err(
                            "solve takes exactly one of \"graph\" or \"graphs\"",
                        ))
                    }
                };
                Ok(Request::Solve {
                    graphs,
                    solver: str_field(&v, "solver")?.unwrap_or_else(|| DEFAULT_SOLVER.into()),
                    seed: u64_field(&v, "seed")?.unwrap_or(DEFAULT_SEED),
                    deadline_ms: u64_field(&v, "deadline_ms")?,
                })
            }
            "update" => {
                check_fields(&v, &["op", "graph", "ops", "seed", "deadline_ms"])?;
                let graph = str_field(&v, "graph")?
                    .ok_or_else(|| req_err("update requires a \"graph\" id"))?;
                let Some(Json::Arr(items)) = v.get("ops") else {
                    return Err(req_err("update requires an \"ops\" array"));
                };
                if items.is_empty() {
                    return Err(req_err("update ops must be non-empty"));
                }
                if items.len() > MAX_UPDATE_OPS {
                    return Err(req_err(format!(
                        "update batch of {} exceeds the limit {MAX_UPDATE_OPS}",
                        items.len()
                    )));
                }
                let mut ops = Vec::with_capacity(items.len());
                for item in items {
                    let kind = str_field(item, "kind")?
                        .ok_or_else(|| req_err("every op needs a \"kind\""))?;
                    let need = |key: &str| -> Result<u64, ProtocolError> {
                        u64_field(item, key)?.ok_or_else(|| {
                            req_err(format!("op {kind:?} requires a u64 field {key:?}"))
                        })
                    };
                    ops.push(match kind.as_str() {
                        "add_edge" => {
                            check_fields(item, &["kind", "u", "v", "w"])?;
                            UpdateOp::AddEdge {
                                u: need("u")?,
                                v: need("v")?,
                                w: need("w")?,
                            }
                        }
                        "remove_edge" => {
                            check_fields(item, &["kind", "u", "v"])?;
                            UpdateOp::RemoveEdge {
                                u: need("u")?,
                                v: need("v")?,
                            }
                        }
                        "reweight_edge" => {
                            check_fields(item, &["kind", "u", "v", "w"])?;
                            UpdateOp::ReweightEdge {
                                u: need("u")?,
                                v: need("v")?,
                                w: need("w")?,
                            }
                        }
                        other => {
                            return Err(req_err(format!(
                                "unknown op kind {other:?} (valid: add_edge, remove_edge, reweight_edge)"
                            )))
                        }
                    });
                }
                Ok(Request::Update {
                    graph,
                    ops,
                    seed: u64_field(&v, "seed")?.unwrap_or(DEFAULT_SEED),
                    deadline_ms: u64_field(&v, "deadline_ms")?,
                })
            }
            "stats" => {
                check_fields(&v, &["op"])?;
                Ok(Request::Stats)
            }
            "shutdown" => {
                check_fields(&v, &["op"])?;
                Ok(Request::Shutdown)
            }
            other => Err(req_err(format!(
                "unknown op {other:?} (valid: load, solve, update, stats, shutdown)"
            ))),
        }
    }

    /// Serializes the request as one frame body (no trailing newline).
    pub fn to_frame(&self) -> String {
        let v = match self {
            Request::Load(LoadSource::Body(b)) => {
                json::obj(vec![("op", json::s("load")), ("body", json::s(b.clone()))])
            }
            Request::Load(LoadSource::Path(p)) => {
                json::obj(vec![("op", json::s("load")), ("path", json::s(p.clone()))])
            }
            Request::Solve {
                graphs,
                solver,
                seed,
                deadline_ms,
            } => {
                let mut fields = vec![("op", json::s("solve"))];
                if graphs.len() == 1 {
                    fields.push(("graph", json::s(graphs[0].clone())));
                } else {
                    fields.push((
                        "graphs",
                        Json::Arr(graphs.iter().map(|g| json::s(g.clone())).collect()),
                    ));
                }
                fields.push(("solver", json::s(solver.clone())));
                fields.push(("seed", json::n(*seed)));
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms", json::n(*d)));
                }
                json::obj(fields)
            }
            Request::Update {
                graph,
                ops,
                seed,
                deadline_ms,
            } => {
                let items = ops
                    .iter()
                    .map(|op| {
                        let mut fields = vec![("kind", json::s(op.kind_str()))];
                        match *op {
                            UpdateOp::AddEdge { u, v, w } | UpdateOp::ReweightEdge { u, v, w } => {
                                fields.push(("u", json::n(u)));
                                fields.push(("v", json::n(v)));
                                fields.push(("w", json::n(w)));
                            }
                            UpdateOp::RemoveEdge { u, v } => {
                                fields.push(("u", json::n(u)));
                                fields.push(("v", json::n(v)));
                            }
                        }
                        json::obj(fields)
                    })
                    .collect();
                let mut fields = vec![
                    ("op", json::s("update")),
                    ("graph", json::s(graph.clone())),
                    ("ops", json::arr(items)),
                    ("seed", json::n(*seed)),
                ];
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms", json::n(*d)));
                }
                json::obj(fields)
            }
            Request::Stats => json::obj(vec![("op", json::s("stats"))]),
            Request::Shutdown => json::obj(vec![("op", json::s("shutdown"))]),
        };
        json::write(&v)
    }
}

/// One graph's solve outcome inside a [`Response::Solved`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveOutcome {
    /// The content-addressed graph id.
    pub graph: String,
    /// Registry name of the solver that ran.
    pub solver: String,
    /// The seed the solve used.
    pub seed: u64,
    /// Minimum cut value.
    pub value: u64,
    /// Canonical digest of the witness partition (`p-<16 hex>`).
    pub digest: String,
    /// Wall time of this solve in microseconds (0 when the service runs
    /// with timing suppressed for byte-identical output).
    pub micros: u128,
}

/// Cache counters inside a [`StatsSnapshot`]. Aggregated over every
/// shard of the sharded store; `shards` additionally reports per-shard
/// occupancy so a skewed id distribution is visible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Configured capacity (`--cache-graphs`).
    pub capacity: u64,
    /// Configured byte budget (`--cache-bytes`; 0 = unbounded).
    pub capacity_bytes: u64,
    /// Graphs resident right now (sum of `shards`).
    pub graphs: u64,
    /// Graphs resident per shard, in shard order (`--cache-shards`
    /// entries).
    pub shards: Vec<u64>,
    /// Heap bytes resident right now (graphs + solve snapshots).
    pub bytes: u64,
    /// Entries currently carrying a solve snapshot.
    pub snapshots: u64,
    /// `solve` lookups that found their graph.
    pub hits: u64,
    /// `solve` lookups that missed (evicted or never loaded).
    pub misses: u64,
    /// `update` lookups that found a cached solve snapshot.
    pub snapshot_hits: u64,
    /// `update` lookups whose graph had no snapshot yet.
    pub snapshot_misses: u64,
    /// Evictions performed to stay within capacity.
    pub evictions: u64,
}

/// Request counters inside a [`StatsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestCounters {
    /// `load` frames served.
    pub load: u64,
    /// `solve` frames served.
    pub solve: u64,
    /// `update` frames served.
    pub update: u64,
    /// `stats` frames served.
    pub stats: u64,
    /// Frames answered with an error.
    pub errors: u64,
}

/// Incremental-vs-full solve counters inside a [`StatsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynamicCounters {
    /// `update` answers produced from the pinned packing (re-sweep only).
    pub incremental: u64,
    /// `update` answers that ran a full solve (fresh snapshot or
    /// re-pack).
    pub full: u64,
}

/// Admission-gate counters inside a [`StatsSnapshot`]. The gate bounds
/// concurrently executing solve/update work (`--max-inflight`, measured
/// in worker slots); excess requests are answered with a structured
/// [`ErrorKind::Overloaded`] error instead of queueing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Configured in-flight budget, in worker slots.
    pub max_inflight: u64,
    /// Requests admitted through the gate.
    pub admitted: u64,
    /// Requests rejected with `overloaded`.
    pub rejected: u64,
    /// Worker slots occupied right now.
    pub inflight: u64,
}

/// Workspace-pool counters inside a [`StatsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Workspaces materialized over the service lifetime.
    pub created: u64,
    /// Checkouts served.
    pub checkouts: u64,
    /// Workspaces currently checked in.
    pub available: u64,
}

/// Fault counters inside a [`StatsSnapshot`]: what the fault-tolerant
/// core absorbed without dying.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Worker panics caught by the solve path's `catch_unwind` isolation
    /// (each discarded one pooled workspace and answered
    /// `internal_error`).
    pub panics: u64,
    /// Requests answered `timed_out` after cooperative cancellation.
    pub timeouts: u64,
    /// Faults fired by the `--inject-faults` harness (0 in production).
    pub injected: u64,
}

/// One verb's served-latency accumulator inside a [`LatencyCounters`].
/// With timing suppressed (`--no-timing`) durations are recorded as 0,
/// so `count` still advances deterministically while `total_us`/`max_us`
/// stay 0 and golden sessions remain byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerbLatency {
    /// Requests of this verb timed (every dispatch, including ones
    /// answered with an error).
    pub count: u64,
    /// Sum of served wall times, microseconds.
    pub total_us: u64,
    /// Largest single served wall time, microseconds.
    pub max_us: u64,
}

/// Per-verb service-side latency counters inside a [`StatsSnapshot`] —
/// the dispatcher's own view of what `pmc loadgen` measures externally
/// (service time only: admission queueing and socket time excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyCounters {
    /// `load` dispatch latency.
    pub load: VerbLatency,
    /// `solve` dispatch latency.
    pub solve: VerbLatency,
    /// `update` dispatch latency.
    pub update: VerbLatency,
}

/// Write-ahead journal counters inside a [`StatsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalCounters {
    /// 1 when the service runs with `--journal`, else 0.
    pub enabled: u64,
    /// Records appended this run (committed loads and updates).
    pub records: u64,
    /// Bytes appended this run (frame headers included).
    pub bytes: u64,
    /// Records replayed from the journal at startup.
    pub replayed: u64,
    /// Bytes of torn tail truncated from the journal at startup.
    pub truncated: u64,
    /// Append failures (each answered `internal_error`, leaving the
    /// unjournaled op unacknowledged).
    pub errors: u64,
}

/// The `stats` response payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Microseconds since service start (0 with timing suppressed).
    pub uptime_micros: u128,
    /// The service's batch fan-out width.
    pub threads: u64,
    /// Per-op frame counts.
    pub requests: RequestCounters,
    /// Graph cache counters, aggregated over the shards.
    pub cache: CacheCounters,
    /// Admission-gate counters.
    pub admission: AdmissionCounters,
    /// Workspace pool counters.
    pub pool: PoolCounters,
    /// Incremental-vs-full `update` solve counters.
    pub dynamic: DynamicCounters,
    /// Per-verb service-side latency accumulators.
    pub latency: LatencyCounters,
    /// Absorbed-fault counters (panics, timeouts, injected faults).
    pub faults: FaultCounters,
    /// Write-ahead journal counters.
    pub journal: JournalCounters,
    /// Individual graph solves executed (a batch of k counts k).
    pub solves: u64,
}

/// A server response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `load` succeeded (or the graph was already resident).
    Loaded {
        /// Content-addressed id to solve under.
        id: String,
        /// Vertex count.
        n: u64,
        /// Edge count.
        m: u64,
        /// `true` when the graph was already in the cache.
        cached: bool,
    },
    /// `solve` succeeded on every requested graph.
    Solved {
        /// One outcome per requested id, in request order.
        results: Vec<SolveOutcome>,
    },
    /// `update` applied every op and re-solved the mutated graph.
    Updated {
        /// Content-addressed id of the **mutated** graph (the cache slot
        /// was re-keyed; solve under this id from now on).
        id: String,
        /// The id the request addressed (now stale).
        from: String,
        /// Vertex count after the mutations.
        n: u64,
        /// Edge count after the mutations.
        m: u64,
        /// Minimum cut value of the mutated graph.
        value: u64,
        /// Canonical digest of the witness partition (`p-<16 hex>`).
        digest: String,
        /// How the answer was produced.
        mode: UpdateMode,
        /// Trees re-swept (0 unless `mode` is `incremental`).
        reswept: u64,
        /// Wall time in microseconds (0 with timing suppressed).
        micros: u128,
    },
    /// `stats` snapshot (boxed: the snapshot dwarfs every other variant).
    Stats(Box<StatsSnapshot>),
    /// `shutdown` acknowledged; `served` counts all frames answered.
    Shutdown {
        /// Total frames this service answered, including this one.
        served: u64,
    },
    /// The frame could not be served.
    Error(ProtocolError),
}

impl Response {
    /// Serializes the response as one frame body (no trailing newline).
    pub fn to_frame(&self) -> String {
        let v = match self {
            Response::Loaded { id, n, m, cached } => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", json::s("load")),
                ("id", json::s(id.clone())),
                ("n", json::n(*n)),
                ("m", json::n(*m)),
                ("cached", Json::Bool(*cached)),
            ]),
            Response::Solved { results } => {
                let items = results
                    .iter()
                    .map(|r| {
                        json::obj(vec![
                            ("graph", json::s(r.graph.clone())),
                            ("solver", json::s(r.solver.clone())),
                            ("seed", json::n(r.seed)),
                            ("value", json::n(r.value)),
                            ("digest", json::s(r.digest.clone())),
                            ("micros", json::n128(r.micros)),
                        ])
                    })
                    .collect();
                json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", json::s("solve")),
                    ("results", Json::Arr(items)),
                ])
            }
            Response::Updated {
                id,
                from,
                n,
                m,
                value,
                digest,
                mode,
                reswept,
                micros,
            } => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", json::s("update")),
                ("id", json::s(id.clone())),
                ("from", json::s(from.clone())),
                ("n", json::n(*n)),
                ("m", json::n(*m)),
                ("value", json::n(*value)),
                ("digest", json::s(digest.clone())),
                ("mode", json::s(mode.as_str())),
                ("reswept", json::n(*reswept)),
                ("micros", json::n128(*micros)),
            ]),
            Response::Stats(s) => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", json::s("stats")),
                ("uptime_micros", json::n128(s.uptime_micros)),
                ("threads", json::n(s.threads)),
                (
                    "requests",
                    json::obj(vec![
                        ("load", json::n(s.requests.load)),
                        ("solve", json::n(s.requests.solve)),
                        ("update", json::n(s.requests.update)),
                        ("stats", json::n(s.requests.stats)),
                        ("errors", json::n(s.requests.errors)),
                    ]),
                ),
                (
                    "cache",
                    json::obj(vec![
                        ("capacity", json::n(s.cache.capacity)),
                        ("capacity_bytes", json::n(s.cache.capacity_bytes)),
                        ("graphs", json::n(s.cache.graphs)),
                        (
                            "shards",
                            Json::Arr(s.cache.shards.iter().map(|&g| json::n(g)).collect()),
                        ),
                        ("bytes", json::n(s.cache.bytes)),
                        ("snapshots", json::n(s.cache.snapshots)),
                        ("hits", json::n(s.cache.hits)),
                        ("misses", json::n(s.cache.misses)),
                        ("snapshot_hits", json::n(s.cache.snapshot_hits)),
                        ("snapshot_misses", json::n(s.cache.snapshot_misses)),
                        ("evictions", json::n(s.cache.evictions)),
                    ]),
                ),
                (
                    "admission",
                    json::obj(vec![
                        ("max_inflight", json::n(s.admission.max_inflight)),
                        ("admitted", json::n(s.admission.admitted)),
                        ("rejected", json::n(s.admission.rejected)),
                        ("inflight", json::n(s.admission.inflight)),
                    ]),
                ),
                (
                    "pool",
                    json::obj(vec![
                        ("created", json::n(s.pool.created)),
                        ("checkouts", json::n(s.pool.checkouts)),
                        ("available", json::n(s.pool.available)),
                    ]),
                ),
                (
                    "dynamic",
                    json::obj(vec![
                        ("incremental", json::n(s.dynamic.incremental)),
                        ("full", json::n(s.dynamic.full)),
                    ]),
                ),
                ("latency", {
                    let verb = |v: &VerbLatency| {
                        json::obj(vec![
                            ("count", json::n(v.count)),
                            ("total_us", json::n(v.total_us)),
                            ("max_us", json::n(v.max_us)),
                        ])
                    };
                    json::obj(vec![
                        ("load", verb(&s.latency.load)),
                        ("solve", verb(&s.latency.solve)),
                        ("update", verb(&s.latency.update)),
                    ])
                }),
                (
                    "faults",
                    json::obj(vec![
                        ("panics", json::n(s.faults.panics)),
                        ("timeouts", json::n(s.faults.timeouts)),
                        ("injected", json::n(s.faults.injected)),
                    ]),
                ),
                (
                    "journal",
                    json::obj(vec![
                        ("enabled", json::n(s.journal.enabled)),
                        ("records", json::n(s.journal.records)),
                        ("bytes", json::n(s.journal.bytes)),
                        ("replayed", json::n(s.journal.replayed)),
                        ("truncated", json::n(s.journal.truncated)),
                        ("errors", json::n(s.journal.errors)),
                    ]),
                ),
                ("solves", json::n(s.solves)),
            ]),
            Response::Shutdown { served } => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", json::s("shutdown")),
                ("served", json::n(*served)),
            ]),
            Response::Error(e) => {
                let mut fields = vec![
                    ("ok", Json::Bool(false)),
                    ("op", json::s("error")),
                    ("kind", json::s(e.kind.as_str())),
                    ("detail", json::s(e.detail.clone())),
                ];
                if let Some(ms) = e.retry_after_ms {
                    fields.push(("retry_after_ms", json::n(ms)));
                }
                json::obj(fields)
            }
        };
        json::write(&v)
    }

    /// Parses a response frame — the client half of the codec, also used
    /// by the round-trip property tests.
    pub fn parse_frame(frame: &str) -> Result<Response, ProtocolError> {
        let v =
            json::parse(frame).map_err(|e| ProtocolError::new(ErrorKind::Json, e.to_string()))?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| req_err("missing \"ok\" field"))?;
        let op = str_field(&v, "op")?.ok_or_else(|| req_err("missing \"op\" field"))?;
        if !ok {
            let kind = str_field(&v, "kind")?
                .and_then(|k| ErrorKind::from_str(&k))
                .ok_or_else(|| req_err("error response with unknown \"kind\""))?;
            let detail = str_field(&v, "detail")?.unwrap_or_default();
            let mut err = ProtocolError::new(kind, detail);
            if let Some(ms) = u64_field(&v, "retry_after_ms")? {
                err = err.with_retry_after(ms);
            }
            return Ok(Response::Error(err));
        }
        let need_u64 = |obj: &Json, key: &str| -> Result<u64, ProtocolError> {
            u64_field(obj, key)?.ok_or_else(|| req_err(format!("missing \"{key}\"")))
        };
        let need_str = |obj: &Json, key: &str| -> Result<String, ProtocolError> {
            str_field(obj, key)?.ok_or_else(|| req_err(format!("missing \"{key}\"")))
        };
        match op.as_str() {
            "load" => Ok(Response::Loaded {
                id: need_str(&v, "id")?,
                n: need_u64(&v, "n")?,
                m: need_u64(&v, "m")?,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| req_err("missing \"cached\""))?,
            }),
            "solve" => {
                let Some(Json::Arr(items)) = v.get("results") else {
                    return Err(req_err("missing \"results\" array"));
                };
                let mut results = Vec::with_capacity(items.len());
                for item in items {
                    results.push(SolveOutcome {
                        graph: need_str(item, "graph")?,
                        solver: need_str(item, "solver")?,
                        seed: need_u64(item, "seed")?,
                        value: need_u64(item, "value")?,
                        digest: need_str(item, "digest")?,
                        micros: item
                            .get("micros")
                            .and_then(|m| match m {
                                Json::Num(raw) => raw.parse::<u128>().ok(),
                                _ => None,
                            })
                            .ok_or_else(|| req_err("missing \"micros\""))?,
                    });
                }
                Ok(Response::Solved { results })
            }
            "update" => Ok(Response::Updated {
                id: need_str(&v, "id")?,
                from: need_str(&v, "from")?,
                n: need_u64(&v, "n")?,
                m: need_u64(&v, "m")?,
                value: need_u64(&v, "value")?,
                digest: need_str(&v, "digest")?,
                mode: UpdateMode::from_str(&need_str(&v, "mode")?)
                    .ok_or_else(|| req_err("update response with unknown \"mode\""))?,
                reswept: need_u64(&v, "reswept")?,
                micros: match v.get("micros") {
                    Some(Json::Num(raw)) => {
                        raw.parse::<u128>().map_err(|_| req_err("bad \"micros\""))?
                    }
                    _ => return Err(req_err("missing \"micros\"")),
                },
            }),
            "stats" => {
                let sub = |key: &str| -> Result<Json, ProtocolError> {
                    v.get(key)
                        .cloned()
                        .ok_or_else(|| req_err(format!("missing \"{key}\"")))
                };
                let (requests, cache, pool) = (sub("requests")?, sub("cache")?, sub("pool")?);
                let admission = sub("admission")?;
                let shards = match cache.get("shards") {
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            out.push(
                                item.as_u64()
                                    .ok_or_else(|| req_err("bad \"shards\" entry"))?,
                            );
                        }
                        out
                    }
                    _ => return Err(req_err("missing \"shards\" array")),
                };
                Ok(Response::Stats(Box::new(StatsSnapshot {
                    uptime_micros: match v.get("uptime_micros") {
                        Some(Json::Num(raw)) => raw
                            .parse::<u128>()
                            .map_err(|_| req_err("bad \"uptime_micros\""))?,
                        _ => return Err(req_err("missing \"uptime_micros\"")),
                    },
                    threads: need_u64(&v, "threads")?,
                    requests: RequestCounters {
                        load: need_u64(&requests, "load")?,
                        solve: need_u64(&requests, "solve")?,
                        update: need_u64(&requests, "update")?,
                        stats: need_u64(&requests, "stats")?,
                        errors: need_u64(&requests, "errors")?,
                    },
                    cache: CacheCounters {
                        capacity: need_u64(&cache, "capacity")?,
                        capacity_bytes: need_u64(&cache, "capacity_bytes")?,
                        graphs: need_u64(&cache, "graphs")?,
                        shards,
                        bytes: need_u64(&cache, "bytes")?,
                        snapshots: need_u64(&cache, "snapshots")?,
                        hits: need_u64(&cache, "hits")?,
                        misses: need_u64(&cache, "misses")?,
                        snapshot_hits: need_u64(&cache, "snapshot_hits")?,
                        snapshot_misses: need_u64(&cache, "snapshot_misses")?,
                        evictions: need_u64(&cache, "evictions")?,
                    },
                    admission: AdmissionCounters {
                        max_inflight: need_u64(&admission, "max_inflight")?,
                        admitted: need_u64(&admission, "admitted")?,
                        rejected: need_u64(&admission, "rejected")?,
                        inflight: need_u64(&admission, "inflight")?,
                    },
                    pool: PoolCounters {
                        created: need_u64(&pool, "created")?,
                        checkouts: need_u64(&pool, "checkouts")?,
                        available: need_u64(&pool, "available")?,
                    },
                    dynamic: DynamicCounters {
                        incremental: need_u64(&sub("dynamic")?, "incremental")?,
                        full: need_u64(&sub("dynamic")?, "full")?,
                    },
                    latency: {
                        let latency = sub("latency")?;
                        let verb = |key: &str| -> Result<VerbLatency, ProtocolError> {
                            let obj = latency
                                .get(key)
                                .cloned()
                                .ok_or_else(|| req_err(format!("missing \"latency.{key}\"")))?;
                            Ok(VerbLatency {
                                count: need_u64(&obj, "count")?,
                                total_us: need_u64(&obj, "total_us")?,
                                max_us: need_u64(&obj, "max_us")?,
                            })
                        };
                        LatencyCounters {
                            load: verb("load")?,
                            solve: verb("solve")?,
                            update: verb("update")?,
                        }
                    },
                    faults: {
                        let faults = sub("faults")?;
                        FaultCounters {
                            panics: need_u64(&faults, "panics")?,
                            timeouts: need_u64(&faults, "timeouts")?,
                            injected: need_u64(&faults, "injected")?,
                        }
                    },
                    journal: {
                        let journal = sub("journal")?;
                        JournalCounters {
                            enabled: need_u64(&journal, "enabled")?,
                            records: need_u64(&journal, "records")?,
                            bytes: need_u64(&journal, "bytes")?,
                            replayed: need_u64(&journal, "replayed")?,
                            truncated: need_u64(&journal, "truncated")?,
                            errors: need_u64(&journal, "errors")?,
                        }
                    },
                    solves: need_u64(&v, "solves")?,
                })))
            }
            "shutdown" => Ok(Response::Shutdown {
                served: need_u64(&v, "served")?,
            }),
            other => Err(req_err(format!("unknown response op {other:?}"))),
        }
    }
}

/// One frame read off the wire: a complete line, or a structured reason
/// it could not be buffered.
pub type Frame = Result<String, ProtocolError>;

/// Reads the next newline-delimited frame. Returns `Ok(None)` at EOF.
///
/// The line is read through a [`std::io::Read::take`] limit of
/// [`MAX_FRAME_BYTES`], so an attacker streaming an endless line costs
/// bounded memory: the oversized prefix is dropped, the remainder of the
/// line is *drained* chunk-by-chunk, and the caller gets a
/// [`ErrorKind::Frame`] error to answer with.
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<Frame>> {
    let mut buf: Vec<u8> = Vec::new();
    // +2 leaves room for the CRLF of a frame whose *content* sits exactly
    // at the cap; the post-trim length check below is what enforces it.
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 2)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    let newline_seen = buf.last() == Some(&b'\n');
    if newline_seen {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_FRAME_BYTES {
        // Drain the rest of the hostile line without buffering it — but
        // only if the line is still in progress; a newline-terminated
        // over-cap frame is already fully consumed.
        drop(buf);
        if !newline_seen {
            loop {
                let chunk = reader.fill_buf()?;
                if chunk.is_empty() {
                    break;
                }
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        reader.consume(i + 1);
                        break;
                    }
                    None => {
                        let len = chunk.len();
                        reader.consume(len);
                    }
                }
            }
        }
        return Ok(Some(Err(ProtocolError::new(
            ErrorKind::Frame,
            format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
        ))));
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Some(Ok(line))),
        Err(_) => Ok(Some(Err(ProtocolError::new(
            ErrorKind::Frame,
            "frame is not valid UTF-8",
        )))),
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The canonical edge list equality and hashing both key on:
/// endpoint-ordered, sorted. Input edge order and endpoint orientation
/// disappear, so equal graphs canonicalize identically however they
/// were expressed.
pub(crate) fn canonical_edges(g: &Graph) -> Vec<(u32, u32, u64)> {
    let mut edges: Vec<(u32, u32, u64)> = g
        .edges()
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w))
        .collect();
    edges.sort_unstable();
    edges
}

/// The content-addressed id of a graph: FNV-1a over the vertex count and
/// the canonical edge list (endpoint-ordered, sorted). Equal graphs get
/// equal ids however they were expressed — inline body, file, either
/// format, edges in any input order. The hash is 64-bit and non-cryptographic,
/// so the cache additionally verifies content equality on every id hit
/// (a collision is answered with an error, never a wrong graph).
pub fn graph_id(g: &Graph) -> String {
    let mut h = fnv1a(FNV_OFFSET, &(g.n() as u64).to_le_bytes());
    for (u, v, w) in canonical_edges(g) {
        h = fnv1a(h, &u.to_le_bytes());
        h = fnv1a(h, &v.to_le_bytes());
        h = fnv1a(h, &w.to_le_bytes());
    }
    format!("g-{h:016x}")
}

/// Canonical digest of a witness bipartition. The side containing vertex
/// 0 is normalized to `false` first, so the two equivalent encodings of
/// one cut hash identically.
pub fn partition_digest(side: &[bool]) -> String {
    let flip = *side.first().unwrap_or(&false);
    let mut h = fnv1a(FNV_OFFSET, &(side.len() as u64).to_le_bytes());
    let mut byte = 0u8;
    let mut bits = 0u32;
    for &s in side {
        byte = (byte << 1) | u8::from(s != flip);
        bits += 1;
        if bits == 8 {
            h = fnv1a(h, &[byte]);
            byte = 0;
            bits = 0;
        }
    }
    if bits > 0 {
        h = fnv1a(h, &[byte]);
    }
    format!("p-{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            Request::Load(LoadSource::Body("p cut 2 1\ne 1 2 3\n".into())),
            Request::Load(LoadSource::Path("/tmp/g.dimacs".into())),
            Request::Solve {
                graphs: vec!["g-0011223344556677".into()],
                solver: "paper".into(),
                seed: u64::MAX,
                deadline_ms: None,
            },
            Request::Solve {
                graphs: vec!["g-aa".into(), "g-bb".into(), "g-cc".into()],
                solver: "sw".into(),
                seed: 0,
                deadline_ms: Some(2500),
            },
            Request::Update {
                graph: "g-0011223344556677".into(),
                ops: vec![
                    UpdateOp::AddEdge { u: 1, v: 2, w: 3 },
                    UpdateOp::RemoveEdge { u: 4, v: 5 },
                    UpdateOp::ReweightEdge {
                        u: 6,
                        v: 7,
                        w: u64::MAX,
                    },
                ],
                seed: 42,
                deadline_ms: Some(100),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let frame = req.to_frame();
            assert!(!frame.contains('\n'), "{frame}");
            assert_eq!(Request::parse_frame(&frame).unwrap(), req, "{frame}");
        }
    }

    #[test]
    fn solve_defaults_apply() {
        let req = Request::parse_frame(r#"{"op":"solve","graph":"g-1"}"#).unwrap();
        assert_eq!(
            req,
            Request::Solve {
                graphs: vec!["g-1".into()],
                solver: DEFAULT_SOLVER.into(),
                seed: DEFAULT_SEED,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn deadline_ms_parses_and_rejects_non_u64() {
        let req =
            Request::parse_frame(r#"{"op":"solve","graph":"g-1","deadline_ms":250}"#).unwrap();
        assert!(matches!(
            req,
            Request::Solve {
                deadline_ms: Some(250),
                ..
            }
        ));
        let err = Request::parse_frame(r#"{"op":"solve","graph":"g-1","deadline_ms":"soon"}"#)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Request);
    }

    #[test]
    fn retry_after_hint_round_trips_and_is_absent_by_default() {
        let plain = Response::Error(ProtocolError::new(ErrorKind::Overloaded, "busy"));
        assert!(!plain.to_frame().contains("retry_after_ms"));
        let hinted =
            Response::Error(ProtocolError::new(ErrorKind::Overloaded, "busy").with_retry_after(40));
        let frame = hinted.to_frame();
        assert!(frame.contains("\"retry_after_ms\":40"), "{frame}");
        assert_eq!(Response::parse_frame(&frame).unwrap(), hinted);
        assert_ne!(Response::parse_frame(&frame).unwrap(), plain);
    }

    #[test]
    fn strict_parsing_rejects_unknown_and_conflicting_fields() {
        for frame in [
            r#"{"op":"nope"}"#,
            r#"{"op":"load"}"#,
            r#"{"op":"load","body":"x","path":"y"}"#,
            r#"{"op":"load","body":"x","extra":1}"#,
            r#"{"op":"solve"}"#,
            r#"{"op":"solve","graph":"a","graphs":["b"]}"#,
            r#"{"op":"solve","graphs":[]}"#,
            r#"{"op":"solve","graph":"a","seed":"not-a-number"}"#,
            r#"{"op":"solve","graph":"a","seed":-1}"#,
            r#"{"op":"update"}"#,
            r#"{"op":"update","graph":"g-1"}"#,
            r#"{"op":"update","graph":"g-1","ops":[]}"#,
            r#"{"op":"update","graph":"g-1","ops":["x"]}"#,
            r#"{"op":"update","graph":"g-1","ops":[{"kind":"nope","u":1,"v":2}]}"#,
            r#"{"op":"update","graph":"g-1","ops":[{"kind":"add_edge","u":1,"v":2}]}"#,
            r#"{"op":"update","graph":"g-1","ops":[{"kind":"remove_edge","u":1,"v":2,"w":3}]}"#,
            r#"{"op":"update","graph":"g-1","ops":[{"kind":"reweight_edge","u":1,"w":3}]}"#,
            r#"{"op":"update","graph":"g-1","ops":[{"kind":"add_edge","u":1,"v":2,"w":3}],"extra":1}"#,
            r#"{"op":"stats","verbose":true}"#,
            r#"{"op":"shutdown","now":true}"#,
            r#"["op","stats"]"#,
            r#"{"no_op":1}"#,
        ] {
            let err = Request::parse_frame(frame).expect_err(frame);
            assert_eq!(err.kind, ErrorKind::Request, "{frame} -> {err}");
        }
        assert_eq!(
            Request::parse_frame("{bad json").unwrap_err().kind,
            ErrorKind::Json
        );
    }

    #[test]
    fn update_defaults_and_modes() {
        let req = Request::parse_frame(
            r#"{"op":"update","graph":"g-1","ops":[{"kind":"remove_edge","u":1,"v":2}]}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Update {
                graph: "g-1".into(),
                ops: vec![UpdateOp::RemoveEdge { u: 1, v: 2 }],
                seed: DEFAULT_SEED,
                deadline_ms: None,
            }
        );
        for mode in UpdateMode::ALL {
            let resp = Response::Updated {
                id: "g-new".into(),
                from: "g-old".into(),
                n: 10,
                m: 20,
                value: 7,
                digest: "p-0123456789abcdef".into(),
                mode,
                reswept: 3,
                micros: u128::from(u64::MAX) + 1,
            };
            let frame = resp.to_frame();
            assert!(!frame.contains('\n'), "{frame}");
            assert_eq!(Response::parse_frame(&frame).unwrap(), resp, "{frame}");
        }
    }

    #[test]
    fn oversized_update_batch_is_rejected() {
        let ops: Vec<String> = (0..MAX_UPDATE_OPS + 1)
            .map(|_| r#"{"kind":"remove_edge","u":1,"v":2}"#.to_string())
            .collect();
        let frame = format!(
            r#"{{"op":"update","graph":"g-1","ops":[{}]}}"#,
            ops.join(",")
        );
        let err = Request::parse_frame(&frame).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Request);
        assert!(err.detail.contains("limit"), "{err}");
    }

    #[test]
    fn oversized_solve_batch_is_rejected() {
        let ids: Vec<String> = (0..MAX_SOLVE_BATCH + 1)
            .map(|i| format!("\"g-{i}\""))
            .collect();
        let frame = format!(r#"{{"op":"solve","graphs":[{}]}}"#, ids.join(","));
        let err = Request::parse_frame(&frame).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Request);
        assert!(err.detail.contains("limit"), "{err}");
    }

    #[test]
    fn read_frame_caps_line_length_and_recovers() {
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        input.extend_from_slice(&vec![b'x'; MAX_FRAME_BYTES + 100]);
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"shutdown\"}\n");
        let mut reader = io::BufReader::new(&input[..]);
        let first = read_frame(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(first, "{\"op\":\"stats\"}");
        let second = read_frame(&mut reader).unwrap().unwrap().unwrap_err();
        assert_eq!(second.kind, ErrorKind::Frame);
        // The reader recovered to the next line boundary.
        let third = read_frame(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(third, "{\"op\":\"shutdown\"}");
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn read_frame_handles_crlf_and_non_utf8() {
        let mut reader = io::BufReader::new(&b"{\"op\":\"stats\"}\r\n\xff\xfe\n"[..]);
        assert_eq!(
            read_frame(&mut reader).unwrap().unwrap().unwrap(),
            "{\"op\":\"stats\"}"
        );
        let err = read_frame(&mut reader).unwrap().unwrap().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Frame);
        assert!(err.detail.contains("UTF-8"), "{err}");
    }

    #[test]
    fn graph_id_is_content_addressed() {
        let a = Graph::from_edges(3, &[(0, 1, 2), (1, 2, 3)]).unwrap();
        let b = Graph::from_edges(3, &[(2, 1, 3), (1, 0, 2)]).unwrap(); // same content
        let c = Graph::from_edges(3, &[(0, 1, 2), (1, 2, 4)]).unwrap(); // weight differs
        assert_eq!(graph_id(&a), graph_id(&b));
        assert_ne!(graph_id(&a), graph_id(&c));
        assert!(graph_id(&a).starts_with("g-"));
    }

    #[test]
    fn partition_digest_is_side_canonical() {
        let side = [true, false, true, true, false];
        let flipped: Vec<bool> = side.iter().map(|s| !s).collect();
        assert_eq!(partition_digest(&side), partition_digest(&flipped));
        let other = [true, true, false, true, false];
        assert_ne!(partition_digest(&side), partition_digest(&other));
    }

    #[test]
    fn error_kinds_round_trip_their_wire_spelling() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_str(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_str("nope"), None);
    }
}
