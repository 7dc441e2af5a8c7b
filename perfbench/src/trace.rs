//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent, request id and thread.
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. A span's self time is its duration minus the time its children
//! cover (the union of their intervals). A *replay* span re-runs work that
//! another span already did inside a call the benchmark cannot split
//! (bough decomposition inside `build_phases`): its duration moves out of
//! the replayed span's self time, so self times still add up to the work
//! the real call did.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span. Ids start at 1; 0 means "none".
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span whose work this one re-runs (0 for ordinary spans).
    pub replays: u64,
    pub thread: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Where new spans attach: a tracer, the enclosing span and the request.
#[derive(Clone, Copy, Debug)]
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    pub parent: u64,
    pub req: u64,
}

impl Tracer {
    /// A root context for request `req`.
    pub fn root(&self, req: u64) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: 0,
            req,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"replays\":{},\"thread\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.replays, s.thread
            )?;
        }
        out.flush()
    }
}

impl Ctx<'_> {
    /// Runs `f` inside a span named `name`; `f` gets the span's context
    /// for its own children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Ctx<'_>) -> T) -> T {
        self.record(name, 0, f)
    }

    /// [`Ctx::span`] for work that re-runs part of span `replays`.
    pub fn replay_span<T>(&self, name: &'static str, replays: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, replays, |_| f())
    }

    fn record<T>(&self, name: &'static str, replays: u64, f: impl FnOnce(Ctx<'_>) -> T) -> T {
        let tracer = self.tracer;
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let out = f(Ctx {
            tracer,
            parent: id,
            req: self.req,
        });
        let end_ns = tracer.now_ns();
        let span = Span {
            id,
            parent: self.parent,
            req: self.req,
            name,
            start_ns,
            end_ns,
            replays,
            thread: THREAD.with(|t| *t),
        };
        tracer.spans.lock().expect("span store poisoned").push(span);
        out
    }
}

/// Self time of every span, in nanoseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut replayed: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
        if s.replays != 0 {
            *replayed.entry(s.replays).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| union_ns(c));
            let moved = replayed.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(covered + moved))
        })
        .collect()
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64, replays: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "s",
            start_ns,
            end_ns,
            replays,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_replays() {
        let spans = vec![
            span(1, 0, 0, 100, 0),
            // Two overlapping children (parallel workers) cover 10..60.
            span(2, 1, 10, 50, 0),
            span(3, 1, 20, 60, 0),
            // A replay child of span 1 re-running 5 ns of span 2's work.
            span(4, 1, 60, 65, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 5);
        assert_eq!(st[&2], 40 - 5);
        assert_eq!(st[&3], 40);
        assert_eq!(st[&4], 5);
    }

    #[test]
    fn spans_nest_through_contexts() {
        let tracer = Tracer::default();
        let root = tracer.root(7);
        root.span("outer", |ctx| ctx.span("inner", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.req, outer.req, outer.parent), (7, 7, 0));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
