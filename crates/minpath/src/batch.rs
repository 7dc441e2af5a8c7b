//! Batched `MinPrefix` / `AddPrefix` on a single list (paper §3.1 and
//! §3.2, Lemmas 5 and 6).
//!
//! A batch of `k` operations on a list of length `n` is executed *as if*
//! sequentially, but the list's binary tree is swept bottom-up once, level
//! by level. Every record of the batch is first counting-sorted into a leaf
//! arena, keyed by its leaf slot, so a list's leaves are one slot range.
//! Each tree node `b` is then one streaming merge of its children's
//! time-sorted update runs that carries:
//!
//! * `H(b)` — the sorted times of the updates relevant at `b` (those whose
//!   prefix ends in `b`'s subtree), the merge itself (Observation 2);
//! * `Φ(b)` — how much `b`'s subtree minimum changed at each such time,
//!   derived from the children's `φ` plus the trivial "missing" values of
//!   Observation 4 (`φ = 0` for an untouched right child, `φ = x` for a
//!   fully-covered left child);
//! * `Δ(b)` — the current `Δ` state, from the running `φ_l`/`φ_r` sums of
//!   Observation 3's telescoping identity.
//!
//! Queries ride along: each query carries its running difference
//! `d = prefix-min-within-subtree − subtree-min`, is resolved as its time
//! comes up in the merge by the §3.2 rule with the `Δ` current at that
//! time, and takes its side from the child run it came from. At the root
//! the running overall minimum `min_0 + Σ φ(root)` (§3.1.3) folds straight
//! into each query's answer `d + min`.
//!
//! Lemma 5 bounds the work by `O(k (log n + log k) + n)` and the depth by
//! `O(log n log k)`, with every level's nodes, and the merges and prefix
//! sums inside a node, run in parallel. The sweep here runs the levels one
//! after another through two reused level arenas, visiting only nodes
//! that cover a real (unpadded) leaf; [`BatchStats`] counts the records
//! and per-level node sizes the lemma bounds.

use std::ops::Range;

use crate::PAD;

/// One operation on a list, stamped with its batch time. Times must be
/// strictly increasing across the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefixOp {
    /// `AddPrefix(pos, x)` at the given time: adds `x` to elements `0..=pos`.
    Add {
        /// Batch timestamp (strictly increasing across ops).
        time: u32,
        /// Last list position affected.
        pos: u32,
        /// Increment.
        x: i64,
    },
    /// `MinPrefix(pos)` at the given time; the result is reported under
    /// `qid`.
    Min {
        /// Batch timestamp (strictly increasing across ops).
        time: u32,
        /// Last list position included in the minimum.
        pos: u32,
        /// Caller-chosen query identifier.
        qid: u32,
    },
}

impl PrefixOp {
    fn time(&self) -> u32 {
        match *self {
            PrefixOp::Add { time, .. } | PrefixOp::Min { time, .. } => time,
        }
    }
    fn pos(&self) -> u32 {
        match *self {
            PrefixOp::Add { pos, .. } | PrefixOp::Min { pos, .. } => pos,
        }
    }
}

/// Record counters of a batch, filled level by level by the sweep
/// ([`run_tree_batch_stats`](crate::run_tree_batch_stats)). Per list,
/// `work_items` counts every record at every node, the leaf level
/// included: the quantity Lemma 5 bounds by `O(k(log n + log k) + n)`.
/// `depth_est` adds `⌊log₂ max⌋ + 2` per level above the leaves, where
/// `max` is the level's largest node in records: the Lemma 5 depth
/// `O(log n log k)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Total records processed across all nodes and levels.
    pub work_items: u64,
    /// Estimated critical-path length (the per-level terms above, summed).
    pub depth_est: u64,
    /// Number of binary-tree levels swept above the leaves.
    pub levels: u32,
}

impl BatchStats {
    /// Merges stats from independently processed lists: work adds, depth
    /// takes the maximum (the lists are independent, so the paper runs
    /// them in parallel).
    pub fn merge_parallel(&mut self, other: &BatchStats) {
        self.work_items += other.work_items;
        self.depth_est = self.depth_est.max(other.depth_est);
        self.levels = self.levels.max(other.levels);
    }

    /// Counts one level above the leaves: `records` in total, `largest`
    /// in its largest node (at least 1 on a swept list, which holds a
    /// query).
    fn add_level(&mut self, records: u64, largest: u64) {
        self.work_items += records;
        self.depth_est += u64::from(u64::BITS - largest.leading_zeros()) + 1;
        self.levels += 1;
    }
}

/// An update record travelling up the tree: `phi` is `φ_time(b)` for the
/// node that currently owns the record.
#[derive(Clone, Copy, Debug, Default)]
struct Upd {
    time: u32,
    x: i64,
    phi: i64,
}

/// A query record travelling up the tree: `d` is the running difference.
/// Its side at a node is the child run it came from.
#[derive(Clone, Copy, Debug, Default)]
struct Qry {
    time: u32,
    qid: u32,
    d: i64,
}

/// One node's records in the flat sweep: its update and query runs, each
/// sorted by time.
type Runs<'a> = (&'a [Upd], &'a [Qry]);

const NO_RUNS: Runs<'static> = (&[], &[]);

/// One level of the flat sweep: every node's update and query records in
/// two contiguous buffers, with u32 CSR offsets per record kind. Node `p`
/// of the level owns `upds[upd_off[p]..upd_off[p+1]]` and
/// `qrys[qry_off[p]..qry_off[p+1]]`, both sorted by time. The leaf arena
/// uses the same layout with one node per leaf slot.
#[derive(Clone, Debug, Default)]
struct LevelArena {
    upds: Vec<Upd>,
    upd_off: Vec<u32>,
    qrys: Vec<Qry>,
    qry_off: Vec<u32>,
}

impl LevelArena {
    fn runs(&self, node: usize) -> Runs<'_> {
        (
            &self.upds[self.upd_off[node] as usize..self.upd_off[node + 1] as usize],
            &self.qrys[self.qry_off[node] as usize..self.qry_off[node + 1] as usize],
        )
    }

    /// Empties the level; nodes are then appended with [`Self::close_node`].
    fn clear(&mut self) {
        self.upds.clear();
        self.qrys.clear();
        self.upd_off.clear();
        self.upd_off.push(0);
        self.qry_off.clear();
        self.qry_off.push(0);
    }

    /// Ends the node whose records were pushed since the previous call.
    fn close_node(&mut self) {
        self.upd_off.push(self.upds.len() as u32);
        self.qry_off.push(self.qrys.len() as u32);
    }

    /// The records held by `nodes`: in total, and in the largest one.
    fn sizes(&self, nodes: Range<usize>) -> (u64, u64) {
        let records = |a: usize, b: usize| {
            u64::from(self.upd_off[b] - self.upd_off[a])
                + u64::from(self.qry_off[b] - self.qry_off[a])
        };
        let largest = nodes.clone().map(|p| records(p, p + 1)).max();
        (records(nodes.start, nodes.end), largest.unwrap_or(0))
    }

    fn heap_bytes(&self) -> usize {
        self.upds.len() * std::mem::size_of::<Upd>()
            + self.qrys.len() * std::mem::size_of::<Qry>()
            + (self.upd_off.len() + self.qry_off.len()) * std::mem::size_of::<u32>()
    }
}

/// Reusable buffers for [`run_list_batch_with`] and, through
/// [`TreeBatchScratch`](crate::TreeBatchScratch), for
/// [`run_tree_batch_with`](crate::run_tree_batch_with): the leaf arena
/// the prefix records are bucketed into by slot, the heap-layout subtree
/// minima of the list being swept, and the two ping-pong `LevelArena`s of
/// its bottom-up sweep. Everything keeps its capacity across batches; one
/// scratch amortizes every batch a solver executes.
#[derive(Clone, Debug, Default)]
pub struct ListBatchScratch {
    leaves: LevelArena,
    mins: Vec<i64>,
    level_a: LevelArena,
    level_b: LevelArena,
}

/// The counting pass of a leaf bucketing ([`ListBatchScratch::bucket`]).
pub(crate) struct SlotCounts<'a>(&'a mut LevelArena);

impl<'a> SlotCounts<'a> {
    /// Counts `upds` update and `qrys` query records under leaf `slot`.
    pub(crate) fn add(&mut self, slot: usize, upds: u32, qrys: u32) {
        self.0.upd_off[slot + 2] += upds;
        self.0.qry_off[slot + 2] += qrys;
    }

    /// Ends the counting pass. Every counted record must then be placed,
    /// in time order.
    pub(crate) fn place(self) -> SlotPlacer<'a> {
        let leaves = self.0;
        // Counts sit at `off[slot + 2]`; after the inclusive scan
        // `off[slot + 1]` is the slot's start and serves as its cursor, so
        // placing leaves `off[slot]..off[slot + 1]` as the slot's range.
        for off in [&mut leaves.upd_off, &mut leaves.qry_off] {
            for i in 1..off.len() {
                off[i] += off[i - 1];
            }
        }
        let nu = *leaves.upd_off.last().expect("bucketing sizes the offsets");
        let nq = *leaves.qry_off.last().expect("bucketing sizes the offsets");
        leaves.upds.clear();
        leaves.upds.resize(nu as usize, Upd::default());
        leaves.qrys.clear();
        leaves.qrys.resize(nq as usize, Qry::default());
        SlotPlacer(leaves)
    }
}

/// The placing pass of a leaf bucketing ([`SlotCounts::place`]).
pub(crate) struct SlotPlacer<'a>(&'a mut LevelArena);

impl SlotPlacer<'_> {
    /// Files `AddPrefix` record `(time, x)` under leaf `slot`.
    pub(crate) fn add(&mut self, slot: usize, time: u32, x: i64) {
        let cursor = &mut self.0.upd_off[slot + 1];
        self.0.upds[*cursor as usize] = Upd { time, x, phi: x };
        *cursor += 1;
    }

    /// Files `MinPrefix` record `(time, qid)` under leaf `slot`.
    pub(crate) fn min(&mut self, slot: usize, time: u32, qid: u32) {
        let cursor = &mut self.0.qry_off[slot + 1];
        self.0.qrys[*cursor as usize] = Qry { time, qid, d: 0 };
        *cursor += 1;
    }
}

impl ListBatchScratch {
    /// Bytes of heap memory in active use by the scratch buffers
    /// (`len`-based).
    pub fn heap_bytes(&self) -> usize {
        self.leaves.heap_bytes()
            + self.mins.len() * std::mem::size_of::<i64>()
            + self.level_a.heap_bytes()
            + self.level_b.heap_bytes()
    }

    /// Starts bucketing prefix records into the leaf arena's `nslots`
    /// slots with one stable counting sort: count every record with the
    /// returned [`SlotCounts`], then place them with [`SlotCounts::place`].
    pub(crate) fn bucket(&mut self, nslots: usize) -> SlotCounts<'_> {
        for off in [&mut self.leaves.upd_off, &mut self.leaves.qry_off] {
            off.clear();
            off.resize(nslots + 2, 0);
        }
        SlotCounts(&mut self.leaves)
    }

    /// The sweep: executes the list whose leaves are the slots
    /// `first..first + weights.len()` of the leaf arena, with `weights` as
    /// its initial values, and hands each query's answer to `emit` as
    /// `(qid, value)` in time order. A list without queries is skipped.
    /// With `stats`, the list's record counts are merged into it as one
    /// more independent list ([`BatchStats::merge_parallel`]).
    ///
    /// Every tree node is one fused streaming pass over its children's
    /// runs ([`combine_runs`]); the first level reads the leaf slots in
    /// place, the inner levels ping-pong between two arenas, and only
    /// nodes that cover a real (unpadded) leaf are visited.
    ///
    /// # Panics
    /// Panics if times do not strictly increase within a slot.
    pub(crate) fn sweep(
        &mut self,
        first: usize,
        weights: impl ExactSizeIterator<Item = i64>,
        stats: Option<&mut BatchStats>,
        emit: impl FnMut(u32, i64),
    ) {
        let ListBatchScratch {
            leaves,
            mins,
            level_a,
            level_b,
        } = self;
        let len = weights.len();
        if leaves.qry_off[first] == leaves.qry_off[first + len] {
            return;
        }
        for slot in first..first + len {
            let (upds, qrys) = leaves.runs(slot);
            assert!(
                upds.windows(2).all(|w| w[0].time < w[1].time)
                    && qrys.windows(2).all(|w| w[0].time < w[1].time),
                "times must strictly increase"
            );
        }
        let cap = len.next_power_of_two();

        // Initial subtree minima and Δ⁰ per inner node (heap layout, root = 1).
        mins.clear();
        mins.resize(2 * cap, PAD);
        for (m, w) in mins[cap..].iter_mut().zip(weights) {
            *m = w;
        }
        for i in (1..cap).rev() {
            mins[i] = mins[2 * i].min(mins[2 * i + 1]);
        }
        let mins = &*mins;
        let delta0 = |node: usize| mins[2 * node + 1] - mins[2 * node];
        let mut root = RootSink {
            min0: mins[1],
            acc: 0,
            emit,
        };
        // Every record is counted once per level, the leaf level included.
        let counting = stats.is_some();
        let mut list = BatchStats::default();
        if counting {
            list.work_items = leaves.sizes(first..first + len).0;
        }
        if cap == 1 {
            // The leaf is the root: replay its runs in time order.
            let (upds, qrys) = leaves.runs(first);
            let mut j = 0;
            for &q in qrys {
                while j < upds.len() && upds[j].time < q.time {
                    root.upd(upds[j]);
                    j += 1;
                }
                root.qry(q);
            }
        } else {
            // Bottom-up level sweep below the root. `base` is the heap id
            // of a level's first parent and `live` the child level's count
            // of nodes that cover a real leaf (the rest are empty padding).
            // More than half of the leaves are real, so both root children
            // are live.
            let (mut child, mut live, mut base) = (&*leaves, len, cap / 2);
            let mut child_first = first;
            while base > 1 {
                combine_level(child, child_first, live, base, delta0, level_b);
                std::mem::swap(level_a, level_b);
                (child, child_first) = (&*level_a, 0);
                live = live.div_ceil(2);
                base /= 2;
                if counting {
                    let (records, largest) = level_a.sizes(0..live);
                    list.add_level(records, largest);
                }
            }
            combine_runs(
                child.runs(child_first),
                child.runs(child_first + 1),
                delta0(1),
                &mut root,
            );
            if counting {
                // The root holds every record of its two children.
                let (records, _) = child.sizes(child_first..child_first + 2);
                list.add_level(records, records);
            }
        }
        if let Some(stats) = stats {
            stats.merge_parallel(&list);
        }
    }
}

/// Where a node's combined records go: the next level's arena, or, at
/// the root, straight into the answers ([`RootSink`]). Records arrive in
/// time order across both kinds.
trait Sink {
    fn upd(&mut self, u: Upd);
    fn qry(&mut self, q: Qry);
}

impl Sink for LevelArena {
    fn upd(&mut self, u: Upd) {
        self.upds.push(u);
    }

    fn qry(&mut self, q: Qry) {
        self.qrys.push(q);
    }
}

/// The root walk (§3.1.3): the running overall minimum is `min0` plus the
/// root's `φ` of every update so far, and a query's answer is its `d` plus
/// that minimum.
struct RootSink<F> {
    min0: i64,
    acc: i64,
    emit: F,
}

impl<F: FnMut(u32, i64)> Sink for RootSink<F> {
    fn upd(&mut self, u: Upd) {
        self.acc += u.phi;
    }

    fn qry(&mut self, q: Qry) {
        (self.emit)(q.qid, q.d + (self.min0 + self.acc));
    }
}

/// Executes a batch of prefix operations on a list with the given initial
/// weights, drawing all working state from a reusable
/// [`ListBatchScratch`]; returns `(qid, value)` for every `Min` operation,
/// in time order. This is the sweep behind
/// [`run_tree_batch_with`](crate::run_tree_batch_with): the ops are
/// counting-sorted by position into the leaf arena once, each tree node
/// is one fused merge of its children's time-sorted runs, written into two
/// ping-ponged level arenas, and the root's records fold straight into the
/// answers. The sweep is sequential; concurrency comes from independent
/// requests, each with its own workspace.
///
/// # Panics
/// Panics if times are not strictly increasing, a position is out of range,
/// or the list is empty.
pub fn run_list_batch_with(
    init: &[i64],
    ops: &[PrefixOp],
    ws: &mut ListBatchScratch,
) -> Vec<(u32, i64)> {
    let n = init.len();
    assert!(n > 0, "empty list");
    for w in ops.windows(2) {
        assert!(w[0].time() < w[1].time(), "times must strictly increase");
    }
    for op in ops {
        assert!((op.pos() as usize) < n, "position out of range");
    }
    let mut counts = ws.bucket(n);
    for op in ops {
        let is_add = matches!(op, PrefixOp::Add { .. });
        counts.add(op.pos() as usize, u32::from(is_add), u32::from(!is_add));
    }
    let mut placer = counts.place();
    for op in ops {
        match *op {
            PrefixOp::Add { time, pos, x } => placer.add(pos as usize, time, x),
            PrefixOp::Min { time, pos, qid } => placer.min(pos as usize, time, qid),
        }
    }
    let mut out = Vec::new();
    ws.sweep(0, init.iter().copied(), None, |qid, value| {
        out.push((qid, value))
    });
    out
}

/// Combines one level of the flat sweep into `out`: parent `p` (heap id
/// `base + p`) merges the child level's nodes `first + 2p` and
/// `first + 2p + 1`, where child nodes at or past `first + live` are empty
/// padding. Only parents with a live child are emitted.
fn combine_level(
    child: &LevelArena,
    first: usize,
    live: usize,
    base: usize,
    delta0: impl Fn(usize) -> i64,
    out: &mut LevelArena,
) {
    out.clear();
    for p in 0..live.div_ceil(2) {
        let right = if 2 * p + 1 < live {
            child.runs(first + 2 * p + 1)
        } else {
            NO_RUNS
        };
        combine_runs(child.runs(first + 2 * p), right, delta0(base + p), out);
        out.close_node();
    }
}

/// One tree node of the flat sweep as a single streaming pass: merges the
/// children's update runs by time (`H(b)`, Observation 2) while carrying
/// the running `φ_l`/`φ_r` sums and the current `Δ` (Observation 3, with
/// Observation 4's trivial side filled in), and resolves each query of the
/// two children's query runs as its time comes up (§3.2 rule; a query's
/// side is the run it came from). Hands `out` exactly the children's
/// records, in time order.
///
/// The run heads are cached so the merge picks each record with selects
/// rather than branches on the data, which mispredict about half the time.
fn combine_runs(
    (l_upds, l_qrys): Runs<'_>,
    (r_upds, r_qrys): Runs<'_>,
    delta0: i64,
    out: &mut impl Sink,
) {
    let (mut i, mut j) = (0, 0);
    let (mut l_head, mut r_head) = (head(l_upds, 0), head(r_upds, 0));
    let mut queries = (0, 0);
    let mut next_query = head(l_qrys, 0).0.min(head(r_qrys, 0).0);
    let (mut sum_l, mut sum_r) = (0i64, 0i64);
    let mut delta = delta0;
    for _ in 0..l_upds.len() + r_upds.len() {
        let take_left = l_head.0 < r_head.0;
        let u = if take_left { l_head.1 } else { r_head.1 };
        let (phi_l, phi_r) = if take_left { (u.phi, 0) } else { (u.x, u.phi) };
        i += usize::from(take_left);
        j += usize::from(!take_left);
        (l_head, r_head) = (head(l_upds, i), head(r_upds, j));
        // Queries up to this update's time read the Δ current before it.
        let end = u64::from(u.time) + 1;
        if next_query < end {
            next_query = resolve_queries(l_qrys, r_qrys, &mut queries, end, delta, out);
        }
        sum_l += phi_l;
        sum_r += phi_r;
        let new = delta0 + sum_r - sum_l;
        // (delta > 0, new > 0): (T,T) φ_l, (F,T) φ_l − Δ, (F,F) φ_r,
        // (T,F) φ_r + Δ.
        let phi = if new > 0 {
            phi_l - if delta > 0 { 0 } else { delta }
        } else {
            phi_r + if delta > 0 { delta } else { 0 }
        };
        out.upd(Upd { phi, ..u });
        delta = new;
    }
    if next_query != u64::MAX {
        resolve_queries(l_qrys, r_qrys, &mut queries, u64::MAX, delta, out);
    }
}

/// A run's record `k` with its merge key, the record's time; past the end
/// of the run the key is `u64::MAX`, so an exhausted run loses every
/// comparison.
fn head<T: Timed + Default>(run: &[T], k: usize) -> (u64, T) {
    match run.get(k) {
        Some(&r) => (u64::from(r.time()), r),
        None => (u64::MAX, T::default()),
    }
}

/// Records the flat sweep merges by time.
trait Timed: Copy {
    fn time(&self) -> u32;
}

impl Timed for Upd {
    fn time(&self) -> u32 {
        self.time
    }
}

impl Timed for Qry {
    fn time(&self) -> u32 {
        self.time
    }
}

/// Merges the two children's pending queries with merge key below `end`
/// into `out` in time order, applying the §3.2 update rule with `delta`,
/// the node's `Δ` current at those times; `end = u64::MAX` takes them all.
/// `(a, b)` are the runs' cursors. Returns the merge key of the next
/// pending query. Kept out of line: inlined, it costs the update loop its
/// registers (measured slower).
#[inline(never)]
fn resolve_queries(
    l_qrys: &[Qry],
    r_qrys: &[Qry],
    (a, b): &mut (usize, usize),
    end: u64,
    delta: i64,
    out: &mut impl Sink,
) -> u64 {
    let (mut l_head, mut r_head) = (head(l_qrys, *a), head(r_qrys, *b));
    loop {
        let key = l_head.0.min(r_head.0);
        if key >= end {
            return key;
        }
        let from_left = l_head.0 < r_head.0;
        let q = if from_left { l_head.1 } else { r_head.1 };
        *a += usize::from(from_left);
        *b += usize::from(!from_left);
        (l_head, r_head) = (head(l_qrys, *a), head(r_qrys, *b));
        let d = if from_left {
            if delta <= 0 {
                q.d - delta
            } else {
                q.d
            }
        } else if delta > 0 {
            0
        } else if q.d + delta < 0 {
            q.d
        } else {
            -delta
        };
        out.qry(Qry { d, ..q });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{Decomposition, Strategy};
    use crate::{run_tree_batch_stats, TreeBatchScratch, TreeOp};
    use pmc_graph::gen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference: execute the ops one by one on a plain array.
    fn reference(init: &[i64], ops: &[PrefixOp]) -> Vec<(u32, i64)> {
        let mut arr = init.to_vec();
        let mut out = Vec::new();
        for op in ops {
            match *op {
                PrefixOp::Add { pos, x, .. } => {
                    for w in arr[..=pos as usize].iter_mut() {
                        *w += x;
                    }
                }
                PrefixOp::Min { pos, qid, .. } => {
                    out.push((qid, *arr[..=pos as usize].iter().min().unwrap()));
                }
            }
        }
        out
    }

    /// The sweep on a fresh scratch.
    fn run(init: &[i64], ops: &[PrefixOp]) -> Vec<(u32, i64)> {
        run_list_batch_with(init, ops, &mut ListBatchScratch::default())
    }

    /// `k` random ops on a list of length `n`, adds with probability
    /// `p_add` and increments in `-x..x`.
    fn random_ops(rng: &mut SmallRng, n: usize, k: u32, p_add: f64, x: i64) -> Vec<PrefixOp> {
        let mut qid = 0;
        (0..k)
            .map(|time| {
                let pos = rng.gen_range(0..n) as u32;
                if rng.gen_bool(p_add) {
                    PrefixOp::Add {
                        time,
                        pos,
                        x: rng.gen_range(-x..x),
                    }
                } else {
                    qid += 1;
                    PrefixOp::Min {
                        time,
                        pos,
                        qid: qid - 1,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn empty_batch() {
        assert!(run(&[1, 2, 3], &[]).is_empty());
    }

    #[test]
    fn query_only_batch() {
        let ops = vec![
            PrefixOp::Min {
                time: 0,
                pos: 2,
                qid: 0,
            },
            PrefixOp::Min {
                time: 1,
                pos: 0,
                qid: 1,
            },
        ];
        assert_eq!(run(&[5, 1, 7], &ops), vec![(0, 1), (1, 5)]);
    }

    #[test]
    fn update_then_query() {
        let ops = vec![
            PrefixOp::Min {
                time: 0,
                pos: 3,
                qid: 0,
            },
            PrefixOp::Add {
                time: 1,
                pos: 1,
                x: -10,
            },
            PrefixOp::Min {
                time: 2,
                pos: 3,
                qid: 1,
            },
            PrefixOp::Min {
                time: 3,
                pos: 0,
                qid: 2,
            },
            PrefixOp::Add {
                time: 4,
                pos: 3,
                x: 100,
            },
            PrefixOp::Min {
                time: 5,
                pos: 3,
                qid: 3,
            },
        ];
        let init = [4i64, 8, 2, 9];
        assert_eq!(run(&init, &ops), reference(&init, &ops));
    }

    #[test]
    fn single_element_list() {
        let ops = vec![
            PrefixOp::Min {
                time: 0,
                pos: 0,
                qid: 0,
            },
            PrefixOp::Add {
                time: 1,
                pos: 0,
                x: -3,
            },
            PrefixOp::Min {
                time: 2,
                pos: 0,
                qid: 1,
            },
        ];
        assert_eq!(run(&[10], &ops), vec![(0, 10), (1, 7)]);
    }

    #[test]
    fn two_leaf_counterexample_case() {
        // Exercises the (old>0, new≤0) φ branch the paper's table garbles.
        let ops = vec![
            PrefixOp::Add {
                time: 0,
                pos: 0,
                x: 100,
            },
            PrefixOp::Min {
                time: 1,
                pos: 1,
                qid: 0,
            },
            PrefixOp::Min {
                time: 2,
                pos: 0,
                qid: 1,
            },
        ];
        assert_eq!(run(&[5, 10], &ops), vec![(0, 10), (1, 105)]);
    }

    #[test]
    fn randomized_vs_reference_small() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..300 {
            let n = rng.gen_range(1..24);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
            let k = rng.gen_range(0..50);
            let ops = random_ops(&mut rng, n, k, 0.5, 50);
            assert_eq!(run(&init, &ops), reference(&init, &ops), "trial {trial}");
        }
    }

    #[test]
    fn randomized_vs_reference_larger() {
        let mut rng = SmallRng::seed_from_u64(6);
        for trial in 0..10 {
            let n = rng.gen_range(100..1000);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
            let ops = random_ops(&mut rng, n, 2000, 0.6, 500);
            assert_eq!(run(&init, &ops), reference(&init, &ops), "trial {trial}");
        }
    }

    #[test]
    fn large_batch_on_a_short_list() {
        // 40,000 ops on 64 leaves: the nodes near the root merge runs of
        // thousands of records, with long stretches from one side.
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 64;
        let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
        let ops = random_ops(&mut rng, n, 40_000, 0.7, 5);
        assert_eq!(run(&init, &ops), reference(&init, &ops));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_nonincreasing_times() {
        let ops = vec![
            PrefixOp::Add {
                time: 3,
                pos: 0,
                x: 1,
            },
            PrefixOp::Add {
                time: 3,
                pos: 0,
                x: 1,
            },
        ];
        let _ = run(&[0, 0], &ops);
    }

    #[test]
    fn scratch_variant_matches_allocating_path() {
        // One scratch across many differently-sized lists and batches
        // answers like a fresh scratch per batch, and like the plain array.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut ws = ListBatchScratch::default();
        for trial in 0..40 {
            let n = rng.gen_range(1..300);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
            let k = rng.gen_range(0..300);
            let ops = random_ops(&mut rng, n, k, 0.5, 100);
            let got = run_list_batch_with(&init, &ops, &mut ws);
            assert_eq!(got, run(&init, &ops), "trial {trial}");
            assert_eq!(got, reference(&init, &ops), "trial {trial}");
        }
    }

    #[test]
    fn stats_track_lemma5_bounds() {
        // A path decomposes into one list, so Lemma 5 applies to the
        // whole batch: every op leaves one record, which every level holds.
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 256usize;
        let tree = gen::path_tree(n);
        let decomp = Decomposition::new(&tree, Strategy::BoughWalk);
        assert_eq!(decomp.npaths(), 1);
        let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
        let k = 4096u64;
        let ops: Vec<TreeOp> = (0..k)
            .map(|_| {
                let v = rng.gen_range(0..n) as u32;
                if rng.gen_bool(0.5) {
                    TreeOp::Add {
                        v,
                        x: rng.gen_range(-100..100),
                    }
                } else {
                    TreeOp::Min { v }
                }
            })
            .collect();
        let mut ws = TreeBatchScratch::default();
        let (res, stats) = run_tree_batch_stats(&tree, &decomp, &init, &ops, &mut ws);
        let queries = ops.iter().filter(|op| matches!(op, TreeOp::Min { .. }));
        assert_eq!(res.len(), queries.count());
        assert_eq!(stats.levels, 8); // log2(256)
        assert_eq!(stats.work_items, k * (1 + 8));
        let (logn, logk) = (8u64, 12u64);
        assert!(
            stats.work_items <= 4 * k * (logn + logk) + 4 * n as u64,
            "work {} exceeds the Lemma 5 budget",
            stats.work_items
        );
        // Depth: at most log2(k)+2 per level.
        assert!(stats.depth_est <= logn * (logk + 2));
    }
}
