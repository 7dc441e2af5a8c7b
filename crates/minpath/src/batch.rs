//! Parallel batched `MinPrefix` / `AddPrefix` on a single list
//! (paper §3.1 and §3.2, Lemmas 5 and 6).
//!
//! A batch of `k` operations on a list of length `n` is executed *as if*
//! sequentially, but the whole binary tree is swept bottom-up once, level by
//! level. For every tree node `b` the sweep materializes:
//!
//! * `H(b)` — the sorted times of the updates relevant at `b` (those whose
//!   prefix ends in `b`'s subtree), by merging the children's arrays
//!   (Observation 2);
//! * `Φ(b)` — how much `b`'s subtree minimum changed at each such time,
//!   derived from the children's `Φ` plus the trivial "missing" values of
//!   Observation 4 (`φ = 0` for an untouched right child, `φ = x` for a
//!   fully-covered left child);
//! * `Δ(b)` — the intermediate `Δ` states, via the telescoping identity of
//!   Observation 3 computed with two all-prefix-sums.
//!
//! Queries ride along: each query carries its running difference
//! `d = prefix-min-within-subtree − subtree-min`, is merged by time with the
//! sibling's queries, reads "the last `Δ` before me" via a merge plus
//! segmented broadcast, and applies the §3.2 update rule. At the root, the
//! overall minima `min_i(root) = min_0 + Σ_{j≤i} φ_j(root)` come from one
//! more prefix sum, and each query's answer is `d + min_{t(q)}(root)`.
//!
//! Work `O(k (log n + log k) + n)`, depth `O(log n log k)`: every level
//! processes its nodes in parallel, and within a node the merges, scans and
//! broadcasts use the `pmc-par` primitives once the node's arrays exceed a
//! threshold.
//!
//! Two realizations share these rules. The allocating reference
//! ([`run_list_batch`], and the tree batches of
//! [`run_tree_batch`](crate::run_tree_batch)) follows the description above
//! literally and is kept as the test oracle. The flat sweep
//! ([`run_list_batch_with`], and through the same leaf arena
//! [`run_tree_batch_with`](crate::run_tree_batch_with)) is the amortized
//! path the solver runs. It computes the same values with the same
//! arithmetic in the same order, so every answer is bit-identical:
//!
//! * every record of a batch is counting-sorted once into a leaf arena,
//!   keyed by its leaf slot, so a list's leaves are one slot range;
//! * each node is one streaming merge of its children's time-sorted update
//!   runs that carries the running `φ_l`/`φ_r` sums and the current `Δ`,
//!   and resolves each query of the children's query runs as its time
//!   comes up, with its side given by the run it came from;
//! * the root's records fold straight into the answers: its running
//!   minimum replaces the last prefix sum.

use pmc_par::merge::merge_by_key;
use pmc_par::scan::{inclusive_scan_in_place, inclusive_scan_in_place_with};
use pmc_par::seg::segmented_broadcast;
use rayon::prelude::*;

use crate::PAD;

/// Threshold above which within-node steps switch to parallel primitives.
const NODE_PAR_THRESHOLD: usize = 1 << 13;

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

/// Execution statistics of one list batch, accumulated during the level
/// sweep. `work_items` counts every record processed at every node (the
/// quantity Lemma 5 bounds by `O(k(log n + log k) + n)`); `depth_est` sums
/// `log₂(max node batch) + 1` over the levels (the Lemma 5 depth
/// `O(log n log k)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Total records processed across all nodes and levels.
    pub work_items: u64,
    /// Estimated critical-path length (sum over levels of the log of the
    /// largest per-node batch).
    pub depth_est: u64,
    /// Number of binary-tree levels swept.
    pub levels: u32,
}

impl BatchStats {
    /// Merges stats from independently processed lists: work adds, depth
    /// takes the maximum (lists run in parallel).
    pub fn merge_parallel(&mut self, other: &BatchStats) {
        self.work_items += other.work_items;
        self.depth_est = self.depth_est.max(other.depth_est);
        self.levels = self.levels.max(other.levels);
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

/// A query record travelling up the tree: `d` is the running difference,
/// `pos` identifies the original leaf (used to derive the child side at
/// every level).
#[derive(Clone, Copy, Debug)]
struct Qry {
    time: u32,
    qid: u32,
    pos: u32,
    d: i64,
}

#[derive(Clone, Debug, Default)]
struct NodeState {
    upds: Vec<Upd>,
    qrys: Vec<Qry>,
}

/// A query record of the flat sweep: [`Qry`] without `pos`, because the
/// flat sweep knows a record's side from the child run it came from.
#[derive(Clone, Copy, Debug, Default)]
struct FlatQry {
    time: u32,
    qid: u32,
    d: i64,
}

/// One node's records in the flat sweep: its update and query runs, each
/// sorted by time.
type Runs<'a> = (&'a [Upd], &'a [FlatQry]);

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
    qrys: Vec<FlatQry>,
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

    fn heap_bytes(&self) -> usize {
        self.upds.len() * std::mem::size_of::<Upd>()
            + self.qrys.len() * std::mem::size_of::<FlatQry>()
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
        leaves.qrys.resize(nq as usize, FlatQry::default());
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
        self.0.qrys[*cursor as usize] = FlatQry { time, qid, d: 0 };
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

    /// The one flat sweep: executes the list whose leaves are the slots
    /// `first..first + weights.len()` of the leaf arena, with `weights` as
    /// its initial values, and hands each query's answer to `emit` as
    /// `(qid, value)` in time order. A list without queries is skipped.
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
            return;
        }
        // Bottom-up level sweep below the root. `base` is the heap id of a
        // level's first parent and `live` the child level's count of nodes
        // that cover a real leaf (the rest are empty padding). More than
        // half of the leaves are real, so both root children are live.
        let (mut child, mut live, mut base) = (&*leaves, len, cap / 2);
        let mut child_first = first;
        while base > 1 {
            combine_level(child, child_first, live, base, delta0, level_b);
            std::mem::swap(level_a, level_b);
            (child, child_first) = (&*level_a, 0);
            live = live.div_ceil(2);
            base /= 2;
        }
        combine_runs(
            child.runs(child_first),
            child.runs(child_first + 1),
            delta0(1),
            &mut root,
        );
    }
}

/// Where a node's combined records go: the next level's arena, or, at
/// the root, straight into the answers ([`RootSink`]). Records arrive in
/// time order across both kinds.
trait Sink {
    fn upd(&mut self, u: Upd);
    fn qry(&mut self, q: FlatQry);
}

impl Sink for LevelArena {
    fn upd(&mut self, u: Upd) {
        self.upds.push(u);
    }

    fn qry(&mut self, q: FlatQry) {
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

    fn qry(&mut self, q: FlatQry) {
        (self.emit)(q.qid, q.d + (self.min0 + self.acc));
    }
}

/// Executes a batch of prefix operations on a list with the given initial
/// weights; returns `(qid, value)` pairs for every `Min` operation (order
/// unspecified; qids identify them).
///
/// # Panics
/// Panics if times are not strictly increasing, a position is out of range,
/// or the list is empty.
pub fn run_list_batch(init: &[i64], ops: &[PrefixOp]) -> Vec<(u32, i64)> {
    run_list_batch_impl(init, ops, None)
}

/// [`run_list_batch`] drawing all working state from a reusable
/// [`ListBatchScratch`]. Identical results (in time order), produced by
/// the flat sweep that also serves
/// [`run_tree_batch_with`](crate::run_tree_batch_with): the ops are
/// counting-sorted by position into the leaf arena once, each tree node
/// is one fused merge of its children's time-sorted runs, written into two
/// ping-ponged flat level arenas instead of a `Vec` pair per node, and the
/// root's records fold straight into the answers. The sweep is strictly
/// sequential — this is the amortized serving path, where concurrency
/// comes from independent requests, each with its own workspace.
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
    ws.sweep(0, init.iter().copied(), |qid, value| out.push((qid, value)));
    out
}

/// [`run_list_batch`] that also reports [`BatchStats`].
pub fn run_list_batch_stats(init: &[i64], ops: &[PrefixOp]) -> (Vec<(u32, i64)>, BatchStats) {
    let mut stats = BatchStats::default();
    let out = run_list_batch_impl(init, ops, Some(&mut stats));
    (out, stats)
}

/// The allocating reference sweep: per-node [`NodeState`] vectors,
/// reallocated level by level. Retained verbatim as the correctness
/// reference for the flat-arena sweep and as the "before" side of the
/// `hotpath_report` sweep microbench; it is also the only path with the
/// above-threshold parallel branches (the flat path is the strictly
/// sequential amortized route).
fn run_list_batch_impl(
    init: &[i64],
    ops: &[PrefixOp],
    mut stats: Option<&mut BatchStats>,
) -> Vec<(u32, i64)> {
    let n = init.len();
    assert!(n > 0, "empty list");
    for w in ops.windows(2) {
        assert!(w[0].time() < w[1].time(), "times must strictly increase");
    }
    for op in ops {
        assert!((op.pos() as usize) < n, "position out of range");
    }
    let cap = n.next_power_of_two();
    let mut mins: Vec<i64> = Vec::new();
    let mut leaves: Vec<NodeState> = Vec::new();
    let mut ping: Vec<NodeState> = Vec::new();
    let mut pong: Vec<NodeState> = Vec::new();
    let (mut run_min, mut partials) = (Vec::new(), Vec::new());
    let (leaves, ping, pong) = (&mut leaves, &mut ping, &mut pong);

    // Initial subtree minima and Δ⁰ per inner node (heap layout, root = 1).
    mins.resize(2 * cap, PAD);
    for (i, &w) in init.iter().enumerate() {
        mins[cap + i] = w;
    }
    for i in (1..cap).rev() {
        mins[i] = mins[2 * i].min(mins[2 * i + 1]);
    }
    let mins = &*mins;
    let delta0 = |node: usize| mins[2 * node + 1] - mins[2 * node];
    let min0_root = mins[1.min(2 * cap - 1)];

    // Leaf states: bucket ops by position, preserving time order.
    leaves.resize_with(cap, NodeState::default);
    for op in ops {
        let state = &mut leaves[op.pos() as usize];
        match *op {
            PrefixOp::Add { time, x, .. } => state.upds.push(Upd { time, x, phi: x }),
            PrefixOp::Min { time, qid, pos } => state.qrys.push(Qry {
                time,
                qid,
                pos,
                d: 0,
            }),
        }
    }

    if let Some(stats) = stats.as_deref_mut() {
        // Leaf level counts as processed work.
        stats.work_items += ops.len() as u64;
    }

    // Bottom-up level sweep. The inner levels ping-pong between two
    // buffers, so the per-node update/query vectors keep their capacities
    // across levels instead of being reallocated per level.
    let mut at_leaves = true; // current child level is the leaf buckets
    let mut cur_len = cap;
    let mut child_level_shift = 0u32; // leaves sit at shift 0
    while cur_len > 1 {
        let parents = cur_len / 2;
        let heap_base = parents; // parent nodes occupy heap ids parents..2*parents
        {
            let level: &[NodeState] = if at_leaves {
                &leaves[..cap]
            } else {
                &ping[..cur_len]
            };
            if pong.len() < parents {
                pong.resize_with(parents, NodeState::default);
            }
            let out = &mut pong[..parents];
            out.par_iter_mut().enumerate().for_each(|(p, slot)| {
                combine_into(
                    &level[2 * p],
                    &level[2 * p + 1],
                    delta0(heap_base + p),
                    child_level_shift,
                    slot,
                )
            });
        }
        std::mem::swap(ping, pong);
        at_leaves = false;
        cur_len = parents;
        child_level_shift += 1;
        if let Some(stats) = stats.as_deref_mut() {
            let mut level_items = 0u64;
            let mut max_node = 0u64;
            for st in &ping[..cur_len] {
                let items = (st.upds.len() + st.qrys.len()) as u64;
                level_items += items;
                max_node = max_node.max(items);
            }
            stats.work_items += level_items;
            stats.depth_est += 64 - max_node.leading_zeros() as u64 + 1;
            stats.levels += 1;
        }
    }

    let root: &NodeState = if at_leaves { &leaves[0] } else { &ping[0] };
    finish_root(root, min0_root, &mut run_min, &mut partials)
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
/// records, in time order. The arithmetic and its order are the reference
/// [`combine_into`]'s, so every value is bit-identical.
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

impl Timed for FlatQry {
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
    l_qrys: &[FlatQry],
    r_qrys: &[FlatQry],
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
        out.qry(FlatQry { d, ..q });
    }
}

/// A merged update with the per-child φ contributions filled in
/// (Observation 4 supplies the trivial side).
#[derive(Clone, Copy, Debug)]
struct MergedUpd {
    time: u32,
    x: i64,
    phi_l: i64,
    phi_r: i64,
}

/// Combines two child states into `out` (cleared and refilled, keeping its
/// vector capacities). Below the parallel threshold the update and query
/// records are written straight into `out`'s recycled buffers; the
/// above-threshold branches build fresh vectors (they are rare and large,
/// and the parallel map cannot target a shared buffer without unsafe
/// slicing).
fn combine_into(l: &NodeState, r: &NodeState, delta0: i64, child_shift: u32, out: &mut NodeState) {
    out.upds.clear();
    out.qrys.clear();
    let nu = l.upds.len() + r.upds.len();
    let nq = l.qrys.len() + r.qrys.len();
    if nu == 0 && nq == 0 {
        return;
    }

    // --- Updates: H(b), φ_l/φ_r, Δ(b), Φ(b) ---------------------------------
    let merged: Vec<MergedUpd> = merge_upds(&l.upds, &r.upds);
    // Prefix sums of φ_l and φ_r give Δ via Observation 3.
    let mut sum_l: Vec<i64> = merged.iter().map(|u| u.phi_l).collect();
    let mut sum_r: Vec<i64> = merged.iter().map(|u| u.phi_r).collect();
    if nu >= NODE_PAR_THRESHOLD {
        inclusive_scan_in_place(&mut sum_l);
        inclusive_scan_in_place(&mut sum_r);
    } else {
        seq_scan(&mut sum_l);
        seq_scan(&mut sum_r);
    }
    let delta_at = |i: usize| -> i64 {
        if i == 0 {
            delta0
        } else {
            delta0 + sum_r[i - 1] - sum_l[i - 1]
        }
    };
    let mk_upd = |i: usize, u: &MergedUpd| -> Upd {
        let old = delta_at(i);
        let new = delta0 + sum_r[i] - sum_l[i];
        let phi = match (old > 0, new > 0) {
            (true, true) => u.phi_l,
            (false, false) => u.phi_r,
            (false, true) => u.phi_l - old,
            (true, false) => u.phi_r + old,
        };
        Upd {
            time: u.time,
            x: u.x,
            phi,
        }
    };
    if nu >= NODE_PAR_THRESHOLD {
        out.upds = merged
            .par_iter()
            .enumerate()
            .map(|(i, u)| mk_upd(i, u))
            .collect();
    } else {
        out.upds
            .extend(merged.iter().enumerate().map(|(i, u)| mk_upd(i, u)));
    }

    // --- Queries -------------------------------------------------------------
    if nq > 0 {
        let merged_q: Vec<Qry> = merge_qrys(&l.qrys, &r.qrys);
        // Δ value current at each query's time (last update strictly before;
        // times are unique so "≤ previous update" ≡ "< query time").
        let upd_times: Vec<u32> = merged.iter().map(|u| u.time).collect();
        let deltas_after: Vec<i64> = (0..nu).map(|i| delta0 + sum_r[i] - sum_l[i]).collect();
        let delta_cur = attach_latest(&merged_q, &upd_times, &deltas_after, delta0);
        let apply = |(q, dcur): (&Qry, i64)| -> Qry {
            // Child side of the query leaf at this node (paper §3.2 rule).
            let from_right = (q.pos >> child_shift) & 1 == 1;
            let d = if from_right {
                if dcur > 0 {
                    0
                } else if q.d + dcur < 0 {
                    q.d
                } else {
                    -dcur
                }
            } else if dcur <= 0 {
                q.d - dcur
            } else {
                q.d
            };
            Qry { d, ..*q }
        };
        if nq >= NODE_PAR_THRESHOLD {
            out.qrys = merged_q
                .par_iter()
                .zip(delta_cur.par_iter().copied())
                .map(apply)
                .collect();
        } else {
            out.qrys
                .extend(merged_q.iter().zip(delta_cur.iter().copied()).map(apply));
        }
    }
}

fn finish_root(
    root: &NodeState,
    min0: i64,
    run_min: &mut Vec<i64>,
    partials: &mut Vec<i64>,
) -> Vec<(u32, i64)> {
    // Running overall minima after each update (§3.1.3).
    run_min.clear();
    run_min.extend(root.upds.iter().map(|u| u.phi));
    if run_min.len() >= NODE_PAR_THRESHOLD {
        inclusive_scan_in_place_with(run_min, partials);
    } else {
        seq_scan(run_min);
    }
    for m in run_min.iter_mut() {
        *m += min0;
    }
    let times: Vec<u32> = root.upds.iter().map(|u| u.time).collect();
    let min_cur = attach_latest(&root.qrys, &times, run_min, min0);
    root.qrys
        .iter()
        .zip(min_cur)
        .map(|(q, m)| (q.qid, q.d + m))
        .collect()
}

fn seq_scan(xs: &mut [i64]) {
    let mut acc = 0i64;
    for x in xs.iter_mut() {
        acc += *x;
        *x = acc;
    }
}

/// Merges the children's update arrays by time, filling in the trivial φ
/// contribution of the non-owning child (Observation 4).
fn merge_upds(l: &[Upd], r: &[Upd]) -> Vec<MergedUpd> {
    let total = l.len() + r.len();
    if total < NODE_PAR_THRESHOLD {
        let mut out = Vec::with_capacity(total);
        let (mut i, mut j) = (0, 0);
        while i < l.len() || j < r.len() {
            let take_left = j == r.len() || (i < l.len() && l[i].time < r[j].time);
            if take_left {
                out.push(MergedUpd {
                    time: l[i].time,
                    x: l[i].x,
                    phi_l: l[i].phi,
                    phi_r: 0,
                });
                i += 1;
            } else {
                out.push(MergedUpd {
                    time: r[j].time,
                    x: r[j].x,
                    phi_l: r[j].x,
                    phi_r: r[j].phi,
                });
                j += 1;
            }
        }
        out
    } else {
        // Tag side, merge in parallel, map to MergedUpd in parallel.
        let lt: Vec<(Upd, bool)> = l.iter().map(|&u| (u, false)).collect();
        let rt: Vec<(Upd, bool)> = r.iter().map(|&u| (u, true)).collect();
        let merged = merge_by_key(&lt, &rt, |(u, _)| u.time);
        merged
            .par_iter()
            .map(|&(u, from_right)| {
                if from_right {
                    MergedUpd {
                        time: u.time,
                        x: u.x,
                        phi_l: u.x,
                        phi_r: u.phi,
                    }
                } else {
                    MergedUpd {
                        time: u.time,
                        x: u.x,
                        phi_l: u.phi,
                        phi_r: 0,
                    }
                }
            })
            .collect()
    }
}

fn merge_qrys(l: &[Qry], r: &[Qry]) -> Vec<Qry> {
    let total = l.len() + r.len();
    if total < NODE_PAR_THRESHOLD {
        let mut out = Vec::with_capacity(total);
        let (mut i, mut j) = (0, 0);
        while i < l.len() || j < r.len() {
            let take_left = j == r.len() || (i < l.len() && l[i].time < r[j].time);
            if take_left {
                out.push(l[i]);
                i += 1;
            } else {
                out.push(r[j]);
                j += 1;
            }
        }
        out
    } else {
        merge_by_key(l, r, |q| q.time)
    }
}

/// For each query (sorted by time), the value associated with the last
/// event time `< query time`, or `default` if none: the merge + segmented
/// broadcast of §3.2.
fn attach_latest(qrys: &[Qry], times: &[u32], values: &[i64], default: i64) -> Vec<i64> {
    debug_assert_eq!(times.len(), values.len());
    let total = qrys.len() + times.len();
    if total < NODE_PAR_THRESHOLD {
        let mut out = Vec::with_capacity(qrys.len());
        let mut j = 0usize;
        let mut cur = default;
        for q in qrys {
            while j < times.len() && times[j] < q.time {
                cur = values[j];
                j += 1;
            }
            out.push(cur);
        }
        out
    } else {
        // Merge (time, Some(value)) events with (time, None) query slots by
        // time, broadcast, read back the query slots in order.
        #[derive(Clone, Copy)]
        struct Slot {
            time: u32,
            val: Option<i64>,
        }
        let ev: Vec<Slot> = times
            .iter()
            .zip(values)
            .map(|(&t, &v)| Slot {
                time: t,
                val: Some(v),
            })
            .collect();
        let qs: Vec<Slot> = qrys
            .iter()
            .map(|q| Slot {
                time: q.time,
                val: None,
            })
            .collect();
        // Events sort before queries at equal time; times are unique anyway.
        let merged = merge_by_key(&ev, &qs, |s| s.time);
        let opts: Vec<Option<i64>> = merged.iter().map(|s| s.val).collect();
        let carried = segmented_broadcast(&opts);
        merged
            .iter()
            .zip(carried)
            .filter(|(s, _)| s.val.is_none())
            .map(|(_, c)| c.unwrap_or(default))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn sorted(mut v: Vec<(u32, i64)>) -> Vec<(u32, i64)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_batch() {
        assert!(run_list_batch(&[1, 2, 3], &[]).is_empty());
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
        let got = sorted(run_list_batch(&[5, 1, 7], &ops));
        assert_eq!(got, vec![(0, 1), (1, 5)]);
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
        assert_eq!(
            sorted(run_list_batch(&init, &ops)),
            sorted(reference(&init, &ops))
        );
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
        let got = sorted(run_list_batch(&[10], &ops));
        assert_eq!(got, vec![(0, 10), (1, 7)]);
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
        let got = sorted(run_list_batch(&[5, 10], &ops));
        assert_eq!(got, vec![(0, 10), (1, 105)]);
    }

    #[test]
    fn randomized_vs_reference_small() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..300 {
            let n = rng.gen_range(1..24);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
            let k = rng.gen_range(0..50);
            let mut qid = 0;
            let ops: Vec<PrefixOp> = (0..k)
                .map(|t| {
                    let pos = rng.gen_range(0..n) as u32;
                    if rng.gen_bool(0.5) {
                        PrefixOp::Add {
                            time: t,
                            pos,
                            x: rng.gen_range(-50..50),
                        }
                    } else {
                        qid += 1;
                        PrefixOp::Min {
                            time: t,
                            pos,
                            qid: qid - 1,
                        }
                    }
                })
                .collect();
            assert_eq!(
                sorted(run_list_batch(&init, &ops)),
                sorted(reference(&init, &ops)),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn randomized_vs_reference_larger() {
        let mut rng = SmallRng::seed_from_u64(6);
        for trial in 0..10 {
            let n = rng.gen_range(100..1000);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
            let mut qid = 0;
            let ops: Vec<PrefixOp> = (0..2000u32)
                .map(|t| {
                    let pos = rng.gen_range(0..n) as u32;
                    if rng.gen_bool(0.6) {
                        PrefixOp::Add {
                            time: t,
                            pos,
                            x: rng.gen_range(-500..500),
                        }
                    } else {
                        qid += 1;
                        PrefixOp::Min {
                            time: t,
                            pos,
                            qid: qid - 1,
                        }
                    }
                })
                .collect();
            assert_eq!(
                sorted(run_list_batch(&init, &ops)),
                sorted(reference(&init, &ops)),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn large_batch_crosses_parallel_threshold() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 64;
        let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
        let mut qid = 0;
        let k = 40_000u32; // forces the NODE_PAR_THRESHOLD branches near the root
        let ops: Vec<PrefixOp> = (0..k)
            .map(|t| {
                let pos = rng.gen_range(0..n) as u32;
                if rng.gen_bool(0.7) {
                    PrefixOp::Add {
                        time: t,
                        pos,
                        x: rng.gen_range(-5..5),
                    }
                } else {
                    qid += 1;
                    PrefixOp::Min {
                        time: t,
                        pos,
                        qid: qid - 1,
                    }
                }
            })
            .collect();
        assert_eq!(
            sorted(run_list_batch(&init, &ops)),
            sorted(reference(&init, &ops))
        );
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
        let _ = run_list_batch(&[0, 0], &ops);
    }

    #[test]
    fn scratch_variant_matches_allocating_path() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut ws = ListBatchScratch::default();
        // One scratch across many differently-sized lists and batches.
        for trial in 0..40 {
            let n = rng.gen_range(1..300);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
            let mut qid = 0;
            let ops: Vec<PrefixOp> = (0..rng.gen_range(0..300u32))
                .map(|t| {
                    let pos = rng.gen_range(0..n) as u32;
                    if rng.gen_bool(0.5) {
                        PrefixOp::Add {
                            time: t,
                            pos,
                            x: rng.gen_range(-100..100),
                        }
                    } else {
                        qid += 1;
                        PrefixOp::Min {
                            time: t,
                            pos,
                            qid: qid - 1,
                        }
                    }
                })
                .collect();
            assert_eq!(
                sorted(run_list_batch_with(&init, &ops, &mut ws)),
                sorted(run_list_batch(&init, &ops)),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn stats_track_lemma5_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 256usize;
        let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
        let k = 4096u32;
        let mut qid = 0;
        let ops: Vec<PrefixOp> = (0..k)
            .map(|t| {
                let pos = rng.gen_range(0..n) as u32;
                if rng.gen_bool(0.5) {
                    PrefixOp::Add {
                        time: t,
                        pos,
                        x: rng.gen_range(-100..100),
                    }
                } else {
                    qid += 1;
                    PrefixOp::Min {
                        time: t,
                        pos,
                        qid: qid - 1,
                    }
                }
            })
            .collect();
        let (res, stats) = run_list_batch_stats(&init, &ops);
        assert_eq!(res.len(), qid as usize);
        assert_eq!(stats.levels, 8); // log2(256)
                                     // Every op survives to the root, so at least k items per level are
                                     // processed somewhere; the Lemma 5 bound caps the total.
        assert!(stats.work_items >= k as u64);
        let (logn, logk) = (8u64, 12u64);
        assert!(
            stats.work_items <= 4 * k as u64 * (logn + logk) + 4 * n as u64,
            "work {} exceeds the Lemma 5 budget",
            stats.work_items
        );
        // Depth: at most log2(k)+1 per level.
        assert!(stats.depth_est <= (logn + 1) * (logk + 2));
    }
}
