//! Tree-level batched Minimum Path operations (paper §3.4, Lemma 9).
//!
//! Each `MinPath`/`AddPath` on the tree decomposes into at most `log₂ n`
//! `MinPrefix`/`AddPrefix` operations — one per decomposition path crossed
//! by the `v → root` path, each covering a *prefix* of that path's list
//! (paths run downward from their tops). The per-list batches are
//! independent, so the paper runs them in parallel; here they run one
//! after another through one reused scratch, and every `MinPath` result is
//! the minimum of its sub-results.

use crate::batch::{BatchStats, ListBatchScratch};
use crate::decompose::{Decomposition, NONE};
use pmc_graph::RootedTree;

/// One tree-level operation. Times are implicit: the batch index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeOp {
    /// `AddPath(v, x)`: add `x` to every vertex on the `v → root` path.
    Add {
        /// Deepest vertex of the updated path.
        v: u32,
        /// Increment.
        x: i64,
    },
    /// `MinPath(v)`: smallest weight on the `v → root` path.
    Min {
        /// Deepest vertex of the queried path.
        v: u32,
    },
}

/// Walks the decomposition paths crossed by the `v → root` path,
/// bottom-up, calling `f(pid, pos)` with each path and the position at
/// which the walk enters it: an op at `v` leaves one prefix record at each
/// such `(pid, pos)`.
fn walk_chain(decomp: &Decomposition, v: u32, mut f: impl FnMut(u32, u32)) {
    let mut cur = v;
    loop {
        let pid = decomp.path_of(cur);
        f(pid, decomp.pos_in_path(cur));
        cur = decomp.parent_of_top(pid);
        if cur == NONE {
            break;
        }
    }
}

/// Fills `result_index[t]` with the ordinal position of the `Min` op at
/// batch time `t` (`u32::MAX` for `Add`s); returns the query count.
fn fill_result_slots(ops: &[TreeOp], result_index: &mut Vec<u32>) -> usize {
    result_index.clear();
    result_index.resize(ops.len(), u32::MAX);
    let mut nqueries = 0u32;
    for (t, op) in ops.iter().enumerate() {
        if matches!(op, TreeOp::Min { .. }) {
            result_index[t] = nqueries;
            nqueries += 1;
        }
    }
    nqueries as usize
}

/// Folds one sub-result into the `Min` op it belongs to.
fn fold_result(qid: u32, val: i64, result_index: &[u32], out: &mut [i64]) {
    let slot = &mut out[result_index[qid as usize] as usize];
    if val < *slot {
        *slot = val;
    }
}

/// Reusable buffers for [`run_tree_batch_with`]: the per-vertex op counts
/// and chains of slots that drive its bucketing pass, the query→output
/// index, and one [`ListBatchScratch`], whose leaf arena holds every
/// prefix record of the batch and whose level arenas are shared by every
/// list. One scratch amortizes every tree batch a solver executes.
#[derive(Clone, Debug, Default)]
pub struct TreeBatchScratch {
    /// `(AddPath, MinPath)` op counts per vertex, for the counting pass.
    vertex_ops: Vec<(u32, u32)>,
    /// Each vertex's chain of slots in CSR form: the slots at which
    /// [`walk_chain`] enters each path; empty for vertices without ops.
    chain_off: Vec<u32>,
    chains: Vec<u32>,
    result_index: Vec<u32>,
    list: ListBatchScratch,
}

impl TreeBatchScratch {
    /// Bytes of heap memory in active use by the scratch buffers
    /// (`len`-based), including the embedded list scratch.
    pub fn heap_bytes(&self) -> usize {
        self.vertex_ops.len() * std::mem::size_of::<(u32, u32)>()
            + (self.chain_off.len() + self.chains.len() + self.result_index.len())
                * std::mem::size_of::<u32>()
            + self.list.heap_bytes()
    }
}

/// Executes a batch of tree operations as if sequentially, drawing all
/// working state from a reusable [`TreeBatchScratch`]; returns one result
/// per `Min` op, in the order the `Min` ops appear in `ops`.
///
/// One counting sort buckets every prefix record of the batch into the
/// leaf arena, keyed by its decomposition slot
/// ([`Decomposition::slot_range`]), so each list's leaves are one
/// contiguous slot range. The lists then run one after another through
/// the sweep of [`run_list_batch_with`](crate::run_list_batch_with), lists
/// without queries are skipped, and each answer is folded into the output
/// as the sweep reaches the root.
///
/// Work `O(k log n (log n + log k) + n log n)`, depth
/// `O(log n (log n + log k))` with the lists and levels in parallel —
/// Lemma 9. [`run_tree_batch_stats`] counts that work.
///
/// ```
/// use pmc_graph::gen;
/// use pmc_minpath::decompose::{Decomposition, Strategy};
/// use pmc_minpath::{run_tree_batch_with, TreeBatchScratch, TreeOp};
///
/// let tree = gen::star_tree(4); // root 0 with leaves 1, 2, 3
/// let decomp = Decomposition::new(&tree, Strategy::BoughWalk);
/// let ops = vec![
///     TreeOp::Min { v: 1 },           // min(100, 1)  = 1
///     TreeOp::Add { v: 2, x: -50 },   // root: 50, leaf 2: -48
///     TreeOp::Min { v: 3 },           // min(50, 3)   = 3
///     TreeOp::Min { v: 2 },           // min(50, -48) = -48
/// ];
/// let mut ws = TreeBatchScratch::default(); // reusable across batches
/// let results = run_tree_batch_with(&tree, &decomp, &[100, 1, 2, 3], &ops, &mut ws);
/// assert_eq!(results, vec![1, 3, -48]);
/// ```
///
/// # Panics
/// Panics if `init` does not hold one weight per tree vertex, or (like
/// [`run_list_batch_with`](crate::run_list_batch_with)) if times do not
/// strictly increase at a list position or a position lies outside its
/// list.
pub fn run_tree_batch_with(
    tree: &RootedTree,
    decomp: &Decomposition,
    init: &[i64],
    ops: &[TreeOp],
    ws: &mut TreeBatchScratch,
) -> Vec<i64> {
    sweep_tree_batch(tree, decomp, init, ops, ws, None)
}

/// [`run_tree_batch_with`] that also reports [`BatchStats`]: every list's
/// record counts, merged as lists that run in parallel (work adds, depth
/// and levels take the deepest list). Experiment E10 checks them against
/// Lemma 9's `work / k = Θ(log n (log n + log k))`.
pub fn run_tree_batch_stats(
    tree: &RootedTree,
    decomp: &Decomposition,
    init: &[i64],
    ops: &[TreeOp],
    ws: &mut TreeBatchScratch,
) -> (Vec<i64>, BatchStats) {
    let mut stats = BatchStats::default();
    let out = sweep_tree_batch(tree, decomp, init, ops, ws, Some(&mut stats));
    (out, stats)
}

fn sweep_tree_batch(
    tree: &RootedTree,
    decomp: &Decomposition,
    init: &[i64],
    ops: &[TreeOp],
    ws: &mut TreeBatchScratch,
    mut stats: Option<&mut BatchStats>,
) -> Vec<i64> {
    assert_eq!(init.len(), tree.n());
    let TreeBatchScratch {
        vertex_ops,
        chain_off,
        chains,
        result_index,
        list,
    } = ws;

    // Every op at `v` leaves one record in each slot of `v`'s chain, so
    // count the ops per vertex and walk each vertex's chain once, caching
    // it for the placing pass.
    vertex_ops.clear();
    vertex_ops.resize(init.len(), (0, 0));
    for op in ops {
        match *op {
            TreeOp::Add { v, .. } => vertex_ops[v as usize].0 += 1,
            TreeOp::Min { v } => vertex_ops[v as usize].1 += 1,
        }
    }
    let mut counts = list.bucket(init.len());
    chain_off.clear();
    chains.clear();
    for (v, &(upds, qrys)) in vertex_ops.iter().enumerate() {
        chain_off.push(chains.len() as u32);
        if upds + qrys > 0 {
            walk_chain(decomp, v as u32, |pid, pos| {
                let slots = decomp.slot_range(pid);
                assert!((pos as usize) < slots.len(), "position out of range");
                let slot = slots.start + pos as usize;
                counts.add(slot, upds, qrys);
                chains.push(slot as u32);
            });
        }
    }
    chain_off.push(chains.len() as u32);
    let mut placer = counts.place();
    for (t, op) in ops.iter().enumerate() {
        let time = t as u32;
        let (TreeOp::Add { v, .. } | TreeOp::Min { v }) = *op;
        let chain = &chains[chain_off[v as usize] as usize..chain_off[v as usize + 1] as usize];
        match *op {
            TreeOp::Add { x, .. } => chain.iter().for_each(|&s| placer.add(s as usize, time, x)),
            TreeOp::Min { .. } => chain
                .iter()
                .for_each(|&s| placer.min(s as usize, time, time)),
        }
    }

    let nqueries = fill_result_slots(ops, result_index);
    let mut out = vec![i64::MAX; nqueries];
    for p in 0..decomp.npaths() as u32 {
        let weights = decomp.path(p).iter().map(|&v| init[v as usize]);
        let first = decomp.slot_range(p).start;
        list.sweep(first, weights, stats.as_deref_mut(), |qid, val| {
            fold_result(qid, val, result_index, &mut out)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Strategy;
    use crate::naive::NaiveMinPath;
    use pmc_graph::gen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn reference(tree: &RootedTree, init: &[i64], ops: &[TreeOp]) -> Vec<i64> {
        let mut naive = NaiveMinPath::new(tree, init);
        let mut out = Vec::new();
        for op in ops {
            match *op {
                TreeOp::Add { v, x } => naive.add_path(v, x),
                TreeOp::Min { v } => out.push(naive.min_path(v).0),
            }
        }
        out
    }

    fn random_ops(n: usize, k: usize, rng: &mut SmallRng) -> Vec<TreeOp> {
        (0..k)
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
            .collect()
    }

    /// The sweep on a fresh scratch.
    fn run(tree: &RootedTree, decomp: &Decomposition, init: &[i64], ops: &[TreeOp]) -> Vec<i64> {
        run_tree_batch_with(tree, decomp, init, ops, &mut TreeBatchScratch::default())
    }

    #[test]
    fn single_vertex_tree() {
        let t = gen::path_tree(1);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        let ops = vec![
            TreeOp::Min { v: 0 },
            TreeOp::Add { v: 0, x: 5 },
            TreeOp::Min { v: 0 },
        ];
        assert_eq!(run(&t, &d, &[10], &ops), vec![10, 15]);
    }

    #[test]
    fn matches_naive_on_random_trees() {
        let mut rng = SmallRng::seed_from_u64(71);
        for trial in 0..40 {
            let n = rng.gen_range(1..150);
            let t = gen::random_tree(n, trial);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
            let ops = random_ops(n, rng.gen_range(0..200), &mut rng);
            let want = reference(&t, &init, &ops);
            for strat in [Strategy::BoughWalk, Strategy::HeavyLight] {
                let d = Decomposition::new(&t, strat);
                let got = run(&t, &d, &init, &ops);
                assert_eq!(got, want, "trial {trial} strat {strat:?}");
            }
        }
    }

    #[test]
    fn matches_naive_on_adversarial_shapes() {
        let mut rng = SmallRng::seed_from_u64(72);
        let shapes: Vec<RootedTree> = vec![
            gen::path_tree(100),
            gen::star_tree(100),
            gen::caterpillar_tree(30, 3),
            gen::balanced_binary_tree(127),
            gen::broom_tree(40, 40),
        ];
        for (si, t) in shapes.iter().enumerate() {
            let n = t.n();
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
            let ops = random_ops(n, 300, &mut rng);
            let want = reference(t, &init, &ops);
            let d = Decomposition::new(t, Strategy::BoughWalk);
            assert_eq!(run(t, &d, &init, &ops), want, "shape {si}");
        }
    }

    #[test]
    fn scratch_variant_matches_allocating_path() {
        // One scratch across random trees of varying shapes and sizes
        // answers like a fresh scratch per batch, and like the naive walk.
        let mut rng = SmallRng::seed_from_u64(74);
        let mut ws = TreeBatchScratch::default();
        for trial in 0..30 {
            let n = rng.gen_range(1..200);
            let t = gen::random_tree(n, 100 + trial);
            let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
            let ops = random_ops(n, rng.gen_range(0..300), &mut rng);
            let d = Decomposition::new(&t, Strategy::BoughWalk);
            let got = run_tree_batch_with(&t, &d, &init, &ops, &mut ws);
            assert_eq!(got, run(&t, &d, &init, &ops), "trial {trial}");
            assert_eq!(got, reference(&t, &init, &ops), "trial {trial}");
        }
    }

    #[test]
    fn big_batch_on_big_tree() {
        let mut rng = SmallRng::seed_from_u64(73);
        let n = 3000;
        let t = gen::random_tree(n, 9);
        let init: Vec<i64> = (0..n).map(|_| rng.gen_range(-5000..5000)).collect();
        let ops = random_ops(n, 20_000, &mut rng);
        let want = reference(&t, &init, &ops);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        assert_eq!(run(&t, &d, &init, &ops), want);
    }
}
