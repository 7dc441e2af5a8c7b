//! Minimum spanning trees.
//!
//! The packing procedure performs `O(log² n)` MST computations (Lemma 1's
//! inner loop), so MSTs dominate the packing cost. All of them run on one
//! fixed skeleton; only the edge costs change between rounds.
//! [`RepeatedMst`] exploits that. Once per skeleton it finds the bridges
//! (they lie in every spanning tree) and compresses each maximal path
//! through vertices with exactly two non-bridge edges into one chain. Each
//! round then prices the chain members alone, runs Kruskal over the chains,
//! keyed by their heaviest members, and reports the edges the round leaves
//! out as a bitset over the edge ids: `m / 8` bytes, whatever the tree.
//!
//! Costs are abstract `u64` keys supplied per edge (the packing uses scaled
//! load ratios). Ties are broken by edge id, so `(cost, edge id)` is a
//! strict total order and the minimum spanning forest is unique: every
//! implementation returns the identical edge set. [`kruskal_mst`] is the
//! reference the tests compare the engine against.

use pmc_graph::{Graph, UnionFind};

/// "No vertex" / "no chain yet" marker.
const NONE: u32 = u32::MAX;
/// `edge_chain` marker of a bridge.
const BRIDGE: u32 = u32::MAX - 1;
/// Key counts up to this size are sorted by comparison, not by radix.
const SMALL_SORT: usize = 64;

/// Composite comparison key: `(cost, edge_id)` packed for `min` reductions.
#[inline]
fn key(cost: u64, eid: u32) -> u128 {
    ((cost as u128) << 32) | eid as u128
}

/// Kruskal MST, the sequential reference. Returns the sorted edge ids of
/// the minimum spanning forest of `g` under `cost` (the full spanning tree
/// when `g` is connected), ties broken by edge id.
///
/// # Panics
/// Panics if `cost.len() != g.m()`.
pub fn kruskal_mst(g: &Graph, cost: &[u64]) -> Vec<u32> {
    assert_eq!(cost.len(), g.m());
    let mut order: Vec<u32> = (0..g.m() as u32).collect();
    order.sort_unstable_by_key(|&eid| key(cost[eid as usize], eid));
    let mut uf = UnionFind::new(g.n());
    let mut chosen = Vec::with_capacity(g.n().saturating_sub(1));
    for eid in order {
        let e = g.edges()[eid as usize];
        if uf.union(e.u, e.v) {
            chosen.push(eid);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Total cost of a set of edges.
pub fn tree_cost(cost: &[u64], edges: &[u32]) -> u64 {
    edges.iter().map(|&eid| cost[eid as usize]).sum()
}

/// One frame of the iterative bridge search: a vertex, the edge it was
/// entered by, and the position of its next incident edge.
#[derive(Clone, Copy, Debug)]
struct Frame {
    v: u32,
    parent_edge: u32,
    next: u32,
}

/// Exact minimum spanning forests of one graph under many cost vectors.
///
/// [`RepeatedMst::prepare`] reduces the graph once, in `O(n + m)`:
///
/// * **Bridges** enter every spanning tree, whatever the costs.
/// * **Chains.** Removing the bridges leaves vertices with zero, two, or
///   at least three non-bridge edges. Vertices with three or more form the
///   *kernel*. Every non-bridge edge lies on exactly one chain: a maximal
///   path whose interior vertices have exactly two non-bridge edges. An
///   *open* chain joins two distinct kernel vertices. A *closed* chain is a
///   pure cycle or returns to the kernel vertex it started from.
///
/// Every cycle through one chain member contains the whole chain, so only
/// the chain's maximum under `(cost, edge id)` can be the heaviest edge of
/// a cycle. [`RepeatedMst::left_out`] therefore drops the maximum of every
/// closed chain, runs Kruskal over the open chains (one kernel edge each,
/// keyed by its maximum) and drops the maxima Kruskal rejects. By the
/// cycle property every other edge is in the unique minimum spanning forest
/// [`kruskal_mst`] returns, so the dropped edges are exactly its
/// complement. Bridges are never priced.
///
/// The `m − n + 1` dropped edges of a connected graph are fewer than its
/// `n − 1` tree edges only while `m < 2n`, and the packing's skeletons can
/// be much denser, so a round reports them as a bitset rather than a list.
///
/// Keys are `cost << 32 | edge id` in a `u64`, radix-sorted, when every
/// cost fits in 32 bits (decided once per [`RepeatedMst::prepare`] from the
/// caller's bound), and exact `u128` keys otherwise. A warm engine
/// allocates nothing per round.
#[derive(Clone, Debug, Default)]
pub struct RepeatedMst {
    /// Whether costs may exceed 32 bits (exact `u128` keys then).
    wide: bool,
    /// Bridge search: discovery time and low-link per vertex (`0` =
    /// unvisited), and the explicit DFS stack.
    disc: Vec<u32>,
    low: Vec<u32>,
    frames: Vec<Frame>,
    /// Per edge: [`BRIDGE`] or the index of the chain holding it.
    edge_chain: Vec<u32>,
    /// Per vertex: dense kernel label, or [`NONE`] outside the kernel.
    kernel: Vec<u32>,
    /// Chain members in CSR form: chain `c` is
    /// `chain_edges[chain_off[c] .. chain_off[c + 1]]`.
    chain_edges: Vec<u32>,
    chain_off: Vec<u32>,
    /// Kernel labels of each chain's ends; equal ends mark a closed chain.
    chain_ends: Vec<[u32; 2]>,
    /// Unions Kruskal performs per round: kernel vertices minus kernel
    /// components. Every open chain after the last union is rejected.
    kernel_unions: usize,
    /// Per-round open-chain keys (narrow or wide) and the radix buffer.
    keys: Vec<u64>,
    keys_tmp: Vec<u64>,
    wide_keys: Vec<u128>,
    /// Union-find parents over the kernel labels.
    parent: Vec<u32>,
    /// Bitset of the edges the current round leaves out.
    dropped: Vec<u64>,
}

impl RepeatedMst {
    /// A fresh engine (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reduces `g` to its bridges, chains and kernel for the following
    /// [`RepeatedMst::left_out`] calls, and returns the number of connected
    /// components of `g`. `max_cost` bounds every cost those calls pass;
    /// it decides once whether keys fit in 64 bits.
    pub fn prepare(&mut self, g: &Graph, max_cost: u64) -> usize {
        self.wide = max_cost > u64::from(u32::MAX);
        let components = self.find_bridges(g);
        let kernel_vertices = self.build_chains(g);
        self.parent.clear();
        self.parent.extend(0..kernel_vertices);
        self.kernel_unions = 0;
        for c in 0..self.chain_ends.len() {
            let [a, b] = self.chain_ends[c];
            if a != b && union(&mut self.parent, a, b) {
                self.kernel_unions += 1;
            }
        }
        self.dropped.clear();
        self.dropped.resize(g.m().div_ceil(64), 0);
        components
    }

    /// Whether edge `e` is a bridge of the prepared graph: it lies in
    /// every spanning tree, whatever the costs.
    pub(crate) fn is_bridge(&self, e: u32) -> bool {
        self.edge_chain[e as usize] == BRIDGE
    }

    /// The edges the minimum spanning forest of the prepared graph under
    /// `cost` leaves out, the complement of [`kruskal_mst`]`(g, cost)`, as
    /// a bitset over the edge ids: bit `e % 64` of word `e / 64` is set iff
    /// edge `e` is left out ([`set_bits`] lists them). `cost` maps an edge
    /// id to its cost and is called once per chain member, never for a
    /// bridge.
    ///
    /// # Panics
    /// Panics if a chain edge's cost does not fit the key width chosen from
    /// the `max_cost` given to [`RepeatedMst::prepare`]; prepare the engine
    /// again before reusing it after such a panic.
    pub fn left_out(&mut self, cost: impl Fn(u32) -> u64) -> &[u64] {
        self.dropped.fill(0);
        if self.wide {
            let mut keys = std::mem::take(&mut self.wide_keys);
            self.round(&cost, &mut keys, &mut Vec::new());
            self.wide_keys = keys;
        } else {
            let (mut keys, mut tmp) = (
                std::mem::take(&mut self.keys),
                std::mem::take(&mut self.keys_tmp),
            );
            self.round(&cost, &mut keys, &mut tmp);
            (self.keys, self.keys_tmp) = (keys, tmp);
        }
        &self.dropped
    }

    /// Bytes of heap memory in active use by the engine's buffers
    /// (`len`-based).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.disc.len()
            + self.low.len()
            + self.edge_chain.len()
            + self.kernel.len()
            + self.chain_edges.len()
            + self.chain_off.len()
            + self.parent.len())
            * size_of::<u32>()
            + self.frames.len() * size_of::<Frame>()
            + self.chain_ends.len() * size_of::<[u32; 2]>()
            + (self.keys.len() + self.keys_tmp.len() + self.dropped.len()) * size_of::<u64>()
            + self.wide_keys.len() * size_of::<u128>()
    }

    /// Iterative Tarjan bridge search over the CSR; marks bridges in
    /// `edge_chain` (every other edge [`NONE`]) and returns the number of
    /// components. The entering edge is skipped by id, so parallel edges
    /// are never bridges.
    fn find_bridges(&mut self, g: &Graph) -> usize {
        let n = g.n();
        let Self {
            disc,
            low,
            frames,
            edge_chain,
            ..
        } = self;
        disc.clear();
        disc.resize(n, 0);
        low.clear();
        low.resize(n, 0);
        edge_chain.clear();
        edge_chain.resize(g.m(), NONE);
        let mut components = 0;
        let mut time = 0u32;
        for root in 0..n as u32 {
            if disc[root as usize] != 0 {
                continue;
            }
            components += 1;
            time += 1;
            disc[root as usize] = time;
            low[root as usize] = time;
            frames.push(Frame {
                v: root,
                parent_edge: NONE,
                next: 0,
            });
            while let Some(top) = frames.last_mut() {
                let v = top.v;
                if let Some(&e) = g.incident_edge_ids(v).get(top.next as usize) {
                    top.next += 1;
                    if e == top.parent_edge {
                        continue;
                    }
                    let w = g.edges()[e as usize].other(v);
                    if disc[w as usize] == 0 {
                        time += 1;
                        disc[w as usize] = time;
                        low[w as usize] = time;
                        frames.push(Frame {
                            v: w,
                            parent_edge: e,
                            next: 0,
                        });
                    } else {
                        low[v as usize] = low[v as usize].min(disc[w as usize]);
                    }
                } else {
                    let done = frames.pop().expect("non-empty stack");
                    if let Some(parent) = frames.last() {
                        let (p, c) = (parent.v as usize, done.v as usize);
                        low[p] = low[p].min(low[c]);
                        if low[c] > disc[p] {
                            edge_chain[done.parent_edge as usize] = BRIDGE;
                        }
                    }
                }
            }
        }
        components
    }

    /// Labels the kernel and walks every chain: first those leaving a
    /// kernel vertex, then the pure cycles whose edges are still unclaimed.
    /// Returns the number of kernel vertices.
    fn build_chains(&mut self, g: &Graph) -> u32 {
        let n = g.n() as u32;
        self.kernel.clear();
        let mut labels = 0u32;
        for v in 0..n {
            let non_bridge = g
                .incident_edge_ids(v)
                .iter()
                .filter(|&&e| self.edge_chain[e as usize] != BRIDGE)
                .count();
            self.kernel.push(if non_bridge >= 3 {
                labels += 1;
                labels - 1
            } else {
                NONE
            });
        }
        self.chain_edges.clear();
        self.chain_off.clear();
        self.chain_off.push(0);
        self.chain_ends.clear();
        for a in 0..n {
            if self.kernel[a as usize] == NONE {
                continue;
            }
            for &e in g.incident_edge_ids(a) {
                if self.edge_chain[e as usize] == NONE {
                    let b = self.walk_chain(g, a, e);
                    self.chain_ends
                        .push([self.kernel[a as usize], self.kernel[b as usize]]);
                }
            }
        }
        for e in 0..g.m() as u32 {
            if self.edge_chain[e as usize] == NONE {
                self.walk_chain(g, g.edges()[e as usize].u, e);
                self.chain_ends.push([NONE, NONE]);
            }
        }
        labels
    }

    /// Claims the chain that leaves `start` by edge `first` as the next
    /// chain, and returns the vertex where it ends: the first kernel
    /// vertex reached, or `start` itself on a pure cycle.
    fn walk_chain(&mut self, g: &Graph, start: u32, first: u32) -> u32 {
        let chain = self.chain_ends.len() as u32;
        let (mut v, mut e) = (start, first);
        loop {
            self.edge_chain[e as usize] = chain;
            self.chain_edges.push(e);
            let w = g.edges()[e as usize].other(v);
            if w == start || self.kernel[w as usize] != NONE {
                self.chain_off.push(self.chain_edges.len() as u32);
                return w;
            }
            // An interior vertex: leave by its other non-bridge edge.
            e = *g
                .incident_edge_ids(w)
                .iter()
                .find(|&&f| f != e && self.edge_chain[f as usize] != BRIDGE)
                .expect("a chain interior has two non-bridge edges");
            v = w;
        }
    }

    /// One round: chain maxima and Kruskal over the open chains, marking
    /// every dropped edge.
    fn round<K: ChainKey>(
        &mut self,
        cost: &impl Fn(u32) -> u64,
        keys: &mut Vec<K>,
        tmp: &mut Vec<K>,
    ) {
        keys.clear();
        let mut high = 0u64;
        for (c, &[a, b]) in self.chain_ends.iter().enumerate() {
            let members =
                &self.chain_edges[self.chain_off[c] as usize..self.chain_off[c + 1] as usize];
            let best = members
                .iter()
                .map(|&e| {
                    let cost_e = cost(e);
                    high |= cost_e;
                    K::new(cost_e, e)
                })
                .max()
                .expect("a chain has at least one edge");
            if a == b {
                mark(&mut self.dropped, best.eid());
            } else {
                keys.push(best);
            }
        }
        assert!(K::fits(high), "edge cost exceeds the prepared bound");
        K::sort(keys, tmp);
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        let mut unions = 0;
        for &k in keys.iter() {
            let e = k.eid();
            if unions < self.kernel_unions {
                let [a, b] = self.chain_ends[self.edge_chain[e as usize] as usize];
                if union(&mut self.parent, a, b) {
                    unions += 1;
                    continue;
                }
            }
            mark(&mut self.dropped, e);
        }
    }
}

#[inline]
fn mark(bits: &mut [u64], e: u32) {
    bits[e as usize / 64] |= 1 << (e % 64);
}

/// The positions of the set bits of `words` in increasing order, bit `i`
/// of word `w` being position `64 w + i`: the edge ids a
/// [`RepeatedMst::left_out`] bitset marks.
pub fn set_bits(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = u32> {
    words.into_iter().enumerate().flat_map(|(w, word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                (w * 64) as u32 + bit
            })
        })
    })
}

/// Union-find over kernel labels with path halving, linking the lower
/// root under the higher; returns false if `a` and `b` were already
/// joined. Kruskal's accepted set does not depend on how roots are linked.
#[inline]
fn union(parent: &mut [u32], a: u32, b: u32) -> bool {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return false;
    }
    parent[ra.min(rb) as usize] = ra.max(rb);
    true
}

#[inline]
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let gp = parent[parent[x as usize] as usize];
        parent[x as usize] = gp;
        x = gp;
    }
    x
}

/// A chain key: `(cost, edge id)` in one integer, so integer order is the
/// strict order the minimum spanning forest is unique under.
trait ChainKey: Copy + Ord {
    fn new(cost: u64, eid: u32) -> Self;
    fn eid(self) -> u32;
    /// Whether the bitwise OR of every cost packed fits this key width.
    fn fits(high: u64) -> bool;
    fn sort(keys: &mut Vec<Self>, tmp: &mut Vec<Self>);
}

impl ChainKey for u64 {
    #[inline]
    fn new(cost: u64, eid: u32) -> Self {
        (cost << 32) | u64::from(eid)
    }
    #[inline]
    fn eid(self) -> u32 {
        self as u32
    }
    fn fits(high: u64) -> bool {
        high >> 32 == 0
    }
    fn sort(keys: &mut Vec<u64>, tmp: &mut Vec<u64>) {
        radix_sort(keys, tmp);
    }
}

impl ChainKey for u128 {
    #[inline]
    fn new(cost: u64, eid: u32) -> Self {
        key(cost, eid)
    }
    #[inline]
    fn eid(self) -> u32 {
        self as u32
    }
    fn fits(_: u64) -> bool {
        true
    }
    fn sort(keys: &mut Vec<u128>, _: &mut Vec<u128>) {
        keys.sort_unstable();
    }
}

/// LSD radix sort over bytes, skipping every byte position all keys share;
/// `tmp` is the ping-pong buffer.
fn radix_sort(keys: &mut Vec<u64>, tmp: &mut Vec<u64>) {
    let len = keys.len();
    if len <= SMALL_SORT {
        keys.sort_unstable();
        return;
    }
    let mut counts = [[0u32; 256]; 8];
    for &k in keys.iter() {
        for (d, c) in counts.iter_mut().enumerate() {
            c[(k >> (8 * d)) as usize & 0xff] += 1;
        }
    }
    tmp.clear();
    tmp.resize(len, 0);
    for (d, c) in counts.iter_mut().enumerate() {
        let shift = 8 * d;
        if c[(keys[0] >> shift) as usize & 0xff] as usize == len {
            continue;
        }
        let mut sum = 0;
        for x in c.iter_mut() {
            let count = *x;
            *x = sum;
            sum += count;
        }
        for &k in keys.iter() {
            let b = (k >> shift) as usize & 0xff;
            tmp[c[b] as usize] = k;
            c[b] += 1;
        }
        std::mem::swap(keys, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::gen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The sorted ids of the edges of `g` outside `edges`.
    fn complement(g: &Graph, edges: &[u32]) -> Vec<u32> {
        (0..g.m() as u32)
            .filter(|e| edges.binary_search(e).is_err())
            .collect()
    }

    /// The edge ids a left-out bitset marks.
    fn ids(bits: &[u64]) -> Vec<u32> {
        set_bits(bits.iter().copied()).collect()
    }

    /// Engine left-out set for one cost vector, with a fresh engine.
    fn engine_left_out(g: &Graph, cost: &[u64]) -> Vec<u32> {
        let mut mst = RepeatedMst::new();
        mst.prepare(g, cost.iter().copied().max().unwrap_or(0));
        ids(mst.left_out(|e| cost[e as usize]))
    }

    #[test]
    fn triangle_mst() {
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]).unwrap();
        let cost = vec![5, 1, 3];
        let got = kruskal_mst(&g, &cost);
        assert_eq!(got, vec![1, 2]); // edges with costs 1 and 3
        assert_eq!(engine_left_out(&g, &cost), vec![0]);
    }

    #[test]
    fn disconnected_graph_gives_forest() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        assert_eq!(kruskal_mst(&g, &[7, 9]), vec![0, 1]);
        let mut mst = RepeatedMst::new();
        assert_eq!(mst.prepare(&g, 9), 2);
        let bits = mst.left_out(|e| [7, 9][e as usize]);
        assert_eq!(bits, [0], "a forest of bridges leaves nothing out");
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut mst = RepeatedMst::new();
        for trial in 0..30 {
            let n = rng.gen_range(2..120);
            let m = rng.gen_range(n - 1..4 * n);
            let g = gen::gnm_connected(n, m, 50, trial);
            assert_eq!(mst.prepare(&g, 999), 1);
            // Several cost vectors per preparation, as the packing uses it.
            for _ in 0..4 {
                let cost: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..1000)).collect();
                let want = kruskal_mst(&g, &cost);
                assert_eq!(want.len(), n - 1, "spanning tree size");
                let bits = mst.left_out(|e| cost[e as usize]);
                assert_eq!(bits.len(), g.m().div_ceil(64), "one bit per edge");
                assert_eq!(ids(bits), complement(&g, &want), "trial {trial}");
            }
        }
    }

    #[test]
    fn chains_and_bridges_of_a_cycle_with_pendant_path() {
        // Cycle 0-1-2-3 plus pendant path 3-4-5: one closed chain (the
        // cycle), two bridges, no kernel.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
            ],
        )
        .unwrap();
        let mut mst = RepeatedMst::new();
        assert_eq!(mst.prepare(&g, 10), 1);
        assert_eq!(mst.chain_ends, vec![[NONE, NONE]]);
        assert_eq!(mst.edge_chain[4..], [BRIDGE, BRIDGE]);
        let cost = [3, 9, 1, 2, 0, 0];
        assert_eq!(mst.left_out(|e| cost[e as usize]), [1 << 1]); // the cycle's max drops
    }

    #[test]
    fn rounds_price_each_chain_member_once_and_no_bridge() {
        // A theta graph on kernel vertices 0 and 3, the bridge 3-4 to the
        // pure cycle 4-5-6, and the pendant bridge 6-7.
        let g = Graph::from_edges(
            8,
            &[
                (0, 1, 1),
                (1, 3, 1),
                (0, 2, 1),
                (2, 3, 1),
                (0, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 4, 1),
                (6, 7, 1),
            ],
        )
        .unwrap();
        let non_bridge = vec![0, 1, 2, 3, 4, 6, 7, 8];
        let mut mst = RepeatedMst::new();
        assert_eq!(mst.prepare(&g, 100), 1);
        let marked: Vec<u32> = (0..g.m() as u32).filter(|&e| !mst.is_bridge(e)).collect();
        assert_eq!(marked, non_bridge);
        let mut rng = SmallRng::seed_from_u64(3);
        for round in 0..6 {
            let cost: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..100)).collect();
            let priced = std::cell::RefCell::new(Vec::new());
            let out = ids(mst.left_out(|e| {
                priced.borrow_mut().push(e);
                cost[e as usize]
            }));
            let mut priced = priced.into_inner();
            priced.sort_unstable();
            assert_eq!(priced, non_bridge, "round {round}");
            assert_eq!(out, complement(&g, &kruskal_mst(&g, &cost)));
        }
    }

    #[test]
    fn wide_keys_order_costs_beyond_32_bits() {
        // Theta graph: kernel vertices 0 and 3 joined by three paths.
        let g =
            Graph::from_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1), (0, 3, 1)]).unwrap();
        let big = 1u64 << 40;
        let cost = vec![big + 1, 5, big, big + 1, 7];
        let want = kruskal_mst(&g, &cost);
        assert_eq!(engine_left_out(&g, &cost), complement(&g, &want));
        // A narrow engine refuses costs beyond its bound instead of
        // misordering them.
        let mut mst = RepeatedMst::new();
        mst.prepare(&g, u64::from(u32::MAX));
        let caught = std::panic::catch_unwind(move || {
            mst.left_out(|e| cost[e as usize]);
        });
        assert!(caught.is_err());
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut tmp = Vec::new();
        for len in [0usize, 1, 63, 64, 65, 300, 2000] {
            let mut keys: Vec<u64> = (0..len)
                .map(|i| (rng.gen_range(0..1u64 << 30) << 32) | i as u64)
                .collect();
            let mut want = keys.clone();
            want.sort_unstable();
            radix_sort(&mut keys, &mut tmp);
            assert_eq!(keys, want, "len {len}");
        }
    }

    #[test]
    fn heap_bytes_track_prepared_graph() {
        let mut mst = RepeatedMst::new();
        assert_eq!(mst.heap_bytes(), 0);
        let g = gen::gnm_connected(50, 120, 3, 4);
        mst.prepare(&g, 100);
        let prepared = mst.heap_bytes();
        assert!(prepared > 0);
        let cost = |e: u32| u64::from(e % 7);
        mst.left_out(cost);
        let warm = mst.heap_bytes();
        mst.left_out(cost);
        assert_eq!(mst.heap_bytes(), warm, "rounds reuse the same buffers");
    }

    #[test]
    fn equal_costs_still_spanning() {
        let g = gen::gnm_connected(200, 600, 1, 3);
        let cost = vec![0u64; g.m()];
        let t = complement(&g, &engine_left_out(&g, &cost));
        assert_eq!(t.len(), 199);
        assert_eq!(t, kruskal_mst(&g, &cost));
        // Verify acyclic + spanning via union-find.
        let mut uf = UnionFind::new(200);
        for &eid in &t {
            let e = g.edges()[eid as usize];
            assert!(uf.union(e.u, e.v), "cycle in MST");
        }
        assert_eq!(uf.components(), 1);
    }

    #[test]
    fn single_vertex() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(kruskal_mst(&g, &[]).is_empty());
        assert!(engine_left_out(&g, &[]).is_empty());
    }
}
