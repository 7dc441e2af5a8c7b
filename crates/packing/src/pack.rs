//! Greedy tree packing with multiplicative loads (Lemma 1's engine).
//!
//! `pack_greedy_with` runs the Plotkin–Shmoys–Tardos-style loop: in each
//! round, compute an MST with respect to the per-edge load ratio
//! `ℓ_e / c_e` (load so far over sampled capacity) and increment the loads
//! of the chosen tree. After `R` rounds the multiset of chosen trees,
//! scaled by `1 / max_ratio`, is an approximately maximum fractional tree
//! packing; `R / max_ratio` estimates the packing value, which
//! Nash-Williams ties to the minimum cut (`c/2 ≤ packing ≤ c`).
//!
//! The loop stores no loads. [`PackScratch`] counts, per skeleton edge,
//! the rounds that left it out: the load is the rounds run minus that
//! count. A round prices the chain members the MST engine asks for, bumps
//! one counter per edge it leaves out, and keys its tree by the engine's
//! left-out bitset. Each distinct tree's edge list is built once, when the
//! run ends. Round 1 needs no engine: every load is 0, so every cost is 0,
//! and the unique MST under `(cost, skeleton edge id)` is Kruskal's forest
//! in skeleton-edge order, one union-find pass with no sort. That pass also
//! finds a disconnected skeleton. The engine is built only when a run
//! reaches round 2.
//!
//! `pack_trees` wraps the full Lemma 1 pipeline: exponential search for a
//! sampling rate whose skeleton has packing value `Θ(log n)`, a final
//! packing at that rate, and weighted sampling of `O(log n)` distinct
//! trees. Karger's theorem guarantees that w.h.p. at least one selected
//! tree crosses a minimum cut of the *original* graph at most twice.
//!
//! The final run also proves a lower bound on the minimum cut `λ` of the
//! graph it packed. Scaled by `1 / max_ratio`, its `R` trees form a
//! fractional packing of spanning trees of value `P = R / max_ratio` in
//! which no edge carries more than its multiplicity. A multiplicity never
//! exceeds its edge's weight: [`full_skeleton`] caps it at `u32::MAX`, and
//! a sampled one is `⌊wp⌋ + Bernoulli(frac(wp)) ≤ w` for `p ≤ 1`. So the
//! packing fits inside the graph's own weights. Every spanning tree
//! crosses every cut, so every cut weighs at least `P` (the easy half of
//! Nash-Williams–Tutte duality), and with integer weights `λ ≥ ⌈P⌉`,
//! computed in integers from the run's counters, never from the f64
//! [`TreePacking::packing_value`]. A capped or sampled multiplicity only
//! weakens it; in practice it can meet `λ` only at `p = 1`.
//!
//! **The floor.** A run on the full skeleton holds a second lower bound,
//! `B = min(lightest bridge, w₁ + w₂)` for the two lightest edge weights
//! `w₁ ≤ w₂` of the packed graph. A cut of a connected graph crosses at
//! least one edge. If it crosses exactly one, that edge is a bridge, so
//! the cut weighs at least the lightest bridge. Otherwise it crosses two
//! distinct edges and weighs at least `w₁ + w₂`. Parallel copies count as
//! distinct edges, and a parallel edge is never a bridge. So `λ ≥ B`. The
//! first certificate check of a [`pack_trees_with`] call reads `B` off its
//! own tree and cuts, and every later run of the call on the full skeleton
//! reuses it. Every bridge lies in every spanning tree, and the tree edge
//! `(c, parent(c))` is a bridge iff no other edge crosses `c↓`: since
//! weights are positive, iff its 1-respecting cut equals its weight. The
//! weights are the graph's own, not the capped multiplicities, so `B`
//! stays exact where `⌈P⌉` is capped. It closes the gap the packing
//! leaves on cycle-like graphs: a cycle packs at most 1 against `λ = 2`
//! (Nash-Williams–Tutte; Karger, *Minimum cuts in near-linear time*, JACM
//! 2000), and its floor is 2. [`TreePacking::cut_lower_bound`] is
//! `max(⌈P⌉, B)` for a packing of the full skeleton and `⌈P⌉` for a
//! sampled one, whose skeleton's bridges are not the graph's.
//!
//! **The certified stop.** Both bounds hold after any prefix of a run:
//! the first `r` rounds form a packing of value `P_r`, so
//! `λ ≥ max(⌈P_r⌉, B)`. Every tree edge's cut is a cut of the graph, so
//! the lightest 1-respecting cut `c` of any round's tree is at least `λ`.
//! When `c = max(⌈P_r⌉, B)`, the bounds meet: `λ = c` is proven, and that
//! tree crosses a minimum cut once. [`pack_trees_with`] checks this on the
//! checkpoint round's own tree at rounds 1, 2, 4, 8, … and at the run's
//! last round. A check roots the tree at vertex 0 in an arena
//! [`PackScratch`] keeps, and takes its 1-respecting cuts in one Lemma 11
//! pass (`O(m α(n) + n)` work, Tarjan's offline LCAs), the pass the first
//! check also reads `B` from. When it holds, the run stops and returns
//! that one tree, and the cut it certified:
//! [`TreePacking::certified`] holds `λ` and its side `v↓`, for the vertex
//! `v` that [`best_one_respect`] picks. A caller answers with that cut and
//! sweeps no tree. A bridge is a cut by itself, so it weighs at least `λ`,
//! and two edges weigh at least 2, so `B ≥ min(λ, 2)`. A graph with
//! `λ ≤ 2` therefore has `B = λ` and certifies at round 1 whenever its
//! first tree crosses a minimum cut once: always when `λ = 1`, whose
//! minimum cut is a bridge every tree holds. Such a packing does round-1
//! work only: one union-find pass, one rooting and one Lemma 11 pass, with
//! no skeleton subgraph and no MST engine. A check draws no randomness
//! and changes no counter, so a run it does not stop, and the whole
//! packing when none holds, is bit-identical to a run without checks.
//!
//! Only runs on the full skeleton (`p = 1`, the estimation run when the
//! rate search reaches it, or the final run) check. A sampled run's `⌈P⌉`
//! bounds the sample's cuts, measured in sampled units, not the graph's
//! `λ`. When an estimation run and the final run both pack the full
//! skeleton, their first rounds are the same rounds, so the final run
//! skips every check the estimation run already made, and inherits `B`
//! from its first. A final run of 2 rounds after an estimation run of 4
//! makes no check at all. An `R`-round run pays at most `⌊log₂ R⌋ + 2`
//! checks.
//!
//! **Starved runs.** E8 (`success_rate`) starves the packing to 1, 2 or 8
//! rounds on planted bisections to measure the raw Monte Carlo engine, so
//! none of its runs checks a round past 8. No such check can hold, so
//! those runs are bit-identical to runs without checks:
//! - the planted cut is 55 (5 cross edges of weight 11), and every other
//!   cut is heavier;
//! - the floor is at most 22, since the cross edges weigh 11 (22 on the
//!   input, which has no bridges; the NI certificate graph keeps the cross
//!   edges whole, since it keeps the planted cut's value);
//! - every tree crosses the planted cut, so after `r` rounds some cross
//!   edge lies in at least `⌈r/5⌉` of them, and
//!   `⌈P_r⌉ ≤ 11r/⌈r/5⌉ ≤ 44` at every check round `r ≤ 8`.
//!
//! So the bound stays at most 44, below every cut of 55 or more.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pmc_graph::{best_one_respect, one_respect_cuts, Edge, Graph, RootedTree};

use crate::mst::{set_bits, FirstForest, RepeatedMst};
use crate::skeleton::{full_skeleton, sample_skeleton, Skeleton};

/// Fixed-point shift for load-ratio MST keys.
const RATIO_SHIFT: u32 = 20;

/// Configuration for [`pack_trees`]. `Default` picks the paper's
/// asymptotics with practical constants.
#[derive(Clone, Debug)]
pub struct PackingConfig {
    /// RNG seed (the packing is deterministic given the seed).
    pub seed: u64,
    /// Number of distinct trees to select; `0` = `3·⌈log₂ n⌉ + 3`.
    pub trees_wanted: usize,
    /// Packing rounds for the final packing; `0` = `3·⌈log₂ n⌉²`, clamped
    /// to `[32, 2048]`.
    pub packing_rounds: usize,
    /// Packing rounds used while searching for the sampling rate;
    /// `0` = `4·⌈log₂ n⌉`, clamped to `[16, 256]`.
    pub estimation_rounds: usize,
    /// Target packing value of the skeleton, as a multiple of `ln n`;
    /// default 12 (Karger's analysis wants `Θ(log n)` with a healthy
    /// constant).
    pub target_factor: f64,
    /// Skip sampling and pack the full graph (used by tests and by callers
    /// with tiny inputs where sampling buys nothing).
    pub force_full_skeleton: bool,
}

impl Default for PackingConfig {
    fn default() -> Self {
        PackingConfig {
            seed: 0x5eed_cafe,
            trees_wanted: 0,
            packing_rounds: 0,
            estimation_rounds: 0,
            target_factor: 12.0,
            force_full_skeleton: false,
        }
    }
}

/// Selected spanning trees stored as one flat CSR arena: tree `i` is the
/// sorted original-graph edge-id slice
/// `edge_ids[offsets[i] .. offsets[i + 1]]`. One contiguous buffer instead
/// of a `Vec` per tree; iteration yields `&[u32]` slices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedTreeList {
    edge_ids: Vec<u32>,
    offsets: Vec<u32>,
}

impl PackedTreeList {
    /// A list with no trees — the pinned-packing placeholder for graphs
    /// the solver shortcuts around packing (disconnected, `n <= 2`).
    pub fn empty() -> Self {
        PackedTreeList {
            edge_ids: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Number of selected trees.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no trees were selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the trees as sorted edge-id slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.edge_ids[w[0] as usize..w[1] as usize])
    }

    /// Bytes of heap memory in active use (`len`-based; both arrays u32).
    pub fn heap_bytes(&self) -> usize {
        (self.edge_ids.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }

    /// Whether tree `i` contains original-graph edge `eid` — binary search
    /// over the tree's sorted edge-id slice. The dynamic re-solve path
    /// asks this for every removal: deleting a pinned tree edge breaks
    /// that tree's spanning property, forcing a re-pack.
    pub fn tree_contains(&self, i: usize, eid: u32) -> bool {
        self[i].binary_search(&eid).is_ok()
    }

    /// Whether any tree contains original-graph edge `eid`.
    pub fn any_tree_contains(&self, eid: u32) -> bool {
        (0..self.len()).any(|i| self.tree_contains(i, eid))
    }

    /// Rewrites every occurrence of edge id `from` to `to`, restoring each
    /// tree's sorted order. This is the `swap_remove` fix-up: when
    /// `Graph::remove_edge` moves the last edge into the freed slot,
    /// pinned packings stay consistent by remapping exactly that one id.
    /// Returns the number of trees that referenced `from`.
    pub fn remap_edge_id(&mut self, from: u32, to: u32) -> usize {
        if from == to {
            return 0;
        }
        let mut touched = 0;
        for w in self.offsets.windows(2) {
            let slice = &mut self.edge_ids[w[0] as usize..w[1] as usize];
            if let Ok(pos) = slice.binary_search(&from) {
                slice[pos] = to;
                slice.sort_unstable();
                touched += 1;
            }
        }
        touched
    }
}

impl std::ops::Index<usize> for PackedTreeList {
    type Output = [u32];
    fn index(&self, i: usize) -> &[u32] {
        &self.edge_ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl<'a> IntoIterator for &'a PackedTreeList {
    type Item = &'a [u32];
    type IntoIter = PackedTreeIter<'a>;
    fn into_iter(self) -> PackedTreeIter<'a> {
        PackedTreeIter { list: self, i: 0 }
    }
}

/// Iterator over the trees of a [`PackedTreeList`].
pub struct PackedTreeIter<'a> {
    list: &'a PackedTreeList,
    i: usize,
}

impl<'a> Iterator for PackedTreeIter<'a> {
    type Item = &'a [u32];
    fn next(&mut self) -> Option<&'a [u32]> {
        if self.i < self.list.len() {
            let s = &self.list[self.i];
            self.i += 1;
            Some(s)
        } else {
            None
        }
    }
}

/// The minimum cut a certified packing proved (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifiedCut {
    /// Its value: `λ`, the packing's [`TreePacking::cut_lower_bound`].
    pub value: u64,
    /// Its side `v↓`: with the certifying tree rooted at vertex 0, the
    /// descendants of the vertex `v` that [`best_one_respect`] returns.
    /// The full 2-respect search of that tree returns the same cut: it
    /// starts from this candidate and replaces it only with a strictly
    /// smaller one, and no cut is below `λ`.
    pub side: Vec<bool>,
}

/// Result of the packing pipeline.
#[derive(Clone, Debug)]
pub struct TreePacking {
    /// Selected spanning trees (flat arena; each a sorted list of edge ids
    /// of the original graph). A certified packing holds exactly one: the
    /// tree that certified it.
    pub trees: PackedTreeList,
    /// Packing multiplicity of each selected tree (how many greedy rounds
    /// produced exactly this tree).
    pub tree_weights: Vec<u32>,
    /// Sampling rate of the accepted skeleton (1 for a certified packing).
    pub skeleton_p: f64,
    /// Estimated packing value of the accepted skeleton, after the rounds
    /// run. A run stopped early reports the value of its prefix: one
    /// certified at round 1 reports its one tree's lightest multiplicity,
    /// which can sit far below `λ / 2`.
    pub packing_value: f64,
    /// A proven lower bound on the packed graph's minimum cut, computed
    /// exactly (see the module docs): `max(⌈P⌉, B)` for the packing's value
    /// `P` and the floor `B` on the full skeleton, `⌈P⌉` on a sampled one.
    /// For a certified packing it is the minimum cut `λ` itself, also when
    /// `⌈P⌉` is far below it.
    pub cut_lower_bound: u64,
    /// Number of greedy rounds the packing ran: the final run's budget, or,
    /// for a certified packing, the rounds of the run that certified it up
    /// to its certifying round (1, 2, 4, 8, … or that run's last round; a
    /// graph with `λ ≤ 2` often certifies at round 1).
    pub rounds: usize,
    /// Number of distinct trees the packing's run produced (up to the
    /// certifying round for a certified packing).
    pub distinct_trees: usize,
    /// The cut that proved `λ = cut_lower_bound`, when a run on the full
    /// skeleton found `max(⌈P⌉, B)` equal to the lightest 1-respecting cut
    /// of one of its trees; that tree is then the only one kept. `None` when
    /// no check held.
    pub certified: Option<CertifiedCut>,
}

/// Distinct packed trees (each a sorted skeleton-edge-id list) with their
/// greedy multiplicities.
pub type PackedTrees = Vec<(Vec<u32>, u32)>;

/// Reusable state of the greedy packing loop ([`pack_greedy_with`],
/// [`pack_trees_with`]): the union-find and bitset of the first round's
/// pass, the skeleton-subgraph arena and the repeated-MST engine of the
/// later rounds, two per-skeleton-edge counters, the distinct trees keyed
/// by their left-out bitsets, and the arena the certificate checks root
/// their trees in. One scratch amortizes every packing a solver performs.
/// The subgraph and the engine are built only by a run that reaches its
/// second round, so a packing certified at round 1 leaves them as they
/// were.
///
/// An edge's load is never stored: it is the number of rounds run so far
/// minus the number of rounds that left the edge out.
#[derive(Clone, Debug)]
pub struct PackScratch {
    /// Round 1's forest, found without the engine.
    first: FirstForest,
    sub: Graph,
    mst: RepeatedMst,
    /// Per skeleton edge: its multiplicity, the capacity its load is
    /// measured against.
    mult: Vec<u32>,
    /// Per skeleton edge: how many rounds left it out.
    left_out: Vec<u32>,
    /// Multiplicity of each distinct tree, keyed by the bitset of the
    /// skeleton edges it leaves out (`m / 8` bytes).
    trees: std::collections::HashMap<Vec<u64>, u32>,
    /// Where a certificate check roots its tree; made by the first check.
    root: Option<RootScratch>,
}

impl Default for PackScratch {
    fn default() -> Self {
        PackScratch {
            first: FirstForest::default(),
            sub: Graph::from_edges(1, &[]).expect("placeholder graph"),
            mst: RepeatedMst::new(),
            mult: Vec::new(),
            left_out: Vec::new(),
            trees: std::collections::HashMap::new(),
            root: None,
        }
    }
}

impl PackScratch {
    /// A fresh, empty scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap memory in active use by the scratch buffers
    /// (`len`-based; the distinct-tree map counts its bitset keys and
    /// multiplicities, not hash-table overhead).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.first.heap_bytes()
            + self.sub.heap_bytes()
            + self.mst.heap_bytes()
            + (self.mult.len() + self.left_out.len()) * size_of::<u32>()
            + self
                .trees
                .keys()
                .map(|k| k.len() * size_of::<u64>() + size_of::<u32>())
                .sum::<usize>()
            + self.root.as_ref().map_or(0, RootScratch::heap_bytes)
    }
}

/// One greedy packing run on a skeleton. Returns `(distinct trees with
/// multiplicities, packing value estimate)` or `None` if the skeleton does
/// not span the graph (caller should raise the sampling rate). All working
/// state is drawn from the reusable [`PackScratch`]; at steady state a
/// round allocates only for a tree it has not seen before, and each
/// distinct tree's edge list is built once, at the end.
///
/// Every round's tree is the unique minimum spanning tree under
/// `(load ratio, edge id)`. Round 1's loads are all 0, so its tree is
/// Kruskal's in skeleton-edge order: one union-find pass finds it and
/// detects a disconnected skeleton. When round 2 runs, the skeleton is
/// reduced once by [`RepeatedMst::prepare`], and each later round costs
/// one [`RepeatedMst::left_out`] over the kernel. Every round also costs
/// one counter update per left-out edge and one hash of the left-out
/// bitset.
pub fn pack_greedy_with(
    g: &Graph,
    sk: &Skeleton,
    rounds: usize,
    ws: &mut PackScratch,
) -> Option<(PackedTrees, f64)> {
    assert!(rounds > 0);
    if g.n() == 1 {
        return Some((vec![(Vec::new(), rounds as u32)], f64::INFINITY));
    }
    greedy_run(g, sk, rounds, None, ws)?;
    Some(drain_trees(ws, &sk.live_edges, rounds))
}

/// How a [`greedy_run`] ended.
enum RunEnd {
    /// Every round ran.
    Done,
    /// Round `rounds` certified its own tree, whose left-out bitset is
    /// `dropped`: `max(⌈P⌉, B)` of the rounds so far equals that tree's
    /// lightest 1-respecting cut, `cut` (see the module docs).
    Certified {
        rounds: usize,
        dropped: Vec<u64>,
        cut: CertifiedCut,
    },
}

/// Whether a run of `rounds` rounds on the full skeleton checks its
/// certificate after round `run`: at powers of two and at its last round.
fn is_check_round(run: usize, rounds: usize) -> bool {
    run.is_power_of_two() || run == rounds
}

/// What the certificate checks of one [`pack_trees_with`] call carry from
/// one run on the full skeleton to the next.
#[derive(Default)]
struct Checks {
    /// Rounds of the estimation run on the full skeleton, when one ran
    /// (0 before): a later run's first rounds repeat it, checks included.
    checked: usize,
    /// The floor `B`, from the call's first check.
    floor: Option<u64>,
}

impl Checks {
    /// Whether a run of `rounds` rounds checks after round `run`: at its
    /// check rounds that a run of `checked` rounds did not already check.
    fn due(&self, run: usize, rounds: usize) -> bool {
        is_check_round(run, rounds) && !(run <= self.checked && is_check_round(run, self.checked))
    }
}

/// The greedy loop of [`pack_greedy_with`] and [`pack_trees_with`]: up to
/// `rounds` rounds on the skeleton, their counters and distinct trees left
/// in `ws`. `None` if the skeleton does not span the graph. With
/// `checks = Some(_)`, the skeleton is the full one and the run checks its
/// certificate at the rounds [`Checks::due`] names, and stops at the first
/// that holds. A check reads the counters and the round's tree and draws
/// no randomness, so a run it does not stop is the same run as without it.
/// `g` has at least two vertices.
///
/// Round 1 is one union-find pass; the skeleton subgraph is built, and the
/// engine prepared on it, only when round 2 runs.
fn greedy_run(
    g: &Graph,
    sk: &Skeleton,
    rounds: usize,
    mut checks: Option<&mut Checks>,
    ws: &mut PackScratch,
) -> Option<RunEnd> {
    let n = g.n();
    // Skeleton edge i is original edge live_edges[i].
    let live = &sk.live_edges;
    if live.len() < n - 1 {
        return None;
    }
    let ends = live.iter().map(|&eid| {
        let e = g.edges()[eid as usize];
        (e.u, e.v)
    });
    let PackScratch {
        first,
        sub,
        mst,
        mult,
        left_out,
        trees,
        root,
    } = ws;
    mult.clear();
    mult.extend(live.iter().map(|&eid| sk.multiplicity[eid as usize]));
    left_out.clear();
    left_out.resize(live.len(), 0);
    trees.clear();
    for done in 0..rounds as u64 {
        let dropped = if done == 0 {
            // Every load is 0, so every cost is 0: the tree is Kruskal's
            // in skeleton-edge order.
            let (components, dropped) = first.left_out(n, ends.clone());
            if components != 1 {
                return None; // skeleton disconnected
            }
            dropped
        } else {
            if done == 1 {
                sub.rebuild_from_edges(n, ends.clone().map(|(u, v)| Edge::new(u, v, 1)))
                    .expect("skeleton subgraph is valid");
                // A load never exceeds `rounds` and a multiplicity is at
                // least 1, so no cost exceeds `rounds << RATIO_SHIFT`:
                // 64-bit MST keys below 4096 rounds, exact 128-bit keys
                // from there on.
                let max_cost = (rounds as u64).saturating_mul(1 << RATIO_SHIFT);
                let components = mst.prepare(sub, max_cost);
                debug_assert_eq!(components, 1, "round 1 found the skeleton connected");
            }
            // An edge's load is `done - left_out[e]`: the integer cost is
            // `(load << RATIO_SHIFT) / multiplicity`.
            mst.left_out(|e| {
                let e = e as usize;
                ((done - u64::from(left_out[e])) << RATIO_SHIFT) / u64::from(mult[e])
            })
        };
        let mut count = 0;
        for e in set_bits(dropped.iter().copied()) {
            left_out[e as usize] += 1;
            count += 1;
        }
        debug_assert_eq!(count + n, live.len() + 1, "not a spanning tree");
        // Only clone the bitset of a tree seen for the first time.
        if let Some(seen) = trees.get_mut(dropped) {
            *seen += 1;
        } else {
            trees.insert(dropped.to_vec(), 1);
        }
        let run = done as usize + 1;
        if let Some(checks) = checks.as_deref_mut().filter(|c| c.due(run, rounds)) {
            let bound = cut_lower_bound(run as u64, left_out, mult);
            let root = root.get_or_insert_with(RootScratch::default);
            if let Some(cut) = certified_cut(g, live, dropped, bound, &mut checks.floor, root) {
                return Some(RunEnd::Certified {
                    rounds: run,
                    dropped: dropped.to_vec(),
                    cut,
                });
            }
        }
    }
    Some(RunEnd::Done)
}

/// The floor `B = min(lightest bridge, w₁ + w₂)` of `g`, a lower bound on
/// `λ` (see the module docs), read off a spanning tree of `g` given by its
/// edge ids `tree_edges`, rooted as `tree`, and its 1-respecting cuts
/// `cut1`. Every bridge lies in every spanning tree, and the tree edge
/// `(c, parent(c))` is a bridge iff no other edge crosses `c↓`: since
/// weights are positive, iff `cut1[c]` is its weight.
fn floor_from_cuts(
    g: &Graph,
    tree_edges: impl Iterator<Item = u32>,
    tree: &RootedTree,
    cut1: &[i64],
) -> u64 {
    let mut bridge = u64::MAX;
    for eid in tree_edges {
        let e = g.edges()[eid as usize];
        let c = if tree.parent(e.u) == e.v { e.u } else { e.v };
        if u64::try_from(cut1[c as usize]) == Ok(e.w) {
            bridge = bridge.min(e.w);
        }
    }
    let (mut w1, mut w2) = (u64::MAX, u64::MAX);
    for e in g.edges() {
        if e.w < w1 {
            (w1, w2) = (e.w, w1);
        } else if e.w < w2 {
            w2 = e.w;
        }
    }
    bridge.min(w1.saturating_add(w2))
}

/// The lightest 1-respecting cut of the tree that leaves out the edges
/// `dropped` of the full skeleton `live`, rooted at vertex 0 in `root`,
/// when its value is `max(bound, B)`, for the floor `B`, which the call's
/// first check reads off its own cuts into `floor`. With `bound` a proven
/// lower bound on `λ`, that cut is a minimum cut and `λ = max(bound, B)`.
fn certified_cut(
    g: &Graph,
    live: &[u32],
    dropped: &[u64],
    bound: u64,
    floor: &mut Option<u64>,
    root: &mut RootScratch,
) -> Option<CertifiedCut> {
    let tree = root.rebuild(g, tree_edges(live, dropped), 0);
    let cuts = one_respect_cuts(g, tree);
    let floor = *floor
        .get_or_insert_with(|| floor_from_cuts(g, tree_edges(live, dropped), tree, &cuts.cut1));
    let bound = bound.max(floor);
    let (value, v) = best_one_respect(&cuts, tree)?;
    (u64::try_from(value) == Ok(bound)).then(|| {
        let mut side = vec![false; g.n()];
        for x in tree.descendants(v) {
            side[x as usize] = true;
        }
        CertifiedCut { value: bound, side }
    })
}

/// The original-graph edge ids of the tree that leaves out the skeleton
/// edges `dropped`: the complement of the bitset, mapped through `live`.
fn tree_edges<'a>(live: &'a [u32], dropped: &'a [u64]) -> impl Iterator<Item = u32> + 'a {
    let m = live.len() as u32;
    set_bits(dropped.iter().map(|w| !w))
        .take_while(move |&e| e < m)
        .map(move |e| live[e as usize])
}

/// `R / max_ratio` for a run of `rounds` rounds: loads only grow, so the
/// counters hold every edge's largest load ratio.
fn packing_value(rounds: usize, ws: &PackScratch) -> f64 {
    let max_ratio = ws
        .left_out
        .iter()
        .zip(ws.mult.iter())
        .map(|(&lo, &cap)| (rounds as u64 - u64::from(lo)) as f64 / f64::from(cap))
        .fold(0.0, f64::max);
    rounds as f64 / max_ratio.max(f64::MIN_POSITIVE)
}

/// The distinct trees of a finished run of `rounds` rounds, drained from
/// `ws`, with the run's packing value. Deterministic order (HashMap
/// iteration order is randomized): heaviest trees first, ties broken
/// lexicographically by edge ids.
fn drain_trees(ws: &mut PackScratch, live: &[u32], rounds: usize) -> (PackedTrees, f64) {
    let value = packing_value(rounds, ws);
    let mut list: PackedTrees = ws
        .trees
        .drain()
        .map(|(dropped, count)| {
            let mut tree: Vec<u32> = tree_edges(live, &dropped).collect();
            tree.sort_unstable();
            (tree, count)
        })
        .collect();
    list.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    (list, value)
}

/// The packing a certified run ends with: the one tree it certified, with
/// its multiplicity, the rounds run, the distinct trees seen, `λ` as its
/// lower bound, and the cut that proved it.
fn certified_packing(
    ws: &PackScratch,
    live: &[u32],
    rounds: usize,
    dropped: &[u64],
    cut: CertifiedCut,
) -> TreePacking {
    let mut edge_ids: Vec<u32> = tree_edges(live, dropped).collect();
    edge_ids.sort_unstable();
    let offsets = vec![0, edge_ids.len() as u32];
    TreePacking {
        trees: PackedTreeList { edge_ids, offsets },
        tree_weights: vec![ws.trees[dropped]],
        skeleton_p: 1.0,
        packing_value: packing_value(rounds, ws),
        cut_lower_bound: cut.value,
        rounds,
        distinct_trees: ws.trees.len(),
        certified: Some(cut),
    }
}

/// The full Lemma 1 pipeline. See module docs.
///
/// ```
/// use pmc_graph::gen;
/// use pmc_packing::{pack_trees, PackingConfig};
///
/// let g = gen::gnm_connected(64, 200, 8, 7);
/// let packing = pack_trees(&g, &PackingConfig::default());
/// assert!(!packing.trees.is_empty());
/// for tree in &packing.trees {
///     assert_eq!(tree.len(), g.n() - 1); // each is a spanning tree
/// }
/// ```
///
/// # Panics
/// Panics if `g` is disconnected (callers check connectivity first — a
/// disconnected graph has minimum cut 0 and needs no packing).
pub fn pack_trees(g: &Graph, cfg: &PackingConfig) -> TreePacking {
    pack_trees_with(g, cfg, &mut PackScratch::default())
}

/// [`pack_trees`] with the greedy-loop working state drawn from a reusable
/// [`PackScratch`]. Identical results for identical `(g, cfg)`. A run on
/// the full skeleton that certifies its answer stops there and returns its
/// one certifying tree (see the module docs).
pub fn pack_trees_with(g: &Graph, cfg: &PackingConfig, ws: &mut PackScratch) -> TreePacking {
    let n = g.n();
    assert!(n >= 2, "packing needs at least two vertices");
    let log2n = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
    let trees_wanted = if cfg.trees_wanted == 0 {
        3 * log2n + 3
    } else {
        cfg.trees_wanted
    };
    let final_rounds = if cfg.packing_rounds == 0 {
        (3 * log2n * log2n).clamp(32, 2048)
    } else {
        cfg.packing_rounds
    };
    let est_rounds = if cfg.estimation_rounds == 0 {
        (4 * log2n).clamp(16, 256)
    } else {
        cfg.estimation_rounds
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut checks = Checks::default();

    // --- Rate search -------------------------------------------------------
    let target = cfg.target_factor * (n.max(2) as f64).ln();
    let mut p: f64;
    let skeleton: Skeleton;
    if cfg.force_full_skeleton || g.total_weight() as f64 <= 4.0 * target {
        skeleton = full_skeleton(g);
    } else {
        // Initial guess: make the *upper bound* on the min cut (the minimum
        // weighted degree) sample down to the target.
        let dmin = g.min_weighted_degree().max(1) as f64;
        p = (target / dmin).min(1.0);
        let mut accepted: Option<Skeleton> = None;
        for _ in 0..64 {
            let sk = if p >= 1.0 {
                full_skeleton(g)
            } else {
                sample_skeleton(g, p, &mut rng)
            };
            // Only a run on the full skeleton bounds the graph's own λ.
            match greedy_run(g, &sk, est_rounds, (p >= 1.0).then_some(&mut checks), ws) {
                None => {
                    // Disconnected: not enough sampled edges.
                    if p >= 1.0 {
                        panic!("pack_trees requires a connected graph");
                    }
                    p = (p * 2.0).min(1.0);
                }
                Some(RunEnd::Certified {
                    rounds,
                    dropped,
                    cut,
                }) => {
                    return certified_packing(ws, &sk.live_edges, rounds, &dropped, cut);
                }
                Some(RunEnd::Done) => {
                    if p >= 1.0 {
                        checks.checked = est_rounds;
                    }
                    let value = packing_value(est_rounds, ws);
                    if value < target / 2.0 && p < 1.0 {
                        p = (p * 2.0).min(1.0);
                    } else if value > 4.0 * target && p > 1e-9 {
                        p /= 2.0;
                    } else {
                        accepted = Some(sk);
                        break;
                    }
                }
            }
        }
        skeleton = accepted.unwrap_or_else(|| full_skeleton(g));
    }

    // --- Final packing ------------------------------------------------------
    let live = &skeleton.live_edges;
    let full = skeleton.p >= 1.0;
    if let RunEnd::Certified {
        rounds,
        dropped,
        cut,
    } = greedy_run(g, &skeleton, final_rounds, full.then_some(&mut checks), ws)
        .expect("accepted skeleton must span the graph")
    {
        return certified_packing(ws, live, rounds, &dropped, cut);
    }
    // The first run on the full skeleton checked its round 1, so the floor
    // is known; it bounds the graph's λ, not a sampled skeleton's cuts.
    let floor = if full {
        checks
            .floor
            .expect("a run on the full skeleton checks round 1")
    } else {
        0
    };
    let (mut distinct, value) = drain_trees(ws, live, final_rounds);
    let distinct_trees = distinct.len();
    let cut_lower_bound = cut_lower_bound(final_rounds as u64, &ws.left_out, &ws.mult).max(floor);

    // --- Weighted selection without replacement -----------------------------
    // Draw trees proportionally to multiplicity until we have the requested
    // number of distinct trees (or exhaust the packing).
    let mut selected: Vec<(Vec<u32>, u32)> = Vec::new();
    while selected.len() < trees_wanted && !distinct.is_empty() {
        let total: u64 = distinct.iter().map(|(_, w)| *w as u64).sum();
        let mut draw = rng.gen_range(0..total);
        let mut idx = 0;
        for (i, (_, w)) in distinct.iter().enumerate() {
            if draw < *w as u64 {
                idx = i;
                break;
            }
            draw -= *w as u64;
        }
        selected.push(distinct.swap_remove(idx));
    }

    let mut trees = PackedTreeList {
        edge_ids: Vec::new(),
        offsets: vec![0],
    };
    let mut tree_weights = Vec::with_capacity(selected.len());
    for (edges, w) in selected {
        trees.edge_ids.extend_from_slice(&edges);
        trees.offsets.push(trees.edge_ids.len() as u32);
        tree_weights.push(w);
    }
    TreePacking {
        trees,
        tree_weights,
        skeleton_p: skeleton.p,
        packing_value: value,
        cut_lower_bound,
        rounds: final_rounds,
        distinct_trees,
        certified: None,
    }
}

/// `⌈P⌉` for a greedy run of `rounds` rounds with the given per-edge
/// left-out counters and multiplicities: `P = rounds / max(load / mult)`,
/// so `⌈P⌉ = ⌈rounds · mult / load⌉` at the edge of largest load ratio.
/// Ratios are compared by `u128` cross-multiplication, so the result is
/// exact. Every round loads `n - 1 ≥ 1` edges, so some load is positive.
fn cut_lower_bound(rounds: u64, left_out: &[u32], mult: &[u32]) -> u64 {
    // `(load, mult)` of the largest ratio so far; `(0, 1)` is ratio 0.
    let (load, cap) = left_out
        .iter()
        .zip(mult)
        .fold((0u64, 1u64), |(l, c), (&lo, &m)| {
            let (l2, c2) = (rounds - u64::from(lo), u64::from(m));
            if u128::from(l2) * u128::from(c) > u128::from(l) * u128::from(c2) {
                (l2, c2)
            } else {
                (l, c)
            }
        });
    assert!(load > 0, "a greedy run loads at least one edge");
    let bound = (u128::from(rounds) * u128::from(cap)).div_ceil(u128::from(load));
    u64::try_from(bound).unwrap_or(u64::MAX)
}

/// Roots a spanning tree given by graph edge ids at `root`.
pub fn rooted_tree_from_edges(g: &Graph, tree_edges: &[u32], root: u32) -> RootedTree {
    let pairs: Vec<(u32, u32)> = tree_edges
        .iter()
        .map(|&eid| {
            let e = g.edges()[eid as usize];
            (e.u, e.v)
        })
        .collect();
    RootedTree::from_undirected_edges(g.n(), &pairs, root)
}

/// Reusable arena for repeated tree rooting ([`rooted_tree_from_edges`]
/// performed in place): the endpoint staging buffer, the BFS/adjacency
/// scratch, and the [`RootedTree`] itself are all recycled across calls.
/// The per-tree loop of the top-level solver roots `Θ(log n)` trees per
/// solve; with this arena that costs zero steady-state allocations.
#[derive(Clone, Debug, Default)]
pub struct RootScratch {
    pairs: Vec<(u32, u32)>,
    build: pmc_graph::TreeScratch,
    tree: RootedTree,
}

impl RootScratch {
    /// A fresh, empty arena (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the internal tree from `tree_edges` (graph edge ids, in any
    /// order) rooted at `root`, producing a tree identical to
    /// [`rooted_tree_from_edges`]`(g, tree_edges, root)`.
    pub fn rebuild<'a>(
        &'a mut self,
        g: &Graph,
        tree_edges: impl IntoIterator<Item = impl std::borrow::Borrow<u32>>,
        root: u32,
    ) -> &'a RootedTree {
        self.pairs.clear();
        self.pairs.extend(tree_edges.into_iter().map(|eid| {
            let e = g.edges()[*eid.borrow() as usize];
            (e.u, e.v)
        }));
        self.tree
            .rebuild_from_undirected_edges(g.n(), &self.pairs, root, &mut self.build);
        &self.tree
    }

    /// The most recently rebuilt tree (the single-vertex placeholder before
    /// the first [`RootScratch::rebuild`]).
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Bytes of heap memory in active use by the arena (`len`-based),
    /// including the embedded tree and its rebuild scratch.
    pub fn heap_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<(u32, u32)>()
            + self.build.heap_bytes()
            + self.tree.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::kruskal_mst;
    use pmc_graph::gen;
    use pmc_graph::UnionFind;
    use rand::Rng;

    fn is_spanning_tree(g: &Graph, edges: &[u32]) -> bool {
        if edges.len() != g.n() - 1 {
            return false;
        }
        let mut uf = UnionFind::new(g.n());
        edges.iter().all(|&eid| {
            let e = g.edges()[eid as usize];
            uf.union(e.u, e.v)
        })
    }

    #[test]
    fn greedy_pack_produces_spanning_trees() {
        let g = gen::gnm_connected(60, 200, 10, 5);
        let sk = full_skeleton(&g);
        let (trees, value) = pack_greedy_with(&g, &sk, 50, &mut PackScratch::default()).unwrap();
        assert!(value > 0.0);
        for (t, mult) in &trees {
            assert!(*mult >= 1);
            assert!(is_spanning_tree(&g, t));
        }
        let total: u32 = trees.iter().map(|(_, m)| m).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn packing_value_tracks_min_cut_on_cycle() {
        // A cycle has min cut 2 and maximum tree packing value exactly 1
        // (n-1 of n edges per tree); the estimate must land within a
        // constant factor of 1.
        let g = gen::cycle_with_chords(40, 0, 0);
        let sk = full_skeleton(&g);
        let (_, value) = pack_greedy_with(&g, &sk, 200, &mut PackScratch::default()).unwrap();
        assert!(value <= 1.5 && value > 0.4, "value {value}");
    }

    #[test]
    fn packing_value_scales_with_connectivity() {
        // Doubling all weights doubles capacities and the packing value.
        let g1 = gen::gnm_connected(40, 160, 1, 6);
        let edges2: Vec<(u32, u32, u64)> = g1.edges().iter().map(|e| (e.u, e.v, e.w * 2)).collect();
        let g2 = Graph::from_edges(40, &edges2).unwrap();
        let (_, v1) =
            pack_greedy_with(&g1, &full_skeleton(&g1), 100, &mut PackScratch::default()).unwrap();
        let (_, v2) =
            pack_greedy_with(&g2, &full_skeleton(&g2), 100, &mut PackScratch::default()).unwrap();
        assert!(v2 > 1.5 * v1, "v1={v1} v2={v2}");
    }

    #[test]
    fn disconnected_skeleton_rejected() {
        let g = gen::gnm_connected(30, 60, 1, 7);
        // Empty skeleton: zero multiplicities.
        let sk = Skeleton {
            p: 0.001,
            multiplicity: vec![0; g.m()],
            live_edges: vec![],
            total_units: 0,
        };
        assert!(pack_greedy_with(&g, &sk, 10, &mut PackScratch::default()).is_none());
    }

    #[test]
    fn pack_trees_end_to_end() {
        let (g, _, _) = gen::planted_bisection(20, 20, 10, 3, 10, 8);
        let packing = pack_trees(&g, &PackingConfig::default());
        assert!(!packing.trees.is_empty());
        assert!(packing.trees.len() <= 3 * 6 + 3 + 1);
        for t in &packing.trees {
            assert!(is_spanning_tree(&g, t));
        }
        // Exact arena accounting: k spanning trees of n − 1 edge ids each,
        // plus k + 1 offsets, all u32.
        let k = packing.trees.len();
        assert_eq!(packing.trees.heap_bytes(), (k * (g.n() - 1) + k + 1) * 4);
    }

    #[test]
    fn pack_trees_finds_two_respecting_tree_on_planted_cut() {
        // The planted minimum cut must be 2-respected by some selected tree.
        let (g, _, side) = gen::planted_bisection(30, 30, 50, 3, 15, 9);
        let packing = pack_trees(&g, &PackingConfig::default());
        let two_respecting = packing.trees.iter().any(|t| {
            let crossing = t
                .iter()
                .filter(|&&eid| {
                    let e = g.edges()[eid as usize];
                    side[e.u as usize] != side[e.v as usize]
                })
                .count();
            crossing <= 2
        });
        assert!(
            two_respecting,
            "no selected tree 2-respects the planted cut"
        );
    }

    #[test]
    fn sampling_kicks_in_for_heavy_graphs() {
        let (g, _, _) = gen::planted_bisection(60, 60, 2000, 3, 30, 10);
        let packing = pack_trees(&g, &PackingConfig::default());
        assert!(
            packing.skeleton_p < 1.0,
            "heavy graph should be sampled, p = {}",
            packing.skeleton_p
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::gnm_connected(40, 120, 30, 11);
        let a = pack_trees(&g, &PackingConfig::default());
        let b = pack_trees(&g, &PackingConfig::default());
        assert_eq!(a.trees, b.trees);
    }

    #[test]
    fn root_scratch_matches_allocating_rooting() {
        let mut arena = RootScratch::new();
        // One arena across several graphs and all their packed trees.
        for seed in [2u64, 7, 23] {
            let g = gen::gnm_connected(40, 120, 9, seed);
            let packing = pack_trees(&g, &PackingConfig::default());
            for te in &packing.trees {
                let want = rooted_tree_from_edges(&g, te, 0);
                let got = arena.rebuild(&g, te, 0);
                assert_eq!(got, &want, "seed {seed}");
                assert_eq!(arena.tree(), &want);
            }
        }
    }

    #[test]
    fn scratch_variant_is_identical_and_reusable() {
        let mut ws = PackScratch::new();
        // One scratch across several graphs: identical packings to the
        // allocating path every time.
        for seed in [3u64, 11, 19] {
            let g = gen::gnm_connected(36, 110, 12, seed);
            let want = pack_trees(&g, &PackingConfig::default());
            let got = pack_trees_with(&g, &PackingConfig::default(), &mut ws);
            assert_eq!(got.trees, want.trees, "seed {seed}");
            assert_eq!(got.tree_weights, want.tree_weights, "seed {seed}");
            assert_eq!(got.distinct_trees, want.distinct_trees, "seed {seed}");
        }
    }

    /// The greedy loop written plainly over the reference MST: a fresh
    /// skeleton subgraph, cost vector and Kruskal tree every round.
    fn reference_greedy(g: &Graph, sk: &Skeleton, rounds: usize) -> Option<(PackedTrees, f64)> {
        let live = &sk.live_edges;
        let mult = |se: usize| sk.multiplicity[live[se] as usize];
        let pairs: Vec<(u32, u32, u64)> = live
            .iter()
            .map(|&eid| (g.edges()[eid as usize].u, g.edges()[eid as usize].v, 1))
            .collect();
        let sub = Graph::from_edges(g.n(), &pairs).unwrap();
        let mut load = vec![0u64; live.len()];
        let mut trees = std::collections::BTreeMap::<Vec<u32>, u32>::new();
        let mut max_ratio: f64 = 0.0;
        for _ in 0..rounds {
            let cost: Vec<u64> = (0..live.len())
                .map(|se| (load[se] << RATIO_SHIFT) / mult(se) as u64)
                .collect();
            let chosen = kruskal_mst(&sub, &cost);
            if chosen.len() != g.n() - 1 {
                return None;
            }
            for &se in &chosen {
                load[se as usize] += 1;
                max_ratio = max_ratio.max(load[se as usize] as f64 / mult(se as usize) as f64);
            }
            let mut orig: Vec<u32> = chosen.iter().map(|&se| live[se as usize]).collect();
            orig.sort_unstable();
            *trees.entry(orig).or_insert(0) += 1;
        }
        let mut list: PackedTrees = trees.into_iter().collect();
        list.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Some((list, rounds as f64 / max_ratio.max(f64::MIN_POSITIVE)))
    }

    /// Asserts `pack_greedy_with` equals [`reference_greedy`] bit for bit
    /// (trees, multiplicities, packing value) and returns whether the
    /// skeleton spanned.
    fn matches_reference(ws: &mut PackScratch, g: &Graph, sk: &Skeleton, rounds: usize) -> bool {
        let want = reference_greedy(g, sk, rounds);
        let got = pack_greedy_with(g, sk, rounds, ws);
        assert_eq!(got.as_ref().map(|p| &p.0), want.as_ref().map(|p| &p.0));
        let spanned = want.is_some();
        assert_eq!(got.map(|p| p.1.to_bits()), want.map(|p| p.1.to_bits()));
        spanned
    }

    #[test]
    fn greedy_packing_equals_reference_loop() {
        let mut ws = PackScratch::new();
        // A certificate-sparsified gnm with a weight-1 leaf: bridges,
        // chains and a small kernel, packed on the full skeleton and on
        // sampled ones (which may not span).
        let g = (0u64..)
            .map(|seed| gen::gnm_connected(256, 1024, 8, seed))
            .find(|g| g.min_weighted_degree() == 1)
            .unwrap();
        let cert = pmc_graph::mincut_certificate(&g)
            .expect("certificate shrinks")
            .graph;
        assert!(matches_reference(&mut ws, &cert, &full_skeleton(&cert), 60));
        let mut rng = SmallRng::seed_from_u64(4);
        for p in [0.9, 0.6] {
            let sampled = sample_skeleton(&cert, p, &mut rng);
            matches_reference(&mut ws, &cert, &sampled, 30);
        }
        // A small community ring: bridgeless, since the communities are
        // joined in a ring, so every edge lies on a chain.
        let (ring, _) = gen::community_ring(4, 12, 4, 3);
        assert!(matches_reference(&mut ws, &ring, &full_skeleton(&ring), 80));
        // A weighted complete graph: far more left-out edges than tree
        // edges. Its live edges are listed in reverse, since `Skeleton`'s
        // fields are public: trees come out sorted whatever their order.
        let dense = gen::complete(24, 5, 2);
        let mut reversed = full_skeleton(&dense);
        reversed.live_edges.reverse();
        assert!(matches_reference(&mut ws, &dense, &reversed, 60));
        // More than 4096 rounds: costs pass 2^32 and keys go to u128.
        let small = gen::gnm_connected(12, 30, 3, 9);
        assert!(matches_reference(
            &mut ws,
            &small,
            &full_skeleton(&small),
            4100
        ));
    }

    /// The default packing on the full skeleton.
    fn full_packing(g: &Graph) -> TreePacking {
        let cfg = PackingConfig {
            force_full_skeleton: true,
            ..PackingConfig::default()
        };
        pack_trees(g, &cfg)
    }

    #[test]
    fn lower_bound_on_weighted_bridges_is_the_lightest_bridge() {
        // Two heavy triangles joined by a bridge of weight 3, plus a
        // pendant bridge of weight 4: every tree carries both bridges, so
        // P = 3 = λ.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1, 10),
                (1, 2, 10),
                (2, 0, 10),
                (3, 4, 10),
                (4, 5, 10),
                (5, 3, 10),
                (2, 3, 3),
                (5, 6, 4),
            ],
        )
        .unwrap();
        let packing = full_packing(&g);
        assert_eq!(packing.cut_lower_bound, 3);
        assert_eq!(packing.packing_value, 3.0);
    }

    /// The value `P` and `⌈P⌉` of a plain greedy run of `rounds` rounds on
    /// the full skeleton.
    fn plain_run(ws: &mut PackScratch, g: &Graph, rounds: usize) -> (f64, u64) {
        let (_, value) = pack_greedy_with(g, &full_skeleton(g), rounds, ws).unwrap();
        let bound = cut_lower_bound(rounds as u64, &ws.left_out, &ws.mult);
        (value, bound)
    }

    #[test]
    fn lower_bound_on_a_cycle_is_its_cut() {
        // Every tree of a unit cycle drops one edge, and the greedy run
        // drops the most loaded one. After R ≥ n rounds every edge was
        // dropped at least once, so each load is below R: P > 1, and
        // ⌈P⌉ = 2 = λ.
        let g = gen::cycle_with_chords(40, 0, 0);
        let (value, bound) = plain_run(&mut PackScratch::new(), &g, 64);
        assert!(value > 1.0, "{value}");
        assert_eq!(bound, 2);
        // The floor, w₁ + w₂ = 2, proves λ long before: the first tree is a
        // path, and cutting off its end costs 2.
        let packing = full_packing(&g);
        assert_eq!((packing.cut_lower_bound, packing.rounds), (2, 1));
        assert!(packing.certified.is_some());
    }

    #[test]
    fn capped_multiplicities_only_weaken_the_lower_bound() {
        let heavy = 1u64 << 38;
        let mut ws = PackScratch::new();
        // A bridge heavier than u32::MAX beside a light one: the light
        // bridge still sets the bound.
        let g = Graph::from_edges(3, &[(0, 1, heavy), (1, 2, 3)]).unwrap();
        assert_eq!(plain_run(&mut ws, &g, 32).1, 3);
        // A triangle of such edges has λ = 2^39, but each multiplicity is
        // capped at u32::MAX, so the packing is worth at most
        // 1.5 · u32::MAX: a sound bound, far below λ.
        let tri = Graph::from_edges(3, &[(0, 1, heavy), (1, 2, heavy), (2, 0, heavy)]).unwrap();
        let cap = u64::from(u32::MAX);
        let (_, bound) = plain_run(&mut ws, &tri, 32);
        assert!(bound >= cap && bound <= cap + cap / 2 + 1, "{bound}");
        assert!(bound < 2 * heavy);
        // The floor reads the true weights, so both packings prove λ
        // exactly, at round 1.
        for (g, lambda) in [(&g, 3), (&tri, 2 * heavy)] {
            let packing = full_packing(g);
            assert_eq!((packing.cut_lower_bound, packing.rounds), (lambda, 1));
            assert!(packing.certified.is_some());
        }
    }

    /// The floor from its definition: the lightest edge whose removal
    /// disconnects `g`, or the two lightest edges together.
    fn floor_by_definition(g: &Graph) -> u64 {
        let mut weights: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
        weights.sort_unstable();
        let pair = weights.get(1).map_or(u64::MAX, |w2| weights[0] + w2);
        let is_bridge = |b: usize| {
            let mut uf = UnionFind::new(g.n());
            for (e, edge) in g.edges().iter().enumerate() {
                if e != b {
                    uf.union(edge.u, edge.v);
                }
            }
            uf.components() > 1
        };
        (0..g.m())
            .filter(|&b| is_bridge(b))
            .map(|b| g.edges()[b].w)
            .fold(pair, u64::min)
    }

    /// A random multigraph with bridges and parallel copies: a gnm graph,
    /// a pendant path off it, a cycle joined to it by a bridge, and
    /// parallel copies of a few edges (a copied bridge is a bridge no
    /// more), weights 1–8.
    fn bridged_multigraph(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(8..24u32);
        let base = gen::gnm_connected(n as usize, 2 * n as usize, 8, seed);
        let mut edges: Vec<(u32, u32, u64)> =
            base.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        let mut next = n;
        let mut prev = rng.gen_range(0..n);
        for _ in 0..rng.gen_range(1..4) {
            edges.push((prev, next, rng.gen_range(1..=8)));
            (prev, next) = (next, next + 1);
        }
        let cycle = rng.gen_range(3..6);
        edges.push((rng.gen_range(0..n), next, rng.gen_range(1..=8)));
        for i in 0..cycle {
            edges.push((next + i, next + (i + 1) % cycle, rng.gen_range(1..=8)));
        }
        for _ in 0..rng.gen_range(0..4) {
            let (u, v, _) = edges[rng.gen_range(0..edges.len())];
            edges.push((u, v, rng.gen_range(1..=8)));
        }
        Graph::from_edges((next + cycle) as usize, &edges).unwrap()
    }

    #[test]
    fn floor_read_off_every_tree_is_the_floor() {
        let mut ws = PackScratch::new();
        // The bridge heavier than `u32::MAX` of
        // `capped_multiplicities_only_weaken_the_lower_bound`.
        let capped = Graph::from_edges(3, &[(0, 1, 1 << 38), (1, 2, 3)]).unwrap();
        let graphs = std::iter::once(capped).chain((0..24).map(bridged_multigraph));
        let (mut bridge_set, mut pair_set) = (0, 0);
        for (i, g) in graphs.enumerate() {
            let want = floor_by_definition(&g);
            let (run, _) = pack_greedy_with(&g, &full_skeleton(&g), 40, &mut ws).unwrap();
            for (tree, _) in &run {
                let rooted = rooted_tree_from_edges(&g, tree, 0);
                let cuts = one_respect_cuts(&g, &rooted);
                let floor = floor_from_cuts(&g, tree.iter().copied(), &rooted, &cuts.cut1);
                assert_eq!(floor, want, "graph {i}");
            }
            let mut weights: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
            weights.sort_unstable();
            if want < weights[0] + weights[1] {
                bridge_set += 1;
            } else {
                pair_set += 1;
            }
        }
        // Both terms of the floor decide some of the graphs.
        assert!(bridge_set > 0 && pair_set > 0, "{bridge_set} {pair_set}");
    }

    /// A graph of serve-mixed's shape: a cycle on 28–43 vertices plus
    /// chords up to `m = 1.5 n`, weights 1–6.
    fn serve_shaped(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(28..=43u32);
        let mut edges: Vec<(u32, u32, u64)> = (0..n)
            .map(|i| (i, (i + 1) % n, rng.gen_range(1..=6)))
            .collect();
        while edges.len() < (n + n / 2) as usize {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                edges.push((u, v, rng.gen_range(1..=6)));
            }
        }
        Graph::from_edges(n as usize, &edges).unwrap()
    }

    /// Asserts that `packing` is the run [`pack_greedy_with`] makes of its
    /// rounds on the full skeleton: the same value bits, distinct trees and
    /// bound (the run's `⌈P⌉` or the floor, whichever is larger), and each
    /// kept tree with its multiplicity among the run's trees. Returns the
    /// run's trees.
    fn assert_is_plain_run(ws: &mut PackScratch, g: &Graph, packing: &TreePacking) -> PackedTrees {
        let (run, value) = pack_greedy_with(g, &full_skeleton(g), packing.rounds, ws).unwrap();
        assert_eq!(packing.packing_value.to_bits(), value.to_bits());
        let bound = cut_lower_bound(packing.rounds as u64, &ws.left_out, &ws.mult);
        assert_eq!(packing.cut_lower_bound, bound.max(floor_by_definition(g)));
        assert_eq!(packing.distinct_trees, run.len());
        for (tree, &mult) in packing.trees.iter().zip(&packing.tree_weights) {
            assert!(run.contains(&(tree.to_vec(), mult)));
        }
        run
    }

    /// The default config with every distinct tree selected.
    fn select_all(seed: u64, force_full_skeleton: bool) -> PackingConfig {
        PackingConfig {
            seed,
            trees_wanted: usize::MAX,
            force_full_skeleton,
            ..PackingConfig::default()
        }
    }

    #[test]
    fn certified_packing_is_one_tree_at_its_lightest_one_respecting_cut() {
        let mut ws = PackScratch::new();
        let mut certified = 0;
        for seed in 0..40u64 {
            let g = serve_shaped(seed);
            let packing = pack_trees_with(&g, &select_all(seed, false), &mut ws);
            // Certified or not, the packing is a full-skeleton run stopped
            // after its rounds.
            assert_eq!(packing.skeleton_p, 1.0, "seed {seed}");
            let run = assert_is_plain_run(&mut ws, &g, &packing);
            if packing.certified.is_none() {
                assert_eq!(packing.trees.len(), run.len(), "seed {seed}");
                continue;
            }
            certified += 1;
            // A check round of the default estimation run (when the rate
            // search ran one) or of the default final run.
            let log2n = (usize::BITS - (g.n() - 1).leading_zeros()) as usize;
            let (est, last) = (4 * log2n, 3 * log2n * log2n);
            let rounds = packing.rounds;
            assert!(is_check_round(rounds, est) || rounds == last, "seed {seed}");
            assert_eq!(packing.trees.len(), 1, "seed {seed}");
            let tree = &packing.trees[0];
            assert!(is_spanning_tree(&g, tree), "seed {seed}");
            let rooted = rooted_tree_from_edges(&g, tree, 0);
            let (lightest, _) = best_one_respect(&one_respect_cuts(&g, &rooted), &rooted).unwrap();
            assert_eq!(lightest as u64, packing.cut_lower_bound, "seed {seed}");
        }
        assert_eq!(certified, 39);
    }

    #[test]
    fn certified_cut_is_the_lightest_one_respecting_side() {
        let mut ws = PackScratch::new();
        let mut certified = 0;
        for seed in 0..40u64 {
            let g = serve_shaped(seed);
            let packing = pack_trees_with(&g, &select_all(seed, false), &mut ws);
            let Some(cut) = &packing.certified else {
                continue;
            };
            certified += 1;
            let tree = rooted_tree_from_edges(&g, &packing.trees[0], 0);
            let (value, v) = best_one_respect(&one_respect_cuts(&g, &tree), &tree).unwrap();
            assert_eq!(cut.value, value as u64, "seed {seed}");
            assert_eq!(cut.value, packing.cut_lower_bound, "seed {seed}");
            // v↓: the vertices whose path to the root passes v.
            let below_v = |mut x: u32| loop {
                if x == v {
                    break true;
                }
                if x == tree.root() {
                    break false;
                }
                x = tree.parent(x);
            };
            let side: Vec<bool> = (0..g.n() as u32).map(below_v).collect();
            assert_eq!(cut.side, side, "seed {seed}");
            assert_eq!(g.cut_value(&cut.side), cut.value, "seed {seed}");
        }
        assert_eq!(certified, 39);
    }

    #[test]
    fn check_arena_is_made_by_the_first_check_and_counted() {
        let mut ws = PackScratch::new();
        let g = serve_shaped(1);
        pack_greedy_with(&g, &full_skeleton(&g), 40, &mut ws).unwrap();
        assert!(ws.root.is_none(), "a plain greedy run checks nothing");
        pack_trees_with(&g, &select_all(1, false), &mut ws);
        // The rooted tree (20n bytes), its edge endpoints (8 bytes each)
        // and the BFS scratch: n + 1 offsets, 2(n − 1) adjacency entries
        // and n queue entries (u32), and n visited flags.
        let n = g.n();
        let arena = 20 * n + 8 * (n - 1) + 4 * ((n + 1) + 2 * (n - 1) + n) + n;
        assert_eq!(ws.root.as_ref().map(RootScratch::heap_bytes), Some(arena));
    }

    #[test]
    fn a_round_one_certificate_builds_no_engine() {
        let leaf = (0u64..)
            .map(|seed| gen::gnm_connected(256, 1024, 8, seed))
            .find(|g| g.min_weighted_degree() == 1)
            .unwrap();
        for g in [gen::community_ring(32, 64, 4, 1).0, leaf] {
            let mut ws = PackScratch::new();
            let packing = pack_trees_with(&g, &PackingConfig::default(), &mut ws);
            assert!(packing.certified.is_some());
            assert_eq!(packing.rounds, 1);
            // No skeleton subgraph, no bridge or chain arrays: only the
            // first round's union-find (4n bytes) and bitset.
            assert_eq!(ws.sub.m(), 0);
            assert_eq!(ws.mst.heap_bytes(), 0);
            let first = 4 * g.n() + 8 * g.m().div_ceil(64);
            assert_eq!(ws.first.heap_bytes(), first);
        }
        let mut ws = PackScratch::new();
        let torus = gen::torus(6, 7);
        let packing = pack_trees_with(&torus, &PackingConfig::default(), &mut ws);
        assert!(packing.certified.is_none());
        assert_eq!(ws.sub.m(), torus.m());
        assert!(ws.mst.heap_bytes() > 0);
    }

    #[test]
    fn uncertified_full_skeleton_packing_is_a_plain_greedy_run() {
        // These pack at about λ / 2, so no check holds, and the packing is
        // the run `pack_greedy_with` makes: trees, multiplicities, value
        // bits and bound.
        let mut ws = PackScratch::new();
        for g in [
            gen::complete(24, 5, 2),
            gen::torus(6, 7),
            gen::hypercube(5),
            gen::random_regular(40, 4, 3),
            gen::wheel(30),
        ] {
            let packing = pack_trees_with(&g, &select_all(0, true), &mut ws);
            assert!(packing.certified.is_none());
            let run = assert_is_plain_run(&mut ws, &g, &packing);
            assert_eq!(packing.trees.len(), run.len());
        }
    }

    #[test]
    fn membership_and_remap_track_swap_removed_edge_ids() {
        // The dynamic-update invalidation contract: after
        // `Graph::remove_edge` swap_removes an id, a pinned packing stays
        // consistent iff (a) removals of pinned tree edges are detected
        // (spanning broken, re-pack forced) and (b) the moved id is
        // remapped so every surviving tree still names real edges.
        let mut g = gen::gnm_connected(24, 72, 6, 13);
        let packing = pack_trees(&g, &PackingConfig::default());
        let mut trees = packing.trees.clone();
        // Find a non-tree edge to remove (gnm 24/72 has 49 spare edges).
        let spare = (0..g.m() as u32)
            .find(|&eid| !trees.any_tree_contains(eid))
            .expect("a 72-edge graph has non-tree edges");
        assert!(!trees.tree_contains(0, spare));
        let moved = g.remove_edge(spare as usize).unwrap();
        if let Some(from) = moved {
            let before: Vec<usize> = (0..trees.len())
                .map(|i| usize::from(trees.tree_contains(i, from)))
                .collect();
            let touched = trees.remap_edge_id(from, spare);
            assert_eq!(touched, before.iter().sum::<usize>());
            assert!(!trees.any_tree_contains(from), "old id must be gone");
        }
        // Every tree still spans the mutated graph: ids valid, sorted,
        // acyclic, n - 1 edges.
        for t in &trees {
            assert!(t.windows(2).all(|w| w[0] < w[1]), "slice must stay sorted");
            assert!(is_spanning_tree(&g, t));
        }
        // Removing a pinned tree edge is detectable before the fact.
        let tree_edge = trees[0][0];
        assert!(trees.any_tree_contains(tree_edge));
        assert_eq!(trees.remap_edge_id(7, 7), 0, "identity remap is a no-op");
    }

    use pmc_graph::Graph;
}
