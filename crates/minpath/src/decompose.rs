//! Tree decomposition into vertex-disjoint paths (paper §3.3).
//!
//! The bough decomposition repeatedly peels *boughs*: maximal paths that
//! start at a leaf and continue upwards until (and including) the first
//! vertex that has a sibling. Since every bough vertex has at most one
//! child, a vertex `v` lies in a bough **iff its subtree is a path** — this
//! characterization lets us mark all bough vertices of a phase with two
//! subtree aggregations (size and max depth) instead of a graph search.
//!
//! Properties (Lemma 7): the number of leaves at least halves per phase, so
//! there are at most `log₂ n` phases and every root-to-leaf path of `T`
//! intersects at most `log₂ n` decomposition paths.
//!
//! Strategies:
//! * [`Strategy::BoughWalk`] — mark bough vertices, then walk each bough
//!   from its top. The route the solver runs.
//! * [`Strategy::BoughRandomMate`] — identical output; chains are
//!   assembled by the paper's Lemma 8 contraction of random-mate
//!   independent edge sets (Las Vegas, `O(log n)` depth per phase w.h.p.
//!   even for a single long bough). The low-depth reference.
//! * [`Strategy::HeavyLight`] — classic heavy-path decomposition. Also
//!   guarantees `≤ log₂ n` paths per root-to-leaf path; usable by the
//!   Minimum Path structures but **not** by the two-respect search (which
//!   needs bough semantics). Provided as an ablation point.

use pmc_graph::tree::{RootedTree, NO_PARENT};

/// Which decomposition algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Mark boughs via subtree statistics, walk each bough sequentially.
    BoughWalk,
    /// Same boughs; chains assembled by the paper's Lemma 8 Las Vegas
    /// procedure — repeated contraction of random-mate independent edge
    /// sets, with merged vertices keeping their original labels as linked
    /// lists. `O(n)` work and `O(log n)` depth per phase w.h.p.
    BoughRandomMate,
    /// Heavy-light decomposition (single phase).
    HeavyLight,
}

/// Sentinel for "no path" / "no parent".
pub const NONE: u32 = u32::MAX;

/// A decomposition of a rooted tree into vertex-disjoint downward paths.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Flat path storage: path `p` lists its vertices top-first (closest to
    /// the root at the front, as required by the Minimum Prefix list view)
    /// in `path_data[path_offsets[p] .. path_offsets[p + 1]]`. One
    /// contiguous buffer + a u32 offset array instead of a `Vec` per path —
    /// the decomposition is rebuilt per tree in the Lemma-13 loop, so its
    /// storage must not fragment.
    path_data: Vec<u32>,
    path_offsets: Vec<u32>,
    /// `path_of[v]`: index of the path containing `v`.
    path_of: Vec<u32>,
    /// `pos_in_path[v]`: position of `v` within its path (0 = top).
    pos_in_path: Vec<u32>,
    /// For each path: the tree parent of the path's top vertex
    /// ([`NONE`] if the path contains the root).
    parent_of_top: Vec<u32>,
    /// For each path: the bough phase in which it was peeled (0-based;
    /// heavy-light uses phase 0 for all paths).
    phase_of_path: Vec<u32>,
    /// Total number of phases.
    nphases: u32,
}

impl Decomposition {
    /// Decomposes `tree` with the given strategy.
    pub fn new(tree: &RootedTree, strategy: Strategy) -> Self {
        match strategy {
            Strategy::BoughWalk => bough_decomposition(tree, false),
            Strategy::BoughRandomMate => bough_decomposition(tree, true),
            Strategy::HeavyLight => heavy_light(tree),
        }
    }

    /// The vertices of path `p`, top-first.
    pub fn path(&self, p: u32) -> &[u32] {
        &self.path_data[self.slot_range(p)]
    }

    /// The slots of path `p`: the indices of its vertices in the flat path
    /// storage, so slot `slot_range(p).start + i` holds `path(p)[i]`. The
    /// slots of all paths tile `0..n`, which lets the batch engine bucket
    /// the prefix records of every path with one counting sort.
    pub fn slot_range(&self, p: u32) -> std::ops::Range<usize> {
        self.path_offsets[p as usize] as usize..self.path_offsets[p as usize + 1] as usize
    }

    /// Iterates over all paths (each top-first), in path-id order.
    pub fn paths_iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.path_offsets
            .windows(2)
            .map(move |w| &self.path_data[w[0] as usize..w[1] as usize])
    }

    /// Path index containing vertex `v`.
    pub fn path_of(&self, v: u32) -> u32 {
        self.path_of[v as usize]
    }

    /// Position of `v` within its path (0 = closest to root).
    pub fn pos_in_path(&self, v: u32) -> u32 {
        self.pos_in_path[v as usize]
    }

    /// Tree parent of path `p`'s top vertex, or [`NONE`].
    pub fn parent_of_top(&self, p: u32) -> u32 {
        self.parent_of_top[p as usize]
    }

    /// Bough phase in which path `p` was peeled.
    pub fn phase_of_path(&self, p: u32) -> u32 {
        self.phase_of_path[p as usize]
    }

    /// Number of peel phases.
    pub fn nphases(&self) -> u32 {
        self.nphases
    }

    /// Number of paths.
    pub fn npaths(&self) -> usize {
        self.path_offsets.len() - 1
    }

    /// Bytes of heap memory in active use by the decomposition arrays
    /// (`len`-based; all six arrays are u32).
    pub fn heap_bytes(&self) -> usize {
        (self.path_data.len()
            + self.path_offsets.len()
            + self.path_of.len()
            + self.pos_in_path.len()
            + self.parent_of_top.len()
            + self.phase_of_path.len())
            * std::mem::size_of::<u32>()
    }

    /// Number of decomposition paths intersected by the `v → root` path.
    /// Lemma 7 guarantees `≤ log₂ n` for the bough strategies.
    pub fn paths_on_root_path(&self, tree: &RootedTree, v: u32) -> usize {
        let mut count = 0;
        let mut cur = v;
        loop {
            count += 1;
            let p = self.path_of(cur);
            let top_parent = self.parent_of_top(p);
            if top_parent == NONE {
                debug_assert!(self.path(p).contains(&tree.root()));
                return count;
            }
            cur = top_parent;
        }
    }

    /// Validates structural invariants (used by tests and debug builds):
    /// paths are vertex-disjoint, cover all vertices, run strictly downward
    /// (each successive vertex is a child of the previous), and bookkeeping
    /// arrays agree with the path lists.
    pub fn validate(&self, tree: &RootedTree) {
        let n = tree.n();
        let mut seen = vec![false; n];
        for (pid, path) in self.paths_iter().enumerate() {
            assert!(!path.is_empty(), "path {pid} is empty");
            for (i, &v) in path.iter().enumerate() {
                assert!(!seen[v as usize], "vertex {v} in two paths");
                seen[v as usize] = true;
                assert_eq!(self.path_of(v), pid as u32);
                assert_eq!(self.pos_in_path(v) as usize, i);
                if i > 0 {
                    assert_eq!(
                        tree.parent(v),
                        path[i - 1],
                        "path {pid} not a downward tree path"
                    );
                }
            }
            let top = path[0];
            let expect = if top == tree.root() {
                NONE
            } else {
                tree.parent(top)
            };
            assert_eq!(self.parent_of_top(pid as u32), expect);
        }
        assert!(seen.iter().all(|&s| s), "decomposition misses vertices");
    }
}

/// Marks every vertex whose subtree is a path (equivalently: every vertex
/// that lies in a bough of the current phase).
fn mark_bough_vertices(
    alive_children: &[u32],
    parent: &[u32],
    order: &[u32],
    alive: &[bool],
) -> Vec<bool> {
    // subtree_is_path[v] = v has 0 alive children, or exactly 1 alive child
    // whose subtree is a path. Computed bottom-up over the BFS order.
    let n = parent.len();
    let mut path_below = vec![false; n];
    let mut single_child_path = vec![0u32; n]; // # children with path subtree
    for &v in order.iter().rev() {
        let v = v as usize;
        if !alive[v] {
            continue;
        }
        path_below[v] =
            alive_children[v] == 0 || (alive_children[v] == 1 && single_child_path[v] == 1);
        let p = parent[v];
        if p != NO_PARENT && path_below[v] {
            single_child_path[p as usize] += 1;
        }
    }
    path_below
}

/// Peels boughs phase by phase; `random_mate` picks how each phase's
/// marked chains are linearized (Lemma 8's contraction, or a walk down
/// from each top).
fn bough_decomposition(tree: &RootedTree, random_mate: bool) -> Decomposition {
    let n = tree.n();
    let parent = tree.parents();
    let order = tree.bfs_order();
    let mut alive = vec![true; n];
    let mut alive_children: Vec<u32> = (0..n as u32).map(|v| tree.child_count(v) as u32).collect();

    let mut path_of = vec![NONE; n];
    let mut pos_in_path = vec![0u32; n];
    // Flat path storage: every phase appends its boughs to one contiguous
    // buffer; the offset array closes each path as it is produced.
    let mut path_data: Vec<u32> = Vec::with_capacity(n);
    let mut path_offsets: Vec<u32> = vec![0];
    let mut parent_of_top: Vec<u32> = Vec::new();
    let mut phase_of_path: Vec<u32> = Vec::new();

    let mut remaining = n;
    let mut phase = 0u32;
    while remaining > 0 {
        let marked = mark_bough_vertices(&alive_children, parent, order, &alive);
        // Tops: marked vertices whose parent is unmarked/dead/absent.
        let tops: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                alive[v as usize]
                    && marked[v as usize]
                    && (parent[v as usize] == NO_PARENT
                        || !alive[parent[v as usize] as usize]
                        || !marked[parent[v as usize] as usize])
            })
            .collect();
        debug_assert!(!tops.is_empty(), "no boughs found in a non-empty tree");

        let phase_first_pid = path_offsets.len() - 1;
        if random_mate {
            boughs_by_contraction(
                tree,
                &alive,
                &marked,
                &tops,
                phase as u64,
                &mut path_data,
                &mut path_offsets,
            );
        } else {
            for &top in &tops {
                // Walk down the chain: every bough vertex has at most one
                // alive child, and that child is marked too.
                path_data.push(top);
                let mut cur = top;
                loop {
                    let next = tree
                        .children(cur)
                        .iter()
                        .copied()
                        .find(|&c| alive[c as usize]);
                    match next {
                        Some(c) => {
                            debug_assert!(marked[c as usize]);
                            path_data.push(c);
                            cur = c;
                        }
                        None => break,
                    }
                }
                path_offsets.push(path_data.len() as u32);
            }
        }

        // Bookkeeping for the paths added this phase, then peel them:
        // mark their vertices dead and fix alive child counts.
        for pid in phase_first_pid..path_offsets.len() - 1 {
            let (lo, hi) = (path_offsets[pid] as usize, path_offsets[pid + 1] as usize);
            for (i, &v) in path_data[lo..hi].iter().enumerate() {
                path_of[v as usize] = pid as u32;
                pos_in_path[v as usize] = i as u32;
                alive[v as usize] = false;
            }
            let top = path_data[lo];
            parent_of_top.push(if top == tree.root() {
                NONE
            } else {
                parent[top as usize]
            });
            phase_of_path.push(phase);
            remaining -= hi - lo;
            let tp = parent[top as usize];
            if tp != NO_PARENT {
                alive_children[tp as usize] -= 1;
            }
        }
        phase += 1;
        debug_assert!(
            phase as usize <= usize::BITS as usize + 1,
            "too many phases"
        );
    }

    Decomposition {
        path_data,
        path_offsets,
        path_of,
        pos_in_path,
        parent_of_top,
        phase_of_path,
        nphases: phase,
    }
}

/// Lemma 8's bough assembly: repeatedly contract a random-mate
/// independent set of chain edges, with each merged supernode keeping the
/// original labels as a linked list with head and tail pointers (the
/// paper's §3.3.1 procedure). Expected `O(n)` work, `O(log n)` rounds
/// w.h.p.; `seed` fixes the coins, so the output is deterministic (and the
/// boughs are the walk's whatever the coins).
fn boughs_by_contraction(
    tree: &RootedTree,
    alive: &[bool],
    marked: &[bool],
    tops: &[u32],
    seed: u64,
    path_data: &mut Vec<u32>,
    path_offsets: &mut Vec<u32>,
) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let n = tree.n();
    // Supernode state. The representative of a merged run is its topmost
    // vertex; label lists run top-to-bottom.
    let mut succ_label: Vec<u32> = vec![u32::MAX; n];
    let mut tail: Vec<u32> = (0..n as u32).collect();
    // Chain successor (the only alive child), per supernode.
    let mut next: Vec<u32> = (0..n)
        .map(|v| {
            if !alive[v] || !marked[v] {
                return u32::MAX;
            }
            tree.children(v as u32)
                .iter()
                .copied()
                .find(|&c| alive[c as usize])
                .unwrap_or(u32::MAX)
        })
        .collect();
    let mut active: Vec<u32> = (0..n as u32)
        .filter(|&v| next[v as usize] != u32::MAX)
        .collect();
    let mut absorbed = vec![false; n];
    let mut rng = SmallRng::seed_from_u64(0xB0063 ^ seed);
    let mut rounds = 0usize;
    while !active.is_empty() {
        rounds += 1;
        // Guard: non-convergence is astronomically unlikely.
        assert!(
            rounds < 64 * usize::BITS as usize,
            "contraction failed to converge"
        );
        // HEADS absorbs its TAILS successor. This is an independent set: a
        // selected source is HEADS while a selected target is TAILS, so no
        // supernode participates in two contractions, and a chain's
        // unique-predecessor property rules out duplicate targets.
        let coins: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let selected: Vec<u32> = active
            .iter()
            .copied()
            .filter(|&u| coins[u as usize] && !coins[next[u as usize] as usize])
            .collect();
        for &u in &selected {
            let v = next[u as usize];
            absorbed[v as usize] = true;
            // Splice v's label list after u's (O(1): head/tail pointers).
            succ_label[tail[u as usize] as usize] = v;
            tail[u as usize] = tail[v as usize];
            next[u as usize] = next[v as usize];
        }
        active.retain(|&u| !absorbed[u as usize] && next[u as usize] != u32::MAX);
    }
    for &top in tops {
        let mut cur = top;
        while cur != u32::MAX {
            path_data.push(cur);
            cur = succ_label[cur as usize];
        }
        path_offsets.push(path_data.len() as u32);
    }
}

fn heavy_light(tree: &RootedTree) -> Decomposition {
    let n = tree.n();
    let size = tree.subtree_sizes();
    // Heavy child of v = child with the largest subtree (ties: first).
    let heavy: Vec<u32> = (0..n as u32)
        .map(|v| {
            tree.children(v)
                .iter()
                .copied()
                .max_by_key(|&c| size[c as usize])
                .unwrap_or(NONE)
        })
        .collect();
    // Path heads: root, plus every non-heavy child.
    let mut path_of = vec![NONE; n];
    let mut pos_in_path = vec![0u32; n];
    let mut path_data: Vec<u32> = Vec::with_capacity(n);
    let mut path_offsets: Vec<u32> = vec![0];
    let mut parent_of_top = Vec::new();
    let heads: Vec<u32> = (0..n as u32)
        .filter(|&v| v == tree.root() || heavy[tree.parent(v) as usize] != v)
        .collect();
    for head in heads {
        let pid = path_offsets.len() as u32 - 1;
        let start = path_data.len();
        let mut cur = head;
        loop {
            path_of[cur as usize] = pid;
            pos_in_path[cur as usize] = (path_data.len() - start) as u32;
            path_data.push(cur);
            match heavy[cur as usize] {
                NONE => break,
                c => cur = c,
            }
        }
        path_offsets.push(path_data.len() as u32);
        parent_of_top.push(if head == tree.root() {
            NONE
        } else {
            tree.parent(head)
        });
    }
    let npaths = path_offsets.len() - 1;
    Decomposition {
        path_data,
        path_offsets,
        path_of,
        pos_in_path,
        parent_of_top,
        phase_of_path: vec![0; npaths],
        nphases: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::gen;

    fn check_all(tree: &RootedTree) {
        let n = tree.n();
        let log2n = (usize::BITS - n.leading_zeros()) as usize;
        for strat in [
            Strategy::BoughWalk,
            Strategy::BoughRandomMate,
            Strategy::HeavyLight,
        ] {
            let d = Decomposition::new(tree, strat);
            d.validate(tree);
            for &leaf in &tree.leaves() {
                let k = d.paths_on_root_path(tree, leaf);
                assert!(
                    k <= log2n.max(1),
                    "{strat:?}: root-leaf path crosses {k} > log2({n}) paths"
                );
            }
        }
    }

    #[test]
    fn single_vertex() {
        let t = gen::path_tree(1);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        assert_eq!(d.npaths(), 1);
        assert_eq!(d.nphases(), 1);
        d.validate(&t);
    }

    #[test]
    fn heap_bytes_exact() {
        // Path of 3 vertices peels as one bough: path_data 3 +
        // path_offsets 2 + path_of 3 + pos_in_path 3 + parent_of_top 1 +
        // phase_of_path 1 = 13 u32 slots.
        let t = gen::path_tree(3);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        assert_eq!(d.heap_bytes(), 13 * 4);
    }

    #[test]
    fn path_is_one_bough() {
        let t = gen::path_tree(50);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        assert_eq!(d.npaths(), 1);
        assert_eq!(d.path(0).len(), 50);
        assert_eq!(d.path(0)[0], 0, "top-first ordering");
        assert_eq!(d.nphases(), 1);
        check_all(&t);
    }

    #[test]
    fn star_peels_in_two_phases() {
        let t = gen::star_tree(10);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        // Phase 0: 9 leaf boughs; phase 1: the root alone.
        assert_eq!(d.npaths(), 10);
        assert_eq!(d.nphases(), 2);
        check_all(&t);
    }

    #[test]
    fn example_tree_from_paper_fig11_shape() {
        // A tree with 4 boughs in the first phase, like Figure 11.
        //        0
        //       / \
        //      1   2
        //     /|   |
        //    3 4   5
        //    |
        //    6
        let t = RootedTree::from_parents(0, vec![NO_PARENT, 0, 0, 1, 1, 2, 3]);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        // Phase 0 boughs: [3,6], [4], [2,5] — wait: 2 has one child 5, and 2
        // has a sibling (1), so bough [2,5]; 1 is branching. Then phase 1:
        // tree is 0-1, a path: one bough [0,1].
        assert_eq!(d.nphases(), 2);
        let mut phase0: Vec<Vec<u32>> = (0..d.npaths())
            .filter(|&p| d.phase_of_path(p as u32) == 0)
            .map(|p| d.path(p as u32).to_vec())
            .collect();
        phase0.sort();
        assert_eq!(phase0, vec![vec![2, 5], vec![3, 6], vec![4]]);
        check_all(&t);
    }

    #[test]
    fn strategies_agree_on_boughs() {
        for seed in 0..10 {
            let t = gen::random_tree(200, seed);
            let a = Decomposition::new(&t, Strategy::BoughWalk);
            let mut pa: Vec<Vec<u32>> = a.paths_iter().map(|p| p.to_vec()).collect();
            pa.sort();
            let b = Decomposition::new(&t, Strategy::BoughRandomMate);
            let mut pb: Vec<Vec<u32>> = b.paths_iter().map(|p| p.to_vec()).collect();
            pb.sort();
            assert_eq!(pa, pb, "seed {seed}");
        }
    }

    #[test]
    fn random_trees_satisfy_lemma7() {
        for seed in 0..20 {
            let t = gen::random_tree(1000, seed);
            check_all(&t);
        }
    }

    #[test]
    fn adversarial_shapes() {
        check_all(&gen::caterpillar_tree(100, 2));
        check_all(&gen::balanced_binary_tree(255));
        check_all(&gen::broom_tree(50, 50));
        check_all(&gen::star_tree(1000));
        check_all(&gen::path_tree(1000));
    }

    #[test]
    fn caterpillar_phases() {
        // Caterpillar: legs peel in phase 0, spine becomes a path => 2 phases.
        let t = gen::caterpillar_tree(20, 3);
        let d = Decomposition::new(&t, Strategy::BoughWalk);
        assert_eq!(d.nphases(), 2);
    }

    use pmc_graph::tree::NO_PARENT;
    use pmc_graph::RootedTree;
}
