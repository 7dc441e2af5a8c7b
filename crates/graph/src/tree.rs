//! Rooted spanning trees.
//!
//! The two-respect search (§4) works on a rooted spanning tree `T` of the
//! input graph: every vertex except the root has a parent, `v↓` denotes the
//! descendant set of `v` (including `v`), and the algorithm repeatedly needs
//! child counts (bough detection), subtree aggregation (1-respecting cuts),
//! and ancestor tests (guard placement).

/// Sentinel parent of the root.
pub const NO_PARENT: u32 = u32::MAX;

/// A rooted tree over vertices `0..n` in parent-array + children-CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedTree {
    root: u32,
    parent: Vec<u32>,
    /// Children of `v` are `children[child_offsets[v]..child_offsets[v+1]]`
    /// (u32 offsets: the tree arrays are the densest-read state in the
    /// per-tree solve loop, so the CSR stays all-u32).
    child_offsets: Vec<u32>,
    children: Vec<u32>,
    /// Depth of each vertex (root has depth 0).
    depth: Vec<u32>,
    /// Vertices in a topological (BFS) order: every parent precedes its
    /// children. Used for top-down sweeps; reversed for bottom-up sweeps.
    bfs_order: Vec<u32>,
}

/// Reusable buffers for [`RootedTree::rebuild_from_undirected_edges`]: the
/// adjacency CSR of the incoming edge list and the BFS bookkeeping. One
/// scratch amortizes every tree construction a caller performs (the
/// per-tree loop of the top-level solver roots one spanning tree per
/// packed tree per solve).
#[derive(Clone, Debug, Default)]
pub struct TreeScratch {
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    visited: Vec<bool>,
    queue: Vec<u32>,
}

impl TreeScratch {
    /// Bytes of heap memory in active use by the scratch buffers
    /// (`len`-based, matching [`RootedTree::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        (self.adj_off.len() + self.adj.len() + self.queue.len()) * std::mem::size_of::<u32>()
            + self.visited.len() * std::mem::size_of::<bool>()
    }
}

impl RootedTree {
    /// Builds a rooted tree from a parent array (`parent[root] == NO_PARENT`).
    ///
    /// # Panics
    /// Panics if the parent array does not describe a tree rooted at `root`
    /// (wrong root sentinel, cycles, or out-of-range parents).
    pub fn from_parents(root: u32, parent: Vec<u32>) -> Self {
        let mut tree = RootedTree {
            root,
            parent,
            child_offsets: Vec::new(),
            children: Vec::new(),
            depth: Vec::new(),
            bfs_order: Vec::new(),
        };
        tree.populate_from_parents();
        tree
    }

    /// Re-derives the CSR/depth/BFS structures from `self.root` and
    /// `self.parent`, reusing every buffer in place. This is the single
    /// construction routine behind [`RootedTree::from_parents`] and the
    /// `rebuild_*` entry points, so all of them produce identical trees.
    fn populate_from_parents(&mut self) {
        let n = self.parent.len();
        let root = self.root;
        assert!((root as usize) < n, "root out of range");
        assert_eq!(
            self.parent[root as usize], NO_PARENT,
            "root must have no parent"
        );
        // Child counts, then an exclusive scan into CSR offsets.
        self.child_offsets.clear();
        self.child_offsets.resize(n + 1, 0);
        for (v, &p) in self.parent.iter().enumerate() {
            if v as u32 == root {
                continue;
            }
            assert!(
                p != NO_PARENT && (p as usize) < n,
                "vertex {v} has invalid parent"
            );
            self.child_offsets[p as usize + 1] += 1;
        }
        for v in 0..n {
            self.child_offsets[v + 1] += self.child_offsets[v];
        }
        // Scatter children using the offsets themselves as cursors, then
        // shift the advanced offsets back one slot — no cursor allocation.
        self.children.clear();
        self.children.resize(n - 1, 0);
        for (v, &p) in self.parent.iter().enumerate() {
            if v as u32 != root {
                self.children[self.child_offsets[p as usize] as usize] = v as u32;
                self.child_offsets[p as usize] += 1;
            }
        }
        for v in (1..=n).rev() {
            self.child_offsets[v] = self.child_offsets[v - 1];
        }
        self.child_offsets[0] = 0;
        // BFS to get depths and a topological order; also validates
        // reachability (a cycle would leave vertices unvisited).
        self.depth.clear();
        self.depth.resize(n, u32::MAX);
        self.bfs_order.clear();
        self.depth[root as usize] = 0;
        self.bfs_order.push(root);
        let mut head = 0;
        while head < self.bfs_order.len() {
            let v = self.bfs_order[head];
            head += 1;
            let d = self.depth[v as usize] + 1;
            let (lo, hi) = (
                self.child_offsets[v as usize] as usize,
                self.child_offsets[v as usize + 1] as usize,
            );
            for i in lo..hi {
                let c = self.children[i];
                self.depth[c as usize] = d;
                self.bfs_order.push(c);
            }
        }
        assert_eq!(self.bfs_order.len(), n, "parent array contains a cycle");
    }

    /// Builds a rooted tree from an undirected edge list by BFS from `root`.
    ///
    /// # Panics
    /// Panics if the edges do not form a spanning tree of `0..n`.
    pub fn from_undirected_edges(n: usize, edges: &[(u32, u32)], root: u32) -> Self {
        let mut tree = RootedTree::from_parents(0, vec![NO_PARENT]);
        tree.rebuild_from_undirected_edges(n, edges, root, &mut TreeScratch::default());
        tree
    }

    /// [`RootedTree::from_undirected_edges`] in place: rebuilds `self` from
    /// the edge list, reusing both this tree's buffers and the adjacency /
    /// BFS buffers of `ws`. Produces a tree identical to the allocating
    /// constructor for the same input.
    ///
    /// # Panics
    /// Panics if the edges do not form a spanning tree of `0..n`.
    pub fn rebuild_from_undirected_edges(
        &mut self,
        n: usize,
        edges: &[(u32, u32)],
        root: u32,
        ws: &mut TreeScratch,
    ) {
        assert_eq!(
            edges.len(),
            n - 1,
            "a spanning tree on {n} vertices needs {} edges",
            n - 1
        );
        ws.adj_off.clear();
        ws.adj_off.resize(n + 1, 0);
        for &(u, v) in edges {
            ws.adj_off[u as usize + 1] += 1;
            ws.adj_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            ws.adj_off[i + 1] += ws.adj_off[i];
        }
        // Offsets double as cursors during the scatter, then shift back.
        ws.adj.clear();
        ws.adj.resize(2 * edges.len(), 0);
        for &(u, v) in edges {
            ws.adj[ws.adj_off[u as usize] as usize] = v;
            ws.adj_off[u as usize] += 1;
            ws.adj[ws.adj_off[v as usize] as usize] = u;
            ws.adj_off[v as usize] += 1;
        }
        for i in (1..=n).rev() {
            ws.adj_off[i] = ws.adj_off[i - 1];
        }
        ws.adj_off[0] = 0;

        self.parent.clear();
        self.parent.resize(n, NO_PARENT);
        ws.visited.clear();
        ws.visited.resize(n, false);
        ws.queue.clear();
        ws.visited[root as usize] = true;
        ws.queue.push(root);
        let mut head = 0;
        while head < ws.queue.len() {
            let v = ws.queue[head];
            head += 1;
            for &u in &ws.adj[ws.adj_off[v as usize] as usize..ws.adj_off[v as usize + 1] as usize]
            {
                if !ws.visited[u as usize] {
                    ws.visited[u as usize] = true;
                    self.parent[u as usize] = v;
                    ws.queue.push(u);
                }
            }
        }
        assert!(
            ws.visited.iter().all(|&x| x),
            "edge list does not span all vertices"
        );
        self.root = root;
        self.populate_from_parents();
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root vertex.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Parent of `v` ([`NO_PARENT`] for the root).
    pub fn parent(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    /// Full parent array.
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }

    /// Children of `v`.
    pub fn children(&self, v: u32) -> &[u32] {
        &self.children
            [self.child_offsets[v as usize] as usize..self.child_offsets[v as usize + 1] as usize]
    }

    /// Number of children of `v`.
    pub fn child_count(&self, v: u32) -> usize {
        (self.child_offsets[v as usize + 1] - self.child_offsets[v as usize]) as usize
    }

    /// Depth of `v` (root: 0).
    pub fn depth(&self, v: u32) -> u32 {
        self.depth[v as usize]
    }

    /// BFS (topological) order: parents before children.
    pub fn bfs_order(&self) -> &[u32] {
        &self.bfs_order
    }

    /// True if `v` is a leaf.
    pub fn is_leaf(&self, v: u32) -> bool {
        self.child_count(v) == 0
    }

    /// Bytes of heap memory in active use by the tree's arrays (parent,
    /// children CSR, depth, BFS order). `len`-based, so the figure is a
    /// deterministic function of `n`: `n + (n+1) + (n-1) + n + n = 5n`
    /// u32 slots, i.e. `20n` bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.parent.len()
            + self.child_offsets.len()
            + self.children.len()
            + self.depth.len()
            + self.bfs_order.len())
            * std::mem::size_of::<u32>()
    }

    /// The undirected tree edges as `(parent, child)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n() as u32)
            .filter(move |&v| v != self.root)
            .map(move |v| (self.parent[v as usize], v))
    }

    /// Aggregates a per-vertex value over every subtree, bottom-up:
    /// `out[v] = value[v] + Σ_{c child of v} out[c]`.
    ///
    /// One pass over the reversed BFS order, `O(n)`: the workspace's one
    /// subtree-sum routine. (The paper's `O(log n)`-depth route is a prefix
    /// sum over the Euler tour, see [`crate::euler`].)
    pub fn subtree_sums(&self, value: &[i64]) -> Vec<i64> {
        assert_eq!(value.len(), self.n());
        let mut out = value.to_vec();
        for &v in self.bfs_order.iter().rev() {
            let p = self.parent[v as usize];
            if p != NO_PARENT {
                out[p as usize] += out[v as usize];
            }
        }
        out
    }

    /// Subtree sizes (`|v↓|`, counting `v` itself).
    pub fn subtree_sizes(&self) -> Vec<u32> {
        self.subtree_sums(&vec![1i64; self.n()])
            .into_iter()
            .map(|x| x as u32)
            .collect()
    }

    /// Collects the vertices of `v↓` by an explicit traversal (`O(|v↓|)`).
    pub fn descendants(&self, v: u32) -> Vec<u32> {
        let mut out = vec![v];
        let mut head = 0;
        while head < out.len() {
            let x = out[head];
            head += 1;
            out.extend_from_slice(self.children(x));
        }
        out
    }

    /// Leaves of the tree, in vertex order.
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.n() as u32).filter(|&v| self.is_leaf(v)).collect()
    }
}

/// The trivial single-vertex tree — the cheapest valid placeholder for
/// arenas that rebuild a real tree in place before first use.
impl Default for RootedTree {
    fn default() -> Self {
        RootedTree::from_parents(0, vec![NO_PARENT])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixed tree:
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///     /|    \
    ///    3 4     5
    ///    |
    ///    6
    /// ```
    fn sample() -> RootedTree {
        RootedTree::from_parents(0, vec![NO_PARENT, 0, 0, 1, 1, 2, 3])
    }

    #[test]
    fn heap_bytes_exact() {
        // 5n u32 slots: parent (n) + child_offsets (n + 1) + children
        // (n − 1) + depth (n) + bfs_order (n) = 20n bytes.
        let t = sample(); // n = 7
        assert_eq!(t.heap_bytes(), 20 * 7);
        let single = RootedTree::from_parents(0, vec![NO_PARENT]);
        assert_eq!(single.heap_bytes(), 20);
    }

    #[test]
    fn structure() {
        let t = sample();
        assert_eq!(t.n(), 7);
        assert_eq!(t.root(), 0);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.children(1), &[3, 4]);
        assert_eq!(t.child_count(3), 1);
        assert!(t.is_leaf(6) && t.is_leaf(4) && t.is_leaf(5));
        assert_eq!(t.depth(6), 3);
        assert_eq!(t.leaves(), vec![4, 5, 6]);
    }

    #[test]
    fn bfs_order_is_topological() {
        let t = sample();
        let pos: Vec<usize> = {
            let mut p = vec![0; t.n()];
            for (i, &v) in t.bfs_order().iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for (p, c) in t.edges() {
            assert!(pos[p as usize] < pos[c as usize]);
        }
    }

    #[test]
    fn subtree_sums_and_sizes() {
        let t = sample();
        assert_eq!(t.subtree_sizes(), vec![7, 4, 2, 2, 1, 1, 1]);
        let vals = vec![1i64, 2, 3, 4, 5, 6, 7];
        let sums = t.subtree_sums(&vals);
        assert_eq!(sums[6], 7);
        assert_eq!(sums[3], 11);
        assert_eq!(sums[1], 18);
        assert_eq!(sums[0], 28);
    }

    #[test]
    fn descendants_collects_subtree() {
        let t = sample();
        let mut d = t.descendants(1);
        d.sort_unstable();
        assert_eq!(d, vec![1, 3, 4, 6]);
    }

    #[test]
    fn from_undirected_edges_roundtrip() {
        let edges = vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6)];
        let t = RootedTree::from_undirected_edges(7, &edges, 0);
        assert_eq!(t.parent(6), 3);
        assert_eq!(t.parent(5), 2);
        assert_eq!(t.depth(6), 3);
    }

    #[test]
    fn rebuild_matches_allocating_constructor() {
        // One tree + one scratch reused across many shapes and sizes; every
        // rebuild must be structurally identical to a fresh construction.
        let mut tree = RootedTree::default();
        let mut ws = TreeScratch::default();
        type Shape = (usize, Vec<(u32, u32)>, u32);
        let shapes: Vec<Shape> = vec![
            (7, vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6)], 0),
            (4, vec![(3, 2), (2, 1), (1, 0)], 3),
            (1, vec![], 0),
            (5, vec![(0, 1), (0, 2), (0, 3), (0, 4)], 2),
            (6, vec![(5, 0), (4, 1), (0, 4), (1, 2), (2, 3)], 5),
        ];
        for (n, edges, root) in shapes {
            tree.rebuild_from_undirected_edges(n, &edges, root, &mut ws);
            let want = RootedTree::from_undirected_edges(n, &edges, root);
            assert_eq!(tree, want, "n={n} root={root}");
            assert_eq!(tree.bfs_order(), want.bfs_order());
        }
    }

    #[test]
    #[should_panic(expected = "does not span")]
    fn rebuild_rejects_non_spanning_edges() {
        let mut tree = RootedTree::default();
        let mut ws = TreeScratch::default();
        // 4 vertices, 3 edges, but vertex 3 is attached to nothing and
        // (0,1) appears twice.
        tree.rebuild_from_undirected_edges(4, &[(0, 1), (0, 1), (1, 2)], 0, &mut ws);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_cycle() {
        // 1 and 2 point at each other; unreachable from root 0.
        let _ = RootedTree::from_parents(0, vec![NO_PARENT, 2, 1]);
    }

    #[test]
    fn single_vertex_tree() {
        let t = RootedTree::from_parents(0, vec![NO_PARENT]);
        assert_eq!(t.n(), 1);
        assert!(t.is_leaf(0));
        assert_eq!(t.subtree_sizes(), vec![1]);
    }

    #[test]
    fn path_tree() {
        let n = 100;
        let mut parent = vec![NO_PARENT; n];
        for v in 1..n {
            parent[v] = (v - 1) as u32;
        }
        let t = RootedTree::from_parents(0, parent);
        assert_eq!(t.depth((n - 1) as u32), (n - 1) as u32);
        assert_eq!(t.leaves(), vec![(n - 1) as u32]);
    }
}
