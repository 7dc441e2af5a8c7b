//! Undirected weighted multigraph.
//!
//! The paper's input model: `n` vertices, `m` edges, positive integral edge
//! weights (`w : E → N⁺`). Parallel edges are allowed everywhere — the
//! bough-phase contraction cascade explicitly keeps them ("it is not
//! necessary to combine parallel edges", §4.3) — and self-loops are rejected
//! at construction but silently dropped by contraction (a contracted
//! self-loop never crosses any cut).

/// Edge weight type. Weights are positive integers as in the paper; all cut
/// arithmetic is done in `i64` with headroom for the `±INF` guard values
/// used by the two-respect reduction, so the library requires the *total*
/// graph weight to stay below `2^40`.
pub type Weight = u64;

/// Hard bound on total graph weight enforced by [`Graph::from_edges`].
pub const MAX_TOTAL_WEIGHT: u64 = 1 << 40;

/// An undirected weighted edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// Positive weight.
    pub w: Weight,
}

impl Edge {
    /// Creates a new edge.
    pub fn new(u: u32, v: u32, w: Weight) -> Self {
        Edge { u, v, w }
    }

    /// Given one endpoint, returns the other.
    pub fn other(&self, x: u32) -> u32 {
        debug_assert!(x == self.u || x == self.v);
        if x == self.u {
            self.v
        } else {
            self.u
        }
    }
}

/// Errors raised by graph construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= n`.
    EndpointOutOfRange { edge_index: usize },
    /// An edge connects a vertex to itself.
    SelfLoop { edge_index: usize },
    /// An edge has zero weight (the paper requires `w : E → N⁺`).
    ZeroWeight { edge_index: usize },
    /// The total weight exceeds [`MAX_TOTAL_WEIGHT`].
    TotalWeightOverflow,
    /// The graph has no vertices.
    Empty,
    /// A mutation named an edge id `>= m`.
    EdgeIdOutOfRange { edge_id: usize },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { edge_index } => {
                write!(f, "edge {edge_index} has an endpoint out of range")
            }
            GraphError::SelfLoop { edge_index } => {
                write!(f, "edge {edge_index} is a self-loop")
            }
            GraphError::ZeroWeight { edge_index } => {
                write!(
                    f,
                    "edge {edge_index} has zero weight (weights must be positive)"
                )
            }
            GraphError::TotalWeightOverflow => {
                write!(f, "total edge weight exceeds 2^40")
            }
            GraphError::Empty => write!(f, "graph must have at least one vertex"),
            GraphError::EdgeIdOutOfRange { edge_id } => {
                write!(f, "edge id {edge_id} is out of range")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected weighted multigraph in edge-list + CSR adjacency form.
///
/// The CSR stores, for each vertex, the indices of its incident edges; an
/// edge appears in both endpoints' lists. This is the access pattern the
/// algorithm needs: bough walks enumerate "every edge incident to y".
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// CSR offsets (u32 — half the bytes of `usize` offsets, and the hot
    /// bough walks stream this array): incident edge ids of vertex `v` are
    /// `adj_edge_ids[adj_offsets[v]..adj_offsets[v + 1]]`.
    adj_offsets: Vec<u32>,
    adj_edge_ids: Vec<u32>,
    total_weight: u64,
    /// Cached weighted degree per vertex, filled at construction — hot
    /// loops (the Nagamochi–Ibaraki sweep, skeleton rate search) read
    /// degrees constantly and must not re-sum neighbor lists.
    degrees: Vec<u64>,
    min_degree: u64,
}

impl Graph {
    /// Builds a graph from `(u, v, w)` triples, validating endpoints,
    /// weights, and the total-weight budget.
    pub fn from_edges(n: usize, triples: &[(u32, u32, Weight)]) -> Result<Self, GraphError> {
        let edges: Vec<Edge> = triples
            .iter()
            .map(|&(u, v, w)| Edge::new(u, v, w))
            .collect();
        Self::from_edge_structs(n, edges)
    }

    /// Builds a graph from pre-constructed [`Edge`] values. The vector is
    /// installed directly (no copy).
    pub fn from_edge_structs(n: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        let mut g = Graph {
            n: 1,
            edges,
            adj_offsets: Vec::new(),
            adj_edge_ids: Vec::new(),
            total_weight: 0,
            degrees: Vec::new(),
            min_degree: 0,
        };
        g.reindex(n)?;
        Ok(g)
    }

    /// Rebuilds this graph in place from new content, reusing every
    /// internal buffer (edge list, CSR arrays, degree cache) — the
    /// zero-allocation counterpart of [`Graph::from_edge_structs`] for
    /// repeated-solve paths that recycle a `Graph` value as an output
    /// arena (contraction cascades, certificate sparsification).
    ///
    /// Validation is identical to construction. On `Err` the graph is left
    /// in an unspecified (but memory-safe) state and must be rebuilt again
    /// before use.
    pub fn rebuild_from_edges<I>(&mut self, n: usize, new_edges: I) -> Result<(), GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        self.edges.clear();
        self.edges.extend(new_edges);
        self.reindex(n)
    }

    /// Validates `self.edges` against `n` and rebuilds the derived state
    /// (CSR adjacency, total weight, degree cache) into the existing
    /// buffers. Shared by construction and in-place rebuild.
    fn reindex(&mut self, n: usize) -> Result<(), GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut total: u64 = 0;
        for (i, e) in self.edges.iter().enumerate() {
            if e.u as usize >= n || e.v as usize >= n {
                return Err(GraphError::EndpointOutOfRange { edge_index: i });
            }
            if e.u == e.v {
                return Err(GraphError::SelfLoop { edge_index: i });
            }
            if e.w == 0 {
                return Err(GraphError::ZeroWeight { edge_index: i });
            }
            total = total
                .checked_add(e.w)
                .ok_or(GraphError::TotalWeightOverflow)?;
        }
        if total > MAX_TOTAL_WEIGHT {
            return Err(GraphError::TotalWeightOverflow);
        }
        // The u32 CSR stores 2m entries and offsets up to 2m.
        assert!(
            self.edges.len() <= (u32::MAX / 2) as usize,
            "edge count exceeds u32 CSR capacity"
        );
        self.n = n;
        self.total_weight = total;
        build_csr_degrees_into(
            n,
            &self.edges,
            &mut self.adj_offsets,
            &mut self.adj_edge_ids,
            &mut self.degrees,
        );
        self.min_degree = self.degrees.iter().copied().min().unwrap_or(0);
        Ok(())
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (parallel edges counted individually).
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Edge ids incident to `v` (each parallel edge separately; an edge
    /// between `u` and `v` appears in both lists).
    pub fn incident_edge_ids(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.adj_edge_ids[self.adj_offsets[v] as usize..self.adj_offsets[v + 1] as usize]
    }

    /// Iterates `(neighbor, weight, edge_id)` for all edges incident to `v`.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, Weight, u32)> + '_ {
        self.incident_edge_ids(v).iter().map(move |&eid| {
            let e = &self.edges[eid as usize];
            (e.other(v), e.w, eid)
        })
    }

    /// Weighted degree of `v` — `O(1)`, served from the degree cache built
    /// at construction.
    pub fn weighted_degree(&self, v: u32) -> u64 {
        self.degrees[v as usize]
    }

    /// Weighted degrees of all vertices — the cached array, `O(1)`.
    pub fn weighted_degrees(&self) -> &[u64] {
        &self.degrees
    }

    /// The minimum weighted degree — a cheap upper bound on the minimum cut
    /// (used to seed the skeleton sampling-rate search). Cached; `O(1)`.
    pub fn min_weighted_degree(&self) -> u64 {
        self.min_degree
    }

    /// Bytes of heap memory in *active use* by this graph's buffers: edge
    /// list, CSR adjacency, and degree cache. Counts `len`, not `capacity`
    /// — the figure is a deterministic function of the graph shape, which
    /// is what byte-budgeted cache admission needs.
    pub fn heap_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
            + (self.adj_offsets.len() + self.adj_edge_ids.len()) * std::mem::size_of::<u32>()
            + self.degrees.len() * std::mem::size_of::<u64>()
    }

    /// Changes the weight of edge `eid` in place, returning the old
    /// weight. `O(1)` on the edge list and degree cache — the CSR stores
    /// edge *ids*, so adjacency is untouched; only the min-degree cache
    /// needs an `O(n)` re-scan. Validation matches construction (positive
    /// weight, total-weight budget); on `Err` the graph is unchanged.
    pub fn reweight_edge(&mut self, eid: usize, w: Weight) -> Result<Weight, GraphError> {
        let old = self
            .edges
            .get(eid)
            .ok_or(GraphError::EdgeIdOutOfRange { edge_id: eid })?
            .w;
        if w == 0 {
            return Err(GraphError::ZeroWeight { edge_index: eid });
        }
        let total = (self.total_weight - old)
            .checked_add(w)
            .ok_or(GraphError::TotalWeightOverflow)?;
        if total > MAX_TOTAL_WEIGHT {
            return Err(GraphError::TotalWeightOverflow);
        }
        let Edge { u, v, .. } = self.edges[eid];
        self.edges[eid].w = w;
        self.total_weight = total;
        self.degrees[u as usize] = self.degrees[u as usize] - old + w;
        self.degrees[v as usize] = self.degrees[v as usize] - old + w;
        self.min_degree = self.degrees.iter().copied().min().unwrap_or(0);
        Ok(old)
    }

    /// Appends a new edge, returning its id (always the new `m - 1`;
    /// existing edge ids are stable). Validation matches construction; on
    /// `Err` the graph is unchanged. Rebuilds the CSR adjacency and degree
    /// cache in place — `O(n + m)`.
    pub fn add_edge(&mut self, u: u32, v: u32, w: Weight) -> Result<u32, GraphError> {
        let edge_index = self.edges.len();
        if u as usize >= self.n || v as usize >= self.n {
            return Err(GraphError::EndpointOutOfRange { edge_index });
        }
        if u == v {
            return Err(GraphError::SelfLoop { edge_index });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { edge_index });
        }
        let total = self
            .total_weight
            .checked_add(w)
            .ok_or(GraphError::TotalWeightOverflow)?;
        if total > MAX_TOTAL_WEIGHT {
            return Err(GraphError::TotalWeightOverflow);
        }
        assert!(
            edge_index < (u32::MAX / 2) as usize,
            "edge count exceeds u32 CSR capacity"
        );
        self.edges.push(Edge::new(u, v, w));
        self.total_weight = total;
        build_csr_degrees_into(
            self.n,
            &self.edges,
            &mut self.adj_offsets,
            &mut self.adj_edge_ids,
            &mut self.degrees,
        );
        self.min_degree = self.degrees.iter().copied().min().unwrap_or(0);
        Ok(edge_index as u32)
    }

    /// Removes edge `eid` with `swap_remove` semantics: the last edge (if
    /// any remains past `eid`) takes over id `eid`, and its old id
    /// (`m - 1` before the call) is returned so callers holding edge ids
    /// — pinned tree packings, external indices — can remap exactly one
    /// id. Returns `None` when no edge moved. Rebuilds the CSR adjacency
    /// and degree cache in place — `O(n + m)`. Disconnecting the graph is
    /// allowed (solvers report 0-cuts); on `Err` the graph is unchanged.
    pub fn remove_edge(&mut self, eid: usize) -> Result<Option<u32>, GraphError> {
        if eid >= self.edges.len() {
            return Err(GraphError::EdgeIdOutOfRange { edge_id: eid });
        }
        let removed = self.edges.swap_remove(eid);
        self.total_weight -= removed.w;
        build_csr_degrees_into(
            self.n,
            &self.edges,
            &mut self.adj_offsets,
            &mut self.adj_edge_ids,
            &mut self.degrees,
        );
        self.min_degree = self.degrees.iter().copied().min().unwrap_or(0);
        Ok((eid < self.edges.len()).then_some(self.edges.len() as u32))
    }

    /// The smallest edge id connecting `u` and `v` (either orientation),
    /// if any — the id resolution rule the service's `remove_edge` /
    /// `reweight_edge` ops use on multigraphs.
    pub fn find_edge(&self, u: u32, v: u32) -> Option<u32> {
        if u as usize >= self.n || v as usize >= self.n || u == v {
            return None;
        }
        // Scan the sparser endpoint's incidence list; ids within one list
        // are ascending only per construction order, so take the min.
        let base = if self.incident_edge_ids(u).len() <= self.incident_edge_ids(v).len() {
            u
        } else {
            v
        };
        self.incident_edge_ids(base)
            .iter()
            .copied()
            .filter(|&eid| {
                let e = &self.edges[eid as usize];
                (e.u == u && e.v == v) || (e.u == v && e.v == u)
            })
            .min()
    }

    /// Value of the cut induced by `side` (`side[v] == true` defines one
    /// part). One pass over the edges.
    ///
    /// # Panics
    /// Panics if `side.len() != n`.
    pub fn cut_value(&self, side: &[bool]) -> u64 {
        assert_eq!(side.len(), self.n);
        self.edges
            .iter()
            .filter(|e| side[e.u as usize] != side[e.v as usize])
            .map(|e| e.w)
            .sum()
    }

    /// True if `side` is a proper nonempty cut (both parts nonempty).
    pub fn is_proper_cut(&self, side: &[bool]) -> bool {
        side.len() == self.n && side.iter().any(|&s| s) && side.iter().any(|&s| !s)
    }

    /// The subgraph induced by `vertices` (which must be distinct).
    /// Returns the subgraph (vertices renumbered `0..vertices.len()` in the
    /// given order); edge `i` of the result corresponds to an edge between
    /// the listed vertices with the same weight. Used by recursive
    /// partitioning workloads (cluster trees).
    ///
    /// # Panics
    /// Panics if `vertices` is empty, contains duplicates, or contains an
    /// out-of-range id.
    pub fn induced(&self, vertices: &[u32]) -> Graph {
        assert!(!vertices.is_empty(), "induced subgraph needs vertices");
        let mut local = vec![u32::MAX; self.n];
        for (i, &v) in vertices.iter().enumerate() {
            assert!((v as usize) < self.n, "vertex {v} out of range");
            assert_eq!(local[v as usize], u32::MAX, "duplicate vertex {v}");
            local[v as usize] = i as u32;
        }
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .filter_map(|e| {
                let (a, b) = (local[e.u as usize], local[e.v as usize]);
                (a != u32::MAX && b != u32::MAX).then_some(Edge::new(a, b, e.w))
            })
            .collect();
        Graph::from_edge_structs(vertices.len(), edges)
            .expect("induced subgraph of a valid graph is valid")
    }
}

/// Builds the CSR arrays *and* the weighted-degree cache into reusable
/// buffers. The counting pass doubles as the degree accumulation — the one
/// construction helper shared by `from_edges`, `rebuild_from_edges`, and
/// every contraction, so no rebuild path re-sums degrees in a separate
/// loop. Uses the offsets array itself as the scatter cursor (no temporary
/// clone): after scattering, `offsets[v]` holds the *end* of `v`'s range,
/// so one right-shift restores the invariant `offsets[v]..offsets[v+1]`.
fn build_csr_degrees_into(
    n: usize,
    edges: &[Edge],
    offsets: &mut Vec<u32>,
    ids: &mut Vec<u32>,
    degrees: &mut Vec<u64>,
) {
    offsets.clear();
    offsets.resize(n + 1, 0);
    degrees.clear();
    degrees.resize(n, 0);
    for e in edges {
        offsets[e.u as usize + 1] += 1;
        offsets[e.v as usize + 1] += 1;
        degrees[e.u as usize] += e.w;
        degrees[e.v as usize] += e.w;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    ids.clear();
    ids.resize(2 * edges.len(), 0);
    for (i, e) in edges.iter().enumerate() {
        ids[offsets[e.u as usize] as usize] = i as u32;
        offsets[e.u as usize] += 1;
        ids[offsets[e.v as usize] as usize] = i as u32;
        offsets[e.v as usize] += 1;
    }
    for v in (1..=n).rev() {
        offsets[v] = offsets[v - 1];
    }
    offsets[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 2), (1, 2, 3), (2, 0, 4)]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.total_weight(), 9);
    }

    #[test]
    fn heap_bytes_exact() {
        // Edge is {u: u32, v: u32, w: u64} = 16 bytes. For n vertices and
        // m edges: 16m (edges) + 4(n + 1) (offsets) + 4·2m (edge ids)
        // + 8n (degrees).
        assert_eq!(std::mem::size_of::<Edge>(), 16);
        let g = triangle(); // n = 3, m = 3
        assert_eq!(g.heap_bytes(), 16 * 3 + 4 * 4 + 4 * 6 + 8 * 3);
        let path = Graph::from_edges(3, &[(0, 1, 5), (1, 2, 7)]).unwrap(); // m = 2
        assert_eq!(path.heap_bytes(), 16 * 2 + 4 * 4 + 4 * 4 + 8 * 3); // 88
        let empty = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(empty.heap_bytes(), 4 * 2 + 8); // offsets [0, 0] + one degree
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 2, 1)]),
            Err(GraphError::EndpointOutOfRange { edge_index: 0 })
        ));
    }

    #[test]
    fn rejects_self_loop_and_zero_weight() {
        assert!(matches!(
            Graph::from_edges(3, &[(1, 1, 5)]),
            Err(GraphError::SelfLoop { edge_index: 0 })
        ));
        assert!(matches!(
            Graph::from_edges(3, &[(0, 1, 0)]),
            Err(GraphError::ZeroWeight { edge_index: 0 })
        ));
        assert!(matches!(Graph::from_edges(0, &[]), Err(GraphError::Empty)));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        for v in 0..3u32 {
            for (u, w, eid) in g.neighbors(v) {
                let e = g.edges()[eid as usize];
                assert_eq!(e.w, w);
                assert!(g.neighbors(u).any(|(x, _, eid2)| x == v && eid2 == eid));
            }
        }
    }

    #[test]
    fn parallel_edges_allowed() {
        let g = Graph::from_edges(2, &[(0, 1, 1), (0, 1, 2), (1, 0, 3)]).unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.weighted_degree(0), 6);
        assert_eq!(g.incident_edge_ids(0).len(), 3);
    }

    #[test]
    fn weighted_degrees_match_scalar() {
        let g = triangle();
        assert_eq!(g.weighted_degrees(), vec![6, 5, 7]);
        assert_eq!(g.min_weighted_degree(), 5);
    }

    #[test]
    fn cut_value_triangle() {
        let g = triangle();
        // {0} vs {1,2}: crossing edges (0,1,2) and (2,0,4).
        assert_eq!(g.cut_value(&[true, false, false]), 6);
        assert_eq!(g.cut_value(&[false, true, true]), 6);
        assert_eq!(g.cut_value(&[true, true, true]), 0);
        assert!(g.is_proper_cut(&[true, false, false]));
        assert!(!g.is_proper_cut(&[true, true, true]));
    }

    #[test]
    fn induced_subgraph() {
        let g = Graph::from_edges(
            5,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 3),
                (3, 4, 4),
                (4, 0, 5),
                (1, 3, 6),
            ],
        )
        .unwrap();
        let sub = g.induced(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 3); // (1,2), (2,3), (1,3)
        assert_eq!(sub.total_weight(), 2 + 3 + 6);
        // Renumbering follows the input order: 1→0, 2→1, 3→2.
        assert!(sub.neighbors(0).any(|(x, w, _)| x == 2 && w == 6));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_rejects_duplicates() {
        let g = Graph::from_edges(3, &[(0, 1, 1)]).unwrap();
        let _ = g.induced(&[0, 0]);
    }

    #[test]
    fn rebuild_reuses_buffers() {
        let mut g = triangle();
        let cap_edges = {
            // Grow once so subsequent smaller rebuilds provably fit.
            g.rebuild_from_edges(4, (0..3).map(|i| Edge::new(i, i + 1, (i + 1) as u64)))
                .unwrap();
            g.edges.capacity()
        };
        g.rebuild_from_edges(2, [Edge::new(0, 1, 7)]).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        assert_eq!(g.total_weight(), 7);
        assert_eq!(g.weighted_degrees(), &[7, 7]);
        assert_eq!(g.min_weighted_degree(), 7);
        assert_eq!(g.incident_edge_ids(0), &[0]);
        assert_eq!(g.edges.capacity(), cap_edges, "edge buffer must be reused");
        // Rebuild rejects bad input exactly like construction.
        assert!(matches!(
            g.rebuild_from_edges(2, [Edge::new(0, 0, 1)]),
            Err(GraphError::SelfLoop { edge_index: 0 })
        ));
    }

    #[test]
    fn reweight_edge_updates_all_caches() {
        let mut g = triangle();
        assert_eq!(g.reweight_edge(1, 10).unwrap(), 3); // (1,2): 3 -> 10
        assert_eq!(g.total_weight(), 16);
        assert_eq!(g.weighted_degrees(), &[6, 12, 14]);
        assert_eq!(g.min_weighted_degree(), 6);
        // CSR adjacency untouched: ids still resolve both endpoints.
        assert!(g
            .neighbors(1)
            .any(|(x, w, eid)| x == 2 && w == 10 && eid == 1));
        // Errors leave the graph unchanged.
        assert!(matches!(
            g.reweight_edge(3, 1),
            Err(GraphError::EdgeIdOutOfRange { edge_id: 3 })
        ));
        assert!(matches!(
            g.reweight_edge(0, 0),
            Err(GraphError::ZeroWeight { edge_index: 0 })
        ));
        assert!(matches!(
            g.reweight_edge(0, MAX_TOTAL_WEIGHT),
            Err(GraphError::TotalWeightOverflow)
        ));
        assert_eq!(g.total_weight(), 16);
        assert_eq!(g.edges()[0].w, 2);
    }

    #[test]
    fn add_edge_appends_and_rebuilds() {
        let mut g = triangle();
        let eid = g.add_edge(0, 2, 5).unwrap();
        assert_eq!(eid, 3); // appended: existing ids stable
        assert_eq!(g.m(), 4);
        assert_eq!(g.total_weight(), 14);
        assert_eq!(g.weighted_degrees(), &[11, 5, 12]);
        assert_eq!(g.min_weighted_degree(), 5);
        assert!(g.neighbors(0).any(|(x, w, id)| x == 2 && w == 5 && id == 3));
        assert!(matches!(
            g.add_edge(0, 3, 1),
            Err(GraphError::EndpointOutOfRange { edge_index: 4 })
        ));
        assert!(matches!(
            g.add_edge(1, 1, 1),
            Err(GraphError::SelfLoop { edge_index: 4 })
        ));
        assert!(matches!(
            g.add_edge(0, 1, 0),
            Err(GraphError::ZeroWeight { edge_index: 4 })
        ));
        assert_eq!(g.m(), 4, "failed adds must not change the graph");
    }

    #[test]
    fn remove_edge_swap_removes_and_reports_the_moved_id() {
        let mut g = triangle();
        // Removing id 0 moves the old last edge (id 2) into slot 0.
        assert_eq!(g.remove_edge(0).unwrap(), Some(2));
        assert_eq!(g.m(), 2);
        assert_eq!(g.edges()[0], Edge::new(2, 0, 4));
        assert_eq!(g.total_weight(), 7);
        assert_eq!(g.weighted_degrees(), &[4, 3, 7]);
        assert_eq!(g.min_weighted_degree(), 3);
        // Removing the last edge moves nothing.
        assert_eq!(g.remove_edge(1).unwrap(), None);
        assert_eq!(g.m(), 1);
        assert!(matches!(
            g.remove_edge(5),
            Err(GraphError::EdgeIdOutOfRange { edge_id: 5 })
        ));
        // Disconnecting removals are allowed.
        assert_eq!(g.remove_edge(0).unwrap(), None);
        assert_eq!(g.m(), 0);
        assert_eq!(g.total_weight(), 0);
        assert_eq!(g.min_weighted_degree(), 0);
    }

    #[test]
    fn mutations_match_from_scratch_construction() {
        let mut g = triangle();
        g.reweight_edge(0, 9).unwrap();
        g.add_edge(0, 2, 5).unwrap();
        g.remove_edge(1).unwrap(); // (1,2,3) out; (0,2,5) moves to id 1
        let fresh = Graph::from_edges(3, &[(0, 1, 9), (0, 2, 5), (2, 0, 4)]).unwrap();
        assert_eq!(g.edges(), fresh.edges());
        assert_eq!(g.total_weight(), fresh.total_weight());
        assert_eq!(g.weighted_degrees(), fresh.weighted_degrees());
        assert_eq!(g.min_weighted_degree(), fresh.min_weighted_degree());
        for v in 0..3 {
            assert_eq!(g.incident_edge_ids(v), fresh.incident_edge_ids(v));
        }
    }

    #[test]
    fn find_edge_picks_the_smallest_parallel_id() {
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 0, 2), (1, 2, 3)]).unwrap();
        assert_eq!(g.find_edge(0, 1), Some(0));
        assert_eq!(g.find_edge(1, 0), Some(0));
        assert_eq!(g.find_edge(2, 1), Some(2));
        assert_eq!(g.find_edge(0, 2), None);
        assert_eq!(g.find_edge(0, 0), None);
        assert_eq!(g.find_edge(0, 7), None);
    }

    #[test]
    fn isolated_vertices_ok() {
        let g = Graph::from_edges(5, &[(0, 1, 1)]).unwrap();
        assert_eq!(g.weighted_degree(4), 0);
        assert!(g.incident_edge_ids(4).is_empty());
    }
}
