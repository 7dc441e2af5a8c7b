//! Nagamochi–Ibaraki sparse connectivity certificates.
//!
//! The paper's related work (§1.2.2, [22, 32]) builds on scan-first search:
//! a single maximum-adjacency sweep partitions the edges into forests
//! `F₁, F₂, …` such that the union of the first `k` forests — the
//! *k-certificate* — preserves every cut of value `≤ k` exactly, while
//! larger cuts keep value `≥ k` (Nagamochi and Ibaraki, *A linear-time
//! algorithm for finding a sparse k-connected spanning subgraph of a
//! k-connected graph*, Algorithmica 1992). [`mincut_certificate`] sets `k`
//! to the minimum weighted degree plus one: strictly above the minimum cut,
//! so no heavier cut can drop to the minimum value and every witness found
//! on the certificate is a minimum cut of the input. The certificate has
//! total weight at most `k·(n−1)` yet exactly the same minimum cuts as the
//! input. For dense graphs this is a drop-in sparsifier in front of the
//! whole pipeline: the min-cut work bound becomes
//! `O(min(m, c·n) · log⁴ n)`.
//!
//! Weighted formulation: scanning vertex `v`, an edge `(v, u)` with weight
//! `w` to an unscanned `u` belongs to forests `r(u)+1 … r(u)+w`, where
//! `r(u)` is `u`'s adjacency to the scanned vertices so far; then
//! `r(u) += w`. The certificate keeps the part in forests `1 … k`, weight
//! `min(w, k − r(u))` when `r(u) < k`.
//!
//! **The capped scan order.** The sweep orders vertices by `min(r, k)`,
//! not by `r`, with ties to the larger vertex id, and a vertex whose key
//! reaches `k` takes no more edges: it keeps its place in the queue, and
//! its key is never raised again. NI's proof that `Fᵢ` is a maximal
//! spanning forest of `G − (F₁ ∪ … ∪ Fᵢ₋₁)` uses the scan order in one place
//! only: when a vertex with `r < i` is scanned, every unscanned vertex has
//! `r < i`. Capped keys keep that property for every `i ≤ k`: if the chosen
//! vertex has `min(r, k) = r < i ≤ k`, every unscanned `u` has
//! `min(r(u), k) ≤ r < i ≤ k`, so `r(u) < i`. (A vertex that opens a new
//! component is chosen when every unscanned vertex has `r = 0`.) The
//! certificate keeps only forests `1 … k`, so its kept weights
//! `min(w, k − r(u))` still preserve every cut `≤ k` exactly and keep
//! larger cuts `≥ k`. The forests above `k`, which exact order would have
//! built, are never kept.
//!
//! **Cost.** The queue is an indexed binary max-heap holding at most one
//! entry per vertex — the bounded priority queue of Henzinger, Noe, Schulz
//! and Strash (*Practical Minimum Cut Algorithms*, ALENEX 2018). Every
//! raise adds at least 1 to a key that stops at `k`, so a vertex is sifted
//! up at most `min(k, degree)` times: `O(m + min(m, k·n) · log n)` work,
//! against `O(m log m)` for a lazy heap with one entry per scanned edge.

use crate::graph::{Edge, Graph};

/// Result of certificate construction.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The sparsified graph (same vertex set).
    pub graph: Graph,
    /// The `k` used.
    pub k: u64,
    /// Total weight kept / original total weight.
    pub kept_fraction: f64,
}

/// `CertScratch::slot` of a vertex no scanned vertex has reached yet.
const UNSEEN: u32 = u32::MAX;
/// `CertScratch::slot` of a scanned vertex.
const SCANNED: u32 = u32::MAX - 1;

/// Reusable buffers for [`ni_certificate_with`]: the capped adjacency
/// counters, the indexed max-heap of reached vertices with each vertex's
/// slot in it, and the kept-edge staging area. One scratch amortizes any
/// number of certificate builds.
#[derive(Clone, Debug, Default)]
pub struct CertScratch {
    /// `min(r(u), k)`: `u`'s adjacency to the scanned vertices, capped.
    r: Vec<u64>,
    /// `u`'s index in `heap`, or [`UNSEEN`] / [`SCANNED`].
    slot: Vec<u32>,
    /// Reached, unscanned vertices, a binary max-heap on `(r, id)`.
    heap: Vec<u32>,
    kept: Vec<Edge>,
}

impl CertScratch {
    /// Bytes of heap memory in active use by the scratch buffers
    /// (`len`-based, matching [`crate::Graph::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.r.len() * size_of::<u64>()
            + (self.slot.len() + self.heap.len()) * size_of::<u32>()
            + self.kept.len() * size_of::<Edge>()
    }

    /// Whether vertex `a` is scanned before `b`: the larger capped key
    /// first, ties to the larger id.
    fn before(&self, a: u32, b: u32) -> bool {
        (self.r[a as usize], a) > (self.r[b as usize], b)
    }

    /// Puts `v` at heap index `i`.
    fn place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.slot[v as usize] = i as u32;
    }

    /// Moves the vertex at heap index `i` up to its place.
    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let up = (i - 1) / 2;
            if !self.before(v, self.heap[up]) {
                break;
            }
            self.place(i, self.heap[up]);
            i = up;
        }
        self.place(i, v);
    }

    /// Removes and returns the vertex to scan next, if any is reached.
    fn pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            let mut i = 0;
            loop {
                let mut child = 2 * i + 1;
                if child >= self.heap.len() {
                    break;
                }
                if child + 1 < self.heap.len()
                    && self.before(self.heap[child + 1], self.heap[child])
                {
                    child += 1;
                }
                if !self.before(self.heap[child], last) {
                    break;
                }
                self.place(i, self.heap[child]);
                i = child;
            }
            self.place(i, last);
        }
        Some(top)
    }
}

/// Builds the Nagamochi–Ibaraki `k`-certificate of `g`.
///
/// Guarantees (classic NI theorem): for every cut `C`,
/// `val_cert(C) = val(C)` if `val(C) ≤ k`, and `val_cert(C) ≥ k`
/// otherwise. In particular, if `k ≥ mincut(g)`, the certificate has the
/// same minimum cut value and the same minimizing partitions.
///
/// `O(m + min(m, k·n) · log n)` time (the capped scan order of the module
/// docs).
pub fn ni_certificate(g: &Graph, k: u64) -> Certificate {
    let mut out = Graph::from_edges(1, &[]).expect("placeholder graph");
    let kept_fraction = ni_certificate_with(g, k, &mut CertScratch::default(), &mut out);
    Certificate {
        graph: out,
        k,
        kept_fraction,
    }
}

/// [`ni_certificate`] into a reusable output graph and scratch arena.
/// Returns the kept weight fraction; the certificate itself is rebuilt in
/// place inside `out` (every internal buffer recycled).
pub fn ni_certificate_with(g: &Graph, k: u64, ws: &mut CertScratch, out: &mut Graph) -> f64 {
    let n = g.n();
    ws.r.clear();
    ws.r.resize(n, 0);
    ws.slot.clear();
    ws.slot.resize(n, UNSEEN);
    ws.heap.clear();
    ws.kept.clear();
    let mut next_seed = 0;
    for _ in 0..n {
        let v = ws.pop().unwrap_or_else(|| {
            // Start a new component at the next unreached vertex.
            while ws.slot[next_seed] != UNSEEN {
                next_seed += 1;
            }
            next_seed as u32
        });
        ws.slot[v as usize] = SCANNED;
        for (u, w, _eid) in g.neighbors(v) {
            let (ru, at) = (ws.r[u as usize], ws.slot[u as usize]);
            if at == SCANNED || ru >= k {
                continue;
            }
            let keep = w.min(k - ru);
            ws.kept.push(Edge::new(v, u, keep));
            ws.r[u as usize] = ru + keep;
            if at == UNSEEN {
                ws.heap.push(u);
                ws.sift_up(ws.heap.len() - 1);
            } else {
                ws.sift_up(at as usize);
            }
        }
    }
    out.rebuild_from_edges(n, ws.kept.iter().copied())
        .expect("certificate of a valid graph is valid");
    out.total_weight() as f64 / g.total_weight().max(1) as f64
}

/// The certificate at `k =` minimum weighted degree `+ 1` — a safe
/// sparsifier for minimum-cut computations. The `+ 1` matters for witness
/// extraction: with `k = mincut` exactly, a larger cut may shrink *to*
/// `k` in the certificate and masquerade as a minimum cut; with
/// `k > mincut`, any certificate cut of value `mincut < k` must have had
/// original value `mincut` too, so values *and* minimizing partitions are
/// preserved. Returns `None` when the certificate would not shrink the
/// graph meaningfully (kept weight ≥ ¾ of the original), in which case
/// callers should use the input as-is.
pub fn mincut_certificate(g: &Graph) -> Option<Certificate> {
    let mut graph = Graph::from_edges(1, &[]).expect("placeholder graph");
    let (k, kept_fraction) = mincut_certificate_with(g, &mut CertScratch::default(), &mut graph)?;
    Some(Certificate {
        graph,
        k,
        kept_fraction,
    })
}

/// [`mincut_certificate`] into a reusable scratch + output graph. Returns
/// `Some((k, kept_fraction))` when the certificate is worth using (in which
/// case `out` holds it). On `None`, `out` must not be read: the cheap
/// pre-check leaves it untouched, but a certificate rejected for keeping
/// `≥ ¾` of the weight has already been built into it.
pub fn mincut_certificate_with(
    g: &Graph,
    ws: &mut CertScratch,
    out: &mut Graph,
) -> Option<(u64, f64)> {
    let dmin = g.min_weighted_degree();
    if dmin == 0 {
        return None; // isolated vertex: min cut is 0 anyway
    }
    let k = dmin + 1;
    // Cheap pre-check: the certificate keeps at most k(n-1) weight.
    if (k as u128) * (g.n() as u128 - 1) * 4 >= 3 * g.total_weight() as u128 {
        return None;
    }
    let kept_fraction = ni_certificate_with(g, k, ws, out);
    (kept_fraction < 0.75).then_some((k, kept_fraction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Exact min cut by brute force (small n only).
    fn brute(g: &Graph) -> u64 {
        let n = g.n();
        assert!(n <= 16);
        (1u32..(1 << (n - 1)))
            .map(|mask| {
                let side: Vec<bool> = (0..n)
                    .map(|v| v > 0 && (mask >> (v - 1)) & 1 == 1)
                    .collect();
                g.cut_value(&side)
            })
            .min()
            .unwrap()
    }

    #[test]
    fn certificate_weight_bound() {
        let g = gen::complete(40, 5, 1);
        let k = 10;
        let cert = ni_certificate(&g, k);
        assert!(cert.graph.total_weight() <= k * (g.n() as u64 - 1));
    }

    /// Asserts the NI guarantee of `ni_certificate(g, k)` on every cut of
    /// `g` (small n only): cuts of value `≤ k` keep their value, larger
    /// cuts keep at least `k`, and no cut grows.
    fn assert_preserves_small_cuts(g: &Graph, k: u64, at: &str) {
        let n = g.n();
        assert!(n <= 16);
        let cert = ni_certificate(g, k);
        for mask in 1u32..(1 << (n - 1)) {
            let side: Vec<bool> = (0..n)
                .map(|v| v > 0 && (mask >> (v - 1)) & 1 == 1)
                .collect();
            let orig = g.cut_value(&side);
            let kept = cert.graph.cut_value(&side);
            if orig <= k {
                assert_eq!(kept, orig, "small cut changed ({at}, k {k})");
            } else {
                assert!(kept >= k, "large cut fell below k ({at}, k {k})");
            }
            assert!(kept <= orig, "certificate increased a cut ({at}, k {k})");
        }
    }

    #[test]
    fn small_cuts_preserved_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for trial in 0..40 {
            let n = rng.gen_range(4..12);
            let g = gen::complete(n, 6, trial);
            assert_preserves_small_cuts(&g, g.min_weighted_degree(), &format!("complete {trial}"));
        }
        // Sparse multigraphs, about one edge in four a parallel copy, at
        // every k from 1 to δ + 3: the capped scan order must build the
        // same first k forests as the exact one.
        for trial in 0..40 {
            let n = rng.gen_range(3..=12u32);
            let m = rng.gen_range(n - 1..=2 * n) as usize;
            let mut edges: Vec<(u32, u32, u64)> = Vec::with_capacity(m);
            while edges.len() < m {
                let w = rng.gen_range(1..=7);
                if !edges.is_empty() && rng.gen_range(0..4) == 0 {
                    let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                    edges.push((u, v, w));
                } else {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v {
                        edges.push((u, v, w));
                    }
                }
            }
            let g = Graph::from_edges(n as usize, &edges).unwrap();
            for k in 1..=g.min_weighted_degree() + 3 {
                assert_preserves_small_cuts(&g, k, &format!("sparse {trial}"));
            }
        }
    }

    #[test]
    fn min_cut_value_is_invariant() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4);
        for trial in 0..30 {
            let n = rng.gen_range(4..14);
            let m = rng.gen_range(n..3 * n);
            let g = gen::gnm_connected(n, m, 8, 100 + trial);
            let cert = ni_certificate(&g, g.min_weighted_degree());
            assert_eq!(brute(&g), brute(&cert.graph), "trial {trial}");
        }
    }

    #[test]
    fn dense_graph_with_weak_vertex_shrinks() {
        // K_100 (unit weights) plus a pendant vertex on a weight-3 edge:
        // min degree (and min cut) is 3, so the certificate keeps at most
        // 3(n-1) of the ~5000 weight.
        let k100 = gen::complete(100, 1, 7);
        let mut edges: Vec<(u32, u32, u64)> =
            k100.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        edges.push((0, 100, 3));
        let g = Graph::from_edges(101, &edges).unwrap();
        let cert = mincut_certificate(&g).expect("dense graph with weak vertex must shrink");
        assert_eq!(cert.k, 4);
        assert!(cert.graph.total_weight() <= 4 * 100);
        // The pendant cut survives with its exact value.
        let mut side = vec![false; 101];
        side[100] = true;
        assert_eq!(cert.graph.cut_value(&side), 3);
    }

    #[test]
    fn uniform_complete_graph_not_worth_it() {
        // K_n with unit weights: min cut = min degree = n-1, the
        // certificate cannot shrink it, and the heuristic must say so.
        let g = gen::complete(100, 1, 7);
        assert!(mincut_certificate(&g).is_none());
    }

    #[test]
    fn sparse_graph_not_worth_it() {
        let g = gen::cycle_with_chords(100, 5, 2);
        assert!(mincut_certificate(&g).is_none());
    }

    #[test]
    fn scratch_variant_matches_allocating_path() {
        let mut ws = CertScratch::default();
        let mut out = Graph::from_edges(1, &[]).unwrap();
        for trial in 0..5 {
            let g = gen::complete(30 + trial as usize, 4, trial);
            let k = g.min_weighted_degree();
            let want = ni_certificate(&g, k);
            let frac = ni_certificate_with(&g, k, &mut ws, &mut out);
            assert_eq!(out.total_weight(), want.graph.total_weight());
            assert_eq!(out.m(), want.graph.m());
            assert!((frac - want.kept_fraction).abs() < 1e-12);
        }
        // The Option-returning wrapper agrees with the allocating one.
        let g = gen::complete(50, 3, 9);
        match (
            mincut_certificate(&g),
            mincut_certificate_with(&g, &mut ws, &mut out),
        ) {
            (None, None) => {}
            (Some(c), Some((k, frac))) => {
                assert_eq!(c.k, k);
                assert!((c.kept_fraction - frac).abs() < 1e-12);
                assert_eq!(c.graph.total_weight(), out.total_weight());
            }
            (a, b) => panic!("disagreement: {:?} vs {:?}", a.is_some(), b.is_some()),
        }
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = Graph::from_edges(5, &[(0, 1, 3), (2, 3, 4)]).unwrap();
        let cert = ni_certificate(&g, 2);
        // Cut between components stays 0.
        let side = vec![true, true, false, false, false];
        assert_eq!(cert.graph.cut_value(&side), 0);
    }

    #[test]
    fn scratch_heap_bytes_count_every_buffer() {
        // After a build on n vertices every vertex is scanned, so the heap
        // is empty: n capped keys (u64), n slots (u32) and the kept edges.
        let mut ws = CertScratch::default();
        assert_eq!(ws.heap_bytes(), 0);
        let g = gen::complete(12, 5, 3);
        let mut out = Graph::from_edges(1, &[]).unwrap();
        ni_certificate_with(&g, 4, &mut ws, &mut out);
        let edge = std::mem::size_of::<Edge>();
        assert_eq!(ws.heap_bytes(), 12 * 8 + 12 * 4 + out.m() * edge);
    }

    use crate::graph::Graph;
}
