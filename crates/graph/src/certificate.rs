//! Nagamochi–Ibaraki sparse connectivity certificates.
//!
//! The paper's related work (§1.2.2, [22, 32]) builds on scan-first search:
//! a single maximum-adjacency sweep partitions the edges into forests
//! `F₁, F₂, …` such that the union of the first `k` forests — the
//! *k-certificate* — preserves every cut of value `≤ k` exactly, while
//! larger cuts keep value `≥ k`. [`mincut_certificate`] sets `k` to the
//! minimum weighted degree plus one: strictly above the minimum cut, so no
//! heavier cut can drop to the minimum value and every witness found on
//! the certificate is a minimum cut of the input. The certificate has
//! total weight at most `k·(n−1)` yet exactly the same minimum cuts as the
//! input. For dense graphs this is a drop-in sparsifier in front of the
//! whole pipeline: the min-cut work bound becomes
//! `O(min(m, c·n) · log⁴ n)`.
//!
//! Weighted formulation: scanning vertex `v` in maximum-adjacency order,
//! an edge `(v, u)` with weight `w` enters the certificate with weight
//! `min(w, max(0, k − r(u)))` where `r(u)` is `u`'s adjacency count so far
//! (the weighted analogue of "assign to forests `r(u)+1 … r(u)+w`"), after
//! which `r(u) += w`.

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

/// Reusable buffers for [`ni_certificate_with`]: the maximum-adjacency
/// sweep's visited flags, adjacency counters, kept-edge staging area, and
/// the lazy heap. One scratch amortizes any number of certificate builds.
#[derive(Clone, Debug, Default)]
pub struct CertScratch {
    visited: Vec<bool>,
    r: Vec<u64>,
    kept: Vec<Edge>,
    heap: std::collections::BinaryHeap<(u64, u32)>,
}

impl CertScratch {
    /// Bytes of heap memory in active use by the scratch buffers
    /// (`len`-based, matching [`crate::Graph::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.visited.len()
            + self.r.len() * std::mem::size_of::<u64>()
            + self.kept.len() * std::mem::size_of::<Edge>()
            + self.heap.len() * std::mem::size_of::<(u64, u32)>()
    }
}

/// Builds the Nagamochi–Ibaraki `k`-certificate of `g`.
///
/// Guarantees (classic NI theorem): for every cut `C`,
/// `val_cert(C) = val(C)` if `val(C) ≤ k`, and `val_cert(C) ≥ k`
/// otherwise. In particular, if `k ≥ mincut(g)`, the certificate has the
/// same minimum cut value and the same minimizing partitions.
///
/// `O(m log n)` time (binary-heap maximum-adjacency order).
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
    ws.visited.clear();
    ws.visited.resize(n, false);
    // r[u]: total weight between u and already-scanned vertices.
    ws.r.clear();
    ws.r.resize(n, 0);
    ws.kept.clear();
    ws.heap.clear();
    let mut scanned = 0usize;
    let mut next_seed = 0u32;
    while scanned < n {
        let v = loop {
            match ws.heap.pop() {
                Some((key, v)) => {
                    if !ws.visited[v as usize] && key == ws.r[v as usize] {
                        break v;
                    }
                }
                None => {
                    // Start a new component at the next unvisited vertex.
                    while ws.visited[next_seed as usize] {
                        next_seed += 1;
                    }
                    break next_seed;
                }
            }
        };
        ws.visited[v as usize] = true;
        scanned += 1;
        for (u, w, _eid) in g.neighbors(v) {
            if ws.visited[u as usize] {
                continue;
            }
            let ru = ws.r[u as usize];
            if ru < k {
                let keep = w.min(k - ru);
                ws.kept.push(Edge::new(v, u, keep));
            }
            ws.r[u as usize] = ru + w;
            ws.heap.push((ws.r[u as usize], u));
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

    #[test]
    fn small_cuts_preserved_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for trial in 0..40 {
            let n = rng.gen_range(4..12);
            let g = gen::complete(n, 6, trial);
            let k = g.min_weighted_degree();
            let cert = ni_certificate(&g, k);
            // Every cut of value <= k must be preserved exactly; larger
            // cuts must stay >= k. Check all cuts by enumeration.
            for mask in 1u32..(1 << (n - 1)) {
                let side: Vec<bool> = (0..n)
                    .map(|v| v > 0 && (mask >> (v - 1)) & 1 == 1)
                    .collect();
                let orig = g.cut_value(&side);
                let kept = cert.graph.cut_value(&side);
                if orig <= k {
                    assert_eq!(kept, orig, "small cut changed (trial {trial})");
                } else {
                    assert!(kept >= k, "large cut fell below k (trial {trial})");
                }
                assert!(kept <= orig, "certificate increased a cut");
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

    use crate::graph::Graph;
}
