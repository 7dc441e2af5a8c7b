//! Graph contraction.
//!
//! The bough-phase cascade (§4.1.3) contracts, in each phase, all edges with
//! at least one endpoint in a bough — in the spanning tree *and* in the
//! graph at the same time. Contraction here is the general quotient
//! operation: given a mapping of old vertices to new vertices, re-target
//! every edge, drop the resulting self-loops, and keep parallel edges
//! (the paper notes combining them is unnecessary, and keeping them
//! preserves the `O(m)` bound on per-phase operation counts).

use crate::graph::{Edge, Graph};

/// Contracts `g` according to `mapping` (`mapping[v]` = new id of `v`,
/// new ids must be `0..new_n`). Self-loops are dropped; parallel edges kept.
///
/// Cut preservation: for any cut `C'` of the contracted graph, the preimage
/// `{v : mapping[v] ∈ C'}` is a cut of `g` of the same value — this is what
/// makes per-phase candidate values globally valid.
///
/// # Panics
/// Panics if `mapping.len() != g.n()` or a mapped id is `>= new_n`.
pub fn contract(g: &Graph, mapping: &[u32], new_n: usize) -> Graph {
    assert_eq!(mapping.len(), g.n());
    debug_assert!(mapping.iter().all(|&x| (x as usize) < new_n));
    let edges: Vec<Edge> = g
        .edges()
        .iter()
        .filter_map(|e| {
            let nu = mapping[e.u as usize];
            let nv = mapping[e.v as usize];
            (nu != nv).then_some(Edge::new(nu, nv, e.w))
        })
        .collect();
    Graph::from_edge_structs(new_n, edges).expect("contraction of a valid graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_triangle_to_edge() {
        let g = Graph::from_edges(3, &[(0, 1, 2), (1, 2, 3), (2, 0, 4)]).unwrap();
        // Merge 0 and 1 into new vertex 0; 2 becomes 1.
        let h = contract(&g, &[0, 0, 1], 2);
        assert_eq!(h.n(), 2);
        assert_eq!(h.m(), 2); // parallel edges kept: (1,2,3) and (2,0,4)
        assert_eq!(h.total_weight(), 7);
    }

    #[test]
    fn contraction_preserves_cut_values() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 30usize;
        let edges: Vec<(u32, u32, u64)> = (0..150)
            .filter_map(|_| {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                (u != v).then(|| (u, v, rng.gen_range(1..10)))
            })
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        // Random contraction into 10 groups.
        let mapping: Vec<u32> = (0..n).map(|_| rng.gen_range(0..10) as u32).collect();
        let h = contract(&g, &mapping, 10);
        // Any cut of h lifts to a cut of g with identical value.
        for _ in 0..20 {
            let hside: Vec<bool> = (0..10).map(|_| rng.gen()).collect();
            let gside: Vec<bool> = mapping.iter().map(|&nv| hside[nv as usize]).collect();
            assert_eq!(h.cut_value(&hside), g.cut_value(&gside));
        }
    }

    #[test]
    fn contract_to_single_vertex() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let h = contract(&g, &[0, 0, 0, 0], 1);
        assert_eq!(h.n(), 1);
        assert_eq!(h.m(), 0);
    }
}
