//! Connectivity.
//!
//! A disconnected graph has minimum cut 0 (paper §1.1.1), so the top-level
//! algorithm starts with a connectivity check: a classic union-find.

use crate::graph::Graph;

/// Union-find with path halving and union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns false if already merged.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn components(&self) -> usize {
        self.components
    }
}

/// Component label per vertex (labels are arbitrary but consistent) plus the
/// component count. Sequential union-find; `O(m α(n))`.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let mut uf = UnionFind::new(g.n());
    for e in g.edges() {
        uf.union(e.u, e.v);
    }
    let labels: Vec<u32> = (0..g.n() as u32).map(|v| uf.find(v)).collect();
    let count = uf.components();
    (labels, count)
}

/// True if the graph is connected (the union-find of
/// [`connected_components`]).
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || connected_components(g).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vertex_connected() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).1, 1);
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(!is_connected(&g));
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn path_is_connected() {
        let n = 1000;
        let edges: Vec<(u32, u32, u64)> = (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn isolated_vertices_count() {
        let g = Graph::from_edges(5, &[(0, 1, 1)]).unwrap();
        let (_, count) = connected_components(&g);
        assert_eq!(count, 4); // {0,1}, {2}, {3}, {4}
    }

    #[test]
    fn union_find_behaviour() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        assert!(uf.union(0, 2));
        assert_eq!(uf.find(3), uf.find(1));
    }
}
