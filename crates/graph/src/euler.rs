//! Euler tours of rooted trees.
//!
//! An Euler tour linearizes a tree so that every subtree `v↓` becomes a
//! contiguous interval `[enter[v], exit[v])` of the tour, so ancestor tests
//! are two comparisons (`enter[a] <= enter[v] < exit[a]`). Subtree
//! aggregation (Lemma 11's cut values, Appendix A's `ρ↓`) is
//! [`RootedTree::subtree_sums`], one bottom-up pass; the paper's
//! `O(log n)`-depth route is a prefix sum over this tour.
//!
//! The tour is built by an iterative DFS, `O(n)` work. The PRAM-faithful
//! route (successor arrays plus list ranking) is not implemented: the DFS
//! is not on the measured critical path of any experiment.

use crate::tree::RootedTree;

/// Euler tour with entry/exit times and the depth-ordered vertex sequence.
#[derive(Clone, Debug)]
pub struct EulerTour {
    /// `enter[v]`: index of `v`'s first visit; vertices of `v↓` occupy
    /// `enter[v]..exit[v]` in [`EulerTour::order`].
    pub enter: Vec<u32>,
    /// One past the last position of `v↓` in the order.
    pub exit: Vec<u32>,
    /// `order[i]` = vertex with `enter == i` (a DFS preorder).
    pub order: Vec<u32>,
}

impl EulerTour {
    /// Builds the tour for `tree`.
    pub fn new(tree: &RootedTree) -> Self {
        let n = tree.n();
        let mut enter = vec![0u32; n];
        let mut exit = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        // Iterative DFS; children visited in CSR order.
        enum Frame {
            Enter(u32),
            Exit(u32),
        }
        let mut stack = vec![Frame::Enter(tree.root())];
        let mut time = 0u32;
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    enter[v as usize] = time;
                    order.push(v);
                    time += 1;
                    stack.push(Frame::Exit(v));
                    // Push children in reverse so the first child is visited
                    // first (cosmetic; any order is correct).
                    for &c in tree.children(v).iter().rev() {
                        stack.push(Frame::Enter(c));
                    }
                }
                Frame::Exit(v) => {
                    exit[v as usize] = time;
                }
            }
        }
        debug_assert_eq!(order.len(), n);
        EulerTour { enter, exit, order }
    }

    /// True if `a` is an ancestor of `v` (every vertex is its own ancestor,
    /// as in the paper's preliminaries).
    pub fn is_ancestor(&self, a: u32, v: u32) -> bool {
        self.enter[a as usize] <= self.enter[v as usize]
            && self.enter[v as usize] < self.exit[a as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NO_PARENT;

    fn sample() -> RootedTree {
        // Same shape as tree::tests::sample.
        RootedTree::from_parents(0, vec![NO_PARENT, 0, 0, 1, 1, 2, 3])
    }

    #[test]
    fn intervals_nest() {
        let t = sample();
        let e = EulerTour::new(&t);
        for (p, c) in t.edges() {
            assert!(e.enter[p as usize] < e.enter[c as usize]);
            assert!(e.exit[c as usize] <= e.exit[p as usize]);
        }
        assert_eq!(e.enter[0], 0);
        assert_eq!(e.exit[0], 7);
    }

    #[test]
    fn ancestor_tests() {
        let t = sample();
        let e = EulerTour::new(&t);
        assert!(e.is_ancestor(0, 6));
        assert!(e.is_ancestor(1, 6));
        assert!(e.is_ancestor(3, 6));
        assert!(e.is_ancestor(6, 6)); // self
        assert!(!e.is_ancestor(6, 3));
        assert!(!e.is_ancestor(2, 6));
        assert!(!e.is_ancestor(4, 6));
    }

    #[test]
    fn subtree_sums_large_random_tree() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let n = 5000;
        let mut rng = SmallRng::seed_from_u64(99);
        let mut parent = vec![NO_PARENT; n];
        for v in 1..n {
            parent[v] = rng.gen_range(0..v) as u32;
        }
        let t = RootedTree::from_parents(0, parent);
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
        let sums = t.subtree_sums(&vals);
        let e = EulerTour::new(&t);
        for v in 0..n as u32 {
            // `v↓` by traversal: its sum, and the tour interval it fills.
            let mut below = t.descendants(v);
            let direct: i64 = below.iter().map(|&x| vals[x as usize]).sum();
            assert_eq!(sums[v as usize], direct, "vertex {v}");
            let (a, b) = (e.enter[v as usize] as usize, e.exit[v as usize] as usize);
            let mut interval = e.order[a..b].to_vec();
            below.sort_unstable();
            interval.sort_unstable();
            assert_eq!(interval, below, "vertex {v}");
        }
    }

    #[test]
    fn order_matches_enter() {
        let t = sample();
        let e = EulerTour::new(&t);
        for (i, &v) in e.order.iter().enumerate() {
            assert_eq!(e.enter[v as usize] as usize, i);
        }
    }
}
