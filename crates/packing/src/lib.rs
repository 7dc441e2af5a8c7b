//! Karger's tree packing (paper Lemma 1).
//!
//! Produces a set `S` of `O(log n)` spanning trees of the input graph such
//! that, with high probability, some tree in `S` crosses a minimum cut at
//! most twice ("2-constrains" it). The pipeline, following Karger \[16\] and
//! Plotkin–Shmoys–Tardos \[25\]:
//!
//! 1. **Skeleton sampling** ([`skeleton`]): sample each unit of edge weight
//!    with probability `p`, chosen by an exponential search so that the
//!    skeleton's packing value lands in a `Θ(log n)` band. Cut values are
//!    preserved within `(1 ± ε)` relative error w.h.p.
//! 2. **Greedy packing** ([`pack`]): repeatedly compute a minimum spanning
//!    tree with respect to current edge loads and increment the loads of
//!    the chosen tree's edges — `O(log² n)` rounds approximate the maximum
//!    fractional tree packing.
//! 3. **Selection**: sample `O(log n)` *distinct* trees from the packing,
//!    proportionally to their packing weights.
//!
//! Every round of one greedy run solves an MST on the same skeleton under
//! new loads, so [`mst::RepeatedMst`] reduces the skeleton once (bridges
//! fixed, degree-2 chains compressed) and runs Kruskal on the small kernel
//! each round, reporting the edges the round leaves out as a bitset. Round
//! 1, whose costs are all equal, is one union-find pass instead, and the
//! skeleton is reduced only when a run reaches round 2. The
//! greedy loop keeps no loads: an edge's load is the rounds run minus the
//! rounds that left it out, and the left-out bitset keys the round's tree,
//! so outside the engine a round touches only the edges it leaves out.
//! [`mst::kruskal_mst`] is the reference the engine is tested against.

pub mod mst;
pub mod pack;
pub mod skeleton;

pub use mst::{kruskal_mst, set_bits, RepeatedMst};
pub use pack::{
    pack_greedy_with, pack_trees, pack_trees_with, rooted_tree_from_edges, CertifiedCut,
    PackScratch, PackedTreeList, PackingConfig, RootScratch, TreePacking,
};
pub use skeleton::{sample_skeleton, Skeleton};
