//! Graph substrate for the parallel minimum-cut reproduction.
//!
//! Provides the undirected weighted multigraph type ([`Graph`]), rooted
//! spanning trees ([`RootedTree`]), Euler tours ([`EulerTour`]), the
//! 1-respecting cut values of a spanning tree ([`respect1`], Lemma 11, with
//! Tarjan's offline LCAs), connected components, graph contraction (the
//! bough-phase cascade of §4.1.3 contracts graphs and trees in lock-step),
//! cut evaluation, and a family of workload generators used by the tests and
//! the benchmark harness.

pub mod certificate;
pub mod components;
pub mod contract;
pub mod error;
pub mod euler;
pub mod gen;
pub mod graph;
pub mod io;
pub mod respect1;
pub mod tree;

pub use certificate::{
    mincut_certificate, mincut_certificate_with, ni_certificate, ni_certificate_with, CertScratch,
    Certificate,
};
pub use components::{connected_components, is_connected, UnionFind};
pub use contract::contract;
pub use error::PmcError;
pub use euler::EulerTour;
pub use graph::{Edge, Graph, GraphError, Weight};
pub use io::{read_dimacs, read_edge_list, read_path, write_dimacs, IoError};
pub use respect1::{best_one_respect, one_respect_cuts, SubtreeCuts};
pub use tree::{RootedTree, TreeScratch};
