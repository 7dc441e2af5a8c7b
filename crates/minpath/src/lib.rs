//! The paper's §3 contribution: Minimum Path structures.
//!
//! Given a rooted tree `T` with vertex weights, a Minimum Path structure
//! supports `MinPath(v)` (smallest weight on the `v → root` path) and
//! `AddPath(v, x)` (add `x` to every weight on that path). This crate
//! provides:
//!
//! * [`decompose`] — the bough decomposition of Lemma 7/8 (plus heavy-light
//!   as an ablation alternative): every root-to-leaf path intersects at most
//!   `log₂ n` decomposition paths.
//! * [`naive`] — a straightforward `O(depth)`-per-op oracle used by tests.
//! * [`seq`] — the sequential `Δ`-tree structure (§2.3): `O(log² n)` per
//!   operation, with **argmin tracking** used for witness extraction.
//! * [`batch`] — the batched engine (§3.1–3.2, Lemmas 5 & 6), one sweep
//!   ([`run_list_batch_with`]): records are counting-sorted into a leaf
//!   arena once per batch, and each tree node is one fused streaming merge
//!   of its children's runs, level by level.
//! * [`ops`] — the tree-level batch API (Lemma 9): decomposes a mixed
//!   `MinPath`/`AddPath` sequence onto the path lists and sweeps every
//!   list's batch back to back through one scratch
//!   ([`run_tree_batch_with`]); [`run_tree_batch_stats`] also counts the
//!   records Lemmas 5 and 9 bound.
//!
//! The batch engine has one implementation. [`naive`] and [`seq`] are the
//! independent oracles its tests compare against.
//!
//! Weight convention: weights are `i64`. Callers may use [`INF`] as a guard
//! value (the two-respect reduction masks vertices with `±INF`); all
//! structures guarantee no overflow as long as true weights stay below
//! [`MAX_ABS_WEIGHT`] and at most [`MAX_INF_STACK`] guards are live per
//! vertex.

pub mod batch;
pub mod decompose;
pub mod naive;
pub mod ops;
pub mod seq;

pub use batch::{run_list_batch_with, BatchStats, ListBatchScratch, PrefixOp};
pub use decompose::{Decomposition, Strategy};
pub use naive::{naive_bough_paths, NaiveMinPath};
pub use ops::{run_tree_batch_stats, run_tree_batch_with, TreeBatchScratch, TreeOp};
pub use seq::SeqMinPath;

/// Guard value used to mask vertices out of minimum queries.
pub const INF: i64 = 1 << 50;

/// Maximum absolute true weight supported without overflow.
pub const MAX_ABS_WEIGHT: i64 = 1 << 45;

/// Maximum number of simultaneously live `INF` guards per vertex.
pub const MAX_INF_STACK: i64 = 1 << 8;

/// Padding value for non-existent (power-of-two padding) list positions.
/// Strictly larger than any reachable weight, small enough that differences
/// of two in-range values never overflow `i64`.
pub(crate) const PAD: i64 = 1 << 56;
