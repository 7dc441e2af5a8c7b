//! PRAM-style parallel primitives on top of rayon's fork-join scheduler.
//!
//! The paper (Geissmann & Gianinazzi, SPAA 2018) is stated in the Work-Depth
//! model. Every primitive in this crate is a balanced divide-and-conquer
//! program whose computation DAG matches the asymptotic work and depth used
//! by the paper's lemmas:
//!
//! * [`scan`] — all-prefix-sums over an arbitrary monoid
//!   (`O(n)` work, `O(log n)` depth), used in Observation 3 and §3.1.3.
//! * [`seg`] — segmented broadcast (`O(n)` work, `O(log n)` depth),
//!   used to pair queries with the latest preceding `Δ` state (§3.2).
//! * [`merge`] — merging two sorted sequences (`O(n)` work, `O(log n)` depth
//!   span), used to combine per-child update/query arrays (Observation 2).
//! * [`list_rank`](mod@list_rank) — list ranking by pointer jumping plus a work-efficient
//!   blocked variant, used to order bough traversals (§4.2).
//! * [`random_mate`] — independent sets on chains for the Las Vegas bough
//!   contraction (Lemma 8).
//! * [`fanout`](mod@fanout) — deterministic OS-thread fan-out of independent
//!   work units over per-worker scratch states, optionally stopping at the
//!   first unit whose result meets a predicate; the coarse-grained
//!   parallelism layer (per-tree solver loop, suite cells, pooled batches).
//!
//! Everything is deterministic given fixed inputs (and a fixed seed where
//! randomness is involved); rayon only changes the execution schedule, never
//! the results.

pub mod coloring;
pub mod fanout;
pub mod list_rank;
pub mod merge;
#[cfg(test)]
mod proptests;
pub mod random_mate;
pub mod scan;
pub mod scratch;
pub mod seg;
pub mod sort;
pub mod util;

pub use coloring::{chain_independent_set_by_coloring, color3_chains};
pub use fanout::{fanout_units, fanout_units_until};
pub use list_rank::{list_rank, list_rank_blocked, list_rank_in, ListRankScratch};
pub use merge::{merge_by_key, merge_by_key_into, par_merge};
pub use random_mate::{chain_independent_set, chain_independent_set_in, MateScratch};
pub use scan::{
    exclusive_scan, exclusive_scan_with, inclusive_scan, inclusive_scan_in_place,
    inclusive_scan_in_place_with, Monoid,
};
pub use scratch::ParScratch;
pub use seg::segmented_broadcast;
pub use sort::{par_merge_sort, par_merge_sort_by_key, par_merge_sort_by_key_in};

/// Minimum slice length below which primitives fall back to the sequential
/// code path. Tuned so that per-task overhead stays negligible; correctness
/// never depends on this value.
pub const SEQ_THRESHOLD: usize = 1 << 12;
