//! The parallel primitives the minimum-cut pipeline calls.
//!
//! The paper (Geissmann & Gianinazzi, SPAA 2018) is stated in the Work-Depth
//! model. The fine-grained primitives are balanced divide-and-conquer
//! programs on rayon's fork-join scheduler whose computation DAG matches
//! the work and depth the paper's lemmas use; they serve the Euler-tour
//! subtree sums and the allocating reference MinPath sweep (§3.1–3.2):
//!
//! * [`scan`] — all-prefix-sums over a monoid (`O(n)` work, `O(log n)`
//!   depth), used in Observation 3 and §3.1.3.
//! * [`seg`] — segmented broadcast (`O(n)` work, `O(log n)` depth), used to
//!   pair queries with the latest preceding `Δ` state (§3.2).
//! * [`merge`] — merging two sequences sorted by a key (`O(n)` work,
//!   `O(log n)` depth), used to combine per-child update/query arrays
//!   (Observation 2).
//!
//! [`fanout`](mod@fanout) is the coarse-grained layer: deterministic
//! OS-thread fan-out of independent work units over per-worker scratch
//! states, optionally stopping at the first unit whose result meets a
//! predicate (the per-tree solver loop, suite cells, pooled batches).
//!
//! Everything is deterministic given fixed inputs; rayon and the worker
//! count only change the execution schedule, never the results.

pub mod fanout;
pub mod merge;
#[cfg(test)]
mod proptests;
pub mod scan;
pub mod seg;

pub use fanout::{fanout_units, fanout_units_until};
pub use merge::merge_by_key;
pub use scan::{inclusive_scan_in_place, inclusive_scan_in_place_with, Monoid};
pub use seg::segmented_broadcast;

/// Minimum slice length below which primitives fall back to the sequential
/// code path. Tuned so that per-task overhead stays negligible; correctness
/// never depends on this value.
pub const SEQ_THRESHOLD: usize = 1 << 12;
