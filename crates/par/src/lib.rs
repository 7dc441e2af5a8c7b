//! The parallel primitives the minimum-cut pipeline calls.
//!
//! The paper (Geissmann & Gianinazzi, SPAA 2018) is stated in the Work-Depth
//! model. [`scan`] is the one fine-grained primitive: an all-prefix-sums of
//! `i64`s (`O(n)` work, `O(log n)` depth) on rayon's fork-join scheduler,
//! behind the Euler tour's subtree sums.
//!
//! [`fanout`](mod@fanout) is the coarse-grained layer: deterministic
//! OS-thread fan-out of independent work units over per-worker scratch
//! states, optionally stopping at the first unit whose result meets a
//! predicate (the per-tree solver loop, suite cells, pooled batches).
//!
//! Everything is deterministic given fixed inputs; rayon and the worker
//! count only change the execution schedule, never the results.

pub mod fanout;
#[cfg(test)]
mod proptests;
pub mod scan;

pub use fanout::{fanout_units, fanout_units_until};
pub use scan::inclusive_scan_in_place;

/// Minimum slice length below which primitives fall back to the sequential
/// code path. Tuned so that per-task overhead stays negligible; correctness
/// never depends on this value.
pub const SEQ_THRESHOLD: usize = 1 << 12;
