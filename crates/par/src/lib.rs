//! The workspace's one parallel runtime.
//!
//! The paper (Geissmann & Gianinazzi, SPAA 2018) is stated in the Work-Depth
//! model, and Theorem 10's parallelism is the `Θ(log n)` independent
//! Lemma 13 searches, one per packed tree (Karger, JACM 2000).
//! [`fanout_units`] runs such independent work units on scoped OS threads
//! over per-worker scratch states: the per-tree solver loop, suite cells and
//! pooled batches. Every other kernel runs on the calling thread.
//!
//! Everything is deterministic given fixed inputs; the worker count only
//! changes the execution schedule, never the results.

pub mod fanout;

pub use fanout::fanout_units;
