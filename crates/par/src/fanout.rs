//! Deterministic fan-out of independent work units over per-worker states.
//!
//! This is the one place in the workspace that spawns real OS threads
//! (`std::thread::scope`), so coarse-grained parallelism — the per-tree
//! loop of the top-level solver, the scenario suite's cell grid, pooled
//! batch solving — works even on the sequential rayon stand-in. Every
//! caller follows the same shape:
//!
//! * one mutable **state** per worker (a scratch arena checked out from a
//!   pool), handed exclusively to that worker for the whole run;
//! * a shared atomic cursor over `0..units`, so workers self-balance
//!   across units of uneven cost;
//! * results returned **in unit order**, so reductions over the output are
//!   deterministic regardless of worker count or scheduling.
//!
//! With a single state (or a single unit) the fan-out degenerates to a
//! plain sequential loop — no threads, no atomics — which keeps small
//! inputs free of spawn overhead and makes "1 worker" bit-identical to
//! "k workers" by construction.
//!
//! [`fanout_units_until`] can also stop early: it returns the results of
//! the units up to and including the first one whose result satisfies a
//! predicate. That prefix is the same at every width, because the cursor
//! hands units out in index order:
//!
//! * a worker whose result satisfies the predicate publishes its unit
//!   with an atomic `fetch_min`, so the published stop only ever falls;
//! * no unit above the published stop starts. Every unit below the final
//!   stop `s` was handed out before `s` was (the cursor passed it), saw a
//!   stop of at least `s`, and so ran;
//! * hence `s` is the lowest satisfying unit of the whole range, and the
//!   output is exactly the sequential loop's `0..=s`. Units above `s`
//!   that were already in flight finish; their results are dropped.
//!
//! [`fanout_units`] is the case whose predicate never fires.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run(state, unit)` for every `unit in 0..units`, fanning across
/// one OS worker thread per element of `states`; returns the results in
/// unit order. This is [`fanout_units_until`] with a predicate that never
/// fires.
///
/// Workers pull unit indices from a shared cursor, so the assignment of
/// units to workers is scheduling-dependent — but each unit is executed
/// exactly once and the output ordering is fixed, so any deterministic
/// `run` yields a deterministic result vector. A panic in any unit is
/// propagated to the caller after the scope joins.
///
/// ```
/// let mut scratch = vec![0u64, 0]; // two workers, each with a counter
/// let squares = pmc_par::fanout_units(&mut scratch, 5, |count, u| {
///     *count += 1;
///     (u * u) as u64
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// assert_eq!(scratch.iter().sum::<u64>(), 5); // every unit ran once
/// ```
///
/// # Panics
/// Panics if `states` is empty and `units > 0`.
pub fn fanout_units<S, T, F>(states: &mut [S], units: usize, run: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    fanout_units_until(states, units, run, |_| false)
}

/// Runs `run(state, unit)` over `0..units` like [`fanout_units`], but
/// stops at the first unit whose result satisfies `stop`: returns the
/// results of units `0..=s` in unit order, where `s` is the lowest unit
/// with `stop(&result)`, or of every unit when none satisfies it.
///
/// The returned prefix does not depend on the worker count or on
/// scheduling (see the module docs). Units above `s` may still run, on
/// workers that took them before `s` was published, but none starts
/// after.
///
/// ```
/// let mut states = vec![(), ()];
/// let out = pmc_par::fanout_units_until(&mut states, 10, |_, u| u * u, |&sq| sq >= 20);
/// assert_eq!(out, vec![0, 1, 4, 9, 16, 25]);
/// ```
///
/// # Panics
/// Panics if `states` is empty and `units > 0`.
pub fn fanout_units_until<S, T, F, P>(states: &mut [S], units: usize, run: F, stop: P) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
    P: Fn(&T) -> bool + Sync,
{
    if units == 0 {
        return Vec::new();
    }
    assert!(!states.is_empty(), "fanout_units needs at least one state");
    let workers = states.len().min(units);
    if workers == 1 {
        let state = &mut states[0];
        let mut out = Vec::new();
        for u in 0..units {
            let t = run(state, u);
            let done = stop(&t);
            out.push(t);
            if done {
                break;
            }
        }
        return out;
    }

    let cursor = AtomicUsize::new(0);
    // The lowest unit seen to satisfy `stop`; `units` while none has.
    // Relaxed suffices for both atomics: they publish no other data (the
    // results travel through the joins), and the prefix argument in the
    // module docs needs only each atomic's own modification order.
    let first_stop = AtomicUsize::new(units);
    let mut harvested: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states[..workers]
            .iter_mut()
            .map(|state| {
                let (cursor, first_stop) = (&cursor, &first_stop);
                let (run, stop) = (&run, &stop);
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let u = cursor.fetch_add(1, Ordering::Relaxed);
                        if u >= units || u > first_stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let t = run(state, u);
                        if stop(&t) {
                            first_stop.fetch_min(u, Ordering::Relaxed);
                        }
                        local.push((u, t));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => harvested.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Reassemble the prefix `0..=s` in unit order.
    let len = first_stop.into_inner().saturating_add(1).min(units);
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (u, t) in harvested.into_iter().flatten() {
        if u < len {
            debug_assert!(out[u].is_none(), "unit {u} executed twice");
            out[u] = Some(t);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every unit up to the stop executes exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_units() {
        let mut states = vec![(), ()];
        let out: Vec<u32> = fanout_units(&mut states, 0, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_state_is_sequential() {
        let mut states = vec![Vec::new()];
        let out = fanout_units(&mut states, 4, |log: &mut Vec<usize>, u| {
            log.push(u);
            u * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(states[0], vec![0, 1, 2, 3]); // in-order execution
    }

    #[test]
    fn results_in_unit_order_regardless_of_workers() {
        for workers in [1usize, 2, 3, 8] {
            let mut states = vec![0u64; workers];
            let out = fanout_units(&mut states, 100, |_, u| u as u64 * 3);
            assert_eq!(out, (0..100).map(|u| u * 3).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let mut states = vec![0usize; 4];
        let _ = fanout_units(&mut states, 1000, |count, _| *count += 1);
        assert_eq!(states.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn more_workers_than_units() {
        let mut states = vec![0u8; 16];
        let out = fanout_units(&mut states, 3, |_, u| u);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn rejects_empty_states() {
        let mut states: Vec<()> = Vec::new();
        let _ = fanout_units(&mut states, 1, |_, u| u);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut states = vec![(), ()];
            let _ = fanout_units(&mut states, 8, |_, u| {
                assert!(u != 5, "boom at unit 5");
                u
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn stop_returns_the_prefix_through_the_first_hit_at_every_width() {
        // The predicate fires at units 37, 38, 60 and 99; the output is
        // always `0..=37`, whatever the width and the order units finish.
        let hits = [37usize, 38, 60, 99];
        for workers in [1usize, 2, 3, 8] {
            for _ in 0..20 {
                let mut ran = vec![Vec::new(); workers];
                let out = fanout_units_until(
                    &mut ran,
                    100,
                    |log: &mut Vec<usize>, u| {
                        log.push(u);
                        u
                    },
                    |u| hits.contains(u),
                );
                assert_eq!(out, (0..=37).collect::<Vec<_>>(), "{workers} workers");
                // Every unit of the prefix ran exactly once, and no unit
                // ran twice.
                let mut all: Vec<usize> = ran.concat();
                all.sort_unstable();
                assert_eq!(&all[..38], &out[..], "{workers} workers");
                assert!(all.windows(2).all(|w| w[0] < w[1]), "{workers} workers");
                if workers == 1 {
                    assert_eq!(all.len(), 38, "the sequential loop stops at the hit");
                }
            }
        }
    }

    #[test]
    fn a_unit_that_finished_above_the_stop_is_dropped() {
        // Unit 0 satisfies the predicate but cannot finish before unit 1
        // has run on another worker: the barrier forces unit 1 to be in
        // flight above the stop. Its result must still be dropped.
        for workers in [2usize, 3, 8] {
            let barrier = std::sync::Barrier::new(2);
            let mut ran = vec![Vec::new(); workers];
            let out = fanout_units_until(
                &mut ran,
                10,
                |log: &mut Vec<usize>, u| {
                    if u < 2 {
                        barrier.wait();
                    }
                    log.push(u);
                    u
                },
                |&u| u == 0,
            );
            assert_eq!(out, vec![0], "{workers} workers");
            assert!(ran.concat().contains(&1), "{workers} workers");
        }
    }

    #[test]
    fn stop_never_returns_a_unit_above_it() {
        // Unit 0 already satisfies the predicate: one result, at every
        // width, however many units the other workers had started.
        for workers in [1usize, 2, 3, 8] {
            let mut states = vec![(); workers];
            let out = fanout_units_until(&mut states, 50, |_, u| u, |_| true);
            assert_eq!(out, vec![0], "{workers} workers");
        }
        // A predicate that fires only on the last unit returns every unit.
        for workers in [1usize, 2, 3, 8] {
            let mut states = vec![(); workers];
            let out = fanout_units_until(&mut states, 50, |_, u| u, |&u| u == 49);
            assert_eq!(out, (0..50).collect::<Vec<_>>(), "{workers} workers");
        }
    }
}
