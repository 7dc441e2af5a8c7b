//! Deterministic fan-out of independent work units over per-worker states.
//!
//! This is the one place in the workspace that splits computation across
//! threads (`std::thread::scope`): the per-tree loop of the top-level
//! solver, the scenario suite's cell grid and pooled batch solving all run
//! on it. (The service's connection threads and the load generator's
//! client threads carry I/O, not a split of one computation.) Every caller
//! follows the same shape:
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

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run(state, unit)` for every `unit in 0..units`, fanning across
/// one OS worker thread per element of `states`; returns the results in
/// unit order.
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
    if units == 0 {
        return Vec::new();
    }
    assert!(!states.is_empty(), "fanout_units needs at least one state");
    let workers = states.len().min(units);
    if workers == 1 {
        let state = &mut states[0];
        return (0..units).map(|u| run(state, u)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut harvested: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states[..workers]
            .iter_mut()
            .map(|state| {
                let (cursor, run) = (&cursor, &run);
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let u = cursor.fetch_add(1, Ordering::Relaxed);
                        if u >= units {
                            break;
                        }
                        local.push((u, run(state, u)));
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

    // Reassemble in unit order.
    let mut out: Vec<Option<T>> = (0..units).map(|_| None).collect();
    for (u, t) in harvested.into_iter().flatten() {
        debug_assert!(out[u].is_none(), "unit {u} executed twice");
        out[u] = Some(t);
    }
    out.into_iter()
        .map(|slot| slot.expect("every unit executes exactly once"))
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
}
