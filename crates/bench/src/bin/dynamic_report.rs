//! E16 — incremental re-solve over the cached tree packing.
//!
//! Measures what the `update` verb saves: for a solved graph with a
//! cached [`SolveState`] snapshot, apply a seeded batch of single-edge
//! weight deltas and time the incremental path (delta classification +
//! re-sweep of invalidated trees over the pinned packing) against a full
//! from-scratch solve of the identical mutated graph through the paper
//! solver. Every trial asserts value parity between the two answers
//! before any timing is reported, and the full run asserts the headline
//! acceptance ratio: ≥ 5x median speedup for single-edge deltas at
//! n = 2048. Emits `BENCH_dynamic.json` alongside the stdout table.
//!
//! ```text
//! cargo run --release -p pmc-bench --bin dynamic_report [--quick] [--out FILE]
//! ```
//!
//! Deltas are weight *increases*, the service's steady-state churn shape
//! and the case the exact invalidation rule classifies per tree (a
//! decrease re-sweeps every pinned tree, and re-packs unless it lowers
//! the answer by as much as it removed). Each trial starts from a warm,
//! non-stale snapshot, which is exactly the cache's steady state.

use std::time::Instant;

use pmc_bench::report::{fixed, Report};
use pmc_bench::{header, row, solver, table1_graph, SolverConfig, SolverWorkspace};
use pmc_core::{apply_delta, MutationOp, ResolveMode, SolveState};
use pmc_graph::Graph;
use pmc_service::json::{self, Json};

struct Cell {
    n: usize,
    delta: usize,
    trials: usize,
    incremental_us: u128,
    scratch_us: u128,
    reswept_total: usize,
    repacks: usize,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.scratch_us as f64 / self.incremental_us.max(1) as f64
    }

    fn to_json(&self) -> Json {
        json::obj(vec![
            ("n", json::n(self.n as u64)),
            ("delta_edges", json::n(self.delta as u64)),
            ("trials", json::n(self.trials as u64)),
            ("incremental_us_median", json::n128(self.incremental_us)),
            ("scratch_us_median", json::n128(self.scratch_us)),
            ("speedup", fixed(self.speedup(), 3)),
            ("reswept_total", json::n(self.reswept_total as u64)),
            ("repacks", json::n(self.repacks as u64)),
        ])
    }
}

/// SplitMix64 step for the seeded delta batches.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batch of `delta` weight-increase ops on distinct random edges.
fn delta_batch(g: &Graph, delta: usize, rng: &mut u64) -> Vec<MutationOp> {
    let mut ops = Vec::with_capacity(delta);
    let mut used = vec![false; g.m()];
    while ops.len() < delta {
        let eid = (splitmix(rng) % g.m() as u64) as usize;
        if std::mem::replace(&mut used[eid], true) {
            continue;
        }
        let bump = 1 + splitmix(rng) % 4;
        ops.push(MutationOp::Reweight {
            eid: eid as u32,
            w: g.edges()[eid].w + bump,
        });
    }
    ops
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let report = Report::from_args(
        "dynamic_report",
        "dynamic_incremental_resolve",
        "median latency of the incremental update path (apply deltas + re-sweep invalidated trees over the pinned packing) vs a from-scratch paper solve of the identical mutated graph; value parity asserted per trial",
        "BENCH_dynamic.json",
    );
    let quick = report.quick;
    let trials = if quick { 3 } else { 7 };
    let sizes: &[usize] = if quick { &[256] } else { &[1024, 2048] };
    let deltas: &[usize] = if quick { &[1, 8] } else { &[1, 8, 64] };

    println!("# E16 — incremental re-solve vs from-scratch (paper solver)");
    println!();
    header(&[
        "n",
        "delta",
        "trials",
        "incremental us",
        "scratch us",
        "speedup",
        "reswept",
        "repacks",
    ]);

    let paper = solver("paper");
    let cfg = SolverConfig {
        seed: 0xC0FFEE,
        threads: Some(1),
        ..SolverConfig::default()
    };
    let mut cells: Vec<Cell> = Vec::new();
    for &n in sizes {
        let g = table1_graph(n, 3, 0xE16 + n as u64);
        let mut ws = SolverWorkspace::new();
        // The cached snapshot an `update` request finds: built once,
        // cloned (untimed) per trial — exactly the service's checkout.
        let base_state =
            SolveState::fresh(&g, cfg.seed, &mut ws, Some(1)).expect("base graph solves");
        for &delta in deltas {
            let mut rng = 0x5EED_0000 + (n as u64) * 31 + delta as u64;
            let mut inc_us: Vec<u128> = Vec::with_capacity(trials);
            let mut scr_us: Vec<u128> = Vec::with_capacity(trials);
            let mut reswept_total = 0usize;
            let mut repacks = 0usize;
            for _ in 0..trials {
                let ops = delta_batch(&g, delta, &mut rng);
                let mut gi = g.clone();
                let mut state = base_state.clone();
                let t = Instant::now();
                for op in &ops {
                    apply_delta(&mut gi, &mut state, op).expect("delta applies");
                }
                let mode = state
                    .resolve(&gi, &mut ws, Some(1))
                    .expect("incremental resolve");
                inc_us.push(t.elapsed().as_micros());
                match mode {
                    ResolveMode::Incremental { reswept } => reswept_total += reswept,
                    ResolveMode::Repack => repacks += 1,
                }
                let t = Instant::now();
                let scratch = paper
                    .solve_with(&gi, &cfg, &mut ws)
                    .expect("from-scratch solve");
                scr_us.push(t.elapsed().as_micros());
                // Value parity gates every timing: a fast wrong answer
                // must fail the report, not star in it.
                assert_eq!(
                    state.best().value,
                    scratch.value,
                    "incremental diverges from from-scratch at n={n} delta={delta}"
                );
            }
            cells.push(Cell {
                n,
                delta,
                trials,
                incremental_us: median(inc_us),
                scratch_us: median(scr_us),
                reswept_total,
                repacks,
            });
        }
    }

    for c in &cells {
        row(&[
            c.n.to_string(),
            c.delta.to_string(),
            c.trials.to_string(),
            c.incremental_us.to_string(),
            c.scratch_us.to_string(),
            format!("{:.2}x", c.speedup()),
            c.reswept_total.to_string(),
            c.repacks.to_string(),
        ]);
    }

    let headline = cells
        .iter()
        .find(|c| c.n == 2048 && c.delta == 1)
        .map(Cell::speedup);
    println!();
    if let Some(s) = headline {
        println!("single-edge delta speedup at n=2048: {s:.2}x");
    }

    report.write(vec![
        ("trials", json::n(trials as u64)),
        (
            "speedup_n2048_delta1",
            headline.map_or(Json::Null, |h| fixed(h, 3)),
        ),
        (
            "cells",
            json::arr(cells.iter().map(Cell::to_json).collect()),
        ),
    ]);

    if !quick {
        let s = headline.expect("full runs cover n=2048 delta=1");
        assert!(
            s >= 5.0,
            "acceptance: single-edge deltas must beat from-scratch by >= 5x at n=2048, got {s:.2}x"
        );
    }
}
