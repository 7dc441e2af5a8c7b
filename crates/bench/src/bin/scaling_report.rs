//! E13 — end-to-end thread scaling of the solve pipeline.
//!
//! Sweeps graph family × problem size × thread budget for the paper
//! solver, whose per-tree two-respect loop fans out across OS workers
//! (`pmc_par::fanout_units`, the workspace's one parallel runtime) through
//! the per-worker `TreeArena`s of its `SolverWorkspace`, against the
//! sequential Stoer–Wagner oracle, and emits the machine-readable
//! `BENCH_scaling.json` committed at the repo root — the repo's
//! self-speedup and thread-scaling baseline.
//!
//! ```text
//! cargo run --release -p pmc-bench --bin scaling_report [--quick] [--out FILE]
//! ```
//!
//! The families are tori, hypercubes and 4-regular random graphs. Their
//! packings do not certify `λ` (EXPERIMENTS.md § E20), so every selected
//! tree is swept and the tree loop has `Θ(log n)` units to fan out. The
//! thread budgets alternate within each repetition, and each row is the
//! median of its repetitions.
//!
//! Two invariants are asserted on every row, not just reported:
//!
//! * the paper solver's cut **value is identical at every thread count**
//!   (the fan-out reduces by the deterministic `(value, tree index)` key);
//! * paper and Stoer–Wagner agree on every instance the oracle runs on.
//!
//! The `hardware_threads` field records how many hardware threads the
//! measuring machine actually exposed. Wall-clock speedup beyond that
//! number is physically impossible, so the sweep stops at 2 threads.

use std::time::Duration;

use pmc_bench::loadgen::hardware_threads;
use pmc_bench::report::{fixed, Report};
use pmc_bench::{header, row, solver, time_once, SolverConfig, SolverWorkspace};
use pmc_graph::{gen, Graph};
use pmc_service::json::{self, Json};

struct Row {
    graph: String,
    algo: &'static str,
    n: usize,
    m: usize,
    threads: usize,
    ns_per_solve: u128,
    speedup_vs_t1: f64,
    value: u64,
}

impl Row {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("graph", json::s(&self.graph)),
            ("algo", json::s(self.algo)),
            ("n", json::n(self.n as u64)),
            ("m", json::n(self.m as u64)),
            ("threads", json::n(self.threads as u64)),
            ("ns_per_solve", json::n128(self.ns_per_solve)),
            ("speedup_vs_t1", fixed(self.speedup_vs_t1, 3)),
            ("value", json::n(self.value)),
        ])
    }

    fn print(&self) {
        row(&[
            self.graph.clone(),
            self.algo.into(),
            self.n.to_string(),
            self.m.to_string(),
            self.threads.to_string(),
            self.ns_per_solve.to_string(),
            format!("{:.2}x", self.speedup_vs_t1),
        ]);
    }
}

/// The sweep's graphs with `n` vertices (`n` a power of 4).
fn family_graphs(n: usize) -> Vec<(String, Graph)> {
    let side = 1usize << (n.trailing_zeros() / 2);
    let d = n.trailing_zeros();
    vec![
        (format!("torus({side},{side})"), gen::torus(side, side)),
        (format!("hypercube({d})"), gen::hypercube(d)),
        (
            format!("random_regular({n},4)"),
            gen::random_regular(n, 4, 1),
        ),
    ]
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let report = Report::from_args(
        "scaling_report",
        "thread_scaling",
        "end-to-end solve wall time, graph family x size x thread budget, paper solver (per-tree OS-worker fan-out) vs sequential Stoer-Wagner",
        "BENCH_scaling.json",
    );
    let quick = report.quick;
    let reps = if quick { 3 } else { 7 };
    let sizes: &[usize] = if quick {
        &[64, 256]
    } else {
        &[256, 1024, 4096]
    };
    let threads = [1usize, 2];
    // Stoer–Wagner is Θ(n³); cap it so the sweep stays minutes, not hours.
    let sw_max_n = 1024;
    // The headline reads the large graphs, where a solve is long enough
    // for the fan-out to pay for its spawns.
    let headline_min_n = 1024.min(*sizes.last().unwrap());

    println!("# E13 — thread scaling, paper solver vs Stoer-Wagner");
    println!("# hardware threads: {}", hardware_threads());
    println!("# median of {reps} repetitions, thread budgets alternating");
    println!();
    header(&[
        "graph",
        "algo",
        "n",
        "m",
        "threads",
        "ns/solve",
        "speedup vs t=1",
    ]);

    let paper = solver("paper");
    let sw = solver("sw");
    let mut rows: Vec<Row> = Vec::new();
    let mut values_identical = true;

    for &n in sizes {
        for (name, g) in family_graphs(n) {
            // Exact reference value once per instance (bounded by sw_max_n).
            let sw_value = (n <= sw_max_n).then(|| {
                let (d, cut) = time_once(|| {
                    sw.solve_with(&g, &SolverConfig::default(), &mut SolverWorkspace::new())
                        .unwrap()
                });
                let sw_row = Row {
                    graph: name.clone(),
                    algo: "sw",
                    n,
                    m: g.m(),
                    threads: 1,
                    ns_per_solve: d.as_nanos(),
                    speedup_vs_t1: 1.0,
                    value: cut.value,
                };
                sw_row.print();
                rows.push(sw_row);
                cut.value
            });

            // One workspace per thread count, pre-grown by an untimed
            // solve so the timings reflect the steady serving state.
            let cfgs: Vec<SolverConfig> = threads
                .iter()
                .map(|&t| SolverConfig {
                    threads: Some(t),
                    ..SolverConfig::default()
                })
                .collect();
            let mut wss: Vec<SolverWorkspace> =
                threads.iter().map(|_| SolverWorkspace::new()).collect();
            let values: Vec<u64> = cfgs
                .iter()
                .zip(&mut wss)
                .map(|(cfg, ws)| paper.solve_with(&g, cfg, ws).unwrap().value)
                .collect();
            for (&t, &value) in threads.iter().zip(&values) {
                // Record divergence instead of aborting: the JSON must
                // still be written (with the flag false) so CI's check on
                // `identical_values_across_thread_counts` can actually
                // fail; the process exits non-zero after the report.
                if value != values[0] {
                    values_identical = false;
                    eprintln!(
                        "DIVERGENCE: {name} threads={t}: value {value} != {} at t=1",
                        values[0]
                    );
                }
                if let Some(sv) = sw_value {
                    assert_eq!(value, sv, "paper disagrees with Stoer-Wagner on {name}");
                }
            }

            let mut samples: Vec<Vec<Duration>> = vec![Vec::new(); threads.len()];
            for _ in 0..reps {
                for (k, (cfg, ws)) in cfgs.iter().zip(&mut wss).enumerate() {
                    let (d, cut) = time_once(|| paper.solve_with(&g, cfg, ws).unwrap());
                    std::hint::black_box(cut);
                    samples[k].push(d);
                }
            }
            let medians: Vec<Duration> = samples.into_iter().map(median).collect();
            for ((&t, &value), d) in threads.iter().zip(&values).zip(&medians) {
                let paper_row = Row {
                    graph: name.clone(),
                    algo: "paper",
                    n,
                    m: g.m(),
                    threads: t,
                    ns_per_solve: d.as_nanos(),
                    speedup_vs_t1: medians[0].as_nanos() as f64 / d.as_nanos().max(1) as f64,
                    value,
                };
                paper_row.print();
                rows.push(paper_row);
            }
        }
    }

    // Headline: the best 2-thread self-speedup on the large graphs.
    let (graph, n, speedup) = rows
        .iter()
        .filter(|r| r.algo == "paper" && r.threads == 2 && r.n >= headline_min_n)
        .map(|r| (r.graph.as_str(), r.n, r.speedup_vs_t1))
        .fold(("", 0, 0.0f64), |acc, x| if x.2 > acc.2 { x } else { acc });
    println!();
    println!(
        "identical cut values at every thread count: {values_identical}; \
         best 2-thread self-speedup at n >= {headline_min_n}: {speedup:.2}x ({graph})"
    );

    report.write(vec![
        ("reps", json::n(reps as u64)),
        (
            "identical_values_across_thread_counts",
            Json::Bool(values_identical),
        ),
        (
            "headline",
            json::obj(vec![
                ("threads", json::n(2)),
                ("n", json::n(n as u64)),
                ("graph", json::s(graph)),
                ("self_speedup", fixed(speedup, 3)),
            ]),
        ),
        ("rows", json::arr(rows.iter().map(Row::to_json).collect())),
    ]);
    assert!(
        values_identical,
        "cut values diverged across thread counts (see DIVERGENCE lines); report written"
    );
}
