//! E13 — end-to-end thread scaling of the solve pipeline.
//!
//! Sweeps problem size × thread budget for the paper solver (whose
//! per-tree two-respect loop fans out across OS workers through the
//! per-worker `TreeArena`s of its `SolverWorkspace`) against the
//! sequential Stoer–Wagner oracle, and emits the machine-readable
//! `BENCH_scaling.json` committed at the repo root — the repo's
//! self-speedup and thread-scaling baseline.
//!
//! ```text
//! cargo run --release -p pmc-bench --bin scaling_report [--quick] [--out FILE]
//! ```
//!
//! Two invariants are asserted on every row, not just reported:
//!
//! * the paper solver's cut **value is identical at every thread count**
//!   (the fan-out reduces by the deterministic `(value, tree index)` key);
//! * paper and Stoer–Wagner agree on every instance.
//!
//! The `hardware_threads` field records how many hardware threads the
//! measuring machine actually exposed. Wall-clock speedup beyond that
//! number is physically impossible — on a single-core container the sweep
//! degenerates into an overhead measurement (ratios ≈ 1.0), and the
//! committed JSON is honest about it rather than synthesizing scaling.

use pmc_bench::loadgen::hardware_threads;
use pmc_bench::report::{fixed, Report};
use pmc_bench::{header, row, solver, time_best, SolverConfig, SolverWorkspace};
use pmc_graph::gen;
use pmc_service::json::{self, Json};

struct Row {
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
            ("algo", json::s(self.algo)),
            ("n", json::n(self.n as u64)),
            ("m", json::n(self.m as u64)),
            ("threads", json::n(self.threads as u64)),
            ("ns_per_solve", json::n128(self.ns_per_solve)),
            ("speedup_vs_t1", fixed(self.speedup_vs_t1, 3)),
            ("value", json::n(self.value)),
        ])
    }
}

fn main() {
    let report = Report::from_args(
        "scaling_report",
        "thread_scaling",
        "end-to-end solve wall time, problem size x thread budget, paper solver (per-tree OS-worker fan-out) vs sequential Stoer-Wagner",
        "BENCH_scaling.json",
    );
    let quick = report.quick;
    let reps = if quick { 2 } else { 3 };
    let sizes: &[usize] = if quick {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    // Stoer–Wagner is Θ(n³); cap it so the sweep stays minutes, not hours.
    let sw_max_n = if quick { 256 } else { 1024 };

    println!("# E13 — thread scaling, paper solver vs Stoer-Wagner");
    println!("# hardware threads: {}", hardware_threads());
    println!();
    header(&["algo", "n", "m", "threads", "ns/solve", "speedup vs t=1"]);

    let paper = solver("paper");
    let sw = solver("sw");
    let mut rows: Vec<Row> = Vec::new();
    let mut values_identical = true;

    for &n in sizes {
        let g = gen::gnm_connected(n, 3 * n, 8, n as u64);
        // Exact reference value once per instance (bounded by sw_max_n).
        let sw_value = (n <= sw_max_n).then(|| {
            let cfg = SolverConfig::default();
            let mut ws = SolverWorkspace::new();
            let value = sw.solve_with(&g, &cfg, &mut ws).unwrap().value;
            let d = time_best(reps, || {
                std::hint::black_box(sw.solve_with(&g, &cfg, &mut ws).unwrap());
            });
            rows.push(Row {
                algo: "sw",
                n,
                m: g.m(),
                threads: 1,
                ns_per_solve: d.as_nanos(),
                speedup_vs_t1: 1.0,
                value,
            });
            row(&[
                "sw".into(),
                n.to_string(),
                g.m().to_string(),
                "1".into(),
                d.as_nanos().to_string(),
                "1.00x".into(),
            ]);
            value
        });

        let mut t1_ns: Option<u128> = None;
        let mut first_value: Option<u64> = None;
        for &t in threads {
            let cfg = SolverConfig {
                threads: Some(t),
                ..SolverConfig::default()
            };
            // One workspace per thread count, pre-grown by an untimed
            // solve so the timings reflect the steady serving state.
            let mut ws = SolverWorkspace::new();
            let value = paper.solve_with(&g, &cfg, &mut ws).unwrap().value;
            if let Some(v0) = first_value {
                // Record divergence instead of aborting: the JSON must
                // still be written (with the flag false) so CI's check on
                // `identical_values_across_thread_counts` can actually
                // fail; the process exits non-zero after the report.
                if v0 != value {
                    values_identical = false;
                    eprintln!("DIVERGENCE: n={n} threads={t}: value {value} != {v0} at t=1");
                }
            }
            first_value = Some(value);
            if let Some(sv) = sw_value {
                assert_eq!(value, sv, "paper disagrees with Stoer-Wagner at n={n}");
            }
            let d = time_best(reps, || {
                std::hint::black_box(paper.solve_with(&g, &cfg, &mut ws).unwrap());
            });
            let base = *t1_ns.get_or_insert(d.as_nanos());
            let speedup = base as f64 / d.as_nanos().max(1) as f64;
            rows.push(Row {
                algo: "paper",
                n,
                m: g.m(),
                threads: t,
                ns_per_solve: d.as_nanos(),
                speedup_vs_t1: speedup,
                value,
            });
            row(&[
                "paper".into(),
                n.to_string(),
                g.m().to_string(),
                t.to_string(),
                d.as_nanos().to_string(),
                format!("{speedup:.2}x"),
            ]);
        }
    }

    // Headline: best paper self-speedup at the widest budget, restricted
    // to sizes where the fan-out actually engages (graphs under the gate
    // run byte-identical sequential code at every budget, so their ratios
    // are pure timing noise, not speedup). The gate tests the
    // certificate-sparsified edge count; for these sparse gnm instances
    // the certificate only applies when it shrinks the graph, and every
    // above-gate sweep size clears the threshold with 3x headroom.
    let max_threads = *threads.last().unwrap();
    let headline = rows
        .iter()
        .filter(|r| {
            r.algo == "paper" && r.threads == max_threads && r.m >= pmc_core::PAR_TREES_MIN_EDGES
        })
        .map(|r| (r.n, r.speedup_vs_t1))
        .fold((0usize, 0.0f64), |acc, x| if x.1 > acc.1 { x } else { acc });
    println!();
    println!(
        "identical cut values at every thread count: {values_identical}; \
         best {max_threads}-thread self-speedup above the fan-out gate: {:.2}x (n={})",
        headline.1, headline.0
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
                ("threads", json::n(max_threads as u64)),
                ("n", json::n(headline.0 as u64)),
                ("self_speedup", fixed(headline.1, 3)),
            ]),
        ),
        ("rows", json::arr(rows.iter().map(Row::to_json).collect())),
    ]);
    assert!(
        values_identical,
        "cut values diverged across thread counts (see DIVERGENCE lines); report written"
    );
}
