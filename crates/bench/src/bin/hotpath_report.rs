//! E15 — flat u32 arenas on the two-respect hot path.
//!
//! Microbenches the three hot phases of the Lemma 13 per-tree loop
//! separately — bough decomposition, the batched MinPrefix/AddPrefix
//! sweep, and greedy tree packing — pitting each flat-arena path against
//! its retained reference implementation, plus the end-to-end paper
//! solver (a reference composition of the allocating engines vs the
//! arena `solve_with`). Emits a machine-readable `BENCH_hotpath.json`
//! alongside the stdout table so CI and future PRs can diff the
//! per-phase ratios.
//!
//! ```text
//! cargo run --release -p pmc-bench --bin hotpath_report [--quick] [--out FILE]
//! ```
//!
//! Reference sides ("before"):
//! * decompose — `naive_bough_paths`, the nested-`Vec` one-vertex-at-a-time
//!   peel retained in `pmc-minpath::naive` (also the property-test oracle).
//! * sweep — `run_tree_batch`, the allocating per-node reference sweep, on
//!   two workloads: random mixed ops on a table-1 spanning tree, and a
//!   replay of every batch a full 2-respect search of the packed trees
//!   generates on a community ring (the `solve-community` shape: every
//!   bough phase, both the incomparable and the ancestor batch; a small
//!   ring under `--quick`). The packing certifies the ring, so that is one
//!   tree, which the solver itself answers from its 1-respecting cuts.
//! * pack — `pack_trees`, which builds a fresh `PackScratch` per call.
//! * solve — the certificate → packing → per-tree 2-respect pipeline
//!   recomposed from the allocating engines above (same seed wiring as
//!   the paper solver), fresh buffers per request, one worker each side.
//!   Like the solver, it sweeps the trees in order, stops at the first
//!   cut that meets the packing's `cut_lower_bound`, and answers a tree
//!   by its best 1-respecting cut, with no bough cascade, when that cut
//!   meets the bound, so both sides do the same work and the ratio
//!   measures only the arena layout. The inputs are tori of 1,024 and
//!   2,048 vertices (64 under `--quick`), whose packings never certify: a
//!   torus packs at most `m / (n − 1) ≈ 2` against `λ = 4`, and its floor
//!   is 2. So both sides pack, then root and sweep every selected tree
//!   through its bough cascade, where the arenas are.
//!
//! Every pair is asserted bit-identical before it is timed. The JSON
//! records `hardware_threads`; every timed side runs on one thread.

use std::time::Duration;

use pmc_bench::loadgen::hardware_threads;
use pmc_bench::report::{fixed, Report};
use pmc_bench::{
    arbitrary_spanning_tree, header, random_tree_ops, row, solver, table1_graph, time_pair,
    SolverConfig, SolverWorkspace,
};
use pmc_core::gen_ops::{gen_ancestor, gen_incomparable, GenBatch};
use pmc_core::phases::{build_phases, Phase};
use pmc_core::two_respect_mincut;
use pmc_graph::{best_one_respect, mincut_certificate, one_respect_cuts};
use pmc_minpath::{
    decompose::{Decomposition, Strategy},
    naive_bough_paths, run_tree_batch, run_tree_batch_with, TreeBatchScratch,
};
use pmc_packing::{
    pack_trees, pack_trees_with, rooted_tree_from_edges, PackScratch, PackingConfig,
};
use pmc_service::json::{self, Json};

struct Measurement {
    phase: &'static str,
    name: String,
    n: usize,
    before_label: &'static str,
    before_ns: u128,
    after_ns: u128,
}

impl Measurement {
    fn ratio(&self) -> f64 {
        self.before_ns as f64 / self.after_ns.max(1) as f64
    }

    fn to_json(&self) -> Json {
        json::obj(vec![
            ("phase", json::s(self.phase)),
            ("name", json::s(self.name.as_str())),
            ("n", json::n(self.n as u64)),
            ("before_label", json::s(self.before_label)),
            ("before_ns_per_op", json::n128(self.before_ns)),
            ("flat_ns_per_op", json::n128(self.after_ns)),
            ("ratio", fixed(self.ratio(), 3)),
        ])
    }
}

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

fn main() {
    let report = Report::from_args(
        "hotpath_report",
        "hotpath_flat_arenas",
        "per-phase ns/op of the flat u32 arena hot path vs its retained reference implementations, plus end-to-end solve",
        "BENCH_hotpath.json",
    );
    let quick = report.quick;
    let rounds = if quick { 2 } else { 7 };
    let phase_sizes: &[usize] = if quick { &[64] } else { &[256, 1024] };
    // `torus(rows, cols)`: uncertified inputs, so the solve pair sweeps.
    let solve_sizes: &[(usize, usize)] = if quick {
        &[(8, 8)]
    } else {
        &[(32, 32), (32, 64)]
    };
    // `community_ring(communities, size, 4, seed)`: the solve-community
    // workload's ring, and a 128-vertex one for the CI smoke run.
    let ring: (usize, usize) = if quick { (4, 32) } else { (32, 64) };

    println!("# E15 — flat u32 arenas on the two-respect hot path");
    println!();
    header(&[
        "phase",
        "workload",
        "n",
        "before",
        "before ns/op",
        "flat ns/op",
        "ratio",
    ]);

    let mut ms: Vec<Measurement> = Vec::new();

    // --- decompose: nested-Vec naive peel vs flat CSR arena ----------------
    for &n in phase_sizes {
        let g = table1_graph(n, 3, 42 + n as u64);
        let tree = arbitrary_spanning_tree(&g, 7);
        // Guard: identical paths and phases.
        let d = Decomposition::new(&tree, Strategy::BoughWalk);
        let want = naive_bough_paths(&tree);
        assert_eq!(d.npaths(), want.len(), "decompose divergence");
        for (pid, (path, phase)) in want.iter().enumerate() {
            assert_eq!(d.path(pid as u32), &path[..]);
            assert_eq!(d.phase_of_path(pid as u32), *phase);
        }
        let (before, after) = time_pair(
            rounds,
            || std::hint::black_box(naive_bough_paths(&tree)),
            || std::hint::black_box(Decomposition::new(&tree, Strategy::BoughWalk)),
        );
        ms.push(Measurement {
            phase: "decompose",
            name: format!("bough_walk_n{n}"),
            n,
            before_label: "naive_nested",
            before_ns: ns(before),
            after_ns: ns(after),
        });
    }

    // --- sweep: allocating per-node reference vs flat level arenas ---------
    for &n in phase_sizes {
        let g = table1_graph(n, 3, 43 + n as u64);
        let tree = arbitrary_spanning_tree(&g, 9);
        let d = Decomposition::new(&tree, Strategy::BoughWalk);
        let init: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 1000 - 500).collect();
        let ops = random_tree_ops(n, 4 * n, 11);
        let mut ws = TreeBatchScratch::default();
        let want = run_tree_batch(&tree, &d, &init, &ops);
        let got = run_tree_batch_with(&tree, &d, &init, &ops, &mut ws);
        assert_eq!(got, want, "sweep divergence");
        let (before, after) = time_pair(
            rounds,
            || std::hint::black_box(run_tree_batch(&tree, &d, &init, &ops)),
            || std::hint::black_box(run_tree_batch_with(&tree, &d, &init, &ops, &mut ws)),
        );
        ms.push(Measurement {
            phase: "sweep",
            name: format!("tree_batch_n{n}_k{}", 4 * n),
            n,
            before_label: "allocating",
            before_ns: ns(before),
            after_ns: ns(after),
        });
    }

    // --- sweep: replay of the solver's own batches on a community ring ----
    {
        let (communities, size) = ring;
        let n = communities * size;
        let phases = solver_batches(communities, size);
        let nbatches: usize = phases.iter().map(|(_, bs)| bs.len()).sum();
        let ops: usize = phases
            .iter()
            .flat_map(|(_, bs)| bs)
            .map(|b| b.ops.len())
            .sum();
        let run_reference = || -> Vec<Vec<i64>> {
            let mut out = Vec::new();
            for (p, bs) in &phases {
                for b in bs {
                    out.push(run_tree_batch(&p.tree, &p.decomp, &b.init, &b.ops));
                }
            }
            out
        };
        let mut ws = TreeBatchScratch::default();
        let mut run_flat = || -> Vec<Vec<i64>> {
            let mut out = Vec::new();
            for (p, bs) in &phases {
                for b in bs {
                    out.push(run_tree_batch_with(
                        &p.tree, &p.decomp, &b.init, &b.ops, &mut ws,
                    ));
                }
            }
            out
        };
        assert_eq!(run_flat(), run_reference(), "solver-batch sweep divergence");
        let (before, after) = time_pair(
            rounds,
            || std::hint::black_box(run_reference()),
            || std::hint::black_box(run_flat()),
        );
        ms.push(Measurement {
            phase: "sweep",
            name: format!("solver_batches_ring{communities}x{size}_b{nbatches}_k{ops}"),
            n,
            before_label: "allocating",
            before_ns: ns(before),
            after_ns: ns(after),
        });
    }

    // --- pack: fresh scratch per call vs reused arena ----------------------
    for &n in phase_sizes {
        let g = table1_graph(n, 3, 44 + n as u64);
        let pcfg = PackingConfig::default();
        let mut ws = PackScratch::new();
        let want = pack_trees(&g, &pcfg);
        let got = pack_trees_with(&g, &pcfg, &mut ws);
        assert_eq!(got.trees, want.trees, "pack divergence");
        let (before, after) = time_pair(
            rounds,
            || std::hint::black_box(pack_trees(&g, &pcfg)),
            || std::hint::black_box(pack_trees_with(&g, &pcfg, &mut ws)),
        );
        ms.push(Measurement {
            phase: "pack",
            name: format!("pack_trees_n{n}"),
            n,
            before_label: "allocating",
            before_ns: ns(before),
            after_ns: ns(after),
        });
    }

    // --- end-to-end: reference engine composition vs workspace solve_with --
    //
    // `solve_with` runs the entire flat-arena pipeline. The "before" side
    // recomposes the identical pipeline (certificate → packing → per-tree
    // 2-respect up to the first cut that meets the packing's lower bound,
    // same seed wiring as `paper_config`) from the retained allocating
    // reference engines, so the ratio measures the arena pass end to end.
    // Both sides are pinned to one worker: the reference loop is
    // sequential, and an OS-worker fan-out on the flat side would conflate
    // scheduling with layout.
    let cfg = SolverConfig {
        threads: Some(1),
        ..SolverConfig::default()
    };
    let s = solver("paper");
    let mut solve_heap_bytes = 0usize;
    for &(rows, cols) in solve_sizes {
        let n = rows * cols;
        let g = pmc_graph::gen::torus(rows, cols);
        let mut ws = SolverWorkspace::new();
        let reference_solve = |g: &pmc_graph::Graph| -> u64 {
            let cert = mincut_certificate(g);
            let wg = cert.as_ref().map_or(g, |c| &c.graph);
            let mut pcfg = PackingConfig::default();
            pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
            let packing = pack_trees(wg, &pcfg);
            let bound = packing.cut_lower_bound as i64;
            let mut best = i64::MAX;
            for te in &packing.trees {
                let t = rooted_tree_from_edges(wg, te, 0);
                let one = best_one_respect(&one_respect_cuts(wg, &t), &t).map(|(v, _)| v);
                let cut = match one {
                    Some(v) if v <= bound => v,
                    _ => two_respect_mincut(wg, &t).value,
                };
                best = best.min(cut);
                if best <= bound {
                    break;
                }
            }
            assert!(best < i64::MAX, "packing returned no trees");
            best as u64
        };
        let want = reference_solve(&g);
        let got = s.solve_with(&g, &cfg, &mut ws).expect("solve_with failed");
        assert_eq!(got.value, want, "solve divergence");
        let (before, after) = time_pair(
            rounds,
            || std::hint::black_box(reference_solve(&g)),
            || std::hint::black_box(s.solve_with(&g, &cfg, &mut ws).unwrap()),
        );
        solve_heap_bytes = solve_heap_bytes.max(ws.heap_bytes());
        ms.push(Measurement {
            phase: "solve",
            name: format!("paper_torus{rows}x{cols}"),
            n,
            before_label: "reference_engines",
            before_ns: ns(before),
            after_ns: ns(after),
        });
    }

    for m in &ms {
        row(&[
            m.phase.to_string(),
            m.name.clone(),
            m.n.to_string(),
            m.before_label.to_string(),
            m.before_ns.to_string(),
            m.after_ns.to_string(),
            format!("{:.2}x", m.ratio()),
        ]);
    }

    let min_solve_ratio = ms
        .iter()
        .filter(|m| m.phase == "solve")
        .map(Measurement::ratio)
        .fold(f64::INFINITY, f64::min);
    println!();
    println!("min end-to-end solve ratio: {min_solve_ratio:.2}x");
    println!("steady-state workspace heap: {solve_heap_bytes} bytes");
    println!("hardware threads: {}", hardware_threads());

    report.write(vec![
        ("rounds", json::n(rounds as u64)),
        ("min_solve_ratio", fixed(min_solve_ratio, 3)),
        (
            "steady_state_workspace_heap_bytes",
            json::n(solve_heap_bytes as u64),
        ),
        (
            "phases",
            json::arr(ms.iter().map(Measurement::to_json).collect()),
        ),
    ]);
}

/// Every non-empty MinPath batch a full 2-respect search of the packed
/// trees of `community_ring(communities, size, 4, 1)` runs, grouped by
/// bough phase: the certificate graph's packed trees (default packing
/// config), each tree's phases, and per phase its incomparable and
/// ancestor batches.
fn solver_batches(communities: usize, size: usize) -> Vec<(Phase, Vec<GenBatch>)> {
    let (g, _) = pmc_graph::gen::community_ring(communities, size, 4, 1);
    let cert = mincut_certificate(&g);
    let wg = cert.as_ref().map_or(&g, |c| &c.graph);
    let packing = pack_trees(wg, &PackingConfig::default());
    packing
        .trees
        .iter()
        .flat_map(|te| build_phases(wg, &rooted_tree_from_edges(wg, te, 0)))
        .map(|phase| {
            let batches = [gen_incomparable(&phase), gen_ancestor(&phase)]
                .into_iter()
                .filter(|b| !b.ops.is_empty())
                .collect();
            (phase, batches)
        })
        .collect()
}
