//! The solve workloads (`solve-sparse`, `solve-community`) and the solver
//! stage metrics every traced run reports.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pmc_core::{solver_by_name, MinCutSolver, SolverConfig, SolverWorkspace, TreeArena};
use pmc_graph::{io, Graph};

use crate::compose::{self, Composed, SolveCounts};
use crate::script::probe_script;
use crate::serve::{service_layers, work_dir};
use crate::stats::{mean, median, peak_rss_mb, Report};
use crate::trace::{self_times, Tracer};
use crate::Args;

/// Thread budget of every solve; the benchmark uses at most two hardware
/// threads.
pub const SOLVE_THREADS: usize = 2;
/// Times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A solve workload's input: the graph as DIMACS text (what a one-shot
/// `pmc mincut` reads), its exact minimum cut, and a witness side of a
/// cut with that value.
pub struct Instance {
    pub text: Vec<u8>,
    pub lambda: u64,
    pub witness: Vec<bool>,
}

/// `solve-sparse`: `gnm_connected(4096, 16384, 8, ·)`, redrawn until its
/// lightest single-vertex cut is 1. On a connected integer-weighted graph
/// that makes the minimum cut exactly 1 with the light vertex as witness.
/// `solve-community`: `community_ring(32, 64, 4, seed)`, whose minimum cut
/// is 2 by construction (a community's two bridges; every other cut
/// crosses an inner ring of weight-4 edges twice).
pub fn instance(workload: &str, seed: u64) -> Instance {
    let (g, lambda, witness) = match workload {
        "solve-sparse" => (0u64..)
            .map(|k| {
                pmc_graph::gen::gnm_connected(
                    4096,
                    16384,
                    8,
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k),
                )
            })
            .find(|g| g.min_weighted_degree() == 1)
            .map(|g| {
                let light = (0..g.n() as u32)
                    .find(|&v| g.weighted_degree(v) == 1)
                    .expect("a vertex has the minimum degree");
                let witness = (0..g.n() as u32).map(|v| v == light).collect();
                (g, 1, witness)
            })
            .expect("some draw has a weight-1 leaf"),
        "solve-community" => {
            let (g, label) = pmc_graph::gen::community_ring(32, 64, 4, seed);
            (g, 2, label.iter().map(|&l| l == 0).collect())
        }
        other => unreachable!("not a solve workload: {other}"),
    };
    let mut text = Vec::new();
    io::write_dimacs(&g, &mut text).expect("in-memory DIMACS write");
    Instance {
        text,
        lambda,
        witness,
    }
}

/// The solver seed of measured solve `i`: a fresh seed per solve, so a
/// run's median averages over the solver's randomness.
fn solve_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ 0x736f_6c76_6573_6565 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn config(seed: u64, threads: usize) -> SolverConfig {
    SolverConfig {
        threads: Some(threads),
        ..SolverConfig::with_seed(seed)
    }
}

fn parse(text: &[u8]) -> Graph {
    io::read_dimacs(text).expect("generated DIMACS parses")
}

/// Set-up as a one-shot `pmc mincut` pays it, repeated [`SETUP_REPS`]
/// times: parse the input, then two warm-up solves, the first on a cold
/// workspace. Returns the parsed graph, the warm workspace and the median
/// set-up times; checks both warm-up answers.
fn setup(
    inst: &Instance,
    solver: &dyn MinCutSolver,
    report: &mut Report,
) -> (Graph, SolverWorkspace, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS as u64 {
        let t = Instant::now();
        let g = parse(&inst.text);
        let mut ws = SolverWorkspace::new();
        for k in 0..2 {
            let cfg = config(solve_seed(u64::MAX - rep, k), SOLVE_THREADS);
            let r = solver.solve_with(&g, &cfg, &mut ws).expect("warm-up solve");
            report.check(r.value == inst.lambda);
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some((g, ws));
    }
    let (g, ws) = last.expect("at least one set-up");
    (g, ws, times)
}

/// The untraced run: repeated solves on a warm workspace for the run's
/// duration; every answer must equal the known minimum cut.
pub fn run(args: &Args) -> Report {
    let inst = instance(&args.workload, args.seed);
    let solver = solver_by_name("paper").expect("paper solver is registered");
    let mut report = Report::default();
    let (g, mut ws, setup_s) = setup(&inst, solver.as_ref(), &mut report);
    let mut ms = Vec::new();
    let deadline = Instant::now() + args.seconds;
    for i in 0.. {
        if Instant::now() >= deadline && ms.len() >= 5 {
            break;
        }
        let cfg = config(solve_seed(args.seed, i), SOLVE_THREADS);
        let t0 = Instant::now();
        let r = std::hint::black_box(solver.solve_with(&g, &cfg, &mut ws).expect("solve"));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.check(r.value == inst.lambda);
    }
    crate::end_to_end(
        args,
        &mut report,
        &ms,
        &setup_s,
        peak_rss_mb("self").expect("VmHWM of this process"),
    );
    report
}

/// The traced run: parse and solve the same input through the composed,
/// traced pipeline (each answer checked bit-identical to the solver seam
/// on the same seed), time the per-tree loop at one and two workers, then
/// probe the service layers with a short session on the same graph.
pub fn run_traced(args: &Args) -> Report {
    let inst = instance(&args.workload, args.seed);
    let solver = solver_by_name("paper").expect("paper solver is registered");
    let mut report = Report::default();
    let tracer = Tracer::default();
    let (g, mut ws, _) = setup(&inst, solver.as_ref(), &mut report);

    let parse_ms: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            tracer.root(0).span("graph.parse", |_| parse(&inst.text));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Half the run composes solves; the service probe takes the rest. The
    // composition's workspace is warmed first, like the seam's.
    let mut composed_ws = SolverWorkspace::new();
    let warm = config(solve_seed(args.seed, 0), SOLVE_THREADS);
    compose::solve(&g, &warm, &mut composed_ws, Tracer::default().root(0));
    let deadline = Instant::now() + args.seconds / 2;
    let mut traced = Vec::new();
    for i in 1.. {
        if Instant::now() >= deadline && traced.len() >= 2 {
            break;
        }
        let cfg = config(solve_seed(args.seed, i), SOLVE_THREADS);
        traced.push(trace_one(
            &g,
            &cfg,
            solver.as_ref(),
            &mut ws,
            &mut composed_ws,
            &tracer,
            i,
            &mut report,
        ));
    }
    stage_metrics(&tracer, &traced, &parse_ms, &mut report);

    let work = work_dir(&args.work).expect("create the run directory");
    let probe = probe_script(&g, inst.lambda, &inst.witness, args.seed, 2);
    service_layers(
        &args.pmc,
        &work,
        &[probe],
        None,
        Duration::from_secs(3600),
        &mut report,
    )
    .expect("service probe");
    std::fs::remove_dir_all(&work).expect("remove the run directory");
    write_trace(&tracer, args);
    report
}

/// What one traced solve contributes to the stage metrics.
pub struct TracedSolve {
    pub req: u64,
    pub counts: SolveCounts,
    /// Untraced `solve_with` wall time of the same solve.
    pub untraced_ms: f64,
    /// The per-tree loop at one and at two workers.
    pub t1_ms: f64,
    pub t2_ms: f64,
}

/// Solves once through the solver seam (timed, untraced) and once through
/// the traced composition, checks the answers are bit-identical, then
/// times the per-tree loop over the packed trees at one and two workers.
#[allow(clippy::too_many_arguments)]
pub fn trace_one(
    g: &Graph,
    cfg: &SolverConfig,
    solver: &dyn MinCutSolver,
    ws: &mut SolverWorkspace,
    composed_ws: &mut SolverWorkspace,
    tracer: &Tracer,
    req: u64,
    report: &mut Report,
) -> TracedSolve {
    let t = Instant::now();
    let want = solver.solve_with(g, cfg, ws).expect("solve");
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    let Composed {
        result,
        counts,
        trees,
        on_certificate,
    } = compose::solve(g, cfg, composed_ws, tracer.root(req));
    let same = compose::same_answer(&result, &want);
    if !same {
        eprintln!("perfbench: composed solve {req} differs from the solver seam");
    }
    report.check(same);

    let work = if on_certificate {
        composed_ws.cert_graph.clone().expect("certificate graph")
    } else {
        g.clone()
    };
    let arenas = composed_ws.tree_arenas(2);
    let loop_ms = |arenas: &mut [TreeArena]| {
        let t = Instant::now();
        std::hint::black_box(compose::tree_loop(&work, &trees, arenas));
        t.elapsed().as_secs_f64() * 1e3
    };
    let t1_ms = loop_ms(&mut arenas[..1]);
    let t2_ms = loop_ms(arenas);
    TracedSolve {
        req,
        counts,
        untraced_ms,
        t1_ms,
        t2_ms,
    }
}

/// Stages inside the per-tree loop; they run on the fan-out's workers.
const IN_LOOP: [&str; 7] = [
    "core.tree",
    "packing.root",
    "core.two_respect",
    "core.phases",
    "minpath.decompose",
    "core.gen_ops",
    "minpath.sweep",
];

/// Reports the solver stage metrics of the traced solves.
///
/// A stage's time is its self time summed over its spans in one solve,
/// averaged over the traced solves; stages inside the per-tree loop thus
/// report busy time summed over the loop's workers. `trace.coverage`
/// counts the loop's stages in wall time instead (scaled by the loop's
/// covered wall time over its busy time), adds the stages on the calling
/// thread, and divides the median of that per-solve sum by the median
/// untraced solve time of the same solves.
pub fn stage_metrics(
    tracer: &Tracer,
    solves: &[TracedSolve],
    parse_ms: &[f64],
    report: &mut Report,
) {
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let mut per_req: HashMap<u64, HashMap<&str, f64>> = HashMap::new();
    let mut loop_wall: HashMap<u64, (f64, f64)> = HashMap::new();
    for s in &spans {
        let self_ms = selfs[&s.id] as f64 / 1e6;
        let stages = per_req.entry(s.req).or_default();
        *stages.entry(s.name).or_default() += self_ms;
        if s.name == "core.two_respect" {
            *stages.entry("core.two_respect.total").or_default() += s.duration_ns() as f64 / 1e6;
        }
        let lw = loop_wall.entry(s.req).or_default();
        match s.name {
            "par.tree_loop" => lw.0 += (s.duration_ns() - selfs[&s.id]) as f64 / 1e6,
            "core.tree" => lw.1 += s.duration_ns() as f64 / 1e6,
            _ => {}
        }
    }
    let stage = |name: &str| {
        mean(
            &solves
                .iter()
                .map(|s| per_req[&s.req].get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    for (metric, name) in [
        ("graph.components_ms", "graph.components"),
        ("graph.certificate_ms", "graph.certificate"),
        ("graph.verify_ms", "graph.verify"),
        ("packing.pack_ms", "packing.pack"),
        ("packing.root_ms", "packing.root"),
        ("core.two_respect_ms", "core.two_respect.total"),
        ("core.phases_ms", "core.phases"),
        ("minpath.decompose_ms", "minpath.decompose"),
        ("core.gen_ops_ms", "core.gen_ops"),
        ("minpath.sweep_ms", "minpath.sweep"),
        ("core.combine_ms", "core.two_respect"),
        ("par.fanout_self_ms", "par.tree_loop"),
    ] {
        report.metric(metric, stage(name), "ms");
    }
    report.metric("graph.parse_ms", mean(parse_ms), "ms");

    let count = |f: &dyn Fn(&SolveCounts) -> f64| {
        mean(&solves.iter().map(|s| f(&s.counts)).collect::<Vec<_>>())
    };
    report.metric(
        "graph.certificate_kept_edges",
        count(&|c| c.kept_edges as f64),
        "count",
    );
    report.metric(
        "packing.final_rounds",
        count(&|c| c.final_rounds as f64),
        "count",
    );
    report.metric(
        "packing.distinct_trees",
        count(&|c| c.distinct_trees as f64),
        "count",
    );
    report.metric(
        "packing.useful_round_ratio",
        count(&|c| c.distinct_trees as f64 / c.final_rounds as f64),
        "ratio",
    );
    report.metric("core.trees", count(&|c| c.trees as f64), "count");
    report.metric(
        "core.phases",
        count(&|c| c.phases as f64 / c.trees as f64),
        "count",
    );
    let ops = count(&|c| c.ops as f64);
    report.metric("minpath.ops", ops, "count");
    report.metric(
        "minpath.ns_per_op",
        stage("minpath.sweep") * 1e6 / ops,
        "ns",
    );

    let t1 = median(&solves.iter().map(|s| s.t1_ms).collect::<Vec<_>>());
    let t2 = median(&solves.iter().map(|s| s.t2_ms).collect::<Vec<_>>());
    report.metric("par.tree_loop_ms.t1", t1, "ms");
    report.metric("par.tree_loop_ms.t2", t2, "ms");
    report.metric("par.fanout_speedup", t1 / t2, "ratio");

    let covered: Vec<f64> = solves
        .iter()
        .map(|s| {
            let stages = &per_req[&s.req];
            let (loop_covered, busy) = loop_wall[&s.req];
            let scale = if busy > 0.0 { loop_covered / busy } else { 0.0 };
            stages
                .iter()
                .filter(|(name, _)| !matches!(**name, "solve" | "core.two_respect.total"))
                .map(|(name, ms)| {
                    if IN_LOOP.contains(name) {
                        ms * scale
                    } else {
                        *ms
                    }
                })
                .sum()
        })
        .collect();
    let untraced = median(&solves.iter().map(|s| s.untraced_ms).collect::<Vec<_>>());
    report.metric("trace.coverage", median(&covered) / untraced, "ratio");
}

/// Writes the run's spans into the work directory.
pub fn write_trace(tracer: &Tracer, args: &Args) {
    let path = args
        .work
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path).expect("write the span file");
    eprintln!("perfbench: spans written to {}", path.display());
}
