//! The traced paper solve, composed from each layer's public calls.
//!
//! [`solve`] performs the steps of `pmc_core::minimum_cut_with` in the
//! same order on the same workspace arenas, with a span around each call,
//! so a traced run times the program the untraced runs measure. The run
//! asserts that every composed answer (value, witness, case and winning
//! tree) is bit-identical to `MinCutSolver::solve_with` on the same seed.

use pmc_core::gen_ops::{gen_ancestor, gen_incomparable, GenBatch};
use pmc_core::phases::{build_phases, Phase};
use pmc_core::{
    best_one_respect, MinCutResult, RespectKind, SolverConfig, SolverWorkspace, TreeArena,
    PAR_TREES_MIN_EDGES,
};
use pmc_graph::{EulerTour, Graph, RootedTree};
use pmc_minpath::{
    run_tree_batch_with, Decomposition, SeqMinPath, Strategy, TreeBatchScratch, TreeOp, INF,
};
use pmc_packing::{pack_trees_with, PackedTreeList, PackingConfig};

use crate::trace::Ctx;

/// Per-solve counts gathered along the composed pipeline.
#[derive(Clone, Debug, Default)]
pub struct SolveCounts {
    /// Edges of the graph the trees are packed on (the certificate's
    /// edge count when it applies).
    pub kept_edges: usize,
    /// Greedy rounds of the final packing.
    pub final_rounds: usize,
    /// Distinct trees the final packing produced.
    pub distinct_trees: usize,
    /// Trees the two-respect search examined.
    pub trees: usize,
    /// Bough phases summed over the examined trees.
    pub phases: u64,
    /// Minimum Path operations summed over the examined trees.
    pub ops: u64,
}

/// A composed solve's answer, plus what the fan-out probe re-runs.
pub struct Composed {
    pub result: MinCutResult,
    pub counts: SolveCounts,
    pub trees: PackedTreeList,
    /// Whether the trees were packed on the certificate graph, which the
    /// workspace still holds.
    pub on_certificate: bool,
}

/// One tree's two-respect outcome, as `two_respect_mincut_reusing`
/// returns it.
struct TreeCut {
    value: i64,
    side: Vec<bool>,
    kind: RespectKind,
    phases: u32,
    ops: u64,
}

/// The paper solve of `g` under `cfg`, traced. Mirrors the amortized
/// entry point `PaperSolver::solve_with` for connected graphs with at
/// least three vertices (the only graphs the benchmark solves).
pub fn solve(g: &Graph, cfg: &SolverConfig, ws: &mut SolverWorkspace, ctx: Ctx<'_>) -> Composed {
    assert!(g.n() > 2, "the composed solve covers n > 2 only");
    ctx.span("solve", |ctx| {
        let (_, ncomp) = ctx.span("graph.components", |_| pmc_graph::connected_components(g));
        assert_eq!(ncomp, 1, "the composed solve covers connected graphs only");

        let cert_graph = ws
            .cert_graph
            .get_or_insert_with(|| Graph::from_edges(1, &[]).expect("placeholder graph"));
        let on_certificate = ctx.span("graph.certificate", |_| {
            pmc_graph::mincut_certificate_with(g, &mut ws.cert, cert_graph).is_some()
        });
        let SolverWorkspace {
            cert_graph,
            packing: pack_ws,
            trees: arenas,
            ..
        } = ws;
        let work: &Graph = if on_certificate {
            cert_graph.as_ref().expect("certificate arena initialized")
        } else {
            g
        };

        // `paper_config`: the default packing, seeded by the solve seed.
        let mut pcfg = PackingConfig::default();
        pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
        if let Some(t) = cfg.trees {
            pcfg.trees_wanted = t;
        }
        let packing = ctx.span("packing.pack", |_| pack_trees_with(work, &pcfg, pack_ws));

        let workers = tree_loop_workers(packing.trees.len(), work.m(), cfg.threads);
        if arenas.len() < workers {
            arenas.resize_with(workers, TreeArena::default);
        }
        let cuts = ctx.span("par.tree_loop", |ctx| {
            pmc_par::fanout_units(&mut arenas[..workers], packing.trees.len(), |arena, i| {
                ctx.span("core.tree", |ctx| {
                    let TreeArena { root, batch } = arena;
                    ctx.span("packing.root", |_| root.rebuild(work, &packing.trees[i], 0));
                    ctx.span("core.two_respect", |ctx| {
                        two_respect(work, root.tree(), batch, ctx)
                    })
                })
            })
        });
        let counts = SolveCounts {
            kept_edges: work.m(),
            final_rounds: packing.rounds,
            distinct_trees: packing.distinct_trees,
            trees: cuts.len(),
            phases: cuts.iter().map(|c| u64::from(c.phases)).sum(),
            ops: cuts.iter().map(|c| c.ops).sum(),
        };
        let (ti, best) = cuts
            .into_iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.value, *i))
            .expect("packing returned no trees");
        let value = best.value as u64;
        if cfg.verify {
            ctx.span("graph.verify", |_| {
                assert!(g.is_proper_cut(&best.side), "witness is not a proper cut");
                assert_eq!(g.cut_value(&best.side), value, "witness value mismatch");
            });
        }
        Composed {
            result: MinCutResult {
                value,
                side: best.side,
                algorithm: "paper",
                kind: Some(best.kind),
                tree_index: Some(ti),
            },
            counts,
            trees: packing.trees,
            on_certificate,
        }
    })
}

/// The per-tree fan-out width `minimum_cut_with` picks for an explicit
/// thread budget (the benchmark always sets one): the budget clamped by
/// the tree count, and 1 below the small-input gate.
fn tree_loop_workers(ntrees: usize, m: usize, threads: Option<usize>) -> usize {
    if ntrees < 2 || m < PAR_TREES_MIN_EDGES {
        return 1;
    }
    threads
        .expect("the benchmark always sets a thread budget")
        .clamp(1, ntrees)
}

/// Runs the untraced per-tree loop (rooting plus two-respect search) over
/// `trees` on `arenas.len()` workers, returning each tree's cut value —
/// the `par.tree_loop_ms.t1`/`t2` measurement.
pub fn tree_loop(work: &Graph, trees: &PackedTreeList, arenas: &mut [TreeArena]) -> Vec<i64> {
    pmc_par::fanout_units(arenas, trees.len(), |arena, i| {
        let TreeArena { root, batch } = arena;
        root.rebuild(work, &trees[i], 0);
        pmc_core::two_respect_mincut_reusing(work, root.tree(), batch).value
    })
}

/// `two_respect_mincut_reusing`, composed: phase cascade, batch
/// generation, batched Minimum Path sweeps, then the combine and witness
/// steps (the span's self time).
fn two_respect(g: &Graph, tree: &RootedTree, ws: &mut TreeBatchScratch, ctx: Ctx<'_>) -> TreeCut {
    let mut phases_span = 0;
    let phases = ctx.span("core.phases", |c| {
        phases_span = c.parent;
        build_phases(g, tree)
    });
    // `build_phases` decomposes every phase tree internally; re-running the
    // decomposition on the same trees times that part of it.
    ctx.replay_span("minpath.decompose", phases_span, || {
        for p in &phases {
            std::hint::black_box(Decomposition::new(&p.tree, Strategy::BoughWalk));
        }
    });
    let batches: Vec<(GenBatch, GenBatch)> = ctx.span("core.gen_ops", |_| {
        phases
            .iter()
            .map(|p| (gen_incomparable(p), gen_ancestor(p)))
            .collect()
    });
    let results: Vec<(Vec<i64>, Vec<i64>)> = ctx.span("minpath.sweep", |_| {
        phases
            .iter()
            .zip(&batches)
            .map(|(p, (inc, anc))| {
                let mut run = |b: &GenBatch| {
                    if b.ops.is_empty() {
                        Vec::new()
                    } else {
                        run_tree_batch_with(&p.tree, &p.decomp, &b.init, &b.ops, ws)
                    }
                };
                let a = run(inc);
                (a, run(anc))
            })
            .collect()
    });
    combine(g, tree, &phases, &batches, &results)
}

/// Where the best candidate came from.
enum Winner {
    One {
        v: u32,
    },
    Two {
        phase: usize,
        inc: bool,
        pair_y: u32,
        meta_idx: usize,
    },
}

/// The combine and witness steps of the two-respect search: the running
/// minimum along each bough for incomparable pairs, the corrected
/// per-query candidates for nested pairs, and the winning side mapped back
/// through the contraction cascade.
fn combine(
    g: &Graph,
    tree: &RootedTree,
    phases: &[Phase],
    batches: &[(GenBatch, GenBatch)],
    results: &[(Vec<i64>, Vec<i64>)],
) -> TreeCut {
    let mut best_val = i64::MAX;
    let mut winner = Winner::One { v: u32::MAX };
    if let Some((val, v)) = best_one_respect(&phases[0].cuts, tree) {
        best_val = val;
        winner = Winner::One { v };
    }
    for (pi, ((inc, anc), (inc_res, anc_res))) in batches.iter().zip(results).enumerate() {
        let phase = &phases[pi];
        let root = phase.tree.root();
        let mut m = 0usize;
        while m < inc.metas.len() {
            let bough = inc.metas[m].bough;
            let (mut run_min, mut run_min_meta) = (i64::MAX, m);
            while m < inc.metas.len() && inc.metas[m].bough == bough {
                let meta = &inc.metas[m];
                if inc_res[m] < run_min {
                    run_min = inc_res[m];
                    run_min_meta = m;
                }
                if meta.y != root && run_min < INF / 2 {
                    let cand = run_min + phase.cuts.cut1[meta.y as usize];
                    if cand < best_val {
                        best_val = cand;
                        winner = Winner::Two {
                            phase: pi,
                            inc: true,
                            pair_y: meta.y,
                            meta_idx: run_min_meta,
                        };
                    }
                }
                m += 1;
            }
        }
        for (mi, meta) in anc.metas.iter().enumerate() {
            if anc_res[mi] >= INF / 2 {
                continue;
            }
            let cand = anc_res[mi]
                - phase.cuts.cut1[meta.y as usize]
                - 4 * phase.cuts.rho[meta.y as usize];
            if cand < best_val {
                best_val = cand;
                winner = Winner::Two {
                    phase: pi,
                    inc: false,
                    pair_y: meta.y,
                    meta_idx: mi,
                };
            }
        }
    }

    let (side, kind) = match winner {
        Winner::One { v } => {
            assert_ne!(v, u32::MAX, "no candidate found");
            let euler = EulerTour::new(tree);
            let side = (0..g.n() as u32).map(|x| euler.is_ancestor(v, x)).collect();
            (side, RespectKind::One)
        }
        Winner::Two {
            phase: pi,
            inc,
            pair_y,
            meta_idx,
        } => {
            let phase = &phases[pi];
            let batch = if inc { &batches[pi].0 } else { &batches[pi].1 };
            let meta = batch.metas[meta_idx];
            // Replay the batch prefix on the argmin-tracking structure.
            let mut seq = SeqMinPath::new(&phase.tree, &phase.decomp, &batch.init);
            for op in &batch.ops[..meta.op_index as usize] {
                if let TreeOp::Add { v, x } = op {
                    seq.add_path(*v, *x);
                }
            }
            let t = seq.min_path(meta.target).1;
            let euler = EulerTour::new(&phase.tree);
            let side = (0..g.n())
                .map(|orig| {
                    let z = phase.comp[orig];
                    if inc {
                        euler.is_ancestor(pair_y, z) || euler.is_ancestor(t, z)
                    } else {
                        euler.is_ancestor(t, z) && !euler.is_ancestor(pair_y, z)
                    }
                })
                .collect();
            let kind = if inc {
                RespectKind::TwoIncomparable
            } else {
                RespectKind::TwoAncestor
            };
            (side, kind)
        }
    };
    TreeCut {
        value: best_val,
        side,
        kind,
        phases: phases.len() as u32,
        ops: batches
            .iter()
            .map(|(i, a)| (i.ops.len() + a.ops.len()) as u64)
            .sum(),
    }
}

/// Whether two answers are bit-identical: value, witness side, case and
/// winning tree.
pub fn same_answer(a: &MinCutResult, b: &MinCutResult) -> bool {
    a.value == b.value && a.side == b.side && a.kind == b.kind && a.tree_index == b.tree_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use pmc_core::solver_by_name;

    #[test]
    fn composed_solve_equals_the_solver_seam() {
        let solver = solver_by_name("paper").unwrap();
        let graphs = [
            pmc_graph::gen::gnm_connected(300, 1200, 8, 3),
            pmc_graph::gen::community_ring(6, 20, 4, 5).0,
            pmc_graph::gen::cycle_with_chords(40, 20, 9),
        ];
        let tracer = Tracer::default();
        for (gi, g) in graphs.iter().enumerate() {
            for threads in [1, 2] {
                for seed in 1..=3u64 {
                    let cfg = SolverConfig {
                        threads: Some(threads),
                        ..SolverConfig::with_seed(seed)
                    };
                    let want = solver
                        .solve_with(g, &cfg, &mut SolverWorkspace::new())
                        .unwrap();
                    let mut ws = SolverWorkspace::new();
                    let got = solve(g, &cfg, &mut ws, tracer.root(seed));
                    assert!(
                        same_answer(&got.result, &want),
                        "graph {gi} threads {threads} seed {seed}"
                    );
                    assert_eq!(got.counts.trees, got.trees.len());
                }
            }
        }
        let names: std::collections::HashSet<_> = tracer.spans().iter().map(|s| s.name).collect();
        for stage in [
            "solve",
            "graph.components",
            "graph.certificate",
            "packing.pack",
            "par.tree_loop",
            "core.tree",
            "packing.root",
            "core.two_respect",
            "core.phases",
            "minpath.decompose",
            "core.gen_ops",
            "minpath.sweep",
            "graph.verify",
        ] {
            assert!(names.contains(stage), "no {stage} span");
        }
    }
}
