//! Differential tests of the incremental dynamic solve path
//! (`pmc_core::SolveState`): seeded mutation traces are replayed op by
//! op, and after **every prefix** the incrementally maintained answer is
//! checked against an exact from-scratch solve of the mutated graph —
//! at service-style thread widths 1, 2, and 8, whose resolved answers
//! must additionally be bit-identical to each other.

use parallel_mincut::baseline::stoer_wagner;
use parallel_mincut::core_alg::{
    apply_delta, minimum_cut_report, minimum_cut_with, MinCutConfig, MutationOp, ResolveMode,
    SolveState, SolverWorkspace,
};
use parallel_mincut::graph::{gen, Graph};

const THREADS: [usize; 3] = [1, 2, 8];

/// SplitMix64, so traces are reproducible without a rand crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded mixed trace against `g`: reweights of arbitrary edges,
/// chord additions, and removals of previously added chords. Removals
/// only target trace-added vertex pairs at ring distance >= 2, so a
/// cycle-backboned base stays connected throughout.
fn mixed_trace(g: &Graph, seed: u64, len: usize) -> Vec<MutationOp> {
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let n = g.n() as u64;
    let mut g = g.clone();
    let mut added: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match splitmix(&mut rng) % 4 {
            1 => {
                let u = (splitmix(&mut rng) % n) as u32;
                let gap = 2 + splitmix(&mut rng) % (n - 3);
                let v = ((u64::from(u) + gap) % n) as u32;
                added.push((u, v));
                MutationOp::Add {
                    u,
                    v,
                    w: 1 + splitmix(&mut rng) % 8,
                }
            }
            2 if !added.is_empty() => {
                let k = (splitmix(&mut rng) as usize) % added.len();
                let (u, v) = added.swap_remove(k);
                MutationOp::Remove {
                    eid: g.find_edge(u, v).expect("added pair has an edge"),
                }
            }
            _ => MutationOp::Reweight {
                eid: (splitmix(&mut rng) % g.m() as u64) as u32,
                w: 1 + splitmix(&mut rng) % 9,
            },
        };
        apply_one(&mut g, &op);
        ops.push(op);
    }
    ops
}

/// Applies one op to a bare graph (the from-scratch reference path).
fn apply_one(g: &mut Graph, op: &MutationOp) {
    match *op {
        MutationOp::Reweight { eid, w } => {
            g.reweight_edge(eid as usize, w).expect("valid reweight");
        }
        MutationOp::Add { u, v, w } => {
            g.add_edge(u, v, w).expect("valid add");
        }
        MutationOp::Remove { eid } => {
            g.remove_edge(eid as usize).expect("valid remove");
        }
    }
}

/// Replays `ops` over `base` at every thread width, asserting after each
/// prefix that (a) the incremental answer's value equals an exact
/// from-scratch Stoer–Wagner solve of the mutated graph, (b) the witness
/// side really cuts the graph at that value, and (c) the full resolved
/// answer (value, witness, mode) is identical across thread widths.
fn assert_trace_matches_from_scratch(base: &Graph, seed: u64, ops: &[MutationOp]) {
    let mut per_width: Vec<Vec<(u64, Vec<bool>, String)>> = Vec::new();
    for threads in THREADS {
        let mut g = base.clone();
        let mut ws = SolverWorkspace::new();
        let mut state = SolveState::fresh(&g, seed, &mut ws, Some(threads)).expect("base solves");
        let mut answers = Vec::with_capacity(ops.len());
        for (k, op) in ops.iter().enumerate() {
            apply_delta(&mut g, &mut state, op).expect("trace op applies");
            let mode = state
                .resolve(&g, &mut ws, Some(threads))
                .expect("prefix resolves");
            let best = state.best();
            // (b) the witness is real: a proper cut of exactly this value
            // (0-cuts of disconnected graphs use an empty-crossing side).
            assert_eq!(
                g.cut_value(&best.side),
                best.value,
                "prefix {k}: witness value drifts (threads {threads})"
            );
            if best.value > 0 {
                assert!(
                    g.is_proper_cut(&best.side),
                    "prefix {k}: witness is not a proper cut (threads {threads})"
                );
            }
            // (a) exact value parity with a from-scratch solve.
            match stoer_wagner(&g) {
                Ok(cut) => assert_eq!(
                    best.value, cut.value,
                    "prefix {k}: incremental {} != from-scratch {} (threads {threads})",
                    best.value, cut.value
                ),
                Err(e) => panic!("prefix {k}: oracle failed: {e}"),
            }
            answers.push((best.value, best.side.clone(), format!("{mode:?}")));
        }
        per_width.push(answers);
    }
    // (c) bit-identical across thread widths, prefix by prefix.
    for w in 1..per_width.len() {
        assert_eq!(
            per_width[0], per_width[w],
            "threads {} diverged from threads 1",
            THREADS[w]
        );
    }
}

#[test]
fn seeded_mixed_traces_match_from_scratch_at_every_prefix() {
    for (base, seed, len) in [
        (gen::cycle_with_chords(24, 8, 11), 0xA1u64, 24),
        (gen::gnm_connected(32, 96, 8, 12), 0xB2, 20),
        (gen::community_ring(4, 8, 6, 13).0, 0xC3, 24),
    ] {
        let ops = mixed_trace(&base, seed, len);
        assert_trace_matches_from_scratch(&base, seed, &ops);
    }
}

/// A graph of serve-mixed's shape: a cycle on 28–43 vertices plus chords
/// up to `m = 1.5 n`, weights 1–6.
fn serve_shaped(seed: u64) -> Graph {
    let mut rng = seed ^ 0x5E7E_D000;
    let n = 28 + splitmix(&mut rng) % 16;
    let mut weight = || 1 + splitmix(&mut rng) % 6;
    let mut edges: Vec<(u32, u32, u64)> = (0..n)
        .map(|i| (i as u32, ((i + 1) % n) as u32, weight()))
        .collect();
    while (edges.len() as u64) < n + n / 2 {
        let (u, v) = (splitmix(&mut rng) % n, splitmix(&mut rng) % n);
        if u != v {
            edges.push((u as u32, v as u32, 1 + splitmix(&mut rng) % 6));
        }
    }
    Graph::from_edges(n as usize, &edges).unwrap()
}

#[test]
fn serve_mixed_shaped_traces_match_from_scratch_and_pin_certified_trees() {
    // serve-mixed's graphs under its update mix: chord additions
    // (weights 1–8), removals of added chords and reweights to 1–9.
    let mut packs = (0, 0);
    for seed in 0..6u64 {
        let base = serve_shaped(seed);
        let ops = mixed_trace(&base, seed, 40);
        assert_trace_matches_from_scratch(&base, seed, &ops);
        // Every snapshot a certified pack builds pins that pack's one tree;
        // an uncertified pack pins every tree it selected.
        let cfg = MinCutConfig {
            seed,
            use_certificate: false,
            ..MinCutConfig::default()
        };
        let mut check_pins = |g: &Graph, state: &SolveState| {
            let (_, r) = minimum_cut_report(g, &cfg).unwrap();
            let want = if r.certified { 1 } else { r.trees_selected };
            assert_eq!(state.tree_count(), want, "seed {seed}");
            packs.0 += usize::from(r.certified);
            packs.1 += 1;
        };
        let mut g = base.clone();
        let mut ws = SolverWorkspace::new();
        let mut state = SolveState::fresh(&g, seed, &mut ws, Some(2)).expect("base solves");
        check_pins(&g, &state);
        for op in &ops {
            apply_delta(&mut g, &mut state, op).expect("trace op applies");
            if state.resolve(&g, &mut ws, Some(2)).expect("resolves") == ResolveMode::Repack {
                check_pins(&g, &state);
            }
        }
    }
    // Packs: certified, of all (the six fresh snapshots and every re-pack).
    assert_eq!(packs, (92, 97));
}

#[test]
fn remove_then_readd_round_trips() {
    // Remove an edge and re-add the same endpoints/weight: every prefix
    // must agree with from-scratch, and the final graph must solve to the
    // same value as the untouched base.
    let base = gen::cycle_with_chords(20, 6, 7);
    let probe = base.edges()[3];
    let ops = [
        MutationOp::Remove { eid: 3 },
        MutationOp::Add {
            u: probe.u,
            v: probe.v,
            w: probe.w,
        },
        MutationOp::Reweight { eid: 0, w: 5 },
        MutationOp::Reweight {
            eid: 0,
            w: base.edges()[0].w,
        },
    ];
    assert_trace_matches_from_scratch(&base, 0xD4, &ops);
    // After the full round trip the content is the base again (edge ids
    // permuted), so the value must equal the base's.
    let mut g = base.clone();
    let mut ws = SolverWorkspace::new();
    let mut state = SolveState::fresh(&g, 0xD4, &mut ws, Some(1)).expect("base solves");
    let want = state.best().value;
    for op in &ops {
        apply_delta(&mut g, &mut state, op).expect("applies");
    }
    state.resolve(&g, &mut ws, Some(1)).expect("resolves");
    assert_eq!(state.best().value, want);
}

#[test]
fn disconnecting_deletions_hit_zero_and_recover() {
    // Two 4-cliques joined by one bridge: deleting the bridge must drop
    // the incremental answer to a 0-cut (a bridge lives in every spanning
    // tree, so this exercises the forced re-pack path), and re-adding a
    // lighter bridge must re-solve to the new bridge weight.
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((base + i, base + j, 5));
            }
        }
    }
    edges.push((0, 4, 9)); // the bridge, edge id 12
    let base = Graph::from_edges(8, &edges).unwrap();
    for threads in THREADS {
        let mut g = base.clone();
        let mut ws = SolverWorkspace::new();
        let mut state = SolveState::fresh(&g, 0xE5, &mut ws, Some(threads)).expect("base solves");
        assert_eq!(state.best().value, 9, "bridge is the min cut");
        apply_delta(&mut g, &mut state, &MutationOp::Remove { eid: 12 }).expect("bridge removes");
        let mode = state.resolve(&g, &mut ws, Some(threads)).expect("resolves");
        assert_eq!(mode, ResolveMode::Repack, "a bridge forces a re-pack");
        assert_eq!(state.best().value, 0, "disconnected graphs have 0-cuts");
        assert_eq!(g.cut_value(&state.best().side), 0);
        apply_delta(&mut g, &mut state, &MutationOp::Add { u: 3, v: 6, w: 2 }).expect("re-bridges");
        state.resolve(&g, &mut ws, Some(threads)).expect("resolves");
        assert_eq!(state.best().value, 2, "the new bridge is the min cut");
        assert_eq!(
            stoer_wagner(&g).unwrap().value,
            2,
            "from-scratch agrees after reconnection"
        );
    }
}

#[test]
fn resolve_is_idempotent_between_mutations() {
    // Resolving twice in a row (or resolving with nothing stale) must
    // neither change the answer nor re-sweep anything.
    let base = gen::cycle_with_chords(18, 5, 3);
    let mut g = base.clone();
    let mut ws = SolverWorkspace::new();
    let mut state = SolveState::fresh(&g, 1, &mut ws, Some(2)).expect("base solves");
    let before = (state.best().value, state.best().side.clone());
    let mode = state.resolve(&g, &mut ws, Some(2)).expect("no-op resolve");
    assert_eq!(mode, ResolveMode::Incremental { reswept: 0 });
    assert_eq!((state.best().value, state.best().side.clone()), before);
    apply_delta(&mut g, &mut state, &MutationOp::Reweight { eid: 2, w: 9 }).expect("applies");
    state.resolve(&g, &mut ws, Some(2)).expect("resolves");
    let after = (state.best().value, state.best().side.clone());
    let mode = state.resolve(&g, &mut ws, Some(2)).expect("no-op resolve");
    assert_eq!(mode, ResolveMode::Incremental { reswept: 0 });
    assert_eq!((state.best().value, state.best().side.clone()), after);
}

#[test]
fn fresh_snapshot_holds_the_solver_answer() {
    // A snapshot is the solver's pipeline with the certificate off, so its
    // answer equals `minimum_cut_with` under the same seed and width, bit
    // for bit. Every graph has enough edges for the tree loop to fan out.
    let graphs = [
        gen::gnm_connected(64, 320, 8, 21),
        gen::community_ring(8, 20, 4, 22).0,
        gen::cycle_with_chords(200, 60, 23),
    ];
    let mut ws = SolverWorkspace::new();
    for (gi, g) in graphs.iter().enumerate() {
        for seed in [1u64, 2, 3] {
            for threads in THREADS {
                let cfg = MinCutConfig {
                    seed,
                    threads: Some(threads),
                    use_certificate: false,
                    ..MinCutConfig::default()
                };
                let want = minimum_cut_with(g, &cfg, &mut ws).expect("solves");
                let state = SolveState::fresh(g, seed, &mut ws, Some(threads)).expect("solves");
                let got = state.best();
                let case = format!("graph {gi}, seed {seed}, threads {threads}");
                assert_eq!(got.value, want.value, "{case}");
                assert_eq!(got.side, want.side, "{case}");
                assert_eq!(got.kind, want.kind, "{case}");
                assert_eq!(got.tree_index, want.tree_index, "{case}");
            }
        }
    }
}

/// One graph lineage of perfbench's `serve-mixed` script at seed 7705
/// (connection 0, the n = 35 cycle with chords): its load and its first
/// 183 single-op updates, all under the graph's one pinned seed. A
/// re-pack budget in units of total weight let updates 177, 179, 180, 182
/// and 183 answer 4 where the minimum cut is 3.
const SERVE_MIXED_LINEAGE: &str = include_str!("fixtures/serve_mixed_7705_lineage.jsonl");

#[test]
fn serve_mixed_lineage_updates_match_stoer_wagner() {
    use parallel_mincut::graph::io::read_dimacs;
    use parallel_mincut::service::protocol::{graph_id, LoadSource, Request, Response, UpdateOp};
    use parallel_mincut::service::{Service, ServiceConfig};

    let service = Service::new(&ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let mut frames = SERVE_MIXED_LINEAGE.lines();
    let load = frames.next().expect("the load frame");
    let Ok(Request::Load(LoadSource::Body(body))) = Request::parse_frame(load) else {
        panic!("the fixture starts with an inline load");
    };
    // A replica of the served graph, mutated as the service resolves
    // wire ops: 1-based vertices, the smallest edge id between a pair.
    let mut g = read_dimacs(body.as_bytes()).unwrap();
    let (resp, _) = service.handle_frame(load);
    assert!(
        matches!(resp, Response::Loaded { .. }),
        "{}",
        resp.to_frame()
    );
    let mut updates = 0;
    for frame in frames {
        updates += 1;
        let Ok(Request::Update { ops, .. }) = Request::parse_frame(frame) else {
            panic!("update {updates} is not an update frame");
        };
        for op in ops {
            let eid = |g: &Graph, u: u64, v: u64| {
                g.find_edge(u as u32 - 1, v as u32 - 1).unwrap() as usize
            };
            match op {
                UpdateOp::AddEdge { u, v, w } => {
                    g.add_edge(u as u32 - 1, v as u32 - 1, w).unwrap();
                }
                UpdateOp::RemoveEdge { u, v } => {
                    g.remove_edge(eid(&g, u, v)).unwrap();
                }
                UpdateOp::ReweightEdge { u, v, w } => {
                    g.reweight_edge(eid(&g, u, v), w).unwrap();
                }
            }
        }
        let (resp, _) = service.handle_frame(frame);
        let Response::Updated { id, value, .. } = resp else {
            panic!("update {updates}: {}", resp.to_frame());
        };
        assert_eq!(id, graph_id(&g), "update {updates}: replica out of step");
        let want = stoer_wagner(&g).unwrap().value;
        assert_eq!(value, want, "update {updates}");
    }
    assert_eq!(updates, 183);
}
