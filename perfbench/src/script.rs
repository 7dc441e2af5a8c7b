//! Service scripts: request frames paired with the answers they must get.
//!
//! A script is a pure function of its seed. Every graph it sends lives in
//! a client-side replica that applies each update exactly as the service
//! does (1-based wire vertices; `(u, v)` resolves to the smallest edge id
//! between the pair) and predicts the re-keyed content id with the
//! service's own [`graph_id`]. Expected cut values come from an oracle
//! computed while the script is built, before any server exists.
//!
//! The serve scripts are *stationary*, unlike `pmc loadgen`'s generator:
//! * each graph's added-edge count is capped, so graph sizes stay bounded
//!   however long a run lasts;
//! * every update of a graph uses that graph's one pinned seed, so the
//!   service's cached solve snapshot answers it (`incremental` or
//!   `repack`) instead of a fresh solve;
//! * single-graph solves use the `paper` solver only, so the solve
//!   latency median does not sit on the boundary of a two-solver mix;
//! * an op whose result keeps its source's content id is redrawn: on such
//!   a commit the service keeps the resident graph's old edge order, and
//!   the replica's `(u, v)` resolution would then pick a different
//!   parallel edge than the server's.

use pmc_graph::{io, Graph};
use pmc_service::protocol::{graph_id, LoadSource, Request, Response, UpdateMode, UpdateOp};
use rand::prelude::*;

/// Graphs each serve connection owns: enough that a run's solve median
/// averages over many random graph instances.
pub const GRAPHS_PER_CONN: usize = 8;
/// Added edges a serve graph may carry at once; at the cap, adds turn
/// into removals and reweights.
pub const ADDED_EDGE_CAP: usize = 6;

/// Request verbs, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Load,
    Solve,
    Update,
    Stats,
}

impl Verb {
    /// The verbs whose latency the report breaks out.
    pub const TIMED: [Verb; 3] = [Verb::Load, Verb::Solve, Verb::Update];

    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Load => "load",
            Verb::Solve => "solve",
            Verb::Update => "update",
            Verb::Stats => "stats",
        }
    }
}

/// The response a step must get.
#[derive(Clone, Debug)]
pub enum Expect {
    Loaded {
        id: String,
        n: u64,
        m: u64,
        cached: bool,
    },
    Solved {
        id: String,
        value: u64,
    },
    Updated {
        from: String,
        id: String,
        n: u64,
        m: u64,
        value: u64,
    },
    Stats,
}

impl Expect {
    /// Checks a response; on success returns the update's mode and
    /// re-swept tree count for `updated` answers.
    pub fn check(&self, resp: &Response) -> Result<Option<(UpdateMode, u64)>, String> {
        match (self, resp) {
            (
                Expect::Loaded { id, n, m, cached },
                Response::Loaded {
                    id: rid,
                    n: rn,
                    m: rm,
                    cached: rc,
                },
            ) if (rid, rn, rm, rc) == (id, n, m, cached) => Ok(None),
            (Expect::Solved { id, value }, Response::Solved { results })
                if results.len() == 1 && &results[0].graph == id && results[0].value == *value =>
            {
                Ok(None)
            }
            (
                Expect::Updated {
                    from,
                    id,
                    n,
                    m,
                    value,
                },
                Response::Updated {
                    id: rid,
                    from: rfrom,
                    n: rn,
                    m: rm,
                    value: rv,
                    mode,
                    reswept,
                    ..
                },
            ) if (rid, rfrom, rn, rm, rv) == (id, from, n, m, value) => Ok(Some((*mode, *reswept))),
            (Expect::Stats, Response::Stats(_)) => Ok(None),
            (want, got) => Err(format!("expected {want:?}, got {}", got.to_frame())),
        }
    }
}

/// One scripted request.
#[derive(Clone, Debug)]
pub struct Step {
    pub verb: Verb,
    pub frame: String,
    pub expect: Expect,
    /// For solve steps: the replica state solved (an index into
    /// [`Script::states`]) and the solve seed.
    pub solve: Option<(usize, u64)>,
}

/// One connection's session: `setup` leading loads, then the rest.
#[derive(Clone, Debug)]
pub struct Script {
    pub setup: usize,
    pub steps: Vec<Step>,
    /// Every graph state the script sends or creates, in creation order.
    pub states: Vec<Graph>,
}

/// A replica of one graph the script owns.
struct Slot {
    g: Graph,
    id: String,
    /// Index of the current state in [`Script::states`].
    state: usize,
    /// Oracle minimum cut of the current state.
    value: u64,
    /// The update seed pinned to this graph.
    seed: u64,
    /// Wire pairs of edges added by the script, the only ones it removes
    /// (removing them can never disconnect the graph).
    added: Vec<(u64, u64)>,
}

/// Applies one wire op to a graph as the service resolves it.
fn apply(g: &mut Graph, op: &UpdateOp) {
    let eid = |g: &Graph, u: u64, v: u64| {
        g.find_edge((u - 1) as u32, (v - 1) as u32)
            .expect("script ops address existing edges") as usize
    };
    match *op {
        UpdateOp::AddEdge { u, v, w } => {
            g.add_edge((u - 1) as u32, (v - 1) as u32, w)
                .expect("script adds are in range");
        }
        UpdateOp::RemoveEdge { u, v } => {
            g.remove_edge(eid(g, u, v))
                .expect("script removals target live edges");
        }
        UpdateOp::ReweightEdge { u, v, w } => {
            g.reweight_edge(eid(g, u, v), w)
                .expect("script reweights target live edges");
        }
    }
}

fn body(g: &Graph) -> String {
    let mut buf = Vec::new();
    io::write_dimacs(g, &mut buf).expect("in-memory DIMACS write");
    String::from_utf8(buf).expect("DIMACS is ASCII")
}

/// Records a script: owns the growing step list and state list.
struct Recorder {
    steps: Vec<Step>,
    states: Vec<Graph>,
}

impl Recorder {
    fn load(&mut self, slot: &Slot, cached: bool) {
        self.steps.push(Step {
            verb: Verb::Load,
            frame: Request::Load(LoadSource::Body(body(&slot.g))).to_frame(),
            expect: Expect::Loaded {
                id: slot.id.clone(),
                n: slot.g.n() as u64,
                m: slot.g.m() as u64,
                cached,
            },
            solve: None,
        });
    }

    fn solve(&mut self, slot: &Slot, seed: u64) {
        self.steps.push(Step {
            verb: Verb::Solve,
            frame: Request::Solve {
                graphs: vec![slot.id.clone()],
                solver: "paper".into(),
                seed,
                deadline_ms: None,
            }
            .to_frame(),
            expect: Expect::Solved {
                id: slot.id.clone(),
                value: slot.value,
            },
            solve: Some((slot.state, seed)),
        });
    }

    /// Commits `op` (already applied to `next`) to the slot and scripts it.
    fn update(&mut self, slot: &mut Slot, op: UpdateOp, next: Graph, value: u64) {
        let from = std::mem::replace(&mut slot.id, graph_id(&next));
        self.states.push(next.clone());
        slot.g = next;
        slot.state = self.states.len() - 1;
        slot.value = value;
        self.steps.push(Step {
            verb: Verb::Update,
            frame: Request::Update {
                graph: from.clone(),
                ops: vec![op],
                seed: slot.seed,
                deadline_ms: None,
            }
            .to_frame(),
            expect: Expect::Updated {
                from,
                id: slot.id.clone(),
                n: slot.g.n() as u64,
                m: slot.g.m() as u64,
                value,
            },
            solve: None,
        });
    }

    fn stats(&mut self) {
        self.steps.push(Step {
            verb: Verb::Stats,
            frame: Request::Stats.to_frame(),
            expect: Expect::Stats,
            solve: None,
        });
    }

    fn slot(&mut self, g: Graph, value: u64, seed: u64) -> Slot {
        self.states.push(g.clone());
        Slot {
            id: graph_id(&g),
            state: self.states.len() - 1,
            g,
            value,
            seed,
            added: Vec::new(),
        }
    }
}

fn oracle(g: &Graph) -> u64 {
    pmc_baseline::stoer_wagner(g)
        .expect("script graphs are valid")
        .value
}

/// Connection `conn`'s serve-mixed session of `len` requests after its
/// setup loads. Its graphs are weighted cycles with chords on
/// `28 + 8·conn + j` vertices (28 ≤ n ≤ 43 for two connections), so
/// connections never share a graph. The mix is 50% `paper` solves, 30%
/// single-op updates, 10% re-loads and 10% stats.
pub fn serve_script(seed: u64, conn: usize, len: usize) -> Script {
    let mut rng = SmallRng::seed_from_u64(
        seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7065_7266_7365_7276,
    );
    let mut b = Recorder {
        steps: Vec::with_capacity(GRAPHS_PER_CONN + len),
        states: Vec::new(),
    };
    let mut slots: Vec<Slot> = (0..GRAPHS_PER_CONN)
        .map(|j| {
            let n = 28 + GRAPHS_PER_CONN * conn + j;
            let mut edges: Vec<(u32, u32, u64)> = (0..n)
                .map(|i| (i as u32, ((i + 1) % n) as u32, rng.gen_range(1..=6u64)))
                .collect();
            while edges.len() < n + n / 2 {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if u != v {
                    edges.push((u, v, rng.gen_range(1..=6u64)));
                }
            }
            let g = Graph::from_edges(n, &edges).expect("cycle plus chords is valid");
            let value = oracle(&g);
            let slot = b.slot(g, value, rng.gen_range(1..=1_000_000u64));
            b.load(&slot, false);
            slot
        })
        .collect();
    let setup = b.steps.len();

    for _ in 0..len {
        let roll = rng.gen_range(0..100u32);
        let slot = &mut slots[rng.gen_range(0..GRAPHS_PER_CONN)];
        if roll < 50 {
            let seed = rng.gen_range(1..=1_000_000u64);
            b.solve(slot, seed);
        } else if roll < 80 {
            let (op, next) = loop {
                let op = draw_op(&mut rng, slot);
                let mut next = slot.g.clone();
                apply(&mut next, &op);
                if graph_id(&next) != slot.id {
                    break (op, next);
                }
            };
            match op {
                UpdateOp::AddEdge { u, v, .. } => slot.added.push((u, v)),
                UpdateOp::RemoveEdge { u, v } => {
                    let i = slot
                        .added
                        .iter()
                        .position(|&p| p == (u, v))
                        .expect("removals target added pairs");
                    slot.added.swap_remove(i);
                }
                UpdateOp::ReweightEdge { .. } => {}
            }
            let value = oracle(&next);
            b.update(slot, op, next, value);
        } else if roll < 90 {
            b.load(slot, true);
        } else {
            b.stats();
        }
    }
    Script {
        setup,
        steps: b.steps,
        states: b.states,
    }
}

/// One single-op update against a slot: add (below the cap), remove an
/// added pair, or reweight any edge.
fn draw_op(rng: &mut SmallRng, slot: &Slot) -> UpdateOp {
    let n = slot.g.n() as u64;
    let choice = rng.gen_range(0..10u32);
    if choice < 4 && slot.added.len() < ADDED_EDGE_CAP {
        let u = rng.gen_range(1..=n);
        let v = loop {
            let v = rng.gen_range(1..=n);
            if v != u {
                break v;
            }
        };
        UpdateOp::AddEdge {
            u,
            v,
            w: rng.gen_range(1..=8u64),
        }
    } else if choice < 7 && !slot.added.is_empty() {
        let (u, v) = slot.added[rng.gen_range(0..slot.added.len())];
        UpdateOp::RemoveEdge { u, v }
    } else {
        let e = slot.g.edges()[rng.gen_range(0..slot.g.m())];
        UpdateOp::ReweightEdge {
            u: u64::from(e.u) + 1,
            v: u64::from(e.v) + 1,
            w: rng.gen_range(1..=9u64),
        }
    }
}

/// The service probe a solve workload's traced run sends: load `g`, then
/// `rounds` × (a `paper` solve, a single-edge weight increase under one
/// pinned seed, a re-load of the result), then stats. Every increase
/// targets an edge that does not cross the known minimum cut `witness`,
/// so the minimum cut stays
/// `lambda` (raising a weight never lowers a cut, and the witness cut
/// keeps its value) and needs no oracle run on a large graph.
pub fn probe_script(g: &Graph, lambda: u64, witness: &[bool], seed: u64, rounds: usize) -> Script {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7072_6f62_6570_726f);
    let mut b = Recorder {
        steps: Vec::new(),
        states: Vec::new(),
    };
    let mut slot = b.slot(g.clone(), lambda, rng.gen_range(1..=1_000_000u64));
    b.load(&slot, false);
    for _ in 0..rounds {
        let solve_seed = rng.gen_range(1..=1_000_000u64);
        b.solve(&slot, solve_seed);
        let e = loop {
            let e = slot.g.edges()[rng.gen_range(0..slot.g.m())];
            if witness[e.u as usize] == witness[e.v as usize] {
                break e;
            }
        };
        // The wire addresses the pair's smallest-id edge, as the service
        // resolves it.
        let eid = slot.g.find_edge(e.u, e.v).expect("drawn edge exists") as usize;
        let w = slot.g.edges()[eid].w + 1;
        let op = UpdateOp::ReweightEdge {
            u: u64::from(e.u) + 1,
            v: u64::from(e.v) + 1,
            w,
        };
        let mut next = slot.g.clone();
        apply(&mut next, &op);
        b.update(&mut slot, op, next, lambda);
        b.load(&slot, true);
    }
    b.stats();
    Script {
        setup: 1,
        steps: b.steps,
        states: b.states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_scripts() {
        for conn in 0..2 {
            let a = serve_script(11, conn, 400);
            let b = serve_script(11, conn, 400);
            let frames = |s: &Script| s.steps.iter().map(|t| t.frame.clone()).collect::<Vec<_>>();
            assert_eq!(frames(&a), frames(&b));
            assert_ne!(frames(&a), frames(&serve_script(12, conn, 400)));
        }
        assert_ne!(
            serve_script(11, 0, 50).steps[0].frame,
            serve_script(11, 1, 50).steps[0].frame
        );
    }

    #[test]
    fn serve_scripts_have_the_stated_mix_and_pinned_update_seeds() {
        let s = serve_script(5, 0, 2000);
        assert_eq!(s.setup, GRAPHS_PER_CONN);
        let count = |verb| s.steps[s.setup..].iter().filter(|t| t.verb == verb).count();
        let (solves, updates) = (count(Verb::Solve), count(Verb::Update));
        assert!((900..1100).contains(&solves), "{solves} solves");
        assert!((500..700).contains(&updates), "{updates} updates");
        // One seed per graph: every update frame of a graph chain repeats it.
        let mut seeds = std::collections::HashMap::new();
        let mut current: Vec<String> = Vec::new();
        for step in &s.steps {
            match (&step.expect, Request::parse_frame(&step.frame).unwrap()) {
                (
                    Expect::Loaded {
                        id, cached: false, ..
                    },
                    _,
                ) => current.push(id.clone()),
                (Expect::Updated { from, id, .. }, Request::Update { seed, ops, .. }) => {
                    assert_eq!(ops.len(), 1);
                    let slot = current.iter().position(|c| c == from).unwrap();
                    assert_eq!(*seeds.entry(slot).or_insert(seed), seed);
                    assert_ne!(from, id, "identity updates are redrawn");
                    current[slot] = id.clone();
                }
                (Expect::Solved { .. }, Request::Solve { solver, graphs, .. }) => {
                    assert_eq!((solver.as_str(), graphs.len()), ("paper", 1));
                }
                _ => {}
            }
        }
        assert_eq!(seeds.len(), GRAPHS_PER_CONN);
    }

    /// About three times the requests a 25-second run answers per
    /// connection.
    const LONG: usize = 25_000;

    /// Replays two connections' long scripts through `Service::handle_frame`
    /// concurrently (run with `--release`): every answer, including every
    /// solved and updated cut value, must match the replica and its oracle,
    /// and graphs must stay within their added-edge cap.
    #[test]
    fn long_replay_through_the_service_has_no_mismatch() {
        use pmc_service::{Service, ServiceConfig};
        let service = Service::new(&ServiceConfig {
            threads: crate::serve::SERVE_THREADS,
            cache_graphs: crate::serve::CACHE_GRAPHS,
            ..ServiceConfig::default()
        });
        std::thread::scope(|scope| {
            for conn in 0..2 {
                let service = &service;
                scope.spawn(move || {
                    let s = serve_script(7, conn, LONG);
                    for (i, step) in s.steps.iter().enumerate() {
                        let (resp, _) = service.handle_frame(&step.frame);
                        if let Err(e) = step.expect.check(&resp) {
                            panic!("connection {conn} step {i}: {e}");
                        }
                    }
                    for g in &s.states {
                        let base = g.n() + g.n() / 2;
                        assert!(g.m() <= base + ADDED_EDGE_CAP, "{} edges", g.m());
                    }
                });
            }
        });
    }

    #[test]
    fn probe_updates_keep_the_known_cut() {
        let (g, label) = pmc_graph::gen::community_ring(4, 12, 4, 3);
        let witness: Vec<bool> = label.iter().map(|&l| l == 0).collect();
        let s = probe_script(&g, 2, &witness, 9, 5);
        for state in &s.states {
            assert_eq!(oracle(state), 2);
        }
        assert_eq!(s.steps.len(), 1 + 3 * 5 + 1);
    }
}
