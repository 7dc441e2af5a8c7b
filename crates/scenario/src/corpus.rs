//! The scenario registry: named graph families with min-cut oracles.
//!
//! A [`Scenario`] is a deterministic recipe `seed -> Instance`: same name
//! and seed, same graph, on every machine. The registry ([`corpus`])
//! lays out a size grid per family — a small **smoke** point (within the
//! brute-force enumeration bound, so *every* registered solver applies)
//! and at least one larger stress point — and annotates each with the
//! strongest oracle available: [`Oracle::Known`] when the construction
//! proves the minimum cut, [`Oracle::Baseline`] (Stoer–Wagner) otherwise.

use pmc_graph::{gen, Graph};

/// How a scenario's expected minimum cut is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The construction proves this exact minimum cut value.
    Known(u64),
    /// No closed form; compare against the deterministic exact
    /// Stoer–Wagner baseline.
    Baseline,
}

/// One concrete graph drawn from a scenario, with its oracle annotation.
#[derive(Debug)]
pub struct Instance {
    /// The generated graph.
    pub graph: Graph,
    /// Where the expected cut value comes from.
    pub oracle: Oracle,
}

type Builder = Box<dyn Fn(u64) -> Instance + Send + Sync>;

/// A named, parameterized point of the corpus: a family, a size grid
/// position, a seed-indexed stream of instances, and tags for filtering.
pub struct Scenario {
    name: &'static str,
    family: &'static str,
    tags: &'static [&'static str],
    build: Builder,
}

impl Scenario {
    /// Unique scenario name, `family/size` by convention.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Generator family this scenario draws from.
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// Filter tags (`smoke` marks the brute-force-sized point of each
    /// family).
    pub fn tags(&self) -> &'static [&'static str] {
        self.tags
    }

    /// Materializes the instance for `seed`. Deterministic: equal seeds
    /// yield equal graphs and equal oracle annotations.
    pub fn instantiate(&self, seed: u64) -> Instance {
        (self.build)(seed)
    }

    /// Whether this scenario matches a comma-separated filter: each
    /// pattern matches by substring on the name or family, or exactly on
    /// a tag. An empty filter matches everything.
    pub fn matches(&self, filter: &str) -> bool {
        if filter.trim().is_empty() {
            return true;
        }
        filter.split(',').map(str::trim).any(|pat| {
            !pat.is_empty()
                && (self.name.contains(pat)
                    || self.family.contains(pat)
                    || self.tags.contains(&pat))
        })
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("family", &self.family)
            .field("tags", &self.tags)
            .finish_non_exhaustive()
    }
}

/// Mixes a per-scenario salt into the caller's seed so scenarios never
/// share generator randomness even at equal seed indices.
fn salted(salt: u64, seed: u64) -> u64 {
    salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed)
}

fn scenario(
    name: &'static str,
    family: &'static str,
    tags: &'static [&'static str],
    build: impl Fn(u64) -> Instance + Send + Sync + 'static,
) -> Scenario {
    Scenario {
        name,
        family,
        tags,
        build: Box::new(build),
    }
}

/// The full scenario corpus: every `pmc_graph::gen` graph family plus the
/// adversarial additions, each with a brute-force-sized `smoke` point and
/// a larger stress point. Names are unique; ordering is stable.
pub fn corpus() -> Vec<Scenario> {
    vec![
        // -- sparse random multigraphs (near-linear-work workhorse) ------
        scenario("gnm/n16_m40", "gnm", &["smoke"], |s| Instance {
            graph: gen::gnm_connected(16, 40, 8, salted(1, s)),
            oracle: Oracle::Baseline,
        }),
        scenario("gnm/n64_m192", "gnm", &[], |s| Instance {
            graph: gen::gnm_connected(64, 192, 8, salted(2, s)),
            oracle: Oracle::Baseline,
        }),
        // -- heavy-tailed weights (skewed packing rates) -----------------
        scenario("gnm_heavy/n16_m48", "gnm_heavy", &["smoke"], |s| Instance {
            graph: gen::gnm_heavy_tailed(16, 48, salted(3, s)),
            oracle: Oracle::Baseline,
        }),
        scenario("gnm_heavy/n56_m168", "gnm_heavy", &[], |s| Instance {
            graph: gen::gnm_heavy_tailed(56, 168, salted(4, s)),
            oracle: Oracle::Baseline,
        }),
        // -- planted bisections (provable cut, the paper's target case) --
        scenario("planted/n12", "planted", &["smoke"], |s| {
            let (graph, value, _) = gen::planted_bisection(6, 6, 12, 2, 4, salted(5, s));
            Instance {
                graph,
                oracle: Oracle::Known(value),
            }
        }),
        scenario("planted/n48", "planted", &[], |s| {
            let (graph, value, _) = gen::planted_bisection(24, 24, 30, 3, 12, salted(6, s));
            Instance {
                graph,
                oracle: Oracle::Known(value),
            }
        }),
        // -- cycles (tiny cuts everywhere) -------------------------------
        scenario("cycle/n12", "cycle", &["smoke"], |s| Instance {
            graph: gen::cycle_with_chords(12, 0, salted(7, s)),
            oracle: Oracle::Known(2),
        }),
        scenario("cycle/n40_chords10", "cycle", &[], |s| Instance {
            graph: gen::cycle_with_chords(40, 10, salted(8, s)),
            oracle: Oracle::Baseline,
        }),
        // -- grids (planar, all cuts geometric) --------------------------
        scenario("grid/3x5", "grid", &["smoke"], |_| Instance {
            graph: gen::grid(3, 5),
            oracle: Oracle::Known(2), // corner isolation; no bridges
        }),
        scenario("grid/8x8", "grid", &[], |_| Instance {
            graph: gen::grid(8, 8),
            oracle: Oracle::Known(2),
        }),
        // -- complete graphs (densest regime, certificate territory) -----
        scenario("complete/n12", "complete", &["smoke"], |s| Instance {
            graph: gen::complete(12, 6, salted(9, s)),
            oracle: Oracle::Baseline,
        }),
        scenario("complete/n24", "complete", &[], |s| Instance {
            graph: gen::complete(24, 6, salted(10, s)),
            oracle: Oracle::Baseline,
        }),
        // -- barbells (min cut 1 between dense sides) --------------------
        scenario("barbell/k6", "barbell", &["smoke"], |_| Instance {
            graph: gen::barbell(6),
            oracle: Oracle::Known(1),
        }),
        scenario("barbell/k16", "barbell", &[], |_| Instance {
            graph: gen::barbell(16),
            oracle: Oracle::Known(1),
        }),
        // -- hypercubes (cut exactly d) ----------------------------------
        scenario("hypercube/d4", "hypercube", &["smoke"], |_| Instance {
            graph: gen::hypercube(4),
            oracle: Oracle::Known(4),
        }),
        scenario("hypercube/d6", "hypercube", &[], |_| Instance {
            graph: gen::hypercube(6),
            oracle: Oracle::Known(6),
        }),
        // -- tori (4-regular, cut exactly 4) -----------------------------
        scenario("torus/4x4", "torus", &["smoke"], |_| Instance {
            graph: gen::torus(4, 4),
            oracle: Oracle::Known(4),
        }),
        scenario("torus/6x7", "torus", &[], |_| Instance {
            graph: gen::torus(6, 7),
            oracle: Oracle::Known(4),
        }),
        // -- wheels (hub + rim, cut exactly 3) ---------------------------
        scenario("wheel/n12", "wheel", &["smoke"], |_| Instance {
            graph: gen::wheel(12),
            oracle: Oracle::Known(3),
        }),
        scenario("wheel/n40", "wheel", &[], |_| Instance {
            graph: gen::wheel(40),
            oracle: Oracle::Known(3),
        }),
        // -- community rings (multi-way planted structure) ---------------
        scenario("community/4x4", "community", &["smoke"], |s| Instance {
            graph: gen::community_ring(4, 4, 4, salted(11, s)).0,
            oracle: Oracle::Known(2), // two unit bridges isolate a community
        }),
        scenario("community/6x8", "community", &[], |s| Instance {
            graph: gen::community_ring(6, 8, 5, salted(12, s)).0,
            oracle: Oracle::Known(2),
        }),
        // -- random regular (uniform degrees, no weak vertex) ------------
        scenario("regular/n16_d4", "regular", &["smoke"], |s| Instance {
            graph: gen::random_regular(16, 4, salted(13, s)),
            oracle: Oracle::Baseline,
        }),
        scenario("regular/n60_d6", "regular", &[], |s| Instance {
            graph: gen::random_regular(60, 6, salted(14, s)),
            oracle: Oracle::Baseline,
        }),
        // -- preferential attachment (power-law hubs) --------------------
        scenario("powerlaw/n16_a2", "powerlaw", &["smoke"], |s| Instance {
            graph: gen::preferential_attachment(16, 2, salted(15, s)),
            oracle: Oracle::Baseline,
        }),
        scenario("powerlaw/n64_a3", "powerlaw", &[], |s| Instance {
            graph: gen::preferential_attachment(64, 3, salted(16, s)),
            oracle: Oracle::Baseline,
        }),
        // -- near-disconnected bridges (cut far below every degree) ------
        scenario("bridge/n12", "bridge", &["smoke"], |s| {
            let (graph, value) = gen::bridge_graph(6, 4, 1, salted(17, s));
            Instance {
                graph,
                oracle: Oracle::Known(value),
            }
        }),
        scenario("bridge/n48_w5", "bridge", &[], |s| {
            let (graph, value) = gen::bridge_graph(24, 16, 5, salted(18, s));
            Instance {
                graph,
                oracle: Oracle::Known(value),
            }
        }),
        // -- contracted multigraphs (parallel-edge stress) ---------------
        scenario("contracted/k12", "contracted", &["smoke"], |s| Instance {
            graph: gen::contracted_multigraph(40, 100, 12, salted(19, s)),
            oracle: Oracle::Baseline,
        }),
        scenario("contracted/k40", "contracted", &[], |s| Instance {
            graph: gen::contracted_multigraph(120, 360, 40, salted(20, s)),
            oracle: Oracle::Baseline,
        }),
        // -- mutation traces over the incremental dynamic solver ---------
        // The oracle is `Oracle::Known(value)` where `value` came out of
        // the *incremental* re-solve path, so every from-scratch solver
        // in the suite differentially checks the dynamic path.
        scenario("dynamic/n16_t12", "dynamic", &["smoke"], |s| {
            dynamic_instance(
                gen::cycle_with_chords(16, 5, salted(21, s)),
                salted(21, s),
                12,
                TraceKind::Mixed,
            )
        }),
        scenario("dynamic/n64_t40", "dynamic", &[], |s| {
            dynamic_instance(
                gen::cycle_with_chords(64, 20, salted(22, s)),
                salted(22, s),
                40,
                TraceKind::Mixed,
            )
        }),
        scenario("dynamic/n48_reweight", "dynamic", &[], |s| {
            dynamic_instance(
                gen::gnm_connected(48, 140, 8, salted(23, s)),
                salted(23, s),
                32,
                TraceKind::ReweightOnly,
            )
        }),
        scenario("dynamic/n80_grow", "dynamic", &[], |s| {
            dynamic_instance(
                gen::cycle_with_chords(80, 8, salted(24, s)),
                salted(24, s),
                48,
                TraceKind::Mixed,
            )
        }),
    ]
}

/// What ops a dynamic mutation trace draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceKind {
    /// Reweights, chord additions, and removals of non-ring chords.
    Mixed,
    /// Reweights only — safe on any connected base graph.
    ReweightOnly,
}

/// SplitMix64 step: the trace RNG (the corpus cannot pull in a rand
/// crate, and `gen`'s xorshift is private to `pmc-graph`).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replays a seeded mutation trace through the *incremental* dynamic
/// solver ([`SolveState`](pmc_core::SolveState)), resolving every few
/// ops so the trace crosses several incremental/repack rounds, and
/// returns the mutated graph annotated with the incremental answer as a
/// [`Oracle::Known`] value. Connectivity is preserved by construction:
/// removals only ever address vertex pairs at ring distance ≥ 2 on a
/// cycle-backboned base (so only chords can match), and
/// [`TraceKind::ReweightOnly`] never deletes at all — which keeps the
/// corpus-wide connectivity invariant intact.
fn dynamic_instance(mut g: Graph, seed: u64, ops: usize, kind: TraceKind) -> Instance {
    use pmc_core::{apply_delta, MutationOp, SolveState, SolverWorkspace};
    let mut ws = SolverWorkspace::new();
    let mut state =
        SolveState::fresh(&g, seed, &mut ws, Some(1)).expect("corpus base graphs are solvable");
    let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
    let n = g.n() as u64;
    // Vertex pairs added by this trace; removals draw from here first so
    // churn revisits its own chords (remove-then-re-add style traffic).
    let mut added: Vec<(u32, u32)> = Vec::new();
    for i in 0..ops {
        let choice = match kind {
            TraceKind::ReweightOnly => 0,
            TraceKind::Mixed => splitmix(&mut rng) % 4,
        };
        let op = match choice {
            1 => {
                // Add a chord at ring distance >= 2: never parallel to a
                // ring edge, so a later removal of this pair cannot break
                // the backbone.
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
                let eid = g
                    .find_edge(u, v)
                    .expect("an added chord pair always has an edge left");
                MutationOp::Remove { eid }
            }
            _ => {
                let eid = (splitmix(&mut rng) % g.m() as u64) as u32;
                MutationOp::Reweight {
                    eid,
                    w: 1 + splitmix(&mut rng) % 9,
                }
            }
        };
        apply_delta(&mut g, &mut state, &op).expect("trace ops are valid by construction");
        if i % 4 == 3 {
            state
                .resolve(&g, &mut ws, Some(1))
                .expect("incremental resolve of a valid trace");
        }
    }
    state
        .resolve(&g, &mut ws, Some(1))
        .expect("final resolve of a valid trace");
    let value = state.best().value;
    Instance {
        graph: g,
        oracle: Oracle::Known(value),
    }
}

/// The name of the hidden fault-injection scenario (see
/// `injected_disagreement` below): only an explicit filter containing
/// this string reaches it.
pub const INJECTED_DISAGREEMENT_FILTER: &str = "__bad-oracle";

/// A deliberately wrong scenario for exercising the suite's *failure*
/// path end to end: an 8-cycle (true minimum cut 2) annotated with
/// `Oracle::Known(3)`. Every solver disagrees with the oracle, so a
/// suite run over it must report disagreements and exit nonzero — which
/// is exactly what `tests/exit_codes.rs` asserts. Excluded from
/// [`corpus`] so normal runs, `pmc scenarios`, and CI never see it.
fn injected_disagreement() -> Scenario {
    scenario("__bad-oracle/cycle8", "__injected", &[], |s| Instance {
        graph: gen::cycle_with_chords(8, 0, salted(0xBAD, s)),
        oracle: Oracle::Known(3), // wrong on purpose: the true cut is 2
    })
}

/// The corpus restricted to scenarios matching `filter` (see
/// [`Scenario::matches`]); `None` returns everything. A filter naming
/// [`INJECTED_DISAGREEMENT_FILTER`] additionally reaches the hidden
/// fault-injection scenario, so the suite's nonzero-exit path stays
/// testable from the CLI without polluting the real corpus.
pub fn corpus_filtered(filter: Option<&str>) -> Vec<Scenario> {
    let mut all = corpus();
    if let Some(f) = filter {
        if f.contains(INJECTED_DISAGREEMENT_FILTER) {
            all.push(injected_disagreement());
        }
        all.retain(|s| s.matches(f));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_families_plentiful() {
        let all = corpus();
        let names: BTreeSet<_> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        let families: BTreeSet<_> = all.iter().map(|s| s.family()).collect();
        assert!(families.len() >= 10, "only {} families", families.len());
    }

    #[test]
    fn every_family_has_a_smoke_point_within_brute_bound() {
        let all = corpus();
        let families: BTreeSet<_> = all.iter().map(|s| s.family()).collect();
        for fam in families {
            let smoke: Vec<_> = all
                .iter()
                .filter(|s| s.family() == fam && s.tags().contains(&"smoke"))
                .collect();
            assert!(!smoke.is_empty(), "family {fam} has no smoke scenario");
            for s in smoke {
                let inst = s.instantiate(0);
                assert!(
                    inst.graph.n() <= pmc_baseline::BRUTE_MAX_N,
                    "{} smoke instance too big for brute (n = {})",
                    s.name(),
                    inst.graph.n()
                );
            }
        }
    }

    #[test]
    fn instantiation_is_deterministic() {
        for s in corpus() {
            let a = s.instantiate(3);
            let b = s.instantiate(3);
            assert_eq!(a.graph.edges(), b.graph.edges(), "{}", s.name());
            assert_eq!(a.oracle, b.oracle, "{}", s.name());
        }
    }

    #[test]
    fn instances_are_connected() {
        // Every oracle assumes a connected instance (cut value > 0).
        for s in corpus() {
            for seed in 0..2 {
                let inst = s.instantiate(seed);
                assert!(
                    pmc_graph::is_connected(&inst.graph),
                    "{} seed {seed} disconnected",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn filters_select_by_name_family_and_tag() {
        assert_eq!(corpus_filtered(None).len(), corpus().len());
        let smoke = corpus_filtered(Some("smoke"));
        assert!(!smoke.is_empty());
        assert!(smoke.iter().all(|s| s.tags().contains(&"smoke")));
        let tori = corpus_filtered(Some("torus"));
        assert!(tori.iter().all(|s| s.family() == "torus"));
        assert_eq!(tori.len(), 2);
        let multi = corpus_filtered(Some("torus, wheel"));
        assert_eq!(multi.len(), 4);
        assert!(corpus_filtered(Some("no-such-thing")).is_empty());
    }

    #[test]
    fn injected_disagreement_stays_hidden_without_its_filter() {
        assert!(corpus().iter().all(|s| !s.name().contains("__bad-oracle")));
        assert!(corpus_filtered(None)
            .iter()
            .all(|s| !s.name().contains("__bad-oracle")));
        let hidden = corpus_filtered(Some(INJECTED_DISAGREEMENT_FILTER));
        assert_eq!(hidden.len(), 1);
        assert_eq!(hidden[0].family(), "__injected");
        // The annotation is wrong on purpose; the instance is real.
        let inst = hidden[0].instantiate(0);
        assert_eq!(inst.oracle, Oracle::Known(3));
        assert_eq!(inst.graph.n(), 8);
    }

    #[test]
    fn known_oracles_match_an_actual_cut() {
        // Sanity: for every Known oracle, some vertex-isolation or
        // construction cut achieves the claimed value (full minimality is
        // the suite's job; here we only guard against typoed annotations).
        for s in corpus() {
            let inst = s.instantiate(1);
            if let Oracle::Known(v) = inst.oracle {
                let sw = pmc_baseline::stoer_wagner(&inst.graph).unwrap();
                assert_eq!(sw.value, v, "{} oracle annotation wrong", s.name());
            }
        }
    }
}
