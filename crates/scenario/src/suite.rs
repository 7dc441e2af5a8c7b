//! The parallel differential suite runner behind `pmc suite`.
//!
//! Work unit = one (scenario, seed) pair. Workers pull units from a
//! shared cursor ([`pmc_par::fanout_units`], the workspace's one parallel
//! runtime, on real OS threads, so throughput scales with `--threads`),
//! materialize the instance once, resolve its oracle (closed
//! form, or one Stoer–Wagner solve), then run **every** applicable
//! registered solver on it through the amortized
//! [`solve_with`](pmc_core::MinCutSolver::solve_with) path. Each worker
//! checks a [`SolverWorkspace`] out of a
//! [`WorkspacePool`] for the whole run, so the suite doubles as a stress
//! test of arena reuse across heterogeneous graph families. Inner solves
//! run with a thread budget of 1: the cell grid is the only level of
//! parallelism, so `--threads` never oversubscribes the machine.
//!
//! Results are deterministic up to cell ordering; the runner sorts them,
//! so two runs with different thread counts produce identical reports
//! (modulo timings) — property-tested in `tests/suite_props.rs`.

use std::time::Instant;

use pmc_core::WorkspacePool;
use pmc_core::{solvers_for, MinCutSolver, SolverConfig, SolverWorkspace, StoerWagnerSolver};

use crate::corpus::{corpus_filtered, Oracle, Scenario};

/// Configuration for [`run_suite`].
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Comma-separated scenario filter (substring on name/family, exact
    /// on tags); `None` runs the full corpus.
    pub filter: Option<String>,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Seeds per scenario — each seed is an independent instance draw
    /// *and* an independent solver randomness stream.
    pub seeds: u64,
    /// Target failure probability handed to the Monte Carlo solvers.
    pub failure_probability: f64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            filter: None,
            threads: 0,
            seeds: 3,
            failure_probability: 1e-3,
        }
    }
}

/// One scenario × solver × seed outcome.
#[derive(Clone, Debug)]
pub struct SuiteCell {
    /// Scenario name (`family/size`).
    pub scenario: &'static str,
    /// Scenario family.
    pub family: &'static str,
    /// Registry name of the solver.
    pub solver: &'static str,
    /// Seed index of the instance draw.
    pub seed: u64,
    /// Instance vertex count.
    pub n: usize,
    /// Instance edge count.
    pub m: usize,
    /// Oracle cut value for the instance.
    pub expected: u64,
    /// The solver's cut value (`None` if it returned an error).
    pub observed: Option<u64>,
    /// The solver's error, if any.
    pub error: Option<String>,
    /// Wall time of the solve, microseconds.
    pub micros: u128,
}

impl SuiteCell {
    /// Whether this cell's solver agreed with the oracle.
    pub fn agrees(&self) -> bool {
        self.observed == Some(self.expected)
    }
}

/// Per-family aggregate for tables and the committed JSON.
#[derive(Clone, Debug)]
pub struct FamilySummary {
    /// Family name.
    pub family: &'static str,
    /// Distinct scenarios of this family that ran.
    pub scenarios: usize,
    /// Total cells of this family.
    pub cells: usize,
    /// Cells whose solver disagreed with the oracle (or errored).
    pub disagreements: usize,
    /// Mean solve time across the family's cells, microseconds.
    pub mean_micros: u128,
}

/// Everything one [`run_suite`] call produced.
#[derive(Debug)]
pub struct SuiteReport {
    /// All cells, sorted by (scenario, solver, seed).
    pub cells: Vec<SuiteCell>,
    /// Scenarios that ran (after filtering).
    pub scenario_count: usize,
    /// Distinct families among them.
    pub family_count: usize,
    /// Seeds per scenario.
    pub seeds: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Filter the run used, if any.
    pub filter: Option<String>,
    /// End-to-end wall time, milliseconds.
    pub elapsed_ms: f64,
}

impl SuiteReport {
    /// Cells whose solver disagreed with the oracle or errored.
    pub fn disagreements(&self) -> Vec<&SuiteCell> {
        self.cells.iter().filter(|c| !c.agrees()).collect()
    }

    /// `true` when every cell matched its oracle.
    pub fn all_agree(&self) -> bool {
        self.cells.iter().all(SuiteCell::agrees)
    }

    /// Distinct solver names that produced cells, registry order
    /// preserved by the sort within each scenario.
    pub fn solver_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.solver) {
                names.push(c.solver);
            }
        }
        names.sort_unstable();
        names
    }

    /// Per-family aggregates, sorted by family name.
    pub fn family_summaries(&self) -> Vec<FamilySummary> {
        let mut families: Vec<&'static str> = self.cells.iter().map(|c| c.family).collect();
        families.sort_unstable();
        families.dedup();
        families
            .into_iter()
            .map(|fam| {
                let cells: Vec<&SuiteCell> =
                    self.cells.iter().filter(|c| c.family == fam).collect();
                let scenarios = {
                    let mut names: Vec<_> = cells.iter().map(|c| c.scenario).collect();
                    names.sort_unstable();
                    names.dedup();
                    names.len()
                };
                let total_micros: u128 = cells.iter().map(|c| c.micros).sum();
                FamilySummary {
                    family: fam,
                    scenarios,
                    cells: cells.len(),
                    disagreements: cells.iter().filter(|c| !c.agrees()).count(),
                    mean_micros: total_micros / cells.len().max(1) as u128,
                }
            })
            .collect()
    }

    /// Machine-readable conformance report (hand-rolled JSON; the
    /// workspace has no serde). Committed as `BENCH_suite.json` by
    /// `cargo run --release -p pmc-bench --bin suite_report`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"suite\": \"scenario_corpus_differential\",\n");
        s.push_str(
            "  \"description\": \"every scenario x registered solver x seed cell compared against its min-cut oracle\",\n",
        );
        s.push_str("  \"regenerate\": \"cargo run --release -p pmc-bench --bin suite_report\",\n");
        s.push_str(&format!(
            "  \"filter\": {},\n",
            match &self.filter {
                Some(f) => format!("\"{}\"", escape_json(f)),
                None => "null".into(),
            }
        ));
        s.push_str(&format!("  \"seeds\": {},\n", self.seeds));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"scenario_count\": {},\n", self.scenario_count));
        s.push_str(&format!("  \"family_count\": {},\n", self.family_count));
        s.push_str(&format!("  \"cell_count\": {},\n", self.cells.len()));
        s.push_str(&format!(
            "  \"disagreement_count\": {},\n",
            self.disagreements().len()
        ));
        s.push_str(&format!("  \"elapsed_ms\": {:.1},\n", self.elapsed_ms));
        let solvers = self
            .solver_names()
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!("  \"solvers\": [{solvers}],\n"));
        s.push_str("  \"families\": [\n");
        let sums = self.family_summaries();
        for (i, f) in sums.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"family\": \"{}\", \"scenarios\": {}, \"cells\": {}, \"disagreements\": {}, \"mean_micros\": {}}}{}\n",
                f.family,
                f.scenarios,
                f.cells,
                f.disagreements,
                f.mean_micros,
                if i + 1 == sums.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"disagreeing_cells\": [\n");
        let bad = self.disagreements();
        for (i, c) in bad.iter().take(32).enumerate() {
            s.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"solver\": \"{}\", \"seed\": {}, \"expected\": {}, \"observed\": {}, \"error\": {}}}{}\n",
                c.scenario,
                c.solver,
                c.seed,
                c.expected,
                c.observed.map_or("null".into(), |v| v.to_string()),
                c.error
                    .as_deref()
                    .map_or("null".into(), |e| format!("\"{}\"", escape_json(e))),
                if i + 1 == bad.len().min(32) { "" } else { "," }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// enough for solver error messages, which may quote algorithm names.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Derives the solver-randomness seed for a cell so every (scenario,
/// seed) pair gets an independent stream.
fn cell_seed(scenario_index: usize, seed: u64) -> u64 {
    (scenario_index as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(seed)
        .wrapping_add(0xD1FF)
}

/// Runs the differential suite: scenario × applicable solver × seed,
/// fanned across `cfg.threads` workers, each reusing one pooled
/// [`SolverWorkspace`] for all its cells.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteReport {
    run_suite_pooled(cfg, &WorkspacePool::new())
}

/// [`run_suite`] drawing the per-worker workspaces from a caller-owned
/// [`WorkspacePool`], so repeated suite runs (watch loops, CI retries)
/// reuse the grown arenas instead of re-warming fresh ones.
pub fn run_suite_pooled(cfg: &SuiteConfig, pool: &WorkspacePool) -> SuiteReport {
    let scenarios = corpus_filtered(cfg.filter.as_deref());
    let units: Vec<(usize, u64)> = (0..scenarios.len())
        .flat_map(|si| (0..cfg.seeds.max(1)).map(move |seed| (si, seed)))
        .collect();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        cfg.threads
    }
    .min(units.len().max(1))
    .max(1);

    let start = Instant::now();
    let mut workspaces: Vec<_> = (0..threads).map(|_| pool.checkout()).collect();
    let per_unit: Vec<Vec<SuiteCell>> =
        pmc_par::fanout_units(&mut workspaces, units.len(), |ws, i| {
            let (si, seed) = units[i];
            let mut local = Vec::new();
            run_unit(&scenarios[si], si, seed, cfg, ws, &mut local);
            local
        });
    drop(workspaces); // return the arenas to the pool
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut cells: Vec<SuiteCell> = per_unit.into_iter().flatten().collect();
    cells.sort_by(|a, b| (a.scenario, a.solver, a.seed).cmp(&(b.scenario, b.solver, b.seed)));
    let family_count = {
        let mut fams: Vec<_> = scenarios.iter().map(|s| s.family()).collect();
        fams.sort_unstable();
        fams.dedup();
        fams.len()
    };
    SuiteReport {
        cells,
        scenario_count: scenarios.len(),
        family_count,
        seeds: cfg.seeds.max(1),
        threads,
        filter: cfg.filter.clone(),
        elapsed_ms,
    }
}

/// One work unit: materialize the instance, resolve the oracle, run every
/// applicable solver, append the cells.
fn run_unit(
    scenario: &Scenario,
    scenario_index: usize,
    seed: u64,
    cfg: &SuiteConfig,
    ws: &mut SolverWorkspace,
    out: &mut Vec<SuiteCell>,
) {
    let inst = scenario.instantiate(seed);
    let g = &inst.graph;
    // Thread budget 1: the suite's cell grid is the only parallel level,
    // so worker counts compose instead of multiplying. Solver results are
    // thread-count invariant, so this changes nothing but scheduling.
    let solver_cfg = SolverConfig {
        seed: cell_seed(scenario_index, seed),
        failure_probability: cfg.failure_probability,
        threads: Some(1),
        ..SolverConfig::default()
    };
    // Resolving a Baseline oracle *is* a Stoer–Wagner solve; keep its
    // result and timing so the `sw` solver cell below doesn't repeat the
    // most expensive exact computation of the unit.
    let (expected, sw_oracle) = match inst.oracle {
        Oracle::Known(v) => (v, None),
        Oracle::Baseline => {
            let t = Instant::now();
            let r = StoerWagnerSolver
                .solve_with(g, &solver_cfg, ws)
                .expect("Stoer-Wagner oracle failed on a corpus instance");
            (r.value, Some((r.value, t.elapsed().as_micros())))
        }
    };
    for solver in solvers_for(g) {
        let (observed, error, micros) = match sw_oracle {
            Some((v, micros)) if solver.name() == StoerWagnerSolver.name() => {
                (Some(v), None, micros)
            }
            _ => {
                let t = Instant::now();
                let outcome = solver.solve_with(g, &solver_cfg, ws);
                let micros = t.elapsed().as_micros();
                match outcome {
                    Ok(r) => (Some(r.value), None, micros),
                    Err(e) => (None, Some(e.to_string()), micros),
                }
            }
        };
        out.push(SuiteCell {
            scenario: scenario.name(),
            family: scenario.family(),
            solver: solver.name(),
            seed,
            n: g.n(),
            m: g.m(),
            expected,
            observed,
            error,
            micros,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_agrees_everywhere() {
        let report = run_suite(&SuiteConfig {
            filter: Some("smoke".into()),
            threads: 2,
            seeds: 1,
            ..SuiteConfig::default()
        });
        assert!(report.all_agree(), "{:?}", report.disagreements());
        assert!(report.scenario_count >= 10);
        assert!(report.family_count >= 10);
        // Smoke instances are within the brute bound, so all five solvers
        // appear.
        assert_eq!(report.solver_names().len(), pmc_core::solvers().len());
        // Each scenario contributes seeds × solvers cells.
        assert_eq!(
            report.cells.len(),
            report.scenario_count * pmc_core::solvers().len()
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = |t: usize| SuiteConfig {
            filter: Some("torus, wheel, bridge".into()),
            threads: t,
            seeds: 2,
            ..SuiteConfig::default()
        };
        let a = run_suite(&cfg(1));
        let b = run_suite(&cfg(4));
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.solver, y.solver);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.expected, y.expected);
            assert_eq!(x.observed, y.observed);
        }
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let report = run_suite(&SuiteConfig {
            filter: Some("hypercube/d4".into()),
            threads: 1,
            seeds: 1,
            ..SuiteConfig::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"cell_count\""));
        assert!(json.contains("\"disagreement_count\": 0"));
        assert!(json.contains("\"hypercube\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn escape_json_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_filter_result_yields_empty_report() {
        let report = run_suite(&SuiteConfig {
            filter: Some("no-such-scenario".into()),
            threads: 2,
            seeds: 2,
            ..SuiteConfig::default()
        });
        assert_eq!(report.cells.len(), 0);
        assert!(report.all_agree());
        assert_eq!(report.scenario_count, 0);
    }
}
