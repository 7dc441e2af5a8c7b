//! E12 — the scenario-corpus conformance report.
//!
//! Runs the full differential suite (every scenario × every applicable
//! registered solver × `--seeds` seeds, default 3) on a worker-thread
//! pool and writes the machine-readable summary committed at the repo
//! root as `BENCH_suite.json`, so every future PR diffs against a known
//! zero-disagreement baseline.
//!
//! ```text
//! cargo run --release -p pmc-bench --bin suite_report [--quick] [--seeds K] [--threads T] [--out FILE]
//! ```
//!
//! `--quick` restricts the corpus to the `smoke` slice (used by CI to
//! keep the emitter honest without paying for the full sweep).
//!
//! The file is written through [`Report`], so it opens with the shared
//! envelope; its other fields are `SuiteReport::to_json`'s (the
//! `pmc suite --json` document) after its own name, description and
//! regeneration line.

use pmc_bench::report::Report;
use pmc_scenario::{run_suite, SuiteConfig};
use pmc_service::json;

fn main() {
    let report_out = Report::from_args(
        "suite_report",
        "scenario_corpus_differential",
        "every scenario x registered solver x seed cell compared against its min-cut oracle",
        "BENCH_suite.json",
    );
    let quick = report_out.quick;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let mut cfg = SuiteConfig {
        filter: quick.then(|| "smoke".into()),
        seeds: if quick { 2 } else { 3 },
        ..SuiteConfig::default()
    };
    if let Some(k) = flag("--seeds") {
        cfg.seeds = k.parse().expect("bad --seeds");
    }
    if let Some(t) = flag("--threads") {
        cfg.threads = t.parse().expect("bad --threads");
    }

    println!("# E12 — scenario corpus conformance");
    println!();
    let report = run_suite(&cfg);
    println!(
        "{} scenarios / {} families, {} cells on {} threads in {:.1} ms",
        report.scenario_count,
        report.family_count,
        report.cells.len(),
        report.threads,
        report.elapsed_ms
    );
    println!("| family | scenarios | cells | disagreements | mean us |");
    println!("|---|---|---|---|---|");
    for f in report.family_summaries() {
        println!(
            "| {} | {} | {} | {} | {} |",
            f.family, f.scenarios, f.cells, f.disagreements, f.mean_micros
        );
    }

    let Ok(json::Json::Obj(fields)) = json::parse(&report.to_json()) else {
        panic!("SuiteReport::to_json is not a JSON object");
    };
    let envelope = ["suite", "description", "regenerate"];
    report_out.write(
        fields
            .iter()
            .filter(|(key, _)| !envelope.contains(&key.as_str()))
            .map(|(key, value)| (key.as_str(), value.clone()))
            .collect(),
    );

    let bad = report.disagreements();
    assert!(
        bad.is_empty(),
        "suite_report: {} disagreeing cells (first: {:?})",
        bad.len(),
        bad.first()
    );
}
