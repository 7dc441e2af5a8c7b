//! The repository benchmark's runner (see `BENCHMARK.json`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --pmc <path to the pmc binary> --work <scratch directory>
//! ```
//!
//! `perfbench/run.py` builds this binary and `pmc`, then runs it. The last
//! line of standard output is the result object; lines before it are a
//! human summary. With `--trace 0` the run reports the end-to-end metrics;
//! with `--trace 1` it reports per-layer metrics from a separate traced
//! run and writes its spans to `<work>/trace-<workload>-<seed>.jsonl`.

mod compose;
mod mixed;
mod script;
mod serve;
mod solve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use stats::{quantile, sorted, steadiness_warning, Report};

/// The workloads, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["solve-sparse", "solve-community", "serve-mixed"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub pmc: PathBuf,
    pub work: PathBuf,
    /// End-to-end regression bounds from `BENCHMARK.json`, by metric.
    pub bounds: HashMap<String, f64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag.as_str();
        if !matches!(
            name,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--pmc" | "--work"
        ) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name, value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (have {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|_| "--seed takes a u64")?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a whole number")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        pmc: PathBuf::from(get("--pmc")?),
        work: PathBuf::from(get("--work")?),
        bounds: read_bounds()?,
    })
}

/// The `end_to_end` bounds of `BENCHMARK.json` in the working directory
/// (the checkout root the benchmark runs from).
fn read_bounds() -> Result<HashMap<String, f64>, String> {
    use pmc_service::json::{self, Json};
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = match m.get("bound") {
                Some(Json::Num(raw)) => raw.parse::<f64>().ok(),
                _ => None,
            };
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// Records the end-to-end metrics every untraced run reports, prints a
/// summary with the solve sample count, and runs the steadiness
/// self-check on the reported medians.
pub fn end_to_end(
    args: &Args,
    report: &mut Report,
    solve_ms: &[f64],
    setup_s: &[f64],
    peak_rss_mb: f64,
) {
    let s = sorted(solve_ms);
    let setup = stats::median(setup_s);
    report.metric("solve_ms_p50", quantile(&s, 0.5), "ms");
    report.metric("success_ratio", report.success_ratio(), "ratio");
    report.metric("setup_s", setup, "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    println!(
        "{}: solve_ms_p50 {:.3} ms over {} solves (p25 {:.3}, p75 {:.3}); \
         setup_s {setup:.3} over {} set-ups",
        args.workload,
        quantile(&s, 0.5),
        s.len(),
        quantile(&s, 0.25),
        quantile(&s, 0.75),
        setup_s.len(),
    );
    for (name, sample) in [("solve_ms_p50", solve_ms), ("setup_s", setup_s)] {
        let bound = args.bounds.get(name).copied().unwrap_or(0.0);
        if let Some(warning) = steadiness_warning(name, sample, bound) {
            println!("{}: {warning}", args.workload);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work).expect("create the work directory");
    let report = match (args.workload.as_str(), args.trace) {
        ("serve-mixed", false) => mixed::run(&args),
        ("serve-mixed", true) => mixed::run_traced(&args),
        (_, false) => solve::run(&args),
        (_, true) => solve::run_traced(&args),
    };
    println!("{}", report.to_json());
}
