//! `pmc` — command-line front end for the parallel minimum-cut library.
//!
//! ```text
//! pmc mincut <file..> [--algo A] [--seed S] [--trees T] [--threads P] [--quiet]
//! pmc gen <family> <args..> [--out FILE]               generate a workload
//! pmc suite [--filter F] [--threads T] [--seeds K] [--quick] [--json]   differential corpus run
//! pmc serve [--threads P] [--cache-graphs N] [--cache-bytes B] [--cache-shards S]
//!           [--max-inflight W] [--listen ADDR] [--no-timing]
//!           [--request-timeout-ms MS] [--idle-timeout-ms MS] [--journal FILE]
//!           [--fsync always|never] [--inject-faults SEED:SPEC]
//!                                                        persistent service
//! pmc info <file>                                      print graph statistics
//! pmc verify <file> <value> [--algo A]                 recompute and compare
//! pmc algos                                            list registered algorithms
//! pmc scenarios                                        list the scenario corpus
//! ```
//!
//! Every algorithm — the paper's parallel solver and all baselines — runs
//! through the same [`MinCutSolver`] registry; `--algo` picks one by name
//! (default `paper`). Files are DIMACS-like (`.dimacs`) or whitespace edge
//! lists (anything else); `-` means stdin. `mincut` accepts any number of
//! input files and runs them as one batch through
//! [`MinCutSolver::solve_batch_pooled`] over a [`WorkspacePool`].
//! `--threads P` bounds the parallelism of the run, a hard bound since
//! `pmc-par`'s fan-out is the only code that splits a solve across
//! threads: a single input solves with P workers (the paper solver fans
//! its packed trees across P OS threads); several inputs fan across the
//! batch with P pooled workspaces and single-threaded inner solves —
//! never both levels at once.
//! `suite` fans the scenario corpus × every registered solver ×
//! `--seeds` seeds across its own worker pool the same way and compares
//! each cut value against the scenario's oracle.
//!
//! `serve` keeps the process alive: newline-delimited JSON requests
//! (`load` / `solve` / `stats` / `shutdown`) over stdin/stdout — or over
//! a TCP listener with `--listen` — against an LRU graph cache and a warm
//! workspace pool, so repeated solves skip process startup and re-parsing
//! entirely (see the `pmc-service` crate and README for the protocol).
//! The fault-tolerance knobs: `--request-timeout-ms` arms a default
//! per-request deadline (answered `timed_out`), `--idle-timeout-ms`
//! closes silent TCP connections with a structured frame, `--journal`
//! enables write-ahead journaling of committed loads/updates with
//! startup replay (`--fsync` picks the durability policy), and
//! `--inject-faults SEED:SPEC` drives the deterministic fault-injection
//! harness (worker panics, solve delays, journal write failures) for
//! chaos testing.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use parallel_mincut::graph::{gen, io};
use parallel_mincut::scenario::{corpus, run_suite, SuiteConfig};
use parallel_mincut::service::{Service, ServiceConfig};
use parallel_mincut::{solver_by_name, solvers, Graph, MinCutSolver, SolverConfig, WorkspacePool};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("mincut") => cmd_mincut(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("algos") => cmd_algos(),
        Some("scenarios") => cmd_scenarios(),
        Some("--help") | Some("-h") => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        None => {
            eprintln!("{}", USAGE);
            return ExitCode::FAILURE;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pmc: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pmc mincut <file..> [--algo A] [--seed S] [--trees T] [--threads P] [--quiet]
  pmc gen gnm <n> <m> [max_w] [seed] [--out FILE]
  pmc gen planted <n_a> <n_b> <inner_w> <cross> <chords> [seed] [--out FILE]
  pmc gen cycle <n> <chords> [seed] [--out FILE]
  pmc gen grid <rows> <cols> [--out FILE]
  pmc gen barbell <k> [--out FILE]
  pmc gen complete <n> [max_w] [seed] [--out FILE]
  pmc gen hypercube <d> [--out FILE]
  pmc gen torus <rows> <cols> [--out FILE]
  pmc gen wheel <n> [--out FILE]
  pmc gen community_ring <communities> <size> [inner_w] [seed] [--out FILE]
  pmc suite [--filter F] [--threads T] [--seeds K] [--quick] [--json]
  pmc serve [--threads P] [--cache-graphs N] [--cache-bytes B] [--cache-shards S]
            [--max-inflight W] [--listen ADDR] [--no-timing]
            [--request-timeout-ms MS] [--idle-timeout-ms MS] [--journal FILE]
            [--fsync always|never] [--inject-faults SEED:SPEC]
  pmc loadgen [--connections N] [--requests R] [--graphs G] [--seed S]
              [--mode closed|open] [--rate RPS] [--addr HOST:PORT]
              [--serve-threads P] [--no-timing] [--json] [--trace FILE]
  pmc info <file>
  pmc verify <file> <value> [--algo A]
  pmc algos
  pmc scenarios

algorithms (--algo): paper (default), sw, contract, quadratic, brute";

fn load(path: &str) -> Result<Graph, String> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut std::io::stdin(), &mut buf).map_err(|e| e.to_string())?;
        io::read_edge_list(&buf[..])
            .or_else(|_| io::read_dimacs(&buf[..]))
            .map_err(|e| format!("stdin: {e}"))
    } else {
        io::read_path(Path::new(path)).map_err(|e| format!("{path}: {e}"))
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Rejects any `--flag` the subcommand does not know. Flags marked `true`
/// consume the following argument as their value.
fn check_flags(args: &[String], allowed: &[(&str, bool)]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            match allowed.iter().find(|(name, _)| *name == a) {
                Some((_, takes_value)) => i += usize::from(*takes_value),
                None => return Err(format!("unknown flag {a:?}\n{USAGE}")),
            }
        }
        i += 1;
    }
    Ok(())
}

/// Positional (non-flag) arguments, skipping each known flag's value.
fn positionals<'a>(args: &'a [String], allowed: &[(&str, bool)]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            if let Some((_, takes_value)) = allowed.iter().find(|(name, _)| *name == a) {
                i += usize::from(*takes_value);
            }
        } else {
            out.push(a);
        }
        i += 1;
    }
    out
}

/// Builds the shared solver config from the common CLI flags.
fn solver_setup(args: &[String]) -> Result<(Box<dyn MinCutSolver>, SolverConfig), String> {
    let algo = flag_value(args, "--algo").unwrap_or_else(|| "paper".into());
    let solver = solver_by_name(&algo).map_err(|e| e.to_string())?;
    let mut cfg = SolverConfig::default();
    if let Some(s) = flag_value(args, "--seed") {
        cfg.seed = s.parse().map_err(|_| "bad --seed")?;
    }
    if let Some(t) = flag_value(args, "--trees") {
        cfg.trees = Some(t.parse().map_err(|_| "bad --trees")?);
    }
    if let Some(p) = flag_value(args, "--threads") {
        cfg.threads = Some(p.parse().map_err(|_| "bad --threads")?);
    }
    Ok((solver, cfg))
}

const MINCUT_FLAGS: &[(&str, bool)] = &[
    ("--algo", true),
    ("--seed", true),
    ("--trees", true),
    ("--threads", true),
    ("--quiet", false),
];

fn cmd_mincut(args: &[String]) -> Result<(), String> {
    check_flags(args, MINCUT_FLAGS)?;
    let files = positionals(args, MINCUT_FLAGS);
    if files.is_empty() {
        return Err("mincut: missing input file".into());
    }
    // Resolve the algorithm before touching the input so a bad --algo
    // fails fast even when reading from stdin.
    let (solver, cfg) = solver_setup(args)?;
    let graphs: Vec<Graph> = files.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let quiet = args.iter().any(|a| a == "--quiet");
    let start = std::time::Instant::now();
    // One batch over a workspace pool: a single input solves with
    // `--threads` fanned across its packed trees; multiple inputs fan
    // across the batch, one pooled arena per worker.
    let pool = WorkspacePool::new();
    let cuts = solver
        .solve_batch_pooled(&graphs, &cfg, &pool)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let multi = files.len() > 1;
    for ((path, g), cut) in files.iter().zip(&graphs).zip(&cuts) {
        if multi {
            println!("file: {path}");
        }
        println!("value: {}", cut.value);
        if !quiet {
            let (a, b) = cut.partition();
            println!("algorithm: {}", cut.algorithm);
            println!("sides: {} / {} vertices", a.len(), b.len());
            if let Some(kind) = cut.kind {
                println!("kind: {kind:?}");
            }
            println!("crossing edges: {}", cut.crossing_edges(g).len());
            if !multi {
                println!("time: {:.1} ms", elapsed.as_secs_f64() * 1e3);
            }
            let smaller = if a.len() <= b.len() { &a } else { &b };
            if smaller.len() <= 32 {
                println!("smaller side: {smaller:?}");
            }
        }
    }
    if multi && !quiet {
        println!(
            "batch: {} graphs in {:.1} ms (pooled workspaces)",
            files.len(),
            elapsed.as_secs_f64() * 1e3
        );
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    check_flags(args, &[("--out", true)])?;
    let family = args.first().ok_or("gen: missing family")?;
    let nums: Vec<u64> = args[1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(|a| a.parse().map_err(|_| format!("bad number {a:?}")))
        .collect::<Result<_, _>>()?;
    let arg = |i: usize, default: Option<u64>| -> Result<u64, String> {
        nums.get(i)
            .copied()
            .or(default)
            .ok_or_else(|| format!("gen {family}: missing argument {i}"))
    };
    // Generators validate their parameters with asserts; surface those as
    // CLI errors instead of panics with backtraces.
    let build = || -> Result<Graph, String> {
        Ok(match family.as_str() {
            "gnm" => gen::gnm_connected(
                arg(0, None)? as usize,
                arg(1, None)? as usize,
                arg(2, Some(10))?,
                arg(3, Some(1))?,
            ),
            "planted" => {
                gen::planted_bisection(
                    arg(0, None)? as usize,
                    arg(1, None)? as usize,
                    arg(2, None)?,
                    arg(3, None)? as usize,
                    arg(4, None)? as usize,
                    arg(5, Some(1))?,
                )
                .0
            }
            "cycle" => gen::cycle_with_chords(
                arg(0, None)? as usize,
                arg(1, Some(0))? as usize,
                arg(2, Some(1))?,
            ),
            "grid" => gen::grid(arg(0, None)? as usize, arg(1, None)? as usize),
            "barbell" => gen::barbell(arg(0, None)? as usize),
            "complete" => {
                gen::complete(arg(0, None)? as usize, arg(1, Some(10))?, arg(2, Some(1))?)
            }
            "hypercube" => gen::hypercube(
                u32::try_from(arg(0, None)?)
                    .map_err(|_| format!("gen {family}: d out of range"))?,
            ),
            "torus" => gen::torus(arg(0, None)? as usize, arg(1, None)? as usize),
            "wheel" => gen::wheel(arg(0, None)? as usize),
            "community_ring" => {
                gen::community_ring(
                    arg(0, None)? as usize,
                    arg(1, None)? as usize,
                    arg(2, Some(4))?,
                    arg(3, Some(1))?,
                )
                .0
            }
            other => return Err(format!("unknown family {other:?}\n{USAGE}")),
        })
    };
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the assert backtrace
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
    std::panic::set_hook(prev_hook);
    let g = match built {
        Ok(g) => g?,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "invalid generator parameters".into());
            return Err(format!("gen {family}: {msg}"));
        }
    };
    match flag_value(args, "--out") {
        Some(path) => {
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            io::write_dimacs(&g, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
            eprintln!("wrote {} vertices, {} edges to {path}", g.n(), g.m());
        }
        None => {
            let stdout = std::io::stdout();
            io::write_dimacs(&g, stdout.lock()).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

const SUITE_FLAGS: &[(&str, bool)] = &[
    ("--filter", true),
    ("--threads", true),
    ("--seeds", true),
    ("--quick", false),
    ("--json", false),
];

fn cmd_suite(args: &[String]) -> Result<(), String> {
    check_flags(args, SUITE_FLAGS)?;
    let mut cfg = SuiteConfig {
        filter: flag_value(args, "--filter"),
        ..SuiteConfig::default()
    };
    // `--quick` is CI/golden-file sugar: the brute-force-sized smoke
    // slice, one seed. Explicit --filter/--seeds still win.
    if args.iter().any(|a| a == "--quick") {
        cfg.filter.get_or_insert_with(|| "smoke".into());
        cfg.seeds = 1;
    }
    if let Some(t) = flag_value(args, "--threads") {
        cfg.threads = t.parse().map_err(|_| "bad --threads")?;
    }
    if let Some(k) = flag_value(args, "--seeds") {
        cfg.seeds = k.parse().map_err(|_| "bad --seeds")?;
        if cfg.seeds == 0 {
            return Err("suite: --seeds must be >= 1".into());
        }
    }
    let json = args.iter().any(|a| a == "--json");
    let report = run_suite(&cfg);
    if report.cells.is_empty() {
        return Err(format!(
            "suite: no scenarios match filter {:?}",
            cfg.filter.as_deref().unwrap_or("")
        ));
    }
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "suite: {} scenarios / {} families x {} solvers x {} seeds = {} cells on {} threads",
            report.scenario_count,
            report.family_count,
            report.solver_names().len(),
            report.seeds,
            report.cells.len(),
            report.threads,
        );
        println!("| family | scenarios | cells | disagreements | mean us |");
        println!("|---|---|---|---|---|");
        for f in report.family_summaries() {
            println!(
                "| {} | {} | {} | {} | {} |",
                f.family, f.scenarios, f.cells, f.disagreements, f.mean_micros
            );
        }
        println!("elapsed: {:.1} ms", report.elapsed_ms);
    }
    let bad = report.disagreements();
    if bad.is_empty() {
        if !json {
            println!("conformance: OK (zero disagreements)");
        }
        Ok(())
    } else {
        for c in bad.iter().take(16) {
            eprintln!(
                "DISAGREE {} solver={} seed={}: expected {}, got {:?}{}",
                c.scenario,
                c.solver,
                c.seed,
                c.expected,
                c.observed,
                c.error
                    .as_deref()
                    .map(|e| format!(" ({e})"))
                    .unwrap_or_default()
            );
        }
        Err(format!("suite: {} disagreeing cells", bad.len()))
    }
}

const SERVE_FLAGS: &[(&str, bool)] = &[
    ("--threads", true),
    ("--cache-graphs", true),
    ("--cache-bytes", true),
    ("--cache-shards", true),
    ("--max-inflight", true),
    ("--listen", true),
    ("--no-timing", false),
    ("--request-timeout-ms", true),
    ("--idle-timeout-ms", true),
    ("--journal", true),
    ("--fsync", true),
    ("--inject-faults", true),
];

fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_flags(args, SERVE_FLAGS)?;
    if let Some(extra) = positionals(args, SERVE_FLAGS).first() {
        return Err(format!("serve: unexpected argument {extra:?}\n{USAGE}"));
    }
    let mut cfg = ServiceConfig::default();
    if let Some(t) = flag_value(args, "--threads") {
        cfg.threads = t.parse().map_err(|_| "bad --threads")?;
    }
    if let Some(c) = flag_value(args, "--cache-graphs") {
        cfg.cache_graphs = c.parse().map_err(|_| "bad --cache-graphs")?;
        if cfg.cache_graphs == 0 {
            return Err("serve: --cache-graphs must be >= 1".into());
        }
    }
    if let Some(b) = flag_value(args, "--cache-bytes") {
        // Heap-byte budget over resident graphs + solve snapshots
        // (0 = unbounded; the newest entry is always kept).
        cfg.cache_bytes = b.parse().map_err(|_| "bad --cache-bytes")?;
    }
    if let Some(s) = flag_value(args, "--cache-shards") {
        // Lock shards for the graph store (1 = the old single global
        // LRU; 0 is rejected — use 1 for unsharded).
        cfg.cache_shards = s.parse().map_err(|_| "bad --cache-shards")?;
        if cfg.cache_shards == 0 {
            return Err("serve: --cache-shards must be >= 1".into());
        }
    }
    if let Some(m) = flag_value(args, "--max-inflight") {
        // Admission budget in worker slots (0 = CPU-scaled default).
        // Work beyond it is answered with a structured `overloaded`
        // error instead of queueing.
        cfg.max_inflight = m.parse().map_err(|_| "bad --max-inflight")?;
    }
    cfg.timing = !args.iter().any(|a| a == "--no-timing");
    if let Some(ms) = flag_value(args, "--request-timeout-ms") {
        // Default per-request deadline (0 = none); a request's own
        // `deadline_ms` field overrides it. Expired work answers a
        // structured `timed_out` error.
        cfg.request_timeout_ms = ms.parse().map_err(|_| "bad --request-timeout-ms")?;
    }
    if let Some(ms) = flag_value(args, "--idle-timeout-ms") {
        // TCP connections silent this long get a structured
        // `idle_timeout` frame and a clean close (0 = disabled).
        cfg.idle_timeout_ms = ms.parse().map_err(|_| "bad --idle-timeout-ms")?;
    }
    cfg.journal = flag_value(args, "--journal").map(std::path::PathBuf::from);
    if let Some(policy) = flag_value(args, "--fsync") {
        cfg.fsync = parallel_mincut::service::journal::FsyncPolicy::parse(&policy)
            .map_err(|e| format!("serve: {e}"))?;
    }
    if let Some(spec) = flag_value(args, "--inject-faults") {
        cfg.faults = Some(
            parallel_mincut::service::faults::FaultPlan::parse(&spec)
                .map_err(|e| format!("serve: {e}"))?,
        );
    }
    let service = Service::open(&cfg).map_err(|e| format!("serve: {e}"))?;
    match flag_value(args, "--listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .map_err(|e| format!("serve: bind {addr}: {e}"))?;
            // The actual address first (":0" picks a free port), so
            // scripted clients can parse where to connect.
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            println!("listening: {local}");
            std::io::stdout().flush().ok();
            eprintln!(
                "pmc serve: listening on {local} ({} threads)",
                service.threads()
            );
            service
                .serve_listener(&listener)
                .map_err(|e| format!("serve: {e}"))?;
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let outcome = service
                .serve_stream(stdin.lock(), stdout.lock())
                .map_err(|e| format!("serve: {e}"))?;
            eprintln!(
                "pmc serve: {} frames answered, {}",
                outcome.frames,
                if outcome.shutdown {
                    "shut down"
                } else {
                    "input closed"
                }
            );
        }
    }
    Ok(())
}

const LOADGEN_FLAGS: &[(&str, bool)] = &[
    ("--connections", true),
    ("--requests", true),
    ("--graphs", true),
    ("--seed", true),
    ("--mode", true),
    ("--rate", true),
    ("--addr", true),
    ("--serve-threads", true),
    ("--no-timing", false),
    ("--json", false),
    ("--trace", true),
];

/// `pmc loadgen`: drive a seeded mixed workload (load/solve/update/stats)
/// over N concurrent TCP connections against a `pmc serve` and report
/// per-verb latency quantiles. Without `--addr` a dedicated child
/// `pmc serve --listen 127.0.0.1:0` is spawned (sized so nothing is
/// evicted or shed) and shut down afterwards. `--mode open` paces
/// requests on a seeded Poisson schedule at `--rate` req/s with
/// coordinated-omission-corrected latencies; `--mode closed` (default)
/// keeps one request in flight per connection. `--trace FILE` writes the
/// full request trace (`c<conn> <frame>` lines) before running — the
/// determinism tests byte-compare it across runs and connection counts.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use pmc_bench::loadgen::{run, ArrivalMode, LoadgenConfig, ServeChild};
    use pmc_bench::workload::{connection_script, WorkloadSpec};

    check_flags(args, LOADGEN_FLAGS)?;
    if let Some(extra) = positionals(args, LOADGEN_FLAGS).first() {
        return Err(format!("loadgen: unexpected argument {extra:?}\n{USAGE}"));
    }
    let parse_flag = |name: &str, default: usize| -> Result<usize, String> {
        flag_value(args, name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {name}"))
        })
    };
    let connections = parse_flag("--connections", 2)?.max(1);
    let spec = WorkloadSpec {
        seed: flag_value(args, "--seed").map_or(Ok(42), |v| v.parse().map_err(|_| "bad --seed"))?,
        graphs_per_conn: parse_flag("--graphs", 2)?.max(1),
        requests_per_conn: parse_flag("--requests", 50)?,
        base_n: 12,
    };
    let mode = match flag_value(args, "--mode").as_deref() {
        None | Some("closed") => ArrivalMode::Closed,
        Some("open") => {
            let rate: f64 = flag_value(args, "--rate")
                .map_or(Ok(200.0), |v| v.parse().map_err(|_| "bad --rate"))?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err("loadgen: --rate must be a finite value > 0".into());
            }
            ArrivalMode::Open { rate_rps: rate }
        }
        Some(other) => return Err(format!("loadgen: unknown mode {other:?} (closed|open)")),
    };

    if let Some(path) = flag_value(args, "--trace") {
        // The full request trace, before any network traffic: scripts
        // are a pure function of (seed, connection), so this is also
        // exactly what the run will send.
        let mut out = String::new();
        for conn in 0..connections {
            for step in connection_script(&spec, conn).steps {
                out.push_str(&format!("c{conn} {}\n", step.frame));
            }
        }
        std::fs::write(&path, out).map_err(|e| format!("loadgen: write {path}: {e}"))?;
    }

    let external = flag_value(args, "--addr");
    if external.is_some() && args.iter().any(|a| a == "--no-timing") {
        return Err("loadgen: --no-timing configures the spawned child; drop --addr".into());
    }
    let child = match &external {
        Some(_) => None,
        None => {
            let bin = std::env::current_exe().map_err(|e| format!("loadgen: {e}"))?;
            // Size the child so the workload is never evicted or shed:
            // residency strictness below depends on it.
            let mut serve_args = vec![
                "--cache-graphs".to_string(),
                (connections * spec.graphs_per_conn * 2).max(64).to_string(),
                "--max-inflight".to_string(),
                (connections * 4).max(16).to_string(),
            ];
            if let Some(t) = flag_value(args, "--serve-threads") {
                serve_args.push("--threads".into());
                serve_args.push(t);
            }
            if args.iter().any(|a| a == "--no-timing") {
                serve_args.push("--no-timing".into());
            }
            Some(
                ServeChild::spawn(&bin, &serve_args)
                    .map_err(|e| format!("loadgen: spawn serve: {e}"))?,
            )
        }
    };
    let cfg = LoadgenConfig {
        addr: external
            .clone()
            .unwrap_or_else(|| child.as_ref().expect("child or addr").addr.clone()),
        connections,
        spec,
        mode,
        strict_residency: child.is_some(),
    };
    let report = run(&cfg).map_err(|e| format!("loadgen: {e}"))?;
    if let Some(child) = child {
        child
            .shutdown()
            .map_err(|e| format!("loadgen: child shutdown: {e}"))?;
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_table());
    }
    if report.protocol_errors > 0 || report.mismatches > 0 {
        return Err(format!(
            "loadgen: {} protocol errors, {} mismatches{}",
            report.protocol_errors,
            report.mismatches,
            report
                .first_issue
                .as_deref()
                .map(|d| format!(" (first: {d})"))
                .unwrap_or_default()
        ));
    }
    Ok(())
}

fn cmd_scenarios() -> Result<(), String> {
    println!("| scenario | family | tags | n | m | oracle |");
    println!("|---|---|---|---|---|---|");
    for s in corpus() {
        let inst = s.instantiate(0);
        let oracle = match inst.oracle {
            parallel_mincut::scenario::Oracle::Known(v) => format!("known({v})"),
            parallel_mincut::scenario::Oracle::Baseline => "stoer-wagner".into(),
        };
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            s.name(),
            s.family(),
            s.tags().join(","),
            inst.graph.n(),
            inst.graph.m(),
            oracle
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    check_flags(args, &[])?;
    let path = args.first().ok_or("info: missing input file")?;
    let g = load(path)?;
    println!("vertices: {}", g.n());
    println!("edges: {}", g.m());
    println!("total weight: {}", g.total_weight());
    println!("min weighted degree: {}", g.min_weighted_degree());
    println!("connected: {}", parallel_mincut::graph::is_connected(&g));
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    check_flags(args, &[("--algo", true)])?;
    let path = args.first().ok_or("verify: missing input file")?;
    let claimed: u64 = args
        .get(1)
        .ok_or("verify: missing claimed value")?
        .parse()
        .map_err(|_| "verify: bad value")?;
    let g = load(path)?;
    // Default to the deterministic exact oracle; honor --algo for
    // cross-checking one randomized solver against another.
    let algo = flag_value(args, "--algo").unwrap_or_else(|| "sw".into());
    let solver = solver_by_name(&algo).map_err(|e| e.to_string())?;
    if solver.name() == "sw" && g.n() > 2500 {
        return Err("verify: exact oracle limited to n <= 2500 (pick --algo paper)".into());
    }
    let exact = solver
        .solve(&g, &SolverConfig::default())
        .map_err(|e| e.to_string())?;
    if exact.value == claimed {
        println!("OK: {} minimum cut is {}", solver.name(), exact.value);
        Ok(())
    } else {
        let mut err = std::io::stderr();
        let _ = writeln!(
            err,
            "MISMATCH: {} = {}, claimed = {claimed}",
            solver.name(),
            exact.value
        );
        Err("verification failed".into())
    }
}

fn cmd_algos() -> Result<(), String> {
    for s in solvers() {
        println!("{:<10} {}", s.name(), s.description());
    }
    Ok(())
}
