//! E19 — tail latency under open/closed-loop load, SLO-gated.
//!
//! Drives the seeded `pmc-bench` loadgen workload against a dedicated
//! serve endpoint twice — once closed-loop (fixed concurrency, latency =
//! round trip) and once open-loop (Poisson arrivals, latency measured
//! from the *intended* send time so coordinated omission cannot hide
//! queueing) — and commits per-verb p50/p95/p99/max to
//! `BENCH_latency.json`.
//!
//! ```text
//! cargo run --release -p pmc-bench --bin loadgen_report [--quick] [--out FILE]
//! ```
//!
//! The endpoint is a child `pmc serve --listen` when the sibling release
//! binary is reachable (`PMC_BIN` overrides), else an in-process
//! [`Service`] behind a real TCP listener — the committed JSON records
//! which (`"mode"`), plus `hardware_threads`, so single-core container
//! numbers are labeled and a multi-core re-run produces honest curves
//! with no code changes.
//!
//! The run *asserts* its SLOs instead of merely reporting them, so CI
//! fails on regression:
//!
//! * every response parses and matches its scripted expectation
//!   (`protocol == mismatch == 0`);
//! * nothing was shed (`overloaded == timed_out == 0` — the endpoint is
//!   sized for the workload, so a shed means admission or deadline
//!   regression);
//! * every verb ran, and its p99 stays under a deliberately generous
//!   1 s bound (service time for these graphs is sub-millisecond; the
//!   bound catches gross regressions, not noise).

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use pmc_bench::loadgen::{
    hardware_threads, run, ArrivalMode, LoadgenConfig, LoadgenReport, ServeChild,
};
use pmc_bench::report::Report;
use pmc_bench::workload::{Verb, WorkloadSpec};
use pmc_service::json;
use pmc_service::protocol::{Request, Response};
use pmc_service::{Service, ServiceConfig};

/// Generous per-verb p99 ceiling, microseconds. Service time for the
/// workload's graphs is well under a millisecond even on one hardware
/// thread; a p99 past this is a gross regression, not noise.
const SLO_P99_US: u64 = 1_000_000;

const CONNECTIONS: usize = 4;

fn spec(quick: bool) -> WorkloadSpec {
    WorkloadSpec {
        seed: 0xBEEF,
        graphs_per_conn: 2,
        requests_per_conn: if quick { 40 } else { 150 },
        base_n: 12,
    }
}

/// The sibling `pmc` binary when this bench runs out of the same build
/// tree; `PMC_BIN` overrides, `None` falls back to in-process serving.
fn find_pmc_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("PMC_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let sibling = std::env::current_exe()
        .ok()?
        .parent()?
        .join(format!("pmc{}", std::env::consts::EXE_SUFFIX));
    sibling.is_file().then_some(sibling)
}

/// A serve endpoint for one measured run: child process or in-process
/// listener, shut down (and asserted clean) after the run.
enum Endpoint {
    Child(ServeChild),
    InProcess {
        addr: String,
        handle: thread::JoinHandle<std::io::Result<()>>,
    },
}

impl Endpoint {
    fn start(bin: Option<&PathBuf>, wl: &WorkloadSpec) -> Endpoint {
        let cache_graphs = (CONNECTIONS * wl.graphs_per_conn * 2).max(64);
        let max_inflight = (CONNECTIONS * 4).max(16);
        match bin {
            Some(bin) => {
                let extra = vec![
                    "--cache-graphs".to_string(),
                    cache_graphs.to_string(),
                    "--max-inflight".to_string(),
                    max_inflight.to_string(),
                ];
                Endpoint::Child(ServeChild::spawn(bin, &extra).expect("spawn pmc serve child"))
            }
            None => {
                let service = Arc::new(Service::new(&ServiceConfig {
                    cache_graphs,
                    max_inflight,
                    ..ServiceConfig::default()
                }));
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
                let addr = listener.local_addr().expect("local addr").to_string();
                let handle = thread::spawn(move || service.serve_listener(&listener));
                Endpoint::InProcess { addr, handle }
            }
        }
    }

    fn addr(&self) -> String {
        match self {
            Endpoint::Child(c) => c.addr.clone(),
            Endpoint::InProcess { addr, .. } => addr.clone(),
        }
    }

    fn stop(self) {
        match self {
            Endpoint::Child(c) => c.shutdown().expect("child shutdown"),
            Endpoint::InProcess { addr, handle } => {
                use std::io::{BufRead, BufReader, Write};
                let stream = std::net::TcpStream::connect(&addr).expect("connect for shutdown");
                let mut w = stream.try_clone().expect("clone stream");
                writeln!(w, "{}", Request::Shutdown.to_frame()).expect("send shutdown");
                let mut line = String::new();
                let _ = BufReader::new(stream).read_line(&mut line);
                assert!(
                    matches!(
                        Response::parse_frame(line.trim_end()),
                        Ok(Response::Shutdown { .. })
                    ),
                    "in-process endpoint answered {line:?} to shutdown"
                );
                handle
                    .join()
                    .expect("listener thread panicked")
                    .expect("listener loop failed");
            }
        }
    }
}

/// Runs one mode against a fresh endpoint and SLO-checks the report.
fn measured_run(bin: Option<&PathBuf>, wl: &WorkloadSpec, mode: ArrivalMode) -> LoadgenReport {
    let endpoint = Endpoint::start(bin, wl);
    let cfg = LoadgenConfig {
        addr: endpoint.addr(),
        connections: CONNECTIONS,
        spec: wl.clone(),
        mode,
        strict_residency: true,
    };
    let report = run(&cfg).expect("loadgen run failed");
    endpoint.stop();
    report
}

/// The SLO gate: panics (failing the bin, and CI) on any violation.
fn assert_slos(report: &LoadgenReport) {
    let label = report.mode;
    assert_eq!(
        report.protocol_errors, 0,
        "{label}: protocol errors (first: {:?})",
        report.first_issue
    );
    assert_eq!(
        report.mismatches, 0,
        "{label}: response/script mismatches (first: {:?})",
        report.first_issue
    );
    assert_eq!(report.overloaded, 0, "{label}: requests shed as overloaded");
    assert_eq!(report.timed_out, 0, "{label}: requests timed out");
    for verb in Verb::ALL {
        let h = &report.verbs[verb.index()];
        assert!(h.count() > 0, "{label}: verb {} never ran", verb.as_str());
        let p99 = h.quantile(0.99);
        assert!(
            p99 <= SLO_P99_US,
            "{label}: {} p99 {}us exceeds the {}us SLO",
            verb.as_str(),
            p99,
            SLO_P99_US
        );
    }
}

fn main() {
    let report = Report::from_args(
        "loadgen_report",
        "loadgen_latency",
        "per-verb latency quantiles from pmc loadgen: closed loop (fixed concurrency) and open loop (Poisson arrivals, coordinated-omission-corrected), mixed load/solve/update/stats traffic over concurrent TCP connections",
        "BENCH_latency.json",
    );
    let quick = report.quick;

    let wl = spec(quick);
    let bin = find_pmc_bin();
    let mode_label = if bin.is_some() { "child" } else { "inprocess" };
    let open_rate = if quick { 150.0 } else { 300.0 };
    println!(
        "# E19 — per-verb tail latency under load ({mode_label} endpoint, {} hardware threads)",
        hardware_threads()
    );
    println!(
        "# {} connections x ({} loads + {} mixed requests) per mode",
        CONNECTIONS, wl.graphs_per_conn, wl.requests_per_conn
    );
    println!();

    let closed = measured_run(bin.as_ref(), &wl, ArrivalMode::Closed);
    print!("{}", closed.render_table());
    println!();
    let open = measured_run(
        bin.as_ref(),
        &wl,
        ArrivalMode::Open {
            rate_rps: open_rate,
        },
    );
    print!("{}", open.render_table());

    // A run embeds as `pmc loadgen --json` prints it, re-parsed.
    let run_json = |r: &LoadgenReport| json::parse(&r.to_json()).expect("loadgen JSON parses");
    println!();
    report.write(vec![
        ("mode", json::s(mode_label)),
        (
            "slo",
            json::obj(vec![
                ("max_p99_us", json::n(SLO_P99_US)),
                ("protocol_errors", json::n(0)),
                ("mismatches", json::n(0)),
                ("overloaded", json::n(0)),
                ("timed_out", json::n(0)),
            ]),
        ),
        ("runs", json::arr(vec![run_json(&closed), run_json(&open)])),
    ]);

    // Gate last, after the report file exists, so a violation leaves the
    // numbers on disk for diagnosis while still failing the run.
    assert_slos(&closed);
    assert_slos(&open);
    println!("SLOs: clean runs, every verb p99 <= {SLO_P99_US}us");
}
