//! The `serve-mixed` workload: two closed-loop connections drive a
//! journaled `pmc serve` child with stationary scripts of solves, updates,
//! re-loads and stats.

use std::time::{Duration, Instant};

use pmc_core::{solver_by_name, SolverConfig, SolverWorkspace};
use pmc_graph::io;
use pmc_service::protocol::{LoadSource, Request};

use crate::script::{serve_script, Script, Verb};
use crate::serve::{measured, open_session, run_concurrent, service_layers, work_dir};
use crate::solve::{stage_metrics, trace_one, write_trace};
use crate::stats::Report;
use crate::trace::Tracer;
use crate::Args;

/// Closed-loop client connections (one per hardware thread).
pub const CONNECTIONS: usize = 2;
/// Times a run repeats its set-up; `setup_s` is the median. A set-up takes
/// milliseconds, so many repeats cost little and steady the median.
const SETUP_REPS: usize = 15;
/// Pause between two set-ups.
const SETUP_GAP: Duration = Duration::from_millis(200);

/// Both connections' scripts, long enough that the run's deadline, not
/// the script, ends the measured phase at several times the current
/// throughput.
fn scripts(args: &Args) -> Vec<Script> {
    let len = 1000 * args.seconds.as_secs().max(1) as usize;
    (0..CONNECTIONS)
        .map(|c| serve_script(args.seed, c, len))
        .collect()
}

/// The untraced run. Set-up (spawn until listening, plus every
/// connection's initial loads) is repeated on fresh children and
/// journals; the last session serves the measured phase.
pub fn run(args: &Args) -> Report {
    let scripts = scripts(args);
    let work = work_dir(&args.work).expect("create the run directory");
    let journal = work.join("serve.journal");
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut session = None;
    for rep in 0..SETUP_REPS {
        let s = open_session(&args.pmc, &journal, &scripts).expect("serve session");
        setup_s.push(s.setup_s);
        for sample in &s.setup_samples {
            report.check(sample.ok);
        }
        if rep + 1 < SETUP_REPS {
            drop(s.conns);
            s.child.shutdown().expect("serve shutdown");
            // Spread the set-ups out, so that one short stall of the disk
            // (each set-up load is an fsync) cannot slow all of them.
            std::thread::sleep(SETUP_GAP);
        } else {
            session = Some(s);
        }
    }
    let mut s = session.expect("at least one set-up");
    let t = Instant::now();
    let answered = run_concurrent(&mut s.conns, &scripts, measured, Some(t + args.seconds))
        .expect("serve run");
    let elapsed = t.elapsed().as_secs_f64();
    let rss = s.child.peak_rss_mb().expect("VmHWM of the serve child");
    drop(s.conns);
    s.child.shutdown().expect("serve shutdown");
    std::fs::remove_dir_all(&work).expect("remove the run directory");

    let samples: Vec<_> = answered.iter().flatten().collect();
    for sample in &samples {
        report.check(sample.ok);
    }
    let solve_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.verb == Verb::Solve)
        .map(|s| s.us / 1e3)
        .collect();
    eprintln!(
        "perfbench: serve-mixed: {} responses in {elapsed:.1} s ({:.1}/s)",
        samples.len(),
        samples.len() as f64 / elapsed
    );
    crate::end_to_end(args, &mut report, &solve_ms, &setup_s, rss);
    report
}

/// The traced run: the service layers over TCP and in-process, then the
/// scripts' solves composed and traced at the service's inner thread
/// budget of one.
pub fn run_traced(args: &Args) -> Report {
    let scripts = scripts(args);
    let work = work_dir(&args.work).expect("create the run directory");
    let mut report = Report::default();
    let secs = args.seconds.as_secs_f64();
    service_layers(
        &args.pmc,
        &work,
        &scripts,
        Some(Instant::now() + Duration::from_secs_f64(secs * 0.4)),
        Duration::from_secs_f64(secs * 0.3),
        &mut report,
    )
    .expect("service layers");
    std::fs::remove_dir_all(&work).expect("remove the run directory");

    let tracer = Tracer::default();
    let parse_ms: Vec<f64> = scripts
        .iter()
        .flat_map(|s| &s.steps)
        .filter_map(|step| match Request::parse_frame(&step.frame) {
            Ok(Request::Load(LoadSource::Body(body))) => Some(body),
            _ => None,
        })
        .take(400)
        .map(|body| {
            let t = Instant::now();
            tracer.root(0).span("graph.parse", |_| {
                io::read_dimacs(body.as_bytes()).expect("script bodies parse")
            });
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let solver = solver_by_name("paper").expect("paper solver is registered");
    let (mut ws, mut composed_ws) = (SolverWorkspace::new(), SolverWorkspace::new());
    let deadline = Instant::now() + Duration::from_secs_f64(secs * 0.3);
    // The connections' solves, interleaved in step order.
    let solves = (0..scripts[0].steps.len())
        .flat_map(|i| {
            scripts
                .iter()
                .filter_map(move |s| s.steps.get(i).map(|st| (s, st)))
        })
        .filter_map(|(s, step)| step.solve.map(|(state, seed)| (&s.states[state], seed)));
    let mut traced = Vec::new();
    for (req, (g, seed)) in (1..).zip(solves) {
        if Instant::now() >= deadline && traced.len() >= 10 {
            break;
        }
        let cfg = SolverConfig {
            threads: Some(1),
            ..SolverConfig::with_seed(seed)
        };
        traced.push(trace_one(
            g,
            &cfg,
            solver.as_ref(),
            &mut ws,
            &mut composed_ws,
            &tracer,
            req,
            &mut report,
        ));
    }
    stage_metrics(&tracer, &traced, &parse_ms, &mut report);
    write_trace(&tracer, args);
    report
}
