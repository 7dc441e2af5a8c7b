//! The serve side: a `pmc serve` child over loopback TCP, closed-loop
//! clients running scripts against it, and an in-process replay of the
//! same scripts through the service's public calls.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use pmc_service::protocol::{Request, Response, StatsSnapshot, UpdateMode};
use pmc_service::{FsyncPolicy, Journal, Service, ServiceConfig};

use crate::script::{Script, Step, Verb};
use crate::stats::{mean, quantile, sorted, Report};

/// Worker threads of the served child and of the in-process replay; the
/// benchmark uses at most two hardware threads.
pub const SERVE_THREADS: usize = 2;
/// Journal durability of the served child and the replay. The journal
/// stays on, but without an fsync per append: on a shared disk fsync
/// latency follows other tenants' I/O (on a shared 2-vCPU VM, 16 journaled
/// loads took 4.5 to 15 ms from run to run), and the end-to-end figures
/// would inherit that. The fsync cost is measured on its own as
/// `service.journal_append_us`.
pub const FSYNC: &str = "never";
/// Graph cache capacity of the served child and the replay. The cache
/// splits it evenly over its shards, so it must leave every shard room
/// for all of a run's graphs: an eviction would answer a scripted request
/// `graph_not_loaded`.
pub const CACHE_GRAPHS: usize = 256;

/// A `pmc serve --listen` child with a durable journal.
pub struct ServeChild {
    child: Child,
    drain: Option<thread::JoinHandle<()>>,
    pub addr: String,
}

impl ServeChild {
    /// Spawns `pmc serve` on an ephemeral loopback port, journaling to
    /// `journal` with `--fsync` [`FSYNC`], and waits until it listens.
    pub fn spawn(pmc: &Path, journal: &Path) -> io::Result<ServeChild> {
        let mut child = Command::new(pmc)
            .args(["serve", "--listen", "127.0.0.1:0", "--fsync", FSYNC])
            .arg("--threads")
            .arg(SERVE_THREADS.to_string())
            .arg("--cache-graphs")
            .arg(CACHE_GRAPHS.to_string())
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening: ").map(str::to_string) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("serve printed {line:?}")));
        };
        // Keep reading stdout so the child never blocks on a full pipe;
        // the thread ends when the child closes it.
        let drain = thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServeChild {
            child,
            drain: Some(drain),
            addr,
        })
    }

    /// The child's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the child to shut down and waits until it has exited.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = Conn::open(&self.addr)?;
        conn.round_trip(&Request::Shutdown.to_frame())?;
        let status = self.child.wait()?;
        if let Some(d) = self.drain.take() {
            d.join().expect("stdout drain thread panicked");
        }
        if !status.success() {
            return Err(io::Error::other(format!("serve exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        // Error paths: never leave a listener behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Sends one frame and waits for its response line.
    pub fn round_trip(&mut self, frame: &str) -> io::Result<&str> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        Ok(self.line.trim_end())
    }

    /// Fetches a `stats` snapshot.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match Response::parse_frame(self.round_trip(&Request::Stats.to_frame())?) {
            Ok(Response::Stats(s)) => Ok(*s),
            other => Err(io::Error::other(format!("stats answered {other:?}"))),
        }
    }
}

/// One answered step, as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub verb: Verb,
    pub us: f64,
    pub ok: bool,
    /// Mode and re-swept trees of an `updated` answer.
    pub update: Option<(UpdateMode, u64)>,
}

/// Runs `steps` closed-loop on `conn` (each request waits for the previous
/// answer), stopping at `deadline` if one is given.
pub fn run_steps(
    conn: &mut Conn,
    steps: &[Step],
    deadline: Option<Instant>,
) -> io::Result<Vec<Sample>> {
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let t = Instant::now();
        let line = conn.round_trip(&step.frame)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        let checked = Response::parse_frame(line)
            .map_err(|e| format!("{e:?}"))
            .and_then(|r| step.expect.check(&r));
        if let Err(e) = &checked {
            eprintln!("perfbench: wrong answer to {}: {e}", step.verb.as_str());
        }
        out.push(Sample {
            verb: step.verb,
            us,
            ok: checked.is_ok(),
            update: checked.ok().flatten(),
        });
    }
    Ok(out)
}

/// Runs each connection's `part` of its script concurrently, closed-loop,
/// until `deadline` (or the end of the part); samples per connection.
pub fn run_concurrent(
    conns: &mut [Conn],
    scripts: &[Script],
    part: impl Fn(&Script) -> &[Step] + Sync,
    deadline: Option<Instant>,
) -> io::Result<Vec<Vec<Sample>>> {
    thread::scope(|scope| {
        let part = &part;
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(scripts)
            .map(|(conn, s)| scope.spawn(move || run_steps(conn, part(s), deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A script's measured part: everything after its setup loads.
pub fn measured(s: &Script) -> &[Step] {
    &s.steps[s.setup..]
}

/// A served session: a fresh journal, the child, and one connection per
/// script with the setup loads answered.
pub struct Session {
    pub child: ServeChild,
    pub conns: Vec<Conn>,
    pub setup_samples: Vec<Sample>,
    pub setup_s: f64,
}

/// Spawns a child and runs the scripts' setup loads; `setup_s` covers
/// everything from spawn until the last setup load is answered.
pub fn open_session(pmc: &Path, journal: &Path, scripts: &[Script]) -> io::Result<Session> {
    match std::fs::remove_file(journal) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let t = Instant::now();
    let child = ServeChild::spawn(pmc, journal)?;
    let mut conns = scripts
        .iter()
        .map(|_| Conn::open(&child.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let setup_samples =
        run_concurrent(&mut conns, scripts, |s| &s.steps[..s.setup], None)?.concat();
    Ok(Session {
        setup_s: t.elapsed().as_secs_f64(),
        child,
        conns,
        setup_samples,
    })
}

/// The service-layer metrics every traced run reports, measured on
/// `scripts`: per-verb client, server and wire means and the cache,
/// dynamic, pool and admission counters over TCP; then decode, handle and
/// encode times of an in-process replay and the journal append time.
pub fn service_layers(
    pmc: &Path,
    work: &Path,
    scripts: &[Script],
    tcp_deadline: Option<Instant>,
    replay_budget: Duration,
    report: &mut Report,
) -> io::Result<()> {
    let journal = work.join("layers.journal");
    let Session {
        child,
        mut conns,
        setup_samples,
        ..
    } = open_session(pmc, &journal, scripts)?;
    for s in &setup_samples {
        report.check(s.ok);
    }
    let before = conns[0].stats()?;
    let t = Instant::now();
    let per_conn = run_concurrent(&mut conns, scripts, measured, tcp_deadline)?;
    let tcp_elapsed = t.elapsed();
    let after = conns[0].stats()?;
    drop(conns);
    child.shutdown()?;

    let samples: Vec<&Sample> = per_conn.iter().flatten().collect();
    for s in &samples {
        report.check(s.ok);
    }
    let all_us: Vec<f64> = samples.iter().map(|s| s.us).collect();
    report.metric(
        "service.client_us_p99",
        quantile(&sorted(&all_us), 0.99),
        "us",
    );
    for verb in Verb::TIMED {
        let client = mean(
            &samples
                .iter()
                .filter(|s| s.verb == verb)
                .map(|s| s.us)
                .collect::<Vec<_>>(),
        );
        let latency = |s: &StatsSnapshot| match verb {
            Verb::Load => s.latency.load,
            Verb::Solve => s.latency.solve,
            _ => s.latency.update,
        };
        let (a, b) = (latency(&after), latency(&before));
        let server = (a.total_us - b.total_us) as f64 / (a.count - b.count).max(1) as f64;
        let v = verb.as_str();
        report.metric(format!("service.client_us_mean.{v}"), client, "us");
        report.metric(format!("service.server_us_mean.{v}"), server, "us");
        report.metric(format!("service.wire_us_mean.{v}"), client - server, "us");
    }
    let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    let (c1, c0) = (&after.cache, &before.cache);
    report.metric(
        "service.cache.hit_ratio",
        ratio(c1.hits - c0.hits, c1.misses - c0.misses),
        "ratio",
    );
    report.metric(
        "service.cache.snapshot_hit_ratio",
        ratio(
            c1.snapshot_hits - c0.snapshot_hits,
            c1.snapshot_misses - c0.snapshot_misses,
        ),
        "ratio",
    );
    let updates: Vec<(UpdateMode, u64)> = samples.iter().filter_map(|s| s.update).collect();
    let share =
        |mode| updates.iter().filter(|u| u.0 == mode).count() as f64 / updates.len().max(1) as f64;
    let reswept: Vec<f64> = updates
        .iter()
        .filter(|u| u.0 == UpdateMode::Incremental)
        .map(|u| u.1 as f64)
        .collect();
    report.metric(
        "core.dynamic.incremental_share",
        share(UpdateMode::Incremental),
        "ratio",
    );
    report.metric(
        "core.dynamic.repack_share",
        share(UpdateMode::Repack),
        "ratio",
    );
    report.metric("core.dynamic.reswept_mean", mean(&reswept), "count");
    report.metric("core.pool.created", after.pool.created as f64, "count");
    report.metric(
        "service.admission.rejected",
        (after.admission.rejected - before.admission.rejected) as f64,
        "count",
    );
    eprintln!(
        "perfbench: service layers: {} responses over TCP in {:.1} s; updates {} \
         (incremental {:.2}, repack {:.2})",
        samples.len(),
        tcp_elapsed.as_secs_f64(),
        updates.len(),
        share(UpdateMode::Incremental),
        share(UpdateMode::Repack),
    );

    // The same steps the TCP phase answered, replayed in-process and
    // round-robin across connections until the budget runs out.
    let answered: Vec<usize> = per_conn.iter().map(Vec::len).collect();
    replay_in_process(work, scripts, &answered, replay_budget, report)?;
    std::fs::remove_file(&journal)
}

/// Decode, handle and encode times per verb from replaying the scripts
/// through `Service::handle` with a journal, then the append time of the
/// journal records the replay committed, re-appended to a fresh journal
/// with an fsync each.
fn replay_in_process(
    work: &Path,
    scripts: &[Script],
    answered: &[usize],
    budget: Duration,
    report: &mut Report,
) -> io::Result<()> {
    let journal = work.join("replay.journal");
    let rejournal = work.join("reappend.journal");
    let service = Service::open(&ServiceConfig {
        threads: SERVE_THREADS,
        cache_graphs: CACHE_GRAPHS,
        journal: Some(journal.clone()),
        fsync: FsyncPolicy::parse(FSYNC).expect("a valid fsync policy"),
        ..ServiceConfig::default()
    })
    .map_err(io::Error::other)?;
    let mut times: [Vec<[f64; 3]>; 3] = Default::default();
    let mut cursor: Vec<usize> = vec![0; scripts.len()];
    let t = Instant::now();
    // Setup loads first (every connection), then the measured steps.
    for (s, c) in scripts.iter().zip(cursor.iter_mut()) {
        for step in &s.steps[..s.setup] {
            replay_step(&service, step, &mut times, report);
        }
        *c = s.setup;
    }
    let end: Vec<usize> = scripts
        .iter()
        .zip(answered)
        .map(|(s, a)| s.setup + a)
        .collect();
    while t.elapsed() < budget {
        let mut progressed = false;
        for (i, s) in scripts.iter().enumerate() {
            if cursor[i] < end[i] {
                replay_step(&service, &s.steps[cursor[i]], &mut times, report);
                cursor[i] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    drop(service);
    for verb in Verb::TIMED {
        let t = &times[verb as usize];
        for (k, stage) in ["decode", "handle", "encode"].into_iter().enumerate() {
            let us: Vec<f64> = t.iter().map(|x| x[k]).collect();
            report.metric(
                format!("service.{stage}_us.{}", verb.as_str()),
                mean(&us),
                "us",
            );
        }
    }

    let (_, replay) = Journal::open(&journal, FsyncPolicy::Always)?;
    let (fresh, _) = Journal::open(&rejournal, FsyncPolicy::Always)?;
    let mut append_us = Vec::with_capacity(replay.records.len());
    for record in &replay.records {
        let t = Instant::now();
        fresh.append(record, None)?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(fresh);
    report.metric("service.journal_append_us", mean(&append_us), "us");
    std::fs::remove_file(&journal)?;
    std::fs::remove_file(&rejournal)
}

fn replay_step(
    service: &Service,
    step: &Step,
    times: &mut [Vec<[f64; 3]>; 3],
    report: &mut Report,
) {
    let t0 = Instant::now();
    let req = Request::parse_frame(&step.frame);
    let t1 = Instant::now();
    let ok = match req {
        Ok(req) => {
            let (resp, _) = service.handle(&req);
            let t2 = Instant::now();
            let frame = std::hint::black_box(resp.to_frame());
            let t3 = Instant::now();
            if (step.verb as usize) < times.len() {
                let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
                times[step.verb as usize].push([us(t0, t1), us(t1, t2), us(t2, t3)]);
            }
            !frame.is_empty() && step.expect.check(&resp).is_ok()
        }
        Err(_) => false,
    };
    report.check(ok);
}

/// A fresh scratch directory for one run's journals.
pub fn work_dir(root: &Path) -> io::Result<PathBuf> {
    let dir = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
