//! Golden-file tests for the machine-readable CLI surfaces introduced in
//! PRs 2–5 but never pinned: `pmc suite --quick --json`, the
//! `pmc scenarios` table, and a `pmc serve` stats response. Each output
//! is compared against a snapshot in `tests/golden/` after normalizing
//! the timing fields (`elapsed_ms`, `mean_micros`, `micros`,
//! `uptime_micros`) to `0` — everything else, from field order to cut
//! values, is part of the contract.
//!
//! Regenerate intentionally changed surfaces with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_cli
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn pmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pmc"))
}

/// Keys whose numeric values vary run to run and are zeroed before the
/// comparison; the keys themselves must still be present.
const VOLATILE_KEYS: &[&str] = &[
    "elapsed_ms",
    "mean_micros",
    "micros",
    "uptime_micros",
    // `pmc loadgen --json`: wall-clock latency quantiles and the probed
    // core count vary run to run / machine to machine; request counts,
    // error tallies, and histogram footprints do not.
    "hardware_threads",
    "throughput_rps",
    "min_us",
    "mean_us",
    "p50_us",
    "p95_us",
    "p99_us",
    "max_us",
];

/// Replaces the number after every `"key":` occurrence with `0`,
/// leaving everything else byte-for-byte intact.
fn normalize(text: &str) -> String {
    let mut out = text.to_string();
    for key in VOLATILE_KEYS {
        let pat = format!("\"{key}\":");
        let mut from = 0;
        while let Some(i) = out[from..].find(&pat) {
            let start = from + i + pat.len();
            let ws: usize = out[start..].chars().take_while(|c| *c == ' ').count();
            let num_start = start + ws;
            let num_len = out[num_start..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .count();
            assert!(num_len > 0, "no number after {pat} in {text}");
            out.replace_range(num_start..num_start + num_len, "0");
            from = num_start + 1;
        }
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `text` to the named snapshot, or rewrites the snapshot when
/// `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, text: &str) {
    let normalized = normalize(text);
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, &normalized).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run UPDATE_GOLDEN=1 cargo test --test golden_cli to create it)",
            path.display()
        )
    });
    if normalized != want {
        // A readable first-divergence report beats a 200-line diff dump.
        let line = normalized
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map_or(normalized.lines().count().min(want.lines().count()), |i| i);
        panic!(
            "{name} drifted from its golden file at line {line}:\n  got:  {}\n  want: {}\n\
             If the change is intentional: UPDATE_GOLDEN=1 cargo test --test golden_cli",
            normalized.lines().nth(line).unwrap_or("<eof>"),
            want.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

fn stdout_of(mut cmd: Command) -> String {
    let out = cmd.output().expect("run pmc");
    assert!(
        out.status.success(),
        "command failed: stderr={}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn suite_quick_json_matches_golden() {
    // --threads 2 pins the only machine-dependent non-timing field.
    let mut cmd = pmc();
    cmd.args(["suite", "--quick", "--threads", "2", "--json"]);
    assert_golden("suite_quick.json.golden", &stdout_of(cmd));
}

#[test]
fn scenarios_table_matches_golden() {
    let mut cmd = pmc();
    cmd.arg("scenarios");
    assert_golden("scenarios.txt.golden", &stdout_of(cmd));
}

#[test]
fn loadgen_json_summary_matches_golden() {
    // A seeded closed-loop run against a spawned --no-timing child: the
    // request trace is a pure function of (seed, connection), so every
    // non-timing field of the summary — per-verb counts, error tallies,
    // histogram footprints, workload echo — is deterministic. Timing
    // fields (latency quantiles, throughput, hardware_threads) are
    // normalized to 0 by VOLATILE_KEYS.
    let mut cmd = pmc();
    cmd.args([
        "loadgen",
        "--json",
        "--no-timing",
        "--seed",
        "1234",
        "--connections",
        "2",
        "--requests",
        "25",
    ]);
    assert_golden("loadgen_summary.json.golden", &stdout_of(cmd));
}

#[test]
fn serve_stats_response_matches_golden() {
    // A fixed session: load two graphs, solve one, mutate it three times
    // (the first update misses the snapshot cache and solves fresh; the
    // second — addressed to the re-keyed id — hits the snapshot and
    // re-solves incrementally; the third adds an edge across the only
    // minimum cut, which raises the answer past the packed one and so
    // re-packs), ask for stats. With --no-timing and --threads 2 every
    // byte of the stats response is deterministic; the
    // load/solve/update responses are pinned too (ids are
    // content-addressed, so the re-keyed ids are stable).
    let session = "{\"op\":\"load\",\"body\":\"p cut 4 4\\ne 1 2 1\\ne 2 3 1\\ne 3 4 1\\ne 4 1 1\\n\"}\n\
                   {\"op\":\"load\",\"body\":\"p cut 3 3\\ne 1 2 2\\ne 2 3 2\\ne 3 1 2\\n\"}\n\
                   {\"op\":\"solve\",\"graph\":\"g-030a2ab13a73a411\",\"solver\":\"sw\",\"seed\":5}\n\
                   {\"op\":\"update\",\"graph\":\"g-030a2ab13a73a411\",\"ops\":[{\"kind\":\"reweight_edge\",\"u\":1,\"v\":2,\"w\":3}],\"seed\":5}\n\
                   {\"op\":\"update\",\"graph\":\"g-cc1fc9baedc78a93\",\"ops\":[{\"kind\":\"reweight_edge\",\"u\":2,\"v\":3,\"w\":2}],\"seed\":5}\n\
                   {\"op\":\"update\",\"graph\":\"g-6ba48fd5366326d0\",\"ops\":[{\"kind\":\"add_edge\",\"u\":2,\"v\":4,\"w\":2}],\"seed\":5}\n\
                   {\"op\":\"stats\"}\n\
                   {\"op\":\"shutdown\"}\n";
    let mut child = pmc()
        .args(["serve", "--no-timing", "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pmc serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(session.as_bytes())
        .expect("write session");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    assert_golden(
        "serve_session.txt.golden",
        &String::from_utf8(out.stdout).expect("utf-8"),
    );
}
