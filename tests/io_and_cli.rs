//! Integration tests for the file formats and the `pmc` command-line tool
//! (the binary is exercised through `CARGO_BIN_EXE_pmc`).

use parallel_mincut::graph::{gen, io};
use std::io::Write;
use std::process::Command;

fn pmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pmc"))
}

fn write_temp(name: &str, contents: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pmc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents).unwrap();
    path
}

#[test]
fn dimacs_roundtrip_through_files() {
    let (g, value, _) = gen::planted_bisection(10, 12, 20, 3, 6, 5);
    let mut buf = Vec::new();
    io::write_dimacs(&g, &mut buf).unwrap();
    let path = write_temp("roundtrip.dimacs", &buf);
    let h = io::read_path(&path).unwrap();
    assert_eq!(g.edges(), h.edges());
    let cut = parallel_mincut::minimum_cut(&h, &Default::default()).unwrap();
    assert_eq!(cut.value, value);
}

#[test]
fn cli_starved_solve_answers_the_lightest_vertex_cut() {
    // One tree misses λ on this graph's certificate, where its cut weighs
    // 88 (769 on the input); λ = δ = 87. The solve verifies its witness,
    // so a clean exit means the witness weighs the printed value.
    let g = gen::gnm_heavy_tailed(120, 500, 102);
    let lambda = parallel_mincut::baseline::stoer_wagner(&g).unwrap().value;
    assert_eq!((lambda, g.min_weighted_degree()), (87, 87));
    let mut buf = Vec::new();
    io::write_dimacs(&g, &mut buf).unwrap();
    let path = write_temp("starved_heavy_tailed.dimacs", &buf);
    let out = pmc()
        .args([
            "mincut",
            path.to_str().unwrap(),
            "--trees",
            "1",
            "--seed",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("value: 87\n"), "{text}");
    // The witness is one lightest vertex, and it weighs the value.
    let x = g.weighted_degrees().iter().position(|&d| d == 87).unwrap();
    assert!(text.contains(&format!("smaller side: [{x}]\n")), "{text}");
}

#[test]
fn cli_gen_info_mincut_verify_pipeline() {
    let dir = std::env::temp_dir().join("pmc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("cli_pipeline.dimacs");
    let file_s = file.to_str().unwrap();

    let out = pmc()
        .args([
            "gen", "planted", "15", "15", "25", "3", "8", "9", "--out", file_s,
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");

    let out = pmc().args(["info", file_s]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("vertices: 30"), "{text}");
    assert!(text.contains("connected: true"), "{text}");

    let out = pmc()
        .args(["mincut", file_s, "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let value: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("value: "))
        .expect("value line")
        .parse()
        .unwrap();

    let out = pmc()
        .args(["verify", file_s, &value.to_string()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verify rejected the computed value {value}: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // And a wrong value must be rejected.
    let out = pmc()
        .args(["verify", file_s, &(value + 1).to_string()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_reads_edge_lists_from_stdin() {
    use std::process::Stdio;
    let mut child = pmc()
        .args(["mincut", "-", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"0 1 5\n1 2 1\n2 0 2\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("value: 3"), "{text}"); // isolate vertex 2: 1+2
}

#[test]
fn cli_rejects_malformed_input() {
    let path = write_temp("bad.dimacs", b"p cut 3 1\ne 1 99 2\n");
    let out = pmc()
        .args(["mincut", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn cli_gen_families_produce_parseable_output() {
    for fam in [
        vec!["gen", "gnm", "20", "40"],
        vec!["gen", "cycle", "12", "3"],
        vec!["gen", "grid", "4", "5"],
        vec!["gen", "barbell", "4"],
        vec!["gen", "complete", "8"],
        vec!["gen", "hypercube", "4"],
        vec!["gen", "torus", "3", "4"],
        vec!["gen", "wheel", "7"],
        vec!["gen", "community_ring", "3", "5"],
    ] {
        let out = pmc().args(&fam).output().unwrap();
        assert!(out.status.success(), "{fam:?}");
        let g = io::read_dimacs(&out.stdout[..]).unwrap();
        assert!(g.n() >= 2, "{fam:?}");
    }
}

#[test]
fn cli_gen_rejects_invalid_parameters_without_panicking() {
    for fam in [
        vec!["gen", "torus", "2", "2"],
        vec!["gen", "gnm", "10", "2"],
        vec!["gen", "hypercube", "40"],
        vec!["gen", "wheel", "2"],
    ] {
        let out = pmc().args(&fam).output().unwrap();
        assert!(!out.status.success(), "{fam:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("pmc: gen"), "{fam:?}: {err}");
        assert!(!err.contains("backtrace"), "{fam:?}: {err}");
    }
}

#[test]
fn cli_gen_known_cut_families_verify() {
    // The newly exposed families carry construction-proved cuts: generate
    // through the CLI, then `pmc verify` the known value end to end.
    let dir = std::env::temp_dir().join("pmc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, args, want) in [
        ("hypercube", vec!["gen", "hypercube", "4"], 4u64),
        ("torus", vec!["gen", "torus", "4", "5"], 4),
        ("wheel", vec!["gen", "wheel", "11"], 3),
        ("community", vec!["gen", "community_ring", "4", "5"], 2),
    ] {
        let file = dir.join(format!("gen_{name}.dimacs"));
        let file_s = file.to_str().unwrap().to_string();
        let mut full = args.clone();
        full.push("--out");
        full.push(&file_s);
        let out = pmc().args(&full).output().unwrap();
        assert!(out.status.success(), "{name}: {out:?}");
        let out = pmc()
            .args(["verify", &file_s, &want.to_string()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: verify {want} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn cli_suite_smoke_and_json() {
    let out = pmc()
        .args([
            "suite",
            "--filter",
            "smoke",
            "--seeds",
            "1",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "suite failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("conformance: OK"), "{text}");

    let out = pmc()
        .args(["suite", "--filter", "torus", "--seeds", "1", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"disagreement_count\": 0"), "{text}");

    // A filter matching nothing is an error, not an empty success.
    let out = pmc()
        .args(["suite", "--filter", "no-such-family"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // `pmc scenarios` lists the corpus.
    let out = pmc().args(["scenarios"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("hypercube/d4") && text.contains("known(4)"),
        "{text}"
    );
}
