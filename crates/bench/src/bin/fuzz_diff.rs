//! Differential fuzzing harness: hammer the full pipeline against the
//! exact oracle on randomized workloads until a time budget expires.
//!
//! ```sh
//! cargo run --release -p pmc-bench --bin fuzz_diff [seconds] [max_n] [--seed S] [--trials N]
//! ```
//!
//! Every trial draws a random family, size, weights and seed; computes
//! the minimum cut with every randomized solver in the registry (paper,
//! contraction, quadratic) and with the exact Stoer–Wagner oracle, all
//! through the `MinCutSolver` seam; and compares values plus witness
//! validity. Any mismatch prints a replayable description and exits
//! non-zero.
//!
//! The run draws from `--seed S` (default: the clock, printed first so a
//! failure can be replayed). `--trials N` runs exactly `N` trials instead
//! of stopping at the time budget, so a fixed seed and trial count make
//! the same run on any machine.

use pmc_bench::{solver, SolverConfig};
use pmc_graph::{gen, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One random instance, with a replayable description, from twelve
/// families: seven structured ones and the scenario corpus's five
/// adversarial generators (random regular, power-law, heavy-tailed
/// weights, bridge, contracted multigraph).
fn random_graph(rng: &mut SmallRng, max_n: usize) -> (String, Graph) {
    let family = rng.gen_range(0..12);
    let seed = rng.gen::<u64>();
    match family {
        0 => {
            let n = rng.gen_range(3..max_n);
            let m = rng.gen_range(n - 1..4 * n);
            let w = rng.gen_range(1..50);
            (
                format!("gnm n={n} m={m} w={w} seed={seed}"),
                gen::gnm_connected(n, m, w, seed),
            )
        }
        1 => {
            let a = rng.gen_range(3..max_n / 2 + 3);
            let b = rng.gen_range(3..max_n / 2 + 3);
            let (g, _, _) = gen::planted_bisection(
                a,
                b,
                rng.gen_range(5..40),
                rng.gen_range(1..6),
                a + b,
                seed,
            );
            (format!("planted a={a} b={b} seed={seed}"), g)
        }
        2 => {
            let n = rng.gen_range(3..max_n);
            (
                format!("cycle n={n} seed={seed}"),
                gen::cycle_with_chords(n, rng.gen_range(0..n), seed),
            )
        }
        3 => {
            let r = rng.gen_range(2..8);
            let c = rng.gen_range(2..12usize);
            (format!("grid {r}x{c}"), gen::grid(r, c.max(2)))
        }
        4 => {
            let n = rng.gen_range(6..max_n.min(40));
            (
                format!("complete n={n} seed={seed}"),
                gen::complete(n, 9, seed),
            )
        }
        5 => {
            let d = rng.gen_range(2..6);
            (format!("hypercube d={d}"), gen::hypercube(d))
        }
        6 => {
            let c = rng.gen_range(2..5);
            let s = rng.gen_range(3..10);
            let (g, _) = gen::community_ring(c, s, rng.gen_range(2..9), seed);
            (format!("communities c={c} s={s} seed={seed}"), g)
        }
        7 => {
            // A pairing exists only when n·d is even.
            let d = rng.gen_range(3..7);
            let n = rng.gen_range(4..max_n);
            let n = n + (n * d) % 2;
            (
                format!("regular n={n} d={d} seed={seed}"),
                gen::random_regular(n, d, seed),
            )
        }
        8 => {
            let attach = rng.gen_range(1..4);
            let n = rng.gen_range(attach + 2..max_n.max(attach + 3));
            (
                format!("power-law n={n} attach={attach} seed={seed}"),
                gen::preferential_attachment(n, attach, seed),
            )
        }
        9 => {
            let n = rng.gen_range(3..max_n);
            let m = rng.gen_range(n - 1..4 * n);
            (
                format!("heavy-gnm n={n} m={m} seed={seed}"),
                gen::gnm_heavy_tailed(n, m, seed),
            )
        }
        10 => {
            let side = rng.gen_range(3..max_n / 2 + 3);
            let chords = rng.gen_range(0..2 * side);
            let w = rng.gen_range(1..20);
            let (g, _) = gen::bridge_graph(side, chords, w, seed);
            (
                format!("bridge side={side} chords={chords} w={w} seed={seed}"),
                g,
            )
        }
        _ => {
            let k = rng.gen_range(2..max_n / 2 + 3);
            let n = rng.gen_range(k..2 * max_n);
            let m = rng.gen_range(n - 1..3 * n);
            (
                format!("contracted n={n} m={m} k={k} seed={seed}"),
                gen::contracted_multigraph(n, m, k, seed),
            )
        }
    }
}

/// The value following flag `name`, parsed; exits with a usage error when
/// it is missing or malformed.
fn flag_value(args: &mut impl Iterator<Item = String>, name: &str) -> u64 {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("fuzz_diff: {name} needs a non-negative integer");
        std::process::exit(2);
    })
}

fn main() {
    let mut seconds = 30;
    let mut max_n = 70;
    let mut seed = None;
    let mut max_trials = None;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = Some(flag_value(&mut args, "--seed")),
            "--trials" => max_trials = Some(flag_value(&mut args, "--trials")),
            _ => {
                let v = arg.parse().unwrap_or_else(|_| {
                    eprintln!("fuzz_diff: unexpected argument {arg:?}");
                    std::process::exit(2);
                });
                match positional {
                    0 => seconds = v,
                    1 => max_n = v as usize,
                    _ => {
                        eprintln!("fuzz_diff: too many arguments");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
        }
    }
    let budget = Duration::from_secs(seconds);
    let seed = seed.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64
    });
    println!("fuzz_diff: seed {seed}");
    let mut rng = SmallRng::seed_from_u64(seed);
    let oracle = solver("sw");
    let candidates = [solver("paper"), solver("contract"), solver("quadratic")];
    let start = Instant::now();
    let mut trials = 0u64;
    while max_trials.map_or(start.elapsed() < budget, |n| trials < n) {
        trials += 1;
        let (desc, g) = random_graph(&mut rng, max_n);
        let want = oracle.solve(&g, &SolverConfig::default()).unwrap().value;
        let cfg = SolverConfig::with_seed(rng.gen());
        for cand in &candidates {
            let got = cand.solve(&g, &cfg).unwrap();
            if got.value != want || g.cut_value(&got.side) != got.value {
                eprintln!("MISMATCH at trial {trials} of run seed {seed}");
                eprintln!("  instance: {desc}");
                eprintln!("  algorithm: {}", cand.name());
                eprintln!("  config seed: {}", cfg.seed);
                eprintln!("  exact: {want}, got: {}", got.value);
                std::process::exit(1);
            }
        }
    }
    println!(
        "fuzz_diff: {trials} randomized instances x {} solvers agreed with the exact \
         oracle in {:.1}s",
        candidates.len(),
        start.elapsed().as_secs_f64()
    );
}
