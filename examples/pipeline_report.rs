//! Stage-by-stage introspection with `minimum_cut_report`: where does the
//! time go, how sparse did the certificate and skeleton make the problem,
//! what lower bound did the packing prove (and did it certify the answer
//! by itself, in which case its cut is the answer and no tree is swept),
//! how many packed trees did the 2-respect search sweep (every selected
//! tree of an uncertified packing), and how many Minimum Path operations
//! did it generate?
//!
//! ```sh
//! cargo run --release --example pipeline_report
//! ```
//!
//! The last table runs every scenario of the corpus at seeds 0–2 and
//! counts, per family, the instances whose packing certified its answer,
//! the instances whose answer met the bound (a proven minimum) and the
//! trees examined of the trees packed (a certified packing's one tree
//! counts as examined, though no tree is swept).

use std::collections::BTreeMap;

use parallel_mincut::core_alg::{minimum_cut_report, MinCutConfig};
use parallel_mincut::graph::gen;
use parallel_mincut::scenario::corpus;

fn main() {
    let workloads: Vec<(&str, parallel_mincut::Graph)> = vec![
        (
            "sparse gnm (n=4096, m=16k)",
            gen::gnm_connected(4096, 16384, 8, 1),
        ),
        (
            "planted bisection (n=2048)",
            gen::planted_bisection(1024, 1024, 40, 5, 2048, 2).0,
        ),
        (
            "community ring (32 x 64)",
            gen::community_ring(32, 64, 4, 1).0,
        ),
        ("dense + weak vertex", {
            let dense = gen::complete(300, 3, 3);
            let mut edges: Vec<(u32, u32, u64)> =
                dense.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
            edges.push((0, 300, 4));
            parallel_mincut::Graph::from_edges(301, &edges).unwrap()
        }),
    ];
    for (name, g) in &workloads {
        let (cut, r) = minimum_cut_report(g, &MinCutConfig::default()).unwrap();
        println!("== {name}");
        println!(
            "   n = {}, m = {}, min cut = {} ({:?})",
            g.n(),
            g.m(),
            cut.value,
            cut.kind
        );
        if r.certificate_applied {
            println!(
                "   certificate: kept {:.1}% of the weight ({:.1} ms)",
                100.0 * r.certificate_kept,
                r.t_certificate.as_secs_f64() * 1e3
            );
        } else {
            println!("   certificate: skipped (input already sparse)");
        }
        println!(
            "   packing: skeleton p = {:.3}, value = {:.3}, lower bound = {}{}, {} distinct trees ({:.1} ms)",
            r.skeleton_p,
            r.packing_value,
            r.lower_bound,
            if r.certified { " (certified)" } else { "" },
            r.distinct_trees,
            r.t_packing.as_secs_f64() * 1e3
        );
        if r.certified {
            println!("   2-respect: answered by the packing's certified cut, no tree swept");
            println!();
            continue;
        }
        println!(
            "   2-respect: swept {} of {} packed trees{}, {} phases, {} MinPath ops total ({:.1} ms)",
            r.trees_examined,
            r.trees_selected,
            if cut.value == r.lower_bound {
                " (answer meets the bound)"
            } else {
                ""
            },
            r.phases,
            r.batch_ops_total,
            r.t_two_respect.as_secs_f64() * 1e3
        );
        println!();
    }

    // Per family: instances, certified instances, instances whose answer
    // met the bound, trees examined, trees packed.
    let mut families: BTreeMap<&str, [usize; 5]> = BTreeMap::new();
    for scenario in corpus() {
        for seed in 0..3 {
            let g = scenario.instantiate(seed).graph;
            let (cut, r) = minimum_cut_report(&g, &MinCutConfig::default()).unwrap();
            let row = families.entry(scenario.family()).or_default();
            row[0] += 1;
            row[1] += usize::from(r.certified);
            row[2] += usize::from(cut.value == r.lower_bound);
            row[3] += r.trees_examined;
            row[4] += r.trees_selected;
        }
    }
    println!("== corpus, seeds 0-2: certified packings, answers meeting the bound, trees examined of packed");
    println!("| family | instances | certified | bound met | trees examined | trees packed |");
    println!("|---|---|---|---|---|---|");
    let mut total = [0usize; 5];
    for (family, row) in &families {
        println!(
            "| {family} | {} | {} | {} | {} | {} |",
            row[0], row[1], row[2], row[3], row[4]
        );
        for (t, r) in total.iter_mut().zip(row) {
            *t += r;
        }
    }
    println!(
        "| **total** | {} | {} | {} | {} | {} |",
        total[0], total[1], total[2], total[3], total[4]
    );
}
