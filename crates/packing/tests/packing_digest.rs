//! The packing-identity gate: every field of every [`TreePacking`] over a
//! fixed mix of graphs, solver seeds and configs folds into one digest,
//! pinned below. A change to the packing that keeps its packings keeps the
//! constant; one that moves a single tree, multiplicity, value bit, bound,
//! round count or certified side changes it.
//!
//! The digest is FNV-1a, spelled out here, because `std`'s
//! `DefaultHasher` is unspecified across Rust releases.

use pmc_graph::{gen, mincut_certificate, Graph};
use pmc_packing::{pack_trees_with, PackScratch, PackingConfig, TreePacking};

/// The digest of [`all_packings`], folded by [`fold`].
const DIGEST: u64 = 0xe635_fdd0_7614_6183;

/// 64-bit FNV-1a over the little-endian bytes of each word.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed list, so adjacent lists cannot trade elements.
    fn list(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x);
        }
    }
}

/// Folds every field of `p` into `h`.
fn fold(h: &mut Fnv1a, p: &TreePacking) {
    h.word(p.trees.len() as u64);
    for tree in &p.trees {
        h.list(tree.iter().map(|&e| u64::from(e)));
    }
    h.list(p.tree_weights.iter().map(|&w| u64::from(w)));
    h.word(p.skeleton_p.to_bits());
    h.word(p.packing_value.to_bits());
    h.word(p.cut_lower_bound);
    h.word(p.rounds as u64);
    h.word(p.distinct_trees as u64);
    match &p.certified {
        None => h.word(0),
        Some(cut) => {
            h.word(1);
            h.word(cut.value);
            h.list(cut.side.iter().map(|&s| u64::from(s)));
        }
    }
}

/// The inputs: sparse, bridged, cycle-like, dense, regular, multigraph and
/// heavy-weighted graphs (the heavy ones pack sampled skeletons), each
/// followed by its minimum-cut certificate graph when that shrinks it.
fn inputs() -> Vec<Graph> {
    let leaf = (0u64..)
        .map(|seed| gen::gnm_connected(64, 192, 8, seed))
        .find(|g| g.min_weighted_degree() == 1)
        .expect("some seed draws a weight-1 leaf");
    let base = [
        leaf,
        gen::gnm_connected(48, 150, 8, 5),
        gen::community_ring(4, 12, 4, 3).0,
        gen::cycle_with_chords(30, 6, 1),
        gen::cycle_with_chords(24, 0, 0),
        gen::grid(5, 6),
        gen::torus(5, 6),
        gen::hypercube(4),
        gen::wheel(12),
        gen::complete(12, 5, 2),
        gen::barbell(6),
        gen::random_regular(32, 4, 1),
        gen::bridge_graph(8, 6, 3, 1).0,
        gen::contracted_multigraph(40, 120, 6, 2),
        gen::preferential_attachment(40, 2, 5),
        gen::gnm_heavy_tailed(40, 120, 3),
        gen::planted_bisection(20, 20, 200, 3, 10, 8).0,
        gen::planted_bisection(30, 30, 2000, 3, 15, 10).0,
        gen::gnm_heavy_tailed(64, 256, 7),
        gen::complete(16, 500, 3),
        gen::gnm_connected(256, 1024, 8, 1),
        gen::community_ring(8, 16, 4, 1).0,
        gen::torus(8, 8),
        gen::hypercube(6),
    ];
    let mut all = Vec::new();
    let shapes = (0..8u64).flat_map(|s| {
        let n = 32 + 4 * s as usize;
        [
            gen::gnm_connected(n, 3 * n, 6, s),
            gen::cycle_with_chords(n, n / 2, s),
        ]
    });
    for g in base.into_iter().chain(shapes) {
        let cert = mincut_certificate(&g).map(|c| c.graph);
        all.push(g);
        all.extend(cert);
    }
    all
}

/// The four configs: the default; a starved run of 1 tree, 2 rounds and 4
/// estimation rounds; the full skeleton with every distinct tree selected;
/// and 1 estimation round before 3 final rounds.
fn configs(seed: u64) -> [PackingConfig; 4] {
    let default = PackingConfig {
        seed,
        ..PackingConfig::default()
    };
    [
        default.clone(),
        PackingConfig {
            trees_wanted: 1,
            packing_rounds: 2,
            estimation_rounds: 4,
            ..default.clone()
        },
        PackingConfig {
            trees_wanted: usize::MAX,
            force_full_skeleton: true,
            ..default.clone()
        },
        PackingConfig {
            packing_rounds: 3,
            estimation_rounds: 1,
            ..default
        },
    ]
}

/// Every packing of the gate, in a fixed order, from one warm scratch.
fn all_packings() -> Vec<TreePacking> {
    let mut ws = PackScratch::new();
    let mut out = Vec::new();
    for g in inputs() {
        for seed in 0..3 {
            for cfg in configs(seed) {
                out.push(pack_trees_with(&g, &cfg, &mut ws));
            }
        }
    }
    out
}

#[test]
fn packings_fold_to_the_pinned_digest() {
    let packings = all_packings();
    // The mix reaches all three kinds of packing.
    let certified = packings.iter().filter(|p| p.certified.is_some()).count();
    let sampled = packings.iter().filter(|p| p.skeleton_p < 1.0).count();
    let plain = packings.len() - certified - sampled;
    assert!(certified > 0 && sampled > 0 && plain > 0);
    let mut h = Fnv1a::new();
    for p in &packings {
        fold(&mut h, p);
    }
    assert_eq!(
        h.0,
        DIGEST,
        "digest {:#018x} over {} packings ({certified} certified, {sampled} sampled)",
        h.0,
        packings.len()
    );
}
