//! All-prefix-sums (scan) over an arbitrary monoid.
//!
//! The parallel `AddPrefix` procedure (paper §3.1, Observation 3) and the
//! root minima computation (§3.1.3) both reduce to prefix sums. The classic
//! two-pass blocked scan below performs `O(n)` work in `O(log n)` depth
//! (block partials are combined by a sequential pass over `O(p)` blocks,
//! which is `O(n / SEQ_THRESHOLD)` and counted as depth only).

use rayon::prelude::*;

use crate::SEQ_THRESHOLD;

/// An associative combining operation with an identity element.
///
/// Implementations must satisfy, for all `a, b, c`:
/// `combine(a, identity()) == a`, `combine(identity(), a) == a`, and
/// `combine(combine(a, b), c) == combine(a, combine(b, c))`.
pub trait Monoid: Copy + Send + Sync {
    /// The identity element of the monoid.
    fn identity() -> Self;
    /// The associative combining operation.
    fn combine(self, other: Self) -> Self;
}

impl Monoid for i64 {
    fn identity() -> Self {
        0
    }
    fn combine(self, other: Self) -> Self {
        self + other
    }
}

/// In-place inclusive scan. Two-pass blocked algorithm:
/// (1) scan each block independently in parallel,
/// (2) exclusive-scan the block totals sequentially (`O(#blocks)`),
/// (3) add each block's offset to its elements in parallel.
pub fn inclusive_scan_in_place<T: Monoid>(xs: &mut [T]) {
    inclusive_scan_in_place_with(xs, &mut Vec::new());
}

/// [`inclusive_scan_in_place`] reusing `partials` for the per-block totals,
/// so repeated scans perform no heap allocation once the scratch has grown
/// to the high-water block count.
///
/// ```
/// let mut partials = Vec::new(); // reused across calls
/// let mut xs = vec![1i64, 2, 3, 4];
/// pmc_par::scan::inclusive_scan_in_place_with(&mut xs, &mut partials);
/// assert_eq!(xs, vec![1, 3, 6, 10]);
/// ```
pub fn inclusive_scan_in_place_with<T: Monoid>(xs: &mut [T], partials: &mut Vec<T>) {
    let n = xs.len();
    if n <= SEQ_THRESHOLD {
        seq_inclusive_scan(xs);
        return;
    }
    let nblocks = n.div_ceil(SEQ_THRESHOLD);
    partials.clear();
    partials.resize(nblocks, T::identity());
    xs.par_chunks_mut(SEQ_THRESHOLD)
        .zip(partials.par_iter_mut())
        .for_each(|(chunk, p)| {
            seq_inclusive_scan(chunk);
            *p = chunk[chunk.len() - 1];
        });
    // Exclusive scan of block totals (cheap: one element per block).
    let mut acc = T::identity();
    for p in partials.iter_mut() {
        let next = acc.combine(*p);
        *p = acc;
        acc = next;
    }
    xs.par_chunks_mut(SEQ_THRESHOLD)
        .zip(partials.par_iter())
        .for_each(|(chunk, &offset)| {
            for x in chunk.iter_mut() {
                *x = offset.combine(*x);
            }
        });
}

fn seq_inclusive_scan<T: Monoid>(xs: &mut [T]) {
    let mut acc = T::identity();
    for x in xs.iter_mut() {
        acc = acc.combine(*x);
        *x = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanned(xs: &[i64]) -> Vec<i64> {
        let mut out = xs.to_vec();
        inclusive_scan_in_place(&mut out);
        out
    }

    #[test]
    fn empty_scan() {
        assert!(scanned(&[]).is_empty());
    }

    #[test]
    fn single_element() {
        assert_eq!(scanned(&[7]), vec![7]);
    }

    #[test]
    fn small_inclusive() {
        assert_eq!(scanned(&[1, 2, 3, 4]), vec![1, 3, 6, 10]);
    }

    #[test]
    fn negative_values() {
        assert_eq!(scanned(&[-1, 5, -10, 3]), vec![-1, 4, -6, -3]);
    }

    #[test]
    fn large_matches_sequential() {
        let n = 100_000;
        let xs: Vec<i64> = (0..n as u64)
            .map(|i| ((i * 2654435761) % 1000) as i64 - 500)
            .collect();
        let par = scanned(&xs);
        let mut acc = 0i64;
        for (i, &x) in xs.iter().enumerate() {
            acc += x;
            assert_eq!(par[i], acc, "mismatch at index {i}");
        }
    }

    #[test]
    fn scratch_variants_match_allocating_path() {
        let mut partials: Vec<i64> = Vec::new();
        // Reuse the same scratch across differently-sized inputs, crossing
        // the parallel threshold both ways.
        for n in [0usize, 1, 5, SEQ_THRESHOLD, 3 * SEQ_THRESHOLD + 7, 17] {
            let xs: Vec<i64> = (0..n as i64).map(|i| (i * 37 % 101) - 50).collect();
            let mut in_place = xs.clone();
            inclusive_scan_in_place_with(&mut in_place, &mut partials);
            assert_eq!(in_place, scanned(&xs), "inclusive n={n}");
        }
    }

    #[test]
    fn exactly_threshold_boundary() {
        for n in [SEQ_THRESHOLD - 1, SEQ_THRESHOLD, SEQ_THRESHOLD + 1] {
            let xs: Vec<i64> = (0..n as i64).collect();
            let got = scanned(&xs);
            assert_eq!(got[n - 1], (n as i64 - 1) * n as i64 / 2);
        }
    }
}
