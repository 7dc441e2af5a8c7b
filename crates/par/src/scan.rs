//! All-prefix-sums (scan) of `i64`s, for the Euler tour's subtree sums.
//!
//! The classic two-pass blocked scan below performs `O(n)` work in
//! `O(log n)` depth (block partials are combined by a sequential pass over
//! `O(p)` blocks, which is `O(n / SEQ_THRESHOLD)` and counted as depth
//! only).

use rayon::prelude::*;

use crate::SEQ_THRESHOLD;

/// In-place inclusive scan. Two-pass blocked algorithm:
/// (1) scan each block independently in parallel,
/// (2) exclusive-scan the block totals sequentially (`O(#blocks)`),
/// (3) add each block's offset to its elements in parallel.
///
/// ```
/// let mut xs = vec![1i64, 2, 3, 4];
/// pmc_par::scan::inclusive_scan_in_place(&mut xs);
/// assert_eq!(xs, vec![1, 3, 6, 10]);
/// ```
pub fn inclusive_scan_in_place(xs: &mut [i64]) {
    let n = xs.len();
    if n <= SEQ_THRESHOLD {
        seq_inclusive_scan(xs);
        return;
    }
    let mut partials = vec![0i64; n.div_ceil(SEQ_THRESHOLD)];
    xs.par_chunks_mut(SEQ_THRESHOLD)
        .zip(partials.par_iter_mut())
        .for_each(|(chunk, p)| {
            seq_inclusive_scan(chunk);
            *p = chunk[chunk.len() - 1];
        });
    // Exclusive scan of block totals (cheap: one element per block).
    let mut acc = 0;
    for p in partials.iter_mut() {
        let next = acc + *p;
        *p = acc;
        acc = next;
    }
    xs.par_chunks_mut(SEQ_THRESHOLD)
        .zip(partials.par_iter())
        .for_each(|(chunk, &offset)| {
            for x in chunk.iter_mut() {
                *x += offset;
            }
        });
}

fn seq_inclusive_scan(xs: &mut [i64]) {
    let mut acc = 0;
    for x in xs.iter_mut() {
        acc += *x;
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
    fn exactly_threshold_boundary() {
        for n in [SEQ_THRESHOLD - 1, SEQ_THRESHOLD, SEQ_THRESHOLD + 1] {
            let xs: Vec<i64> = (0..n as i64).collect();
            let got = scanned(&xs);
            assert_eq!(got[n - 1], (n as i64 - 1) * n as i64 / 2);
        }
    }
}
