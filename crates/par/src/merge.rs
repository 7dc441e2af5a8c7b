//! Parallel merging of sorted sequences.
//!
//! Observation 2 of the paper merges the sorted update-time arrays `H(l)`
//! and `H(r)` of the two children to obtain `H(b)`; §3.2 additionally merges
//! query arrays with `Δ`-state arrays by time. Both are instances of merging
//! two sequences sorted by a key. The divide-and-conquer algorithm below
//! splits the longer input at its median and binary-searches the split key in
//! the shorter input, giving `O(n + m)` work and `O(log(n + m))` recursion
//! depth (each level's two halves run as a rayon `join`).

use crate::SEQ_THRESHOLD;

/// Merges two sequences sorted by `key` into a single sorted vector.
///
/// Stability: on equal keys, all elements of `a` precede elements of `b`
/// (exactly like a stable sequential merge). This matters in the batch
/// engine, where updates must precede queries with the same timestamp only
/// if they were ordered that way in the inputs.
pub fn merge_by_key<T, K, F>(a: &[T], b: &[T], key: F) -> Vec<T>
where
    T: Clone + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    // Pre-fill with clones of an arbitrary element so the divide-and-conquer
    // merge can write every slot through disjoint `&mut [T]` splits; the
    // fill is overwritten entirely.
    let Some(filler) = a.first().or(b.first()) else {
        return Vec::new();
    };
    let mut out = vec![filler.clone(); a.len() + b.len()];
    merge_into(a, b, &mut out, &key);
    out
}

fn merge_into<T, K, F>(a: &[T], b: &[T], out: &mut [T], key: &F)
where
    T: Clone + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    debug_assert_eq!(out.len(), a.len() + b.len());
    if a.len() + b.len() <= SEQ_THRESHOLD {
        seq_merge_into(a, b, out, key);
        return;
    }
    // Split the longer sequence at its midpoint; elements of `a` win ties so
    // the boundary search differs per side to preserve stability.
    if a.len() >= b.len() {
        let amid = a.len() / 2;
        let pivot = key(&a[amid]);
        // First b-index with key > pivot would break stability; we need b's
        // elements strictly smaller than pivot on the left (ties go to `a`,
        // so b-elements equal to pivot stay right).
        let bmid = b.partition_point(|x| key(x) < pivot);
        let (a_lo, a_hi) = a.split_at(amid);
        let (b_lo, b_hi) = b.split_at(bmid);
        let (out_lo, out_hi) = out.split_at_mut(amid + bmid);
        rayon::join(
            || merge_into(a_lo, b_lo, out_lo, key),
            || merge_into(a_hi, b_hi, out_hi, key),
        );
    } else {
        let bmid = b.len() / 2;
        let pivot = key(&b[bmid]);
        // a-elements equal to pivot must land left of b[bmid] (ties to `a`).
        let amid = a.partition_point(|x| key(x) <= pivot);
        let (a_lo, a_hi) = a.split_at(amid);
        let (b_lo, b_hi) = b.split_at(bmid);
        let (out_lo, out_hi) = out.split_at_mut(amid + bmid);
        rayon::join(
            || merge_into(a_lo, b_lo, out_lo, key),
            || merge_into(a_hi, b_hi, out_hi, key),
        );
    }
}

fn seq_merge_into<T, K, F>(a: &[T], b: &[T], out: &mut [T], key: &F)
where
    T: Clone,
    K: Ord,
    F: Fn(&T) -> K,
{
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = if i == a.len() {
            false
        } else if j == b.len() {
            true
        } else {
            key(&a[i]) <= key(&b[j])
        };
        if take_a {
            *slot = a[i].clone();
            i += 1;
        } else {
            *slot = b[j].clone();
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_sorted<T: Copy + Ord + Send + Sync>(a: &[T], b: &[T]) -> Vec<T> {
        merge_by_key(a, b, |x| *x)
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(merge_sorted::<i64>(&[], &[]), Vec::<i64>::new());
        assert_eq!(merge_sorted(&[1, 2], &[]), vec![1, 2]);
        assert_eq!(merge_sorted(&[], &[3, 4]), vec![3, 4]);
    }

    #[test]
    fn interleaved() {
        assert_eq!(merge_sorted(&[1, 3, 5], &[2, 4, 6]), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn duplicates_stable() {
        // Verify stability via payloads: tagged (key, source).
        let a = [(1, 'a'), (2, 'a'), (2, 'a')];
        let b = [(2, 'b'), (3, 'b')];
        let got = merge_by_key(&a, &b, |x| x.0);
        assert_eq!(got, vec![(1, 'a'), (2, 'a'), (2, 'a'), (2, 'b'), (3, 'b')]);
    }

    #[test]
    fn large_random_matches_std_sort() {
        let n = 60_000;
        let mut a: Vec<u64> = (0..n).map(|i| (i as u64 * 2654435761) % 100_000).collect();
        let mut b: Vec<u64> = (0..n / 3).map(|i| (i as u64 * 40503) % 100_000).collect();
        a.sort_unstable();
        b.sort_unstable();
        let got = merge_sorted(&a, &b);
        let mut want = [a.clone(), b.clone()].concat();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn asymmetric_sizes() {
        let a: Vec<i64> = (0..50_000).map(|i| i * 2).collect();
        let b: Vec<i64> = vec![-5, 0, 1, 99_999, 1_000_000];
        let got = merge_sorted(&a, &b);
        let mut want = [a.clone(), b.clone()].concat();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn all_equal_keys() {
        let a = vec![7i64; 10_000];
        let b = vec![7i64; 9_999];
        let got = merge_sorted(&a, &b);
        assert_eq!(got.len(), 19_999);
        assert!(got.iter().all(|&x| x == 7));
    }
}
