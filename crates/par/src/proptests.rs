//! Property-based tests for the parallel primitives: every primitive is
//! extensionally equal to its obvious sequential specification on
//! arbitrary inputs, regardless of rayon's schedule.

#![cfg(test)]

use crate::merge::merge_by_key;
use crate::scan::inclusive_scan_in_place;
use crate::seg::segmented_broadcast;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn inclusive_scan_matches_fold(xs in prop::collection::vec(-1000i64..1000, 0..3000)) {
        let mut got = xs.clone();
        inclusive_scan_in_place(&mut got);
        let mut acc = 0i64;
        for (i, &x) in xs.iter().enumerate() {
            acc += x;
            prop_assert_eq!(got[i], acc);
        }
    }

    #[test]
    fn merge_equals_sorted_concat(
        mut a in prop::collection::vec(0u64..10_000, 0..2000),
        mut b in prop::collection::vec(0u64..10_000, 0..2000),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let got = merge_by_key(&a, &b, |x| *x);
        let mut want = [a, b].concat();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn merge_is_stable(
        mut a in prop::collection::vec((0u8..8, any::<u32>()), 0..1500),
        mut b in prop::collection::vec((0u8..8, any::<u32>()), 0..1500),
    ) {
        a.sort_by_key(|p| p.0);
        b.sort_by_key(|p| p.0);
        let tagged_a: Vec<(u8, u32, bool)> = a.iter().map(|&(k, v)| (k, v, false)).collect();
        let tagged_b: Vec<(u8, u32, bool)> = b.iter().map(|&(k, v)| (k, v, true)).collect();
        let got = merge_by_key(&tagged_a, &tagged_b, |t| t.0);
        // Within an equal-key run, all `a` items precede all `b` items and
        // preserve their input order.
        for w in got.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(!w[0].2 || w[1].2, "b item before a item on equal keys");
            }
        }
    }

    #[test]
    fn broadcast_matches_sweep(xs in prop::collection::vec(prop::option::of(-100i64..100), 0..3000)) {
        let got = segmented_broadcast(&xs);
        let mut last = None;
        for (i, &x) in xs.iter().enumerate() {
            if x.is_some() {
                last = x;
            }
            prop_assert_eq!(got[i], last);
        }
    }
}
