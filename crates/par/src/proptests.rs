//! Property-based test for the scan: it is extensionally equal to its
//! sequential fold on arbitrary inputs, regardless of rayon's schedule.

#![cfg(test)]

use crate::scan::inclusive_scan_in_place;
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
}
