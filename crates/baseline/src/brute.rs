//! Brute-force minimum cut by exhaustive bipartition enumeration.
//!
//! `O(2^n · m)` — the ultimate oracle for `n ≤ ~20`, used to validate the
//! other baselines, which in turn validate the parallel algorithm.

use pmc_graph::{Graph, PmcError};

use crate::Cut;

/// Largest vertex count [`brute_force_min_cut`] will enumerate.
pub const BRUTE_MAX_N: usize = 24;

/// Exhaustively finds a minimum cut. Fails with [`PmcError::TooSmall`] if
/// `n < 2` and [`PmcError::Unsupported`] if `n > `[`BRUTE_MAX_N`] (the
/// enumeration would be infeasible).
pub fn brute_force_min_cut(g: &Graph) -> Result<Cut, PmcError> {
    let n = g.n();
    if n < 2 {
        return Err(PmcError::TooSmall);
    }
    if n > BRUTE_MAX_N {
        return Err(PmcError::Unsupported {
            algorithm: "brute",
            reason: format!("n = {n} exceeds the n <= {BRUTE_MAX_N} enumeration bound"),
        });
    }
    // Fix vertex 0 on the `false` side: enumerate masks over vertices 1..n.
    let masks = 1u32 << (n - 1);
    let best = (1..masks)
        .map(|mask| {
            let value: u64 = g
                .edges()
                .iter()
                .filter(|e| {
                    let su = side_of(mask, e.u);
                    let sv = side_of(mask, e.v);
                    su != sv
                })
                .map(|e| e.w)
                .sum();
            (value, mask)
        })
        .min()
        .ok_or(PmcError::NoCutFound { algorithm: "brute" })?;
    let (value, mask) = best;
    let side: Vec<bool> = (0..n as u32).map(|v| side_of(mask, v)).collect();
    Ok(Cut { value, side })
}

#[inline]
fn side_of(mask: u32, v: u32) -> bool {
    v > 0 && (mask >> (v - 1)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]).unwrap();
        let cut = brute_force_min_cut(&g).unwrap().verified(&g);
        assert_eq!(cut.value, 3); // isolate vertex 1: edges (0,1)+(1,2) = 3
    }

    #[test]
    fn path_cuts_lightest_edge() {
        let g = Graph::from_edges(4, &[(0, 1, 5), (1, 2, 1), (2, 3, 7)]).unwrap();
        let cut = brute_force_min_cut(&g).unwrap().verified(&g);
        assert_eq!(cut.value, 1);
    }

    #[test]
    fn two_vertices() {
        let g = Graph::from_edges(2, &[(0, 1, 9)]).unwrap();
        assert_eq!(brute_force_min_cut(&g).unwrap().value, 9);
    }

    #[test]
    fn disconnected() {
        let g = Graph::from_edges(3, &[(0, 1, 4)]).unwrap();
        let cut = brute_force_min_cut(&g).unwrap().verified(&g);
        assert_eq!(cut.value, 0);
    }
}
