//! Inputs shared by the solver contract tests.

use tafloc_core::mask::Mask;

/// Distortion support for an `m x n` problem (`m >= 3`, `n >= 4`) under which,
/// on chain graphs, the location edges (0,1), (1,2) and the link edge
/// (m−2, m−1) are fully active and most other edges are partial. A daemon
/// refresh always passes a mask like it.
pub fn partial_distortion(m: usize, n: usize) -> Mask {
    let mut d = Mask::trues(m, n);
    for i in 0..m - 2 {
        for j in 3..n {
            if (i + 2 * j) % 5 == 0 {
                d.set(i, j, false);
            }
        }
    }
    d
}

/// Per-link empty-room RSS, so the similarity edges carry baseline offsets.
pub fn empty_rss(m: usize) -> Vec<f64> {
    (0..m).map(|i| -40.0 - (i % 4) as f64 * 1.5).collect()
}
