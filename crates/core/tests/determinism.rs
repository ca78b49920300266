//! LoLi-IR determinism contract: reconstruction output is bit-identical
//! across repeated runs, cold or warm-started, and across workspace reuse.
//!
//! The colored Gauss-Seidel sweep fixes the solve order (classes in fixed
//! order, each class's members in index order), and the committed goldens
//! depend on it; these tests pin the property down end to end.

mod common;

use proptest::prelude::*;
use taf_linalg::Matrix;
use tafloc_core::loli_ir::{
    reconstruct_warm, reconstruct_with, LoliIrConfig, ReconstructionProblem, SolverWorkspace,
    WarmState,
};
use tafloc_core::mask::Mask;
use tafloc_core::operators::NeighborGraph;

/// Deterministic pseudo-random matrix in RSS range (xorshift).
fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        -70.0 + (state % 4000) as f64 / 100.0
    })
}

/// Snapshot of everything a reconstruction publishes, for exact comparison.
fn fingerprint(
    rec: &tafloc_core::loli_ir::Reconstruction,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        rec.matrix.as_slice().to_vec(),
        rec.l.as_slice().to_vec(),
        rec.r.as_slice().to_vec(),
        rec.objective_trace.clone(),
    )
}

/// Distortion support and empty-room RSS of a problem; `None` for both
/// leaves every edge fully active with no baseline offsets.
type Smoothing<'a> = Option<(&'a Mask, &'a [f64])>;

fn solve_problem(
    truth: &Matrix,
    prior: &Matrix,
    mask: &Mask,
    smoothing: Smoothing<'_>,
    cfg: &LoliIrConfig,
    warm: Option<&WarmState>,
) -> tafloc_core::loli_ir::Reconstruction {
    let g = NeighborGraph::new(truth.cols(), (0..truth.cols() - 1).map(|j| (j, j + 1)));
    let h = NeighborGraph::new(truth.rows(), (0..truth.rows() - 1).map(|i| (i, i + 1)));
    let problem = ReconstructionProblem {
        observed: truth,
        mask,
        lrr_prior: Some(prior),
        location_graph: Some(&g),
        link_graph: Some(&h),
        empty_rss: smoothing.map(|(_, e)| e),
        distortion: smoothing.map(|(d, _)| d),
    };
    reconstruct_warm(&problem, cfg, &mut SolverWorkspace::new(), warm).unwrap()
}

#[test]
fn repeated_runs_are_bit_identical() {
    let truth = pseudo(6, 12, 41);
    let prior = pseudo(6, 12, 43);
    let mask = Mask::from_columns(6, 12, &[0, 4, 8]).unwrap();
    let cfg = LoliIrConfig { max_iters: 8, tol: 0.0, ..Default::default() };
    let distortion = common::partial_distortion(6, 12);
    let empty = common::empty_rss(6);
    // Every edge fully active, then mostly partial edges with baseline
    // offsets (the per-edge sums every daemon refresh computes).
    for smoothing in [None, Some((&distortion, empty.as_slice()))] {
        let solve =
            |truth: &Matrix, warm| solve_problem(truth, &prior, &mask, smoothing, &cfg, warm);
        // Warm start from the solve of a different same-shaped problem, the
        // way a refresh starts from the previous day's solution.
        let yesterday = solve(&pseudo(6, 12, 47), None);
        let seed = WarmState::from_reconstruction(&yesterday);
        let warm = solve(&truth, Some(&seed));
        assert!(warm.warm_start, "the seed must be usable");

        let first = fingerprint(&solve(&truth, None));
        let first_warm = fingerprint(&warm);
        for _ in 0..3 {
            assert_eq!(first, fingerprint(&solve(&truth, None)));
            assert_eq!(first_warm, fingerprint(&solve(&truth, Some(&seed))));
        }
    }
}

/// A problem with large color classes (L-step classes of ~10 rows, R-step
/// classes of ~200 columns at rank 8) gives the same bits on every run, and a
/// workspace left sized by a different problem changes none of them.
#[test]
fn large_problem_repeated_runs_are_bit_identical() {
    let truth = pseudo(20, 400, 7);
    let prior = pseudo(20, 400, 11);
    let cols: Vec<usize> = (0..400).step_by(3).collect();
    let mask = Mask::from_columns(20, 400, &cols).unwrap();
    let cfg = LoliIrConfig { max_iters: 4, tol: 0.0, ..Default::default() };
    let first = fingerprint(&solve_problem(&truth, &prior, &mask, None, &cfg, None));
    assert_eq!(first, fingerprint(&solve_problem(&truth, &prior, &mask, None, &cfg, None)));

    // Leave the workspace sized and filled by a small problem first.
    let mut ws = SolverWorkspace::new();
    let small = pseudo(6, 12, 3);
    let small_mask = Mask::from_columns(6, 12, &[0, 4, 8]).unwrap();
    let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
    let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));
    let small_problem = ReconstructionProblem {
        observed: &small,
        mask: &small_mask,
        lrr_prior: Some(&small),
        location_graph: Some(&g),
        link_graph: Some(&h),
        empty_rss: None,
        distortion: None,
    };
    reconstruct_with(&small_problem, &cfg, &mut ws).unwrap();

    let g = NeighborGraph::new(400, (0..399).map(|j| (j, j + 1)));
    let h = NeighborGraph::new(20, (0..19).map(|i| (i, i + 1)));
    let problem = ReconstructionProblem {
        observed: &truth,
        mask: &mask,
        lrr_prior: Some(&prior),
        location_graph: Some(&g),
        link_graph: Some(&h),
        empty_rss: None,
        distortion: None,
    };
    assert_eq!(first, fingerprint(&reconstruct_with(&problem, &cfg, &mut ws).unwrap()));
}

proptest! {
    /// Random small problems: a reused workspace produces the same bits as a
    /// fresh one.
    #[test]
    fn reused_workspace_is_bit_identical(
        seed in 0u64..1000,
        m in 3usize..7,
        n in 4usize..10,
        keep in 1usize..4,
    ) {
        let truth = pseudo(m, n, seed * 2 + 1);
        let prior = pseudo(m, n, seed * 2 + 500);
        let cols: Vec<usize> = (0..n).step_by(keep).collect();
        let mask = Mask::from_columns(m, n, &cols).unwrap();
        let cfg = LoliIrConfig { rank: 3, max_iters: 5, tol: 0.0, ..Default::default() };

        let base = fingerprint(&solve_problem(&truth, &prior, &mask, None, &cfg, None));
        let g = NeighborGraph::new(n, (0..n - 1).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(m, (0..m - 1).map(|i| (i, i + 1)));
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let mut ws = SolverWorkspace::new();
        for _ in 0..2 {
            let reused = fingerprint(&reconstruct_with(&problem, &cfg, &mut ws).unwrap());
            prop_assert_eq!(&base, &reused);
        }
    }
}
