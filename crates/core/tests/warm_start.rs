//! Warm-started refresh contract.
//!
//! A warm start changes only *where the iteration begins* — never what a
//! fixed point looks like, never the per-iteration arithmetic. These tests
//! pin that down:
//!
//! 1. A warm-started refresh lands at the same fixed point a cold solve of
//!    the same problem reaches, within tolerance (property-tested over random
//!    problems and drifts).
//! 2. On a mildly drifted problem the warm solve needs no more iterations
//!    than the cold one (and strictly fewer when the drift is small).
//! 3. An unusable warm state (wrong shape) falls back to a solve that is
//!    bit-identical to the cold one.
//! 4. A warm solve in a workspace reused from the previous solve is
//!    bit-identical to one in a fresh workspace.

use proptest::prelude::*;
use taf_linalg::Matrix;
use tafloc_core::loli_ir::{
    reconstruct_warm, LoliIrConfig, Reconstruction, ReconstructionProblem, SolverWorkspace,
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

/// Adds a smooth low-amplitude drift field to `base` — the "time passed"
/// between two refreshes of the same site.
fn drifted(base: &Matrix, amplitude_db: f64, seed: u64) -> Matrix {
    let phase = (seed % 17) as f64;
    Matrix::from_fn(base.rows(), base.cols(), |i, j| {
        base[(i, j)] + amplitude_db * ((i as f64 * 0.7 + j as f64 * 0.13 + phase).sin())
    })
}

struct Case {
    truth: Matrix,
    prior: Matrix,
    mask: Mask,
}

fn solve(case: &Case, cfg: &LoliIrConfig, warm: Option<&WarmState>) -> Reconstruction {
    solve_in(case, cfg, &mut SolverWorkspace::new(), warm)
}

fn solve_in(
    case: &Case,
    cfg: &LoliIrConfig,
    ws: &mut SolverWorkspace,
    warm: Option<&WarmState>,
) -> Reconstruction {
    let g = NeighborGraph::new(case.truth.cols(), (0..case.truth.cols() - 1).map(|j| (j, j + 1)));
    let h = NeighborGraph::new(case.truth.rows(), (0..case.truth.rows() - 1).map(|i| (i, i + 1)));
    let problem = ReconstructionProblem {
        observed: &case.truth,
        mask: &case.mask,
        lrr_prior: Some(&case.prior),
        location_graph: Some(&g),
        link_graph: Some(&h),
        empty_rss: None,
        distortion: None,
    };
    reconstruct_warm(&problem, cfg, ws, warm).unwrap()
}

fn case(m: usize, n: usize, seed: u64, drift_db: f64) -> (Case, Case) {
    let truth = pseudo(m, n, seed);
    let prior = drifted(&truth, 0.5, seed ^ 3);
    let cols: Vec<usize> = (0..n).step_by(3).collect();
    let mask = Mask::from_columns(m, n, &cols).unwrap();
    let yesterday = Case { truth: truth.clone(), prior: prior.clone(), mask: mask.clone() };
    let today = Case {
        truth: drifted(&truth, drift_db, seed ^ 11),
        prior: drifted(&prior, drift_db, seed ^ 11),
        mask,
    };
    (yesterday, today)
}

#[test]
fn warm_refresh_reaches_the_cold_fixed_point() {
    let cfg = LoliIrConfig { max_iters: 600, tol: 1e-8, ..Default::default() };
    let (yesterday, today) = case(10, 36, 2024, 1.0);
    let first = solve(&yesterday, &cfg, None);
    assert!(first.converged, "baseline solve must converge");
    let warm_state = WarmState::from_reconstruction(&first);

    let cold = solve(&today, &cfg, None);
    let warmed = solve(&today, &cfg, Some(&warm_state));
    assert!(cold.converged && warmed.converged);
    assert!(warmed.warm_start, "a fresh previous solution should win the seed comparison");

    // Same fixed point: reconstructions agree to well under the dB scale
    // anything downstream (guard, matcher) can perceive.
    let worst = cold
        .matrix
        .as_slice()
        .iter()
        .zip(warmed.matrix.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-2, "cold and warm fixed points differ by {worst} dB");
}

#[test]
fn warm_refresh_spends_no_more_iterations_than_cold() {
    let cfg = LoliIrConfig { max_iters: 400, tol: 1e-7, ..Default::default() };
    let (yesterday, today) = case(12, 45, 99, 0.2);
    let first = solve(&yesterday, &cfg, None);
    assert!(first.converged);
    let warm_state = WarmState::from_reconstruction(&first);

    let cold = solve(&today, &cfg, None);
    let warmed = solve(&today, &cfg, Some(&warm_state));
    assert!(cold.converged && warmed.converged);
    assert!(warmed.warm_start);
    assert!(
        warmed.iterations <= cold.iterations,
        "warm took {} iterations, cold {}",
        warmed.iterations,
        cold.iterations
    );
}

#[test]
fn unusable_warm_state_is_bit_identical_to_cold() {
    let cfg = LoliIrConfig { max_iters: 12, tol: 0.0, ..Default::default() };
    let (_, today) = case(8, 24, 7, 0.5);

    // Wrong shape: built from a solve of a differently-sized problem.
    let (other, _) = case(6, 24, 7, 0.5);
    let foreign = WarmState::from_reconstruction(&solve(&other, &cfg, None));

    let cold = solve(&today, &cfg, None);
    let fallback = solve(&today, &cfg, Some(&foreign));
    assert!(!fallback.warm_start);
    assert_eq!(cold.matrix.as_slice(), fallback.matrix.as_slice());
    assert_eq!(cold.l.as_slice(), fallback.l.as_slice());
    assert_eq!(cold.r.as_slice(), fallback.r.as_slice());
    assert_eq!(cold.objective_trace, fallback.objective_trace);
}

#[test]
fn warm_solve_in_a_reused_workspace_is_bit_identical() {
    // A site refreshes through one workspace: yesterday's cold solve leaves
    // it filled, and today's warm solve must not read any of that. Large
    // enough that both sweep directions run big color classes at rank 8.
    let cfg = LoliIrConfig { max_iters: 6, tol: 0.0, ..Default::default() };
    let (yesterday, today) = case(20, 400, 5, 0.3);
    let mut ws = SolverWorkspace::new();
    let warm_state = WarmState::from_reconstruction(&solve_in(&yesterday, &cfg, &mut ws, None));

    let fresh = solve(&today, &cfg, Some(&warm_state));
    assert!(fresh.warm_start);
    let reused = solve_in(&today, &cfg, &mut ws, Some(&warm_state));
    assert_eq!(fresh.matrix.as_slice(), reused.matrix.as_slice());
    assert_eq!(fresh.l.as_slice(), reused.l.as_slice());
    assert_eq!(fresh.r.as_slice(), reused.r.as_slice());
    assert_eq!(fresh.objective_trace, reused.objective_trace);
}

proptest! {
    /// Over random problem sizes, seeds and drift amplitudes: a warm-started
    /// refresh converges to the same fixed point as a cold solve.
    #[test]
    fn warm_and_cold_agree_on_the_fixed_point(
        m in 6usize..12,
        n in 15usize..40,
        seed in 1u64..5000,
        drift in 0.05f64..1.5,
    ) {
        let cfg = LoliIrConfig { max_iters: 300, tol: 1e-8, ..Default::default() };
        let (yesterday, today) = case(m, n, seed, drift);
        let first = solve(&yesterday, &cfg, None);
        prop_assume!(first.converged);
        let warm_state = WarmState::from_reconstruction(&first);

        let cold = solve(&today, &cfg, None);
        let warmed = solve(&today, &cfg, Some(&warm_state));
        prop_assert!(cold.converged && warmed.converged);
        let worst = cold
            .matrix
            .as_slice()
            .iter()
            .zip(warmed.matrix.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(worst < 1e-2, "fixed points differ by {} dB", worst);
    }
}
