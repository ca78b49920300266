//! Property-based tests of the TafLoc core: mask algebra, graph invariants,
//! LRR exactness on low-rank inputs, LoLi-IR's objective contract, and matcher
//! consistency.

use proptest::prelude::*;
use taf_linalg::Matrix;
use tafloc_core::loli_ir::{reconstruct, LoliIrConfig, ReconstructionProblem};
use tafloc_core::lrr::LrrModel;
use tafloc_core::mask::{detect_distorted, Mask};
use tafloc_core::operators::NeighborGraph;
use tafloc_core::reference::{select_references, selection_residual, ReferenceStrategy};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-70.0..-30.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized correctly"))
}

/// A random low-rank matrix `U·V` with `rank` factors.
fn low_rank(rows: usize, cols: usize, rank: usize) -> impl Strategy<Value = Matrix> {
    (
        proptest::collection::vec(-2.0..2.0f64, rows * rank),
        proptest::collection::vec(-2.0..2.0f64, rank * cols),
    )
        .prop_map(move |(u, v)| {
            let u = Matrix::from_vec(rows, rank, u).expect("sized");
            let v = Matrix::from_vec(rank, cols, v).expect("sized");
            u.matmul(&v).expect("shapes agree")
        })
}

proptest! {
    // ------------------------------------------------------------------
    // Masks
    // ------------------------------------------------------------------

    #[test]
    fn mask_complement_partitions(rows in 1usize..8, cols in 1usize..8, cols_sel in proptest::collection::vec(0usize..8, 0..4)) {
        let sel: Vec<usize> = cols_sel.into_iter().filter(|&c| c < cols).collect();
        let m = Mask::from_columns(rows, cols, &sel).unwrap();
        let c = m.complement();
        prop_assert_eq!(m.count() + c.count(), rows * cols);
        prop_assert_eq!(m.and(&c).unwrap().count(), 0);
    }

    #[test]
    fn mask_apply_preserves_true_entries(x in matrix(4, 6)) {
        let m = Mask::from_matrix(&x, |v| v > -50.0);
        let applied = m.apply(&x).unwrap();
        for (i, j) in m.true_positions() {
            prop_assert_eq!(applied[(i, j)], x[(i, j)]);
        }
        for (i, j, v) in applied.indexed_iter() {
            if !m.get(i, j) {
                prop_assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn distortion_mask_monotone_in_threshold(x in matrix(4, 6)) {
        let empty = vec![-40.0; 4];
        let loose = detect_distorted(&x, &empty, 1.0).unwrap();
        let tight = detect_distorted(&x, &empty, 10.0).unwrap();
        // Tighter threshold flags a subset of the loose one.
        prop_assert_eq!(tight.and(&loose).unwrap().count(), tight.count());
        prop_assert!(tight.count() <= loose.count());
    }

    /// Mask application round-trips: `B∘X` preserves every observed entry
    /// bit-exactly, zeroes the rest, is idempotent, and partitions `X`
    /// against its complement — for *arbitrary* masks, not just column masks.
    #[test]
    fn mask_apply_round_trips_observed_entries(
        (x, bits) in (1usize..7, 1usize..9)
            .prop_flat_map(|(r, c)| (matrix(r, c), proptest::collection::vec(0usize..2, r * c)))
    ) {
        let (rows, cols) = (x.rows(), x.cols());
        let mut m = Mask::falses(rows, cols);
        for (idx, &b) in bits.iter().enumerate() {
            if b == 1 {
                m.set(idx / cols, idx % cols, true);
            }
        }
        let applied = m.apply(&x).unwrap();
        for (i, j, v) in applied.indexed_iter() {
            if m.get(i, j) {
                prop_assert!(v.to_bits() == x[(i, j)].to_bits(), "observed entry changed");
            } else {
                prop_assert_eq!(v, 0.0);
            }
        }
        // Idempotence: re-applying the mask is a no-op.
        prop_assert!(m.apply(&applied).unwrap().approx_eq(&applied, 0.0));
        // Partition: B∘X + Bᶜ∘X reassembles X exactly.
        let rebuilt = applied.add(&m.complement().apply(&x).unwrap()).unwrap();
        prop_assert!(rebuilt.approx_eq(&x, 0.0));
    }

    // ------------------------------------------------------------------
    // Graphs and smoothness
    // ------------------------------------------------------------------

    #[test]
    fn graph_laplacian_is_psd(
        edges in proptest::collection::vec((0usize..6, 0usize..6), 0..12),
        x in proptest::collection::vec(-10.0..10.0f64, 6),
    ) {
        let g = NeighborGraph::new(6, edges);
        let lap = g.laplacian();
        // xᵀLx = Σ_edges (x_u − x_v)² ≥ 0 for every x.
        let lx = lap.matvec(&x);
        let form: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let mut edge_sum = 0.0;
        for v in 0..6 {
            for &u in g.neighbors(v).iter().filter(|&&u| u > v) {
                edge_sum += (x[u] - x[v]).powi(2);
            }
        }
        prop_assert!((form - edge_sum).abs() <= 1e-9 * (1.0 + edge_sum));
        // Constant vector in the null space.
        let ones = vec![1.0; 6];
        let lv = lap.matvec(&ones);
        prop_assert!(lv.iter().all(|v| v.abs() < 1e-9));
    }

    // ------------------------------------------------------------------
    // Reference selection + LRR
    // ------------------------------------------------------------------

    /// Every selection strategy returns exactly `n` distinct, in-bounds
    /// column indices for arbitrary valid matrices — the contract the LRR
    /// fit and the serving survey both build on without re-checking.
    #[test]
    fn selection_returns_n_distinct_in_bounds_columns(
        (x, n, seed) in (1usize..7, 1usize..10)
            .prop_flat_map(|(r, c)| (matrix(r, c), 1..=c, 0u64..1000))
    ) {
        let strategies = [
            ReferenceStrategy::QrPivot,
            ReferenceStrategy::Random { seed },
            ReferenceStrategy::LeverageScore,
        ];
        for strategy in strategies {
            let sel = select_references(&x, n, strategy).unwrap();
            prop_assert_eq!(sel.len(), n, "{strategy:?} returned {} columns", sel.len());
            prop_assert!(sel.iter().all(|&j| j < x.cols()), "{strategy:?} went out of bounds");
            let mut sorted = sel.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), n, "{strategy:?} repeated a column: {sel:?}");
            // Degenerate requests must be rejected, never mis-sized.
            prop_assert!(select_references(&x, 0, strategy).is_err());
            prop_assert!(select_references(&x, x.cols() + 1, strategy).is_err());
        }
    }

    #[test]
    fn qr_selection_spans_low_rank(x in low_rank(6, 14, 3)) {
        prop_assume!(x.frobenius_norm() > 1e-3);
        let sel = select_references(&x, 3, ReferenceStrategy::QrPivot).unwrap();
        let res = selection_residual(&x, &sel).unwrap();
        prop_assert!(res < 1e-4, "rank-3 matrix must be spanned by 3 pivots (residual {res})");
    }

    #[test]
    fn lrr_exact_on_spanning_references(x in low_rank(5, 10, 2)) {
        prop_assume!(x.frobenius_norm() > 1e-3);
        let sel = select_references(&x, 2, ReferenceStrategy::QrPivot).unwrap();
        let model = LrrModel::fit(&x, &sel, 1e-10).unwrap();
        prop_assert!(model.representation_error(&x).unwrap() < 1e-4);
    }

    #[test]
    fn lrr_prediction_is_linear(x in low_rank(5, 10, 2), s in 0.5..2.0f64) {
        prop_assume!(x.frobenius_norm() > 1e-3);
        let sel = select_references(&x, 3, ReferenceStrategy::QrPivot).unwrap();
        let model = LrrModel::fit(&x, &sel, 1e-8).unwrap();
        let refs = x.select_cols(&sel).unwrap();
        let a = model.predict(&refs.scale(s)).unwrap();
        let b = model.predict(&refs).unwrap().scale(s);
        prop_assert!(a.approx_eq(&b, 1e-7 * (1.0 + a.max_abs())));
    }

    // ------------------------------------------------------------------
    // LoLi-IR contract
    // ------------------------------------------------------------------

    #[test]
    fn loli_ir_objective_never_increases(x in low_rank(5, 9, 3), noise_scale in 0.0..1.0f64) {
        prop_assume!(x.frobenius_norm() > 1e-2);
        let prior = x.map(|v| v + noise_scale * (v * 13.7).sin());
        let mask = Mask::from_columns(5, 9, &[0, 4, 8]).unwrap();
        let g = NeighborGraph::new(9, (0..8).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(5, (0..4).map(|i| (i, i + 1)));
        let problem = ReconstructionProblem {
            observed: &x,
            mask: &mask,
            lrr_prior: Some(&prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { rank: 3, max_iters: 12, tol: 0.0, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        for w in rec.objective_trace.windows(2) {
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-9) + 1e-9, "{} -> {}", w[0], w[1]);
        }
        prop_assert!(!rec.matrix.has_non_finite());
    }

    #[test]
    fn loli_ir_with_perfect_prior_stays_close(x in low_rank(5, 9, 2)) {
        prop_assume!(x.frobenius_norm() > 1.0);
        let mask = Mask::from_columns(5, 9, &[1, 5]).unwrap();
        let problem = ReconstructionProblem {
            observed: &x,
            mask: &mask,
            lrr_prior: Some(&x),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { rank: 2, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        let rel = rec.matrix.sub(&x).unwrap().frobenius_norm() / x.frobenius_norm();
        prop_assert!(rel < 0.05, "relative error {rel}");
    }

    // ------------------------------------------------------------------
    // Matching
    // ------------------------------------------------------------------

    #[test]
    fn exact_fingerprint_always_matches_its_cell(x in matrix(4, 12), cell in 0usize..12) {
        use taf_rfsim::geometry::{Point, Segment};
        use taf_rfsim::grid::FloorGrid;
        use tafloc_core::db::FingerprintDb;
        use tafloc_core::matcher::{localize, MatchMethod};

        let grid = FloorGrid::new(Point::new(0.0, 0.0), 1.0, 4, 3);
        let links = (0..4)
            .map(|i| Segment::new(Point::new(-1.0, i as f64), Point::new(5.0, i as f64)))
            .collect();
        let db = FingerprintDb::new(x, links, grid).unwrap();
        let y = db.fingerprint(cell).unwrap();
        let r = localize(&db, &y, MatchMethod::NearestNeighbor).unwrap();
        // Distance must be exactly zero for its own column (ties can pick
        // another identical column, so compare distances, not indices).
        prop_assert!(r.best_distance < 1e-12);
    }
}
