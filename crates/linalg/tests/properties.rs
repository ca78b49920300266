//! Property-based tests of the linear-algebra substrate.
//!
//! These exercise the algebraic identities the LoLi-IR solver silently relies on:
//! associativity/transpose laws of the products, factorization round-trips
//! (`A = QR`, `A = UΣVᵀ`), solver correctness, and ECDF monotonicity.

use proptest::prelude::*;
use taf_linalg::solve::ridge_multi;
use taf_linalg::stats::Ecdf;
use taf_linalg::Matrix;

const DIM: std::ops::RangeInclusive<usize> = 1..=8;

/// Strategy: a rows x cols matrix with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized correctly"))
}

fn shaped() -> impl Strategy<Value = Matrix> {
    (DIM, DIM).prop_flat_map(|(r, c)| matrix(r, c))
}

proptest! {
    #[test]
    fn transpose_is_involution(a in shaped()) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_reverses_product(
        (a, b) in (DIM, DIM, DIM).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
    ) {
        let ab = a.matmul(&b).unwrap();
        let btat = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(ab.transpose().approx_eq(&btat, 1e-9 * (1.0 + ab.max_abs())));
    }

    #[test]
    fn matmul_nt_tn_consistent(a in matrix(5, 3), b in matrix(4, 3), c in matrix(5, 2)) {
        let nt = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        prop_assert!(nt.approx_eq(&slow, 1e-9));
        let tn = a.matmul_tn(&c).unwrap();
        let slow = a.transpose().matmul(&c).unwrap();
        prop_assert!(tn.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn addition_commutes_and_distributes(a in matrix(4, 4), b in matrix(4, 4), s in -5.0..5.0f64) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(ab.approx_eq(&ba, 1e-12));
        let lhs = ab.scale(s);
        let rhs = a.scale(s).add(&b.scale(s)).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn frobenius_triangle_inequality(a in matrix(5, 5), b in matrix(5, 5)) {
        let sum = a.add(&b).unwrap();
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    }

    #[test]
    fn qr_round_trip(a in shaped()) {
        let qr = a.qr().unwrap();
        let back = qr.q().matmul(qr.r()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-8 * (1.0 + a.max_abs())));
        let k = a.rows().min(a.cols());
        prop_assert!(qr.q().gram().approx_eq(&Matrix::identity(k), 1e-8));
    }

    #[test]
    fn col_piv_qr_round_trip(a in shaped()) {
        let f = a.col_piv_qr().unwrap();
        let mut p = Matrix::zeros(a.cols(), a.cols());
        for (k, &j) in f.pivots().iter().enumerate() {
            p[(j, k)] = 1.0;
        }
        let ap = a.matmul(&p).unwrap();
        let qr = f.q().matmul(f.r()).unwrap();
        prop_assert!(qr.approx_eq(&ap, 1e-8 * (1.0 + a.max_abs())));
        // Pivots must be a permutation.
        let mut sorted = f.pivots().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..a.cols()).collect::<Vec<_>>());
    }

    #[test]
    fn svd_round_trip_and_ordering(a in shaped()) {
        let svd = a.svd().unwrap();
        prop_assert!(svd.reconstruct().approx_eq(&a, 1e-7 * (1.0 + a.max_abs())));
        for w in svd.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-10);
        }
        prop_assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_truncation_error_is_the_dropped_energy(a in shaped(), k in 0usize..8) {
        // Eckart–Young: ‖A − A_k‖²_F = Σ_{i ≥ k} σᵢ².
        let svd = a.svd().unwrap();
        let residual = a.sub(&svd.truncate(k).reconstruct()).unwrap().frobenius_norm();
        let dropped: f64 = svd.sigma.iter().skip(k).map(|s| s * s).sum();
        prop_assert!((residual * residual - dropped).abs() < 1e-8 * (1.0 + a.frobenius_norm().powi(2)));
    }

    #[test]
    fn ridge_norm_monotone_in_lambda(a in matrix(6, 3), b in matrix(6, 2)) {
        let norms: Vec<f64> = [0.01, 1.0, 100.0]
            .iter()
            .map(|&l| ridge_multi(&a, &b, l).unwrap().frobenius_norm())
            .collect();
        prop_assert!(norms[0] + 1e-9 >= norms[1]);
        prop_assert!(norms[1] + 1e-9 >= norms[2]);
    }

    #[test]
    fn cholesky_solve_recovers_known_solution(b in matrix(4, 4), x in proptest::collection::vec(-5.0..5.0f64, 4)) {
        // Build an SPD matrix from arbitrary b.
        let mut spd = b.gram();
        spd.add_diag(4.0 + 1e-3).unwrap();
        let rhs = spd.matvec(&x);
        let sol = spd.cholesky().unwrap().solve(&rhs).unwrap();
        for (u, v) in sol.iter().zip(&x) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(mut sample in proptest::collection::vec(-100.0..100.0f64, 1..64)) {
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let e = Ecdf::new(&sample).unwrap();
        let mut prev = 0.0;
        for k in -10..=10 {
            let x = k as f64 * 12.5;
            let p = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p + 1e-12 >= prev);
            prev = p;
        }
        prop_assert!(e.quantile(0.0) <= e.quantile(1.0));
    }
}
