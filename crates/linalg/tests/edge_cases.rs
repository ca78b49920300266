//! Degenerate-size and numerically extreme cases for the linear-algebra
//! substrate: 1x1 everything, huge/tiny scales, repeated singular values, and
//! adversarial shapes.

use taf_linalg::solve::ridge_multi;
use taf_linalg::stats::Ecdf;
use taf_linalg::Matrix;

#[test]
fn one_by_one_decompositions() {
    let a = Matrix::from_rows(&[&[4.0]]).unwrap();
    let chol = a.cholesky().unwrap();
    assert_eq!(chol.factor()[(0, 0)], 2.0);
    let svd = a.svd().unwrap();
    assert_eq!(svd.sigma, vec![4.0]);
    let qr = a.qr().unwrap();
    assert!((qr.q()[(0, 0)].abs() - 1.0).abs() < 1e-15);
}

#[test]
fn single_row_and_single_column_svd() {
    let row = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
    let svd = row.svd().unwrap();
    assert!((svd.sigma[0] - 5.0).abs() < 1e-12);
    assert!(svd.reconstruct().approx_eq(&row, 1e-10));

    let col = Matrix::from_cols(&[&[3.0, 4.0]]).unwrap();
    let svd = col.svd().unwrap();
    assert!((svd.sigma[0] - 5.0).abs() < 1e-12);
    assert!(svd.reconstruct().approx_eq(&col, 1e-10));
}

#[test]
fn repeated_singular_values_still_factor() {
    // 2·I has a doubly repeated singular value — Jacobi must not cycle.
    let a = Matrix::identity(4).scale(2.0);
    let svd = a.svd().unwrap();
    assert!(svd.sigma.iter().all(|&s| (s - 2.0).abs() < 1e-12));
    assert!(svd.reconstruct().approx_eq(&a, 1e-10));
}

#[test]
fn extreme_scales_survive() {
    for scale in [1e-150, 1e-30, 1e30, 1e150] {
        let a =
            Matrix::from_rows(&[&[3.0 * scale, 1.0 * scale], &[1.0 * scale, 2.0 * scale]]).unwrap();
        let svd = a.svd().unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-9 * scale), "scale {scale}");
        let x = a.cholesky().unwrap().solve(&[scale, scale]).unwrap();
        let back = a.matvec(&x);
        assert!((back[0] - scale).abs() < 1e-9 * scale, "scale {scale}");
    }
}

#[test]
fn mixed_magnitude_matrix_rank() {
    // Columns spanning 12 orders of magnitude: the rank must count the large
    // directions and cut the numerically-zero ones at the requested tolerance.
    // The rank tolerance is relative to the largest pivot: 1e-8/1e6 = 1e-14.
    let a = Matrix::from_diag(&[1e6, 1.0, 1e-8]);
    let f = a.col_piv_qr().unwrap();
    assert_eq!(f.rank(1e-15), 3);
    assert_eq!(f.rank(1e-10), 2);
    assert_eq!(f.rank(1e-4), 1);
}

#[test]
fn ecdf_of_constant_sample() {
    let e = Ecdf::new(&[5.0; 10]).unwrap();
    assert_eq!(e.eval(4.999), 0.0);
    assert_eq!(e.eval(5.0), 1.0);
    assert_eq!(e.quantile(0.5), 5.0);
    assert_eq!(e.min(), e.max());
}

#[test]
fn ecdf_single_sample() {
    let e = Ecdf::new(&[2.5]).unwrap();
    assert_eq!(e.len(), 1);
    assert_eq!(e.median(), 2.5);
    assert_eq!(e.quantile(0.0), 2.5);
    assert_eq!(e.quantile(1.0), 2.5);
}

#[test]
fn matrix_with_zero_rows_or_cols() {
    let z = Matrix::zeros(0, 5);
    assert!(z.is_empty());
    assert_eq!(z.transpose().shape(), (5, 0));
    assert_eq!(z.frobenius_norm(), 0.0);
    let z2 = Matrix::zeros(5, 0);
    assert_eq!(z2.matmul(&z).unwrap().shape(), (5, 5));
}

#[test]
fn hilbert_matrix_conditioning() {
    // The 6x6 Hilbert matrix is famously ill-conditioned (~1e7); make sure the
    // solvers stay usable there.
    let h = Matrix::from_fn(6, 6, |i, j| 1.0 / (i + j + 1) as f64);
    let sigma = h.svd().unwrap().sigma;
    let cond = sigma[0] / sigma[5];
    assert!(cond > 1e6 && cond < 1e9, "cond = {cond:e}");
    let x_true = vec![1.0; 6];
    let b = h.matvec(&x_true);
    let x = h.cholesky().unwrap().solve(&b).unwrap();
    // Accept loss of ~cond * eps precision.
    for (a, t) in x.iter().zip(&x_true) {
        assert!((a - t).abs() < 1e-6, "{a} vs {t}");
    }
}

#[test]
fn ridge_with_enormous_lambda_goes_to_zero() {
    let a = Matrix::identity(3);
    let b = Matrix::from_cols(&[&[1.0, 2.0, 3.0]]).unwrap();
    let x = ridge_multi(&a, &b, 1e12).unwrap();
    assert!(x.iter().all(|v| v.abs() < 1e-9));
}
