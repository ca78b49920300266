//! The blocked, register-tiled dense products agree with a naive triple-loop
//! reference, to tolerance, on shapes that exercise every row-block size and
//! tile remainder.

use taf_linalg::Matrix;

/// Deterministic pseudo-random matrix (xorshift, no rand dependency needed).
fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f64 / 100.0 - 10.0
    })
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| (0..a.cols()).map(|p| a[(i, p)] * b[(p, j)]).sum())
}

/// Shapes (m, k, n) from tiny to 64³ and up, including row counts that
/// straddle the cache-block sizes (4/6/8 rows per block) and odd columns that
/// leave a remainder lane in the 2x2 register tile.
const SHAPES: &[(usize, usize, usize)] = &[
    (3, 4, 5),
    (17, 9, 23),
    (48, 8, 400),
    (64, 64, 64),
    (80, 100, 90),
    (5, 16, 7),    // one full 4-row block + 1 leftover row, odd n
    (9, 40, 13),   // 6-row block + 3 remainder rows
    (15, 300, 33), // long-k tier: 4-row blocks, odd everything
    (25, 33, 401), // wide output with a remainder tile column
];

#[test]
fn products_match_naive_reference() {
    for &(m, k, n) in SHAPES {
        let a = pseudo(m, k, 11 + m as u64);
        let b = pseudo(k, n, 29 + n as u64);
        let tol = 1e-9 * (1.0 + (k as f64) * 100.0);

        let c = a.matmul(&b).unwrap();
        assert!(c.approx_eq(&naive_matmul(&a, &b), tol), "matmul {m}x{k}x{n}");

        let nt = a.matmul_nt(&b.transpose()).unwrap();
        assert!(nt.approx_eq(&c, tol), "matmul_nt {m}x{k}x{n}");

        let tn = a.transpose().matmul_tn(&b).unwrap();
        assert!(tn.approx_eq(&c, tol), "matmul_tn {m}x{k}x{n}");

        let g = a.gram();
        assert!(g.approx_eq(&naive_matmul(&a.transpose(), &a), tol), "gram {m}x{k}");
    }
}

/// Every `_into` variant overwrites a reused output buffer completely: the
/// result from a buffer full of garbage is bit-identical to the allocating
/// product. The solver's workspaces rely on this.
#[test]
fn into_variants_overwrite_a_dirty_output() {
    for &(m, k, n) in SHAPES {
        let a = pseudo(m, k, 5 + m as u64);
        let b = pseudo(k, n, 13 + n as u64);
        let (bt, at) = (b.transpose(), a.transpose());
        let dirty = |rows, cols| Matrix::from_fn(rows, cols, |i, j| f64::NAN + (i + j) as f64);

        let mut out = dirty(m, n);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), a.matmul(&b).unwrap().as_slice(), "matmul {m}x{k}x{n}");

        let mut out = dirty(m, n);
        a.matmul_nt_into(&bt, &mut out).unwrap();
        assert_eq!(out.as_slice(), a.matmul_nt(&bt).unwrap().as_slice(), "matmul_nt {m}x{k}x{n}");

        let mut out = dirty(m, n);
        at.matmul_tn_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), at.matmul_tn(&b).unwrap().as_slice(), "matmul_tn {m}x{k}x{n}");

        let mut out = dirty(k, k);
        a.gram_into(&mut out).unwrap();
        assert_eq!(out.as_slice(), a.gram().as_slice(), "gram {m}x{k}");
    }
}

/// Blocking and tiling change no bits: `matmul` and `matmul_tn` accumulate
/// each element over the shared dimension in increasing order from zero, and
/// every `matmul_nt` element is exactly [`taf_linalg::dot`] of two rows.
#[test]
fn blocked_products_match_unblocked_arithmetic_bit_for_bit() {
    let in_order = |k: usize, term: &dyn Fn(usize) -> f64| (0..k).fold(0.0, |acc, p| acc + term(p));
    for &(m, k, n) in SHAPES {
        let a = pseudo(m, k, 17 + m as u64);
        let b = pseudo(k, n, 19 + n as u64);
        let (bt, at) = (b.transpose(), a.transpose());
        let (c, nt, tn) =
            (a.matmul(&b).unwrap(), a.matmul_nt(&bt).unwrap(), at.matmul_tn(&b).unwrap());
        for i in 0..m {
            for j in 0..n {
                let want = in_order(k, &|p| a[(i, p)] * b[(p, j)]);
                assert_eq!(c[(i, j)].to_bits(), want.to_bits(), "matmul {m}x{k}x{n} at ({i},{j})");
                assert_eq!(
                    tn[(i, j)].to_bits(),
                    want.to_bits(),
                    "matmul_tn {m}x{k}x{n} at ({i},{j})"
                );
                let want = taf_linalg::dot(a.row(i), bt.row(j));
                assert_eq!(
                    nt[(i, j)].to_bits(),
                    want.to_bits(),
                    "matmul_nt {m}x{k}x{n} at ({i},{j})"
                );
            }
        }
    }
}
