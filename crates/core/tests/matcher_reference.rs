//! Reference checks for the matcher: `TafLoc::localize` and `localize_among`
//! must return bit-identical `MatchResult`s to the column-by-column gate and
//! the full stable sort they replaced, which this file keeps as the reference.
//! The databases are seeded random ones whose columns repeat, so distances tie
//! and the order of tied cells decides which cells join a KNN centroid.

use proptest::prelude::*;
use std::cmp::Ordering;
use taf_linalg::Matrix;
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use tafloc_core::db::FingerprintDb;
use tafloc_core::error::TaflocError;
use tafloc_core::matcher::{localize_among, top_k_by, MatchMethod, MatchResult};
use tafloc_core::system::{SystemSnapshot, TafLoc, TafLocConfig};
use tafloc_core::Result;

/// SplitMix64, so each case is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A drop below the empty-room level in 0..15 dB, in 0.5 dB steps, so the
    /// gate's 1 dB and 7 dB thresholds fall on both sides of many entries.
    fn drop_db(&mut self) -> f64 {
        0.5 * self.below(31) as f64
    }
}

/// Today's matcher before the one-pass sweep: distances column by column,
/// then every cell sorted to keep the `k` nearest.
fn reference_localize_among(
    db: &FingerprintDb,
    y: &[f64],
    method: MatchMethod,
    candidates: Option<&[usize]>,
) -> Result<MatchResult> {
    if y.len() != db.num_links() {
        return Err(TaflocError::DimensionMismatch {
            op: "localize",
            expected: (db.num_links(), 1),
            actual: (y.len(), 1),
        });
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(TaflocError::InvalidConfig {
            field: "y",
            reason: "RSS vector contains non-finite values".into(),
        });
    }
    let n = db.num_cells();
    let x = db.rss();
    let all: Vec<usize>;
    let cells: &[usize] = match candidates {
        Some(c) => {
            if c.is_empty() {
                return Err(TaflocError::InvalidConfig {
                    field: "candidates",
                    reason: "candidate set is empty".into(),
                });
            }
            for &j in c {
                if j >= n {
                    return Err(TaflocError::IndexOutOfBounds {
                        op: "localize_among",
                        index: j,
                        bound: n,
                    });
                }
            }
            c
        }
        None => {
            all = (0..n).collect();
            &all
        }
    };
    let mut dists: Vec<f64> = vec![f64::INFINITY; n];
    for &j in cells {
        let mut acc = 0.0;
        for (i, &yi) in y.iter().enumerate() {
            let d = yi - x[(i, j)];
            acc += d * d;
        }
        dists[j] = acc.sqrt();
    }
    let (best_cell, best_distance) = cells
        .iter()
        .map(|&j| (j, dists[j]))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
        .expect("candidate set verified non-empty");
    let point = match method {
        MatchMethod::NearestNeighbor => db.grid().cell_center(best_cell),
        MatchMethod::Knn { k } => {
            if k == 0 {
                return Err(TaflocError::InvalidConfig {
                    field: "k",
                    reason: "KNN needs k >= 1".into(),
                });
            }
            let k = k.min(n);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| dists[a].partial_cmp(&dists[b]).expect("finite distances"));
            let best_center = db.grid().cell_center(best_cell);
            let gate_m = 2.5 * db.grid().cell_size();
            let (mut wx, mut wy, mut wsum) = (0.0, 0.0, 0.0);
            for &j in order.iter().take(k) {
                let c = db.grid().cell_center(j);
                if c.distance(&best_center) > gate_m {
                    continue;
                }
                let w = 1.0 / (dists[j] + 1e-6);
                wx += w * c.x;
                wy += w * c.y;
                wsum += w;
            }
            Point::new(wx / wsum, wy / wsum)
        }
        MatchMethod::Probabilistic { sigma_db } => {
            if sigma_db.is_nan() || sigma_db <= 0.0 {
                return Err(TaflocError::InvalidConfig {
                    field: "sigma_db",
                    reason: format!("must be > 0, got {sigma_db}"),
                });
            }
            let m = db.num_links() as f64;
            let scale = 2.0 * sigma_db * sigma_db * m;
            let best_center = db.grid().cell_center(best_cell);
            let gate_m = 2.5 * db.grid().cell_size();
            let (mut wx, mut wy, mut wsum) = (0.0, 0.0, 0.0);
            for (j, &dj) in dists.iter().enumerate() {
                let c = db.grid().cell_center(j);
                if c.distance(&best_center) > gate_m {
                    continue;
                }
                let ll = -(dj * dj - best_distance * best_distance) / scale;
                let w = ll.exp();
                wx += w * c.x;
                wy += w * c.y;
                wsum += w;
            }
            Point::new(wx / wsum, wy / wsum)
        }
    };
    Ok(MatchResult { cell: best_cell, point, best_distance })
}

/// The cells today's consistency gate keeps, evaluated cell by cell.
fn reference_gate(db: &FingerprintDb, empty: &[f64], cfg: &TafLocConfig, y: &[f64]) -> Vec<usize> {
    let m = db.num_links();
    let live_drop: Vec<f64> = empty.iter().zip(y).map(|(e, v)| e - v).collect();
    let x = db.rss();
    let (hi, lo) = (cfg.gate_hi_db, cfg.gate_lo_db);
    (0..db.num_cells())
        .filter(|&j| {
            (0..m).all(|i| {
                let db_drop = empty[i] - x[(i, j)];
                !((live_drop[i] > hi && db_drop < lo) || (db_drop > hi && live_drop[i] < lo))
            })
        })
        .collect()
}

/// Today's `TafLoc::localize` before the one-pass sweep: the reference gate,
/// then the reference matcher.
fn reference_localize(sys: &TafLoc, y: &[f64]) -> Result<MatchResult> {
    let (db, cfg) = (sys.db(), sys.config());
    if cfg.consistency_gate && y.len() == db.num_links() {
        let candidates = reference_gate(db, sys.empty_rss(), cfg, y);
        if !candidates.is_empty() {
            return reference_localize_among(db, y, cfg.matcher, Some(&candidates));
        }
    }
    reference_localize_among(db, y, cfg.matcher, None)
}

/// Bit equality of two answers, or of two errors.
fn same(got: &Result<MatchResult>, want: &Result<MatchResult>) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            g.cell == w.cell
                && g.point.x.to_bits() == w.point.x.to_bits()
                && g.point.y.to_bits() == w.point.y.to_bits()
                && g.best_distance.to_bits() == w.best_distance.to_bits()
        }
        (Err(g), Err(w)) => g == w,
        _ => false,
    }
}

/// Every method, with `k` in {1, 3, N−1, N, N+5} and `k = 0` (an error).
fn methods(n: usize) -> Vec<MatchMethod> {
    let mut out = vec![MatchMethod::NearestNeighbor];
    for k in [0, 1, 3, n - 1, n, n + 5] {
        out.push(MatchMethod::Knn { k });
    }
    for sigma_db in [0.0, 0.5, 4.0] {
        out.push(MatchMethod::Probabilistic { sigma_db });
    }
    out
}

/// A seeded `m x nx·ny` database whose columns copy a few distinct ones, the
/// empty-room baseline it was drawn against, and live queries: exact copies of
/// a column (zero-distance ties), perturbed copies and random drop patterns.
fn random_case(seed: u64) -> (FingerprintDb, Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = Rng(seed);
    let m = 2 + rng.below(6);
    let (nx, ny) = (1 + rng.below(7), 1 + rng.below(5));
    let n = nx * ny;
    let empty: Vec<f64> = (0..m).map(|_| -40.0 - rng.drop_db()).collect();
    let distinct: Vec<Vec<f64>> = (0..1 + rng.below(n.div_ceil(2)))
        .map(|_| empty.iter().map(|e| e - rng.drop_db()).collect())
        .collect();
    let cols: Vec<&[f64]> =
        (0..n).map(|_| distinct[rng.below(distinct.len())].as_slice()).collect();
    let rss = Matrix::from_cols(&cols).expect("equal-length columns");
    let links = (0..m)
        .map(|i| Segment::new(Point::new(-1.0, i as f64 * 0.7), Point::new(nx as f64 + 1.0, 0.3)))
        .collect();
    let db = FingerprintDb::new(rss, links, FloorGrid::new(Point::new(0.0, 0.0), 1.0, nx, ny))
        .expect("consistent shapes");
    let mut queries = Vec::new();
    for _ in 0..3 {
        let col = cols[rng.below(n)];
        queries.push(col.to_vec());
        queries.push(col.iter().map(|v| v + 0.5 * rng.below(3) as f64 - 0.5).collect());
        queries.push(empty.iter().map(|e| e - rng.drop_db()).collect());
    }
    (db, empty, queries)
}

/// `queries` plus two the matcher must refuse: one link too many, and a NaN.
fn with_invalid(mut queries: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let mut nan = queries[0].clone();
    nan[0] = f64::NAN;
    queries.push(nan);
    queries.push(vec![-40.0; queries[0].len() + 1]);
    queries
}

/// A candidate list of 1..2N cells: unsorted, with gaps and repeats.
fn candidate_list(rng: &mut Rng, n: usize) -> Vec<usize> {
    (0..1 + rng.below(2 * n)).map(|_| rng.below(n)).collect()
}

proptest! {
    #[test]
    fn gated_localize_matches_column_wise_gate_and_full_sort(seed in 0u64..u64::MAX) {
        let (db, empty, queries) = random_case(seed);
        let queries = with_invalid(queries);
        let n = db.num_cells();
        let base = TafLoc::calibrate(TafLocConfig { ref_count: 1, ..Default::default() }, db, empty)
            .expect("calibrates")
            .snapshot();
        for consistency_gate in [true, false] {
            for matcher in methods(n) {
                let config = TafLocConfig { consistency_gate, matcher, ..base.config };
                let sys = TafLoc::from_snapshot(SystemSnapshot { config, ..base.clone() })
                    .expect("snapshot restores");
                for y in &queries {
                    let (got, want) = (sys.localize(y), reference_localize(&sys, y));
                    prop_assert!(same(&got, &want), "{matcher:?} gate {consistency_gate}: {got:?} != {want:?}");
                }
            }
        }
    }

    #[test]
    fn localize_among_matches_full_sort_on_candidate_lists(seed in 0u64..u64::MAX) {
        let (db, _, queries) = random_case(seed);
        let queries = with_invalid(queries);
        let n = db.num_cells();
        let mut rng = Rng(seed ^ 0x5eed);
        let mut lists: Vec<Option<Vec<usize>>> = vec![None, Some(vec![]), Some(vec![n])];
        lists.extend((0..4).map(|_| Some(candidate_list(&mut rng, n))));
        for method in methods(n) {
            for list in &lists {
                for y in &queries {
                    let got = localize_among(&db, y, method, list.as_deref());
                    let want = reference_localize_among(&db, y, method, list.as_deref());
                    prop_assert!(same(&got, &want), "{method:?} {list:?}: {got:?} != {want:?}");
                }
            }
        }
    }

    #[test]
    fn top_k_by_is_the_stable_sort_prefix(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(60);
        // Keys from four values: most comparisons are ties.
        let keys: Vec<f64> = (0..n).map(|_| rng.below(4) as f64).collect();
        let asc = |a: usize, b: usize| keys[a].partial_cmp(&keys[b]).expect("finite");
        let desc = |a: usize, b: usize| keys[b].partial_cmp(&keys[a]).expect("finite");
        let cmps: [&dyn Fn(usize, usize) -> Ordering; 2] = [&asc, &desc];
        for cmp in cmps {
            let mut sorted: Vec<usize> = (0..n).collect();
            sorted.sort_by(|&a, &b| cmp(a, b));
            for k in [0, 1, 3, n - 1, n, n + 5] {
                let top = top_k_by(n, k, cmp);
                prop_assert_eq!(&top[..], &sorted[..k.min(n)]);
            }
        }
    }
}

/// The random cases reach every branch the reference distinguishes.
#[test]
fn random_cases_cover_ties_and_every_gate_outcome() {
    let (mut ties, mut all_kept, mut some_kept, mut none_kept) = (0, 0, 0, 0);
    for seed in 0..64 {
        let (db, empty, queries) = random_case(seed);
        let x = db.rss();
        let dup = (0..db.num_cells())
            .any(|j| (0..j).any(|i| (0..db.num_links()).all(|l| x[(l, i)] == x[(l, j)])));
        ties += usize::from(dup);
        for y in &queries {
            match reference_gate(&db, &empty, &TafLocConfig::default(), y).len() {
                0 => none_kept += 1,
                k if k == db.num_cells() => all_kept += 1,
                _ => some_kept += 1,
            }
        }
    }
    assert!(ties > 32, "only {ties} of 64 databases repeat a column");
    assert!(all_kept > 0 && some_kept > 0 && none_kept > 0, "{all_kept}/{some_kept}/{none_kept}");
}
