//! Online localization: matching a live RSS vector `Y` against the fingerprint
//! database columns.
//!
//! The paper's final step: *"the real-time RSS measurements are collected as
//! `Y = (y_i)_{M x 1}`. Then the target location can be estimated by matching `Y`
//! with `X`."* Three matchers are provided, from the simplest to the one TafLoc
//! uses by default:
//!
//! * [`MatchMethod::NearestNeighbor`] — the cell whose fingerprint is closest in
//!   Euclidean RSS distance.
//! * [`MatchMethod::Knn`] — inverse-distance-weighted centroid of the `k` best
//!   cells (sub-cell accuracy; the default).
//! * [`MatchMethod::Probabilistic`] — Gaussian-likelihood weighting over all
//!   cells with a noise scale `σ`.

use crate::db::FingerprintDb;
use crate::error::TaflocError;
use crate::Result;
use std::cmp::Ordering;
use taf_rfsim::geometry::Point;

taf_wire::schema! {
    /// Matching method for localization.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum MatchMethod: external {
        /// Single nearest fingerprint column.
        NearestNeighbor = 0 "NearestNeighbor",
        /// Inverse-distance weighted centroid of the `k` nearest columns.
        Knn = 1 "Knn" {
            /// Number of neighbors (clamped to the cell count, must be >= 1).
            k: usize,
        },
        /// Gaussian likelihood `exp(−‖Y − x_j‖² / (2σ²M))` weighted centroid.
        Probabilistic = 2 "Probabilistic" {
            /// RSS noise scale in dB (must be > 0).
            sigma_db: f64,
        },
    }
}

impl Default for MatchMethod {
    fn default() -> Self {
        MatchMethod::Knn { k: 3 }
    }
}

/// Result of one localization query.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// Best-matching cell index.
    pub cell: usize,
    /// Estimated position (cell center for NN; weighted centroid otherwise).
    pub point: Point,
    /// Euclidean RSS distance to the best-matching fingerprint (dB).
    pub best_distance: f64,
}

/// Localizes a live RSS vector against the database.
pub fn localize(db: &FingerprintDb, y: &[f64], method: MatchMethod) -> Result<MatchResult> {
    localize_gated(db, y, method, None)
}

/// Localizes like [`localize`], but restricted to an optional candidate-cell
/// set.
///
/// `candidates = None` considers every cell; an empty candidate list is an
/// error (the caller should fall back to the unrestricted search instead).
/// Among equally distant candidates the first one listed is the best match.
pub fn localize_among(
    db: &FingerprintDb,
    y: &[f64],
    method: MatchMethod,
    candidates: Option<&[usize]>,
) -> Result<MatchResult> {
    let Some(cells) = candidates else { return localize(db, y, method) };
    check_query(db, y)?;
    let n = db.num_cells();
    if cells.is_empty() {
        return Err(TaflocError::InvalidConfig {
            field: "candidates",
            reason: "candidate set is empty".into(),
        });
    }
    if let Some(&j) = cells.iter().find(|&&j| j >= n) {
        return Err(TaflocError::IndexOutOfBounds { op: "localize_among", index: j, bound: n });
    }
    let (all, _) = sweep(db, y, None);
    let mut dists = vec![f64::INFINITY; n];
    for &j in cells {
        dists[j] = all[j];
    }
    finish(db, &dists, nearest(cells.iter().copied(), &dists), method)
}

/// The blocking-pattern consistency gate of [`crate::system::TafLoc::localize`]:
/// a cell is excluded when the live RSS drops more than `hi_db` below
/// `empty_rss` on a link where the cell's fingerprint drops less than `lo_db`,
/// or the reverse.
pub(crate) struct ConsistencyGate<'a> {
    pub empty_rss: &'a [f64],
    pub hi_db: f64,
    pub lo_db: f64,
}

/// Localizes among the cells `gate` keeps, or among all cells when there is
/// no gate or it keeps none.
pub(crate) fn localize_gated(
    db: &FingerprintDb,
    y: &[f64],
    method: MatchMethod,
    gate: Option<&ConsistencyGate>,
) -> Result<MatchResult> {
    check_query(db, y)?;
    let (mut dists, mut kept) = sweep(db, y, gate);
    if !kept.contains(&true) {
        kept.fill(true);
    }
    for (d, &k) in dists.iter_mut().zip(&kept) {
        if !k {
            *d = f64::INFINITY;
        }
    }
    let best = nearest((0..db.num_cells()).filter(|&j| kept[j]), &dists);
    finish(db, &dists, best, method)
}

/// Indices of the first `k` elements of `0..n` in the order a stable
/// `sort_by(cmp)` would put them (equal elements by index), in O(n·k)
/// comparisons without sorting the rest.
pub fn top_k_by(n: usize, k: usize, mut cmp: impl FnMut(usize, usize) -> Ordering) -> Vec<usize> {
    let mut top: Vec<usize> = Vec::with_capacity(k.min(n) + 1);
    if k == 0 {
        return top;
    }
    for j in 0..n {
        if top.len() == k && cmp(j, top[k - 1]) != Ordering::Less {
            continue;
        }
        // `j` is the largest index seen so far, so it goes after every kept
        // element it does not sort strictly before.
        let at = top.iter().rposition(|&t| cmp(j, t) != Ordering::Less).map_or(0, |p| p + 1);
        top.insert(at, j);
        top.truncate(k);
    }
    top
}

/// Refuses a query of the wrong length or with non-finite entries.
fn check_query(db: &FingerprintDb, y: &[f64]) -> Result<()> {
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
    Ok(())
}

/// One pass over the rows of `X`: the Euclidean RSS distance of `y` to every
/// fingerprint column (each sum runs over the links in order) and, per cell,
/// whether `gate` keeps it (all `true` without a gate).
fn sweep(db: &FingerprintDb, y: &[f64], gate: Option<&ConsistencyGate>) -> (Vec<f64>, Vec<bool>) {
    let x = db.rss();
    let mut acc = vec![0.0; db.num_cells()];
    let mut kept = vec![true; db.num_cells()];
    for (i, &yi) in y.iter().enumerate() {
        let row = x.row(i);
        for (a, &xij) in acc.iter_mut().zip(row) {
            let d = yi - xij;
            *a += d * d;
        }
        let Some(g) = gate else { continue };
        let empty = g.empty_rss[i];
        let live_drop = empty - yi;
        let (blocked, quiet) = (live_drop > g.hi_db, live_drop < g.lo_db);
        if !(blocked || quiet) {
            continue;
        }
        for (k, &xij) in kept.iter_mut().zip(row) {
            let db_drop = empty - xij;
            if (blocked && db_drop < g.lo_db) || (quiet && db_drop > g.hi_db) {
                *k = false;
            }
        }
    }
    for a in &mut acc {
        *a = a.sqrt();
    }
    (acc, kept)
}

/// The first of `cells` at the least distance.
fn nearest(cells: impl Iterator<Item = usize>, dists: &[f64]) -> (usize, f64) {
    cells
        .map(|j| (j, dists[j]))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
        .expect("candidate set verified non-empty")
}

/// The estimate from every cell's distance (`+∞` outside the candidate set)
/// and the best match.
fn finish(
    db: &FingerprintDb,
    dists: &[f64],
    (best_cell, best_distance): (usize, f64),
    method: MatchMethod,
) -> Result<MatchResult> {
    let n = db.num_cells();
    let point = match method {
        MatchMethod::NearestNeighbor => db.grid().cell_center(best_cell),
        MatchMethod::Knn { k } => {
            if k == 0 {
                return Err(TaflocError::InvalidConfig {
                    field: "k",
                    reason: "KNN needs k >= 1".into(),
                });
            }
            let order = top_k_by(n, k.min(n), |a, b| {
                dists[a].partial_cmp(&dists[b]).expect("finite distances")
            });
            // RSS fingerprints alias: two far-apart cells can match almost
            // equally well. Averaging such matches would place the estimate in
            // the empty middle, so only neighbors spatially close to the best
            // match join the centroid.
            let best_center = db.grid().cell_center(best_cell);
            let gate_m = 2.5 * db.grid().cell_size();
            let mut wx = 0.0;
            let mut wy = 0.0;
            let mut wsum = 0.0;
            for &j in &order {
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
            if !(sigma_db > 0.0) {
                return Err(TaflocError::InvalidConfig {
                    field: "sigma_db",
                    reason: format!("must be > 0, got {sigma_db}"),
                });
            }
            // Log-likelihoods, stabilized by the best distance. The posterior is
            // restricted to the spatial neighborhood of the MAP cell for the same
            // aliasing reason as in KNN: a far-away cell with a coincidentally
            // similar fingerprint must not drag the centroid across the room.
            let m = db.num_links() as f64;
            let scale = 2.0 * sigma_db * sigma_db * m;
            let best_center = db.grid().cell_center(best_cell);
            let gate_m = 2.5 * db.grid().cell_size();
            let mut wx = 0.0;
            let mut wy = 0.0;
            let mut wsum = 0.0;
            for j in 0..n {
                let c = db.grid().cell_center(j);
                if c.distance(&best_center) > gate_m {
                    continue;
                }
                let ll = -(dists[j] * dists[j] - best_distance * best_distance) / scale;
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

#[cfg(test)]
mod tests {
    use super::*;
    use taf_linalg::Matrix;
    use taf_rfsim::geometry::Segment;
    use taf_rfsim::grid::FloorGrid;

    /// 3-link, 2x2-cell database with well-separated fingerprints.
    fn db() -> FingerprintDb {
        let grid = FloorGrid::new(Point::new(0.0, 0.0), 1.0, 2, 2);
        let links = vec![
            Segment::new(Point::new(-1.0, 0.0), Point::new(3.0, 0.0)),
            Segment::new(Point::new(-1.0, 1.0), Point::new(3.0, 1.0)),
            Segment::new(Point::new(0.0, -1.0), Point::new(0.0, 3.0)),
        ];
        let rss = Matrix::from_cols(&[
            &[-40.0, -50.0, -60.0],
            &[-45.0, -52.0, -58.0],
            &[-50.0, -44.0, -61.0],
            &[-55.0, -47.0, -52.0],
        ])
        .unwrap();
        FingerprintDb::new(rss, links, grid).unwrap()
    }

    #[test]
    fn exact_fingerprint_matches_its_cell() {
        let d = db();
        for j in 0..4 {
            let y = d.fingerprint(j).unwrap();
            let r = localize(&d, &y, MatchMethod::NearestNeighbor).unwrap();
            assert_eq!(r.cell, j);
            assert_eq!(r.point, d.grid().cell_center(j));
            assert!(r.best_distance < 1e-12);
        }
    }

    #[test]
    fn noisy_fingerprint_still_matches() {
        let d = db();
        let mut y = d.fingerprint(2).unwrap();
        y[0] += 1.0;
        y[2] -= 0.5;
        let r = localize(&d, &y, MatchMethod::NearestNeighbor).unwrap();
        assert_eq!(r.cell, 2);
        assert!(r.best_distance > 0.0);
    }

    #[test]
    fn knn_interpolates_between_cells() {
        let d = db();
        // Midway between fingerprints 0 and 1 in RSS space.
        let f0 = d.fingerprint(0).unwrap();
        let f1 = d.fingerprint(1).unwrap();
        let y: Vec<f64> = f0.iter().zip(&f1).map(|(a, b)| (a + b) / 2.0).collect();
        let r = localize(&d, &y, MatchMethod::Knn { k: 2 }).unwrap();
        let c0 = d.grid().cell_center(0);
        let c1 = d.grid().cell_center(1);
        // The centroid should lie between the two cell centers.
        assert!(r.point.x > c0.x.min(c1.x) - 1e-9 && r.point.x < c0.x.max(c1.x) + 1e-9);
        assert!((r.point.y - c0.y).abs() < 1e-9);
    }

    #[test]
    fn knn_with_k1_matches_nn_cell() {
        let d = db();
        let y = d.fingerprint(3).unwrap();
        let r = localize(&d, &y, MatchMethod::Knn { k: 1 }).unwrap();
        assert_eq!(r.cell, 3);
        let c = d.grid().cell_center(3);
        assert!((r.point.x - c.x).abs() < 1e-9 && (r.point.y - c.y).abs() < 1e-9);
    }

    #[test]
    fn knn_k_clamped_to_cell_count() {
        let d = db();
        let y = d.fingerprint(0).unwrap();
        assert!(localize(&d, &y, MatchMethod::Knn { k: 100 }).is_ok());
    }

    #[test]
    fn probabilistic_weights_concentrate_with_small_sigma() {
        let d = db();
        let y = d.fingerprint(1).unwrap();
        let tight = localize(&d, &y, MatchMethod::Probabilistic { sigma_db: 0.1 }).unwrap();
        let c1 = d.grid().cell_center(1);
        assert!((tight.point.x - c1.x).abs() < 0.05);
        assert!((tight.point.y - c1.y).abs() < 0.05);
        // Large sigma spreads the estimate toward the global centroid.
        let loose = localize(&d, &y, MatchMethod::Probabilistic { sigma_db: 50.0 }).unwrap();
        let dist_tight = tight.point.distance(&c1);
        let dist_loose = loose.point.distance(&c1);
        assert!(dist_loose > dist_tight);
    }

    #[test]
    fn validates_inputs() {
        let d = db();
        assert!(localize(&d, &[-40.0], MatchMethod::NearestNeighbor).is_err());
        assert!(localize(&d, &[-40.0, f64::NAN, -60.0], MatchMethod::NearestNeighbor).is_err());
        let y = d.fingerprint(0).unwrap();
        assert!(localize(&d, &y, MatchMethod::Knn { k: 0 }).is_err());
        assert!(localize(&d, &y, MatchMethod::Probabilistic { sigma_db: 0.0 }).is_err());
    }
}
