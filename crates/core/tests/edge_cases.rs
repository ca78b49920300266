//! Edge-case integration tests: degenerate sizes, extreme configurations, and
//! boundary conditions that unit tests of the happy path don't reach.

use taf_linalg::Matrix;
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use tafloc_core::db::FingerprintDb;
use tafloc_core::loli_ir::{reconstruct, LoliIrConfig, ReconstructionProblem};
use tafloc_core::mask::Mask;
use tafloc_core::matcher::{localize, localize_among, MatchMethod};
use tafloc_core::operators::NeighborGraph;
use tafloc_core::reference::{select_references, ReferenceStrategy};
use tafloc_core::system::{TafLoc, TafLocConfig};

fn tiny_db(links: usize, nx: usize, ny: usize) -> FingerprintDb {
    let grid = FloorGrid::new(Point::new(0.0, 0.0), 1.0, nx, ny);
    let segs: Vec<Segment> = (0..links)
        .map(|i| {
            Segment::new(
                Point::new(-1.0, i as f64 * 0.5),
                Point::new(nx as f64 + 1.0, i as f64 * 0.5),
            )
        })
        .collect();
    let rss = Matrix::from_fn(links, nx * ny, |i, j| {
        -45.0 - (i as f64) - 2.0 * ((j as f64 * 0.7 + i as f64).sin())
    });
    FingerprintDb::new(rss, segs, grid).unwrap()
}

#[test]
fn single_cell_database_localizes_trivially() {
    let db = tiny_db(3, 1, 1);
    let y = db.fingerprint(0).unwrap();
    for method in [
        MatchMethod::NearestNeighbor,
        MatchMethod::Knn { k: 5 },
        MatchMethod::Probabilistic { sigma_db: 1.0 },
    ] {
        let fix = localize(&db, &y, method).unwrap();
        assert_eq!(fix.cell, 0);
    }
}

#[test]
fn single_link_database_works() {
    let db = tiny_db(1, 3, 2);
    let y = db.fingerprint(4).unwrap();
    let fix = localize(&db, &y, MatchMethod::NearestNeighbor).unwrap();
    // With one link many cells can tie; the best distance must still be zero.
    assert!(fix.best_distance < 1e-12);
}

#[test]
fn localize_among_respects_candidates() {
    let db = tiny_db(4, 3, 3);
    let y = db.fingerprint(0).unwrap();
    // Exclude the true cell: the best candidate must come from the allowed set.
    let fix = localize_among(&db, &y, MatchMethod::NearestNeighbor, Some(&[5, 7, 8])).unwrap();
    assert!([5, 7, 8].contains(&fix.cell));
    // Candidate validation.
    assert!(localize_among(&db, &y, MatchMethod::NearestNeighbor, Some(&[])).is_err());
    assert!(localize_among(&db, &y, MatchMethod::NearestNeighbor, Some(&[99])).is_err());
}

#[test]
fn loli_ir_on_one_by_one_matrix() {
    let observed = Matrix::from_rows(&[&[-50.0]]).unwrap();
    let mask = Mask::trues(1, 1);
    let problem = ReconstructionProblem::completion_only(&observed, &mask);
    let cfg = LoliIrConfig { rank: 1, ..Default::default() };
    let rec = reconstruct(&problem, &cfg).unwrap();
    assert!((rec.matrix[(0, 0)] - (-50.0)).abs() < 0.5);
}

#[test]
fn loli_ir_single_row_matrix() {
    // One link, several cells: rank is 1; prior drives the unobserved cells.
    let truth = Matrix::from_rows(&[&[-50.0, -52.0, -54.0, -53.0, -51.0]]).unwrap();
    let mask = Mask::from_columns(1, 5, &[0, 4]).unwrap();
    let problem = ReconstructionProblem {
        observed: &truth,
        mask: &mask,
        lrr_prior: Some(&truth),
        location_graph: None,
        link_graph: None,
        empty_rss: None,
        distortion: None,
    };
    let rec = reconstruct(&problem, &LoliIrConfig { rank: 1, ..Default::default() }).unwrap();
    assert!(rec.matrix.sub(&truth).unwrap().map(f64::abs).mean() < 1.0);
}

#[test]
fn loli_ir_with_fully_observed_matrix_reproduces_it() {
    let truth = Matrix::from_fn(4, 6, |i, j| -40.0 - (i + j) as f64);
    let mask = Mask::trues(4, 6);
    let problem = ReconstructionProblem::completion_only(&truth, &mask);
    let cfg = LoliIrConfig { rank: 4, lambda: 1e-6, ..Default::default() };
    let rec = reconstruct(&problem, &cfg).unwrap();
    assert!(rec.matrix.approx_eq(&truth, 0.2), "fully observed input must be honored");
}

#[test]
fn loli_ir_graphs_on_degenerate_graphs() {
    // Graphs with no edges must behave exactly like no graphs at all.
    let truth = Matrix::from_fn(3, 4, |i, j| -50.0 + (i * j) as f64);
    let mask = Mask::from_columns(3, 4, &[0, 2]).unwrap();
    let empty_g = NeighborGraph::new(4, Vec::<(usize, usize)>::new());
    let empty_h = NeighborGraph::new(3, Vec::<(usize, usize)>::new());
    let with = ReconstructionProblem {
        observed: &truth,
        mask: &mask,
        lrr_prior: Some(&truth),
        location_graph: Some(&empty_g),
        link_graph: Some(&empty_h),
        empty_rss: None,
        distortion: None,
    };
    let without = ReconstructionProblem {
        observed: &truth,
        mask: &mask,
        lrr_prior: Some(&truth),
        location_graph: None,
        link_graph: None,
        empty_rss: None,
        distortion: None,
    };
    let cfg = LoliIrConfig { alpha: 5.0, beta: 5.0, ..Default::default() };
    let a = reconstruct(&with, &cfg).unwrap();
    let b = reconstruct(&without, &cfg).unwrap();
    assert!(a.matrix.approx_eq(&b.matrix, 1e-9));
}

#[test]
fn reference_selection_all_columns() {
    let db = tiny_db(3, 2, 2);
    // Selecting every column must succeed and be a permutation.
    let sel = select_references(db.rss(), 4, ReferenceStrategy::QrPivot).unwrap();
    let mut sorted = sel.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3]);
}

#[test]
fn tafloc_with_minimum_references() {
    // One reference cell is degenerate but must not panic or produce NaN.
    let db = tiny_db(4, 3, 3);
    let cfg = TafLocConfig { ref_count: 1, ..Default::default() };
    let mut sys = TafLoc::calibrate(cfg, db.clone(), vec![-40.0; 4]).unwrap();
    let fresh = db.rss().select_cols(sys.reference_cells()).unwrap();
    let report = sys.update(&fresh, &[-40.0; 4]).unwrap();
    assert!(!sys.db().rss().has_non_finite());
    assert!(report.iterations >= 1);
}

#[test]
fn tafloc_with_all_cells_as_references_is_a_resurvey() {
    // n = N degenerates into a full re-survey: the reconstruction must track
    // the fresh measurements closely.
    let db = tiny_db(4, 2, 3);
    let cfg = TafLocConfig { ref_count: 6, ..Default::default() };
    let mut sys = TafLoc::calibrate(cfg, db.clone(), vec![-40.0; 4]).unwrap();
    let fresh_full = db.rss().map(|v| v - 3.0); // everything shifted by -3 dB
    let fresh = fresh_full.select_cols(sys.reference_cells()).unwrap();
    sys.update(&fresh, &[-43.0; 4]).unwrap();
    let err = sys.db().mean_abs_error(&fresh_full).unwrap();
    assert!(err < 0.8, "full observation should pin the DB, err {err}");
}

#[test]
fn mask_extremes_through_loli_ir() {
    let truth = Matrix::from_fn(3, 5, |i, j| -50.0 - (i + j) as f64);
    // Single observed entry: solvable (heavily regularized), no NaN.
    let mut mask = Mask::falses(3, 5);
    mask.set(1, 2, true);
    let problem = ReconstructionProblem::completion_only(&truth, &mask);
    let rec = reconstruct(&problem, &LoliIrConfig { rank: 1, ..Default::default() }).unwrap();
    assert!(!rec.matrix.has_non_finite());
}

#[test]
fn db_rejects_empty_geometry() {
    let grid = FloorGrid::new(Point::new(0.0, 0.0), 1.0, 1, 1);
    // Zero links: shape check must fail for a 1x1 matrix.
    assert!(FingerprintDb::new(Matrix::zeros(1, 1), vec![], grid).is_err());
}

#[test]
fn graph_smoothness_on_empty_graph_is_zero() {
    let g = NeighborGraph::new(5, Vec::<(usize, usize)>::new());
    assert_eq!(g.num_edges(), 0);
    assert_eq!(g.laplacian().max_abs(), 0.0);
}
