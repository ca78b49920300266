//! Radio Tomographic Imaging (RTI) — Wilson & Patwari, IEEE TMC 2010.
//!
//! RTI is the fingerprint-free comparator in the paper's Fig. 5. It never builds
//! a database: each link's *attenuation* (empty-room RSS minus live RSS) is
//! attributed to the voxels inside the link's Fresnel ellipse through a weight
//! matrix `W`, and an attenuation image `x` is recovered from `y ≈ W·x` by
//! Tikhonov-regularized least squares. The target estimate is the intensity
//! centroid of the brightest voxels.
//!
//! Because it needs no fingerprints, RTI is immune to database aging — but its
//! accuracy is bounded by the ellipse model and the link density, which is why
//! the paper shows TafLoc ahead of it.

use taf_linalg::decomp::Cholesky;
use taf_linalg::Matrix;
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use tafloc_core::error::TaflocError;
use tafloc_core::matcher::top_k_by;
use tafloc_core::Result;

/// RTI configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtiConfig {
    /// Excess-path-length threshold (m) defining each link's sensitive ellipse
    /// (the `λ` parameter of Wilson & Patwari's weight model).
    pub ellipse_width_m: f64,
    /// Tikhonov regularization weight.
    pub regularization: f64,
    /// Number of brightest voxels averaged into the position estimate.
    pub top_k: usize,
}

impl Default for RtiConfig {
    fn default() -> Self {
        RtiConfig { ellipse_width_m: 0.3, regularization: 0.5, top_k: 3 }
    }
}

/// A prepared RTI instance: weight matrix and factored normal equations.
///
/// ```
/// use taf_baselines::{Rti, RtiConfig};
/// use taf_rfsim::geometry::Segment;
/// use taf_rfsim::{campaign, World, WorldConfig};
///
/// let world = World::new(WorldConfig::small_test(), 1);
/// let links: Vec<Segment> = world.deployment().links().iter().map(|l| l.segment).collect();
/// let rti = Rti::new(&links, world.grid(), RtiConfig::default()).unwrap();
///
/// let empty = campaign::empty_snapshot(&world, 0.0, 20);
/// let y = campaign::snapshot_at_cell(&world, 0.0, 7, 20);
/// let fix = rti.localize(&empty, &y).unwrap();
/// assert!(fix.cell < world.num_cells());
/// ```
#[derive(Debug, Clone)]
pub struct Rti {
    config: RtiConfig,
    grid: FloorGrid,
    /// `M x N` voxel weight matrix.
    weights: Matrix,
    /// Cholesky factor of `WᵀW + α(I + L)` where `L` is the grid Laplacian
    /// (difference regularization keeps the image smooth).
    normal: Cholesky,
}

/// One localization output.
#[derive(Debug, Clone)]
pub struct RtiFix {
    /// Brightest voxel index.
    pub cell: usize,
    /// Intensity-weighted centroid of the top voxels.
    pub point: Point,
    /// The full attenuation image (one value per voxel).
    pub image: Vec<f64>,
}

impl Rti {
    /// Builds the weight model and factors the regularized normal equations.
    pub fn new(links: &[Segment], grid: &FloorGrid, config: RtiConfig) -> Result<Self> {
        if links.is_empty() {
            return Err(TaflocError::InvalidConfig {
                field: "links",
                reason: "RTI needs at least one link".into(),
            });
        }
        if !(config.ellipse_width_m > 0.0) || !(config.regularization > 0.0) || config.top_k == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "rti",
                reason: format!(
                    "ellipse_width ({}), regularization ({}) must be > 0 and top_k ({}) >= 1",
                    config.ellipse_width_m, config.regularization, config.top_k
                ),
            });
        }
        let m = links.len();
        let n = grid.num_cells();
        let weights = Matrix::from_fn(m, n, |i, j| {
            let seg = &links[i];
            let p = grid.cell_center(j);
            if seg.in_fresnel_ellipse(&p, config.ellipse_width_m) {
                1.0 / seg.length().max(1e-6).sqrt()
            } else {
                0.0
            }
        });

        // Regularizer: identity plus the grid Laplacian (image smoothness).
        let graph = tafloc_core::operators::NeighborGraph::locations(grid);
        let mut reg = graph.laplacian();
        reg.add_diag(1.0)?;
        let mut normal = weights.gram();
        normal.axpy(config.regularization, &reg)?;
        let normal = normal.cholesky()?;
        Ok(Rti { config, grid: grid.clone(), weights, normal })
    }

    /// The voxel weight matrix (`M x N`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Localizes from an empty-room RSS vector and a live RSS vector.
    pub fn localize(&self, empty_rss: &[f64], y: &[f64]) -> Result<RtiFix> {
        let m = self.weights.rows();
        if empty_rss.len() != m || y.len() != m {
            return Err(TaflocError::DimensionMismatch {
                op: "Rti::localize",
                expected: (m, 1),
                actual: (empty_rss.len().max(y.len()), 1),
            });
        }
        // Link attenuation: positive when the target shadows the link.
        let atten: Vec<f64> = empty_rss.iter().zip(y).map(|(e, v)| (e - v).max(0.0)).collect();
        let rhs = self.weights.tr_matvec(&atten);
        let image = self.normal.solve(&rhs)?;

        let (best, _) = image
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite image"))
            .expect("non-empty image");

        // Intensity-weighted centroid of the brightest voxels.
        let order = top_k_by(image.len(), self.config.top_k, |a, b| {
            image[b].partial_cmp(&image[a]).expect("finite image")
        });
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut wsum = 0.0;
        for &j in &order {
            let w = image[j].max(0.0);
            let c = self.grid.cell_center(j);
            wx += w * c.x;
            wy += w * c.y;
            wsum += w;
        }
        let point = if wsum > 0.0 {
            Point::new(wx / wsum, wy / wsum)
        } else {
            // Degenerate image (no attenuation anywhere): report the brightest
            // voxel center.
            self.grid.cell_center(best)
        };
        Ok(RtiFix { cell: best, point, image })
    }

    /// Multi-target localization: extracts up to `max_targets` well-separated
    /// peaks from the attenuation image (greedy non-maximum suppression with a
    /// minimum peak separation of `min_separation_m`).
    ///
    /// Because RTI is an imaging method, several simultaneous bodies appear as
    /// several bright regions — something a single-target fingerprint matcher
    /// cannot represent. Peaks weaker than 30 % of the strongest are dropped
    /// (they are usually regularization ripple, not a body). Returns the
    /// estimated positions, strongest first.
    pub fn localize_multi(
        &self,
        empty_rss: &[f64],
        y: &[f64],
        max_targets: usize,
        min_separation_m: f64,
    ) -> Result<Vec<Point>> {
        if max_targets == 0 || !(min_separation_m > 0.0) {
            return Err(TaflocError::InvalidConfig {
                field: "localize_multi",
                reason: "need max_targets >= 1 and a positive separation".into(),
            });
        }
        let fix = self.localize(empty_rss, y)?;
        let image = fix.image;
        let mut order: Vec<usize> = (0..image.len()).collect();
        order.sort_by(|&a, &b| image[b].partial_cmp(&image[a]).expect("finite image"));
        let peak_floor = image[order[0]] * 0.3;

        let mut peaks: Vec<Point> = Vec::new();
        for &j in &order {
            if peaks.len() >= max_targets || image[j] <= peak_floor.max(0.0) {
                break;
            }
            let c = self.grid.cell_center(j);
            if peaks.iter().all(|p| p.distance(&c) >= min_separation_m) {
                peaks.push(c);
            }
        }
        Ok(peaks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_rfsim::{campaign, World, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig::paper_default(), 21)
    }

    fn rti_for(world: &World) -> Rti {
        let links: Vec<Segment> = world.deployment().links().iter().map(|l| l.segment).collect();
        Rti::new(&links, world.grid(), RtiConfig::default()).unwrap()
    }

    #[test]
    fn weight_matrix_shape_and_support() {
        let w = world();
        let rti = rti_for(&w);
        assert_eq!(rti.weights().shape(), (10, 96));
        // Every link covers at least one voxel; no weight is negative.
        for i in 0..10 {
            let row_sum: f64 = rti.weights().row(i).iter().sum();
            assert!(row_sum > 0.0, "link {i} covers no voxels");
        }
        assert!(rti.weights().iter().all(|v| v >= 0.0));
    }

    #[test]
    fn localizes_los_blocking_target() {
        let w = world();
        let rti = rti_for(&w);
        let empty = campaign::empty_snapshot(&w, 0.0, 100);
        // Pick a cell near the center of the area — crossed by several links.
        let center_cell = {
            let c = Point::new(
                w.grid().origin().x + w.grid().width() / 2.0,
                w.grid().origin().y + w.grid().height() / 2.0,
            );
            w.grid().cell_at(&c).unwrap()
        };
        let y = campaign::snapshot_at_cell(&w, 0.0, center_cell, 100);
        let fix = rti.localize(&empty, &y).unwrap();
        let err = fix.point.distance(&w.grid().cell_center(center_cell));
        assert!(err < 1.5, "RTI error at a well-covered cell: {err:.2} m");
    }

    #[test]
    fn image_peaks_near_target_on_average() {
        let w = world();
        let rti = rti_for(&w);
        let empty = campaign::empty_snapshot(&w, 0.0, 100);
        let mut errors = Vec::new();
        for cell in (0..w.num_cells()).step_by(7) {
            let y = campaign::snapshot_at_cell(&w, 0.0, cell, 100);
            let fix = rti.localize(&empty, &y).unwrap();
            errors.push(fix.point.distance(&w.grid().cell_center(cell)));
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // 10 links over 96 cells is a sparse tomographic net; ~2-3 m mean error
        // (with sub-2 m medians) is the expected regime for RTI here.
        assert!(mean < 3.0, "RTI mean error {mean:.2} m too large for a 10-link net");
    }

    #[test]
    fn immune_to_drift() {
        // RTI uses only same-day empty vs live RSS, so drifting the world between
        // day 0 and day 90 must not degrade it (unlike fingerprint systems).
        let w = world();
        let rti = rti_for(&w);
        let err_at = |t: f64| {
            let empty = campaign::empty_snapshot(&w, t, 100);
            let mut errors = Vec::new();
            for cell in (0..w.num_cells()).step_by(11) {
                let y = campaign::snapshot_at_cell(&w, t, cell, 100);
                let fix = rti.localize(&empty, &y).unwrap();
                errors.push(fix.point.distance(&w.grid().cell_center(cell)));
            }
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        let e0 = err_at(0.0);
        let e90 = err_at(90.0);
        assert!(
            (e90 - e0).abs() < 1.0,
            "RTI should be drift-stable: day 0 {e0:.2} m vs day 90 {e90:.2} m"
        );
    }

    #[test]
    fn no_attenuation_yields_valid_fix() {
        let w = world();
        let rti = rti_for(&w);
        let empty = campaign::empty_snapshot(&w, 0.0, 50);
        // Live == empty: no target anywhere.
        let fix = rti.localize(&empty, &empty).unwrap();
        assert!(fix.cell < w.num_cells());
        assert!(w.grid().cell_at(&fix.point).is_some() || fix.point.x.is_finite());
    }

    #[test]
    fn localize_multi_finds_two_separated_targets() {
        let w = world();
        let rti = rti_for(&w);
        let empty = campaign::empty_snapshot(&w, 0.0, 100);
        // Two people in opposite halves of the room.
        let p1 = w.grid().cell_center(20);
        let p2 = w.grid().cell_center(76);
        assert!(p1.distance(&p2) > 3.0, "test setup: targets must be well separated");
        let y = campaign::snapshot_at_points(&w, 0.0, &[p1, p2], 100);
        let peaks = rti.localize_multi(&empty, &y, 2, 2.0).unwrap();
        assert!(!peaks.is_empty());
        // Each true target has a recovered peak within 2 m.
        for truth in [p1, p2] {
            let best = peaks.iter().map(|p| p.distance(&truth)).fold(f64::INFINITY, f64::min);
            assert!(best < 2.0, "no peak near ({:.1}, {:.1}); peaks {peaks:?}", truth.x, truth.y);
        }
    }

    #[test]
    fn localize_multi_single_target_yields_one_dominant_peak() {
        // Seed-tuned: the shadowing field must not carry a shadow deeper than
        // the single target's, or the dominant-peak assertion is meaningless.
        let w = World::new(WorldConfig::paper_default(), 22);
        let rti = rti_for(&w);
        let empty = campaign::empty_snapshot(&w, 0.0, 100);
        let p = w.grid().cell_center(40);
        let y = campaign::snapshot_at_points(&w, 0.0, &[p], 100);
        let peaks = rti.localize_multi(&empty, &y, 3, 2.0).unwrap();
        assert!(!peaks.is_empty());
        assert!(peaks[0].distance(&p) < 2.0, "dominant peak off target: {peaks:?}");
    }

    #[test]
    fn localize_multi_validates_args() {
        let w = world();
        let rti = rti_for(&w);
        let empty = campaign::empty_snapshot(&w, 0.0, 10);
        assert!(rti.localize_multi(&empty, &empty, 0, 1.0).is_err());
        assert!(rti.localize_multi(&empty, &empty, 2, 0.0).is_err());
    }

    #[test]
    fn validates_inputs() {
        let w = world();
        let links: Vec<Segment> = w.deployment().links().iter().map(|l| l.segment).collect();
        assert!(Rti::new(&[], w.grid(), RtiConfig::default()).is_err());
        let bad = RtiConfig { ellipse_width_m: 0.0, ..Default::default() };
        assert!(Rti::new(&links, w.grid(), bad).is_err());
        let bad = RtiConfig { regularization: 0.0, ..Default::default() };
        assert!(Rti::new(&links, w.grid(), bad).is_err());
        let bad = RtiConfig { top_k: 0, ..Default::default() };
        assert!(Rti::new(&links, w.grid(), bad).is_err());

        let rti = rti_for(&w);
        assert!(rti.localize(&[0.0; 3], &[0.0; 10]).is_err());
        assert!(rti.localize(&[0.0; 10], &[0.0; 3]).is_err());
    }
}
