//! The fingerprint database: the `M x N` RSS matrix plus the geometry that gives
//! its rows (links) and columns (location cells) meaning.

use crate::error::TaflocError;
use crate::Result;
use taf_linalg::Matrix;
use taf_rfsim::geometry::Segment;
use taf_rfsim::grid::FloorGrid;
use taf_wire::schema::{encode_seq, write_seq};
use taf_wire::{Codec, Dec, Enc, JsonReader, JsonWriter, WireError};

/// A fingerprint database.
///
/// Row `i` holds the RSS of link `i` over every location cell; column `j` holds
/// the RSS of every link when the target stands in cell `j` — exactly Fig. 1 of
/// the paper. The struct also carries the link segments and the floor grid so the
/// continuity/similarity operators and localization can reason geometrically.
#[derive(Debug, Clone)]
pub struct FingerprintDb {
    rss: Matrix,
    links: Vec<Segment>,
    grid: FloorGrid,
}

impl FingerprintDb {
    /// Creates a database, validating that the matrix shape matches the geometry
    /// (`rows == links.len()`, `cols == grid.num_cells()`).
    pub fn new(rss: Matrix, links: Vec<Segment>, grid: FloorGrid) -> Result<Self> {
        if rss.rows() != links.len() || rss.cols() != grid.num_cells() {
            return Err(TaflocError::DimensionMismatch {
                op: "FingerprintDb::new",
                expected: (links.len(), grid.num_cells()),
                actual: rss.shape(),
            });
        }
        if rss.has_non_finite() {
            return Err(TaflocError::InvalidConfig {
                field: "rss",
                reason: "fingerprint matrix contains NaN or infinite values".into(),
            });
        }
        Ok(FingerprintDb { rss, links, grid })
    }

    /// Convenience constructor taking the geometry from a simulated world.
    pub fn from_world(rss: Matrix, world: &taf_rfsim::World) -> Result<Self> {
        let links = world.deployment().links().iter().map(|l| l.segment).collect();
        FingerprintDb::new(rss, links, world.grid().clone())
    }

    /// Number of links `M`.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of location cells `N`.
    pub fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    /// The RSS matrix.
    pub fn rss(&self) -> &Matrix {
        &self.rss
    }

    /// Link segments, in row order.
    pub fn links(&self) -> &[Segment] {
        &self.links
    }

    /// The location grid.
    pub fn grid(&self) -> &FloorGrid {
        &self.grid
    }

    /// Fingerprint column for cell `j` (the `M`-vector to match `Y` against).
    pub fn fingerprint(&self, cell: usize) -> Result<Vec<f64>> {
        if cell >= self.num_cells() {
            return Err(TaflocError::IndexOutOfBounds {
                op: "FingerprintDb::fingerprint",
                index: cell,
                bound: self.num_cells(),
            });
        }
        Ok(self.rss.col(cell))
    }

    /// Replaces the RSS matrix (after a reconstruction), keeping the geometry.
    /// Validates the new matrix the same way as [`FingerprintDb::new`].
    pub fn with_rss(&self, rss: Matrix) -> Result<Self> {
        FingerprintDb::new(rss, self.links.clone(), self.grid.clone())
    }

    /// Measures how well another matrix approximates this database: the mean
    /// absolute entry difference in dB (the paper's Fig. 3 metric).
    pub fn mean_abs_error(&self, other: &Matrix) -> Result<f64> {
        if other.shape() != self.rss.shape() {
            return Err(TaflocError::DimensionMismatch {
                op: "FingerprintDb::mean_abs_error",
                expected: self.rss.shape(),
                actual: other.shape(),
            });
        }
        Ok(self.rss.sub(other)?.map(f64::abs).mean())
    }
}

/// `rss`, `links`, `grid`, through the validating `FingerprintDb::new`. In
/// binary the RSS grid goes out as one shape-prefixed block and the links as
/// packed coordinate quads.
impl Codec for FingerprintDb {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.field("rss", &self.rss);
        w.key("links");
        write_seq(w, &self.links);
        w.field("grid", &self.grid);
        w.end_obj();
    }
    fn read_json(r: &mut JsonReader<'_>) -> taf_wire::Result<Self> {
        let (rss, links, grid) = taf_wire::schema!(
            @object r, "FingerprintDb", { rss: Matrix, links: Vec<Segment>, grid: FloorGrid }
        );
        FingerprintDb::new(rss, links, grid)
            .map_err(|e| WireError::Malformed(format!("FingerprintDb: {e}")))
    }
    fn encode(&self, e: &mut Enc) {
        self.rss.encode(e);
        encode_seq(&self.links, e);
        self.grid.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> taf_wire::Result<Self> {
        FingerprintDb::new(Matrix::decode(d)?, Vec::decode(d)?, FloorGrid::decode(d)?)
            .map_err(|e| WireError::Malformed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_rfsim::geometry::Point;

    fn grid() -> FloorGrid {
        FloorGrid::new(Point::new(0.0, 0.0), 1.0, 2, 3)
    }

    fn links(m: usize) -> Vec<Segment> {
        (0..m)
            .map(|i| Segment::new(Point::new(-1.0, i as f64), Point::new(3.0, i as f64)))
            .collect()
    }

    fn db() -> FingerprintDb {
        let rss = Matrix::from_fn(4, 6, |i, j| -(40.0 + i as f64 + j as f64));
        FingerprintDb::new(rss, links(4), grid()).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let rss = Matrix::zeros(3, 6);
        assert!(matches!(
            FingerprintDb::new(rss, links(4), grid()),
            Err(TaflocError::DimensionMismatch { .. })
        ));
        let rss = Matrix::zeros(4, 5);
        assert!(FingerprintDb::new(rss, links(4), grid()).is_err());
    }

    #[test]
    fn construction_rejects_non_finite() {
        let mut rss = Matrix::zeros(4, 6);
        rss[(0, 0)] = f64::NAN;
        assert!(matches!(
            FingerprintDb::new(rss, links(4), grid()),
            Err(TaflocError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn accessors() {
        let d = db();
        assert_eq!(d.num_links(), 4);
        assert_eq!(d.num_cells(), 6);
        assert_eq!(d.links().len(), 4);
        assert_eq!(d.grid().num_cells(), 6);
    }

    #[test]
    fn fingerprint_column() {
        let d = db();
        let f = d.fingerprint(2).unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0], -(40.0 + 2.0));
        assert!(d.fingerprint(6).is_err());
    }

    #[test]
    fn with_rss_swaps_matrix() {
        let d = db();
        let new = Matrix::filled(4, 6, -50.0);
        let d2 = d.with_rss(new).unwrap();
        assert_eq!(d2.rss()[(0, 0)], -50.0);
        assert_eq!(d2.num_links(), 4);
        assert!(d.with_rss(Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn mean_abs_error_computation() {
        let d = db();
        let shifted = d.rss().map(|v| v + 2.0);
        assert!((d.mean_abs_error(&shifted).unwrap() - 2.0).abs() < 1e-12);
        assert!(d.mean_abs_error(&Matrix::zeros(1, 1)).is_err());
        assert_eq!(d.mean_abs_error(d.rss()).unwrap(), 0.0);
    }

    #[test]
    fn from_world_wires_geometry() {
        let w = taf_rfsim::World::new(taf_rfsim::WorldConfig::small_test(), 1);
        let rss = w.fingerprint_truth(0.0);
        let d = FingerprintDb::from_world(rss, &w).unwrap();
        assert_eq!(d.num_links(), w.num_links());
        assert_eq!(d.num_cells(), w.num_cells());
    }
}
