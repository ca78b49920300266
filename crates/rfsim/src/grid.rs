//! The monitored area's location grid.
//!
//! TafLoc divides the monitored region into `N` square cells ("location grids" in
//! the paper): the fingerprint matrix has one column per cell, and localization
//! reports a cell index (or its center point).

use crate::geometry::Point;
use taf_wire::{Codec, Dec, Enc, JsonReader, JsonWriter, Result, WireError};

/// A rectangular monitored region partitioned into square cells.
///
/// The region's lower-left corner sits at `origin`; there are `nx` cells across
/// (x-direction) and `ny` cells up (y-direction), each `cell_size` meters on a
/// side. Cells are indexed row-major: `index = iy * nx + ix`.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorGrid {
    origin: Point,
    cell_size: f64,
    nx: usize,
    ny: usize,
}

impl FloorGrid {
    /// Creates a grid. Panics if `cell_size <= 0` or either cell count is zero —
    /// these are programming errors, not runtime conditions.
    pub fn new(origin: Point, cell_size: f64, nx: usize, ny: usize) -> Self {
        assert!(cell_size > 0.0, "cell_size must be positive");
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        FloorGrid { origin, cell_size, nx, ny }
    }

    /// The paper's monitored area: 96 cells of 0.6 m x 0.6 m (8 x 12), matching
    /// "96 grids with each grid of 0.6m x 0.6m" inside the 9 m x 12 m room.
    /// The region is centered in the room.
    pub fn paper_default() -> Self {
        let (nx, ny) = (8, 12);
        let cell = 0.6;
        let (room_w, room_h) = (9.0, 12.0);
        let origin =
            Point::new((room_w - nx as f64 * cell) / 2.0, (room_h - ny as f64 * cell) / 2.0);
        FloorGrid::new(origin, cell, nx, ny)
    }

    /// Total number of cells `N = nx * ny`.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Cells across (x-direction).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells up (y-direction).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell edge length in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Lower-left corner of the monitored region.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Width of the monitored region in meters.
    pub fn width(&self) -> f64 {
        self.nx as f64 * self.cell_size
    }

    /// Height of the monitored region in meters.
    pub fn height(&self) -> f64 {
        self.ny as f64 * self.cell_size
    }

    /// Center point of cell `idx`. Panics when `idx >= num_cells()`.
    pub fn cell_center(&self, idx: usize) -> Point {
        assert!(idx < self.num_cells(), "cell index {idx} out of bounds ({})", self.num_cells());
        let ix = idx % self.nx;
        let iy = idx / self.nx;
        Point::new(
            self.origin.x + (ix as f64 + 0.5) * self.cell_size,
            self.origin.y + (iy as f64 + 0.5) * self.cell_size,
        )
    }

    /// Index of the cell containing `p`, or `None` when `p` is outside the region.
    pub fn cell_at(&self, p: &Point) -> Option<usize> {
        let fx = (p.x - self.origin.x) / self.cell_size;
        let fy = (p.y - self.origin.y) / self.cell_size;
        if fx < 0.0 || fy < 0.0 {
            return None;
        }
        let ix = fx as usize;
        let iy = fy as usize;
        if ix >= self.nx || iy >= self.ny {
            return None;
        }
        Some(iy * self.nx + ix)
    }

    /// 4-neighborhood (up/down/left/right) of cell `idx`, staying inside the grid.
    pub fn neighbors4(&self, idx: usize) -> Vec<usize> {
        assert!(idx < self.num_cells(), "cell index out of bounds");
        let ix = idx % self.nx;
        let iy = idx / self.nx;
        let mut out = Vec::with_capacity(4);
        if ix > 0 {
            out.push(idx - 1);
        }
        if ix + 1 < self.nx {
            out.push(idx + 1);
        }
        if iy > 0 {
            out.push(idx - self.nx);
        }
        if iy + 1 < self.ny {
            out.push(idx + self.nx);
        }
        out
    }

    /// Distance between the centers of two cells.
    pub fn cell_distance(&self, a: usize, b: usize) -> f64 {
        self.cell_center(a).distance(&self.cell_center(b))
    }

    /// Iterator over all cell center points, in index order.
    pub fn centers(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.num_cells()).map(|i| self.cell_center(i))
    }
}

/// `FloorGrid::new` treats a bad shape as a programming error and panics; a
/// decoder must reject it as a data error first. That includes a cell count
/// `nx * ny` that overflows `usize`, which [`FloorGrid::num_cells`] would wrap.
fn checked_grid(origin: Point, cell_size: f64, nx: usize, ny: usize) -> Result<FloorGrid> {
    if !(cell_size > 0.0 && cell_size.is_finite()) || matches!(nx.checked_mul(ny), None | Some(0)) {
        return Err(WireError::Malformed(format!(
            "invalid grid: cell_size {cell_size}, {nx}x{ny} cells"
        )));
    }
    Ok(FloorGrid::new(origin, cell_size, nx, ny))
}

/// Private fields: `origin`, `cell_size`, `nx`, `ny`, shape-checked.
impl Codec for FloorGrid {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.field("origin", &self.origin);
        w.field("cell_size", &self.cell_size);
        w.field("nx", &self.nx);
        w.field("ny", &self.ny);
        w.end_obj();
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        let (origin, cell_size, nx, ny) = taf_wire::schema!(
            @object r, "FloorGrid", { origin: Point, cell_size: f64, nx: usize, ny: usize }
        );
        checked_grid(origin, cell_size, nx, ny)
    }
    fn encode(&self, e: &mut Enc) {
        self.origin.encode(e);
        e.f64(self.cell_size);
        e.usize(self.nx);
        e.usize(self.ny);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        checked_grid(Point::decode(d)?, d.f64()?, d.usize()?, d.usize()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> FloorGrid {
        FloorGrid::new(Point::new(1.0, 2.0), 0.5, 4, 3)
    }

    #[test]
    fn counts_and_dimensions() {
        let g = grid();
        assert_eq!(g.num_cells(), 12);
        assert_eq!((g.nx(), g.ny()), (4, 3));
        assert_eq!(g.width(), 2.0);
        assert_eq!(g.height(), 1.5);
        assert_eq!(g.cell_size(), 0.5);
    }

    #[test]
    fn paper_default_matches_paper() {
        let g = FloorGrid::paper_default();
        assert_eq!(g.num_cells(), 96);
        assert_eq!(g.cell_size(), 0.6);
        // Monitored region must fit inside the 9 x 12 room.
        assert!(g.origin().x >= 0.0 && g.origin().y >= 0.0);
        assert!(g.origin().x + g.width() <= 9.0);
        assert!(g.origin().y + g.height() <= 12.0);
    }

    #[test]
    fn cell_center_round_trips_through_cell_at() {
        let g = grid();
        for idx in 0..g.num_cells() {
            let c = g.cell_center(idx);
            assert_eq!(g.cell_at(&c), Some(idx));
        }
    }

    #[test]
    fn cell_at_outside_region() {
        let g = grid();
        assert_eq!(g.cell_at(&Point::new(0.0, 0.0)), None);
        assert_eq!(g.cell_at(&Point::new(10.0, 2.1)), None);
        assert_eq!(g.cell_at(&Point::new(1.1, 10.0)), None);
        assert_eq!(g.cell_at(&Point::new(0.9, 2.1)), None);
    }

    #[test]
    fn cells_are_half_open() {
        let g = grid();
        let o = g.origin();
        assert_eq!(g.cell_at(&o), Some(0), "the origin corner belongs to cell 0");
        // A shared edge belongs to the cell above / to the right of it.
        assert_eq!(g.cell_at(&Point::new(o.x + g.cell_size(), o.y)), Some(1));
        assert_eq!(g.cell_at(&Point::new(o.x, o.y + g.cell_size())), Some(g.nx()));
        // The far edges are outside.
        assert_eq!(g.cell_at(&Point::new(o.x + g.width(), o.y)), None);
        assert_eq!(g.cell_at(&Point::new(o.x, o.y + g.height())), None);
    }

    #[test]
    fn first_cell_center() {
        let g = grid();
        let c = g.cell_center(0);
        assert!((c.x - 1.25).abs() < 1e-12);
        assert!((c.y - 2.25).abs() < 1e-12);
    }

    #[test]
    fn neighbors_of_corner_edge_interior() {
        let g = grid(); // 4 wide, 3 tall
        let corner = g.neighbors4(0);
        assert_eq!(corner.len(), 2);
        assert!(corner.contains(&1) && corner.contains(&4));
        let edge = g.neighbors4(1);
        assert_eq!(edge.len(), 3);
        let interior = g.neighbors4(5);
        assert_eq!(interior.len(), 4);
        assert!(interior.contains(&4) && interior.contains(&6));
        assert!(interior.contains(&1) && interior.contains(&9));
    }

    #[test]
    fn cell_distance_symmetric() {
        let g = grid();
        assert_eq!(g.cell_distance(0, 1), g.cell_distance(1, 0));
        assert!((g.cell_distance(0, 1) - 0.5).abs() < 1e-12);
        assert!((g.cell_distance(0, 4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn centers_iterator_covers_all() {
        let g = grid();
        assert_eq!(g.centers().count(), 12);
    }

    #[test]
    #[should_panic]
    fn bad_cell_index_panics() {
        grid().cell_center(99);
    }

    #[test]
    #[should_panic]
    fn zero_cell_size_panics() {
        FloorGrid::new(Point::new(0.0, 0.0), 0.0, 2, 2);
    }
}
