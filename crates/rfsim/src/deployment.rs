//! Transceiver placement and link enumeration.
//!
//! The paper deploys `M` links around the monitored area (Fig. 2 shows WiFi
//! transceivers along the room's sides). Two builders are provided:
//!
//! * [`Deployment::perimeter`] — nodes evenly spaced around the (slightly
//!   expanded) region boundary, each link connecting diametrically opposite
//!   nodes. Links cross the region at varied angles, which is what both the
//!   fingerprint model and the RTI baseline need. This is the paper-default.
//! * [`Deployment::two_sided`] — transmitters on the left edge, receivers on the
//!   right, half the links parallel and half crossing; matches the poster's
//!   "deploy M links on the two sides of the monitoring area" description.

use crate::geometry::{Point, Segment};
use crate::grid::FloorGrid;

/// A directed radio link between two deployed nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Index of the transmitting node in the deployment's node list.
    pub tx: usize,
    /// Index of the receiving node.
    pub rx: usize,
    /// The link's line-of-sight segment.
    pub segment: Segment,
}

/// A set of deployed transceiver nodes and the links between them.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    nodes: Vec<Point>,
    links: Vec<Link>,
}

impl Deployment {
    /// Builds a deployment from explicit nodes and `(tx, rx)` index pairs.
    ///
    /// Panics if an index is out of range — deployments are constructed from
    /// static configuration, so this is a programming error.
    pub fn new(nodes: Vec<Point>, pairs: &[(usize, usize)]) -> Self {
        let links = pairs
            .iter()
            .map(|&(tx, rx)| {
                assert!(tx < nodes.len() && rx < nodes.len(), "link index out of range");
                Link { tx, rx, segment: Segment::new(nodes[tx], nodes[rx]) }
            })
            .collect();
        Deployment { nodes, links }
    }

    /// Places `2 * num_links` nodes evenly around the region boundary (expanded
    /// outward by `margin` meters) and links each node to the diametrically
    /// opposite one, yielding `num_links` crisscrossing links.
    pub fn perimeter(grid: &FloorGrid, num_links: usize, margin: f64) -> Self {
        assert!(num_links >= 1, "need at least one link");
        let o = grid.origin();
        let (x0, y0) = (o.x - margin, o.y - margin);
        let (w, h) = (grid.width() + 2.0 * margin, grid.height() + 2.0 * margin);
        let perimeter_len = 2.0 * (w + h);
        let n_nodes = 2 * num_links;
        let nodes: Vec<Point> = (0..n_nodes)
            .map(|k| {
                let s = (k as f64 + 0.5) * perimeter_len / n_nodes as f64;
                point_on_rect(x0, y0, w, h, s)
            })
            .collect();
        let pairs: Vec<(usize, usize)> = (0..num_links).map(|i| (i, i + num_links)).collect();
        Deployment::new(nodes, &pairs)
    }

    /// Transmitters on the left edge, receivers on the right; even-indexed links
    /// run straight across, odd-indexed links cross to the mirrored height.
    pub fn two_sided(grid: &FloorGrid, num_links: usize, margin: f64) -> Self {
        assert!(num_links >= 1, "need at least one link");
        let o = grid.origin();
        let left_x = o.x - margin;
        let right_x = o.x + grid.width() + margin;
        let mut nodes = Vec::with_capacity(2 * num_links);
        for i in 0..num_links {
            let y = o.y + (i as f64 + 0.5) * grid.height() / num_links as f64;
            nodes.push(Point::new(left_x, y));
        }
        for i in 0..num_links {
            let y = o.y + (i as f64 + 0.5) * grid.height() / num_links as f64;
            nodes.push(Point::new(right_x, y));
        }
        let pairs: Vec<(usize, usize)> = (0..num_links)
            .map(|i| {
                let rx = if i % 2 == 0 { num_links + i } else { num_links + (num_links - 1 - i) };
                (i, rx)
            })
            .collect();
        Deployment::new(nodes, &pairs)
    }

    /// Number of links `M`.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of deployed nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow link `i`. Panics when out of range.
    pub fn link(&self, i: usize) -> &Link {
        &self.links[i]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All node positions.
    pub fn nodes(&self) -> &[Point] {
        &self.nodes
    }

    /// Indices of the `k` links whose midpoints are nearest to link `i`'s midpoint
    /// (excluding `i` itself), nearest first. This defines "adjacent links" for the
    /// similarity operator `H`.
    pub fn adjacent_links(&self, i: usize, k: usize) -> Vec<usize> {
        assert!(i < self.links.len(), "link index out of range");
        let mi = self.links[i].segment.midpoint();
        let mut others: Vec<(usize, f64)> = self
            .links
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, l)| (j, l.segment.midpoint().distance(&mi)))
            .collect();
        others.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
        others.into_iter().take(k).map(|(j, _)| j).collect()
    }
}

/// Point at arc-length `s` along the boundary of the axis-aligned rectangle with
/// lower-left `(x0, y0)`, width `w`, height `h`, walking counterclockwise from the
/// lower-left corner.
fn point_on_rect(x0: f64, y0: f64, w: f64, h: f64, s: f64) -> Point {
    let s = s.rem_euclid(2.0 * (w + h));
    if s < w {
        Point::new(x0 + s, y0)
    } else if s < w + h {
        Point::new(x0 + w, y0 + (s - w))
    } else if s < 2.0 * w + h {
        Point::new(x0 + w - (s - w - h), y0 + h)
    } else {
        Point::new(x0, y0 + h - (s - 2.0 * w - h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> FloorGrid {
        FloorGrid::new(Point::new(0.0, 0.0), 0.6, 8, 12)
    }

    #[test]
    fn point_on_rect_walks_all_sides() {
        // Unit square, perimeter 4.
        let bottom = point_on_rect(0.0, 0.0, 1.0, 1.0, 0.5);
        assert_eq!((bottom.x, bottom.y), (0.5, 0.0));
        let right = point_on_rect(0.0, 0.0, 1.0, 1.0, 1.5);
        assert_eq!((right.x, right.y), (1.0, 0.5));
        let top = point_on_rect(0.0, 0.0, 1.0, 1.0, 2.5);
        assert_eq!((top.x, top.y), (0.5, 1.0));
        let left = point_on_rect(0.0, 0.0, 1.0, 1.0, 3.5);
        assert_eq!((left.x, left.y), (0.0, 0.5));
        // Wraps around.
        let wrapped = point_on_rect(0.0, 0.0, 1.0, 1.0, 4.5);
        assert_eq!((wrapped.x, wrapped.y), (0.5, 0.0));
    }

    #[test]
    fn perimeter_counts() {
        let d = Deployment::perimeter(&grid(), 10, 0.3);
        assert_eq!(d.num_links(), 10);
        assert_eq!(d.num_nodes(), 20);
    }

    #[test]
    fn perimeter_links_cross_region() {
        let g = grid();
        let d = Deployment::perimeter(&g, 10, 0.3);
        let center = Point::new(g.origin().x + g.width() / 2.0, g.origin().y + g.height() / 2.0);
        // Diametric links pass near the center; all must come within half the
        // region diagonal.
        let diag = (g.width().powi(2) + g.height().powi(2)).sqrt();
        for l in d.links() {
            assert!(l.segment.distance_to_point(&center) < diag / 2.0);
            assert!(l.segment.length() > 0.0);
        }
    }

    #[test]
    fn perimeter_nodes_outside_region() {
        let g = grid();
        let d = Deployment::perimeter(&g, 8, 0.3);
        for n in d.nodes() {
            // Every node sits on the expanded boundary, i.e. outside the grid.
            assert!(g.cell_at(n).is_none());
        }
    }

    #[test]
    fn two_sided_structure() {
        let g = grid();
        let d = Deployment::two_sided(&g, 6, 0.3);
        assert_eq!(d.num_links(), 6);
        assert_eq!(d.num_nodes(), 12);
        // Even links are horizontal (same y at both ends).
        let l0 = d.link(0);
        assert!((l0.segment.a.y - l0.segment.b.y).abs() < 1e-12);
        // Odd links cross (different y).
        let l1 = d.link(1);
        assert!((l1.segment.a.y - l1.segment.b.y).abs() > 1e-6);
        // All transmitters left of all receivers.
        for l in d.links() {
            assert!(l.segment.a.x < l.segment.b.x);
        }
    }

    #[test]
    fn adjacent_links_sorted_and_excludes_self() {
        let d = Deployment::perimeter(&grid(), 10, 0.3);
        let adj = d.adjacent_links(3, 4);
        assert_eq!(adj.len(), 4);
        assert!(!adj.contains(&3));
        let m3 = d.link(3).segment.midpoint();
        let d0 = d.link(adj[0]).segment.midpoint().distance(&m3);
        let d3 = d.link(adj[3]).segment.midpoint().distance(&m3);
        assert!(d0 <= d3);
    }

    #[test]
    fn adjacent_links_clamps_k() {
        let d = Deployment::perimeter(&grid(), 4, 0.3);
        assert_eq!(d.adjacent_links(0, 100).len(), 3);
    }

    #[test]
    #[should_panic]
    fn bad_pair_index_panics() {
        Deployment::new(vec![Point::new(0.0, 0.0)], &[(0, 5)]);
    }
}
