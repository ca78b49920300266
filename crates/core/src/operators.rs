//! The continuity (`G`) and similarity (`H`) structure operators.
//!
//! Property (iii) of the poster: *"RSS measurements at neighbor locations along a
//! particular link are continuous, and measurements at a specific location from
//! adjacent links are similar."* We encode both as graphs:
//!
//! * the **location graph** connects spatially adjacent cells (4-neighborhood of
//!   the floor grid) — penalizing differences of a link's RSS across an edge is
//!   the continuity term `‖X_D·G‖²_F`;
//! * the **link graph** connects each link to its `k` geometrically nearest
//!   links — penalizing differences of a cell's RSS across an edge is the
//!   similarity term `‖H·X_D‖²_F`.
//!
//! Both are exposed as neighbor lists (what the LoLi-IR inner loops consume) and
//! as a dense Laplacian (the RTI baseline's image-smoothness regularizer).

use taf_linalg::Matrix;
use taf_rfsim::deployment::Deployment;
use taf_rfsim::geometry::Segment;
use taf_rfsim::grid::FloorGrid;

/// An undirected neighborhood graph over `n` vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborGraph {
    /// `neighbors[v]` = sorted, deduplicated adjacency list of vertex `v`.
    neighbors: Vec<Vec<usize>>,
}

impl NeighborGraph {
    /// Builds a graph from raw adjacency lists, symmetrizing and deduplicating.
    /// Panics if an index is out of range (graphs come from validated geometry).
    pub fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut neighbors = vec![Vec::new(); n];
        for (a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} vertices");
            if a == b {
                continue;
            }
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        for list in &mut neighbors {
            list.sort_unstable();
            list.dedup();
        }
        NeighborGraph { neighbors }
    }

    /// The location graph: cells adjacent in the floor grid (4-neighborhood).
    pub fn locations(grid: &FloorGrid) -> Self {
        let n = grid.num_cells();
        let mut edges = Vec::new();
        for v in 0..n {
            for u in grid.neighbors4(v) {
                if u > v {
                    edges.push((v, u));
                }
            }
        }
        NeighborGraph::new(n, edges)
    }

    /// The link graph: each link connected to its `k` nearest links (by midpoint
    /// distance).
    pub fn links(deployment: &Deployment, k: usize) -> Self {
        let m = deployment.num_links();
        let mut edges = Vec::new();
        for i in 0..m {
            for j in deployment.adjacent_links(i, k) {
                edges.push((i, j));
            }
        }
        NeighborGraph::new(m, edges)
    }

    /// Link graph built from bare segments (for databases without a full
    /// [`Deployment`]): connects each link to its `k` nearest by midpoint.
    pub fn links_from_segments(segments: &[Segment], k: usize) -> Self {
        let m = segments.len();
        let mids: Vec<_> = segments.iter().map(|s| s.midpoint()).collect();
        let mut edges = Vec::new();
        for i in 0..m {
            let mut others: Vec<(usize, f64)> =
                (0..m).filter(|&j| j != i).map(|j| (j, mids[i].distance(&mids[j]))).collect();
            others.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
            for &(j, _) in others.iter().take(k) {
                edges.push((i, j));
            }
        }
        NeighborGraph::new(m, edges)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Adjacency list of vertex `v`. Panics when out of range.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[v]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors[v].len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// Dense graph Laplacian `L = D − A`: `xᵀ·L·x = Σ_edges (x_u − x_v)²`.
    pub fn laplacian(&self) -> Matrix {
        let n = self.len();
        let mut l = Matrix::zeros(n, n);
        for v in 0..n {
            l[(v, v)] = self.degree(v) as f64;
            for &u in &self.neighbors[v] {
                l[(v, u)] = -1.0;
            }
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_rfsim::geometry::Point;

    fn grid() -> FloorGrid {
        FloorGrid::new(Point::new(0.0, 0.0), 1.0, 3, 2)
    }

    #[test]
    fn location_graph_structure() {
        let g = NeighborGraph::locations(&grid());
        assert_eq!(g.len(), 6);
        // 3x2 grid: horizontal edges 2 per row x 2 rows = 4, vertical 3 -> 7.
        assert_eq!(g.num_edges(), 7);
        // Corner cell 0 has 2 neighbors: 1 (right) and 3 (up).
        assert_eq!(g.neighbors(0), &[1, 3]);
    }

    #[test]
    fn link_graph_from_deployment() {
        let d = Deployment::perimeter(&grid(), 6, 0.3);
        let g = NeighborGraph::links(&d, 2);
        assert_eq!(g.len(), 6);
        for v in 0..6 {
            assert!(g.degree(v) >= 2, "every link has at least its own 2 nearest");
            assert!(!g.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn links_from_segments_matches_deployment_graph() {
        let d = Deployment::perimeter(&grid(), 6, 0.3);
        let segs: Vec<Segment> = d.links().iter().map(|l| l.segment).collect();
        let a = NeighborGraph::links(&d, 2);
        let b = NeighborGraph::links_from_segments(&segs, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn new_symmetrizes_and_dedups() {
        let g = NeighborGraph::new(3, vec![(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = NeighborGraph::locations(&grid());
        let l = g.laplacian();
        for i in 0..l.rows() {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_is_degree_minus_adjacency() {
        let g = NeighborGraph::new(4, vec![(0, 1), (1, 2), (1, 3)]);
        let l = g.laplacian();
        assert!(l.approx_eq(&l.transpose(), 0.0));
        for v in 0..4 {
            assert_eq!(l[(v, v)], g.degree(v) as f64);
            for u in (0..4).filter(|&u| u != v) {
                let want = if g.neighbors(v).contains(&u) { -1.0 } else { 0.0 };
                assert_eq!(l[(v, u)], want, "({v},{u})");
            }
        }
    }

    #[test]
    fn links_from_segments_k_bounds_the_degree() {
        let d = Deployment::perimeter(&grid(), 6, 0.3);
        let segs: Vec<Segment> = d.links().iter().map(|l| l.segment).collect();
        assert_eq!(NeighborGraph::links_from_segments(&segs, 0).num_edges(), 0);
        // k beyond the other links connects everything: the complete graph.
        let all = NeighborGraph::links_from_segments(&segs, 10);
        assert_eq!(all.num_edges(), 6 * 5 / 2);
        assert!(NeighborGraph::links_from_segments(&[], 3).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        NeighborGraph::new(2, vec![(0, 5)]);
    }
}
