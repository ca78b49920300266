//! Allocation contract for LoLi-IR solves on a reused workspace.
//!
//! A counting global allocator measures whole solves on a warmed
//! [`SolverWorkspace`]. The iteration loop must not allocate, so a run with
//! 50 iterations must allocate exactly as often as a run with 5. Nor may the
//! set-up that indexes the graphs (edge sets, incidence lists, colouring):
//! a solve allocates only for its SVD seed, its diagnostics and the outputs
//! it publishes, so a solve on a denser graph allocates as often as one on a
//! sparse graph.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taf_linalg::Matrix;
use tafloc_core::loli_ir::{
    reconstruct_with, LoliIrConfig, ReconstructionProblem, SolverWorkspace,
};
use tafloc_core::mask::Mask;
use tafloc_core::operators::NeighborGraph;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread: the tests run on parallel threads,
    /// and each counts only its own solves.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn iterations_allocate_nothing_on_a_warm_workspace() {
    let truth = Matrix::from_fn(6, 12, |i, j| {
        -50.0
            - 3.0 * (0.4 * i as f64 + 0.2 * j as f64).sin()
            - 2.0 * (0.3 * j as f64 - 0.5 * i as f64).cos()
    });
    let prior = truth.map(|v| v + 0.8 * (v * 17.0).sin());
    let mask = Mask::from_columns(6, 12, &[1, 5, 9]).unwrap();
    let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
    let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));
    let plain = ReconstructionProblem {
        observed: &truth,
        mask: &mask,
        lrr_prior: Some(&prior),
        location_graph: Some(&g),
        link_graph: Some(&h),
        empty_rss: None,
        distortion: None,
    };
    // Mostly partial edges with baseline offsets, whose per-edge sums live
    // in the workspace too.
    let distortion = common::partial_distortion(6, 12);
    let empty = common::empty_rss(6);
    let partial =
        ReconstructionProblem { empty_rss: Some(&empty), distortion: Some(&distortion), ..plain };
    // tol = 0 forces exactly max_iters iterations, so the two configs differ
    // only in how many times the iteration loop body runs.
    let short = LoliIrConfig { max_iters: 5, tol: 0.0, ..Default::default() };
    let long = LoliIrConfig { max_iters: 50, tol: 0.0, ..Default::default() };

    for problem in [plain, partial] {
        // Warm the workspace at the larger trace capacity.
        let mut ws = SolverWorkspace::new();
        reconstruct_with(&problem, &long, &mut ws).unwrap();
        reconstruct_with(&problem, &short, &mut ws).unwrap();

        let short_allocs = count_allocations(|| {
            reconstruct_with(&problem, &short, &mut ws).unwrap();
        });
        let long_allocs = count_allocations(|| {
            reconstruct_with(&problem, &long, &mut ws).unwrap();
        });
        assert_eq!(
            short_allocs,
            long_allocs,
            "iteration loop allocated: 45 extra iterations cost {} allocations",
            long_allocs.saturating_sub(short_allocs)
        );
        // Sanity: the counter is actually live (setup does allocate).
        assert!(short_allocs > 0, "counting allocator not engaged");
    }
}

#[test]
fn set_up_allocates_the_same_at_two_graph_sizes() {
    let (m, n) = (12, 40);
    let truth = Matrix::from_fn(m, n, |i, j| {
        -50.0 - 3.0 * (0.4 * i as f64 + 0.2 * j as f64).sin() - 2.0 * (0.3 * j as f64).cos()
    });
    let prior = truth.map(|v| v + 0.8 * (v * 17.0).sin());
    let refs: Vec<usize> = (0..n).step_by(4).collect();
    let mask = Mask::from_columns(m, n, &refs).unwrap();
    let distortion = common::partial_distortion(m, n);
    let empty = common::empty_rss(m);
    // Chains, against a 5 x 8 grid with diagonals and links joined to the
    // next three: about three times the edges, and vertex degrees up to 8.
    let sparse = (
        NeighborGraph::new(n, (0..n - 1).map(|j| (j, j + 1))),
        NeighborGraph::new(m, (0..m - 1).map(|i| (i, i + 1))),
    );
    let grid = |j: usize| (j / 8, j % 8);
    let dense = (
        NeighborGraph::new(
            n,
            (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|&(a, b)| {
                let ((ya, xa), (yb, xb)) = (grid(a), grid(b));
                ya.abs_diff(yb) <= 1 && xa.abs_diff(xb) <= 1
            }),
        ),
        NeighborGraph::new(m, (0..m).flat_map(|i| (i + 1..m.min(i + 4)).map(move |k| (i, k)))),
    );
    assert!(dense.0.num_edges() > 3 * sparse.0.num_edges());
    let small = ReconstructionProblem {
        observed: &truth,
        mask: &mask,
        lrr_prior: Some(&prior),
        location_graph: Some(&sparse.0),
        link_graph: Some(&sparse.1),
        empty_rss: Some(&empty),
        distortion: Some(&distortion),
    };
    let large = ReconstructionProblem {
        location_graph: Some(&dense.0),
        link_graph: Some(&dense.1),
        ..small
    };
    let cfg = LoliIrConfig { max_iters: 5, tol: 0.0, ..Default::default() };

    let mut ws = SolverWorkspace::new();
    for p in [&large, &small] {
        reconstruct_with(p, &cfg, &mut ws).unwrap();
    }
    let small_allocs = count_allocations(|| {
        reconstruct_with(&small, &cfg, &mut ws).unwrap();
    });
    let large_allocs = count_allocations(|| {
        reconstruct_with(&large, &cfg, &mut ws).unwrap();
    });
    assert_eq!(
        small_allocs, large_allocs,
        "set-up allocates per graph element: {small_allocs} allocations on the sparse graphs, \
         {large_allocs} on the dense ones"
    );
}
