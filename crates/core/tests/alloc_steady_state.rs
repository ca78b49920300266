//! Zero-allocation contract for steady-state LoLi-IR iterations.
//!
//! A counting global allocator measures whole solves on a warmed
//! [`SolverWorkspace`]. Per-call setup (edge sets, coloring, SVD init) is
//! allowed to allocate, but the iteration loop itself must not — so a run with
//! 50 iterations must allocate exactly as often as a run with 5.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use taf_linalg::Matrix;
use tafloc_core::loli_ir::{
    reconstruct_with, LoliIrConfig, ReconstructionProblem, SolverWorkspace,
};
use tafloc_core::mask::Mask;
use tafloc_core::operators::NeighborGraph;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
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
