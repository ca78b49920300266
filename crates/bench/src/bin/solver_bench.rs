//! LoLi-IR solver throughput: wall time per reconstruction at paper scale,
//! cold-started, warm-started and distortion-masked, with the numbers
//! recorded to `BENCH_solver.json`.
//!
//! The problem is a rank-8 reconstruction of M=48 links x N=400 cells with
//! an LRR prior and chain location and link graphs. Three phases, one
//! result row each:
//!
//! * **cold** — the refresh a site runs after a restart or rollback: SVD
//!   initialization, full descent to the tolerance. No distortion mask and
//!   no empty-room baselines, so every smoothness edge is fully active and
//!   enters through the solver's closed forms.
//! * **warm** — the same problem solved again after a small drift, seeded
//!   from the previous solution exactly as the daemon's `SolverCache` does
//!   it.
//! * **masked** — the cold problem with the two inputs every daemon refresh
//!   also passes: a distortion mask under which most edges are partial
//!   (restricted to some links or cells), and per-link empty-room baselines.
//!   Partial edges take the per-edge-sum path, which the first two rows
//!   never reach. Cold-started: on the refresh workload the SVD seed is
//!   the one kept.
//!
//! Each phase runs one untimed warm-up solve, then `repeats` timed solves on
//! the same workspace, and records the median, minimum and maximum. The
//! iteration budget is high enough that every phase stops on the tolerance,
//! not the cap — `converged` is part of the recorded contract.
//!
//! The run is gated against the committed `BENCH_solver.json` before it is
//! overwritten (`taf_bench::perf::record`): it exits 1 when a mode that
//! converged there stops on `max_iters`, when the cold median exceeds the
//! committed one by more than `perf::SLOWDOWN`, or when the warm refresh
//! does not take fewer iterations than the cold solve.
//!
//! `gflops` is an estimate from counted work (dense products, data terms,
//! per-block Cholesky; smoothness edges are not counted), good for comparing
//! runs of one phase, not an absolute measure.
//!
//! Usage: `cargo run --release -p taf-bench --bin solver_bench`

use std::time::Instant;
use taf_bench::perf;
use taf_linalg::stats::Ecdf;
use taf_linalg::Matrix;
use taf_testkit::json::Json;
use tafloc_core::loli_ir::{
    reconstruct_warm, LoliIrConfig, Reconstruction, ReconstructionProblem, SolverWorkspace,
    WarmState,
};
use tafloc_core::mask::Mask;
use tafloc_core::operators::NeighborGraph;

/// Deterministic pseudo-random matrix in RSS range (xorshift).
fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        -70.0 + (state % 4000) as f64 / 100.0
    })
}

/// Smooth low-amplitude drift — the change between two refreshes of one site.
fn drifted(base: &Matrix, amplitude_db: f64) -> Matrix {
    Matrix::from_fn(base.rows(), base.cols(), |i, j| {
        base[(i, j)] + amplitude_db * (i as f64 * 0.7 + j as f64 * 0.13).sin()
    })
}

/// Estimated floating-point operations for one solve (see module doc).
fn estimated_flops(m: usize, n: usize, r: usize, observed: usize, iterations: usize) -> f64 {
    let dense = 3.0 * 2.0 * (m * n * r) as f64; // prior_l, prior_r, objective
    let grams = 2.0 * 2.0 * ((m + n) * r * r) as f64; // RᵀR then LᵀL
    let data = 2.0 * 2.0 * (observed * r * r) as f64; // rank-1 lhs terms, both sweeps
    let chol = (m + n) as f64 * (2.0 * (r * r * r) as f64 / 3.0 + 4.0 * (r * r) as f64);
    iterations as f64 * (dense + grams + data + chol)
}

fn main() {
    let (m, n, repeats) = (48, 400, 5);
    let rank = 8;
    let cfg = LoliIrConfig { rank, max_iters: 300, ..Default::default() };

    // Yesterday's problem produces the warm seed; today's (small drift) is
    // what both phases actually solve — cold from scratch, warm from the seed.
    let yesterday_truth = pseudo(m, n, 7);
    let yesterday_prior = pseudo(m, n, 11);
    let truth = drifted(&yesterday_truth, 0.25);
    let prior = drifted(&yesterday_prior, 0.25);
    let cols: Vec<usize> = (0..n).step_by(3).collect();
    let mask = Mask::from_columns(m, n, &cols).expect("in-range reference columns");
    let observed = mask.count();
    let g = NeighborGraph::new(n, (0..n - 1).map(|j| (j, j + 1)));
    let h = NeighborGraph::new(m, (0..m - 1).map(|i| (i, i + 1)));
    let yesterday = ReconstructionProblem {
        observed: &yesterday_truth,
        mask: &mask,
        lrr_prior: Some(&yesterday_prior),
        location_graph: Some(&g),
        link_graph: Some(&h),
        empty_rss: None,
        distortion: None,
    };
    let problem = ReconstructionProblem {
        observed: &truth,
        mask: &mask,
        lrr_prior: Some(&prior),
        location_graph: Some(&g),
        link_graph: Some(&h),
        empty_rss: None,
        distortion: None,
    };
    // Distorted everywhere on the first 4 links and the first 40 cells, and
    // on a scattered 70% of the other entries: 39 of the 399 location edges
    // and 3 of the 47 link edges stay fully active, the rest are partial.
    let distortion = {
        let mut d = Mask::trues(m, n);
        for i in 4..m {
            for j in 40..n {
                if (i * 37 + j * 11) % 100 >= 70 {
                    d.set(i, j, false);
                }
            }
        }
        d
    };
    let empty: Vec<f64> = (0..m).map(|i| -40.0 - (i % 5) as f64 * 1.5).collect();
    let masked =
        ReconstructionProblem { empty_rss: Some(&empty), distortion: Some(&distortion), ..problem };

    println!(
        "solver_bench: {m} links x {n} cells, rank {rank}, max {} iters, {repeats} repeats/phase",
        cfg.max_iters
    );

    // The warm seed: yesterday's converged solution, adopted the way the
    // daemon adopts a guard-accepted refresh. Not timed.
    let seed_rec = reconstruct_warm(&yesterday, &cfg, &mut SolverWorkspace::new(), None)
        .expect("seed reconstruction succeeds");
    assert!(seed_rec.converged, "seed solve must converge before it may seed anything");
    let warm = WarmState::from_reconstruction(&seed_rec);

    // One timed solve on a reused workspace: steady-state iterations allocate
    // nothing, so the clock measures arithmetic, not the allocator.
    let solve = |problem: &ReconstructionProblem<'_>,
                 ws: &mut SolverWorkspace,
                 warm: Option<&WarmState>| {
        let t0 = Instant::now();
        let rec = reconstruct_warm(problem, &cfg, ws, warm).expect("reconstruction succeeds");
        (t0.elapsed().as_secs_f64() * 1e3, rec)
    };

    let modes: &[(&'static str, &ReconstructionProblem<'_>, Option<&WarmState>)] =
        &[("cold", &problem, None), ("warm", &problem, Some(&warm)), ("masked", &masked, None)];
    let mut results: Vec<Json> = Vec::new();
    let mut iterations: Vec<usize> = Vec::new();
    for &(mode, problem, warm_opt) in modes {
        let mut ws = SolverWorkspace::new();
        let mut samples = Vec::with_capacity(repeats);
        let _warmup = solve(problem, &mut ws, warm_opt);
        let mut last: Option<Reconstruction> = None;
        for _ in 0..repeats {
            let (ms, rec) = solve(problem, &mut ws, warm_opt);
            samples.push(ms);
            last = Some(rec);
        }
        let rec = last.expect("at least one repeat");
        assert_eq!(rec.warm_start, warm_opt.is_some(), "{mode} phase used the wrong seed");

        let wall = Ecdf::new(&samples).expect("finite timings");
        let (median_ms, min_ms, max_ms) = (wall.median(), wall.min(), wall.max());
        let trace = &rec.objective_trace;
        let objective = *trace.last().expect("non-empty trace");
        // The solver stops when (prev - f).abs() <= tol * prev.abs().max(1);
        // report the same normalized delta so readers can see how far from
        // the tolerance a max-iters run ended.
        let final_rel_delta = if trace.len() >= 2 {
            let prev = trace[trace.len() - 2];
            (prev - objective).abs() / prev.abs().max(1.0)
        } else {
            0.0
        };
        let stop_reason = if rec.converged { "converged" } else { "max_iters" };
        let gflops =
            estimated_flops(m, n, rank, observed, rec.iterations) / (median_ms * 1e-3) / 1e9;
        println!(
            "  {mode:>6}: median {median_ms:.3} ms (min {min_ms:.3}, max {max_ms:.3}), \
             {} iters (stop: {stop_reason}), objective {objective:.3}, ~{gflops:.2} GFLOP/s",
            rec.iterations,
        );
        iterations.push(rec.iterations);
        results.push(Json::Obj(vec![
            ("mode".into(), Json::Str(mode.into())),
            ("wall_ms".into(), Json::Num(perf::round_ms(median_ms))),
            ("wall_min_ms".into(), Json::Num(perf::round_ms(min_ms))),
            ("wall_max_ms".into(), Json::Num(perf::round_ms(max_ms))),
            ("iterations".into(), Json::Num(rec.iterations as f64)),
            ("converged".into(), Json::Bool(rec.converged)),
            ("stop_reason".into(), Json::Str(stop_reason.into())),
            ("objective".into(), Json::Num(objective)),
            ("final_rel_delta".into(), Json::Num(final_rel_delta)),
            ("gflops".into(), Json::Num(perf::round_ms(gflops))),
        ]));
    }

    let (cold_iterations, warm_iterations) = (iterations[0], iterations[1]);
    println!(
        "  warm refresh: {warm_iterations} iters vs {cold_iterations} cold \
         ({:.1}% of the cold descent)",
        100.0 * warm_iterations as f64 / cold_iterations.max(1) as f64
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("solver".into())),
        (
            "problem".into(),
            Json::Obj(vec![
                ("links".into(), Json::Num(m as f64)),
                ("cells".into(), Json::Num(n as f64)),
                ("rank".into(), Json::Num(rank as f64)),
                ("max_iters".into(), Json::Num(cfg.max_iters as f64)),
                ("repeats".into(), Json::Num(repeats as f64)),
                ("drift_db".into(), Json::Num(0.25)),
            ]),
        ),
        ("cold_iterations".into(), Json::Num(cold_iterations as f64)),
        ("warm_iterations".into(), Json::Num(warm_iterations as f64)),
        ("peak_rss_kb".into(), perf::peak_rss_json()),
        ("results".into(), Json::Arr(results)),
    ]);
    perf::record("solver", &report);
}
