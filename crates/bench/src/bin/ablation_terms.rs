//! Ablation `abl-terms`: which parts of the LoLi-IR objective matter?
//!
//! Compares four reconstruction schemes on the same 90-day update data:
//!
//! 1. **SVT only** — rank-minimization completion from the observed reference
//!    columns (the poster's property-(i)-only formulation). Whole unobserved
//!    columns are badly under-determined, so this is the floor.
//! 2. **LRR only** — `X̂ = X_R(t)·Z` with `Z` learned at day 0 (property (ii)).
//! 3. **LoLi-IR w/o graphs** — low-rank factors + data + LRR prior, `α = β = 0`.
//! 4. **Full LoLi-IR** — everything, including the continuity/similarity terms
//!    (property (iii)).
//!
//! Usage: `cargo run --release -p taf-bench --bin ablation_terms [seeds] [samples]`

use taf_linalg::Matrix;
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::eval::reconstruction_errors;
use tafloc_core::mask::Mask;
use tafloc_core::svt::{soft_impute, SvtConfig};
use tafloc_core::system::{TafLoc, TafLocConfig};

const HORIZON: f64 = 90.0;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn run_seed(seed: u64, samples: usize) -> [f64; 4] {
    let world = World::new(WorldConfig::paper_default(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");

    // Full system (provides reference cells and the fitted Z).
    let full_cfg = TafLocConfig::default();
    let sys = TafLoc::calibrate(full_cfg, db.clone(), e0).expect("calibration succeeds");
    let refs = sys.reference_cells().to_vec();

    let fresh = campaign::measure_columns(&world, HORIZON, &refs, samples);
    let fresh_empty = campaign::empty_snapshot(&world, HORIZON, samples);
    let truth = world.fingerprint_truth(HORIZON);
    let err_of = |m: &Matrix| mean(&reconstruction_errors(m, &truth).expect("shapes agree"));

    // 1. SVT-only completion from the observed columns.
    let (m, n) = (world.num_links(), world.num_cells());
    let mut observed = Matrix::zeros(m, n);
    for (k, &cell) in refs.iter().enumerate() {
        observed.set_col(cell, &fresh.col(k)).expect("in range");
    }
    let mask = Mask::from_columns(m, n, &refs).expect("valid columns");
    let svt = soft_impute(&observed, &mask, &SvtConfig { tau: 0.5, max_iters: 300, tol: 1e-7 })
        .expect("svt completes");
    let e_svt = err_of(&svt.matrix);

    // 2. LRR prediction alone.
    let lrr = sys.lrr().predict(&fresh).expect("prediction succeeds");
    let e_lrr = err_of(&lrr);

    // 3. LoLi-IR without the structure graphs.
    let mut no_graph_cfg = TafLocConfig::default();
    no_graph_cfg.loli.alpha = 0.0;
    no_graph_cfg.loli.beta = 0.0;
    let sys_ng = TafLoc::calibrate(no_graph_cfg, db.clone(), sys.empty_rss().to_vec())
        .expect("calibration succeeds");
    let rec_ng = sys_ng.reconstruct_db(&fresh, &fresh_empty).expect("reconstruction succeeds");
    let e_ng = err_of(&rec_ng.matrix);

    // 4. Full LoLi-IR.
    let rec_full = sys.reconstruct_db(&fresh, &fresh_empty).expect("reconstruction succeeds");
    let e_full = err_of(&rec_full.matrix);

    [e_svt, e_lrr, e_ng, e_full]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let num_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let seeds: Vec<u64> = (1..=num_seeds).collect();

    eprintln!("ablation_terms: {} seeds x {} samples at 90 days ...", seeds.len(), samples);
    let per_seed: Vec<_> = seeds.iter().map(|&s| run_seed(s, samples)).collect();
    let mut avg = [0.0; 4];
    for r in &per_seed {
        for (a, v) in avg.iter_mut().zip(r) {
            *a += v / per_seed.len() as f64;
        }
    }

    println!("\n== Ablation: objective-term contributions (mean recon error at 90 days) ==");
    let labels = [
        "SVT completion only (P1)",
        "LRR prediction only (P2)",
        "LoLi-IR w/o graphs",
        "full LoLi-IR (P1+P2+P3)",
    ];
    for (label, v) in labels.iter().zip(avg) {
        println!("{label:>28}: {v:>8.3} dBm");
    }
}
