//! Ablation `abl-z`: is the correlation matrix `Z` really better left fixed?
//!
//! The paper's core assumption is that `Z` (learned once, at full-calibration
//! time) encodes *stable* spatial structure, while the raw RSS drifts. The
//! alternative — refit `Z` on each reconstructed database — creates a feedback
//! loop where reconstruction errors contaminate the correlation structure of
//! every later update. This experiment runs monthly updates for half a year
//! under both policies and tracks the database error after each update.
//!
//! Usage: `cargo run --release -p taf-bench --bin ablation_zpolicy [seeds] [samples]`

use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig, ZRefreshPolicy};

const UPDATE_DAYS: [f64; 6] = [30.0, 60.0, 90.0, 120.0, 150.0, 180.0];

fn run_seed(policy: ZRefreshPolicy, seed: u64, samples: usize) -> Vec<f64> {
    let world = World::new(WorldConfig::paper_default(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let cfg = TafLocConfig { z_policy: policy, ..Default::default() };
    let mut sys = TafLoc::calibrate(cfg, db, e0).expect("calibration succeeds");

    UPDATE_DAYS
        .iter()
        .map(|&t| {
            let fresh = campaign::measure_columns(&world, t, sys.reference_cells(), samples);
            let empty = campaign::empty_snapshot(&world, t, samples);
            sys.update(&fresh, &empty).expect("update succeeds");
            let truth = world.fingerprint_truth(t);
            sys.db().mean_abs_error(&truth).expect("shapes agree")
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let num_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let seeds: Vec<u64> = (1..=num_seeds).collect();

    eprintln!("ablation_zpolicy: monthly updates for 180 days, {} seeds ...", seeds.len());
    let mut rows = Vec::new();
    for (name, policy) in [
        ("Z fixed (paper)", ZRefreshPolicy::Fixed),
        ("Z refit each update", ZRefreshPolicy::RefitAfterUpdate),
    ] {
        let per_seed: Vec<_> = seeds.iter().map(|&s| run_seed(policy, s, samples)).collect();
        let mut avg = vec![0.0; UPDATE_DAYS.len()];
        for r in &per_seed {
            for (a, v) in avg.iter_mut().zip(r) {
                *a += v / per_seed.len() as f64;
            }
        }
        rows.push((name, avg));
    }

    println!("\n== Ablation: Z lifecycle (mean DB error in dBm after each monthly update) ==");
    print!("{:>24}", "day");
    for d in UPDATE_DAYS {
        print!(" {:>8.0}", d);
    }
    println!();
    for (name, avg) in &rows {
        print!("{name:>24}");
        for v in avg {
            print!(" {v:>8.2}");
        }
        println!();
    }
}
