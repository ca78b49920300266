//! Multi-target extension experiment (`multi` row in DESIGN.md).
//!
//! Two people stand in the monitored area simultaneously. A single-target
//! fingerprint matcher (TafLoc's) can at best lock onto one of them — its
//! database columns describe exactly one body. RTI, being an imaging method,
//! renders both as separate peaks. This experiment quantifies that boundary of
//! the paper's design (and is why RASS/RTI-style methods remain relevant
//! alongside fingerprints):
//!
//! * **RTI (2 peaks)** — both-found rate (each true position has a peak within
//!   1.5 m) and per-target error;
//! * **TafLoc (single fix)** — distance from its one estimate to the *nearest*
//!   of the two true positions (its best case).
//!
//! Usage: `cargo run --release -p taf-bench --bin multi_target [seeds] [samples]`

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use taf_baselines::{Rti, RtiConfig};
use taf_rfsim::geometry::Segment;
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};

struct SeedOutcome {
    both_found: usize,
    trials: usize,
    rti_errors: Vec<f64>,
    tafloc_nearest_errors: Vec<f64>,
}

fn run_seed(seed: u64, samples: usize) -> SeedOutcome {
    let world = World::new(WorldConfig::paper_default(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let tafloc =
        TafLoc::calibrate(TafLocConfig::default(), db, e0.clone()).expect("calibration succeeds");
    let links: Vec<Segment> = world.deployment().links().iter().map(|l| l.segment).collect();
    let rti = Rti::new(&links, world.grid(), RtiConfig::default()).expect("rti builds");

    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut out = SeedOutcome {
        both_found: 0,
        trials: 0,
        rti_errors: Vec::new(),
        tafloc_nearest_errors: Vec::new(),
    };
    let n = world.num_cells();
    for _ in 0..12 {
        // Draw two cells at least 3 m apart.
        let (c1, c2) = loop {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if world.grid().cell_distance(a, b) >= 3.0 {
                break (a, b);
            }
        };
        let p1 = world.grid().cell_center(c1);
        let p2 = world.grid().cell_center(c2);
        let y = campaign::snapshot_at_points(&world, 0.0, &[p1, p2], samples);
        out.trials += 1;

        // RTI two-peak extraction.
        let peaks = rti.localize_multi(&e0, &y, 2, 2.0).expect("rti localizes");
        let mut found = 0;
        for truth in [p1, p2] {
            let best = peaks.iter().map(|p| p.distance(&truth)).fold(f64::INFINITY, f64::min);
            if best < 1.5 {
                found += 1;
            }
            if best.is_finite() {
                out.rti_errors.push(best);
            }
        }
        if found == 2 {
            out.both_found += 1;
        }

        // TafLoc single-target matcher: its one fix vs the nearest truth.
        let fix = tafloc.localize(&y).expect("tafloc localizes");
        let nearest = fix.point.distance(&p1).min(fix.point.distance(&p2));
        out.tafloc_nearest_errors.push(nearest);
    }
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let num_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(60);
    let seeds: Vec<u64> = (1..=num_seeds).collect();

    eprintln!("multi_target: two simultaneous targets, {} seeds x 12 trials ...", seeds.len());
    let outs: Vec<_> = seeds.iter().map(|&s| run_seed(s, samples)).collect();

    let trials: usize = outs.iter().map(|o| o.trials).sum();
    let both: usize = outs.iter().map(|o| o.both_found).sum();
    let rti_errs: Vec<f64> = outs.iter().flat_map(|o| o.rti_errors.clone()).collect();
    let taf_errs: Vec<f64> = outs.iter().flat_map(|o| o.tafloc_nearest_errors.clone()).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    println!("\n== Two simultaneous device-free targets ==");
    println!("trials: {trials}");
    println!(
        "RTI (2-peak extraction):   both targets found in {:.0}% of trials; mean per-target error {:.2} m",
        100.0 * both as f64 / trials as f64,
        mean(&rti_errs)
    );
    println!(
        "TafLoc (single-target DB): one fix only; distance to NEAREST target {:.2} m mean",
        mean(&taf_errs)
    );
    println!(
        "\nA single-target fingerprint database cannot represent two bodies — the matcher locks \
         onto one (or a blend); imaging methods keep both. Multi-target fingerprinting is the \
         natural future-work direction."
    );
}
